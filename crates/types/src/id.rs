//! Opaque identifiers shaped like the real YouTube identifiers.
//!
//! The simulated platform mints identifiers deterministically from integer
//! indices so the whole corpus is reproducible from a seed:
//!
//! * video IDs — 11 characters of the URL-safe base-64 alphabet
//!   (`dQw4w9WgXcQ`);
//! * channel IDs — `UC` + 22 characters (`UC38IQsAvIsxxjztdMZQtwHA`);
//! * uploads-playlist IDs — the channel ID with `UU` substituted for `UC`,
//!   exactly the convention the real Data API uses;
//! * comment IDs — 26 characters, with replies rendered as
//!   `parent.child` the way `CommentThreads: list` nests them.
//!
//! Identifiers are compared and hashed as plain strings; the typed wrappers
//! exist so a channel ID can never be passed where a video ID is expected —
//! the paper shows endpoint/parameter confusion is a real source of
//! irreproducibility in published work.

use crate::kit::mix64;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// The URL-safe base-64 alphabet YouTube identifiers draw from.
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encodes `count` base-64 characters from a stream seeded with `seed`.
fn encode_base64ish(seed: u64, count: usize) -> String {
    let mut out = String::with_capacity(count);
    let mut state = seed;
    let mut bits: u64 = 0;
    let mut available = 0u32;
    for _ in 0..count {
        if available < 6 {
            state = mix64(state);
            bits = state;
            available = 64;
        }
        out.push(ALPHABET[(bits & 0x3F) as usize] as char);
        bits >>= 6;
        available -= 6;
    }
    out
}

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(String);

        impl $name {
            /// Wraps a raw identifier string without validation. The
            /// simulated API, like the real one, treats unknown IDs as
            /// "no such resource" rather than as parse errors.
            pub fn new(raw: impl Into<String>) -> Self {
                Self(raw.into())
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// Consumes the wrapper, returning the raw string.
            pub fn into_string(self) -> String {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(raw: &str) -> Self {
                Self::new(raw)
            }
        }

        impl From<String> for $name {
            fn from(raw: String) -> Self {
                Self(raw)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        // Hashes and compares like the `str` it wraps, so maps keyed by
        // the ID can be probed with a borrowed `&str`.
        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }
    };
}

string_id!(
    /// An 11-character video identifier, e.g. `dQw4w9WgXcQ`.
    VideoId
);
string_id!(
    /// A 24-character channel identifier starting with `UC`.
    ChannelId
);
string_id!(
    /// A playlist identifier; uploads playlists start with `UU`.
    PlaylistId
);
string_id!(
    /// A comment identifier; replies are `parentId.childSuffix`.
    CommentId
);

impl VideoId {
    /// Mints the video ID for corpus index `index` under `seed`.
    pub fn mint(seed: u64, index: u64) -> VideoId {
        VideoId(encode_base64ish(
            mix64(seed ^ 0x5649_4445_4f00_0000).wrapping_add(index),
            11,
        ))
    }
}

impl ChannelId {
    /// Mints the channel ID for corpus index `index` under `seed`.
    pub fn mint(seed: u64, index: u64) -> ChannelId {
        let tail = encode_base64ish(mix64(seed ^ 0x4348_414e_4e45_4c00).wrapping_add(index), 22);
        ChannelId(format!("UC{tail}"))
    }

    /// The channel's uploads playlist, derived the way the real API does:
    /// replace the `UC` prefix with `UU`.
    pub fn uploads_playlist(&self) -> PlaylistId {
        if let Some(tail) = self.0.strip_prefix("UC") {
            PlaylistId(format!("UU{tail}"))
        } else {
            // Defensive: non-standard channel IDs still get a unique
            // playlist handle. `~` is outside the base-64 ID alphabet, so
            // this can never collide with a real `UU…` uploads playlist.
            PlaylistId(format!("UU~{}", self.0))
        }
    }
}

impl PlaylistId {
    /// Recovers the owning channel from an uploads-playlist ID, if this is
    /// one (`UU` prefix).
    pub fn uploads_channel(&self) -> Option<ChannelId> {
        self.0.strip_prefix("UU").map(|tail| {
            if let Some(raw) = tail.strip_prefix('~') {
                ChannelId::new(raw)
            } else {
                ChannelId(format!("UC{tail}"))
            }
        })
    }
}

impl CommentId {
    /// Mints a top-level comment ID for corpus index `index` under `seed`.
    pub fn mint_top_level(seed: u64, index: u64) -> CommentId {
        CommentId(encode_base64ish(
            mix64(seed ^ 0x434f_4d4d_454e_5400).wrapping_add(index),
            26,
        ))
    }

    /// Mints the `reply_index`-th reply under `parent`, rendered as
    /// `parent.suffix` the way the real API nests reply IDs.
    pub fn mint_reply(&self, reply_index: u64) -> CommentId {
        let suffix = encode_base64ish(
            mix64(0x5245_504c_5900_0000 ^ reply_index).wrapping_add(
                self.0.bytes().fold(0u64, |acc, b| {
                    acc.wrapping_mul(131).wrapping_add(u64::from(b))
                }),
            ),
            22,
        );
        CommentId(format!("{}.{}", self.0, suffix))
    }

    /// For a reply ID, the parent top-level comment ID; `None` for
    /// top-level comments.
    pub fn parent(&self) -> Option<CommentId> {
        self.0
            .split_once('.')
            .map(|(parent, _)| CommentId(parent.to_string()))
    }

    /// Whether this is a reply (nested) comment ID.
    pub fn is_reply(&self) -> bool {
        self.0.contains('.')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn video_ids_have_youtube_shape() {
        let id = VideoId::mint(42, 0);
        assert_eq!(id.as_str().len(), 11);
        assert!(id.as_str().bytes().all(|b| ALPHABET.contains(&b)));
    }

    #[test]
    fn channel_ids_have_youtube_shape() {
        let id = ChannelId::mint(42, 7);
        assert_eq!(id.as_str().len(), 24);
        assert!(id.as_str().starts_with("UC"));
    }

    #[test]
    fn minting_is_deterministic_and_distinct() {
        let a = VideoId::mint(1, 10);
        let b = VideoId::mint(1, 10);
        let c = VideoId::mint(1, 11);
        let d = VideoId::mint(2, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn no_collisions_in_a_large_batch() {
        let ids: HashSet<_> = (0..50_000).map(|i| VideoId::mint(99, i)).collect();
        assert_eq!(ids.len(), 50_000);
    }

    #[test]
    fn uploads_playlist_round_trips() {
        let channel = ChannelId::mint(5, 3);
        let playlist = channel.uploads_playlist();
        assert!(playlist.as_str().starts_with("UU"));
        assert_eq!(playlist.uploads_channel().unwrap(), channel);
    }

    #[test]
    fn non_standard_channel_still_gets_playlist() {
        let odd = ChannelId::new("weird");
        let playlist = odd.uploads_playlist();
        assert_eq!(playlist.uploads_channel().unwrap(), odd);
    }

    #[test]
    fn reply_ids_nest_under_parents() {
        let parent = CommentId::mint_top_level(7, 0);
        assert!(!parent.is_reply());
        assert_eq!(parent.parent(), None);
        let reply = parent.mint_reply(2);
        assert!(reply.is_reply());
        assert_eq!(reply.parent().unwrap(), parent);
        assert_ne!(parent.mint_reply(0), parent.mint_reply(1));
    }

    #[test]
    fn ids_serialize_as_plain_strings() {
        let id = VideoId::new("dQw4w9WgXcQ");
        // serde(transparent): the wrapper is invisible on the wire.
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "\"dQw4w9WgXcQ\"");
        let back: VideoId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
