//! Wire resources written straight from the platform's records.
//!
//! Each function appends one resource to a [`JsonWriter`] with the key
//! order, omitted optional fields and escaping of the shapes in
//! [`crate::resources`], which clients decode into. Nothing is built
//! first: strings are borrowed from the `Video`, `Channel` and `Comment`
//! records, and etags, counters and RFC 3339 stamps are written in place.

use std::fmt;
use ytaudit_types::json::JsonWriter;
use ytaudit_types::{Channel, Comment, Timestamp, Video};

/// An etag being computed: FNV-1a 64 over the text it covers, fed piece
/// by piece instead of from a formatted string.
#[derive(Debug, Clone, Copy)]
pub struct Etag(u64);

impl Etag {
    /// The etag of the empty text.
    pub fn new() -> Etag {
        Etag(0xcbf2_9ce4_8422_2325)
    }

    /// Covers `text` next.
    pub fn str(mut self, text: &str) -> Etag {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Covers `items` joined by commas next.
    pub fn joined(mut self, items: &[&str]) -> Etag {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self = self.str(",");
            }
            self = self.str(item);
        }
        self
    }

    /// Covers the decimal text of `n` next.
    pub fn num(mut self, n: u64) -> Etag {
        // Hashing never fails.
        let _ = fmt::Write::write_fmt(&mut self, format_args!("{n}"));
        self
    }

    /// Covers the RFC 3339 text of `t` next.
    pub fn time(mut self, t: Timestamp) -> Etag {
        // Hashing never fails.
        let _ = t.write_rfc3339(&mut self);
        self
    }

    /// Writes the etag as the JSON string value of `"etag"`: the quoted
    /// `"yt-sim-<16 hex digits>"`, its quotes escaped. The digits are
    /// written by hand, not through `write!` (DESIGN §17).
    pub fn write(self, w: &mut JsonWriter) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        w.key("etag").str_with(|out| {
            out.push_str("\\\"yt-sim-");
            for shift in (0..16).rev() {
                out.push(char::from(HEX[((self.0 >> (shift * 4)) & 0xf) as usize]));
            }
            out.push_str("\\\"");
        });
    }
}

impl fmt::Write for Etag {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        *self = self.str(s);
        Ok(())
    }
}

impl fmt::Display for Etag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"yt-sim-{:016x}\"", self.0)
    }
}

/// Opens a list response: `kind`, `etag`, and the page tokens present.
pub fn list_head(
    w: &mut JsonWriter,
    kind: &str,
    etag: Etag,
    next_page_token: Option<&str>,
    prev_page_token: Option<&str>,
) {
    w.begin_object();
    w.key("kind").str(kind);
    etag.write(w);
    if let Some(token) = next_page_token {
        w.key("nextPageToken").str(token);
    }
    if let Some(token) = prev_page_token {
        w.key("prevPageToken").str(token);
    }
}

/// `"pageInfo":{…}`.
pub fn page_info(w: &mut JsonWriter, total_results: u64, results_per_page: u64) {
    w.key("pageInfo").begin_object();
    w.key("totalResults").u64(total_results);
    w.key("resultsPerPage").u64(results_per_page);
    w.end_object();
}

/// A video's `"snippet":{…}` (search results and `Videos: list`).
pub fn video_snippet(w: &mut JsonWriter, video: &Video, channel: Option<&Channel>) {
    w.key("snippet").begin_object();
    w.key("publishedAt").timestamp(video.published_at);
    w.key("channelId").str(video.channel_id.as_str());
    w.key("title").str(&video.title);
    w.key("description").str(&video.description);
    w.key("channelTitle")
        .str(channel.map_or("", |c| c.title.as_str()));
    w.key("liveBroadcastContent").str("none");
    w.end_object();
}

/// Which optional parts of a `Videos: list` or `Channels: list` item to
/// write.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    /// `snippet`.
    pub snippet: bool,
    /// `contentDetails`.
    pub content_details: bool,
    /// `statistics`.
    pub statistics: bool,
}

impl Parts {
    /// The parts named in a validated `part` list.
    pub fn of(parts: &[&str]) -> Parts {
        Parts {
            snippet: parts.contains(&"snippet"),
            content_details: parts.contains(&"contentDetails"),
            statistics: parts.contains(&"statistics"),
        }
    }
}

/// One `Videos: list` item.
pub fn video(w: &mut JsonWriter, video: &Video, channel: Option<&Channel>, parts: Parts) {
    w.begin_object();
    w.key("kind").str("youtube#video");
    Etag::new().str(video.id.as_str()).write(w);
    w.key("id").str(video.id.as_str());
    if parts.snippet {
        video_snippet(w, video, channel);
    }
    if parts.content_details {
        w.key("contentDetails").begin_object();
        w.key("duration").str_with(|out| video.duration.write(out));
        w.key("definition").str(video.definition.as_str());
        w.end_object();
    }
    if parts.statistics {
        w.key("statistics").begin_object();
        w.key("viewCount").u64_str(video.stats.views);
        w.key("likeCount").u64_str(video.stats.likes);
        w.key("commentCount").u64_str(video.stats.comments);
        w.end_object();
    }
    w.end_object();
}

/// One `Channels: list` item.
pub fn channel(w: &mut JsonWriter, channel: &Channel, parts: Parts) {
    w.begin_object();
    w.key("kind").str("youtube#channel");
    Etag::new().str(channel.id.as_str()).write(w);
    w.key("id").str(channel.id.as_str());
    if parts.snippet {
        w.key("snippet").begin_object();
        w.key("title").str(&channel.title);
        w.key("description").str("");
        w.key("publishedAt").timestamp(channel.published_at);
        w.end_object();
    }
    if parts.content_details {
        w.key("contentDetails").begin_object();
        w.key("relatedPlaylists").begin_object();
        w.key("uploads").str(channel.id.uploads_playlist().as_str());
        w.end_object();
        w.end_object();
    }
    if parts.statistics {
        w.key("statistics").begin_object();
        w.key("viewCount").u64_str(channel.stats.views);
        w.key("subscriberCount").u64_str(channel.stats.subscribers);
        w.key("hiddenSubscriberCount").bool(false);
        w.key("videoCount").u64_str(channel.stats.video_count);
        w.end_object();
    }
    w.end_object();
}

/// One `PlaylistItems: list` item: `video` at `position` of `playlist`.
pub fn playlist_item(
    w: &mut JsonWriter,
    video: &Video,
    playlist: &str,
    position: u64,
    snippet: bool,
) {
    w.begin_object();
    w.key("kind").str("youtube#playlistItem");
    Etag::new()
        .str(video.id.as_str())
        .str("#")
        .num(position)
        .write(w);
    w.key("id").str(&format!("PLI-{}-{position}", video.id));
    if snippet {
        w.key("snippet").begin_object();
        w.key("publishedAt").timestamp(video.published_at);
        w.key("channelId").str(video.channel_id.as_str());
        w.key("title").str(&video.title);
        w.key("playlistId").str(playlist);
        w.key("position").u64(position);
        w.key("resourceId").begin_object();
        w.key("kind").str("youtube#video");
        w.key("videoId").str(video.id.as_str());
        w.end_object();
        w.end_object();
    }
    w.end_object();
}

/// A comment resource (a thread's top-level comment, an embedded reply,
/// or a `Comments: list` item).
pub fn comment(w: &mut JsonWriter, comment: &Comment) {
    let id = comment.id.as_str();
    w.begin_object();
    w.key("kind").str("youtube#comment");
    Etag::new().str(id).write(w);
    w.key("id").str(id);
    w.key("snippet").begin_object();
    w.key("videoId").str(comment.video_id.as_str());
    w.key("textDisplay").str(&comment.text);
    w.key("authorChannelId")
        .str(comment.author_channel_id.as_str());
    w.key("likeCount").u64(comment.like_count);
    w.key("publishedAt").timestamp(comment.published_at);
    if let Some((parent, _)) = id.split_once('.') {
        w.key("parentId").str(parent);
    }
    w.end_object();
    w.end_object();
}

/// One `CommentThreads: list` item on video `video_id`: the top-level
/// comment and its embedded replies.
pub fn comment_thread(w: &mut JsonWriter, video_id: &str, top: &Comment, replies: &[&Comment]) {
    w.begin_object();
    w.key("kind").str("youtube#commentThread");
    Etag::new().str(top.id.as_str()).write(w);
    w.key("id").str(top.id.as_str());
    w.key("snippet").begin_object();
    w.key("videoId").str(video_id);
    w.key("topLevelComment");
    comment(w, top);
    w.key("totalReplyCount").u64(replies.len() as u64);
    w.key("canReply").bool(true);
    w.end_object();
    if !replies.is_empty() {
        w.key("replies").begin_object();
        w.key("comments").begin_array();
        for reply in replies {
            comment(w, reply);
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
}

/// The error envelope:
/// `{"error":{"code","message","errors":[{…}],"retryAfterSecs"?}}`.
pub fn error_envelope(
    code: u16,
    message: &str,
    domain: &str,
    reason: &str,
    retry_after_secs: Option<u64>,
) -> String {
    let mut w = JsonWriter::with_capacity(96 + 2 * message.len());
    w.begin_object();
    w.key("error").begin_object();
    w.key("code").u64(u64::from(code));
    w.key("message").str(message);
    w.key("errors").begin_array();
    w.begin_object();
    w.key("message").str(message);
    w.key("domain").str(domain);
    w.key("reason").str(reason);
    w.end_object();
    w.end_array();
    if let Some(secs) = retry_after_secs {
        w.key("retryAfterSecs").u64(secs);
    }
    w.end_object();
    w.end_object();
    w.into_string()
}
