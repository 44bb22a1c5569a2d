//! # ytaudit-types
//!
//! Domain model shared by every crate in the `ytaudit` workspace, the
//! reproduction of *"I'm Sorry Dave, I'm Afraid I Can't Return That: On
//! YouTube Search API Use in Research"* (IMC 2025).
//!
//! The crate is deliberately dependency-light: it defines
//!
//! * [`id`] — opaque, validated identifiers for videos, channels, playlists
//!   and comments, shaped like the real YouTube identifiers;
//! * [`time`] — a small civil-time implementation ([`Timestamp`],
//!   [`CivilDateTime`]) with RFC 3339 parsing/formatting and ISO-8601 video
//!   durations ([`IsoDuration`]), so the workspace does not need `chrono`;
//! * [`resources`] — the platform-side records ([`Video`], [`Channel`],
//!   [`Comment`]) that the simulated Data API serves;
//! * [`topic`] — the six audit topics from the paper's Appendix A with their
//!   focal dates and query strings;
//! * [`json`] — the compact JSON text writer the simulated API renders its
//!   responses with;
//! * [`error`] — the shared error type mirroring the Data API's error
//!   envelope (reasons such as `quotaExceeded`);
//! * [`wire`] — the binary wire codec (a bounds-checked little-endian
//!   [`wire::Writer`]/[`wire::Reader`] pair) behind the store's record
//!   log, the analyzer checkpoint and the dist protocol;
//! * [`kit`] — the SplitMix64 mixer identifiers are minted with, and the
//!   seeded test kit every property, fuzz and equivalence suite draws its
//!   cases from (one `YTAUDIT_PROP_SEED` rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod id;
pub mod json;
pub mod kit;
pub mod platform;
pub mod resources;
pub mod time;
pub mod topic;
pub mod wire;

pub use error::{ApiErrorReason, Error, Result};
pub use id::{ChannelId, CommentId, PlaylistId, VideoId};
pub use platform::PlatformKind;
pub use resources::{Channel, ChannelStats, Comment, Definition, Video, VideoStats};
pub use time::{CivilDate, CivilDateTime, IsoDuration, Timestamp};
pub use topic::{Topic, TopicSpec};
