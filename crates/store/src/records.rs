//! Typed records inside the log, and their binary encodings.
//!
//! The store separates *content* from *structure*:
//!
//! * **Blobs** are content-addressed payloads — video ID strings, video
//!   and channel metadata, comment records — written once and referenced
//!   by a 64-bit stable hash (the `platform::hash` mixer). Adjacent
//!   snapshots return mostly the same videos, so blob dedup is where the
//!   space win comes from.
//! * **Blocks** (hour blocks, ref blocks) are per-`(topic, snapshot)`
//!   structure: ordered lists of blob references.
//! * **Commits** are the durability points: one per `(topic, snapshot)`
//!   pair, written *after* every record it references, carrying the
//!   in-file index (hour → block offset) and the pair's quota delta. A
//!   commit that survives a crash therefore only ever references records
//!   at lower offsets, which also survived.

use ytaudit_core::shard::ShardSpec;
use ytaudit_core::CollectorConfig;
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{PlatformKind, Timestamp, Topic, VideoId};

/// Record tags (first payload byte).
pub const TAG_SEGMENT: u8 = 1;
/// Collection-plan record tag.
pub const TAG_BEGIN: u8 = 2;
/// Content-addressed blob tag.
pub const TAG_BLOB: u8 = 3;
/// Hourly search-result block tag.
pub const TAG_HOUR_BLOCK: u8 = 4;
/// Generic reference-list block tag.
pub const TAG_REF_BLOCK: u8 = 5;
/// Per-(topic, snapshot) commit tag.
pub const TAG_COMMIT: u8 = 6;
/// Collection-end record tag.
pub const TAG_END: u8 = 7;

/// Blob kind: a raw video ID string.
pub const BLOB_VIDEO_ID: u8 = 0;
/// Blob kind: parsed `Videos: list` metadata.
pub const BLOB_VIDEO_INFO: u8 = 1;
/// Blob kind: parsed `Channels: list` metadata.
pub const BLOB_CHANNEL_INFO: u8 = 2;
/// Blob kind: one comment record.
pub const BLOB_COMMENT: u8 = 3;

/// Ref-block purpose: the snapshot's `meta_returned` coverage list.
pub const PURPOSE_META_RETURNED: u8 = 0;
/// Ref-block purpose: video metadata fetched at this snapshot.
pub const PURPOSE_VIDEO_META: u8 = 1;
/// Ref-block purpose: the snapshot's comment crawl.
pub const PURPOSE_COMMENTS: u8 = 2;
/// Ref-block purpose: the end-of-collection channel metadata.
pub const PURPOSE_CHANNELS: u8 = 3;

/// Topic used in the channels ref block, which belongs to no topic.
pub const NO_TOPIC: u8 = 0xFF;

/// The stable content address of a blob: `platform::hash` over the body,
/// mixed with the kind so identical bytes of different kinds cannot
/// collide.
pub fn blob_hash(kind: u8, body: &[u8]) -> u64 {
    ytaudit_platform::hash::mix_all(&[ytaudit_platform::hash::hash_bytes(body), u64::from(kind)])
}

/// Decodes a stored platform byte ([`PlatformKind::code`]).
pub fn platform_from_code(code: u8) -> wire::Result<PlatformKind> {
    PlatformKind::from_code(code).ok_or_else(|| format!("unknown platform code {code}"))
}

/// The collection plan, persisted once per store and used to validate
/// resumed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionMeta {
    /// Topics, in the order the collector visits them.
    pub topics: Vec<Topic>,
    /// Snapshot dates in schedule order.
    pub dates: Vec<Timestamp>,
    /// The collector's hourly-binning flag.
    pub hourly_bins: bool,
    /// Whether `Videos: list` metadata is fetched.
    pub fetch_metadata: bool,
    /// Whether `Channels: list` metadata is fetched at the end.
    pub fetch_channels: bool,
    /// Whether comments are crawled on the first and last snapshots.
    pub fetch_comments: bool,
    /// Shard identity when this store is one shard of a `coordinate
    /// --shards N` run. Encoded as an optional Begin tail: single-sink
    /// stores keep the original byte layout, so old stores decode
    /// unchanged.
    pub shard: Option<ShardSpec>,
    /// Which backend collected this store. Encoded as a single optional
    /// trailing byte, present only for non-YouTube stores, so YouTube
    /// stores keep the original byte layout and old stores decode as
    /// [`PlatformKind::Youtube`].
    pub platform: PlatformKind,
}

impl CollectionMeta {
    /// Derives the plan from a collector configuration.
    pub fn of_config(config: &CollectorConfig) -> CollectionMeta {
        CollectionMeta {
            topics: config.topics.clone(),
            dates: config.schedule.dates().to_vec(),
            hourly_bins: config.hourly_bins,
            fetch_metadata: config.fetch_metadata,
            fetch_channels: config.fetch_channels,
            fetch_comments: config.fetch_comments,
            shard: config.shard.clone(),
            platform: config.platform,
        }
    }

    /// Total `(topic, snapshot)` pairs the plan will commit.
    pub fn pairs(&self) -> usize {
        self.topics.len() * self.dates.len()
    }

    /// Writes the plan: the body of a Begin record.
    pub fn put(&self, w: &mut Writer) {
        w.put_topics(&self.topics);
        w.put_list(&self.dates, |w, date| w.put_i64(date.as_secs()));
        w.put_bool(self.hourly_bins);
        w.put_bool(self.fetch_metadata);
        w.put_bool(self.fetch_channels);
        w.put_bool(self.fetch_comments);
        // Optional tail — only present for shard stores, keeping
        // single-sink Begin records byte-identical to the original
        // format.
        if let Some(shard) = &self.shard {
            w.put_u32(shard.index as u32);
            w.put_u32(shard.count as u32);
            w.put_topics(&shard.parent_topics);
            w.put_bool(shard.parent_fetch_channels);
        }
        // Second optional tail — a single platform byte, present only
        // for non-YouTube stores. A shard tail is ≥ 10 bytes, so "exactly
        // one byte left" is unambiguous on decode.
        if self.platform != PlatformKind::Youtube {
            w.put_u8(self.platform.code());
        }
    }

    /// Reads a plan written by [`CollectionMeta::put`]. The optional
    /// tails are detected by how many bytes remain, so the plan must
    /// extend to the end of `r`: nest it with `put_bytes` when more
    /// fields follow.
    pub fn read(r: &mut Reader<'_>) -> wire::Result<CollectionMeta> {
        Ok(CollectionMeta {
            topics: r.topics()?,
            dates: r.list(|r| r.i64().map(Timestamp))?,
            hourly_bins: r.bool()?,
            fetch_metadata: r.bool()?,
            fetch_channels: r.bool()?,
            fetch_comments: r.bool()?,
            shard: if r.remaining() > 1 {
                Some(ShardSpec {
                    index: r.u32()? as usize,
                    count: r.u32()? as usize,
                    parent_topics: r.topics()?,
                    parent_fetch_channels: r.bool()?,
                })
            } else {
                None
            },
            platform: if r.remaining() > 0 {
                platform_from_code(r.u8()?)?
            } else {
                PlatformKind::Youtube
            },
        })
    }
}

/// The in-file index entry written at each `(topic, snapshot)` commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Topic code ([`Topic::code`]).
    pub topic: u8,
    /// Snapshot index within the schedule.
    pub snapshot: u16,
    /// The snapshot's date (seconds since epoch).
    pub date: i64,
    /// Quota units this pair cost to collect.
    pub quota_delta: u64,
    /// `(hour, offset)` for every hour block of the pair, in hour order.
    pub hours: Vec<(u32, u64)>,
    /// Offset of the `meta_returned` ref block (0 = none).
    pub meta_offset: u64,
    /// Offset of the video-metadata ref block (0 = none).
    pub videos_offset: u64,
    /// Offset of the comments ref block (0 = none).
    pub comments_offset: u64,
    /// Per-video comment-fetch failures recorded during this pair's
    /// comment crawl, as `(video_id, error)` pairs. Encoded as an
    /// optional record tail: commits without failures keep the original
    /// byte layout, so old stores decode unchanged.
    pub comment_errors: Vec<(String, String)>,
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Starts a WAL segment: one per append session, with a running
    /// sequence number.
    Segment {
        /// Segment sequence number (0 for the creating session).
        seq: u32,
    },
    /// The collection plan.
    Begin(CollectionMeta),
    /// A content-addressed payload.
    Blob {
        /// One of the `BLOB_*` kinds.
        kind: u8,
        /// The raw body (encoding depends on kind).
        body: Vec<u8>,
    },
    /// One hourly query's results: blob references to video IDs.
    HourBlock {
        /// Topic code.
        topic: u8,
        /// Snapshot index.
        snapshot: u16,
        /// Hour index within the topic's window.
        hour: u32,
        /// The query's `totalResults` pool estimate.
        total_results: u64,
        /// Video-ID blob hashes, in API return order.
        refs: Vec<u64>,
    },
    /// An ordered list of blob references with a purpose marker.
    RefBlock {
        /// One of the `PURPOSE_*` markers.
        purpose: u8,
        /// Topic code, or [`NO_TOPIC`] for the channels block.
        topic: u8,
        /// Snapshot index (0 for the channels block).
        snapshot: u16,
        /// Blob hashes, in order.
        refs: Vec<u64>,
    },
    /// The `(topic, snapshot)` durability point.
    Commit(CommitRecord),
    /// The end of the collection.
    End {
        /// Quota spent after the last pair commit (channel fetches).
        quota_final_delta: u64,
        /// Offset of the channels ref block (0 = none).
        channels_offset: u64,
    },
}

impl Record {
    /// Encodes the record into a log payload.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| match self {
            Record::Segment { seq } => {
                w.put_u8(TAG_SEGMENT);
                w.put_u32(*seq);
            }
            Record::Begin(meta) => {
                w.put_u8(TAG_BEGIN);
                meta.put(w);
            }
            Record::Blob { kind, body } => {
                w.put_u8(TAG_BLOB);
                w.put_u8(*kind);
                // Body is the frame's tail; its length is implied.
                w.put_raw(body);
            }
            Record::HourBlock {
                topic,
                snapshot,
                hour,
                total_results,
                refs,
            } => {
                w.put_u8(TAG_HOUR_BLOCK);
                w.put_u8(*topic);
                w.put_u16(*snapshot);
                w.put_u32(*hour);
                w.put_u64(*total_results);
                w.put_list(refs, |w, &r| w.put_u64(r));
            }
            Record::RefBlock {
                purpose,
                topic,
                snapshot,
                refs,
            } => {
                w.put_u8(TAG_REF_BLOCK);
                w.put_u8(*purpose);
                w.put_u8(*topic);
                w.put_u16(*snapshot);
                w.put_list(refs, |w, &r| w.put_u64(r));
            }
            Record::Commit(c) => {
                w.put_u8(TAG_COMMIT);
                w.put_u8(c.topic);
                w.put_u16(c.snapshot);
                w.put_i64(c.date);
                w.put_u64(c.quota_delta);
                w.put_list(&c.hours, |w, &(hour, offset)| {
                    w.put_u32(hour);
                    w.put_u64(offset);
                });
                w.put_u64(c.meta_offset);
                w.put_u64(c.videos_offset);
                w.put_u64(c.comments_offset);
                // Optional tail — only present when there are failures,
                // keeping failure-free commits byte-identical to the
                // original format.
                if !c.comment_errors.is_empty() {
                    w.put_list(&c.comment_errors, |w, (video_id, error)| {
                        w.put_str(video_id);
                        w.put_str(error);
                    });
                }
            }
            Record::End {
                quota_final_delta,
                channels_offset,
            } => {
                w.put_u8(TAG_END);
                w.put_u64(*quota_final_delta);
                w.put_u64(*channels_offset);
            }
        })
    }

    /// Decodes a log payload.
    pub fn decode(payload: &[u8]) -> wire::Result<Record> {
        if let Some(blob) = blob_parts(payload) {
            let (kind, body) = blob?;
            return Ok(Record::Blob {
                kind,
                body: body.to_vec(),
            });
        }
        wire::decode(payload, |r| {
            Ok(match r.u8()? {
                TAG_SEGMENT => Record::Segment { seq: r.u32()? },
                TAG_BEGIN => Record::Begin(CollectionMeta::read(r)?),
                TAG_HOUR_BLOCK => Record::HourBlock {
                    topic: r.u8()?,
                    snapshot: r.u16()?,
                    hour: r.u32()?,
                    total_results: r.u64()?,
                    refs: r.list(Reader::u64)?,
                },
                TAG_REF_BLOCK => match r.u8()? {
                    purpose @ 0..=PURPOSE_CHANNELS => Record::RefBlock {
                        purpose,
                        topic: r.u8()?,
                        snapshot: r.u16()?,
                        refs: r.list(Reader::u64)?,
                    },
                    purpose => return Err(format!("unknown ref-block purpose {purpose}")),
                },
                TAG_COMMIT => Record::Commit(CommitRecord {
                    topic: r.u8()?,
                    snapshot: r.u16()?,
                    date: r.i64()?,
                    quota_delta: r.u64()?,
                    hours: r.list(|r| Ok((r.u32()?, r.u64()?)))?,
                    meta_offset: r.u64()?,
                    videos_offset: r.u64()?,
                    comments_offset: r.u64()?,
                    comment_errors: if r.remaining() > 0 {
                        r.list(|r| Ok((r.str()?.to_string(), r.str()?.to_string())))?
                    } else {
                        Vec::new()
                    },
                }),
                TAG_END => Record::End {
                    quota_final_delta: r.u64()?,
                    channels_offset: r.u64()?,
                },
                other => return Err(format!("unknown record tag {other}")),
            })
        })
    }
}

/// The kind and body of a blob record, borrowed from its payload, or
/// `None` when `payload` holds another record.
pub fn blob_parts(payload: &[u8]) -> Option<wire::Result<(u8, &[u8])>> {
    match payload {
        [TAG_BLOB, kind @ 0..=BLOB_COMMENT, body @ ..] => Some(Ok((*kind, body))),
        [TAG_BLOB, kind, ..] => Some(Err(format!("unknown blob kind {kind}"))),
        [TAG_BLOB] => Some(Err("blob record without a kind".to_string())),
        _ => None,
    }
}

/// Decodes a video ID blob body (the raw string bytes).
pub fn decode_video_id(body: &[u8]) -> wire::Result<VideoId> {
    std::str::from_utf8(body)
        .map(VideoId::new)
        .map_err(|e| format!("video id not UTF-8: {e}"))
}

/// An hour block whose ref count claims `u32::MAX` entries.
#[cfg(test)]
pub(crate) fn huge_count_hour_block() -> Vec<u8> {
    wire::encode(|w| {
        w.put_u8(TAG_HOUR_BLOCK);
        w.put_u8(0);
        w.put_u16(0);
        w.put_u32(0);
        w.put_u64(0);
        w.put_u32(u32::MAX);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> CollectionMeta {
        CollectionMeta {
            topics: vec![Topic::Higgs, Topic::Blm],
            dates: vec![
                Timestamp::from_ymd(2025, 2, 9).unwrap(),
                Timestamp::from_ymd(2025, 2, 14).unwrap(),
            ],
            hourly_bins: true,
            fetch_metadata: true,
            fetch_channels: true,
            fetch_comments: false,
            shard: None,
            platform: PlatformKind::Youtube,
        }
    }

    fn samples() -> Vec<Record> {
        vec![
            Record::Segment { seq: 3 },
            Record::Begin(meta()),
            Record::Begin(CollectionMeta {
                topics: vec![Topic::Blm],
                shard: Some(ShardSpec {
                    index: 1,
                    count: 2,
                    parent_topics: vec![Topic::Higgs, Topic::Blm],
                    parent_fetch_channels: true,
                }),
                ..meta()
            }),
            Record::Begin(CollectionMeta {
                topics: vec![],
                shard: Some(ShardSpec {
                    index: 2,
                    count: 2,
                    parent_topics: vec![Topic::Higgs, Topic::Blm],
                    parent_fetch_channels: false,
                }),
                ..meta()
            }),
            Record::Blob {
                kind: BLOB_VIDEO_ID,
                body: b"dQw4w9WgXcQ".to_vec(),
            },
            Record::HourBlock {
                topic: 4,
                snapshot: 7,
                hour: 402,
                total_results: 42_000,
                refs: vec![1, u64::MAX, 99],
            },
            Record::RefBlock {
                purpose: PURPOSE_CHANNELS,
                topic: NO_TOPIC,
                snapshot: 0,
                refs: vec![],
            },
            Record::Commit(CommitRecord {
                topic: 0,
                snapshot: 15,
                date: 1_740_000_000,
                quota_delta: 680,
                hours: vec![(0, 8), (1, 977)],
                meta_offset: 1_024,
                videos_offset: 0,
                comments_offset: 2_048,
                comment_errors: Vec::new(),
            }),
            Record::Commit(CommitRecord {
                topic: 2,
                snapshot: 0,
                date: 1_740_000_000,
                quota_delta: 912,
                hours: vec![(3, 55)],
                meta_offset: 0,
                videos_offset: 0,
                comments_offset: 4_096,
                comment_errors: vec![
                    (
                        "dQw4w9WgXcQ".to_string(),
                        "commentThreads.list: gone".to_string(),
                    ),
                    (
                        "xvFZjo5PgG0".to_string(),
                        "comments.list T1: vanished".to_string(),
                    ),
                ],
            }),
            Record::End {
                quota_final_delta: 12,
                channels_offset: 640,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in samples() {
            let encoded = record.encode();
            assert_eq!(Record::decode(&encoded).unwrap(), record, "{record:?}");
        }
    }

    #[test]
    fn error_free_commits_keep_the_original_byte_layout() {
        // The comment-errors tail is only written when non-empty, so a
        // failure-free commit must encode to exactly the pre-tail size:
        // tag + topic + snapshot + date + quota + hour count + hours +
        // three offsets.
        let commit = Record::Commit(CommitRecord {
            topic: 1,
            snapshot: 2,
            date: 1_740_000_000,
            quota_delta: 100,
            hours: vec![(0, 8), (1, 977)],
            meta_offset: 64,
            videos_offset: 128,
            comments_offset: 0,
            comment_errors: Vec::new(),
        });
        let expected = 1 + 1 + 2 + 8 + 8 + 4 + 2 * (4 + 8) + 3 * 8;
        assert_eq!(commit.encode().len(), expected);
    }

    #[test]
    fn shardless_begin_keeps_the_original_byte_layout() {
        // The shard tail is only written for shard stores, so a
        // single-sink Begin must encode to exactly the pre-tail size:
        // tag + topic count + 2 codes + date count + 2 dates + 4 flags.
        let expected = 1 + 1 + 2 + 4 + 2 * 8 + 4;
        assert_eq!(Record::Begin(meta()).encode().len(), expected);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[0xEE, 1, 2]).is_err());
        // Trailing garbage after a well-formed record.
        let mut bytes = Record::Segment { seq: 1 }.encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err());
        // Bad topic code inside Begin.
        let mut begin = Record::Begin(meta()).encode();
        begin[2] = 200; // first topic code
        assert!(Record::decode(&begin).is_err());
    }

    #[test]
    fn blob_bodies_round_trip() {
        use ytaudit_core::dataset::{
            put_channel_info, put_comment, put_video_info, read_channel_info, read_comment,
            read_video_info, ChannelInfo, CommentRecord, VideoInfo,
        };
        use ytaudit_types::wire::{decode, encode};
        use ytaudit_types::ChannelId;

        let v = VideoInfo {
            id: VideoId::new("dQw4w9WgXcQ"),
            channel_id: ChannelId::new("UC38IQsAvIsxxjztdMZQtwHA"),
            published_at: Timestamp::from_ymd(2020, 5, 25).unwrap(),
            duration_secs: 253,
            is_sd: false,
            views: 1_000_000,
            likes: 50_000,
            comments: 1_234,
        };
        let body = encode(|w| put_video_info(w, &v));
        assert_eq!(decode(&body, read_video_info).unwrap(), v);

        let c = ChannelInfo {
            id: ChannelId::new("UC38IQsAvIsxxjztdMZQtwHA"),
            published_at: Timestamp::from_ymd(2010, 1, 1).unwrap(),
            views: 9_999,
            subscribers: 77,
            video_count: 12,
        };
        let body = encode(|w| put_channel_info(w, &c));
        assert_eq!(decode(&body, read_channel_info).unwrap(), c);

        let comment = CommentRecord {
            id: "UgxKREWxIgDrw8w2WZp4AaABAg.9".to_string(),
            video_id: VideoId::new("dQw4w9WgXcQ"),
            is_reply: true,
            published_at: Timestamp::from_ymd(2021, 1, 6).unwrap(),
        };
        let mut body = encode(|w| put_comment(w, &comment));
        assert_eq!(decode(&body, read_comment).unwrap(), comment);
        body.push(0);
        assert!(decode(&body, read_comment).is_err(), "trailing bytes");

        let id = VideoId::new("dQw4w9WgXcQ");
        assert_eq!(decode_video_id(id.as_str().as_bytes()).unwrap(), id);
    }

    /// A 20-byte hour block claiming `u32::MAX` refs must fail to decode,
    /// not reserve 34 GB; so must every sample with any 4-byte window
    /// overwritten by a huge count.
    #[test]
    fn huge_counts_are_rejected_before_allocating() {
        assert!(Record::decode(&huge_count_hour_block()).is_err());
        for bytes in samples().iter().map(Record::encode) {
            for at in 0..bytes.len().saturating_sub(3) {
                let mut mutated = bytes.clone();
                mutated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let _ = Record::decode(&mutated);
            }
        }
    }

    #[test]
    fn blob_hashes_are_stable_and_kind_sensitive() {
        let body = b"dQw4w9WgXcQ";
        assert_eq!(
            blob_hash(BLOB_VIDEO_ID, body),
            blob_hash(BLOB_VIDEO_ID, body)
        );
        assert_ne!(
            blob_hash(BLOB_VIDEO_ID, body),
            blob_hash(BLOB_COMMENT, body),
            "kind participates in the address"
        );
        assert_ne!(
            blob_hash(BLOB_VIDEO_ID, b"dQw4w9WgXcQ"),
            blob_hash(BLOB_VIDEO_ID, b"dQw4w9WgXcR")
        );
    }

    #[test]
    fn topic_codes_round_trip() {
        for topic in Topic::ALL {
            assert_eq!(wire::topic_from_code(topic.code()).unwrap(), topic);
        }
        assert!(wire::topic_from_code(6).is_err());
        assert!(wire::topic_from_code(NO_TOPIC).is_err());
    }
}
