//! The collected audit dataset: what the paper's analyses consume. Each
//! fetched record type has one binary encoding (a `put_*`/`read_*` pair),
//! shared by the store's blob bodies and the analyzer checkpoint.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{ChannelId, Timestamp, Topic, VideoId};

/// One hourly query's result within a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HourlyResult {
    /// Hour index within the topic's 28-day window (0..672).
    pub hour: u32,
    /// Video IDs returned for this hour, in API order.
    pub video_ids: Vec<VideoId>,
    /// The query's `pageInfo.totalResults` pool estimate.
    pub total_results: u64,
}

/// One topic's data within one snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TopicSnapshot {
    /// Per-hour results (sparse: only hours that were queried).
    pub hours: Vec<HourlyResult>,
    /// Video IDs for which `Videos: list` returned metadata immediately
    /// after this snapshot's search (Figure 4's coverage numerator).
    pub meta_returned: Vec<VideoId>,
}

impl TopicSnapshot {
    /// The union of all hourly returns.
    pub fn id_set(&self) -> HashSet<VideoId> {
        self.hours
            .iter()
            .flat_map(|h| h.video_ids.iter().cloned())
            .collect()
    }

    /// Total videos returned across hours (set size; hourly bins are
    /// disjoint by construction).
    pub fn total_returned(&self) -> usize {
        self.hours.iter().map(|h| h.video_ids.len()).sum()
    }

    /// Per-hour counts aligned to `hour` indices.
    pub fn hourly_counts(&self) -> Vec<(u32, usize)> {
        self.hours
            .iter()
            .map(|h| (h.hour, h.video_ids.len()))
            .collect()
    }
}

/// Parsed video metadata (from `Videos: list`), in native numeric types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoInfo {
    /// The video.
    pub id: VideoId,
    /// Uploading channel.
    pub channel_id: ChannelId,
    /// Upload instant.
    pub published_at: Timestamp,
    /// Duration in seconds.
    pub duration_secs: u64,
    /// Whether the video is standard definition (vs HD).
    pub is_sd: bool,
    /// View count.
    pub views: u64,
    /// Like count.
    pub likes: u64,
    /// Comment count.
    pub comments: u64,
}

/// Parsed channel metadata (from `Channels: list`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelInfo {
    /// The channel.
    pub id: ChannelId,
    /// Creation instant.
    pub published_at: Timestamp,
    /// Total channel views.
    pub views: u64,
    /// Subscriber count.
    pub subscribers: u64,
    /// Number of uploads.
    pub video_count: u64,
}

/// One comment as the comment analyses need it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommentRecord {
    /// Comment ID.
    pub id: String,
    /// The video it is on.
    pub video_id: VideoId,
    /// Whether it is a nested reply.
    pub is_reply: bool,
    /// Posting instant.
    pub published_at: Timestamp,
}

/// Writes a [`VideoInfo`] (the store's video-metadata blob layout).
pub fn put_video_info(w: &mut Writer, v: &VideoInfo) {
    w.put_str(v.id.as_str());
    w.put_str(v.channel_id.as_str());
    w.put_i64(v.published_at.as_secs());
    w.put_u64(v.duration_secs);
    w.put_bool(v.is_sd);
    w.put_u64(v.views);
    w.put_u64(v.likes);
    w.put_u64(v.comments);
}

/// Reads a [`VideoInfo`] written by [`put_video_info`].
pub fn read_video_info(r: &mut Reader<'_>) -> wire::Result<VideoInfo> {
    Ok(VideoInfo {
        id: VideoId::new(r.str()?),
        channel_id: ChannelId::new(r.str()?),
        published_at: Timestamp(r.i64()?),
        duration_secs: r.u64()?,
        is_sd: r.bool()?,
        views: r.u64()?,
        likes: r.u64()?,
        comments: r.u64()?,
    })
}

/// Writes a [`ChannelInfo`] (the store's channel-metadata blob layout).
pub fn put_channel_info(w: &mut Writer, c: &ChannelInfo) {
    w.put_str(c.id.as_str());
    w.put_i64(c.published_at.as_secs());
    w.put_u64(c.views);
    w.put_u64(c.subscribers);
    w.put_u64(c.video_count);
}

/// Reads a [`ChannelInfo`] written by [`put_channel_info`].
pub fn read_channel_info(r: &mut Reader<'_>) -> wire::Result<ChannelInfo> {
    Ok(ChannelInfo {
        id: ChannelId::new(r.str()?),
        published_at: Timestamp(r.i64()?),
        views: r.u64()?,
        subscribers: r.u64()?,
        video_count: r.u64()?,
    })
}

/// Writes a [`CommentRecord`] (the store's comment blob layout).
pub fn put_comment(w: &mut Writer, c: &CommentRecord) {
    w.put_str(&c.id);
    w.put_str(c.video_id.as_str());
    w.put_bool(c.is_reply);
    w.put_i64(c.published_at.as_secs());
}

/// Reads a [`CommentRecord`] written by [`put_comment`].
pub fn read_comment(r: &mut Reader<'_>) -> wire::Result<CommentRecord> {
    Ok(CommentRecord {
        id: r.str()?.to_string(),
        video_id: VideoId::new(r.str()?),
        is_reply: r.bool()?,
        published_at: Timestamp(r.i64()?),
    })
}

/// A comment fetch that failed for one video. The quota was still spent;
/// recording the failure keeps attrition accounting honest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommentFetchError {
    /// The video whose comment thread could not be fetched.
    pub video_id: VideoId,
    /// The API error, as reported by the client.
    pub error: String,
}

/// Comments fetched at one snapshot (the paper only does first and last).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CommentsSnapshot {
    /// All comments fetched, across the snapshot's videos.
    pub comments: Vec<CommentRecord>,
    /// Per-video fetch failures (comments disabled, video deleted, …).
    #[serde(default)]
    pub fetch_errors: Vec<CommentFetchError>,
}

/// One full snapshot: every topic collected at one date.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The collection date.
    pub date: Timestamp,
    /// Per-topic results.
    pub topics: BTreeMap<Topic, TopicSnapshot>,
    /// Comments per topic, when collected at this snapshot.
    #[serde(default)]
    pub comments: BTreeMap<Topic, CommentsSnapshot>,
}

/// The full audit dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditDataset {
    /// Topics collected.
    pub topics: Vec<Topic>,
    /// Snapshots in schedule order.
    pub snapshots: Vec<Snapshot>,
    /// Merged video metadata across snapshots (first successful fetch
    /// wins; misses are per-snapshot, tracked in `meta_returned`). Keyed
    /// in ID order, so the dataset's JSON is the same bytes on every run.
    pub video_meta: BTreeMap<VideoId, VideoInfo>,
    /// Channel metadata fetched at the end of the collection, in ID order.
    pub channel_meta: BTreeMap<ChannelId, ChannelInfo>,
    /// Quota units the collection spent (client-side bookkeeping).
    pub quota_units_spent: u64,
}

impl AuditDataset {
    /// The per-topic ID set of snapshot `t`.
    pub fn id_set(&self, topic: Topic, snapshot: usize) -> HashSet<VideoId> {
        self.snapshots
            .get(snapshot)
            .and_then(|s| s.topics.get(&topic))
            .map(TopicSnapshot::id_set)
            .unwrap_or_default()
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether there are no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Presence matrix for `topic`: for every video ever seen, a boolean
    /// per snapshot (the attrition analysis input).
    pub fn presence_sequences(&self, topic: Topic) -> Vec<(VideoId, Vec<bool>)> {
        let sets: Vec<HashSet<VideoId>> = (0..self.len()).map(|i| self.id_set(topic, i)).collect();
        let mut all: Vec<VideoId> = sets
            .iter()
            .flat_map(|s| s.iter().cloned())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        all.sort();
        all.into_iter()
            .map(|id| {
                let presence = sets.iter().map(|s| s.contains(&id)).collect();
                (id, presence)
            })
            .collect()
    }

    /// Serializes to JSON (for caching expensive collections).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON.
    pub fn from_json(text: &str) -> Result<AuditDataset, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(n: u64) -> VideoId {
        VideoId::mint(1, n)
    }

    fn snapshot(date_day: i64, ids: &[u64]) -> Snapshot {
        let mut topics = BTreeMap::new();
        topics.insert(
            Topic::Higgs,
            TopicSnapshot {
                hours: vec![HourlyResult {
                    hour: 0,
                    video_ids: ids.iter().map(|&n| vid(n)).collect(),
                    total_results: 40_000,
                }],
                meta_returned: Vec::new(),
            },
        );
        Snapshot {
            date: Timestamp::from_ymd(2025, 2, 9).unwrap().add_days(date_day),
            topics,
            comments: BTreeMap::new(),
        }
    }

    fn dataset() -> AuditDataset {
        AuditDataset {
            topics: vec![Topic::Higgs],
            snapshots: vec![
                snapshot(0, &[1, 2, 3]),
                snapshot(5, &[2, 3, 4]),
                snapshot(10, &[2, 4]),
            ],
            video_meta: BTreeMap::new(),
            channel_meta: BTreeMap::new(),
            quota_units_spent: 300,
        }
    }

    #[test]
    fn id_sets_per_snapshot() {
        let ds = dataset();
        assert_eq!(ds.id_set(Topic::Higgs, 0).len(), 3);
        assert_eq!(ds.id_set(Topic::Higgs, 9).len(), 0);
    }

    #[test]
    fn presence_sequences_cover_all_videos() {
        let ds = dataset();
        let seqs = ds.presence_sequences(Topic::Higgs);
        assert_eq!(seqs.len(), 4);
        let by_id: BTreeMap<_, _> = seqs.into_iter().collect();
        assert_eq!(by_id[&vid(1)], vec![true, false, false]);
        assert_eq!(by_id[&vid(2)], vec![true, true, true]);
        assert_eq!(by_id[&vid(4)], vec![false, true, true]);
    }

    #[test]
    fn json_round_trip() {
        let ds = dataset();
        let json = ds.to_json().unwrap();
        let back = AuditDataset::from_json(&json).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn hourly_counts_and_totals() {
        let ds = dataset();
        let ts = &ds.snapshots[0].topics[&Topic::Higgs];
        assert_eq!(ts.total_returned(), 3);
        assert_eq!(ts.hourly_counts(), vec![(0, 3)]);
    }
}
