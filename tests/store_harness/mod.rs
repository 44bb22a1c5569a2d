//! Shared synthetic-collection harness for the merge, dist and analyze
//! suites.
//!
//! Apart from [`single_scheduler_charge`], the API-level total the dist
//! suites compare against, these helpers drive the store layer directly
//! — no API client, no scheduler — with payloads that are a pure
//! function of `(topic, snapshot, seed)`. Because single-sink commit bytes are deterministic
//! on the payloads alone, a reference store built here is byte-identical
//! to what any crash-free collector would have written for the same
//! data, which lets the crash-matrix and property suites check the
//! merge invariant (`merge(shards(plan, N)) == single_sink(plan)`)
//! exhaustively and fast.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]
// Modulo-based payload derivations read better than `is_multiple_of`
// (and the method needs a newer toolchain than rust-version pins).
#![allow(clippy::manual_is_multiple_of)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use ytaudit::core::dataset::{
    ChannelInfo, CommentFetchError, CommentRecord, CommentsSnapshot, HourlyResult, TopicSnapshot,
    VideoInfo,
};
use ytaudit::core::shard::{finish_config, shard_configs};
use ytaudit::core::testutil::test_client;
use ytaudit::core::{CollectorConfig, CollectorSink, MemorySink, TopicCommit};
use ytaudit::sched::{InProcessFactory, Scheduler, SchedulerConfig};
use ytaudit::store::{finish_store_path, shard_store_path, Store};
use ytaudit::types::{ChannelId, Timestamp, Topic, VideoId};

/// Quota units the synthetic channel-fetch phase reports.
pub const FINISH_DELTA: u64 = 9;

/// The quota the simulated API's own ledger charges one two-worker
/// scheduler, on a fresh corpus of `scale` with `key`, for the whole of
/// `config`: the total every partitioned run must match.
pub fn single_scheduler_charge(scale: f64, key: &str, config: &CollectorConfig) -> u64 {
    let (_client, service) = test_client(scale);
    let factory = InProcessFactory::new(Arc::clone(&service));
    let report = Scheduler::new(&factory, config.clone(), SchedulerConfig::new(2, key))
        .run(&mut MemorySink::new())
        .unwrap();
    assert!(report.completed(), "{:?}", report.outcome);
    service.quota().lifetime_used(key)
}

/// A quick plan over `topics` with comments on (the widest record
/// variety: blobs, hour blocks, ref blocks, comment tails).
pub fn plan(topics: Vec<Topic>, snapshots: usize) -> CollectorConfig {
    CollectorConfig {
        fetch_comments: true,
        ..CollectorConfig::quick(topics, snapshots)
    }
}

fn vid(n: u64) -> VideoId {
    VideoId::new(format!("vid-{n:08}"))
}

fn video_info(n: u64) -> VideoInfo {
    VideoInfo {
        id: vid(n),
        channel_id: ChannelId::new(format!("ch-{:03}", n % 3)),
        published_at: Timestamp::from_ymd(2025, 1, 20).unwrap(),
        duration_secs: 60 + n % 900,
        is_sd: n % 2 == 0,
        views: n.wrapping_mul(100),
        likes: n.wrapping_mul(3),
        comments: n,
    }
}

fn channel_info(n: u64) -> ChannelInfo {
    ChannelInfo {
        id: ChannelId::new(format!("ch-{n:03}")),
        published_at: Timestamp::from_ymd(2018, 6, 1).unwrap(),
        views: 1_000 * (n + 1),
        subscribers: 10 * (n + 1),
        video_count: n + 1,
    }
}

/// The deterministic payload for one `(topic, snapshot)` pair. Pure in
/// `(topic, snapshot, seed)` — never in shard identity — so shard
/// stores and the single-sink reference hold identical blobs.
/// Overlapping ID ranges across snapshots exercise dedup.
pub fn pair_payload(
    cfg: &CollectorConfig,
    topic: Topic,
    snapshot: usize,
    date: Timestamp,
    seed: u64,
) -> (TopicSnapshot, Vec<VideoInfo>, Option<CommentsSnapshot>) {
    let base = seed
        .wrapping_mul(1_000)
        .wrapping_add(topic.index() as u64 * 100 + snapshot as u64);
    let data = TopicSnapshot {
        hours: vec![
            HourlyResult {
                hour: 0,
                video_ids: vec![vid(base), vid(base + 1)],
                total_results: 40_000 + base % 500,
            },
            HourlyResult {
                hour: 7,
                video_ids: vec![vid(base + 1), vid(base + 2)],
                total_results: 41_000,
            },
        ],
        meta_returned: if cfg.fetch_metadata {
            vec![vid(base), vid(base + 1)]
        } else {
            Vec::new()
        },
    };
    let videos: Vec<VideoInfo> = if cfg.fetch_metadata {
        (base..base + 3).map(video_info).collect()
    } else {
        Vec::new()
    };
    let comments = cfg.fetch_comments.then(|| CommentsSnapshot {
        comments: vec![CommentRecord {
            id: format!("c-{}-{snapshot}", topic.key()),
            video_id: vid(base),
            is_reply: snapshot % 2 == 1,
            published_at: date,
        }],
        fetch_errors: if snapshot == 0 && topic.index() == 0 {
            vec![CommentFetchError {
                video_id: vid(base + 2),
                error: "commentThreads.list: video deleted".to_string(),
            }]
        } else {
            Vec::new()
        },
    });
    (data, videos, comments)
}

/// The deterministic quota delta attributed to one pair.
pub fn pair_delta(topic: Topic, snapshot: usize) -> u64 {
    600 + topic.index() as u64 * 10 + snapshot as u64
}

/// The synthetic channel set the finish phase records.
pub fn channels(cfg: &CollectorConfig) -> Vec<ChannelInfo> {
    if cfg.fetch_channels {
        (0..3).map(channel_info).collect()
    } else {
        Vec::new()
    }
}

/// The quota delta the finish phase records.
pub fn finish_delta(cfg: &CollectorConfig) -> u64 {
    if cfg.fetch_channels {
        FINISH_DELTA
    } else {
        0
    }
}

/// Commits one pair through the sink trait, returning the sink's error
/// (crash tests inject faults underneath this call).
pub fn commit_one(
    store: &mut Store,
    cfg: &CollectorConfig,
    topic: Topic,
    snapshot: usize,
    date: Timestamp,
    seed: u64,
) -> ytaudit::types::Result<()> {
    let (data, videos, comments) = pair_payload(cfg, topic, snapshot, date, seed);
    CollectorSink::commit_topic_snapshot(
        store,
        TopicCommit {
            topic,
            snapshot,
            date,
            data: &data,
            comments: comments.as_ref(),
            videos: &videos,
            quota_delta: pair_delta(topic, snapshot),
        },
    )
}

/// Begins `cfg`'s collection and commits every not-yet-committed pair in
/// plan order (snapshot-major) — resume-safe, like the real collector.
pub fn commit_pairs(store: &mut Store, cfg: &CollectorConfig, seed: u64) {
    CollectorSink::begin(store, cfg).unwrap();
    for (snapshot, &date) in cfg.schedule.dates().iter().enumerate() {
        for &topic in &cfg.topics {
            if store.has_commit(topic, snapshot) {
                continue;
            }
            commit_one(store, cfg, topic, snapshot, date, seed).unwrap();
        }
    }
}

/// Builds the single-sink reference store for `cfg` at `path` and
/// returns its bytes — the canonical answer every merge must reproduce.
pub fn build_reference(path: &Path, cfg: &CollectorConfig, seed: u64) -> Vec<u8> {
    let mut store = Store::create(path).unwrap();
    commit_pairs(&mut store, cfg, seed);
    CollectorSink::finish(&mut store, &channels(cfg), finish_delta(cfg)).unwrap();
    assert!(store.complete());
    drop(store);
    std::fs::read(path).unwrap()
}

/// Builds (or resumes) topic shard `index` of a `count`-way split next
/// to `dest`, to completion. Returns its path.
pub fn build_topic_shard(
    dest: &Path,
    parent: &CollectorConfig,
    count: usize,
    index: usize,
    seed: u64,
) -> PathBuf {
    let cfg = shard_configs(parent, count)
        .into_iter()
        .nth(index)
        .expect("shard index in range");
    let path = shard_store_path(dest, index, &cfg.topics);
    let mut store = Store::open_or_create(&path).unwrap();
    commit_pairs(&mut store, &cfg, seed);
    if !store.complete() {
        CollectorSink::finish(&mut store, &[], 0).unwrap();
    }
    assert!(store.complete(), "shard {index} incomplete");
    path
}

/// Builds (or resumes) the finish (channels-only) store of a
/// `count`-way split next to `dest`. Returns its path.
pub fn build_finish_shard(
    dest: &Path,
    parent: &CollectorConfig,
    count: usize,
    _seed: u64,
) -> PathBuf {
    let path = finish_store_path(dest);
    let mut store = Store::open_or_create(&path).unwrap();
    CollectorSink::begin(&mut store, &finish_config(parent, count)).unwrap();
    if !store.complete() {
        CollectorSink::finish(&mut store, &channels(parent), finish_delta(parent)).unwrap();
    }
    assert!(store.complete(), "finish shard incomplete");
    path
}

/// Builds a complete `count`-way shard set for `parent` next to `dest`
/// (the future merged path), mirroring what the workers of a crash-free
/// `coordinate --shards count` run ship. Returns the shard paths.
pub fn build_shards(
    dest: &Path,
    parent: &CollectorConfig,
    count: usize,
    seed: u64,
) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = (0..count)
        .map(|index| build_topic_shard(dest, parent, count, index, seed))
        .collect();
    paths.push(build_finish_shard(dest, parent, count, seed));
    paths
}
