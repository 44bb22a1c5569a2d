//! Batch/streaming analysis equivalence: one numeric code path.
//!
//! `ytaudit analyze` and `ytaudit analyze --follow` both fold `(topic,
//! snapshot)` pairs into the same streaming accumulators
//! (`ytaudit::core::Analyzer`); the batch entry point is literally
//! "fold everything, then finish". This suite pins that equivalence at
//! the strongest level — byte-identical canonical report JSON — across
//! every fold granularity a live follow can encounter:
//!
//! * all pairs at once (a complete store, single poll);
//! * one pair per poll (the steady-state tail of a live collection);
//! * chunked polls with a checkpoint encode/decode restart mid-stream;
//! * a writer and a follower running concurrently on the real file.
//!
//! Payloads are a pure function of `(seed, topic, snapshot)`, with the
//! seed rotated by `YTAUDIT_PROP_SEED` (CI sets it per commit) so
//! every run exercises a fresh dataset without losing reproducibility.
//! Golden-report fixtures under `tests/fixtures/` use fixed seeds
//! instead: they exist to turn silent numeric drift into a red diff, and
//! `YTAUDIT_REGEN_FIXTURES=1` rewrites them when a change is deliberate.

use std::collections::BTreeSet;
use std::path::Path;
use ytaudit::core::dataset::{
    ChannelInfo, CommentFetchError, CommentRecord, CommentsSnapshot, HourlyResult, TopicSnapshot,
    VideoInfo,
};
use ytaudit::core::{Analyzer, CollectorConfig, CollectorSink, TopicCommit};
use ytaudit::store::{follow_analyze, FollowOptions, Store, TailEvent, TailReader, TempDir};
use ytaudit::types::{kit, ChannelId, Timestamp, Topic, VideoId};

/// xorshift64*. The golden reports in `tests/fixtures/` are computed
/// from payloads this stream draws, so it keeps its own step rather than
/// `ytaudit::types::kit::Rng`'s: a different stream would rewrite them.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The suite-wide dataset seed; CI rotates it via `YTAUDIT_PROP_SEED`
/// (see `kit::prop_seed`), so every push analyzes fresh synthetic
/// collections.
fn env_seed() -> u64 {
    kit::prop_seed(0xA11A_FACE)
}

/// A fresh generator for one pair — pure in `(seed, topic, snapshot)`,
/// never in commit order or shard identity.
fn pair_rng(seed: u64, topic: Topic, snapshot: usize) -> Rng {
    let salt = (topic.index() as u64) << 32 | snapshot as u64;
    Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt | 1)
}

fn vid(topic: Topic, n: u64) -> VideoId {
    VideoId::new(format!("vid-{}-{n:04}", topic.key()))
}

fn video_info(topic: Topic, n: u64) -> VideoInfo {
    VideoInfo {
        id: vid(topic, n),
        channel_id: ChannelId::new(format!("ch-{:03}", n % 5)),
        published_at: Timestamp::from_ymd(2025, 1, 1 + (n % 28) as u32).unwrap(),
        duration_secs: 45 + n % 1200,
        is_sd: n.is_multiple_of(3),
        views: n.wrapping_mul(137) % 1_000_000,
        likes: n.wrapping_mul(7) % 10_000,
        comments: n % 500,
    }
}

/// The synthetic results for one `(topic, snapshot)` pair: a varying
/// number of non-empty hours, IDs drawn from a small per-topic pool (so
/// snapshots genuinely overlap and attrite), a deterministic
/// metadata-coverage subset, and first/last-snapshot comments.
fn payload(
    cfg: &CollectorConfig,
    topic: Topic,
    snapshot: usize,
    date: Timestamp,
    seed: u64,
) -> (TopicSnapshot, Vec<VideoInfo>, Option<CommentsSnapshot>) {
    let mut rng = pair_rng(seed, topic, snapshot);
    const HOURS: [u32; 6] = [0, 3, 7, 11, 16, 21];
    let n_hours = 1 + rng.below(4) as usize;
    let start = rng.below(3) as usize;
    let mut hours = Vec::new();
    let mut drawn = BTreeSet::new();
    for h in 0..n_hours {
        let ids: Vec<u64> = (0..1 + rng.below(5)).map(|_| rng.below(40)).collect();
        drawn.extend(ids.iter().copied());
        hours.push(HourlyResult {
            hour: HOURS[(start + h) % HOURS.len()],
            video_ids: ids.into_iter().map(|n| vid(topic, n)).collect(),
            total_results: 1_000 + rng.below(100_000),
        });
    }
    let meta_ids: Vec<u64> = if cfg.fetch_metadata {
        drawn.iter().copied().filter(|n| n % 3 != 0).collect()
    } else {
        Vec::new()
    };
    let data = TopicSnapshot {
        hours,
        meta_returned: meta_ids.iter().map(|&n| vid(topic, n)).collect(),
    };
    let videos: Vec<VideoInfo> = meta_ids.iter().map(|&n| video_info(topic, n)).collect();
    let comments = cfg.comments_at(snapshot).then(|| CommentsSnapshot {
        comments: (0..rng.below(4))
            .map(|i| CommentRecord {
                id: format!("c-{}-{snapshot}-{i}", topic.key()),
                video_id: vid(topic, rng.below(40)),
                is_reply: rng.below(3) == 0,
                published_at: date,
            })
            .collect(),
        fetch_errors: if rng.below(4) == 0 {
            vec![CommentFetchError {
                video_id: vid(topic, rng.below(40)),
                error: "commentThreads.list: video deleted".to_string(),
            }]
        } else {
            Vec::new()
        },
    });
    (data, videos, comments)
}

fn channels(cfg: &CollectorConfig) -> Vec<ChannelInfo> {
    if !cfg.fetch_channels {
        return Vec::new();
    }
    (0..5)
        .map(|n| ChannelInfo {
            id: ChannelId::new(format!("ch-{n:03}")),
            published_at: Timestamp::from_ymd(2019, 3, 1 + n as u32).unwrap(),
            views: 10_000 * (n + 1),
            subscribers: 250 * (n + 1),
            video_count: 12 * (n + 1),
        })
        .collect()
}

const FINISH_DELTA: u64 = 21;

fn commit_one(store: &mut Store, cfg: &CollectorConfig, snapshot: usize, topic: Topic, seed: u64) {
    let date = cfg.schedule.dates()[snapshot];
    let (data, videos, comments) = payload(cfg, topic, snapshot, date, seed);
    let mut rng = pair_rng(seed ^ 0xDE17A, topic, snapshot);
    CollectorSink::commit_topic_snapshot(
        store,
        TopicCommit {
            topic,
            snapshot,
            date,
            data: &data,
            comments: comments.as_ref(),
            videos: &videos,
            quota_delta: 500 + rng.below(250),
        },
    )
    .unwrap();
}

/// Builds a complete synthetic store at `path` for `cfg` and `seed`.
fn build_store(path: &Path, cfg: &CollectorConfig, seed: u64) {
    let mut store = Store::create(path).unwrap();
    CollectorSink::begin(&mut store, cfg).unwrap();
    for snapshot in 0..cfg.schedule.len() {
        for &topic in &cfg.topics {
            commit_one(&mut store, cfg, snapshot, topic, seed);
        }
    }
    CollectorSink::finish(&mut store, &channels(cfg), FINISH_DELTA).unwrap();
    assert!(store.complete());
}

/// A one-shot read: `analyze --store`, a follow that stops at the end of
/// the file.
fn one_shot() -> FollowOptions {
    FollowOptions {
        follow: false,
        ..FollowOptions::default()
    }
}

/// The batch side: materialize the dataset and replay it through the
/// accumulators in one call. `analyze --store`'s fold-as-you-read pass
/// must give the same bytes.
fn batch_json(path: &Path) -> String {
    let dataset = Store::open(path).unwrap().load_dataset().unwrap();
    let materialized = Analyzer::analyze_dataset(&dataset).to_json();
    let one_shot = follow_analyze(path, &one_shot(), |_| {}).unwrap();
    assert_eq!(one_shot.report.to_json(), materialized);
    materialized
}

/// Folds every tail event pending at `reader` into `state`, exactly as
/// the follow driver does.
fn drain(reader: &mut TailReader, state: &mut Option<Analyzer>) {
    reader
        .poll(|event| {
            match event {
                TailEvent::Begin(meta) => *state = Some(Analyzer::new(meta.topics)),
                TailEvent::Pair { snapshot, pair } => {
                    let analyzer = state.as_mut().expect("plan before pairs");
                    let n_topics = analyzer.topics().len() as u64;
                    let pos = analyzer
                        .topics()
                        .iter()
                        .position(|&t| t == pair.topic)
                        .expect("topic in plan") as u64;
                    analyzer
                        .offer(snapshot as u64 * n_topics + pos, pair)
                        .unwrap();
                }
                TailEvent::End {
                    channels,
                    quota_final_delta,
                } => state
                    .as_mut()
                    .expect("plan before end")
                    .end(channels, quota_final_delta),
            }
            Ok(())
        })
        .unwrap();
}

fn full_config(topics: Vec<Topic>, snapshots: usize) -> CollectorConfig {
    CollectorConfig {
        fetch_comments: true,
        ..CollectorConfig::quick(topics, snapshots)
    }
}

#[test]
fn complete_store_follow_matches_batch_bit_for_bit() {
    let dir = TempDir::new("eq-oneshot");
    for (i, cfg) in [
        full_config(vec![Topic::Higgs, Topic::Blm, Topic::WorldCup], 4),
        CollectorConfig::quick(vec![Topic::Brexit, Topic::Capitol], 5),
        // Search-only: no metadata, no channels, no comments.
        CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Grammys], 6)
        },
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.file(&format!("store-{i}.yts"));
        build_store(&path, &cfg, env_seed().wrapping_add(i as u64));
        let outcome = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                ..FollowOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(
            outcome.report.to_json(),
            batch_json(&path),
            "config {i}: follow and batch diverged"
        );
    }
}

#[test]
fn one_pair_per_poll_matches_batch() {
    let dir = TempDir::new("eq-pairwise");
    let path = dir.file("store.yts");
    let cfg = full_config(vec![Topic::Higgs, Topic::Blm, Topic::WorldCup], 4);
    let seed = env_seed().wrapping_add(10);

    let mut store = Store::create(&path).unwrap();
    let mut reader = TailReader::open(&path).unwrap();
    let mut state = None;
    CollectorSink::begin(&mut store, &cfg).unwrap();
    drain(&mut reader, &mut state);
    for snapshot in 0..cfg.schedule.len() {
        for &topic in &cfg.topics {
            commit_one(&mut store, &cfg, snapshot, topic, seed);
            drain(&mut reader, &mut state);
        }
    }
    CollectorSink::finish(&mut store, &channels(&cfg), FINISH_DELTA).unwrap();
    drain(&mut reader, &mut state);
    drop(store);

    let analyzer = state.expect("collection seen");
    assert!(analyzer.ended());
    assert_eq!(analyzer.folded_pairs(), 12);
    assert_eq!(analyzer.finish().to_json(), batch_json(&path));
}

#[test]
fn chunked_polls_with_a_checkpoint_restart_match_batch() {
    let dir = TempDir::new("eq-chunked");
    let path = dir.file("store.yts");
    let cfg = full_config(vec![Topic::Higgs, Topic::Blm, Topic::WorldCup], 4);
    let seed = env_seed().wrapping_add(20);

    let mut store = Store::create(&path).unwrap();
    let mut reader = TailReader::open(&path).unwrap();
    let mut state = None;
    CollectorSink::begin(&mut store, &cfg).unwrap();
    let mut since_poll = 0;
    for snapshot in 0..cfg.schedule.len() {
        for &topic in &cfg.topics {
            commit_one(&mut store, &cfg, snapshot, topic, seed);
            since_poll += 1;
            if since_poll == 3 {
                drain(&mut reader, &mut state);
                since_poll = 0;
            }
            if let Some(analyzer) = state.take() {
                // A full process restart between chunks: serialize the
                // accumulators, drop everything, decode, re-read the log
                // from the top (the watermark drops the replayed prefix).
                let bytes = analyzer.encode_state();
                let mut restored = Some(Analyzer::decode_state(&bytes).unwrap());
                let mut fresh = TailReader::open(&path).unwrap();
                drain(&mut fresh, &mut restored);
                reader = fresh;
                state = restored;
            }
        }
    }
    CollectorSink::finish(&mut store, &channels(&cfg), FINISH_DELTA).unwrap();
    drain(&mut reader, &mut state);
    drop(store);

    let analyzer = state.expect("collection seen");
    assert_eq!(analyzer.folded_pairs(), 12);
    assert_eq!(analyzer.finish().to_json(), batch_json(&path));
}

#[test]
fn concurrent_collector_and_follower_match_batch() {
    let dir = TempDir::new("eq-live");
    let path = dir.file("store.yts");
    let cfg = full_config(vec![Topic::Higgs, Topic::Blm], 4);
    let seed = env_seed().wrapping_add(30);

    // The store file (with its magic) must exist before the follower
    // opens it; the writer then races the poll loop for real.
    let mut store = Store::create(&path).unwrap();
    let writer = {
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            CollectorSink::begin(&mut store, &cfg).unwrap();
            for snapshot in 0..cfg.schedule.len() {
                for &topic in &cfg.topics {
                    commit_one(&mut store, &cfg, snapshot, topic, seed);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            CollectorSink::finish(&mut store, &channels(&cfg), FINISH_DELTA).unwrap();
        })
    };
    let outcome = follow_analyze(
        &path,
        &FollowOptions {
            follow: true,
            poll_ms: 5,
            ..FollowOptions::default()
        },
        |_| {},
    )
    .unwrap();
    writer.join().unwrap();
    assert_eq!(outcome.folded_pairs, 8);
    assert_eq!(outcome.report.to_json(), batch_json(&path));
}

#[test]
fn follow_memory_is_bounded_by_the_accumulators_not_the_dataset() {
    let dir = TempDir::new("eq-bounded");
    let path = dir.file("store.yts");
    // 48 pairs — an order of magnitude over the configured buffer cap.
    let cfg = full_config(Topic::ALL.to_vec(), 8);
    build_store(&path, &cfg, env_seed().wrapping_add(40));
    let cap = 2;
    let outcome = follow_analyze(
        &path,
        &FollowOptions {
            follow: false,
            max_buffered: Some(cap),
            ..FollowOptions::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(outcome.folded_pairs, 48);
    assert!(
        outcome.peak_buffered <= cap,
        "follow buffered {} pairs — it must never hold the dataset",
        outcome.peak_buffered
    );
    assert_eq!(outcome.report.to_json(), batch_json(&path));
}

/// A store that was begun but never committed a pair is the *empty*
/// collection: batch `analyze` and a one-shot follow both emit the
/// canonical empty report for the planned topics, byte for byte. One
/// committed pair later the store is partial, and a one-shot read
/// reports its committed prefix: the batch report of that store.
#[test]
fn zero_pair_store_yields_the_canonical_empty_report_in_batch_and_follow() {
    let dir = TempDir::new("eq-empty");
    let path = dir.file("store.yts");
    let cfg = full_config(vec![Topic::Higgs, Topic::Blm], 2);
    {
        let mut store = Store::create(&path).unwrap();
        CollectorSink::begin(&mut store, &cfg).unwrap();
    }

    let outcome = follow_analyze(&path, &one_shot(), |_| {}).unwrap();
    assert_eq!(outcome.folded_pairs, 0);
    let canonical = Analyzer::new(cfg.topics.clone()).finish().to_json();
    assert_eq!(outcome.report.to_json(), canonical);
    assert_eq!(
        batch_json(&path),
        canonical,
        "batch and one-shot follow must agree on the empty collection"
    );

    {
        let mut store = Store::open(&path).unwrap();
        commit_one(&mut store, &cfg, 0, Topic::Higgs, env_seed());
    }
    let partial = follow_analyze(&path, &one_shot(), |_| {}).unwrap();
    assert_eq!(partial.folded_pairs, 1);
    assert_eq!(partial.report.n_snapshots, 1);
    assert_eq!(partial.report.to_json(), batch_json(&path));
}

/// Golden fixtures: fixed-seed reports, committed to the repo. Any
/// change to any accumulator that shifts any reported number — even in
/// the last ulp — shows up as a fixture diff. Rewrite deliberately with
/// `YTAUDIT_REGEN_FIXTURES=1 cargo test --test analyze_equivalence`.
fn check_fixture(name: &str, cfg: &CollectorConfig, seed: u64) {
    let dir = TempDir::new("eq-golden");
    let path = dir.file("store.yts");
    build_store(&path, cfg, seed);
    let got = batch_json(&path) + "\n";
    // The follow path must agree with the fixture too, not just batch.
    let followed = follow_analyze(
        &path,
        &FollowOptions {
            follow: false,
            ..FollowOptions::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(followed.report.to_json() + "\n", got);

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var("YTAUDIT_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::create_dir_all(fixture.parent().unwrap()).unwrap();
        std::fs::write(&fixture, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             YTAUDIT_REGEN_FIXTURES=1 cargo test --test analyze_equivalence",
            fixture.display()
        )
    });
    assert_eq!(
        got,
        want,
        "report drifted from {}; if the change is intentional, regenerate \
         with YTAUDIT_REGEN_FIXTURES=1",
        fixture.display()
    );
}

#[test]
fn golden_report_full_collection() {
    check_fixture(
        "report_full_2x3.json",
        &full_config(vec![Topic::Higgs, Topic::Blm], 3),
        7,
    );
}

#[test]
fn golden_report_search_only() {
    check_fixture(
        "report_search_only_3x4.json",
        &CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Brexit, Topic::Capitol, Topic::Grammys], 4)
        },
        11,
    );
}
