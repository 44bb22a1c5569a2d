//! The platform seam, end to end: the audit harness — collector,
//! scheduler, store, analyzer — runs unchanged against the TikTok-shaped
//! backend, records which platform a store was collected from in its
//! Begin manifest, and refuses every cross-platform operation with a
//! typed error instead of quietly mixing incomparable samples.
//!
//! The TikTok simulator's economics are deliberately alien to YouTube's
//! (per-request daily budget, date-windowed cursor queries, hidden
//! window caps and dropped tail pages), so a green run here means the
//! methodology layer truly depends only on the `core::Platform` trait.

use std::sync::Arc;
use std::time::Duration;
use ytaudit::core::{Analyzer, Collector, CollectorConfig, CollectorSink};
use ytaudit::dist::{run_worker, Coordinator, LocalChannel, WorkerConfig};
use ytaudit::platform::clock::RealClock;
use ytaudit::platform::{Platform as CorpusPlatform, SimClock};
use ytaudit::sched::{InProcessFactory, Scheduler, SchedulerConfig, TikTokFactory};
use ytaudit::store::{follow_analyze, FollowOptions, Store, StoreError, TempDir};
use ytaudit::tiktok::testutil::{test_service, test_tiktok_client, TEST_KEY};
use ytaudit::tiktok::{QuirkConfig, TikTokClient, TikTokService, TikTokTransport};
use ytaudit::types::{Error, PlatformKind, Topic};

const SCALE: f64 = 0.08;

fn tiktok_config() -> CollectorConfig {
    CollectorConfig {
        platform: PlatformKind::Tiktok,
        fetch_comments: true,
        ..CollectorConfig::quick(vec![Topic::Higgs, Topic::Blm], 2)
    }
}

#[test]
fn tiktok_collection_completes_and_records_its_platform_in_the_manifest() {
    let dir = TempDir::new("platform-matrix-e2e");
    let path = dir.file("tiktok.yts");
    let (client, _service) = test_tiktok_client(SCALE);
    {
        let mut store = Store::create(&path).unwrap();
        Collector::new(&client, tiktok_config())
            .run_with_sink(&mut store)
            .unwrap();
        assert!(store.complete());
    }

    // The platform survives the on-disk round trip through the Begin
    // manifest, and the collection actually sampled something.
    let store = Store::open(&path).unwrap();
    let meta = store.collection_meta().unwrap().clone();
    assert_eq!(meta.platform, PlatformKind::Tiktok);
    let dataset = store.load_dataset().unwrap();
    assert_eq!(dataset.snapshots.len(), 2);
    for snapshot in &dataset.snapshots {
        for topic in &meta.topics {
            assert!(
                snapshot.topics[topic].total_returned() > 0,
                "{topic:?} returned nothing"
            );
        }
    }

    // Both analysis entry points accept the store and agree byte for
    // byte — the analyzer never learns which backend fed it.
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
        Analyzer::analyze_dataset(&dataset).to_json()
    );
}

/// The single-sink TikTok ground truth: the sequential collector into
/// one store, returned as bytes.
fn sequential_tiktok_store(dir: &TempDir) -> Vec<u8> {
    let seq_path = dir.file("sequential.yts");
    let (client, _service) = test_tiktok_client(SCALE);
    let mut store = Store::create(&seq_path).unwrap();
    Collector::new(&client, tiktok_config())
        .run_with_sink(&mut store)
        .unwrap();
    assert!(store.complete());
    drop(store);
    std::fs::read(&seq_path).unwrap()
}

#[test]
fn tiktok_scheduler_store_is_byte_identical_to_sequential() {
    let dir = TempDir::new("platform-matrix-sched");
    let seq_bytes = sequential_tiktok_store(&dir);

    // The hidden quirks are keyed on (query, day, cursor) — never on
    // request order — so any worker count lands on the same bytes.
    for workers in [1, 4] {
        let path = dir.file(&format!("workers{workers}.yts"));
        let factory = TikTokFactory::new(test_service(SCALE));
        let scheduler = Scheduler::new(
            &factory,
            tiktok_config(),
            SchedulerConfig::new(workers, TEST_KEY),
        );
        let mut store = Store::create(&path).unwrap();
        let report = scheduler.run(&mut store).unwrap();
        assert!(
            report.completed(),
            "workers={workers}: {:?}",
            report.outcome
        );
        assert!(store.complete());
        drop(store);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            seq_bytes,
            "store bytes diverge at workers={workers}"
        );
    }
}

#[test]
fn tiktok_dist_topology_completes_byte_identical_to_sequential() {
    let dir = TempDir::new("platform-matrix-dist");
    let seq_bytes = sequential_tiktok_store(&dir);
    let dest = dir.file("dist.yts");
    let coord = Arc::new(
        Coordinator::new(
            &tiktok_config(),
            2,
            &dest,
            Duration::from_secs(60),
            Arc::new(RealClock::default()),
        )
        .unwrap(),
    );
    let factory = TikTokFactory::new(test_service(SCALE));
    let cfg = WorkerConfig::new(
        "tiktok-worker",
        dir.file("work"),
        SchedulerConfig::new(2, TEST_KEY),
    );
    run_worker(&LocalChannel::new(Arc::clone(&coord)), &factory, &cfg).unwrap();
    assert!(coord.all_committed());
    coord.merge().unwrap();
    assert_eq!(
        std::fs::read(&dest).unwrap(),
        seq_bytes,
        "merged TikTok dist store diverges from the single-sink store"
    );
    // The finish range fetched creator metadata through the TikTok
    // client, not a YouTube client speaking to the TikTok service.
    assert!(tiktok_config().fetch_channels);
    let merged = Store::open(&dest).unwrap().load_dataset().unwrap();
    assert!(
        !merged.channel_meta.is_empty(),
        "finish range fetched no creators"
    );
}

#[test]
fn cross_platform_operations_are_rejected_with_typed_errors() {
    let dir = TempDir::new("platform-matrix-mixed");

    // A YouTube-planned store cannot be resumed by a TikTok collection:
    // the sink refuses at begin, before any API call is issued.
    let yt_path = dir.file("youtube.yts");
    {
        let mut store = Store::create(&yt_path).unwrap();
        let yt_cfg = CollectorConfig {
            platform: PlatformKind::Youtube,
            ..tiktok_config()
        };
        CollectorSink::begin(&mut store, &yt_cfg).unwrap();
    }
    let (client, _service) = test_tiktok_client(SCALE);
    let mut store = Store::open(&yt_path).unwrap();
    let err = Collector::new(&client, tiktok_config())
        .run_with_sink(&mut store)
        .unwrap_err();
    assert!(matches!(err, Error::InvalidInput(_)), "{err:?}");
    assert!(err.to_string().contains("platform mismatch"), "{err}");

    // A scheduler whose transport factory serves one platform refuses a
    // plan that names the other, before touching the sink.
    let (_client, yt_service) = ytaudit::core::testutil::test_client(SCALE);
    let factory = InProcessFactory::new(yt_service);
    let scheduler = Scheduler::new(
        &factory,
        tiktok_config(),
        SchedulerConfig::new(2, "research-key"),
    );
    let sched_path = dir.file("sched.yts");
    let mut sink = Store::create(&sched_path).unwrap();
    let err = scheduler.run(&mut sink).unwrap_err();
    assert!(matches!(err, Error::InvalidInput(_)), "{err:?}");
    assert!(
        sink.collection_meta().is_none(),
        "a rejected run must not begin the store"
    );

    // A follow that expects one platform fails typed on a store begun
    // from the other.
    let tk_path = dir.file("tiktok.yts");
    {
        let mut store = Store::create(&tk_path).unwrap();
        CollectorSink::begin(&mut store, &tiktok_config()).unwrap();
    }
    let followed = follow_analyze(
        &tk_path,
        &FollowOptions {
            follow: false,
            expect_platform: Some(PlatformKind::Youtube),
            ..FollowOptions::default()
        },
        |_| {},
    );
    assert!(
        matches!(
            followed,
            Err(StoreError::PlatformMismatch {
                stored: PlatformKind::Tiktok,
                requested: PlatformKind::Youtube,
            })
        ),
        "{followed:?}"
    );
}

#[test]
fn hidden_quirks_bite_deterministically() {
    // Two fresh default services observe the identical sample…
    let (client_a, _sa) = test_tiktok_client(SCALE);
    let first = Collector::new(&client_a, tiktok_config()).run().unwrap();
    let (client_b, _sb) = test_tiktok_client(SCALE);
    let second = Collector::new(&client_b, tiktok_config()).run().unwrap();
    assert_eq!(first, second, "quirks must be deterministic, not random");

    // …while a quirk-free service over the same corpus sees more: the
    // dropped tail pages and empty pages really do cost coverage.
    let service = Arc::new(
        TikTokService::new(
            Arc::new(CorpusPlatform::small(SCALE)),
            SimClock::at_audit_start(),
        )
        .with_quirks(QuirkConfig::none()),
    );
    service
        .ledger()
        .register(TEST_KEY, ytaudit::tiktok::RESEARCH_DAILY_REQUESTS);
    let clean_client = TikTokClient::new(
        Box::new(TikTokTransport::new(Arc::clone(&service))),
        TEST_KEY,
    );
    let clean = Collector::new(&clean_client, tiktok_config())
        .run()
        .unwrap();
    let quirked_total: usize = (0..first.snapshots.len())
        .map(|i| first.id_set(Topic::Higgs, i).len() + first.id_set(Topic::Blm, i).len())
        .sum();
    let clean_total: usize = (0..clean.snapshots.len())
        .map(|i| clean.id_set(Topic::Higgs, i).len() + clean.id_set(Topic::Blm, i).len())
        .sum();
    assert!(
        quirked_total < clean_total,
        "quirks returned {quirked_total} ids vs {clean_total} without them"
    );
}
