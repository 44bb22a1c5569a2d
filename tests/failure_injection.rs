//! Failure-injection integration tests: the collection pipeline must
//! survive transient backend errors, surface quota exhaustion cleanly,
//! tolerate the API's metadata misses — over real sockets — and the
//! snapshot store must survive truncation at any byte offset.

use std::sync::Arc;
use ytaudit::api::service::FaultConfig;
use ytaudit::api::{serve, ApiService};
use ytaudit::client::{HttpTransport, SearchQuery, YouTubeClient};
use ytaudit::core::testutil::test_client_with_faults;
use ytaudit::core::{Collector, CollectorConfig};
use ytaudit::net::resilience::{Backoff, RetryPolicy};
use ytaudit::platform::{Platform, SimClock};
use ytaudit::types::kit::Rng;
use ytaudit::types::{ApiErrorReason, Timestamp, Topic};

fn faulty_service(scale: f64, faults: FaultConfig, quota: u64) -> Arc<ApiService> {
    let service = Arc::new(
        ApiService::new(Arc::new(Platform::small(scale)), SimClock::at_audit_start())
            .with_faults(faults),
    );
    service.quota().register("key", quota);
    service
}

/// A retry policy with negligible backoff so fault tests stay fast.
fn fast_retries(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        backoff: Backoff {
            base: std::time::Duration::from_millis(1),
            max: std::time::Duration::from_millis(5),
            ..Backoff::default()
        },
    }
}

#[test]
fn collection_survives_a_flaky_backend_over_http() {
    // 20% failure with a 10-attempt budget: per-call exhaustion chance is
    // 0.2¹⁰ = 10⁻⁷, so ~1 400 calls still succeed with overwhelming
    // probability — while the server actually serves hundreds of 500s.
    let svc = faulty_service(
        0.1,
        FaultConfig {
            metadata_miss_rate: 0.0,
            backend_error_rate: 0.20,
        },
        u64::MAX / 2,
    );
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let client = YouTubeClient::new(Box::new(HttpTransport::new(server.base_url())), "key")
        .with_retry(fast_retries(10));
    let config = CollectorConfig {
        fetch_comments: false,
        fetch_channels: false,
        ..CollectorConfig::quick(vec![Topic::Higgs], 2)
    };
    let dataset = Collector::new(&client, config)
        .run()
        .expect("retries absorb the transient failures");
    assert_eq!(dataset.len(), 2);
    assert!(dataset.snapshots[0].topics[&Topic::Higgs].total_returned() > 10);
    server.shutdown();
}

#[test]
fn quota_exhaustion_mid_collection_surfaces_the_api_reason() {
    // Budget for ~50 searches; the hourly collection needs 672.
    let svc = faulty_service(
        0.1,
        FaultConfig {
            metadata_miss_rate: 0.0,
            backend_error_rate: 0.0,
        },
        5_000,
    );
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let client = YouTubeClient::new(Box::new(HttpTransport::new(server.base_url())), "key");
    let config = CollectorConfig {
        fetch_comments: false,
        fetch_channels: false,
        fetch_metadata: false,
        ..CollectorConfig::quick(vec![Topic::Higgs], 1)
    };
    let err = Collector::new(&client, config)
        .run()
        .expect_err("quota must run out");
    assert_eq!(err.api_reason(), Some(ApiErrorReason::QuotaExceeded));
    // And no retry storm: exactly budget/100 + 1 search calls were made.
    assert_eq!(client.budget().calls_made(), 51);
    server.shutdown();
}

#[test]
fn metadata_misses_reduce_coverage_but_not_systematically() {
    let (client, _service) = test_client_with_faults(
        0.25,
        FaultConfig {
            metadata_miss_rate: 0.10, // exaggerated for the test
            backend_error_rate: 0.0,
        },
    );
    let config = CollectorConfig {
        fetch_comments: false,
        ..CollectorConfig::quick(vec![Topic::Grammys], 3)
    };
    let dataset = Collector::new(&client, config).run().expect("collection");
    let mut total_searched = 0usize;
    let mut total_with_meta = 0usize;
    for snapshot in &dataset.snapshots {
        let ts = &snapshot.topics[&Topic::Grammys];
        total_searched += ts.id_set().len();
        total_with_meta += ts.meta_returned.len();
    }
    let coverage = total_with_meta as f64 / total_searched as f64;
    assert!(coverage > 0.80, "coverage {coverage}");
    assert!(coverage < 0.99, "misses must actually occur: {coverage}");
    // Non-systematic: a video missed at one snapshot shows up at another,
    // so the merged metadata map covers (nearly) everything ever seen.
    let all_seen: std::collections::HashSet<_> = (0..dataset.len())
        .flat_map(|i| dataset.id_set(Topic::Grammys, i).into_iter())
        .collect();
    let merged = dataset
        .video_meta
        .keys()
        .filter(|id| all_seen.contains(*id))
        .count();
    assert!(
        merged as f64 / all_seen.len() as f64 > 0.95,
        "misses are per-request, not per-video: {merged}/{}",
        all_seen.len()
    );
}

#[test]
fn deleted_video_mid_audit_shows_up_as_attrition_not_error() {
    let (client, service) = test_client_with_faults(
        0.3,
        FaultConfig {
            metadata_miss_rate: 0.0,
            backend_error_rate: 0.0,
        },
    );
    // Find a deleted video inside the audit period that search would
    // plausibly return; assert Videos.list simply omits it after the
    // deletion instant.
    let platform = service.platform();
    let deleted = platform
        .corpus()
        .topics
        .iter()
        .flat_map(|t| &t.videos)
        .find(|v| v.deleted_at.is_some())
        .expect("deletions exist")
        .clone();
    let when = deleted.deleted_at.unwrap();
    client.set_sim_time(Some(when + (-3600)));
    let before = client
        .videos(std::slice::from_ref(&deleted.id))
        .expect("ok");
    assert_eq!(before.len(), 1);
    client.set_sim_time(Some(when + 3600));
    let after = client
        .videos(std::slice::from_ref(&deleted.id))
        .expect("ok");
    assert!(after.is_empty(), "deleted videos are omitted, not errors");
}

/// Property sweep: a store file truncated at *any* byte offset must
/// either reopen cleanly with exactly the fully-committed pairs intact
/// (any cut past the 8-byte magic) or fail the open (a cut inside the
/// magic). No dependency on a property-testing crate: the offsets are
/// every commit boundary ±1 plus a deterministic pseudo-random scatter.
#[test]
fn store_truncated_at_arbitrary_offset_keeps_every_committed_pair() {
    use ytaudit::core::dataset::{HourlyResult, TopicSnapshot};
    use ytaudit::core::TopicCommit;
    use ytaudit::store::{CollectionMeta, Store, TempDir};
    use ytaudit::types::VideoId;

    let dir = TempDir::new("truncation-sweep");
    let path = dir.file("audit.yts");
    let meta = CollectionMeta {
        topics: vec![Topic::Higgs, Topic::Blm],
        dates: (0..3)
            .map(|i| Timestamp::from_ymd(2025, 2, 9).unwrap().add_days(5 * i))
            .collect(),
        hourly_bins: true,
        fetch_metadata: false,
        fetch_channels: false,
        fetch_comments: false,
        shard: None,
        platform: ytaudit::types::PlatformKind::Youtube,
    };
    let pair_data = |seed: u32| TopicSnapshot {
        hours: (0..3)
            .map(|h| HourlyResult {
                hour: h,
                video_ids: (0..4)
                    .map(|v| VideoId::new(format!("vid-{:04}", seed * 2 + h * 4 + v)))
                    .collect(),
                total_results: 40_000 + u64::from(seed),
            })
            .collect(),
        meta_returned: Vec::new(),
    };

    // Commit all six pairs, recording the file length after each commit
    // (each length is a durability boundary: cuts at or past it must
    // preserve that commit).
    let mut commit_lens: Vec<u64> = Vec::new();
    {
        let mut store = Store::create(&path).unwrap();
        store.begin_collection(meta.clone()).unwrap();
        let mut seed = 0;
        for (idx, &date) in meta.dates.iter().enumerate() {
            for &topic in &meta.topics {
                store
                    .commit_snapshot(&TopicCommit {
                        topic,
                        snapshot: idx,
                        date,
                        data: &pair_data(seed),
                        comments: None,
                        videos: &[],
                        quota_delta: 680,
                    })
                    .unwrap();
                commit_lens.push(store.stats().log_len);
                seed += 1;
            }
        }
        store.finish_collection(&[], 7).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let file_len = bytes.len() as u64;
    assert_eq!(commit_lens.len(), 6);

    // Offsets: every commit boundary ±1, the file ends, and a seeded
    // scatter across the whole file.
    let mut cuts: Vec<u64> = vec![0, 1, 7, 8, 9, file_len - 1, file_len];
    for &len in &commit_lens {
        cuts.extend([len - 1, len, len + 1]);
    }
    let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);
    for _ in 0..40 {
        cuts.push(rng.below(file_len + 1));
    }

    for cut in cuts {
        let cut_path = dir.file(&format!("cut-{cut}.yts"));
        std::fs::write(&cut_path, &bytes[..cut as usize]).unwrap();
        let expected = commit_lens.iter().filter(|&&l| l <= cut).count();
        match Store::open(&cut_path) {
            Ok(reopened) => {
                assert!(cut >= 8, "cut {cut}: opened inside the magic");
                assert_eq!(
                    reopened.committed_pairs(),
                    expected,
                    "cut at byte {cut} of {file_len}"
                );
                let finish_delta = if cut == file_len { 7 } else { 0 };
                assert_eq!(
                    reopened.quota_units_total(),
                    680 * expected as u64 + finish_delta
                );
                if expected > 0 {
                    // Every surviving commit loads back intact.
                    let dataset = reopened.load_dataset().unwrap();
                    let pairs: usize = dataset.snapshots.iter().map(|s| s.topics.len()).sum();
                    assert_eq!(pairs, expected, "cut at byte {cut}");
                }
            }
            Err(e) => {
                assert!(cut < 8, "cut {cut}: open must recover, got {e}");
            }
        }
    }
}

#[test]
fn malformed_wire_bytes_do_not_kill_the_server() {
    let svc = faulty_service(
        0.05,
        FaultConfig {
            metadata_miss_rate: 0.0,
            backend_error_rate: 0.0,
        },
        u64::MAX / 2,
    );
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    // Throw garbage at the socket…
    for garbage in [
        &b"\x00\x01\x02\x03\x04"[..],
        b"GET GET GET\r\n\r\n",
        b"POST /youtube/v3/search HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
    ] {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let _ = stream.write_all(garbage);
        drop(stream);
    }
    // …and verify a well-formed request still succeeds afterwards.
    let client = YouTubeClient::new(Box::new(HttpTransport::new(server.base_url())), "key");
    client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
    let page = client
        .search_page(&SearchQuery::for_topic(Topic::Higgs).max_results(5), None)
        .expect("server survives garbage");
    assert!(page.page_info.total_results > 0);
    server.shutdown();
}
