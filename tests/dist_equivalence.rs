//! Distributed-collection equivalence: a coordinator plus N workers —
//! in process or over loopback HTTP — must produce a merged store
//! byte-identical to a crash-free single-sink collection of the same
//! plan, for every worker count and shard count, with every task
//! executed and committed exactly once (checked through the store's
//! quota ledger: a double-executed pair would double its recorded quota
//! delta) and the simulated API charging exactly the quota one
//! scheduler is charged for the whole plan.
//!
//! Two layers of coverage:
//!
//! * the scheduler-driven tests run real workers ([`run_worker`])
//!   against an in-process platform, so the reference and the
//!   distributed run observe the same deterministic API and any byte
//!   divergence is the distribution layer's fault;
//! * the synthetic tests drive the same wire protocol (lease → chunked
//!   ship → commit, over a real loopback server) with store-layer
//!   payloads from the shared store harness, pinning the coordinator's
//!   lease distribution, installation, and merge for every topology
//!   without an API in the loop.

mod store_harness;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use store_harness as h;
use ytaudit::core::testutil::test_client;
use ytaudit::core::{Collector, CollectorConfig};
use ytaudit::dist::protocol::{
    LeaseRequest, ShipBegin, ShipChunk, ShipCommit, ERROR_HEADER, LEASE_PATH, SHIP_BEGIN_PATH,
    SHIP_CHUNK_PATH, SHIP_COMMIT_PATH,
};
use ytaudit::dist::{
    run_worker, Coordinator, CoordinatorChannel, DistError, DistErrorKind, HttpChannel, LeaseGrant,
    LeaseReply, LocalChannel, ShipReply, WorkerConfig, WorkerReport,
};
use ytaudit::net::{Request, Server, ServerConfig};
use ytaudit::platform::clock::RealClock;
use ytaudit::sched::{InProcessFactory, SchedulerConfig};
use ytaudit::store::crc::crc32;
use ytaudit::store::{Store, TempDir};
use ytaudit::types::Topic;

const SCALE: f64 = 0.08;
const KEY: &str = "research-key";
const TTL: Duration = Duration::from_secs(60);
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn plan() -> CollectorConfig {
    h::plan(vec![Topic::Higgs, Topic::Blm], 2)
}

/// The single-sink ground truth: one sequential collector into one
/// store, no distribution anywhere.
fn reference(dir: &TempDir, config: &CollectorConfig) -> Vec<u8> {
    let path = dir.file("reference.yts");
    let (client, _service) = test_client(SCALE);
    let mut store = Store::create(&path).unwrap();
    Collector::new(&client, config.clone())
        .run_with_sink(&mut store)
        .unwrap();
    assert!(store.complete());
    drop(store);
    std::fs::read(&path).unwrap()
}

fn coordinator(
    config: &CollectorConfig,
    dest: &std::path::Path,
    shards: usize,
) -> Arc<Coordinator> {
    Arc::new(Coordinator::new(config, shards, dest, TTL, Arc::new(RealClock::default())).unwrap())
}

/// Runs `n` workers to completion over per-worker channels built by
/// `channel`, all sharing one in-process platform. Returns their
/// reports and the quota that platform's ledger charged them.
fn run_workers(
    dir: &TempDir,
    n: usize,
    tag: &str,
    channel: impl Fn() -> Box<dyn CoordinatorChannel> + Sync,
) -> (Vec<WorkerReport>, u64) {
    let (_client, service) = test_client(SCALE);
    let factory = InProcessFactory::new(Arc::clone(&service));
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let workdir: PathBuf = dir.file(&format!("work-{tag}-{i}"));
                let factory = &factory;
                let channel = &channel;
                scope.spawn(move || {
                    let chan = channel();
                    let cfg = WorkerConfig::new(
                        format!("worker-{i}"),
                        workdir,
                        SchedulerConfig::new(2, KEY),
                    );
                    run_worker(chan.as_ref(), factory, &cfg).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (reports, service.quota().lifetime_used(KEY))
}

/// Every range executed and committed exactly once: the workers'
/// committed counts sum to the range total with no duplicates, and the
/// merged store's quota ledger matches the single-sink ledger to the
/// unit (a re-executed pair would inflate it).
fn assert_exactly_once(
    coord: &Coordinator,
    reports: &[WorkerReport],
    merged: &std::path::Path,
    reference_path: &std::path::Path,
) {
    let total = coord.plan().total_ranges();
    let committed: u32 = reports.iter().map(|r| r.committed).sum();
    let duplicates: u32 = reports.iter().map(|r| r.duplicates).sum();
    assert_eq!(committed, total, "reports: {reports:?}");
    assert_eq!(duplicates, 0, "reports: {reports:?}");
    assert_eq!(coord.counters().shards_received, total as u64);
    assert_eq!(coord.counters().duplicate_ships, 0);

    let merged = Store::open(merged).unwrap();
    let single = Store::open(reference_path).unwrap();
    assert_eq!(merged.quota_units_total(), single.quota_units_total());
    assert_eq!(merged.final_quota_delta(), single.final_quota_delta());
    assert_eq!(merged.committed_pairs(), single.committed_pairs());
    // `/dist/metrics` counts every installed shard's quota once,
    // including the finish range's channel fetch.
    let installed = coord.installed_totals();
    assert_eq!(installed.quota_units, merged.quota_units_total());
    assert_eq!(installed.pairs, merged.committed_pairs() as u64);
    let page = coord.metrics_page();
    assert!(
        page.contains(&format!(
            "  quota units          {}\n",
            merged.quota_units_total()
        )),
        "{page}"
    );
}

#[test]
fn in_process_workers_merge_byte_identical_to_single_sink() {
    let dir = TempDir::new("dist-equiv-local");
    let config = plan();
    let reference_bytes = reference(&dir, &config);

    for n in WORKER_COUNTS {
        let dest = dir.file(&format!("dist-local-{n}.yts"));
        let coord = coordinator(&config, &dest, 2);
        let (reports, _) = run_workers(&dir, n, &format!("local-{n}"), || {
            Box::new(LocalChannel::new(Arc::clone(&coord)))
        });
        assert!(coord.all_committed(), "n={n}");
        coord.merge().unwrap();
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference_bytes,
            "in-process n={n}: merged store diverges from single-sink"
        );
        assert_exactly_once(&coord, &reports, &dest, &dir.file("reference.yts"));
    }
}

#[test]
fn loopback_http_workers_merge_byte_identical_to_single_sink() {
    let dir = TempDir::new("dist-equiv-http");
    let config = plan();
    let reference_bytes = reference(&dir, &config);

    for n in WORKER_COUNTS {
        let dest = dir.file(&format!("dist-http-{n}.yts"));
        let coord = coordinator(&config, &dest, 2);
        let handler: Arc<dyn ytaudit::net::Handler> = Arc::clone(&coord) as _;
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let base_url = server.base_url();
        let (reports, _) = run_workers(&dir, n, &format!("http-{n}"), || {
            Box::new(HttpChannel::new(&base_url).unwrap())
        });
        server.shutdown();
        assert!(coord.all_committed(), "n={n}");
        coord.merge().unwrap();
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference_bytes,
            "loopback n={n}: merged store diverges from single-sink"
        );
        assert_exactly_once(&coord, &reports, &dest, &dir.file("reference.yts"));
    }
}

/// A partitioned collection on one host: two in-process workers over a
/// 1-, 2- and 4-way split (4 is degenerate for the two-topic plan: two
/// topic ranges are empty) merge to the single-sink bytes, and the
/// simulated API's own ledger charges each run exactly what one
/// scheduler is charged for the whole plan.
#[test]
fn every_shard_count_merges_identically_and_is_charged_the_single_scheduler_total() {
    let dir = TempDir::new("dist-equiv-shards");
    let config = plan();
    let reference_bytes = reference(&dir, &config);
    let single_charge = h::single_scheduler_charge(SCALE, KEY, &config);
    assert!(single_charge > 0);

    for shards in [1usize, 2, 4] {
        let dest = dir.file(&format!("dist-shards-{shards}.yts"));
        let coord = coordinator(&config, &dest, shards);
        let (reports, charged) = run_workers(&dir, 2, &format!("shards-{shards}"), || {
            Box::new(LocalChannel::new(Arc::clone(&coord)))
        });
        assert!(coord.all_committed(), "shards={shards}");
        coord.merge().unwrap();
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference_bytes,
            "shards={shards}: merged store diverges from single-sink"
        );
        assert_exactly_once(&coord, &reports, &dest, &dir.file("reference.yts"));
        assert_eq!(
            charged, single_charge,
            "shards={shards}: server charge diverges from the single-scheduler total"
        );
    }
}

// ---------------------------------------------------------------------
// Synthetic wire-level coverage (no API, no scheduler): a hand-rolled
// mini-worker speaks the dist protocol verbatim and ships store-layer
// shard payloads whose single-sink reference is known byte-for-byte.
// ---------------------------------------------------------------------

/// One POST over the dist wire; non-2xx responses become typed errors
/// via [`ERROR_HEADER`], exactly like the real worker's transport.
fn post(chan: &dyn CoordinatorChannel, path: &str, body: Vec<u8>) -> Result<Vec<u8>, DistError> {
    let req = Request::post(path, body).with_header("content-type", "application/octet-stream");
    let resp = chan
        .call(req)
        .map_err(|e| DistError::new(DistErrorKind::Internal, e.to_string()))?;
    if resp.status.is_success() {
        return Ok(resp.body);
    }
    let kind = resp
        .headers
        .get(ERROR_HEADER)
        .and_then(DistErrorKind::from_key)
        .unwrap_or(DistErrorKind::Internal);
    Err(DistError::new(
        kind,
        String::from_utf8_lossy(&resp.body).into_owned(),
    ))
}

/// Ships `data` for a granted range: begin, small CRC'd chunks, commit.
fn wire_ship(
    chan: &dyn CoordinatorChannel,
    grant: &LeaseGrant,
    data: &[u8],
) -> Result<ShipReply, DistError> {
    let total_len = data.len() as u64;
    let total_crc = crc32(data);
    let begin = ShipReply::decode(&post(
        chan,
        SHIP_BEGIN_PATH,
        ShipBegin {
            range: grant.range,
            token: grant.token,
            total_len,
            total_crc,
        }
        .encode(),
    )?)?;
    if begin == ShipReply::Duplicate {
        return Ok(ShipReply::Duplicate);
    }
    let mut offset = 0usize;
    for chunk in data.chunks(16 * 1024) {
        post(
            chan,
            SHIP_CHUNK_PATH,
            ShipChunk {
                range: grant.range,
                token: grant.token,
                offset: offset as u64,
                crc: crc32(chunk),
                bytes: chunk.to_vec(),
            }
            .encode(),
        )?;
        offset += chunk.len();
    }
    ShipReply::decode(&post(
        chan,
        SHIP_COMMIT_PATH,
        ShipCommit {
            range: grant.range,
            token: grant.token,
            total_len,
            total_crc,
        }
        .encode(),
    )?)
}

/// A protocol-only worker: lease, ship the pre-built shard for the
/// granted range, repeat until the coordinator reports the run done.
fn synthetic_worker(chan: &dyn CoordinatorChannel, name: &str, shards: &[Vec<u8>]) -> WorkerReport {
    let mut report = WorkerReport::default();
    loop {
        let reply = post(
            chan,
            LEASE_PATH,
            LeaseRequest {
                worker: name.to_string(),
            }
            .encode(),
        )
        .unwrap();
        match LeaseReply::decode(&reply).unwrap() {
            LeaseReply::Done => return report,
            LeaseReply::Wait => {
                report.waits += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            LeaseReply::Grant(grant) => {
                report.leases += 1;
                match wire_ship(chan, &grant, &shards[grant.range as usize]).unwrap() {
                    ShipReply::Accepted => report.committed += 1,
                    ShipReply::Duplicate => report.duplicates += 1,
                }
            }
        }
    }
}

/// Builds the staged shard payloads for a 2-way split (range order:
/// topic 0, topic 1, finish) and the matching single-sink reference.
fn synthetic_fixture(
    dir: &TempDir,
    config: &CollectorConfig,
    seed: u64,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let reference = h::build_reference(&dir.file("synthetic-reference.yts"), config, seed);
    let staged = h::build_shards(&dir.file("staging.yts"), config, 2, seed);
    let shards = staged.iter().map(|p| std::fs::read(p).unwrap()).collect();
    (reference, shards)
}

#[test]
fn synthetic_shippers_over_loopback_merge_byte_identical_for_every_topology() {
    let dir = TempDir::new("dist-equiv-synthetic");
    let config = plan();
    let (reference_bytes, shards) = synthetic_fixture(&dir, &config, h::prop_seed(7));

    for n in WORKER_COUNTS {
        let dest = dir.file(&format!("synthetic-{n}.yts"));
        let coord = coordinator(&config, &dest, 2);
        let handler: Arc<dyn ytaudit::net::Handler> = Arc::clone(&coord) as _;
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let base_url = server.base_url();

        let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let base_url = &base_url;
                    let shards = &shards;
                    scope.spawn(move || {
                        let chan = HttpChannel::new(base_url).unwrap();
                        synthetic_worker(&chan, &format!("synthetic-{i}"), shards)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        server.shutdown();

        assert!(coord.all_committed(), "n={n}");
        let total = coord.plan().total_ranges();
        let committed: u32 = reports.iter().map(|r| r.committed).sum();
        assert_eq!(committed, total, "n={n}: {reports:?}");
        assert_eq!(coord.counters().shards_received, total as u64, "n={n}");
        assert_eq!(coord.counters().duplicate_ships, 0, "n={n}");

        coord.merge().unwrap();
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference_bytes,
            "synthetic n={n}: merged store diverges from single-sink"
        );
    }
}

#[test]
fn synthetic_shippers_in_process_merge_byte_identical() {
    let dir = TempDir::new("dist-equiv-synthetic-local");
    let config = plan();
    let (reference_bytes, shards) = synthetic_fixture(&dir, &config, h::prop_seed(12));

    let dest = dir.file("synthetic-local.yts");
    let coord = coordinator(&config, &dest, 2);
    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let coord = Arc::clone(&coord);
                let shards = &shards;
                scope.spawn(move || {
                    let chan = LocalChannel::new(coord);
                    synthetic_worker(&chan, &format!("local-{i}"), shards)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(coord.all_committed());
    let committed: u32 = reports.iter().map(|r| r.committed).sum();
    assert_eq!(committed, coord.plan().total_ranges());
    coord.merge().unwrap();
    assert_eq!(std::fs::read(&dest).unwrap(), reference_bytes);
}
