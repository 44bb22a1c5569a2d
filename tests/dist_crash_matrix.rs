//! The distributed crash matrix: a kill injected at each dist
//! faultpoint — `dist.lease-grant` (coordinator, before the grant is
//! recorded), `dist.pre-ship` (worker, after execution, before the
//! upload), and `dist.pre-accept` (coordinator, after upload
//! validation, before the canonical rename) — or at a worker's
//! `store.commit` must leave the run recoverable, and the recovered
//! run's merged store must stay byte-identical to a crash-free
//! single-sink collection, with no range executed-and-committed twice
//! (quota-ledger check).
//!
//! The scheduler-driven tests exercise real workers end to end; the
//! synthetic test at the bottom drives the same faults over the raw
//! wire with store-layer payloads, so the coordinator-side kill
//! semantics are pinned without an API in the loop.
//!
//! The faultpoint registry is process-global, so every test here
//! serializes on one mutex and disarms on drop — the same discipline
//! as `merge_crash_matrix`.

mod store_harness;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use store_harness as h;
use ytaudit::core::testutil::test_client;
use ytaudit::core::{Collector, CollectorConfig};
use ytaudit::dist::protocol::{
    LeaseRequest, ShipBegin, ShipChunk, ShipCommit, ERROR_HEADER, LEASE_PATH, RELEASE_PATH,
    SHIP_BEGIN_PATH, SHIP_CHUNK_PATH, SHIP_COMMIT_PATH,
};
use ytaudit::dist::{
    run_worker, Coordinator, CoordinatorChannel, DistError, DistErrorKind, HttpChannel, LeaseGrant,
    LeaseReply, LocalChannel, ShipReply, WorkerConfig, WorkerReport,
};
use ytaudit::net::{NetError, Request, Response, Server, ServerConfig};
use ytaudit::platform::clock::RealClock;
use ytaudit::platform::faultpoint;
use ytaudit::sched::{InProcessFactory, SchedulerConfig};
use ytaudit::store::crc::crc32;
use ytaudit::store::{Store, TempDir};
use ytaudit::types::kit::prop_seed;
use ytaudit::types::Topic;

const SCALE: f64 = 0.08;
const KEY: &str = "research-key";

static SERIAL: Mutex<()> = Mutex::new(());

struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faultpoint::reset();
    }
}

/// Takes the binary-wide fault lock and guarantees a clean registry on
/// entry and exit (even when the test panics mid-arm).
fn exclusive() -> FaultGuard {
    let lock = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    faultpoint::reset();
    FaultGuard { _lock: lock }
}

fn plan() -> CollectorConfig {
    h::plan(vec![Topic::Higgs, Topic::Blm], 2)
}

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

fn coordinator(config: &CollectorConfig, dest: &Path, ttl: Duration) -> Arc<Coordinator> {
    Arc::new(Coordinator::new(config, 2, dest, ttl, Arc::new(RealClock::default())).unwrap())
}

/// The channel of a worker process that dies at its fault: the release a
/// failing but live worker sends never arrives, so its lease has to run
/// out.
struct Killed(LocalChannel);

impl CoordinatorChannel for Killed {
    fn call(&self, req: Request) -> ytaudit::net::Result<Response> {
        if req.path == RELEASE_PATH {
            return Err(NetError::Io("the worker process is gone".into()));
        }
        self.0.call(req)
    }
}

fn worker_cfg(name: &str, workdir: PathBuf) -> WorkerConfig {
    WorkerConfig::new(name, workdir, SchedulerConfig::new(2, KEY))
}

/// Runs one worker to completion against an in-process coordinator.
fn run_one(
    coord: &Arc<Coordinator>,
    factory: &InProcessFactory,
    cfg: &WorkerConfig,
) -> WorkerReport {
    let chan = LocalChannel::new(Arc::clone(coord));
    run_worker(&chan, factory, cfg).unwrap()
}

/// The exactly-once ledger check: byte-identity plus an explicit quota
/// comparison (a range executed-and-committed twice would double its
/// pairs' recorded deltas).
fn assert_converged(dest: &Path, reference_path: &Path, reference_bytes: &[u8], label: &str) {
    assert_eq!(
        std::fs::read(dest).unwrap(),
        reference_bytes,
        "{label}: merged store diverges from single-sink"
    );
    let merged = Store::open(dest).unwrap();
    let single = Store::open(reference_path).unwrap();
    assert_eq!(
        merged.quota_units_total(),
        single.quota_units_total(),
        "{label}"
    );
    assert_eq!(
        merged.committed_pairs(),
        single.committed_pairs(),
        "{label}"
    );
}

/// Coordinator dies while granting a lease (`dist.lease-grant` trips
/// before anything is recorded). Nothing was leased, so the retry is
/// safe by construction: the worker's bounded retry absorbs the fault
/// and the run completes without a duplicate grant or ship.
#[test]
fn kill_at_lease_grant_is_absorbed_by_worker_retry() {
    let _guard = exclusive();
    let dir = TempDir::new("dist-crash-lease-grant");
    let config = plan();
    let reference_bytes = reference(&dir, &config);

    let dest = dir.file("merged.yts");
    let coord = coordinator(&config, &dest, Duration::from_secs(60));
    let (_client, service) = test_client(SCALE);
    let factory = InProcessFactory::new(service);

    faultpoint::arm("dist.lease-grant", 1);
    let report = run_one(&coord, &factory, &worker_cfg("retrier", dir.file("work")));
    faultpoint::reset();

    assert_eq!(report.committed, coord.plan().total_ranges());
    assert_eq!(report.duplicates, 0);
    // The failed grant recorded nothing: granted leases == ranges.
    assert_eq!(
        coord.counters().leases_granted,
        coord.plan().total_ranges() as u64
    );

    coord.merge().unwrap();
    assert_converged(
        &dest,
        &dir.file("reference.yts"),
        &reference_bytes,
        "lease-grant kill",
    );
}

/// Worker dies between executing its range and shipping it
/// (`dist.pre-ship`). The lease runs out, a replacement worker —
/// started on the same workdir, like a restarted process — re-leases
/// the range, resumes the local shard store without re-collecting the
/// committed pairs, and ships it.
#[test]
fn worker_killed_pre_ship_is_replaced_and_the_range_resumed() {
    let _guard = exclusive();
    let dir = TempDir::new("dist-crash-pre-ship");
    let config = plan();
    let reference_bytes = reference(&dir, &config);

    let dest = dir.file("merged.yts");
    // A short ttl so the dead worker's lease is forfeited quickly.
    let coord = coordinator(&config, &dest, Duration::from_secs(1));
    let (_client, service) = test_client(SCALE);
    let factory = InProcessFactory::new(service);
    let workdir = dir.file("work");

    faultpoint::arm("dist.pre-ship", 1);
    let chan = Killed(LocalChannel::new(Arc::clone(&coord)));
    let err = run_worker(&chan, &factory, &worker_cfg("victim", workdir.clone())).unwrap_err();
    faultpoint::reset();
    assert_eq!(err.kind, DistErrorKind::Internal);
    assert!(err.detail.contains("dist.pre-ship"), "{err}");
    // The victim executed its range fully; the local shard survives it.
    assert!(workdir.join("range-0.yts").exists());

    // The replacement waits out the residual ttl on the dead worker's
    // range, gets it re-issued, and finds the work already on disk.
    let report = run_one(&coord, &factory, &worker_cfg("replacement", workdir));
    assert_eq!(report.committed, coord.plan().total_ranges());
    assert_eq!(report.duplicates, 0);
    assert!(coord.counters().leases_reissued >= 1);
    assert!(coord.counters().leases_expired >= 1);
    assert_eq!(coord.counters().leases_released, 0);

    coord.merge().unwrap();
    assert_converged(
        &dest,
        &dir.file("reference.yts"),
        &reference_bytes,
        "pre-ship kill",
    );
}

/// Coordinator dies after validating an upload but before the rename
/// that installs it (`dist.pre-accept`), taking the worker down with it
/// (retries disabled). A restarted coordinator clears the torn
/// `.receiving` staging file, re-opens the range, and a fresh worker —
/// resuming the victim's workdir — completes the run.
#[test]
fn coordinator_killed_pre_accept_restarts_and_converges() {
    let _guard = exclusive();
    let dir = TempDir::new("dist-crash-pre-accept");
    let config = plan();
    let reference_bytes = reference(&dir, &config);

    let dest = dir.file("merged.yts");
    let (_client, service) = test_client(SCALE);
    let factory = InProcessFactory::new(service);
    let workdir = dir.file("work");

    {
        let coord = coordinator(&config, &dest, Duration::from_secs(60));
        faultpoint::arm("dist.pre-accept", 1);
        let mut cfg = worker_cfg("victim", workdir.clone());
        // A dying coordinator does not come back for a retry.
        cfg.max_retries = 0;
        let chan = LocalChannel::new(Arc::clone(&coord));
        let err = run_worker(&chan, &factory, &cfg).unwrap_err();
        faultpoint::reset();
        assert_eq!(err.kind, DistErrorKind::Internal);
        assert!(err.detail.contains("dist.pre-accept"), "{err}");
        assert!(!coord.all_committed());
    }

    // The restarted coordinator recovers from disk: no shard was
    // installed, so every range is open again.
    let coord = coordinator(&config, &dest, Duration::from_secs(60));
    assert_eq!(coord.counters().shards_received, 0);

    let report = run_one(&coord, &factory, &worker_cfg("successor", workdir));
    assert_eq!(report.committed, coord.plan().total_ranges());
    assert_eq!(report.duplicates, 0);

    coord.merge().unwrap();
    assert_converged(
        &dest,
        &dir.file("reference.yts"),
        &reference_bytes,
        "pre-accept kill",
    );
}

/// The non-fatal flavor of `dist.pre-accept`: the coordinator survives
/// the fault (one transient refusal), the worker's retry re-sends the
/// commit against the still-staged upload, and nothing is shipped or
/// committed twice.
#[test]
fn transient_pre_accept_fault_is_absorbed_by_commit_retry() {
    let _guard = exclusive();
    let dir = TempDir::new("dist-crash-pre-accept-retry");
    let config = plan();
    let reference_bytes = reference(&dir, &config);

    let dest = dir.file("merged.yts");
    let coord = coordinator(&config, &dest, Duration::from_secs(60));
    let (_client, service) = test_client(SCALE);
    let factory = InProcessFactory::new(service);

    faultpoint::arm("dist.pre-accept", 1);
    let report = run_one(&coord, &factory, &worker_cfg("retrier", dir.file("work")));
    faultpoint::reset();

    assert_eq!(report.committed, coord.plan().total_ranges());
    assert_eq!(report.duplicates, 0);
    assert_eq!(
        coord.counters().shards_received,
        coord.plan().total_ranges() as u64
    );
    assert_eq!(coord.counters().duplicate_ships, 0);

    coord.merge().unwrap();
    assert_converged(
        &dest,
        &dir.file("reference.yts"),
        &reference_bytes,
        "transient pre-accept",
    );
}

/// A worker's first store commit fails (`store.commit`: its record is
/// in the file, the guarded fsync never ran), so its scheduler drains
/// and the worker stops with the range half done. The simulated API
/// charged that run at least what the range's local store banked (a
/// pair commits only after its calls were served) and at most the
/// whole plan (a drain abandons work rather than spending past it). A
/// successor on the same workdir, once the lease expires, is charged
/// exactly the un-banked remainder, however much abandoned in-flight
/// work the drained run paid for, and the merge still reproduces the
/// single-sink bytes. The drained worker hands its lease back, so the
/// successor is granted the range at once, not after the ttl.
#[test]
fn drained_range_is_never_over_charged_and_its_successor_pays_the_difference() {
    let _guard = exclusive();
    let dir = TempDir::new("dist-crash-drain");
    let config = plan();
    let reference_bytes = reference(&dir, &config);
    let total = h::single_scheduler_charge(SCALE, KEY, &config);

    let dest = dir.file("merged.yts");
    // The CLI's default ttl: only the release lets the successor in early.
    let ttl = Duration::from_secs(30);
    let coord = coordinator(&config, &dest, ttl);
    let workdir = dir.file("work");

    let charged_crash = {
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(Arc::clone(&service));
        faultpoint::arm("store.commit", 1);
        let chan = LocalChannel::new(Arc::clone(&coord));
        let err = run_worker(&chan, &factory, &worker_cfg("victim", workdir.clone())).unwrap_err();
        faultpoint::reset();
        assert!(err.detail.contains("drained"), "{err}");
        service.quota().lifetime_used(KEY)
    };
    let drained_at = Instant::now();
    assert_eq!(coord.counters().leases_released, 1);
    assert!(
        coord.status_page().contains("range 0 [topic]: open"),
        "{}",
        coord.status_page()
    );
    let banked = Store::open(&workdir.join("range-0.yts"))
        .unwrap()
        .stats()
        .quota_units;
    assert!(0 < banked && banked < total, "banked {banked} of {total}");
    assert!(charged_crash >= banked, "banked quota was never charged");
    assert!(
        charged_crash <= total,
        "drain over-spent: {charged_crash} > {total}"
    );

    let charged_resume = {
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(Arc::clone(&service));
        let report = run_one(&coord, &factory, &worker_cfg("successor", workdir));
        assert_eq!(report.committed, coord.plan().total_ranges());
        assert_eq!(report.waits, 0, "the successor waited for a lease");
        service.quota().lifetime_used(KEY)
    };
    assert!(
        drained_at.elapsed() < ttl / 3,
        "the successor finished {:?} after the drain, against a {ttl:?} ttl",
        drained_at.elapsed()
    );
    assert_eq!(coord.counters().leases_expired, 0);
    assert_eq!(
        charged_resume,
        total - banked,
        "the successor did not pay exactly the un-banked remainder"
    );

    coord.merge().unwrap();
    assert_converged(
        &dest,
        &dir.file("reference.yts"),
        &reference_bytes,
        "drained range",
    );
}

// ---------------------------------------------------------------------
// Synthetic wire-level coverage (no API, no scheduler): the same
// coordinator-side kills driven over a real loopback server with
// store-layer shard payloads from the shared harness.
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

fn wire_lease(chan: &dyn CoordinatorChannel, worker: &str) -> LeaseGrant {
    let body = post(
        chan,
        LEASE_PATH,
        LeaseRequest {
            worker: worker.to_string(),
        }
        .encode(),
    )
    .unwrap();
    match LeaseReply::decode(&body).unwrap() {
        LeaseReply::Grant(grant) => grant,
        other => panic!("expected a grant, got {other:?}"),
    }
}

fn wire_upload(chan: &dyn CoordinatorChannel, grant: &LeaseGrant, data: &[u8]) {
    post(
        chan,
        SHIP_BEGIN_PATH,
        ShipBegin {
            range: grant.range,
            token: grant.token,
            total_len: data.len() as u64,
            total_crc: crc32(data),
        }
        .encode(),
    )
    .unwrap();
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
        )
        .unwrap();
        offset += chunk.len();
    }
}

fn wire_commit(
    chan: &dyn CoordinatorChannel,
    grant: &LeaseGrant,
    data: &[u8],
) -> Result<ShipReply, DistError> {
    let body = post(
        chan,
        SHIP_COMMIT_PATH,
        ShipCommit {
            range: grant.range,
            token: grant.token,
            total_len: data.len() as u64,
            total_crc: crc32(data),
        }
        .encode(),
    )?;
    ShipReply::decode(&body)
}

/// Both coordinator-side kills, over the raw wire: a grant that dies
/// before recording retries cleanly, and a commit that dies after
/// validation re-commits the still-staged upload — once.
#[test]
fn synthetic_wire_kills_at_coordinator_faultpoints_recover_exactly_once() {
    let _guard = exclusive();
    let dir = TempDir::new("dist-crash-synthetic");
    let config = plan();
    let seed = prop_seed(11);
    let reference_bytes = h::build_reference(&dir.file("synthetic-reference.yts"), &config, seed);
    let staged = h::build_shards(&dir.file("staging.yts"), &config, 2, seed);
    let shards: Vec<Vec<u8>> = staged.iter().map(|p| std::fs::read(p).unwrap()).collect();

    let dest = dir.file("merged.yts");
    let coord = coordinator(&config, &dest, Duration::from_secs(60));
    let handler: Arc<dyn ytaudit::net::Handler> = Arc::clone(&coord) as _;
    let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
    let chan = HttpChannel::new(&server.base_url()).unwrap();

    // Kill the coordinator mid-grant: the 500 carries the typed error,
    // nothing was recorded, and the re-sent lease is a clean first grant.
    faultpoint::arm("dist.lease-grant", 1);
    let err = post(
        &chan,
        LEASE_PATH,
        LeaseRequest { worker: "w".into() }.encode(),
    )
    .unwrap_err();
    faultpoint::reset();
    assert_eq!(err.kind, DistErrorKind::Internal);
    assert!(err.detail.contains("dist.lease-grant"), "{err}");
    assert_eq!(coord.counters().leases_granted, 0);

    let g0 = wire_lease(&chan, "w");
    wire_upload(&chan, &g0, &shards[g0.range as usize]);

    // Kill the coordinator mid-accept: the upload was validated but
    // never installed. The staging survives, so re-sending the commit
    // installs it — exactly once.
    faultpoint::arm("dist.pre-accept", 1);
    let err = wire_commit(&chan, &g0, &shards[g0.range as usize]).unwrap_err();
    faultpoint::reset();
    assert_eq!(err.kind, DistErrorKind::Internal);
    assert!(err.detail.contains("dist.pre-accept"), "{err}");
    assert_eq!(coord.counters().shards_received, 0);

    let reply = wire_commit(&chan, &g0, &shards[g0.range as usize]).unwrap();
    assert_eq!(reply, ShipReply::Accepted);
    assert_eq!(coord.counters().shards_received, 1);

    // The rest of the plan ships clean.
    loop {
        let body = post(
            &chan,
            LEASE_PATH,
            LeaseRequest { worker: "w".into() }.encode(),
        )
        .unwrap();
        match LeaseReply::decode(&body).unwrap() {
            LeaseReply::Done => break,
            LeaseReply::Wait => std::thread::sleep(Duration::from_millis(5)),
            LeaseReply::Grant(g) => {
                wire_upload(&chan, &g, &shards[g.range as usize]);
                assert_eq!(
                    wire_commit(&chan, &g, &shards[g.range as usize]).unwrap(),
                    ShipReply::Accepted
                );
            }
        }
    }
    server.shutdown();

    assert!(coord.all_committed());
    assert_eq!(coord.counters().duplicate_ships, 0);
    assert_eq!(
        coord.counters().shards_received,
        coord.plan().total_ranges() as u64
    );
    coord.merge().unwrap();
    assert_eq!(
        std::fs::read(&dest).unwrap(),
        reference_bytes,
        "synthetic kills: merged store diverges from single-sink"
    );
}
