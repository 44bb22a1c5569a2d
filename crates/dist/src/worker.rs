//! The worker: leases task ranges, executes them with the ordinary
//! scheduler into a local shard store, and ships the finished shard
//! back over chunked, CRC-checked uploads.
//!
//! The worker is deliberately stateless across ranges: everything it
//! needs arrives in the [`LeaseGrant`] (the plan, the fencing token,
//! and — for the finish range — the channel-ID union), and everything
//! it produces leaves via the ship endpoints. Its only local state is
//! the per-range `.yts` under its work directory, which makes a
//! crashed-and-restarted worker resume collection exactly like a local
//! `collect --resume` (the store skips committed pairs without API
//! calls).
//!
//! Every coordinator error is dispatched through
//! [`crate::retry::classify`]: transient failures retry bounded,
//! upload desyncs restart the ship from `begin`, fencing failures
//! abandon the range (someone else owns it now), and protocol bugs
//! stop the worker.

use crate::coordinator::Coordinator;
use crate::protocol::{
    DistError, DistErrorKind, LeaseGrant, LeaseReply, LeaseRequest, RenewRequest, ShipBegin,
    ShipChunk, ShipReply, ERROR_HEADER, LEASE_PATH, RELEASE_PATH, RENEW_PATH, SHIP_BEGIN_PATH,
    SHIP_CHUNK_PATH, SHIP_COMMIT_PATH,
};
use crate::retry::{classify, DistErrorClass};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ytaudit_core::shard::{finish_config, shard_configs};
use ytaudit_core::{collect::fetch_final_channels, CollectorSink};
use ytaudit_net::{HttpClient, Request, Response, Url};
use ytaudit_platform::clock::{MonotonicClock, RealClock};
use ytaudit_platform::faultpoint;
use ytaudit_sched::{Scheduler, SchedulerConfig, TransportFactory};
use ytaudit_store::crc::crc32;
use ytaudit_store::Store;
use ytaudit_types::ChannelId;

/// How a worker reaches its coordinator: over HTTP ([`HttpChannel`]) or
/// directly in process ([`LocalChannel`]); both traverse the same
/// request routing, so the in-process topology exercises the identical
/// protocol path minus the sockets.
pub trait CoordinatorChannel: Send + Sync {
    /// Performs one request/response exchange.
    fn call(&self, req: Request) -> ytaudit_net::Result<Response>;
}

/// A coordinator reached over the ytaudit-net HTTP client.
pub struct HttpChannel {
    client: HttpClient,
    base: Url,
}

impl HttpChannel {
    /// Connects to a coordinator at `base_url`
    /// (e.g. `http://127.0.0.1:7700`).
    pub fn new(base_url: &str) -> ytaudit_net::Result<HttpChannel> {
        Ok(HttpChannel {
            client: HttpClient::new(),
            base: Url::parse(base_url)?,
        })
    }
}

impl CoordinatorChannel for HttpChannel {
    fn call(&self, req: Request) -> ytaudit_net::Result<Response> {
        self.client.send(&self.base, &req)
    }
}

/// A coordinator in the same process, invoked through its request
/// handler without a socket.
pub struct LocalChannel {
    coordinator: Arc<Coordinator>,
}

impl LocalChannel {
    /// Wraps an in-process coordinator.
    pub fn new(coordinator: Arc<Coordinator>) -> LocalChannel {
        LocalChannel { coordinator }
    }
}

impl CoordinatorChannel for LocalChannel {
    fn call(&self, req: Request) -> ytaudit_net::Result<Response> {
        Ok(ytaudit_net::Handler::handle(&*self.coordinator, &req))
    }
}

/// Worker tuning knobs.
pub struct WorkerConfig {
    /// Name shown on the coordinator's status page.
    pub name: String,
    /// Directory for per-range local shard stores (created if missing).
    pub workdir: PathBuf,
    /// Scheduler configuration for range execution (workers, API key).
    pub sched: SchedulerConfig,
    /// Clock for polling, retry pauses, and heartbeat pacing.
    pub clock: Arc<dyn MonotonicClock>,
    /// Pause between `Wait` polls and transient retries.
    pub poll: Duration,
    /// Consecutive `Wait` replies tolerated before giving up (a wedged
    /// coordinator must not hang the worker forever).
    pub max_wait_polls: u32,
    /// Transient (`Retry`-class) attempts per call, and full ship
    /// restarts per range.
    pub max_retries: u32,
    /// Upload chunk size in bytes.
    pub chunk_len: usize,
    /// Renew the lease from a background heartbeat (at a third of the
    /// granted ttl) while a range executes. Disable in tests that drive
    /// expiry with a manual clock.
    pub heartbeat: bool,
}

impl WorkerConfig {
    /// A worker config with production defaults.
    pub fn new(
        name: impl Into<String>,
        workdir: impl Into<PathBuf>,
        sched: SchedulerConfig,
    ) -> WorkerConfig {
        WorkerConfig {
            name: name.into(),
            workdir: workdir.into(),
            sched,
            clock: Arc::new(RealClock::default()),
            poll: Duration::from_millis(50),
            max_wait_polls: 20_000,
            max_retries: 8,
            chunk_len: 256 * 1024,
            heartbeat: true,
        }
    }
}

/// What one worker run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Leases this worker was granted.
    pub leases: u32,
    /// Ranges executed, shipped, and accepted by the coordinator.
    pub committed: u32,
    /// Ships answered `Duplicate` (another holder beat us to it).
    pub duplicates: u32,
    /// Ranges abandoned because the lease was lost mid-flight.
    pub abandoned: u32,
    /// `Wait` replies received.
    pub waits: u32,
}

enum ShipOutcome {
    Committed,
    Duplicate,
}

/// Runs the worker loop against `chan` until the coordinator reports
/// the run done: lease, execute locally via `factory`, ship, repeat.
pub fn run_worker(
    chan: &dyn CoordinatorChannel,
    factory: &dyn TransportFactory,
    cfg: &WorkerConfig,
) -> Result<WorkerReport, DistError> {
    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| DistError::new(DistErrorKind::Internal, e.to_string()))?;
    let mut report = WorkerReport::default();
    let mut consecutive_waits = 0;
    loop {
        let lease_body = post_with_retry(
            chan,
            cfg,
            LEASE_PATH,
            &LeaseRequest {
                worker: cfg.name.clone(),
            }
            .encode(),
        )?;
        match LeaseReply::decode(&lease_body)? {
            LeaseReply::Done => return Ok(report),
            LeaseReply::Wait => {
                report.waits += 1;
                consecutive_waits += 1;
                if consecutive_waits > cfg.max_wait_polls {
                    return Err(DistError::new(
                        DistErrorKind::Internal,
                        "coordinator reported Wait past the poll budget",
                    ));
                }
                cfg.clock.sleep(cfg.poll);
            }
            LeaseReply::Grant(grant) => {
                consecutive_waits = 0;
                report.leases += 1;
                let outcome = execute_and_ship(chan, factory, cfg, &grant);
                if outcome.is_err() {
                    // Hand the range back so a successor need not wait out
                    // the ttl. Best effort: a lease already lost is
                    // refused, and an unreachable coordinator lets the
                    // lease lapse as before.
                    let release = RenewRequest {
                        range: grant.range,
                        token: grant.token,
                    };
                    let _ = post_once(chan, RELEASE_PATH, &release.encode());
                }
                match outcome {
                    Ok(ShipOutcome::Committed) => report.committed += 1,
                    Ok(ShipOutcome::Duplicate) => report.duplicates += 1,
                    Err(err) if classify(err.kind) == DistErrorClass::Abandon => {
                        report.abandoned += 1;
                    }
                    Err(err) => return Err(err),
                }
            }
        }
    }
}

/// Executes one leased range into a local shard store and ships it.
fn execute_and_ship(
    chan: &dyn CoordinatorChannel,
    factory: &dyn TransportFactory,
    cfg: &WorkerConfig,
    grant: &LeaseGrant,
) -> Result<ShipOutcome, DistError> {
    let path = cfg.workdir.join(format!("range-{}.yts", grant.range));
    with_heartbeat(chan, cfg, grant, || {
        execute_range(factory, cfg, grant, &path)
    })??;
    if faultpoint::should_trip("dist.pre-ship") {
        return Err(DistError::new(
            DistErrorKind::Internal,
            "injected crash: dist.pre-ship",
        ));
    }
    // Reconfirm the lease before the upload: if it expired during
    // execution the range belongs to someone else and shipping would
    // only be refused chunk by chunk.
    post_with_retry(
        chan,
        cfg,
        RENEW_PATH,
        &RenewRequest {
            range: grant.range,
            token: grant.token,
        }
        .encode(),
    )?;
    let outcome = ship(chan, cfg, grant, &path)?;
    // The shard is durably the coordinator's now (either from us or
    // from another holder); the local copy has served its purpose.
    std::fs::remove_file(&path)
        .map_err(|e| DistError::new(DistErrorKind::Internal, e.to_string()))?;
    Ok(outcome)
}

/// Runs range execution under an optional background heartbeat that
/// renews the lease at a third of the granted ttl.
fn with_heartbeat<T>(
    chan: &dyn CoordinatorChannel,
    cfg: &WorkerConfig,
    grant: &LeaseGrant,
    work: impl FnOnce() -> T,
) -> Result<T, DistError> {
    if !cfg.heartbeat {
        return Ok(work());
    }
    let stop = AtomicBool::new(false);
    let interval = (grant.ttl / 3).max(Duration::from_millis(1));
    let renew = RenewRequest {
        range: grant.range,
        token: grant.token,
    }
    .encode();
    Ok(std::thread::scope(|scope| {
        scope.spawn(|| {
            loop {
                // Sleep in short slices so a finished range does not
                // wait out a long heartbeat interval before joining.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let slice = (interval - slept).min(Duration::from_millis(25));
                    cfg.clock.sleep(slice);
                    slept += slice;
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                // Failures here are not fatal: the ship path reconfirms
                // the lease and classifies any loss properly.
                let _ = post_once(chan, RENEW_PATH, &renew);
            }
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        out
    }))
}

/// Executes the leased range into the local store at `path`: topic
/// ranges run the ordinary scheduler, the finish range performs the
/// parent's single end-of-collection channel fetch.
fn execute_range(
    factory: &dyn TransportFactory,
    cfg: &WorkerConfig,
    grant: &LeaseGrant,
    path: &std::path::Path,
) -> Result<(), DistError> {
    let internal =
        |e: &dyn std::fmt::Display| DistError::new(DistErrorKind::Internal, e.to_string());
    let count = grant.plan.ranges as usize;
    let range = grant.range as usize;
    let mut store = Store::open_or_create(path).map_err(|e| internal(&e))?;
    if range < count {
        let shard_cfg = shard_configs(&grant.plan.parent, count)
            .into_iter()
            .nth(range)
            .ok_or_else(|| {
                DistError::new(
                    DistErrorKind::BadRequest,
                    format!("grant for range {range} outside a {count}-way split"),
                )
            })?;
        let run = Scheduler::new(factory, shard_cfg, cfg.sched.clone())
            .run(&mut store)
            .map_err(|e| internal(&e))?;
        if !run.completed() {
            return Err(DistError::new(
                DistErrorKind::Internal,
                format!("range {range} drained before completing"),
            ));
        }
        return Ok(());
    }
    // Finish range: the parent plan's one batched channel fetch, at the
    // last snapshot's simulated instant, over the channel-ID union the
    // coordinator gathered from every installed topic shard.
    let finish_cfg = finish_config(&grant.plan.parent, count);
    store.begin(&finish_cfg).map_err(|e| internal(&e))?;
    if store.complete() {
        return Ok(());
    }
    if grant.plan.parent.fetch_channels && grant.channel_ids.is_none() {
        return Err(DistError::new(
            DistErrorKind::BadRequest,
            "finish grant carries no channel-ID union",
        ));
    }
    let ids = grant.channel_ids.iter().flatten();
    let ids = ids.map(|id| ChannelId::from(id.as_str())).collect();
    let client = factory.client(factory.transport(), &cfg.sched.api_key);
    let channels = fetch_final_channels(client.as_ref(), &grant.plan.parent, || Ok(ids))
        .map_err(|e| internal(&e))?;
    store
        .finish_collection(&channels, client.units_spent())
        .map_err(|e| internal(&e))?;
    Ok(())
}

/// Ships the finished local shard: begin, CRC-checked chunks, commit.
/// Upload desyncs restart from `begin`, bounded by `max_retries`.
fn ship(
    chan: &dyn CoordinatorChannel,
    cfg: &WorkerConfig,
    grant: &LeaseGrant,
    path: &std::path::Path,
) -> Result<ShipOutcome, DistError> {
    let data =
        std::fs::read(path).map_err(|e| DistError::new(DistErrorKind::Internal, e.to_string()))?;
    let total_crc = crc32(&data);
    let declared = ShipBegin {
        range: grant.range,
        token: grant.token,
        total_len: data.len() as u64,
        total_crc,
    };
    let mut restarts = 0;
    'ship: loop {
        if restarts > cfg.max_retries {
            return Err(DistError::new(
                DistErrorKind::Internal,
                format!("range {}: ship restarts exhausted", grant.range),
            ));
        }
        restarts += 1;
        let begin_body = post_with_retry(chan, cfg, SHIP_BEGIN_PATH, &declared.encode())?;
        if let ShipReply::Duplicate = ShipReply::decode(&begin_body)? {
            return Ok(ShipOutcome::Duplicate);
        }
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + cfg.chunk_len.max(1)).min(data.len());
            let chunk = ShipChunk {
                range: grant.range,
                token: grant.token,
                offset: offset as u64,
                crc: crc32(&data[offset..end]),
                bytes: data[offset..end].to_vec(),
            };
            match post_with_retry(chan, cfg, SHIP_CHUNK_PATH, &chunk.encode()) {
                Ok(_) => offset = end,
                Err(err) if classify(err.kind) == DistErrorClass::RestartShip => continue 'ship,
                Err(err) => return Err(err),
            }
        }
        // The commit re-declares exactly what the begin declared.
        match post_with_retry(chan, cfg, SHIP_COMMIT_PATH, &declared.encode()) {
            Ok(body) => {
                return Ok(match ShipReply::decode(&body)? {
                    ShipReply::Accepted => ShipOutcome::Committed,
                    ShipReply::Duplicate => ShipOutcome::Duplicate,
                })
            }
            Err(err) if classify(err.kind) == DistErrorClass::RestartShip => continue 'ship,
            Err(err) => return Err(err),
        }
    }
}

/// One POST exchange; non-2xx responses become typed [`DistError`]s via
/// the [`ERROR_HEADER`] key, socket failures come back as `Internal`.
fn post_once(chan: &dyn CoordinatorChannel, path: &str, body: &[u8]) -> Result<Vec<u8>, DistError> {
    let req =
        Request::post(path, body.to_vec()).with_header("content-type", "application/octet-stream");
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
    let detail = String::from_utf8_lossy(&resp.body).into_owned();
    Err(DistError::new(kind, detail))
}

/// [`post_once`] with bounded retries for `Retry`-class failures.
fn post_with_retry(
    chan: &dyn CoordinatorChannel,
    cfg: &WorkerConfig,
    path: &str,
    body: &[u8],
) -> Result<Vec<u8>, DistError> {
    let mut attempt = 0;
    loop {
        match post_once(chan, path, body) {
            Ok(reply) => return Ok(reply),
            Err(err)
                if classify(err.kind) == DistErrorClass::Retry && attempt < cfg.max_retries =>
            {
                attempt += 1;
                cfg.clock.sleep(cfg.poll);
            }
            Err(err) => return Err(err),
        }
    }
}
