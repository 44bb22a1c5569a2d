//! The coordinator: owns the plan, leases task ranges to workers, and
//! durably installs the shard stores they ship back.
//!
//! ## Lease state machine
//!
//! Every range is in exactly one of three states:
//!
//! ```text
//!           grant                    ship/commit accepted
//!   Open ──────────▶ Leased{token} ─────────────────────▶ Committed
//!    ▲                   │
//!    └───────────────────┘
//!      ttl elapsed with no renewal, or the holder released it (the
//!      next grant re-issues the range under a fresh fencing token)
//! ```
//!
//! `Committed` is terminal and *durable*: its marker is the complete,
//! validated shard store sitting at the canonical
//! [`shard_store_path`]/[`finish_store_path`] next to the future merged
//! destination — the layout `store merge` discovers, which is why a
//! restarted coordinator can rebuild its entire state by scanning the
//! filesystem. Exactly-once follows: a
//! range transitions to `Committed` at most once (under the state lock,
//! fenced by the lease token), every later ship of the same range is
//! answered [`ShipReply::Duplicate`] without touching the installed
//! file, and the store's own Begin/Commit manifest inside the shipped
//! shard guarantees the shard itself holds each pair exactly once.
//!
//! Uploads are staged in memory keyed by range and written to a
//! `.receiving` sibling only at commit, where the shard is re-opened
//! and validated against the plan before an fsync + atomic rename
//! installs it. A crash between write and rename leaves only the
//! `.receiving` tmp, which recovery deletes.

use crate::protocol::{
    DistError, DistErrorKind, DistPlan, LeaseGrant, LeaseReply, LeaseRequest, RenewReply,
    RenewRequest, ShipBegin, ShipChunk, ShipCommit, ShipReply, ERROR_HEADER, LEASE_PATH,
    METRICS_PATH, RELEASE_PATH, RENEW_PATH, SHIP_BEGIN_PATH, SHIP_CHUNK_PATH, SHIP_COMMIT_PATH,
    STATUS_PATH,
};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ytaudit_core::shard::{finish_config, shard_configs};
use ytaudit_core::{CollectorConfig, CollectorSink};
use ytaudit_net::{Handler, Method, Request, Response, StatusCode};
use ytaudit_platform::clock::MonotonicClock;
use ytaudit_platform::faultpoint;
use ytaudit_store::crc::crc32;
use ytaudit_store::merge::MergeReport;
use ytaudit_store::records::CollectionMeta;
use ytaudit_store::{finish_store_path, fsync_dir_of, merge_shards, shard_store_path, Store};

/// Per-range lease state (see the module-level state machine).
#[derive(Debug, Clone, PartialEq, Eq)]
enum RangeState {
    /// Grantable.
    Open,
    /// Held by a worker until `expires` (against the coordinator clock).
    Leased {
        token: u64,
        worker: String,
        expires: Duration,
    },
    /// Durably installed at the range's canonical path. Terminal.
    Committed,
}

/// One range's bookkeeping.
#[derive(Debug)]
struct RangeInfo {
    state: RangeState,
    /// How many times this range has been granted (for re-issue counting).
    grants: u64,
    /// What the installed shard store holds (zero until committed).
    installed: InstalledTotals,
}

/// Pairs and quota units recorded in installed shard stores, as shown
/// on `/dist/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstalledTotals {
    /// Committed `(topic, snapshot)` pairs.
    pub pairs: u64,
    /// Quota units: every pair's delta plus the finish range's channel
    /// fetch, each counted once.
    pub quota_units: u64,
}

/// An in-flight shard upload, staged in memory until commit.
struct Upload {
    token: u64,
    total_len: u64,
    total_crc: u32,
    received: Vec<u8>,
}

struct DistState {
    ranges: Vec<RangeInfo>,
    uploads: HashMap<usize, Upload>,
}

/// A point-in-time snapshot of the coordinator's counters, as shown on
/// `/dist/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistCounters {
    /// Leases granted (including re-issues).
    pub leases_granted: u64,
    /// Leases that expired without commit.
    pub leases_expired: u64,
    /// Leases their holder handed back without commit.
    pub leases_released: u64,
    /// Grants of a range that had been granted before (crash recovery).
    pub leases_reissued: u64,
    /// Shard stores durably installed.
    pub shards_received: u64,
    /// Ships answered `Duplicate` because the range was already
    /// committed.
    pub duplicate_ships: u64,
    /// Upload payload bytes accepted across all chunks.
    pub bytes_shipped: u64,
}

/// The coordinator of one distributed collection run. Thread-safe:
/// wrap in an `Arc` and serve it directly (it implements
/// [`ytaudit_net::Handler`]) or drive it in-process through
/// [`crate::worker::LocalChannel`].
pub struct Coordinator {
    plan: DistPlan,
    dest: PathBuf,
    ttl: Duration,
    clock: Arc<dyn MonotonicClock>,
    state: Mutex<DistState>,
    next_token: AtomicU64,
    leases_granted: AtomicU64,
    leases_expired: AtomicU64,
    leases_released: AtomicU64,
    leases_reissued: AtomicU64,
    shards_received: AtomicU64,
    duplicate_ships: AtomicU64,
    bytes_shipped: AtomicU64,
}

fn internal(detail: impl std::fmt::Display) -> DistError {
    DistError::new(DistErrorKind::Internal, detail.to_string())
}

fn invalid(detail: impl std::fmt::Display) -> DistError {
    DistError::new(DistErrorKind::ShardInvalid, detail.to_string())
}

impl Coordinator {
    /// Builds the coordinator for `parent` split `shards` ways, with the
    /// merged output destined for `dest`. Leases live `ttl` against
    /// `clock`. Recovery is automatic: any complete, valid shard store
    /// already sitting at its canonical path is adopted as `Committed`
    /// (so a restarted coordinator re-issues only uncommitted ranges),
    /// and stale `.receiving` tmps are cleared.
    pub fn new(
        parent: &CollectorConfig,
        shards: usize,
        dest: &Path,
        ttl: Duration,
        clock: Arc<dyn MonotonicClock>,
    ) -> Result<Coordinator, DistError> {
        if dest.exists() {
            return Err(DistError::new(
                DistErrorKind::BadRequest,
                format!(
                    "{} already exists; merging would overwrite it",
                    dest.display()
                ),
            ));
        }
        let shards = shards.max(1);
        let plan = DistPlan::new(parent, shards);
        let coordinator = Coordinator {
            plan,
            dest: dest.to_path_buf(),
            ttl,
            clock,
            state: Mutex::new(DistState {
                ranges: (0..=shards)
                    .map(|_| RangeInfo {
                        state: RangeState::Open,
                        grants: 0,
                        installed: InstalledTotals::default(),
                    })
                    .collect(),
                uploads: HashMap::new(),
            }),
            next_token: AtomicU64::new(1),
            leases_granted: AtomicU64::new(0),
            leases_expired: AtomicU64::new(0),
            leases_released: AtomicU64::new(0),
            leases_reissued: AtomicU64::new(0),
            shards_received: AtomicU64::new(0),
            duplicate_ships: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
        };
        coordinator.recover()?;
        Ok(coordinator)
    }

    /// The plan this coordinator distributes.
    pub fn plan(&self) -> &DistPlan {
        &self.plan
    }

    /// The merged destination path.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Pairs and quota units summed over every installed shard store.
    pub fn installed_totals(&self) -> InstalledTotals {
        let state = self.state.lock();
        state
            .ranges
            .iter()
            .fold(InstalledTotals::default(), |sum, info| InstalledTotals {
                pairs: sum.pairs + info.installed.pairs,
                quota_units: sum.quota_units + info.installed.quota_units,
            })
    }

    /// Current counter values.
    pub fn counters(&self) -> DistCounters {
        DistCounters {
            leases_granted: self.leases_granted.load(Ordering::Relaxed),
            leases_expired: self.leases_expired.load(Ordering::Relaxed),
            leases_released: self.leases_released.load(Ordering::Relaxed),
            leases_reissued: self.leases_reissued.load(Ordering::Relaxed),
            shards_received: self.shards_received.load(Ordering::Relaxed),
            duplicate_ships: self.duplicate_ships.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
        }
    }

    /// Whether every range (topic shards + finish) is committed.
    pub fn all_committed(&self) -> bool {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        state
            .ranges
            .iter()
            .all(|r| r.state == RangeState::Committed)
    }

    /// Merges the committed shard set into the destination store.
    /// Callable only once every range is committed.
    pub fn merge(&self) -> Result<MergeReport, DistError> {
        if !self.all_committed() {
            return Err(DistError::new(
                DistErrorKind::BadRequest,
                "not every range is committed yet",
            ));
        }
        let paths: Vec<PathBuf> = (0..self.total_ranges())
            .map(|range| self.canonical_path(range))
            .collect();
        merge_shards(&self.dest, &paths).map_err(internal)
    }

    fn total_ranges(&self) -> usize {
        self.plan.total_ranges() as usize
    }

    fn shard_count(&self) -> usize {
        self.plan.ranges as usize
    }

    /// The collector config range `range` executes.
    fn range_config(&self, range: usize) -> Result<CollectorConfig, DistError> {
        let count = self.shard_count();
        if range < count {
            shard_configs(&self.plan.parent, count)
                .into_iter()
                .nth(range)
                .ok_or_else(|| internal(format!("no shard config for range {range}")))
        } else if range == count {
            Ok(finish_config(&self.plan.parent, count))
        } else {
            Err(DistError::new(
                DistErrorKind::UnknownRange,
                format!("range {range} out of 0..={count}"),
            ))
        }
    }

    /// Where range `range`'s installed shard store lives.
    fn canonical_path(&self, range: usize) -> PathBuf {
        let count = self.shard_count();
        if range < count {
            let topics = shard_configs(&self.plan.parent, count)
                .into_iter()
                .nth(range)
                .map(|cfg| cfg.topics)
                .unwrap_or_default();
            shard_store_path(&self.dest, range, &topics)
        } else {
            finish_store_path(&self.dest)
        }
    }

    /// Validates that the store at `path` is exactly range `range`'s
    /// complete shard, and returns what it holds.
    fn validate_installed(&self, path: &Path, range: usize) -> Result<InstalledTotals, DistError> {
        let expected = CollectionMeta::of_config(&self.range_config(range)?);
        let store = Store::open(path).map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        let meta = store
            .collection_meta()
            .cloned()
            .ok_or_else(|| invalid(format!("{}: store holds no collection", path.display())))?;
        if meta != expected {
            return Err(invalid(format!(
                "{}: shard manifest does not match range {range} of the plan",
                path.display()
            )));
        }
        if !store.complete() {
            return Err(invalid(format!(
                "{}: shard is incomplete ({}/{} pairs)",
                path.display(),
                store.committed_pairs(),
                meta.pairs()
            )));
        }
        // The store's total already includes its end record, so the
        // finish range's channel fetch is counted here exactly once.
        Ok(InstalledTotals {
            pairs: store.committed_pairs() as u64,
            quota_units: store.quota_units_total(),
        })
    }

    /// Adopts already-installed shards after a restart and clears stale
    /// upload tmps.
    fn recover(&self) -> Result<(), DistError> {
        let mut state = self.state.lock();
        for range in 0..self.total_ranges() {
            let path = self.canonical_path(range);
            let receiving = receiving_path(&path);
            if receiving.exists() {
                std::fs::remove_file(&receiving).map_err(internal)?;
            }
            if path.exists() {
                let installed = self.validate_installed(&path, range)?;
                if let Some(info) = state.ranges.get_mut(range) {
                    info.state = RangeState::Committed;
                    info.installed = installed;
                }
            }
        }
        Ok(())
    }

    /// Reverts expired leases to `Open` and drops their staged uploads.
    fn sweep(&self, state: &mut DistState) {
        let now = self.clock.now();
        for (range, info) in state.ranges.iter_mut().enumerate() {
            if let RangeState::Leased { expires, .. } = info.state {
                if now >= expires {
                    info.state = RangeState::Open;
                    state.uploads.remove(&range);
                    self.leases_expired.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Whether the caller holds a live lease on `range` under `token`.
    fn check_lease(state: &DistState, range: usize, token: u64) -> Result<(), DistError> {
        match state.ranges.get(range).map(|info| &info.state) {
            None => Err(DistError::new(
                DistErrorKind::UnknownRange,
                format!("range {range} out of range"),
            )),
            Some(RangeState::Leased { token: held, .. }) if *held == token => Ok(()),
            Some(RangeState::Committed) => Err(DistError::new(
                DistErrorKind::LeaseExpired,
                format!("range {range} is already committed"),
            )),
            Some(_) => Err(DistError::new(
                DistErrorKind::LeaseExpired,
                format!("range {range} is not leased under this token"),
            )),
        }
    }

    /// The union of channel IDs across every committed topic shard —
    /// what the finish range's `Channels: list` call must look up.
    fn gather_channel_ids(&self) -> Result<Vec<String>, DistError> {
        let mut ids = BTreeSet::new();
        for range in 0..self.shard_count() {
            let store = Store::open(&self.canonical_path(range)).map_err(internal)?;
            ids.extend(store.known_channel_ids().map_err(internal)?);
        }
        Ok(ids.into_iter().map(|id| id.as_ref().to_string()).collect())
    }

    /// `POST /dist/lease`.
    pub fn lease(&self, req: &LeaseRequest) -> Result<LeaseReply, DistError> {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        if state
            .ranges
            .iter()
            .all(|info| info.state == RangeState::Committed)
        {
            return Ok(LeaseReply::Done);
        }
        // First grantable topic range, else the finish range once every
        // topic shard is in (its channel-ID union is only complete then).
        let count = self.shard_count();
        let grantable = state
            .ranges
            .iter()
            .enumerate()
            .take(count)
            .find(|(_, info)| info.state == RangeState::Open)
            .map(|(range, _)| range)
            .or_else(|| {
                let topics_done = state
                    .ranges
                    .iter()
                    .take(count)
                    .all(|info| info.state == RangeState::Committed);
                let finish_open = state
                    .ranges
                    .get(count)
                    .is_some_and(|info| info.state == RangeState::Open);
                (topics_done && finish_open).then_some(count)
            });
        let Some(range) = grantable else {
            return Ok(LeaseReply::Wait);
        };
        if faultpoint::should_trip("dist.lease-grant") {
            return Err(internal("injected crash: dist.lease-grant"));
        }
        let channel_ids = if range == count {
            Some(self.gather_channel_ids()?)
        } else {
            None
        };
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let expires = self.clock.now() + self.ttl;
        let info = state
            .ranges
            .get_mut(range)
            .ok_or_else(|| internal(format!("no state for range {range}")))?;
        if info.grants > 0 {
            self.leases_reissued.fetch_add(1, Ordering::Relaxed);
        }
        info.grants += 1;
        info.state = RangeState::Leased {
            token,
            worker: req.worker.clone(),
            expires,
        };
        self.leases_granted.fetch_add(1, Ordering::Relaxed);
        Ok(LeaseReply::Grant(LeaseGrant {
            range: range as u32,
            token,
            ttl: self.ttl,
            plan: self.plan.clone(),
            channel_ids,
        }))
    }

    /// `POST /dist/renew`.
    pub fn renew(&self, req: &RenewRequest) -> Result<RenewReply, DistError> {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let range = req.range as usize;
        Coordinator::check_lease(&state, range, req.token)?;
        let expires = self.clock.now() + self.ttl;
        if let Some(RangeInfo {
            state: RangeState::Leased { expires: held, .. },
            ..
        }) = state.ranges.get_mut(range)
        {
            *held = expires;
        }
        Ok(RenewReply { ttl: self.ttl })
    }

    /// `POST /dist/release`: the holder gives the lease up without
    /// committing (its run failed), so the range is grantable at once
    /// rather than after the ttl. A stale token is refused exactly as a
    /// renewal would refuse it.
    pub fn release(&self, req: &RenewRequest) -> Result<(), DistError> {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let range = req.range as usize;
        Coordinator::check_lease(&state, range, req.token)?;
        state.uploads.remove(&range);
        if let Some(info) = state.ranges.get_mut(range) {
            info.state = RangeState::Open;
        }
        self.leases_released.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `POST /dist/ship/begin`.
    pub fn ship_begin(&self, req: &ShipBegin) -> Result<ShipReply, DistError> {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let range = req.range as usize;
        if let Some(info) = state.ranges.get(range) {
            if info.state == RangeState::Committed {
                self.duplicate_ships.fetch_add(1, Ordering::Relaxed);
                return Ok(ShipReply::Duplicate);
            }
        }
        Coordinator::check_lease(&state, range, req.token)?;
        state.uploads.insert(
            range,
            Upload {
                token: req.token,
                total_len: req.total_len,
                total_crc: req.total_crc,
                received: Vec::with_capacity(req.total_len.min(1 << 24) as usize),
            },
        );
        Ok(ShipReply::Accepted)
    }

    /// `POST /dist/ship/chunk`.
    pub fn ship_chunk(&self, req: &ShipChunk) -> Result<(), DistError> {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let range = req.range as usize;
        Coordinator::check_lease(&state, range, req.token)?;
        let upload = state
            .uploads
            .get_mut(&range)
            .filter(|u| u.token == req.token);
        let Some(upload) = upload else {
            return Err(DistError::new(
                DistErrorKind::ChunkOutOfOrder,
                format!("range {range}: no upload open under this token"),
            ));
        };
        if req.offset != upload.received.len() as u64 {
            return Err(DistError::new(
                DistErrorKind::ChunkOutOfOrder,
                format!(
                    "range {range}: chunk at offset {} but {} bytes received",
                    req.offset,
                    upload.received.len()
                ),
            ));
        }
        if upload.received.len() as u64 + req.bytes.len() as u64 > upload.total_len {
            return Err(DistError::new(
                DistErrorKind::ChunkOutOfOrder,
                format!("range {range}: chunk overruns declared length"),
            ));
        }
        if crc32(&req.bytes) != req.crc {
            return Err(DistError::new(
                DistErrorKind::ChunkCrcMismatch,
                format!("range {range}: chunk CRC mismatch at offset {}", req.offset),
            ));
        }
        upload.received.extend_from_slice(&req.bytes);
        self.bytes_shipped
            .fetch_add(req.bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// `POST /dist/ship/commit`: verify, durably install, mark
    /// committed. Exactly-once: a committed range answers `Duplicate`
    /// without touching the installed file.
    pub fn ship_commit(&self, req: &ShipCommit) -> Result<ShipReply, DistError> {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let range = req.range as usize;
        if let Some(info) = state.ranges.get(range) {
            if info.state == RangeState::Committed {
                self.duplicate_ships.fetch_add(1, Ordering::Relaxed);
                return Ok(ShipReply::Duplicate);
            }
        }
        Coordinator::check_lease(&state, range, req.token)?;
        let upload = state
            .uploads
            .get(&range)
            .filter(|u| u.token == req.token)
            .ok_or_else(|| {
                DistError::new(
                    DistErrorKind::ShipIncomplete,
                    format!("range {range}: no upload open under this token"),
                )
            })?;
        if upload.total_len != req.total_len
            || upload.total_crc != req.total_crc
            || upload.received.len() as u64 != req.total_len
        {
            return Err(DistError::new(
                DistErrorKind::ShipIncomplete,
                format!(
                    "range {range}: upload holds {} of {} declared bytes",
                    upload.received.len(),
                    req.total_len
                ),
            ));
        }
        if crc32(&upload.received) != req.total_crc {
            return Err(DistError::new(
                DistErrorKind::ShipIncomplete,
                format!("range {range}: whole-file CRC mismatch"),
            ));
        }

        // Stage to the `.receiving` sibling, validate the bytes as the
        // leased shard, then install with the WAL rename discipline.
        let path = self.canonical_path(range);
        let receiving = receiving_path(&path);
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&receiving)?;
            file.write_all(&upload.received)?;
            file.sync_all()?;
            Ok(())
        };
        write().map_err(internal)?;
        let installed = self
            .validate_installed(&receiving, range)
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&receiving);
            })?;
        if faultpoint::should_trip("dist.pre-accept") {
            return Err(internal("injected crash: dist.pre-accept"));
        }
        std::fs::rename(&receiving, &path).map_err(internal)?;
        fsync_dir_of(&path).map_err(internal)?;

        state.uploads.remove(&range);
        if let Some(info) = state.ranges.get_mut(range) {
            info.state = RangeState::Committed;
            info.installed = installed;
        }
        self.shards_received.fetch_add(1, Ordering::Relaxed);
        Ok(ShipReply::Accepted)
    }

    /// The `/dist/status` page: one line per range.
    pub fn status_page(&self) -> String {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let now = self.clock.now();
        let count = self.shard_count();
        let mut out = format!(
            "dist coordinator: {} topic shard(s) + finish, dest {}\n",
            count,
            self.dest.display()
        );
        for (range, info) in state.ranges.iter().enumerate() {
            let kind = if range == count { "finish" } else { "topic" };
            let line = match &info.state {
                RangeState::Open => format!("range {range} [{kind}]: open"),
                RangeState::Committed => format!("range {range} [{kind}]: committed"),
                RangeState::Leased {
                    worker, expires, ..
                } => format!(
                    "range {range} [{kind}]: leased to {worker} ({}ms left)",
                    expires.saturating_sub(now).as_millis()
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The `/dist/metrics` page: dist counters plus the pairs and quota
    /// units of every shard store installed so far.
    pub fn metrics_page(&self) -> String {
        let counters = self.counters();
        let outstanding = {
            let mut state = self.state.lock();
            self.sweep(&mut state);
            state
                .ranges
                .iter()
                .filter(|info| matches!(info.state, RangeState::Leased { .. }))
                .count()
        };
        let mut out = String::from("dist metrics\n");
        out.push_str(&format!("  leases outstanding   {outstanding}\n"));
        out.push_str(&format!(
            "  leases granted       {}\n",
            counters.leases_granted
        ));
        out.push_str(&format!(
            "  leases expired       {}\n",
            counters.leases_expired
        ));
        out.push_str(&format!(
            "  leases released      {}\n",
            counters.leases_released
        ));
        out.push_str(&format!(
            "  leases reissued      {}\n",
            counters.leases_reissued
        ));
        out.push_str(&format!(
            "  shards received      {}\n",
            counters.shards_received
        ));
        out.push_str(&format!(
            "  duplicate ships      {}\n",
            counters.duplicate_ships
        ));
        out.push_str(&format!(
            "  bytes shipped        {}\n",
            counters.bytes_shipped
        ));
        let installed = self.installed_totals();
        out.push_str(&format!("  pairs committed      {}\n", installed.pairs));
        out.push_str(&format!(
            "  quota units          {}\n",
            installed.quota_units
        ));
        out
    }
}

fn receiving_path(canonical: &Path) -> PathBuf {
    let mut name = canonical
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".receiving");
    canonical.with_file_name(name)
}

fn error_response(err: &DistError) -> Response {
    Response::text(StatusCode(err.kind.status()), err.detail.clone())
        .with_header(ERROR_HEADER, err.kind.key())
}

fn octets(body: Vec<u8>) -> Response {
    let mut resp = Response::new(StatusCode::OK);
    resp.headers.set("content-type", "application/octet-stream");
    resp.body = body;
    resp
}

fn respond(result: Result<Vec<u8>, DistError>) -> Response {
    match result {
        Ok(body) => octets(body),
        Err(err) => error_response(&err),
    }
}

impl Handler for Coordinator {
    fn handle(&self, req: &Request) -> Response {
        match (req.method, req.path.as_str()) {
            (Method::Post, LEASE_PATH) => respond(
                LeaseRequest::decode(&req.body)
                    .and_then(|r| self.lease(&r))
                    .map(|reply| reply.encode()),
            ),
            (Method::Post, RENEW_PATH) => respond(
                RenewRequest::decode(&req.body)
                    .and_then(|r| self.renew(&r))
                    .map(|reply| reply.encode()),
            ),
            (Method::Post, RELEASE_PATH) => respond(
                RenewRequest::decode(&req.body)
                    .and_then(|r| self.release(&r))
                    .map(|()| Vec::new()),
            ),
            (Method::Post, SHIP_BEGIN_PATH) => respond(
                ShipBegin::decode(&req.body)
                    .and_then(|r| self.ship_begin(&r))
                    .map(|reply| reply.encode()),
            ),
            (Method::Post, SHIP_CHUNK_PATH) => respond(
                ShipChunk::decode(&req.body)
                    .and_then(|r| self.ship_chunk(&r))
                    .map(|()| Vec::new()),
            ),
            (Method::Post, SHIP_COMMIT_PATH) => respond(
                ShipCommit::decode(&req.body)
                    .and_then(|r| self.ship_commit(&r))
                    .map(|reply| reply.encode()),
            ),
            (Method::Get, STATUS_PATH) => Response::text(StatusCode::OK, self.status_page()),
            (Method::Get, METRICS_PATH) => Response::text(StatusCode::OK, self.metrics_page()),
            _ => Response::text(StatusCode::NOT_FOUND, "unknown dist endpoint"),
        }
    }
}
