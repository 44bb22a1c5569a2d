//! Lease-edge behavior, driven through the coordinator's typed API
//! under a manual clock: renewals racing expiry, duplicate ships after
//! a lease re-issue, and coordinator restart with leases outstanding.
//!
//! Shard payloads are synthetic (store-layer commits, no API client),
//! which keeps each case fast and makes the installed bytes a pure
//! function of the plan — the same trick the workspace's shard-merge
//! suites use.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use ytaudit_core::dataset::{HourlyResult, TopicSnapshot, VideoInfo};
use ytaudit_core::shard::shard_configs;
use ytaudit_core::{CollectorConfig, CollectorSink, TopicCommit};
use ytaudit_dist::protocol::{LeaseRequest, RenewRequest, ShipBegin, ShipChunk, ShipCommit};
use ytaudit_dist::{
    classify, Coordinator, DistErrorClass, DistErrorKind, LeaseGrant, LeaseReply, ShipReply,
};
use ytaudit_platform::clock::ManualClock;
use ytaudit_store::crc::crc32;
use ytaudit_store::{Store, TempDir};
use ytaudit_types::{ChannelId, Timestamp, Topic, VideoId};

const TTL: Duration = Duration::from_secs(10);

fn plan() -> CollectorConfig {
    CollectorConfig::quick(vec![Topic::Higgs, Topic::Blm], 2)
}

fn coordinator(parent: &CollectorConfig, dest: &Path, clock: &ManualClock) -> Coordinator {
    Coordinator::new(parent, 2, dest, TTL, Arc::new(clock.clone())).expect("coordinator")
}

fn grant(coord: &Coordinator, worker: &str) -> LeaseGrant {
    match coord.lease(&LeaseRequest {
        worker: worker.to_string(),
    }) {
        Ok(LeaseReply::Grant(grant)) => grant,
        other => panic!("expected a grant, got {other:?}"),
    }
}

fn vid(n: u64) -> VideoId {
    VideoId::new(format!("vid-{n:08}"))
}

/// Builds the complete shard store for topic range `range` of the
/// 2-way split at `path` and returns its bytes. Pure in `(plan,
/// range)`, so two workers building the same range produce identical
/// files.
fn build_shard_bytes(parent: &CollectorConfig, range: usize, path: &Path) -> Vec<u8> {
    let cfg = shard_configs(parent, 2)
        .into_iter()
        .nth(range)
        .expect("range in split");
    let mut store = Store::create(path).expect("create shard");
    CollectorSink::begin(&mut store, &cfg).expect("begin");
    for (snapshot, &date) in cfg.schedule.dates().iter().enumerate() {
        for &topic in &cfg.topics {
            let base = topic.index() as u64 * 100 + snapshot as u64;
            let data = TopicSnapshot {
                hours: vec![HourlyResult {
                    hour: 0,
                    video_ids: vec![vid(base)],
                    total_results: 40_000 + base,
                }],
                meta_returned: vec![vid(base)],
            };
            let videos = vec![VideoInfo {
                id: vid(base),
                channel_id: ChannelId::new(format!("ch-{:03}", base % 3)),
                published_at: Timestamp::from_ymd(2025, 1, 20).expect("date"),
                duration_secs: 60 + base,
                is_sd: base.is_multiple_of(2),
                views: base * 100,
                likes: base * 3,
                comments: base,
            }];
            CollectorSink::commit_topic_snapshot(
                &mut store,
                TopicCommit {
                    topic,
                    snapshot,
                    date,
                    data: &data,
                    comments: None,
                    videos: &videos,
                    quota_delta: 600 + base,
                },
            )
            .expect("commit");
        }
    }
    CollectorSink::finish(&mut store, &[], 0).expect("finish");
    assert!(store.complete());
    drop(store);
    std::fs::read(path).expect("read shard")
}

/// Ships `bytes` for the granted range in two chunks through the typed
/// API, returning the commit reply.
fn ship(coord: &Coordinator, grant: &LeaseGrant, bytes: &[u8]) -> ShipReply {
    let total_len = bytes.len() as u64;
    let total_crc = crc32(bytes);
    let begin = coord
        .ship_begin(&ShipBegin {
            range: grant.range,
            token: grant.token,
            total_len,
            total_crc,
        })
        .expect("ship begin");
    if begin == ShipReply::Duplicate {
        return ShipReply::Duplicate;
    }
    let mid = bytes.len() / 2;
    for (offset, chunk) in [(0usize, &bytes[..mid]), (mid, &bytes[mid..])] {
        coord
            .ship_chunk(&ShipChunk {
                range: grant.range,
                token: grant.token,
                offset: offset as u64,
                crc: crc32(chunk),
                bytes: chunk.to_vec(),
            })
            .expect("ship chunk");
    }
    coord
        .ship_commit(&ShipCommit {
            range: grant.range,
            token: grant.token,
            total_len,
            total_crc,
        })
        .expect("ship commit")
}

fn receiving_sibling(canonical: &Path) -> PathBuf {
    let mut name = canonical.file_name().expect("file name").to_os_string();
    name.push(".receiving");
    canonical.with_file_name(name)
}

#[test]
fn renewal_inside_ttl_extends_the_lease_and_expiry_fences_it() {
    let dir = TempDir::new("dist-lease-renew");
    let parent = plan();
    let clock = ManualClock::new();
    let coord = coordinator(&parent, &dir.file("merged.yts"), &clock);

    let g = grant(&coord, "racer");
    let renew = RenewRequest {
        range: g.range,
        token: g.token,
    };

    // Two renewals, each just inside the ttl: the expiry keeps moving.
    clock.advance(TTL - Duration::from_secs(1));
    assert_eq!(coord.renew(&renew).expect("first renewal").ttl, TTL);
    clock.advance(TTL - Duration::from_secs(1));
    coord.renew(&renew).expect("second renewal");

    // Now the worker goes quiet for a full ttl: the lease expires and
    // the next renewal loses the race.
    clock.advance(TTL);
    let err = coord
        .renew(&renew)
        .expect_err("expired lease must not renew");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
    assert_eq!(classify(err.kind), DistErrorClass::Abandon);
    assert_eq!(coord.counters().leases_expired, 1);

    // The range is grantable again, under a fresh fencing token.
    let reissued = grant(&coord, "successor");
    assert_eq!(reissued.range, g.range);
    assert_ne!(reissued.token, g.token);
    assert_eq!(coord.counters().leases_reissued, 1);
    assert_eq!(coord.counters().leases_granted, 2);

    // The stale holder's renewals stay fenced even though the range is
    // leased again.
    let err = coord.renew(&renew).expect_err("stale token must stay dead");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
}

#[test]
fn a_released_lease_is_grantable_at_once_and_stale_releases_are_fenced() {
    let dir = TempDir::new("dist-lease-release");
    let parent = plan();
    let clock = ManualClock::new();
    let coord = coordinator(&parent, &dir.file("merged.yts"), &clock);

    let g = grant(&coord, "quitter");
    let held = RenewRequest {
        range: g.range,
        token: g.token,
    };
    // A wrong token or range is refused the way a renewal is.
    let err = coord
        .release(&RenewRequest {
            token: g.token + 100,
            ..held
        })
        .expect_err("foreign token must not release");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
    let err = coord
        .release(&RenewRequest { range: 99, ..held })
        .expect_err("unknown range");
    assert_eq!(err.kind, DistErrorKind::UnknownRange);

    // The holder hands the range back: with no clock movement at all,
    // the next lease re-issues it under a fresh token.
    coord.release(&held).expect("holder releases");
    assert_eq!(coord.counters().leases_released, 1);
    assert_eq!(coord.counters().leases_expired, 0);
    let successor = grant(&coord, "successor");
    assert_eq!(successor.range, g.range);
    assert_ne!(successor.token, g.token);
    assert_eq!(coord.counters().leases_reissued, 1);

    // The old token is dead: it can neither release nor renew the
    // successor's lease.
    let err = coord.release(&held).expect_err("stale release is fenced");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
    let err = coord.renew(&held).expect_err("stale renew is fenced");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
    coord
        .renew(&RenewRequest {
            range: successor.range,
            token: successor.token,
        })
        .expect("the successor still holds it");
}

#[test]
fn duplicate_ship_after_reissued_lease_is_a_verified_no_op() {
    let dir = TempDir::new("dist-lease-dup-ship");
    let parent = plan();
    let clock = ManualClock::new();
    let dest = dir.file("merged.yts");
    let coord = coordinator(&parent, &dest, &clock);

    // Worker A leases range 0 and builds its shard, but stalls before
    // shipping; the lease expires.
    let a = grant(&coord, "a");
    let bytes = build_shard_bytes(&parent, a.range as usize, &dir.file("a-local.yts"));
    clock.advance(TTL);

    // Worker B gets the re-issued range and ships to completion.
    let b = grant(&coord, "b");
    assert_eq!(b.range, a.range);
    assert_eq!(ship(&coord, &b, &bytes), ShipReply::Accepted);
    assert_eq!(coord.counters().shards_received, 1);

    // The canonical shard is installed; remember its exact bytes.
    let canonical = ytaudit_store::discover_shard_paths(&dest).expect("installed shard");
    assert_eq!(canonical.len(), 1);
    let installed = std::fs::read(&canonical[0]).expect("installed bytes");

    // A wakes up and ships late: begin answers Duplicate immediately,
    // commit is equally a no-op, and the installed file is untouched.
    assert_eq!(ship(&coord, &a, &bytes), ShipReply::Duplicate);
    let late_commit = coord
        .ship_commit(&ShipCommit {
            range: a.range,
            token: a.token,
            total_len: bytes.len() as u64,
            total_crc: crc32(&bytes),
        })
        .expect("late commit");
    assert_eq!(late_commit, ShipReply::Duplicate);
    assert_eq!(std::fs::read(&canonical[0]).expect("re-read"), installed);
    assert_eq!(coord.counters().shards_received, 1);
    assert_eq!(coord.counters().duplicate_ships, 2);
}

#[test]
fn stale_token_cannot_touch_an_in_flight_reissued_upload() {
    let dir = TempDir::new("dist-lease-fence");
    let parent = plan();
    let clock = ManualClock::new();
    let coord = coordinator(&parent, &dir.file("merged.yts"), &clock);

    let a = grant(&coord, "a");
    let bytes = build_shard_bytes(&parent, a.range as usize, &dir.file("a-local.yts"));
    clock.advance(TTL);
    let b = grant(&coord, "b");

    // B has begun its upload; A's stale token must bounce off every
    // ship endpoint while the range is leased to B.
    coord
        .ship_begin(&ShipBegin {
            range: b.range,
            token: b.token,
            total_len: bytes.len() as u64,
            total_crc: crc32(&bytes),
        })
        .expect("b begins");
    let err = coord
        .ship_chunk(&ShipChunk {
            range: a.range,
            token: a.token,
            offset: 0,
            crc: crc32(&bytes),
            bytes: bytes.clone(),
        })
        .expect_err("stale chunk must be fenced");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
    let err = coord
        .ship_begin(&ShipBegin {
            range: a.range,
            token: a.token,
            total_len: bytes.len() as u64,
            total_crc: crc32(&bytes),
        })
        .expect_err("stale begin must be fenced");
    assert_eq!(err.kind, DistErrorKind::LeaseExpired);
}

#[test]
fn restarted_coordinator_adopts_committed_shards_and_reopens_leased_ranges() {
    let dir = TempDir::new("dist-lease-restart");
    let parent = plan();
    let clock = ManualClock::new();
    let dest = dir.file("merged.yts");

    let (committed_range, leased_range, installed_path);
    {
        let coord = coordinator(&parent, &dest, &clock);
        // Range A is shipped and committed; range B is leased out when
        // the coordinator dies.
        let a = grant(&coord, "a");
        let bytes = build_shard_bytes(&parent, a.range as usize, &dir.file("a-local.yts"));
        assert_eq!(ship(&coord, &a, &bytes), ShipReply::Accepted);
        let b = grant(&coord, "b");
        assert_ne!(a.range, b.range);
        committed_range = a.range;
        leased_range = b.range;
        installed_path = ytaudit_store::discover_shard_paths(&dest).expect("shard")[0].clone();
    }

    // A stale `.receiving` tmp from a commit interrupted by the crash.
    let stray = receiving_sibling(&installed_path);
    std::fs::write(&stray, b"torn upload").expect("stray tmp");

    let coord = coordinator(&parent, &dest, &clock);
    assert!(!stray.exists(), "recovery must clear stale .receiving tmps");

    // The committed range was adopted from disk: shipping it again is a
    // duplicate without any lease.
    let dup = coord
        .ship_begin(&ShipBegin {
            range: committed_range,
            token: 0,
            total_len: 0,
            total_crc: 0,
        })
        .expect("duplicate begin");
    assert_eq!(dup, ShipReply::Duplicate);

    // The range that was leased out when the coordinator died is simply
    // grantable again — its lease died with the coordinator's state.
    let regrant = grant(&coord, "successor");
    assert_eq!(regrant.range, leased_range);
    assert!(!coord.all_committed());

    // Adoption restores durable state, not history: the restart's
    // counters start clean.
    assert_eq!(coord.counters().shards_received, 0);
    assert_eq!(coord.counters().leases_granted, 1);
}
