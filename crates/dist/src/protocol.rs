//! The dist wire protocol: binary request/response bodies over plain
//! HTTP POSTs, encoded with the workspace's shared binary codec
//! (`ytaudit_types::wire`). The parent plan travels as a nested store
//! Begin body ([`CollectionMeta::put`]), so the plan has one encoding.
//!
//! A distributed run has exactly one coordinator and any number of
//! workers. The coordinator owns the parent collection plan and splits
//! it into `ranges + 1` *task ranges*: ranges `0..ranges` are the topic
//! shards of an `N`-way `shard_configs` split (each of which the worker
//! further decomposes into `(topic, snapshot, hour-chunk)` tasks through
//! the ordinary scheduler), and range `ranges` is the finish shard (the
//! single end-of-collection `Channels: list` fetch). A leased range is
//! identified by `(range, token)`; the token fences stale holders after
//! a lease expires and is re-issued.
//!
//! Endpoints (all bodies `application/octet-stream`):
//!
//! | path                | body                | reply               |
//! |---------------------|---------------------|---------------------|
//! | `POST /dist/lease`  | [`LeaseRequest`]    | [`LeaseReply`]      |
//! | `POST /dist/renew`  | [`RenewRequest`]    | [`RenewReply`]      |
//! | `POST /dist/release` | [`RenewRequest`]   | empty               |
//! | `POST /dist/ship/begin`  | [`ShipBegin`]  | [`ShipReply`]       |
//! | `POST /dist/ship/chunk`  | [`ShipChunk`]  | empty               |
//! | `POST /dist/ship/commit` | [`ShipCommit`] | [`ShipReply`]       |
//! | `GET /dist/status`  | —                   | text page           |
//! | `GET /dist/metrics` | —                   | text page           |
//!
//! Errors travel as non-2xx responses carrying the machine-readable
//! [`DistErrorKind`] key in the `x-dist-error` header and a
//! human-readable detail in the body; [`crate::retry::classify`] maps
//! every kind to what the worker should do about it.

use std::time::Duration;
use ytaudit_core::{CollectorConfig, Schedule};
use ytaudit_store::CollectionMeta;
use ytaudit_types::wire::{self, Reader, WireError, Writer};

/// `POST` — request a lease.
pub const LEASE_PATH: &str = "/dist/lease";
/// `POST` — heartbeat-renew a held lease.
pub const RENEW_PATH: &str = "/dist/renew";
/// `POST` — hand a held lease back before its ttl, so the range is
/// grantable at once. The body names the lease as a renewal does.
pub const RELEASE_PATH: &str = "/dist/release";
/// `POST` — open a shard upload.
pub const SHIP_BEGIN_PATH: &str = "/dist/ship/begin";
/// `POST` — append one verified chunk to an open upload.
pub const SHIP_CHUNK_PATH: &str = "/dist/ship/chunk";
/// `POST` — finish an upload and durably commit the range.
pub const SHIP_COMMIT_PATH: &str = "/dist/ship/commit";
/// `GET` — coordinator counters plus installed pairs and quota units.
pub const METRICS_PATH: &str = "/dist/metrics";
/// `GET` — per-range lease states.
pub const STATUS_PATH: &str = "/dist/status";
/// Response header carrying a [`DistErrorKind`] key on failures.
pub const ERROR_HEADER: &str = "x-dist-error";

/// Machine-readable classification of every error the coordinator can
/// return over the wire. The worker-side disposition of each kind lives
/// in [`crate::retry::classify`]; the `retry-exhaustive` lint keeps the
/// two in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistErrorKind {
    /// The `(range, token)` lease is not currently held by the caller:
    /// it expired (and may have been re-issued to another worker), was
    /// never granted, or the range is already committed.
    LeaseExpired,
    /// The range index is outside the coordinator's plan.
    UnknownRange,
    /// A chunk arrived out of sequence (or with no upload open); the
    /// upload must be restarted from `ship/begin`.
    ChunkOutOfOrder,
    /// A chunk's CRC32 did not match its bytes.
    ChunkCrcMismatch,
    /// The committed upload does not match its declared length/CRC.
    ShipIncomplete,
    /// The shipped bytes are not a complete shard store for the leased
    /// range (wrong spec, wrong parent plan, or unreadable).
    ShardInvalid,
    /// The request body or parameters were malformed.
    BadRequest,
    /// A transient coordinator-side failure (I/O error, injected
    /// crash); safe to retry.
    Internal,
}

impl DistErrorKind {
    /// The stable wire key carried in [`ERROR_HEADER`].
    pub fn key(self) -> &'static str {
        match self {
            DistErrorKind::LeaseExpired => "lease-expired",
            DistErrorKind::UnknownRange => "unknown-range",
            DistErrorKind::ChunkOutOfOrder => "chunk-out-of-order",
            DistErrorKind::ChunkCrcMismatch => "chunk-crc-mismatch",
            DistErrorKind::ShipIncomplete => "ship-incomplete",
            DistErrorKind::ShardInvalid => "shard-invalid",
            DistErrorKind::BadRequest => "bad-request",
            DistErrorKind::Internal => "internal",
        }
    }

    /// Inverse of [`key`](DistErrorKind::key). Unknown keys (a newer
    /// coordinator) come back as `None`; callers treat that as
    /// [`DistErrorKind::Internal`].
    pub fn from_key(key: &str) -> Option<DistErrorKind> {
        Some(match key {
            "lease-expired" => DistErrorKind::LeaseExpired,
            "unknown-range" => DistErrorKind::UnknownRange,
            "chunk-out-of-order" => DistErrorKind::ChunkOutOfOrder,
            "chunk-crc-mismatch" => DistErrorKind::ChunkCrcMismatch,
            "ship-incomplete" => DistErrorKind::ShipIncomplete,
            "shard-invalid" => DistErrorKind::ShardInvalid,
            "bad-request" => DistErrorKind::BadRequest,
            "internal" => DistErrorKind::Internal,
            _ => return None,
        })
    }

    /// The HTTP status the coordinator sends this kind with.
    pub fn status(self) -> u16 {
        match self {
            DistErrorKind::LeaseExpired | DistErrorKind::UnknownRange => 403,
            DistErrorKind::ChunkOutOfOrder
            | DistErrorKind::ChunkCrcMismatch
            | DistErrorKind::ShipIncomplete
            | DistErrorKind::ShardInvalid
            | DistErrorKind::BadRequest => 400,
            DistErrorKind::Internal => 500,
        }
    }
}

/// A typed dist protocol failure: the wire kind plus human detail.
#[derive(Debug, Clone)]
pub struct DistError {
    /// What went wrong, machine-readably.
    pub kind: DistErrorKind,
    /// Human-readable detail for logs.
    pub detail: String,
}

impl DistError {
    /// Builds an error of `kind` with formatted `detail`.
    pub fn new(kind: DistErrorKind, detail: impl Into<String>) -> DistError {
        DistError {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.key(), self.detail)
    }
}

impl std::error::Error for DistError {}

fn wire_err(what: &str, e: WireError) -> DistError {
    DistError::new(DistErrorKind::BadRequest, format!("malformed {what}: {e}"))
}

/// The parent plan plus the range count, shipped inside every lease
/// grant so a worker needs no out-of-band plan file.
#[derive(Debug, Clone, PartialEq)]
pub struct DistPlan {
    /// The parent collector configuration (`shard` always `None`).
    pub parent: CollectorConfig,
    /// Topic-shard count; task ranges are `0..=ranges` with range
    /// `ranges` being the finish shard.
    pub ranges: u32,
}

impl DistPlan {
    /// Derives the wire plan from a parent config.
    pub fn new(parent: &CollectorConfig, ranges: usize) -> DistPlan {
        DistPlan {
            parent: CollectorConfig {
                shard: None,
                ..parent.clone()
            },
            ranges: ranges as u32,
        }
    }

    /// Total task ranges including the finish range.
    pub fn total_ranges(&self) -> u32 {
        self.ranges + 1
    }

    /// Writes the plan: the parent config as a length-prefixed Begin
    /// body (nested, because Begin finds its optional tails by the bytes
    /// that remain), then the range count.
    fn encode_into(&self, w: &mut Writer) {
        w.put_bytes(&wire::encode(|w| {
            CollectionMeta::of_config(&self.parent).put(w)
        }));
        w.put_u32(self.ranges);
    }

    fn decode_from(r: &mut Reader<'_>) -> wire::Result<DistPlan> {
        let meta = wire::decode(r.bytes()?, CollectionMeta::read)?;
        if meta.shard.is_some() {
            return Err("a dist plan's parent config cannot be a shard".to_string());
        }
        Ok(DistPlan {
            parent: CollectorConfig {
                topics: meta.topics,
                schedule: Schedule::explicit(meta.dates),
                hourly_bins: meta.hourly_bins,
                fetch_metadata: meta.fetch_metadata,
                fetch_channels: meta.fetch_channels,
                fetch_comments: meta.fetch_comments,
                shard: None,
                platform: meta.platform,
            },
            ranges: r.u32()?,
        })
    }
}

/// `POST /dist/lease` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRequest {
    /// A worker name for the status page (not an identity: the lease is
    /// fenced by its token, not by this string).
    pub worker: String,
}

impl LeaseRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| w.put_str(&self.worker))
    }

    /// Decodes a request body.
    pub fn decode(body: &[u8]) -> Result<LeaseRequest, DistError> {
        wire::decode(body, |r| {
            Ok(LeaseRequest {
                worker: r.str()?.to_string(),
            })
        })
        .map_err(|e| wire_err("lease request", e))
    }
}

/// A granted lease: the work, the fence, and everything the worker
/// needs to execute the range locally.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseGrant {
    /// The leased task range (`0..ranges` topic shard, `ranges` finish).
    pub range: u32,
    /// Fencing token; every later call for this range must present it.
    pub token: u64,
    /// Lease lifetime from now; renew before it runs out.
    pub ttl: Duration,
    /// The parent plan and split.
    pub plan: DistPlan,
    /// For the finish range only: the union of channel IDs across every
    /// committed topic shard (what the finish fetch must look up).
    pub channel_ids: Option<Vec<String>>,
}

/// `POST /dist/lease` reply.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseReply {
    /// Work granted.
    Grant(LeaseGrant),
    /// No range is currently grantable, but the run is not finished
    /// (everything open is leased out, or only the finish range remains
    /// and its topic shards are still incomplete). Poll again shortly.
    Wait,
    /// Every range is committed; the worker can exit.
    Done,
}

const LEASE_TAG_GRANT: u8 = 1;
const LEASE_TAG_WAIT: u8 = 2;
const LEASE_TAG_DONE: u8 = 3;

impl LeaseReply {
    /// Encodes the reply body.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| match self {
            LeaseReply::Wait => w.put_u8(LEASE_TAG_WAIT),
            LeaseReply::Done => w.put_u8(LEASE_TAG_DONE),
            LeaseReply::Grant(grant) => {
                w.put_u8(LEASE_TAG_GRANT);
                w.put_u32(grant.range);
                w.put_u64(grant.token);
                put_ttl(w, grant.ttl);
                grant.plan.encode_into(w);
                w.put_option(grant.channel_ids.as_ref(), |w, ids| {
                    w.put_list(ids, |w, id| w.put_str(id));
                });
            }
        })
    }

    /// Decodes a reply body.
    pub fn decode(body: &[u8]) -> Result<LeaseReply, DistError> {
        wire::decode(body, |r| {
            Ok(match r.u8()? {
                LEASE_TAG_WAIT => LeaseReply::Wait,
                LEASE_TAG_DONE => LeaseReply::Done,
                LEASE_TAG_GRANT => LeaseReply::Grant(LeaseGrant {
                    range: r.u32()?,
                    token: r.u64()?,
                    ttl: Duration::from_millis(r.u64()?),
                    plan: DistPlan::decode_from(r)?,
                    channel_ids: r.option(|r| r.list(|r| r.str().map(str::to_string)))?,
                }),
                other => return Err(format!("unknown lease reply tag {other}")),
            })
        })
        .map_err(|e| wire_err("lease reply", e))
    }
}

/// Writes a lease lifetime as whole milliseconds.
fn put_ttl(w: &mut Writer, ttl: Duration) {
    w.put_u64(ttl.as_millis().min(u128::from(u64::MAX)) as u64);
}

/// `POST /dist/renew` (and `POST /dist/release`) body: a held lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenewRequest {
    /// The leased range.
    pub range: u32,
    /// The fencing token from the grant.
    pub token: u64,
}

/// `POST /dist/renew` reply: the fresh lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenewReply {
    /// Lease lifetime from now.
    pub ttl: Duration,
}

impl RenewRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| {
            w.put_u32(self.range);
            w.put_u64(self.token);
        })
    }

    /// Decodes a request body.
    pub fn decode(body: &[u8]) -> Result<RenewRequest, DistError> {
        wire::decode(body, |r| {
            Ok(RenewRequest {
                range: r.u32()?,
                token: r.u64()?,
            })
        })
        .map_err(|e| wire_err("renew request", e))
    }
}

impl RenewReply {
    /// Encodes the reply body.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| put_ttl(w, self.ttl))
    }

    /// Decodes a reply body.
    pub fn decode(body: &[u8]) -> Result<RenewReply, DistError> {
        wire::decode(body, |r| {
            Ok(RenewReply {
                ttl: Duration::from_millis(r.u64()?),
            })
        })
        .map_err(|e| wire_err("renew reply", e))
    }
}

/// `POST /dist/ship/begin` body: opens (or restarts) the upload for a
/// leased range, declaring the shard file's total length and CRC32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipBegin {
    /// The leased range.
    pub range: u32,
    /// The fencing token from the grant.
    pub token: u64,
    /// Total shard file length in bytes.
    pub total_len: u64,
    /// CRC32 of the whole shard file.
    pub total_crc: u32,
}

impl ShipBegin {
    /// Encodes the request body.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| {
            w.put_u32(self.range);
            w.put_u64(self.token);
            w.put_u64(self.total_len);
            w.put_u32(self.total_crc);
        })
    }

    /// Decodes a request body.
    pub fn decode(body: &[u8]) -> Result<ShipBegin, DistError> {
        wire::decode(body, |r| {
            Ok(ShipBegin {
                range: r.u32()?,
                token: r.u64()?,
                total_len: r.u64()?,
                total_crc: r.u32()?,
            })
        })
        .map_err(|e| wire_err("ship begin", e))
    }
}

/// `POST /dist/ship/chunk` body: one contiguous, CRC-checked slice of
/// the shard file. The byte payload rides as the record tail (its length
/// is implied by the HTTP body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipChunk {
    /// The leased range.
    pub range: u32,
    /// The fencing token from the grant.
    pub token: u64,
    /// Byte offset of this chunk; must equal the bytes received so far.
    pub offset: u64,
    /// CRC32 of `bytes`.
    pub crc: u32,
    /// The chunk payload.
    pub bytes: Vec<u8>,
}

impl ShipChunk {
    /// Encodes the request body.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(|w| {
            w.put_u32(self.range);
            w.put_u64(self.token);
            w.put_u64(self.offset);
            w.put_u32(self.crc);
            w.put_raw(&self.bytes);
        })
    }

    /// Decodes a request body.
    pub fn decode(body: &[u8]) -> Result<ShipChunk, DistError> {
        wire::decode(body, |r| {
            Ok(ShipChunk {
                range: r.u32()?,
                token: r.u64()?,
                offset: r.u64()?,
                crc: r.u32()?,
                bytes: r.rest().to_vec(),
            })
        })
        .map_err(|e| wire_err("ship chunk", e))
    }
}

/// `POST /dist/ship/commit` body: closes the upload; the coordinator
/// verifies, durably installs the shard, and marks the range committed.
/// It re-declares the [`ShipBegin`] fields, which must match, in the same
/// encoding.
pub type ShipCommit = ShipBegin;

/// Reply to `ship/begin` and `ship/commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipReply {
    /// Begin: upload opened. Commit: shard durably installed.
    Accepted,
    /// The range is already committed (a re-issued lease's original
    /// holder shipped late, or the same shard was shipped twice): the
    /// call is a no-op and the worker should move on.
    Duplicate,
}

const SHIP_TAG_ACCEPTED: u8 = 1;
const SHIP_TAG_DUPLICATE: u8 = 2;

impl ShipReply {
    /// Encodes the reply body.
    pub fn encode(&self) -> Vec<u8> {
        vec![match self {
            ShipReply::Accepted => SHIP_TAG_ACCEPTED,
            ShipReply::Duplicate => SHIP_TAG_DUPLICATE,
        }]
    }

    /// Decodes a reply body.
    pub fn decode(body: &[u8]) -> Result<ShipReply, DistError> {
        wire::decode(body, |r| match r.u8()? {
            SHIP_TAG_ACCEPTED => Ok(ShipReply::Accepted),
            SHIP_TAG_DUPLICATE => Ok(ShipReply::Duplicate),
            other => Err(format!("unknown ship reply tag {other}")),
        })
        .map_err(|e| wire_err("ship reply", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_types::Topic;

    fn plan() -> DistPlan {
        DistPlan::new(
            &CollectorConfig::quick(vec![Topic::Higgs, Topic::Blm, Topic::Brexit], 3),
            2,
        )
    }

    #[test]
    fn plan_round_trips() {
        let p = plan();
        let bytes = wire::encode(|w| p.encode_into(w));
        let decoded = wire::decode(&bytes, DistPlan::decode_from).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.parent.schedule.dates(), p.parent.schedule.dates());
        assert_eq!(decoded.total_ranges(), 3);
    }

    #[test]
    fn lease_reply_round_trips() {
        for reply in [
            LeaseReply::Wait,
            LeaseReply::Done,
            LeaseReply::Grant(LeaseGrant {
                range: 2,
                token: 99,
                ttl: Duration::from_millis(1500),
                plan: plan(),
                channel_ids: Some(vec!["UCaaa".into(), "UCbbb".into()]),
            }),
            LeaseReply::Grant(LeaseGrant {
                range: 0,
                token: 1,
                ttl: Duration::from_secs(30),
                plan: plan(),
                channel_ids: None,
            }),
        ] {
            assert_eq!(LeaseReply::decode(&reply.encode()).unwrap(), reply);
        }
        assert!(LeaseReply::decode(&[9]).is_err());
        assert!(LeaseReply::decode(&[]).is_err());
    }

    #[test]
    fn ship_messages_round_trip() {
        let begin = ShipBegin {
            range: 1,
            token: 7,
            total_len: 4096,
            total_crc: 0xDEAD_BEEF,
        };
        assert_eq!(ShipBegin::decode(&begin.encode()).unwrap(), begin);
        let chunk = ShipChunk {
            range: 1,
            token: 7,
            offset: 1024,
            crc: 42,
            bytes: vec![1, 2, 3, 4],
        };
        assert_eq!(ShipChunk::decode(&chunk.encode()).unwrap(), chunk);
        let commit = ShipCommit {
            range: 1,
            token: 7,
            total_len: 4096,
            total_crc: 0xDEAD_BEEF,
        };
        assert_eq!(ShipCommit::decode(&commit.encode()).unwrap(), commit);
        for reply in [ShipReply::Accepted, ShipReply::Duplicate] {
            assert_eq!(ShipReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn renew_round_trips() {
        let req = RenewRequest { range: 3, token: 5 };
        assert_eq!(RenewRequest::decode(&req.encode()).unwrap(), req);
        let reply = RenewReply {
            ttl: Duration::from_millis(250),
        };
        assert_eq!(RenewReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn error_kind_keys_round_trip() {
        for kind in [
            DistErrorKind::LeaseExpired,
            DistErrorKind::UnknownRange,
            DistErrorKind::ChunkOutOfOrder,
            DistErrorKind::ChunkCrcMismatch,
            DistErrorKind::ShipIncomplete,
            DistErrorKind::ShardInvalid,
            DistErrorKind::BadRequest,
            DistErrorKind::Internal,
        ] {
            assert_eq!(DistErrorKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(DistErrorKind::from_key("nope"), None);
    }
}
