//! # ytaudit-sched
//!
//! A concurrent, quota-aware scheduler for audit collections. The
//! sequential `ytaudit-core` collector drives every one of the paper's
//! ~4 000 search queries per snapshot through a single client; this
//! crate decomposes the same collection plan into `(topic, snapshot,
//! hour-chunk)` task units and runs them on a worker pool, while
//! guaranteeing that the collected dataset — down to the bytes of a
//! `--store` file — is identical to the sequential path:
//!
//! * [`scheduler`] — the work-queue executor: a configurable worker
//!   pool where each worker owns its own `ytaudit-client`, plus
//!   graceful-drain shutdown semantics;
//! * [`governor`] — a shared token-bucket governor denominated in quota
//!   *units* (a 100-unit `Search: list` and a 1-unit `Videos: list` are
//!   costed correctly), applied as transport middleware; it only
//!   paces and counts nothing;
//! * [`retry`] — task-level error classification (retryable 5xx and
//!   timeouts vs. fatal quota exhaustion and malformed responses) with
//!   capped exponential backoff and deterministic, seedable jitter;
//! * [`reorder`] — the reorder buffer that delivers completed pairs to
//!   the `CollectorSink` in plan order, preserving `--store --resume`
//!   semantics and byte-for-byte dataset equivalence;
//! * [`metrics`] — atomic counters and fixed-bucket latency histograms
//!   (tasks completed/retried/failed, throttled time, per-endpoint
//!   request latency, connection reuse), rendered as a live progress
//!   line by the CLI; the final summary table adds the [`RunReport`]'s
//!   pairs and quota, which come from the backend clients' ledgers;
//! * [`factory`] — per-worker transport construction for the in-process
//!   and HTTP transports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod factory;
pub mod governor;
pub mod metrics;
pub mod reorder;
pub mod retry;
pub mod scheduler;
pub mod tenant;

pub use factory::{
    ConnectionTotals, HttpFactory, InProcessFactory, TikTokFactory, TransportFactory,
};
pub use governor::{GovernedTransport, QuotaGovernor};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use reorder::ReorderBuffer;
pub use retry::{classify, ErrorClass, TaskRetryPolicy};
pub use scheduler::{RunOutcome, RunReport, Scheduler, SchedulerConfig, ShutdownSignal};
pub use tenant::{ServeFront, Tenant, TenantRegistry};
