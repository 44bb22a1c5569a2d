//! The scheduler's metrics registry: lock-free atomic counters plus
//! fixed-bucket latency histograms, cheap enough to update on every
//! request from every worker, snapshotted for display.

use crate::factory::ConnectionTotals;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use ytaudit_api::Endpoint;

/// Histogram bucket upper bounds, in microseconds. The last implicit
/// bucket is unbounded. Sized for the workloads at hand: in-process
/// calls land in the sub-millisecond buckets, loopback HTTP in the
/// low-millisecond ones, and throttled or retried calls in the tail.
const BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000,
];

/// Number of histogram buckets (bounded buckets plus the overflow one).
pub const LATENCY_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's summary statistics.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum_us = self.sum_us.load(Ordering::Relaxed);
        let max_us = self.max_us.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Report the bucket's upper bound; the overflow
                    // bucket reports the observed maximum.
                    return BUCKET_BOUNDS_US.get(i).copied().unwrap_or(max_us);
                }
            }
            max_us
        };
        LatencySnapshot {
            count,
            mean_us: sum_us.checked_div(count).unwrap_or(0),
            p50_us: percentile(0.50),
            p90_us: percentile(0.90),
            p99_us: percentile(0.99),
            max_us,
        }
    }
}

/// Summary statistics derived from a [`LatencyHistogram`]. Percentiles
/// are bucket upper bounds (the histogram's resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: u64,
    /// 50th percentile, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Largest observation, microseconds.
    pub max_us: u64,
}

/// The scheduler's shared metrics: task counters, throttle time,
/// connection reuse, and per-endpoint request latency. All updates are
/// relaxed atomics — safe and cheap from any worker. Quota spend is not
/// kept here: the backend client's ledger counts it, and
/// [`crate::RunReport`] reports it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    tasks_completed: AtomicU64,
    tasks_retried: AtomicU64,
    tasks_failed: AtomicU64,
    throttled_us: AtomicU64,
    connections_opened: AtomicU64,
    connections_reused: AtomicU64,
    connections_replayed: AtomicU64,
    connections_discarded: AtomicU64,
    connections_shed: AtomicU64,
    pipeline_depth: AtomicU64,
    latency: [LatencyHistogram; Endpoint::ALL.len()],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// One task finished successfully.
    pub fn task_completed(&self) {
        self.tasks_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// One task failed retryably and was re-enqueued.
    pub fn task_retried(&self) {
        self.tasks_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// One task failed fatally or exhausted its attempt budget.
    pub fn task_failed(&self) {
        self.tasks_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Time a worker spent blocked on the quota governor.
    pub fn add_throttled(&self, wait: Duration) {
        self.throttled_us.fetch_add(
            wait.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records keep-alive pool totals (absolute values — refreshed from
    /// the transport factory during the run for live display and once
    /// more after it finishes).
    pub fn set_connections(&self, totals: ConnectionTotals) {
        self.connections_opened
            .store(totals.opened, Ordering::Relaxed);
        self.connections_reused
            .store(totals.reused, Ordering::Relaxed);
        self.connections_replayed
            .store(totals.replayed, Ordering::Relaxed);
        self.connections_discarded
            .store(totals.discarded, Ordering::Relaxed);
        self.connections_shed.store(totals.shed, Ordering::Relaxed);
        self.pipeline_depth
            .store(totals.pipeline_depth, Ordering::Relaxed);
    }

    /// Records one request's latency against its endpoint.
    pub fn record_latency(&self, endpoint: Endpoint, latency: Duration) {
        self.latency[endpoint as usize].record(latency);
    }

    /// A point-in-time snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_completed: self.tasks_completed.load(Ordering::Relaxed),
            tasks_retried: self.tasks_retried.load(Ordering::Relaxed),
            tasks_failed: self.tasks_failed.load(Ordering::Relaxed),
            throttled: Duration::from_micros(self.throttled_us.load(Ordering::Relaxed)),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_reused: self.connections_reused.load(Ordering::Relaxed),
            connections_replayed: self.connections_replayed.load(Ordering::Relaxed),
            connections_discarded: self.connections_discarded.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            pipeline_depth: self.pipeline_depth.load(Ordering::Relaxed),
            endpoints: Endpoint::ALL
                .iter()
                .map(|&e| EndpointLatency {
                    endpoint: e.path(),
                    latency: self.latency[e as usize].snapshot(),
                })
                .filter(|e| e.latency.count > 0)
                .collect(),
        }
    }
}

/// Latency summary for one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointLatency {
    /// The endpoint's REST path segment (`search`, `videos`, …).
    pub endpoint: &'static str,
    /// Its latency summary.
    pub latency: LatencySnapshot,
}

/// An owned snapshot of the registry, ready for display.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Tasks that finished successfully.
    pub tasks_completed: u64,
    /// Retry re-enqueues (beyond each task's first attempt).
    pub tasks_retried: u64,
    /// Tasks that failed fatally or exhausted their attempts.
    pub tasks_failed: u64,
    /// Total time workers spent blocked on the quota governor.
    pub throttled: Duration,
    /// Keep-alive connections opened (HTTP transport only).
    pub connections_opened: u64,
    /// Requests served over a reused keep-alive connection.
    pub connections_reused: u64,
    /// Requests resubmitted after a connection died under them.
    pub connections_replayed: u64,
    /// Healthy connections closed because an idle pool was full.
    pub connections_discarded: u64,
    /// Requests answered with 429 — shed by the server under load.
    pub connections_shed: u64,
    /// Highest pipeline depth any connection reached (0 before any
    /// HTTP traffic, 1 = plain sequential keep-alive).
    pub pipeline_depth: u64,
    /// Per-endpoint latency, endpoints with traffic only.
    pub endpoints: Vec<EndpointLatency>,
}

impl MetricsSnapshot {
    /// A one-line live progress summary. Quota units are not in the
    /// registry; the run report prints them once the run ends.
    pub fn progress_line(&self) -> String {
        let mut line = format!(
            "{} tasks, {} retries",
            self.tasks_completed, self.tasks_retried
        );
        if self.throttled > Duration::ZERO {
            line.push_str(&format!(", throttled {:.1}s", self.throttled.as_secs_f64()));
        }
        if self.pipeline_depth > 1 {
            line.push_str(&format!(", pipeline depth {}", self.pipeline_depth));
        }
        line
    }

    /// The multi-line summary table of the registry alone.
    pub fn render_table(&self) -> String {
        self.render_table_with("")
    }

    /// The summary table with `ledger_rows` (a run's pairs and quota
    /// lines) inserted after the tasks row.
    pub(crate) fn render_table_with(&self, ledger_rows: &str) -> String {
        let mut out = String::from("scheduler metrics\n");
        out.push_str(&format!(
            "  tasks   completed {:>8}   retried {:>6}   failed {:>6}\n",
            self.tasks_completed, self.tasks_retried, self.tasks_failed
        ));
        out.push_str(ledger_rows);
        if self.connections_opened > 0 {
            out.push_str(&format!(
                "  conns   opened    {:>8}   reused  {:>6}   replayed {:>6}   discarded {:>6}   shed {:>6}\n",
                self.connections_opened,
                self.connections_reused,
                self.connections_replayed,
                self.connections_discarded,
                self.connections_shed
            ));
            out.push_str(&format!("  pipe    depth hwm {:>8}\n", self.pipeline_depth));
        }
        if !self.endpoints.is_empty() {
            out.push_str(&format!(
                "  {:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "latency (ms)", "calls", "mean", "p50", "p90", "p99", "max"
            ));
            for row in &self.endpoints {
                let ms = |us: u64| us as f64 / 1_000.0;
                out.push_str(&format!(
                    "  {:<16} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                    row.endpoint,
                    row.latency.count,
                    ms(row.latency.mean_us),
                    ms(row.latency.p50_us),
                    ms(row.latency.p90_us),
                    ms(row.latency.p99_us),
                    ms(row.latency.max_us),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        // 90 fast observations and 10 slow ones.
        for _ in 0..90 {
            h.record(Duration::from_micros(40));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(20));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_us, 50); // first bucket's upper bound
        assert_eq!(snap.p90_us, 50);
        assert_eq!(snap.p99_us, 25_000); // the slow bucket
        assert_eq!(snap.max_us, 20_000);
        assert!(
            snap.mean_us >= 40 && snap.mean_us <= 2_500,
            "{}",
            snap.mean_us
        );
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p99_us, 0);
        assert_eq!(snap.mean_us, 0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(5));
        let snap = h.snapshot();
        assert_eq!(snap.p50_us, 5_000_000);
        assert_eq!(snap.max_us, 5_000_000);
    }

    #[test]
    fn registry_snapshot_filters_idle_endpoints() {
        let m = MetricsRegistry::new();
        m.record_latency(Endpoint::Search, Duration::from_micros(300));
        m.record_latency(Endpoint::Search, Duration::from_micros(700));
        m.task_completed();
        let snap = m.snapshot();
        assert_eq!(snap.endpoints.len(), 1);
        assert_eq!(snap.endpoints[0].endpoint, "search");
        assert_eq!(snap.endpoints[0].latency.count, 2);
        assert_eq!(snap.tasks_completed, 1);
        // Render paths don't panic and mention the endpoint; the
        // registry alone has no quota row.
        assert!(snap.render_table().contains("search"));
        assert!(!snap.render_table().contains("quota"));
        assert!(snap.progress_line().contains("1 tasks"));
        assert!(!snap.progress_line().contains("units"));
    }
}
