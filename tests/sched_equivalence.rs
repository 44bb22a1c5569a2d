//! Scheduler ≡ sequential equivalence, end to end: for a fixed corpus
//! seed, the concurrent scheduler produces the *identical* dataset —
//! down to the bytes of a `--store` file — for any worker count, and
//! reports exactly the quota the simulated API's own ledger charged it,
//! paced or not.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use ytaudit::api::FaultConfig;
use ytaudit::client::{Transport, YouTubeClient};
use ytaudit::core::testutil::{test_client, test_client_with_faults};
use ytaudit::core::{Collector, CollectorConfig, MemorySink, Platform};
use ytaudit::net::{Backoff, RetryPolicy};
use ytaudit::sched::{
    InProcessFactory, QuotaGovernor, RunReport, Scheduler, SchedulerConfig, TaskRetryPolicy,
    TransportFactory,
};
use ytaudit::store::{Store, TempDir};
use ytaudit::types::Topic;

const SCALE: f64 = 0.08;
const KEY: &str = "research-key";

fn config() -> CollectorConfig {
    CollectorConfig {
        fetch_comments: true,
        ..CollectorConfig::quick(vec![Topic::Higgs, Topic::Blm], 2)
    }
}

#[test]
fn scheduler_dataset_is_identical_to_sequential_for_any_worker_count() {
    let (client, _service) = test_client(SCALE);
    let sequential = Collector::new(&client, config()).run().unwrap();
    let sequential_units = client.budget().units_spent();

    for workers in [1, 8] {
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(service);
        let scheduler = Scheduler::new(&factory, config(), SchedulerConfig::new(workers, KEY));
        let mut sink = MemorySink::new();
        let report = scheduler.run(&mut sink).unwrap();
        assert!(
            report.completed(),
            "workers={workers}: {:?}",
            report.outcome
        );
        assert_eq!(sink.into_dataset(), sequential, "workers={workers}");
        assert_eq!(report.quota_units, sequential_units, "workers={workers}");
    }
}

#[test]
fn scheduler_store_files_are_byte_identical_to_the_sequential_store() {
    let dir = TempDir::new("sched-equiv");

    // Sequential reference, committed through a store sink.
    let seq_path = dir.file("sequential.yts");
    {
        let (client, _service) = test_client(SCALE);
        let mut store = Store::create(&seq_path).unwrap();
        Collector::new(&client, config())
            .run_with_sink(&mut store)
            .unwrap();
        assert!(store.complete());
    }
    let seq_bytes = std::fs::read(&seq_path).unwrap();

    for workers in [1, 8] {
        let path = dir.file(&format!("workers{workers}.yts"));
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(service);
        let scheduler = Scheduler::new(&factory, config(), SchedulerConfig::new(workers, KEY));
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

/// Runs `config()` on two workers paced through `governor`; returns the
/// report and the quota the simulated API's own ledger charged.
fn governed_run(governor: QuotaGovernor) -> (RunReport, u64) {
    let (_client, service) = test_client(SCALE);
    let factory = InProcessFactory::new(Arc::clone(&service));
    let report = Scheduler::new(&factory, config(), SchedulerConfig::new(2, KEY))
        .with_governor(Arc::new(governor))
        .run(&mut MemorySink::new())
        .unwrap();
    assert!(report.completed(), "{:?}", report.outcome);
    (report, service.quota().lifetime_used(KEY))
}

/// The quota a run reports is the server's own charge, read off
/// `ApiService::quota`, not a client-side estimate.
#[test]
fn reported_quota_equals_the_server_ledger() {
    let (report, charged) = governed_run(QuotaGovernor::unlimited());
    assert!(charged > 0);
    assert_eq!(
        report.quota_units, charged,
        "scheduler quota total diverges from the server's ledger"
    );
}

/// Pacing through a real token bucket charges the unpaced total: the
/// rate is high enough never to block, but every admission goes
/// through the bucket's accounting instead of the unlimited fast path.
#[test]
fn rate_limited_governor_is_charged_the_unlimited_total() {
    let (_, unlimited) = governed_run(QuotaGovernor::unlimited());
    let (report, paced) = governed_run(QuotaGovernor::per_second(1_000_000.0, 1_000_000.0));
    assert_eq!(paced, unlimited);
    assert_eq!(report.quota_units, paced);
}

/// Builds YouTube clients that never retry a request, so an injected
/// backend error fails its whole task and the scheduler re-runs it.
struct NoClientRetries(InProcessFactory);

impl TransportFactory for NoClientRetries {
    fn transport(&self) -> Box<dyn Transport> {
        self.0.transport()
    }

    fn client(&self, transport: Box<dyn Transport>, api_key: &str) -> Box<dyn Platform> {
        Box::new(YouTubeClient::new(transport, api_key).with_retry(RetryPolicy::no_retries()))
    }
}

/// One worker, so the service's fault draws come in a fixed order.
fn run_one_worker(factory: &dyn TransportFactory, path: &Path) -> RunReport {
    let mut sched = SchedulerConfig::new(1, KEY);
    sched.retry = TaskRetryPolicy {
        max_attempts: 20,
        backoff: Backoff {
            base: Duration::from_millis(1),
            max: Duration::from_millis(5),
            ..Backoff::default()
        },
    };
    let mut store = Store::create(path).unwrap();
    let report = Scheduler::new(factory, config(), sched)
        .run(&mut store)
        .unwrap();
    assert!(report.completed(), "{:?}", report.outcome);
    report
}

/// Quota is measured around a task's successful attempt only: a run
/// whose tasks fail and re-run commits the fault-free run's quota and
/// bytes, and the failed attempts' spend is reported as wasted.
#[test]
fn task_retries_commit_the_fault_free_quota_and_bytes() {
    let dir = TempDir::new("sched-task-retries");
    let clean_path = dir.file("clean.yts");
    let (_client, service) = test_client(SCALE);
    let clean = run_one_worker(&InProcessFactory::new(service), &clean_path);
    assert_eq!(clean.metrics.tasks_retried, 0);
    assert_eq!(clean.quota_wasted, 0);

    let faulty_path = dir.file("faulty.yts");
    let faults = FaultConfig {
        backend_error_rate: 0.005,
        ..FaultConfig::default()
    };
    let (_client, service) = test_client_with_faults(SCALE, faults);
    let faulty = run_one_worker(
        &NoClientRetries(InProcessFactory::new(service)),
        &faulty_path,
    );
    assert!(faulty.metrics.tasks_retried > 0, "{:?}", faulty.metrics);
    assert_eq!(faulty.quota_units, clean.quota_units);
    assert!(faulty.quota_wasted > 0);
    assert_eq!(
        std::fs::read(&faulty_path).unwrap(),
        std::fs::read(&clean_path).unwrap()
    );
}
