//! The work-queue executor: decomposes a collection plan into
//! `(topic, snapshot, hour-chunk)` task units, runs them on a worker
//! pool where every worker owns its own client, and commits completed
//! pairs to the `CollectorSink` in plan order through the reorder
//! buffer.
//!
//! ## Determinism
//!
//! For a fixed corpus seed the collected dataset is identical for any
//! worker count, and byte-identical to the sequential collector's,
//! because every ingredient is order-independent:
//!
//! * search results depend only on `(query, simulated time)`, both fixed
//!   per task;
//! * per-pair work after the search (metadata fetch, comment crawl) is
//!   the same `ytaudit-core` code the sequential collector runs, over
//!   the same sorted ID list;
//! * quota deltas are measured per task on the owning worker's private
//!   budget, around the successful attempt only, and summed per pair —
//!   the same calls the sequential path pays for (a failed attempt's
//!   spend goes to [`RunReport::quota_wasted`] instead);
//! * commits reach the sink in plan order via the reorder buffer, so a
//!   durable store writes the exact byte stream the sequential run
//!   writes.
//!
//! ## Shutdown
//!
//! A fatal task error, a sink error, or an external [`ShutdownSignal`]
//! triggers a graceful drain: workers pick up no new tasks, in-flight
//! tasks finish, completed pairs that extend the contiguous plan-order
//! prefix still commit, queued work is abandoned, and a durable sink is
//! left resumable.

use crate::factory::TransportFactory;
use crate::governor::{GovernedTransport, QuotaGovernor};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::reorder::ReorderBuffer;
use crate::retry::{classify, ErrorClass, TaskRetryPolicy};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use ytaudit_core::collect::{
    fetch_final_channels, finalize_pair, search_full_window, search_hours, topic_window_hours,
};
use ytaudit_core::dataset::{CommentsSnapshot, HourlyResult, TopicSnapshot, VideoInfo};
use ytaudit_core::{CollectorConfig, CollectorSink, Platform, TopicCommit};
use ytaudit_types::{Error, Result, Timestamp, Topic};

/// Default hour-bins per search task: a 672-hour topic window splits
/// into 7 tasks, enough to spread one pair across a pool while keeping
/// per-task overhead negligible.
pub const DEFAULT_CHUNK_HOURS: u32 = 96;

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker pool size (≥ 1).
    pub workers: usize,
    /// Hour-bins per search task (hourly strategy only).
    pub chunk_hours: u32,
    /// Task-level retry policy.
    pub retry: TaskRetryPolicy,
    /// Seed for deterministic retry jitter.
    pub seed: u64,
    /// API key every worker's client presents.
    pub api_key: String,
}

impl SchedulerConfig {
    /// A config with default chunking and retries.
    pub fn new(workers: usize, api_key: impl Into<String>) -> SchedulerConfig {
        SchedulerConfig {
            workers: workers.max(1),
            chunk_hours: DEFAULT_CHUNK_HOURS,
            retry: TaskRetryPolicy::default(),
            seed: 0x5EED,
            api_key: api_key.into(),
        }
    }
}

/// A cloneable handle requesting a graceful drain: in-flight tasks
/// finish and commit, queued tasks are abandoned, a durable sink is
/// left resumable. The CLI wires its interrupt handling to this.
#[derive(Debug, Clone, Default)]
pub struct ShutdownSignal(Arc<AtomicBool>);

impl ShutdownSignal {
    /// A fresh, un-signalled handle.
    pub fn new() -> ShutdownSignal {
        ShutdownSignal::default()
    }

    /// Requests the drain. Idempotent.
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// How a run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every pair committed, channels fetched, sink finished.
    Completed,
    /// Early shutdown after a graceful drain. The sink holds a
    /// contiguous plan-order prefix of commits and (if durable) is
    /// resumable.
    Drained {
        /// The fatal error that triggered the drain, or `None` when it
        /// was an external [`ShutdownSignal`] request.
        error: Option<Error>,
    },
}

/// What a run did, plus the final metrics snapshot.
#[derive(Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Pairs committed by *this* run (resumed pairs not included).
    pub pairs_committed: usize,
    /// Quota units attributed to this run's commits (including the
    /// final channel fetch on completion).
    pub quota_units: u64,
    /// Quota units spent by failed task attempts: recorded by the
    /// clients' ledgers but attributed to no commit.
    pub quota_wasted: u64,
    /// Final metrics.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Whether the run completed the whole plan.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, RunOutcome::Completed)
    }

    /// The final summary table: the metrics registry's rows plus this
    /// run's pairs and quota.
    pub fn render_table(&self) -> String {
        self.metrics.render_table_with(&format!(
            "  pairs   committed {:>8}\n  quota   spent     {:>8}   wasted  {:>6}   throttled {:.2}s\n",
            self.pairs_committed,
            self.quota_units,
            self.quota_wasted,
            self.metrics.throttled.as_secs_f64()
        ))
    }
}

/// One unit of work.
struct Task {
    /// Pair sequence number: `snapshot * n_topics + topic_idx`.
    seq: usize,
    topic: Topic,
    snapshot: usize,
    date: Timestamp,
    /// Stable ID seeding this task's retry jitter.
    id: u64,
    /// 0-based attempt counter.
    attempt: u32,
    /// Quota already attributed to this pair by completed search chunks
    /// (carried on the finalize task).
    banked_quota: u64,
    kind: TaskKind,
}

enum TaskKind {
    /// Hourly searches for window hours `start..end`.
    SearchHours { chunk: usize, start: u32, end: u32 },
    /// The naive single full-window query.
    SearchFullWindow,
    /// Post-search work: metadata fetch + comment crawl on the
    /// assembled snapshot.
    Finalize { data: TopicSnapshot },
}

enum TaskOutput {
    Hours {
        chunk: usize,
        hours: Vec<HourlyResult>,
    },
    Finalized {
        data: TopicSnapshot,
        comments: Option<CommentsSnapshot>,
        videos: Vec<VideoInfo>,
    },
}

/// Search chunks collected so far for one pair.
struct PairAssembly {
    chunks: Vec<Option<Vec<HourlyResult>>>,
    remaining: usize,
    quota: u64,
}

/// A fully collected pair, en route to the reorder buffer.
struct PairDone {
    seq: usize,
    topic: Topic,
    snapshot: usize,
    date: Timestamp,
    data: TopicSnapshot,
    comments: Option<CommentsSnapshot>,
    videos: Vec<VideoInfo>,
    quota_delta: u64,
}

/// Queue state shared by the workers and the committing main thread.
struct Shared {
    ready: VecDeque<Task>,
    delayed: Vec<(Instant, Task)>,
    assembling: HashMap<usize, PairAssembly>,
    /// Tasks currently executing inside workers.
    outstanding: usize,
    /// Set once when the run must drain: `Some(Some(err))` for a fatal
    /// task or sink error, `Some(None)` for an external request.
    stop: Option<Option<Error>>,
    next_task_id: u64,
    /// Units spent by failed task attempts.
    quota_wasted: u64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.stop.is_some()
    }

    fn begin_drain(&mut self, error: Option<Error>) {
        if self.stop.is_none() {
            self.stop = Some(error);
        }
    }
}

/// The concurrent collection executor.
pub struct Scheduler<'f> {
    factory: &'f dyn TransportFactory,
    collector: CollectorConfig,
    sched: SchedulerConfig,
    governor: Arc<QuotaGovernor>,
    metrics: Arc<MetricsRegistry>,
    shutdown: ShutdownSignal,
}

impl<'f> Scheduler<'f> {
    /// A scheduler over `factory`'s transports running `collector`'s
    /// plan, without quota pacing (use [`Scheduler::with_governor`]).
    pub fn new(
        factory: &'f dyn TransportFactory,
        collector: CollectorConfig,
        sched: SchedulerConfig,
    ) -> Scheduler<'f> {
        Scheduler {
            factory,
            collector,
            sched,
            governor: Arc::new(QuotaGovernor::unlimited()),
            metrics: Arc::new(MetricsRegistry::new()),
            shutdown: ShutdownSignal::new(),
        }
    }

    /// Paces this scheduler through `governor` (`collect --rate`).
    pub fn with_governor(mut self, governor: Arc<QuotaGovernor>) -> Scheduler<'f> {
        self.governor = governor;
        self
    }

    /// The shared metrics registry (live: snapshot any time).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A handle that requests a graceful drain when triggered.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.shutdown.clone()
    }

    /// Builds one worker's backend client over a fresh transport,
    /// admitted through the governor at the platform's unit cost and
    /// timed into the metrics registry.
    fn make_client(&self) -> Box<dyn Platform> {
        let transport = GovernedTransport::new(
            self.factory.transport(),
            Arc::clone(&self.governor),
            Arc::clone(&self.metrics),
            self.factory.platform(),
        );
        self.factory
            .client(Box::new(transport), &self.sched.api_key)
    }

    /// Runs the plan to completion (or drain), committing plan-ordered
    /// pairs into `sink`. Mirrors `Collector::run_with_sink`, including
    /// resume semantics: committed pairs are skipped without API calls.
    pub fn run(&self, sink: &mut dyn CollectorSink) -> Result<RunReport> {
        if self.collector.platform != self.factory.platform() {
            return Err(Error::InvalidInput(format!(
                "plan targets platform '{}' but the transport factory speaks '{}'",
                self.collector.platform,
                self.factory.platform()
            )));
        }
        sink.begin(&self.collector)?;
        if sink.is_complete() {
            return Ok(RunReport {
                outcome: RunOutcome::Completed,
                pairs_committed: 0,
                quota_units: 0,
                quota_wasted: 0,
                metrics: self.metrics.snapshot(),
            });
        }
        let dates: Vec<Timestamp> = self.collector.schedule.dates().to_vec();
        let topics: Vec<Topic> = self.collector.topics.clone();
        let n_topics = topics.len();

        // Decompose the plan into tasks, skipping committed pairs.
        let mut skip = vec![false; dates.len() * n_topics];
        let mut shared = Shared {
            ready: VecDeque::new(),
            delayed: Vec::new(),
            assembling: HashMap::new(),
            outstanding: 0,
            stop: None,
            next_task_id: 0,
            quota_wasted: 0,
        };
        for (snapshot, &date) in dates.iter().enumerate() {
            for (topic_idx, &topic) in topics.iter().enumerate() {
                let seq = snapshot * n_topics + topic_idx;
                if sink.is_committed(topic, snapshot) {
                    skip[seq] = true;
                    continue;
                }
                let chunks: Vec<TaskKind> = if self.collector.hourly_bins {
                    let window = topic_window_hours(topic);
                    let per_task = self.sched.chunk_hours.max(1);
                    let n_chunks = window.div_ceil(per_task).max(1);
                    (0..n_chunks)
                        .map(|c| TaskKind::SearchHours {
                            chunk: c as usize,
                            start: c * per_task,
                            end: ((c + 1) * per_task).min(window),
                        })
                        .collect()
                } else {
                    vec![TaskKind::SearchFullWindow]
                };
                shared.assembling.insert(
                    seq,
                    PairAssembly {
                        chunks: (0..chunks.len()).map(|_| None).collect(),
                        remaining: chunks.len(),
                        quota: 0,
                    },
                );
                for kind in chunks {
                    let id = shared.next_task_id;
                    shared.next_task_id += 1;
                    shared.ready.push_back(Task {
                        seq,
                        topic,
                        snapshot,
                        date,
                        id,
                        attempt: 0,
                        banked_quota: 0,
                        kind,
                    });
                }
            }
        }

        let shared = Mutex::new(shared);
        let cond = Condvar::new();
        let (tx, rx) = mpsc::channel::<PairDone>();
        let mut reorder: ReorderBuffer<PairDone> = ReorderBuffer::new(skip);
        let mut pairs_committed = 0usize;
        let mut quota_units = 0u64;
        let mut sink_broken = false;

        std::thread::scope(|scope| {
            for _ in 0..self.sched.workers {
                let tx = tx.clone();
                let shared = &shared;
                let cond = &cond;
                scope.spawn(move || self.worker_loop(shared, cond, tx));
            }
            drop(tx);
            // The main thread owns the sink: workers deliver completed
            // pairs here, the reorder buffer restores plan order, and
            // commits happen strictly in that order. Draining continues
            // to commit arriving in-order pairs (in-flight work is not
            // thrown away) unless the sink itself failed.
            for done in rx {
                // Refresh connection totals before committing so a sink
                // that prints the live metrics line (the CLI does) sees
                // current pool and pipeline-depth numbers.
                self.metrics
                    .set_connections(self.factory.connection_stats());
                for (_, pair) in reorder.offer(done.seq, done) {
                    if sink_broken {
                        continue;
                    }
                    let commit = TopicCommit {
                        topic: pair.topic,
                        snapshot: pair.snapshot,
                        date: pair.date,
                        data: &pair.data,
                        comments: pair.comments.as_ref(),
                        videos: &pair.videos,
                        quota_delta: pair.quota_delta,
                    };
                    match sink.commit_topic_snapshot(commit) {
                        Ok(()) => {
                            pairs_committed += 1;
                            quota_units += pair.quota_delta;
                        }
                        Err(err) => {
                            sink_broken = true;
                            shared.lock().begin_drain(Some(err));
                            cond.notify_all();
                        }
                    }
                }
            }
        });

        self.metrics
            .set_connections(self.factory.connection_stats());

        let Shared {
            mut stop,
            quota_wasted,
            ..
        } = shared.into_inner();
        if stop.is_none() && !reorder.is_drained() {
            // Workers exited early without recording a cause: that is
            // the external shutdown signal.
            stop = Some(None);
        }
        if stop.is_some() || !reorder.is_drained() {
            return Ok(RunReport {
                outcome: RunOutcome::Drained {
                    error: stop.flatten(),
                },
                pairs_committed,
                quota_units,
                quota_wasted,
                metrics: self.metrics.snapshot(),
            });
        }

        // Every pair is committed: fetch channel metadata once, at the
        // final snapshot's clock, exactly as the sequential collector
        // does, and finish the sink.
        let client = self.make_client();
        let channels = fetch_final_channels(client.as_ref(), &self.collector, || {
            sink.known_channel_ids()
        })?;
        let final_delta = client.units_spent();
        quota_units += final_delta;
        sink.finish(&channels, final_delta)?;
        Ok(RunReport {
            outcome: RunOutcome::Completed,
            pairs_committed,
            quota_units,
            quota_wasted,
            metrics: self.metrics.snapshot(),
        })
    }

    fn worker_loop(&self, shared: &Mutex<Shared>, cond: &Condvar, tx: mpsc::Sender<PairDone>) {
        let client = self.make_client();
        loop {
            let mut task = {
                let mut s = shared.lock();
                loop {
                    if s.draining() || self.shutdown.is_requested() {
                        return;
                    }
                    // ytlint: allow(determinism) — retry due-times pace
                    // real execution; commit order is fixed by the
                    // reorder buffer, so bytes stay deterministic
                    let now = Instant::now();
                    let mut i = 0;
                    while i < s.delayed.len() {
                        if s.delayed[i].0 <= now {
                            let (_, due) = s.delayed.swap_remove(i);
                            s.ready.push_back(due);
                        } else {
                            i += 1;
                        }
                    }
                    if let Some(next) = s.ready.pop_front() {
                        s.outstanding += 1;
                        break next;
                    }
                    if s.outstanding == 0 && s.delayed.is_empty() {
                        return; // plan exhausted
                    }
                    // Wake for the next delayed task, a notification, or
                    // a shutdown poll, whichever is first.
                    let wait = s
                        .delayed
                        .iter()
                        .map(|(at, _)| at.saturating_duration_since(now))
                        .min()
                        .unwrap_or(Duration::from_millis(50))
                        .clamp(Duration::from_millis(1), Duration::from_millis(50));
                    cond.wait_for(&mut s, wait);
                }
            };

            // Quota is measured around this attempt only, so a pair's
            // committed delta covers exactly the calls that produced its
            // data — the same calls the sequential path pays for.
            let before = client.units_spent();
            let result = execute_task(client.as_ref(), &self.collector, &mut task);
            let delta = client.units_spent() - before;

            let mut s = shared.lock();
            s.outstanding -= 1;
            match result {
                Ok(TaskOutput::Hours { chunk, hours }) => {
                    self.metrics.task_completed();
                    let assembly = s
                        .assembling
                        .get_mut(&task.seq)
                        // ytlint: allow(panics) — scheduler invariant: an
                        // assembly entry is created when the pair is
                        // admitted and removed only on completion
                        .expect("assembly exists for active pair");
                    assembly.chunks[chunk] = Some(hours);
                    assembly.remaining -= 1;
                    assembly.quota += delta;
                    if assembly.remaining == 0 {
                        // ytlint: allow(panics) — the entry was just
                        // borrowed above; remove cannot miss
                        let assembly = s.assembling.remove(&task.seq).expect("assembly");
                        let mut all_hours = Vec::new();
                        for chunk in assembly.chunks {
                            // ytlint: allow(panics) — remaining == 0 means
                            // every chunk slot was filled
                            all_hours.extend(chunk.expect("every chunk completed"));
                        }
                        let id = s.next_task_id;
                        s.next_task_id += 1;
                        // Depth-first: finish assembled pairs before
                        // starting fresh ones, so the reorder buffer
                        // drains and commits flow early.
                        s.ready.push_front(Task {
                            seq: task.seq,
                            topic: task.topic,
                            snapshot: task.snapshot,
                            date: task.date,
                            id,
                            attempt: 0,
                            banked_quota: assembly.quota,
                            kind: TaskKind::Finalize {
                                data: TopicSnapshot {
                                    hours: all_hours,
                                    meta_returned: Vec::new(),
                                },
                            },
                        });
                    }
                }
                Ok(TaskOutput::Finalized {
                    data,
                    comments,
                    videos,
                }) => {
                    self.metrics.task_completed();
                    // The receiver hangs up once the main loop decides
                    // to stop committing; losing this send is then fine.
                    let _ = tx.send(PairDone {
                        seq: task.seq,
                        topic: task.topic,
                        snapshot: task.snapshot,
                        date: task.date,
                        data,
                        comments,
                        videos,
                        quota_delta: task.banked_quota + delta,
                    });
                }
                Err(err) => {
                    s.quota_wasted += delta;
                    if classify(&err) == ErrorClass::Retryable
                        && self.sched.retry.attempts_left(task.attempt)
                    {
                        self.metrics.task_retried();
                        let delay = self.sched.retry.delay_for(
                            &err,
                            self.sched.seed ^ task.id,
                            task.attempt,
                        );
                        task.attempt += 1;
                        // ytlint: allow(determinism) — backoff deadline
                        // paces real retries; result bytes are unaffected
                        s.delayed.push((Instant::now() + delay, task));
                    } else {
                        self.metrics.task_failed();
                        s.begin_drain(Some(err));
                    }
                }
            }
            cond.notify_all();
        }
    }
}

fn execute_task(
    client: &dyn Platform,
    config: &CollectorConfig,
    task: &mut Task,
) -> Result<TaskOutput> {
    client.set_sim_time(Some(task.date));
    match &mut task.kind {
        TaskKind::SearchHours { chunk, start, end } => Ok(TaskOutput::Hours {
            chunk: *chunk,
            hours: search_hours(client, task.topic, *start..*end)?,
        }),
        TaskKind::SearchFullWindow => Ok(TaskOutput::Hours {
            chunk: 0,
            hours: search_full_window(client, task.topic)?.hours,
        }),
        TaskKind::Finalize { data } => {
            let (videos, comments) = finalize_pair(client, config, task.snapshot, data)?;
            Ok(TaskOutput::Finalized {
                data: std::mem::take(data),
                comments,
                videos,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::InProcessFactory;
    use ytaudit_core::collect::MemorySink;
    use ytaudit_core::testutil::test_client;
    use ytaudit_core::Collector;
    use ytaudit_types::Result;

    const SCALE: f64 = 0.08;

    fn config() -> CollectorConfig {
        CollectorConfig {
            fetch_comments: true,
            ..CollectorConfig::quick(vec![Topic::Higgs, Topic::Blm], 2)
        }
    }

    fn run_scheduled(workers: usize) -> (RunReport, ytaudit_core::AuditDataset) {
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(service);
        let scheduler = Scheduler::new(
            &factory,
            config(),
            SchedulerConfig::new(workers, "research-key"),
        );
        let mut sink = MemorySink::new();
        let report = scheduler.run(&mut sink).unwrap();
        (report, sink.into_dataset())
    }

    #[test]
    fn any_worker_count_matches_the_sequential_dataset() {
        let (client, _service) = test_client(SCALE);
        let sequential = Collector::new(&client, config()).run().unwrap();
        for workers in [1, 4] {
            let (report, dataset) = run_scheduled(workers);
            assert!(
                report.completed(),
                "workers={workers}: {:?}",
                report.outcome
            );
            assert_eq!(dataset, sequential, "workers={workers}");
            assert_eq!(report.pairs_committed, 4);
            assert_eq!(report.quota_units, sequential.quota_units_spent);
            assert_eq!(report.metrics.tasks_failed, 0);
        }
    }

    #[test]
    fn metrics_see_the_traffic() {
        let (report, _dataset) = run_scheduled(4);
        let m = &report.metrics;
        // 2 topics × 2 snapshots × (7 search chunks + 1 finalize).
        assert_eq!(m.tasks_completed, 32);
        assert_eq!(report.pairs_committed, 4);
        assert!(report.quota_units > 0);
        assert_eq!(report.quota_wasted, 0);
        let table = report.render_table();
        assert!(table.contains("  pairs   committed        4\n"), "{table}");
        assert!(
            table.contains(&format!(
                "  quota   spent     {:>8}   wasted       0",
                report.quota_units
            )),
            "{table}"
        );
        assert!(
            m.endpoints.iter().any(|e| e.endpoint == "search"),
            "{:?}",
            m.endpoints
        );
    }

    #[test]
    fn sink_error_drains_gracefully_in_plan_order() {
        /// Errors on the N+1-th commit, recording what got through.
        struct FailAfter {
            inner: MemorySink,
            commits_left: usize,
            committed: Vec<(Topic, usize)>,
        }
        impl CollectorSink for FailAfter {
            fn begin(&mut self, config: &CollectorConfig) -> Result<()> {
                self.inner.begin(config)
            }
            fn commit_topic_snapshot(&mut self, commit: TopicCommit<'_>) -> Result<()> {
                if self.commits_left == 0 {
                    return Err(Error::Io("injected sink failure".into()));
                }
                self.commits_left -= 1;
                self.committed.push((commit.topic, commit.snapshot));
                self.inner.commit_topic_snapshot(commit)
            }
            fn finish(
                &mut self,
                channels: &[ytaudit_core::dataset::ChannelInfo],
                delta: u64,
            ) -> Result<()> {
                self.inner.finish(channels, delta)
            }
        }

        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(service);
        let scheduler = Scheduler::new(&factory, config(), SchedulerConfig::new(4, "research-key"));
        let mut sink = FailAfter {
            inner: MemorySink::new(),
            commits_left: 2,
            committed: Vec::new(),
        };
        let report = scheduler.run(&mut sink).unwrap();
        match report.outcome {
            RunOutcome::Drained {
                error: Some(Error::Io(_)),
            } => {}
            other => panic!("expected drained-with-error, got {other:?}"),
        }
        assert_eq!(report.pairs_committed, 2);
        // The committed prefix is exactly the first two pairs in plan
        // order (snapshot-major, topic order within a snapshot).
        assert_eq!(sink.committed, vec![(Topic::Higgs, 0), (Topic::Blm, 0)]);
    }

    #[test]
    fn shutdown_signal_drains_before_any_work() {
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(service);
        let scheduler = Scheduler::new(&factory, config(), SchedulerConfig::new(2, "research-key"));
        scheduler.shutdown_signal().request();
        let mut sink = MemorySink::new();
        let report = scheduler.run(&mut sink).unwrap();
        match report.outcome {
            RunOutcome::Drained { error: None } => {}
            other => panic!("expected clean drain, got {other:?}"),
        }
        assert_eq!(report.pairs_committed, 0);
        assert_eq!(report.quota_units, 0);
    }

    #[test]
    fn resumed_pairs_are_skipped_without_api_calls() {
        /// Pretends snapshot 0 is already durably committed.
        struct SkipFirst(MemorySink);
        impl CollectorSink for SkipFirst {
            fn begin(&mut self, config: &CollectorConfig) -> Result<()> {
                self.0.begin(config)
            }
            fn is_committed(&self, _topic: Topic, snapshot: usize) -> bool {
                snapshot == 0
            }
            fn commit_topic_snapshot(&mut self, commit: TopicCommit<'_>) -> Result<()> {
                self.0.commit_topic_snapshot(commit)
            }
            fn finish(
                &mut self,
                channels: &[ytaudit_core::dataset::ChannelInfo],
                delta: u64,
            ) -> Result<()> {
                self.0.finish(channels, delta)
            }
        }

        let cfg = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            fetch_comments: false,
            ..config()
        };
        let (_client, service) = test_client(SCALE);
        let factory = InProcessFactory::new(service);
        let scheduler = Scheduler::new(
            &factory,
            cfg.clone(),
            SchedulerConfig::new(3, "research-key"),
        );
        let mut sink = SkipFirst(MemorySink::new());
        let report = scheduler.run(&mut sink).unwrap();
        assert!(report.completed());
        assert_eq!(report.pairs_committed, 2, "only snapshot 1's pairs");
        let dataset = sink.0.into_dataset();
        assert_eq!(dataset.snapshots.len(), 1);

        // The full run costs strictly more than the resumed run.
        let (_c2, service2) = test_client(SCALE);
        let factory2 = InProcessFactory::new(service2);
        let full = Scheduler::new(&factory2, cfg, SchedulerConfig::new(3, "research-key"));
        let mut full_sink = MemorySink::new();
        let full_report = full.run(&mut full_sink).unwrap();
        assert!(full_report.quota_units > report.quota_units);
    }
}
