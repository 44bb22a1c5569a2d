//! `ytaudit collect` — run an audit collection, writing the dataset as
//! JSON or committing it pair-by-pair to a crash-safe snapshot store.

use crate::args::{ArgError, Args};
use crate::commands::{parse_topics, write_atomic};
use std::path::Path;
use std::sync::Arc;
use ytaudit_api::ApiService;
use ytaudit_client::{HttpTransport, InProcessTransport, YouTubeClient};
use ytaudit_core::dataset::ChannelInfo;
use ytaudit_core::{Collector, CollectorConfig, CollectorSink, MemorySink, Schedule, TopicCommit};
use ytaudit_platform::{Corpus, CorpusConfig, Platform, SimClock};
use ytaudit_sched::{
    HttpFactory, InProcessFactory, MetricsRegistry, QuotaGovernor, RunOutcome, Scheduler,
    SchedulerConfig, TikTokFactory, TransportFactory,
};
use ytaudit_store::Store;
use ytaudit_tiktok_sim::{TikTokClient, TikTokService, TikTokTransport, RESEARCH_DAILY_REQUESTS};
use ytaudit_types::{ChannelId, PlatformKind, Timestamp, Topic};

/// The usage lines of the plan flags [`plan_config`] reads, shared by
/// `collect` and `coordinate` so a distributed run accepts exactly the
/// plan a local one does.
macro_rules! plan_options {
    () => {
        "    --topics <keys|all>      comma-separated topic keys      (default all)
    --snapshots <N>          number of snapshots             (default 4)
    --interval-days <N>      days between snapshots          (default 5)
    --paper                  use the paper's exact 16-snapshot schedule
    --no-metadata            skip Videos.list fetches
    --no-channels            skip Channels.list fetches
    --no-comments            skip comment crawls (default: fetched)
    --platform <name>        backend to audit: youtube | tiktok (default
                             youtube; recorded in the store manifest, and a
                             store refuses --resume / merge / analyze under
                             a different platform)
"
    };
}
pub(crate) use plan_options;

/// Usage text.
pub const USAGE: &str = concat!(
    "\
ytaudit collect — run the paper's collection methodology

OPTIONS:
",
    plan_options!(),
    "    --scale <f64>            in-process corpus scale         (default 1.0)
    --seed <u64>             in-process corpus seed
    --base-url <URL>         collect against a served API instead of
                             an in-process platform
    --key <API KEY>          API key to use                  (default cli-key)
    --workers <N>            collect with N concurrent workers through the
                             scheduler (default 0 = classic sequential path;
                             the dataset is identical either way)
    --rate <units/sec>       pace all workers through a shared quota governor
                             refilling this many quota units per second
                             (requires --workers)
    --in-flight <N>          keep up to N HTTP requests pipelined per
                             connection (default 1 = plain keep-alive;
                             requires --base-url — the in-process transport
                             has no connections to pipeline; the dataset is
                             byte-identical at any depth)
    --out <file.json>        where to write the dataset      (default dataset.json;
                             with --store, only written when given explicitly)
    --store <file.yts>       commit to a crash-safe snapshot store instead
                             of holding everything in memory
    --resume                 continue an interrupted --store collection;
                             committed (topic, snapshot) pairs are skipped
                             without re-issuing any API calls

The in-process mode registers the key with unbounded quota; against a
served API you must have registered a researcher key (see `ytaudit serve`)."
);

/// A [`CollectorSink`] wrapper that prints one progress line per
/// committed `(topic, snapshot)` pair: position in the plan, the pair's
/// quota cost, and wall-clock elapsed.
struct Progress<S> {
    inner: S,
    started: std::time::Instant,
    schedule_len: usize,
    total_pairs: usize,
    done: usize,
    session_units: u64,
}

impl<S: CollectorSink> Progress<S> {
    fn new(inner: S) -> Progress<S> {
        Progress {
            inner,
            // ytlint: allow(determinism) — progress display reports real
            // wall-clock elapsed to the operator; it never feeds analysis
            started: std::time::Instant::now(),
            schedule_len: 0,
            total_pairs: 0,
            done: 0,
            session_units: 0,
        }
    }

    fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CollectorSink> CollectorSink for Progress<S> {
    fn begin(&mut self, config: &CollectorConfig) -> ytaudit_types::Result<()> {
        self.inner.begin(config)?;
        self.schedule_len = config.schedule.len();
        self.total_pairs = config.topics.len() * self.schedule_len;
        self.done = (0..self.schedule_len)
            .map(|idx| {
                config
                    .topics
                    .iter()
                    .filter(|&&t| self.inner.is_committed(t, idx))
                    .count()
            })
            .sum();
        if self.done > 0 {
            eprintln!(
                "[collect] resuming: {}/{} pairs already committed, skipping their API calls",
                self.done, self.total_pairs
            );
        }
        Ok(())
    }

    fn is_committed(&self, topic: Topic, snapshot: usize) -> bool {
        self.inner.is_committed(topic, snapshot)
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn known_channel_ids(&self) -> ytaudit_types::Result<Vec<ChannelId>> {
        self.inner.known_channel_ids()
    }

    fn commit_topic_snapshot(&mut self, commit: TopicCommit<'_>) -> ytaudit_types::Result<()> {
        let (topic, snapshot, delta) = (commit.topic, commit.snapshot, commit.quota_delta);
        self.inner.commit_topic_snapshot(commit)?;
        self.done += 1;
        self.session_units += delta;
        eprintln!(
            "[collect] {:10} snapshot {:>2}/{} pair {:>3}/{}  +{} units ({} this run)  {:.1}s elapsed",
            topic.key(),
            snapshot + 1,
            self.schedule_len,
            self.done,
            self.total_pairs,
            delta,
            self.session_units,
            self.started.elapsed().as_secs_f64()
        );
        Ok(())
    }

    fn finish(
        &mut self,
        channels: &[ChannelInfo],
        quota_final_delta: u64,
    ) -> ytaudit_types::Result<()> {
        self.inner.finish(channels, quota_final_delta)?;
        self.session_units += quota_final_delta;
        eprintln!(
            "[collect] done: {} channels, +{} units ({} this run), {:.1}s elapsed",
            channels.len(),
            quota_final_delta,
            self.session_units,
            self.started.elapsed().as_secs_f64()
        );
        Ok(())
    }
}

/// Where API traffic goes: a served base URL or an in-process simulated
/// service. Built once, before choosing the sequential or scheduler
/// path, so every worker shares the same platform and quota ledger.
/// Shared with `ytaudit work`, whose workers pick a backend the same
/// way.
pub(crate) enum Backend {
    Http(String),
    InProcess(Arc<ApiService>),
    Tiktok(Arc<TikTokService>),
}

impl Backend {
    /// A single client for the classic sequential collector.
    fn client(&self, key: &str, in_flight: usize) -> Box<dyn ytaudit_core::Platform> {
        match self {
            Backend::Http(base) => Box::new(YouTubeClient::new(
                Box::new(HttpTransport::new(base.clone()).with_max_in_flight(in_flight)),
                key,
            )),
            Backend::InProcess(service) => Box::new(YouTubeClient::new(
                Box::new(InProcessTransport::new(Arc::clone(service))),
                key,
            )),
            Backend::Tiktok(service) => Box::new(TikTokClient::new(
                Box::new(TikTokTransport::new(Arc::clone(service))),
                key,
            )),
        }
    }

    /// A per-worker transport factory for the scheduler.
    pub(crate) fn factory(&self, in_flight: usize) -> Box<dyn TransportFactory> {
        match self {
            Backend::Http(base) => {
                Box::new(HttpFactory::new(base.clone()).with_max_in_flight(in_flight))
            }
            Backend::InProcess(service) => Box::new(InProcessFactory::new(Arc::clone(service))),
            Backend::Tiktok(service) => Box::new(TikTokFactory::new(Arc::clone(service))),
        }
    }
}

/// Forwards to the wrapped sink and prints the scheduler's live metrics
/// line after every committed pair.
struct MetricsLine<'a> {
    inner: &'a mut dyn CollectorSink,
    metrics: Arc<MetricsRegistry>,
}

impl CollectorSink for MetricsLine<'_> {
    fn begin(&mut self, config: &CollectorConfig) -> ytaudit_types::Result<()> {
        self.inner.begin(config)
    }

    fn is_committed(&self, topic: Topic, snapshot: usize) -> bool {
        self.inner.is_committed(topic, snapshot)
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn known_channel_ids(&self) -> ytaudit_types::Result<Vec<ChannelId>> {
        self.inner.known_channel_ids()
    }

    fn commit_topic_snapshot(&mut self, commit: TopicCommit<'_>) -> ytaudit_types::Result<()> {
        self.inner.commit_topic_snapshot(commit)?;
        eprintln!("[sched] {}", self.metrics.snapshot().progress_line());
        Ok(())
    }

    fn finish(
        &mut self,
        channels: &[ChannelInfo],
        quota_final_delta: u64,
    ) -> ytaudit_types::Result<()> {
        self.inner.finish(channels, quota_final_delta)
    }
}

/// Drives one collection into `sink`, either through the classic
/// sequential [`Collector`] (`workers == 0`) or through the concurrent
/// [`Scheduler`]. The scheduler path prints the metrics summary table
/// whether the run completed or drained early; a drained store is left
/// resumable, so the error message points at `--resume`.
#[allow(clippy::too_many_arguments)]
fn drive(
    backend: &Backend,
    config: &CollectorConfig,
    key: &str,
    workers: usize,
    rate: f64,
    in_flight: usize,
    sink: &mut dyn CollectorSink,
) -> Result<(), ArgError> {
    if workers == 0 {
        let client = backend.client(key, in_flight);
        return Collector::new(client.as_ref(), config.clone())
            .run_with_sink(sink)
            .map_err(|e| ArgError(format!("collection failed: {e}")));
    }
    let factory = backend.factory(in_flight);
    let mut scheduler = Scheduler::new(
        factory.as_ref(),
        config.clone(),
        SchedulerConfig::new(workers, key),
    );
    if rate > 0.0 {
        scheduler = scheduler.with_governor(Arc::new(QuotaGovernor::per_second(rate, rate)));
    }
    let metrics = scheduler.metrics();
    let mut lined = MetricsLine {
        inner: sink,
        metrics,
    };
    let report = scheduler
        .run(&mut lined)
        .map_err(|e| ArgError(format!("collection failed: {e}")))?;
    eprint!("{}", report.render_table());
    match report.outcome {
        RunOutcome::Completed => Ok(()),
        RunOutcome::Drained { error: None } => {
            eprintln!(
                "[collect] shutdown requested: in-flight work drained, committed pairs \
                 are banked"
            );
            Ok(())
        }
        RunOutcome::Drained { error: Some(e) } => Err(ArgError(format!(
            "collection drained after error: {e}; committed pairs are banked \
             (rerun with --store … --resume to continue)"
        ))),
    }
}

/// Builds the collection plan from the shared schedule flags
/// (`--paper` / `--snapshots` / `--interval-days` / `--no-*`). Used by
/// both `collect` and `coordinate` so a distributed run describes
/// exactly the plan a local one would.
pub(crate) fn plan_config(args: &Args, topics: Vec<Topic>) -> Result<CollectorConfig, ArgError> {
    let schedule = if args.flag("paper") {
        Schedule::paper()
    } else {
        let snapshots: usize = args.get_parsed("snapshots", 4)?;
        let interval: i64 = args.get_parsed("interval-days", 5)?;
        Schedule::every(Timestamp::from_ymd_const(2025, 2, 9), interval, snapshots)
    };
    Ok(CollectorConfig {
        topics,
        schedule,
        hourly_bins: true,
        fetch_metadata: !args.flag("no-metadata"),
        fetch_channels: !args.flag("no-channels"),
        fetch_comments: !args.flag("no-comments"),
        shard: None,
        platform: parse_platform(args)?,
    })
}

/// Parses the shared `--platform` flag (default `youtube`).
pub(crate) fn parse_platform(args: &Args) -> Result<PlatformKind, ArgError> {
    match args.get("platform") {
        None => Ok(PlatformKind::Youtube),
        Some(name) => PlatformKind::from_str_opt(name).ok_or_else(|| {
            ArgError(format!(
                "invalid --platform {name:?}; expected 'youtube' or 'tiktok'"
            ))
        }),
    }
}

/// Builds the traffic backend from the shared `--base-url` /
/// `--scale` / `--seed` flags; the in-process path registers `key`
/// with effectively unbounded quota. Used by both `collect` and
/// `work`.
pub(crate) fn build_backend(args: &Args, key: &str, tag: &str) -> Result<Backend, ArgError> {
    let platform = parse_platform(args)?;
    if platform == PlatformKind::Tiktok && args.get("base-url").is_some() {
        return Err(ArgError(
            "--platform tiktok is in-process only; it cannot target a served \
             --base-url (`ytaudit serve` speaks the YouTube API)"
                .into(),
        ));
    }
    Ok(match args.get("base-url") {
        Some(base) => Backend::Http(base.to_string()),
        None => {
            let scale: f64 = args.get_parsed("scale", 1.0)?;
            let mut corpus_config = CorpusConfig {
                scale,
                ..CorpusConfig::default()
            };
            if let Some(seed) = args.get("seed") {
                corpus_config.seed = seed
                    .parse()
                    .map_err(|_| ArgError(format!("invalid --seed {seed:?}")))?;
            }
            eprintln!("[{tag}] generating in-process corpus (scale {scale}, platform {platform})…");
            let corpus = Arc::new(Platform::new(Corpus::generate(corpus_config)));
            match platform {
                PlatformKind::Youtube => {
                    let service = Arc::new(ApiService::new(corpus, SimClock::at_audit_start()));
                    service.quota().register(key, u64::MAX / 2);
                    Backend::InProcess(service)
                }
                PlatformKind::Tiktok => {
                    let service = Arc::new(TikTokService::new(corpus, SimClock::at_audit_start()));
                    service.ledger().register(key, RESEARCH_DAILY_REQUESTS);
                    Backend::Tiktok(service)
                }
            }
        }
    })
}

/// Runs the command.
pub fn run(args: &Args) -> Result<(), ArgError> {
    let topics = parse_topics(args.get("topics"))?;
    let key = args.get("key").unwrap_or("cli-key").to_string();
    let store_path = args.get("store").map(str::to_string);
    let resume = args.flag("resume");
    if resume && store_path.is_none() {
        return Err(ArgError("--resume requires --store".into()));
    }
    let workers: usize = args.get_parsed("workers", 0)?;
    let rate: f64 = args.get_parsed("rate", 0.0)?;
    if args.get("rate").is_some() && workers == 0 {
        return Err(ArgError("--rate requires --workers".into()));
    }
    let in_flight: usize = args.get_parsed("in-flight", 1)?;
    if in_flight == 0 {
        return Err(ArgError("--in-flight must be at least 1".into()));
    }
    if in_flight > 1 && args.get("base-url").is_none() {
        return Err(ArgError(
            "--in-flight pipelines HTTP connections and requires --base-url; the \
             in-process transport has nothing to pipeline"
                .into(),
        ));
    }

    let config = plan_config(args, topics)?;
    let backend = build_backend(args, &key, "collect")?;

    eprintln!(
        "[collect] {} topics × {} snapshots, hourly-binned{}…",
        config.topics.len(),
        config.schedule.len(),
        if workers > 0 {
            format!(", {workers} workers")
        } else {
            String::new()
        }
    );
    match store_path {
        Some(spath) => {
            let path = Path::new(&spath);
            let store = if path.exists() {
                if !resume {
                    return Err(ArgError(format!(
                        "{spath} already exists; pass --resume to continue it, or delete it \
                         to start over"
                    )));
                }
                Store::open(path)
                    .map_err(|e| ArgError(format!("cannot open store {spath}: {e}")))?
            } else {
                Store::create(path)
                    .map_err(|e| ArgError(format!("cannot create store {spath}: {e}")))?
            };
            if store.recovered_bytes() > 0 {
                eprintln!(
                    "[collect] recovered {spath}: discarded {} bytes of torn tail; the \
                     interrupted pair will be re-collected",
                    store.recovered_bytes()
                );
            }
            let mut sink = Progress::new(store);
            let outcome = drive(&backend, &config, &key, workers, rate, in_flight, &mut sink);
            let store = sink.into_inner();
            let stats = store.stats();
            outln!(
                "store {spath}: {}/{} pairs committed, {} records, {} unique blobs \
                 (dedup ×{:.2}), {} quota units total",
                stats.committed_pairs,
                stats.planned_pairs.unwrap_or(0),
                stats.records,
                stats.blobs,
                stats.dedup_ratio(),
                stats.quota_units
            );
            outcome?;
            if let Some(out) = args.get("out") {
                let dataset = store
                    .load_dataset()
                    .map_err(|e| ArgError(format!("cannot load dataset from {spath}: {e}")))?;
                write_dataset_json(out, &dataset)?;
            }
        }
        None => {
            let out = args.get("out").unwrap_or("dataset.json").to_string();
            let mut sink = Progress::new(MemorySink::new());
            drive(&backend, &config, &key, workers, rate, in_flight, &mut sink)?;
            let dataset = sink.into_inner().into_dataset();
            write_dataset_json(&out, &dataset)?;
        }
    }
    Ok(())
}

/// Writes the dataset atomically (`<out>.tmp` + rename), so an
/// interrupted write can never leave a half-serialized dataset at the
/// target path.
fn write_dataset_json(out: &str, dataset: &ytaudit_core::AuditDataset) -> Result<(), ArgError> {
    let json = dataset
        .to_json()
        .map_err(|e| ArgError(format!("cannot serialize dataset: {e}")))?;
    write_atomic(out, &json).map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    outln!(
        "wrote {out}: {} snapshots, {} videos with metadata, {} channels",
        dataset.len(),
        dataset.video_meta.len(),
        dataset.channel_meta.len()
    );
    Ok(())
}
