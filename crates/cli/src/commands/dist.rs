//! `ytaudit coordinate` / `ytaudit work` — distribute a collection
//! plan across processes: the coordinator leases topic ranges over
//! HTTP, workers execute them through the ordinary scheduler and ship
//! their shard stores back for a byte-canonical merge.

use crate::args::{ArgError, Args};
use crate::commands::collect::{build_backend, plan_config, plan_options, Backend};
use crate::commands::parse_topics;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use ytaudit_dist::{run_worker, Coordinator, HttpChannel, WorkerConfig};
use ytaudit_net::server::{Server, ServerConfig};
use ytaudit_platform::clock::RealClock;
use ytaudit_sched::SchedulerConfig;

/// Usage text for `ytaudit coordinate`.
pub const COORDINATE_USAGE: &str = concat!(
    "\
ytaudit coordinate — lease a collection plan to workers over HTTP

PLAN (same flags as `ytaudit collect`):
",
    plan_options!(),
    "
COORDINATION:
    --store <file.yts>       merge destination; shard stores are received
                             beside it under the `store merge` naming
                             scheme (required; must not exist yet)
    --shards <N>             topic ranges to lease, plus the channels-only
                             finish range granted once every topic range
                             has committed                   (default 2)
    --listen <host:port>     bind address                    (default 127.0.0.1:0)
    --ttl-secs <N>           lease time-to-live; a worker that stops
                             renewing for this long forfeits its range
                             and the lease is re-issued      (default 30)
    --merge                  once every range has committed, fold the
                             received shards into --store (otherwise run
                             `ytaudit store merge <store>` afterwards)

The coordinator serves GET /dist/status and GET /dist/metrics for
observability, restarts crash-safe (committed shards are re-adopted
from disk), and exits once every range — including the finish range —
has been shipped and installed. Duplicate ships from stale leases are
verified no-ops, so the merged store is byte-identical to a
single-sink `ytaudit collect --store` run of the same plan."
);

/// Usage text for `ytaudit work`.
pub const WORK_USAGE: &str = "\
ytaudit work — execute leased ranges for a `ytaudit coordinate` process

OPTIONS:
    --coordinator <URL>      coordinator base URL (required), e.g.
                             http://127.0.0.1:4321
    --workdir <dir>          where local shard stores are staged before
                             shipping                        (default dist-work)
    --name <worker name>     name reported on lease requests (default worker)
    --key <API KEY>          API key for collection          (default cli-key)
    --workers <N>            scheduler workers per leased range (default 2)
    --scale <f64>            in-process corpus scale         (default 1.0)
    --seed <u64>             in-process corpus seed
    --base-url <URL>         collect against a served API instead of an
                             in-process platform (every worker process must
                             then share that API so shards agree)
    --platform <name>        backend of the in-process platform: youtube |
                             tiktok (default youtube; must match the
                             coordinator's plan)

The worker leases ranges until the coordinator reports the plan done:
each range runs through the ordinary scheduler into a local shard
store (crash-resumable, like `collect --resume`), is shipped back in
CRC-checked chunks, and committed exactly once — a lease lost to a ttl
expiry simply abandons the range to whichever worker re-leased it.";

/// Runs `ytaudit coordinate`.
pub fn coordinate(args: &Args) -> Result<(), ArgError> {
    let topics = parse_topics(args.get("topics"))?;
    let config = plan_config(args, topics)?;
    let store = args
        .get("store")
        .ok_or_else(|| ArgError("--store is required".into()))?
        .to_string();
    let shards: usize = args.get_parsed("shards", 2)?;
    let ttl_secs: u64 = args.get_parsed("ttl-secs", 30)?;
    if ttl_secs == 0 {
        return Err(ArgError("--ttl-secs must be at least 1".into()));
    }
    let listen = args.get("listen").unwrap_or("127.0.0.1:0").to_string();

    let coordinator = Coordinator::new(
        &config,
        shards,
        Path::new(&store),
        Duration::from_secs(ttl_secs),
        Arc::new(RealClock::default()),
    )
    .map_err(|e| ArgError(format!("cannot start coordinator: {e}")))?;
    let coordinator = Arc::new(coordinator);
    let handler: Arc<dyn ytaudit_net::Handler> = Arc::clone(&coordinator) as _;
    let server = Server::bind(&listen, handler, ServerConfig::default())
        .map_err(|e| ArgError(format!("cannot bind {listen}: {e}")))?;
    let total = coordinator.plan().total_ranges();
    println!(
        "coordinating {} topic ranges + finish on {}",
        total - 1,
        server.base_url()
    );
    println!("workers:  ytaudit work --coordinator {}", server.base_url());
    println!("status:   {}/dist/status", server.base_url());
    println!("metrics:  {}/dist/metrics", server.base_url());

    // Poll for completion; the protocol work all happens on server
    // threads, so this loop only watches the lease table.
    while !coordinator.all_committed() {
        std::thread::sleep(Duration::from_millis(200));
    }
    eprint!("{}", coordinator.metrics_page());
    server.shutdown();

    if args.flag("merge") {
        let report = coordinator
            .merge()
            .map_err(|e| ArgError(format!("merge failed: {e}")))?;
        println!(
            "merged {} shards into {store}: {} pairs, {} bytes",
            total, report.pairs_merged, report.bytes
        );
    } else {
        println!("all ranges committed; fold the shards with `ytaudit store merge {store}`");
    }
    Ok(())
}

/// Runs `ytaudit work`.
pub fn work(args: &Args) -> Result<(), ArgError> {
    let url = args
        .get("coordinator")
        .ok_or_else(|| ArgError("--coordinator is required".into()))?;
    let workdir = args.get("workdir").unwrap_or("dist-work").to_string();
    let name = args.get("name").unwrap_or("worker").to_string();
    let key = args.get("key").unwrap_or("cli-key").to_string();
    let workers: usize = args.get_parsed("workers", 2)?;
    let backend = build_backend(args, &key, "work")?;
    if !matches!(backend, Backend::Http(_)) && args.get("base-url").is_none() {
        eprintln!(
            "[work] note: using a private in-process platform; run every worker with \
             the same --scale/--seed (the defaults agree) so shards describe one corpus"
        );
    }

    let chan = HttpChannel::new(url)
        .map_err(|e| ArgError(format!("invalid --coordinator {url:?}: {e}")))?;
    let cfg = WorkerConfig::new(&name, &workdir, SchedulerConfig::new(workers, &key));
    let factory = backend.factory(1);
    let report = run_worker(&chan, factory.as_ref(), &cfg)
        .map_err(|e| ArgError(format!("worker failed: {e}")))?;
    println!(
        "worker {name}: {} leases, {} committed, {} duplicate, {} abandoned, {} waits",
        report.leases, report.committed, report.duplicates, report.abandoned, report.waits
    );
    Ok(())
}
