//! `ytaudit serve` — run the simulated Data API on a real socket, one
//! thread per connection, with optional multi-tenant admission.

use crate::args::{ArgError, Args};
use std::sync::Arc;
use std::time::Duration;
use ytaudit_api::service::FaultConfig;
use ytaudit_api::{ApiService, RESEARCHER_DAILY_QUOTA};
use ytaudit_net::server::{Server, ServerConfig};
use ytaudit_platform::{Corpus, CorpusConfig, Platform, SimClock};
use ytaudit_sched::{MetricsRegistry, QuotaGovernor, ServeFront, TenantRegistry};

/// Usage text.
pub const USAGE: &str = "\
ytaudit serve — start the simulated YouTube Data API v3

OPTIONS:
    --addr <host:port>      bind address        (default 127.0.0.1:8080)
    --scale <f64>           corpus scale        (default 1.0)
    --seed <u64>            corpus seed         (default the calibrated seed)
    --researcher-key <KEY>  register KEY with researcher-program quota
                            (repeatable; all other keys get 10 000/day)
    --miss-rate <f64>       Videos.list metadata-miss rate (default 0.012)
    --error-rate <f64>      transient 500 rate             (default 0.0)
    --idle-timeout-ms <N>   keep-alive idle timeout        (default 5000)
    --max-conns <N>         connection cap; arrivals past it are shed
                            with 429 + Retry-After         (default 8192)
    --max-in-flight <N>     global in-flight request cap; 0 = uncapped
    --tenant-key <KEY>      admit KEY through its own quota bucket
                            (repeatable; unknown keys use service auth)
    --tenant-rate <f64>     per-tenant refill in quota units/sec
                            (default 1000; burst = 10x rate)

Tenanted serving prices each request in quota units (search 100, all
other endpoints 1) and sheds with 429 + Retry-After when a tenant's
bucket is empty. GET /metrics renders admission and latency counters.
The server understands the X-Sim-Time request header and the
POST /admin/clock endpoint for time travel; see README.md.";

fn build_service(args: &Args) -> Result<Arc<ApiService>, ArgError> {
    let scale: f64 = args.get_parsed("scale", 1.0)?;
    let mut config = CorpusConfig {
        scale,
        ..CorpusConfig::default()
    };
    if let Some(seed) = args.get("seed") {
        config.seed = seed
            .parse()
            .map_err(|_| ArgError(format!("invalid --seed {seed:?}")))?;
    }
    let faults = FaultConfig {
        metadata_miss_rate: args.get_parsed("miss-rate", 0.012)?,
        backend_error_rate: args.get_parsed("error-rate", 0.0)?,
    };
    eprintln!("[serve] generating corpus (scale {scale})…");
    let platform = Platform::new(Corpus::generate(config));
    eprintln!(
        "[serve] corpus ready: {} videos, {} channels, {} comments",
        platform.corpus().video_count(),
        platform.corpus().channels.len(),
        platform.corpus().comments.len()
    );
    let service = Arc::new(
        ApiService::new(Arc::new(platform), SimClock::at_audit_start()).with_faults(faults),
    );
    for key in args.get_all("researcher-key") {
        service.quota().register(key, RESEARCHER_DAILY_QUOTA);
        eprintln!("[serve] registered researcher key {key:?}");
    }
    Ok(service)
}

fn build_front(args: &Args, service: &Arc<ApiService>) -> Result<Arc<ServeFront>, ArgError> {
    let max_in_flight: u64 = args.get_parsed("max-in-flight", 0u64)?;
    let tenant_rate: f64 = args.get_parsed("tenant-rate", 1000.0)?;
    let front = Arc::new(ServeFront::new(
        Arc::clone(service),
        Arc::new(TenantRegistry::new()),
        Arc::new(MetricsRegistry::new()),
        max_in_flight,
    ));
    for key in args.get_all("tenant-key") {
        front.tenants().register(
            key,
            QuotaGovernor::per_second(tenant_rate, tenant_rate * 10.0),
        );
        eprintln!("[serve] tenant {key:?} admitted at {tenant_rate} units/sec");
    }
    Ok(front)
}

fn server_config(args: &Args) -> Result<ServerConfig, ArgError> {
    let defaults = ServerConfig::default();
    let idle_timeout = Duration::from_millis(args.get_parsed("idle-timeout-ms", 5_000u64)?);
    let max_connections = args.get_parsed("max-conns", defaults.max_connections)?;
    Ok(ServerConfig {
        idle_timeout,
        max_connections,
        ..defaults
    })
}

fn serve_forever(base_url: &str) -> Result<(), ArgError> {
    outln!(
        "try: curl '{base_url}/youtube/v3/search?part=snippet&q=higgs+boson&type=video&key=demo'"
    );
    outln!("     curl '{base_url}/metrics'");
    // Block forever; the process exits on signal. The server handle
    // stays alive in the caller's scope.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Runs the command (blocks until ctrl-c).
pub fn run(args: &Args) -> Result<(), ArgError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let service = build_service(args)?;
    let front = build_front(args, &service)?;
    let config = server_config(args)?;
    let server = Server::bind(&addr, front, config)
        .map_err(|e| ArgError(format!("cannot bind {addr}: {e}")))?;
    outln!("listening on {} (thread per connection)", server.base_url());
    serve_forever(&server.base_url())
}
