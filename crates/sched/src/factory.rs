//! Per-worker transport construction. Every worker owns its own client
//! (and, over HTTP, its own keep-alive connection), so the factory is
//! the seam where the scheduler stays transport-agnostic.

use parking_lot::Mutex;
use std::sync::Arc;
use ytaudit_api::ApiService;
use ytaudit_client::{HttpTransport, InProcessTransport, Transport, YouTubeClient};
use ytaudit_core::Platform;
use ytaudit_net::HttpClient;
use ytaudit_tiktok_sim::{TikTokClient, TikTokService, TikTokTransport};
use ytaudit_types::PlatformKind;

/// Connection-level totals aggregated across every transport a factory
/// has built. In-process transports have no connections and report the
/// default (all zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionTotals {
    /// TCP connections opened.
    pub opened: u64,
    /// Requests served over a reused keep-alive connection.
    pub reused: u64,
    /// Requests resubmitted after a connection died under them (stale
    /// keep-alive replays and pipeline resubmissions).
    pub replayed: u64,
    /// Healthy connections closed because an idle pool was full.
    pub discarded: u64,
    /// Requests answered with `429 Too Many Requests` — shed by the
    /// server under load, distinct from local pool discards.
    pub shed: u64,
    /// Highest pipeline depth any connection reached (1 = plain
    /// sequential keep-alive).
    pub pipeline_depth: u64,
}

/// Builds one transport per worker.
pub trait TransportFactory: Send + Sync {
    /// A fresh transport for one worker's client.
    fn transport(&self) -> Box<dyn Transport>;

    /// Connection totals across every transport built so far.
    fn connection_stats(&self) -> ConnectionTotals {
        ConnectionTotals::default()
    }

    /// Which backend this factory's clients speak. The scheduler checks
    /// it against the plan's recorded platform before collecting, and
    /// the quota governor paces at this backend's `unit_cost`.
    fn platform(&self) -> PlatformKind {
        PlatformKind::Youtube
    }

    /// Wraps a (possibly governed) transport in the backend's typed
    /// client. The default builds the YouTube client; TikTok-speaking
    /// factories override it.
    fn client(&self, transport: Box<dyn Transport>, api_key: &str) -> Box<dyn Platform> {
        Box::new(YouTubeClient::new(transport, api_key))
    }
}

/// Workers call the service directly in-process (no sockets).
pub struct InProcessFactory {
    service: Arc<ApiService>,
}

impl InProcessFactory {
    /// Wraps a service.
    pub fn new(service: Arc<ApiService>) -> InProcessFactory {
        InProcessFactory { service }
    }
}

impl TransportFactory for InProcessFactory {
    fn transport(&self) -> Box<dyn Transport> {
        Box::new(InProcessTransport::new(Arc::clone(&self.service)))
    }
}

/// Workers call a served API over HTTP. Each worker gets its own
/// `HttpClient` (its own keep-alive pool, so connections are never
/// contended across workers); the factory keeps a handle to every
/// client to aggregate connection-reuse counters after the run.
pub struct HttpFactory {
    base_url: String,
    max_in_flight: usize,
    clients: Mutex<Vec<Arc<HttpClient>>>,
}

impl HttpFactory {
    /// Targets a served API at `base_url`.
    pub fn new(base_url: impl Into<String>) -> HttpFactory {
        HttpFactory {
            base_url: base_url.into(),
            max_in_flight: 1,
            clients: Mutex::new(Vec::new()),
        }
    }

    /// Lets each worker's transport keep up to `depth` requests
    /// pipelined on its connection (depth 1, the default, is plain
    /// sequential keep-alive).
    pub fn with_max_in_flight(mut self, depth: usize) -> HttpFactory {
        self.max_in_flight = depth.max(1);
        self
    }
}

/// Workers call the in-process TikTok research-API simulator. The
/// harness above the [`ytaudit_core::Platform`] seam is identical; only
/// the client, cost model (one unit per request), and wire format
/// change.
pub struct TikTokFactory {
    service: Arc<TikTokService>,
}

impl TikTokFactory {
    /// Wraps a TikTok service.
    pub fn new(service: Arc<TikTokService>) -> TikTokFactory {
        TikTokFactory { service }
    }
}

impl TransportFactory for TikTokFactory {
    fn transport(&self) -> Box<dyn Transport> {
        Box::new(TikTokTransport::new(Arc::clone(&self.service)))
    }

    fn platform(&self) -> PlatformKind {
        PlatformKind::Tiktok
    }

    fn client(&self, transport: Box<dyn Transport>, api_key: &str) -> Box<dyn Platform> {
        Box::new(TikTokClient::new(transport, api_key))
    }
}

impl TransportFactory for HttpFactory {
    fn transport(&self) -> Box<dyn Transport> {
        let client = Arc::new(HttpClient::new());
        self.clients.lock().push(Arc::clone(&client));
        Box::new(
            HttpTransport::with_shared_client(self.base_url.clone(), client)
                .with_max_in_flight(self.max_in_flight),
        )
    }

    fn connection_stats(&self) -> ConnectionTotals {
        let clients = self.clients.lock();
        let mut totals = ConnectionTotals::default();
        for client in clients.iter() {
            let stats = client.pool_stats();
            totals.opened += stats.opened();
            totals.reused += stats.reused();
            totals.replayed += stats.replays();
            totals.discarded += stats.discarded();
            totals.shed += stats.shed();
            totals.pipeline_depth = totals.pipeline_depth.max(stats.pipeline_depth_hwm());
        }
        totals
    }
}
