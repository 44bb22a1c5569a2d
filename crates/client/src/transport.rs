//! Transports: how a request reaches the (simulated) Data API.
//!
//! The audit harness runs against either transport interchangeably — the
//! in-process one for speed, the HTTP one to exercise the full REST path —
//! and an integration test asserts byte-identical behaviour between them.

use std::sync::Arc;
use ytaudit_api::quota::Endpoint;
use ytaudit_api::service::{ApiRequest, ApiService};
use ytaudit_net::url::encode_component;
use ytaudit_net::{HttpClient, Request, Url};
use ytaudit_types::{Error, Result, Timestamp};

/// A way to execute one Data API call.
pub trait Transport: Send + Sync {
    /// Executes the call, returning HTTP status and JSON body.
    fn execute(
        &self,
        endpoint: Endpoint,
        params: &[(String, String)],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Result<(u16, String)>;

    /// Executes a batch of calls against one endpoint, returning one
    /// result per parameter set, in order. The default implementation is
    /// a sequential loop; transports with a faster path (HTTP
    /// pipelining) override it. Implementations must behave
    /// observably like the sequential loop — same responses in the same
    /// order — so callers can treat the batch as an optimisation only.
    fn execute_many(
        &self,
        endpoint: Endpoint,
        param_sets: &[Vec<(String, String)>],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Vec<Result<(u16, String)>> {
        param_sets
            .iter()
            .map(|params| self.execute(endpoint, params, api_key, now))
            .collect()
    }

    /// How many calls this transport would like to receive per
    /// [`Transport::execute_many`] batch. Callers that must preserve
    /// call-by-call failure semantics (stop issuing on a fatal error)
    /// chunk their batches to this size: a sequential transport returns
    /// 1 and behaves exactly like a loop of [`Transport::execute`],
    /// while a pipelining transport returns its in-flight depth and
    /// accepts that up to `preferred_batch - 1` calls may be issued past
    /// a fatal error.
    fn preferred_batch(&self) -> usize {
        1
    }

    /// A short label for diagnostics.
    fn label(&self) -> &'static str;
}

/// Calls the service directly in-process (no sockets).
pub struct InProcessTransport {
    service: Arc<ApiService>,
}

impl InProcessTransport {
    /// Wraps a service.
    pub fn new(service: Arc<ApiService>) -> InProcessTransport {
        InProcessTransport { service }
    }
}

impl Transport for InProcessTransport {
    fn execute(
        &self,
        endpoint: Endpoint,
        params: &[(String, String)],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Result<(u16, String)> {
        Ok(self.service.handle(&ApiRequest {
            endpoint,
            params,
            api_key: Some(api_key),
            now_override: now,
        }))
    }

    fn label(&self) -> &'static str {
        "in-process"
    }
}

/// Calls the API over HTTP via `ytaudit-net`. The underlying client is
/// held behind an `Arc` so a caller (the scheduler's transport factory)
/// can keep a handle to read connection-pool statistics after the run.
pub struct HttpTransport {
    client: Arc<HttpClient>,
    base_url: String,
    max_in_flight: usize,
}

impl HttpTransport {
    /// Targets a served API at `base_url` (e.g. `http://127.0.0.1:4321`).
    pub fn new(base_url: impl Into<String>) -> HttpTransport {
        HttpTransport::with_client(base_url, HttpClient::new())
    }

    /// Uses an existing HTTP client (custom timeouts etc.).
    pub fn with_client(base_url: impl Into<String>, client: HttpClient) -> HttpTransport {
        HttpTransport::with_shared_client(base_url, Arc::new(client))
    }

    /// Uses a shared HTTP client, leaving the caller a handle to the
    /// client's connection pool (for keep-alive statistics).
    pub fn with_shared_client(
        base_url: impl Into<String>,
        client: Arc<HttpClient>,
    ) -> HttpTransport {
        HttpTransport {
            client,
            base_url: base_url.into(),
            max_in_flight: 1,
        }
    }

    /// Lets [`Transport::execute_many`] keep up to `depth` requests
    /// pipelined on one connection. Depth 1 (the default) is plain
    /// sequential keep-alive.
    pub fn with_max_in_flight(mut self, depth: usize) -> HttpTransport {
        self.max_in_flight = depth.max(1);
        self
    }

    /// Builds the URL and GET request for one API call.
    fn build_request(
        &self,
        endpoint: Endpoint,
        params: &[(String, String)],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Result<(Url, Request)> {
        let mut query = String::new();
        for (k, v) in params {
            if !query.is_empty() {
                query.push('&');
            }
            query.push_str(&encode_component(k));
            query.push('=');
            query.push_str(&encode_component(v));
        }
        if !query.is_empty() {
            query.push('&');
        }
        query.push_str("key=");
        query.push_str(&encode_component(api_key));
        let url_text = format!("{}/youtube/v3/{}?{}", self.base_url, endpoint.path(), query);
        let url = Url::parse(&url_text).map_err(|e| Error::Protocol(e.to_string()))?;
        let mut request = Request::get(url.path.clone()).with_query(url.query.clone());
        if let Some(t) = now {
            request = request.with_header("x-sim-time", t.to_rfc3339());
        }
        Ok((url, request))
    }
}

/// Decodes an HTTP response into the transport's (status, body) pair.
fn decode_response(response: ytaudit_net::Response) -> Result<(u16, String)> {
    let body = String::from_utf8(response.body)
        .map_err(|_| Error::Decode("non-UTF-8 response body".into()))?;
    Ok((response.status.0, body))
}

impl Transport for HttpTransport {
    fn execute(
        &self,
        endpoint: Endpoint,
        params: &[(String, String)],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Result<(u16, String)> {
        let (url, request) = self.build_request(endpoint, params, api_key, now)?;
        let response = self
            .client
            .send(&url, &request)
            .map_err(|e| Error::Io(e.to_string()))?;
        decode_response(response)
    }

    fn execute_many(
        &self,
        endpoint: Endpoint,
        param_sets: &[Vec<(String, String)>],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Vec<Result<(u16, String)>> {
        // All calls share one authority, so the whole batch can ride
        // pipelined connections. Request building is infallible for the
        // parameter sets the client produces, but a malformed one fails
        // just its own slot.
        let mut url = None;
        let mut requests = Vec::with_capacity(param_sets.len());
        let built: Vec<Result<()>> = param_sets
            .iter()
            .map(|params| {
                let (u, request) = self.build_request(endpoint, params, api_key, now)?;
                url.get_or_insert(u);
                requests.push(request);
                Ok(())
            })
            .collect();
        let mut responses = match url {
            Some(url) => self
                .client
                .send_pipelined(&url, &requests, self.max_in_flight)
                .into_iter(),
            None => Vec::new().into_iter(),
        };
        built
            .into_iter()
            .map(|b| match b {
                Ok(()) => match responses.next() {
                    Some(Ok(response)) => decode_response(response),
                    Some(Err(err)) => Err(Error::Io(err.to_string())),
                    None => Err(Error::Io(
                        "pipelined batch returned too few responses".into(),
                    )),
                },
                Err(err) => Err(err),
            })
            .collect()
    }

    fn preferred_batch(&self) -> usize {
        self.max_in_flight
    }

    fn label(&self) -> &'static str {
        "http"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_platform::{Platform, SimClock};

    fn service() -> Arc<ApiService> {
        let service = Arc::new(ApiService::new(
            Arc::new(Platform::small(0.15)),
            SimClock::at_audit_start(),
        ));
        service.quota().register("k", 100_000_000);
        service
    }

    fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn in_process_and_http_agree_exactly() {
        let svc = service();
        let in_process = InProcessTransport::new(Arc::clone(&svc));
        let server = ytaudit_api::serve(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let http = HttpTransport::new(server.base_url());

        let cases: Vec<(Endpoint, Vec<(String, String)>)> = vec![
            (
                Endpoint::Search,
                params(&[
                    ("part", "snippet"),
                    ("q", "higgs boson"),
                    ("type", "video"),
                    ("order", "date"),
                    ("maxResults", "25"),
                ]),
            ),
            (
                Endpoint::Videos,
                params(&[
                    ("part", "snippet,statistics"),
                    (
                        "id",
                        svc.platform().corpus().topics[0].videos[0].id.as_str(),
                    ),
                ]),
            ),
            (
                Endpoint::Channels,
                params(&[
                    ("part", "statistics"),
                    ("id", svc.platform().corpus().channels[0].id.as_str()),
                ]),
            ),
            // An error case: the envelopes must match too.
            (Endpoint::Search, params(&[("part", "snippet")])),
        ];
        let now = Some(Timestamp::from_ymd(2025, 3, 1).unwrap());
        for (endpoint, p) in cases {
            let a = in_process.execute(endpoint, &p, "k", now).unwrap();
            let b = http.execute(endpoint, &p, "k", now).unwrap();
            // Bodies contain etags derived from content; statuses and
            // bodies must agree exactly because the service is
            // deterministic at a fixed simulated time.
            assert_eq!(a.0, b.0, "status mismatch on {endpoint:?}");
            assert_eq!(a.1, b.1, "body mismatch on {endpoint:?}");
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_execute_many_matches_sequential_execute() {
        let svc = service();
        let server = ytaudit_api::serve(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let sequential = HttpTransport::new(server.base_url());
        let pipelined = HttpTransport::new(server.base_url()).with_max_in_flight(4);

        let queries = [
            "higgs boson",
            "black lives matter",
            "brexit",
            "measles",
            "net neutrality",
        ];
        let param_sets: Vec<Vec<(String, String)>> = queries
            .iter()
            .map(|q| {
                params(&[
                    ("part", "snippet"),
                    ("q", q),
                    ("type", "video"),
                    ("order", "date"),
                    ("maxResults", "10"),
                ])
            })
            .collect();
        let now = Some(Timestamp::from_ymd(2025, 3, 1).unwrap());
        let batched = pipelined.execute_many(Endpoint::Search, &param_sets, "k", now);
        assert_eq!(batched.len(), param_sets.len());
        for (params, result) in param_sets.iter().zip(batched) {
            let (status, body) = result.unwrap();
            let (ref_status, ref_body) = sequential
                .execute(Endpoint::Search, params, "k", now)
                .unwrap();
            assert_eq!(status, ref_status);
            assert_eq!(body, ref_body, "pipelined body diverged for {params:?}");
        }
        server.shutdown();
    }

    #[test]
    fn http_transport_reports_connection_failures() {
        let http = HttpTransport::new("http://127.0.0.1:1");
        let err = http
            .execute(
                Endpoint::Videos,
                &params(&[("part", "id"), ("id", "x")]),
                "k",
                None,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
