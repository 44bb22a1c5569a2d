//! Transports: how a request reaches the (simulated) Data API.
//!
//! The audit harness runs against either transport interchangeably — the
//! in-process one for speed, the HTTP one to exercise the full REST path —
//! and an integration test asserts byte-identical behaviour between them.

use std::sync::Arc;
use ytaudit_api::quota::Endpoint;
use ytaudit_api::service::{ApiRequest, ApiService};
use ytaudit_net::framing::Outgoing;
use ytaudit_net::url::encode_component_into;
use ytaudit_net::{HttpClient, Method, Url};
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
    /// The base URL, parsed once, or why it does not parse.
    base: std::result::Result<Base, Error>,
    max_in_flight: usize,
}

/// A parsed base URL: where to connect, and the path prefix its text
/// carries before `/youtube/v3/…` (empty for `http://host:port`).
struct Base {
    url: Url,
    prefix: String,
}

impl Base {
    fn parse(text: &str) -> Result<Base> {
        let url = Url::parse(text).map_err(|e| Error::Protocol(e.to_string()))?;
        if text.contains(['?', '#']) {
            return Err(Error::Protocol(format!(
                "base URL {text:?} must not carry a query or fragment"
            )));
        }
        // `Url::parse` accepted `scheme://authority[/path]`; the path is
        // whatever follows the authority, verbatim.
        let after_scheme = text.split_once("://").map_or("", |(_, rest)| rest);
        let prefix = after_scheme
            .find('/')
            .map_or("", |at| &after_scheme[at..])
            .to_string();
        Ok(Base { url, prefix })
    }
}

/// One Data API call as it goes on the wire, written straight from its
/// parts into the connection's buffer: each parameter is percent-encoded
/// once, and no `Request` or query string is built.
struct ApiCall<'a> {
    prefix: &'a str,
    endpoint: Endpoint,
    params: &'a [(String, String)],
    api_key: &'a str,
    now: Option<Timestamp>,
}

impl Outgoing for ApiCall<'_> {
    fn method(&self) -> Method {
        Method::Get
    }

    fn write_target(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.prefix.as_bytes());
        out.extend_from_slice(b"/youtube/v3/");
        out.extend_from_slice(self.endpoint.path().as_bytes());
        out.push(b'?');
        for (k, v) in self.params {
            encode_component_into(out, k);
            out.push(b'=');
            encode_component_into(out, v);
            out.push(b'&');
        }
        out.extend_from_slice(b"key=");
        encode_component_into(out, self.api_key);
    }

    fn write_headers(&self, out: &mut Vec<u8>) {
        if let Some(t) = self.now {
            out.extend_from_slice(b"x-sim-time: ");
            // Writing to a byte buffer cannot fail.
            let _ = t.write_rfc3339(&mut Bytes(out));
            out.extend_from_slice(b"\r\n");
        }
    }

    fn has_header(&self, name: &str) -> bool {
        name == "x-sim-time" && self.now.is_some()
    }

    fn body(&self) -> &[u8] {
        &[]
    }
}

/// `fmt::Write` onto a byte buffer.
struct Bytes<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
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
            base: Base::parse(&base_url.into()),
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

    /// The parsed base URL, or the error every call reports.
    fn base(&self) -> Result<&Base> {
        self.base.as_ref().map_err(Clone::clone)
    }
}

/// Decodes an HTTP response into the transport's (status, body) pair.
fn decode_response(response: ytaudit_net::Result<ytaudit_net::Response>) -> Result<(u16, String)> {
    let response = response.map_err(|e| Error::Io(e.to_string()))?;
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
        let base = self.base()?;
        let call = ApiCall {
            prefix: &base.prefix,
            endpoint,
            params,
            api_key,
            now,
        };
        decode_response(self.client.send(&base.url, &call))
    }

    fn execute_many(
        &self,
        endpoint: Endpoint,
        param_sets: &[Vec<(String, String)>],
        api_key: &str,
        now: Option<Timestamp>,
    ) -> Vec<Result<(u16, String)>> {
        // All calls share one authority, so the whole batch can ride
        // pipelined connections.
        let base = match self.base() {
            Ok(base) => base,
            Err(err) => return param_sets.iter().map(|_| Err(err.clone())).collect(),
        };
        let calls: Vec<ApiCall<'_>> = param_sets
            .iter()
            .map(|params| ApiCall {
                prefix: &base.prefix,
                endpoint,
                params,
                api_key,
                now,
            })
            .collect();
        self.client
            .send_pipelined(&base.url, &calls, self.max_in_flight)
            .into_iter()
            .map(decode_response)
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
    fn base_urls_parse_once_into_an_address_and_a_path_prefix() {
        for (text, prefix) in [
            ("http://127.0.0.1:4321", ""),
            ("http://127.0.0.1:4321/", "/"),
            ("http://localhost/api/v1", "/api/v1"),
        ] {
            let base = Base::parse(text).unwrap();
            assert_eq!(base.prefix, prefix, "{text}");
            assert_eq!(
                base.url.path.trim_end_matches('/'),
                prefix.trim_end_matches('/')
            );
        }
        for bad in [
            "127.0.0.1:4321",
            "ftp://h/",
            "http://h/?key=x",
            "http://h/#top",
        ] {
            assert!(matches!(Base::parse(bad), Err(Error::Protocol(_))), "{bad}");
        }
        // Every call reports a bad base URL; none panics or dials.
        let http = HttpTransport::new("not a url");
        let p = params(&[("part", "id")]);
        assert!(matches!(
            http.execute(Endpoint::Videos, &p, "k", None),
            Err(Error::Protocol(_))
        ));
        let batch = http.execute_many(Endpoint::Videos, &[p.clone(), p], "k", None);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|r| matches!(r, Err(Error::Protocol(_)))));
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
