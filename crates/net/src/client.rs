//! A blocking HTTP/1.1 client with per-host connection reuse.
//!
//! The audit issues thousands of small sequential GETs against one host;
//! reusing the TCP connection (keep-alive) removes per-request handshake
//! cost and mirrors how real collection scripts behave. Every send — a
//! single call or a batch — goes through one pipelined driver; a single
//! call is a batch of one at depth 1. Stale pooled connections (closed by
//! the server between requests) are detected by the first read failing and
//! their idempotent requests replayed on a fresh connection.

use crate::framing::{FrameLimits, MessageReader, Outgoing};
use crate::message::{Method, Request, Response};
use crate::pipeline::PipelinedConn;
use crate::url::Url;
use crate::{NetError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read socket timeout.
    pub read_timeout: Duration,
    /// Frame limits for responses.
    pub limits: FrameLimits,
    /// Maximum idle connections kept per host.
    pub max_idle_per_host: usize,
    /// `User-Agent` header value.
    pub user_agent: String,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            limits: FrameLimits::default(),
            max_idle_per_host: 4,
            user_agent: "ytaudit-net/0.1".to_string(),
        }
    }
}

/// One pooled connection: the buffered read half plus a cloned write half
/// and its (empty) write buffer, kept together so buffered bytes and the
/// buffer's capacity survive reuse.
struct PooledConn {
    reader: MessageReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

/// A request as the client sends it: the caller's request, plus the
/// client's `user-agent` when the request carries none.
struct WithAgent<'a, M: ?Sized> {
    request: &'a M,
    agent: &'a str,
}

impl<M: Outgoing + ?Sized> Outgoing for WithAgent<'_, M> {
    fn method(&self) -> Method {
        self.request.method()
    }

    fn write_target(&self, out: &mut Vec<u8>) {
        self.request.write_target(out);
    }

    fn write_headers(&self, out: &mut Vec<u8>) {
        self.request.write_headers(out);
        if !self.request.has_header("user-agent") {
            out.extend_from_slice(b"user-agent: ");
            out.extend_from_slice(self.agent.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }

    fn has_header(&self, name: &str) -> bool {
        name == "user-agent" || self.request.has_header(name)
    }

    fn body(&self) -> &[u8] {
        self.request.body()
    }
}

/// Lifetime connection counters: how many TCP connections the client
/// opened versus how many requests rode an existing keep-alive
/// connection. `reused / (opened + reused)` is the keep-alive hit rate;
/// `discarded` keeps that arithmetic honest when the idle pool overflows,
/// and `replays` counts idempotent requests resent after a connection
/// died under them.
#[derive(Debug, Default)]
pub struct PoolStats {
    opened: AtomicU64,
    reused: AtomicU64,
    replays: AtomicU64,
    discarded: AtomicU64,
    shed: AtomicU64,
    depth_hwm: AtomicU64,
}

impl PoolStats {
    /// TCP connections dialled (including replacements for stale pooled
    /// connections).
    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Requests served over a reused keep-alive connection.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Idempotent requests replayed on a fresh connection after a stale
    /// or mid-pipeline connection failure.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Healthy connections closed instead of pooled because the per-host
    /// idle pool was full.
    pub fn discarded(&self) -> u64 {
        self.discarded.load(Ordering::Relaxed)
    }

    /// Responses that arrived as `429 Too Many Requests` — the server
    /// shed the request under load. Distinct from [`PoolStats::discarded`]:
    /// a shed request got a real (retryable) answer, a discard is purely a
    /// local pool-capacity decision about a healthy connection.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// High-water mark of pipelined requests in flight on one connection
    /// (1 for a purely sequential client).
    pub fn pipeline_depth_hwm(&self) -> u64 {
        self.depth_hwm.load(Ordering::Relaxed)
    }

    fn note_response(&self, response: &Response) {
        if response.status.0 == 429 {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_depth(&self, depth: u64) {
        self.depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// A blocking HTTP client. Cheap to share behind an `Arc`; all state is
/// internally synchronized.
pub struct HttpClient {
    config: ClientConfig,
    pool: Mutex<HashMap<String, Vec<PooledConn>>>,
    stats: PoolStats,
}

impl HttpClient {
    /// A client with default configuration.
    pub fn new() -> HttpClient {
        HttpClient::with_config(ClientConfig::default())
    }

    /// A client with explicit configuration.
    pub fn with_config(config: ClientConfig) -> HttpClient {
        HttpClient {
            config,
            pool: Mutex::new(HashMap::new()),
            stats: PoolStats::default(),
        }
    }

    fn connect(&self, url: &Url) -> Result<PooledConn> {
        if url.scheme != "http" {
            return Err(NetError::Protocol(format!(
                "scheme {:?} is not supported by this client (plaintext loopback only)",
                url.scheme
            )));
        }
        let mut last_err = NetError::Io(format!("no addresses resolved for {}", url.authority()));
        let addrs = std::net::ToSocketAddrs::to_socket_addrs(&(url.host.as_str(), url.port))
            .map_err(|e| NetError::Io(e.to_string()))?;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.config.read_timeout))?;
                    stream.set_nodelay(true)?;
                    let writer = stream.try_clone()?;
                    self.stats.opened.fetch_add(1, Ordering::Relaxed);
                    return Ok(PooledConn {
                        reader: MessageReader::new(stream),
                        writer,
                        out: Vec::new(),
                    });
                }
                Err(e) => last_err = NetError::Io(e.to_string()),
            }
        }
        Err(last_err)
    }

    fn checkout(&self, key: &str) -> Option<PooledConn> {
        self.pool.lock().get_mut(key).and_then(Vec::pop)
    }

    fn checkin(&self, key: &str, conn: PooledConn) {
        let mut pool = self.pool.lock();
        let idle = pool.entry(key.to_string()).or_default();
        if idle.len() < self.config.max_idle_per_host {
            idle.push(conn);
        } else {
            // The pool is full: close the socket explicitly (rather than
            // leaking it to the OS to reap) and record the discard so
            // reuse-rate arithmetic stays honest.
            drop(pool);
            let _ = conn.writer.shutdown(std::net::Shutdown::Both);
            self.stats.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sends `request` to `url`'s authority: the pipelined driver with
    /// one request at depth 1, so a single call follows exactly the
    /// batch rules of [`HttpClient::send_pipelined`]. The request's own
    /// path/query are used (callers typically build the request *from*
    /// the URL via [`HttpClient::get`]).
    pub fn send<M: Outgoing>(&self, url: &Url, request: &M) -> Result<Response> {
        self.send_pipelined(url, std::slice::from_ref(request), 1)
            .pop()
            .unwrap_or_else(|| Err(NetError::Protocol("driver returned no response".into())))
    }

    /// Sends a batch of requests to `url`'s authority, keeping up to
    /// `max_in_flight` idempotent requests written ahead on one keep-alive
    /// connection while responses are read back in order (HTTP/1.1
    /// pipelining). Returns one result per request, in request order.
    ///
    /// Fallback rules:
    ///
    /// * A non-idempotent request never rides a pipeline: it is a
    ///   segment of its own, so it can never end up written-but-unanswered
    ///   behind other traffic. If it fails on a *reused* connection before
    ///   a response arrives it is not replayed (it may have executed
    ///   server-side); the caller gets [`NetError::UnexpectedEof`].
    /// * On a stale pooled connection, a `Connection: close`, an early
    ///   close, or a framing error, responses that already arrived are
    ///   kept, the connection is dropped, and the unanswered idempotent
    ///   requests are resubmitted on a fresh connection — counted in
    ///   [`PoolStats::replays`].
    /// * A *fresh* connection that dies without yielding a single response
    ///   fails the remaining requests instead of reconnecting forever.
    ///
    /// `max_in_flight = 1` is sequential keep-alive; [`HttpClient::send`]
    /// is this driver with one request.
    pub fn send_pipelined<M: Outgoing>(
        &self,
        url: &Url,
        requests: &[M],
        max_in_flight: usize,
    ) -> Vec<Result<Response>> {
        let depth = max_in_flight.max(1);
        let mut results = Vec::with_capacity(requests.len());
        let mut rest = requests;
        while !rest.is_empty() {
            // A run of idempotent requests shares a segment; a
            // non-idempotent request is a segment of one.
            let run = rest
                .iter()
                .take_while(|r| r.method().is_idempotent())
                .count()
                .max(1);
            let (segment, tail) = rest.split_at(run);
            self.drive_pipeline(url, segment, depth, &mut results);
            rest = tail;
        }
        results
    }

    /// Drives one segment (a run of idempotent requests, or a single
    /// non-idempotent one) through pipelined connections, appending one
    /// result per request to `results`.
    fn drive_pipeline<M: Outgoing>(
        &self,
        url: &Url,
        requests: &[M],
        depth: usize,
        results: &mut Vec<Result<Response>>,
    ) {
        let key = url.authority();
        let mut answered = 0usize;
        while let Some(first) = requests.get(answered) {
            let remaining = &requests[answered..];
            let (conn, reused) = match self.checkout(&key) {
                Some(conn) => (conn, true),
                None => match self.connect(url) {
                    Ok(conn) => (conn, false),
                    Err(err) => {
                        // Cannot even dial: nothing else can complete.
                        for _ in 0..remaining.len() {
                            results.push(Err(err.clone()));
                        }
                        return;
                    }
                },
            };
            let mut pipe = PipelinedConn::from_parts(conn.reader, conn.writer, conn.out, depth);
            let mut submitted = 0usize;
            let mut got_any = false;
            let outcome: Result<()> = loop {
                // Keep the pipe as full as the depth bound allows. Submits
                // only encode; the batch goes on the wire in one write
                // when the read below needs it.
                while let Some(request) = remaining.get(submitted) {
                    let request = WithAgent {
                        request,
                        agent: &self.config.user_agent,
                    };
                    if pipe.submit(&request, &key).is_err() {
                        break; // refused: full, closed, or not pipelinable
                    }
                    submitted += 1;
                    self.stats.note_depth(pipe.unanswered() as u64);
                }
                if pipe.unanswered() == 0 {
                    // Everything submitted is answered. A connection whose
                    // write side died mid-segment is not pooled; the rest
                    // of the segment goes out on a fresh one.
                    break Ok(());
                }
                match pipe.read_next(&self.config.limits) {
                    Ok(response) => {
                        if reused || got_any {
                            self.stats.reused.fetch_add(1, Ordering::Relaxed);
                        }
                        self.stats.note_response(&response);
                        got_any = true;
                        results.push(Ok(response));
                        answered += 1;
                    }
                    // After `Connection: close` the next read fails at
                    // once: requests written behind it are never answered.
                    Err(err) => break Err(err),
                }
            };
            match outcome {
                Ok(()) => {
                    // Pool the healthy connection for the next batch.
                    if pipe.is_open() {
                        let (reader, writer, out) = pipe.into_parts();
                        self.checkin(
                            &key,
                            PooledConn {
                                reader,
                                writer,
                                out,
                            },
                        );
                    }
                }
                Err(err) => {
                    let unanswered = pipe.unanswered() as u64;
                    drop(pipe); // unknown state: never pool it
                    if !got_any && (!reused || !first.method().is_idempotent()) {
                        // A fresh connection that yielded nothing means
                        // the endpoint is down: do not redial forever. A
                        // non-idempotent request (alone in its segment)
                        // may already have executed server-side, so a
                        // reused connection dying under it is surfaced
                        // as that ambiguity, never replayed.
                        let err = match err {
                            NetError::Io(_) | NetError::UnexpectedEof(_) if reused => {
                                let method = first.method();
                                NetError::UnexpectedEof(format!(
                                    "{method} on a reused connection failed before a response \
                                     arrived (not replayed: {method} is not idempotent): {err}"
                                ))
                            }
                            err => err,
                        };
                        for _ in answered..requests.len() {
                            results.push(Err(err.clone()));
                        }
                        return;
                    }
                    // Written-but-unanswered requests go around again on a
                    // fresh connection; that is the replay path.
                    self.stats.replays.fetch_add(unanswered, Ordering::Relaxed);
                }
            }
        }
    }

    /// GET the given absolute URL.
    pub fn get(&self, url_text: &str) -> Result<Response> {
        let url = Url::parse(url_text)?;
        let request = Request::get(url.path.clone()).with_query(url.query.clone());
        self.send(&url, &request)
    }

    /// POST a body to the given absolute URL.
    pub fn post(&self, url_text: &str, body: impl Into<Vec<u8>>) -> Result<Response> {
        let url = Url::parse(url_text)?;
        let request = Request::post(url.path.clone(), body).with_query(url.query.clone());
        self.send(&url, &request)
    }

    /// Number of idle pooled connections (all hosts) — for tests.
    pub fn idle_connections(&self) -> usize {
        self.pool.lock().values().map(Vec::len).sum()
    }

    /// Lifetime open/reuse counters for this client's connection pool.
    pub fn pool_stats(&self) -> &PoolStats {
        &self.stats
    }
}

impl Default for HttpClient {
    fn default() -> HttpClient {
        HttpClient::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::StatusCode;
    use crate::server::{Server, ServerConfig, ServerHandle};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn test_server() -> (ServerHandle, Arc<AtomicU64>) {
        let hits = Arc::new(AtomicU64::new(0));
        let hits_clone = Arc::clone(&hits);
        let handler = Arc::new(move |req: &Request| {
            hits_clone.fetch_add(1, Ordering::SeqCst);
            match req.path.as_str() {
                "/close" => {
                    Response::text(StatusCode::OK, "bye").with_header("connection", "close")
                }
                "/echo" => Response::text(
                    StatusCode::OK,
                    format!("{}?{}", req.path, req.query.encode()),
                ),
                _ => Response::text(StatusCode::OK, "ok"),
            }
        });
        let handle = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        (handle, hits)
    }

    #[test]
    fn get_round_trip() {
        let (server, _) = test_server();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("{}/echo?q=higgs+boson", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body_text().unwrap(), "/echo?q=higgs+boson");
        server.shutdown();
    }

    #[test]
    fn connections_are_reused() {
        let (server, _) = test_server();
        let client = HttpClient::new();
        for _ in 0..5 {
            client.get(&format!("{}/x", server.base_url())).unwrap();
        }
        assert_eq!(client.idle_connections(), 1);
        assert_eq!(server.stats().connections.load(Ordering::SeqCst), 1);
        // First request dials, the next four ride the keep-alive socket.
        assert_eq!(client.pool_stats().opened(), 1);
        assert_eq!(client.pool_stats().reused(), 4);
        server.shutdown();
    }

    #[test]
    fn shed_responses_are_counted_apart_from_discards() {
        let handler = Arc::new(|req: &Request| {
            if req.path == "/busy" {
                Response::text(StatusCode::TOO_MANY_REQUESTS, "shed")
                    .with_header("retry-after", "1")
            } else {
                Response::text(StatusCode::OK, "ok")
            }
        });
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let client = HttpClient::new();
        for _ in 0..3 {
            let resp = client.get(&format!("{}/busy", server.base_url())).unwrap();
            assert_eq!(resp.status, StatusCode::TOO_MANY_REQUESTS);
        }
        client.get(&format!("{}/ok", server.base_url())).unwrap();
        // Three sheds, zero discards: the counters answer different
        // questions and must not bleed into each other.
        assert_eq!(client.pool_stats().shed(), 3);
        assert_eq!(client.pool_stats().discarded(), 0);
        server.shutdown();
    }

    #[test]
    fn server_close_is_respected() {
        let (server, _) = test_server();
        let client = HttpClient::new();
        client.get(&format!("{}/close", server.base_url())).unwrap();
        assert_eq!(client.idle_connections(), 0);
        client.get(&format!("{}/x", server.base_url())).unwrap();
        assert_eq!(server.stats().connections.load(Ordering::SeqCst), 2);
        server.shutdown();
    }

    #[test]
    fn stale_pooled_connection_is_replayed() {
        let (server, hits) = test_server();
        let base = server.base_url();
        let client = HttpClient::new();
        client.get(&format!("{base}/x")).unwrap();
        assert_eq!(client.idle_connections(), 1);
        // Restart the server on the same port to kill the pooled socket.
        let addr = server.local_addr();
        server.shutdown();
        let handler = Arc::new(|_: &Request| Response::text(StatusCode::OK, "fresh"));
        let server2 = Server::bind(&addr.to_string(), handler, ServerConfig::default()).unwrap();
        let resp = client.get(&format!("{base}/y")).unwrap();
        assert_eq!(resp.body_text().unwrap(), "fresh");
        // The replayed request dialled a fresh connection; it does not
        // count as a successful reuse.
        assert_eq!(client.pool_stats().opened(), 2);
        assert_eq!(client.pool_stats().reused(), 0);
        let _ = hits;
        server2.shutdown();
    }

    #[test]
    fn stale_replay_is_counted() {
        let (server, _) = test_server();
        let base = server.base_url();
        let client = HttpClient::new();
        client.get(&format!("{base}/x")).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        let handler = Arc::new(|_: &Request| Response::text(StatusCode::OK, "fresh"));
        let server2 = Server::bind(&addr.to_string(), handler, ServerConfig::default()).unwrap();
        client.get(&format!("{base}/y")).unwrap();
        assert_eq!(client.pool_stats().replays(), 1);
        server2.shutdown();
    }

    #[test]
    fn non_idempotent_request_is_not_replayed_and_surfaces_eof() {
        let (server, _) = test_server();
        let base = server.base_url();
        let client = HttpClient::new();
        client.get(&format!("{base}/x")).unwrap();
        assert_eq!(client.idle_connections(), 1);
        // Kill the server under the pooled connection, then bring up a
        // replacement that counts what reaches it.
        let addr = server.local_addr();
        server.shutdown();
        let hits2 = Arc::new(AtomicU64::new(0));
        let hits2_clone = Arc::clone(&hits2);
        let handler = Arc::new(move |_: &Request| {
            hits2_clone.fetch_add(1, Ordering::SeqCst);
            Response::text(StatusCode::OK, "fresh")
        });
        let server2 = Server::bind(&addr.to_string(), handler, ServerConfig::default()).unwrap();
        // The POST rides the stale pooled connection and dies there. It
        // must NOT be replayed — the caller gets the ambiguity as
        // UnexpectedEof and the replacement server never sees it.
        let err = client
            .post(&format!("{base}/submit"), b"payload".to_vec())
            .unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
        assert_eq!(hits2.load(Ordering::SeqCst), 0);
        assert_eq!(client.pool_stats().replays(), 0);
        server2.shutdown();
    }

    #[test]
    fn full_idle_pool_closes_and_counts_discards() {
        let (server, _) = test_server();
        let client = HttpClient::with_config(ClientConfig {
            max_idle_per_host: 0,
            ..ClientConfig::default()
        });
        for _ in 0..3 {
            client.get(&format!("{}/x", server.base_url())).unwrap();
        }
        // With no idle slots every healthy connection is discarded on
        // checkin, so each request dials fresh — and the stats say so.
        assert_eq!(client.idle_connections(), 0);
        assert_eq!(client.pool_stats().opened(), 3);
        assert_eq!(client.pool_stats().reused(), 0);
        assert_eq!(client.pool_stats().discarded(), 3);
        server.shutdown();
    }

    #[test]
    fn pipelined_batch_round_trips_in_order() {
        let (server, _) = test_server();
        let client = HttpClient::new();
        let url = crate::url::Url::parse(&server.base_url()).unwrap();
        let requests: Vec<Request> = (0..10)
            .map(|i| {
                Request::get("/echo")
                    .with_query(crate::url::QueryString::new().with("i", i.to_string()))
            })
            .collect();
        let results = client.send_pipelined(&url, &requests, 4);
        assert_eq!(results.len(), 10);
        for (i, result) in results.iter().enumerate() {
            let resp = result.as_ref().unwrap();
            assert_eq!(resp.body_text().unwrap(), format!("/echo?i={i}"));
        }
        // One dial, everything else rode the pipeline; the gauge saw the
        // configured depth but never more.
        assert_eq!(client.pool_stats().opened(), 1);
        assert_eq!(client.pool_stats().reused(), 9);
        assert_eq!(client.pool_stats().pipeline_depth_hwm(), 4);
        assert_eq!(server.stats().connections.load(Ordering::SeqCst), 1);
        server.shutdown();
    }

    #[test]
    fn depth_one_pipelining_degenerates_to_sequential() {
        let (server, _) = test_server();
        let client = HttpClient::new();
        let url = crate::url::Url::parse(&server.base_url()).unwrap();
        let requests: Vec<Request> = (0..4).map(|_| Request::get("/x")).collect();
        let results = client.send_pipelined(&url, &requests, 1);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(client.pool_stats().pipeline_depth_hwm(), 1);
        assert_eq!(client.pool_stats().opened(), 1);
        server.shutdown();
    }

    #[test]
    fn pipelined_batch_sends_posts_alone() {
        let (server, hits) = test_server();
        let client = HttpClient::new();
        let url = crate::url::Url::parse(&server.base_url()).unwrap();
        let requests = vec![
            Request::get("/a"),
            Request::post("/submit", b"body".to_vec()),
            Request::get("/b"),
        ];
        let results = client.send_pipelined(&url, &requests, 8);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        // The POST never shared a pipeline: each request here is its own
        // single-request segment, so the depth gauge never left 1.
        assert_eq!(client.pool_stats().pipeline_depth_hwm(), 1);
        server.shutdown();
    }

    #[test]
    fn connection_close_mid_pipeline_resubmits_unanswered_requests() {
        let (server, _) = test_server();
        let client = HttpClient::new();
        let url = crate::url::Url::parse(&server.base_url()).unwrap();
        // Request 1 answers with `Connection: close`; requests 2 and 3 are
        // already written behind it and must be resubmitted on a fresh
        // connection.
        let requests = vec![
            Request::get("/a"),
            Request::get("/close"),
            Request::get("/b"),
            Request::get("/c"),
        ];
        let results = client.send_pipelined(&url, &requests, 4);
        assert_eq!(results.len(), 4);
        for result in &results {
            assert_eq!(result.as_ref().unwrap().status, StatusCode::OK);
        }
        assert_eq!(client.pool_stats().replays(), 2);
        assert_eq!(client.pool_stats().opened(), 2);
        assert_eq!(server.stats().connections.load(Ordering::SeqCst), 2);
        server.shutdown();
    }

    #[test]
    fn refuses_https() {
        let client = HttpClient::new();
        let err = client
            .get("https://www.googleapis.com/youtube/v3/search")
            .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)));
    }

    #[test]
    fn connect_failure_is_io_error() {
        let client = HttpClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        });
        // Port 1 on loopback is virtually always closed.
        let err = client.get("http://127.0.0.1:1/x").unwrap_err();
        assert!(matches!(err, NetError::Io(_)));
    }

    #[test]
    fn post_round_trips_body() {
        let handler = Arc::new(|req: &Request| {
            Response::text(StatusCode::OK, format!("got {} bytes", req.body.len()))
        });
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let client = HttpClient::new();
        let resp = client
            .post(&format!("{}/submit", server.base_url()), vec![b'a'; 1000])
            .unwrap();
        assert_eq!(resp.body_text().unwrap(), "got 1000 bytes");
        server.shutdown();
    }

    /// Dials a scripted peer, completes one GET through `client` (so the
    /// connection is pooled), then has the peer close with part of that
    /// request unread, which resets the connection: the next write on it
    /// fails. Returns the address, free again for a replacement server.
    fn pool_a_reset_connection(client: &HttpClient) -> std::net::SocketAddr {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (close_tx, close_rx) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut some = [0u8; 8];
            sock.read_exact(&mut some).unwrap();
            sock.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .unwrap();
            close_rx.recv().unwrap();
        });
        client.get(&format!("http://{addr}/first")).unwrap();
        assert_eq!(client.idle_connections(), 1);
        close_tx.send(()).unwrap();
        peer.join().unwrap();
        // Let the reset land before the next write.
        std::thread::sleep(Duration::from_millis(50));
        addr
    }

    #[test]
    fn a_failed_flush_replays_and_counts_the_whole_batch() {
        let client = HttpClient::new();
        let addr = pool_a_reset_connection(&client);
        let (server, hits) = {
            let hits = Arc::new(AtomicU64::new(0));
            let counter = Arc::clone(&hits);
            let handler = Arc::new(move |req: &Request| {
                counter.fetch_add(1, Ordering::SeqCst);
                Response::text(StatusCode::OK, req.path.clone())
            });
            let server = Server::bind(&addr.to_string(), handler, ServerConfig::default()).unwrap();
            (server, hits)
        };
        let url = Url::parse(&server.base_url()).unwrap();
        let requests: Vec<Request> = ["/a", "/b", "/c"].map(Request::get).into();
        let results = client.send_pipelined(&url, &requests, 4);
        let bodies: Vec<String> = results
            .into_iter()
            .map(|r| r.unwrap().body_text().unwrap().to_string())
            .collect();
        assert_eq!(bodies, ["/a", "/b", "/c"]);
        // The whole batch rode the failed write, so all three are replays,
        // each answered once on the fresh connection.
        assert_eq!(client.pool_stats().replays(), 3);
        assert_eq!(client.pool_stats().opened(), 2);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        server.shutdown();
    }

    #[test]
    fn a_post_whose_flush_fails_is_not_replayed() {
        let client = HttpClient::new();
        let addr = pool_a_reset_connection(&client);
        let hits = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&hits);
        let handler = Arc::new(move |_: &Request| {
            counter.fetch_add(1, Ordering::SeqCst);
            Response::text(StatusCode::OK, "fresh")
        });
        let server = Server::bind(&addr.to_string(), handler, ServerConfig::default()).unwrap();
        let err = client
            .post(
                &format!("{}/submit", server.base_url()),
                b"payload".to_vec(),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(client.pool_stats().replays(), 0);
        server.shutdown();
    }
}
