//! A blocking, thread-per-connection HTTP/1.1 server with keep-alive and
//! graceful shutdown.
//!
//! The acceptor spawns one thread per accepted connection, up to
//! `max_connections`; arrivals past the cap are shed with `429` +
//! `Retry-After`. A connection never waits behind another one, so a
//! handful of idle keep-alive peers cannot starve a new client. Shutdown
//! is cooperative: the handle flips a flag and wakes the acceptor with a
//! loopback connection; the acceptor closes the read side of every live
//! connection and joins its thread. A connection finishes the request it
//! is on (and any already pipelined behind it) before exiting, so
//! in-flight audit queries complete rather than tearing mid-response.

use crate::framing::{encode_response, write_response, FrameLimits, MessageReader};
use crate::message::{Request, Response, StatusCode};
use crate::{NetError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A request handler. Implemented for any `Fn(&Request) -> Response`.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-read socket timeout; a stalled peer cannot pin a thread forever.
    pub read_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it. Without this, a client that connects
    /// and goes silent holds its thread for the full `read_timeout` — per
    /// connection, forever under reconnects.
    pub idle_timeout: Duration,
    /// Maximum requests served on one keep-alive connection.
    pub max_requests_per_connection: usize,
    /// Frame limits applied to incoming requests.
    pub limits: FrameLimits,
    /// Maximum live connections, and so connection threads; arrivals past
    /// the cap are answered with `429 Too Many Requests` + `Retry-After`
    /// and closed (load shedding).
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 10_000,
            limits: FrameLimits::default(),
            max_connections: 8192,
        }
    }
}

/// Cumulative server counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests fully served (including error responses).
    pub requests: AtomicU64,
    /// Responses with 5xx status caused by handler panics.
    pub handler_panics: AtomicU64,
    /// Connections dropped due to protocol errors.
    pub protocol_errors: AtomicU64,
    /// Connections shed at the accept gate with a 429: the server was at
    /// `max_connections`, or could not start a thread for the connection.
    pub shed: AtomicU64,
    /// High-water mark of concurrent live connections.
    pub peak_connections: AtomicU64,
}

/// The running server. Construct with [`Server::bind`]; stop with
/// [`ServerHandle::shutdown`].
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections, dispatching to `handler`.
    pub fn bind(
        addr: &str,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let stats = Arc::new(ServerStats::default());
        let acceptor = {
            let running = Arc::clone(&running);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("ytaudit-net-acceptor".into())
                .spawn(move || accept_loop(listener, handler, config, running, stats))
                .map_err(|e| NetError::Io(e.to_string()))?
        };
        Ok(ServerHandle {
            local_addr,
            running,
            stats,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Accepts until shutdown, one thread per connection; then closes the
/// read side of every live connection and joins every connection thread.
fn accept_loop(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    config: ServerConfig,
    running: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    // Live connections by id: a clone of each socket, so shutdown can
    // close the read side of connections idling in a blocking read. Its
    // size is the live-connection count that `max_connections` caps.
    let registry = Arc::new(Mutex::new(HashMap::<u64, TcpStream>::new()));
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (conn_id, stream) in (0u64..).zip(listener.incoming()) {
        if !running.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A finished thread has nothing left to join.
        threads.retain(|t| !t.is_finished());
        // Register before spawning, so the connection is closable at
        // shutdown from the moment its thread exists.
        let registered = stream.try_clone().ok().and_then(|clone| {
            let mut live = registry.lock();
            (live.len() < config.max_connections).then(|| {
                live.insert(conn_id, clone);
                live.len() as u64
            })
        });
        let Some(live) = registered else {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            shed_at_accept(stream);
            continue;
        };
        let spawned = {
            let handler = Arc::clone(&handler);
            let config = config.clone();
            let running = Arc::clone(&running);
            let stats = Arc::clone(&stats);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name(format!("ytaudit-net-conn-{conn_id}"))
                .spawn(move || {
                    serve_connection(stream, &*handler, &config, &running, &stats);
                    registry.lock().remove(&conn_id);
                })
        };
        match spawned {
            Ok(thread) => {
                threads.push(thread);
                stats.connections.fetch_add(1, Ordering::Relaxed);
                stats.peak_connections.fetch_max(live, Ordering::Relaxed);
            }
            // The closure, and the stream it owned, are gone; answer on
            // the registered clone.
            Err(_) => {
                if let Some(clone) = registry.lock().remove(&conn_id) {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    shed_at_accept(clone);
                }
            }
        }
    }
    // No connection is registered after this point. Close connections
    // idling in blocking reads so their threads exit immediately instead
    // of waiting out the idle timeout. A thread finishing an in-flight
    // request is unaffected: its write half still flushes before the
    // socket teardown is observed.
    for stream in registry.lock().values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for thread in threads {
        let _ = thread.join();
    }
}

/// Handle to a running server: address, stats, and shutdown control.
pub struct ServerHandle {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound socket address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's base URL, e.g. `http://127.0.0.1:41234`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.local_addr)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stops accepting, drains in-flight requests, joins every thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let acceptor = self.acceptor.lock().take();
        if let Some(acceptor) = acceptor {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection until close, error, limit, or shutdown.
fn serve_connection(
    stream: TcpStream,
    handler: &dyn Handler,
    config: &ServerConfig,
    running: &AtomicBool,
    stats: &ServerStats,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let socket = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = MessageReader::new(stream);
    let mut writer: &TcpStream = &socket;
    serve_requests(
        &mut reader,
        &mut writer,
        |reader| await_request_start(reader, &socket, config),
        handler,
        config,
        running,
        stats,
    );
    linger_close(&socket);
}

/// Initial size of a connection's response buffer. A paper-scale
/// `collect --in-flight 4` over loopback wrote batches of 3.2 KB on
/// average and 24 KB at most, so every batch it sends fits without the
/// buffer growing; a larger answer grows it for that write only.
const RESPONSE_BUFFER: usize = 32 * 1024;

/// The request loop of one connection. Responses are encoded into one
/// buffer, which is written when the reader holds no further complete
/// request: a lone request is answered at once, and a pipelined batch
/// that arrived together is answered with one write. `await_start`
/// waits for the first byte of the next request.
fn serve_requests<R: Read, W: Write>(
    reader: &mut MessageReader<R>,
    writer: &mut W,
    mut await_start: impl FnMut(&MessageReader<R>) -> bool,
    handler: &dyn Handler,
    config: &ServerConfig,
    running: &AtomicBool,
    stats: &ServerStats,
) {
    let mut out = Vec::with_capacity(RESPONSE_BUFFER);
    for served in 0..config.max_requests_per_connection {
        if !running.load(Ordering::SeqCst) && served > 0 && !reader.has_buffered_input() {
            // Graceful shutdown: requests already pipelined onto this
            // connection (bytes sitting in the read buffer) are served
            // before closing; anything not yet received is abandoned.
            break;
        }
        if !await_start(reader) {
            break; // idle timeout, clean close, or socket error
        }
        let request = match reader.read_request(&config.limits) {
            Ok(Some(req)) => req,
            Ok(None) => break, // clean close
            Err(NetError::LimitExceeded(msg)) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::text(StatusCode::PAYLOAD_TOO_LARGE, msg);
                encode_response(&mut out, &resp, false);
                break;
            }
            Err(NetError::Protocol(msg)) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::text(StatusCode::BAD_REQUEST, msg);
                encode_response(&mut out, &resp, false);
                break;
            }
            Err(_) => break, // timeout or abrupt close
        };
        let client_wants_close = request.headers.wants_close();
        let response = match catch_unwind(AssertUnwindSafe(|| handler.handle(&request))) {
            Ok(resp) => resp,
            Err(_) => {
                stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                Response::text(StatusCode::INTERNAL_SERVER_ERROR, "handler panicked")
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = !client_wants_close
            && !response.headers.wants_close()
            && (running.load(Ordering::SeqCst) || reader.has_buffered_input())
            && served + 1 < config.max_requests_per_connection;
        encode_response(&mut out, &response, keep_alive);
        if !keep_alive {
            break;
        }
        // RFC 9112 §9.3: a pipelined request already buffered is answered
        // before this response is written, and both leave together.
        if !reader.has_buffered_request() && write_out(writer, &mut out).is_err() {
            return;
        }
    }
    let _ = write_out(writer, &mut out);
}

/// Writes the response buffer in one write and empties it, shrinking a
/// buffer that one huge answer grew back to its initial size.
fn write_out<W: Write>(writer: &mut W, out: &mut Vec<u8>) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let written = writer.write_all(out).and_then(|()| writer.flush());
    out.clear();
    out.shrink_to(RESPONSE_BUFFER);
    written
}

/// Answers a connection shed at the accept gate: `429 Too Many Requests`
/// with `Retry-After`, then close. The socket is fresh (nothing
/// buffered), so a short blocking write almost always completes in one
/// syscall into the empty send buffer.
fn shed_at_accept(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let resp = Response::text(
        StatusCode::TOO_MANY_REQUESTS,
        "server at connection capacity",
    )
    .with_header("retry-after", "1");
    let _ = write_response(&mut stream, &resp, false);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Closes a connection gracefully: announce EOF with a write-side
/// shutdown, then drain whatever the peer already sent. Dropping a
/// socket with unread bytes (requests a client pipelined behind the one
/// being answered) makes the kernel send a TCP RST, which can destroy
/// responses still in the peer's receive path — the drain keeps the
/// close orderly so every response written actually arrives.
fn linger_close(socket: &TcpStream) {
    let _ = socket.shutdown(Shutdown::Write);
    if socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut read_half: &TcpStream = socket;
    // Bounded drain: a peer streaming data forever must not pin the
    // thread; 64 reads of goodwill is plenty for pipelined stragglers.
    for _ in 0..64 {
        match read_half.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Waits up to `idle_timeout` for the next request's first byte. Uses a
/// one-byte `peek` (which never consumes framing bytes) under a shortened
/// socket read timeout, restoring `read_timeout` before the actual read —
/// so a silent kept-alive peer holds its thread at most `idle_timeout`,
/// while a slow-but-active peer still gets the full `read_timeout` per
/// read. Returns `false` when the peer closed, errored, or stayed silent
/// past the idle window.
fn await_request_start(
    reader: &MessageReader<TcpStream>,
    socket: &TcpStream,
    config: &ServerConfig,
) -> bool {
    if reader.has_buffered_input() {
        return true; // a pipelined request is already waiting
    }
    // A zero read timeout means "block forever" to the OS; clamp away.
    let idle = config.idle_timeout.max(Duration::from_millis(1));
    if socket.set_read_timeout(Some(idle)).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let ready = matches!(socket.peek(&mut probe), Ok(n) if n > 0);
    let _ = socket.set_read_timeout(Some(config.read_timeout));
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::write_request;
    use crate::message::Method;

    fn echo_server() -> ServerHandle {
        let handler = Arc::new(|req: &Request| {
            Response::text(
                StatusCode::OK,
                format!("{} {} q={}", req.method, req.path, req.query.encode()),
            )
        });
        Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap()
    }

    fn raw_round_trip(handle: &ServerHandle, request: &Request) -> Response {
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        write_request(&mut stream, request, &handle.local_addr().to_string()).unwrap();
        let mut reader = MessageReader::new(stream);
        reader
            .read_response(&FrameLimits::default(), request.method == Method::Head)
            .unwrap()
    }

    #[test]
    fn serves_get_requests() {
        let handle = echo_server();
        let resp = raw_round_trip(
            &handle,
            &Request::get("/search").with_query(crate::url::QueryString::new().with("q", "x")),
        );
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body_text().unwrap(), "GET /search q=q=x");
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let handle = echo_server();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut write = stream.try_clone().unwrap();
        let mut reader = MessageReader::new(stream);
        for path in ["/a", "/b", "/c"] {
            write_request(&mut write, &Request::get(path), "h").unwrap();
            let resp = reader
                .read_response(&FrameLimits::default(), false)
                .unwrap();
            assert!(resp.body_text().unwrap().contains(path));
            assert_eq!(resp.headers.get("connection"), Some("keep-alive"));
        }
        assert_eq!(handle.stats().requests.load(Ordering::Relaxed), 3);
        assert_eq!(handle.stats().connections.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn respects_connection_close() {
        let handle = echo_server();
        let resp = raw_round_trip(
            &handle,
            &Request::get("/x").with_header("connection", "close"),
        );
        assert_eq!(resp.headers.get("connection"), Some("close"));
        handle.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let handle = echo_server();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.write_all(b"NONSENSE REQUEST LINE\r\n\r\n").unwrap();
        let mut reader = MessageReader::new(stream);
        let resp = reader
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        assert_eq!(handle.stats().protocol_errors.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn oversized_request_gets_413() {
        let handle = echo_server();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        stream.write_all(&raw).unwrap();
        let mut reader = MessageReader::new(stream);
        let resp = reader
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(resp.status, StatusCode::PAYLOAD_TOO_LARGE);
        handle.shutdown();
    }

    #[test]
    fn handler_panic_returns_500_and_server_survives() {
        let handler = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("induced failure");
            }
            Response::text(StatusCode::OK, "fine")
        });
        let handle = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let boom = raw_round_trip(&handle, &Request::get("/boom"));
        assert_eq!(boom.status, StatusCode::INTERNAL_SERVER_ERROR);
        let ok = raw_round_trip(&handle, &Request::get("/fine"));
        assert_eq!(ok.status, StatusCode::OK);
        assert_eq!(handle.stats().handler_panics.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let handle = Arc::new(echo_server());
        let mut joins = Vec::new();
        for i in 0..8 {
            let handle = Arc::clone(&handle);
            joins.push(std::thread::spawn(move || {
                for j in 0..5 {
                    let resp = raw_round_trip(&handle, &Request::get(format!("/c{i}/{j}")));
                    assert_eq!(resp.status, StatusCode::OK);
                }
            }));
        }
        for join in joins {
            join.join().unwrap();
        }
        assert_eq!(handle.stats().requests.load(Ordering::Relaxed), 40);
        handle.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let handle = echo_server();
        handle.shutdown();
        handle.shutdown();
        // After shutdown new connections are refused or reset quickly; we
        // only assert the call returns (threads joined, no deadlock).
    }

    #[test]
    fn idle_keep_alive_connection_is_closed_promptly() {
        let handler = Arc::new(|_: &Request| Response::text(StatusCode::OK, "ok"));
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", handler, config).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut write = stream.try_clone().unwrap();
        let mut reader = MessageReader::new(stream);
        write_request(&mut write, &Request::get("/x"), "h").unwrap();
        let resp = reader
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(resp.headers.get("connection"), Some("keep-alive"));
        // Now go silent. The server should close the connection after the
        // idle timeout — far sooner than the 30 s read timeout.
        let started = std::time::Instant::now();
        let err = reader.read_response(&FrameLimits::default(), false);
        assert!(err.is_err(), "expected EOF, got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "idle close took {:?}",
            started.elapsed()
        );
        handle.shutdown();
    }

    #[test]
    fn idle_timeout_applies_to_silent_first_request_too() {
        let handler = Arc::new(|_: &Request| Response::text(StatusCode::OK, "ok"));
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", handler, config).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let started = std::time::Instant::now();
        let mut reader = MessageReader::new(stream);
        // Never send anything; the server should hang up on us.
        assert!(reader
            .read_response(&FrameLimits::default(), false)
            .is_err());
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "silent-connect close took {:?}",
            started.elapsed()
        );
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_requests_already_pipelined() {
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let handler = Arc::new(move |req: &Request| {
            if req.path == "/gate" {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
            Response::text(StatusCode::OK, format!("served {}", req.path))
        });
        let handle =
            Arc::new(Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap());
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut write = stream.try_clone().unwrap();
        // One write syscall carrying three pipelined requests: the server's
        // first buffer fill pulls all of them into userspace.
        let mut burst = Vec::new();
        for path in ["/gate", "/b", "/c"] {
            write_request(&mut burst, &Request::get(path), "h").unwrap();
        }
        write.write_all(&burst).unwrap();
        // Wait until the server is parked inside the handler (requests /b
        // and /c now sit in its read buffer), then start a graceful
        // shutdown from another thread.
        entered_rx.recv().unwrap();
        let shutdown_handle = Arc::clone(&handle);
        let shutdown = std::thread::spawn(move || shutdown_handle.shutdown());
        std::thread::sleep(Duration::from_millis(100));
        release_tx.send(()).unwrap();
        // All three pipelined requests are answered; the last one closes.
        let mut reader = MessageReader::new(stream);
        for (i, path) in ["/gate", "/b", "/c"].iter().enumerate() {
            let resp = reader
                .read_response(&FrameLimits::default(), false)
                .unwrap();
            assert_eq!(resp.status, StatusCode::OK, "response {i}");
            assert_eq!(resp.body_text().unwrap(), format!("served {path}"));
        }
        assert_eq!(handle.stats().requests.load(Ordering::Relaxed), 3);
        shutdown.join().unwrap();
    }

    #[test]
    fn connections_past_the_cap_are_shed_with_429() {
        let handler = Arc::new(|_: &Request| Response::text(StatusCode::OK, "ok"));
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", handler, config).unwrap();
        // Pin the one slot with a kept-alive connection (the round trip
        // guarantees the acceptor has counted it).
        let pinned = TcpStream::connect(handle.local_addr()).unwrap();
        let mut pinned_write = pinned.try_clone().unwrap();
        write_request(&mut pinned_write, &Request::get("/hold"), "h").unwrap();
        let mut pinned_reader = MessageReader::new(pinned);
        let held = pinned_reader
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(held.status, StatusCode::OK);
        // The next connection is over capacity: explicit 429 + Retry-After.
        let over = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = MessageReader::new(over);
        let resp = reader
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(resp.status, StatusCode::TOO_MANY_REQUESTS);
        assert_eq!(resp.headers.get("retry-after"), Some("1"));
        assert_eq!(handle.stats().shed.load(Ordering::Relaxed), 1);
        assert_eq!(handle.stats().peak_connections.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn idle_keep_alive_connections_do_not_starve_a_new_one() {
        let handle = echo_server();
        // Four kept-alive connections, each parked after one answered
        // request: every one of them now idles in a read.
        let held: Vec<MessageReader<TcpStream>> = (0..4)
            .map(|i| {
                let stream = TcpStream::connect(handle.local_addr()).unwrap();
                let mut write = stream.try_clone().unwrap();
                write_request(&mut write, &Request::get(format!("/hold{i}")), "h").unwrap();
                let mut reader = MessageReader::new(stream);
                let resp = reader
                    .read_response(&FrameLimits::default(), false)
                    .unwrap();
                assert_eq!(resp.headers.get("connection"), Some("keep-alive"));
                reader
            })
            .collect();
        let started = std::time::Instant::now();
        let resp = raw_round_trip(&handle, &Request::get("/fifth"));
        assert_eq!(resp.status, StatusCode::OK);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "fifth connection waited {:?}",
            started.elapsed()
        );
        drop(held);
        handle.shutdown();
    }

    #[test]
    fn large_response_is_chunked_over_the_wire() {
        let body = vec![b'z'; 200_000];
        let expected = body.clone();
        let handler = Arc::new(move |_: &Request| Response::json(StatusCode::OK, body.clone()));
        let handle = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let resp = raw_round_trip(&handle, &Request::get("/big"));
        assert_eq!(resp.body, expected);
        handle.shutdown();
    }

    /// What a scripted connection saw, in order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        Read(Vec<u8>),
        Write(Vec<u8>),
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<Event>>>;

    /// A peer whose bytes arrive in the given reads, then EOF.
    struct ScriptedPeer {
        reads: std::collections::VecDeque<Vec<u8>>,
        log: Log,
    }

    impl Read for ScriptedPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.reads.pop_front().unwrap_or_default();
            assert!(chunk.len() <= buf.len(), "scripted read too large");
            buf[..chunk.len()].copy_from_slice(&chunk);
            self.log.borrow_mut().push(Event::Read(chunk.clone()));
            Ok(chunk.len())
        }
    }

    struct LoggedWrites(Log);

    impl Write for LoggedWrites {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().push(Event::Write(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn get(path: &str) -> Vec<u8> {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::get(path), "h").unwrap();
        wire
    }

    fn answer(path: &str) -> Vec<u8> {
        let mut wire = Vec::new();
        let resp = Response::text(StatusCode::OK, format!("GET {path} q="));
        write_response(&mut wire, &resp, true).unwrap();
        wire
    }

    /// Runs the request loop over `reads` with the echo handler and
    /// returns everything it read and wrote, in order.
    fn script(reads: Vec<Vec<u8>>) -> Vec<Event> {
        let log = Log::default();
        let mut reader = MessageReader::new(ScriptedPeer {
            reads: reads.into(),
            log: log.clone(),
        });
        let handler = |req: &Request| {
            Response::text(
                StatusCode::OK,
                format!("{} {} q={}", req.method, req.path, req.query.encode()),
            )
        };
        serve_requests(
            &mut reader,
            &mut LoggedWrites(log.clone()),
            |_| true,
            &handler,
            &ServerConfig::default(),
            &AtomicBool::new(true),
            &ServerStats::default(),
        );
        let events = log.borrow().clone();
        events
    }

    #[test]
    fn a_batch_that_arrives_in_one_read_is_answered_in_one_write() {
        let paths = ["/a", "/b", "/c", "/d"];
        let batch: Vec<u8> = paths.iter().flat_map(|p| get(p)).collect();
        let answers: Vec<u8> = paths.iter().flat_map(|p| answer(p)).collect();
        assert_eq!(
            script(vec![batch.clone()]),
            vec![
                Event::Read(batch),
                Event::Write(answers),
                Event::Read(Vec::new())
            ]
        );
    }

    #[test]
    fn a_lone_request_is_answered_before_the_next_read() {
        assert_eq!(
            script(vec![get("/a"), get("/b")]),
            vec![
                Event::Read(get("/a")),
                Event::Write(answer("/a")),
                Event::Read(get("/b")),
                Event::Write(answer("/b")),
                Event::Read(Vec::new())
            ]
        );
    }

    #[test]
    fn half_a_request_behind_a_whole_one_does_not_hold_its_answer() {
        let (first, second) = (get("/a"), get("/b"));
        let (head, tail) = second.split_at(second.len() / 2);
        let arrival = [first.as_slice(), head].concat();
        assert_eq!(
            script(vec![arrival.clone(), tail.to_vec()]),
            vec![
                Event::Read(arrival),
                // Answer 1 leaves before the rest of request 2 is read: a
                // peer that waits for it before sending more cannot
                // deadlock the connection.
                Event::Write(answer("/a")),
                Event::Read(tail.to_vec()),
                Event::Write(answer("/b")),
                Event::Read(Vec::new())
            ]
        );
    }
}
