//! HTTP/1.1 pipelining: keep several requests written ahead on one
//! connection while responses are read back in order.
//!
//! The audit's collection workload is thousands of *small* sequential
//! `Search: list` calls, so per-request round-trip latency — not
//! bandwidth — bounds how fast a snapshot completes. A
//! [`PipelinedConn`] hides that latency by writing up to `max_in_flight`
//! requests before the first response arrives; HTTP/1.1 guarantees the
//! server answers in request order, so matching responses back to
//! requests is a FIFO queue.
//!
//! Submitted requests are encoded into the connection's write buffer,
//! and the buffer goes on the wire in one write just before a read that
//! could block (RFC 9112 §9.3 lets a client send a pipelined batch
//! together). A depth-4 batch is one write, not four, and nothing a
//! read waits for is ever left in the buffer.
//!
//! The state machine is strict about what may ride a pipeline:
//!
//! * **Only idempotent methods are pipelined.** A non-idempotent request
//!   (POST) may be submitted only on an *empty* pipeline, and nothing
//!   may be submitted behind it until its response arrives — so a
//!   non-idempotent request can never end up written-but-unanswered
//!   behind other traffic, which is the one state that would force an
//!   unsafe replay.
//! * **A `Connection: close` response closes the tap.** Requests already
//!   written behind it will never be answered (RFC 9112 §9.6); the
//!   connection reports them via [`PipelinedConn::unanswered`] so the
//!   caller can resubmit them on a fresh connection.
//! * **A read error poisons the connection; a write error only kills the
//!   write side.** After a failed flush nothing further may be
//!   submitted, and the requests that flush carried stay unanswered, but
//!   responses to requests already on the wire may still be drained —
//!   a server that answers then closes (with later pipelined requests
//!   unread in its buffer) produces exactly this shape. After a read
//!   error the stream position is unknown and nothing more can be
//!   trusted; the caller resubmits the unanswered requests elsewhere.

use crate::framing::{encode_request, FrameLimits, MessageReader, Outgoing};
use crate::message::{Method, Response};
use crate::{NetError, Result};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Why a [`PipelinedConn`] refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRefusal {
    /// `max_in_flight` requests are already written and unanswered.
    Full,
    /// A response announced `Connection: close` (or an error poisoned
    /// the connection); nothing further will be answered.
    Closed,
    /// The request is non-idempotent and the pipeline is not empty, or
    /// a non-idempotent request is already in flight.
    NotPipelinable,
}

/// One keep-alive connection with bounded request pipelining.
///
/// Built from an already-buffered reader/writer pair via
/// [`PipelinedConn::from_parts`], so pooled connections keep their
/// buffered bytes. `submit` encodes a request into the connection's
/// write buffer; the buffer goes on the wire in one write when a read
/// needs it (or on [`PipelinedConn::flush`]), so a batch submitted
/// together leaves together. Responses come back strictly in request
/// order through `read_next`.
pub struct PipelinedConn<R: Read = TcpStream, W: Write = TcpStream> {
    reader: MessageReader<R>,
    writer: W,
    /// Requests encoded but not yet written, in wire order.
    out: Vec<u8>,
    /// Methods of requests submitted but not yet answered, in wire order.
    pending: VecDeque<Method>,
    /// How many of the newest `pending` requests are still in `out`.
    unflushed: usize,
    max_in_flight: usize,
    /// A response carried `Connection: close`: the server will answer
    /// nothing written after it.
    closing: bool,
    /// A write failed: nothing more can be submitted, but responses to
    /// requests already written may still be drained.
    write_dead: bool,
    /// A read failed: the stream position is unknown.
    poisoned: bool,
}

impl<R: Read, W: Write> PipelinedConn<R, W> {
    /// Wraps an existing buffered reader, write half and (empty) write
    /// buffer — how a pooled keep-alive connection becomes pipelined
    /// without losing bytes the reader already buffered, or the write
    /// buffer's capacity.
    pub fn from_parts(
        reader: MessageReader<R>,
        writer: W,
        out: Vec<u8>,
        max_in_flight: usize,
    ) -> PipelinedConn<R, W> {
        PipelinedConn {
            reader,
            writer,
            out,
            pending: VecDeque::new(),
            unflushed: 0,
            max_in_flight: max_in_flight.max(1),
            closing: false,
            write_dead: false,
            poisoned: false,
        }
    }

    /// Requests submitted but not yet answered.
    pub fn unanswered(&self) -> usize {
        self.pending.len()
    }

    /// Whether the connection can still carry traffic (no close
    /// announced, no error observed).
    pub fn is_open(&self) -> bool {
        !self.closing && !self.write_dead && !self.poisoned
    }

    /// Why `method` cannot be submitted right now, or `None` if it can.
    pub fn refusal(&self, method: Method) -> Option<SubmitRefusal> {
        if !self.is_open() {
            return Some(SubmitRefusal::Closed);
        }
        if self.pending.len() >= self.max_in_flight {
            return Some(SubmitRefusal::Full);
        }
        if !self.pending.is_empty()
            && (!method.is_idempotent() || self.pending.iter().any(|m| !m.is_idempotent()))
        {
            return Some(SubmitRefusal::NotPipelinable);
        }
        None
    }

    /// Encodes `request` into the write buffer, behind earlier requests
    /// whose responses have not arrived. Fails (without encoding) when
    /// there is a [`refusal`]. Nothing reaches the wire until the next
    /// [`flush`], which [`read_next`] makes before it could block.
    ///
    /// [`refusal`]: PipelinedConn::refusal
    /// [`flush`]: PipelinedConn::flush
    /// [`read_next`]: PipelinedConn::read_next
    pub fn submit<M: Outgoing + ?Sized>(&mut self, request: &M, host: &str) -> Result<()> {
        let method = request.method();
        if let Some(refusal) = self.refusal(method) {
            return Err(NetError::Protocol(format!(
                "pipeline refused {method} request: {refusal:?}"
            )));
        }
        encode_request(&mut self.out, request, host);
        self.pending.push_back(method);
        self.unflushed += 1;
        Ok(())
    }

    /// Writes every buffered request in one write. A failed write kills
    /// the write side only: the requests it carried stay unanswered, and
    /// responses to requests already on the wire may still be drained
    /// with [`read_next`](PipelinedConn::read_next).
    pub fn flush(&mut self) -> Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self
            .writer
            .write_all(&self.out)
            .and_then(|()| self.writer.flush());
        self.out.clear();
        self.unflushed = 0;
        written.map_err(|err| {
            self.write_dead = true;
            NetError::from(err)
        })
    }

    /// Reads the response to the oldest unanswered request, first
    /// flushing the write buffer when the read could block on the peer or
    /// when that request is itself still buffered. A response carrying
    /// `Connection: close` marks the connection closing (its own bytes
    /// are still valid); a read error poisons the connection and leaves
    /// the unanswered count untouched, so the caller knows exactly which
    /// requests still need a home.
    pub fn read_next(&mut self, limits: &FrameLimits) -> Result<Response> {
        if self.poisoned {
            return Err(NetError::Protocol(
                "pipelined connection is poisoned by an earlier error".into(),
            ));
        }
        let Some(&front) = self.pending.front() else {
            return Err(NetError::Protocol(
                "no pipelined request awaiting a response".into(),
            ));
        };
        if self.closing {
            return Err(NetError::UnexpectedEof(
                "connection announced close; pipelined request will not be answered".into(),
            ));
        }
        if self.unflushed == self.pending.len()
            || (self.unflushed > 0 && !self.reader.has_buffered_input())
        {
            // A failed flush is like a failed write: the read below still
            // drains whatever the peer answered before the connection broke.
            let _ = self.flush();
        }
        match self.reader.read_response(limits, front == Method::Head) {
            Ok(response) => {
                self.pending.pop_front();
                if response.headers.wants_close() {
                    self.closing = true;
                }
                Ok(response)
            }
            Err(err) => {
                self.poisoned = true;
                Err(err)
            }
        }
    }

    /// Tears the connection back into its reader, writer and write
    /// buffer (for returning an idle, still-open connection to a pool).
    /// Callers should only pool a connection that [`is_open`] with zero
    /// [`unanswered`] requests.
    ///
    /// [`is_open`]: PipelinedConn::is_open
    /// [`unanswered`]: PipelinedConn::unanswered
    pub fn into_parts(self) -> (MessageReader<R>, W, Vec<u8>) {
        (self.reader, self.writer, self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::write_response;
    use crate::message::{Request, StatusCode};
    use crate::server::{Handler, Server, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::Arc;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::text(StatusCode::OK, format!("echo {}", req.path)))
    }

    fn connect(addr: std::net::SocketAddr, depth: usize) -> PipelinedConn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        PipelinedConn::from_parts(MessageReader::new(stream), writer, Vec::new(), depth)
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let server = Server::bind("127.0.0.1:0", echo_handler(), ServerConfig::default()).unwrap();
        let mut conn = connect(server.local_addr(), 4);
        for i in 0..4 {
            conn.submit(&Request::get(format!("/p{i}")), "h").unwrap();
        }
        assert_eq!(conn.unanswered(), 4);
        assert_eq!(
            conn.refusal(Method::Get),
            Some(SubmitRefusal::Full),
            "depth bound enforced"
        );
        for i in 0..4 {
            let resp = conn.read_next(&FrameLimits::default()).unwrap();
            assert_eq!(resp.body_text().unwrap(), format!("echo /p{i}"));
        }
        assert_eq!(conn.unanswered(), 0);
        assert!(conn.is_open());
        server.shutdown();
    }

    #[test]
    fn non_idempotent_requests_are_never_pipelined() {
        let server = Server::bind("127.0.0.1:0", echo_handler(), ServerConfig::default()).unwrap();
        let mut conn = connect(server.local_addr(), 4);
        // A POST on an empty pipeline is fine…
        conn.submit(&Request::post("/admin", b"x".to_vec()), "h")
            .unwrap();
        // …but nothing may ride behind it, idempotent or not.
        assert_eq!(
            conn.refusal(Method::Get),
            Some(SubmitRefusal::NotPipelinable)
        );
        assert!(conn.submit(&Request::get("/g"), "h").is_err());
        conn.read_next(&FrameLimits::default()).unwrap();
        // And a POST may not join a non-empty pipeline.
        conn.submit(&Request::get("/g"), "h").unwrap();
        assert_eq!(
            conn.refusal(Method::Post),
            Some(SubmitRefusal::NotPipelinable)
        );
        conn.read_next(&FrameLimits::default()).unwrap();
        server.shutdown();
    }

    #[test]
    fn connection_close_response_stops_the_pipeline() {
        // A scripted server: answers the first request with
        // `Connection: close`, then closes — the two pipelined requests
        // behind it are never answered.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // Drain all three requests before closing: dropping the
            // socket with unread bytes would RST and destroy the
            // buffered response instead of FIN-ing after it.
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            while buf.windows(4).filter(|w| w == b"\r\n\r\n").count() < 3 {
                let n = sock.read(&mut chunk).unwrap();
                assert!(n > 0, "client closed before sending all requests");
                buf.extend_from_slice(&chunk[..n]);
            }
            let resp = Response::text(StatusCode::OK, "first");
            write_response(&mut sock, &resp, false).unwrap();
        });
        let mut conn = connect(addr, 3);
        for i in 0..3 {
            conn.submit(&Request::get(format!("/c{i}")), "h").unwrap();
        }
        let first = conn.read_next(&FrameLimits::default()).unwrap();
        assert_eq!(first.body_text().unwrap(), "first");
        assert!(!conn.is_open());
        assert_eq!(conn.unanswered(), 2, "two requests left unanswered");
        // Further reads report the close instead of hanging.
        let err = conn.read_next(&FrameLimits::default()).unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
        assert!(conn.submit(&Request::get("/x"), "h").is_err());
        script.join().unwrap();
    }

    #[test]
    fn truncated_response_poisons_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // Drain both requests first so the close after the partial
            // write is a FIN, not an RST that eats the partial bytes.
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            while buf.windows(4).filter(|w| w == b"\r\n\r\n").count() < 2 {
                let n = sock.read(&mut chunk).unwrap();
                assert!(n > 0, "client closed before sending all requests");
                buf.extend_from_slice(&chunk[..n]);
            }
            // A half-written response, then a hard close.
            sock.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort")
                .unwrap();
        });
        let mut conn = connect(addr, 2);
        conn.submit(&Request::get("/a"), "h").unwrap();
        conn.submit(&Request::get("/b"), "h").unwrap();
        let err = conn.read_next(&FrameLimits::default()).unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
        assert!(!conn.is_open());
        // The unanswered count still covers both requests: neither got
        // a full response, both need resubmission elsewhere.
        assert_eq!(conn.unanswered(), 2);
        script.join().unwrap();
    }

    #[test]
    fn head_responses_are_framed_without_bodies() {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| {
            let mut resp = Response::text(StatusCode::OK, "");
            resp.headers.set("content-length", "10");
            resp
        });
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let mut conn = connect(server.local_addr(), 2);
        let head = Request {
            method: Method::Head,
            path: "/h".into(),
            query: crate::url::QueryString::new(),
            headers: crate::message::Headers::new(),
            body: Vec::new(),
        };
        conn.submit(&head, "h").unwrap();
        conn.submit(&head, "h").unwrap();
        for _ in 0..2 {
            let resp = conn.read_next(&FrameLimits::default()).unwrap();
            assert!(resp.body.is_empty());
        }
        server.shutdown();
    }

    /// A write half that records every write call it receives, or fails
    /// each one with `BrokenPipe`.
    #[derive(Clone, Default)]
    struct Writes {
        log: Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
        broken: bool,
    }

    impl Writes {
        fn count(&self) -> usize {
            self.log.lock().unwrap().len()
        }
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.broken {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.log.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `n` canned keep-alive answers, back to back.
    fn answers(n: usize) -> std::io::Cursor<Vec<u8>> {
        let mut wire = Vec::new();
        for i in 0..n {
            let resp = Response::text(StatusCode::OK, format!("r{i}"));
            write_response(&mut wire, &resp, true).unwrap();
        }
        std::io::Cursor::new(wire)
    }

    fn canned(
        n: usize,
        writes: &Writes,
        depth: usize,
    ) -> PipelinedConn<std::io::Cursor<Vec<u8>>, Writes> {
        PipelinedConn::from_parts(
            MessageReader::new(answers(n)),
            writes.clone(),
            Vec::new(),
            depth,
        )
    }

    #[test]
    fn a_depth_four_batch_goes_out_in_one_write() {
        let writes = Writes::default();
        let mut conn = canned(4, &writes, 4);
        for i in 0..4 {
            conn.submit(&Request::get(format!("/b{i}")), "h").unwrap();
        }
        assert_eq!(writes.count(), 0, "submit only encodes");
        for i in 0..4 {
            let resp = conn.read_next(&FrameLimits::default()).unwrap();
            assert_eq!(resp.body_text().unwrap(), format!("r{i}"));
        }
        assert_eq!(writes.count(), 1);
        let wire = writes.log.lock().unwrap()[0].clone();
        let mut expected = Vec::new();
        for i in 0..4 {
            crate::framing::write_request(&mut expected, &Request::get(format!("/b{i}")), "h")
                .unwrap();
        }
        assert_eq!(wire, expected);
    }

    #[test]
    fn a_refill_waits_while_answers_are_buffered() {
        let writes = Writes::default();
        let mut conn = canned(3, &writes, 2);
        conn.submit(&Request::get("/a"), "h").unwrap();
        conn.submit(&Request::get("/b"), "h").unwrap();
        conn.read_next(&FrameLimits::default()).unwrap();
        assert_eq!(writes.count(), 1);
        // The refill stays buffered: the answer to /b is already in the
        // reader, so reading it cannot block on the peer.
        conn.submit(&Request::get("/c"), "h").unwrap();
        conn.read_next(&FrameLimits::default()).unwrap();
        assert_eq!(writes.count(), 1);
        // /c's own answer needs /c on the wire.
        conn.read_next(&FrameLimits::default()).unwrap();
        assert_eq!(writes.count(), 2);
        assert!(conn.is_open());
    }

    #[test]
    fn a_failed_flush_kills_the_write_side_but_drains_answers() {
        let writes = Writes {
            broken: true,
            ..Writes::default()
        };
        // The peer answered one request before the connection broke.
        let mut conn = canned(1, &writes, 4);
        for i in 0..3 {
            conn.submit(&Request::get(format!("/f{i}")), "h").unwrap();
        }
        let first = conn.read_next(&FrameLimits::default()).unwrap();
        assert_eq!(first.body_text().unwrap(), "r0");
        assert!(!conn.is_open());
        assert_eq!(conn.refusal(Method::Get), Some(SubmitRefusal::Closed));
        let err = conn.read_next(&FrameLimits::default()).unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
        // Both requests of the failed write still need a home.
        assert_eq!(conn.unanswered(), 2);
        assert!(conn.flush().is_ok(), "nothing left to write");
    }
}
