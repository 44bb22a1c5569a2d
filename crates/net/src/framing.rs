//! HTTP/1.1 wire framing: reading and writing messages on byte streams.
//!
//! The reader side is defensive: header blocks and bodies are capped, a
//! `Content-Length` is never trusted past the configured limit, and chunked
//! bodies are decoded chunk-by-chunk with the same cap. Truncated streams
//! surface as [`NetError::UnexpectedEof`] so callers can distinguish a
//! half-written message (retryable) from a malformed one (not).

use crate::message::{Headers, Method, Request, Response, StatusCode};
use crate::url::QueryString;
use crate::{NetError, Result};
use std::io::{BufRead, BufReader, Read, Write};

/// Hard limits applied while reading a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    /// Maximum bytes in the start line plus header block.
    pub max_header_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum body size in bytes (identity or chunked).
    pub max_body_bytes: usize,
}

impl Default for FrameLimits {
    fn default() -> FrameLimits {
        FrameLimits {
            max_header_bytes: 32 * 1024,
            max_headers: 128,
            // Search responses carry up to 50 resources per page; 16 MiB is
            // roomy without letting a hostile peer exhaust memory.
            max_body_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Body size above which the server switches to chunked transfer encoding.
pub const CHUNK_THRESHOLD: usize = 64 * 1024;

/// Chunk size used when writing chunked bodies.
pub const CHUNK_SIZE: usize = 16 * 1024;

/// A buffered message reader that persists across keep-alive requests.
pub struct MessageReader<R: Read> {
    inner: BufReader<R>,
}

impl<R: Read> MessageReader<R> {
    /// Wraps a stream.
    pub fn new(stream: R) -> MessageReader<R> {
        MessageReader {
            inner: BufReader::with_capacity(16 * 1024, stream),
        }
    }

    /// Whether bytes are already buffered from the stream — i.e. at least
    /// part of another pipelined message has arrived. Never blocks.
    pub fn has_buffered_input(&self) -> bool {
        !self.inner.buffer().is_empty()
    }

    /// Reads one CRLF-terminated line (LF alone is tolerated, CR stripped),
    /// enforcing `limit` bytes. Returns `None` on clean EOF at a message
    /// boundary.
    fn read_line(&mut self, limit: usize) -> Result<Option<String>> {
        let mut line = Vec::with_capacity(128);
        loop {
            let buf = self.inner.fill_buf()?;
            if buf.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(NetError::UnexpectedEof("EOF mid-line".into()));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&buf[..pos]);
                    self.inner.consume(pos + 1);
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    if line.len() > limit {
                        return Err(NetError::LimitExceeded("line too long".into()));
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| NetError::Protocol("non-UTF-8 header line".into()));
                }
                None => {
                    if line.len() + buf.len() > limit {
                        return Err(NetError::LimitExceeded("line too long".into()));
                    }
                    let len = buf.len();
                    line.extend_from_slice(buf);
                    self.inner.consume(len);
                }
            }
        }
    }

    /// Reads a header block (after the start line) into `Headers`.
    fn read_headers(&mut self, limits: &FrameLimits) -> Result<Headers> {
        let mut headers = Headers::new();
        let mut total = 0usize;
        loop {
            let line = self
                .read_line(limits.max_header_bytes)?
                .ok_or_else(|| NetError::UnexpectedEof("EOF in header block".into()))?;
            if line.is_empty() {
                return Ok(headers);
            }
            total += line.len();
            if total > limits.max_header_bytes {
                return Err(NetError::LimitExceeded("header block too large".into()));
            }
            if headers.len() >= limits.max_headers {
                return Err(NetError::LimitExceeded("too many headers".into()));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| NetError::Protocol(format!("malformed header line {line:?}")))?;
            if name.is_empty() || name.contains(' ') {
                return Err(NetError::Protocol(format!(
                    "malformed header name {name:?}"
                )));
            }
            headers.append(name, value.trim());
        }
    }

    /// Reads exactly `len` body bytes.
    fn read_exact_body(&mut self, len: usize, limits: &FrameLimits) -> Result<Vec<u8>> {
        if len > limits.max_body_bytes {
            return Err(NetError::LimitExceeded(format!(
                "declared body of {len} bytes exceeds limit"
            )));
        }
        let mut body = vec![0u8; len];
        self.inner
            .read_exact(&mut body)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => NetError::UnexpectedEof("EOF mid-body".into()),
                _ => NetError::Io(e.to_string()),
            })?;
        Ok(body)
    }

    /// Decodes a chunked body: `size-hex[;ext]\r\n data \r\n … 0\r\n
    /// [trailers] \r\n`.
    fn read_chunked_body(&mut self, limits: &FrameLimits) -> Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let size_line = self
                .read_line(limits.max_header_bytes)?
                .ok_or_else(|| NetError::UnexpectedEof("EOF at chunk size".into()))?;
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| NetError::Protocol(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                // Trailer section: zero or more header lines, then empty.
                loop {
                    let trailer = self
                        .read_line(limits.max_header_bytes)?
                        .ok_or_else(|| NetError::UnexpectedEof("EOF in trailers".into()))?;
                    if trailer.is_empty() {
                        return Ok(body);
                    }
                }
            }
            if body.len() + size > limits.max_body_bytes {
                return Err(NetError::LimitExceeded("chunked body exceeds limit".into()));
            }
            let start = body.len();
            body.resize(start + size, 0);
            self.inner
                .read_exact(&mut body[start..])
                .map_err(|_| NetError::UnexpectedEof("EOF mid-chunk".into()))?;
            // Chunk data is followed by CRLF.
            let mut crlf = [0u8; 2];
            self.inner
                .read_exact(&mut crlf)
                .map_err(|_| NetError::UnexpectedEof("EOF after chunk".into()))?;
            // ytlint: allow(indexing) — crlf is a fixed [u8; 2] buffer
            if &crlf != b"\r\n" && crlf[0] != b'\n' {
                return Err(NetError::Protocol("missing CRLF after chunk".into()));
            }
            // ytlint: allow(indexing) — crlf is a fixed [u8; 2] buffer
            if crlf[0] == b'\n' {
                // Tolerated bare-LF chunk terminator: the second byte we
                // consumed is actually part of the next size line. This is
                // a strictness trade-off; our own writer always emits CRLF.
                return Err(NetError::Protocol(
                    "bare LF after chunk not supported".into(),
                ));
            }
        }
    }

    /// Reads a body according to the framing headers. `allow_eof_body` is
    /// true for responses, where "read until close" is legal framing.
    fn read_body(
        &mut self,
        headers: &Headers,
        limits: &FrameLimits,
        allow_eof_body: bool,
    ) -> Result<Vec<u8>> {
        if headers.is_chunked() {
            return self.read_chunked_body(limits);
        }
        match headers.content_length()? {
            Some(len) => self.read_exact_body(len, limits),
            None if allow_eof_body && headers.wants_close() => {
                let mut body = Vec::new();
                let mut chunk = [0u8; 8192];
                loop {
                    let n = self.inner.read(&mut chunk)?;
                    if n == 0 {
                        return Ok(body);
                    }
                    if body.len() + n > limits.max_body_bytes {
                        return Err(NetError::LimitExceeded(
                            "EOF-delimited body exceeds limit".into(),
                        ));
                    }
                    body.extend_from_slice(&chunk[..n]);
                }
            }
            None => Ok(Vec::new()),
        }
    }

    /// Reads one request. Returns `Ok(None)` on clean EOF before the
    /// request line (the peer closed an idle keep-alive connection).
    pub fn read_request(&mut self, limits: &FrameLimits) -> Result<Option<Request>> {
        let Some(start) = self.read_line(limits.max_header_bytes)? else {
            return Ok(None);
        };
        let mut parts = start.split(' ');
        let method = Method::parse(parts.next().unwrap_or(""))?;
        let target = parts
            .next()
            .ok_or_else(|| NetError::Protocol(format!("malformed request line {start:?}")))?;
        let version = parts
            .next()
            .ok_or_else(|| NetError::Protocol(format!("malformed request line {start:?}")))?;
        if parts.next().is_some() {
            return Err(NetError::Protocol(format!(
                "malformed request line {start:?}"
            )));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(NetError::Protocol(format!(
                "unsupported version {version:?}"
            )));
        }
        if !target.starts_with('/') {
            return Err(NetError::Protocol(format!(
                "unsupported request target {target:?}"
            )));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), QueryString::parse(q)?),
            None => (target.to_string(), QueryString::new()),
        };
        let headers = self.read_headers(limits)?;
        let body = self.read_body(&headers, limits, false)?;
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
        }))
    }

    /// Reads one response. `head_request` suppresses body reading for
    /// responses to HEAD.
    pub fn read_response(&mut self, limits: &FrameLimits, head_request: bool) -> Result<Response> {
        let start = self
            .read_line(limits.max_header_bytes)?
            .ok_or_else(|| NetError::UnexpectedEof("EOF before status line".into()))?;
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(NetError::Protocol(format!(
                "malformed status line {start:?}"
            )));
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| NetError::Protocol(format!("malformed status line {start:?}")))?;
        let headers = self.read_headers(limits)?;
        let body = if head_request || code == 204 || code == 304 || (100..200).contains(&code) {
            Vec::new()
        } else {
            self.read_body(&headers, limits, true)?
        };
        Ok(Response {
            status: StatusCode(code),
            headers,
            body,
        })
    }
}

/// Writes a request to a stream. Adds `Host`, `Content-Length` (when a body
/// is present), and `Connection` headers if missing.
pub fn write_request<W: Write>(stream: &mut W, req: &Request, host: &str) -> Result<()> {
    let mut head = format!("{} {} HTTP/1.1\r\n", req.method, req.target());
    let mut headers = req.headers.clone();
    if !headers.contains("host") {
        headers.set("host", host);
    }
    if !req.body.is_empty() || req.method == Method::Post || req.method == Method::Put {
        headers.set("content-length", req.body.len().to_string());
    }
    for (name, value) in headers.entries() {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&req.body)?;
    stream.flush()?;
    Ok(())
}

/// Writes a response. Bodies above [`CHUNK_THRESHOLD`] are sent with
/// chunked transfer encoding; smaller ones use `Content-Length`.
pub fn write_response<W: Write>(stream: &mut W, resp: &Response, keep_alive: bool) -> Result<()> {
    let mut headers = resp.headers.clone();
    headers.set(
        "connection",
        if keep_alive { "keep-alive" } else { "close" },
    );
    let chunked = resp.body.len() > CHUNK_THRESHOLD;
    if chunked {
        headers.remove("content-length");
        headers.set("transfer-encoding", "chunked");
    } else {
        headers.remove("transfer-encoding");
        headers.set("content-length", resp.body.len().to_string());
    }
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status.0, resp.status.reason());
    for (name, value) in headers.entries() {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if chunked {
        write_chunked(stream, &resp.body)?;
    } else {
        stream.write_all(&resp.body)?;
    }
    stream.flush()?;
    Ok(())
}

/// Encodes `body` as chunked transfer encoding onto `stream`.
pub fn write_chunked<W: Write>(stream: &mut W, body: &[u8]) -> Result<()> {
    for chunk in body.chunks(CHUNK_SIZE) {
        write!(stream, "{:x}\r\n", chunk.len())?;
        stream.write_all(chunk)?;
        stream.write_all(b"\r\n")?;
    }
    stream.write_all(b"0\r\n\r\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(bytes: &[u8]) -> MessageReader<Cursor<Vec<u8>>> {
        MessageReader::new(Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_simple_get() {
        let raw = b"GET /youtube/v3/search?q=brexit&maxResults=50 HTTP/1.1\r\nHost: localhost\r\nX-Api-Key: k1\r\n\r\n";
        let req = reader(raw)
            .read_request(&FrameLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/youtube/v3/search");
        assert_eq!(req.query.get("q"), Some("brexit"));
        assert_eq!(req.headers.get("x-api-key"), Some("k1"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /admin/clock HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = reader(raw)
            .read_request(&FrameLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn clean_eof_returns_none() {
        assert!(reader(b"")
            .read_request(&FrameLimits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort";
        let err = reader(raw)
            .read_request(&FrameLimits::default())
            .unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
    }

    #[test]
    fn truncated_headers_are_unexpected_eof() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\n";
        let err = reader(raw)
            .read_request(&FrameLimits::default())
            .unwrap_err();
        assert!(matches!(err, NetError::UnexpectedEof(_)), "{err:?}");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / HTTP/2.0\r\n\r\n"[..],
            &b"GET / HTTP/1.1 extra\r\n\r\n"[..],
            &b"get / HTTP/1.1\r\n\r\n"[..],
            &b"GET http://evil/ HTTP/1.1\r\n\r\n"[..],
        ] {
            assert!(
                reader(raw).read_request(&FrameLimits::default()).is_err(),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_bad_headers() {
        let raw = b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n";
        assert!(reader(raw).read_request(&FrameLimits::default()).is_err());
        let raw2 = b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n";
        assert!(reader(raw2).read_request(&FrameLimits::default()).is_err());
    }

    #[test]
    fn enforces_header_limits() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            raw.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = reader(&raw)
            .read_request(&FrameLimits::default())
            .unwrap_err();
        assert!(matches!(err, NetError::LimitExceeded(_)));
    }

    #[test]
    fn enforces_body_limit() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let limits = FrameLimits {
            max_body_bytes: 1024,
            ..FrameLimits::default()
        };
        let err = reader(raw).read_request(&limits).unwrap_err();
        assert!(matches!(err, NetError::LimitExceeded(_)));
    }

    #[test]
    fn enforces_line_length_limit() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 100_000));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = reader(&raw)
            .read_request(&FrameLimits::default())
            .unwrap_err();
        assert!(matches!(err, NetError::LimitExceeded(_)));
    }

    #[test]
    fn response_round_trip_content_length() {
        let resp = Response::json(StatusCode::OK, br#"{"items":[]}"#.to_vec());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).unwrap();
        let parsed = reader(&wire)
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.body, resp.body);
        assert_eq!(parsed.headers.get("connection"), Some("keep-alive"));
    }

    #[test]
    fn response_round_trip_chunked() {
        // A body over CHUNK_THRESHOLD forces chunked encoding.
        let big = vec![b'x'; CHUNK_THRESHOLD + 12_345];
        let resp = Response::json(StatusCode::OK, big.clone());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(!text.contains("content-length"));
        let parsed = reader(&wire)
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.body, big);
    }

    #[test]
    fn chunked_decoder_handles_extensions_and_trailers() {
        let wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nTrailer: v\r\n\r\n";
        let parsed = reader(wire)
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.body, b"hello world");
    }

    #[test]
    fn chunked_decoder_rejects_garbage_sizes() {
        let wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n";
        assert!(reader(wire)
            .read_response(&FrameLimits::default(), false)
            .is_err());
    }

    #[test]
    fn chunked_body_respects_limit() {
        let mut wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        write_chunked(&mut wire, &vec![b'y'; 4096]).unwrap();
        let limits = FrameLimits {
            max_body_bytes: 1024,
            ..FrameLimits::default()
        };
        let err = reader(&wire).read_response(&limits, false).unwrap_err();
        assert!(matches!(err, NetError::LimitExceeded(_)));
    }

    #[test]
    fn eof_delimited_response_body() {
        let wire = b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nstreamed until close";
        let parsed = reader(wire)
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.body, b"streamed until close");
    }

    #[test]
    fn head_response_has_no_body() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\n";
        let parsed = reader(wire)
            .read_response(&FrameLimits::default(), true)
            .unwrap();
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn no_content_has_no_body() {
        let wire = b"HTTP/1.1 204 No Content\r\n\r\n";
        let parsed = reader(wire)
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.status, StatusCode::NO_CONTENT);
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn request_writer_adds_required_headers() {
        let req = Request::post("/admin/clock", b"{}".to_vec());
        let mut wire = Vec::new();
        write_request(&mut wire, &req, "localhost:9000").unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("POST /admin/clock HTTP/1.1\r\n"));
        assert!(text.contains("host: localhost:9000\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        // And it parses back.
        let parsed = reader(&wire)
            .read_request(&FrameLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(parsed.body, b"{}");
    }

    #[test]
    fn keep_alive_pipeline_of_requests() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::get("/a"), "h").unwrap();
        write_request(&mut wire, &Request::get("/b"), "h").unwrap();
        let mut rd = reader(&wire);
        let limits = FrameLimits::default();
        assert_eq!(rd.read_request(&limits).unwrap().unwrap().path, "/a");
        assert_eq!(rd.read_request(&limits).unwrap().unwrap().path, "/b");
        assert!(rd.read_request(&limits).unwrap().is_none());
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let raw = b"GET /x HTTP/1.1\nHost: h\n\n";
        let req = reader(raw)
            .read_request(&FrameLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(req.headers.get("host"), Some("h"));
    }
}
