//! HTTP/1.1 wire framing: reading and writing messages on byte streams.
//!
//! The reader side is defensive: header blocks and bodies are capped, a
//! `Content-Length` is never trusted past the configured limit, and chunked
//! bodies are decoded chunk-by-chunk with the same cap. Truncated streams
//! surface as [`NetError::UnexpectedEof`] so callers can distinguish a
//! half-written message (retryable) from a malformed one (not).
//!
//! Heads are parsed in one pass over the reader's own buffer: each line
//! is split, checked and parsed where it lies, with no per-line copy.
//! The writer side appends heads straight into a caller's buffer
//! ([`encode_request`], [`encode_response`]) and never flushes: the
//! connection decides when its buffer goes on the wire, so a pipelined
//! batch leaves in one write.

use crate::message::{Headers, Method, Request, Response, StatusCode};
use crate::url::QueryString;
use crate::{NetError, Result};
use std::io::{Read, Write};

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

/// Initial size of a reader's buffer; it grows only for a line longer
/// than this, up to the header limit.
const READ_BUFFER: usize = 16 * 1024;

/// A buffered message reader that persists across keep-alive requests.
///
/// Bytes `pos..end` of `buf` are read from the stream but not yet
/// consumed; they may hold the start of the next pipelined message.
pub struct MessageReader<R: Read> {
    stream: R,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl<R: Read> MessageReader<R> {
    /// Wraps a stream.
    pub fn new(stream: R) -> MessageReader<R> {
        MessageReader {
            stream,
            buf: vec![0; READ_BUFFER],
            pos: 0,
            end: 0,
        }
    }

    /// Whether bytes are already buffered from the stream — i.e. at least
    /// part of another pipelined message has arrived. Never blocks.
    pub fn has_buffered_input(&self) -> bool {
        self.pos < self.end
    }

    /// Whether the buffer holds a whole request: a head terminator plus
    /// the `Content-Length` body it declares. Reading such a request
    /// cannot block on the peer, so a server may hold back the answer to
    /// the previous one and send both together. A head that declares a
    /// `Transfer-Encoding` counts as incomplete. Never blocks.
    pub fn has_buffered_request(&self) -> bool {
        let bytes = self.buf.get(self.pos..self.end).unwrap_or_default();
        let mut at = 0;
        let mut body = None;
        let mut start_line = true;
        while let Some(nl) = bytes.get(at..).and_then(find_newline) {
            let line = trim_cr(bytes.get(at..at + nl).unwrap_or_default());
            at += nl + 1;
            if std::mem::take(&mut start_line) {
                continue;
            }
            if line.is_empty() {
                return bytes.len() - at >= body.unwrap_or(0);
            }
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                return true; // malformed: the read fails without blocking
            };
            let (name, value) = line.split_at(colon);
            if name.eq_ignore_ascii_case(b"transfer-encoding") {
                return false;
            }
            if body.is_none() && name.eq_ignore_ascii_case(b"content-length") {
                // A malformed length fails the read once the whole head
                // is in, with no body to wait for.
                body = Some(
                    parse_decimal(value.get(1..).unwrap_or_default().trim_ascii()).unwrap_or(0),
                );
            }
        }
        false
    }

    /// Reads more of the stream into the buffer: compacts it first, and
    /// grows it (never past `cap`, never by less than a byte) only when
    /// the unconsumed bytes fill it. Returns the bytes read; 0 at EOF.
    fn fill(&mut self, cap: usize) -> std::io::Result<usize> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.end, 0);
                self.end -= self.pos;
                self.pos = 0;
            } else {
                let len = self.buf.len();
                self.buf.resize((len * 2).min(cap).max(len + 1), 0);
            }
        }
        loop {
            let spare = self.buf.get_mut(self.end..).unwrap_or_default();
            match self.stream.read(spare) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Consumes the next line (LF-terminated, a CR before the LF
    /// stripped), reading more as needed, and returns its byte range in
    /// the buffer, valid until the next fill. `None` on EOF before the
    /// line's first byte.
    fn line(&mut self, limit: usize) -> Result<Option<(usize, usize)>> {
        // Bytes of the partial line already searched for the LF.
        let mut scanned = 0;
        loop {
            let unread = self
                .buf
                .get(self.pos + scanned..self.end)
                .unwrap_or_default();
            if let Some(at) = find_newline(unread) {
                let (start, nl) = (self.pos, self.pos + scanned + at);
                self.pos = nl + 1;
                let end = if nl > start && self.buf.get(nl - 1) == Some(&b'\r') {
                    nl - 1
                } else {
                    nl
                };
                if end - start > limit {
                    return Err(NetError::LimitExceeded("line too long".into()));
                }
                return Ok(Some((start, end)));
            }
            scanned = self.end - self.pos;
            if scanned > limit {
                return Err(NetError::LimitExceeded("line too long".into()));
            }
            if self.fill(limit.saturating_add(2))? == 0 {
                if scanned == 0 {
                    return Ok(None);
                }
                return Err(NetError::UnexpectedEof("EOF mid-line".into()));
            }
        }
    }

    /// The text of a line range from [`MessageReader::line`].
    fn text(&self, (start, end): (usize, usize)) -> Result<&str> {
        std::str::from_utf8(self.buf.get(start..end).unwrap_or_default())
            .map_err(|_| NetError::Protocol("non-UTF-8 header line".into()))
    }

    /// Reads one head in a single pass: the start line, handed to
    /// `start`, then each header line parsed where it lies in the buffer.
    /// `None` on clean EOF before the start line.
    fn read_head<T>(
        &mut self,
        limits: &FrameLimits,
        start: impl FnOnce(&str) -> Result<T>,
    ) -> Result<Option<(T, Headers)>> {
        let Some(range) = self.line(limits.max_header_bytes)? else {
            return Ok(None);
        };
        let start = start(self.text(range)?)?;
        let mut headers = Headers::new();
        let mut total = 0usize;
        loop {
            let range = self
                .line(limits.max_header_bytes)?
                .ok_or_else(|| NetError::UnexpectedEof("EOF in header block".into()))?;
            if range.0 == range.1 {
                return Ok(Some((start, headers)));
            }
            total += range.1 - range.0;
            if total > limits.max_header_bytes {
                return Err(NetError::LimitExceeded("header block too large".into()));
            }
            if headers.len() >= limits.max_headers {
                return Err(NetError::LimitExceeded("too many headers".into()));
            }
            let line = self.text(range)?;
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

    /// Fills `out` from the buffer, then from the stream; a remainder at
    /// least a buffer long is read straight into `out`.
    fn read_into(&mut self, out: &mut [u8], eof: &str) -> Result<()> {
        let mut done = 0;
        loop {
            let n = (self.end - self.pos).min(out.len() - done);
            if let (Some(dst), Some(src)) = (
                out.get_mut(done..done + n),
                self.buf.get(self.pos..self.pos + n),
            ) {
                dst.copy_from_slice(src);
            }
            self.pos += n;
            done += n;
            let Some(rest) = out.get_mut(done..).filter(|rest| !rest.is_empty()) else {
                return Ok(());
            };
            if rest.len() >= self.buf.len() {
                return self.stream.read_exact(rest).map_err(|e| match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => NetError::UnexpectedEof(eof.into()),
                    _ => NetError::Io(e.to_string()),
                });
            }
            if self.fill(self.buf.len())? == 0 {
                return Err(NetError::UnexpectedEof(eof.into()));
            }
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
        self.read_into(&mut body, "EOF mid-body")?;
        Ok(body)
    }

    /// Decodes a chunked body: `size-hex[;ext]\r\n data \r\n … 0\r\n
    /// [trailers] \r\n`.
    fn read_chunked_body(&mut self, limits: &FrameLimits) -> Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let range = self
                .line(limits.max_header_bytes)?
                .ok_or_else(|| NetError::UnexpectedEof("EOF at chunk size".into()))?;
            let size_line = self.text(range)?;
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| NetError::Protocol(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                // Trailer section: zero or more header lines, then empty.
                loop {
                    let trailer = self
                        .line(limits.max_header_bytes)?
                        .ok_or_else(|| NetError::UnexpectedEof("EOF in trailers".into()))?;
                    if trailer.0 == trailer.1 {
                        return Ok(body);
                    }
                }
            }
            let start = body.len();
            reserve_within(&mut body, size, limits.max_body_bytes, "chunked body")?;
            body.resize(start + size, 0);
            self.read_into(body.get_mut(start..).unwrap_or_default(), "EOF mid-chunk")?;
            // Chunk data is followed by CRLF; our own writer always
            // emits it, and a bare LF is not accepted.
            let mut crlf = [0u8; 2];
            self.read_into(&mut crlf, "EOF after chunk")?;
            if &crlf != b"\r\n" {
                return Err(NetError::Protocol("missing CRLF after chunk".into()));
            }
        }
    }

    /// Reads a body that runs to the end of the stream.
    fn read_to_eof(&mut self, limits: &FrameLimits) -> Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let buffered = self.buf.get(self.pos..self.end).unwrap_or_default();
            reserve_within(
                &mut body,
                buffered.len(),
                limits.max_body_bytes,
                "EOF-delimited body",
            )?;
            body.extend_from_slice(buffered);
            self.pos = self.end;
            if self.fill(self.buf.len())? == 0 {
                return Ok(body);
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
            None if allow_eof_body && headers.wants_close() => self.read_to_eof(limits),
            None => Ok(Vec::new()),
        }
    }

    /// Reads one request. Returns `Ok(None)` on clean EOF before the
    /// request line (the peer closed an idle keep-alive connection).
    pub fn read_request(&mut self, limits: &FrameLimits) -> Result<Option<Request>> {
        let Some(((method, path, query), headers)) = self.read_head(limits, parse_request_line)?
        else {
            return Ok(None);
        };
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
        let (code, headers) = self
            .read_head(limits, parse_status_line)?
            .ok_or_else(|| NetError::UnexpectedEof("EOF before status line".into()))?;
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

/// Position of the first LF in `bytes`.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// `line` without one trailing CR.
fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// A non-empty run of ASCII digits as a `usize`, if it fits.
fn parse_decimal(digits: &[u8]) -> Option<usize> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Makes room in `body` for `extra` more bytes without letting any
/// allocation pass `max`: capacity doubles, clamped to the limit.
fn reserve_within(body: &mut Vec<u8>, extra: usize, max: usize, what: &str) -> Result<()> {
    let need = body.len().saturating_add(extra);
    if need > max {
        return Err(NetError::LimitExceeded(format!("{what} exceeds limit")));
    }
    if need > body.capacity() {
        let target = (body.capacity() * 2).clamp(need, max);
        body.reserve_exact(target - body.len());
    }
    Ok(())
}

/// Parses `METHOD /target HTTP/1.x` into the method, path and query.
fn parse_request_line(start: &str) -> Result<(Method, String, QueryString)> {
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
    Ok(match target.split_once('?') {
        Some((p, q)) => (method, p.to_string(), QueryString::parse(q)?),
        None => (method, target.to_string(), QueryString::new()),
    })
}

/// Parses `HTTP/1.x CODE [reason]` into the status code.
fn parse_status_line(start: &str) -> Result<u16> {
    let mut parts = start.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(NetError::Protocol(format!(
            "malformed status line {start:?}"
        )));
    }
    parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| NetError::Protocol(format!("malformed status line {start:?}")))
}

/// A request as the client writes it: anything that can append its own
/// request-target and header fields to a connection's buffer. [`Request`]
/// is one; a caller with its parts at hand can write them without first
/// building a `Request`.
pub trait Outgoing {
    /// The request method.
    fn method(&self) -> Method;
    /// Appends the request-target: the path and any encoded query.
    fn write_target(&self, out: &mut Vec<u8>);
    /// Appends the request's own header fields, each as
    /// `name: value\r\n`, leaving out `content-length` and
    /// `transfer-encoding` (the writer frames the body itself).
    fn write_headers(&self, out: &mut Vec<u8>);
    /// Whether the request carries its own field `name` (lowercase).
    fn has_header(&self, name: &str) -> bool;
    /// The body bytes.
    fn body(&self) -> &[u8];
}

impl Outgoing for Request {
    fn method(&self) -> Method {
        self.method
    }

    fn write_target(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.path.as_bytes());
        if !self.query.is_empty() {
            out.push(b'?');
            self.query.encode_into(out);
        }
    }

    fn write_headers(&self, out: &mut Vec<u8>) {
        for (name, value) in self.headers.entries() {
            if name != "content-length" && name != "transfer-encoding" {
                push_field(out, name, value);
            }
        }
    }

    fn has_header(&self, name: &str) -> bool {
        self.headers.contains(name)
    }

    fn body(&self) -> &[u8] {
        &self.body
    }
}

/// Appends one `name: value\r\n` header line.
fn push_field(out: &mut Vec<u8>, name: &str, value: &str) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        if let Some(d) = digits.get_mut(at) {
            *d = b'0' + (rest % 10) as u8;
        }
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(at..).unwrap_or_default());
}

/// Appends `request` to `out`: the request line, the request's own
/// header fields in order, `host` when it has none, and
/// `content-length` when it carries a body or is a POST or PUT; then the
/// body. Nothing is flushed: `out` is the connection's write buffer.
pub fn encode_request<M: Outgoing + ?Sized>(out: &mut Vec<u8>, request: &M, host: &str) {
    let method = request.method();
    out.extend_from_slice(method.as_str().as_bytes());
    out.push(b' ');
    request.write_target(out);
    out.extend_from_slice(b" HTTP/1.1\r\n");
    request.write_headers(out);
    if !request.has_header("host") {
        push_field(out, "host", host);
    }
    let body = request.body();
    if !body.is_empty() || method == Method::Post || method == Method::Put {
        out.extend_from_slice(b"content-length: ");
        push_decimal(out, body.len());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Writes a request to a stream in one write: [`encode_request`] into a
/// fresh buffer. Adds `Host` and `Content-Length` (when a body is
/// present) if missing.
pub fn write_request<W: Write, M: Outgoing + ?Sized>(
    stream: &mut W,
    request: &M,
    host: &str,
) -> Result<()> {
    let mut wire = Vec::with_capacity(256 + request.body().len());
    encode_request(&mut wire, request, host);
    stream.write_all(&wire)?;
    Ok(())
}

/// Appends `resp` to `out`: the status line, the response's own header
/// fields in order, then `connection` and the body framing, which the
/// writer owns. Bodies above [`CHUNK_THRESHOLD`] are sent with chunked
/// transfer encoding; smaller ones use `Content-Length`. Nothing is
/// flushed: `out` is the connection's write buffer.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, usize::from(resp.status.0));
    out.push(b' ');
    out.extend_from_slice(resp.status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in resp.headers.entries() {
        if !matches!(
            name.as_str(),
            "connection" | "content-length" | "transfer-encoding"
        ) {
            push_field(out, name, value);
        }
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    push_field(out, "connection", connection);
    if resp.body.len() > CHUNK_THRESHOLD {
        out.extend_from_slice(b"transfer-encoding: chunked\r\n\r\n");
        encode_chunked(out, &resp.body);
    } else {
        out.extend_from_slice(b"content-length: ");
        push_decimal(out, resp.body.len());
        out.extend_from_slice(b"\r\n\r\n");
        out.extend_from_slice(&resp.body);
    }
}

/// Writes a response to a stream in one write: [`encode_response`] into
/// a fresh buffer.
pub fn write_response<W: Write>(stream: &mut W, resp: &Response, keep_alive: bool) -> Result<()> {
    let mut wire = Vec::with_capacity(256 + resp.body.len());
    encode_response(&mut wire, resp, keep_alive);
    stream.write_all(&wire)?;
    Ok(())
}

/// Appends `body` in chunked transfer encoding to `out`.
fn encode_chunked(out: &mut Vec<u8>, body: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for chunk in body.chunks(CHUNK_SIZE) {
        let mut size = [0u8; 16];
        let mut at = size.len();
        let mut rest = chunk.len();
        loop {
            at -= 1;
            if let Some(d) = size.get_mut(at) {
                *d = HEX[rest & 0xF];
            }
            rest >>= 4;
            if rest == 0 {
                break;
            }
        }
        out.extend_from_slice(size.get(at..).unwrap_or_default());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Encodes `body` as chunked transfer encoding onto `stream`.
pub fn write_chunked<W: Write>(stream: &mut W, body: &[u8]) -> Result<()> {
    let mut wire = Vec::with_capacity(body.len() + 64);
    encode_chunked(&mut wire, body);
    stream.write_all(&wire)?;
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

    /// A stream that hands out at most `step` bytes per read.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn heads_and_bodies_parse_across_any_read_boundary() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::post("/p", b"0123456789".to_vec()), "h").unwrap();
        let get = Request::get("/g").with_query(QueryString::new().with("q", "a b"));
        write_request(&mut wire, &get, "h").unwrap();
        for step in [1, 2, 3, 7, 64] {
            let mut rd = MessageReader::new(Trickle {
                bytes: wire.clone(),
                at: 0,
                step,
            });
            let limits = FrameLimits::default();
            let post = rd.read_request(&limits).unwrap().unwrap();
            assert_eq!(post.body, b"0123456789", "step {step}");
            let get = rd.read_request(&limits).unwrap().unwrap();
            assert_eq!(get.query.get("q"), Some("a b"), "step {step}");
            assert_eq!(get.headers.get("host"), Some("h"), "step {step}");
            assert!(rd.read_request(&limits).unwrap().is_none(), "step {step}");
        }
    }

    #[test]
    fn a_line_longer_than_the_buffer_grows_it_up_to_the_limit() {
        let long = "v".repeat(READ_BUFFER + 1_000);
        let raw = format!("GET / HTTP/1.1\r\nx-long: {long}\r\n\r\n");
        let req = reader(raw.as_bytes())
            .read_request(&FrameLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(req.headers.get("x-long"), Some(long.as_str()));
    }

    #[test]
    fn buffered_request_completeness() {
        let complete = |bytes: &[u8]| {
            let mut rd = reader(bytes);
            // Pull the bytes into the buffer without consuming them.
            rd.fill(READ_BUFFER).unwrap();
            rd.has_buffered_request()
        };
        assert!(!complete(b""));
        assert!(!complete(b"GET / HTTP/1.1\r\nhost: h\r\n"));
        assert!(complete(b"GET / HTTP/1.1\r\nhost: h\r\n\r\n"));
        assert!(complete(b"GET / HTTP/1.1\nhost: h\n\n"));
        assert!(!complete(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabc"
        ));
        assert!(complete(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        ));
        assert!(!complete(
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n"
        ));
        // A head the read rejects outright cannot block it either, but
        // a bad length is only rejected once the whole head is in.
        assert!(complete(b"POST / HTTP/1.1\r\ncontent-length: x\r\n\r\n"));
        assert!(!complete(
            b"POST / HTTP/1.1\r\ncontent-length: x\r\nhost: h"
        ));
        assert!(complete(b"GET / HTTP/1.1\r\nno colon\r\nhost: h"));
        // Only the first request counts; after it is read, the next.
        let mut two = Vec::new();
        write_request(&mut two, &Request::get("/a"), "h").unwrap();
        two.extend_from_slice(b"GET /b HTTP/1.1\r\n");
        let mut rd = reader(&two);
        rd.fill(READ_BUFFER).unwrap();
        assert!(rd.has_buffered_request());
        rd.read_request(&FrameLimits::default()).unwrap().unwrap();
        assert!(rd.has_buffered_input());
        assert!(!rd.has_buffered_request());
    }

    #[test]
    fn the_writer_owns_body_framing() {
        let req = Request::get("/x")
            .with_header("content-length", "5")
            .with_header("transfer-encoding", "chunked")
            .with_header("x-a", "1");
        let mut wire = Vec::new();
        encode_request(&mut wire, &req, "h");
        assert_eq!(wire, b"GET /x HTTP/1.1\r\nx-a: 1\r\nhost: h\r\n\r\n");
    }

    #[test]
    fn decimal_and_hex_writers() {
        for n in [0usize, 7, 10, 99, 100, 65_535, usize::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().into_bytes());
        }
        for len in [1usize, 15, 16, 255, CHUNK_SIZE] {
            let mut out = Vec::new();
            encode_chunked(&mut out, &vec![b'x'; len]);
            assert!(out.starts_with(format!("{len:x}\r\n").as_bytes()), "{len}");
        }
    }
}
