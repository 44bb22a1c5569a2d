//! HTTP message types: methods, status codes, headers, requests, responses.

use crate::url::QueryString;
use crate::{NetError, Result};
use std::fmt;

/// The request methods the stack supports. The Data API is read-only for
/// our purposes, but POST/DELETE exist for admin endpoints (sim-clock
/// control) and completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Safe, idempotent retrieval.
    Get,
    /// Non-idempotent submission (admin endpoints).
    Post,
    /// Idempotent replacement.
    Put,
    /// Idempotent deletion.
    Delete,
    /// Headers-only retrieval.
    Head,
}

impl Method {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }

    /// Parses a wire name (case-sensitive, per RFC 9110).
    pub fn parse(raw: &str) -> Result<Method> {
        Ok(match raw {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            other => return Err(NetError::Protocol(format!("unsupported method {other:?}"))),
        })
    }

    /// Whether requests with this method are safe to retry automatically.
    pub fn is_idempotent(self) -> bool {
        !matches!(self, Method::Post)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 204 No Content.
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden (quota errors use this).
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 405 Method Not Allowed.
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// 408 Request Timeout.
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 413 Content Too Large.
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 429 Too Many Requests.
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// The canonical reason phrase for logging and the status line.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Content Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Whether this is a 2xx status.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Whether this is a 5xx status (transient server failure; retryable).
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// A case-insensitive header multimap preserving insertion order.
///
/// Header names are stored lowercased (HTTP header names are
/// case-insensitive; normalizing at the edge keeps lookups cheap).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Appends a header, keeping any existing values for the same name.
    pub fn append(&mut self, name: &str, value: impl Into<String>) {
        self.entries.push((name.to_ascii_lowercase(), value.into()));
    }

    /// Replaces all values of `name` with a single `value`.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        let lower = name.to_ascii_lowercase();
        self.entries.retain(|(n, _)| *n != lower);
        self.entries.push((lower, value.into()));
    }

    /// First value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// All values of `name` in insertion order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        let lower = name.to_ascii_lowercase();
        self.entries
            .iter()
            .filter(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes all values of `name`.
    pub fn remove(&mut self, name: &str) {
        let lower = name.to_ascii_lowercase();
        self.entries.retain(|(n, _)| *n != lower);
    }

    /// All `(name, value)` entries, names lowercased.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }

    /// Number of header entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses `Content-Length`, if present and well-formed.
    pub fn content_length(&self) -> Result<Option<usize>> {
        match self.get("content-length") {
            None => Ok(None),
            Some(raw) => raw
                .trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| NetError::Protocol(format!("bad Content-Length: {raw:?}"))),
        }
    }

    /// Whether `Transfer-Encoding: chunked` applies (last encoding wins,
    /// per RFC 9112 §6.1).
    pub fn is_chunked(&self) -> bool {
        self.get("transfer-encoding")
            .map(|v| {
                v.split(',')
                    .next_back()
                    .map(|token| token.trim().eq_ignore_ascii_case("chunked"))
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    }

    /// Whether the peer asked to close the connection after this message.
    pub fn wants_close(&self) -> bool {
        self.get("connection")
            .map(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
            .unwrap_or(false)
    }
}

/// An HTTP request: method, path, query, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute path (no query).
    pub path: String,
    /// Parsed query parameters.
    pub query: QueryString,
    /// Request headers.
    pub headers: Headers,
    /// Request body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a bodyless GET request.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            query: QueryString::new(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Builds a POST request with a body.
    pub fn post(path: impl Into<String>, body: impl Into<Vec<u8>>) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            query: QueryString::new(),
            headers: Headers::new(),
            body: body.into(),
        }
    }

    /// Builder: sets the query string.
    pub fn with_query(mut self, query: QueryString) -> Request {
        self.query = query;
        self
    }

    /// Builder: adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.append(name, value);
        self
    }

    /// The request-target for the request line.
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query.encode())
        }
    }
}

/// An HTTP response: status, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Response status.
    pub status: StatusCode,
    /// Response headers.
    pub headers: Headers,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with the given status and empty body.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// A 200 response carrying a JSON body.
    pub fn json(status: StatusCode, body: impl Into<Vec<u8>>) -> Response {
        let mut resp = Response::new(status);
        resp.headers
            .set("content-type", "application/json; charset=utf-8");
        resp.body = body.into();
        resp
    }

    /// A plain-text response.
    pub fn text(status: StatusCode, body: impl Into<String>) -> Response {
        let mut resp = Response::new(status);
        resp.headers
            .set("content-type", "text/plain; charset=utf-8");
        resp.body = body.into().into_bytes();
        resp
    }

    /// Builder: adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.append(name, value);
        self
    }

    /// The body decoded as UTF-8, for tests and logging.
    pub fn body_text(&self) -> Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| NetError::Protocol("response body is not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_round_trip() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Head,
        ] {
            assert_eq!(Method::parse(m.as_str()).unwrap(), m);
        }
        assert!(Method::parse("get").is_err());
        assert!(Method::parse("BREW").is_err());
        assert!(Method::Get.is_idempotent());
        assert!(!Method::Post.is_idempotent());
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::FORBIDDEN.is_success());
        assert!(StatusCode::INTERNAL_SERVER_ERROR.is_server_error());
        assert!(StatusCode::SERVICE_UNAVAILABLE.is_server_error());
        assert!(!StatusCode::BAD_REQUEST.is_server_error());
        assert_eq!(StatusCode::FORBIDDEN.to_string(), "403 Forbidden");
        assert_eq!(StatusCode(599).reason(), "Unknown");
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.append("Content-Type", "application/json");
        assert_eq!(h.get("content-type"), Some("application/json"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("application/json"));
        assert!(h.contains("Content-type"));
        h.set("content-TYPE", "text/plain");
        assert_eq!(h.get_all("content-type"), vec!["text/plain"]);
        h.remove("Content-Type");
        assert!(h.is_empty());
    }

    #[test]
    fn headers_multi_value() {
        let mut h = Headers::new();
        h.append("set-cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        assert_eq!(h.get("set-cookie"), Some("a=1"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn content_length_parsing() {
        let mut h = Headers::new();
        assert_eq!(h.content_length().unwrap(), None);
        h.set("content-length", "123");
        assert_eq!(h.content_length().unwrap(), Some(123));
        h.set("content-length", " 99 ");
        assert_eq!(h.content_length().unwrap(), Some(99));
        h.set("content-length", "-5");
        assert!(h.content_length().is_err());
        h.set("content-length", "abc");
        assert!(h.content_length().is_err());
    }

    #[test]
    fn chunked_detection() {
        let mut h = Headers::new();
        assert!(!h.is_chunked());
        h.set("transfer-encoding", "chunked");
        assert!(h.is_chunked());
        h.set("transfer-encoding", "gzip, chunked");
        assert!(h.is_chunked());
        h.set("transfer-encoding", "chunked, gzip");
        assert!(!h.is_chunked());
        h.set("Transfer-Encoding", "CHUNKED");
        assert!(h.is_chunked());
    }

    #[test]
    fn connection_close_detection() {
        let mut h = Headers::new();
        assert!(!h.wants_close());
        h.set("connection", "keep-alive");
        assert!(!h.wants_close());
        h.set("connection", "close");
        assert!(h.wants_close());
        h.set("connection", "Keep-Alive, Close");
        assert!(h.wants_close());
    }

    #[test]
    fn request_target_includes_query() {
        let req = Request::get("/youtube/v3/search")
            .with_query(
                QueryString::new()
                    .with("q", "us capitol")
                    .with("maxResults", "50"),
            )
            .with_header("x-api-key", "k");
        assert_eq!(
            req.target(),
            "/youtube/v3/search?q=us+capitol&maxResults=50"
        );
        assert_eq!(Request::get("/healthz").target(), "/healthz");
    }

    #[test]
    fn response_builders() {
        let resp = Response::json(StatusCode::OK, br#"{"ok":true}"#.to_vec());
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/json; charset=utf-8")
        );
        assert_eq!(resp.body_text().unwrap(), r#"{"ok":true}"#);
        let text = Response::text(StatusCode::NOT_FOUND, "nope");
        assert_eq!(text.status, StatusCode::NOT_FOUND);
        assert_eq!(text.body, b"nope");
    }
}
