//! Percent-encoding, query strings, and a small URL type.
//!
//! The Data API is driven almost entirely through query parameters
//! (`q=fifa+world+cup&publishedAfter=2014-05-29T00:00:00Z&…`), so correct,
//! round-trippable query-string handling is load-bearing for the audit: a
//! mis-encoded timestamp silently changes the collection window.

use crate::{NetError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// Bytes that never need escaping in a query component (RFC 3986
/// "unreserved" characters).
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~')
}

/// Percent-encodes `raw` for use as a query key or value. Space becomes
/// `+` (HTML form convention, which the real API accepts and emits in
/// examples); every other non-unreserved byte becomes `%XX`.
pub fn encode_component(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for &b in raw.as_bytes() {
        if is_unreserved(b) {
            out.push(b as char);
        } else if b == b' ' {
            out.push('+');
        } else {
            const HEX: &[u8; 16] = b"0123456789ABCDEF";
            out.push('%');
            // Nibbles are 0–15, so the masked lookups cannot miss.
            out.push(char::from(HEX[usize::from(b >> 4) & 0xF]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        }
    }
    out
}

/// Decodes a percent-encoded query component. `+` decodes to space.
/// Rejects truncated or non-hex escapes and invalid UTF-8.
pub fn decode_component(encoded: &str) -> Result<String> {
    let bytes = encoded.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut idx = 0;
    while idx < bytes.len() {
        match bytes[idx] {
            b'%' => {
                let hi = bytes
                    .get(idx + 1)
                    .and_then(|b| (*b as char).to_digit(16))
                    .ok_or_else(|| {
                        NetError::Protocol(format!("bad percent escape in {encoded:?}"))
                    })?;
                let lo = bytes
                    .get(idx + 2)
                    .and_then(|b| (*b as char).to_digit(16))
                    .ok_or_else(|| {
                        NetError::Protocol(format!("bad percent escape in {encoded:?}"))
                    })?;
                out.push(((hi << 4) | lo) as u8);
                idx += 3;
            }
            b'+' => {
                out.push(b' ');
                idx += 1;
            }
            b => {
                out.push(b);
                idx += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| {
        NetError::Protocol(format!("percent-decoded bytes are not UTF-8: {encoded:?}"))
    })
}

/// An ordered multimap of query parameters.
///
/// Keys keep insertion order on encode (so request lines are stable for
/// caching and logging) and support repeated keys (`id=a&id=b`), which the
/// Data API uses for batched ID lookups.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryString {
    pairs: Vec<(String, String)>,
}

impl QueryString {
    /// An empty query string.
    pub fn new() -> QueryString {
        QueryString::default()
    }

    /// Parses the text after `?` (not including it). Empty input yields an
    /// empty query. Pairs without `=` parse as empty-valued keys.
    pub fn parse(raw: &str) -> Result<QueryString> {
        let mut pairs = Vec::new();
        if raw.is_empty() {
            return Ok(QueryString { pairs });
        }
        for piece in raw.split('&') {
            if piece.is_empty() {
                continue;
            }
            let (k, v) = match piece.split_once('=') {
                Some((k, v)) => (decode_component(k)?, decode_component(v)?),
                None => (decode_component(piece)?, String::new()),
            };
            pairs.push((k, v));
        }
        Ok(QueryString { pairs })
    }

    /// Appends a key/value pair (keeps duplicates).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.pairs.push((key.into(), value.into()));
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.push(key, value);
        self
    }

    /// First value for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All values for `key`, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether `key` appears at least once.
    pub fn contains(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// All pairs in insertion order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Encodes back to `k=v&k2=v2` form in insertion order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (idx, (k, v)) in self.pairs.iter().enumerate() {
            if idx > 0 {
                out.push('&');
            }
            out.push_str(&encode_component(k));
            out.push('=');
            out.push_str(&encode_component(v));
        }
        out
    }

    /// A canonical, order-insensitive rendering (keys sorted, repeated keys
    /// kept in value order) — used as a cache key by the client.
    pub fn canonical(&self) -> String {
        let mut grouped: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (k, v) in &self.pairs {
            grouped.entry(k).or_default().push(v);
        }
        let mut out = String::new();
        for (k, vs) in grouped {
            for v in vs {
                if !out.is_empty() {
                    out.push('&');
                }
                out.push_str(&encode_component(k));
                out.push('=');
                out.push_str(&encode_component(v));
            }
        }
        out
    }
}

impl fmt::Display for QueryString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for QueryString {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        QueryString {
            pairs: iter
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }
}

/// A parsed `http://host:port/path?query` URL.
///
/// Only the `http` scheme is supported: the simulated API serves loopback
/// plaintext. (`https` parses but is refused at connect time by the
/// client, with a clear error, so realistic Data API URLs still parse.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Host name or IP literal.
    pub host: String,
    /// Port; defaults to 80/443 by scheme when absent.
    pub port: u16,
    /// Absolute path, always starting with `/`.
    pub path: String,
    /// Parsed query parameters.
    pub query: QueryString,
}

impl Url {
    /// Parses an absolute URL.
    pub fn parse(raw: &str) -> Result<Url> {
        let bad = |msg: &str| NetError::Protocol(format!("{msg}: {raw:?}"));
        let (scheme, rest) = raw
            .split_once("://")
            .ok_or_else(|| bad("URL missing scheme"))?;
        if scheme != "http" && scheme != "https" {
            return Err(bad("unsupported scheme"));
        }
        let (authority, path_query) = match rest.find('/') {
            Some(pos) => (&rest[..pos], &rest[pos..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(bad("URL missing host"));
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => (
                h.to_string(),
                p.parse::<u16>().map_err(|_| bad("port out of range"))?,
            ),
            _ => (
                authority.to_string(),
                if scheme == "https" { 443 } else { 80 },
            ),
        };
        if host.is_empty() {
            return Err(bad("URL missing host"));
        }
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p.to_string(), QueryString::parse(q)?),
            None => (path_query.to_string(), QueryString::new()),
        };
        Ok(Url {
            scheme: scheme.to_string(),
            host,
            port,
            path,
            query,
        })
    }

    /// The path plus encoded query — what goes on the HTTP request line.
    pub fn path_and_query(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query.encode())
        }
    }

    /// `host:port` for the `Host` header and connection pooling key.
    pub fn authority(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}://{}{}",
            self.scheme,
            self.authority(),
            self.path_and_query()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_reserved_characters() {
        assert_eq!(encode_component("fifa world cup"), "fifa+world+cup");
        assert_eq!(encode_component("a&b=c"), "a%26b%3Dc");
        assert_eq!(
            encode_component("2014-05-29T00:00:00Z"),
            "2014-05-29T00%3A00%3A00Z"
        );
        assert_eq!(encode_component("safe-_.~"), "safe-_.~");
        assert_eq!(encode_component("naïve"), "na%C3%AFve");
    }

    #[test]
    fn decode_inverts_encode() {
        for raw in [
            "fifa world cup",
            "a&b=c",
            "2014-05-29T00:00:00Z",
            "ünï©ødé ~ text",
            "",
            "100% legit",
        ] {
            assert_eq!(decode_component(&encode_component(raw)).unwrap(), raw);
        }
    }

    #[test]
    fn decode_rejects_bad_escapes() {
        assert!(decode_component("%").is_err());
        assert!(decode_component("%2").is_err());
        assert!(decode_component("%GZ").is_err());
        assert!(decode_component("%FF%FE").is_err()); // not UTF-8
    }

    #[test]
    fn query_string_round_trip() {
        let qs = QueryString::new()
            .with("part", "snippet")
            .with("q", "higgs boson")
            .with("maxResults", "50")
            .with("publishedAfter", "2012-06-20T00:00:00Z");
        let encoded = qs.encode();
        assert_eq!(
            encoded,
            "part=snippet&q=higgs+boson&maxResults=50&publishedAfter=2012-06-20T00%3A00%3A00Z"
        );
        assert_eq!(QueryString::parse(&encoded).unwrap(), qs);
    }

    #[test]
    fn query_string_multi_values() {
        let qs = QueryString::parse("id=a&id=b&id=c").unwrap();
        assert_eq!(qs.get("id"), Some("a"));
        assert_eq!(qs.get_all("id"), vec!["a", "b", "c"]);
        assert_eq!(qs.len(), 3);
        assert!(qs.contains("id"));
        assert!(!qs.contains("q"));
    }

    #[test]
    fn query_string_edge_cases() {
        assert!(QueryString::parse("").unwrap().is_empty());
        let qs = QueryString::parse("flag&k=v&&=empty").unwrap();
        assert_eq!(qs.get("flag"), Some(""));
        assert_eq!(qs.get("k"), Some("v"));
        assert_eq!(qs.get(""), Some("empty"));
    }

    #[test]
    fn canonical_sorts_keys() {
        let a = QueryString::parse("b=2&a=1&c=3").unwrap();
        let b = QueryString::parse("c=3&a=1&b=2").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.encode(), b.encode());
        // Repeated keys keep value order.
        let multi = QueryString::parse("id=z&a=1&id=y").unwrap();
        assert_eq!(multi.canonical(), "a=1&id=z&id=y");
    }

    #[test]
    fn url_parse_full() {
        let url =
            Url::parse("http://127.0.0.1:8080/youtube/v3/search?part=snippet&q=brexit").unwrap();
        assert_eq!(url.scheme, "http");
        assert_eq!(url.host, "127.0.0.1");
        assert_eq!(url.port, 8080);
        assert_eq!(url.path, "/youtube/v3/search");
        assert_eq!(url.query.get("q"), Some("brexit"));
        assert_eq!(url.authority(), "127.0.0.1:8080");
        assert_eq!(
            url.to_string(),
            "http://127.0.0.1:8080/youtube/v3/search?part=snippet&q=brexit"
        );
    }

    #[test]
    fn url_defaults() {
        let url = Url::parse("http://example.com").unwrap();
        assert_eq!(url.port, 80);
        assert_eq!(url.path, "/");
        assert!(url.query.is_empty());
        assert_eq!(url.path_and_query(), "/");
        let tls = Url::parse("https://www.googleapis.com/youtube/v3/videos?id=abc").unwrap();
        assert_eq!(tls.port, 443);
    }

    #[test]
    fn url_rejects_malformed() {
        for raw in [
            "",
            "youtube/v3/search",
            "ftp://example.com/",
            "http://",
            "http://:8080/",
            "http://host:99999/",
        ] {
            assert!(Url::parse(raw).is_err(), "should reject {raw:?}");
        }
    }

    #[test]
    fn url_ipv6ish_host_without_port() {
        // rsplit_once(':') must not mangle hosts whose last segment is not
        // a valid port.
        let url = Url::parse("http://host:notaport/").unwrap_or_else(|_| {
            // Accepting a parse error is also fine; what we must not do is
            // silently produce a wrong port. The current grammar treats the
            // whole authority as a host name.
            Url::parse("http://fallback/").unwrap()
        });
        assert!(url.port == 80);
    }
}
