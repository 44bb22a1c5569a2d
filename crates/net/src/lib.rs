//! # ytaudit-net
//!
//! A minimal, dependency-light HTTP/1.1 stack over `std::net`, sized for the
//! needs of the `ytaudit` workspace: a REST API served and consumed on
//! loopback, with the failure modes the audit cares about (quota errors,
//! transient 5xx, truncated frames, timeouts) exercised over real sockets.
//!
//! Layout follows the classic layering of a networking library:
//!
//! * [`url`] — percent-encoding, query strings, and a small URL type;
//! * [`message`] — methods, status codes, case-insensitive headers, and the
//!   [`Request`]/[`Response`] types;
//! * [`framing`] — reading and writing HTTP/1.1 messages on byte streams,
//!   including chunked transfer encoding and hard limits on header/body
//!   sizes (a server must never trust the peer's length claims);
//! * [`server`] — a blocking, thread-per-connection TCP server with
//!   keep-alive, graceful shutdown, and 429 + `Retry-After` load shedding
//!   past a connection cap;
//! * [`client`] — a blocking client with per-host connection reuse;
//! * `pipeline` (crate-private) — bounded HTTP/1.1 request pipelining on
//!   one keep-alive connection, with strict rules about what may ride a
//!   pipeline and how unanswered requests are resubmitted when a
//!   connection dies; the client's one send path drives it;
//! * [`resilience`] — retry policies with exponential backoff plus a token
//!   bucket rate limiter, the two mechanisms a well-behaved API client
//!   needs when a quota-priced endpoint sits on the other side.
//!
//! The stack is intentionally synchronous: the audit's request pattern is
//! thousands of small sequential calls (hourly time bins), which threads
//! handle predictably; see the workspace DESIGN.md for the rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod framing;
pub mod message;
mod pipeline;
pub mod resilience;
pub mod server;
pub mod url;

pub use client::{HttpClient, PoolStats};
pub use framing::Outgoing;
pub use message::{Headers, Method, Request, Response, StatusCode};
pub use resilience::{Backoff, RetryPolicy, TokenBucket};
pub use server::{Handler, Server, ServerConfig, ServerHandle, ServerStats};
pub use url::{QueryString, Url};

/// The crate-local error type. `ytaudit-net` has no dependency on
/// `ytaudit-types`, so it carries its own error and higher layers convert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Malformed URL, query string, or HTTP syntax.
    Protocol(String),
    /// Socket-level failure or timeout.
    Io(String),
    /// A peer violated a configured limit (header block too large, body too
    /// large, too many headers).
    LimitExceeded(String),
    /// The connection closed before a full message was read.
    UnexpectedEof(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Io(m) => write!(f, "I/O error: {m}"),
            NetError::LimitExceeded(m) => write!(f, "limit exceeded: {m}"),
            NetError::UnexpectedEof(m) => write!(f, "unexpected EOF: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> NetError {
        NetError::Io(err.to_string())
    }
}

/// Crate-local result alias.
pub type Result<T, E = NetError> = std::result::Result<T, E>;
