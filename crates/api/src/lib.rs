//! # ytaudit-api
//!
//! A high-fidelity simulation of the YouTube Data API v3 surface the paper
//! audits: the six list endpoints (`search`, `videos`, `channels`,
//! `playlistItems`, `commentThreads`, `comments`), quota accounting with
//! the real cost model (100 units per search, 1 per ID lookup, Pacific-
//! midnight reset), opaque pagination tokens, the JSON wire schemas
//! (string-typed counters and all), the documented error envelopes, and an
//! HTTP binding over `ytaudit-net`.
//!
//! The *undocumented* behaviour — density-gated, rolling-window-randomized
//! search sampling — lives in `ytaudit-platform`; this crate only projects
//! it onto the wire, exactly the vantage point a researcher has.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod pagination;
pub mod params;
pub mod quota;
mod render;
pub mod resources;
pub mod service;

pub use http::{endpoint_for_path, route, serve, serve_with_config};
pub use quota::{Endpoint, QuotaLedger, DEFAULT_DAILY_QUOTA, RESEARCHER_DAILY_QUOTA};
pub use service::{ApiRequest, ApiService, FaultConfig};
