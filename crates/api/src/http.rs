//! HTTP binding: serves the simulated Data API over `ytaudit-net`.
//!
//! Routes mirror the real service (`GET /youtube/v3/<endpoint>?…&key=K`),
//! plus two simulation affordances:
//!
//! * the `X-Sim-Time` request header overrides the service clock for that
//!   request (RFC 3339), letting an HTTP client time-travel per request;
//! * `POST /admin/clock` with `{"now": "…"}` moves the shared clock, and
//!   `GET /admin/clock` reads it.

use crate::quota::Endpoint;
use crate::service::{error_response, ApiRequest, ApiService};
use std::sync::Arc;
use ytaudit_net::server::{Server, ServerConfig, ServerHandle};
use ytaudit_net::{Request, Response, StatusCode};
use ytaudit_types::{ApiErrorReason, Error, Timestamp};

/// Binds `service` on `addr` (use `127.0.0.1:0` for an ephemeral port).
pub fn serve(service: Arc<ApiService>, addr: &str) -> ytaudit_net::Result<ServerHandle> {
    serve_with_config(service, addr, ServerConfig::default())
}

/// Binds with explicit server configuration.
pub fn serve_with_config(
    service: Arc<ApiService>,
    addr: &str,
    config: ServerConfig,
) -> ytaudit_net::Result<ServerHandle> {
    let handler = Arc::new(move |req: &Request| route(&service, req));
    Server::bind(addr, handler, config)
}

/// Maps a request path to its API endpoint, or `None` for anything that
/// is not a `/youtube/v3/<endpoint>` route. Front ends (e.g. the tenant
/// admission layer in `ytaudit-sched`) use this to price a request in
/// quota units *before* deciding whether to route it at all.
pub fn endpoint_for_path(path: &str) -> Option<Endpoint> {
    let rest = path.strip_prefix("/youtube/v3/")?;
    match rest {
        "search" => Some(Endpoint::Search),
        "videos" => Some(Endpoint::Videos),
        "channels" => Some(Endpoint::Channels),
        "playlistItems" => Some(Endpoint::PlaylistItems),
        "commentThreads" => Some(Endpoint::CommentThreads),
        "comments" => Some(Endpoint::Comments),
        _ => None,
    }
}

/// Routes one parsed request to the service and renders the response.
/// Public so other front ends (the tenant admission layer, test
/// handlers) can reuse the exact routing table [`serve`] mounts.
pub fn route(service: &ApiService, req: &Request) -> Response {
    match (req.method, req.path.as_str()) {
        (ytaudit_net::Method::Get, "/healthz") => Response::text(StatusCode::OK, "ok"),
        (ytaudit_net::Method::Get, "/admin/clock") => clock_body(service),
        (ytaudit_net::Method::Post, "/admin/clock") => set_clock(service, req),
        (ytaudit_net::Method::Get, path) if path.starts_with("/youtube/v3/") => {
            let endpoint = match endpoint_for_path(path) {
                Some(endpoint) => endpoint,
                None => {
                    let other = &path["/youtube/v3/".len()..];
                    let (code, body) = error_response(&Error::api(
                        ApiErrorReason::NotFound,
                        format!("Unknown endpoint {other:?}."),
                    ));
                    return Response::json(StatusCode(code), body.into_bytes());
                }
            };
            api_call(service, req, endpoint)
        }
        (_, path) if path.starts_with("/youtube/v3/") || path.starts_with("/admin/") => {
            Response::text(StatusCode::METHOD_NOT_ALLOWED, "method not allowed")
        }
        _ => {
            let (code, body) = error_response(&Error::api(
                ApiErrorReason::NotFound,
                format!("No route for {:?}.", req.path),
            ));
            Response::json(StatusCode(code), body.into_bytes())
        }
    }
}

fn api_call(service: &ApiService, req: &Request, endpoint: Endpoint) -> Response {
    // The `key` parameter authenticates; everything else is endpoint
    // parameters.
    let mut api_key = None;
    let mut params = Vec::new();
    for (k, v) in req.query.pairs() {
        if k == "key" {
            api_key = Some(v.as_str());
        } else {
            params.push((k.clone(), v.clone()));
        }
    }
    let now_override = match req.headers.get("x-sim-time") {
        Some(raw) => match Timestamp::parse_rfc3339(raw) {
            Ok(t) => Some(t),
            Err(_) => {
                let (code, body) = error_response(&Error::api(
                    ApiErrorReason::InvalidParameter,
                    format!("Malformed X-Sim-Time header: {raw:?}"),
                ));
                return Response::json(StatusCode(code), body.into_bytes());
            }
        },
        None => None,
    };
    let (status, body) = service.handle(&ApiRequest {
        endpoint,
        params: &params,
        api_key,
        now_override,
    });
    Response::json(StatusCode(status), body.into_bytes())
}

fn clock_body(service: &ApiService) -> Response {
    Response::json(
        StatusCode::OK,
        format!("{{\"now\":\"{}\"}}", service.clock().now().to_rfc3339()).into_bytes(),
    )
}

fn set_clock(service: &ApiService, req: &Request) -> Response {
    let parsed: Result<serde_json::Value, _> = serde_json::from_slice(&req.body);
    let now_text = parsed
        .ok()
        .and_then(|v| v.get("now").and_then(|n| n.as_str().map(String::from)));
    match now_text.and_then(|t| Timestamp::parse_rfc3339(&t).ok()) {
        Some(t) => {
            service.clock().set(t);
            clock_body(service)
        }
        None => {
            let (code, body) = error_response(&Error::api(
                ApiErrorReason::InvalidParameter,
                "POST /admin/clock expects {\"now\": \"<RFC 3339>\"}.",
            ));
            Response::json(StatusCode(code), body.into_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{ErrorResponse, SearchListResponse, VideoListResponse};
    use ytaudit_net::HttpClient;
    use ytaudit_platform::{Platform, SimClock};
    use ytaudit_types::Topic;

    fn spawn() -> (ServerHandle, Arc<ApiService>, HttpClient) {
        let platform = Arc::new(Platform::small(0.25));
        let service = Arc::new(ApiService::new(platform, SimClock::at_audit_start()));
        service.quota().register("k", 100_000_000);
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        (handle, service, HttpClient::new())
    }

    #[test]
    fn healthz_and_clock() {
        let (server, _svc, client) = spawn();
        let base = server.base_url();
        let health = client.get(&format!("{base}/healthz")).unwrap();
        assert_eq!(health.status, StatusCode::OK);
        let clock = client.get(&format!("{base}/admin/clock")).unwrap();
        assert!(clock.body_text().unwrap().contains("2025-02-09T00:00:00Z"));
        let set = client
            .post(
                &format!("{base}/admin/clock"),
                br#"{"now":"2025-04-30T00:00:00Z"}"#.to_vec(),
            )
            .unwrap();
        assert_eq!(set.status, StatusCode::OK);
        assert!(set.body_text().unwrap().contains("2025-04-30"));
        let bad = client
            .post(&format!("{base}/admin/clock"), b"not json".to_vec())
            .unwrap();
        assert_eq!(bad.status, StatusCode::BAD_REQUEST);
        server.shutdown();
    }

    #[test]
    fn search_over_the_wire() {
        let (server, _svc, client) = spawn();
        let base = server.base_url();
        let spec = Topic::Higgs.spec();
        let url = format!(
            "{base}/youtube/v3/search?part=snippet&q={}&type=video&order=date&maxResults=50&publishedAfter={}&publishedBefore={}&key=k",
            ytaudit_net::url::encode_component(spec.query),
            ytaudit_net::url::encode_component(&Topic::Higgs.window_start().to_rfc3339()),
            ytaudit_net::url::encode_component(&Topic::Higgs.window_end().to_rfc3339()),
        );
        let resp = client.get(&url).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{}", resp.body_text().unwrap());
        let parsed: SearchListResponse = serde_json::from_slice(&resp.body).unwrap();
        assert!(!parsed.items.is_empty());
        assert!(parsed.page_info.total_results > 1_000);
        server.shutdown();
    }

    #[test]
    fn sim_time_header_time_travels() {
        let (server, svc, client) = spawn();
        let base = server.base_url();
        let video = svc.platform().corpus().topics[0].videos[0].clone();
        let url = ytaudit_net::Url::parse(&format!(
            "{base}/youtube/v3/videos?part=id&id={}&key=k",
            video.id
        ))
        .unwrap();
        let req = ytaudit_net::Request::get(url.path.clone())
            .with_query(url.query.clone())
            .with_header("x-sim-time", "2025-03-15T00:00:00Z");
        let resp = client.send(&url, &req).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let _parsed: VideoListResponse = serde_json::from_slice(&resp.body).unwrap();
        // Malformed header is a 400.
        let bad = ytaudit_net::Request::get(url.path.clone())
            .with_query(url.query.clone())
            .with_header("x-sim-time", "not-a-time");
        let resp = client.send(&url, &bad).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        server.shutdown();
    }

    #[test]
    fn missing_key_and_unknown_routes() {
        let (server, _svc, client) = spawn();
        let base = server.base_url();
        let no_key = client
            .get(&format!("{base}/youtube/v3/videos?part=id&id=abc"))
            .unwrap();
        assert_eq!(no_key.status, StatusCode::FORBIDDEN);
        let err: ErrorResponse = serde_json::from_slice(&no_key.body).unwrap();
        assert_eq!(err.error.errors[0].reason, "forbidden");
        let unknown = client
            .get(&format!("{base}/youtube/v3/subscriptions?key=k"))
            .unwrap();
        assert_eq!(unknown.status, StatusCode::NOT_FOUND);
        let nothing = client.get(&format!("{base}/nope")).unwrap();
        assert_eq!(nothing.status, StatusCode::NOT_FOUND);
        server.shutdown();
    }

    #[test]
    fn post_to_api_endpoint_is_405() {
        let (server, _svc, client) = spawn();
        let base = server.base_url();
        let resp = client
            .post(&format!("{base}/youtube/v3/search?key=k"), b"{}".to_vec())
            .unwrap();
        assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
        server.shutdown();
    }
}
