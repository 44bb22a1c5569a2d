//! The Data API service: quota, validation, dispatch, rendering of
//! platform records into wire bodies, and fault injection.

use crate::pagination::paginate;
use crate::params::{get, parse_id_list, parse_max_results, parse_part, parse_search, RawParams};
use crate::quota::{Charge, Endpoint, QuotaLedger};
use crate::render::{self, Etag, Parts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ytaudit_platform::hash::{hash_bytes, mix_all, unit_f64};
use ytaudit_platform::{Platform, SimClock};
use ytaudit_types::json::JsonWriter;
use ytaudit_types::{ApiErrorReason, Error, PlaylistId, Result, Timestamp, Video};

/// Fault-injection knobs.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Per-(video, request-day) probability that `Videos: list` silently
    /// omits a requested ID — the non-systematic metadata gaps of
    /// Figure 4. Deterministic in (seed, video, day).
    pub metadata_miss_rate: f64,
    /// Probability that any call fails with a transient `backendError`
    /// (HTTP 500). Drawn from a request counter, so an immediate retry
    /// succeeds — exercising the client's retry policy.
    pub backend_error_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            metadata_miss_rate: 0.012,
            backend_error_rate: 0.0,
        }
    }
}

/// A request as both transports (in-process and HTTP) present it. It
/// borrows the caller's parameters and key for the length of the call.
#[derive(Debug, Clone, Copy)]
pub struct ApiRequest<'a> {
    /// Which endpoint is being called.
    pub endpoint: Endpoint,
    /// Raw query parameters (decoded), without the key.
    pub params: &'a RawParams,
    /// The caller's API key (`key` query parameter).
    pub api_key: Option<&'a str>,
    /// Explicit simulated request time; `None` uses the service clock.
    pub now_override: Option<Timestamp>,
}

/// Bytes to reserve for a list response: its envelope plus `items` items
/// of at most `per_item` bytes each, so one allocation holds the whole
/// body. The figures at the call sites are the largest sizes measured
/// on the full-scale corpus, rounded up: over the 86k calls of a
/// `collect --paper`, envelopes took at most 160 bytes, a search item
/// with its snippet 398, a video 493, a channel 391 and a comment 468,
/// and every comment-thread page fit 480 bytes per thread plus 352 per
/// embedded reply; over the uploads playlists of 400 channels, a
/// playlist item took at most 335 and a search item without a snippet
/// 124.
fn body_capacity(items: usize, per_item: usize) -> usize {
    256 + items * per_item
}

/// The simulated YouTube Data API v3.
pub struct ApiService {
    platform: Arc<Platform>,
    clock: SimClock,
    quota: QuotaLedger,
    faults: FaultConfig,
    request_counter: AtomicU64,
}

impl ApiService {
    /// Builds the service over a platform with a clock and default quota
    /// and fault settings.
    pub fn new(platform: Arc<Platform>, clock: SimClock) -> ApiService {
        ApiService {
            platform,
            clock,
            quota: QuotaLedger::new(),
            faults: FaultConfig::default(),
            request_counter: AtomicU64::new(0),
        }
    }

    /// Overrides the fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> ApiService {
        self.faults = faults;
        self
    }

    /// Access to the quota ledger (to register researcher keys).
    pub fn quota(&self) -> &QuotaLedger {
        &self.quota
    }

    /// The service clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Handles one request, returning the HTTP status and JSON body.
    pub fn handle(&self, request: &ApiRequest<'_>) -> (u16, String) {
        match self.dispatch(request) {
            Ok(body) => (200, body),
            Err(err) => error_response(&err),
        }
    }

    fn dispatch(&self, request: &ApiRequest<'_>) -> Result<String> {
        let now = request.now_override.unwrap_or_else(|| self.clock.now());
        let key = request.api_key.ok_or_else(|| {
            Error::api(
                ApiErrorReason::Forbidden,
                "The request is missing a valid API key.",
            )
        })?;
        if key.is_empty() {
            return Err(Error::api(
                ApiErrorReason::Forbidden,
                "The request is missing a valid API key.",
            ));
        }
        // Transient backend failures happen before quota is charged.
        if self.faults.backend_error_rate > 0.0 {
            let count = self.request_counter.fetch_add(1, Ordering::Relaxed);
            if unit_f64(mix_all(&[count, 0xFA_11])) < self.faults.backend_error_rate {
                return Err(Error::api(
                    ApiErrorReason::BackendError,
                    "Backend Error (transient).",
                ));
            }
        }
        match self.quota.charge(key, request.endpoint, now) {
            Charge::Ok { .. } => {}
            Charge::Exceeded => {
                return Err(Error::api(
                    ApiErrorReason::QuotaExceeded,
                    "The request cannot be completed because you have exceeded your quota.",
                ))
            }
        }
        let params = request.params;
        match request.endpoint {
            Endpoint::Search => self.search_list(params, now),
            Endpoint::Videos => self.videos_list(params, now),
            Endpoint::Channels => self.channels_list(params),
            Endpoint::PlaylistItems => self.playlist_items_list(params, now),
            Endpoint::CommentThreads => self.comment_threads_list(params, now),
            Endpoint::Comments => self.comments_list(params, now),
        }
    }

    fn search_list(&self, params: &RawParams, now: Timestamp) -> Result<String> {
        let request = parse_search(params)?;
        let outcome = self.platform.search(&request.search, now);
        let query_hash = ytaudit_platform::search::query_hash(&request.search);
        // The documented search limits: at most 50 results per page and at
        // most 10 pages — so small page sizes genuinely see fewer total
        // results, one of the endpoint's quieter sharp edges.
        let reachable = outcome
            .video_ids
            .len()
            .min(request.max_results as usize * 10);
        let mut page = paginate(
            reachable,
            request.max_results as usize,
            request.page_token,
            query_hash,
        )?;
        page.next = page.next.filter(|_| page.end < reachable);
        let want_snippet = request.parts.contains(&"snippet");
        let ids = &outcome.video_ids[page.start..page.end];
        let per_item = if want_snippet { 400 } else { 128 };
        let mut w = JsonWriter::with_capacity(body_capacity(ids.len(), per_item));
        let etag = Etag::new()
            .str("search")
            .num(query_hash)
            .time(now)
            .num(page.start as u64);
        render::list_head(
            &mut w,
            "youtube#searchListResponse",
            etag,
            page.next.as_deref(),
            page.prev.as_deref(),
        );
        w.key("regionCode").str("US");
        render::page_info(
            &mut w,
            outcome.total_results,
            u64::from(request.max_results),
        );
        w.key("items").begin_array();
        for id in ids {
            w.begin_object();
            w.key("kind").str("youtube#searchResult");
            Etag::new().str(id.as_str()).write(&mut w);
            w.key("id").begin_object();
            w.key("kind").str("youtube#video");
            w.key("videoId").str(id.as_str());
            w.end_object();
            if want_snippet {
                if let Some(video) = self.platform.video(id, now) {
                    render::video_snippet(&mut w, video, self.platform.channel(&video.channel_id));
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        Ok(w.into_string())
    }

    fn videos_list(&self, params: &RawParams, now: Timestamp) -> Result<String> {
        let parts = parse_part(params, &["id", "snippet", "contentDetails", "statistics"])?;
        let ids = parse_id_list(params, "id")?;
        let day = now.floor_day().as_secs() as u64;
        let videos: Vec<&Video> = ids
            .iter()
            .filter_map(|&raw_id| {
                // Unknown or deleted: silently omitted.
                let video = self.platform.video(raw_id, now)?;
                // Non-systematic metadata misses (Figure 4): a fresh draw per
                // (video, request day).
                let miss = unit_f64(mix_all(&[hash_bytes(raw_id.as_bytes()), day, 0x4D495353]));
                (miss >= self.faults.metadata_miss_rate).then_some(video)
            })
            .collect();
        let etag = Etag::new().str("videos").joined(&ids);
        let parts = Parts::of(&parts);
        let mut w = JsonWriter::with_capacity(body_capacity(videos.len(), 512));
        render::list_head(
            &mut w,
            "youtube#videoListResponse",
            etag.time(now),
            None,
            None,
        );
        render::page_info(&mut w, videos.len() as u64, videos.len() as u64);
        w.key("items").begin_array();
        for video in videos {
            let channel = self.platform.channel(&video.channel_id);
            render::video(&mut w, video, channel, parts);
        }
        w.end_array();
        w.end_object();
        Ok(w.into_string())
    }

    fn channels_list(&self, params: &RawParams) -> Result<String> {
        let parts = parse_part(params, &["id", "snippet", "contentDetails", "statistics"])?;
        let ids = parse_id_list(params, "id")?;
        let channels: Vec<_> = ids
            .iter()
            .filter_map(|&id| self.platform.channel(id))
            .collect();
        let etag = Etag::new().str("channels").joined(&ids);
        let parts = Parts::of(&parts);
        let mut w = JsonWriter::with_capacity(body_capacity(channels.len(), 400));
        render::list_head(&mut w, "youtube#channelListResponse", etag, None, None);
        render::page_info(&mut w, channels.len() as u64, channels.len() as u64);
        w.key("items").begin_array();
        for channel in channels {
            render::channel(&mut w, channel, parts);
        }
        w.end_array();
        w.end_object();
        Ok(w.into_string())
    }

    fn playlist_items_list(&self, params: &RawParams, now: Timestamp) -> Result<String> {
        let parts = parse_part(params, &["id", "snippet", "contentDetails"])?;
        let playlist_raw = get(params, "playlistId").ok_or_else(|| {
            Error::api(
                ApiErrorReason::InvalidParameter,
                "Required parameter 'playlistId' is missing.",
            )
        })?;
        let max_results = parse_max_results(params, 5, 50)?;
        let playlist = PlaylistId::new(playlist_raw);
        let videos = self.platform.playlist_items(&playlist, now).ok_or_else(|| {
            Error::api(
                ApiErrorReason::NotFound,
                format!("The playlist identified with the request's playlistId parameter cannot be found: {playlist_raw:?}"),
            )
        })?;
        let query_hash = hash_bytes(playlist_raw.as_bytes());
        let page = paginate(
            videos.len(),
            max_results as usize,
            get(params, "pageToken"),
            query_hash,
        )?;
        let want_snippet = parts.contains(&"snippet");
        let page_videos = &videos[page.start..page.end];
        let mut w = JsonWriter::with_capacity(body_capacity(page_videos.len(), 352));
        let etag = Etag::new()
            .str("pli")
            .str(playlist_raw)
            .num(page.start as u64);
        render::list_head(
            &mut w,
            "youtube#playlistItemListResponse",
            etag,
            page.next.as_deref(),
            None,
        );
        render::page_info(&mut w, videos.len() as u64, u64::from(max_results));
        w.key("items").begin_array();
        for (position, video) in (page.start as u64..).zip(page_videos) {
            render::playlist_item(&mut w, video, playlist_raw, position, want_snippet);
        }
        w.end_array();
        w.end_object();
        Ok(w.into_string())
    }

    fn comment_threads_list(&self, params: &RawParams, now: Timestamp) -> Result<String> {
        let _parts = parse_part(params, &["id", "snippet", "replies"])?;
        let video_raw = get(params, "videoId").ok_or_else(|| {
            Error::api(
                ApiErrorReason::InvalidParameter,
                "Required parameter 'videoId' is missing.",
            )
        })?;
        let max_results = parse_max_results(params, 20, 100)?;
        if self.platform.video(video_raw, now).is_none() {
            return Err(Error::api(
                ApiErrorReason::NotFound,
                format!("The video identified by the request's videoId parameter cannot be found: {video_raw:?}"),
            ));
        }
        let threads = self.platform.comment_threads(video_raw, now);
        let query_hash = hash_bytes(video_raw.as_bytes());
        let page = paginate(
            threads.len(),
            max_results as usize,
            get(params, "pageToken"),
            query_hash,
        )?;
        let page_threads = &threads[page.start..page.end];
        let embedded: usize = page_threads.iter().map(|t| t.replies.len()).sum();
        let mut w =
            JsonWriter::with_capacity(body_capacity(page_threads.len(), 480) + embedded * 352);
        let etag = Etag::new().str("ct").str(video_raw).num(page.start as u64);
        render::list_head(
            &mut w,
            "youtube#commentThreadListResponse",
            etag,
            page.next.as_deref(),
            None,
        );
        render::page_info(&mut w, threads.len() as u64, u64::from(max_results));
        w.key("items").begin_array();
        for thread in page_threads {
            render::comment_thread(&mut w, video_raw, thread.top_level, &thread.replies);
        }
        w.end_array();
        w.end_object();
        Ok(w.into_string())
    }

    fn comments_list(&self, params: &RawParams, now: Timestamp) -> Result<String> {
        let _parts = parse_part(params, &["id", "snippet"])?;
        let parent_raw = get(params, "parentId").ok_or_else(|| {
            Error::api(
                ApiErrorReason::InvalidParameter,
                "Required parameter 'parentId' is missing.",
            )
        })?;
        let max_results = parse_max_results(params, 20, 100)?;
        if self.platform.comment(parent_raw, now).is_none() {
            return Err(Error::api(
                ApiErrorReason::NotFound,
                format!("The comment identified by the request's parentId parameter cannot be found: {parent_raw:?}"),
            ));
        }
        let replies = self.platform.comments_by_parent(parent_raw, now);
        let query_hash = hash_bytes(parent_raw.as_bytes());
        let page = paginate(
            replies.len(),
            max_results as usize,
            get(params, "pageToken"),
            query_hash,
        )?;
        let page_replies = &replies[page.start..page.end];
        let mut w = JsonWriter::with_capacity(body_capacity(page_replies.len(), 480));
        let etag = Etag::new().str("cm").str(parent_raw).num(page.start as u64);
        render::list_head(
            &mut w,
            "youtube#commentListResponse",
            etag,
            page.next.as_deref(),
            None,
        );
        render::page_info(&mut w, replies.len() as u64, u64::from(max_results));
        w.key("items").begin_array();
        for reply in page_replies {
            render::comment(&mut w, reply);
        }
        w.end_array();
        w.end_object();
        Ok(w.into_string())
    }
}

/// Renders an error as the (status, JSON envelope) pair the wire carries.
pub fn error_response(err: &Error) -> (u16, String) {
    let retry_after_secs = err.retry_after_secs();
    let (code, body) = match err {
        Error::Api {
            reason, message, ..
        } => {
            let domain = match reason {
                ApiErrorReason::QuotaExceeded => "youtube.quota",
                _ => "youtube.parameter",
            };
            let code = reason.http_status();
            let body =
                render::error_envelope(code, message, domain, reason.as_str(), retry_after_secs);
            (code, body)
        }
        other => {
            let message = other.to_string();
            let body = render::error_envelope(
                500,
                &message,
                "youtube.parameter",
                "backendError",
                retry_after_secs,
            );
            (500, body)
        }
    };
    (code, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::*;
    use ytaudit_types::Topic;

    fn service() -> ApiService {
        let platform = Arc::new(Platform::small(0.3));
        ApiService::new(platform, SimClock::at_audit_start())
    }

    fn raw(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// An owned request, lent to the service as an `ApiRequest`.
    #[derive(Clone)]
    struct Req {
        endpoint: Endpoint,
        params: Vec<(String, String)>,
        api_key: Option<String>,
        now_override: Option<Timestamp>,
    }

    impl Req {
        fn send(&self, svc: &ApiService) -> (u16, String) {
            svc.handle(&ApiRequest {
                endpoint: self.endpoint,
                params: &self.params,
                api_key: self.api_key.as_deref(),
                now_override: self.now_override,
            })
        }
    }

    fn send(svc: &ApiService, req: Req) -> (u16, String) {
        req.send(svc)
    }

    fn request(endpoint: Endpoint, pairs: &[(&str, &str)]) -> Req {
        Req {
            endpoint,
            params: raw(pairs),
            api_key: Some("test-key".into()),
            now_override: None,
        }
    }

    #[test]
    fn search_returns_paged_results() {
        let svc = service();
        svc.quota().register("test-key", 1_000_000);
        let spec = Topic::Grammys.spec();
        let req = request(
            Endpoint::Search,
            &[
                ("part", "snippet"),
                ("q", spec.query),
                ("order", "date"),
                ("type", "video"),
                ("maxResults", "50"),
                (
                    "publishedAfter",
                    &Topic::Grammys.window_start().to_rfc3339(),
                ),
                ("publishedBefore", &Topic::Grammys.window_end().to_rfc3339()),
            ],
        );
        let (status, body) = req.send(&svc);
        assert_eq!(status, 200, "{body}");
        let parsed: SearchListResponse = serde_json::from_str(&body).unwrap();
        assert!(!parsed.items.is_empty());
        assert!(parsed.items.len() <= 50);
        assert!(parsed.page_info.total_results > 1_000);
        for item in &parsed.items {
            assert_eq!(item.id.kind, "youtube#video");
            let snippet = item.snippet.as_ref().expect("asked for snippet");
            assert!(!snippet.channel_id.is_empty());
        }
        // Walk the pagination to the end; every page parses.
        let mut token = parsed.next_page_token.clone();
        let mut total = parsed.items.len();
        while let Some(t) = token {
            let mut pairs = req.params.clone();
            pairs.push(("pageToken".into(), t));
            let (status, body) = (Req {
                params: pairs,
                ..req.clone()
            })
            .send(&svc);
            assert_eq!(status, 200, "{body}");
            let page: SearchListResponse = serde_json::from_str(&body).unwrap();
            total += page.items.len();
            token = page.next_page_token;
        }
        assert!(total <= 500, "API caps search results at 500, got {total}");
        assert!(total > 50);
    }

    #[test]
    fn missing_key_is_forbidden() {
        let svc = service();
        let mut req = request(Endpoint::Videos, &[("part", "snippet"), ("id", "abc")]);
        req.api_key = None;
        let (status, body) = req.send(&svc);
        assert_eq!(status, 403);
        assert!(body.contains("forbidden"));
    }

    #[test]
    fn quota_exhaustion_returns_403_envelope() {
        let svc = service();
        let pairs = [("part", "id"), ("q", "higgs boson"), ("type", "video")];
        // Default quota: 100 searches.
        for _ in 0..100 {
            let (status, _) = send(&svc, request(Endpoint::Search, &pairs));
            assert_eq!(status, 200);
        }
        let (status, body) = send(&svc, request(Endpoint::Search, &pairs));
        assert_eq!(status, 403);
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(err.error.errors[0].reason, "quotaExceeded");
        assert_eq!(err.error.errors[0].domain, "youtube.quota");
    }

    #[test]
    fn videos_list_projects_all_parts() {
        let svc = service();
        let video = svc.platform().corpus().topics[0].videos[0].clone();
        let req = request(
            Endpoint::Videos,
            &[
                ("part", "snippet,contentDetails,statistics"),
                ("id", video.id.as_str()),
            ],
        );
        let (status, body) = req.send(&svc);
        assert_eq!(status, 200, "{body}");
        let parsed: VideoListResponse = serde_json::from_str(&body).unwrap();
        // Either returned in full, or (rarely) hit the metadata-miss
        // fault; both are API-faithful. Retry across days to make the
        // assertion deterministic.
        let item = if parsed.items.is_empty() {
            let mut alt = None;
            for day in 1..10 {
                let (s2, b2) = (Req {
                    now_override: Some(svc.clock().now().add_days(day)),
                    ..req.clone()
                })
                .send(&svc);
                assert_eq!(s2, 200);
                let p2: VideoListResponse = serde_json::from_str(&b2).unwrap();
                if let Some(first) = p2.items.into_iter().next() {
                    alt = Some(first);
                    break;
                }
            }
            alt.expect("metadata misses are non-systematic")
        } else {
            parsed.items.into_iter().next().unwrap()
        };
        assert_eq!(item.id, video.id.as_str());
        assert_eq!(
            item.statistics.as_ref().unwrap().view_count,
            video.stats.views.to_string()
        );
        assert_eq!(
            item.content_details.as_ref().unwrap().duration,
            video.duration.format()
        );
        assert_eq!(
            item.snippet.as_ref().unwrap().published_at,
            video.published_at.to_rfc3339()
        );
    }

    #[test]
    fn unknown_video_ids_are_omitted_not_errors() {
        let svc = service();
        let (status, body) = send(
            &svc,
            request(
                Endpoint::Videos,
                &[("part", "id"), ("id", "doesnotexist00")],
            ),
        );
        assert_eq!(status, 200);
        let parsed: VideoListResponse = serde_json::from_str(&body).unwrap();
        assert!(parsed.items.is_empty());
    }

    #[test]
    fn channels_and_uploads_pipeline() {
        let svc = service();
        let channel = svc.platform().corpus().channels[0].clone();
        let (status, body) = send(
            &svc,
            request(
                Endpoint::Channels,
                &[
                    ("part", "snippet,contentDetails,statistics"),
                    ("id", channel.id.as_str()),
                ],
            ),
        );
        assert_eq!(status, 200, "{body}");
        let parsed: ChannelListResponse = serde_json::from_str(&body).unwrap();
        let uploads = parsed.items[0]
            .content_details
            .as_ref()
            .unwrap()
            .related_playlists
            .uploads
            .clone();
        assert!(uploads.starts_with("UU"));
        // Now page through the uploads playlist.
        let (status, body) = send(
            &svc,
            request(
                Endpoint::PlaylistItems,
                &[
                    ("part", "snippet"),
                    ("playlistId", &uploads),
                    ("maxResults", "50"),
                ],
            ),
        );
        assert_eq!(status, 200, "{body}");
        let items: PlaylistItemListResponse = serde_json::from_str(&body).unwrap();
        for item in &items.items {
            assert_eq!(
                item.snippet.as_ref().unwrap().channel_id,
                channel.id.as_str()
            );
        }
    }

    #[test]
    fn unknown_playlist_is_404() {
        let svc = service();
        let (status, body) = send(
            &svc,
            request(
                Endpoint::PlaylistItems,
                &[("part", "snippet"), ("playlistId", "UUnope")],
            ),
        );
        assert_eq!(status, 404);
        assert!(body.contains("notFound"));
    }

    #[test]
    fn comment_threads_round_trip() {
        let svc = service();
        // A video with comments.
        let video = svc
            .platform()
            .corpus()
            .topics
            .iter()
            .flat_map(|t| &t.videos)
            .find(|v| {
                !svc.platform()
                    .comment_threads(&v.id, svc.clock().now().add_days(60))
                    .is_empty()
            })
            .expect("some video has threads")
            .clone();
        let now_override = Some(svc.clock().now().add_days(60));
        let (status, body) = (Req {
            now_override,
            ..request(
                Endpoint::CommentThreads,
                &[
                    ("part", "snippet,replies"),
                    ("videoId", video.id.as_str()),
                    ("maxResults", "100"),
                ],
            )
        })
        .send(&svc);
        assert_eq!(status, 200, "{body}");
        let parsed: CommentThreadListResponse = serde_json::from_str(&body).unwrap();
        assert!(!parsed.items.is_empty());
        for thread in &parsed.items {
            assert_eq!(thread.snippet.video_id, video.id.as_str());
            if let Some(replies) = &thread.replies {
                assert!(replies.comments.len() <= 5);
                // Comments: list agrees with the embedded replies.
                let (status, body) = (Req {
                    now_override,
                    ..request(
                        Endpoint::Comments,
                        &[
                            ("part", "snippet"),
                            ("parentId", &thread.id),
                            ("maxResults", "100"),
                        ],
                    )
                })
                .send(&svc);
                assert_eq!(status, 200);
                let listed: CommentListResponse = serde_json::from_str(&body).unwrap();
                assert_eq!(listed.items.len(), replies.comments.len());
                return;
            }
        }
    }

    #[test]
    fn backend_errors_are_transient_500s() {
        let platform = Arc::new(Platform::small(0.2));
        let svc = ApiService::new(platform, SimClock::at_audit_start()).with_faults(FaultConfig {
            metadata_miss_rate: 0.0,
            backend_error_rate: 0.5,
        });
        svc.quota().register("test-key", 100_000_000);
        let req = request(Endpoint::Videos, &[("part", "id"), ("id", "whatever")]);
        let mut saw_500 = false;
        let mut saw_200 = false;
        for _ in 0..64 {
            let (status, _) = req.send(&svc);
            match status {
                500 => saw_500 = true,
                200 => saw_200 = true,
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(saw_500 && saw_200, "both outcomes should occur at 50%");
    }

    #[test]
    fn invalid_page_token_is_rejected() {
        let svc = service();
        let (status, body) = send(
            &svc,
            request(
                Endpoint::Search,
                &[
                    ("part", "id"),
                    ("q", "higgs boson"),
                    ("type", "video"),
                    ("pageToken", "garbage"),
                ],
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("invalidPageToken"));
    }
}
