//! The simulated TikTok research API service.
//!
//! Same ground-truth corpus as the YouTube simulator, completely
//! different API surface and economics:
//!
//! * **Quota** is a *daily request budget* — every request costs one
//!   unit regardless of endpoint, and the ledger resets at UTC midnight
//!   (YouTube's resets at Pacific midnight and prices endpoints from 1
//!   to 100 units).
//! * **Search** is a *date-windowed video query*: `start_time` and
//!   `end_time` are mandatory, results come back through an opaque
//!   `cursor`, and there is no `pageToken` chain.
//! * **Hidden sampling quirks** mirror what platform audits of the
//!   TikTok research API report (see PAPERS.md): a hard per-window
//!   result cap, windows whose tail pages silently vanish (`has_more`
//!   goes false while `total` still promises more), and intermittent
//!   pages that arrive empty yet advance the cursor. All three are
//!   deterministic in `(query, collection day, cursor)` — never in
//!   request order — so sequential and scheduled collections observe
//!   byte-identical behaviour.

use crate::wire::{
    Data, Envelope, ErrorObject, WireComment, WireUser, WireVideo, CODE_ACCESS_DENIED,
    CODE_INVALID_PARAMS, CODE_NOT_FOUND, CODE_QUOTA_EXHAUSTED,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use ytaudit_api::quota::Endpoint;
use ytaudit_platform::hash::{hash_bytes, mix64, mix_all, unit_f64};
use ytaudit_platform::{Platform as CorpusPlatform, SearchParams, SimClock};
use ytaudit_types::time::DAY;
use ytaudit_types::{ChannelId, CommentId, Definition, Timestamp, VideoId};

/// Default daily request budget per client key.
pub const DEFAULT_DAILY_REQUESTS: u64 = 1_000;
/// The elevated budget granted to approved research applications.
pub const RESEARCH_DAILY_REQUESTS: u64 = 1_000_000;
/// Hard page-size cap on the video query endpoint.
pub const MAX_PAGE_SIZE: usize = 100;
/// Page size when the request names none.
pub const DEFAULT_PAGE_SIZE: usize = 20;
/// Maximum IDs per video-info / user-info request.
pub const MAX_IDS_PER_LOOKUP: usize = 50;

/// The hidden-sampler knobs. Rates are probabilities evaluated from a
/// deterministic hash, so "0.2" means one in five `(query, day)` windows
/// — the *same* one in five on every run with the same seed.
#[derive(Debug, Clone)]
pub struct QuirkConfig {
    /// Seed folded into every quirk hash.
    pub seed: u64,
    /// Hard cap on results retrievable from one date window; `total`
    /// is capped to match, hiding how much of the pool is reachable.
    pub window_cap: usize,
    /// Fraction of `(query, day)` windows whose tail pages silently
    /// vanish: `has_more` goes false early while `total` still promises
    /// more results.
    pub tail_drop_rate: f64,
    /// Fraction of `(query, day, cursor)` pages that arrive empty while
    /// the cursor still advances — a silent hole mid-window.
    pub empty_page_rate: f64,
}

impl Default for QuirkConfig {
    fn default() -> QuirkConfig {
        QuirkConfig {
            seed: 0x71C7_0C5E_ED00_0001,
            window_cap: 250,
            tail_drop_rate: 0.2,
            empty_page_rate: 0.08,
        }
    }
}

impl QuirkConfig {
    /// A quirk-free configuration (cap still applies; rates zero).
    /// Useful for isolating which analysis signature each quirk carries.
    pub fn none() -> QuirkConfig {
        QuirkConfig {
            tail_drop_rate: 0.0,
            empty_page_rate: 0.0,
            ..QuirkConfig::default()
        }
    }
}

/// Outcome of charging one request against a key's daily budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Admitted; `remaining` requests left today.
    Granted {
        /// Requests left in today's budget after this one.
        remaining: u64,
    },
    /// Today's budget is spent; retry after UTC midnight.
    Exhausted {
        /// Seconds until the budget resets.
        retry_after_secs: u64,
    },
    /// The key was never registered.
    UnknownKey,
}

#[derive(Debug, Clone, Copy)]
struct KeyState {
    limit: u64,
    day: i64,
    used: u64,
}

/// Per-key daily *request* ledger (1 unit per request, any endpoint),
/// resetting at UTC midnight — deliberately unlike YouTube's
/// Pacific-midnight unit-priced ledger.
#[derive(Default)]
pub struct RequestLedger {
    keys: Mutex<HashMap<String, KeyState>>,
}

impl RequestLedger {
    /// Registers `key` with a daily request `limit`.
    pub fn register(&self, key: impl Into<String>, limit: u64) {
        self.keys.lock().insert(
            key.into(),
            KeyState {
                limit,
                day: i64::MIN,
                used: 0,
            },
        );
    }

    /// Charges one request at simulated instant `now`.
    pub fn charge(&self, key: &str, now: Timestamp) -> Charge {
        let mut keys = self.keys.lock();
        let Some(state) = keys.get_mut(key) else {
            return Charge::UnknownKey;
        };
        let day = now.0.div_euclid(DAY);
        if day != state.day {
            state.day = day;
            state.used = 0;
        }
        if state.used >= state.limit {
            let reset = (day + 1) * DAY;
            return Charge::Exhausted {
                retry_after_secs: (reset - now.0).max(0) as u64,
            };
        }
        state.used += 1;
        Charge::Granted {
            remaining: state.limit - state.used,
        }
    }

    /// Requests spent by `key` on the UTC day containing `now`.
    pub fn used_today(&self, key: &str, now: Timestamp) -> u64 {
        let keys = self.keys.lock();
        match keys.get(key) {
            Some(state) if state.day == now.0.div_euclid(DAY) => state.used,
            _ => 0,
        }
    }
}

/// The in-process TikTok research API simulator.
pub struct TikTokService {
    platform: Arc<CorpusPlatform>,
    clock: SimClock,
    ledger: RequestLedger,
    quirks: QuirkConfig,
}

impl TikTokService {
    /// Wraps a corpus façade with the default quirk configuration.
    pub fn new(platform: Arc<CorpusPlatform>, clock: SimClock) -> TikTokService {
        TikTokService {
            platform,
            clock,
            ledger: RequestLedger::default(),
            quirks: QuirkConfig::default(),
        }
    }

    /// Overrides the quirk configuration.
    pub fn with_quirks(mut self, quirks: QuirkConfig) -> TikTokService {
        self.quirks = quirks;
        self
    }

    /// The request ledger (register keys here).
    pub fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    /// The underlying corpus façade.
    pub fn platform(&self) -> &CorpusPlatform {
        &self.platform
    }

    /// The quirk configuration in effect.
    pub fn quirks(&self) -> &QuirkConfig {
        &self.quirks
    }

    /// Handles one request, mapping the YouTube-shaped [`Endpoint`]
    /// vocabulary the transports speak onto the TikTok surface: `Search`
    /// is the video query, `Videos`/`Channels` are the info lookups,
    /// `CommentThreads`/`Comments` are the comment and reply lists, and
    /// `PlaylistItems` has no analog.
    pub fn handle(
        &self,
        endpoint: Endpoint,
        params: &[(String, String)],
        api_key: Option<&str>,
        now_override: Option<Timestamp>,
    ) -> (u16, String) {
        let now = now_override.unwrap_or_else(|| self.clock.now());
        let Some(key) = api_key else {
            return err_response(403, CODE_ACCESS_DENIED, "missing client key", None);
        };
        match self.ledger.charge(key, now) {
            Charge::UnknownKey => {
                return err_response(403, CODE_ACCESS_DENIED, "unknown client key", None)
            }
            Charge::Exhausted { retry_after_secs } => {
                return err_response(
                    429,
                    CODE_QUOTA_EXHAUSTED,
                    "daily request quota exhausted",
                    Some(retry_after_secs),
                )
            }
            Charge::Granted { .. } => {}
        }
        match endpoint {
            Endpoint::Search => self.video_query(params, now),
            Endpoint::Videos => self.video_info(params, now),
            Endpoint::Channels => self.user_info(params),
            Endpoint::CommentThreads => self.comment_list(params, now),
            Endpoint::Comments => self.reply_list(params, now),
            Endpoint::PlaylistItems => err_response(
                400,
                CODE_INVALID_PARAMS,
                "playlist endpoints are not part of the research API",
                None,
            ),
        }
    }

    /// The date-windowed, cursor-paginated video query.
    fn video_query(&self, params: &[(String, String)], now: Timestamp) -> (u16, String) {
        let Some(start) = int_param(params, "start_time") else {
            return err_response(400, CODE_INVALID_PARAMS, "start_time is required", None);
        };
        let Some(end) = int_param(params, "end_time") else {
            return err_response(400, CODE_INVALID_PARAMS, "end_time is required", None);
        };
        if end <= start {
            return err_response(
                400,
                CODE_INVALID_PARAMS,
                "end_time must be after start_time",
                None,
            );
        }
        let q = str_param(params, "q").unwrap_or_default();
        let username = str_param(params, "username");
        let cursor = int_param(params, "cursor").unwrap_or(0).max(0) as usize;
        let max_count = int_param(params, "max_count")
            .map(|n| (n.max(1) as usize).min(MAX_PAGE_SIZE))
            .unwrap_or(DEFAULT_PAGE_SIZE);

        let search = SearchParams {
            tokens: q.split_whitespace().map(str::to_lowercase).collect(),
            published_after: Some(Timestamp(start)),
            published_before: Some(Timestamp(end)),
            channel_id: username.clone().map(ChannelId::new),
            ..SearchParams::default()
        };
        let outcome = self.platform.search(&search, now);

        // Quirk: the per-window cap bounds both the retrievable results
        // and the advertised total, hiding the true pool size.
        let cap = self.quirks.window_cap;
        let mut ids = outcome.video_ids;
        ids.truncate(cap);
        let total = outcome.total_results.min(cap as u64);

        // All quirk draws key on (query, window, collection day) — never
        // on request order — so replays and reshuffled schedules observe
        // identical behaviour.
        let day = now.0.div_euclid(DAY) as u64;
        let qhash = mix_all(&[
            self.quirks.seed,
            hash_bytes(q.as_bytes()),
            hash_bytes(username.unwrap_or_default().as_bytes()),
            start as u64,
            end as u64,
        ]);

        // Quirk: silently dropped tail pages. The kept prefix shrinks,
        // `has_more` ends the walk early, and `total` never admits it.
        let tail = mix_all(&[qhash, 0x7417_D809, day]);
        if unit_f64(tail) < self.quirks.tail_drop_rate && !ids.is_empty() {
            let keep = 0.35 + 0.5 * unit_f64(mix64(tail ^ 0x9E37_79B9_7F4A_7C15));
            let kept = ((ids.len() as f64) * keep).floor().max(1.0) as usize;
            ids.truncate(kept);
        }

        let page_start = cursor.min(ids.len());
        let page_end = (cursor + max_count).min(ids.len());

        // Quirk: an intermittent empty page — the cursor advances past
        // results that are never served.
        let hole = mix_all(&[qhash, 0xE3B7_9A05, day, cursor as u64]);
        let page: &[VideoId] = if unit_f64(hole) < self.quirks.empty_page_rate {
            &[]
        } else {
            &ids[page_start..page_end]
        };

        let videos = page
            .iter()
            .filter_map(|id| {
                let video = self.platform.video(id, now)?;
                Some(WireVideo {
                    id: video.id.as_str().to_string(),
                    username: Some(video.channel_id.as_str().to_string()),
                    create_time: video.published_at.0,
                    duration: None,
                    definition: None,
                    view_count: None,
                    like_count: None,
                    comment_count: None,
                })
            })
            .collect();
        ok_response(Data {
            videos,
            cursor: Some(page_end as u64),
            has_more: Some(page_end < ids.len()),
            total: Some(total),
            ..Data::default()
        })
    }

    /// Video info lookup by comma-separated `video_ids`.
    fn video_info(&self, params: &[(String, String)], now: Timestamp) -> (u16, String) {
        let ids = match id_list(params, "video_ids") {
            Ok(ids) => ids,
            Err(response) => return response,
        };
        let videos = ids
            .iter()
            .filter_map(|raw| {
                let video = self.platform.video(&VideoId::new(raw.clone()), now)?;
                Some(WireVideo {
                    id: video.id.as_str().to_string(),
                    username: Some(video.channel_id.as_str().to_string()),
                    create_time: video.published_at.0,
                    duration: Some(video.duration.as_secs()),
                    definition: Some(
                        match video.definition {
                            Definition::Hd => "hd",
                            Definition::Sd => "sd",
                        }
                        .to_string(),
                    ),
                    view_count: Some(video.stats.views),
                    like_count: Some(video.stats.likes),
                    comment_count: Some(video.stats.comments),
                })
            })
            .collect();
        ok_response(Data {
            videos,
            ..Data::default()
        })
    }

    /// Creator info lookup by comma-separated `usernames`.
    fn user_info(&self, params: &[(String, String)]) -> (u16, String) {
        let names = match id_list(params, "usernames") {
            Ok(names) => names,
            Err(response) => return response,
        };
        let users = names
            .iter()
            .filter_map(|raw| {
                let channel = self.platform.channel(&ChannelId::new(raw.clone()))?;
                Some(WireUser {
                    username: channel.id.as_str().to_string(),
                    create_time: channel.published_at.0,
                    follower_count: channel.stats.subscribers,
                    video_count: channel.stats.video_count,
                    view_count: channel.stats.views,
                })
            })
            .collect();
        ok_response(Data {
            users,
            ..Data::default()
        })
    }

    /// Top-level comment list for one `video_id`.
    fn comment_list(&self, params: &[(String, String)], now: Timestamp) -> (u16, String) {
        let Some(raw) = str_param(params, "video_id") else {
            return err_response(400, CODE_INVALID_PARAMS, "video_id is required", None);
        };
        let id = VideoId::new(raw);
        if self.platform.video(&id, now).is_none() {
            return err_response(404, CODE_NOT_FOUND, "video not found or removed", None);
        }
        let threads = self.platform.comment_threads(&id, now);
        let comments: Vec<WireComment> = threads
            .iter()
            .map(|thread| WireComment {
                id: thread.top_level.id.as_str().to_string(),
                video_id: thread.top_level.video_id.as_str().to_string(),
                create_time: thread.top_level.published_at.0,
                like_count: thread.top_level.like_count,
                reply_count: thread.replies.len() as u64,
                parent_comment_id: None,
            })
            .collect();
        let total = comments.len() as u64;
        ok_response(Data {
            comments,
            total: Some(total),
            ..Data::default()
        })
    }

    /// Reply list for one `comment_id`.
    fn reply_list(&self, params: &[(String, String)], now: Timestamp) -> (u16, String) {
        let Some(raw) = str_param(params, "comment_id") else {
            return err_response(400, CODE_INVALID_PARAMS, "comment_id is required", None);
        };
        let parent = CommentId::new(raw.clone());
        let replies = self.platform.comments_by_parent(&parent, now);
        let comments: Vec<WireComment> = replies
            .iter()
            .map(|reply| WireComment {
                id: reply.id.as_str().to_string(),
                video_id: reply.video_id.as_str().to_string(),
                create_time: reply.published_at.0,
                like_count: reply.like_count,
                reply_count: 0,
                parent_comment_id: Some(raw.clone()),
            })
            .collect();
        let total = comments.len() as u64;
        ok_response(Data {
            comments,
            total: Some(total),
            ..Data::default()
        })
    }
}

fn str_param(params: &[(String, String)], name: &str) -> Option<String> {
    params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
        .filter(|v| !v.is_empty())
}

fn int_param(params: &[(String, String)], name: &str) -> Option<i64> {
    str_param(params, name).and_then(|v| v.parse().ok())
}

fn id_list(params: &[(String, String)], name: &str) -> Result<Vec<String>, (u16, String)> {
    let Some(raw) = str_param(params, name) else {
        return Err(err_response(
            400,
            CODE_INVALID_PARAMS,
            &format!("{name} is required"),
            None,
        ));
    };
    let ids: Vec<String> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if ids.len() > MAX_IDS_PER_LOOKUP {
        return Err(err_response(
            400,
            CODE_INVALID_PARAMS,
            &format!("{name} accepts at most {MAX_IDS_PER_LOOKUP} IDs"),
            None,
        ));
    }
    Ok(ids)
}

fn ok_response(data: Data) -> (u16, String) {
    let envelope = Envelope {
        data: Some(data),
        error: ErrorObject::ok(),
    };
    (200, envelope.render())
}

fn err_response(status: u16, code: &str, message: &str, retry_after: Option<u64>) -> (u16, String) {
    let envelope = Envelope {
        data: None,
        error: ErrorObject {
            code: code.to_string(),
            message: message.to_string(),
            retry_after,
        },
    };
    (status, envelope.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{test_service, TEST_KEY};
    use ytaudit_types::Topic;

    fn query_params(
        q: &str,
        start: i64,
        end: i64,
        cursor: u64,
        max_count: usize,
    ) -> Vec<(String, String)> {
        vec![
            ("q".to_string(), q.to_string()),
            ("start_time".to_string(), start.to_string()),
            ("end_time".to_string(), end.to_string()),
            ("cursor".to_string(), cursor.to_string()),
            ("max_count".to_string(), max_count.to_string()),
        ]
    }

    fn parse(body: &str) -> Envelope {
        Envelope::parse(body).expect("well-formed envelope")
    }

    fn topic_query(service: &TikTokService) -> (String, i64, i64, Timestamp) {
        let topic = Topic::Higgs;
        let q = topic.spec().query_tokens().join(" ");
        let now = service.platform().corpus().config.audit_start;
        (q, topic.window_start().0, topic.window_end().0, now)
    }

    #[test]
    fn daily_request_budget_is_flat_and_resets_at_utc_midnight() {
        let service = test_service(0.05);
        service.ledger().register("tight", 2);
        let now = Timestamp::from_ymd(2025, 3, 1).expect("valid date");
        let (q, start, end, _) = topic_query(&service);
        let params = query_params(&q, start, end, 0, 5);
        // Two requests of *different* endpoints both cost one unit.
        let (s1, _) = service.handle(Endpoint::Search, &params, Some("tight"), Some(now));
        assert_eq!(s1, 200);
        let lookup = vec![("video_ids".to_string(), "nope".to_string())];
        let (s2, _) = service.handle(Endpoint::Videos, &lookup, Some("tight"), Some(now));
        assert_eq!(s2, 200);
        // The third is refused with a retry hint pointing at UTC midnight.
        let (s3, body) = service.handle(Endpoint::Search, &params, Some("tight"), Some(now));
        assert_eq!(s3, 429);
        let envelope = parse(&body);
        assert_eq!(envelope.error.code, CODE_QUOTA_EXHAUSTED);
        assert_eq!(envelope.error.retry_after, Some(DAY as u64));
        // Next UTC day the budget is back.
        let tomorrow = Timestamp(now.0 + DAY);
        let (s4, _) = service.handle(Endpoint::Search, &params, Some("tight"), Some(tomorrow));
        assert_eq!(s4, 200);
        // Unknown keys never get in.
        let (s5, body) = service.handle(Endpoint::Search, &params, Some("nobody"), Some(now));
        assert_eq!(s5, 403);
        assert_eq!(parse(&body).error.code, CODE_ACCESS_DENIED);
    }

    #[test]
    fn video_query_requires_a_date_window() {
        let service = test_service(0.05);
        let params = vec![("q".to_string(), "higgs".to_string())];
        let (status, body) = service.handle(Endpoint::Search, &params, Some(TEST_KEY), None);
        assert_eq!(status, 400);
        assert_eq!(parse(&body).error.code, CODE_INVALID_PARAMS);
    }

    #[test]
    fn pagination_is_deterministic_and_respects_the_window_cap() {
        let service = test_service(0.2);
        let (q, start, end, now) = topic_query(&service);
        let walk = |svc: &TikTokService| {
            let mut ids = Vec::new();
            let mut cursor = 0u64;
            let total = loop {
                let params = query_params(&q, start, end, cursor, 50);
                let (status, body) =
                    svc.handle(Endpoint::Search, &params, Some(TEST_KEY), Some(now));
                assert_eq!(status, 200, "{body}");
                let data = parse(&body).data.expect("data");
                ids.extend(data.videos.iter().map(|v| v.id.clone()));
                let total = data.total.expect("total");
                let next = data.cursor.expect("cursor");
                if !data.has_more.expect("has_more") {
                    break total;
                }
                assert!(next > cursor, "cursor must advance");
                cursor = next;
            };
            (ids, total)
        };
        let (ids_a, total_a) = walk(&service);
        let (ids_b, total_b) = walk(&service);
        assert_eq!(ids_a, ids_b, "same query + day ⇒ same pages");
        assert_eq!(total_a, total_b);
        assert!(ids_a.len() <= service.quirks().window_cap);
        assert!(total_a <= service.quirks().window_cap as u64);
    }

    #[test]
    fn quirks_truncate_tails_and_blank_pages_deterministically() {
        let base = test_service(0.2);
        let (q, start, end, now) = topic_query(&base);
        let count_with = |quirks: QuirkConfig| {
            let service = TikTokService::new(
                Arc::new(CorpusPlatform::small(0.2)),
                SimClock::at_audit_start(),
            )
            .with_quirks(quirks);
            service.ledger().register(TEST_KEY, RESEARCH_DAILY_REQUESTS);
            let mut seen = 0usize;
            let mut pages = 0usize;
            let mut cursor = 0u64;
            loop {
                let params = query_params(&q, start, end, cursor, 25);
                let (status, body) =
                    service.handle(Endpoint::Search, &params, Some(TEST_KEY), Some(now));
                assert_eq!(status, 200, "{body}");
                let data = parse(&body).data.expect("data");
                seen += data.videos.len();
                pages += 1;
                let next = data.cursor.expect("cursor");
                if !data.has_more.expect("has_more") {
                    break;
                }
                cursor = next;
            }
            (seen, pages)
        };
        let (clean, clean_pages) = count_with(QuirkConfig::none());
        assert!(clean > 0, "corpus window should not be empty");
        // Forcing the tail-drop quirk on every window shrinks the walk.
        let (dropped, _) = count_with(QuirkConfig {
            tail_drop_rate: 1.0,
            empty_page_rate: 0.0,
            ..QuirkConfig::default()
        });
        assert!(
            dropped < clean,
            "tail drop must lose results ({dropped} vs {clean})"
        );
        // Forcing the empty-page quirk serves nothing, yet the cursor
        // still walks the whole window and terminates.
        let (holes, hole_pages) = count_with(QuirkConfig {
            tail_drop_rate: 0.0,
            empty_page_rate: 1.0,
            ..QuirkConfig::default()
        });
        assert_eq!(holes, 0, "every page blanked");
        assert_eq!(hole_pages, clean_pages, "cursor walk is unchanged");
    }

    #[test]
    fn lookups_omit_unknowns_and_comment_list_404s_on_missing_videos() {
        let service = test_service(0.2);
        let corpus = service.platform().corpus();
        let now = corpus.config.audit_start;
        let known = corpus.topics[0].videos[0].id.as_str().to_string();
        let params = vec![(
            "video_ids".to_string(),
            format!("{known},definitely-not-a-video"),
        )];
        let (status, body) = service.handle(Endpoint::Videos, &params, Some(TEST_KEY), Some(now));
        assert_eq!(status, 200);
        let data = parse(&body).data.expect("data");
        assert_eq!(data.videos.len(), 1, "unknown IDs silently omitted");
        assert_eq!(data.videos[0].id, known);
        assert!(data.videos[0].duration.is_some(), "info lookup hydrates");

        let params = vec![("video_id".to_string(), "missing-video".to_string())];
        let (status, body) =
            service.handle(Endpoint::CommentThreads, &params, Some(TEST_KEY), Some(now));
        assert_eq!(status, 404);
        assert_eq!(parse(&body).error.code, CODE_NOT_FOUND);
    }
}
