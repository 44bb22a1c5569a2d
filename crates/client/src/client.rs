//! The typed Data API client: retries, quota bookkeeping, and
//! full-pagination helpers for every endpoint the audit uses.

use crate::budget::QuotaBudget;
use crate::query::SearchQuery;
use crate::transport::Transport;
use parking_lot::Mutex;
use ytaudit_api::quota::Endpoint;
use ytaudit_api::resources::{
    ChannelListResponse, ChannelResource, CommentListResponse, CommentResource,
    CommentThreadListResponse, CommentThreadResource, ErrorResponse, PlaylistItemListResponse,
    PlaylistItemResource, SearchListResponse, SearchResult, VideoListResponse, VideoResource,
};
use ytaudit_net::resilience::RetryPolicy;
use ytaudit_types::{
    ApiErrorReason, ChannelId, CommentId, Error, PlaylistId, Result, Timestamp, VideoId,
};

/// The outcome of a fully-paginated search: what the paper's harness
/// stores per (query, collection).
#[derive(Debug, Clone)]
pub struct SearchCollection {
    /// All returned results across pages (capped at 500 by the API).
    pub items: Vec<SearchResult>,
    /// The `pageInfo.totalResults` pool estimate from the first page.
    pub total_results: u64,
    /// Number of pages fetched.
    pub pages: u32,
}

impl SearchCollection {
    /// Just the video IDs, in returned order.
    pub fn video_ids(&self) -> Vec<VideoId> {
        self.items
            .iter()
            .map(|item| VideoId::new(item.id.video_id.clone()))
            .collect()
    }
}

/// A typed client for the (simulated) YouTube Data API.
pub struct YouTubeClient {
    transport: Box<dyn Transport>,
    api_key: String,
    retry: RetryPolicy,
    budget: QuotaBudget,
    sim_time: Mutex<Option<Timestamp>>,
}

impl YouTubeClient {
    /// A client over `transport` authenticating with `api_key`.
    pub fn new(transport: Box<dyn Transport>, api_key: impl Into<String>) -> YouTubeClient {
        YouTubeClient {
            transport,
            api_key: api_key.into(),
            retry: RetryPolicy::default(),
            budget: QuotaBudget::new(),
            sim_time: Mutex::new(None),
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> YouTubeClient {
        self.retry = retry;
        self
    }

    /// Sets the simulated "wall clock" for subsequent requests (the
    /// collection date). `None` uses the server's clock.
    pub fn set_sim_time(&self, t: Option<Timestamp>) {
        *self.sim_time.lock() = t;
    }

    /// The current simulated request time, if pinned.
    pub fn sim_time(&self) -> Option<Timestamp> {
        *self.sim_time.lock()
    }

    /// Client-side quota bookkeeping.
    pub fn budget(&self) -> &QuotaBudget {
        &self.budget
    }

    /// Decodes a transport `(status, body)` pair: 200 yields the body,
    /// anything else is decoded as the API error envelope (with a generic
    /// fallback for non-JSON bodies, e.g. a proxy's 502 page).
    fn interpret(status: u16, body: String) -> Result<String> {
        if status == 200 {
            return Ok(body);
        }
        match serde_json::from_str::<ErrorResponse>(&body) {
            Ok(envelope) => {
                let reason = envelope
                    .error
                    .errors
                    .first()
                    .and_then(|e| ApiErrorReason::from_str_opt(&e.reason))
                    .unwrap_or(ApiErrorReason::BackendError);
                Err(match envelope.error.retry_after_secs {
                    Some(secs) => Error::api_with_retry_after(reason, envelope.error.message, secs),
                    None => Error::api(reason, envelope.error.message),
                })
            }
            Err(_) => Err(Error::Io(format!("HTTP {status} with undecodable body"))),
        }
    }

    /// Executes one call: [`YouTubeClient::call_many`] with one
    /// parameter set.
    fn call(&self, endpoint: Endpoint, params: Vec<(String, String)>) -> Result<String> {
        self.call_many(endpoint, std::slice::from_ref(&params))?
            .pop()
            .ok_or_else(|| Error::Io("batch of one returned no body".into()))
    }

    /// Executes a batch of calls against `endpoint` with retries, quota
    /// bookkeeping, and error decoding. Calls are issued in chunks
    /// of [`Transport::preferred_batch`]; each chunk's first attempt goes
    /// through [`Transport::execute_many`] — pipelined on an HTTP
    /// transport — and that batch result is attempt 0 of every slot's
    /// retry loop, so a slot that fails retryably follows the retry
    /// policy's backoff schedule exactly as a lone call would. One quota
    /// record per logical call, never per attempt, and a fatal error
    /// stops the batch before later chunks are recorded.
    fn call_many(
        &self,
        endpoint: Endpoint,
        param_sets: &[Vec<(String, String)>],
    ) -> Result<Vec<String>> {
        let chunk_size = self.transport.preferred_batch().max(1);
        let mut out = Vec::with_capacity(param_sets.len());
        for chunk in param_sets.chunks(chunk_size) {
            for _ in chunk {
                self.budget.record(endpoint, endpoint.cost());
            }
            let now = self.sim_time();
            let first = self
                .transport
                .execute_many(endpoint, chunk, &self.api_key, now);
            for (params, batched) in chunk.iter().zip(first) {
                let mut batched = Some(batched);
                out.push(self.retry.run(
                    |_attempt| {
                        let (status, body) = match batched.take() {
                            Some(result) => result?,
                            None => self
                                .transport
                                .execute(endpoint, params, &self.api_key, now)?,
                        };
                        Self::interpret(status, body)
                    },
                    Error::is_retryable,
                )?);
            }
        }
        Ok(out)
    }

    fn decode<T: serde::de::DeserializeOwned>(body: &str) -> Result<T> {
        serde_json::from_str(body).map_err(|e| Error::Decode(e.to_string()))
    }

    /// Fetches one page of search results.
    pub fn search_page(
        &self,
        query: &SearchQuery,
        page_token: Option<&str>,
    ) -> Result<SearchListResponse> {
        let mut params = query.to_params();
        if let Some(token) = page_token {
            params.push(("pageToken".to_string(), token.to_string()));
        }
        Self::decode(&self.call(Endpoint::Search, params)?)
    }

    /// Fetches every page of a search (up to the API's 500-result cap):
    /// [`YouTubeClient::search_all_many`] with one query.
    pub fn search_all(&self, query: &SearchQuery) -> Result<SearchCollection> {
        self.search_all_many(std::slice::from_ref(query))?
            .pop()
            .ok_or_else(|| Error::Io("batch of one returned no collection".into()))
    }

    /// Fetches every page of several searches, batching one page per
    /// query per wave so a pipelining transport can keep the requests in
    /// flight together. Items, page counts and quota records do not
    /// depend on how the queries are grouped; only the wire interleaving
    /// does.
    pub fn search_all_many(&self, queries: &[SearchQuery]) -> Result<Vec<SearchCollection>> {
        struct Partial {
            items: Vec<SearchResult>,
            total_results: u64,
            pages: u32,
            token: Option<String>,
            done: bool,
        }
        let mut partials: Vec<Partial> = queries
            .iter()
            .map(|_| Partial {
                items: Vec::new(),
                total_results: 0,
                pages: 0,
                token: None,
                done: false,
            })
            .collect();
        loop {
            let live: Vec<usize> = partials
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.done)
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                break;
            }
            let param_sets: Vec<Vec<(String, String)>> = live
                .iter()
                .map(|&i| {
                    let mut params = queries[i].to_params();
                    if let Some(token) = &partials[i].token {
                        params.push(("pageToken".to_string(), token.clone()));
                    }
                    params
                })
                .collect();
            let bodies = self.call_many(Endpoint::Search, &param_sets)?;
            for (&i, body) in live.iter().zip(bodies) {
                let page: SearchListResponse = Self::decode(&body)?;
                let partial = &mut partials[i];
                if partial.pages == 0 {
                    partial.total_results = page.page_info.total_results;
                }
                partial.pages += 1;
                partial.items.extend(page.items);
                match page.next_page_token {
                    Some(next) if partial.pages < 10 => partial.token = Some(next),
                    _ => partial.done = true,
                }
            }
        }
        Ok(partials
            .into_iter()
            .map(|p| SearchCollection {
                items: p.items,
                total_results: p.total_results,
                pages: p.pages,
            })
            .collect())
    }

    /// `Videos: list` for up to any number of IDs (chunked by 50).
    pub fn videos(&self, ids: &[VideoId]) -> Result<Vec<VideoResource>> {
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(50) {
            let joined = chunk
                .iter()
                .map(|id| id.as_str())
                .collect::<Vec<_>>()
                .join(",");
            let params = vec![
                (
                    "part".to_string(),
                    "snippet,contentDetails,statistics".to_string(),
                ),
                ("id".to_string(), joined),
            ];
            let page: VideoListResponse = Self::decode(&self.call(Endpoint::Videos, params)?)?;
            out.extend(page.items);
        }
        Ok(out)
    }

    /// `Channels: list` for up to any number of IDs (chunked by 50).
    pub fn channels(&self, ids: &[ChannelId]) -> Result<Vec<ChannelResource>> {
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(50) {
            let joined = chunk
                .iter()
                .map(|id| id.as_str())
                .collect::<Vec<_>>()
                .join(",");
            let params = vec![
                (
                    "part".to_string(),
                    "snippet,contentDetails,statistics".to_string(),
                ),
                ("id".to_string(), joined),
            ];
            let page: ChannelListResponse = Self::decode(&self.call(Endpoint::Channels, params)?)?;
            out.extend(page.items);
        }
        Ok(out)
    }

    /// All items of a playlist, following pagination to the end.
    pub fn playlist_items_all(&self, playlist: &PlaylistId) -> Result<Vec<PlaylistItemResource>> {
        let mut out = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let mut params = vec![
                ("part".to_string(), "snippet".to_string()),
                ("playlistId".to_string(), playlist.as_str().to_string()),
                ("maxResults".to_string(), "50".to_string()),
            ];
            if let Some(t) = &token {
                params.push(("pageToken".to_string(), t.clone()));
            }
            let page: PlaylistItemListResponse =
                Self::decode(&self.call(Endpoint::PlaylistItems, params)?)?;
            out.extend(page.items);
            match page.next_page_token {
                Some(next) => token = Some(next),
                None => break,
            }
        }
        Ok(out)
    }

    /// The paper's recommended ID-based pipeline for complete channel
    /// catalogues: `Channels: list` → uploads playlist →
    /// `PlaylistItems: list`.
    pub fn channel_uploads(&self, channel: &ChannelId) -> Result<Vec<PlaylistItemResource>> {
        let channels = self.channels(std::slice::from_ref(channel))?;
        let uploads = channels
            .first()
            .and_then(|c| c.content_details.as_ref())
            .map(|cd| PlaylistId::new(cd.related_playlists.uploads.clone()))
            .ok_or_else(|| {
                Error::api(
                    ApiErrorReason::NotFound,
                    format!("channel {channel} not found or has no uploads playlist"),
                )
            })?;
        self.playlist_items_all(&uploads)
    }

    /// All comment threads of a video, following pagination.
    pub fn comment_threads_all(&self, video: &VideoId) -> Result<Vec<CommentThreadResource>> {
        let mut out = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let mut params = vec![
                ("part".to_string(), "snippet,replies".to_string()),
                ("videoId".to_string(), video.as_str().to_string()),
                ("maxResults".to_string(), "100".to_string()),
            ];
            if let Some(t) = &token {
                params.push(("pageToken".to_string(), t.clone()));
            }
            let page: CommentThreadListResponse =
                Self::decode(&self.call(Endpoint::CommentThreads, params)?)?;
            out.extend(page.items);
            match page.next_page_token {
                Some(next) => token = Some(next),
                None => break,
            }
        }
        Ok(out)
    }

    /// All replies under a top-level comment, following pagination.
    pub fn comments_all(&self, parent: &CommentId) -> Result<Vec<CommentResource>> {
        let mut out = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let mut params = vec![
                ("part".to_string(), "snippet".to_string()),
                ("parentId".to_string(), parent.as_str().to_string()),
                ("maxResults".to_string(), "100".to_string()),
            ];
            if let Some(t) = &token {
                params.push(("pageToken".to_string(), t.clone()));
            }
            let page: CommentListResponse = Self::decode(&self.call(Endpoint::Comments, params)?)?;
            out.extend(page.items);
            match page.next_page_token {
                Some(next) => token = Some(next),
                None => break,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcessTransport;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use ytaudit_api::service::{ApiService, FaultConfig};
    use ytaudit_net::resilience::Backoff;
    use ytaudit_platform::{Platform, SimClock};
    use ytaudit_types::Topic;

    fn client_with(
        scale: f64,
        faults: Option<FaultConfig>,
        quota: u64,
    ) -> (YouTubeClient, Arc<ApiService>) {
        let platform = Arc::new(Platform::small(scale));
        let mut service = ApiService::new(platform, SimClock::at_audit_start());
        if let Some(f) = faults {
            service = service.with_faults(f);
        }
        let service = Arc::new(service);
        service.quota().register("key", quota);
        let client = YouTubeClient::new(
            Box::new(InProcessTransport::new(Arc::clone(&service))),
            "key",
        );
        (client, service)
    }

    #[test]
    fn search_all_pages_to_completion() {
        let (client, _svc) = client_with(0.3, None, 100_000_000);
        let collection = client
            .search_all(&SearchQuery::for_topic(Topic::Grammys))
            .unwrap();
        assert!(collection.items.len() > 50, "{}", collection.items.len());
        assert!(collection.items.len() <= 500);
        assert!(collection.pages >= 2);
        assert!(collection.total_results > 1_000);
        let ids = collection.video_ids();
        assert_eq!(ids.len(), collection.items.len());
        // Search quota: 100 units per page.
        assert_eq!(
            client.budget().units_for(Endpoint::Search),
            u64::from(collection.pages) * 100
        );
    }

    #[test]
    fn videos_are_chunked_by_50() {
        let (client, svc) = client_with(
            0.3,
            Some(FaultConfig {
                metadata_miss_rate: 0.0,
                backend_error_rate: 0.0,
            }),
            100_000_000,
        );
        let ids: Vec<VideoId> = svc.platform().corpus().topics[0]
            .videos
            .iter()
            .take(120)
            .map(|v| v.id.clone())
            .collect();
        let resources = client.videos(&ids).unwrap();
        assert_eq!(resources.len(), 120);
        // 120 ids → 3 calls of 1 unit each.
        assert_eq!(client.budget().units_for(Endpoint::Videos), 3);
    }

    #[test]
    fn quota_exceeded_is_fatal_not_retried() {
        let (client, _svc) = client_with(0.15, None, 100); // one search's worth
        let query = SearchQuery::for_topic(Topic::Higgs).max_results(5);
        client.search_page(&query, None).unwrap();
        let err = client.search_page(&query, None).unwrap_err();
        assert_eq!(err.api_reason(), Some(ApiErrorReason::QuotaExceeded));
        // Exactly 2 calls recorded — no retry storm on a fatal error.
        assert_eq!(client.budget().calls_made(), 2);
    }

    #[test]
    fn transient_backend_errors_are_retried() {
        let (client, svc) = client_with(
            0.15,
            Some(FaultConfig {
                metadata_miss_rate: 0.0,
                backend_error_rate: 0.45,
            }),
            100_000_000,
        );
        let ids: Vec<VideoId> = svc.platform().corpus().topics[0]
            .videos
            .iter()
            .take(5)
            .map(|v| v.id.clone())
            .collect();
        // With 4 attempts per call and 45% failure, practically every call
        // succeeds; run several to make a silent retry failure loud.
        for _ in 0..10 {
            let resources = client.videos(&ids).unwrap();
            assert_eq!(resources.len(), 5);
        }
    }

    #[test]
    fn channel_uploads_pipeline_is_complete() {
        let (client, svc) = client_with(
            0.3,
            Some(FaultConfig {
                metadata_miss_rate: 0.0,
                backend_error_rate: 0.0,
            }),
            100_000_000,
        );
        client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
        // Channel with most uploads.
        let platform = svc.platform();
        let channel = platform
            .corpus()
            .channels
            .iter()
            .max_by_key(|c| {
                platform
                    .playlist_items(
                        &c.id.uploads_playlist(),
                        Timestamp::from_ymd(2025, 2, 9).unwrap(),
                    )
                    .map(|v| v.len())
                    .unwrap_or(0)
            })
            .unwrap();
        let uploads = client.channel_uploads(&channel.id).unwrap();
        let oracle = platform
            .playlist_items(
                &channel.id.uploads_playlist(),
                Timestamp::from_ymd(2025, 2, 9).unwrap(),
            )
            .unwrap();
        assert_eq!(uploads.len(), oracle.len());
        assert!(!uploads.is_empty());
        // Completeness *and* order: newest first.
        for (item, video) in uploads.iter().zip(&oracle) {
            assert_eq!(
                item.snippet.as_ref().unwrap().resource_id.video_id,
                video.id.as_str()
            );
        }
        // Missing channel errors cleanly.
        let err = client
            .channel_uploads(&ChannelId::new("UCmissing"))
            .unwrap_err();
        assert_eq!(err.api_reason(), Some(ApiErrorReason::NotFound));
    }

    /// Delegates to an inner transport but advertises a batch appetite,
    /// so client tests can exercise the chunked `call_many` path without
    /// a real pipelined connection underneath.
    struct BatchHinted<T>(T, usize);

    impl<T: Transport> Transport for BatchHinted<T> {
        fn execute(
            &self,
            endpoint: Endpoint,
            params: &[(String, String)],
            api_key: &str,
            now: Option<Timestamp>,
        ) -> ytaudit_types::Result<(u16, String)> {
            self.0.execute(endpoint, params, api_key, now)
        }

        fn preferred_batch(&self) -> usize {
            self.1
        }

        fn label(&self) -> &'static str {
            "batch-hinted"
        }
    }

    /// Fails the first attempt of every distinct call with a transient
    /// I/O error, then delegates.
    struct FailFirstAttempt<T> {
        inner: T,
        seen: Mutex<HashSet<Vec<(String, String)>>>,
    }

    impl<T: Transport> Transport for FailFirstAttempt<T> {
        fn execute(
            &self,
            endpoint: Endpoint,
            params: &[(String, String)],
            api_key: &str,
            now: Option<Timestamp>,
        ) -> ytaudit_types::Result<(u16, String)> {
            if self.seen.lock().insert(params.to_vec()) {
                return Err(Error::Io("injected first-attempt failure".into()));
            }
            self.inner.execute(endpoint, params, api_key, now)
        }

        fn label(&self) -> &'static str {
            "fail-first-attempt"
        }
    }

    #[test]
    fn batched_slot_retries_wait_out_the_backoff() {
        let (reference, svc) = client_with(0.3, None, 100_000_000);
        let flaky = FailFirstAttempt {
            inner: InProcessTransport::new(Arc::clone(&svc)),
            seen: Mutex::new(HashSet::new()),
        };
        let client =
            YouTubeClient::new(Box::new(BatchHinted(flaky, 4)), "key").with_retry(RetryPolicy {
                max_attempts: 4,
                backoff: Backoff {
                    base: Duration::from_millis(200),
                    jitter: 0.0,
                    ..Backoff::default()
                },
            });
        let at = Some(Timestamp::from_ymd(2025, 3, 1).unwrap());
        client.set_sim_time(at);
        reference.set_sim_time(at);
        let window_start = Topic::Blm.window_start();
        let queries: Vec<SearchQuery> = (0..4)
            .map(|h| SearchQuery::for_topic(Topic::Blm).hour_bin(window_start.add_hours(h)))
            .collect();
        let started = Instant::now();
        let batched = client.search_all_many(&queries).unwrap();
        // Every slot's batched attempt failed; its retry must wait the
        // policy's first delay, as a lone call's would.
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "retried after {:?}",
            started.elapsed()
        );
        for (query, batch) in queries.iter().zip(&batched) {
            assert_eq!(
                batch.video_ids(),
                reference.search_all(query).unwrap().video_ids()
            );
        }
    }

    #[test]
    fn search_all_many_matches_per_query_search_all() {
        let (_seq, svc) = client_with(0.3, None, 100_000_000);
        let client = YouTubeClient::new(
            Box::new(BatchHinted(InProcessTransport::new(Arc::clone(&svc)), 4)),
            "key",
        );
        client.set_sim_time(Some(Timestamp::from_ymd(2025, 3, 1).unwrap()));
        let queries: Vec<SearchQuery> = [Topic::Grammys, Topic::Higgs, Topic::Blm]
            .iter()
            .map(|&t| SearchQuery::for_topic(t))
            .collect();
        let batched = client.search_all_many(&queries).unwrap();
        let units_after_batch = client.budget().units_for(Endpoint::Search);
        for (query, batch) in queries.iter().zip(&batched) {
            let reference = client.search_all(query).unwrap();
            assert_eq!(batch.pages, reference.pages);
            assert_eq!(batch.total_results, reference.total_results);
            assert_eq!(batch.video_ids(), reference.video_ids());
        }
        // The batch recorded exactly one search per page, like the
        // sequential loop: the reference runs doubled the ledger.
        assert_eq!(
            client.budget().units_for(Endpoint::Search),
            units_after_batch * 2
        );
    }

    #[test]
    fn sim_time_changes_results() {
        let (client, _svc) = client_with(0.3, None, 100_000_000);
        let query = SearchQuery::for_topic(Topic::Blm);
        client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
        let early = client.search_all(&query).unwrap().video_ids();
        client.set_sim_time(Some(Timestamp::from_ymd(2025, 4, 30).unwrap()));
        let late = client.search_all(&query).unwrap().video_ids();
        assert_ne!(early, late, "collections 80 days apart must differ");
        client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
        let early_again = client.search_all(&query).unwrap().video_ids();
        assert_eq!(early, early_again, "same sim time ⇒ identical results");
    }

    #[test]
    fn comment_threads_and_replies() {
        let (client, svc) = client_with(
            0.2,
            Some(FaultConfig {
                metadata_miss_rate: 0.0,
                backend_error_rate: 0.0,
            }),
            100_000_000,
        );
        let now = Timestamp::from_ymd(2025, 2, 9).unwrap();
        client.set_sim_time(Some(now));
        let platform = svc.platform();
        let video = platform
            .corpus()
            .topics
            .iter()
            .filter(|t| t.topic != Topic::Higgs)
            .flat_map(|t| &t.videos)
            .find(|v| {
                platform
                    .comment_threads(&v.id, now)
                    .iter()
                    .any(|t| !t.replies.is_empty())
            })
            .expect("a video with replies exists")
            .clone();
        let threads = client.comment_threads_all(&video.id).unwrap();
        assert!(!threads.is_empty());
        let with_replies = threads
            .iter()
            .find(|t| t.replies.is_some())
            .expect("thread with replies");
        let replies = client
            .comments_all(&CommentId::new(with_replies.id.clone()))
            .unwrap();
        assert_eq!(
            replies.len(),
            with_replies.replies.as_ref().unwrap().comments.len()
        );
    }
}
