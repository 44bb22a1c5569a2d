//! The collection harness: the paper's §3 methodology as code.
//!
//! For every snapshot date, the collector pins the client's simulated
//! clock, then for every topic sends one search query per hour of the
//! topic's 28-day window (24 × 28 = 672 queries; 4 032 across six topics),
//! unions the results, immediately fetches `Videos: list` metadata for the
//! returned IDs (Appendix B.1), and — on the first and last snapshots —
//! fetches the comment threads and replies (Appendix B.2). Channel
//! metadata is fetched once at the end.
//!
//! Collected data flows through a [`CollectorSink`]: every completed
//! `(topic, snapshot)` pair is committed to the sink as soon as it
//! finishes, so a durable sink (the `ytaudit-store` crate's snapshot
//! store) loses at most the in-flight pair on a crash and can resume a
//! collection by reporting already-committed pairs via
//! [`CollectorSink::is_committed`]. The in-memory [`MemorySink`]
//! reproduces the original all-at-once [`AuditDataset`] behaviour.

use crate::dataset::{
    AuditDataset, ChannelInfo, CommentFetchError, CommentRecord, CommentsSnapshot, HourlyResult,
    Snapshot, TopicSnapshot, VideoInfo,
};
use crate::platform::Platform;
use crate::schedule::Schedule;
use std::collections::BTreeMap;
use ytaudit_client::{SearchQuery, YouTubeClient};
use ytaudit_types::{
    ApiErrorReason, ChannelId, CommentId, Error, PlatformKind, Result, Timestamp, Topic, VideoId,
};

/// What to collect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Topics to audit.
    pub topics: Vec<Topic>,
    /// Snapshot dates.
    pub schedule: Schedule,
    /// `true` = the paper's hourly time-binning (672 queries per topic per
    /// snapshot); `false` = one full-window query per topic (capped at 500
    /// results by the API) — the naive strategy, kept for comparison.
    pub hourly_bins: bool,
    /// Fetch `Videos: list` metadata after each snapshot's search.
    pub fetch_metadata: bool,
    /// Fetch `Channels: list` metadata at the end.
    pub fetch_channels: bool,
    /// Fetch comment threads + replies on the first and last snapshots.
    pub fetch_comments: bool,
    /// Shard identity when this plan is one range of a partitioned
    /// (`coordinate`) run; `None` for the ordinary single-sink path.
    pub shard: Option<crate::shard::ShardSpec>,
    /// The backend this plan targets. Recorded in the store's Begin
    /// manifest and validated on resume/merge/analyze, so data collected
    /// against one platform can never be silently mixed with another's.
    pub platform: PlatformKind,
}

impl CollectorConfig {
    /// The paper's full configuration: all six topics, the 16-snapshot
    /// schedule, hourly bins, metadata, channels, and comments.
    pub fn paper() -> CollectorConfig {
        CollectorConfig {
            topics: Topic::ALL.to_vec(),
            schedule: Schedule::paper(),
            hourly_bins: true,
            fetch_metadata: true,
            fetch_channels: true,
            fetch_comments: true,
            shard: None,
            platform: PlatformKind::Youtube,
        }
    }

    /// A reduced configuration for fast tests.
    pub fn quick(topics: Vec<Topic>, snapshots: usize) -> CollectorConfig {
        CollectorConfig {
            topics,
            schedule: Schedule::every(Timestamp::from_ymd_const(2025, 2, 9), 5, snapshots),
            hourly_bins: true,
            fetch_metadata: true,
            fetch_channels: true,
            fetch_comments: false,
            shard: None,
            platform: PlatformKind::Youtube,
        }
    }

    /// Whether comments are crawled at snapshot `snapshot` — the first
    /// and last snapshots of the schedule, per Appendix B.2.
    pub fn comments_at(&self, snapshot: usize) -> bool {
        self.fetch_comments && (snapshot == 0 || snapshot + 1 == self.schedule.len())
    }
}

/// One completed `(topic, snapshot)` collection, handed to a
/// [`CollectorSink`] the moment it finishes.
#[derive(Debug)]
pub struct TopicCommit<'a> {
    /// The topic collected.
    pub topic: Topic,
    /// Snapshot index within the schedule.
    pub snapshot: usize,
    /// The snapshot's collection date.
    pub date: Timestamp,
    /// The hourly search results and metadata-coverage list.
    pub data: &'a TopicSnapshot,
    /// Comments, when this snapshot is a comment-collection snapshot
    /// (first and last of the schedule).
    pub comments: Option<&'a CommentsSnapshot>,
    /// Video metadata fetched for this pair, in `Videos: list` return
    /// order (unique per pair; the same video may recur across pairs).
    pub videos: &'a [VideoInfo],
    /// Quota units spent collecting this pair (search + metadata +
    /// comment calls), measured as a delta on the client's budget.
    pub quota_delta: u64,
}

/// Where collected data goes. Implementations decide durability: the
/// in-memory [`MemorySink`] assembles an [`AuditDataset`]; the
/// `ytaudit-store` snapshot store appends each commit to a crash-safe
/// log and supports resuming.
pub trait CollectorSink {
    /// Called once before any collection work with the collection plan.
    /// A durable sink validates that a resumed plan matches the stored
    /// one and records it on first use.
    fn begin(&mut self, config: &CollectorConfig) -> Result<()>;

    /// Whether `(topic, snapshot)` is already durably committed. The
    /// collector skips committed pairs without issuing any API calls.
    fn is_committed(&self, _topic: Topic, _snapshot: usize) -> bool {
        false
    }

    /// Whether the whole collection (every pair plus the final channel
    /// fetch) is already committed; the collector then does nothing.
    fn is_complete(&self) -> bool {
        false
    }

    /// Channel IDs known from previously committed video metadata, so a
    /// resumed run can fetch channels for pairs it never re-collected.
    fn known_channel_ids(&self) -> Result<Vec<ChannelId>> {
        Ok(Vec::new())
    }

    /// Commits one completed `(topic, snapshot)` pair.
    fn commit_topic_snapshot(&mut self, commit: TopicCommit<'_>) -> Result<()>;

    /// Finishes the collection: channel metadata (fetched once, at the
    /// final snapshot's clock) plus the quota spent since the last
    /// commit (channel calls and slack).
    fn finish(&mut self, channels: &[ChannelInfo], quota_final_delta: u64) -> Result<()>;
}

/// The in-memory sink: assembles the classic [`AuditDataset`] exactly as
/// the pre-sink collector did.
#[derive(Debug, Default)]
pub struct MemorySink {
    topics: Vec<Topic>,
    snapshots: BTreeMap<usize, Snapshot>,
    video_meta: BTreeMap<VideoId, VideoInfo>,
    channel_meta: BTreeMap<ChannelId, ChannelInfo>,
    quota_units: u64,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Consumes the sink, yielding the assembled dataset.
    pub fn into_dataset(self) -> AuditDataset {
        AuditDataset {
            topics: self.topics,
            snapshots: self.snapshots.into_values().collect(),
            video_meta: self.video_meta,
            channel_meta: self.channel_meta,
            quota_units_spent: self.quota_units,
        }
    }
}

impl CollectorSink for MemorySink {
    fn begin(&mut self, config: &CollectorConfig) -> Result<()> {
        self.topics = config.topics.clone();
        Ok(())
    }

    fn commit_topic_snapshot(&mut self, commit: TopicCommit<'_>) -> Result<()> {
        let snapshot = self
            .snapshots
            .entry(commit.snapshot)
            .or_insert_with(|| Snapshot {
                date: commit.date,
                topics: BTreeMap::new(),
                comments: BTreeMap::new(),
            });
        snapshot.topics.insert(commit.topic, commit.data.clone());
        if let Some(comments) = commit.comments {
            snapshot.comments.insert(commit.topic, comments.clone());
        }
        // Merged metadata: first successful fetch wins, in commit order.
        for info in commit.videos {
            self.video_meta
                .entry(info.id.clone())
                .or_insert_with(|| info.clone());
        }
        self.quota_units += commit.quota_delta;
        Ok(())
    }

    fn known_channel_ids(&self) -> Result<Vec<ChannelId>> {
        Ok(self
            .video_meta
            .values()
            .map(|v| v.channel_id.clone())
            .collect())
    }

    fn finish(&mut self, channels: &[ChannelInfo], quota_final_delta: u64) -> Result<()> {
        for info in channels {
            self.channel_meta.insert(info.id.clone(), info.clone());
        }
        self.quota_units += quota_final_delta;
        Ok(())
    }
}

/// Runs collections against any [`Platform`] backend.
pub struct Collector<'a> {
    client: &'a dyn Platform,
    config: CollectorConfig,
}

impl<'a> Collector<'a> {
    /// Builds a collector.
    pub fn new(client: &'a dyn Platform, config: CollectorConfig) -> Collector<'a> {
        Collector { client, config }
    }

    /// Runs the full collection in memory, returning the dataset.
    pub fn run(&self) -> Result<AuditDataset> {
        let mut sink = MemorySink::new();
        self.run_with_sink(&mut sink)?;
        Ok(sink.into_dataset())
    }

    /// Runs the collection against an arbitrary sink, committing each
    /// `(topic, snapshot)` pair as it completes and skipping pairs the
    /// sink already holds — the resumable path.
    pub fn run_with_sink(&self, sink: &mut dyn CollectorSink) -> Result<()> {
        if self.config.platform != self.client.kind() {
            return Err(Error::InvalidInput(format!(
                "plan targets platform '{}' but the client speaks '{}'",
                self.config.platform,
                self.client.kind()
            )));
        }
        sink.begin(&self.config)?;
        if sink.is_complete() {
            return Ok(());
        }
        let mut mark = self.client.units_spent();
        for (idx, &date) in self.config.schedule.dates().iter().enumerate() {
            self.client.set_sim_time(Some(date));
            for &topic in &self.config.topics {
                if sink.is_committed(topic, idx) {
                    continue;
                }
                let mut topic_snapshot = if self.config.hourly_bins {
                    TopicSnapshot {
                        hours: search_hours(self.client, topic, 0..topic_window_hours(topic))?,
                        meta_returned: Vec::new(),
                    }
                } else {
                    search_full_window(self.client, topic)?
                };
                let (videos, comments) =
                    finalize_pair(self.client, &self.config, idx, &mut topic_snapshot)?;
                let spent = self.client.units_spent();
                sink.commit_topic_snapshot(TopicCommit {
                    topic,
                    snapshot: idx,
                    date,
                    data: &topic_snapshot,
                    comments: comments.as_ref(),
                    videos: &videos,
                    quota_delta: spent - mark,
                })?;
                mark = spent;
            }
        }
        // The ID set comes from the sink so resumed runs cover the
        // channels of pairs they never re-collected.
        let channels =
            fetch_final_channels(self.client, &self.config, || sink.known_channel_ids())?;
        sink.finish(&channels, self.client.units_spent() - mark)?;
        Ok(())
    }
}

/// Number of whole hours in `topic`'s collection window (672 for the
/// paper's 28-day windows).
pub fn topic_window_hours(topic: Topic) -> u32 {
    topic.window_end().hours_since(topic.window_start()).max(0) as u32
}

/// Runs one hourly time-binned search per hour index in `hours` and
/// returns the results in hour order. This is the unit the scheduler
/// parallelizes; the sequential collector calls it once with the full
/// `0..topic_window_hours(topic)` range, so both paths issue exactly the
/// same queries. The hour-bin queries go through
/// [`Platform::search_windows`]: the YouTube backend batches one page per
/// bin per wave — an HTTP transport with `--in-flight N` pipelines those
/// pages on one connection — while other backends run the windows in
/// order, which is semantically identical.
pub fn search_hours(
    client: &dyn Platform,
    topic: Topic,
    hours: std::ops::Range<u32>,
) -> Result<Vec<HourlyResult>> {
    let window_start = topic.window_start();
    let hour_indices: Vec<u32> = hours.collect();
    let queries: Vec<SearchQuery> = hour_indices
        .iter()
        .map(|&hour| {
            SearchQuery::for_topic(topic).hour_bin(window_start.add_hours(i64::from(hour)))
        })
        .collect();
    let windows = client.search_windows(&queries)?;
    Ok(hour_indices
        .into_iter()
        .zip(windows)
        .map(|(hour, window)| HourlyResult {
            hour,
            video_ids: window.video_ids(),
            total_results: window.total_results,
        })
        .collect())
}

/// Runs a single full-window query (the naive strategy, capped at 500
/// results by the API) and buckets the returns by published hour so
/// downstream analyses see the same shape as the hourly strategy.
pub fn search_full_window(client: &dyn Platform, topic: Topic) -> Result<TopicSnapshot> {
    let window_start = topic.window_start();
    let window_hours = topic_window_hours(topic);
    let window = client.search_window(&SearchQuery::for_topic(topic))?;
    let mut by_hour: BTreeMap<u32, Vec<VideoId>> = BTreeMap::new();
    for hit in &window.hits {
        let published = hit
            .published_at
            .as_deref()
            .map(Timestamp::parse_rfc3339)
            .transpose()?
            .unwrap_or(window_start);
        let hour = published
            .hours_since(window_start)
            .clamp(0, i64::from(window_hours) - 1) as u32;
        by_hour.entry(hour).or_default().push(hit.video_id.clone());
    }
    let hours = by_hour
        .into_iter()
        .map(|(hour, video_ids)| HourlyResult {
            hour,
            video_ids,
            total_results: window.total_results,
        })
        .collect();
    Ok(TopicSnapshot {
        hours,
        meta_returned: Vec::new(),
    })
}

/// The per-pair work that follows the search phase: the `Videos: list`
/// metadata fetch (filling `meta_returned`) and, on comment snapshots,
/// the comment crawl. Shared verbatim by the sequential collector and
/// the scheduler's finalize tasks so the two paths cannot diverge.
pub fn finalize_pair(
    client: &dyn Platform,
    config: &CollectorConfig,
    snapshot: usize,
    data: &mut TopicSnapshot,
) -> Result<(Vec<VideoInfo>, Option<CommentsSnapshot>)> {
    // Sorted IDs keep metadata and comment fetch order — and therefore
    // the committed byte stream — deterministic.
    let mut ids: Vec<VideoId> = data.id_set().into_iter().collect();
    ids.sort();
    let mut videos = Vec::new();
    if config.fetch_metadata {
        let (fetched, returned) = client.video_meta(&ids)?;
        videos = fetched;
        data.meta_returned = returned;
    }
    let comments = if config.comments_at(snapshot) {
        Some(client.comments(&ids)?)
    } else {
        None
    };
    Ok((videos, comments))
}

/// Fetches `Videos: list` metadata for `ids`, returning the parsed infos
/// in API return order plus the sorted coverage list (`meta_returned`).
/// Malformed resources are skipped, as a real collector would.
pub fn fetch_video_meta(
    client: &YouTubeClient,
    ids: &[VideoId],
) -> Result<(Vec<VideoInfo>, Vec<VideoId>)> {
    let fetched = client.videos(ids)?;
    let mut videos = Vec::with_capacity(fetched.len());
    let mut returned = Vec::with_capacity(fetched.len());
    for resource in fetched {
        match parse_video_info(&resource) {
            Ok(info) => {
                returned.push(info.id.clone());
                videos.push(info);
            }
            Err(_) => continue, // malformed resource: skip
        }
    }
    returned.sort();
    Ok((videos, returned))
}

/// The finish phase's channel fetch, shared by every collection path
/// (collector, scheduler, distributed finish range): when `config`
/// asks for channels, pins the final snapshot's clock and fetches
/// metadata for the IDs `ids` yields, deduplicated and sorted so the
/// call sequence is deterministic regardless of backend. The clock is
/// unpinned either way.
pub fn fetch_final_channels(
    client: &dyn Platform,
    config: &CollectorConfig,
    ids: impl FnOnce() -> Result<Vec<ChannelId>>,
) -> Result<Vec<ChannelInfo>> {
    let mut channels = Vec::new();
    if config.fetch_channels {
        if let Some(&last) = config.schedule.dates().last() {
            client.set_sim_time(Some(last));
        }
        let mut ids = ids()?;
        ids.sort();
        ids.dedup();
        channels = client.channel_meta(&ids)?;
    }
    client.set_sim_time(None);
    Ok(channels)
}

/// The YouTube `Channels: list` fetch behind [`Platform::channel_meta`]:
/// IDs are already deduplicated and sorted; malformed resources are
/// skipped, as a real collector would.
pub fn fetch_youtube_channel_meta(
    client: &YouTubeClient,
    ids: &[ChannelId],
) -> Result<Vec<ChannelInfo>> {
    let mut channels = Vec::new();
    for resource in client.channels(ids)? {
        if let Ok(info) = parse_channel_info(&resource) {
            channels.push(info);
        }
    }
    Ok(channels)
}

/// Crawls comment threads plus full reply lists for `videos` (Appendix
/// B.2). Per-video unavailability — a deleted video 404ing on
/// `CommentThreads: list`, or a thread vanishing between the thread and
/// reply fetches — is recorded in the snapshot's `fetch_errors` rather
/// than aborting the topic; any other error (quota exhaustion, transport
/// failure) still propagates.
pub fn collect_comments(client: &YouTubeClient, videos: &[VideoId]) -> Result<CommentsSnapshot> {
    let mut comments = Vec::new();
    let mut fetch_errors = Vec::new();
    for video in videos {
        let threads = match client.comment_threads_all(video) {
            Ok(threads) => threads,
            Err(Error::Api {
                reason: ApiErrorReason::NotFound,
                message,
                ..
            }) => {
                fetch_errors.push(CommentFetchError {
                    video_id: video.clone(),
                    error: format!("commentThreads.list: {message}"),
                });
                continue;
            }
            Err(other) => return Err(other),
        };
        for thread in threads {
            let top = &thread.snippet.top_level_comment;
            comments.push(CommentRecord {
                id: top.id.clone(),
                video_id: video.clone(),
                is_reply: false,
                published_at: Timestamp::parse_rfc3339(&top.snippet.published_at)?,
            });
            // Embedded replies cover ≤ 5; fetch the full reply list via
            // Comments: list exactly as Appendix B.2 describes.
            if thread.replies.is_some() {
                match client.comments_all(&CommentId::new(thread.id.clone())) {
                    Ok(replies) => {
                        for reply in replies {
                            comments.push(CommentRecord {
                                id: reply.id.clone(),
                                video_id: video.clone(),
                                is_reply: true,
                                published_at: Timestamp::parse_rfc3339(
                                    &reply.snippet.published_at,
                                )?,
                            });
                        }
                    }
                    Err(Error::Api {
                        reason: ApiErrorReason::NotFound,
                        message,
                        ..
                    }) => fetch_errors.push(CommentFetchError {
                        video_id: video.clone(),
                        error: format!("comments.list {}: {message}", thread.id),
                    }),
                    Err(other) => return Err(other),
                }
            }
        }
    }
    Ok(CommentsSnapshot {
        comments,
        fetch_errors,
    })
}

fn parse_count(raw: Option<&String>) -> u64 {
    raw.and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Parses a `Videos: list` resource into native types.
pub fn parse_video_info(resource: &ytaudit_api::resources::VideoResource) -> Result<VideoInfo> {
    let snippet = resource
        .snippet
        .as_ref()
        .ok_or_else(|| Error::Decode("video resource missing snippet".into()))?;
    let content = resource
        .content_details
        .as_ref()
        .ok_or_else(|| Error::Decode("video resource missing contentDetails".into()))?;
    let stats = resource
        .statistics
        .as_ref()
        .ok_or_else(|| Error::Decode("video resource missing statistics".into()))?;
    Ok(VideoInfo {
        id: VideoId::new(resource.id.clone()),
        channel_id: ChannelId::new(snippet.channel_id.clone()),
        published_at: Timestamp::parse_rfc3339(&snippet.published_at)?,
        duration_secs: ytaudit_types::IsoDuration::parse(&content.duration)?.as_secs(),
        is_sd: content.definition == "sd",
        views: parse_count(Some(&stats.view_count)),
        likes: parse_count(stats.like_count.as_ref()),
        comments: parse_count(stats.comment_count.as_ref()),
    })
}

/// Parses a `Channels: list` resource into native types.
pub fn parse_channel_info(
    resource: &ytaudit_api::resources::ChannelResource,
) -> Result<ChannelInfo> {
    let snippet = resource
        .snippet
        .as_ref()
        .ok_or_else(|| Error::Decode("channel resource missing snippet".into()))?;
    let stats = resource
        .statistics
        .as_ref()
        .ok_or_else(|| Error::Decode("channel resource missing statistics".into()))?;
    Ok(ChannelInfo {
        id: ChannelId::new(resource.id.clone()),
        published_at: Timestamp::parse_rfc3339(&snippet.published_at)?,
        views: parse_count(Some(&stats.view_count)),
        subscribers: parse_count(Some(&stats.subscriber_count)),
        video_count: parse_count(Some(&stats.video_count)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_client;

    #[test]
    fn quick_collection_produces_consistent_dataset() {
        let (client, _service) = test_client(0.15);
        let config = CollectorConfig::quick(vec![Topic::Higgs], 3);
        let dataset = Collector::new(&client, config).run().unwrap();
        assert_eq!(dataset.len(), 3);
        assert_eq!(dataset.topics, vec![Topic::Higgs]);
        for snapshot in &dataset.snapshots {
            let ts = &snapshot.topics[&Topic::Higgs];
            assert!(ts.total_returned() > 10, "{}", ts.total_returned());
            // Hourly bins stay within the window.
            for hour in &ts.hours {
                assert!(hour.hour < 672);
                assert!(hour.total_results > 100);
            }
            // Metadata coverage is high but (by fault injection) not
            // necessarily total.
            let set = ts.id_set();
            assert!(!ts.meta_returned.is_empty());
            assert!(ts.meta_returned.len() <= set.len());
        }
        // Metadata parsed into native types.
        assert!(!dataset.video_meta.is_empty());
        assert!(!dataset.channel_meta.is_empty());
        for info in dataset.video_meta.values() {
            assert!(info.duration_secs > 0);
            assert!(dataset.channel_meta.contains_key(&info.channel_id));
        }
        assert!(dataset.quota_units_spent > 0);
    }

    #[test]
    fn hourly_and_full_window_strategies_differ() {
        let (client, _service) = test_client(0.3);
        // Hourly bins evade the 500-result cap; a single query cannot.
        let hourly = Collector::new(
            &client,
            CollectorConfig {
                fetch_metadata: false,
                fetch_channels: false,
                ..CollectorConfig::quick(vec![Topic::Blm], 1)
            },
        )
        .run()
        .unwrap();
        let single = Collector::new(
            &client,
            CollectorConfig {
                hourly_bins: false,
                fetch_metadata: false,
                fetch_channels: false,
                ..CollectorConfig::quick(vec![Topic::Blm], 1)
            },
        )
        .run()
        .unwrap();
        let hourly_n = hourly.snapshots[0].topics[&Topic::Blm].total_returned();
        let single_n = single.snapshots[0].topics[&Topic::Blm].total_returned();
        assert!(single_n <= 500);
        assert!(
            hourly_n >= single_n,
            "hourly {hourly_n} vs single {single_n}"
        );
    }

    #[test]
    fn comments_collected_first_and_last_only() {
        let (client, _service) = test_client(0.08);
        let mut config = CollectorConfig::quick(vec![Topic::Brexit], 3);
        config.fetch_comments = true;
        let dataset = Collector::new(&client, config).run().unwrap();
        assert!(dataset.snapshots[0].comments.contains_key(&Topic::Brexit));
        assert!(!dataset.snapshots[1].comments.contains_key(&Topic::Brexit));
        assert!(dataset.snapshots[2].comments.contains_key(&Topic::Brexit));
        let first = &dataset.snapshots[0].comments[&Topic::Brexit];
        assert!(!first.comments.is_empty());
        // Brexit has replies (unlike Higgs).
        assert!(first.comments.iter().any(|c| c.is_reply));
    }

    #[test]
    fn sink_run_matches_in_memory_run() {
        let config = CollectorConfig::quick(vec![Topic::Higgs], 2);
        let (client_a, _sa) = test_client(0.1);
        let direct = Collector::new(&client_a, config.clone()).run().unwrap();
        let (client_b, _sb) = test_client(0.1);
        let mut sink = MemorySink::new();
        Collector::new(&client_b, config)
            .run_with_sink(&mut sink)
            .unwrap();
        let via_sink = sink.into_dataset();
        assert_eq!(via_sink, direct);
    }

    #[test]
    fn sink_skips_committed_pairs_without_api_calls() {
        /// Pretends snapshot 0 is already durably committed.
        struct SkipFirst(MemorySink);
        impl CollectorSink for SkipFirst {
            fn begin(&mut self, config: &CollectorConfig) -> ytaudit_types::Result<()> {
                self.0.begin(config)
            }
            fn is_committed(&self, _topic: Topic, snapshot: usize) -> bool {
                snapshot == 0
            }
            fn commit_topic_snapshot(
                &mut self,
                commit: TopicCommit<'_>,
            ) -> ytaudit_types::Result<()> {
                self.0.commit_topic_snapshot(commit)
            }
            fn finish(
                &mut self,
                channels: &[ChannelInfo],
                delta: u64,
            ) -> ytaudit_types::Result<()> {
                self.0.finish(channels, delta)
            }
        }

        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Higgs], 2)
        };
        let (client, _s) = test_client(0.1);
        let mut sink = SkipFirst(MemorySink::new());
        Collector::new(&client, config.clone())
            .run_with_sink(&mut sink)
            .unwrap();
        let spent_skipping = client.budget().units_spent();
        let dataset = sink.0.into_dataset();
        assert_eq!(dataset.snapshots.len(), 1, "snapshot 0 skipped");
        assert_eq!(dataset.quota_units_spent, spent_skipping);

        let (full_client, _s) = test_client(0.1);
        Collector::new(&full_client, config).run().unwrap();
        assert!(
            spent_skipping < full_client.budget().units_spent(),
            "skipping a committed pair must save its API calls"
        );
    }

    #[test]
    fn collection_is_reproducible() {
        let (client, _service) = test_client(0.1);
        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Higgs], 2)
        };
        let a = Collector::new(&client, config.clone()).run().unwrap();
        let b = Collector::new(&client, config).run().unwrap();
        for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(sa.topics, sb.topics);
        }
    }
}
