//! # ytaudit-platform
//!
//! The synthetic YouTube-like platform under audit: a deterministic corpus
//! of channels/videos/comments ([`corpus`]), per-topic interest densities
//! ([`density`]), the hidden search sampler the paper reverse-engineers
//! ([`search`]), a simulated clock ([`clock`]), and the [`Platform`] façade
//! that the simulated Data API (`ytaudit-api`) calls into.
//!
//! Everything is a pure function of the corpus seed and the request
//! instant: identical queries at the same simulated time return identical
//! results; queries weeks apart drift exactly the way Figures 1–3 of the
//! paper describe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod corpus;
pub mod density;
pub mod faultpoint;
pub mod hash;
pub mod search;
pub mod serp;
mod threads;

pub use clock::SimClock;
pub use corpus::{Corpus, CorpusConfig, TopicCorpus};
pub use density::InterestDensity;
pub use search::{
    SamplerConfig, SearchEngine, SearchOrder, SearchOutcome, SearchParams, SeasonalConfig,
};

use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use threads::{posted_by, ThreadIndex};
use ytaudit_types::time::HOUR;
use ytaudit_types::{
    Channel, ChannelId, Comment, CommentId, PlaylistId, Timestamp, Topic, Video, VideoId,
};

/// A comment thread: one top-level comment plus its (≤ 5) replies, as
/// `CommentThreads: list` returns them.
#[derive(Debug, Clone)]
pub struct CommentThread<'a> {
    /// The top-level comment.
    pub top_level: &'a Comment,
    /// Replies in posting order (the real endpoint nests at most five).
    pub replies: Vec<&'a Comment>,
}

/// The platform façade: corpus + indexes + sampler.
pub struct Platform {
    corpus: Corpus,
    engine: SearchEngine,
    video_index: HashMap<VideoId, (usize, usize)>, // (topic idx, video idx)
    channel_index: HashMap<ChannelId, usize>,
    channel_topic: HashMap<ChannelId, usize>,
    by_hour: BTreeMap<i64, Vec<(usize, usize)>>, // hour-since-epoch → refs
    by_channel: HashMap<ChannelId, Vec<(usize, usize)>>, // date-desc
    /// Corpus position of each topic's first video.
    topic_offset: Vec<usize>,
    threads: ThreadIndex,
    match_fraction_cache: Mutex<HashMap<(usize, String), f64>>,
}

impl Platform {
    /// Builds the platform from a generated corpus with the calibrated
    /// default sampler.
    pub fn new(corpus: Corpus) -> Platform {
        Platform::with_sampler(corpus, SamplerConfig::default())
    }

    /// Builds the platform with an explicit sampler configuration — the
    /// hook the ablation experiments use to switch individual mechanisms
    /// off.
    pub fn with_sampler(corpus: Corpus, sampler: SamplerConfig) -> Platform {
        let engine = SearchEngine::with_config(&corpus, sampler);
        let mut video_index = HashMap::new();
        let mut by_hour: BTreeMap<i64, Vec<(usize, usize)>> = BTreeMap::new();
        let mut by_channel: HashMap<ChannelId, Vec<(usize, usize)>> = HashMap::new();
        for (ti, tc) in corpus.topics.iter().enumerate() {
            for (vi, video) in tc.videos.iter().enumerate() {
                video_index.insert(video.id.clone(), (ti, vi));
                by_hour
                    .entry(video.published_at.as_secs().div_euclid(HOUR))
                    .or_default()
                    .push((ti, vi));
                by_channel
                    .entry(video.channel_id.clone())
                    .or_default()
                    .push((ti, vi));
            }
        }
        // Channel uploads newest-first, the PlaylistItems convention.
        for refs in by_channel.values_mut() {
            refs.sort_by(|a, b| {
                let va = &corpus.topics[a.0].videos[a.1];
                let vb = &corpus.topics[b.0].videos[b.1];
                vb.published_at
                    .cmp(&va.published_at)
                    .then_with(|| va.id.cmp(&vb.id))
            });
        }
        let mut channel_index = HashMap::new();
        let mut channel_topic = HashMap::new();
        for (ci, channel) in corpus.channels.iter().enumerate() {
            channel_index.insert(channel.id.clone(), ci);
            if let Some(ti) = corpus
                .topics
                .iter()
                .position(|tc| tc.channel_range.contains(&ci))
            {
                channel_topic.insert(channel.id.clone(), ti);
            }
        }
        let mut topic_offset = Vec::with_capacity(corpus.topics.len());
        let mut video_count = 0;
        for tc in &corpus.topics {
            topic_offset.push(video_count);
            video_count += tc.videos.len();
        }
        let threads = ThreadIndex::build(&corpus.comments, video_count, |id| {
            video_index
                .get(id)
                .and_then(|&(ti, vi)| Some(topic_offset.get(ti)? + vi))
        });
        Platform {
            corpus,
            engine,
            video_index,
            channel_index,
            channel_topic,
            by_hour,
            by_channel,
            topic_offset,
            threads,
            match_fraction_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Builds the platform at full audit scale with the default seed.
    pub fn with_default_corpus() -> Platform {
        Platform::new(Corpus::generate(CorpusConfig::default()))
    }

    /// Builds a reduced-scale platform (for fast tests).
    pub fn small(scale: f64) -> Platform {
        Platform::new(Corpus::generate(CorpusConfig {
            scale,
            ..CorpusConfig::default()
        }))
    }

    /// The underlying corpus (ground truth, for tests and analyses that
    /// need oracle access).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The search engine (densities and sampler internals).
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    // --- Search ---

    /// Executes a search query at the simulated instant `now`.
    pub fn search(&self, params: &SearchParams, now: Timestamp) -> SearchOutcome {
        // Resolve topic: from tokens, else from the channel filter.
        let topic_from_tokens = SearchEngine::detect_topic(&params.tokens);
        let topic_idx = topic_from_tokens
            .and_then(|t| Topic::ALL.iter().position(|&x| x == t))
            .or_else(|| {
                params
                    .channel_id
                    .as_ref()
                    .and_then(|c| self.channel_topic.get(c))
                    .copied()
            });
        let topic = topic_idx.map(|i| Topic::ALL[i]);

        // Eligible set.
        let eligible: Vec<&Video> = match &params.channel_id {
            Some(channel) => self
                .by_channel
                .get(channel)
                .map(|refs| {
                    refs.iter()
                        .map(|&(ti, vi)| &self.corpus.topics[ti].videos[vi])
                        .filter(|v| self.eligible_for(v, params, now))
                        .collect()
                })
                .unwrap_or_default(),
            None => {
                // Range over hour buckets intersected with the query
                // bounds (bounded by the generated corpus extent).
                let lo = params
                    .published_after
                    .map(|t| t.as_secs().div_euclid(HOUR))
                    .unwrap_or(i64::MIN);
                let hi = params
                    .published_before
                    .map(|t| t.as_secs().div_euclid(HOUR) + 1)
                    .unwrap_or(i64::MAX);
                self.by_hour
                    .range(lo..hi)
                    .flat_map(|(_, refs)| refs.iter())
                    .map(|&(ti, vi)| &self.corpus.topics[ti].videos[vi])
                    .filter(|v| self.eligible_for(v, params, now))
                    .collect()
            }
        };

        let match_fraction = match topic_idx {
            Some(ti) => self.match_fraction(ti, params),
            None => 1.0,
        };

        self.engine.run(
            topic,
            params,
            &eligible,
            |v| {
                self.channel_index
                    .get(&v.channel_id)
                    .map(|&ci| &self.corpus.channels[ci])
            },
            match_fraction,
            now,
        )
    }

    fn eligible_for(&self, video: &Video, params: &SearchParams, now: Timestamp) -> bool {
        if !video.visible_at(now) {
            return false;
        }
        if let Some(after) = params.published_after {
            if video.published_at < after {
                return false;
            }
        }
        if let Some(before) = params.published_before {
            if video.published_at >= before {
                return false;
            }
        }
        if !params.tokens.is_empty() && !video.matches_tokens(&params.tokens) {
            return false;
        }
        true
    }

    /// Share of the topic corpus matching the query tokens (the pool-
    /// narrowing lever of §6.1). Cached per (topic, token set).
    fn match_fraction(&self, topic_idx: usize, params: &SearchParams) -> f64 {
        if params.tokens.is_empty() {
            // Channel-scoped search: the channel's catalogue is a tiny
            // slice of the topic pool.
            if let Some(channel) = &params.channel_id {
                let channel_videos = self.by_channel.get(channel).map(Vec::len).unwrap_or(0);
                let topic_videos = self.corpus.topics[topic_idx].videos.len().max(1);
                return (channel_videos as f64 / topic_videos as f64).clamp(1e-4, 1.0);
            }
            return 1.0;
        }
        let mut key_tokens: Vec<&str> = params.tokens.iter().map(String::as_str).collect();
        key_tokens.sort_unstable();
        let key = (topic_idx, key_tokens.join(" "));
        if let Some(&cached) = self.match_fraction_cache.lock().get(&key) {
            return cached;
        }
        let tc = &self.corpus.topics[topic_idx];
        let matching = tc
            .videos
            .iter()
            .filter(|v| v.matches_tokens(&params.tokens))
            .count();
        let fraction = (matching as f64 / tc.videos.len().max(1) as f64).clamp(0.0, 1.0);
        self.match_fraction_cache.lock().insert(key, fraction);
        fraction
    }

    // --- ID-based endpoints (stable, per Appendix B) ---

    /// Looks up a video by ID (a `&VideoId` or the raw `&str`),
    /// honouring deletion at `now`.
    pub fn video<Q>(&self, id: &Q, now: Timestamp) -> Option<&Video>
    where
        VideoId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.video_index.get(id).and_then(|&(ti, vi)| {
            let v = &self.corpus.topics[ti].videos[vi];
            v.visible_at(now).then_some(v)
        })
    }

    /// The topic a video belongs to.
    pub fn topic_of_video(&self, id: &VideoId) -> Option<Topic> {
        self.video_index
            .get(id)
            .map(|&(ti, _)| self.corpus.topics[ti].topic)
    }

    /// Looks up a channel by ID (a `&ChannelId` or the raw `&str`).
    pub fn channel<Q>(&self, id: &Q) -> Option<&Channel>
    where
        ChannelId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.channel_index
            .get(id)
            .map(|&ci| &self.corpus.channels[ci])
    }

    /// A channel's uploads (newest first), as resolved through its
    /// uploads playlist — complete and stable, unlike search. `None` for
    /// unknown playlists (404 at the API layer).
    pub fn playlist_items(&self, playlist: &PlaylistId, now: Timestamp) -> Option<Vec<&Video>> {
        let channel = playlist.uploads_channel()?;
        self.channel_index.get(&channel)?;
        Some(
            self.by_channel
                .get(&channel)
                .map(|refs| {
                    refs.iter()
                        .map(|&(ti, vi)| &self.corpus.topics[ti].videos[vi])
                        .filter(|v| v.visible_at(now))
                        .collect()
                })
                .unwrap_or_default(),
        )
    }

    /// Comment threads for a video: top-level comments (oldest first) with
    /// up to five nested replies each. Empty when the video is deleted.
    pub fn comment_threads<Q>(&self, video_id: &Q, now: Timestamp) -> Vec<CommentThread<'_>>
    where
        VideoId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&(ti, vi)) = self.video_index.get(video_id) else {
            return Vec::new();
        };
        let video = &self.corpus.topics[ti].videos[vi];
        if !video.visible_at(now) {
            return Vec::new();
        }
        let comments = &self.corpus.comments;
        let (threads, tops) = self.threads.video_threads(self.topic_offset[ti] + vi);
        threads
            .zip(posted_by(comments, tops, now))
            .map(|(thread, &top)| {
                let replies = posted_by(comments, self.threads.thread_replies(thread), now);
                CommentThread {
                    top_level: &comments[top as usize],
                    replies: replies
                        .iter()
                        .take(5)
                        .map(|&ci| &comments[ci as usize])
                        .collect(),
                }
            })
            .collect()
    }

    /// All replies to a top-level comment (the `Comments: list`
    /// `parentId` query).
    pub fn comments_by_parent<Q>(&self, parent: &Q, now: Timestamp) -> Vec<&Comment>
    where
        CommentId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let comments = &self.corpus.comments;
        let thread = self.threads.comment(parent).and_then(|top| {
            let &(ti, vi) = self.video_index.get(&comments[top].video_id)?;
            self.threads
                .thread_of(comments, top, self.topic_offset[ti] + vi)
        });
        let Some(thread) = thread else {
            return Vec::new();
        };
        posted_by(comments, self.threads.thread_replies(thread), now)
            .iter()
            .map(|&ci| &comments[ci as usize])
            .collect()
    }

    /// A comment by ID (a `&CommentId` or the raw `&str`).
    pub fn comment<Q>(&self, id: &Q, now: Timestamp) -> Option<&Comment>
    where
        CommentId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let c = &self.corpus.comments[self.threads.comment(id)?];
        (c.published_at <= now).then_some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn platform() -> Platform {
        Platform::small(0.5)
    }

    fn audit_time() -> Timestamp {
        Timestamp::from_ymd(2025, 2, 9).unwrap()
    }

    fn topic_params(topic: Topic) -> SearchParams {
        let spec = topic.spec();
        SearchParams {
            tokens: spec.query_tokens(),
            published_after: Some(topic.window_start()),
            published_before: Some(topic.window_end()),
            order: SearchOrder::Date,
            channel_id: None,
        }
    }

    #[test]
    fn search_is_deterministic_at_fixed_time() {
        let p = platform();
        let params = topic_params(Topic::Brexit);
        let a = p.search(&params, audit_time());
        let b = p.search(&params, audit_time());
        assert_eq!(a.video_ids, b.video_ids);
        assert_eq!(a.total_results, b.total_results);
        assert!(!a.video_ids.is_empty());
    }

    #[test]
    fn search_returns_date_descending() {
        let p = platform();
        let outcome = p.search(&topic_params(Topic::Grammys), audit_time());
        let times: Vec<_> = outcome
            .video_ids
            .iter()
            .map(|id| p.video(id, audit_time()).unwrap().published_at)
            .collect();
        assert!(times.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn search_suppresses_part_of_the_eligible_set() {
        let p = platform();
        for topic in Topic::ALL {
            let outcome = p.search(&topic_params(topic), audit_time());
            let eligible = p.corpus().topics[Topic::ALL.iter().position(|&t| t == topic).unwrap()]
                .videos
                .len();
            assert!(
                outcome.video_ids.len() < eligible,
                "{topic}: returned {} of {eligible}",
                outcome.video_ids.len()
            );
            assert!(!outcome.video_ids.is_empty(), "{topic}");
        }
    }

    #[test]
    fn search_drifts_across_collection_dates() {
        let p = platform();
        let params = topic_params(Topic::Blm);
        let early: HashSet<_> = p
            .search(&params, audit_time())
            .video_ids
            .into_iter()
            .collect();
        let late: HashSet<_> = p
            .search(&params, audit_time().add_days(80))
            .video_ids
            .into_iter()
            .collect();
        let j = plain_jaccard(&early, &late);
        assert!(j < 0.9, "BLM drift too small: J = {j}");
        assert!(j > 0.05, "BLM drift implausibly large: J = {j}");
    }

    #[test]
    fn higgs_is_much_more_stable_than_blm() {
        let p = platform();
        let j_of = |topic: Topic| {
            let params = topic_params(topic);
            let a: HashSet<_> = p
                .search(&params, audit_time())
                .video_ids
                .into_iter()
                .collect();
            let b: HashSet<_> = p
                .search(&params, audit_time().add_days(80))
                .video_ids
                .into_iter()
                .collect();
            plain_jaccard(&a, &b)
        };
        let j_higgs = j_of(Topic::Higgs);
        let j_blm = j_of(Topic::Blm);
        assert!(j_higgs > j_blm + 0.15, "higgs {j_higgs} vs blm {j_blm}");
    }

    #[test]
    fn pool_estimates_scale_with_topic() {
        let p = platform();
        let total = |topic: Topic| p.search(&topic_params(topic), audit_time()).total_results;
        assert!(total(Topic::Higgs) < 100_000);
        assert!(total(Topic::Grammys) < 400_000);
        assert!(total(Topic::WorldCup) > 400_000);
        assert!(total(Topic::WorldCup) <= 1_000_000);
    }

    #[test]
    fn narrower_queries_return_fewer_and_smaller_pool() {
        let p = platform();
        let broad = topic_params(Topic::WorldCup);
        let mut narrow = broad.clone();
        narrow.tokens.push("messi".into());
        let b = p.search(&broad, audit_time());
        let n = p.search(&narrow, audit_time());
        assert!(n.video_ids.len() < b.video_ids.len());
        assert!(n.total_results < b.total_results);
        for id in &n.video_ids {
            assert!(p
                .video(id, audit_time())
                .unwrap()
                .terms
                .iter()
                .any(|t| t == "messi"));
        }
    }

    #[test]
    fn deleted_videos_disappear_from_everything() {
        let p = platform();
        let deleted = p
            .corpus()
            .topics
            .iter()
            .flat_map(|t| &t.videos)
            .find(|v| v.deleted_at.is_some())
            .expect("corpus contains deletions")
            .clone();
        let before = deleted.deleted_at.unwrap() + (-1);
        let after = deleted.deleted_at.unwrap() + 1;
        assert!(p.video(&deleted.id, before).is_some());
        assert!(p.video(&deleted.id, after).is_none());
        assert!(p.comment_threads(&deleted.id, after).is_empty());
        let playlist = deleted.channel_id.uploads_playlist();
        let uploads_after: Vec<_> = p
            .playlist_items(&playlist, after)
            .unwrap()
            .iter()
            .map(|v| v.id.clone())
            .collect();
        assert!(!uploads_after.contains(&deleted.id));
    }

    #[test]
    fn playlist_items_are_complete_and_stable() {
        let p = platform();
        let channel = &p.corpus().channels[0];
        let playlist = channel.id.uploads_playlist();
        let now = audit_time();
        let a: Vec<_> = p
            .playlist_items(&playlist, now)
            .unwrap()
            .iter()
            .map(|v| v.id.clone())
            .collect();
        let b: Vec<_> = p
            .playlist_items(&playlist, now.add_days(80))
            .unwrap()
            .iter()
            .map(|v| v.id.clone())
            .collect();
        // Stable across the audit period modulo deletions.
        let a_set: HashSet<_> = a.iter().collect();
        let b_set: HashSet<_> = b.iter().collect();
        assert!(b_set.is_subset(&a_set));
        let times: Vec<_> = p
            .playlist_items(&playlist, now)
            .unwrap()
            .iter()
            .map(|v| v.published_at)
            .collect();
        assert!(times.windows(2).all(|w| w[0] >= w[1]));
        assert!(p
            .playlist_items(&PlaylistId::new("UUdoesnotexist000000000"), now)
            .is_none());
    }

    #[test]
    fn comment_threads_nest_replies() {
        let p = platform();
        let now = audit_time();
        for tc in &p.corpus().topics {
            if tc.topic == Topic::Higgs {
                continue;
            }
            for v in &tc.videos {
                let threads = p.comment_threads(&v.id, now);
                for thread in &threads {
                    assert!(!thread.top_level.is_reply());
                    assert!(thread.replies.len() <= 5);
                    for reply in &thread.replies {
                        assert_eq!(reply.id.parent().unwrap(), thread.top_level.id);
                    }
                    if !thread.replies.is_empty() {
                        let listed = p.comments_by_parent(&thread.top_level.id, now);
                        assert_eq!(listed.len(), thread.replies.len());
                        return;
                    }
                }
            }
        }
        panic!("no threaded comments found");
    }

    #[test]
    fn channel_scoped_search_also_randomizes() {
        // The paper's §6.1 warning: collecting a channel's videos through
        // the *search* endpoint is unreliable; PlaylistItems is complete.
        let p = platform();
        let now = audit_time();
        // Pick the channel with the most uploads.
        let channel = p
            .corpus()
            .channels
            .iter()
            .max_by_key(|c| p.by_channel.get(&c.id).map(Vec::len).unwrap_or(0))
            .unwrap();
        let uploads = p
            .playlist_items(&channel.id.uploads_playlist(), now)
            .unwrap()
            .len();
        let params = SearchParams {
            tokens: Vec::new(),
            channel_id: Some(channel.id.clone()),
            published_after: None,
            published_before: None,
            order: SearchOrder::Date,
        };
        let searched = p.search(&params, now).video_ids.len();
        assert!(
            searched <= uploads,
            "search returned {searched} > uploads {uploads}"
        );
    }

    /// The grouping `comment_threads` and `comments_by_parent` did on
    /// every call before the thread index, kept as the reference: the
    /// video's comments regrouped by parent, each list sorted by
    /// (published_at, id).
    struct Regrouped<'a> {
        platform: &'a Platform,
        comments_by_video: HashMap<VideoId, Vec<usize>>,
        comment_index: HashMap<CommentId, usize>,
    }

    impl<'a> Regrouped<'a> {
        fn new(platform: &'a Platform) -> Regrouped<'a> {
            let mut comments_by_video: HashMap<VideoId, Vec<usize>> = HashMap::new();
            let mut comment_index = HashMap::new();
            for (ci, comment) in platform.corpus.comments.iter().enumerate() {
                comments_by_video
                    .entry(comment.video_id.clone())
                    .or_default()
                    .push(ci);
                comment_index.insert(comment.id.clone(), ci);
            }
            Regrouped {
                platform,
                comments_by_video,
                comment_index,
            }
        }

        fn comment_threads(&self, video_id: &VideoId, now: Timestamp) -> Vec<CommentThread<'a>> {
            if self.platform.video(video_id, now).is_none() {
                return Vec::new();
            }
            let Some(indices) = self.comments_by_video.get(video_id) else {
                return Vec::new();
            };
            let mut tops: Vec<&Comment> = Vec::new();
            let mut replies: HashMap<CommentId, Vec<&Comment>> = HashMap::new();
            for &ci in indices {
                let comment = &self.platform.corpus.comments[ci];
                if comment.published_at > now {
                    continue;
                }
                match comment.id.parent() {
                    Some(parent) => replies.entry(parent).or_default().push(comment),
                    None => tops.push(comment),
                }
            }
            tops.sort_by(|a, b| {
                a.published_at
                    .cmp(&b.published_at)
                    .then_with(|| a.id.cmp(&b.id))
            });
            tops.into_iter()
                .map(|top| {
                    let mut thread_replies = replies.remove(&top.id).unwrap_or_default();
                    thread_replies.sort_by(|a, b| {
                        a.published_at
                            .cmp(&b.published_at)
                            .then_with(|| a.id.cmp(&b.id))
                    });
                    thread_replies.truncate(5);
                    CommentThread {
                        top_level: top,
                        replies: thread_replies,
                    }
                })
                .collect()
        }

        fn comments_by_parent(&self, parent: &CommentId, now: Timestamp) -> Vec<&'a Comment> {
            let Some(&ci) = self.comment_index.get(parent) else {
                return Vec::new();
            };
            let comments = &self.platform.corpus.comments;
            let video_id = &comments[ci].video_id;
            let Some(indices) = self.comments_by_video.get(video_id) else {
                return Vec::new();
            };
            let mut out: Vec<&Comment> = indices
                .iter()
                .map(|&i| &comments[i])
                .filter(|c| c.published_at <= now && c.id.parent().as_ref() == Some(parent))
                .collect();
            out.sort_by(|a, b| {
                a.published_at
                    .cmp(&b.published_at)
                    .then_with(|| a.id.cmp(&b.id))
            });
            out
        }
    }

    fn thread_ids(threads: &[CommentThread<'_>]) -> Vec<(CommentId, Vec<CommentId>)> {
        threads
            .iter()
            .map(|t| {
                let replies = t.replies.iter().map(|r| r.id.clone()).collect();
                (t.top_level.id.clone(), replies)
            })
            .collect()
    }

    /// Checks every video's threads and every thread's replies against
    /// the reference at `nows(video)`; returns how many (video, now)
    /// pairs showed a thread with replies not yet posted, a thread with
    /// more than five replies, and a deleted video.
    fn check_against_reference(
        p: &Platform,
        nows: impl Fn(&Video) -> Vec<Timestamp>,
    ) -> (usize, usize, usize) {
        let reference = Regrouped::new(p);
        let (mut early, mut long, mut deleted) = (0, 0, 0);
        for video in p.corpus().topics.iter().flat_map(|t| &t.videos) {
            for now in nows(video) {
                let got = p.comment_threads(&video.id, now);
                let want = reference.comment_threads(&video.id, now);
                assert_eq!(thread_ids(&got), thread_ids(&want), "{} at {now}", video.id);
                if !video.visible_at(now) {
                    deleted += 1;
                }
                for thread in &want {
                    let id = &thread.top_level.id;
                    let got = p.comments_by_parent(id, now);
                    let all = reference.comments_by_parent(id, now);
                    assert_eq!(got, all, "replies of {id} at {now}");
                    let ever = reference.comments_by_parent(id, Timestamp(i64::MAX));
                    early += usize::from(all.len() < ever.len());
                    long += usize::from(all.len() > 5);
                    if let Some(reply) = ever.first() {
                        assert!(p.comments_by_parent(&reply.id, now).is_empty());
                    }
                }
            }
        }
        (early, long, deleted)
    }

    #[test]
    fn thread_index_matches_regrouping_on_every_video() {
        let p = Platform::small(0.3);
        let start = audit_time();
        let (early, _, deleted) = check_against_reference(&p, |video| {
            let mut nows = vec![start, start.add_days(60)];
            for hours in [0, 1, 12, 24, 60, 24 * 7, 24 * 14, 24 * 22] {
                nows.push(video.published_at.add_hours(hours));
            }
            if let Some(at) = video.deleted_at {
                nows.extend([at + (-1), at, at + 1]);
            }
            nows
        });
        assert!(early > 0, "no now fell before a thread's replies");
        assert!(deleted > 0, "no deleted video was checked");
        for id in ["nope", "nope.nope", ""] {
            assert!(p.comments_by_parent(&CommentId::new(id), start).is_empty());
        }
    }

    #[test]
    fn thread_index_keeps_every_reply_past_the_fifth() {
        let mut corpus = Corpus::generate(CorpusConfig {
            scale: 0.1,
            ..CorpusConfig::default()
        });
        let top = corpus
            .comments
            .iter()
            .find(|c| {
                !c.is_reply()
                    && corpus
                        .comments
                        .iter()
                        .any(|r| r.id.parent().as_ref() == Some(&c.id))
            })
            .expect("a thread with replies")
            .clone();
        // Nine more replies, posted out of order and some at equal
        // instants, so both the time and the ID order matter.
        for k in 0..9u64 {
            corpus.comments.push(Comment {
                id: top.id.mint_reply(100 + k),
                text: format!("extra reply {k}"),
                published_at: top.published_at + 3_600 * (k % 4) as i64 + 60,
                ..top.clone()
            });
        }
        let p = Platform::new(corpus);
        let late = top.published_at.add_days(30);
        assert!(p.comments_by_parent(&top.id, late).len() > 9);
        let thread = p
            .comment_threads(&top.video_id, late)
            .into_iter()
            .find(|t| t.top_level.id == top.id)
            .expect("the thread");
        assert_eq!(thread.replies.len(), 5);
        let (early, long, _) = check_against_reference(&p, |video| {
            if video.id == top.video_id {
                (0..12)
                    .map(|h| top.published_at.add_hours(h))
                    .chain([late])
                    .collect()
            } else {
                Vec::new()
            }
        });
        assert!(
            long > 0,
            "no thread with more than five replies was checked"
        );
        assert!(early > 0, "no now fell before a thread's replies");
    }

    #[test]
    fn unknown_ids_return_none_or_empty() {
        let p = platform();
        let now = audit_time();
        assert!(p.video(&VideoId::new("doesnotexist"), now).is_none());
        assert!(p.channel(&ChannelId::new("UCnope")).is_none());
        assert!(p
            .comment_threads(&VideoId::new("doesnotexist"), now)
            .is_empty());
        assert!(p
            .comments_by_parent(&CommentId::new("nope"), now)
            .is_empty());
    }

    fn plain_jaccard(a: &HashSet<VideoId>, b: &HashSet<VideoId>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let inter = a.intersection(b).count();
        inter as f64 / (a.len() + b.len() - inter) as f64
    }
}
