//! Synthetic corpus generation: channels, videos, and comments for the six
//! audit topics, with the correlation structure the paper reports.
//!
//! Calibration targets (see DESIGN.md §6):
//! * engagement counters are log-normal with log-scale correlations that
//!   reproduce r(views, likes) ≈ 0.92, r(views, comments) ≈ 0.89;
//! * channel views and subscribers are nearly collinear (r ≈ 0.97), which
//!   is what makes the paper's channel-level coefficients unstable;
//! * upload times follow the topic's interest density, so the per-day
//!   upload histogram matches Figure 2's shape;
//! * a small fraction of videos is deleted during the audit period — the
//!   paper's "error bars" analysis shows deletions cannot explain the
//!   churn, and the simulator preserves that: deletions are an order of
//!   magnitude rarer than sampler churn.
//!
//! Note on scale: the real topic pools are 10⁵–10⁶ videos platform-wide
//! (Table 4), but the audit only ever *observes* the ≲ 800 videos per
//! snapshot the sampler returns. We therefore generate only the in-window
//! slice of each pool (a few thousand videos per topic — enough that the
//! sampler always has ~4× more eligible videos than it returns) and carry
//! the full pool size as metadata for `pageInfo.totalResults`. This keeps
//! the repository runnable on a laptop while preserving every observable
//! behaviour; DESIGN.md documents the substitution.

use crate::density::InterestDensity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ytaudit_types::time::DAY;
use ytaudit_types::topic::tokenize;
use ytaudit_types::{
    Channel, ChannelId, ChannelStats, Comment, CommentId, Definition, IsoDuration, Timestamp,
    Topic, Video, VideoId, VideoStats,
};

/// Corpus generation knobs.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Master RNG seed: the whole platform is a pure function of it.
    pub seed: u64,
    /// Multiplier on in-window corpus sizes. 1.0 is full audit scale
    /// (~10k videos across topics); tests use smaller values.
    pub scale: f64,
    /// Ratio of eligible (generated) to returned videos; the headroom the
    /// sampler suppresses. The paper's pool sizes imply the true ratio is
    /// enormous; 4× suffices to reproduce every observable.
    pub eligible_factor: f64,
    /// Fraction of videos deleted at a uniformly random instant during the
    /// 12-week audit period.
    pub deletion_rate: f64,
    /// Start of the audit period (deletions happen after this).
    pub audit_start: Timestamp,
    /// Length of the audit period in days.
    pub audit_days: i64,
    /// Hard cap on generated comments per video (memory guard).
    pub max_comments_per_video: usize,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            seed: 0x59_54_41_55_44_49_54, // "YTAUDIT"
            scale: 1.0,
            eligible_factor: 4.0,
            deletion_rate: 0.015,
            // The paper's collection period: 2025-02-09 … 2025-04-30.
            audit_start: Timestamp::from_ymd_const(2025, 2, 9),
            audit_days: 81,
            max_comments_per_video: 18,
        }
    }
}

/// The generated ground truth for one topic.
#[derive(Debug, Clone)]
pub struct TopicCorpus {
    /// The topic.
    pub topic: Topic,
    /// Videos uploaded in the topic's 28-day window, sorted by
    /// `published_at` ascending.
    pub videos: Vec<Video>,
    /// Index range of this topic's channels in the shared channel table.
    pub channel_range: std::ops::Range<usize>,
}

/// The full generated platform state.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Configuration used to generate it.
    pub config: CorpusConfig,
    /// All channels across topics.
    pub channels: Vec<Channel>,
    /// Per-topic video sets.
    pub topics: Vec<TopicCorpus>,
    /// All comments, grouped by video elsewhere (see `Platform`).
    pub comments: Vec<Comment>,
}

impl Corpus {
    /// Generates the full corpus for all six topics.
    pub fn generate(config: CorpusConfig) -> Corpus {
        let mut channels = Vec::new();
        let mut topics = Vec::new();
        let mut comments = Vec::new();
        for (topic_idx, topic) in Topic::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(config.seed ^ (0xA11CE << 8) ^ (topic_idx as u64));
            let topic_corpus =
                generate_topic(topic, &config, &mut rng, &mut channels, &mut comments);
            topics.push(topic_corpus);
        }
        Corpus {
            config,
            channels,
            topics,
            comments,
        }
    }

    /// Total number of videos across topics.
    pub fn video_count(&self) -> usize {
        self.topics.iter().map(|t| t.videos.len()).sum()
    }
}

/// Draws a log-normal value `exp(N(mu, sigma))`.
fn log_normal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    // Box–Muller from two uniforms (rand's StandardNormal lives in
    // rand_distr, which we avoid pulling in).
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * z).exp()
}

/// Standard normal draw.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn generate_topic(
    topic: Topic,
    config: &CorpusConfig,
    rng: &mut StdRng,
    channels: &mut Vec<Channel>,
    comments: &mut Vec<Comment>,
) -> TopicCorpus {
    let spec = topic.spec();
    let density = InterestDensity::for_topic(&spec);
    let n_videos =
        ((spec.returned_target * config.eligible_factor * config.scale).round() as usize).max(24);
    let n_channels = (n_videos / 3).max(8);

    // --- Channels ---
    let channel_base = channels.len();
    let topic_tag = topic.key();
    for i in 0..n_channels {
        let global_idx = (channel_base + i) as u64;
        let id = ChannelId::mint(config.seed, global_idx);
        // Channel age: created 0.5–14 years before the focal date.
        let age_days = rng.gen_range(180.0..5_100.0);
        let published_at = spec.focal_date.add_days(-(age_days as i64));
        // Views log-normal over ~5 orders of magnitude.
        let log_views = 11.0 + 2.3 * normal(rng);
        let views = log_views.exp().max(10.0) as u64;
        // Subscribers nearly collinear with views in logs (r ≈ 0.97):
        // log subs = 0.92·log views − 4 + small noise.
        let log_subs = 0.92 * log_views - 4.0 + 0.45 * normal(rng);
        let subscribers = log_subs.exp().max(1.0) as u64;
        let video_count = log_normal(rng, 4.6, 1.1).max(1.0) as u64;
        channels.push(Channel {
            id,
            title: format!("{topic_tag} creator {i}"),
            published_at,
            stats: ChannelStats {
                views,
                subscribers,
                video_count,
            },
        });
    }
    let channel_range = channel_base..channels.len();

    // --- Videos ---
    // Cumulative density for weighted hour sampling.
    let weights = density.weights();
    let total_weight: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cumulative.push(acc);
    }

    let base_tokens = spec.query_tokens();
    // Subtopic assignment probabilities decay with rank so queries can be
    // made progressively more restrictive (§6.1 experiment).
    let subtopic_probs: Vec<f64> = (0..spec.subtopics.len())
        .map(|rank| 0.30 / (1.0 + rank as f64 * 0.45))
        .collect();

    let video_base_index: u64 = (topic.index() as u64) << 32;
    let mut videos = Vec::with_capacity(n_videos);
    for i in 0..n_videos {
        let id = VideoId::mint(config.seed, video_base_index + i as u64);
        // Weighted hour, uniform offset within the hour.
        let pick: f64 = rng.gen_range(0.0..total_weight);
        let hour_idx = match cumulative.binary_search_by(|c| c.total_cmp(&pick)) {
            Ok(idx) => idx,
            Err(idx) => idx,
        }
        .min(weights.len() - 1);
        let published_at = density.hour_start(hour_idx) + rng.gen_range(0..3_600i64);

        let channel_idx = rng.gen_range(channel_range.start..channel_range.end);
        let channel_id = channels[channel_idx].id.clone();

        // Engagement: one latent popularity factor drives views; likes and
        // comments follow in logs with small independent noise, which is
        // what produces the r ≈ 0.9 collinearity the paper reports.
        let log_views = 8.0 + 2.1 * normal(rng);
        let views = log_views.exp().max(1.0) as u64;
        let log_likes = log_views - 3.5 + 0.45 * normal(rng);
        let likes = log_likes.exp().max(0.0) as u64;
        let log_comments = log_views - 5.2 + 0.55 * normal(rng);
        let n_comments_stat = log_comments.exp().max(0.0) as u64;

        // Duration: log-normal around ~5 minutes, with a shorts-heavy
        // lower tail.
        let duration_secs = if rng.gen_bool(0.18) {
            rng.gen_range(15.0..60.0) // shorts
        } else {
            log_normal(rng, 5.8, 0.9).clamp(45.0, 4.0 * 3_600.0)
        };
        let definition = if rng.gen_bool(0.8) {
            Definition::Hd
        } else {
            Definition::Sd
        };

        // Searchable terms: the topic's base tokens plus a sample of
        // subtopic phrases.
        let mut terms = base_tokens.clone();
        for (rank, phrase) in spec.subtopics.iter().enumerate() {
            if rng.gen_bool(subtopic_probs[rank]) {
                for token in tokenize(phrase) {
                    if !terms.contains(&token) {
                        terms.push(token);
                    }
                }
            }
        }

        let deleted_at = if rng.gen_bool(config.deletion_rate) {
            let offset = rng.gen_range(0..config.audit_days.max(1));
            Some(config.audit_start.add_days(offset) + rng.gen_range(0..DAY))
        } else {
            None
        };

        videos.push(Video {
            id,
            channel_id,
            title: format!("{} video {}", spec.query, i),
            description: format!(
                "Synthetic {} footage uploaded for the audit corpus",
                spec.query
            ),
            terms,
            published_at,
            duration: IsoDuration::from_secs(duration_secs as u64),
            definition,
            stats: VideoStats {
                views,
                likes,
                comments: n_comments_stat,
            },
            deleted_at,
        });
    }
    videos.sort_by_key(|v| v.published_at);

    // --- Comments ---
    for video in &videos {
        let target = (2.0 + (video.stats.comments as f64).sqrt() * 0.6) as usize;
        let n_top_level = target.min(config.max_comments_per_video);
        for c in 0..n_top_level {
            let comment_seed_index =
                (video_base_index << 8) ^ (hash_id(&video.id) & 0xFFFF_FFFF) ^ (c as u64) << 40;
            let id = CommentId::mint_top_level(config.seed, comment_seed_index);
            let author_idx = rng.gen_range(channel_range.start..channel_range.end);
            let published_at = video.published_at + rng.gen_range(60..21 * DAY);
            let like_count = log_normal(rng, 0.5, 1.2) as u64;
            comments.push(Comment {
                id: id.clone(),
                video_id: video.id.clone(),
                author_channel_id: channels[author_idx].id.clone(),
                text: format!("comment {c} on {}", video.title),
                published_at,
                like_count,
            });
            // Replies: up to 5 nested comments per thread, except for
            // topics predating the reply affordance (Higgs, 2012).
            if spec.nested_comments && rng.gen_bool(0.35) {
                let n_replies = rng.gen_range(1..=5usize);
                for r in 0..n_replies {
                    let reply_author = rng.gen_range(channel_range.start..channel_range.end);
                    comments.push(Comment {
                        id: id.mint_reply(r as u64),
                        video_id: video.id.clone(),
                        author_channel_id: channels[reply_author].id.clone(),
                        text: format!("reply {r} to comment {c}"),
                        published_at: published_at + rng.gen_range(60..3 * DAY),
                        like_count: log_normal(rng, 0.0, 1.0) as u64,
                    });
                }
            }
        }
    }

    TopicCorpus {
        topic,
        videos,
        channel_range,
    }
}

/// Cheap stable hash of an ID string.
fn hash_id(id: &VideoId) -> u64 {
    crate::hash::hash_bytes(id.as_str().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            scale: 0.25,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(CorpusConfig {
            scale: 0.1,
            ..CorpusConfig::default()
        });
        let b = Corpus::generate(CorpusConfig {
            scale: 0.1,
            ..CorpusConfig::default()
        });
        assert_eq!(a.video_count(), b.video_count());
        assert_eq!(a.topics[0].videos, b.topics[0].videos);
        assert_eq!(a.channels, b.channels);
        assert_eq!(a.comments.len(), b.comments.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusConfig {
            scale: 0.1,
            seed: 1,
            ..CorpusConfig::default()
        });
        let b = Corpus::generate(CorpusConfig {
            scale: 0.1,
            seed: 2,
            ..CorpusConfig::default()
        });
        assert_ne!(a.topics[0].videos, b.topics[0].videos);
    }

    #[test]
    fn every_topic_has_a_corpus_inside_its_window() {
        let corpus = small_corpus();
        assert_eq!(corpus.topics.len(), 6);
        for tc in &corpus.topics {
            assert!(!tc.videos.is_empty(), "{}", tc.topic);
            let start = tc.topic.window_start();
            let end = tc.topic.window_end();
            for v in &tc.videos {
                assert!(
                    v.published_at >= start && v.published_at < end,
                    "{}",
                    tc.topic
                );
            }
            // Sorted by upload time.
            assert!(tc
                .videos
                .windows(2)
                .all(|w| w[0].published_at <= w[1].published_at));
        }
    }

    #[test]
    fn corpus_size_scales_with_eligible_factor() {
        let corpus = small_corpus();
        for tc in &corpus.topics {
            let spec = tc.topic.spec();
            let expected = spec.returned_target * 4.0 * 0.25;
            let actual = tc.videos.len() as f64;
            assert!(
                (actual - expected).abs() / expected < 0.05,
                "{}: {actual} vs {expected}",
                tc.topic
            );
        }
    }

    #[test]
    fn videos_match_their_topic_query() {
        let corpus = small_corpus();
        for tc in &corpus.topics {
            let tokens = tc.topic.spec().query_tokens();
            for v in &tc.videos {
                assert!(v.matches_tokens(&tokens), "{}: {:?}", tc.topic, v.terms);
            }
        }
    }

    #[test]
    fn engagement_is_log_correlated() {
        let corpus = Corpus::generate(CorpusConfig::default());
        let mut log_views = Vec::new();
        let mut log_likes = Vec::new();
        let mut log_comments = Vec::new();
        for tc in &corpus.topics {
            for v in &tc.videos {
                log_views.push((v.stats.views as f64).ln_1p());
                log_likes.push((v.stats.likes as f64).ln_1p());
                log_comments.push((v.stats.comments as f64).ln_1p());
            }
        }
        let r_vl = ytaudit_stats_free_pearson(&log_views, &log_likes);
        let r_vc = ytaudit_stats_free_pearson(&log_views, &log_comments);
        assert!(r_vl > 0.85, "views-likes log r = {r_vl}");
        assert!(r_vc > 0.80, "views-comments log r = {r_vc}");
    }

    #[test]
    fn channel_views_and_subs_nearly_collinear() {
        let corpus = Corpus::generate(CorpusConfig::default());
        let lv: Vec<f64> = corpus
            .channels
            .iter()
            .map(|c| (c.stats.views as f64).ln_1p())
            .collect();
        let ls: Vec<f64> = corpus
            .channels
            .iter()
            .map(|c| (c.stats.subscribers as f64).ln_1p())
            .collect();
        let r = ytaudit_stats_free_pearson(&lv, &ls);
        assert!(r > 0.95, "channel views-subs log r = {r}");
    }

    #[test]
    fn deletion_rate_is_respected() {
        let corpus = Corpus::generate(CorpusConfig::default());
        let total = corpus.video_count();
        let deleted = corpus
            .topics
            .iter()
            .flat_map(|t| &t.videos)
            .filter(|v| v.deleted_at.is_some())
            .count();
        let rate = deleted as f64 / total as f64;
        assert!(rate > 0.005 && rate < 0.03, "deletion rate {rate}");
        // Deletions all fall inside the audit period.
        let start = corpus.config.audit_start;
        let end = start.add_days(corpus.config.audit_days + 1);
        for tc in &corpus.topics {
            for v in &tc.videos {
                if let Some(d) = v.deleted_at {
                    assert!(d >= start && d < end);
                }
            }
        }
    }

    #[test]
    fn higgs_has_no_reply_comments() {
        let corpus = small_corpus();
        let higgs_videos: std::collections::HashSet<_> = corpus
            .topics
            .iter()
            .find(|t| t.topic == Topic::Higgs)
            .unwrap()
            .videos
            .iter()
            .map(|v| v.id.clone())
            .collect();
        let mut higgs_comments = 0;
        for c in &corpus.comments {
            if higgs_videos.contains(&c.video_id) {
                higgs_comments += 1;
                assert!(!c.is_reply(), "Higgs must not have nested comments");
            }
        }
        assert!(higgs_comments > 0);
        // But other topics do have replies.
        assert!(corpus.comments.iter().any(Comment::is_reply));
    }

    #[test]
    fn uploads_concentrate_near_the_focal_date() {
        let corpus = Corpus::generate(CorpusConfig::default());
        for tc in &corpus.topics {
            let spec = tc.topic.spec();
            let peak_window_start = spec.focal_date.add_days(spec.peak_offset_days as i64 - 2);
            let peak_window_end = spec.focal_date.add_days(spec.peak_offset_days as i64 + 3);
            let in_peak = tc
                .videos
                .iter()
                .filter(|v| v.published_at >= peak_window_start && v.published_at < peak_window_end)
                .count() as f64;
            let share = in_peak / tc.videos.len() as f64;
            let uniform_share = 5.0 / 28.0;
            // Peak days hold more than their uniform share for burst
            // topics; World Cup is broad so just require non-degeneracy.
            if tc.topic != Topic::WorldCup {
                assert!(share > uniform_share, "{}: share {share}", tc.topic);
            } else {
                assert!(share > 0.05, "{}: share {share}", tc.topic);
            }
        }
    }

    #[test]
    fn comment_ids_are_unique() {
        let corpus = small_corpus();
        let ids: std::collections::HashSet<_> = corpus.comments.iter().map(|c| &c.id).collect();
        assert_eq!(ids.len(), corpus.comments.len());
    }

    /// Tiny local Pearson (avoids a dev-dependency cycle on ytaudit-stats).
    fn ytaudit_stats_free_pearson(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len() as f64;
        let mx = x.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (a, b) in x.iter().zip(y) {
            sxy += (a - mx) * (b - my);
            sxx += (a - mx) * (a - mx);
            syy += (b - my) * (b - my);
        }
        sxy / (sxx * syy).sqrt()
    }
}
