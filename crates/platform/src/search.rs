//! The hidden search sampler — the mechanism the paper infers and this
//! reproduction encodes, then re-derives through the audit.
//!
//! For a historical keyword query the sampler:
//!
//! 1. estimates the platform-wide matching pool (`totalResults`), noisily,
//!    capped at 1,000,000, *ignoring the query's time filters* (§5);
//! 2. allocates a per-hour return budget proportional to the topic's
//!    interest density, normalized so a full 28-day collection returns a
//!    roughly fixed total regardless of pool size (Tables 1 vs 4);
//! 3. gates hours whose relative density is too low — zero returns even
//!    though eligible videos exist (§4.2);
//! 4. scores each eligible video with a smooth time-varying key blending a
//!    static hash (weight = the topic's `stability`) with layered value
//!    noise, exponent-weighted by a popularity propensity (shorter, more-
//!    liked videos from high-view/low-subscriber channels score higher —
//!    Table 3's coefficient signs);
//! 5. returns the videos whose keys clear a per-hour threshold chosen so
//!    the expected count matches the budget, ordered per the request.
//!
//! Narrower queries shrink the estimated pool, which *raises* the
//! effective stability — the mechanism behind the paper's §6.1 advice to
//! split topics rather than time frames.

use crate::corpus::Corpus;
use crate::density::InterestDensity;
use crate::hash::{hash_bytes, layered_noise, mix_all, unit_f64, unit_normal, value_noise};
use ytaudit_types::{Channel, ChannelId, Timestamp, Topic, Video, VideoId};

/// The `order` parameter of `Search: list`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOrder {
    /// Reverse chronological (`order=date`) — the audit's choice, because
    /// upload time is immutable.
    #[default]
    Date,
    /// Relevance (the API default) — popularity-flavoured and mutable.
    Relevance,
    /// Descending view count.
    ViewCount,
}

/// A parsed search request as the sampler sees it.
#[derive(Debug, Clone, Default)]
pub struct SearchParams {
    /// Lowercased query tokens (AND semantics). Empty means "no keyword
    /// filter" (used with `channel_id`).
    pub tokens: Vec<String>,
    /// `publishedAfter` bound (inclusive).
    pub published_after: Option<Timestamp>,
    /// `publishedBefore` bound (exclusive).
    pub published_before: Option<Timestamp>,
    /// Restrict to one channel's uploads.
    pub channel_id: Option<ChannelId>,
    /// Result ordering.
    pub order: SearchOrder,
}

/// What the sampler returns for one query.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Ordered video IDs (already capped at the API's 500-per-query
    /// maximum).
    pub video_ids: Vec<VideoId>,
    /// The noisy `pageInfo.totalResults` pool estimate.
    pub total_results: u64,
}

/// The API's hard cap on results per query (50 per page × 10 pages).
pub const MAX_RESULTS_PER_QUERY: usize = 500;

/// The documented cap on `pageInfo.totalResults`.
pub const TOTAL_RESULTS_CAP: u64 = 1_000_000;

/// Every tunable of the hidden sampler, exposed so ablation experiments
/// can switch individual mechanisms off and observe which of the paper's
/// signatures disappears (see the `ablation` bench binary).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Relative-density gate: hours below this fraction of the topic's
    /// mean density return nothing. 0.0 disables gating.
    pub gate_fraction: f64,
    /// Propensity weight of (log) like count (+ in Table 3).
    pub propensity_likes: f64,
    /// Propensity weight of (log) duration (− in Table 3).
    pub propensity_duration: f64,
    /// Propensity weight of (log) channel views (+ in Table 3).
    pub propensity_channel_views: f64,
    /// Propensity weight of (log) channel subscribers (− in Table 3).
    pub propensity_channel_subs: f64,
    /// How strongly propensity shifts the inclusion key (additive, in key
    /// units). Kept small: the paper's regression explains only
    /// pseudo-R² ≈ 0.08 of the variance. 0.0 removes popularity bias.
    pub propensity_gain: f64,
    /// Knot spacing (days) of the fast noise layer.
    pub noise_fast_days: f64,
    /// Knot spacing (days) of the slow noise layer.
    pub noise_slow_days: f64,
    /// Weight of the fast layer within the noise blend.
    pub noise_fast_weight: f64,
    /// Overrides every topic's stability when set (1.0 freezes the
    /// sampler completely; 0.0 maximizes churn).
    pub stability_override: Option<f64>,
    /// Multiplier compensating bins whose eligible set runs out.
    pub budget_boost: f64,
    /// Optional planted seasonality: each video's inclusion key gains a
    /// sinusoid of this period and amplitude (with a per-video phase).
    /// Used to validate the §6.2 periodicity detector against ground
    /// truth; the calibrated sampler is aperiodic (`None`).
    pub seasonal: Option<SeasonalConfig>,
}

/// Planted periodicity parameters (see [`SamplerConfig::seasonal`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalConfig {
    /// Period of the planted cycle, in days.
    pub period_days: f64,
    /// Amplitude of the key shift (key units; 0.05–0.15 is visible).
    pub amplitude: f64,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            gate_fraction: 0.22,
            propensity_likes: 0.60,
            propensity_duration: -0.30,
            propensity_channel_views: 0.85,
            propensity_channel_subs: -0.95,
            propensity_gain: 0.085,
            noise_fast_days: 25.0,
            noise_slow_days: 90.0,
            noise_fast_weight: 0.45,
            stability_override: None,
            budget_boost: 1.04,
            seasonal: None,
        }
    }
}

impl SamplerConfig {
    /// Ablation: no relative-density gating.
    pub fn without_gating(mut self) -> SamplerConfig {
        self.gate_fraction = 0.0;
        self
    }

    /// Ablation: no popularity bias.
    pub fn without_propensity(mut self) -> SamplerConfig {
        self.propensity_gain = 0.0;
        self
    }

    /// Ablation: a fully deterministic sampler (no rolling window).
    pub fn frozen(mut self) -> SamplerConfig {
        self.stability_override = Some(1.0);
        self
    }

    /// Plants a seasonal cycle of `period_days` with key-shift
    /// `amplitude` (for validating the periodicity detector).
    pub fn with_seasonality(mut self, period_days: f64, amplitude: f64) -> SamplerConfig {
        self.seasonal = Some(SeasonalConfig {
            period_days,
            amplitude,
        });
        self
    }

    /// Ablation: a memoryless sampler — no static component *and* noise
    /// whose correlation time (2.5-day knots) is shorter than the 5-day
    /// collection interval, so successive snapshots draw essentially
    /// independent samples.
    pub fn memoryless(mut self) -> SamplerConfig {
        self.stability_override = Some(0.0);
        self.noise_fast_days = 2.5;
        self.noise_fast_weight = 1.0;
        self
    }
}

/// The engine owning the per-topic densities and sampler state.
pub struct SearchEngine {
    seed: u64,
    config: SamplerConfig,
    densities: Vec<InterestDensity>, // parallel to Topic::ALL
}

impl SearchEngine {
    /// Builds the engine for a corpus with the calibrated default sampler.
    pub fn new(corpus: &Corpus) -> SearchEngine {
        SearchEngine::with_config(corpus, SamplerConfig::default())
    }

    /// Builds the engine with an explicit sampler configuration.
    pub fn with_config(corpus: &Corpus, config: SamplerConfig) -> SearchEngine {
        SearchEngine {
            seed: corpus.config.seed,
            config,
            densities: Topic::ALL
                .iter()
                .map(|t| InterestDensity::for_topic(&t.spec()))
                .collect(),
        }
    }

    /// The active sampler configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Density for a topic.
    pub fn density(&self, topic: Topic) -> &InterestDensity {
        &self.densities[topic.index()]
    }

    /// Detects which audit topic a token set belongs to: the topic whose
    /// full query-token set is contained in the video-side match. Returns
    /// `None` for queries that don't embed a known topic query.
    pub fn detect_topic(tokens: &[String]) -> Option<Topic> {
        Topic::ALL.into_iter().find(|t| {
            t.spec()
                .query_tokens()
                .iter()
                .all(|qt| tokens.iter().any(|t2| t2 == qt))
        })
    }

    /// The noisy pool estimate for a query. `match_fraction` is the share
    /// of the topic's corpus the (possibly narrowed) query matches.
    pub fn pool_estimate(
        &self,
        topic: Topic,
        match_fraction: f64,
        request_time: Timestamp,
        query_key: u64,
    ) -> u64 {
        let spec = topic.spec();
        let base = spec.pool_size as f64 * match_fraction.clamp(0.0, 1.0);
        // Noise varies per (query, request day, query hour) — successive
        // hourly queries in one collection see different estimates, giving
        // Table 4 its min/max spread.
        let h = mix_all(&[
            self.seed,
            query_key,
            request_time.floor_day().as_secs() as u64,
            0x706F_6F6C,
        ]);
        // Lognormal wobble with a smoothly compressed upside (a hard
        // clamp would pile an atom at the cap and corrupt the mode), plus
        // a rare deep under-estimate "glitch" — Table 4's minima sit far
        // below the mean (Grammys' min is 8.5% of its mean) while maxima
        // stay within ~1.6× of it.
        let raw = unit_normal(h);
        let compressed = if raw > 0.0 {
            1.6 * (raw / 1.6).tanh()
        } else {
            raw
        };
        let mut noise = (0.30 * compressed - 0.045).exp();
        let glitch = unit_f64(mix_all(&[h, 0x61_71C4]));
        if glitch < 0.01 {
            // Depth scales with pool size: small pools glitch to ~10% of
            // their mean (Grammys min = 8.5% of mean, Higgs 14%), large
            // pools only to ~50–60% (BLM min = 69%, Capitol 53%).
            let depth = (0.08 + 0.5 * (base / 1.2e6)).min(0.6);
            noise *= depth * (0.8 + 0.4 * unit_f64(mix_all(&[h, 0xD1])));
        }
        ((base * noise).round() as u64).clamp(100, TOTAL_RESULTS_CAP)
    }

    /// Effective stability: narrower queries (smaller pool fraction) are
    /// more deterministic — the §6.1 strategy lever.
    fn effective_stability(base: f64, match_fraction: f64) -> f64 {
        let frac = match_fraction.clamp(1e-6, 1.0);
        1.0 - (1.0 - base) * frac.powf(0.4)
    }

    /// The popularity propensity of a video: a log-scale z-composite with
    /// the coefficient signs of Table 3. Normalization constants match the
    /// corpus generator's distributions.
    pub fn propensity(&self, video: &Video, channel: &Channel) -> f64 {
        let z_likes = ((video.stats.likes as f64).ln_1p() - 4.5) / 2.15;
        let z_duration = ((video.duration.as_secs() as f64).ln_1p() - 5.6) / 1.1;
        let z_ch_views = ((channel.stats.views as f64).ln_1p() - 11.0) / 2.3;
        let z_ch_subs = ((channel.stats.subscribers as f64).ln_1p() - 6.1) / 2.2;
        self.config.propensity_likes * z_likes
            + self.config.propensity_duration * z_duration
            + self.config.propensity_channel_views * z_ch_views
            + self.config.propensity_channel_subs * z_ch_subs
    }

    /// The smooth time-varying inclusion key of a video at `request_time`.
    ///
    /// `stability` weights the static hash; the remainder is two-scale
    /// value noise (25-day and 90-day knots) so set similarity decays for
    /// months (Figure 1) while adjacent snapshots stay close (Figure 3).
    pub fn inclusion_key(
        &self,
        video_hash: u64,
        stability: f64,
        propensity: f64,
        request_time: Timestamp,
    ) -> f64 {
        let static_part = unit_f64(mix_all(&[self.seed, video_hash, 0x5354_4154]));
        let noise_part = layered_noise(
            self.seed,
            video_hash,
            request_time,
            self.config.noise_fast_days,
            self.config.noise_slow_days,
            self.config.noise_fast_weight,
        );
        let mut u = stability * static_part + (1.0 - stability) * noise_part;
        if let Some(seasonal) = self.config.seasonal {
            let phase =
                unit_f64(mix_all(&[self.seed, video_hash, 0x5345_4153])) * std::f64::consts::TAU;
            let angle = std::f64::consts::TAU * request_time.as_secs() as f64
                / (seasonal.period_days * 86_400.0)
                + phase;
            u += seasonal.amplitude * angle.sin();
        }
        // A *mild* additive popularity edge. The paper's regression has a
        // pseudo-R² of only 0.079: popularity tilts the sampler, it does
        // not dominate it. A small additive shift in key space gives the
        // Table-3 coefficient signs without freezing the per-bin ranking.
        u + self.config.propensity_gain * propensity.clamp(-3.0, 3.0)
    }

    /// Runs a query. `lookup` resolves a video's channel; `videos` is the
    /// pre-filtered eligible slice (matching tokens, channel, time range,
    /// and visible at `request_time`), and `match_fraction` the share of
    /// the topic corpus the token filter keeps.
    pub fn run<'c>(
        &self,
        topic: Option<Topic>,
        params: &SearchParams,
        eligible: &[&Video],
        channel_of: impl Fn(&Video) -> Option<&'c Channel>,
        match_fraction: f64,
        request_time: Timestamp,
    ) -> SearchOutcome {
        let query_key = query_hash(params);
        let Some(topic) = topic else {
            // Unknown topic: no density model — return the (small) exact
            // match set deterministically, newest first. totalResults is
            // just the match count.
            let mut ids: Vec<(&&Video, Timestamp)> =
                eligible.iter().map(|v| (v, v.published_at)).collect();
            ids.sort_by_key(|(v, t)| (std::cmp::Reverse(*t), v.id.clone()));
            return SearchOutcome {
                video_ids: ids
                    .into_iter()
                    .take(MAX_RESULTS_PER_QUERY)
                    .map(|(v, _)| v.id.clone())
                    .collect(),
                total_results: eligible.len() as u64,
            };
        };

        let spec = topic.spec();
        let density = self.density(topic);
        let base_stability = self.config.stability_override.unwrap_or(spec.stability);
        let stability = Self::effective_stability(base_stability, match_fraction);
        let total_results = self.pool_estimate(topic, match_fraction, request_time, query_key);

        // Group eligible videos by hour bin and apply the budgeted,
        // propensity-weighted threshold per bin.
        let mut selected: Vec<&Video> = Vec::new();
        let mut bins: std::collections::BTreeMap<i64, Vec<&Video>> =
            std::collections::BTreeMap::new();
        let window_start = topic.window_start();
        for &video in eligible {
            bins.entry(video.published_at.hours_since(window_start))
                .or_default()
                .push(video);
        }
        let open_mass = density.open_mass(self.config.gate_fraction).max(1.0);
        // Per-(topic, collection-day) budget wobble, shared by every
        // hourly query of one collection so snapshot totals vary
        // collectively (Table 1's per-collection std ≈ 2–4% of the mean).
        // Stable topics wobble less.
        let day_hash = mix_all(&[
            self.seed,
            hash_bytes(spec.topic.key().as_bytes()),
            request_time.floor_day().as_secs() as u64,
            0x54_4F54,
        ]);
        let day_sigma = 0.012 + 0.04 * (1.0 - stability);
        let day_factor = (day_sigma * unit_normal(day_hash)).exp();
        let channel_scoped = params.channel_id.is_some();
        for (bin, videos_in_bin) in bins {
            if bin < 0 || bin as usize >= density.len() {
                continue;
            }
            let weight = density.weight(bin as usize);
            if !channel_scoped && weight < self.config.gate_fraction {
                continue; // forced zero: relative density too low
            }
            // Budget ∝ density over the *open* (non-gated) mass, so the
            // per-collection total tracks the topic target; the 1.04
            // factor compensates bins whose eligible set runs out.
            // `match_fraction` scales it down for narrowed queries.
            //
            // Channel-scoped searches differ: the pool is the channel's
            // own catalogue, and the endpoint returns *most* of it while
            // still churning membership over time — incomplete and
            // unstable (§6.1's warning), but never degenerate.
            let budget = if channel_scoped {
                0.75 * videos_in_bin.len() as f64
            } else {
                self.config.budget_boost * day_factor * spec.returned_target * weight / open_mass
                    * match_fraction
            };
            // Stochastic rounding of the fractional budget. The rounding
            // uniform is *value noise in the request date* (35-day knots),
            // so an hour's quota of, say, 0.7 rounds to 1 for a stretch of
            // weeks and to 0 for another stretch — temporally coherent
            // drop-in/drop-out at the bin level, and the source of
            // Table 1's per-collection spread.
            let round_entity = mix_all(&[query_key, bin as u64, 0x6B72_6E64]);
            let round_static = unit_f64(mix_all(&[self.seed, round_entity, 0x5253]));
            let round_noise = value_noise(self.seed ^ 0x42_4E, round_entity, request_time, 35.0);
            // Stability-weighted like the inclusion keys: a stable topic's
            // per-hour quotas are frozen, an unstable one's drift. The
            // blend is bell-shaped, so push it through an approximate
            // probability-integral transform to make the rounding draw
            // uniform — otherwise small fractional budgets under-round and
            // quiet hours starve even without the gate.
            let round_blend = stability * round_static + (1.0 - stability) * round_noise;
            let blend_sd = (stability * stability / 12.0
                + (1.0 - stability) * (1.0 - stability) * 0.0281)
                .sqrt()
                .max(1e-6);
            // Logistic approximation to the normal CDF (|err| < 0.01).
            let round_u = 1.0 / (1.0 + (-1.702 * (round_blend - 0.5) / blend_sd).exp());
            let k = budget.floor() as usize + usize::from(round_u < budget.fract());
            if k == 0 {
                continue;
            }
            // Key every video in the bin and keep the top k — an
            // Efraimidis–Spirakis weighted sample whose membership drifts
            // smoothly with the request date.
            let mut keyed: Vec<(f64, &Video)> = videos_in_bin
                .iter()
                .map(|&v| {
                    let vh = hash_bytes(v.id.as_str().as_bytes());
                    let prop = channel_of(v).map(|c| self.propensity(v, c)).unwrap_or(0.0);
                    (self.inclusion_key(vh, stability, prop, request_time), v)
                })
                .collect();
            keyed.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.id.cmp(&b.1.id))
            });
            for (_, v) in keyed.into_iter().take(k) {
                selected.push(v);
            }
        }

        // Order and cap.
        match params.order {
            SearchOrder::Date => {
                selected.sort_by(|a, b| {
                    b.published_at
                        .cmp(&a.published_at)
                        .then_with(|| a.id.cmp(&b.id))
                });
            }
            SearchOrder::ViewCount => {
                selected.sort_by(|a, b| {
                    b.stats
                        .views
                        .cmp(&a.stats.views)
                        .then_with(|| a.id.cmp(&b.id))
                });
            }
            SearchOrder::Relevance => {
                // Relevance ≈ propensity with a deterministic tiebreak.
                selected.sort_by(|a, b| {
                    let pa = channel_of(a).map(|c| self.propensity(a, c)).unwrap_or(0.0);
                    let pb = channel_of(b).map(|c| self.propensity(b, c)).unwrap_or(0.0);
                    pb.partial_cmp(&pa)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.id.cmp(&b.id))
                });
            }
        }
        selected.truncate(MAX_RESULTS_PER_QUERY);
        SearchOutcome {
            video_ids: selected.iter().map(|v| v.id.clone()).collect(),
            total_results,
        }
    }
}

/// Stable hash of the query parameters that define a "logical query" for
/// noise-keying purposes (tokens + channel + time bounds).
pub fn query_hash(params: &SearchParams) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for token in &params.tokens {
        words.push(hash_bytes(token.as_bytes()));
    }
    if let Some(ch) = &params.channel_id {
        words.push(hash_bytes(ch.as_str().as_bytes()));
    }
    words.push(
        params
            .published_after
            .map(|t| t.as_secs() as u64)
            .unwrap_or(u64::MAX),
    );
    words.push(
        params
            .published_before
            .map(|t| t.as_secs() as u64)
            .unwrap_or(u64::MAX - 1),
    );
    mix_all(&words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    fn engine_and_corpus() -> (SearchEngine, Corpus) {
        let corpus = Corpus::generate(CorpusConfig {
            scale: 0.5,
            ..CorpusConfig::default()
        });
        let engine = SearchEngine::new(&corpus);
        (engine, corpus)
    }

    #[test]
    fn detect_topic_from_tokens() {
        let tokens = |s: &str| ytaudit_types::topic::tokenize(s);
        assert_eq!(
            SearchEngine::detect_topic(&tokens("higgs boson")),
            Some(Topic::Higgs)
        );
        assert_eq!(
            SearchEngine::detect_topic(&tokens("higgs boson cern")),
            Some(Topic::Higgs)
        );
        assert_eq!(
            SearchEngine::detect_topic(&tokens("fifa world cup brazil")),
            Some(Topic::WorldCup)
        );
        assert_eq!(SearchEngine::detect_topic(&tokens("cooking pasta")), None);
        // Partial topic queries don't match.
        assert_eq!(SearchEngine::detect_topic(&tokens("higgs")), None);
    }

    #[test]
    fn pool_estimate_respects_cap_and_scales() {
        let (engine, _corpus) = engine_and_corpus();
        let t = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let full = engine.pool_estimate(Topic::WorldCup, 1.0, t, 1);
        assert!(full <= TOTAL_RESULTS_CAP);
        let narrow = engine.pool_estimate(Topic::WorldCup, 0.05, t, 1);
        assert!(narrow < full);
        // Higgs pool is tens of thousands.
        let higgs = engine.pool_estimate(Topic::Higgs, 1.0, t, 1);
        assert!(higgs < 100_000, "higgs pool {higgs}");
        // Deterministic per (query, day); varies across days for topics
        // below the 1M cap (capped topics may pin at the cap both days).
        assert_eq!(
            engine.pool_estimate(Topic::Blm, 1.0, t, 7),
            engine.pool_estimate(Topic::Blm, 1.0, t, 7)
        );
        assert_ne!(
            engine.pool_estimate(Topic::Brexit, 1.0, t, 7),
            engine.pool_estimate(Topic::Brexit, 1.0, t.add_days(5), 7)
        );
    }

    #[test]
    fn effective_stability_rises_for_narrow_queries() {
        let base = 0.5;
        let full = SearchEngine::effective_stability(base, 1.0);
        let narrow = SearchEngine::effective_stability(base, 0.1);
        let tiny = SearchEngine::effective_stability(base, 0.01);
        assert!((full - base).abs() < 1e-12);
        assert!(narrow > full);
        assert!(tiny > narrow);
        assert!(tiny < 1.0);
    }

    #[test]
    fn propensity_signs_match_table_3() {
        let (engine, corpus) = engine_and_corpus();
        let video = corpus.topics[0].videos[0].clone();
        let channel = corpus.channels[0].clone();
        let base = engine.propensity(&video, &channel);
        // More likes ⇒ higher propensity.
        let mut liked = video.clone();
        liked.stats.likes = video.stats.likes * 100 + 1_000;
        assert!(engine.propensity(&liked, &channel) > base);
        // Longer ⇒ lower propensity.
        let mut long = video.clone();
        long.duration =
            ytaudit_types::IsoDuration::from_secs(video.duration.as_secs() * 20 + 7_200);
        assert!(engine.propensity(&long, &channel) < base);
        // More channel views ⇒ higher; more subscribers ⇒ lower.
        let mut big_views = channel.clone();
        big_views.stats.views = channel.stats.views * 50 + 1_000_000;
        assert!(engine.propensity(&video, &big_views) > base);
        let mut big_subs = channel.clone();
        big_subs.stats.subscribers = channel.stats.subscribers * 50 + 1_000_000;
        assert!(engine.propensity(&video, &big_subs) < base);
    }

    #[test]
    fn ablation_configs_change_the_mechanism() {
        let corpus = Corpus::generate(crate::corpus::CorpusConfig {
            scale: 0.2,
            ..crate::corpus::CorpusConfig::default()
        });
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        // Frozen sampler: keys identical at any two dates.
        let frozen = SearchEngine::with_config(&corpus, SamplerConfig::default().frozen());
        for vh in 0..100u64 {
            let a = frozen.inclusion_key(vh, 1.0, 0.0, t0);
            let b = frozen.inclusion_key(vh, 1.0, 0.0, t0.add_days(80));
            assert_eq!(a, b);
        }
        // No propensity: popularity cannot shift the key.
        let unbiased =
            SearchEngine::with_config(&corpus, SamplerConfig::default().without_propensity());
        assert_eq!(
            unbiased.inclusion_key(7, 0.5, 3.0, t0),
            unbiased.inclusion_key(7, 0.5, -3.0, t0)
        );
        // No gating: open mass covers the whole window.
        let cfg = SamplerConfig::default().without_gating();
        assert_eq!(cfg.gate_fraction, 0.0);
        let d = frozen.density(Topic::Capitol);
        assert!(d.open_mass(0.0) >= d.open_mass(SamplerConfig::default().gate_fraction));
    }

    #[test]
    fn inclusion_key_is_deterministic_and_smooth() {
        let (engine, _) = engine_and_corpus();
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let k1 = engine.inclusion_key(42, 0.5, 0.0, t0);
        let k2 = engine.inclusion_key(42, 0.5, 0.0, t0);
        assert_eq!(k1, k2);
        assert!((0.0..=1.0).contains(&k1));
        // Smooth: a one-day step moves the key by a bounded amount.
        let k_next = engine.inclusion_key(42, 0.5, 0.0, t0.add_days(1));
        assert!((k_next - k1).abs() < 0.15);
        // High propensity pushes keys toward 1 on average.
        let mut higher = 0;
        for vh in 0..500u64 {
            let lo = engine.inclusion_key(vh, 0.5, -1.5, t0);
            let hi = engine.inclusion_key(vh, 0.5, 1.5, t0);
            if hi > lo {
                higher += 1;
            }
        }
        assert!(higher > 450, "{higher}/500");
    }

    #[test]
    fn high_stability_keys_barely_move() {
        let (engine, _) = engine_and_corpus();
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let t1 = t0.add_days(80);
        let mut drift_stable = 0.0;
        let mut drift_unstable = 0.0;
        for vh in 0..500u64 {
            drift_stable += (engine.inclusion_key(vh, 0.95, 0.0, t0)
                - engine.inclusion_key(vh, 0.95, 0.0, t1))
            .abs();
            drift_unstable += (engine.inclusion_key(vh, 0.3, 0.0, t0)
                - engine.inclusion_key(vh, 0.3, 0.0, t1))
            .abs();
        }
        assert!(
            drift_stable * 3.0 < drift_unstable,
            "{drift_stable} vs {drift_unstable}"
        );
    }

    #[test]
    fn query_hash_distinguishes_queries() {
        let base = SearchParams {
            tokens: vec!["brexit".into(), "referendum".into()],
            ..SearchParams::default()
        };
        let mut other = base.clone();
        other.tokens.push("leave".into());
        assert_ne!(query_hash(&base), query_hash(&other));
        assert_eq!(query_hash(&base), query_hash(&base.clone()));
        let mut timed = base.clone();
        timed.published_after = Some(Timestamp::from_ymd(2016, 6, 9).unwrap());
        assert_ne!(query_hash(&base), query_hash(&timed));
    }
}
