//! A simulated search-engine results page (SERP) — the §6.2 extension.
//!
//! SERP audits (Hussein et al. 2020; Jung et al. 2025) deploy sockpuppet
//! accounts that issue queries through the *user-facing* search page and
//! record the ranked results. The paper's §6.2 asks whether the Data API's
//! search endpoint could serve as "a low-resource way of conducting SERP
//! audits" — i.e. how similar API results are to what puppets see.
//!
//! The simulated SERP ranks a topic's live catalogue by a relevance score:
//! the same popularity propensity the hidden sampler uses, plus a small
//! per-puppet personalization term (fresh sockpuppets differ little — the
//! empirical finding of the audit literature) and a day-level freshness
//! shuffle. The `ytaudit-core::serp` analysis then measures puppet-puppet
//! and puppet-vs-API agreement.

use crate::hash::{hash_bytes, mix_all, unit_normal};
use crate::Platform;
use ytaudit_types::{Timestamp, Topic, VideoId};

/// How many results one SERP page carries.
pub const SERP_PAGE_SIZE: usize = 20;

/// Weight of the per-puppet personalization term (small: fresh accounts
/// see near-identical pages).
const PERSONALIZATION_WEIGHT: f64 = 0.10;

/// Weight of the day-level freshness shuffle.
const FRESHNESS_WEIGHT: f64 = 0.12;

impl Platform {
    /// The ranked SERP a sockpuppet `puppet` sees for `topic`'s query at
    /// simulated instant `now` (top [`SERP_PAGE_SIZE`] video IDs).
    pub fn serp(&self, topic: Topic, puppet: u64, now: Timestamp) -> Vec<VideoId> {
        let seed = self.corpus().config.seed;
        let topic_idx = topic.index();
        let mut scored: Vec<(f64, &VideoId)> = self.corpus().topics[topic_idx]
            .videos
            .iter()
            .filter(|v| v.visible_at(now))
            .map(|video| {
                let channel = self
                    .channel(&video.channel_id)
                    // ytlint: allow(panics) — corpus generation interns every
                    // channel id it mints, so the lookup is total
                    .expect("corpus channels are complete");
                let vh = hash_bytes(video.id.as_str().as_bytes());
                let relevance = self.engine().propensity(video, channel);
                let personalization =
                    unit_normal(mix_all(&[seed, puppet, vh, 0x5045_5253])) * PERSONALIZATION_WEIGHT;
                let freshness = unit_normal(mix_all(&[
                    seed,
                    vh,
                    now.floor_day().as_secs() as u64,
                    0x4652_4553,
                ])) * FRESHNESS_WEIGHT;
                (relevance + personalization + freshness, &video.id)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(b.1))
        });
        scored
            .into_iter()
            .take(SERP_PAGE_SIZE)
            .map(|(_, id)| id.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn overlap(a: &[VideoId], b: &[VideoId]) -> f64 {
        let sa: HashSet<_> = a.iter().collect();
        let sb: HashSet<_> = b.iter().collect();
        sa.intersection(&sb).count() as f64 / a.len().max(1) as f64
    }

    #[test]
    fn serp_is_deterministic_per_puppet_and_day() {
        let p = Platform::small(0.3);
        let now = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let a = p.serp(Topic::Brexit, 1, now);
        let b = p.serp(Topic::Brexit, 1, now);
        assert_eq!(a, b);
        assert_eq!(a.len(), SERP_PAGE_SIZE);
    }

    #[test]
    fn puppets_see_similar_but_not_identical_pages() {
        let p = Platform::small(0.5);
        let now = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let pages: Vec<_> = (0..4)
            .map(|puppet| p.serp(Topic::Blm, puppet, now))
            .collect();
        let mut min_overlap: f64 = 1.0;
        let mut identical = true;
        for i in 0..pages.len() {
            for j in i + 1..pages.len() {
                min_overlap = min_overlap.min(overlap(&pages[i], &pages[j]));
                identical &= pages[i] == pages[j];
            }
        }
        assert!(
            min_overlap > 0.5,
            "fresh puppets agree broadly: {min_overlap}"
        );
        assert!(!identical, "personalization must produce some variation");
    }

    #[test]
    fn serp_favours_high_propensity_videos() {
        let p = Platform::small(0.5);
        let now = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let page = p.serp(Topic::Grammys, 0, now);
        // Mean likes of SERP results beat the topic median by a wide
        // margin (relevance ranking is popularity-flavoured).
        let topic_idx = Topic::ALL
            .iter()
            .position(|&t| t == Topic::Grammys)
            .unwrap();
        let mut all_likes: Vec<u64> = p.corpus().topics[topic_idx]
            .videos
            .iter()
            .map(|v| v.stats.likes)
            .collect();
        all_likes.sort_unstable();
        let median = all_likes[all_likes.len() / 2] as f64;
        let serp_mean = page
            .iter()
            .map(|id| p.video(id, now).unwrap().stats.likes as f64)
            .sum::<f64>()
            / page.len() as f64;
        assert!(
            serp_mean > median * 2.0,
            "serp mean likes {serp_mean} vs corpus median {median}"
        );
    }

    #[test]
    fn serp_drifts_day_to_day_but_slowly() {
        let p = Platform::small(0.5);
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let today = p.serp(Topic::WorldCup, 0, t0);
        let tomorrow = p.serp(Topic::WorldCup, 0, t0.add_days(1));
        let next_month = p.serp(Topic::WorldCup, 0, t0.add_days(30));
        assert!(overlap(&today, &tomorrow) > 0.5);
        // The freshness shuffle redraws per day; a month later is no more
        // different than tomorrow on average, but both differ from today.
        assert!(overlap(&today, &next_month) > 0.3);
        assert_ne!(today, tomorrow);
    }
}
