//! SERP-vs-API comparison — the paper's second §6.2 proposal.
//!
//! "Future research can employ similar methods to ours to check the
//! consistency between results of sockpuppet SERPs and search endpoint
//! results. This would help us understand if the search endpoint has
//! research value beyond data collection, for example, as a low-resource
//! way of conducting SERP audits."
//!
//! This module runs that comparison: a panel of simulated sockpuppets
//! fetches SERPs straight from the platform (the browser path), the Data
//! API is queried with `order=relevance` through the normal client (the
//! researcher path), and the two are compared at the SERP page size.

use std::collections::HashSet;
use ytaudit_client::{Order, SearchQuery, YouTubeClient};
use ytaudit_platform::serp::SERP_PAGE_SIZE;
use ytaudit_platform::Platform;
use ytaudit_types::{Result, Timestamp, Topic, VideoId};

/// The agreement measurements for one topic at one date.
#[derive(Debug, Clone, PartialEq)]
pub struct SerpComparison {
    /// The topic.
    pub topic: Topic,
    /// Puppets in the panel.
    pub n_puppets: usize,
    /// Mean pairwise overlap@20 between puppet SERPs (the audit
    /// literature's consistency baseline).
    pub puppet_pairwise_overlap: f64,
    /// Mean overlap@20 between the API's relevance-ordered top page and
    /// each puppet's SERP.
    pub api_serp_overlap: f64,
    /// Expected overlap of a random 20-video subset of the topic pool —
    /// the null baseline both numbers must beat.
    pub random_baseline: f64,
}

fn overlap(a: &[VideoId], b: &[VideoId]) -> f64 {
    let sa: HashSet<_> = a.iter().collect();
    let sb: HashSet<_> = b.iter().collect();
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    sa.intersection(&sb).count() as f64 / sa.len().min(sb.len()) as f64
}

/// Runs the comparison for one topic at `date`, with a panel of
/// `n_puppets` sockpuppets.
pub fn serp_vs_api(
    platform: &Platform,
    client: &YouTubeClient,
    topic: Topic,
    n_puppets: usize,
    date: Timestamp,
) -> Result<SerpComparison> {
    // The browser path: each puppet loads the SERP.
    let pages: Vec<Vec<VideoId>> = (0..n_puppets as u64)
        .map(|puppet| platform.serp(topic, puppet, date))
        .collect();
    let mut pairwise = Vec::new();
    for i in 0..pages.len() {
        for j in i + 1..pages.len() {
            pairwise.push(overlap(&pages[i], &pages[j]));
        }
    }
    let puppet_pairwise_overlap = if pairwise.is_empty() {
        1.0
    } else {
        pairwise.iter().sum::<f64>() / pairwise.len() as f64
    };

    // The researcher path: the API with order=relevance, one page of 20.
    client.set_sim_time(Some(date));
    let api_page = client.search_page(
        &SearchQuery::keywords(topic.spec().query)
            .order(Order::Relevance)
            .max_results(SERP_PAGE_SIZE as u32),
        None,
    )?;
    let api_ids: Vec<VideoId> = api_page
        .items
        .iter()
        .map(|item| VideoId::new(item.id.video_id.clone()))
        .collect();
    let api_serp_overlap = pages
        .iter()
        .map(|page| overlap(&api_ids, page))
        .sum::<f64>()
        / pages.len().max(1) as f64;

    // Null baseline: a random 20-subset of the topic's (visible) corpus.
    let topic_size = platform
        .corpus()
        .topics
        .iter()
        .find(|tc| tc.topic == topic)
        .map(|tc| tc.videos.len())
        .unwrap_or(1)
        .max(1);
    let random_baseline = SERP_PAGE_SIZE as f64 / topic_size as f64;

    Ok(SerpComparison {
        topic,
        n_puppets,
        puppet_pairwise_overlap,
        api_serp_overlap,
        random_baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_client;

    #[test]
    fn api_relevance_search_approximates_serp_audits() {
        let (client, service) = test_client(0.5);
        let date = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let cmp = serp_vs_api(service.platform(), &client, Topic::Blm, 4, date).unwrap();
        // Puppets agree with each other strongly.
        assert!(
            cmp.puppet_pairwise_overlap > 0.5,
            "puppets: {}",
            cmp.puppet_pairwise_overlap
        );
        // The API's relevance page beats the random baseline by a wide
        // margin — the §6.2 hypothesis holds in the simulator.
        assert!(
            cmp.api_serp_overlap > 10.0 * cmp.random_baseline,
            "api-serp {} vs baseline {}",
            cmp.api_serp_overlap,
            cmp.random_baseline
        );
        // But it is not a perfect substitute (the sampler suppresses).
        assert!(cmp.api_serp_overlap < 1.0);
    }

    #[test]
    fn comparison_is_reproducible() {
        let (client, service) = test_client(0.3);
        let date = Timestamp::from_ymd(2025, 3, 1).unwrap();
        let a = serp_vs_api(service.platform(), &client, Topic::Higgs, 3, date).unwrap();
        let b = serp_vs_api(service.platform(), &client, Topic::Higgs, 3, date).unwrap();
        assert_eq!(a, b);
    }
}
