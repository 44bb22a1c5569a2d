//! Collection-strategy experiments: the paper's §6.1 advice and §6.2
//! proposed validation, implemented.
//!
//! Two experiments:
//!
//! * [`restriction_ladder`] — run progressively more restrictive queries
//!   (adding AND terms) and measure how the reported pool size and the
//!   first-vs-last replicability respond. The paper predicts: smaller
//!   pool ⇒ more stable returns.
//! * [`split_topics`] — compare one broad query against the union of
//!   subtopic queries ("break up your *topics* as opposed to your time
//!   frames"), in both replicability and quota cost.

use std::collections::HashSet;
use ytaudit_client::{SearchQuery, YouTubeClient};
use ytaudit_stats::sets::jaccard;
use ytaudit_types::{Result, Timestamp, Topic, VideoId};

/// Configuration for the strategy experiments.
#[derive(Debug, Clone)]
pub struct StrategyConfig {
    /// The topic to experiment on.
    pub topic: Topic,
    /// How many restriction levels (0 = just the base query).
    pub levels: usize,
    /// First collection date.
    pub first: Timestamp,
    /// Last collection date.
    pub last: Timestamp,
    /// Use the paper's hourly time-binned collection (true) or one capped
    /// query (false — cheaper, used when only relative effects matter).
    pub hourly: bool,
}

impl StrategyConfig {
    /// A sensible default: the audit's first/last dates, 3 extra terms.
    pub fn new(topic: Topic) -> StrategyConfig {
        StrategyConfig {
            topic,
            levels: 3,
            first: Timestamp::from_ymd_const(2025, 2, 9),
            last: Timestamp::from_ymd_const(2025, 4, 30),
            hourly: false,
        }
    }
}

/// One rung of the restriction ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RestrictionPoint {
    /// Number of AND terms added to the base query.
    pub level: usize,
    /// The full query string.
    pub query: String,
    /// Mean reported pool size (`totalResults`) across the queries sent.
    pub pool_mean: u64,
    /// Videos returned at the first collection.
    pub returned_first: usize,
    /// Videos returned at the last collection.
    pub returned_last: usize,
    /// J(first, last) — the replicability measure.
    pub jaccard: f64,
}

/// Runs one collection of `query` at `date`, returning the ID set and the
/// pool estimates observed.
fn collect_once(
    client: &YouTubeClient,
    base: &SearchQuery,
    topic: Topic,
    hourly: bool,
    date: Timestamp,
) -> Result<(HashSet<VideoId>, Vec<u64>)> {
    client.set_sim_time(Some(date));
    let mut ids = HashSet::new();
    let mut pools = Vec::new();
    if hourly {
        let start = topic.window_start();
        let hours = topic.window_end().hours_since(start).max(0);
        for h in 0..hours {
            let query = base.clone().hour_bin(start.add_hours(h));
            let collection = client.search_all(&query)?;
            pools.push(collection.total_results);
            ids.extend(collection.video_ids());
        }
    } else {
        let collection = client.search_all(base)?;
        pools.push(collection.total_results);
        ids.extend(collection.video_ids());
    }
    Ok((ids, pools))
}

/// Runs the restriction ladder: level 0 is the topic's base query; each
/// further level ANDs in the next subtopic term.
pub fn restriction_ladder(
    client: &YouTubeClient,
    config: &StrategyConfig,
) -> Result<Vec<RestrictionPoint>> {
    let spec = config.topic.spec();
    let mut points = Vec::new();
    for level in 0..=config.levels.min(spec.subtopics.len()) {
        let mut query = SearchQuery::for_topic(config.topic);
        for term in spec.subtopics.iter().take(level) {
            query = query.and_term(term);
        }
        let (first_ids, mut pools) =
            collect_once(client, &query, config.topic, config.hourly, config.first)?;
        let (last_ids, pools_last) =
            collect_once(client, &query, config.topic, config.hourly, config.last)?;
        pools.extend(pools_last);
        let pool_mean = pools.iter().sum::<u64>() / pools.len().max(1) as u64;
        points.push(RestrictionPoint {
            level,
            query: query.q.clone().unwrap_or_default(),
            pool_mean,
            returned_first: first_ids.len(),
            returned_last: last_ids.len(),
            jaccard: jaccard(&first_ids, &last_ids),
        });
    }
    client.set_sim_time(None);
    Ok(points)
}

/// Comparison of broad-query vs split-subtopic collection.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitComparison {
    /// The topic.
    pub topic: Topic,
    /// J(first, last) of the single broad query.
    pub broad_jaccard: f64,
    /// J(first, last) of the union over subtopic queries.
    pub split_jaccard: f64,
    /// Videos returned by the broad query (first collection).
    pub broad_returned: usize,
    /// Videos returned by the split union (first collection).
    pub split_returned: usize,
    /// Quota units the broad strategy cost.
    pub broad_quota: u64,
    /// Quota units the split strategy cost.
    pub split_quota: u64,
}

/// Runs the broad-vs-split comparison for a topic.
pub fn split_topics(client: &YouTubeClient, config: &StrategyConfig) -> Result<SplitComparison> {
    let spec = config.topic.spec();
    let before = client.budget().units_spent();
    let broad = SearchQuery::for_topic(config.topic);
    let (broad_first, _) = collect_once(client, &broad, config.topic, config.hourly, config.first)?;
    let (broad_last, _) = collect_once(client, &broad, config.topic, config.hourly, config.last)?;
    let broad_quota = client.budget().units_spent() - before;

    let before = client.budget().units_spent();
    let mut split_first = HashSet::new();
    let mut split_last = HashSet::new();
    for term in spec.subtopics {
        let query = SearchQuery::for_topic(config.topic).and_term(term);
        let (f, _) = collect_once(client, &query, config.topic, config.hourly, config.first)?;
        let (l, _) = collect_once(client, &query, config.topic, config.hourly, config.last)?;
        split_first.extend(f);
        split_last.extend(l);
    }
    let split_quota = client.budget().units_spent() - before;
    client.set_sim_time(None);
    Ok(SplitComparison {
        topic: config.topic,
        broad_jaccard: jaccard(&broad_first, &broad_last),
        split_jaccard: jaccard(&split_first, &split_last),
        broad_returned: broad_first.len(),
        split_returned: split_first.len(),
        broad_quota,
        split_quota,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_client;

    #[test]
    fn narrower_queries_shrink_pools_and_raise_replicability() {
        let (client, _service) = test_client(0.6);
        let config = StrategyConfig {
            levels: 2,
            hourly: false,
            ..StrategyConfig::new(Topic::WorldCup)
        };
        let ladder = restriction_ladder(&client, &config).unwrap();
        assert_eq!(ladder.len(), 3);
        // Pool estimates shrink monotonically with restriction.
        assert!(ladder[0].pool_mean > ladder[1].pool_mean);
        assert!(ladder[1].pool_mean > ladder[2].pool_mean);
        // Returned counts shrink too.
        assert!(ladder[0].returned_first >= ladder[1].returned_first);
        // Replicability improves from base to the most-restricted rung
        // (the paper's §6.1 prediction).
        let base_j = ladder[0].jaccard;
        let tight_j = ladder.last().unwrap().jaccard;
        assert!(
            tight_j > base_j,
            "restricted J {tight_j} should beat broad J {base_j}"
        );
        // Query strings accumulate AND terms.
        assert!(ladder[2].query.contains("fifa world cup"));
        assert!(ladder[2].query.len() > ladder[0].query.len());
    }

    #[test]
    fn splitting_topics_beats_the_broad_query() {
        let (client, _service) = test_client(0.6);
        let config = StrategyConfig {
            hourly: false,
            ..StrategyConfig::new(Topic::Blm)
        };
        let cmp = split_topics(&client, &config).unwrap();
        assert!(
            cmp.split_jaccard > cmp.broad_jaccard,
            "split J {} should beat broad J {}",
            cmp.split_jaccard,
            cmp.broad_jaccard
        );
        // Quota is tracked for both strategies. (Which is cheaper depends
        // on binning: un-binned, a broad query pages to the 500 cap while
        // each narrow query needs fewer pages.)
        assert!(cmp.broad_quota > 0);
        assert!(cmp.split_quota > 0);
        assert!(cmp.broad_returned > 0);
        assert!(cmp.split_returned > 0);
    }
}
