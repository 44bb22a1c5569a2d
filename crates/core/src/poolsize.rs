//! Pool-size analysis: Table 4.
//!
//! Every hourly query returns a `pageInfo.totalResults` estimate of the
//! platform-wide pool matching the query (capped at 1,000,000 and — per
//! the paper's observation — ignoring the query's time filters). Table 4
//! summarizes these estimates per topic: the three topics whose videos
//! reappear most consistently are also the smallest pools, and the only
//! ones whose modal estimate is below the cap.

use crate::dataset::TopicSnapshot;
use std::collections::BTreeMap;
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::Topic;

/// A Table 4 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table4Row {
    /// The topic.
    pub topic: Topic,
    /// Minimum pool estimate across all hourly queries and snapshots.
    pub min: u64,
    /// Maximum (1,000,000 means the cap was hit).
    pub max: u64,
    /// Mean estimate.
    pub mean: u64,
    /// Modal estimate (binned to 1 000-unit buckets, matching the paper's
    /// rounded reporting).
    pub mode: u64,
}

/// The documented estimate cap.
pub const CAP: u64 = 1_000_000;

/// Streaming Table-4 accumulator for one topic: integer sufficient
/// statistics (count, sum, min, max) plus 1k-bucketed mode counts —
/// exact equivalents of the batch formulas, independent of fold order.
#[derive(Debug, Clone)]
pub struct Table4Accumulator {
    topic: Topic,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u64, u64>,
}

impl Table4Accumulator {
    /// An empty accumulator for `topic`.
    pub fn new(topic: Topic) -> Table4Accumulator {
        Table4Accumulator {
            topic,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: BTreeMap::new(),
        }
    }

    /// Folds the next snapshot's pool estimates.
    pub fn fold(&mut self, ts: &TopicSnapshot) {
        for hour in &ts.hours {
            let e = hour.total_results;
            self.count += 1;
            self.sum += e;
            self.min = self.min.min(e);
            self.max = self.max.max(e);
            // Bucket to 1k for a meaningful mode over a continuous-ish
            // estimate.
            *self.buckets.entry((e / 1_000) * 1_000).or_insert(0) += 1;
        }
    }

    /// Finalizes into a [`Table4Row`]; `None` if nothing was folded.
    pub fn finish(&self) -> Option<Table4Row> {
        if self.count == 0 {
            return None;
        }
        // Ascending bucket iteration with strict `>` keeps the smallest
        // modal bucket — the same tie-break as `mode_u64`.
        let mut best = (0u64, 0u64);
        for (&value, &count) in &self.buckets {
            if count > best.1 {
                best = (value, count);
            }
        }
        Some(Table4Row {
            topic: self.topic,
            min: self.min,
            max: self.max,
            mean: self.sum / self.count,
            mode: best.0,
        })
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
        w.put_list(&self.buckets, |w, (&value, &count)| {
            w.put_u64(value);
            w.put_u64(count);
        });
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(topic: Topic, r: &mut Reader<'_>) -> wire::Result<Table4Accumulator> {
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let buckets = r.list(|r| Ok((r.u64()?, r.u64()?)))?;
        Ok(Table4Accumulator {
            topic,
            count,
            sum,
            min,
            max,
            buckets: buckets.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, CollectorConfig};
    use crate::dataset::AuditDataset;
    use crate::testutil::test_client;
    use crate::Analyzer;

    #[test]
    fn pool_ordering_matches_the_paper() {
        let (client, _service) = test_client(0.2);
        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(
                vec![Topic::Higgs, Topic::Grammys, Topic::Brexit, Topic::WorldCup],
                2,
            )
        };
        let dataset = Collector::new(&client, config).run().unwrap();
        let rows = Analyzer::analyze_dataset(&dataset).table4;
        assert_eq!(rows.len(), 4);
        let by_topic = |t: Topic| rows.iter().find(|r| r.topic == t).unwrap().clone();
        let higgs = by_topic(Topic::Higgs);
        let grammys = by_topic(Topic::Grammys);
        let brexit = by_topic(Topic::Brexit);
        let worldcup = by_topic(Topic::WorldCup);
        // Size ordering: Higgs ≪ Grammys < Brexit < World Cup.
        assert!(higgs.mean < grammys.mean);
        assert!(grammys.mean < brexit.mean);
        assert!(brexit.mean < worldcup.mean);
        // Caps: World Cup hits 1M; Higgs never comes close.
        assert_eq!(worldcup.max, CAP);
        assert_eq!(worldcup.mode, CAP);
        assert!(higgs.max < 100_000, "higgs max {}", higgs.max);
        assert!(higgs.mode < 100_000);
        // Brexit's mode stays below the cap (the paper's 613k).
        assert!(brexit.mode < CAP, "brexit mode {}", brexit.mode);
        // Estimates vary across queries (min < max).
        for row in &rows {
            assert!(row.min < row.max, "{}", row.topic);
            assert!(row.min <= row.mean && row.mean <= row.max);
        }
    }

    #[test]
    fn empty_topic_yields_none() {
        let dataset = AuditDataset {
            topics: vec![Topic::Blm],
            snapshots: Vec::new(),
            video_meta: Default::default(),
            channel_meta: Default::default(),
            quota_units_spent: 0,
        };
        assert!(Table4Accumulator::new(Topic::Blm).finish().is_none());
        assert!(Analyzer::analyze_dataset(&dataset).table4.is_empty());
    }
}
