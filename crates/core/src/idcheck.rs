//! ID-based endpoint stability: Figure 4 (Appendix B.1).
//!
//! After each snapshot's search, the collector queries `Videos: list` for
//! the returned IDs. This analysis computes, per comparison pair (each
//! snapshot t vs t−1, and vs the first snapshot), the percentage of
//! *common* search-returned videos for which metadata came back in both
//! fetches, and the Jaccard similarity of the metadata-returned sets
//! restricted to those common videos. High, patternless values indicate
//! the gaps are random errors, not systematic API behaviour — the paper's
//! conclusion.

use crate::idsets::{decode_id_set, encode_id_set};
use std::collections::HashSet;
use std::sync::Arc;
use ytaudit_stats::sets::jaccard_of_counts;
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{Topic, VideoId};

/// One comparison of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Point {
    /// The later snapshot of the pair (1-based "comparison ID", matching
    /// the paper's axis).
    pub comparison_id: usize,
    /// Percentage of common search-returned videos with metadata at the
    /// later snapshot.
    pub coverage_current: f64,
    /// Percentage with metadata at the earlier snapshot.
    pub coverage_reference: f64,
    /// Jaccard of the two metadata-returned sets, restricted to common
    /// search-returned videos.
    pub jaccard_common: f64,
}

/// Figure 4 for one topic: successive-pair and versus-first series.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Topic {
    /// The topic.
    pub topic: Topic,
    /// Snapshot t vs t−1.
    pub vs_previous: Vec<Figure4Point>,
    /// Snapshot t vs the first snapshot.
    pub vs_first: Vec<Figure4Point>,
}

/// One Figure-4 comparison between a current and a reference snapshot's
/// search-returned and metadata-returned sets, for both series. Counts
/// only: one pass over the common search-returned videos tallies both
/// metadata coverages and their overlap, so no intersection is built.
fn compare_sets(
    search_current: &HashSet<VideoId>,
    meta_current: &HashSet<VideoId>,
    search_reference: &HashSet<VideoId>,
    meta_reference: &HashSet<VideoId>,
    comparison_id: usize,
) -> Figure4Point {
    let (mut common, mut in_current, mut in_reference, mut in_both) = (0usize, 0, 0, 0);
    for id in search_current.intersection(search_reference) {
        let current = meta_current.contains(id);
        let reference = meta_reference.contains(id);
        common += 1;
        in_current += usize::from(current);
        in_reference += usize::from(reference);
        in_both += usize::from(current && reference);
    }
    let denom = common.max(1) as f64;
    Figure4Point {
        comparison_id,
        coverage_current: 100.0 * in_current as f64 / denom,
        coverage_reference: 100.0 * in_reference as f64 / denom,
        jaccard_common: jaccard_of_counts(in_current, in_reference, in_both),
    }
}

/// A snapshot's search-returned set (shared with the analyzer's other
/// accumulators) and metadata-returned set.
type SetPair = (Arc<HashSet<VideoId>>, Arc<HashSet<VideoId>>);

/// Streaming Figure-4 accumulator for one topic: retains the first and
/// most recent snapshots' (search, metadata) set pairs and emits both
/// comparison series as folds arrive.
#[derive(Debug, Clone)]
pub struct Figure4Accumulator {
    topic: Topic,
    folds: usize,
    first: Option<SetPair>,
    prev: Option<SetPair>,
    vs_previous: Vec<Figure4Point>,
    vs_first: Vec<Figure4Point>,
}

impl Figure4Accumulator {
    /// An empty accumulator for `topic`.
    pub fn new(topic: Topic) -> Figure4Accumulator {
        Figure4Accumulator {
            topic,
            folds: 0,
            first: None,
            prev: None,
            vs_previous: Vec::new(),
            vs_first: Vec::new(),
        }
    }

    /// Folds the next snapshot's search-returned and metadata-returned
    /// ID sets.
    pub fn fold(
        &mut self,
        search: impl Into<Arc<HashSet<VideoId>>>,
        meta: impl Into<Arc<HashSet<VideoId>>>,
    ) {
        let (search, meta) = (search.into(), meta.into());
        let t = self.folds;
        if let (Some((prev_search, prev_meta)), Some((first_search, first_meta))) =
            (&self.prev, &self.first)
        {
            self.vs_previous
                .push(compare_sets(&search, &meta, prev_search, prev_meta, t));
            self.vs_first
                .push(compare_sets(&search, &meta, first_search, first_meta, t));
        }
        if self.first.is_none() {
            self.first = Some((Arc::clone(&search), Arc::clone(&meta)));
        }
        self.prev = Some((search, meta));
        self.folds += 1;
    }

    /// The Figure-4 series folded so far.
    pub fn finish(&self) -> Figure4Topic {
        Figure4Topic {
            topic: self.topic,
            vs_previous: self.vs_previous.clone(),
            vs_first: self.vs_first.clone(),
        }
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.folds as u64);
        for slot in [&self.first, &self.prev] {
            w.put_option(slot.as_ref(), |w, (search, meta)| {
                encode_id_set(w, search.iter());
                encode_id_set(w, meta.iter());
            });
        }
        for series in [&self.vs_previous, &self.vs_first] {
            w.put_list(series, |w, p| {
                w.put_u64(p.comparison_id as u64);
                w.put_f64(p.coverage_current);
                w.put_f64(p.coverage_reference);
                w.put_f64(p.jaccard_common);
            });
        }
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(topic: Topic, r: &mut Reader<'_>) -> wire::Result<Figure4Accumulator> {
        let folds = r.u64()? as usize;
        let mut slot =
            || r.option(|r| Ok((Arc::new(decode_id_set(r)?), Arc::new(decode_id_set(r)?))));
        let (first, prev) = (slot()?, slot()?);
        let mut series = || {
            r.list(|r| {
                Ok(Figure4Point {
                    comparison_id: r.u64()? as usize,
                    coverage_current: r.f64()?,
                    coverage_reference: r.f64()?,
                    jaccard_common: r.f64()?,
                })
            })
        };
        Ok(Figure4Accumulator {
            topic,
            folds,
            first,
            prev,
            vs_previous: series()?,
            vs_first: series()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, CollectorConfig};
    use crate::testutil::test_client;
    use crate::Analyzer;

    #[test]
    fn metadata_coverage_is_high_and_gaps_unsystematic() {
        let (client, _service) = test_client(0.25);
        let config = CollectorConfig {
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Grammys], 4)
        };
        let dataset = Collector::new(&client, config).run().unwrap();
        let report = Analyzer::analyze_dataset(&dataset);
        let fig = report
            .figure4
            .iter()
            .find(|ft| ft.topic == Topic::Grammys)
            .unwrap();
        assert_eq!(fig.vs_previous.len(), 3);
        assert_eq!(fig.vs_first.len(), 3);
        for point in fig.vs_previous.iter().chain(&fig.vs_first) {
            // ID-based lookups are near-complete (default miss rate 1.2%).
            assert!(point.coverage_current > 90.0, "{point:?}");
            assert!(point.coverage_reference > 90.0, "{point:?}");
            // And the metadata sets on common videos are near-identical.
            assert!(point.jaccard_common > 0.9, "{point:?}");
        }
    }

    #[test]
    fn videos_endpoint_is_far_more_stable_than_search() {
        let (client, _service) = test_client(0.25);
        let config = CollectorConfig {
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Blm], 4)
        };
        let dataset = Collector::new(&client, config).run().unwrap();
        let report = Analyzer::analyze_dataset(&dataset);
        let fig = report
            .figure4
            .iter()
            .find(|ft| ft.topic == Topic::Blm)
            .unwrap();
        let consistency = report
            .figure1
            .iter()
            .find(|tc| tc.topic == Topic::Blm)
            .unwrap();
        // Common-video metadata similarity stays far above the raw search
        // similarity for the churniest topic.
        let min_meta_j = fig
            .vs_first
            .iter()
            .map(|p| p.jaccard_common)
            .fold(f64::INFINITY, f64::min);
        let final_search_j = consistency.final_jaccard_first();
        assert!(
            min_meta_j > final_search_j,
            "meta {min_meta_j} vs search {final_search_j}"
        );
    }
}
