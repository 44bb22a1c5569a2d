//! Temporal-consistency analysis: Figure 1 and Table 1.
//!
//! For each topic and snapshot t, computes the Jaccard similarity of the
//! returned video-ID set against the previous snapshot and the very first
//! one, plus the two one-sided set differences (the "error bars" that rule
//! out deletions as the explanation), and the per-snapshot return-count
//! summary of Table 1.

use crate::idsets::{decode_id_set, encode_id_set};
use std::collections::HashSet;
use std::sync::Arc;
use ytaudit_stats::descriptive::Description;
use ytaudit_stats::sets::OverlapAccumulator;
use ytaudit_stats::Moments;
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{Topic, VideoId};

/// One snapshot's similarity measurements (one point of Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyPoint {
    /// Snapshot index (0-based).
    pub snapshot: usize,
    /// Videos returned at this snapshot.
    pub returned: usize,
    /// J(Sₜ, Sₜ₋₁); 1.0 for the first snapshot.
    pub jaccard_prev: f64,
    /// J(Sₜ, S₁).
    pub jaccard_first: f64,
    /// |Sₜ₋₁ − Sₜ| — dropped out since the previous snapshot.
    pub dropped_out: usize,
    /// |Sₜ − Sₜ₋₁| — dropped in since the previous snapshot. Non-zero
    /// values here are the paper's key evidence: a purely historical query
    /// can *gain* videos, which deletions cannot explain.
    pub dropped_in: usize,
}

/// Figure 1 for one topic.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicConsistency {
    /// The topic.
    pub topic: Topic,
    /// One point per snapshot.
    pub points: Vec<ConsistencyPoint>,
}

impl TopicConsistency {
    /// The final J(Sₜ, S₁) — the headline decay number.
    pub fn final_jaccard_first(&self) -> f64 {
        self.points.last().map_or(1.0, |p| p.jaccard_first)
    }

    /// Mean adjacent-snapshot similarity.
    pub fn mean_jaccard_prev(&self) -> f64 {
        let tail: Vec<f64> = self.points.iter().skip(1).map(|p| p.jaccard_prev).collect();
        if tail.is_empty() {
            1.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// A Table 1 row: per-topic return-count summary across snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The topic.
    pub topic: Topic,
    /// Minimum videos returned in any snapshot.
    pub min: usize,
    /// Maximum.
    pub max: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
}

/// Streaming consistency accumulator for one topic: folds each
/// snapshot's video-ID set as it arrives and yields both the Figure-1
/// series and the Table-1 summary. [`crate::Analyzer`] folds both live
/// and materialized collections through it, so there is exactly one
/// numeric code path.
#[derive(Debug, Clone)]
pub struct ConsistencyAccumulator {
    topic: Topic,
    overlap: OverlapAccumulator<VideoId>,
    counts: Moments,
    points: Vec<ConsistencyPoint>,
}

impl ConsistencyAccumulator {
    /// An empty accumulator for `topic`.
    pub fn new(topic: Topic) -> ConsistencyAccumulator {
        ConsistencyAccumulator {
            topic,
            overlap: OverlapAccumulator::new(),
            counts: Moments::new(),
            points: Vec::new(),
        }
    }

    /// Folds the next snapshot's returned ID set (owned, or shared with
    /// the analyzer's other accumulators).
    pub fn fold(&mut self, set: impl Into<Arc<HashSet<VideoId>>>) {
        let set = set.into();
        let returned = set.len();
        self.counts.fold(returned as f64);
        let step = self.overlap.fold(set);
        self.points.push(ConsistencyPoint {
            snapshot: self.points.len(),
            returned,
            jaccard_prev: step.jaccard_prev,
            jaccard_first: step.jaccard_first,
            dropped_out: step.dropped_out,
            dropped_in: step.dropped_in,
        });
    }

    /// The Figure-1 series folded so far.
    pub fn figure1_topic(&self) -> TopicConsistency {
        TopicConsistency {
            topic: self.topic,
            points: self.points.clone(),
        }
    }

    /// The Table-1 summary folded so far (zeroed row before any fold,
    /// matching the batch `describe(..).unwrap_or(zeroed)` behavior).
    pub fn table1_row(&self) -> Table1Row {
        let d = self.counts.finish().unwrap_or(Description {
            n: 0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            std: 0.0,
        });
        Table1Row {
            topic: self.topic,
            min: d.min as usize,
            max: d.max as usize,
            mean: d.mean,
            std: d.std,
        }
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        encode_id_set(w, self.overlap.first());
        encode_id_set(w, self.overlap.last());
        w.put_u64(self.overlap.folds());
        let (n, mean, m2, min, max) = self.counts.parts();
        w.put_u64(n);
        w.put_f64(mean);
        w.put_f64(m2);
        w.put_f64(min);
        w.put_f64(max);
        w.put_list(&self.points, |w, p| {
            w.put_u64(p.snapshot as u64);
            w.put_u64(p.returned as u64);
            w.put_f64(p.jaccard_prev);
            w.put_f64(p.jaccard_first);
            w.put_u64(p.dropped_out as u64);
            w.put_u64(p.dropped_in as u64);
        });
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(topic: Topic, r: &mut Reader<'_>) -> wire::Result<ConsistencyAccumulator> {
        let first = decode_id_set(r)?;
        let prev = decode_id_set(r)?;
        let folds = r.u64()?;
        let n = r.u64()?;
        let mean = r.f64()?;
        let m2 = r.f64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        let points = r.list(|r| {
            Ok(ConsistencyPoint {
                snapshot: r.u64()? as usize,
                returned: r.u64()? as usize,
                jaccard_prev: r.f64()?,
                jaccard_first: r.f64()?,
                dropped_out: r.u64()? as usize,
                dropped_in: r.u64()? as usize,
            })
        })?;
        Ok(ConsistencyAccumulator {
            topic,
            overlap: OverlapAccumulator::from_parts(first, prev, folds),
            counts: Moments::from_parts(n, mean, m2, min, max),
            points,
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

    fn quick_dataset(snapshots: usize) -> AuditDataset {
        let (client, _service) = test_client(0.2);
        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Blm, Topic::Higgs], snapshots)
        };
        Collector::new(&client, config).run().unwrap()
    }

    /// One topic's Figure-1 series from the dataset's report.
    fn topic_consistency(dataset: &AuditDataset, topic: Topic) -> TopicConsistency {
        let report = Analyzer::analyze_dataset(dataset);
        report
            .figure1
            .into_iter()
            .find(|tc| tc.topic == topic)
            .unwrap()
    }

    #[test]
    fn jaccard_series_start_at_one_and_decay() {
        let dataset = quick_dataset(4);
        for tc in Analyzer::analyze_dataset(&dataset).figure1 {
            assert_eq!(tc.points[0].jaccard_first, 1.0);
            assert_eq!(tc.points[0].jaccard_prev, 1.0);
            assert_eq!(tc.points.len(), 4);
            for p in &tc.points {
                assert!((0.0..=1.0).contains(&p.jaccard_first));
                assert!((0.0..=1.0).contains(&p.jaccard_prev));
            }
            // Some decay must occur by the last snapshot for BLM (the
            // churniest topic).
            if tc.topic == Topic::Blm {
                assert!(tc.final_jaccard_first() < 1.0);
            }
        }
    }

    #[test]
    fn drop_ins_prove_its_not_deletions() {
        let dataset = quick_dataset(4);
        let blm = topic_consistency(&dataset, Topic::Blm);
        let total_dropped_in: usize = blm.points.iter().map(|p| p.dropped_in).sum();
        assert!(
            total_dropped_in > 0,
            "historical queries must gain videos across snapshots"
        );
    }

    #[test]
    fn higgs_more_consistent_than_blm() {
        let dataset = quick_dataset(4);
        let higgs = topic_consistency(&dataset, Topic::Higgs);
        let blm = topic_consistency(&dataset, Topic::Blm);
        assert!(
            higgs.final_jaccard_first() > blm.final_jaccard_first(),
            "higgs {} vs blm {}",
            higgs.final_jaccard_first(),
            blm.final_jaccard_first()
        );
    }

    #[test]
    fn accumulator_checkpoint_round_trips() {
        let dataset = quick_dataset(3);
        let mut acc = ConsistencyAccumulator::new(Topic::Blm);
        for i in 0..dataset.len() {
            acc.fold(dataset.id_set(Topic::Blm, i));
        }
        let bytes = wire::encode(|w| acc.encode_state(w));
        let restored = wire::decode(&bytes, |r| {
            ConsistencyAccumulator::decode_state(Topic::Blm, r)
        })
        .unwrap();
        assert_eq!(restored.figure1_topic(), acc.figure1_topic());
        assert_eq!(restored.table1_row(), acc.table1_row());
        // Folding after restore matches folding straight through.
        let extra = dataset.id_set(Topic::Blm, 0);
        let mut direct = acc.clone();
        let mut resumed = restored;
        direct.fold(extra.clone());
        resumed.fold(extra);
        assert_eq!(direct.figure1_topic(), resumed.figure1_topic());
    }

    #[test]
    fn table1_summaries_are_sane() {
        let dataset = quick_dataset(3);
        let rows = Analyzer::analyze_dataset(&dataset).table1;
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.min <= row.mean as usize + 1);
            assert!(row.max >= row.mean as usize);
            assert!(row.std >= 0.0);
            assert!(row.mean > 0.0, "{}", row.topic);
        }
    }
}
