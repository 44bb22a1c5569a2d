//! Attrition analysis: Figure 3's second-order Markov chain over video
//! presence/absence across snapshots.
//!
//! The paper pools, across all topics and videos, every sliding window of
//! three consecutive snapshots and estimates P(next state | two most
//! recent states). The signature finding: same-state histories strongly
//! predict staying (drop-in/drop-out happens in persistent stretches — a
//! "rolling window"), which is exactly what the platform's value-noise
//! sampler produces.

use std::collections::HashSet;
use ytaudit_stats::markov::{MarkovChain2, PresenceAccumulator, State2};
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::VideoId;

/// Figure 3: the 4×2 transition table.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3 {
    /// Rows in PP, PA, AP, AA order; each row is
    /// `[P(next = Present), P(next = Absent)]`.
    pub transitions: [[f64; 2]; 4],
    /// Transition counts per history state (same order), for weighting.
    pub counts: [u64; 4],
}

impl Figure3 {
    /// P(Present | PP) — the "stays in" probability.
    pub fn p_stay_present(&self) -> f64 {
        // ytlint: allow(indexing) — transitions is a fixed [[f64; 2]; 4]
        self.transitions[0][0]
    }

    /// P(Absent | AA) — the "stays out" probability.
    pub fn p_stay_absent(&self) -> f64 {
        // ytlint: allow(indexing) — transitions is a fixed [[f64; 2]; 4]
        self.transitions[3][1]
    }
}

/// Streaming attrition accumulator for one topic: folds each snapshot's
/// returned ID set into a [`PresenceAccumulator`], whose integer counts
/// are exactly what replaying the full presence sequences would produce.
#[derive(Debug, Clone, Default)]
pub struct AttritionAccumulator {
    presence: PresenceAccumulator<VideoId>,
}

impl AttritionAccumulator {
    /// An empty accumulator.
    pub fn new() -> AttritionAccumulator {
        AttritionAccumulator {
            presence: PresenceAccumulator::new(),
        }
    }

    /// Folds the next snapshot's returned ID set.
    pub fn fold(&mut self, id_set: &HashSet<VideoId>) {
        self.presence.fold(id_set);
    }

    /// The transition counts accumulated so far (to be pooled across
    /// topics for Figure 3; `u64` counts merge exactly in any order).
    pub fn chain(&self) -> &MarkovChain2 {
        self.presence.chain()
    }

    /// Serializes accumulator state for a checkpoint: the fold count,
    /// the chain's eight transition counts in `State2::ALL` order, then
    /// every key's carried presence.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.presence.folds());
        let chain = self.presence.chain();
        for &state in &State2::ALL {
            w.put_u64(chain.count(state, true));
            w.put_u64(chain.count(state, false));
        }
        w.put_count(self.presence.keys());
        for (key, prev2, prev1) in self.presence.entries() {
            w.put_str(key.as_str());
            w.put_opt_bool(prev2);
            w.put_bool(prev1);
        }
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(r: &mut Reader<'_>) -> wire::Result<AttritionAccumulator> {
        let folds = r.u64()?;
        let mut chain = MarkovChain2::new();
        for &state in &State2::ALL {
            let present = r.u64()?;
            let absent = r.u64()?;
            chain.record(state, true, present);
            chain.record(state, false, absent);
        }
        let entries = r.list(|r| Ok((VideoId::new(r.str()?), r.opt_bool()?, r.bool()?)))?;
        Ok(AttritionAccumulator {
            presence: PresenceAccumulator::from_parts(folds, entries, chain),
        })
    }
}

/// Finalizes a chain pooled over every topic into Figure 3.
pub fn figure3_from_chain(chain: &MarkovChain2) -> Option<Figure3> {
    let transitions = chain.transition_matrix().ok()?;
    let mut counts = [0u64; 4];
    for (i, &state) in State2::ALL.iter().enumerate() {
        counts[i] = chain.total(state);
    }
    Some(Figure3 {
        transitions,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use crate::collect::{Collector, CollectorConfig};
    use crate::testutil::test_client;
    use crate::Analyzer;
    use ytaudit_types::Topic;

    #[test]
    fn rolling_window_signature_emerges() {
        let (client, _service) = test_client(0.3);
        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Blm, Topic::Grammys], 5)
        };
        let dataset = Collector::new(&client, config).run().unwrap();
        let fig3 = Analyzer::analyze_dataset(&dataset)
            .figure3
            .expect("enough transitions observed");
        // Rows are probability distributions.
        for row in fig3.transitions {
            assert!((row[0] + row[1] - 1.0).abs() < 1e-9);
        }
        // The paper's signature: presence and absence both persist, and
        // more strongly when the two previous states agree.
        assert!(
            fig3.p_stay_present() > 0.6,
            "P(P|PP) = {}",
            fig3.p_stay_present()
        );
        assert!(
            fig3.p_stay_absent() > 0.6,
            "P(A|AA) = {}",
            fig3.p_stay_absent()
        );
        // First-order dominance (robust even at small snapshot counts):
        // presence in the immediately previous snapshot predicts presence
        // next, regardless of the older state.
        let p_after_present = fig3.transitions[0][0].min(fig3.transitions[2][0]);
        let p_after_absent = fig3.transitions[1][0].max(fig3.transitions[3][0]);
        assert!(
            p_after_present > p_after_absent,
            "P(P|·P) {p_after_present} must exceed P(P|·A) {p_after_absent}"
        );
        // The second-order refinement (PP stickier than AP, AA stickier
        // than PA) needs the full 16-snapshot run to estimate reliably —
        // a short test collection leaves the mixed histories with a
        // handful of transitions. It is asserted in the integration test
        // over a longer schedule and reported by the fig3 bench binary.
        // All four histories were observed.
        assert!(fig3.counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn too_few_snapshots_yield_none() {
        let (client, _service) = test_client(0.05);
        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Higgs], 2)
        };
        let dataset = Collector::new(&client, config).run().unwrap();
        // Two snapshots → no 3-windows → unobserved states → None.
        assert!(Analyzer::analyze_dataset(&dataset).figure3.is_none());
    }
}
