//! Markov-chain estimation over presence/absence sequences.
//!
//! The paper's attrition analysis (Figure 3) models whether a video is
//! Present (P) or Absent (A) in each collection snapshot as a second-order
//! Markov chain: the probability of the next state is estimated from the
//! two most recent states, sliding a window across every video's 16-long
//! presence sequence, pooled over all topics.

// ytlint: allow-file(indexing) — transition counts are fixed [[u64; 2]; 4]
// tables and windows(3) slices; literal indices are in bounds by construction

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// A two-snapshot history `(previous, current)`; `true` = present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct State2 {
    /// Presence two snapshots ago.
    pub prev: bool,
    /// Presence in the most recent snapshot.
    pub curr: bool,
}

impl State2 {
    /// All four histories in the paper's display order: PP, PA, AP, AA.
    pub const ALL: [State2; 4] = [
        State2 {
            prev: true,
            curr: true,
        },
        State2 {
            prev: true,
            curr: false,
        },
        State2 {
            prev: false,
            curr: true,
        },
        State2 {
            prev: false,
            curr: false,
        },
    ];

    fn index(self) -> usize {
        (usize::from(!self.prev) << 1) | usize::from(!self.curr)
    }
}

impl fmt::Display for State2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = |b: bool| if b { 'P' } else { 'A' };
        write!(f, "{}{}", c(self.prev), c(self.curr))
    }
}

/// A fitted second-order Markov chain over presence/absence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain2 {
    /// counts[state][next]: next = 0 for Present, 1 for Absent.
    counts: [[u64; 2]; 4],
}

impl MarkovChain2 {
    /// An empty (zero-count) chain.
    pub fn new() -> MarkovChain2 {
        MarkovChain2 {
            counts: [[0; 2]; 4],
        }
    }

    /// Adds one presence/absence sequence, sliding a window of three
    /// states across it. Sequences shorter than 3 contribute nothing.
    pub fn add_sequence(&mut self, presence: &[bool]) {
        for window in presence.windows(3) {
            let state = State2 {
                prev: window[0],
                curr: window[1],
            };
            let next_present = window[2];
            self.counts[state.index()][usize::from(!next_present)] += 1;
        }
    }

    /// Records `n` transitions `state → next_present` directly — the
    /// incremental form used by [`PresenceAccumulator`], which folds
    /// presence sets snapshot-by-snapshot instead of replaying whole
    /// sequences.
    pub fn record(&mut self, state: State2, next_present: bool, n: u64) {
        self.counts[state.index()][usize::from(!next_present)] += n;
    }

    /// Total transitions observed from `state`.
    pub fn total(&self, state: State2) -> u64 {
        self.counts[state.index()].iter().sum()
    }

    /// P(next = Present | state), or an error if the state was never
    /// observed.
    pub fn p_present(&self, state: State2) -> Result<f64> {
        let total = self.total(state);
        if total == 0 {
            return Err(StatsError::InvalidInput(format!(
                "no transitions observed from state {state}"
            )));
        }
        Ok(self.counts[state.index()][0] as f64 / total as f64)
    }

    /// P(next = Absent | state).
    pub fn p_absent(&self, state: State2) -> Result<f64> {
        Ok(1.0 - self.p_present(state)?)
    }

    /// The full 4×2 transition matrix in `State2::ALL` order; each row is
    /// `[P(next=P), P(next=A)]`.
    pub fn transition_matrix(&self) -> Result<[[f64; 2]; 4]> {
        let mut out = [[0.0; 2]; 4];
        for (row, &state) in State2::ALL.iter().enumerate() {
            out[row][0] = self.p_present(state)?;
            out[row][1] = 1.0 - out[row][0];
        }
        Ok(out)
    }

    /// Merges another chain's counts into this one (pooling across
    /// topics).
    pub fn merge(&mut self, other: &MarkovChain2) {
        for s in 0..4 {
            for n in 0..2 {
                self.counts[s][n] += other.counts[s][n];
            }
        }
    }

    /// Raw count of transitions `state → next_present`.
    pub fn count(&self, state: State2, next_present: bool) -> u64 {
        self.counts[state.index()][usize::from(!next_present)]
    }
}

impl Default for MarkovChain2 {
    fn default() -> MarkovChain2 {
        MarkovChain2::new()
    }
}

/// Per-key presence history carried between folds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PresenceState {
    /// Presence two folds ago, once known.
    prev2: Option<bool>,
    /// Presence in the most recent fold.
    prev1: bool,
}

/// Streaming second-order transition counter: fold the set of keys
/// present at each snapshot, in order, and the accumulator maintains
/// exactly the counts [`MarkovChain2::add_sequence`] would produce over
/// the full presence sequences — without ever materializing them.
///
/// A key first seen at fold `t` is retroactively treated as absent in
/// folds `0..t` (the batch convention: presence sequences span every
/// snapshot), which contributes `t − 2` AA→A transitions and one AA→P
/// transition. All state is integer counts plus two booleans per key, so
/// the equivalence with the batch path is exact, not approximate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresenceAccumulator<K: Ord> {
    folds: u64,
    states: BTreeMap<K, PresenceState>,
    chain: MarkovChain2,
}

impl<K: Ord + Eq + Hash + Clone> PresenceAccumulator<K> {
    /// An empty accumulator.
    pub fn new() -> PresenceAccumulator<K> {
        PresenceAccumulator {
            folds: 0,
            states: BTreeMap::new(),
            chain: MarkovChain2::new(),
        }
    }

    /// Folds the presence set of the next snapshot.
    pub fn fold(&mut self, present: &HashSet<K>) {
        let t = self.folds;
        // Advance every known key, recording a transition once two prior
        // states are known.
        for (key, state) in &mut self.states {
            let next = present.contains(key);
            if let Some(prev2) = state.prev2 {
                self.chain.record(
                    State2 {
                        prev: prev2,
                        curr: state.prev1,
                    },
                    next,
                    1,
                );
            }
            state.prev2 = Some(state.prev1);
            state.prev1 = next;
        }
        // Register newly seen keys, back-filling their absent prefix.
        for key in present {
            if self.states.contains_key(key) {
                continue;
            }
            let state = if t == 0 {
                PresenceState {
                    prev2: None,
                    prev1: true,
                }
            } else {
                if t >= 2 {
                    let aa = State2 {
                        prev: false,
                        curr: false,
                    };
                    self.chain.record(aa, false, t - 2);
                    self.chain.record(aa, true, 1);
                }
                PresenceState {
                    prev2: Some(false),
                    prev1: true,
                }
            };
            self.states.insert(key.clone(), state);
        }
        self.folds += 1;
    }

    /// Number of snapshots folded so far.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Number of distinct keys seen so far.
    pub fn keys(&self) -> usize {
        self.states.len()
    }

    /// The transition counts accumulated so far.
    pub fn chain(&self) -> &MarkovChain2 {
        &self.chain
    }

    /// Per-key carried state `(key, presence two folds ago, most recent
    /// presence)` — for checkpointing.
    pub fn entries(&self) -> impl Iterator<Item = (&K, Option<bool>, bool)> {
        self.states.iter().map(|(k, s)| (k, s.prev2, s.prev1))
    }

    /// Rebuilds an accumulator from [`PresenceAccumulator::entries`]
    /// output plus the fold count and accumulated chain.
    pub fn from_parts(
        folds: u64,
        entries: impl IntoIterator<Item = (K, Option<bool>, bool)>,
        chain: MarkovChain2,
    ) -> PresenceAccumulator<K> {
        PresenceAccumulator {
            folds,
            states: entries
                .into_iter()
                .map(|(k, prev2, prev1)| (k, PresenceState { prev2, prev1 }))
                .collect(),
            chain,
        }
    }
}

impl<K: Ord + Eq + Hash + Clone> Default for PresenceAccumulator<K> {
    fn default() -> PresenceAccumulator<K> {
        PresenceAccumulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PP: State2 = State2 {
        prev: true,
        curr: true,
    };
    const PA: State2 = State2 {
        prev: true,
        curr: false,
    };
    const AP: State2 = State2 {
        prev: false,
        curr: true,
    };
    const AA: State2 = State2 {
        prev: false,
        curr: false,
    };

    #[test]
    fn counts_sliding_windows() {
        let mut chain = MarkovChain2::new();
        // Sequence P P A P: windows (P,P→A), (P,A→P).
        chain.add_sequence(&[true, true, false, true]);
        assert_eq!(chain.count(PP, false), 1);
        assert_eq!(chain.count(PA, true), 1);
        assert_eq!(chain.total(AA), 0);
        assert_eq!(chain.total(PP), 1);
    }

    #[test]
    fn probabilities_from_known_counts() {
        let mut chain = MarkovChain2::new();
        // P P P P: three windows, all PP→P.
        chain.add_sequence(&[true, true, true, true, true]);
        assert_eq!(chain.p_present(PP).unwrap(), 1.0);
        // Mix in one PP→A.
        chain.add_sequence(&[true, true, false]);
        assert!((chain.p_present(PP).unwrap() - 0.75).abs() < 1e-12);
        assert!((chain.p_absent(PP).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rows_sum_to_one() {
        let mut chain = MarkovChain2::new();
        // A sequence covering all four histories.
        chain.add_sequence(&[true, true, false, false, true, false, true, true, true]);
        chain.add_sequence(&[false, false, false, true, true, false]);
        let matrix = chain.transition_matrix().unwrap();
        for row in matrix {
            assert!((row[0] + row[1] - 1.0).abs() < 1e-12);
            assert!(row[0] >= 0.0 && row[0] <= 1.0);
        }
    }

    #[test]
    fn unobserved_state_errors() {
        let chain = MarkovChain2::new();
        assert!(chain.p_present(PP).is_err());
        assert!(chain.transition_matrix().is_err());
    }

    #[test]
    fn short_sequences_contribute_nothing() {
        let mut chain = MarkovChain2::new();
        chain.add_sequence(&[]);
        chain.add_sequence(&[true]);
        chain.add_sequence(&[true, false]);
        for state in State2::ALL {
            assert_eq!(chain.total(state), 0);
        }
    }

    #[test]
    fn merge_pools_counts() {
        let mut a = MarkovChain2::new();
        a.add_sequence(&[true, true, true]);
        let mut b = MarkovChain2::new();
        b.add_sequence(&[true, true, false]);
        a.merge(&b);
        assert_eq!(a.total(PP), 2);
        assert!((a.p_present(PP).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_matches_add_sequence() {
        let mut via_seq = MarkovChain2::new();
        via_seq.add_sequence(&[true, true, false, true]);
        let mut via_record = MarkovChain2::new();
        via_record.record(PP, false, 1);
        via_record.record(PA, true, 1);
        assert_eq!(via_seq, via_record);
    }

    #[test]
    fn presence_accumulator_matches_sequence_replay() {
        // Presence matrix: rows are snapshots, columns are keys. Key "c"
        // first appears at snapshot 3 to exercise the absent back-fill.
        let rows: [&[&str]; 5] = [&["a", "b"], &["a"], &["a", "b"], &["b", "c"], &["a", "c"]];
        let keys = ["a", "b", "c"];
        let mut acc = PresenceAccumulator::new();
        for row in rows {
            let present: HashSet<&str> = row.iter().copied().collect();
            acc.fold(&present);
        }
        let mut batch = MarkovChain2::new();
        for key in keys {
            let seq: Vec<bool> = rows.iter().map(|row| row.contains(&key)).collect();
            batch.add_sequence(&seq);
        }
        assert_eq!(acc.chain(), &batch);
        assert_eq!(acc.folds(), 5);
        assert_eq!(acc.keys(), 3);
    }

    #[test]
    fn persistence_shows_up_as_sticky_probabilities() {
        // A "rolling window" style sequence: long runs of presence and
        // absence — the paper's Figure-3 signature.
        let mut chain = MarkovChain2::new();
        let mut seq = Vec::new();
        for block in 0..8 {
            let value = block % 2 == 0;
            seq.extend(std::iter::repeat_n(value, 8));
        }
        chain.add_sequence(&seq);
        // Same-state histories strongly predict staying.
        assert!(chain.p_present(PP).unwrap() > 0.8);
        assert!(chain.p_absent(AA).unwrap() > 0.8);
        assert_eq!(format!("{PP}"), "PP");
        assert_eq!(format!("{AP}"), "AP");
    }
}
