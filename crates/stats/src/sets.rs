//! Set similarity — the workhorse of the paper's consistency analysis.
//!
//! The audit compares the video-ID sets returned by identical queries made
//! at different times using Jaccard similarity (Figure 1), and reports the
//! two one-sided set differences as "error bars": `S_{t−1} − S_t` (videos
//! that dropped out) and `S_t − S_{t−1}` (videos that dropped in). The
//! latter is the paper's proof that deletions alone cannot explain the
//! inconsistency — deleted videos can leave a set, but a *historical* query
//! should never gain videos it did not return before.

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Arc;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`. Two empty sets are defined as
/// similarity 1 (identical), matching the convention the paper uses before
/// it drops all-empty hours from Table 2.
pub fn jaccard<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    jaccard_of_counts(a.len(), b.len(), a.intersection(b).count())
}

/// Jaccard similarity from set sizes and the intersection size — the one
/// formula behind [`jaccard`], for callers that count the intersection
/// without materializing either set. Two empty sets give 1.
pub fn jaccard_of_counts(a_len: usize, b_len: usize, intersection: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    intersection as f64 / (a_len + b_len - intersection) as f64
}

/// `|A ∩ B|` of two ascending, duplicate-free slices, by one merge pass:
/// no hashing and no allocation.
pub fn sorted_intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The two one-sided set differences `(|A − B|, |B − A|)` — the "error
/// bars" of Figure 1 with `A = S_{t−1}` and `B = S_t`.
pub fn set_differences<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> (usize, usize) {
    let a_minus_b = a.difference(b).count();
    let b_minus_a = b.difference(a).count();
    (a_minus_b, b_minus_a)
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` — used in the Appendix-B
/// style coverage comparisons where one set is a subset query of another.
pub fn overlap_coefficient<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let intersection = a.intersection(b).count();
    intersection as f64 / a.len().min(b.len()) as f64
}

/// Fraction of `a`'s elements also present in `b` (`|A ∩ B| / |A|`) — the
/// "percentage of videos for which metadata is returned" of Figure 4.
/// Returns 1.0 for empty `a`.
pub fn coverage<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    a.intersection(b).count() as f64 / a.len() as f64
}

/// The similarity measurements produced by one [`OverlapAccumulator::fold`]
/// — the streaming form of a Figure-1 point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapStep {
    /// `J(Sₜ, Sₜ₋₁)`; 1.0 for the first fold.
    pub jaccard_prev: f64,
    /// `J(Sₜ, S₀)`.
    pub jaccard_first: f64,
    /// `|Sₜ₋₁ − Sₜ|` — elements that dropped out since the previous fold.
    pub dropped_out: usize,
    /// `|Sₜ − Sₜ₋₁|` — elements that dropped in since the previous fold.
    pub dropped_in: usize,
}

/// Streaming set-overlap accumulator: folds a sequence of sets and
/// reports, per fold, the Jaccard similarity against the previous and the
/// first set plus the one-sided differences. Holds only the first and the
/// most recent set — O(|S|) state regardless of how many folds arrive.
///
/// Folds are inherently ordered (each step is relative to the previous
/// set), so unlike the count-based accumulators this one has no `merge`.
/// Sets are held behind an [`Arc`], so a caller that also keeps the set
/// elsewhere shares it instead of cloning it.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapAccumulator<T: Eq + Hash> {
    first: Arc<HashSet<T>>,
    prev: Arc<HashSet<T>>,
    folds: u64,
}

impl<T: Eq + Hash> OverlapAccumulator<T> {
    /// An empty accumulator (no sets folded yet).
    pub fn new() -> OverlapAccumulator<T> {
        OverlapAccumulator {
            first: Arc::new(HashSet::new()),
            prev: Arc::new(HashSet::new()),
            folds: 0,
        }
    }

    /// Folds the next set in the sequence and reports its similarity step.
    /// One intersection count against the previous set yields both
    /// one-sided differences, since `|Sₜ₋₁ − Sₜ| = |Sₜ₋₁| − |Sₜ₋₁ ∩ Sₜ|`.
    pub fn fold(&mut self, set: impl Into<Arc<HashSet<T>>>) -> OverlapStep {
        let set = set.into();
        if self.folds == 0 {
            self.first = Arc::clone(&set);
        }
        let shared_first = set.intersection(&self.first).count();
        let jaccard_first = jaccard_of_counts(set.len(), self.first.len(), shared_first);
        let step = if self.folds == 0 {
            OverlapStep {
                jaccard_prev: 1.0,
                jaccard_first,
                dropped_out: 0,
                dropped_in: 0,
            }
        } else {
            let shared_prev = set.intersection(&self.prev).count();
            OverlapStep {
                jaccard_prev: jaccard_of_counts(set.len(), self.prev.len(), shared_prev),
                jaccard_first,
                dropped_out: self.prev.len() - shared_prev,
                dropped_in: set.len() - shared_prev,
            }
        };
        self.prev = set;
        self.folds += 1;
        step
    }

    /// Number of sets folded so far.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// The first set folded (empty before the first fold).
    pub fn first(&self) -> &HashSet<T> {
        &self.first
    }

    /// The most recent set folded (empty before the first fold).
    pub fn last(&self) -> &HashSet<T> {
        &self.prev
    }

    /// Rebuilds an accumulator from checkpointed state: the first set,
    /// the most recent set, and the number of folds so far.
    pub fn from_parts(first: HashSet<T>, prev: HashSet<T>, folds: u64) -> OverlapAccumulator<T> {
        OverlapAccumulator {
            first: Arc::new(first),
            prev: Arc::new(prev),
            folds,
        }
    }
}

impl<T: Eq + Hash> Default for OverlapAccumulator<T> {
    fn default() -> OverlapAccumulator<T> {
        OverlapAccumulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_known_values() {
        let a = set(&["a", "b", "c"]);
        let b = set(&["b", "c", "d"]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &set(&[])), 0.0);
        assert_eq!(jaccard::<String>(&HashSet::new(), &HashSet::new()), 1.0);
    }

    #[test]
    fn jaccard_is_symmetric() {
        let a = set(&["x", "y"]);
        let b = set(&["y", "z", "w"]);
        assert_eq!(jaccard(&a, &b), jaccard(&b, &a));
    }

    #[test]
    fn paper_observation_46_percent_shared() {
        // The paper: Jaccard ≈ 0.3 ⇒ only ~46% of videos per set shared.
        // With |A| = |B| = n and intersection i: J = i/(2n−i) = 0.3
        // ⇒ i ≈ 0.4615 n.
        let n = 1000;
        let shared = 462;
        let a: HashSet<u32> = (0..n).collect();
        let b: HashSet<u32> = (0..shared).chain(n..(2 * n - shared)).collect();
        let j = jaccard(&a, &b);
        assert!((j - 0.3).abs() < 0.01, "J = {j}");
    }

    #[test]
    fn sorted_merge_counts_match_hashing() {
        let cases: [(&[u32], &[u32]); 5] = [
            (&[], &[]),
            (&[1, 2, 3], &[]),
            (&[1, 3, 5], &[2, 4, 6]),
            (&[1, 2, 3, 7], &[2, 3, 4, 7, 9]),
            (&[4], &[4]),
        ];
        for (a, b) in cases {
            let (ha, hb): (HashSet<u32>, HashSet<u32>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let shared = sorted_intersection_len(a, b);
            assert_eq!(shared, ha.intersection(&hb).count());
            assert_eq!(
                jaccard_of_counts(a.len(), b.len(), shared),
                jaccard(&ha, &hb)
            );
        }
    }

    #[test]
    fn set_differences_both_directions() {
        let prev = set(&["a", "b", "c", "d"]);
        let curr = set(&["c", "d", "e"]);
        let (dropped_out, dropped_in) = set_differences(&prev, &curr);
        assert_eq!(dropped_out, 2); // a, b left
        assert_eq!(dropped_in, 1); // e appeared
    }

    #[test]
    fn overlap_accumulator_matches_batch_formulas() {
        let seq = [
            set(&["a", "b", "c", "d"]),
            set(&["c", "d", "e"]),
            set(&["a", "c", "e"]),
        ];
        let mut acc = OverlapAccumulator::new();
        let steps: Vec<OverlapStep> = seq.iter().cloned().map(|s| acc.fold(s)).collect();
        assert_eq!(steps[0].jaccard_prev, 1.0);
        assert_eq!(steps[0].jaccard_first, 1.0);
        assert_eq!((steps[0].dropped_out, steps[0].dropped_in), (0, 0));
        for (i, step) in steps.iter().enumerate().skip(1) {
            let (out, into) = set_differences(&seq[i - 1], &seq[i]);
            assert_eq!(step.dropped_out, out);
            assert_eq!(step.dropped_in, into);
            assert_eq!(step.jaccard_prev, jaccard(&seq[i], &seq[i - 1]));
            assert_eq!(step.jaccard_first, jaccard(&seq[i], &seq[0]));
        }
        assert_eq!(acc.folds(), 3);
        assert_eq!(acc.first(), &seq[0]);
        assert_eq!(acc.last(), &seq[2]);
    }

    #[test]
    fn overlap_and_coverage() {
        let a = set(&["a", "b"]);
        let b = set(&["a", "b", "c", "d"]);
        assert_eq!(overlap_coefficient(&a, &b), 1.0);
        assert_eq!(coverage(&a, &b), 1.0);
        assert_eq!(coverage(&b, &a), 0.5);
        assert_eq!(coverage::<String>(&HashSet::new(), &a), 1.0);
        assert_eq!(overlap_coefficient(&set(&[]), &a), 0.0);
    }
}
