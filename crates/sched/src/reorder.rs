//! The reorder buffer: workers complete `(topic, snapshot)` pairs in
//! whatever order the pool happens to finish them, but the sink must see
//! commits in plan order — that is what keeps `--store --resume`
//! semantics intact and the committed byte stream identical to the
//! sequential collector's. The buffer holds out-of-order completions and
//! releases the longest contiguous plan-order run on every offer.

use std::collections::BTreeMap;

/// A plan-order reorder buffer over sequence numbers `0..len`.
///
/// Slots marked as skipped (pairs already committed by a previous,
/// resumed run) are passed over automatically; everything else must be
/// offered exactly once.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    skip: Vec<bool>,
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> ReorderBuffer<T> {
    /// A buffer over `skip.len()` sequence slots; `skip[i] = true` marks
    /// slot `i` as already delivered (a resumed pair).
    pub fn new(skip: Vec<bool>) -> ReorderBuffer<T> {
        let mut buffer = ReorderBuffer {
            skip,
            next: 0,
            pending: BTreeMap::new(),
        };
        buffer.advance();
        buffer
    }

    fn advance(&mut self) {
        while self.next < self.skip.len() && self.skip[self.next] {
            self.next += 1;
        }
    }

    /// Accepts the completion of slot `seq` and returns every item that
    /// is now deliverable, in plan order. Returns an empty vec while the
    /// head of the plan is still outstanding.
    pub fn offer(&mut self, seq: usize, item: T) -> Vec<(usize, T)> {
        debug_assert!(
            seq < self.skip.len() && !self.skip[seq],
            "seq {seq} not expected"
        );
        self.pending.insert(seq, item);
        let mut released = Vec::new();
        while let Some(item) = self.pending.remove(&self.next) {
            released.push((self.next, item));
            self.next += 1;
            self.advance();
        }
        released
    }

    /// The next plan-order slot still awaited (`len` when drained).
    pub fn next_seq(&self) -> usize {
        self.next
    }

    /// Completions held back waiting for earlier slots.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether every non-skipped slot has been delivered.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.next >= self.skip.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_types::kit::Rng;

    fn deliveries(skip: Vec<bool>, order: &[usize]) -> Vec<usize> {
        let mut buffer = ReorderBuffer::new(skip);
        let mut out = Vec::new();
        for &seq in order {
            for (released, value) in buffer.offer(seq, seq) {
                assert_eq!(released, value);
                out.push(released);
            }
        }
        assert!(buffer.is_drained());
        out
    }

    #[test]
    fn in_order_offers_release_immediately() {
        assert_eq!(deliveries(vec![false; 4], &[0, 1, 2, 3]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reverse_order_releases_everything_at_the_end() {
        let mut buffer = ReorderBuffer::new(vec![false; 4]);
        assert!(buffer.offer(3, 3).is_empty());
        assert!(buffer.offer(2, 2).is_empty());
        assert!(buffer.offer(1, 1).is_empty());
        assert_eq!(buffer.pending_len(), 3);
        let released: Vec<usize> = buffer.offer(0, 0).into_iter().map(|(s, _)| s).collect();
        assert_eq!(released, vec![0, 1, 2, 3]);
        assert!(buffer.is_drained());
    }

    #[test]
    fn skipped_slots_are_passed_over() {
        // Slots 0 and 2 were committed by a previous run.
        assert_eq!(
            deliveries(vec![true, false, true, false], &[3, 1]),
            vec![1, 3]
        );
        // All slots skipped: drained from the start.
        let buffer: ReorderBuffer<()> = ReorderBuffer::new(vec![true; 5]);
        assert!(buffer.is_drained());
    }

    #[test]
    fn every_random_permutation_delivers_in_plan_order() {
        // Property: whatever completion order the worker pool produces,
        // delivery is exactly plan order. 200 seeded shuffles of a
        // 17-slot plan with a couple of resumed slots.
        let mut rng = Rng::new(0x5EED);
        for round in 0..200 {
            let n = 17;
            let skip: Vec<bool> = (0..n).map(|i| i % 7 == 3 && round % 2 == 0).collect();
            let mut order: Vec<usize> = (0..n).filter(|&i| !skip[i]).collect();
            // Fisher–Yates with the deterministic PRNG.
            for i in (1..order.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let expected: Vec<usize> = (0..n).filter(|&i| !skip[i]).collect();
            assert_eq!(deliveries(skip, &order), expected, "round {round}");
        }
    }
}
