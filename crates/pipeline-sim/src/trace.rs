//! Stage I/O traces: the raw material for R2D3's checkers.
//!
//! During execution every stage operation appends a record with the
//! operation's input signature and its *golden* (fault-free) output. The
//! R2D3 detection machinery replays a window of these records on a
//! leftover stage and compares outputs through the inter-stage checkers;
//! since every stage's actual output is `effect(golden)` for that stage's
//! (possibly absent) fault effect, comparisons between any two stages can
//! be reconstructed from the golden trace — exactly the information the
//! vertical buses give the paper's detection circuitry.

/// One stage operation: input signature, golden output and the output the
/// stage actually produced (differs from golden when a permanent fault
/// manifested or a transient flipped it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    /// Pipeline-local cycle at which the operation retired.
    pub cycle: u64,
    /// Hash of the operation's inputs (operands, PC, …).
    pub input_sig: u64,
    /// Fault-free output word of the stage for this operation.
    pub golden_output: u32,
    /// Output the physical stage actually produced.
    pub actual_output: u32,
}

/// Fixed-capacity ring buffer of [`StageRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRing {
    capacity: usize,
    records: Vec<StageRecord>,
    next: usize,
    total: u64,
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity");
        TraceRing { capacity, records: Vec::with_capacity(capacity), next: 0, total: 0 }
    }

    /// Appends a record, evicting the oldest when full.
    ///
    /// Stamps must not decrease in push order (debug-asserted):
    /// [`last_since`](Self::last_since) relies on it.
    pub fn push(&mut self, record: StageRecord) {
        debug_assert!(
            self.newest().is_none_or(|newest| newest.cycle <= record.cycle),
            "trace stamps must not decrease: {record:?} after {:?}",
            self.newest()
        );
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.next] = record;
        }
        self.next += 1;
        if self.next == self.capacity {
            self.next = 0;
        }
        self.total += 1;
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever pushed.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// The held records as two slices, oldest first: the first runs from
    /// the oldest record to the end of storage, the second wraps round.
    fn halves(&self) -> (&[StageRecord], &[StageRecord]) {
        let split = if self.records.len() < self.capacity { 0 } else { self.next };
        let (newer, older) = self.records.split_at(split);
        (older, newer)
    }

    /// Iterates records from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &StageRecord> {
        let (older, newer) = self.halves();
        older.iter().chain(newer)
    }

    /// The most recently pushed record.
    fn newest(&self) -> Option<&StageRecord> {
        let index = if self.next == 0 { self.records.len().checked_sub(1)? } else { self.next - 1 };
        self.records.get(index)
    }

    /// The most recent `n` records stamped at or after cycle `since`,
    /// oldest first.
    ///
    /// Stamps never decrease in push order, so the kept records are a
    /// suffix of the newest `n`, and each storage half of those is sorted
    /// by stamp: a binary search in each finds where its part of the
    /// suffix starts, and only the suffix is copied, into a `Vec` of
    /// exactly its length.
    #[must_use]
    pub fn last_since(&self, n: usize, since: u64) -> Vec<StageRecord> {
        let (older, newer) = self.halves();
        let take = n.min(self.records.len());
        let (older, newer) = match take.checked_sub(newer.len()) {
            None => (&older[..0], &newer[newer.len() - take..]),
            Some(from_older) => (&older[older.len() - from_older..], newer),
        };
        let before = |record: &StageRecord| record.cycle < since;
        let older = &older[older.partition_point(before)..];
        let newer = &newer[newer.partition_point(before)..];
        let mut out = Vec::with_capacity(older.len() + newer.len());
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
        out
    }

    /// Drops all records (e.g. after a repair-triggered re-execution).
    pub fn clear(&mut self) {
        self.records.clear();
        self.next = 0;
    }
}

/// Mixes operation inputs into a compact signature (FNV-1a over words).
#[must_use]
pub fn input_signature(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= u64::from(w);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(cycle: u64) -> StageRecord {
        StageRecord {
            cycle,
            input_sig: cycle * 7,
            golden_output: cycle as u32,
            actual_output: cycle as u32,
        }
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut r = TraceRing::new(4);
        for c in 0..3 {
            r.push(rec(c));
        }
        let cycles: Vec<u64> = r.iter().map(|x| x.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn wraps_and_keeps_newest() {
        let mut r = TraceRing::new(3);
        for c in 0..7 {
            r.push(rec(c));
        }
        let cycles: Vec<u64> = r.iter().map(|x| x.cycle).collect();
        assert_eq!(cycles, vec![4, 5, 6]);
        assert_eq!(r.total_pushed(), 7);
    }

    #[test]
    fn last_since_clamps_and_filters() {
        let mut r = TraceRing::new(4);
        for c in 0..2 {
            r.push(rec(c));
        }
        assert_eq!(r.last_since(10, 0).len(), 2);
        assert_eq!(r.last_since(1, 0)[0].cycle, 1);
        assert_eq!(r.last_since(10, 1), vec![rec(1)]);
        assert!(r.last_since(10, 2).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "trace stamps must not decrease")]
    fn decreasing_stamp_is_refused() {
        let mut r = TraceRing::new(4);
        r.push(rec(5));
        r.push(rec(4));
    }

    #[test]
    fn clear_resets() {
        let mut r = TraceRing::new(2);
        r.push(rec(1));
        r.clear();
        assert!(r.is_empty());
        r.push(rec(2));
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn signature_sensitive_to_order_and_value() {
        assert_ne!(input_signature(&[1, 2]), input_signature(&[2, 1]));
        assert_ne!(input_signature(&[1]), input_signature(&[1, 0]));
        assert_eq!(input_signature(&[5, 6]), input_signature(&[5, 6]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn last_since_equals_the_filtered_tail_of_iter(
            capacity in 1usize..40,
            steps in proptest::collection::vec(0u64..4, 0..100),
            clear_at in 0usize..120,
            n in 0usize..50,
            since_pick in 0u64..1000,
        ) {
            // Stamps start at 5 and rise by 0–3 a push, ties included;
            // `since` falls below every stamp, between them or above
            // them all. `clear_at` past the last push means no clear;
            // `pushed` is everything pushed since the last clear, and the
            // ring must hold its newest `capacity` records.
            let mut r = TraceRing::new(capacity);
            let mut pushed = Vec::new();
            let mut cycle = 5;
            for (i, step) in steps.iter().enumerate() {
                if i == clear_at {
                    r.clear();
                    pushed.clear();
                }
                cycle += step;
                r.push(rec(cycle));
                pushed.push(rec(cycle));
            }
            let held: Vec<StageRecord> = r.iter().copied().collect();
            prop_assert_eq!(&held[..], &pushed[pushed.len().saturating_sub(capacity)..]);
            let since = since_pick % (cycle + 3);
            let take = n.min(r.len());
            let tail = || r.iter().skip(r.len() - take).copied();
            let kept: Vec<StageRecord> = tail().filter(|x| x.cycle >= since).collect();
            prop_assert_eq!(r.last_since(n, since), kept);
            prop_assert_eq!(r.last_since(n, 0), tail().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "trace ring needs capacity")]
    fn zero_capacity_panics() {
        let _ = TraceRing::new(0);
    }
}
