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
    pub fn push(&mut self, record: StageRecord) {
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

    /// The most recent `n` records, oldest first.
    #[must_use]
    pub fn last(&self, n: usize) -> Vec<StageRecord> {
        let (older, newer) = self.halves();
        let take = n.min(self.records.len());
        let mut out = Vec::with_capacity(take);
        match take.checked_sub(newer.len()) {
            None => out.extend_from_slice(&newer[newer.len() - take..]),
            Some(from_older) => {
                out.extend_from_slice(&older[older.len() - from_older..]);
                out.extend_from_slice(newer);
            }
        }
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
    fn last_n_clamps() {
        let mut r = TraceRing::new(4);
        for c in 0..2 {
            r.push(rec(c));
        }
        assert_eq!(r.last(10).len(), 2);
        assert_eq!(r.last(1)[0].cycle, 1);
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
        fn last_equals_the_tail_of_iter(
            capacity in 1usize..40,
            before_clear in 0u64..100,
            pushes in 0u64..100,
            clear in any::<bool>(),
            n in 0usize..50,
        ) {
            // `pushed` is everything pushed since the last clear: the ring
            // must hold its newest `capacity` records.
            let mut r = TraceRing::new(capacity);
            let mut pushed = Vec::new();
            for c in 0..before_clear {
                r.push(rec(c));
                pushed.push(rec(c));
            }
            if clear {
                r.clear();
                pushed.clear();
            }
            for c in 0..pushes {
                r.push(rec(1000 + c));
                pushed.push(rec(1000 + c));
            }
            let held: Vec<StageRecord> = r.iter().copied().collect();
            prop_assert_eq!(&held[..], &pushed[pushed.len().saturating_sub(capacity)..]);
            let take = n.min(r.len());
            let tail: Vec<StageRecord> = r.iter().skip(r.len() - take).copied().collect();
            prop_assert_eq!(r.last(n), tail);
        }
    }

    #[test]
    #[should_panic(expected = "trace ring needs capacity")]
    fn zero_capacity_panics() {
        let _ = TraceRing::new(0);
    }
}
