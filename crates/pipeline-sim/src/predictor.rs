//! Branch prediction for the in-order pipeline timing model.
//!
//! The IFU the paper protects contains a branch predictor whose state is
//! among the things forwarded over the vertical buses during leftover
//! warm-up (§III-C). This module provides the timing-model counterpart:
//! a classic 2-bit-counter direction predictor with a direct-mapped BTB.
//! Correctly predicted control flow pays no redirect penalty; mispredicts
//! pay [`crate::pipeline::TimingParams::branch_penalty`].

/// 2-bit saturating counter states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counter {
    StrongNot,
    WeakNot,
    WeakTaken,
    StrongTaken,
}

impl Counter {
    fn taken(self) -> bool {
        matches!(self, Counter::WeakTaken | Counter::StrongTaken)
    }

    fn update(self, taken: bool) -> Counter {
        match (self, taken) {
            (Counter::StrongNot, true) => Counter::WeakNot,
            (Counter::WeakNot, true) => Counter::WeakTaken,
            (Counter::WeakTaken, true) | (Counter::StrongTaken, true) => Counter::StrongTaken,
            (Counter::StrongTaken, false) => Counter::WeakTaken,
            (Counter::WeakTaken, false) => Counter::WeakNot,
            (Counter::WeakNot, false) | (Counter::StrongNot, false) => Counter::StrongNot,
        }
    }
}

/// A bimodal (2-bit counter) predictor with a direct-mapped BTB.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchPredictor {
    counters: Vec<Counter>,
    /// `btb[idx] = (tag, target)`.
    btb: Vec<Option<(u32, u32)>>,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters/BTB slots (rounded up
    /// to a power of two, minimum 16).
    #[must_use]
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(16);
        BranchPredictor {
            counters: vec![Counter::WeakNot; n],
            btb: vec![None; n],
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, pc: u32) -> usize {
        (pc as usize) & (self.counters.len() - 1)
    }

    /// Predicts the next PC for the branch at `pc` (`fallthrough` is
    /// `pc + 1`). Returns the predicted target.
    #[must_use]
    pub fn predict(&self, pc: u32, fallthrough: u32) -> u32 {
        let i = self.index(pc);
        if self.counters[i].taken() {
            if let Some((tag, target)) = self.btb[i] {
                if tag == pc {
                    return target;
                }
            }
        }
        fallthrough
    }

    /// Trains the predictor with the resolved outcome and returns whether
    /// the earlier prediction was correct.
    pub fn resolve(&mut self, pc: u32, fallthrough: u32, actual_target: u32) -> bool {
        let predicted = self.predict(pc, fallthrough);
        let taken = actual_target != fallthrough;
        let i = self.index(pc);
        self.counters[i] = self.counters[i].update(taken);
        if taken {
            self.btb[i] = Some((pc, actual_target));
        }
        self.predictions += 1;
        let correct = predicted == actual_target;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Branches resolved so far.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredictions so far.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Prediction accuracy in `[0, 1]` (1.0 when nothing resolved yet).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Clears all learned state (a swapped-in leftover without warm-up;
    /// with warm-up, the state is forwarded and this is not called).
    pub fn reset(&mut self) {
        self.counters.fill(Counter::WeakNot);
        self.btb.fill(None);
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_loop() {
        let mut p = BranchPredictor::new(16);
        let (pc, fall, target) = (10, 11, 5);
        // First iterations mispredict; after training, all correct.
        for _ in 0..4 {
            p.resolve(pc, fall, target);
        }
        assert_eq!(p.predict(pc, fall), target);
        let before = p.mispredictions();
        for _ in 0..100 {
            assert!(p.resolve(pc, fall, target));
        }
        assert_eq!(p.mispredictions(), before);
        assert!(p.accuracy() > 0.9);
    }

    #[test]
    fn loop_exit_mispredicts_once() {
        let mut p = BranchPredictor::new(16);
        let (pc, fall, target) = (10, 11, 5);
        for _ in 0..8 {
            p.resolve(pc, fall, target);
        }
        assert!(!p.resolve(pc, fall, fall), "exit iteration mispredicts");
        // Hysteresis: one not-taken does not flush the loop behavior.
        assert!(p.resolve(pc, fall, target), "2-bit counter retains the bias");
    }

    #[test]
    fn btb_tag_prevents_aliased_targets() {
        let mut p = BranchPredictor::new(16);
        // Train pc=3 strongly taken to 100.
        for _ in 0..4 {
            p.resolve(3, 4, 100);
        }
        // pc=19 aliases to the same counter (index 3) but has no BTB tag
        // match: prediction must fall through rather than jump to 100.
        assert_eq!(p.predict(19, 20), 20);
    }

    #[test]
    fn reset_forgets() {
        let mut p = BranchPredictor::new(16);
        for _ in 0..4 {
            p.resolve(3, 4, 100);
        }
        p.reset();
        assert_eq!(p.predict(3, 4), 4);
    }
}
