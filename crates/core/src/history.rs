//! Per-stage symptom history with decaying counters and an escalation
//! threshold.
//!
//! The paper's single-replay TMR dichotomy is binary: a symptom either
//! recurs under replay (permanent) or it does not (transient). An
//! *intermittent* fault — a marginal net that fails duty-cycled, e.g.
//! 1-in-N operations — dodges that vote forever: each manifestation is
//! consumed before the replay, so the engine classifies an endless
//! stream of "transients" while the stage keeps corrupting state.
//!
//! This tracker closes the gap. Every transient verdict deposits one
//! symptom unit on the stage's counter; every epoch multiplies all
//! counters by a retain ratio < 1. Genuine one-shot soft errors decay
//! back to zero between (rare, independent) strikes, while a recurring
//! intermittent pumps its counter up a geometric series whose limit
//! `1 / (1 - r^p)` (retain ratio `r`, recurrence period `p` epochs)
//! exceeds the threshold for any duty cycle dense enough to matter.
//! Crossing the threshold *escalates*: the engine quarantines the stage
//! exactly as if the vote had returned permanent.
//!
//! Counters are integers in 1/1024 symptom units and every update is a
//! per-stage multiply-divide, so escalation decisions are deterministic
//! and — because the counters are independent and the decay is a global
//! scalar — insensitive to the order in which interleaved stages report
//! within an epoch (see the property tests).

use r2d3_pipeline_sim::StageId;
use std::collections::HashMap;

/// Fixed-point scale of the symptom counters (1 symptom = 1024).
pub const SYMPTOM_SCALE: u32 = 1024;

/// Escalation policy for recurring transient verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationConfig {
    /// Per-epoch retained fraction of every counter, as `num / den`
    /// (must satisfy `num < den`; e.g. 15/16 keeps ≈ 94 % per epoch,
    /// a half-life of about 11 epochs).
    pub decay_num: u32,
    /// Denominator of the retain ratio.
    pub decay_den: u32,
    /// Score at or above which a stage escalates, in 1/1024 symptom
    /// units ([`SYMPTOM_SCALE`]). Must exceed one symptom, or a single
    /// soft error would quarantine healthy hardware.
    pub threshold: u32,
}

impl Default for EscalationConfig {
    fn default() -> Self {
        // Three symptoms' worth of accumulated evidence, retaining
        // 15/16 per epoch: a 1-in-2-epoch intermittent escalates after
        // 4 recurrences, a 1-in-3 after 4, while isolated soft errors
        // (peak score 1.0) never reach 3.0.
        EscalationConfig { decay_num: 15, decay_den: 16, threshold: 3 * SYMPTOM_SCALE }
    }
}

impl EscalationConfig {
    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::InvalidConfig`] when the retain
    /// ratio is not strictly below one or the threshold does not exceed
    /// a single symptom.
    pub fn validate(&self) -> Result<(), crate::EngineError> {
        if self.decay_den == 0 || self.decay_num >= self.decay_den {
            return Err(crate::EngineError::InvalidConfig(
                "escalation retain ratio must be < 1".into(),
            ));
        }
        if self.threshold <= SYMPTOM_SCALE {
            return Err(crate::EngineError::InvalidConfig(
                "escalation threshold must exceed one symptom".into(),
            ));
        }
        Ok(())
    }
}

/// Decaying per-stage symptom counters (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SymptomHistory {
    scores: HashMap<StageId, u64>,
}

impl SymptomHistory {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        SymptomHistory::default()
    }

    /// Deposits one symptom unit on `stage` and returns whether its
    /// accumulated score now meets the escalation threshold.
    pub fn record(&mut self, stage: StageId, config: &EscalationConfig) -> bool {
        let score = self.scores.entry(stage).or_insert(0);
        *score += u64::from(SYMPTOM_SCALE);
        *score >= u64::from(config.threshold)
    }

    /// Applies one epoch of decay to every counter. Counters that decay
    /// to zero are dropped (a stage with no recurrences accumulates no
    /// state and can never escalate).
    pub fn decay(&mut self, config: &EscalationConfig) {
        let (num, den) = (u64::from(config.decay_num), u64::from(config.decay_den));
        self.scores.retain(|_, score| {
            *score = *score * num / den;
            *score > 0
        });
    }

    /// The current score of a stage, in 1/1024 symptom units.
    #[must_use]
    pub fn score(&self, stage: StageId) -> u64 {
        self.scores.get(&stage).copied().unwrap_or(0)
    }

    /// Clears a stage's counter (after it has been quarantined, its
    /// history no longer matters).
    pub fn forget(&mut self, stage: StageId) {
        self.scores.remove(&stage);
    }

    /// Stages currently holding a nonzero score, sorted for
    /// deterministic iteration.
    #[must_use]
    pub fn tracked(&self) -> Vec<StageId> {
        let mut stages: Vec<StageId> = self.scores.keys().copied().collect();
        stages.sort_unstable();
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use r2d3_isa::Unit;

    fn stage(i: usize) -> StageId {
        StageId::from_flat_index(i % (8 * Unit::COUNT))
    }

    #[test]
    fn single_symptom_never_escalates() {
        let cfg = EscalationConfig::default();
        let mut h = SymptomHistory::new();
        assert!(!h.record(stage(3), &cfg));
        for _ in 0..100 {
            h.decay(&cfg);
        }
        assert_eq!(h.score(stage(3)), 0);
        assert!(h.tracked().is_empty(), "fully decayed counters must be dropped");
    }

    #[test]
    fn dense_recurrence_escalates_and_sparse_does_not() {
        let cfg = EscalationConfig::default();
        // Every 2nd epoch: escalates within a handful of recurrences.
        let mut h = SymptomHistory::new();
        let mut escalated_at = None;
        for epoch in 0..40u32 {
            if epoch % 2 == 0 && h.record(stage(0), &cfg) {
                escalated_at = Some(epoch);
                break;
            }
            h.decay(&cfg);
        }
        assert!(escalated_at.is_some_and(|e| e <= 12), "dense intermittent must escalate");

        // Every 20th epoch: decays to nothing in between, never escalates.
        let mut h = SymptomHistory::new();
        for epoch in 0..200u32 {
            if epoch % 20 == 0 {
                assert!(!h.record(stage(0), &cfg), "sparse strikes must not escalate");
            }
            h.decay(&cfg);
        }
    }

    #[test]
    fn default_config_is_valid_and_bad_ones_are_rejected() {
        EscalationConfig::default().validate().unwrap();
        let bad = EscalationConfig { decay_num: 16, decay_den: 16, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = EscalationConfig { threshold: SYMPTOM_SCALE, ..Default::default() };
        assert!(bad.validate().is_err());
    }

    proptest! {
        /// Decay + threshold escalation is order-insensitive for
        /// interleaved stages: within an epoch, the order in which
        /// different stages report symptoms changes neither the final
        /// scores nor which stages have met the threshold.
        #[test]
        fn escalation_is_order_insensitive(
            epochs in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 0..6), 1..8),
        ) {
            let cfg = EscalationConfig::default();
            let mut forward = SymptomHistory::new();
            let mut reversed = SymptomHistory::new();
            let mut esc_fwd = Vec::new();
            let mut esc_rev = Vec::new();
            for epoch in &epochs {
                for &s in epoch {
                    if forward.record(stage(s), &cfg) {
                        esc_fwd.push(stage(s));
                    }
                }
                for &s in epoch.iter().rev() {
                    if reversed.record(stage(s), &cfg) {
                        esc_rev.push(stage(s));
                    }
                }
                forward.decay(&cfg);
                reversed.decay(&cfg);
            }
            esc_fwd.sort_unstable();
            esc_fwd.dedup();
            esc_rev.sort_unstable();
            esc_rev.dedup();
            prop_assert_eq!(esc_fwd, esc_rev);
            prop_assert_eq!(forward.tracked(), reversed.tracked());
            for s in forward.tracked() {
                prop_assert_eq!(forward.score(s), reversed.score(s));
            }
        }

        /// A stage with zero recorded recurrences is never escalated, no
        /// matter how loudly its neighbours misbehave.
        #[test]
        fn silent_stage_never_escalates(
            noisy in proptest::collection::vec(1usize..12, 0..64),
        ) {
            let cfg = EscalationConfig::default();
            let mut h = SymptomHistory::new();
            for &s in &noisy {
                // Stage 0 never reports; everything else hammers away.
                let _ = h.record(stage(s), &cfg);
                h.decay(&cfg);
            }
            prop_assert_eq!(h.score(stage(0)), 0);
            prop_assert!(!h.tracked().contains(&stage(0)));
        }
    }
}
