//! Engine configuration.

/// R2D3 engine parameters (§III-C and §III-E of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct R2d3Config {
    /// Epoch length in cycles (`T_epoch`): how often each stage is tested.
    pub t_epoch: u64,
    /// Online-test window in cycles (`T_test`): how many recent DUT
    /// operations the leftover re-executes at each epoch boundary. The
    /// paper selects 5 k cycles as the coverage/power sweet spot (§V-B).
    pub t_test: u64,
    /// Calibration window in cycles (`T_cal`): how often the lifetime
    /// policies re-evaluate activity indices and rotate leftovers. The
    /// paper uses 5 ms = 5 M cycles at 1 GHz.
    pub t_cal: u64,
    /// Which rotation policy the engine applies at calibration boundaries.
    pub policy: crate::policy::PolicyKind,
    /// When no leftover of a unit type exists, temporarily suspend another
    /// core to provide the redundant stage (paper: "extremely rare"). If
    /// `false`, the test is skipped for that unit.
    pub suspend_when_no_leftover: bool,
    /// Epoch-committed checkpointing for post-repair recovery; `None`
    /// restarts corrupted programs from the beginning.
    pub checkpoint: Option<crate::checkpoint::CheckpointConfig>,
    /// Decaying symptom-history escalation for intermittent faults: a
    /// stage whose "transient" verdicts recur densely enough is
    /// quarantined as if diagnosed permanent. `None` trusts every
    /// transient verdict forever (the paper's baseline dichotomy).
    pub escalation: Option<crate::history::EscalationConfig>,
    /// How many *additional* third voters the diagnosis tries after an
    /// inconclusive TMR vote before giving up and double-quarantining
    /// the comparison pair. Retries cost one replay each and can tell
    /// a two-fault pair apart when any healthy same-unit stage remains.
    pub inconclusive_retries: u32,
    /// Roll corrupted pipelines back to their last validated checkpoint
    /// after a transient verdict. Without this the engine "classifies
    /// and forgets": the architectural state poisoned by the consumed
    /// upset keeps executing — a silent-corruption hole.
    pub rollback_on_transient: bool,
    /// Compare every crossbar select register against the controller's
    /// routing intent at each epoch boundary and rewrite registers that
    /// disagree (an SEU in the mux-select silently feeds a pipeline the
    /// wrong layer's stage). Without this the engine never notices a
    /// misroute: data keeps flowing from the wrong stage — the
    /// `misrouted_undetected` hole in the campaign taxonomy.
    pub route_scrub: bool,
}

impl Default for R2d3Config {
    fn default() -> Self {
        R2d3Config {
            t_epoch: 20_000,
            t_test: 5_000,
            t_cal: 5_000_000,
            policy: crate::policy::PolicyKind::Pro,
            suspend_when_no_leftover: true,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::default()),
            escalation: Some(crate::history::EscalationConfig::default()),
            inconclusive_retries: 2,
            rollback_on_transient: true,
            route_scrub: true,
        }
    }
}

impl R2d3Config {
    /// Validates parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::InvalidConfig`] when `t_test` is zero
    /// or exceeds `t_epoch`, or when `t_cal < t_epoch`.
    pub fn validate(&self) -> Result<(), crate::EngineError> {
        if self.t_test == 0 {
            return Err(crate::EngineError::InvalidConfig("t_test must be positive".into()));
        }
        if self.t_test > self.t_epoch {
            return Err(crate::EngineError::InvalidConfig("t_test cannot exceed t_epoch".into()));
        }
        if self.t_cal < self.t_epoch {
            return Err(crate::EngineError::InvalidConfig(
                "t_cal must be at least one epoch".into(),
            ));
        }
        if let Some(escalation) = &self.escalation {
            escalation.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        R2d3Config::default().validate().unwrap();
    }

    #[test]
    fn rejects_inconsistent_windows() {
        let bad = R2d3Config { t_test: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = R2d3Config { t_test: 10, t_epoch: 5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = R2d3Config { t_cal: 10, t_epoch: 100, ..Default::default() };
        assert!(bad.validate().is_err());
    }
}
