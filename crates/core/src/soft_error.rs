//! Statistical soft-error (transient fault) campaigns.
//!
//! Contribution 2 of the paper: the detection mechanism "detects and
//! distinguishes transient and permanent faults using single-cycle
//! replay". This module quantifies that claim: it injects batches of
//! one-shot transients at random stages/times while the engine runs,
//! then classifies each injection's outcome:
//!
//! * **caught** — a checker saw the corruption and the TMR replay
//!   classified it transient (no hardware was quarantined),
//! * **masked** — the flipped bit never changed an architectural result
//!   (the stuck value equaled the computed bit),
//! * **silent** — the corruption reached architectural state but no
//!   checker ever compared the affected window (the detection coverage
//!   gap: transients are only visible while a test window overlaps them),
//! * **crashed** — the corruption wedged the pipeline (wild branch), which
//!   is detected by construction and recovered by restart/rollback.

use crate::engine::{EngineEvent, R2d3Engine};
use crate::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{FaultEffect, StageId, System3d, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one injected transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftErrorOutcome {
    /// Detected and classified transient by the engine.
    Caught,
    /// Never corrupted an architectural value.
    Masked,
    /// Corrupted state without detection (silent data corruption risk;
    /// bounded by the epoch/test-window coverage).
    Silent,
    /// Wedged the pipeline; recovered by the engine's repair path.
    Crashed,
    /// Misclassified as a permanent fault (quarantined healthy hardware —
    /// must not happen).
    Misdiagnosed,
}

/// Aggregate campaign results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoftErrorReport {
    /// Transients injected.
    pub injected: usize,
    /// Counts per outcome.
    pub caught: usize,
    /// See [`SoftErrorOutcome::Masked`].
    pub masked: usize,
    /// See [`SoftErrorOutcome::Silent`].
    pub silent: usize,
    /// See [`SoftErrorOutcome::Crashed`].
    pub crashed: usize,
    /// See [`SoftErrorOutcome::Misdiagnosed`].
    pub misdiagnosed: usize,
}

impl SoftErrorReport {
    /// Fraction of *manifested* (non-masked) transients that were caught
    /// or safely crashed — the engine's effective transient coverage.
    #[must_use]
    pub fn handled_fraction(&self) -> f64 {
        let manifested = self.caught + self.silent + self.crashed + self.misdiagnosed;
        if manifested == 0 {
            1.0
        } else {
            (self.caught + self.crashed) as f64 / manifested as f64
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftErrorConfig {
    /// Transients to inject (one per trial; each trial is a fresh system).
    pub injections: usize,
    /// Epochs to run after each injection.
    pub epochs_per_trial: usize,
    /// Engine configuration (short epochs keep the comparison window near
    /// the injection).
    pub engine: crate::R2d3Config,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SoftErrorConfig {
    fn default() -> Self {
        SoftErrorConfig {
            injections: 40,
            epochs_per_trial: 4,
            engine: crate::R2d3Config { t_epoch: 4_000, t_test: 4_000, ..Default::default() },
            seed: 0x50f7,
        }
    }
}

/// Runs the campaign: each trial arms one random transient on a random
/// in-service stage, runs the engine, and classifies the outcome.
///
/// # Errors
///
/// Propagates engine/simulator errors.
pub fn run_soft_error_campaign(config: &SoftErrorConfig) -> Result<SoftErrorReport, EngineError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report = SoftErrorReport::default();

    for trial in 0..config.injections {
        let sys_config = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_config);
        let kernel = r2d3_isa::kernels::gemv(64, 64, trial as u64 + 1);
        for p in 0..6 {
            sys.load_program(p, kernel.program().clone())?;
        }
        let mut engine: R2d3Engine = R2d3Engine::builder().config(config.engine).build()?;

        // Warm up a little so the injection lands mid-computation.
        engine.run_epoch(&mut sys)?;

        let layer = rng.gen_range(0..6);
        let unit = Unit::ALL[rng.gen_range(0..Unit::COUNT)];
        let bit = rng.gen_range(0..16u8);
        let stage = StageId::new(layer, unit);
        sys.inject_transient(stage, FaultEffect { bit, stuck: rng.gen_bool(0.5) })?;

        let mut caught = false;
        let mut misdiagnosed = false;
        for _ in 0..config.epochs_per_trial {
            let events = engine.run_epoch(&mut sys)?;
            for e in &events {
                match e {
                    EngineEvent::Transient { .. } => caught = true,
                    EngineEvent::Permanent { .. } | EngineEvent::Inconclusive { .. } => {
                        misdiagnosed = true;
                    }
                    _ => {}
                }
            }
            if caught || misdiagnosed {
                break;
            }
        }

        report.injected += 1;
        let pipe_states: Vec<_> = (0..6)
            .map(|p| {
                let pipe = sys.pipeline(p).expect("pipeline exists");
                (pipe.tainted(), pipe.crashed())
            })
            .collect();
        let any_taint = pipe_states.iter().any(|(t, _)| *t);
        let any_crash = pipe_states.iter().any(|(_, c)| *c);

        if misdiagnosed {
            report.misdiagnosed += 1;
        } else if caught {
            report.caught += 1;
        } else if any_crash {
            report.crashed += 1;
        } else if any_taint {
            report.silent += 1;
        } else {
            report.masked += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_classifies_every_injection() {
        let config = SoftErrorConfig { injections: 12, ..Default::default() };
        let r = run_soft_error_campaign(&config).unwrap();
        assert_eq!(r.injected, r.caught + r.masked + r.silent + r.crashed + r.misdiagnosed);
        assert_eq!(r.injected, 12);
    }

    #[test]
    fn no_transient_is_misdiagnosed_as_permanent() {
        // The single-replay TMR must never quarantine hardware for a
        // one-shot upset (the paper's diagnosis guarantee).
        let config = SoftErrorConfig { injections: 20, seed: 3, ..Default::default() };
        let r = run_soft_error_campaign(&config).unwrap();
        assert_eq!(r.misdiagnosed, 0, "{r:?}");
    }

    #[test]
    fn most_manifested_transients_are_handled() {
        let config = SoftErrorConfig { injections: 24, seed: 9, ..Default::default() };
        let r = run_soft_error_campaign(&config).unwrap();
        assert!(
            r.handled_fraction() >= 0.5,
            "handled fraction {:.2} too low: {r:?}",
            r.handled_fraction()
        );
    }
}
