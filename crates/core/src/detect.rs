//! Epoch-boundary concurrent detection.
//!
//! §III-C: at the end of each epoch the controller warms up a leftover
//! stage with the DUT's state and re-executes the last `T_test` cycles of
//! the DUT's instruction stream in parallel, comparing outputs with the
//! inter-stage checkers. Detection costs no performance (it runs on
//! otherwise-idle leftovers); if no leftover of the right unit type
//! exists, the controller may temporarily suspend another core's stage —
//! rare, because workloads and thermal limits rarely allow 100 %
//! utilization.

use crate::checker::{compare_window_counted, Symptom};
use crate::config::R2d3Config;
use crate::substrate::ReliabilitySubstrate;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::StageId;
use std::collections::HashSet;

/// How the redundant stage for a test was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundantSource {
    /// A genuine leftover (idle functional stage).
    Leftover,
    /// Another core's stage, temporarily suspended for the test.
    SuspendedCore {
        /// The pipeline whose stage was borrowed.
        pipe: usize,
    },
}

/// One positive detection from an epoch scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Pipeline whose stage was under test.
    pub pipe: usize,
    /// Unit type tested.
    pub unit: Unit,
    /// The design-under-test stage.
    pub dut: StageId,
    /// The redundant stage that re-executed the window.
    pub redundant: StageId,
    /// Where the redundant stage came from.
    pub source: RedundantSource,
    /// The disagreeing record.
    pub symptom: Symptom,
    /// Records of the compared window that disagreed. A stage transient
    /// strikes exactly once per window; a TSV/crossbar path fault
    /// corrupts a large fraction of every window it carries — the
    /// engine's link-attribution evidence.
    pub mismatches: u32,
    /// Records compared in the window.
    pub compared: u32,
}

/// Coverage accounting for one epoch scan (telemetry feed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Mapped stages whose window was actually compared.
    pub tested: u32,
    /// Mapped stages skipped for lack of a redundant stage (or an empty
    /// trace window).
    pub untested: u32,
    /// Tests that had to borrow a running core's stage.
    pub suspensions: u32,
}

/// Scans every mapped stage of every pipeline at an epoch boundary.
///
/// Returns all symptoms found. Stages already believed faulty are skipped
/// (they should no longer be mapped); tests without any available
/// redundant stage are skipped when the config forbids suspension.
///
/// `salt` (typically the epoch counter) rotates which leftover serves
/// each test, so every spare stage is exercised — and therefore itself
/// checked — over successive epochs.
#[must_use]
pub fn epoch_scan<S: ReliabilitySubstrate>(
    sys: &S,
    config: &R2d3Config,
    believed_faulty: &HashSet<StageId>,
    salt: u64,
) -> Vec<Detection> {
    epoch_scan_counted(sys, config, believed_faulty, salt, &HashSet::new()).0
}

/// [`epoch_scan`] plus coverage accounting — the engine's entry point,
/// feeding the per-epoch `scan` telemetry event.
///
/// `skip_pipes` excludes pipelines whose route was scrubbed this epoch:
/// their trace windows carry misroute skew that would be misattributed
/// to the (healthy) serving stages.
#[must_use]
pub fn epoch_scan_counted<S: ReliabilitySubstrate>(
    sys: &S,
    config: &R2d3Config,
    believed_faulty: &HashSet<StageId>,
    salt: u64,
    skip_pipes: &HashSet<usize>,
) -> (Vec<Detection>, ScanStats) {
    let mut detections = Vec::new();
    let mut stats = ScanStats::default();
    let leftovers = sys.leftovers();

    for pipe in 0..sys.pipeline_count() {
        if skip_pipes.contains(&pipe) {
            continue;
        }
        for unit in Unit::ALL {
            let Some(dut) = sys.stage_for(pipe, unit) else {
                continue;
            };
            if believed_faulty.contains(&dut) {
                continue;
            }
            let Some((redundant, source)) =
                pick_redundant(sys, pipe, unit, dut, &leftovers, believed_faulty, config, salt)
            else {
                stats.untested += 1;
                continue;
            };

            // Bound the compared window to the *current* epoch. The ring
            // keeps the last N records regardless of age; on a slowly
            // retiring pipeline "the last T_test records" can span many
            // epochs, and a record corrupted by an already-handled
            // transient would be re-detected — and re-counted by the
            // symptom history — every epoch until it scrolls out.
            let epoch_start = sys.now().saturating_sub(config.t_epoch);
            let window = sys.trace_window_since(dut, config.t_test as usize, epoch_start);
            if window.is_empty() {
                stats.untested += 1;
                continue;
            }
            stats.tested += 1;
            if matches!(source, RedundantSource::SuspendedCore { .. }) {
                stats.suspensions += 1;
            }
            let cmp =
                compare_window_counted(&window, |record| sys.replay_output(redundant, record));
            if let Some(symptom) = cmp.symptom {
                detections.push(Detection {
                    pipe,
                    unit,
                    dut,
                    redundant,
                    source,
                    symptom,
                    mismatches: cmp.mismatches,
                    compared: cmp.compared,
                });
            }
        }
    }
    (detections, stats)
}

/// Chooses the redundant stage for a test: a believed-healthy leftover of
/// the same unit (rotated by `salt` so all spares get exercised), else
/// (if allowed) the same unit of the next pipeline.
#[allow(clippy::too_many_arguments)]
fn pick_redundant<S: ReliabilitySubstrate>(
    sys: &S,
    pipe: usize,
    unit: Unit,
    dut: StageId,
    leftovers: &[StageId],
    believed_faulty: &HashSet<StageId>,
    config: &R2d3Config,
    salt: u64,
) -> Option<(StageId, RedundantSource)> {
    let candidates: Vec<StageId> = leftovers
        .iter()
        .copied()
        .filter(|s| s.unit == unit && !believed_faulty.contains(s))
        .collect();
    if !candidates.is_empty() {
        let idx = (salt as usize + dut.layer) % candidates.len();
        return Some((candidates[idx], RedundantSource::Leftover));
    }
    if !config.suspend_when_no_leftover {
        return None;
    }
    // Borrow the same unit from another pipeline (the paper's rare
    // suspension path).
    let n = sys.pipeline_count();
    for step in 1..n {
        let other = (pipe + step) % n;
        if let Some(s) = sys.stage_for(other, unit) {
            if s != dut && !believed_faulty.contains(&s) {
                return Some((s, RedundantSource::SuspendedCore { pipe: other }));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_isa::kernels::gemv;
    use r2d3_pipeline_sim::{FaultEffect, System3d, SystemConfig};

    fn system_with_kernel(pipelines: usize) -> System3d {
        let config = SystemConfig { pipelines, ..Default::default() };
        let mut sys = System3d::new(&config);
        for p in 0..pipelines {
            sys.load_program(p, gemv(12, 12, p as u64 + 1).program().clone()).unwrap();
        }
        sys
    }

    #[test]
    fn healthy_system_has_no_detections() {
        let mut sys = system_with_kernel(6);
        sys.run(20_000).unwrap();
        let d = epoch_scan(&sys, &R2d3Config::default(), &HashSet::new(), 0);
        assert!(d.is_empty(), "false positives: {d:?}");
    }

    #[test]
    fn faulty_exu_is_detected() {
        let mut sys = system_with_kernel(6);
        sys.inject_fault(StageId::new(1, Unit::Exu), FaultEffect { bit: 0, stuck: true }).unwrap();
        sys.run(20_000).unwrap();
        let d = epoch_scan(&sys, &R2d3Config::default(), &HashSet::new(), 0);
        assert!(d.iter().any(|x| x.dut == StageId::new(1, Unit::Exu)), "EXU fault missed: {d:?}");
    }

    #[test]
    fn faulty_leftover_fires_too() {
        // Fault in a *leftover* stage is caught when it serves as the
        // redundant side of a comparison.
        let mut sys = system_with_kernel(6);
        sys.inject_fault(StageId::new(7, Unit::Exu), FaultEffect { bit: 0, stuck: true }).unwrap();
        sys.run(20_000).unwrap();
        // The salt rotates which leftover serves; within two epochs the
        // faulty spare at layer 7 must have been exercised.
        let hit = (0..2).any(|salt| {
            epoch_scan(&sys, &R2d3Config::default(), &HashSet::new(), salt)
                .iter()
                .any(|x| x.redundant == StageId::new(7, Unit::Exu))
        });
        assert!(hit, "leftover fault missed");
    }

    #[test]
    fn full_stack_uses_suspension() {
        // 8 pipelines on 8 layers: no leftovers, so detection must borrow
        // a stage from another core when allowed.
        let mut sys = system_with_kernel(8);
        sys.inject_fault(StageId::new(0, Unit::Lsu), FaultEffect { bit: 1, stuck: true }).unwrap();
        sys.run(20_000).unwrap();
        let d = epoch_scan(&sys, &R2d3Config::default(), &HashSet::new(), 0);
        let hit = d.iter().find(|x| x.dut == StageId::new(0, Unit::Lsu));
        let hit = hit.expect("suspension path must detect the LSU fault");
        assert!(matches!(hit.source, RedundantSource::SuspendedCore { .. }));

        // With suspension disabled and no leftovers, nothing is tested.
        let no_suspend = R2d3Config { suspend_when_no_leftover: false, ..Default::default() };
        let d = epoch_scan(&sys, &no_suspend, &HashSet::new(), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn nonmanifesting_fault_stays_hidden() {
        // SA1 on bit 31 of the EXU: GEMV index arithmetic never sets bit
        // 31, and a stuck bit that never changes an actual output cannot
        // be seen by any comparison.
        let mut sys = system_with_kernel(6);
        sys.inject_fault(StageId::new(1, Unit::Tlu), FaultEffect { bit: 7, stuck: true }).unwrap();
        sys.run(20_000).unwrap();
        let d = epoch_scan(&sys, &R2d3Config::default(), &HashSet::new(), 0);
        // GEMV has no traps, so the TLU never produced a record: no
        // detection is possible (and none should be fabricated).
        assert!(d.iter().all(|x| x.dut != StageId::new(1, Unit::Tlu)));
    }
}
