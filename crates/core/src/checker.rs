//! Inter-stage checkers: output comparison between a DUT stage and a
//! redundant (leftover) stage.
//!
//! §III-C: "we use simple inter-stage checkers at the output of the
//! pipeline stages… If the input of two similar stages in two different
//! layers are the same, the output of the two should be identical too.
//! If not, a fault has been detected."
//!
//! In the simulation, every trace record carries the operation's golden
//! output and the DUT's actual output. A redundant stage re-executing the
//! same inputs produces `effect_redundant(golden)` (its own permanent
//! fault effect applied to the golden value, or the golden value itself
//! when healthy). The checker flags the first record where the two
//! disagree.

use r2d3_pipeline_sim::{FaultEffect, StageRecord};

/// A detected symptom: the record on which DUT and redundant outputs
/// disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symptom {
    /// The disagreeing record.
    pub record: StageRecord,
    /// Output the redundant stage produced during re-execution.
    pub redundant_output: u32,
}

/// Output a stage with optional permanent `effect` produces for a golden
/// value.
#[must_use]
pub fn stage_output(effect: Option<FaultEffect>, golden: u32) -> u32 {
    effect.map_or(golden, |e| e.apply(golden))
}

/// Full comparison of one window: the first symptom (if any) plus the
/// window's mismatch density, the discriminator between a stage fault
/// that strikes once per window and a path (TSV/crossbar) fault that
/// corrupts a large fraction of every transfer it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowComparison {
    /// The first disagreeing record, if any.
    pub symptom: Option<Symptom>,
    /// Records on which DUT and redundant outputs disagreed.
    pub mismatches: u32,
    /// Records compared.
    pub compared: u32,
}

/// Compares a window of DUT records against re-execution on a redundant
/// stage, where `replay` produces the redundant stage's output for a
/// record — the substrate-generic checker primitive
/// ([`crate::substrate::ReliabilitySubstrate::replay_output`]). Returns
/// the first symptom, if any.
pub fn compare_window_by(
    window: &[StageRecord],
    replay: impl FnMut(&StageRecord) -> u32,
) -> Option<Symptom> {
    compare_window_counted(window, replay).symptom
}

/// [`compare_window_by`] plus mismatch accounting over the whole window.
/// Every record is replayed regardless of where the first symptom falls,
/// so the mismatch density is comparable across windows.
pub fn compare_window_counted(
    window: &[StageRecord],
    mut replay: impl FnMut(&StageRecord) -> u32,
) -> WindowComparison {
    let mut symptom = None;
    let mut mismatches = 0u32;
    for record in window {
        let redundant_output = replay(record);
        if redundant_output != record.actual_output {
            mismatches += 1;
            if symptom.is_none() {
                symptom = Some(Symptom { record: *record, redundant_output });
            }
        }
    }
    WindowComparison { symptom, mismatches, compared: window.len() as u32 }
}

/// Compares a window of DUT records against re-execution on a behavioral
/// redundant stage with (optional) permanent fault `redundant_effect`.
/// Returns the first symptom, if any.
#[must_use]
pub fn compare_window(
    window: &[StageRecord],
    redundant_effect: Option<FaultEffect>,
) -> Option<Symptom> {
    compare_window_by(window, |record| stage_output(redundant_effect, record.golden_output))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(golden: u32, actual: u32) -> StageRecord {
        StageRecord { cycle: 0, input_sig: 1, golden_output: golden, actual_output: actual }
    }

    #[test]
    fn healthy_pair_never_fires() {
        let window = [rec(5, 5), rec(9, 9)];
        assert_eq!(compare_window(&window, None), None);
    }

    #[test]
    fn faulty_dut_detected_when_fault_manifests() {
        // DUT has SA1 on bit 0: only the even golden value manifests it.
        let window = [rec(1, 1), rec(2, 3)];
        let s = compare_window(&window, None).expect("must detect");
        assert_eq!(s.record.golden_output, 2);
        assert_eq!(s.redundant_output, 2);
    }

    #[test]
    fn faulty_leftover_also_fires() {
        // DUT healthy, leftover has SA0 on bit 1.
        let window = [rec(2, 2)];
        let eff = FaultEffect { bit: 1, stuck: false };
        let s = compare_window(&window, Some(eff)).expect("must detect");
        assert_eq!(s.redundant_output, 0);
        assert_eq!(s.record.actual_output, 2);
    }

    #[test]
    fn identical_faults_mask_each_other() {
        // Both stages share the same stuck-at: undetectable by comparison
        // (the checkers' known blind spot; a third stage in the TMR replay
        // breaks the tie when a symptom does surface elsewhere).
        let eff = FaultEffect { bit: 0, stuck: true };
        let window = [rec(2, 3)]; // DUT actual corrupted by eff
        assert_eq!(compare_window(&window, Some(eff)), None);
    }

    #[test]
    fn nonmanifesting_fault_is_silent() {
        // Golden already has bit 0 set: SA1 on bit 0 never shows.
        let window = [rec(3, 3), rec(7, 7)];
        assert_eq!(compare_window(&window, None), None);
    }
}
