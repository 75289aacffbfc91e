//! Repair: logical-pipeline formation from the surviving stages.
//!
//! §III-D: "When a fault occurs, the victim unit is isolated and the
//! controller reconfigures the crossbars to construct logical pipelines
//! based on the latest failure map." Stage-level salvaging forms
//! `min_u |healthy stages of unit u|` pipelines, whereas a core-level
//! scheme only keeps layers whose *own* five stages are all healthy —
//! the comparison in the paper's Fig. 2.

use r2d3_isa::Unit;
use r2d3_pipeline_sim::StageId;

/// A formed logical pipeline: the layer serving each unit slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormedPipeline {
    /// `layer_of[unit.index()]` = physical layer serving that unit.
    pub layer_of: [usize; 5],
}

impl FormedPipeline {
    /// The physical stage serving `unit`.
    #[must_use]
    pub fn stage(&self, unit: Unit) -> StageId {
        StageId::new(self.layer_of[unit.index()], unit)
    }

    /// Maximum vertical distance between consecutive units (crossbar
    /// span), a locality metric.
    #[must_use]
    pub fn max_span(&self) -> usize {
        self.layer_of.windows(2).map(|w| w[0].abs_diff(w[1])).max().unwrap_or(0)
    }
}

/// Number of pipelines stage-level salvaging can form.
#[must_use]
pub fn stage_level_formable(layers: usize, usable: impl Fn(StageId) -> bool) -> usize {
    Unit::ALL
        .iter()
        .map(|&u| (0..layers).filter(|&l| usable(StageId::new(l, u))).count())
        .min()
        .unwrap_or(0)
}

/// Number of cores a core-level (NoRecon) scheme keeps: layers whose five
/// own stages are all usable.
#[must_use]
pub fn core_level_formable(layers: usize, usable: impl Fn(StageId) -> bool) -> usize {
    (0..layers).filter(|&l| Unit::ALL.iter().all(|&u| usable(StageId::new(l, u)))).count()
}

/// Forms up to `max_pipelines` logical pipelines from the usable stages.
///
/// Assignment strategy: for each unit, the usable layers are sorted
/// ascending; pipeline `i` receives the `i`-th usable layer of every
/// unit. When the healthy sets are aligned (no faults) this degenerates
/// to the identity mapping (zero crossbar span); as faults accumulate,
/// spans grow only where a unit's healthy set diverges — a greedy
/// locality heuristic matching the paper's goal of minimizing vertical
/// hops.
#[must_use]
pub fn form_pipelines(
    layers: usize,
    usable: impl Fn(StageId) -> bool,
    max_pipelines: usize,
) -> Vec<FormedPipeline> {
    let per_unit: Vec<Vec<usize>> = Unit::ALL
        .iter()
        .map(|&u| (0..layers).filter(|&l| usable(StageId::new(l, u))).collect())
        .collect();
    let n = per_unit.iter().map(Vec::len).min().unwrap_or(0).min(max_pipelines);
    (0..n)
        .map(|i| {
            let mut layer_of = [0usize; 5];
            for (ui, list) in per_unit.iter().enumerate() {
                layer_of[ui] = list[i];
            }
            FormedPipeline { layer_of }
        })
        .collect()
}

/// Locality-aware formation: greedy per-pipeline nearest-layer matching.
///
/// [`form_pipelines`] pairs the i-th healthy layer of every unit, which
/// is optimal when the healthy sets are aligned but can produce long
/// vertical spans once they diverge. This variant anchors each pipeline
/// at a healthy IFU layer and picks, for every other unit, the *nearest*
/// remaining healthy layer — trading global balance for short crossbar
/// hops (the paper's stated goal of minimizing inter-stage MIV crossings).
/// The ablation bench compares the two on span statistics.
#[must_use]
pub fn form_pipelines_local(
    layers: usize,
    usable: impl Fn(StageId) -> bool,
    max_pipelines: usize,
) -> Vec<FormedPipeline> {
    let mut available: Vec<Vec<usize>> = Unit::ALL
        .iter()
        .map(|&u| (0..layers).filter(|&l| usable(StageId::new(l, u))).collect())
        .collect();
    let n = available.iter().map(Vec::len).min().unwrap_or(0).min(max_pipelines);

    let mut formed = Vec::with_capacity(n);
    for _ in 0..n {
        // Anchor: the lowest remaining IFU layer.
        let anchor = available[0][0];
        let mut layer_of = [0usize; 5];
        layer_of[0] = anchor;
        available[0].remove(0);
        for ui in 1..Unit::COUNT {
            let (pos, &layer) = available[ui]
                .iter()
                .enumerate()
                .min_by_key(|(_, &l)| l.abs_diff(anchor))
                .expect("n bounded by min availability");
            layer_of[ui] = layer;
            available[ui].remove(pos);
        }
        formed.push(FormedPipeline { layer_of });
    }
    formed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn usable_except(faulty: &[StageId]) -> impl Fn(StageId) -> bool + '_ {
        let set: HashSet<StageId> = faulty.iter().copied().collect();
        move |s| !set.contains(&s)
    }

    #[test]
    fn no_faults_identity_formation() {
        let formed = form_pipelines(8, |_| true, 8);
        assert_eq!(formed.len(), 8);
        for (i, p) in formed.iter().enumerate() {
            assert_eq!(p.layer_of, [i; 5]);
            assert_eq!(p.max_span(), 0);
        }
    }

    #[test]
    fn paper_fig2_scenario() {
        // Four faults on different layers (Fig. 2 of the paper): four
        // 4-layer cores, faults in distinct units of each layer. The
        // core-level scheme keeps 0 cores; R2D3 forms 3 pipelines
        // (min over units: one unit type lost 1 stage → 3 healthy).
        let faults = [
            StageId::new(0, Unit::Exu),
            StageId::new(1, Unit::Ifu),
            StageId::new(2, Unit::Lsu),
            StageId::new(3, Unit::Tlu),
        ];
        let usable = usable_except(&faults);
        assert_eq!(core_level_formable(4, &usable), 0, "every core lost a stage");
        assert_eq!(stage_level_formable(4, &usable), 3);
        let formed = form_pipelines(4, &usable, 8);
        assert_eq!(formed.len(), 3);
        // No formed pipeline uses a faulty stage.
        for p in &formed {
            for u in Unit::ALL {
                assert!(usable(p.stage(u)), "{} routed through faulty stage", p.stage(u));
            }
        }
    }

    #[test]
    fn stage_level_never_worse_than_core_level() {
        // Property: for random fault sets, stage-level salvaging forms at
        // least as many pipelines as the core-level scheme keeps.
        use proptest::prelude::*;
        proptest!(|(fault_bits in proptest::collection::vec(any::<bool>(), 40))| {
            let usable = |s: StageId| !fault_bits[s.flat_index()];
            let stage = stage_level_formable(8, usable);
            let core = core_level_formable(8, usable);
            prop_assert!(stage >= core, "stage {stage} < core {core}");
            prop_assert_eq!(form_pipelines(8, usable, 8).len(), stage);
        });
    }

    #[test]
    fn local_formation_matches_count_and_avoids_faults() {
        use proptest::prelude::*;
        proptest!(|(fault_bits in proptest::collection::vec(any::<bool>(), 40))| {
            let usable = |s: StageId| !fault_bits[s.flat_index()];
            let greedy = form_pipelines(8, usable, 8);
            let local = form_pipelines_local(8, usable, 8);
            prop_assert_eq!(local.len(), greedy.len(), "same salvage count");
            let mut seen = HashSet::new();
            for p in &local {
                for u in Unit::ALL {
                    prop_assert!(usable(p.stage(u)));
                    prop_assert!(seen.insert(p.stage(u)), "double-booked");
                }
            }
        });
    }

    #[test]
    fn local_formation_is_identity_when_healthy() {
        let formed = form_pipelines_local(8, |_| true, 8);
        for (i, p) in formed.iter().enumerate() {
            assert_eq!(p.layer_of, [i; 5]);
        }
    }

    #[test]
    fn formation_respects_cap() {
        assert_eq!(form_pipelines(8, |_| true, 3).len(), 3);
        assert_eq!(form_pipelines_local(8, |_| true, 3).len(), 3);
    }

    #[test]
    fn local_formation_zero_healthy_is_empty() {
        // Nothing usable at all: must return empty, not panic on the
        // empty IFU anchor column.
        assert!(form_pipelines_local(4, |_| false, 8).is_empty());
        assert!(form_pipelines_local(0, |_| true, 8).is_empty());
        // One unit column entirely dead starves formation even when every
        // other stage is healthy — both for the anchor unit (IFU) and for
        // a downstream unit matched against the anchor.
        assert!(form_pipelines_local(8, |s: StageId| s.unit != Unit::Ifu, 8).is_empty());
        assert!(form_pipelines_local(8, |s: StageId| s.unit != Unit::Lsu, 8).is_empty());
    }

    #[test]
    fn local_formation_cap_above_layer_count_is_identity() {
        // A cap larger than the stack cannot mint pipelines out of thin
        // air; with full health both strategies stay at identity.
        let local = form_pipelines_local(4, |_| true, 64);
        assert_eq!(local.len(), 4);
        for (i, p) in local.iter().enumerate() {
            assert_eq!(p.layer_of, [i; 5]);
        }
        assert_eq!(form_pipelines(4, |_| true, 64).len(), 4);
    }

    #[test]
    fn local_formation_single_survivor_per_unit_spans_the_stack() {
        // Exactly one usable layer per unit, staggered across the stack:
        // one pipeline must form, routed through every lone survivor.
        let survivor = |s: StageId| s.layer == s.unit.index() + 1;
        let formed = form_pipelines_local(8, survivor, 8);
        assert_eq!(formed.len(), 1);
        assert_eq!(formed[0].layer_of, [1, 2, 3, 4, 5]);
        assert_eq!(formed[0].max_span(), 1);
        // The balanced strategy agrees on the (only possible) assignment.
        assert_eq!(form_pipelines(8, survivor, 8), formed);
    }

    #[test]
    fn all_faulty_forms_nothing() {
        assert_eq!(form_pipelines(4, |_| false, 8).len(), 0);
        assert_eq!(stage_level_formable(4, |_| false), 0);
    }

    #[test]
    fn formed_stages_are_disjoint() {
        let faults = [StageId::new(2, Unit::Exu), StageId::new(5, Unit::Ffu)];
        let usable = usable_except(&faults);
        let formed = form_pipelines(8, &usable, 8);
        let mut seen = HashSet::new();
        for p in &formed {
            for u in Unit::ALL {
                assert!(seen.insert(p.stage(u)), "stage {} double-booked", p.stage(u));
            }
        }
    }
}
