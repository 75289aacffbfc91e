//! Reconfiguration policies: NoRecon, Static, R2D3-Lite and R2D3-Pro.

use crate::activity::pro_layer_weights;
use crate::repair::{form_pipelines, FormedPipeline};
use r2d3_isa::Unit;
use r2d3_pipeline_sim::StageId;

/// The four system configurations compared throughout the paper's
/// evaluation (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// 3D stack without reconfiguration: a core dies with its first
    /// faulty stage, and nothing rotates.
    NoRecon,
    /// Failure-repairing static reconfiguration: pipelines are re-formed
    /// after a fault, but the same stages are used continuously.
    Static,
    /// R2D3-Lite: round-robin dynamic rotation every calibration window.
    Lite,
    /// R2D3-Pro: adaptive rotation driven by per-stage activity indices
    /// (Eq. 1–2), favoring stages less prone to heat-up and wearout.
    Pro,
}

impl PolicyKind {
    /// All four configurations, in the paper's order.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::NoRecon, PolicyKind::Static, PolicyKind::Lite, PolicyKind::Pro];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::NoRecon => "NoRecon",
            PolicyKind::Static => "Static",
            PolicyKind::Lite => "R2D3-Lite",
            PolicyKind::Pro => "R2D3-Pro",
        }
    }

    /// Whether the configuration can repair (reroute around) faults.
    #[must_use]
    pub fn repairs(self) -> bool {
        !matches!(self, PolicyKind::NoRecon)
    }

    /// Whether the configuration rotates leftovers dynamically.
    #[must_use]
    pub fn rotates(self) -> bool {
        matches!(self, PolicyKind::Lite | PolicyKind::Pro)
    }

    /// Whether the design carries the R2D3 fabric (area/frequency/power
    /// overheads).
    #[must_use]
    pub fn has_fabric(self) -> bool {
        !matches!(self, PolicyKind::NoRecon)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rotation bookkeeping carried across calibration windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RotationState {
    /// Round-robin offset (Lite).
    pub offset: usize,
    /// Accumulated service per stage (Pro's weighted fairness), indexed by
    /// [`StageId::flat_index`].
    pub credits: Vec<f64>,
}

impl RotationState {
    /// Fresh state for a stack of `layers` tiers.
    #[must_use]
    pub fn new(layers: usize) -> Self {
        RotationState { offset: 0, credits: vec![0.0; layers * Unit::COUNT] }
    }
}

/// Selects the stage assignment for the next calibration window.
///
/// * `NoRecon` and `Static` return the canonical (sorted) formation — the
///   same stages serve until a fault changes the healthy set.
/// * `Lite` rotates each unit's healthy list by the window counter.
/// * `Pro` serves stages in increasing order of `credit / weight`, where
///   cooler (sink-near) layers carry larger weights — over time each
///   stage's duty converges to its activity index (Eq. 1).
#[must_use]
pub fn select_assignment(
    kind: PolicyKind,
    layers: usize,
    usable: &dyn Fn(StageId) -> bool,
    wanted: usize,
    state: &mut RotationState,
) -> Vec<FormedPipeline> {
    match kind {
        PolicyKind::NoRecon | PolicyKind::Static => form_pipelines(layers, usable, wanted),
        PolicyKind::Lite => {
            let per_unit: Vec<Vec<usize>> = Unit::ALL
                .iter()
                .map(|&u| {
                    let mut list: Vec<usize> =
                        (0..layers).filter(|&l| usable(StageId::new(l, u))).collect();
                    if !list.is_empty() {
                        let shift = state.offset % list.len();
                        list.rotate_left(shift);
                    }
                    list
                })
                .collect();
            state.offset += 1;
            assemble(&per_unit, wanted)
        }
        PolicyKind::Pro => {
            let weights = pro_layer_weights(layers);
            let per_unit: Vec<Vec<usize>> = Unit::ALL
                .iter()
                .map(|&u| {
                    let mut list: Vec<usize> =
                        (0..layers).filter(|&l| usable(StageId::new(l, u))).collect();
                    list.sort_by(|&a, &b| {
                        let ka = state.credits[StageId::new(a, u).flat_index()] / weights[a];
                        let kb = state.credits[StageId::new(b, u).flat_index()] / weights[b];
                        ka.total_cmp(&kb).then(a.cmp(&b))
                    });
                    list
                })
                .collect();
            let formed = assemble(&per_unit, wanted);
            for p in &formed {
                for u in Unit::ALL {
                    state.credits[p.stage(u).flat_index()] += 1.0;
                }
            }
            formed
        }
    }
}

/// Pairs the `i`-th candidate of each unit into pipeline `i`.
fn assemble(per_unit: &[Vec<usize>], wanted: usize) -> Vec<FormedPipeline> {
    let n = per_unit.iter().map(Vec::len).min().unwrap_or(0).min(wanted);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn static_is_stable() {
        let mut st = RotationState::new(8);
        let a = select_assignment(PolicyKind::Static, 8, &|_| true, 6, &mut st);
        let b = select_assignment(PolicyKind::Static, 8, &|_| true, 6, &mut st);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn lite_rotates_evenly() {
        // Over `layers` windows of 6-of-8 service, every layer's EXU must
        // have served either 6×8/8 = 6 windows (round robin).
        let mut st = RotationState::new(8);
        let mut served: HashMap<usize, usize> = HashMap::new();
        for _ in 0..8 {
            let formed = select_assignment(PolicyKind::Lite, 8, &|_| true, 6, &mut st);
            assert_eq!(formed.len(), 6);
            for p in &formed {
                *served.entry(p.stage(Unit::Exu).layer).or_default() += 1;
            }
        }
        for layer in 0..8 {
            assert_eq!(served[&layer], 6, "layer {layer} served {:?}", served);
        }
    }

    #[test]
    fn pro_favors_sink_near_layers() {
        let mut st = RotationState::new(8);
        let mut served = vec![0usize; 8];
        for _ in 0..32 {
            let formed = select_assignment(PolicyKind::Pro, 8, &|_| true, 6, &mut st);
            for p in &formed {
                served[p.stage(Unit::Exu).layer] += 1;
            }
        }
        assert!(
            served[0] > served[7],
            "cool layer 0 ({}) should serve more than hot layer 7 ({})",
            served[0],
            served[7]
        );
        // Everyone serves sometimes (graceful balancing, not starvation).
        assert!(served.iter().all(|&s| s > 0), "{served:?}");
    }

    #[test]
    fn faulty_stages_never_selected() {
        let bad = StageId::new(3, Unit::Lsu);
        let usable = move |s: StageId| s != bad;
        for kind in PolicyKind::ALL {
            let mut st = RotationState::new(8);
            for _ in 0..10 {
                let formed = select_assignment(kind, 8, &usable, 8, &mut st);
                for p in &formed {
                    assert_ne!(p.stage(Unit::Lsu), bad, "{kind} routed through a fault");
                }
            }
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(!PolicyKind::NoRecon.repairs());
        assert!(PolicyKind::Static.repairs());
        assert!(!PolicyKind::Static.rotates());
        assert!(PolicyKind::Lite.rotates());
        assert!(PolicyKind::Pro.has_fabric());
        assert!(!PolicyKind::NoRecon.has_fabric());
    }
}
