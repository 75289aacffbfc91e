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

/// Time at which [`stage_level_formable`] drops below `level` when the
/// stages `alive` now fail at `times` (flat [`StageId`] index, `INFINITY`
/// for never); `INFINITY` if it never does.
///
/// Each unit column is a `level`-out-of-`c` system over its `c` live
/// stages: it fails at its `(c − level + 1)`-th stage failure, the
/// `(c − level)`-th smallest time (0-based). The stack fails at the first
/// column to fail. At `level` 1 this is the min over units of the max over
/// their live stages.
///
/// # Panics
///
/// Panics unless `1 <= level <= stage_level_formable(..)` over `alive`.
#[must_use]
pub fn stage_level_failure_time(layers: usize, alive: &[bool], times: &[f64], level: usize) -> f64 {
    Unit::ALL
        .iter()
        .map(|&u| {
            let live = (0..layers)
                .map(|l| StageId::new(l, u).flat_index())
                .filter(|&s| alive[s])
                .map(|s| times[s]);
            nth_largest(live, level)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time at which [`core_level_formable`] drops below `level` when the
/// stages `alive` now fail at `times` (flat [`StageId`] index, `INFINITY`
/// for never); `INFINITY` if it never does.
///
/// A core dies at its earliest stage failure, and the `n` intact cores
/// form a `level`-out-of-`n` system: it fails at the `(n − level)`-th
/// smallest death time (0-based). At `level` 1 this is the max over
/// intact cores of the min over their stages.
///
/// # Panics
///
/// Panics unless `1 <= level <= core_level_formable(..)` over `alive`.
#[must_use]
pub fn core_level_failure_time(layers: usize, alive: &[bool], times: &[f64], level: usize) -> f64 {
    let core = |l: usize| Unit::ALL.iter().map(move |&u| StageId::new(l, u).flat_index());
    let deaths = (0..layers)
        .filter(|&l| core(l).all(|s| alive[s]))
        .map(|l| core(l).map(|s| times[s]).fold(f64::INFINITY, f64::min));
    nth_largest(deaths, level)
}

/// The `rank`-th largest of `values` (1-based, ties counted with
/// multiplicity): the `(len − rank)`-th smallest. Peels off one distinct
/// value per pass, so `rank` 1 is a single max.
///
/// # Panics
///
/// Panics if `rank` is 0 or exceeds the number of values.
fn nth_largest(values: impl Iterator<Item = f64> + Clone, rank: usize) -> f64 {
    assert!(rank > 0, "ranks are 1-based");
    let mut top = values.clone().reduce(f64::max).expect("rank exceeds the number of values");
    // `above` values exceed `top`, which therefore fills rank `above + 1`.
    let mut above = 0;
    while above + 1 < rank {
        above += values.clone().filter(|&t| t == top).count();
        if above >= rank {
            break;
        }
        top = values
            .clone()
            .filter(|&t| t < top)
            .reduce(f64::max)
            .expect("rank exceeds the number of values");
    }
    top
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

    /// Reference for the closed forms: kills the live stages one at a
    /// time in stable time order and returns the time of the kill after
    /// which `formable` first counts fewer than `level` pipelines.
    fn walk_failure_time(
        layers: usize,
        alive: &[bool],
        times: &[f64],
        level: usize,
        formable: impl Fn(&dyn Fn(StageId) -> bool) -> usize,
    ) -> f64 {
        let mut order: Vec<usize> = (0..layers * Unit::COUNT).filter(|&s| alive[s]).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let mut dead = vec![false; alive.len()];
        for s in order {
            dead[s] = true;
            if formable(&|id: StageId| alive[id.flat_index()] && !dead[id.flat_index()]) < level {
                return times[s];
            }
        }
        f64::INFINITY
    }

    /// Sampled failure times from a small set, so ties are common.
    const TIMES: [f64; 5] = [1.0, 2.0, 2.5, 4.0, f64::INFINITY];

    type Count = fn(usize, &dyn Fn(StageId) -> bool) -> usize;
    type Closed = fn(usize, &[bool], &[f64], usize) -> f64;

    /// Both formation structures: the formable count and its closed-form
    /// failure time.
    const STRUCTURES: [(&str, Count, Closed); 2] = [
        ("stage", |l, ok| stage_level_formable(l, ok), stage_level_failure_time),
        ("core", |l, ok| core_level_formable(l, ok), core_level_failure_time),
    ];

    /// Seven in eight stages alive, so intact cores are common too.
    fn alive_mask(draw: &[u8]) -> Vec<bool> {
        draw.iter().map(|&a| a != 0).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn closed_form_failure_times_equal_the_walk(
            layers in 1usize..=8,
            alive_draw in proptest::collection::vec(0u8..8, 40),
            time_draw in proptest::collection::vec(0usize..TIMES.len(), 40),
            level_draw in 0usize..64,
        ) {
            let alive = alive_mask(&alive_draw);
            let times: Vec<f64> = time_draw.iter().map(|&i| TIMES[i]).collect();
            for (name, count, closed) in STRUCTURES {
                let now = count(layers, &|s: StageId| alive[s.flat_index()]);
                if now == 0 {
                    continue;
                }
                let level = 1 + level_draw % now;
                let walk =
                    walk_failure_time(layers, &alive, &times, level, |ok| count(layers, ok));
                let closed = closed(layers, &alive, &times, level);
                proptest::prop_assert_eq!(
                    closed.to_bits(),
                    walk.to_bits(),
                    "{} level {}",
                    name,
                    level
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn closed_form_mttf_equals_the_predicate_walk_bit_for_bit(
            layers in 1usize..=8,
            alive_draw in proptest::collection::vec(0u8..8, 40),
            rate_draw in proptest::collection::vec(0u8..4, 40),
            level_draw in 0usize..64,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use r2d3_aging::mttf::{mttf_monte_carlo, mttf_of_failure_times, MttfConfig};
            let n = layers * Unit::COUNT;
            let alive = alive_mask(&alive_draw[..n]);
            // Rate 0 (never fails) for one stage in four, dead or alive.
            let rates: Vec<f64> = rate_draw[..n].iter().map(|&r| f64::from(r) * 0.01).collect();
            let config = MttfConfig { trials: 40, seed, ..Default::default() };
            for (name, count, closed) in STRUCTURES {
                let now = count(layers, &|s: StageId| alive[s.flat_index()]);
                if now == 0 {
                    continue;
                }
                let level = 1 + level_draw % now;
                let predicate = |mask: &[bool]| {
                    count(layers, &|s: StageId| alive[s.flat_index()] && mask[s.flat_index()])
                        >= level
                };
                let walk = mttf_monte_carlo(&rates, predicate, &config);
                let order_statistic = mttf_of_failure_times(&rates, &config, |times| {
                    closed(layers, &alive, times, level)
                });
                proptest::prop_assert_eq!(
                    order_statistic.to_bits(),
                    walk.to_bits(),
                    "{} level {}",
                    name,
                    level
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The replicas of a lifetime month read one stream of draws. A
        /// replica with more live stages extends the stream past what the
        /// ones before it read, and each must still get exactly the
        /// estimate of a stream of its own.
        #[test]
        fn replicas_sharing_one_stream_match_their_own_streams(
            layers in 1usize..=8,
            alive_draws in proptest::collection::vec(proptest::collection::vec(0u8..8, 40), 2..=5),
            rate_draw in proptest::collection::vec(0u8..4, 40),
            level_draw in 0usize..64,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use r2d3_aging::mttf::{mttf_of_draws, mttf_of_failure_times, ExpDraws, MttfConfig};
            let n = layers * Unit::COUNT;
            let config = MttfConfig { trials: 40, seed, ..Default::default() };
            for (name, count, closed) in STRUCTURES {
                for drawn_level in [false, true] {
                    let mut shared = ExpDraws::new(seed);
                    for draw in &alive_draws {
                        let alive = alive_mask(&draw[..n]);
                        let now = count(layers, &|s: StageId| alive[s.flat_index()]);
                        if now == 0 {
                            continue;
                        }
                        let level = if drawn_level { 1 + level_draw % now } else { 1 };
                        // Dead stages have rate 0, and so does one live
                        // stage in four.
                        let rates: Vec<f64> = (0..n)
                            .map(|s| if alive[s] { f64::from(rate_draw[s]) * 0.01 } else { 0.0 })
                            .collect();
                        let failure = |times: &[f64]| closed(layers, &alive, times, level);
                        let own = mttf_of_failure_times(&rates, &config, failure);
                        let read = mttf_of_draws(&rates, &config, &mut shared, failure);
                        proptest::prop_assert_eq!(
                            read.to_bits(),
                            own.to_bits(),
                            "{} level {}",
                            name,
                            level
                        );
                    }
                }
            }
        }
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
