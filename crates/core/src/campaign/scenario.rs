//! Seeded, deterministic fault-scenario generation.
//!
//! A [`FaultScenario`] is a complete adversarial experiment: what to
//! break, where, when, and how long to keep the engine running
//! afterwards so the outcome can settle. Generation is a pure function
//! of the campaign seed — scenario `i` of seed `s` is identical across
//! runs, substrates and machines, which is what makes campaign reports
//! byte-comparable.

use r2d3_isa::Unit;
use r2d3_pipeline_sim::StageId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Units the generator injects into. FFU is excluded: the behavioral
/// campaign workload (trap-mix) performs no floating-point work, so FFU
/// faults can never manifest there and every scenario would be trivially
/// benign on one substrate but not the other.
pub const INJECTABLE_UNITS: [Unit; 4] = [Unit::Ifu, Unit::Exu, Unit::Lsu, Unit::Tlu];

/// Discriminant-only view of [`FaultKind`]: the single source of truth
/// for the campaign's kind universe. Report tables, JSON codecs, the
/// `--kinds` CLI filter and the round-robin generator all derive from
/// [`KindId::ALL`] / [`KindId::name`], so adding a kind here is the only
/// hand-edit — every table is exhaustive-match checked by the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindId {
    /// See [`FaultKind::Permanent`].
    Permanent,
    /// See [`FaultKind::Transient`].
    Transient,
    /// See [`FaultKind::Intermittent`].
    Intermittent,
    /// See [`FaultKind::Burst`].
    Burst,
    /// See [`FaultKind::CheckerCorrupt`].
    CheckerCorrupt,
    /// See [`FaultKind::ReplayCorrupt`].
    ReplayCorrupt,
    /// See [`FaultKind::CheckpointCorrupt`].
    CheckpointCorrupt,
    /// See [`FaultKind::MidWindow`].
    MidWindow,
    /// See [`FaultKind::MidDiagnosis`].
    MidDiagnosis,
    /// See [`FaultKind::TsvStuck`].
    TsvStuck,
    /// See [`FaultKind::TsvBridge`].
    TsvBridge,
    /// See [`FaultKind::Crosstalk`].
    Crosstalk,
    /// See [`FaultKind::MuxSelect`].
    MuxSelect,
    /// See [`FaultKind::SeuBurst`].
    SeuBurst,
}

impl KindId {
    /// Number of kinds in the universe.
    pub const COUNT: usize = 14;

    /// Every kind, in fixed report order.
    pub const ALL: [KindId; Self::COUNT] = [
        KindId::Permanent,
        KindId::Transient,
        KindId::Intermittent,
        KindId::Burst,
        KindId::CheckerCorrupt,
        KindId::ReplayCorrupt,
        KindId::CheckpointCorrupt,
        KindId::MidWindow,
        KindId::MidDiagnosis,
        KindId::TsvStuck,
        KindId::TsvBridge,
        KindId::Crosstalk,
        KindId::MuxSelect,
        KindId::SeuBurst,
    ];

    /// Stable report/JSON/CLI name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KindId::Permanent => "permanent",
            KindId::Transient => "transient",
            KindId::Intermittent => "intermittent",
            KindId::Burst => "burst",
            KindId::CheckerCorrupt => "checker_corrupt",
            KindId::ReplayCorrupt => "replay_corrupt",
            KindId::CheckpointCorrupt => "checkpoint_corrupt",
            KindId::MidWindow => "mid_window",
            KindId::MidDiagnosis => "mid_diagnosis",
            KindId::TsvStuck => "tsv_stuck",
            KindId::TsvBridge => "tsv_bridge",
            KindId::Crosstalk => "crosstalk",
            KindId::MuxSelect => "mux_select",
            KindId::SeuBurst => "seu_burst",
        }
    }

    /// Inverse of [`KindId::name`] (CLI `--kinds` parsing, durable
    /// shard decoding).
    #[must_use]
    pub fn from_name(name: &str) -> Option<KindId> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// The adversarial fault classes the campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A stuck-at defect that persists from injection onwards.
    Permanent,
    /// A one-shot upset consumed by the next operation.
    Transient,
    /// A duty-cycled defect: re-arms a one-shot upset every `period`
    /// epochs until the stage is quarantined — each individual replay
    /// votes "transient", only the symptom history can catch it.
    Intermittent {
        /// Epochs between recurrences.
        period: u64,
    },
    /// Several permanents landing in the same epoch on distinct stages
    /// (a multi-stage burst, e.g. a particle strike across tiers).
    Burst,
    /// The checker's DUT-side input register is corrupted: the trace the
    /// scan compares shows an output the stage never produced, creating
    /// symptoms with no underlying stage defect.
    CheckerCorrupt {
        /// `false`: one glitched comparison; `true`: the register is
        /// stuck and every scan of the stage is corrupted.
        persistent: bool,
    },
    /// A replay register sticks: every re-execution on the target stage
    /// returns a corrupted output, poisoning detection comparisons and
    /// TMR votes in which the stage participates.
    ReplayCorrupt,
    /// A committed checkpoint rots in storage; a transient then forces a
    /// recovery that would restore the poisoned state.
    CheckpointCorrupt,
    /// A transient fired *inside* the epoch (mid `T_test` window) rather
    /// than at an epoch boundary.
    MidWindow,
    /// Two distinct permanents on a same-unit pair in the same epoch:
    /// when they meet as DUT and redundant, every third voter disagrees
    /// with both — the vote stays inconclusive through the bounded
    /// retries and must fall back to double-quarantine.
    MidDiagnosis,
    /// A TSV bundle with bits stuck open/short: every transfer the link
    /// carries is corrupted, but the serving stage itself is healthy —
    /// replays (which bypass the TSV) come back clean, and repair must
    /// quarantine the *link*, not retire the stage.
    TsvStuck,
    /// A wired-OR bridge between the same-unit links of two adjacent
    /// serving layers: both ends deliver corrupted values while both are
    /// active; rerouting either end silences the bridge.
    TsvBridge,
    /// Capacitive coupling onto a victim link from the adjacent
    /// same-unit link: a fraction of transfers flip, gated on the
    /// aggressor layer actually carrying traffic.
    Crosstalk,
    /// The crossbar mux-select register for one pipeline slot is upset:
    /// the pipeline silently latches another layer's stage output. Only
    /// the route-scrub readback can tell this from stage corruption.
    MuxSelect,
    /// An SEU/MBU particle strike spanning several links of one layer in
    /// the same epoch: each affected link corrupts a handful of
    /// transfers, then the upset clears itself.
    SeuBurst,
}

impl FaultKind {
    /// The kind's discriminant in the campaign universe.
    #[must_use]
    pub const fn id(&self) -> KindId {
        match self {
            FaultKind::Permanent => KindId::Permanent,
            FaultKind::Transient => KindId::Transient,
            FaultKind::Intermittent { .. } => KindId::Intermittent,
            FaultKind::Burst => KindId::Burst,
            FaultKind::CheckerCorrupt { .. } => KindId::CheckerCorrupt,
            FaultKind::ReplayCorrupt => KindId::ReplayCorrupt,
            FaultKind::CheckpointCorrupt => KindId::CheckpointCorrupt,
            FaultKind::MidWindow => KindId::MidWindow,
            FaultKind::MidDiagnosis => KindId::MidDiagnosis,
            FaultKind::TsvStuck => KindId::TsvStuck,
            FaultKind::TsvBridge => KindId::TsvBridge,
            FaultKind::Crosstalk => KindId::Crosstalk,
            FaultKind::MuxSelect => KindId::MuxSelect,
            FaultKind::SeuBurst => KindId::SeuBurst,
        }
    }

    /// Stable report/JSON name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.id().name()
    }
}

/// All kind names in fixed report order (derived from [`KindId::ALL`]).
pub const KIND_NAMES: [&str; KindId::COUNT] = {
    let mut names = [""; KindId::COUNT];
    let mut i = 0;
    while i < KindId::COUNT {
        names[i] = KindId::ALL[i].name();
        i += 1;
    }
    names
};

/// One injection action of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Runner epoch (0-based) at whose start the action is applied.
    pub epoch: u64,
    /// Target stage.
    pub stage: StageId,
    /// The pipeline the target serves at injection time (identity
    /// formation: pipeline `p` is served by layer `p`). Checkpoint
    /// corruption targets this pipeline's slot.
    pub pipe: usize,
    /// Kind-specific seed (fault derivation, corruption mask, timing).
    pub seed: u64,
}

/// A complete adversarial experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScenario {
    /// Index within the campaign (stable across substrates).
    pub id: u32,
    /// Fault class.
    pub kind: FaultKind,
    /// Injection actions (shrinking removes entries from this list).
    pub injections: Vec<Injection>,
    /// Total epochs to run, including the post-injection settle phase.
    pub epochs: u64,
}

/// Generation parameters (a subset of the campaign configuration).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpace {
    /// Campaign seed.
    pub seed: u64,
    /// Scenarios to generate.
    pub count: usize,
    /// Formed pipelines (serving layers `0..pipelines`).
    pub pipelines: usize,
    /// Stack height (leftover layers `pipelines..layers`).
    pub layers: usize,
    /// Fault-free epochs appended after the active phase.
    pub settle_epochs: u64,
}

fn scenario_rng(seed: u64, id: u32) -> StdRng {
    // SplitMix-style stream separation so neighbouring ids decorrelate.
    let mut z = seed ^ (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Generates the campaign's scenario list over the full kind universe:
/// kinds cycle round-robin (so every class is covered at any campaign
/// size) and all remaining choices are drawn from the scenario's own
/// seeded stream.
#[must_use]
pub fn generate_scenarios(space: &ScenarioSpace) -> Vec<FaultScenario> {
    generate_scenarios_with(space, &KindId::ALL)
}

/// [`generate_scenarios`] restricted to a kind subset (the `--kinds` CLI
/// filter): scenario `i` draws its class from `kinds[i % kinds.len()]`,
/// keeping the total count — and each scenario's id-keyed random stream —
/// independent of the filter.
///
/// # Panics
/// Panics if `kinds` is empty.
#[must_use]
pub fn generate_scenarios_with(space: &ScenarioSpace, kinds: &[KindId]) -> Vec<FaultScenario> {
    assert!(!kinds.is_empty(), "campaign needs at least one fault kind");
    (0..space.count).map(|i| generate_one(space, i as u32, kinds[i % kinds.len()])).collect()
}

fn generate_one(space: &ScenarioSpace, id: u32, kind_id: KindId) -> FaultScenario {
    let mut rng = scenario_rng(space.seed, id);
    let settle = space.settle_epochs;
    let unit = INJECTABLE_UNITS[rng.gen_range(0..INJECTABLE_UNITS.len())];
    let pipe = rng.gen_range(0..space.pipelines);
    let serving = StageId::new(pipe, unit);
    let spare_layers = space.pipelines..space.layers;
    let seed: u64 = rng.gen();

    let (kind, injections, active) = match kind_id {
        KindId::Permanent => {
            let epoch = 1 + rng.gen_range(0..3u64);
            (FaultKind::Permanent, vec![Injection { epoch, stage: serving, pipe, seed }], epoch + 2)
        }
        KindId::Transient => {
            let epoch = 1 + rng.gen_range(0..3u64);
            (FaultKind::Transient, vec![Injection { epoch, stage: serving, pipe, seed }], epoch + 2)
        }
        KindId::Intermittent => {
            let period = 1 + rng.gen_range(0..3u64);
            // Enough firings for the decaying history to escalate
            // (threshold 3.0 needs 4 recurrences at period <= 3), plus
            // the repair epoch.
            (
                FaultKind::Intermittent { period },
                vec![Injection { epoch: 1, stage: serving, pipe, seed }],
                1 + 4 * period + 2,
            )
        }
        KindId::Burst => {
            let epoch = 1 + rng.gen_range(0..2u64);
            let n = 2 + rng.gen_range(0..2usize);
            // Consecutive seeds derive distinct fault effects, so two
            // burst faults meeting as a comparison pair can never
            // out-vote a healthy third stage.
            let fault = |stage: StageId, j: usize| Injection {
                epoch,
                stage,
                pipe: stage.layer,
                seed: seed.wrapping_add(j as u64),
            };
            let mut injections = Vec::with_capacity(n);
            injections.push(fault(serving, 0));
            while injections.len() < n {
                let u = INJECTABLE_UNITS[rng.gen_range(0..INJECTABLE_UNITS.len())];
                let p = rng.gen_range(0..space.pipelines);
                let s = StageId::new(p, u);
                if !injections.iter().any(|inj| inj.stage == s) {
                    injections.push(fault(s, injections.len()));
                }
            }
            (FaultKind::Burst, injections, epoch + 3)
        }
        KindId::CheckerCorrupt => {
            let persistent = rng.gen_bool(0.5);
            let epoch = 1 + rng.gen_range(0..2u64);
            // Persistent corruption must outlast the escalation threshold.
            let active = if persistent { epoch + 6 } else { epoch + 2 };
            (
                FaultKind::CheckerCorrupt { persistent },
                vec![Injection { epoch, stage: serving, pipe, seed }],
                active,
            )
        }
        KindId::ReplayCorrupt => {
            // Replay registers matter on the *redundant* side, so the
            // target is a leftover; the rotating scan pairs every spare
            // within `candidates` epochs.
            let layer = rng.gen_range(spare_layers.clone());
            let stage = StageId::new(layer, unit);
            (
                FaultKind::ReplayCorrupt,
                vec![Injection { epoch: 1, stage, pipe, seed }],
                1 + (space.layers - space.pipelines) as u64 + 2,
            )
        }
        KindId::CheckpointCorrupt => {
            // Epoch 2: the first commit boundary (interval 2) has passed,
            // and recovery fires before the next one can overwrite the
            // rotted slot.
            (
                FaultKind::CheckpointCorrupt,
                vec![Injection { epoch: 2, stage: serving, pipe, seed }],
                4,
            )
        }
        KindId::MidWindow => {
            let epoch = 1 + rng.gen_range(0..2u64);
            (FaultKind::MidWindow, vec![Injection { epoch, stage: serving, pipe, seed }], epoch + 2)
        }
        KindId::MidDiagnosis => {
            let layer = rng.gen_range(spare_layers);
            let pair = [
                Injection { epoch: 1, stage: serving, pipe, seed },
                Injection {
                    epoch: 1,
                    stage: StageId::new(layer, unit),
                    pipe,
                    seed: seed.wrapping_add(1),
                },
            ];
            (
                FaultKind::MidDiagnosis,
                pair.to_vec(),
                1 + (space.layers - space.pipelines) as u64 + 2,
            )
        }
        KindId::TsvStuck => {
            // Every transfer on the serving link is corrupted from the
            // injection onwards: four dense windows escalate the history,
            // then the link quarantine and reroute need a repair epoch.
            let epoch = 1 + rng.gen_range(0..2u64);
            (FaultKind::TsvStuck, vec![Injection { epoch, stage: serving, pipe, seed }], epoch + 7)
        }
        KindId::TsvBridge => {
            // Both ends of the bridge are serving links; the partner is
            // the physically adjacent layer above (`v + 1`), so the
            // victim draws from `0..pipelines-1`. `apply_injections`
            // arms the fault on both ends from this single entry.
            let v = if space.pipelines > 1 { rng.gen_range(0..space.pipelines - 1) } else { 0 };
            let stage = StageId::new(v, unit);
            (FaultKind::TsvBridge, vec![Injection { epoch: 1, stage, pipe: v, seed }], 1 + 7)
        }
        KindId::Crosstalk => {
            // Victim is the serving link; the aggressor is the adjacent
            // serving layer (leftovers idle, and the coupling is gated
            // on aggressor activity).
            let epoch = 1 + rng.gen_range(0..2u64);
            (FaultKind::Crosstalk, vec![Injection { epoch, stage: serving, pipe, seed }], epoch + 7)
        }
        KindId::MuxSelect => {
            // Injected two epochs before scenario end (inside the settle
            // tail): the symptom history cannot reach its escalation
            // threshold in that span, so when route scrubbing is off the
            // misroute demonstrably survives to the final ground-truth
            // readback (`misrouted_undetected`), while the scrub — when
            // on — catches it within one epoch.
            let epoch = settle + 1;
            (FaultKind::MuxSelect, vec![Injection { epoch, stage: serving, pipe, seed }], 3)
        }
        KindId::SeuBurst => {
            // One particle strike spanning several same-layer links in
            // the same epoch; each burst self-clears after a few
            // transfers, so every window stays below the density and
            // escalation thresholds.
            let epoch = 1 + rng.gen_range(0..2u64);
            let n = 2 + rng.gen_range(0..3usize);
            let strike = |u, j: usize| Injection {
                epoch,
                stage: StageId::new(pipe, u),
                pipe,
                seed: seed.wrapping_add(j as u64),
            };
            let mut injections = Vec::with_capacity(n);
            injections.push(strike(unit, 0));
            while injections.len() < n {
                let u = INJECTABLE_UNITS[rng.gen_range(0..INJECTABLE_UNITS.len())];
                if !injections.iter().any(|inj| inj.stage.unit == u) {
                    injections.push(strike(u, injections.len()));
                }
            }
            (FaultKind::SeuBurst, injections, epoch + 2)
        }
    };

    FaultScenario { id, kind, injections, epochs: active + settle }
}

/// The ground-truth defective stages of a scenario: the stages whose
/// hardware (stage logic, checker input register, replay register) the
/// scenario actually breaks. Quarantining anything outside this set —
/// beyond the engine's documented inconclusive double-quarantine — is a
/// misdiagnosis.
#[must_use]
pub fn truth_defective(scenario: &FaultScenario) -> Vec<StageId> {
    let mut stages: Vec<StageId> = match scenario.kind {
        FaultKind::Permanent
        | FaultKind::Intermittent { .. }
        | FaultKind::Burst
        | FaultKind::ReplayCorrupt
        | FaultKind::MidDiagnosis
        | FaultKind::CheckerCorrupt { persistent: true } => {
            scenario.injections.iter().map(|i| i.stage).collect()
        }
        FaultKind::Transient
        | FaultKind::MidWindow
        | FaultKind::CheckpointCorrupt
        | FaultKind::CheckerCorrupt { persistent: false } => Vec::new(),
        // Fabric faults break interconnect, never stage hardware:
        // quarantining any *stage* for one is a misdiagnosis.
        FaultKind::TsvStuck
        | FaultKind::TsvBridge
        | FaultKind::Crosstalk
        | FaultKind::MuxSelect
        | FaultKind::SeuBurst => Vec::new(),
    };
    stages.sort_unstable();
    stages.dedup();
    stages
}

/// The ground-truth defective *links* of a scenario: the TSV bundles the
/// scenario actually damages (identified by the serving stage whose
/// vertical span they are). Quarantining a link outside this set is a
/// misdiagnosis, exactly as for stages. Transient fabric upsets
/// (mux-select flips, SEU bursts) damage no link.
#[must_use]
pub fn truth_links(scenario: &FaultScenario) -> Vec<StageId> {
    let mut links: Vec<StageId> = match scenario.kind {
        FaultKind::TsvStuck | FaultKind::Crosstalk => {
            scenario.injections.iter().map(|i| i.stage).collect()
        }
        // Both ends of the bridge are damaged; the partner end is the
        // layer above the recorded victim (see generation).
        FaultKind::TsvBridge => scenario
            .injections
            .iter()
            .flat_map(|i| [i.stage, StageId::new(i.stage.layer + 1, i.stage.unit)])
            .collect(),
        _ => Vec::new(),
    };
    links.sort_unstable();
    links.dedup();
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ScenarioSpace {
        ScenarioSpace { seed: 0xCA3A, count: 70, pipelines: 5, layers: 8, settle_epochs: 8 }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_scenarios(&space()), generate_scenarios(&space()));
        let other = ScenarioSpace { seed: 1, ..space() };
        assert_ne!(generate_scenarios(&space()), generate_scenarios(&other));
    }

    #[test]
    fn kinds_cycle_and_targets_are_in_range() {
        let scenarios = generate_scenarios(&space());
        for name in KIND_NAMES {
            assert!(scenarios.iter().any(|s| s.kind.name() == name), "kind {name} never generated");
        }
        for s in &scenarios {
            assert!(!s.injections.is_empty());
            for inj in &s.injections {
                assert!(inj.stage.layer < 8);
                assert!(inj.epoch < s.epochs, "injection after scenario end");
                assert!(inj.stage.unit != Unit::Ffu);
            }
            match s.kind {
                FaultKind::ReplayCorrupt => assert!(s.injections[0].stage.layer >= 5),
                FaultKind::MidDiagnosis => {
                    assert_eq!(s.injections.len(), 2);
                    assert_eq!(s.injections[0].stage.unit, s.injections[1].stage.unit);
                    assert_ne!(s.injections[0].stage, s.injections[1].stage);
                }
                FaultKind::Burst => assert!(s.injections.len() >= 2),
                // Link-fault targets must be serving links (layer <
                // pipelines), with the bridge partner also serving.
                FaultKind::TsvStuck | FaultKind::Crosstalk => {
                    assert!(s.injections[0].stage.layer < 5);
                }
                FaultKind::TsvBridge => {
                    assert!(s.injections[0].stage.layer + 1 < 5);
                }
                FaultKind::MuxSelect => {
                    assert_eq!(s.injections[0].epoch + 2, s.epochs, "mux upset lands late");
                }
                FaultKind::SeuBurst => {
                    assert!(s.injections.len() >= 2);
                    assert!(s.injections.iter().all(|i| i.stage.layer == s.injections[0].pipe));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn kind_filter_restricts_generation() {
        let active = [KindId::TsvStuck, KindId::SeuBurst];
        let scenarios = generate_scenarios_with(&space(), &active);
        assert_eq!(scenarios.len(), space().count);
        for s in &scenarios {
            assert!(active.contains(&s.kind.id()), "filtered kind generated: {:?}", s.kind);
        }
        // A filtered scenario keeps its id-keyed stream: same id + same
        // kind => identical scenario regardless of the filter shape.
        let full = generate_scenarios(&space());
        let stuck_full = full.iter().find(|s| s.kind == FaultKind::TsvStuck).unwrap();
        let same = generate_scenarios_with(&space(), &[KindId::TsvStuck])
            .into_iter()
            .find(|s| s.id == stuck_full.id)
            .unwrap();
        assert_eq!(*stuck_full, same);
    }

    #[test]
    fn kind_names_and_ids_round_trip() {
        assert_eq!(KIND_NAMES.len(), KindId::COUNT);
        for id in KindId::ALL {
            assert_eq!(KindId::from_name(id.name()), Some(id));
        }
        assert_eq!(KindId::from_name("no_such_kind"), None);
    }

    #[test]
    fn fabric_generation_is_deterministic_for_any_seed() {
        use proptest::prelude::*;
        let fabric = [
            KindId::TsvStuck,
            KindId::TsvBridge,
            KindId::Crosstalk,
            KindId::MuxSelect,
            KindId::SeuBurst,
        ];
        proptest!(|(seed in any::<u64>(), count in 1usize..40)| {
            let sp = ScenarioSpace { seed, count, ..space() };
            let a = generate_scenarios_with(&sp, &fabric);
            let b = generate_scenarios_with(&sp, &fabric);
            prop_assert_eq!(&a, &b);
            for s in &a {
                prop_assert!(fabric.contains(&s.kind.id()));
                for inj in &s.injections {
                    prop_assert!(inj.epoch < s.epochs);
                    prop_assert!(inj.stage.layer < sp.layers);
                }
                // Link-fault victims (and the bridge partner) must be
                // serving links for the fault to carry traffic.
                for link in truth_links(s) {
                    prop_assert!(link.layer < sp.pipelines);
                }
            }
        });
    }

    #[test]
    fn truth_links_match_kind_semantics() {
        for s in generate_scenarios(&space()) {
            let links = truth_links(&s);
            match s.kind {
                FaultKind::TsvStuck | FaultKind::Crosstalk => assert_eq!(links.len(), 1),
                FaultKind::TsvBridge => {
                    assert_eq!(links.len(), 2);
                    assert_eq!(links[0].layer + 1, links[1].layer, "bridge spans adjacent layers");
                }
                _ => assert!(links.is_empty(), "{:?} damages no link", s.kind),
            }
        }
    }

    #[test]
    fn truth_sets_match_kind_semantics() {
        for s in generate_scenarios(&space()) {
            let truth = truth_defective(&s);
            match s.kind {
                FaultKind::Transient
                | FaultKind::MidWindow
                | FaultKind::CheckpointCorrupt
                | FaultKind::CheckerCorrupt { persistent: false }
                | FaultKind::TsvStuck
                | FaultKind::TsvBridge
                | FaultKind::Crosstalk
                | FaultKind::MuxSelect
                | FaultKind::SeuBurst => {
                    assert!(truth.is_empty(), "{:?} has no defective stage", s.kind);
                }
                _ => assert!(!truth.is_empty()),
            }
        }
    }
}
