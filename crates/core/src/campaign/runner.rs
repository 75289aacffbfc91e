//! Campaign execution: run scenarios end-to-end, classify outcomes.
//!
//! Each scenario gets a fresh substrate and a fresh engine; the runner
//! applies the scenario's injections at their epochs, drives
//! [`R2d3Engine::run_epoch`] for the scenario's duration, and classifies
//! what the engine did about it. The runner manages *workload* (restarts
//! pipelines whose program ran dry) but never repairs *corruption* — a
//! tainted pipeline the engine failed to recover must remain visible as a
//! silent-corruption verdict.

use crate::campaign::adversary::Adversary;
use crate::campaign::scenario::{truth_defective, truth_links, FaultKind, FaultScenario, KindId};
use crate::campaign::shrink::shrink_scenario;
use crate::checkpoint::CheckpointConfig;
use crate::config::R2d3Config;
use crate::engine::{EngineEvent, R2d3Engine};
use crate::history::EscalationConfig;
use crate::policy::PolicyKind;
use crate::substrate::{LinkFault, NetlistSubstrate, NetlistSubstrateConfig, ReliabilitySubstrate};
use crate::telemetry::{
    Histogram, MetricsSnapshot, NullSink, RingSink, TelemetryRecord, TelemetrySink,
    DETECTION_LATENCY_BOUNDS, REPLAY_COUNT_BOUNDS,
};
use r2d3_isa::kernels::trap_mix;
use r2d3_isa::{Program, Unit};
use r2d3_netlist::stages::StageNetlist;
use r2d3_pipeline_sim::{StageId, System3d, SystemConfig};
use std::collections::BTreeSet;

/// Which substrate a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateKind {
    /// Instruction-level behavioral simulator ([`System3d`]).
    Behavioral,
    /// Synthesized gate-level stage netlists ([`NetlistSubstrate`]).
    Netlist,
}

impl SubstrateKind {
    /// Stable report name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SubstrateKind::Behavioral => "behavioral",
            SubstrateKind::Netlist => "netlist",
        }
    }
}

/// End-to-end verdict on one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The fault never manifested architecturally and nothing fired.
    Benign,
    /// The engine saw the fault and handled it; the final state is clean
    /// and nothing healthy was condemned.
    DetectedRepaired,
    /// A crossbar mux-select upset was caught by the route scrub and the
    /// select register rewritten; the final state is clean.
    Rerouted,
    /// The engine attributed the symptoms to a vertical link, quarantined
    /// the link (a routing constraint — the stage behind it stays in
    /// service) and rerouted around it; the final state is clean.
    LinkQuarantined,
    /// The engine quarantined hardware the scenario never broke (beyond
    /// the documented inconclusive double-quarantine).
    Misdiagnosed,
    /// A pipeline still latches a layer other than the controller's
    /// routing intent at scenario end — the crossbar upset outlived every
    /// detection mechanism.
    MisroutedUndetected,
    /// Corrupted architectural state survived to the end of the scenario
    /// — or a poisoned checkpoint was restored — without the engine
    /// knowing.
    SilentCorruption,
    /// `run_epoch` returned an error.
    EngineFailure,
}

impl Outcome {
    /// Stable report name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::DetectedRepaired => "detected_repaired",
            Outcome::Rerouted => "rerouted",
            Outcome::LinkQuarantined => "link_quarantined",
            Outcome::Misdiagnosed => "misdiagnosed",
            Outcome::MisroutedUndetected => "misrouted_undetected",
            Outcome::SilentCorruption => "silent_corruption",
            Outcome::EngineFailure => "engine_failure",
        }
    }

    /// All outcomes in fixed report order.
    pub const ALL: [Outcome; 8] = [
        Outcome::Benign,
        Outcome::DetectedRepaired,
        Outcome::Rerouted,
        Outcome::LinkQuarantined,
        Outcome::Misdiagnosed,
        Outcome::MisroutedUndetected,
        Outcome::SilentCorruption,
        Outcome::EngineFailure,
    ];

    /// Whether the engine got this scenario *wrong* (shrink-worthy).
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Outcome::Misdiagnosed
                | Outcome::MisroutedUndetected
                | Outcome::SilentCorruption
                | Outcome::EngineFailure
        )
    }
}

/// Engine-event tallies over one scenario.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Checker firings.
    pub symptoms: u64,
    /// Transient verdicts.
    pub transients: u64,
    /// Permanent diagnoses.
    pub permanents: u64,
    /// Inconclusive votes (double-quarantines).
    pub inconclusives: u64,
    /// Symptom-history escalations.
    pub escalations: u64,
    /// Pipeline recoveries (rollback or restart).
    pub recoveries: u64,
    /// Checkpoint-integrity rejections.
    pub checkpoint_corruptions: u64,
    /// Route-scrub rewrites of upset mux-select registers.
    pub reroutes: u64,
    /// Vertical-link quarantines (routing constraints, not stage
    /// retirements).
    pub link_quarantines: u64,
}

/// One scenario's result on one substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Scenario id (stable across substrates).
    pub id: u32,
    /// Fault-kind name.
    pub kind: &'static str,
    /// Classified verdict.
    pub outcome: Outcome,
    /// Event tallies.
    pub counts: EventCounts,
    /// Minimal reproduction, present for failure outcomes when shrinking
    /// is enabled.
    pub shrunk: Option<FaultScenario>,
}

/// Engine metrics aggregated over one substrate sweep. Derived from
/// [`MetricsSnapshot`]s, which accumulate independently of the
/// telemetry sink — so a traced campaign reports byte-identical
/// metrics to an untraced one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepMetrics {
    /// Checker firings across the sweep.
    pub detections: u64,
    /// TMR replays across the sweep.
    pub replays: u64,
    /// Symptom-to-scan detection latency (cycles), merged.
    pub detection_latency: Histogram,
    /// Replays per diagnosis, merged.
    pub replay_count: Histogram,
}

impl Default for SweepMetrics {
    fn default() -> Self {
        SweepMetrics {
            detections: 0,
            replays: 0,
            detection_latency: Histogram::new(DETECTION_LATENCY_BOUNDS),
            replay_count: Histogram::new(REPLAY_COUNT_BOUNDS),
        }
    }
}

impl SweepMetrics {
    /// Folds one scenario's engine snapshot into the sweep aggregate.
    pub fn absorb(&mut self, snapshot: &MetricsSnapshot) {
        self.detections += snapshot.detections;
        self.replays += snapshot.replays;
        self.detection_latency.merge(&snapshot.detection_latency);
        self.replay_count.merge(&snapshot.replay_count);
    }
}

/// One substrate's sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstrateReport {
    /// Substrate name.
    pub substrate: &'static str,
    /// Per-scenario results, in scenario-id order.
    pub results: Vec<ScenarioResult>,
    /// Engine metrics aggregated over the sweep.
    pub metrics: SweepMetrics,
}

impl SubstrateReport {
    /// Scenarios that ended with `outcome`.
    #[must_use]
    pub fn outcome_count(&self, outcome: Outcome) -> usize {
        self.results.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Sum of event tallies across the sweep.
    #[must_use]
    pub fn total_counts(&self) -> EventCounts {
        let mut total = EventCounts::default();
        for r in &self.results {
            total.symptoms += r.counts.symptoms;
            total.transients += r.counts.transients;
            total.permanents += r.counts.permanents;
            total.inconclusives += r.counts.inconclusives;
            total.escalations += r.counts.escalations;
            total.recoveries += r.counts.recoveries;
            total.checkpoint_corruptions += r.counts.checkpoint_corruptions;
            total.reroutes += r.counts.reroutes;
            total.link_quarantines += r.counts.link_quarantines;
        }
        total
    }
}

/// Full campaign output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Scenarios generated per substrate.
    pub scenarios_per_substrate: usize,
    /// Active fault-kind names (the `--kinds` filter, or the full
    /// universe), in generation-cycle order.
    pub kinds: Vec<&'static str>,
    /// Per-substrate sweeps, in configuration order.
    pub substrates: Vec<SubstrateReport>,
}

impl CampaignReport {
    /// Total scenarios executed across all substrates.
    #[must_use]
    pub fn total_scenarios(&self) -> usize {
        self.substrates.iter().map(|s| s.results.len()).sum()
    }

    /// Scenarios (across all substrates) the engine got wrong.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.substrates
            .iter()
            .map(|s| s.results.iter().filter(|r| r.outcome.is_failure()).count())
            .sum()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: scenario generation and fault derivation.
    pub seed: u64,
    /// Scenarios per substrate (the same list runs on every substrate).
    pub scenarios_per_substrate: usize,
    /// Substrates to sweep.
    pub substrates: Vec<SubstrateKind>,
    /// Fault kinds the generator cycles through (the `--kinds` CLI
    /// filter). Defaults to the full [`KindId::ALL`] universe; must not
    /// be empty.
    pub kinds: Vec<KindId>,
    /// Formed pipelines per substrate instance.
    pub pipelines: usize,
    /// Stack height.
    pub layers: usize,
    /// Fault-free epochs appended to every scenario so delayed
    /// consequences (missed recoveries, late escalations) surface.
    pub settle_epochs: u64,
    /// Shrink failure scenarios to minimal reproductions.
    pub shrink: bool,
    /// Engine configuration under test.
    pub engine: R2d3Config,
    /// Caller-provided stage netlists for the gate-level substrate (one
    /// per unit, in [`r2d3_isa::Unit::ALL`] order) — e.g. a core imported
    /// from Yosys JSON mapped onto the pipeline stages. `None` (the
    /// default) synthesizes the built-in stage netlists.
    pub netlist_stages: Option<Vec<StageNetlist>>,
}

/// The engine configuration campaigns exercise: epoch-long test windows
/// (`t_test` counts *records*, and both trace rings hold at least a full
/// 4 k-cycle epoch) so every operation of an epoch is inside the compared
/// window, checkpoints every other epoch, and all hardening features
/// (escalation, inconclusive retries, transient rollback) at defaults.
/// `t_cal` is pushed beyond scenario horizons: rotation is lifetime
/// machinery, not a detection feature, and keeping the formation static
/// makes fault placement deterministic.
#[must_use]
pub fn campaign_engine_config() -> R2d3Config {
    R2d3Config {
        t_epoch: 4_000,
        t_test: 4_000,
        t_cal: 1 << 40,
        policy: PolicyKind::Pro,
        suspend_when_no_leftover: true,
        checkpoint: Some(CheckpointConfig { interval_epochs: 2, ..Default::default() }),
        escalation: Some(EscalationConfig::default()),
        inconclusive_retries: 2,
        rollback_on_transient: true,
        route_scrub: true,
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xCA3A,
            scenarios_per_substrate: 256,
            substrates: vec![SubstrateKind::Behavioral, SubstrateKind::Netlist],
            kinds: KindId::ALL.to_vec(),
            pipelines: 5,
            layers: 8,
            settle_epochs: 8,
            shrink: true,
            engine: campaign_engine_config(),
            netlist_stages: None,
        }
    }
}

/// The cycle-stamped telemetry stream of one traced scenario.
#[derive(Debug, Clone)]
pub struct CampaignTrace {
    /// Substrate name.
    pub substrate: &'static str,
    /// Scenario id the records belong to.
    pub scenario: u32,
    /// Records in emission order (oldest first).
    pub records: Vec<TelemetryRecord>,
}

/// What one scenario run yields: its result, its engine metrics and, on
/// a traced run, its telemetry stream.
pub(crate) type ScenarioRun = (ScenarioResult, MetricsSnapshot, Option<CampaignTrace>);

/// A substrate kind with its expensive per-sweep setup done (workload
/// programs built, netlists synthesized), able to execute scenarios one
/// at a time — the unit of work the campaign loop checkpoints between.
/// Every schedule (batch, traced, resumed, sharded) runs the same loop
/// over [`PreparedSubstrate::run_one`], so they execute byte-identical
/// per-scenario code. Each sweep worker runs scenarios on its own clone.
#[derive(Clone)]
pub(crate) struct PreparedSubstrate {
    kind: SubstrateKind,
    inner: PreparedInner,
}

#[derive(Clone)]
enum PreparedInner {
    /// Long-running syscall-heavy kernels keep every unit class busy;
    /// built once, cloned per scenario.
    Behavioral { programs: Vec<Program>, sys_cfg: SystemConfig },
    /// Synthesis is the expensive part; one template, cloned per
    /// scenario. Boxed: the substrate dwarfs the behavioral variant.
    Netlist { template: Box<NetlistSubstrate> },
}

impl PreparedSubstrate {
    pub(crate) fn new(kind: SubstrateKind, config: &CampaignConfig) -> Self {
        let inner = match kind {
            SubstrateKind::Behavioral => PreparedInner::Behavioral {
                programs: (0..config.pipelines)
                    .map(|p| trap_mix(4096, config.seed ^ (p as u64 + 1)).program().clone())
                    .collect(),
                sys_cfg: SystemConfig {
                    pipelines: config.pipelines,
                    layers: config.layers,
                    // The epoch scan reads the newest `t_test` records
                    // (`detect::epoch_scan_counted`); a longer ring holds
                    // records nothing reads.
                    trace_capacity: config.engine.t_test as usize,
                    ..Default::default()
                },
            },
            SubstrateKind::Netlist => {
                let defaults = NetlistSubstrateConfig::default();
                let sub_cfg = NetlistSubstrateConfig {
                    pipelines: config.pipelines,
                    layers: config.layers,
                    trace_capacity: netlist_ring_capacity(&config.engine, defaults.cycles_per_op),
                    ..defaults
                };
                let template = match &config.netlist_stages {
                    Some(stages) => NetlistSubstrate::with_stage_netlists(&sub_cfg, stages.clone())
                        .expect("netlist_stages validated at configuration time"),
                    None => NetlistSubstrate::new(&sub_cfg),
                };
                PreparedInner::Netlist { template: Box::new(template) }
            }
        };
        PreparedSubstrate { kind, inner }
    }

    /// Executes one scenario end-to-end: run, classify, trace when
    /// `traced`, shrink failures.
    pub(crate) fn run_one(
        &self,
        scenario: &FaultScenario,
        config: &CampaignConfig,
        traced: bool,
    ) -> ScenarioRun {
        match &self.inner {
            PreparedInner::Behavioral { programs, sys_cfg } => {
                run_one_scenario(self.kind, scenario, config, traced, || {
                    let mut sys = System3d::new(sys_cfg);
                    for (p, prog) in programs.iter().enumerate() {
                        sys.load_program(p, prog.clone()).expect("campaign workload load");
                    }
                    sys
                })
            }
            PreparedInner::Netlist { template } => {
                run_one_scenario(self.kind, scenario, config, traced, || (**template).clone())
            }
        }
    }
}

/// Trace-ring capacity of a netlist stage under `engine`: every record
/// the epoch scan can keep.
///
/// The scan reads the newest `t_test` records and keeps those stamped at
/// or after `now − t_epoch`, the epoch's start. A netlist stage stamps one
/// record per `cycles_per_op` cycles: a `run` of `a` cycles from carry
/// `c` retires `⌊(c + a) / cycles_per_op⌋` operations. However an epoch's
/// cycles are split into `run` calls (the mid-window adversary makes
/// two), its operations telescope through `cycle_carry` to at most
/// `⌊(c + t_epoch) / cycles_per_op⌋ ≤ ⌈t_epoch / cycles_per_op⌉`; a carry
/// reset by a restore or restart only lowers the sum. Operations retire
/// `cycles_per_op` cycles apart and each is stamped less than
/// `cycles_per_op` cycles after it retires, so at most one earlier record
/// is stamped at or after the boundary. Stamps rise in push order, so the
/// kept records are at most the newest `⌈t_epoch / cycles_per_op⌉ + 1`;
/// the last slot is headroom.
fn netlist_ring_capacity(engine: &R2d3Config, cycles_per_op: u64) -> usize {
    let per_epoch = engine.t_epoch.div_ceil(cycles_per_op.max(1));
    engine.t_test.min(per_epoch + 2) as usize
}

fn run_one_scenario<S, F>(
    kind: SubstrateKind,
    scenario: &FaultScenario,
    config: &CampaignConfig,
    traced: bool,
    make: F,
) -> ScenarioRun
where
    S: ReliabilitySubstrate,
    F: Fn() -> S,
{
    // The sink is an observer only: outcome, counts and metrics are
    // identical on both arms (see `run_campaign_traced`).
    let (outcome, counts, snapshot, trace) = if traced {
        let exec = execute_scenario(make(), scenario, &config.engine, RingSink::new());
        let trace = CampaignTrace {
            substrate: kind.name(),
            scenario: scenario.id,
            records: exec.engine.telemetry().records(),
        };
        (exec.outcome, exec.counts, exec.metrics, Some(trace))
    } else {
        let exec = execute_scenario(make(), scenario, &config.engine, NullSink);
        (exec.outcome, exec.counts, exec.metrics, None)
    };
    let shrunk = (config.shrink && outcome.is_failure()).then(|| {
        shrink_scenario(scenario, outcome, |cand| {
            execute_scenario(make(), cand, &config.engine, NullSink).outcome
        })
    });
    let result =
        ScenarioResult { id: scenario.id, kind: scenario.kind.name(), outcome, counts, shrunk };
    (result, snapshot, trace)
}

struct Execution<S: ReliabilitySubstrate, T: TelemetrySink> {
    outcome: Outcome,
    counts: EventCounts,
    metrics: MetricsSnapshot,
    engine: R2d3Engine<Adversary<S>, T>,
}

/// Runs one scenario end-to-end on a fresh substrate and classifies it.
fn execute_scenario<S: ReliabilitySubstrate, T: TelemetrySink>(
    sys: S,
    scenario: &FaultScenario,
    engine_cfg: &R2d3Config,
    sink: T,
) -> Execution<S, T> {
    let mut sys = Adversary::new(sys);
    let mut engine: R2d3Engine<Adversary<S>, T> = R2d3Engine::builder()
        .config(*engine_cfg)
        .telemetry(sink)
        .build()
        .expect("campaign engine configuration must be valid");
    let truth: BTreeSet<StageId> = truth_defective(scenario).into_iter().collect();
    // `allowed` is what the engine may quarantine without being wrong:
    // the ground-truth defective stages, plus both parties of any
    // inconclusive vote (the documented double-quarantine fallback).
    let mut allowed = truth;
    // Same contract for vertical links: the engine may only quarantine
    // links the scenario actually damaged.
    let allowed_links: BTreeSet<StageId> = truth_links(scenario).into_iter().collect();
    let mut counts = EventCounts::default();
    let mut engine_failed = false;
    let pipes = sys.pipeline_count();
    let mut last_retired = vec![0u64; pipes];

    for epoch in 0..scenario.epochs {
        apply_injections(&mut sys, &mut engine, scenario, epoch, engine_cfg.t_epoch);
        match engine.run_epoch(&mut sys) {
            Ok(events) => tally(&events, &mut counts, &mut allowed),
            Err(_) => {
                engine_failed = true;
                break;
            }
        }
        // Workload keep-alive: a pipeline whose program finished retires
        // nothing and would starve detection of fresh trace records.
        // Restart is gated on the pipeline being *uncorrupted* — the
        // runner must never clean up state the engine failed to recover.
        for (p, last) in last_retired.iter_mut().enumerate() {
            if sys.retired(p) == *last && !sys.pipeline_corrupted(p) {
                let _ = sys.restart_program(p);
            }
            *last = sys.retired(p);
        }
    }

    let metrics = engine.metrics();
    let poisoned = metrics.checkpoints.map_or(0, |s| s.poisoned_restores);
    let residual_corruption = (0..pipes).any(|p| sys.pipeline_corrupted(p));
    // Ground truth the engine cannot see if scrubbing is off: does any
    // pipeline slot still latch a layer other than the controller's
    // routing intent?
    let misrouted_end = (0..pipes).any(|p| {
        Unit::ALL.iter().any(|&u| {
            sys.stage_for(p, u).is_some_and(|intent| sys.route_readback(p, u) != Some(intent.layer))
        })
    });
    let misdiagnosed = metrics.believed_faulty.iter().any(|s| !allowed.contains(s))
        || metrics.quarantined_links.iter().any(|s| !allowed_links.contains(s));
    let saw_fault = counts.symptoms > 0
        || counts.escalations > 0
        || counts.reroutes > 0
        || counts.link_quarantines > 0;

    let outcome = if engine_failed {
        Outcome::EngineFailure
    } else if misrouted_end {
        Outcome::MisroutedUndetected
    } else if poisoned > 0 || residual_corruption {
        Outcome::SilentCorruption
    } else if misdiagnosed {
        Outcome::Misdiagnosed
    } else if counts.link_quarantines > 0 {
        Outcome::LinkQuarantined
    } else if counts.reroutes > 0 {
        Outcome::Rerouted
    } else if saw_fault {
        Outcome::DetectedRepaired
    } else {
        Outcome::Benign
    };
    Execution { outcome, counts, metrics, engine }
}

/// Applies a scenario's injections due at `epoch` (before the epoch runs).
fn apply_injections<S: ReliabilitySubstrate, T: TelemetrySink>(
    sys: &mut Adversary<S>,
    engine: &mut R2d3Engine<Adversary<S>, T>,
    scenario: &FaultScenario,
    epoch: u64,
    t_epoch: u64,
) {
    // Injection failures (e.g. a target the engine already power-gated)
    // mean the fault has nowhere left to land; the scenario simply
    // becomes less eventful, which the classifier handles.
    for inj in &scenario.injections {
        match scenario.kind {
            FaultKind::Permanent | FaultKind::Burst | FaultKind::MidDiagnosis => {
                if inj.epoch == epoch {
                    let _ = sys.inject_permanent_seeded(inj.stage, inj.seed);
                }
            }
            FaultKind::Transient => {
                if inj.epoch == epoch {
                    let _ = sys.inject_transient_seeded(inj.stage, inj.seed);
                }
            }
            FaultKind::Intermittent { period } => {
                // Duty-cycled recurrence until the engine quarantines the
                // stage (at which point the defect is out of service).
                if epoch >= inj.epoch
                    && (epoch - inj.epoch).is_multiple_of(period)
                    && !engine.is_believed_faulty(inj.stage)
                {
                    let _ = sys.inject_transient_seeded(inj.stage, inj.seed);
                }
            }
            FaultKind::CheckerCorrupt { persistent } => {
                if inj.epoch == epoch {
                    sys.arm_checker_corrupt(inj.stage, mask_from(inj.seed), persistent);
                }
            }
            FaultKind::ReplayCorrupt => {
                if inj.epoch == epoch {
                    sys.arm_replay_corrupt(inj.stage, mask_from(inj.seed));
                }
            }
            FaultKind::CheckpointCorrupt => {
                if inj.epoch == epoch {
                    // Rot the committed slot, then force a recovery before
                    // the next commit boundary via a transient on the
                    // pipeline the slot belongs to.
                    engine.corrupt_checkpoint(inj.pipe, inj.seed);
                    let _ = sys.inject_transient_seeded(inj.stage, inj.seed.wrapping_add(1));
                }
            }
            FaultKind::MidWindow => {
                if inj.epoch == epoch {
                    let third = (t_epoch / 3).max(1);
                    sys.arm_mid_window(inj.stage, inj.seed, third + inj.seed % third);
                }
            }
            FaultKind::TsvStuck => {
                if inj.epoch == epoch {
                    let fault = LinkFault::Stuck {
                        mask: mask_from(inj.seed),
                        pattern: (inj.seed >> 32) as u32,
                    };
                    let _ = sys.inject_link_fault(inj.stage, fault);
                }
            }
            FaultKind::TsvBridge => {
                if inj.epoch == epoch {
                    // One scenario entry arms both ends of the bridge
                    // (the partner is the layer above — see generation).
                    let mask = mask_from(inj.seed);
                    let lo = inj.stage;
                    let hi = StageId::new(lo.layer + 1, lo.unit);
                    let _ = sys
                        .inject_link_fault(lo, LinkFault::Bridge { other_layer: hi.layer, mask });
                    let _ = sys
                        .inject_link_fault(hi, LinkFault::Bridge { other_layer: lo.layer, mask });
                }
            }
            FaultKind::Crosstalk => {
                if inj.epoch == epoch {
                    // The aggressor is the physically adjacent *serving*
                    // layer (the coupling is gated on its activity).
                    let aggressor = if inj.stage.layer + 1 < sys.pipeline_count() {
                        inj.stage.layer + 1
                    } else {
                        inj.stage.layer.saturating_sub(1)
                    };
                    let period = 2 + 2 * (inj.seed & 1);
                    let fault = LinkFault::Crosstalk {
                        aggressor_layer: aggressor,
                        mask: mask_from(inj.seed),
                        period,
                        phase: (inj.seed >> 1) % period,
                    };
                    let _ = sys.inject_link_fault(inj.stage, fault);
                }
            }
            FaultKind::MuxSelect => {
                if inj.epoch == epoch && sys.pipeline_count() > 1 {
                    let pipes = sys.pipeline_count();
                    let intent = sys
                        .stage_for(inj.pipe, inj.stage.unit)
                        .map_or(inj.stage.layer, |s| s.layer);
                    // Any serving layer other than the intended one.
                    let wrong = (intent + 1 + (inj.seed as usize) % (pipes - 1)) % pipes;
                    let _ = sys.corrupt_route(inj.pipe, inj.stage.unit, wrong);
                }
            }
            FaultKind::SeuBurst => {
                if inj.epoch == epoch {
                    let fault = LinkFault::BurstOnce {
                        mask: mask_from(inj.seed),
                        ops: 1 + ((inj.seed >> 8) % 3) as u32,
                    };
                    let _ = sys.inject_link_fault(inj.stage, fault);
                }
            }
        }
    }
}

fn mask_from(seed: u64) -> u32 {
    (seed as u32) | 1
}

fn tally(events: &[EngineEvent], counts: &mut EventCounts, allowed: &mut BTreeSet<StageId>) {
    for event in events {
        match event {
            EngineEvent::Symptom { .. } => counts.symptoms += 1,
            EngineEvent::Transient { .. } => counts.transients += 1,
            EngineEvent::Permanent { .. } => counts.permanents += 1,
            EngineEvent::Inconclusive { dut, redundant } => {
                counts.inconclusives += 1;
                allowed.insert(*dut);
                allowed.insert(*redundant);
            }
            EngineEvent::Escalated { .. } => counts.escalations += 1,
            EngineEvent::Recovered { .. } => counts.recoveries += 1,
            EngineEvent::CheckpointCorrupt { .. } => counts.checkpoint_corruptions += 1,
            EngineEvent::Misrouted { .. } => counts.reroutes += 1,
            EngineEvent::LinkQuarantined { .. } => counts.link_quarantines += 1,
            EngineEvent::Repaired { .. }
            | EngineEvent::Suspended { .. }
            | EngineEvent::Rotated { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `prepared` with the trace rings every campaign used before they
    /// were sized to the scan: the `SystemConfig` and
    /// `NetlistSubstrateConfig` defaults.
    fn with_default_rings(mut prepared: PreparedSubstrate) -> PreparedSubstrate {
        match &mut prepared.inner {
            PreparedInner::Behavioral { sys_cfg, .. } => {
                sys_cfg.trace_capacity = SystemConfig::default().trace_capacity;
            }
            PreparedInner::Netlist { template } => {
                let cfg = NetlistSubstrateConfig {
                    pipelines: template.pipeline_count(),
                    layers: template.layers(),
                    ..Default::default()
                };
                **template = NetlistSubstrate::new(&cfg);
            }
        }
        prepared
    }

    #[test]
    fn scan_sized_rings_change_no_scenario() {
        let engine = campaign_engine_config();
        assert_eq!(netlist_ring_capacity(&engine, 16), 252);
        // Two cycles of all 14 kinds, mid-window splits and transient
        // rollbacks among them, on both substrates.
        let config = CampaignConfig { scenarios_per_substrate: 28, ..Default::default() };
        let scenarios = crate::campaign::durable::campaign_scenarios(&config);
        assert!(scenarios.iter().any(|s| s.kind == FaultKind::MidWindow));
        for &kind in &config.substrates {
            let sized = PreparedSubstrate::new(kind, &config);
            let default = with_default_rings(sized.clone());
            let mut recoveries = 0;
            for scenario in &scenarios {
                let (result, metrics, trace) = sized.run_one(scenario, &config, true);
                let (result0, metrics0, trace0) = default.run_one(scenario, &config, true);
                let at = format!("{} scenario {} ({})", kind.name(), scenario.id, result.kind);
                assert_eq!(result, result0, "{at}: result");
                assert_eq!(metrics, metrics0, "{at}: metrics");
                assert!(trace.unwrap().records == trace0.unwrap().records, "{at}: telemetry");
                recoveries += result.counts.recoveries;
            }
            assert!(recoveries > 0, "{}: no scenario rolled a pipeline back", kind.name());
        }
    }
}
