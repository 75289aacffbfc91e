//! The R2D3 reconfiguration controller (cycle-level engine).
//!
//! Engines are constructed with [`R2d3Engine::builder`], which validates
//! the configuration and injects the telemetry sink, and observed with
//! [`R2d3Engine::metrics`], which snapshots every counter and histogram
//! the engine maintains.

use crate::checkpoint::{CheckpointConfig, CheckpointManager};
use crate::config::R2d3Config;
use crate::detect::{epoch_scan_counted, Detection, RedundantSource};
use crate::history::{EscalationConfig, SymptomHistory};
use crate::policy::{select_assignment, PolicyKind, RotationState};
use crate::substrate::ReliabilitySubstrate;
use crate::telemetry::{
    Metrics, MetricsSnapshot, NullSink, TelemetryEvent, TelemetryRecord, TelemetrySink, VerdictKind,
};
use crate::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{StageId, System3d};
use std::collections::{HashMap, HashSet};

/// Events the controller emitted during an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A checker fired for this DUT stage.
    Symptom {
        /// The stage under test.
        dut: StageId,
        /// Pipeline that was using it.
        pipe: usize,
    },
    /// TMR replay did not reproduce the symptom: a soft error. Execution
    /// resumed after the single stalled cycle.
    Transient {
        /// The stage that produced the transient symptom.
        dut: StageId,
    },
    /// TMR replay reproduced the symptom and the vote localized a
    /// permanent fault.
    Permanent {
        /// The diagnosed faulty stage (may be the redundant stage!).
        stage: StageId,
    },
    /// The vote was inconclusive (multiple faulty participants); both
    /// comparison parties were quarantined.
    Inconclusive {
        /// DUT side.
        dut: StageId,
        /// Redundant side.
        redundant: StageId,
    },
    /// The controller reconfigured the crossbars.
    Repaired {
        /// Complete pipelines after repair.
        pipelines_formed: usize,
    },
    /// A detection test borrowed a stage from a running core.
    Suspended {
        /// The pipeline that lent its stage.
        pipe: usize,
        /// Unit borrowed.
        unit: Unit,
    },
    /// Calibration-window rotation was applied.
    Rotated {
        /// Calibration-window index.
        window: u64,
    },
    /// A stage's decaying symptom history crossed the escalation
    /// threshold: its "transient" verdicts recur too densely to be
    /// independent soft errors, so it is quarantined as an intermittent
    /// (hard) fault despite every individual replay voting transient.
    Escalated {
        /// The stage quarantined by symptom-history escalation.
        stage: StageId,
    },
    /// A pipeline corrupted by a transient was recovered in place
    /// (rollback to the last validated checkpoint, or program restart).
    Recovered {
        /// The recovered pipeline.
        pipe: usize,
        /// `true` for a checkpoint rollback, `false` for a restart.
        rolled_back: bool,
    },
    /// A committed checkpoint failed its integrity check during
    /// recovery; the slot was invalidated and the pipeline restarted.
    CheckpointCorrupt {
        /// Pipeline whose checkpoint was found corrupt.
        pipe: usize,
    },
    /// Route scrub found a mux-select register disagreeing with the
    /// controller's routing intent (the pipeline was silently reading
    /// the wrong layer) and rewrote it.
    Misrouted {
        /// Pipeline whose slot was misrouted.
        pipe: usize,
        /// Unit slot whose select register was corrupted.
        unit: Unit,
    },
    /// A vertical TSV link bundle was quarantined: its symptom history
    /// escalated with dense-majority window evidence, so the corruption
    /// rides the path, not the stage. The link becomes a routing
    /// constraint — repair avoids it without retiring its stage, which
    /// stays powered and keeps serving as a replay voter.
    LinkQuarantined {
        /// The quarantined link (stage-coordinate addressed).
        link: StageId,
    },
}

/// Builds an [`R2d3Engine`]: typed configuration setters, fallible
/// validation at [`build`](EngineBuilder::build) time, and telemetry
/// sink injection (the sink type is a compile-time parameter, so a
/// [`NullSink`] engine contains no recording code at all).
///
/// ```
/// use r2d3_core::engine::R2d3Engine;
/// use r2d3_core::telemetry::RingSink;
/// use r2d3_pipeline_sim::System3d;
///
/// let engine = R2d3Engine::builder()
///     .t_epoch(10_000)
///     .t_test(2_000)
///     .telemetry(RingSink::new())
///     .build::<System3d>()
///     .unwrap();
/// assert_eq!(engine.config().t_epoch, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder<T: TelemetrySink = NullSink> {
    config: R2d3Config,
    sink: T,
}

impl Default for EngineBuilder<NullSink> {
    fn default() -> Self {
        EngineBuilder { config: R2d3Config::default(), sink: NullSink }
    }
}

impl EngineBuilder<NullSink> {
    /// A builder with the default configuration and no telemetry.
    #[must_use]
    pub fn new() -> Self {
        EngineBuilder::default()
    }
}

impl<T: TelemetrySink> EngineBuilder<T> {
    /// Replaces the whole configuration at once.
    #[must_use]
    pub fn config(mut self, config: R2d3Config) -> Self {
        self.config = config;
        self
    }

    /// Epoch length in cycles.
    #[must_use]
    pub fn t_epoch(mut self, cycles: u64) -> Self {
        self.config.t_epoch = cycles;
        self
    }

    /// Detection re-execution window in cycles.
    #[must_use]
    pub fn t_test(mut self, cycles: u64) -> Self {
        self.config.t_test = cycles;
        self
    }

    /// Calibration (rotation) window in cycles.
    #[must_use]
    pub fn t_cal(mut self, cycles: u64) -> Self {
        self.config.t_cal = cycles;
        self
    }

    /// Wearout-leveling policy.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Whether detection may borrow a running core's stage when no
    /// leftover of the right unit exists.
    #[must_use]
    pub fn suspend_when_no_leftover(mut self, allow: bool) -> Self {
        self.config.suspend_when_no_leftover = allow;
        self
    }

    /// Checkpointing configuration (`None` disables checkpointing).
    #[must_use]
    pub fn checkpoint(mut self, checkpoint: Option<CheckpointConfig>) -> Self {
        self.config.checkpoint = checkpoint;
        self
    }

    /// Symptom-history escalation configuration (`None` disables it).
    #[must_use]
    pub fn escalation(mut self, escalation: Option<EscalationConfig>) -> Self {
        self.config.escalation = escalation;
        self
    }

    /// Extra third-voter attempts before an inconclusive verdict.
    #[must_use]
    pub fn inconclusive_retries(mut self, retries: u32) -> Self {
        self.config.inconclusive_retries = retries;
        self
    }

    /// Whether transient verdicts trigger rollback of tainted pipelines.
    #[must_use]
    pub fn rollback_on_transient(mut self, rollback: bool) -> Self {
        self.config.rollback_on_transient = rollback;
        self
    }

    /// Installs a telemetry sink, changing the engine's sink type.
    #[must_use]
    pub fn telemetry<U: TelemetrySink>(self, sink: U) -> EngineBuilder<U> {
        EngineBuilder { config: self.config, sink }
    }

    /// Validates the configuration and constructs the engine.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when the configuration fails
    /// [`R2d3Config::validate`].
    pub fn build<S: ReliabilitySubstrate>(self) -> Result<R2d3Engine<S, T>, EngineError> {
        self.config.validate()?;
        Ok(R2d3Engine {
            config: self.config,
            believed_faulty: HashSet::new(),
            quarantined_links: HashSet::new(),
            link_evidence: HashMap::new(),
            rotation: None,
            checkpoints: None,
            history: SymptomHistory::new(),
            metrics: Metrics::new(),
            sink: self.sink,
            epochs: 0,
            windows: 0,
        })
    }
}

/// The R2D3 reconfiguration controller.
///
/// Owns the engine's *belief* about stage health (built from diagnosis
/// outcomes — the controller never peeks at ground truth), the rotation
/// state, and the epoch/calibration clocks. Drives any
/// [`ReliabilitySubstrate`] via [`run_epoch`](R2d3Engine::run_epoch);
/// the default substrate is the behavioral [`System3d`], the alternative
/// is the gate-level [`crate::substrate::NetlistSubstrate`].
///
/// The second type parameter is the telemetry sink; with the default
/// [`NullSink`] every recording path compiles away. The sink receives
/// cycle-stamped [`TelemetryEvent`]s but never feeds back into the
/// engine: verdicts and repairs are byte-identical whatever sink is
/// installed.
pub struct R2d3Engine<S: ReliabilitySubstrate = System3d, T: TelemetrySink = NullSink> {
    config: R2d3Config,
    believed_faulty: HashSet<StageId>,
    /// TSV link bundles quarantined as routing constraints: repair never
    /// routes a pipeline across them, but their stages stay usable
    /// (powered, voting in replays).
    quarantined_links: HashSet<StageId>,
    /// Per-stage window-density evidence accumulated alongside the
    /// symptom history: (dense windows, total windows). Dense-majority
    /// evidence at escalation time attributes the fault to the link
    /// rather than the stage.
    link_evidence: HashMap<StageId, (u64, u64)>,
    rotation: Option<RotationState>,
    checkpoints: Option<CheckpointManager<S::Checkpoint>>,
    history: SymptomHistory,
    metrics: Metrics,
    sink: T,
    epochs: u64,
    windows: u64,
}

impl<S: ReliabilitySubstrate, T: TelemetrySink + Clone> Clone for R2d3Engine<S, T> {
    fn clone(&self) -> Self {
        R2d3Engine {
            config: self.config,
            believed_faulty: self.believed_faulty.clone(),
            quarantined_links: self.quarantined_links.clone(),
            link_evidence: self.link_evidence.clone(),
            rotation: self.rotation.clone(),
            checkpoints: self.checkpoints.clone(),
            history: self.history.clone(),
            metrics: self.metrics,
            sink: self.sink.clone(),
            epochs: self.epochs,
            windows: self.windows,
        }
    }
}

impl<S: ReliabilitySubstrate, T: TelemetrySink> std::fmt::Debug for R2d3Engine<S, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("R2d3Engine")
            .field("config", &self.config)
            .field("believed_faulty", &self.believed_faulty)
            .field("rotation", &self.rotation)
            .field("checkpoints", &self.checkpoints)
            .field("history", &self.history)
            .field("metrics", &self.metrics)
            .field("epochs", &self.epochs)
            .field("windows", &self.windows)
            .finish_non_exhaustive()
    }
}

impl R2d3Engine {
    /// Starts building an engine (default substrate and sink; both are
    /// changed by the builder's type-state —
    /// [`EngineBuilder::telemetry`] swaps the sink, and
    /// [`EngineBuilder::build`] infers the substrate at the use site).
    #[must_use]
    pub fn builder() -> EngineBuilder<NullSink> {
        EngineBuilder::new()
    }
}

impl<S: ReliabilitySubstrate, T: TelemetrySink> R2d3Engine<S, T> {
    /// Snapshots every counter, histogram and belief the engine
    /// maintains. Metrics are accumulated unconditionally (independent
    /// of the telemetry sink), so this is the observation API — and the
    /// snapshot is identical whatever sink is installed.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut believed_faulty: Vec<StageId> = self.believed_faulty.iter().copied().collect();
        believed_faulty.sort();
        let mut quarantined_links: Vec<StageId> = self.quarantined_links.iter().copied().collect();
        quarantined_links.sort();
        let symptom_scores =
            self.history.tracked().into_iter().map(|s| (s, self.history.score(s))).collect();
        MetricsSnapshot {
            epochs: self.epochs,
            detections: self.metrics.detections,
            untested: self.metrics.untested,
            suspensions: self.metrics.suspensions,
            transients_seen: self.metrics.transients,
            permanents_diagnosed: self.metrics.permanents,
            inconclusives: self.metrics.inconclusives,
            escalations: self.metrics.escalations,
            replays: self.metrics.replays,
            repairs: self.metrics.repairs,
            rotations: self.metrics.rotations,
            recoveries: self.metrics.recoveries,
            reroutes: self.metrics.reroutes,
            link_quarantines: self.metrics.link_quarantines,
            trace_dropped: self.sink.dropped(),
            believed_faulty,
            quarantined_links,
            symptom_scores,
            checkpoints: self.checkpoints.as_ref().map(|m| *m.stats()),
            detection_latency: self.metrics.detection_latency,
            replay_count: self.metrics.replay_count,
            reformation_ops: self.metrics.reformation_ops,
            rotation_churn: self.metrics.rotation_churn,
        }
    }

    /// Whether the controller has diagnosed `stage` as permanently
    /// faulty.
    #[must_use]
    pub fn is_believed_faulty(&self, stage: StageId) -> bool {
        self.believed_faulty.contains(&stage)
    }

    /// The installed telemetry sink.
    #[must_use]
    pub fn telemetry(&self) -> &T {
        &self.sink
    }

    /// Consumes the engine and returns the telemetry sink — needed for
    /// sinks whose teardown reports something, e.g.
    /// [`crate::telemetry::StreamSink::finish`].
    #[must_use]
    pub fn into_telemetry(self) -> T {
        self.sink
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &R2d3Config {
        &self.config
    }

    /// Whether `pipe` currently holds a committed checkpoint.
    #[must_use]
    pub fn has_committed_checkpoint(&self, pipe: usize) -> bool {
        self.checkpoints.as_ref().is_some_and(|m| m.has_checkpoint(pipe))
    }

    /// Flips one seed-selected bit in `pipe`'s committed checkpoint
    /// payload — fault-injection ground truth modeling the checkpoint
    /// store rotting between commit and recovery (the campaign harness's
    /// lever; the engine itself never corrupts its own store). Returns
    /// whether a committed slot existed to corrupt.
    pub fn corrupt_checkpoint(&mut self, pipe: usize, seed: u64) -> bool {
        self.checkpoints
            .as_mut()
            .is_some_and(|m| m.corrupt_slot_with(pipe, |cp| S::corrupt_checkpoint(cp, seed)))
    }

    /// Records one telemetry event, stamped with the current epoch.
    /// Inlined so that with a [`NullSink`] (whose `is_enabled` is a
    /// constant `false`) the whole call folds away.
    #[inline]
    fn emit(&mut self, cycle: u64, event: TelemetryEvent) {
        if self.sink.is_enabled() {
            self.sink.record(TelemetryRecord { epoch: self.epochs, cycle, event });
        }
    }

    /// Runs one epoch: `T_epoch` cycles of execution, then the detection /
    /// diagnosis / repair sequence, then (at calibration boundaries) the
    /// policy rotation.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn run_epoch(&mut self, sys: &mut S) -> Result<Vec<EngineEvent>, EngineError> {
        // Per-pipe retirement baselines for the Exec spans. Taken only
        // when a sink is installed; the reads are side-effect-free, so
        // engine behavior stays sink-independent.
        let retired_before: Option<Vec<u64>> = self
            .sink
            .is_enabled()
            .then(|| (0..sys.pipeline_count()).map(|p| sys.retired(p)).collect());
        sys.run(self.config.t_epoch)?;
        self.epochs += 1;
        let now = sys.now();
        if let Some(before) = retired_before {
            for (p, base) in before.iter().enumerate() {
                self.emit(
                    now,
                    TelemetryEvent::Exec {
                        pipe: p as u32,
                        cycles: self.config.t_epoch,
                        retired: sys.retired(p).saturating_sub(*base),
                    },
                );
            }
        }
        let mut events = Vec::new();

        // --- route scrub --------------------------------------------------
        // Compare every slot's select-register readback against routing
        // intent before trusting any trace: a mux-select SEU silently
        // feeds a pipeline the wrong layer's stage, and the records such
        // a slot produced this epoch carry misroute skew that must not be
        // attributed to the (healthy) serving stages.
        let mut rerouted_pipes: HashSet<usize> = HashSet::new();
        if self.config.route_scrub {
            for p in 0..sys.pipeline_count() {
                for u in Unit::ALL {
                    let Some(intent) = sys.stage_for(p, u) else {
                        continue;
                    };
                    let readback = sys.route_readback(p, u);
                    if readback != Some(intent.layer) {
                        sys.scrub_route(p, u);
                        self.metrics.reroutes += 1;
                        events.push(EngineEvent::Misrouted { pipe: p, unit: u });
                        self.emit(
                            now,
                            TelemetryEvent::Misroute {
                                pipe: p as u32,
                                expected: intent.layer as u32,
                                actual: readback.map_or(u32::MAX, |l| l as u32),
                            },
                        );
                        rerouted_pipes.insert(p);
                    }
                }
            }
            // Whatever the misrouted slot delivered is already in
            // architectural state: recover the pipe now, before the
            // detection scan and any checkpoint commit.
            for p in 0..sys.pipeline_count() {
                if rerouted_pipes.contains(&p) && sys.pipeline_corrupted(p) {
                    let rolled_back = self.recover_pipe(sys, p, &mut events)?;
                    events.push(EngineEvent::Recovered { pipe: p, rolled_back });
                }
            }
        }

        // --- detection ---------------------------------------------------
        let (detections, scan) = epoch_scan_counted(
            sys,
            &self.config,
            &self.believed_faulty,
            self.epochs,
            &rerouted_pipes,
        );
        self.metrics.untested += u64::from(scan.untested);
        self.metrics.suspensions += u64::from(scan.suspensions);
        self.emit(
            now,
            TelemetryEvent::Scan {
                tested: scan.tested,
                untested: scan.untested,
                detections: detections.len() as u32,
            },
        );
        let mut need_repair = false;
        for d in &detections {
            events.push(EngineEvent::Symptom { dut: d.dut, pipe: d.pipe });
            if let RedundantSource::SuspendedCore { pipe } = d.source {
                events.push(EngineEvent::Suspended { pipe, unit: d.unit });
            }
            let latency = now.saturating_sub(d.symptom.record.cycle);
            self.metrics.detections += 1;
            self.metrics.detection_latency.record(latency);
            self.emit(
                now,
                TelemetryEvent::Detect {
                    dut: d.dut,
                    pipe: d.pipe as u32,
                    latency,
                    suspended: matches!(d.source, RedundantSource::SuspendedCore { .. }),
                },
            );
            need_repair |= self.diagnose(sys, d, now, &mut events);
        }
        if let Some(esc) = self.config.escalation {
            self.history.decay(&esc);
            // Window-density evidence rides the symptom history: once a
            // stage's counter has fully decayed it can never escalate
            // from that evidence, so the tallies are pruned alongside.
            let history = &self.history;
            self.link_evidence.retain(|s, _| history.score(*s) > 0);
        }

        // --- checkpoint commit (only after a clean scan) -------------------
        if detections.is_empty() {
            if let Some(cfg) = self.config.checkpoint {
                let epoch = self.epochs;
                let mgr = self
                    .checkpoints
                    .get_or_insert_with(|| CheckpointManager::new(cfg, sys.pipeline_count()));
                if mgr.is_commit_epoch(epoch) {
                    mgr.commit_all(sys)?;
                    let pipes = sys.pipeline_count() as u32;
                    self.metrics.checkpoint_commits += 1;
                    self.emit(now, TelemetryEvent::CheckpointCommit { pipes });
                }
            }
        }

        // --- repair -------------------------------------------------------
        if need_repair {
            let formed = self.reconfigure(sys, false, &mut events)?;
            events.push(EngineEvent::Repaired { pipelines_formed: formed });
        } else if self.config.rollback_on_transient
            && events.iter().any(|e| matches!(e, EngineEvent::Transient { .. }))
        {
            // --- transient rollback ---------------------------------------
            // The upset was classified correctly, but its corruption is
            // already in architectural state; without this the engine
            // "classifies and forgets" and the taint runs to completion.
            for p in 0..sys.pipeline_count() {
                if sys.pipeline_corrupted(p) {
                    let rolled_back = self.recover_pipe(sys, p, &mut events)?;
                    events.push(EngineEvent::Recovered { pipe: p, rolled_back });
                }
            }
        }

        // --- calibration-window rotation -----------------------------------
        if self.config.policy.rotates() {
            let window = sys.now() / self.config.t_cal;
            if window > self.windows {
                self.windows = window;
                self.reconfigure(sys, true, &mut events)?;
                events.push(EngineEvent::Rotated { window });
                self.emit(sys.now(), TelemetryEvent::Rotate { window });
            }
        }

        self.emit(sys.now(), TelemetryEvent::EpochEnd { events: events.len() as u32 });
        Ok(events)
    }

    /// Recovers one pipeline: checkpoint rollback when a validated slot
    /// exists, program restart otherwise. A slot that fails its integrity
    /// check is surfaced as a [`EngineEvent::CheckpointCorrupt`] event,
    /// invalidated (by the manager) and the recovery retried, which then
    /// takes the restart path. Returns whether a rollback was used.
    fn recover_pipe(
        &mut self,
        sys: &mut S,
        pipe: usize,
        events: &mut Vec<EngineEvent>,
    ) -> Result<bool, EngineError> {
        let now = sys.now();
        if self.checkpoints.is_none() {
            sys.restart_program(pipe)?;
            self.metrics.recoveries += 1;
            self.emit(now, TelemetryEvent::Recovery { pipe: pipe as u32, rolled_back: false });
            return Ok(false);
        }
        let had_checkpoint = self.checkpoints.as_ref().is_some_and(|m| m.has_checkpoint(pipe));
        let mgr = self.checkpoints.as_mut().expect("checked above");
        let result = mgr.recover(sys, pipe);
        let rolled_back = match result {
            Ok(()) => {
                if had_checkpoint {
                    self.emit(
                        now,
                        TelemetryEvent::CheckpointVerify { pipe: pipe as u32, ok: true },
                    );
                }
                had_checkpoint
            }
            Err(EngineError::CorruptCheckpoint { .. }) => {
                self.metrics.checkpoint_corruptions += 1;
                self.emit(now, TelemetryEvent::CheckpointVerify { pipe: pipe as u32, ok: false });
                events.push(EngineEvent::CheckpointCorrupt { pipe });
                // The slot is gone; this retry restarts the program.
                self.checkpoints.as_mut().expect("checked above").recover(sys, pipe)?;
                false
            }
            Err(e) => return Err(e),
        };
        self.metrics.recoveries += 1;
        self.emit(now, TelemetryEvent::Recovery { pipe: pipe as u32, rolled_back });
        Ok(rolled_back)
    }

    /// Single-replay TMR diagnosis (§III-C): stall one cycle, replay the
    /// symptom-generating operation on the two disagreeing stages plus a
    /// known-good third stage, and vote. Returns whether a permanent fault
    /// was diagnosed (repair needed).
    fn diagnose(
        &mut self,
        sys: &S,
        d: &Detection,
        now: u64,
        events: &mut Vec<EngineEvent>,
    ) -> bool {
        let record = &d.symptom.record;
        // Replay: permanent effects persist; one-shot transients do not
        // recur (they were consumed when they fired).
        let out_dut = sys.replay_output(d.dut, record);
        let out_red = sys.replay_output(d.redundant, record);
        self.emit(now, TelemetryEvent::Replay { stage: d.dut });
        self.emit(now, TelemetryEvent::Replay { stage: d.redundant });

        if out_dut == out_red {
            // Symptom did not recur: a soft error was detected. Resume —
            // unless this stage's "soft errors" have been recurring too
            // densely to be independent upsets, in which case the decaying
            // symptom history escalates it to an intermittent hard fault.
            self.metrics.transients += 1;
            self.metrics.replays += 2;
            self.metrics.replay_count.record(2);
            events.push(EngineEvent::Transient { dut: d.dut });
            self.emit(
                now,
                TelemetryEvent::Verdict { dut: d.dut, verdict: VerdictKind::Transient, replays: 2 },
            );
            // Window-density attribution: a genuine stage transient is a
            // consumed one-shot — exactly one mismatch in its window — while
            // a TSV/crossbar path fault corrupts a large fraction of every
            // transfer it carries (and still replays clean, because the
            // replay network bypasses the TSVs). Tally which shape each
            // "transient" window had; the majority decides, at escalation
            // time, whether the link or the stage is quarantined.
            let dense = d.mismatches >= 2.max(d.compared / 8);
            let evidence = self.link_evidence.entry(d.dut).or_insert((0, 0));
            evidence.1 += 1;
            if dense {
                evidence.0 += 1;
            }
            if let Some(esc) = self.config.escalation {
                if self.history.record(d.dut, &esc) {
                    let score = self.history.score(d.dut);
                    self.history.forget(d.dut);
                    let (dense_n, total_n) = self.link_evidence.remove(&d.dut).unwrap_or((0, 0));
                    if dense_n > 0 && dense_n * 2 >= total_n {
                        // Dense-majority windows: the corruption rides the
                        // vertical link, not the stage (whose replays are
                        // clean). Quarantine the link as a routing
                        // constraint — the stage stays powered, keeps
                        // voting, and repair simply routes around the span.
                        self.metrics.link_quarantines += 1;
                        events.push(EngineEvent::LinkQuarantined { link: d.dut });
                        self.emit(now, TelemetryEvent::LinkQuarantine { link: d.dut });
                        return self.quarantined_links.insert(d.dut);
                    }
                    self.metrics.escalations += 1;
                    events.push(EngineEvent::Escalated { stage: d.dut });
                    self.emit(now, TelemetryEvent::Escalated { stage: d.dut, score });
                    return self.believed_faulty.insert(d.dut);
                }
            }
            return false;
        }

        // Hard fault: bring in a third stage to vote. An inconclusive
        // three-way split may mean the *third voter* is itself faulty, so
        // retry with other distinct voters (bounded by
        // `inconclusive_retries`) before giving up on the pair.
        let mut tried: Vec<StageId> = Vec::new();
        let mut majority_faulty: Option<Vec<StageId>> = None;
        while tried.len() <= self.config.inconclusive_retries as usize {
            let Some(third) = self.pick_third(sys, d, &tried) else {
                break;
            };
            tried.push(third);
            let out_third = sys.replay_output(third, record);
            self.emit(now, TelemetryEvent::Replay { stage: third });
            let (a, b, c) = (out_dut, out_red, out_third);
            let majority = if a == b || a == c {
                Some(a)
            } else if b == c {
                Some(b)
            } else {
                None
            };
            if let Some(m) = majority {
                majority_faulty = Some(
                    [(d.dut, a), (d.redundant, b), (third, c)]
                        .iter()
                        .filter(|(_, o)| *o != m)
                        .map(|(s, _)| *s)
                        .collect(),
                );
                break;
            }
        }

        let replays = 2 + tried.len() as u32;
        self.metrics.replays += u64::from(replays);
        self.metrics.replay_count.record(u64::from(replays));
        let conclusive = majority_faulty.is_some();
        let faulty = majority_faulty.unwrap_or_else(|| {
            // No voter pool or every vote split three ways: quarantine
            // both comparison parties.
            events.push(EngineEvent::Inconclusive { dut: d.dut, redundant: d.redundant });
            vec![d.dut, d.redundant]
        });
        if !conclusive {
            self.metrics.inconclusives += 1;
        }
        self.emit(
            now,
            TelemetryEvent::Verdict {
                dut: d.dut,
                verdict: if conclusive {
                    VerdictKind::Permanent
                } else {
                    VerdictKind::Inconclusive
                },
                replays,
            },
        );

        let mut diagnosed = false;
        for s in faulty {
            if self.believed_faulty.insert(s) {
                self.history.forget(s);
                self.metrics.permanents += 1;
                events.push(EngineEvent::Permanent { stage: s });
                diagnosed = true;
            }
        }
        diagnosed
    }

    /// A believed-healthy stage of the same unit, distinct from the two
    /// comparison parties and from already-consulted voters.
    fn pick_third(&self, sys: &S, d: &Detection, exclude: &[StageId]) -> Option<StageId> {
        (0..sys.layers()).map(|l| StageId::new(l, d.unit)).find(|s| {
            *s != d.dut
                && *s != d.redundant
                && !exclude.contains(s)
                && !self.believed_faulty.contains(s)
                && sys.stage_usable(*s)
        })
    }

    /// Re-forms the fabric from believed-healthy stages; `rotation` selects
    /// whether the policy's rotation ordering applies (calibration window)
    /// or the canonical repair formation.
    fn reconfigure(
        &mut self,
        sys: &mut S,
        rotation: bool,
        events: &mut Vec<EngineEvent>,
    ) -> Result<usize, EngineError> {
        let layers = sys.layers();
        let pipelines = sys.pipeline_count();
        let believed = self.believed_faulty.clone();
        // A quarantined link is a routing constraint, not a dead stage:
        // its stage cannot *serve* (data would ride the broken vertical
        // span) but stays powered and available as a replay voter.
        let links = self.quarantined_links.clone();
        let usable = move |s: StageId| !believed.contains(&s) && !links.contains(&s);

        let kind = if rotation { self.config.policy } else { PolicyKind::Static };
        let rotation_state = self.rotation.get_or_insert_with(|| RotationState::new(layers));
        let formed = select_assignment(kind, layers, &usable, pipelines, rotation_state);

        // Record the outgoing map so churn (slots whose serving layer
        // changed) and crossbar operation counts are observable.
        let previous: Vec<Option<StageId>> = (0..pipelines)
            .flat_map(|p| Unit::ALL.iter().map(move |u| (p, *u)))
            .map(|(p, u)| sys.stage_for(p, u))
            .collect();

        // Tear down and rebuild the crossbar map.
        let mut ops: u32 = previous.iter().flatten().count() as u32;
        for p in 0..pipelines {
            for u in Unit::ALL {
                sys.unassign(p, u)?;
            }
        }
        for (p, fp) in formed.iter().enumerate() {
            for u in Unit::ALL {
                sys.assign(p, u, fp.layer_of[u.index()])?;
                ops += 1;
            }
        }
        let churn = previous
            .iter()
            .enumerate()
            .filter(|(i, prev)| {
                let (p, u) = (i / Unit::ALL.len(), Unit::ALL[i % Unit::ALL.len()]);
                let next = formed.get(p).map(|fp| StageId::new(fp.layer_of[u.index()], u));
                *prev != &next
            })
            .count() as u32;

        self.metrics.reformation_ops.record(u64::from(ops));
        if rotation {
            self.metrics.rotations += 1;
            self.metrics.rotation_churn.record(u64::from(churn));
        } else {
            self.metrics.repairs += 1;
        }
        self.emit(
            sys.now(),
            TelemetryEvent::Reform { formed: formed.len() as u32, ops, churn, rotation },
        );

        if !rotation {
            // Post-repair recovery: roll corrupted pipelines back to their
            // last committed checkpoint (or restart without one). Stale
            // pre-repair trace records need no explicit flush: the belief
            // set already excludes diagnosed stages, and `epoch_scan`
            // skips believed-faulty DUTs.
            for p in 0..pipelines {
                if sys.pipeline_corrupted(p) {
                    self.recover_pipe(sys, p, events)?;
                }
            }
            // Power-gate diagnosed stages so they never serve again.
            for s in &self.believed_faulty {
                if sys.stage_usable(*s) {
                    // The belief may be wrong (inconclusive vote): still
                    // isolate the stage, mirroring the controller's view.
                    sys.power_off(*s)?;
                }
            }
        }
        Ok(formed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RingSink;
    use r2d3_isa::kernels::{gemm, gemv};
    use r2d3_pipeline_sim::{FaultEffect, SystemConfig};

    fn engine_system(pipelines: usize) -> (R2d3Engine, System3d) {
        let config = SystemConfig { pipelines, ..Default::default() };
        let mut sys = System3d::new(&config);
        for p in 0..pipelines {
            // Long-running kernels so epochs always have work.
            sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
        }
        (R2d3Engine::builder().build().unwrap(), sys)
    }

    #[test]
    fn detects_diagnoses_and_repairs_permanent_fault() {
        let (mut engine, mut sys) = engine_system(6);
        let bad = StageId::new(2, Unit::Exu);
        sys.inject_fault(bad, FaultEffect { bit: 0, stuck: true }).unwrap();

        let mut repaired = false;
        for _ in 0..32 {
            let events = engine.run_epoch(&mut sys).unwrap();
            if events.iter().any(|e| matches!(e, EngineEvent::Repaired { .. })) {
                repaired = true;
                break;
            }
        }
        assert!(repaired, "engine never repaired");
        assert!(engine.is_believed_faulty(bad));
        let metrics = engine.metrics();
        assert!(metrics.believed_faulty.contains(&bad));
        assert_eq!(metrics.repairs, 1);
        assert!(metrics.detection_latency.total() >= 1);
        assert!(metrics.replay_count.total() >= 1);
        // The faulty stage serves no pipeline anymore.
        for p in 0..6 {
            assert_ne!(sys.fabric().stage_for(p, Unit::Exu), Some(bad));
        }
        // Six pipelines still formed (7 healthy EXUs remain).
        assert_eq!(sys.fabric().complete_pipelines(), 6);
    }

    #[test]
    fn transient_classified_without_repair() {
        // Short epochs so the transient's record is still inside the
        // trace ring / test window when the epoch ends (a transient that
        // fires long before the comparison window is invisible — the
        // paper's detection is concurrent, not retroactive).
        let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        for p in 0..6 {
            sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
        }
        let mut engine: R2d3Engine =
            R2d3Engine::builder().t_epoch(4_000).t_test(4_000).build().unwrap();
        sys.inject_transient(StageId::new(1, Unit::Exu), FaultEffect { bit: 0, stuck: true })
            .unwrap();

        let mut transient = false;
        for _ in 0..16 {
            let events = engine.run_epoch(&mut sys).unwrap();
            if events.iter().any(|e| matches!(e, EngineEvent::Transient { .. })) {
                transient = true;
                assert!(
                    !events.iter().any(|e| matches!(e, EngineEvent::Permanent { .. })),
                    "transient misdiagnosed as permanent"
                );
                break;
            }
        }
        assert!(transient, "transient never detected");
        let metrics = engine.metrics();
        assert!(metrics.believed_faulty.is_empty());
        assert_eq!(metrics.transients_seen, 1);
        assert_eq!(metrics.replays, 2, "a transient verdict costs exactly two replays");
    }

    #[test]
    fn healthy_system_never_repairs() {
        let (mut engine, mut sys) = engine_system(6);
        for _ in 0..8 {
            let events = engine.run_epoch(&mut sys).unwrap();
            assert!(events.is_empty(), "spurious events: {events:?}");
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.permanents_diagnosed, 0);
        assert_eq!(metrics.detections, 0);
        assert_eq!(metrics.epochs, 8);
    }

    #[test]
    fn corrupted_program_restarts_and_finishes_correctly() {
        let config = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&config);
        let kernel = gemv(16, 16, 5);
        for p in 0..6 {
            sys.load_program(p, kernel.program().clone()).unwrap();
        }
        let mut engine: R2d3Engine = R2d3Engine::builder().build().unwrap();
        let bad = StageId::new(0, Unit::Ffu);
        sys.inject_fault(bad, FaultEffect { bit: 12, stuck: true }).unwrap();

        for _ in 0..64 {
            engine.run_epoch(&mut sys).unwrap();
            if (0..6).all(|p| sys.pipeline(p).unwrap().halted()) {
                break;
            }
        }
        for p in 0..6 {
            let pipe = sys.pipeline(p).unwrap();
            assert!(pipe.halted(), "pipeline {p} unfinished");
            assert!(kernel.verify(pipe.memory()), "pipeline {p} finished with corrupted results");
        }
    }

    #[test]
    fn rotation_happens_at_calibration_boundaries() {
        let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        for p in 0..6 {
            sys.load_program(p, gemm(24, 24, 24, 3).program().clone()).unwrap();
        }
        let mut engine: R2d3Engine = R2d3Engine::builder()
            .t_epoch(10_000)
            .t_test(2_000)
            .t_cal(40_000)
            .policy(PolicyKind::Lite)
            .checkpoint(None)
            .build()
            .unwrap();
        let mut rotations = 0;
        for _ in 0..12 {
            let events = engine.run_epoch(&mut sys).unwrap();
            rotations += events.iter().filter(|e| matches!(e, EngineEvent::Rotated { .. })).count();
        }
        assert!(rotations >= 2, "expected rotations, saw {rotations}");
        assert_eq!(engine.metrics().rotations, rotations as u64);
        assert_eq!(engine.metrics().rotation_churn.total(), rotations as u64);
        // After rotation with 6-of-8, spare layers 6/7 must have served.
        let busy67 = sys.stats().layer_busy(6) + sys.stats().layer_busy(7);
        assert!(busy67 > 0, "rotation never used the spare layers");
    }

    #[test]
    fn inconclusive_vote_quarantines_both_parties_and_forms_nothing() {
        // Two layers, one pipeline: when the DUT disagrees with its only
        // redundant EXU there is no third voter, so the verdict is
        // inconclusive, both EXUs are quarantined (the belief may be
        // wrong about one of them — the controller cannot tell), and
        // repair honestly forms zero pipelines.
        let sys_cfg = SystemConfig { layers: 2, pipelines: 1, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        sys.load_program(0, gemm(24, 24, 24, 1).program().clone()).unwrap();
        let mut engine: R2d3Engine = R2d3Engine::builder().build().unwrap();
        sys.inject_fault(StageId::new(0, Unit::Exu), FaultEffect { bit: 0, stuck: true }).unwrap();

        let mut inconclusive = false;
        let mut formed = None;
        for _ in 0..32 {
            let events = engine.run_epoch(&mut sys).unwrap();
            inconclusive |= events.iter().any(|e| matches!(e, EngineEvent::Inconclusive { .. }));
            if let Some(EngineEvent::Repaired { pipelines_formed }) =
                events.iter().find(|e| matches!(e, EngineEvent::Repaired { .. }))
            {
                formed = Some(*pipelines_formed);
                break;
            }
        }
        assert!(inconclusive, "two-party disagreement must be inconclusive");
        assert_eq!(formed, Some(0), "double quarantine leaves no formable pipeline");
        let metrics = engine.metrics();
        assert_eq!(metrics.inconclusives, 1);
        for l in 0..2 {
            assert!(
                metrics.believed_faulty.contains(&StageId::new(l, Unit::Exu)),
                "EXU@L{l} not quarantined"
            );
        }
        // The quarantined-but-possibly-healthy redundant EXU is isolated
        // along with the truly faulty DUT.
        assert_eq!(sys.fabric().stage_for(0, Unit::Exu), None);
    }

    #[test]
    fn intermittent_transients_escalate_to_quarantine() {
        // A duty-cycled fault that re-arms every epoch is classified
        // "transient" by every individual replay, yet the decaying
        // symptom history must eventually quarantine the stage.
        let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        for p in 0..6 {
            sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
        }
        let mut engine: R2d3Engine =
            R2d3Engine::builder().t_epoch(4_000).t_test(4_000).build().unwrap();
        let flaky = StageId::new(1, Unit::Exu);

        let mut escalated = false;
        for _ in 0..16 {
            if !engine.is_believed_faulty(flaky) {
                sys.inject_transient(flaky, FaultEffect { bit: 0, stuck: true }).unwrap();
            }
            let events = engine.run_epoch(&mut sys).unwrap();
            if events
                .iter()
                .any(|e| matches!(e, EngineEvent::Escalated { stage } if *stage == flaky))
            {
                escalated = true;
                break;
            }
        }
        assert!(escalated, "intermittent never escalated");
        assert!(engine.is_believed_faulty(flaky));
        assert_eq!(engine.metrics().escalations, 1);
        // The quarantined stage serves no pipeline anymore.
        for p in 0..6 {
            assert_ne!(sys.fabric().stage_for(p, Unit::Exu), Some(flaky));
        }
    }

    #[test]
    fn transient_rollback_recovers_tainted_pipe() {
        let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        for p in 0..6 {
            sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
        }
        let mut engine: R2d3Engine = R2d3Engine::builder()
            .t_epoch(4_000)
            .t_test(4_000)
            .checkpoint(Some(crate::checkpoint::CheckpointConfig {
                interval_epochs: 1,
                ..Default::default()
            }))
            .build()
            .unwrap();
        // Two clean epochs commit checkpoints for every pipeline.
        engine.run_epoch(&mut sys).unwrap();
        engine.run_epoch(&mut sys).unwrap();

        sys.inject_transient(StageId::new(1, Unit::Exu), FaultEffect { bit: 0, stuck: false })
            .unwrap();
        let mut recovered = false;
        for _ in 0..8 {
            let events = engine.run_epoch(&mut sys).unwrap();
            if events.iter().any(|e| matches!(e, EngineEvent::Transient { .. })) {
                recovered = events
                    .iter()
                    .any(|e| matches!(e, EngineEvent::Recovered { rolled_back: true, .. }));
                break;
            }
        }
        assert!(recovered, "tainted pipeline was not rolled back after the transient");
        for p in 0..6 {
            let pipe = sys.pipeline(p).unwrap();
            assert!(!pipe.tainted() && !pipe.crashed(), "pipeline {p} still corrupted");
        }
        let metrics = engine.metrics();
        assert!(metrics.believed_faulty.is_empty(), "no hardware should be quarantined");
        assert!(metrics.recoveries >= 1);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_restart_with_event() {
        let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        for p in 0..6 {
            sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
        }
        let mut engine: R2d3Engine = R2d3Engine::builder()
            .t_epoch(4_000)
            .t_test(4_000)
            .checkpoint(Some(crate::checkpoint::CheckpointConfig {
                interval_epochs: 2,
                ..Default::default()
            }))
            .build()
            .unwrap();
        // Two clean epochs: epoch 2 is the commit boundary.
        engine.run_epoch(&mut sys).unwrap();
        engine.run_epoch(&mut sys).unwrap();
        assert!(engine.has_committed_checkpoint(1));
        // The slot rots in storage, then a transient forces a recovery of
        // pipeline 1 before the next commit boundary can overwrite it.
        assert!(engine.corrupt_checkpoint(1, 0xBAD5EED));
        let dut = sys.fabric().stage_for(1, Unit::Exu).unwrap();
        sys.inject_transient(dut, FaultEffect { bit: 0, stuck: false }).unwrap();

        let events = engine.run_epoch(&mut sys).unwrap();
        assert!(
            events.iter().any(|e| matches!(e, EngineEvent::CheckpointCorrupt { pipe: 1 })),
            "corrupt checkpoint never detected: {events:?}"
        );
        // The poisoned slot must not have been restored: the pipeline
        // restarted from scratch instead, and the slot is gone.
        assert!(events
            .iter()
            .any(|e| matches!(e, EngineEvent::Recovered { pipe: 1, rolled_back: false })));
        assert!(!engine.has_committed_checkpoint(1));
        assert_eq!(sys.pipeline(1).unwrap().retired(), 0);
        assert!(!sys.pipeline(1).unwrap().tainted());
    }

    #[test]
    fn faulty_leftover_diagnosed_not_the_dut() {
        let (mut engine, mut sys) = engine_system(6);
        let bad = StageId::new(7, Unit::Exu); // a leftover layer
        sys.inject_fault(bad, FaultEffect { bit: 0, stuck: true }).unwrap();
        for _ in 0..32 {
            engine.run_epoch(&mut sys).unwrap();
            if !engine.metrics().believed_faulty.is_empty() {
                break;
            }
        }
        let believed = engine.metrics().believed_faulty;
        assert!(believed.contains(&bad), "leftover fault not localized");
        // No healthy DUT was condemned.
        assert_eq!(believed.len(), 1);
    }

    #[test]
    fn telemetry_records_the_whole_loop() {
        let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&sys_cfg);
        for p in 0..6 {
            sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
        }
        let mut engine = R2d3Engine::builder().telemetry(RingSink::new()).build().unwrap();
        let bad = StageId::new(2, Unit::Exu);
        sys.inject_fault(bad, FaultEffect { bit: 0, stuck: true }).unwrap();
        for _ in 0..32 {
            engine.run_epoch(&mut sys).unwrap();
            if engine.is_believed_faulty(bad) {
                break;
            }
        }
        let names: Vec<&str> =
            engine.telemetry().records().iter().map(|r| r.event.name()).collect();
        for expected in ["exec", "scan", "detect", "replay", "verdict", "reform", "epoch_end"] {
            assert!(names.contains(&expected), "no '{expected}' event recorded: {names:?}");
        }
        // Cycle stamps never decrease along the record stream.
        let cycles: Vec<u64> = engine.telemetry().records().iter().map(|r| r.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "cycle stamps regressed");
    }

    #[test]
    fn verdicts_identical_with_and_without_telemetry() {
        // The determinism contract: the sink observes but never steers.
        let mk_sys = || {
            let sys_cfg = SystemConfig { pipelines: 6, ..Default::default() };
            let mut sys = System3d::new(&sys_cfg);
            for p in 0..6 {
                sys.load_program(p, gemm(24, 24, 24, p as u64 + 1).program().clone()).unwrap();
            }
            sys.inject_fault(StageId::new(2, Unit::Exu), FaultEffect { bit: 0, stuck: true })
                .unwrap();
            sys
        };
        let mut sys_a = mk_sys();
        let mut sys_b = mk_sys();
        let mut plain: R2d3Engine = R2d3Engine::builder().build().unwrap();
        let mut traced = R2d3Engine::builder().telemetry(RingSink::new()).build().unwrap();
        for _ in 0..16 {
            let ev_a = plain.run_epoch(&mut sys_a).unwrap();
            let ev_b = traced.run_epoch(&mut sys_b).unwrap();
            assert_eq!(ev_a, ev_b, "telemetry changed engine behavior");
        }
        assert_eq!(plain.metrics(), traced.metrics());
        assert!(!traced.telemetry().is_empty());
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let err = R2d3Engine::builder().t_epoch(100).t_test(200).build::<System3d>();
        assert!(matches!(err, Err(EngineError::InvalidConfig(_))));
    }
}
