//! Adversarial substrate wrapper.
//!
//! [`Adversary`] sits between the engine and a real substrate and
//! forwards everything — except where a scenario has armed a *tap*. Taps
//! model faults in the reliability machinery itself, which no substrate
//! fault-injection API can express:
//!
//! * **checker corruption** — the checker's DUT-side input register is
//!   wrong, so the scan compares against an output the stage never
//!   produced ([`Adversary::arm_checker_corrupt`]);
//! * **replay-register corruption** — every re-execution on a stage
//!   returns a flipped output, poisoning detection comparisons and TMR
//!   votes ([`Adversary::arm_replay_corrupt`]);
//! * **mid-window upsets** — a transient fires *inside* the epoch's
//!   execution window rather than at its boundary
//!   ([`Adversary::arm_mid_window`]).
//!
//! The tapped trait methods (`trace_window`, `replay_output`) take
//! `&self`, yet one-shot taps must disarm on first use, so each tap lives
//! in a `Cell`. One thread drives a substrate, so no lock is needed on a
//! path the engine takes tens of thousands of times per epoch.

use crate::substrate::ReliabilitySubstrate;
use crate::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{ActivityStats, StageId, StageRecord};
use std::cell::Cell;

/// Corrupts the checker's view of a stage's most recent traced output.
#[derive(Debug, Clone, Copy)]
struct CheckerTap {
    stage: StageId,
    mask: u32,
    /// `false`: disarm after the first corrupted window.
    persistent: bool,
}

/// Corrupts every replayed output of a stage.
#[derive(Debug, Clone, Copy)]
struct ReplayTap {
    stage: StageId,
    mask: u32,
}

/// One transient injected part-way through the next `run` call.
#[derive(Debug, Clone, Copy)]
struct MidWindowShot {
    stage: StageId,
    seed: u64,
    offset: u64,
}

/// A [`ReliabilitySubstrate`] decorator that injects faults into the
/// engine's own sensing and recovery paths.
#[derive(Debug)]
pub struct Adversary<S> {
    inner: S,
    checker: Cell<Option<CheckerTap>>,
    replay: Cell<Option<ReplayTap>>,
    mid_window: Cell<Option<MidWindowShot>>,
}

impl<S: ReliabilitySubstrate> Adversary<S> {
    /// Wraps a substrate with no taps armed.
    pub fn new(inner: S) -> Self {
        Adversary {
            inner,
            checker: Cell::new(None),
            replay: Cell::new(None),
            mid_window: Cell::new(None),
        }
    }

    /// Arms checker-input corruption of `stage`: the newest record of the
    /// next compared window (every window when `persistent`) reports
    /// `actual_output ^ mask`.
    pub fn arm_checker_corrupt(&self, stage: StageId, mask: u32, persistent: bool) {
        self.checker.set(Some(CheckerTap { stage, mask, persistent }));
    }

    /// Arms replay-register corruption: every `replay_output` of `stage`
    /// returns its true value XOR `mask` until quarantine removes the
    /// stage from all comparisons.
    pub fn arm_replay_corrupt(&self, stage: StageId, mask: u32) {
        self.replay.set(Some(ReplayTap { stage, mask }));
    }

    /// Schedules a seeded transient on `stage`, `offset` cycles into the
    /// next `run` call (clamped to the call's span).
    pub fn arm_mid_window(&self, stage: StageId, seed: u64, offset: u64) {
        self.mid_window.set(Some(MidWindowShot { stage, seed, offset }));
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ReliabilitySubstrate> ReliabilitySubstrate for Adversary<S> {
    type Checkpoint = S::Checkpoint;
    type Fault = S::Fault;

    fn layers(&self) -> usize {
        self.inner.layers()
    }

    fn pipeline_count(&self) -> usize {
        self.inner.pipeline_count()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn run(&mut self, cycles: u64) -> Result<(), EngineError> {
        let shot = self.mid_window.take();
        match shot {
            Some(shot) if cycles > 1 => {
                let offset = shot.offset.clamp(1, cycles - 1);
                self.inner.run(offset)?;
                self.inner.inject_transient_seeded(shot.stage, shot.seed)?;
                self.inner.run(cycles - offset)
            }
            _ => self.inner.run(cycles),
        }
    }

    fn stage_for(&self, pipe: usize, unit: Unit) -> Option<StageId> {
        self.inner.stage_for(pipe, unit)
    }

    fn leftovers(&self) -> Vec<StageId> {
        self.inner.leftovers()
    }

    fn trace_window(&self, stage: StageId, n: usize) -> Vec<StageRecord> {
        let mut window = self.inner.trace_window(stage, n);
        if let Some(tap) = self.checker.get() {
            if tap.stage == stage {
                if let Some(last) = window.last_mut() {
                    last.actual_output ^= tap.mask;
                    if !tap.persistent {
                        self.checker.set(None);
                    }
                }
            }
        }
        window
    }

    fn trace_window_since(&self, stage: StageId, n: usize, since: u64) -> Vec<StageRecord> {
        match self.checker.get() {
            // The tap corrupts the newest of the last `n` records whether
            // or not it is kept, so a one-shot tap disarms even on an
            // epoch whose window comes back empty.
            Some(tap) if tap.stage == stage => {
                let mut window = self.trace_window(stage, n);
                window.retain(|record| record.cycle >= since);
                window
            }
            _ => self.inner.trace_window_since(stage, n, since),
        }
    }

    fn replay_output(&self, stage: StageId, record: &StageRecord) -> u32 {
        let out = self.inner.replay_output(stage, record);
        match self.replay.get() {
            Some(tap) if tap.stage == stage => out ^ tap.mask,
            _ => out,
        }
    }

    fn stage_usable(&self, stage: StageId) -> bool {
        self.inner.stage_usable(stage)
    }

    fn power_off(&mut self, stage: StageId) -> Result<(), EngineError> {
        self.inner.power_off(stage)
    }

    fn unassign(&mut self, pipe: usize, unit: Unit) -> Result<(), EngineError> {
        self.inner.unassign(pipe, unit)
    }

    fn assign(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.inner.assign(pipe, unit, layer)
    }

    fn pipeline_corrupted(&self, pipe: usize) -> bool {
        self.inner.pipeline_corrupted(pipe)
    }

    fn retired(&self, pipe: usize) -> u64 {
        self.inner.retired(pipe)
    }

    fn restart_program(&mut self, pipe: usize) -> Result<(), EngineError> {
        self.inner.restart_program(pipe)
    }

    fn checkpoint_pipeline(&self, pipe: usize) -> Result<Self::Checkpoint, EngineError> {
        self.inner.checkpoint_pipeline(pipe)
    }

    fn checkpoint_retired(checkpoint: &Self::Checkpoint) -> u64 {
        S::checkpoint_retired(checkpoint)
    }

    fn restore_pipeline(
        &mut self,
        pipe: usize,
        checkpoint: &Self::Checkpoint,
    ) -> Result<(), EngineError> {
        self.inner.restore_pipeline(pipe, checkpoint)
    }

    fn inject_fault(&mut self, stage: StageId, fault: Self::Fault) -> Result<(), EngineError> {
        self.inner.inject_fault(stage, fault)
    }

    fn inject_permanent_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError> {
        self.inner.inject_permanent_seeded(stage, seed)
    }

    fn inject_transient_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError> {
        self.inner.inject_transient_seeded(stage, seed)
    }

    fn checkpoint_digest(checkpoint: &Self::Checkpoint) -> u64 {
        S::checkpoint_digest(checkpoint)
    }

    fn corrupt_checkpoint(checkpoint: &mut Self::Checkpoint, seed: u64) {
        S::corrupt_checkpoint(checkpoint, seed);
    }

    fn inject_link_fault(
        &mut self,
        link: StageId,
        fault: crate::substrate::LinkFault,
    ) -> Result<(), EngineError> {
        self.inner.inject_link_fault(link, fault)
    }

    fn route_readback(&self, pipe: usize, unit: Unit) -> Option<usize> {
        self.inner.route_readback(pipe, unit)
    }

    fn corrupt_route(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.inner.corrupt_route(pipe, unit, layer)
    }

    fn scrub_route(&mut self, pipe: usize, unit: Unit) {
        self.inner.scrub_route(pipe, unit);
    }

    fn stats(&self) -> &ActivityStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{NetlistSubstrate, NetlistSubstrateConfig};
    use r2d3_isa::kernels::{gemv, trap_mix};
    use r2d3_pipeline_sim::{System3d, SystemConfig};

    fn system() -> Adversary<System3d> {
        let mut sys = System3d::new(&SystemConfig { pipelines: 5, ..Default::default() });
        let kernel = gemv(8, 8, 1);
        for p in 0..5 {
            sys.load_program(p, kernel.program().clone()).unwrap();
        }
        Adversary::new(sys)
    }

    #[test]
    fn checker_tap_corrupts_newest_record_once() {
        let mut sys = system();
        sys.run(2_000).unwrap();
        let stage = StageId::new(0, Unit::Exu);
        let clean = sys.trace_window(stage, 4);
        assert!(!clean.is_empty());

        sys.arm_checker_corrupt(stage, 0b101, false);
        let tapped = sys.trace_window(stage, 4);
        let last = tapped.len() - 1;
        assert_eq!(tapped[last].actual_output, clean[last].actual_output ^ 0b101);
        // Older records and other stages are untouched.
        assert_eq!(tapped[..last], clean[..last]);
        // One-shot: the next read is clean again.
        assert_eq!(sys.trace_window(stage, 4), clean);
    }

    #[test]
    fn one_shot_tap_on_a_stale_stage_disarms_on_an_empty_window() {
        let mut sys = system();
        sys.run(2_000).unwrap();
        // Move pipeline 0's EXU to a spare: its old stage records nothing
        // in the next epoch.
        let stale = StageId::new(0, Unit::Exu);
        sys.unassign(0, Unit::Exu).unwrap();
        sys.assign(0, Unit::Exu, 7).unwrap();
        sys.run(2_000).unwrap();
        let since = sys.now() - 2_000;
        let clean = sys.trace_window(stale, 4);
        assert!(!clean.is_empty() && clean.iter().all(|r| r.cycle < since));

        sys.arm_checker_corrupt(stale, 0b101, false);
        assert!(sys.trace_window_since(stale, 4, since).is_empty());
        // The tap spent itself on the dropped newest record.
        assert_eq!(sys.trace_window(stale, 4), clean);
    }

    /// Runs epochs that reassign a stage to a spare and then to another
    /// pipeline, restore a checkpoint, split a run mid-window and arm a
    /// persistent checker tap. After every epoch, for every stage, the
    /// since-window must equal `trace_window` with the older records
    /// dropped, for windows shorter and longer than the ring and for
    /// `since` from zero to past `now`.
    fn since_window_is_the_filtered_window<S: ReliabilitySubstrate>(mut sys: Adversary<S>) {
        const EPOCH: u64 = 2_000;
        let spare = sys.pipeline_count();
        let checkpoint = sys.checkpoint_pipeline(0).unwrap();
        let (mut kept, mut dropped) = (0, 0);
        for epoch in 0..7 {
            match epoch {
                1 => {
                    sys.unassign(0, Unit::Exu).unwrap();
                    sys.assign(0, Unit::Exu, spare).unwrap();
                }
                2 => {
                    sys.unassign(1, Unit::Exu).unwrap();
                    sys.assign(1, Unit::Exu, 0).unwrap();
                }
                3 => sys.restore_pipeline(0, &checkpoint).unwrap(),
                4 => sys.arm_mid_window(StageId::new(1, Unit::Lsu), 7, EPOCH / 3),
                5 => sys.arm_checker_corrupt(StageId::new(0, Unit::Ifu), 0b11, true),
                _ => {}
            }
            sys.run(EPOCH).unwrap();
            let now = sys.now();
            for stage in StageId::all(sys.layers()) {
                for n in [1, 50, 10_000] {
                    for since in [0, now - EPOCH, now - EPOCH / 2, now + 1] {
                        let mut want = sys.trace_window(stage, n);
                        let all = want.len();
                        want.retain(|record| record.cycle >= since);
                        let got = sys.trace_window_since(stage, n, since);
                        assert_eq!(got, want, "epoch {epoch}, {stage}, n {n}, since {since}");
                        kept += got.len();
                        dropped += all - got.len();
                    }
                }
            }
        }
        assert!(kept > 0 && dropped > 0, "kept {kept}, dropped {dropped}");
    }

    #[test]
    fn since_window_is_the_filtered_window_on_both_substrates() {
        let config = SystemConfig { pipelines: 5, trace_capacity: 300, ..Default::default() };
        let mut sys = System3d::new(&config);
        for p in 0..5 {
            sys.load_program(p, trap_mix(4096, p as u64 + 1).program().clone()).unwrap();
        }
        since_window_is_the_filtered_window(Adversary::new(sys));
        let config = NetlistSubstrateConfig {
            layers: 4,
            pipelines: 2,
            trace_capacity: 100,
            ..Default::default()
        };
        since_window_is_the_filtered_window(Adversary::new(NetlistSubstrate::new(&config)));
    }

    #[test]
    fn replay_tap_flips_only_the_armed_stage() {
        let mut sys = system();
        sys.run(2_000).unwrap();
        let armed = StageId::new(5, Unit::Exu);
        let other = StageId::new(6, Unit::Exu);
        let record = sys.trace_window(StageId::new(0, Unit::Exu), 1)[0];

        let clean_armed = sys.replay_output(armed, &record);
        let clean_other = sys.replay_output(other, &record);
        sys.arm_replay_corrupt(armed, 0xF);
        assert_eq!(sys.replay_output(armed, &record), clean_armed ^ 0xF);
        assert_eq!(sys.replay_output(other, &record), clean_other);
        // Persistent until disarmed/quarantined.
        assert_eq!(sys.replay_output(armed, &record), clean_armed ^ 0xF);
    }

    #[test]
    fn mid_window_shot_fires_inside_the_run() {
        let mut sys = system();
        let stage = StageId::new(1, Unit::Exu);
        sys.arm_mid_window(stage, 7, 500);
        sys.run(1_000).unwrap();
        // The transient manifested mid-run: the serving pipeline tainted
        // without any engine involvement.
        assert!(sys.pipeline_corrupted(1));
        // Consumed: does not recur.
        sys.run(1_000).unwrap();
    }
}
