//! A substrate wrapper that times every call the engine makes into it.
//!
//! [`Timed`] implements the public [`ReliabilitySubstrate`] trait by
//! forwarding to the wrapped substrate, so the engine drives it exactly
//! as it drives a bare one; the time spent below the trait boundary is
//! split by purpose, and whatever remains of an epoch is the engine's own.
//!
//! `run`, `trace_window`, checkpointing, program restarts and crossbar
//! writes are timed on every call. `replay_output` and the per-stage
//! accessors are called tens of thousands of times per epoch and cost less
//! than a clock read, so they are counted on every call but timed on every
//! [`SAMPLE_EVERY`]th, less the clock's own cost, and scaled up; timing
//! them all would bill the clock to the engine. The fault-injection hooks
//! (ground truth, never called by the engine), `stats` and `reset_stats`
//! are forwarded untimed.

use r2d3_core::substrate::{LinkFault, ReliabilitySubstrate};
use r2d3_core::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{ActivityStats, StageId, StageRecord};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// One in this many sub-clock-resolution calls is timed.
pub const SAMPLE_EVERY: u64 = 61;

/// Median cost of reading the clock twice around nothing (s), subtracted
/// from every sampled call before it is scaled up.
fn clock_overhead() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<f64> = (0..1001)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    })
}

/// Time and call counts accumulated below the trait boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallTimes {
    /// `run` (s).
    pub run_s: f64,
    /// Cycles requested from `run`.
    pub run_cycles: u64,
    /// `trace_window` (s).
    pub trace_window_s: f64,
    /// `replay_output` (s, sampled).
    pub replay_s: f64,
    /// `replay_output` calls: checker redundant-side values and TMR votes.
    pub replays: u64,
    /// `checkpoint_pipeline` and `restore_pipeline` (s).
    pub checkpoint_s: f64,
    /// Crossbar writes: `assign`, `unassign`, `power_off`, `scrub_route`.
    pub reconfigs: u64,
    /// Crossbar writes and every other instance call (s; accessors sampled).
    pub other_s: f64,
    /// Accessor calls.
    pub accessors: u64,
}

impl CallTimes {
    /// Adds another run's counters to these.
    pub fn merge(&mut self, other: &CallTimes) {
        self.run_s += other.run_s;
        self.run_cycles += other.run_cycles;
        self.trace_window_s += other.trace_window_s;
        self.replay_s += other.replay_s;
        self.replays += other.replays;
        self.checkpoint_s += other.checkpoint_s;
        self.reconfigs += other.reconfigs;
        self.other_s += other.other_s;
        self.accessors += other.accessors;
    }

    /// All time spent below the trait boundary (s).
    pub fn total_s(&self) -> f64 {
        self.run_s + self.trace_window_s + self.replay_s + self.checkpoint_s + self.other_s
    }
}

/// Timing wrapper around a substrate.
pub struct Timed<S> {
    inner: S,
    times: Cell<CallTimes>,
}

impl<S> Timed<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        Timed { inner, times: Cell::new(CallTimes::default()) }
    }

    /// Counters so far.
    pub fn times(&self) -> CallTimes {
        self.times.get()
    }

    fn update(&self, f: impl FnOnce(&mut CallTimes)) {
        let mut times = self.times.get();
        f(&mut times);
        self.times.set(times);
    }

    /// Times `call` and books its duration with `book`.
    fn timed<R>(&self, call: impl FnOnce() -> R, book: impl FnOnce(&mut CallTimes, f64)) -> R {
        let t0 = Instant::now();
        let out = call();
        let dt = t0.elapsed().as_secs_f64();
        self.update(|t| book(t, dt));
        out
    }

    /// Counts a cheap call (`count` returns the count to bump) and times
    /// one in [`SAMPLE_EVERY`] of them, booking the scaled duration.
    fn sampled<R>(
        &self,
        call: impl FnOnce() -> R,
        count: impl Fn(&mut CallTimes) -> &mut u64,
        book: impl FnOnce(&mut CallTimes, f64),
    ) -> R {
        let mut times = self.times.get();
        let n = count(&mut times);
        *n += 1;
        let sample = *n % SAMPLE_EVERY == 1;
        self.times.set(times);
        if !sample {
            return call();
        }
        self.timed(call, |t, dt| book(t, (dt - clock_overhead()).max(0.0) * SAMPLE_EVERY as f64))
    }

    fn accessor<R>(&self, call: impl FnOnce() -> R) -> R {
        self.sampled(call, |t| &mut t.accessors, |t, dt| t.other_s += dt)
    }

    /// Books a crossbar write that started at `t0`.
    fn reconfigured(&self, t0: Instant) {
        let dt = t0.elapsed().as_secs_f64();
        self.update(|t| {
            t.other_s += dt;
            t.reconfigs += 1;
        });
    }
}

impl<S: ReliabilitySubstrate> ReliabilitySubstrate for Timed<S> {
    type Checkpoint = S::Checkpoint;
    type Fault = S::Fault;

    fn layers(&self) -> usize {
        self.accessor(|| self.inner.layers())
    }
    fn pipeline_count(&self) -> usize {
        self.accessor(|| self.inner.pipeline_count())
    }
    fn now(&self) -> u64 {
        self.accessor(|| self.inner.now())
    }
    fn run(&mut self, cycles: u64) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let out = self.inner.run(cycles);
        let dt = t0.elapsed().as_secs_f64();
        self.update(|t| {
            t.run_s += dt;
            t.run_cycles += cycles;
        });
        out
    }
    fn stage_for(&self, pipe: usize, unit: Unit) -> Option<StageId> {
        self.accessor(|| self.inner.stage_for(pipe, unit))
    }
    fn leftovers(&self) -> Vec<StageId> {
        self.accessor(|| self.inner.leftovers())
    }
    fn trace_window(&self, stage: StageId, n: usize) -> Vec<StageRecord> {
        self.timed(|| self.inner.trace_window(stage, n), |t, dt| t.trace_window_s += dt)
    }
    fn replay_output(&self, stage: StageId, record: &StageRecord) -> u32 {
        self.sampled(
            || self.inner.replay_output(stage, record),
            |t| &mut t.replays,
            |t, dt| t.replay_s += dt,
        )
    }
    fn stage_usable(&self, stage: StageId) -> bool {
        self.accessor(|| self.inner.stage_usable(stage))
    }
    fn power_off(&mut self, stage: StageId) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let out = self.inner.power_off(stage);
        self.reconfigured(t0);
        out
    }
    fn unassign(&mut self, pipe: usize, unit: Unit) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let out = self.inner.unassign(pipe, unit);
        self.reconfigured(t0);
        out
    }
    fn assign(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let out = self.inner.assign(pipe, unit, layer);
        self.reconfigured(t0);
        out
    }
    fn pipeline_corrupted(&self, pipe: usize) -> bool {
        self.accessor(|| self.inner.pipeline_corrupted(pipe))
    }
    fn retired(&self, pipe: usize) -> u64 {
        self.accessor(|| self.inner.retired(pipe))
    }
    fn restart_program(&mut self, pipe: usize) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let out = self.inner.restart_program(pipe);
        let dt = t0.elapsed().as_secs_f64();
        self.update(|t| t.other_s += dt);
        out
    }
    fn checkpoint_pipeline(&self, pipe: usize) -> Result<Self::Checkpoint, EngineError> {
        self.timed(|| self.inner.checkpoint_pipeline(pipe), |t, dt| t.checkpoint_s += dt)
    }
    fn checkpoint_retired(checkpoint: &Self::Checkpoint) -> u64 {
        S::checkpoint_retired(checkpoint)
    }
    fn restore_pipeline(
        &mut self,
        pipe: usize,
        checkpoint: &Self::Checkpoint,
    ) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let out = self.inner.restore_pipeline(pipe, checkpoint);
        let dt = t0.elapsed().as_secs_f64();
        self.update(|t| t.checkpoint_s += dt);
        out
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
    fn inject_link_fault(&mut self, link: StageId, fault: LinkFault) -> Result<(), EngineError> {
        self.inner.inject_link_fault(link, fault)
    }
    fn route_readback(&self, pipe: usize, unit: Unit) -> Option<usize> {
        self.accessor(|| self.inner.route_readback(pipe, unit))
    }
    fn corrupt_route(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.inner.corrupt_route(pipe, unit, layer)
    }
    fn scrub_route(&mut self, pipe: usize, unit: Unit) {
        let t0 = Instant::now();
        self.inner.scrub_route(pipe, unit);
        self.reconfigured(t0);
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
    use r2d3_core::campaign::campaign_engine_config;
    use r2d3_core::engine::R2d3Engine;
    use r2d3_core::{NetlistSubstrate, NetlistSubstrateConfig};

    fn metrics_after<S: ReliabilitySubstrate>(sys: &mut S) -> r2d3_core::MetricsSnapshot {
        let mut engine = R2d3Engine::builder().config(campaign_engine_config()).build().unwrap();
        for _ in 0..12 {
            engine.run_epoch(sys).unwrap();
        }
        engine.metrics()
    }

    #[test]
    fn wrapped_engine_matches_bare_engine() {
        let victim = StageId::new(1, Unit::Exu);
        let config = NetlistSubstrateConfig { pipelines: 5, layers: 8, ..Default::default() };
        let mut bare = NetlistSubstrate::new(&config);
        bare.inject_permanent_seeded(victim, 0xFEED).unwrap();
        let mut wrapped = Timed::new(bare.clone());
        let bare_metrics = metrics_after(&mut bare);
        let wrapped_metrics = metrics_after(&mut wrapped);
        assert_eq!(bare_metrics, wrapped_metrics);
        assert!(bare_metrics.permanents_diagnosed >= 1, "the seeded fault must be diagnosed");
        let t = wrapped.times();
        assert_eq!(t.run_cycles, 12 * campaign_engine_config().t_epoch);
        assert!(t.replays > 0 && t.reconfigs > 0);
        assert!(t.total_s() >= t.run_s);
    }
}
