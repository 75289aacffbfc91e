//! The 8-core 3D system: physical stages + fabric + logical pipelines.

use crate::cache::{Cache, MemoryHierarchy};
use crate::fabric::Fabric;
use crate::pipeline::{LogicalPipeline, StageEffects, TimingParams};
use crate::stage::{FaultEffect, StageHealth, StageId};
use crate::stats::ActivityStats;
use crate::trace::{StageRecord, TraceRing};
use crate::SimError;
use r2d3_isa::{Program, Unit};

/// System-level configuration (paper Table II plus fabric parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Vertical tiers in the stack (the paper's system has 8).
    pub layers: usize,
    /// Logical pipelines (≤ layers at full health).
    pub pipelines: usize,
    /// Cache/memory geometry.
    pub hierarchy: MemoryHierarchy,
    /// Core timing parameters.
    pub timing: TimingParams,
    /// Per-stage trace-ring capacity (how far back the detection
    /// machinery can replay).
    pub trace_capacity: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            layers: 8,
            pipelines: 8,
            hierarchy: MemoryHierarchy::default(),
            timing: TimingParams::default(),
            trace_capacity: 8192,
        }
    }
}

/// The simulated 3D multicore: 40 physical stages (8 layers × 5 units),
/// a crossbar fabric, logical pipelines and the shared L2.
#[derive(Debug, Clone)]
pub struct System3d {
    config: SystemConfig,
    fabric: Fabric,
    health: Vec<StageHealth>,
    pending_transients: Vec<Option<FaultEffect>>,
    pipelines: Vec<LogicalPipeline>,
    l2: Cache,
    traces: Vec<TraceRing>,
    stats: ActivityStats,
    now: u64,
}

impl System3d {
    /// Builds a fresh system with the identity fabric (pipeline `p` on
    /// layer `p`) and all stages healthy.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        let nstages = config.layers * Unit::COUNT;
        System3d {
            fabric: Fabric::identity(config.layers, config.pipelines),
            health: vec![StageHealth::Healthy; nstages],
            pending_transients: vec![None; nstages],
            pipelines: (0..config.pipelines)
                .map(|i| LogicalPipeline::new(i, &config.hierarchy, config.timing))
                .collect(),
            l2: Cache::new(config.hierarchy.l2),
            traces: (0..nstages).map(|_| TraceRing::new(config.trace_capacity)).collect(),
            stats: ActivityStats::new(config.layers),
            config: *config,
            now: 0,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Global cycle count.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The crossbar fabric (read-only).
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The crossbar fabric (reconfigurable; the R2D3 controller's handle).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// A pipeline by index.
    #[must_use]
    pub fn pipeline(&self, pipe: usize) -> Option<&LogicalPipeline> {
        self.pipelines.get(pipe)
    }

    /// Number of logical pipelines.
    #[must_use]
    pub fn pipeline_count(&self) -> usize {
        self.pipelines.len()
    }

    /// Health of a physical stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage is outside the stack.
    #[must_use]
    pub fn health(&self, stage: StageId) -> StageHealth {
        self.health[stage.flat_index()]
    }

    /// Sets a stage's health (the controller's repair/power actions).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStage`] for out-of-range stages.
    pub fn set_health(&mut self, stage: StageId, health: StageHealth) -> Result<(), SimError> {
        let slot = self.health.get_mut(stage.flat_index()).ok_or(SimError::UnknownStage(stage))?;
        *slot = health;
        Ok(())
    }

    /// Injects a permanent stuck-at defect into a stage.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStage`] for out-of-range stages.
    pub fn inject_fault(&mut self, stage: StageId, effect: FaultEffect) -> Result<(), SimError> {
        self.set_health(stage, StageHealth::Faulty(effect))
    }

    /// Arms a one-shot transient on a stage: the next operation that stage
    /// performs is corrupted once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStage`] for out-of-range stages.
    pub fn inject_transient(
        &mut self,
        stage: StageId,
        effect: FaultEffect,
    ) -> Result<(), SimError> {
        let slot = self
            .pending_transients
            .get_mut(stage.flat_index())
            .ok_or(SimError::UnknownStage(stage))?;
        *slot = Some(effect);
        Ok(())
    }

    /// Loads (and resets) a program onto a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] for bad indices.
    pub fn load_program(&mut self, pipe: usize, program: Program) -> Result<(), SimError> {
        self.pipelines.get_mut(pipe).ok_or(SimError::UnknownPipeline(pipe))?.load(program);
        Ok(())
    }

    /// Restarts a pipeline's program (post-repair recovery).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] for bad indices.
    pub fn restart_program(&mut self, pipe: usize) -> Result<(), SimError> {
        self.pipelines.get_mut(pipe).ok_or(SimError::UnknownPipeline(pipe))?.restart();
        Ok(())
    }

    /// Captures a pipeline's architectural state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] for bad indices.
    pub fn checkpoint_pipeline(
        &self,
        pipe: usize,
    ) -> Result<crate::pipeline::PipelineCheckpoint, SimError> {
        self.pipelines
            .get(pipe)
            .map(crate::pipeline::LogicalPipeline::checkpoint)
            .ok_or(SimError::UnknownPipeline(pipe))
    }

    /// Restores a pipeline's architectural state from a checkpoint
    /// (post-repair recovery without losing the whole run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] for bad indices.
    pub fn restore_pipeline(
        &mut self,
        pipe: usize,
        checkpoint: &crate::pipeline::PipelineCheckpoint,
    ) -> Result<(), SimError> {
        self.pipelines.get_mut(pipe).ok_or(SimError::UnknownPipeline(pipe))?.restore(checkpoint);
        Ok(())
    }

    /// The I/O trace of a physical stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage is outside the stack.
    #[must_use]
    pub fn stage_trace(&self, stage: StageId) -> &TraceRing {
        &self.traces[stage.flat_index()]
    }

    /// Per-stage activity statistics.
    #[must_use]
    pub fn stats(&self) -> &ActivityStats {
        &self.stats
    }

    /// Resets activity counters (start of a calibration window).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Advances the whole system by `cycles` global cycles.
    ///
    /// Every complete, runnable pipeline executes until its local clock
    /// reaches the new global time; incomplete, halted or crashed
    /// pipelines idle.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] only for genuine simulator misuse (e.g. an
    /// out-of-range access on an untainted pipeline); fault-induced
    /// wedges set the pipeline's `crashed` flag instead.
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let target = self.now + cycles;
        for pipe in 0..self.pipelines.len() {
            self.run_pipe_to(pipe, target)?;
        }
        self.now = target;
        Ok(())
    }

    fn run_pipe_to(&mut self, pipe: usize, target: u64) -> Result<(), SimError> {
        // Resolve the segment's state once: the serving stages, their
        // permanent effects, their pending transients and which slots the
        // fabric passes through unchanged. Reconfiguration, repair and
        // injection happen between `run` calls (epoch boundaries),
        // matching the paper, so none of it changes inside a segment.
        let slots = Unit::ALL.map(|unit| self.fabric.stage_for(pipe, unit));
        let p = &mut self.pipelines[pipe];
        if slots.contains(&None) || !p.runnable() {
            // Incomplete, halted or crashed: idle, and leave any transient
            // armed on the stages pending.
            p.idle_to(target);
            return Ok(());
        }
        let stages = slots.map(|stage| stage.expect("complete pipeline"));
        let mut effects = StageEffects::none();
        let mut transparent = [true; 5];
        for unit in Unit::ALL {
            let u = unit.index();
            let flat = stages[u].flat_index();
            effects.permanent[u] = self.health[flat].effect();
            effects.transient[u] = self.pending_transients[flat].take();
            transparent[u] = self.fabric.transparent(pipe, unit);
        }

        let mut link_corrupt = false;
        let traces = &mut self.traces;
        let stats = &mut self.stats;
        let fabric = &mut self.fabric;
        let mut record = |unit: Unit, mut rec: StageRecord| {
            let u = unit.index();
            // Every stage output crosses the vertical interconnect before
            // the consumer (and the trace ring, which snoops the delivered
            // bundle) sees it; a transparent slot delivers it unchanged.
            if !transparent[u] {
                let delivered = fabric.deliver(pipe, unit, rec.actual_output);
                if delivered != rec.actual_output {
                    rec.actual_output = delivered;
                    link_corrupt = true;
                }
            }
            traces[stages[u].flat_index()].push(rec);
        };
        let mut busy = |unit: Unit, cycles| stats.add_busy(stages[unit.index()], cycles);
        let mut result = Ok(());
        while result.is_ok() && p.cycles() < target && p.runnable() {
            result = p
                .step(&mut effects, &mut self.l2, &self.config.hierarchy, &mut record, &mut busy)
                .map(drop);
        }

        // Return unconsumed transients to the pending pool.
        for (stage, transient) in stages.iter().zip(effects.transient) {
            if transient.is_some() {
                self.pending_transients[stage.flat_index()] = transient;
            }
        }
        result?;
        // A pipeline that halted or crashed idles out the segment.
        p.idle_to(target);
        if link_corrupt {
            // The consumer latched corrupted bundles: downstream
            // architectural state is poisoned even though every stage
            // computed correctly.
            p.mark_tainted();
        }
        Ok(())
    }

    /// Aggregate IPC across pipelines that retired anything.
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        if self.now == 0 {
            return 0.0;
        }
        let retired: u64 = self.pipelines.iter().map(LogicalPipeline::retired).sum();
        retired as f64 / self.now as f64
    }

    /// Unassigned stages: the paper's *leftover* candidates.
    ///
    /// Deliberately not filtered by ground-truth health — the controller
    /// only knows what it has diagnosed, so belief-based filtering happens
    /// in `r2d3-core`.
    #[must_use]
    pub fn leftovers(&self) -> Vec<StageId> {
        self.fabric.unassigned_stages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_isa::kernels::{gemm, gemv};

    #[test]
    fn eight_cores_run_independent_kernels() {
        let mut sys = System3d::new(&SystemConfig::default());
        let kernels: Vec<_> = (0..8).map(|i| gemv(6, 6, i as u64 + 1)).collect();
        for (i, k) in kernels.iter().enumerate() {
            sys.load_program(i, k.program().clone()).unwrap();
        }
        sys.run(200_000).unwrap();
        for (i, k) in kernels.iter().enumerate() {
            let p = sys.pipeline(i).unwrap();
            assert!(p.halted(), "pipeline {i} did not finish");
            assert!(k.verify(p.memory()), "pipeline {i} wrong result");
        }
        assert!(sys.aggregate_ipc() > 0.0);
    }

    #[test]
    fn activity_lands_on_assigned_layers() {
        let mut sys = System3d::new(&SystemConfig::default());
        sys.load_program(2, gemm(4, 4, 4, 5).program().clone()).unwrap();
        sys.run(100_000).unwrap();
        // Only layer 2 (identity fabric) should be busy.
        for layer in 0..8 {
            let busy = sys.stats().layer_busy(layer);
            if layer == 2 {
                assert!(busy > 0);
            } else {
                assert_eq!(busy, 0, "layer {layer} should be idle");
            }
        }
    }

    #[test]
    fn reconfigured_fabric_moves_activity() {
        // Six pipelines leave layers 6 and 7 as spares; pipeline 0 borrows
        // layer 7's EXU through the crossbar.
        let config = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&config);
        sys.fabric_mut().unassign(0, Unit::Exu).unwrap();
        sys.fabric_mut().assign(0, Unit::Exu, 7).unwrap();
        sys.load_program(0, gemm(4, 4, 4, 5).program().clone()).unwrap();
        sys.run(100_000).unwrap();
        assert!(sys.stats().busy(StageId::new(7, Unit::Exu)) > 0);
        assert_eq!(sys.stats().busy(StageId::new(0, Unit::Exu)), 0);
    }

    #[test]
    fn faulty_stage_taints_execution() {
        let mut sys = System3d::new(&SystemConfig::default());
        let k = gemv(8, 8, 2);
        sys.load_program(3, k.program().clone()).unwrap();
        sys.inject_fault(StageId::new(3, Unit::Ffu), FaultEffect { bit: 30, stuck: true }).unwrap();
        sys.run(200_000).unwrap();
        let p = sys.pipeline(3).unwrap();
        assert!(p.tainted());
        assert!(!k.verify(p.memory()), "FFU fault must corrupt GEMV results");
    }

    #[test]
    fn incomplete_pipeline_idles() {
        let mut sys = System3d::new(&SystemConfig::default());
        sys.fabric_mut().unassign(1, Unit::Lsu).unwrap();
        sys.load_program(1, gemv(4, 4, 3).program().clone()).unwrap();
        sys.run(10_000).unwrap();
        let p = sys.pipeline(1).unwrap();
        assert_eq!(p.retired(), 0);
        assert!(!p.halted());
        assert_eq!(p.cycles(), 10_000);
    }

    #[test]
    fn traces_capture_stage_io() {
        let mut sys = System3d::new(&SystemConfig::default());
        sys.load_program(0, gemv(4, 4, 4).program().clone()).unwrap();
        sys.run(50_000).unwrap();
        let ifu = sys.stage_trace(StageId::new(0, Unit::Ifu));
        let ffu = sys.stage_trace(StageId::new(0, Unit::Ffu));
        assert!(!ifu.is_empty());
        assert!(!ffu.is_empty());
        // Fault-free: golden == actual on every record.
        assert!(ifu.iter().all(|r| r.golden_output == r.actual_output));
    }

    #[test]
    fn leftovers_reflect_fabric_and_health() {
        let config = SystemConfig { pipelines: 6, ..Default::default() };
        let mut sys = System3d::new(&config);
        assert_eq!(sys.leftovers().len(), 10);
        // Ground-truth faults do NOT hide leftovers: the controller only
        // learns about them through diagnosis.
        sys.inject_fault(StageId::new(7, Unit::Ifu), FaultEffect { bit: 0, stuck: false }).unwrap();
        assert_eq!(sys.leftovers().len(), 10);
    }

    #[test]
    fn link_fault_corrupts_delivery_and_taints_consumer() {
        use crate::fabric::LinkFault;
        let mut sys = System3d::new(&SystemConfig::default());
        sys.load_program(2, gemv(6, 6, 3).program().clone()).unwrap();
        sys.fabric_mut()
            .inject_link_fault(2, Unit::Exu, LinkFault::Stuck { mask: 1 << 30, pattern: 1 << 30 })
            .unwrap();
        sys.run(100_000).unwrap();
        let trace = sys.stage_trace(StageId::new(2, Unit::Exu));
        let corrupted = trace.iter().filter(|r| r.golden_output != r.actual_output).count();
        assert!(corrupted > 0, "stuck TSV must corrupt delivered records");
        assert!(sys.pipeline(2).unwrap().tainted(), "consumer state is poisoned");
        // The stage itself is healthy: other pipelines are unaffected.
        assert_eq!(sys.health(StageId::new(2, Unit::Exu)), StageHealth::Healthy);
    }

    /// A transient that always corrupts an EXU value: GEMV's index
    /// arithmetic never sets bit 30.
    const UPSET: FaultEffect = FaultEffect { bit: 30, stuck: true };

    /// Pipeline 0 running `program`, with `UPSET` armed on its EXU.
    fn armed_with(program: Program) -> System3d {
        let mut sys = System3d::new(&SystemConfig::default());
        sys.load_program(0, program).unwrap();
        sys.inject_transient(StageId::new(0, Unit::Exu), UPSET).unwrap();
        sys
    }

    /// Checks that the transient armed on pipeline 0's EXU is still
    /// pending, then runs GEMV there and checks that it fired exactly
    /// once: on the EXU's first record and on no other.
    fn fires_once_in_a_later_segment(sys: &mut System3d) {
        let exu = StageId::new(0, Unit::Exu);
        assert_eq!(sys.pending_transients[exu.flat_index()], Some(UPSET));
        assert!(sys.stage_trace(exu).is_empty());
        sys.load_program(0, gemv(6, 6, 9).program().clone()).unwrap();
        sys.run(100_000).unwrap();
        assert_eq!(sys.pending_transients[exu.flat_index()], None);
        let trace: Vec<_> = sys.stage_trace(exu).iter().copied().collect();
        assert_eq!(trace[0].actual_output, UPSET.apply(trace[0].golden_output));
        assert_ne!(trace[0].actual_output, trace[0].golden_output);
        assert!(trace[1..].iter().all(|r| r.actual_output == r.golden_output));
    }

    #[test]
    fn transient_waits_out_an_incomplete_pipeline() {
        let mut sys = armed_with(gemv(6, 6, 9).program().clone());
        sys.fabric_mut().unassign(0, Unit::Lsu).unwrap();
        sys.run(10_000).unwrap();
        sys.fabric_mut().assign(0, Unit::Lsu, 0).unwrap();
        fires_once_in_a_later_segment(&mut sys);
    }

    #[test]
    fn transient_waits_out_a_halt_mid_segment() {
        let mut a = r2d3_isa::asm::Asm::new();
        a.nop();
        a.halt();
        let mut sys = armed_with(a.assemble().unwrap());
        sys.run(10_000).unwrap();
        assert!(sys.pipeline(0).unwrap().halted());
        fires_once_in_a_later_segment(&mut sys);
    }

    #[test]
    fn transient_waits_out_a_sim_error() {
        // An unencodable jump is a simulator error when fetched, whatever
        // effects are armed.
        let mut a = r2d3_isa::asm::Asm::new();
        a.nop();
        a.emit(r2d3_isa::Instruction::Jal { rd: r2d3_isa::Reg::R0, offset: i32::MAX });
        let mut sys = armed_with(a.assemble().unwrap());
        assert!(matches!(sys.run(10_000), Err(SimError::Isa(_))));
        fires_once_in_a_later_segment(&mut sys);
    }

    #[test]
    fn transient_corrupts_exactly_once() {
        let mut sys = System3d::new(&SystemConfig::default());
        let k = gemv(6, 6, 9);
        sys.load_program(0, k.program().clone()).unwrap();
        sys.inject_transient(StageId::new(0, Unit::Exu), FaultEffect { bit: 2, stuck: true })
            .unwrap();
        sys.run(100_000).unwrap();
        let trace = sys.stage_trace(StageId::new(0, Unit::Exu));
        let corrupted = trace.iter().filter(|r| r.golden_output != r.actual_output).count();
        assert!(corrupted <= 1, "at most one corrupted record");
    }
}
