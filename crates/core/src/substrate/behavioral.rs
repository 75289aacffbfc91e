//! The behavioral substrate: [`System3d`] with unchanged semantics.

use super::ReliabilitySubstrate;
use crate::checker::stage_output;
use crate::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{
    ActivityStats, FaultEffect, LinkFault, PipelineCheckpoint, StageHealth, StageId, StageRecord,
    System3d,
};

impl ReliabilitySubstrate for System3d {
    type Checkpoint = PipelineCheckpoint;
    type Fault = FaultEffect;

    fn layers(&self) -> usize {
        self.fabric().layers()
    }

    fn pipeline_count(&self) -> usize {
        System3d::pipeline_count(self)
    }

    fn now(&self) -> u64 {
        System3d::now(self)
    }

    fn run(&mut self, cycles: u64) -> Result<(), EngineError> {
        System3d::run(self, cycles).map_err(EngineError::Sim)
    }

    fn stage_for(&self, pipe: usize, unit: Unit) -> Option<StageId> {
        self.fabric().stage_for(pipe, unit)
    }

    fn leftovers(&self) -> Vec<StageId> {
        System3d::leftovers(self)
    }

    fn trace_window(&self, stage: StageId, n: usize) -> Vec<StageRecord> {
        self.stage_trace(stage).last_since(n, 0)
    }

    fn trace_window_since(&self, stage: StageId, n: usize, since: u64) -> Vec<StageRecord> {
        // A stage serves one pipeline per `run`, each operation of a
        // segment starts before the segment's target and every pipeline
        // ends a successful `run` at or past it, so the ring's stamps
        // never decrease.
        self.stage_trace(stage).last_since(n, since)
    }

    fn replay_output(&self, stage: StageId, record: &StageRecord) -> u32 {
        // Permanent effects persist under replay; one-shot transients were
        // consumed when they fired and do not recur.
        stage_output(self.health(stage).effect(), record.golden_output)
    }

    fn stage_usable(&self, stage: StageId) -> bool {
        self.health(stage).is_usable()
    }

    fn power_off(&mut self, stage: StageId) -> Result<(), EngineError> {
        self.set_health(stage, StageHealth::PoweredOff).map_err(EngineError::Sim)
    }

    fn unassign(&mut self, pipe: usize, unit: Unit) -> Result<(), EngineError> {
        self.fabric_mut().unassign(pipe, unit).map_err(EngineError::Sim)
    }

    fn assign(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.fabric_mut().assign(pipe, unit, layer).map_err(EngineError::Sim)
    }

    fn pipeline_corrupted(&self, pipe: usize) -> bool {
        self.pipeline(pipe).is_some_and(|p| p.tainted() || p.crashed())
    }

    fn retired(&self, pipe: usize) -> u64 {
        self.pipeline(pipe).map_or(0, |p| p.retired())
    }

    fn restart_program(&mut self, pipe: usize) -> Result<(), EngineError> {
        System3d::restart_program(self, pipe).map_err(EngineError::Sim)
    }

    fn checkpoint_pipeline(&self, pipe: usize) -> Result<PipelineCheckpoint, EngineError> {
        System3d::checkpoint_pipeline(self, pipe).map_err(EngineError::Sim)
    }

    fn checkpoint_retired(checkpoint: &PipelineCheckpoint) -> u64 {
        checkpoint.retired()
    }

    fn restore_pipeline(
        &mut self,
        pipe: usize,
        checkpoint: &PipelineCheckpoint,
    ) -> Result<(), EngineError> {
        System3d::restore_pipeline(self, pipe, checkpoint).map_err(EngineError::Sim)
    }

    fn inject_fault(&mut self, stage: StageId, fault: FaultEffect) -> Result<(), EngineError> {
        System3d::inject_fault(self, stage, fault).map_err(EngineError::Sim)
    }

    fn inject_permanent_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError> {
        // Low architectural bits toggle on almost every operation, so a
        // stuck-at there manifests promptly under any workload.
        let effect = FaultEffect { bit: (seed % 4) as u8, stuck: seed & 4 == 0 };
        System3d::inject_fault(self, stage, effect).map_err(EngineError::Sim)
    }

    fn inject_transient_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError> {
        let effect = FaultEffect { bit: (seed % 8) as u8, stuck: seed & 8 == 0 };
        System3d::inject_transient(self, stage, effect).map_err(EngineError::Sim)
    }

    fn checkpoint_digest(checkpoint: &PipelineCheckpoint) -> u64 {
        checkpoint.digest()
    }

    fn corrupt_checkpoint(checkpoint: &mut PipelineCheckpoint, seed: u64) {
        checkpoint.corrupt_bit(seed);
    }

    fn inject_link_fault(&mut self, link: StageId, fault: LinkFault) -> Result<(), EngineError> {
        self.fabric_mut().inject_link_fault(link.layer, link.unit, fault).map_err(EngineError::Sim)
    }

    fn route_readback(&self, pipe: usize, unit: Unit) -> Option<usize> {
        self.fabric().route_readback(pipe, unit)
    }

    fn corrupt_route(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.fabric_mut().override_route(pipe, unit, layer).map_err(EngineError::Sim)
    }

    fn scrub_route(&mut self, pipe: usize, unit: Unit) {
        self.fabric_mut().scrub_route(pipe, unit);
    }

    fn stats(&self) -> &ActivityStats {
        System3d::stats(self)
    }

    fn reset_stats(&mut self) {
        System3d::reset_stats(self);
    }

    fn name(&self) -> &'static str {
        "behavioral"
    }
}
