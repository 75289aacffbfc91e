//! Execution substrates behind the R2D3 engine.
//!
//! The controller ([`crate::R2d3Engine`]) never manipulates a concrete
//! simulator: everything it touches — epoch execution, the trace records
//! the inter-stage checkers compare, replay for the TMR vote, crossbar
//! reconfiguration, checkpoint/restore, health isolation — goes through
//! the [`ReliabilitySubstrate`] trait. Two backends implement it:
//!
//! * the **behavioral** substrate ([`r2d3_pipeline_sim::System3d`]):
//!   instruction-level pipelines whose faults are architectural bit
//!   effects ([`r2d3_pipeline_sim::FaultEffect`]);
//! * the **gate-level** substrate ([`NetlistSubstrate`]): each stage is
//!   its synthesized stage netlist, faults are real stuck-at faults from
//!   the ATPG fault universe, and checker comparisons operate on folded
//!   gate-level output vectors.
//!
//! The same detect → diagnose → repair scenario reaches the same verdicts
//! on both (see `tests/substrate_parity.rs`).

mod behavioral;
mod netlist;

pub use netlist::{GateFault, NetlistCheckpoint, NetlistSubstrate, NetlistSubstrateConfig};
pub use r2d3_pipeline_sim::LinkFault;

use crate::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{ActivityStats, StageId, StageRecord};

/// Everything the R2D3 engine needs from an execution substrate.
///
/// A substrate is a 3D stack of `layers × 5` physical stages, a crossbar
/// mapping logical pipelines onto them, per-stage output traces, and a
/// notion of replaying a traced operation on any same-unit stage (the
/// paper's leftover-based detection and single-replay TMR diagnosis).
///
/// Implementations may panic on out-of-range [`StageId`]s, mirroring the
/// behavioral simulator's `health` accessor; the engine only passes
/// stages obtained from the substrate itself.
pub trait ReliabilitySubstrate {
    /// Per-pipeline architectural checkpoint (validated-commit recovery).
    type Checkpoint: Clone + std::fmt::Debug;
    /// Substrate-specific permanent-fault descriptor: an architectural
    /// bit effect behaviorally, a stuck-at net at gate level.
    type Fault;

    /// Tiers in the stack.
    fn layers(&self) -> usize;
    /// Logical pipelines the crossbar can form.
    fn pipeline_count(&self) -> usize;
    /// Current cycle count (never rewound, even across restores).
    fn now(&self) -> u64;
    /// Executes `cycles` of every formed pipeline.
    ///
    /// # Errors
    ///
    /// Propagates substrate execution errors.
    fn run(&mut self, cycles: u64) -> Result<(), EngineError>;
    /// The stage currently serving `pipe`'s `unit` slot, if assigned.
    fn stage_for(&self, pipe: usize, unit: Unit) -> Option<StageId>;
    /// Stages not assigned to any pipeline (detection redundancy pool).
    fn leftovers(&self) -> Vec<StageId>;
    /// The last `n` output records of a stage (oldest first).
    fn trace_window(&self, stage: StageId, n: usize) -> Vec<StageRecord>;
    /// Those of the last `n` output records of a stage that are stamped at
    /// or after cycle `since` (oldest first): the epoch scan's window,
    /// and the only trace read it makes. The default filters
    /// [`trace_window`](Self::trace_window); a substrate whose stamps
    /// never decrease in push order can copy just the kept suffix.
    fn trace_window_since(&self, stage: StageId, n: usize, since: u64) -> Vec<StageRecord> {
        let mut window = self.trace_window(stage, n);
        window.retain(|record| record.cycle >= since);
        window
    }
    /// Output `stage` produces re-executing the operation captured by
    /// `record` — the checker's redundant-side value and the TMR
    /// replay primitive. Permanent faults of `stage` manifest;
    /// one-shot transients (already consumed) do not recur.
    fn replay_output(&self, stage: StageId, record: &StageRecord) -> u32;
    /// Whether a stage may serve or vote (healthy or merely powered off
    /// by the controller — not known-faulty ground truth).
    fn stage_usable(&self, stage: StageId) -> bool;
    /// Power-gates a stage so it never serves again.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown stages.
    fn power_off(&mut self, stage: StageId) -> Result<(), EngineError>;
    /// Clears a crossbar slot (no-op when already empty).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown pipelines.
    fn unassign(&mut self, pipe: usize, unit: Unit) -> Result<(), EngineError>;
    /// Routes `pipe`'s `unit` slot to `layer`'s stage of that unit.
    ///
    /// # Errors
    ///
    /// Returns an error on double-booking or unknown coordinates.
    fn assign(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError>;
    /// Whether a pipeline's architectural state is corrupted (tainted by
    /// a manifested fault, or crashed).
    fn pipeline_corrupted(&self, pipe: usize) -> bool;
    /// Instructions (operations) a pipeline has retired.
    fn retired(&self, pipe: usize) -> u64;
    /// Restarts a pipeline's program from the beginning.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown pipelines.
    fn restart_program(&mut self, pipe: usize) -> Result<(), EngineError>;
    /// Captures a pipeline's architectural state.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown pipelines.
    fn checkpoint_pipeline(&self, pipe: usize) -> Result<Self::Checkpoint, EngineError>;
    /// Retired-instruction count recorded in a checkpoint (rollback-loss
    /// accounting).
    fn checkpoint_retired(checkpoint: &Self::Checkpoint) -> u64;
    /// Rolls a pipeline back to a checkpoint (physical time is not
    /// rewound).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown pipelines.
    fn restore_pipeline(
        &mut self,
        pipe: usize,
        checkpoint: &Self::Checkpoint,
    ) -> Result<(), EngineError>;
    /// Injects a permanent fault into a stage (ground truth; the engine
    /// only ever learns of it through detection).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown stages or invalid fault descriptors.
    fn inject_fault(&mut self, stage: StageId, fault: Self::Fault) -> Result<(), EngineError>;
    /// Injects a substrate-appropriate, strongly-manifesting permanent
    /// fault derived from `seed` — the campaign harness's uniform fault
    /// lever (an architectural low-bit stuck-at behaviorally, a stuck
    /// observed-output net at gate level).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown stages.
    fn inject_permanent_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError>;
    /// Arms a one-shot transient derived from `seed`: the next operation
    /// `stage` performs is corrupted once, then the upset is consumed
    /// (it does not recur under replay).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown stages.
    fn inject_transient_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError>;
    /// Digest of a checkpoint's architectural payload; any flipped bit of
    /// the snapshot must change the digest (checkpoint-store integrity).
    fn checkpoint_digest(checkpoint: &Self::Checkpoint) -> u64;
    /// Flips one seed-selected bit of a checkpoint's payload — the
    /// campaign's model of checkpoint storage rot between commit and
    /// recover. Ground-truth corruption only; the engine never calls it.
    fn corrupt_checkpoint(checkpoint: &mut Self::Checkpoint, seed: u64);
    /// Arms a fault on the vertical TSV link bundle of `link`'s stage
    /// (ground truth). Link faults corrupt delivered values in flight —
    /// the stage computes correctly, the consumer and the snooped trace
    /// see the corruption — while the engine's replay network bypasses
    /// the TSVs, so replays come back clean.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range links.
    fn inject_link_fault(&mut self, link: StageId, fault: LinkFault) -> Result<(), EngineError>;
    /// The layer `pipe`'s `unit` mux-select *hardware* actually reads —
    /// normally the assignment ([`stage_for`](Self::stage_for)'s layer),
    /// but a select-register upset makes the two disagree. The engine's
    /// route scrub compares this readback against its intent.
    fn route_readback(&self, pipe: usize, unit: Unit) -> Option<usize>;
    /// Upsets the mux-select register of `pipe`'s `unit` slot to read
    /// `layer` (ground-truth SEU in the crossbar configuration; the
    /// engine only learns of it through readback or data corruption).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown coordinates.
    fn corrupt_route(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError>;
    /// Rewrites `pipe`'s `unit` select register from the assignment —
    /// the controller's route-scrub repair for select upsets.
    fn scrub_route(&mut self, pipe: usize, unit: Unit);
    /// Per-stage busy-cycle accounting.
    fn stats(&self) -> &ActivityStats;
    /// Zeroes the busy-cycle accounting.
    fn reset_stats(&mut self);
    /// Stable substrate name for reports and trace labels.
    fn name(&self) -> &'static str;
}
