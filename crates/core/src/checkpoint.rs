//! Epoch-committed checkpointing (§III-C / §III-D recovery).
//!
//! The paper: "R2D3 controller utilizes a checkpointing mechanism that
//! creates epochs of execution" and, after repair, "we re-execute the
//! task, starting either from a checkpoint or the beginning." The commit
//! rule follows BulletProof's epoch semantics: an epoch's state is only
//! *committed* as a checkpoint once the epoch-end detection pass found no
//! symptom — otherwise the corrupted epoch is discarded and recovery
//! rolls back to the last validated commit.
//!
//! The store itself is not assumed incorruptible: a checkpoint that rots
//! between commit and recovery (a flipped DRAM bit, a torn write) would
//! otherwise be restored as ground truth and silently poison the very
//! rollback meant to remove corruption. Each committed slot therefore
//! carries a digest of its payload, verified before any restore; a
//! mismatch invalidates the slot and surfaces
//! [`EngineError::CorruptCheckpoint`] so the engine can fall back to a
//! restart instead.

use crate::substrate::ReliabilitySubstrate;
use crate::EngineError;
use r2d3_pipeline_sim::PipelineCheckpoint;

/// Checkpointing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Commit a checkpoint every `interval_epochs` clean epochs.
    pub interval_epochs: u64,
    /// Bookkeeping cost of one commit (cycles; state streams out over
    /// the vertical buses during normal execution, so this is small).
    pub save_cost_cycles: u64,
    /// Cost of a rollback restore (cycles).
    pub restore_cost_cycles: u64,
    /// Verify each slot's payload digest before restoring from it.
    /// `false` reproduces the historical restore-blindly behavior (the
    /// campaign harness uses it as its re-introduced-bug oracle: digests
    /// are still computed and mismatched restores counted in
    /// [`CheckpointStats::poisoned_restores`], but the poisoned state is
    /// restored anyway).
    pub verify_integrity: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval_epochs: 4,
            save_cost_cycles: 64,
            restore_cost_cycles: 256,
            verify_integrity: true,
        }
    }
}

/// Recovery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Checkpoints committed.
    pub commits: u64,
    /// Rollback restores performed.
    pub restores: u64,
    /// Full restarts (no committed checkpoint was available).
    pub restarts: u64,
    /// Instructions of work discarded by rollbacks/restarts.
    pub lost_instructions: u64,
    /// Total bookkeeping cycles (commits + restores).
    pub overhead_cycles: u64,
    /// Digest mismatches caught before a restore could use the slot.
    pub corruptions_detected: u64,
    /// Digest-mismatched restores performed anyway because integrity
    /// verification was disabled — each one injected corrupted state
    /// into a live pipeline.
    pub poisoned_restores: u64,
}

/// A committed checkpoint plus the digest of its payload at commit time.
#[derive(Debug, Clone)]
struct Slot<C> {
    state: C,
    digest: u64,
}

/// Per-pipeline checkpoint store with validated-commit semantics,
/// generic over the substrate's checkpoint type (`C` is
/// [`ReliabilitySubstrate::Checkpoint`]; [`PipelineCheckpoint`] for the
/// behavioral backend).
#[derive(Debug, Clone)]
pub struct CheckpointManager<C = PipelineCheckpoint> {
    config: CheckpointConfig,
    slots: Vec<Option<Slot<C>>>,
    stats: CheckpointStats,
}

impl<C: Clone> CheckpointManager<C> {
    /// Creates a manager for `pipelines` slots.
    #[must_use]
    pub fn new(config: CheckpointConfig, pipelines: usize) -> Self {
        CheckpointManager {
            config,
            slots: vec![None; pipelines],
            stats: CheckpointStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CheckpointConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CheckpointStats {
        &self.stats
    }

    /// Whether this epoch index is a commit boundary.
    #[must_use]
    pub fn is_commit_epoch(&self, epoch: u64) -> bool {
        self.config.interval_epochs > 0 && epoch.is_multiple_of(self.config.interval_epochs)
    }

    /// Commits checkpoints for all pipelines — call only after a clean
    /// (symptom-free) epoch-end scan.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn commit_all<S>(&mut self, sys: &S) -> Result<(), EngineError>
    where
        S: ReliabilitySubstrate<Checkpoint = C>,
    {
        for pipe in 0..self.slots.len().min(sys.pipeline_count()) {
            let state = sys.checkpoint_pipeline(pipe)?;
            let digest = S::checkpoint_digest(&state);
            self.slots[pipe] = Some(Slot { state, digest });
            self.stats.commits += 1;
            self.stats.overhead_cycles += self.config.save_cost_cycles;
        }
        Ok(())
    }

    /// Recovers one pipeline after repair: rolls back to its last
    /// committed checkpoint, or restarts the program when none exists.
    ///
    /// The slot's payload digest is re-checked first (unless
    /// [`CheckpointConfig::verify_integrity`] is off): a checkpoint that
    /// rotted since commit must never be restored as ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CorruptCheckpoint`] when the slot fails its
    /// digest check — the slot is invalidated first, so retrying the
    /// recovery falls back to a program restart. Propagates substrate
    /// errors.
    pub fn recover<S>(&mut self, sys: &mut S, pipe: usize) -> Result<(), EngineError>
    where
        S: ReliabilitySubstrate<Checkpoint = C>,
    {
        let retired_now = sys.retired(pipe);
        match &self.slots[pipe] {
            Some(slot) => {
                let found = S::checkpoint_digest(&slot.state);
                if found != slot.digest {
                    if self.config.verify_integrity {
                        let expected = slot.digest;
                        self.stats.corruptions_detected += 1;
                        self.slots[pipe] = None;
                        return Err(EngineError::CorruptCheckpoint { pipe, expected, found });
                    }
                    self.stats.poisoned_restores += 1;
                }
                self.stats.lost_instructions +=
                    retired_now.saturating_sub(S::checkpoint_retired(&slot.state));
                self.stats.restores += 1;
                self.stats.overhead_cycles += self.config.restore_cost_cycles;
                sys.restore_pipeline(pipe, &slot.state.clone())?;
            }
            None => {
                self.stats.lost_instructions += retired_now;
                self.stats.restarts += 1;
                self.stats.overhead_cycles += self.config.restore_cost_cycles;
                sys.restart_program(pipe)?;
            }
        }
        Ok(())
    }

    /// Mutates a pipeline's committed checkpoint payload in place
    /// (fault-injection ground truth: models the store rotting between
    /// commit and recovery). The recorded commit-time digest is left
    /// untouched — that is the point. Returns whether a slot existed.
    pub fn corrupt_slot_with(&mut self, pipe: usize, corrupt: impl FnOnce(&mut C)) -> bool {
        match self.slots.get_mut(pipe).and_then(Option::as_mut) {
            Some(slot) => {
                corrupt(&mut slot.state);
                true
            }
            None => false,
        }
    }

    /// Drops a pipeline's committed checkpoint (e.g. when its epoch was
    /// found corrupted before commit).
    pub fn invalidate(&mut self, pipe: usize) {
        if let Some(slot) = self.slots.get_mut(pipe) {
            *slot = None;
        }
    }

    /// Whether a pipeline has a committed checkpoint.
    #[must_use]
    pub fn has_checkpoint(&self, pipe: usize) -> bool {
        self.slots.get(pipe).is_some_and(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetlistSubstrate, NetlistSubstrateConfig};
    use r2d3_isa::kernels::gemv;
    use r2d3_pipeline_sim::{System3d, SystemConfig};

    fn loaded_system() -> System3d {
        let cfg = SystemConfig { pipelines: 2, ..Default::default() };
        let mut sys = System3d::new(&cfg);
        for p in 0..2 {
            sys.load_program(p, gemv(32, 32, p as u64 + 1).program().clone()).unwrap();
        }
        sys
    }

    #[test]
    fn rollback_restores_committed_state() {
        let mut sys = loaded_system();
        let mut mgr = CheckpointManager::new(CheckpointConfig::default(), 2);

        sys.run(5_000).unwrap();
        let retired_at_commit = sys.pipeline(0).unwrap().retired();
        mgr.commit_all(&sys).unwrap();

        sys.run(5_000).unwrap();
        let retired_later = sys.pipeline(0).unwrap().retired();
        assert!(retired_later > retired_at_commit);

        mgr.recover(&mut sys, 0).unwrap();
        assert_eq!(sys.pipeline(0).unwrap().retired(), retired_at_commit);
        assert_eq!(mgr.stats().restores, 1);
        assert_eq!(mgr.stats().lost_instructions, retired_later - retired_at_commit);
        // Physical time is not rewound.
        assert!(sys.pipeline(0).unwrap().cycles() >= 10_000);
    }

    #[test]
    fn recover_without_checkpoint_restarts() {
        let mut sys = loaded_system();
        let mut mgr = CheckpointManager::new(CheckpointConfig::default(), 2);
        sys.run(5_000).unwrap();
        let retired = sys.pipeline(1).unwrap().retired();
        mgr.recover(&mut sys, 1).unwrap();
        assert_eq!(sys.pipeline(1).unwrap().retired(), 0);
        assert_eq!(mgr.stats().restarts, 1);
        assert_eq!(mgr.stats().lost_instructions, retired);
    }

    #[test]
    fn resumed_run_finishes_correctly() {
        let kernel = gemv(32, 32, 1);
        let mut sys = loaded_system();
        let mut mgr = CheckpointManager::new(CheckpointConfig::default(), 2);
        sys.run(4_000).unwrap();
        mgr.commit_all(&sys).unwrap();
        sys.run(4_000).unwrap();
        mgr.recover(&mut sys, 0).unwrap();
        sys.run(400_000).unwrap();
        let p = sys.pipeline(0).unwrap();
        assert!(p.halted());
        assert!(kernel.verify(p.memory()), "post-rollback execution must be correct");
    }

    #[test]
    fn commit_epochs_follow_interval() {
        let mgr: CheckpointManager = CheckpointManager::new(
            CheckpointConfig { interval_epochs: 3, ..Default::default() },
            1,
        );
        assert!(mgr.is_commit_epoch(0));
        assert!(!mgr.is_commit_epoch(1));
        assert!(mgr.is_commit_epoch(3));
    }

    #[test]
    fn corrupted_slot_is_detected_invalidated_and_surfaced() {
        let mut sys = loaded_system();
        let mut mgr = CheckpointManager::new(CheckpointConfig::default(), 2);
        sys.run(5_000).unwrap();
        mgr.commit_all(&sys).unwrap();
        assert!(mgr.corrupt_slot_with(0, |cp| cp.corrupt_bit(7)));

        let err = mgr.recover(&mut sys, 0).unwrap_err();
        match err {
            EngineError::CorruptCheckpoint { pipe, expected, found } => {
                assert_eq!(pipe, 0);
                assert_ne!(expected, found);
            }
            other => panic!("expected CorruptCheckpoint, got {other}"),
        }
        assert_eq!(mgr.stats().corruptions_detected, 1);
        assert_eq!(mgr.stats().restores, 0);
        assert!(!mgr.has_checkpoint(0), "failed slot must be invalidated");

        // Retrying the recovery now falls back to a program restart.
        mgr.recover(&mut sys, 0).unwrap();
        assert_eq!(mgr.stats().restarts, 1);
        assert_eq!(sys.pipeline(0).unwrap().retired(), 0);
    }

    #[test]
    fn disabled_verification_restores_poison_and_counts_it() {
        let mut sys = loaded_system();
        let config = CheckpointConfig { verify_integrity: false, ..Default::default() };
        let mut mgr = CheckpointManager::new(config, 2);
        sys.run(5_000).unwrap();
        mgr.commit_all(&sys).unwrap();
        assert!(mgr.corrupt_slot_with(0, |cp| cp.corrupt_bit(7)));

        mgr.recover(&mut sys, 0).unwrap();
        assert_eq!(mgr.stats().poisoned_restores, 1);
        assert_eq!(mgr.stats().corruptions_detected, 0);
        assert_eq!(mgr.stats().restores, 1);
    }

    #[test]
    fn clean_slot_passes_verification() {
        let mut sys = loaded_system();
        let mut mgr = CheckpointManager::new(CheckpointConfig::default(), 2);
        sys.run(5_000).unwrap();
        mgr.commit_all(&sys).unwrap();
        sys.run(5_000).unwrap();
        mgr.recover(&mut sys, 0).unwrap();
        assert_eq!(mgr.stats().restores, 1);
        assert_eq!(mgr.stats().corruptions_detected, 0);
        assert_eq!(mgr.stats().poisoned_restores, 0);
    }

    /// Every seed's one-bit rot of `cp` must move its digest: the
    /// integrity check sees nothing else.
    fn assert_rot_always_changes_digest<S: ReliabilitySubstrate>(
        cp: &S::Checkpoint,
        seeds: impl IntoIterator<Item = u64>,
    ) {
        let clean = S::checkpoint_digest(cp);
        for seed in seeds {
            let mut rotted = cp.clone();
            S::corrupt_checkpoint(&mut rotted, seed);
            assert_ne!(S::checkpoint_digest(&rotted), clean, "seed {seed:#x} left the digest");
        }
    }

    #[test]
    fn corrupting_any_payload_word_changes_the_digest() {
        // Behavioral: the seed's low half picks the payload word (pc, the
        // 32 registers, then memory) and its high half the bit. Every
        // word is hit, pc and registers at every bit.
        let mut sys = loaded_system();
        sys.run(5_000).unwrap();
        let cp = sys.checkpoint_pipeline(0).unwrap();
        let words = 1 + 32 + sys.pipeline(0).unwrap().memory().len() as u64;
        let every_word = (0..words).map(|w| w | ((w * 7 % 32) << 32));
        let every_bit = (0..33).flat_map(|w| (0..32).map(move |bit| w | (bit << 32)));
        assert_rot_always_changes_digest::<System3d>(&cp, every_word.chain(every_bit));

        // Gate level: the seed picks one of the 16 low stream-position
        // bits, the only ones rot flips.
        let mut sub = NetlistSubstrate::new(&NetlistSubstrateConfig {
            layers: 2,
            pipelines: 1,
            trace_capacity: 64,
            ..Default::default()
        });
        sub.run(2_000).unwrap();
        let cp = sub.checkpoint_pipeline(0).unwrap();
        assert_rot_always_changes_digest::<NetlistSubstrate>(&cp, 0..16);
    }

    #[test]
    fn invalidate_clears_slot() {
        let mut sys = loaded_system();
        let mut mgr = CheckpointManager::new(CheckpointConfig::default(), 2);
        sys.run(1_000).unwrap();
        mgr.commit_all(&sys).unwrap();
        assert!(mgr.has_checkpoint(0));
        mgr.invalidate(0);
        assert!(!mgr.has_checkpoint(0));
        assert!(mgr.has_checkpoint(1));
    }
}
