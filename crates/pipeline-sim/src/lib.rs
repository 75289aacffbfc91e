#![warn(missing_docs)]

//! Cycle-approximate simulator for the paper's 8-core 3D system.
//!
//! The paper evaluates R2D3 on gem5 with eight single-issue in-order
//! cores (Table II). This crate is the substitute: a timing-annotated
//! multicore simulator whose *logical pipelines* are assembled from
//! *physical stages* (unit × layer) through a reconfigurable crossbar
//! [`fabric::Fabric`] — the substrate the R2D3 engine detects on,
//! diagnoses on, repairs and reschedules.
//!
//! What the reproduction needs from this simulator:
//!
//! * architectural correctness — a fault-free run retires exactly the
//!   state the [`r2d3_isa::Interp`] golden model produces (tested),
//! * timing — per-workload IPC with the paper's cache geometry,
//! * per-physical-stage *activity factors* — the utilization signal that
//!   drives power, temperature and NBTI aging,
//! * stage I/O traces — the inputs/outputs the R2D3 checkers compare
//!   when a leftover stage re-executes a DUT stage's work,
//! * behavioral fault injection — stuck-at output corruption on any
//!   physical stage (permanent) or one-shot flips (transient).
//!
//! # Example
//!
//! ```
//! use r2d3_pipeline_sim::{System3d, SystemConfig};
//! use r2d3_isa::kernels::gemv;
//!
//! # fn main() -> Result<(), r2d3_pipeline_sim::SimError> {
//! let mut sys = System3d::new(&SystemConfig::default());
//! let kernel = gemv(8, 8, 1);
//! sys.load_program(0, kernel.program().clone())?;
//! sys.run(50_000)?;
//! assert!(sys.pipeline(0).unwrap().halted());
//! assert!(kernel.verify(sys.pipeline(0).unwrap().memory()));
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod fabric;
pub mod pipeline;
pub mod predictor;
pub mod stage;
pub mod stats;
pub mod system;
pub mod trace;

pub use cache::{Cache, CacheConfig, MemoryHierarchy};
pub use fabric::{Fabric, LinkFault};
pub use pipeline::{LogicalPipeline, PipelineCheckpoint};
pub use predictor::BranchPredictor;
pub use stage::{FaultEffect, StageHealth, StageId};
pub use stats::ActivityStats;
pub use system::{System3d, SystemConfig};
pub use trace::{StageRecord, TraceRing};

use std::fmt;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A pipeline index was out of range.
    UnknownPipeline(usize),
    /// A stage reference was outside the stack.
    UnknownStage(StageId),
    /// The fabric maps a logical slot to a stage that is not healthy or
    /// is already claimed by another pipeline.
    InvalidFabric(String),
    /// Underlying ISA-level failure (bad program, out-of-range access on
    /// a *fault-free* pipeline, …).
    Isa(r2d3_isa::IsaError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownPipeline(p) => write!(f, "pipeline {p} out of range"),
            SimError::UnknownStage(s) => write!(f, "stage {s} outside the stack"),
            SimError::InvalidFabric(msg) => write!(f, "invalid fabric configuration: {msg}"),
            SimError::Isa(e) => write!(f, "ISA error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<r2d3_isa::IsaError> for SimError {
    fn from(e: r2d3_isa::IsaError) -> Self {
        SimError::Isa(e)
    }
}
