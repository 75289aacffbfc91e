#![warn(missing_docs)]

//! # R2D3 — Reliability by Reconfiguring 3D systems
//!
//! This crate is the paper's primary contribution: a holistic, aging-aware
//! reliability engine for vertically-stacked parallel processors that
//! concurrently provides the four features of reliability at runtime:
//!
//! 1. **Detection** ([`detect`]) — epoch-based concurrent re-execution of
//!    DUT stages on *leftover* stages, compared by inter-stage checkers.
//! 2. **Diagnosis** ([`engine`]) — single-replay TMR that distinguishes
//!    transient from permanent faults and localizes the faulty stage.
//! 3. **Repair** ([`repair`]) — crossbar reconfiguration that re-forms
//!    logical pipelines from the remaining healthy stages.
//! 4. **Prevention** ([`policy`], [`lifetime`]) — the R2D3-Lite
//!    (round-robin) and R2D3-Pro (activity-factor, Eq. 1–2) scheduling
//!    policies that balance NBTI wearout across the stack.
//!
//! The cycle-level engine ([`engine::R2d3Engine`]) drives a
//! [`r2d3_pipeline_sim::System3d`]; the coarse-timescale lifetime
//! co-simulation ([`lifetime::LifetimeSim`]) couples the policies with
//! the thermal solver and NBTI model to reproduce the paper's 8-year
//! evaluation (Figs. 5 and 6).
//!
//! Every engine action is observable through the [`telemetry`] module:
//! a sink injected at construction receives cycle-stamped structured
//! events, and [`engine::R2d3Engine::metrics`] returns a serializable
//! [`telemetry::MetricsSnapshot`] of counters and latency histograms.
//!
//! # Example: detect, diagnose and repair an injected fault
//!
//! ```
//! use r2d3_core::engine::R2d3Engine;
//! use r2d3_core::telemetry::RingSink;
//! use r2d3_pipeline_sim::{System3d, SystemConfig, StageId, FaultEffect};
//! use r2d3_isa::{kernels::gemv, Unit};
//!
//! # fn main() -> Result<(), r2d3_core::EngineError> {
//! let sys_config = SystemConfig { pipelines: 6, ..Default::default() };
//! let mut sys = System3d::new(&sys_config);
//! let kernel = gemv(16, 16, 1);
//! for p in 0..6 {
//!     sys.load_program(p, kernel.program().clone())?;
//! }
//! let mut engine = R2d3Engine::builder().telemetry(RingSink::new()).build()?;
//!
//! // A permanent stuck-at defect appears in pipeline 2's EXU.
//! sys.inject_fault(StageId::new(2, Unit::Exu), FaultEffect { bit: 0, stuck: true })?;
//!
//! // Epochs run until the engine has detected, diagnosed and repaired it.
//! for _ in 0..64 {
//!     engine.run_epoch(&mut sys)?;
//!     if engine.is_believed_faulty(StageId::new(2, Unit::Exu)) {
//!         break;
//!     }
//! }
//! let metrics = engine.metrics();
//! assert!(metrics.believed_faulty.contains(&StageId::new(2, Unit::Exu)));
//! assert_eq!(metrics.permanents_diagnosed, 1);
//! // The repaired fabric no longer routes anything through the bad stage.
//! assert!(sys.fabric().complete_pipelines() >= 5);
//! // Every step of the loop was recorded, cycle-stamped, in the sink.
//! assert!(!engine.telemetry().is_empty());
//! # Ok(())
//! # }
//! ```

pub mod activity;
pub mod api;
pub mod campaign;
pub mod chaos;
pub mod checker;
pub mod checkpoint;
pub mod config;
pub mod detect;
pub mod engine;
pub mod history;
pub mod lifetime;
pub mod policy;
mod pool;
pub mod repair;
pub mod report;
pub mod serve;
pub mod snapshot;
pub mod soft_error;
pub mod substrate;
pub mod telemetry;

pub use config::R2d3Config;
pub use engine::{EngineBuilder, EngineEvent, R2d3Engine};
pub use history::{EscalationConfig, SymptomHistory};
pub use lifetime::{LifetimeOutcome, LifetimeRunState, LifetimeSim};
pub use policy::PolicyKind;
pub use snapshot::SnapshotError;
pub use substrate::{
    GateFault, NetlistCheckpoint, NetlistSubstrate, NetlistSubstrateConfig, ReliabilitySubstrate,
};
pub use telemetry::{MetricsSnapshot, NullSink, RingSink, TelemetrySink};

use std::fmt;

/// Errors raised by the R2D3 engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// Underlying simulator failure.
    Sim(r2d3_pipeline_sim::SimError),
    /// Thermal solver failure inside the lifetime simulation.
    Thermal(r2d3_thermal::ThermalError),
    /// Configuration rejected.
    InvalidConfig(String),
    /// Substrate-specific failure (e.g. a gate-level fault referencing a
    /// net that does not exist in the stage netlist).
    Substrate(String),
    /// A committed checkpoint failed its payload digest check at
    /// recovery time; the slot has been invalidated and the pipeline
    /// must be recovered some other way (typically a program restart).
    CorruptCheckpoint {
        /// Pipeline whose slot failed verification.
        pipe: usize,
        /// Digest recorded when the checkpoint was committed.
        expected: u64,
        /// Digest of the payload as found at recovery.
        found: u64,
    },
    /// A durable-run snapshot could not be written or restored.
    Snapshot(SnapshotError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "simulator error: {e}"),
            EngineError::Thermal(e) => write!(f, "thermal error: {e}"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Substrate(msg) => write!(f, "substrate error: {msg}"),
            EngineError::CorruptCheckpoint { pipe, expected, found } => write!(
                f,
                "checkpoint for pipeline {pipe} is corrupt \
                 (digest {found:#018x}, committed as {expected:#018x})"
            ),
            EngineError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Sim(e) => Some(e),
            EngineError::Thermal(e) => Some(e),
            EngineError::Snapshot(e) => Some(e),
            EngineError::InvalidConfig(_)
            | EngineError::Substrate(_)
            | EngineError::CorruptCheckpoint { .. } => None,
        }
    }
}

impl From<r2d3_pipeline_sim::SimError> for EngineError {
    fn from(e: r2d3_pipeline_sim::SimError) -> Self {
        EngineError::Sim(e)
    }
}

impl From<r2d3_thermal::ThermalError> for EngineError {
    fn from(e: r2d3_thermal::ThermalError) -> Self {
        EngineError::Thermal(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}
