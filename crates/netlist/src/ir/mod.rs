//! Validated intermediate representation over [`Netlist`](crate::Netlist).
//!
//! The rest of the workspace treats `Netlist` as an IR with hard
//! invariants — topological gate order, single drivers, exact arities,
//! no dangling nets — but until this module existed those invariants
//! were only enforced by the builder and spot-checked with
//! `debug_assert!`s scattered through the simulator. This module makes
//! the contract explicit and machine-checkable:
//!
//! * [`validate`] — the structural validator. Single-driver, acyclic,
//!   arity-checked, no dangling nets; returns typed [`IrError`]s and
//!   never panics, so importers ([`crate::yosys_json`]) can surface
//!   malformed input as errors instead of producing a netlist that
//!   fails later in simulation.
//! * [`text_emit`] / [`text_parse`] — a deterministic, human-readable
//!   text format that round-trips exactly (`text_parse(text_emit(n)) ==
//!   n`), used as the interchange artifact between `r2d3 import` and
//!   the campaign commands.
//! * [`PassManager`] / [`rewrite`] — rewrite passes in a fixed order
//!   (constant folding, buf/inv chain cleanup, AIG-style normalization,
//!   chain→tree rebalancing) with a net-survival map so fault sites and
//!   redundancy ground truth can be carried across the rewrite.
//! * [`analyze_levels`] — the level-analysis pass whose output drives
//!   the level-major slot permutation and event-walk buckets in
//!   [`crate::sim::FaultSim`].
//!
//! # Determinism contract
//!
//! Every function here is a pure function of netlist structure: the
//! same input netlist produces a byte-identical post-rewrite netlist,
//! text emission, and level assignment on every run, platform, and
//! thread count. The campaign layers rely on this the same way they
//! rely on seed-determinism of pattern generation.

mod level;
mod passes;
mod text;
mod validate;

pub use level::{analyze_levels, LevelMap};
pub use passes::{rewrite, PassManager, RewriteOutcome, RewriteStats};
pub use text::{text_emit, text_parse};
pub use validate::validate;

use crate::netlist::{GateKind, NetId};
use std::fmt;

/// Structural IR violations, reported by [`validate`] and
/// [`text_parse`]. Each variant names the first offending site; the
/// validator never panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// A gate pin, output, or redundancy entry references a net outside
    /// `0..num_nets`.
    NetOutOfRange {
        /// The out-of-range net.
        net: NetId,
        /// The netlist's net count.
        num_nets: usize,
    },
    /// A gate's input count does not match its kind's arity.
    ArityMismatch {
        /// Index of the gate in stored order.
        gate_index: usize,
        /// The gate kind.
        kind: GateKind,
        /// `kind.arity()`.
        expected: usize,
        /// Inputs actually present.
        got: usize,
    },
    /// A net has more than one driver.
    MultipleDrivers {
        /// The multiply-driven net.
        net: NetId,
    },
    /// A gate drives a primary-input net (inputs own `0..num_inputs`).
    InputDriven {
        /// Index of the driving gate.
        gate_index: usize,
        /// The driven input net.
        net: NetId,
    },
    /// A net is read by a gate or listed as an output but has no driver
    /// and is not a primary input.
    UndrivenNet {
        /// The undriven net.
        net: NetId,
    },
    /// A net exists in the numbering but is never driven, read, or
    /// observed — the net count overstates the circuit.
    DanglingNet {
        /// The dangling net.
        net: NetId,
    },
    /// The gate graph contains a combinational cycle.
    CombinationalCycle {
        /// The output net of a gate on the cycle.
        net: NetId,
    },
    /// The graph is acyclic but the stored gate order is not a valid
    /// evaluation order (a gate reads a net driven later).
    NotTopological {
        /// Index of the gate that reads ahead.
        gate_index: usize,
        /// The net it reads before its driver runs.
        net: NetId,
    },
    /// The text format could not be parsed.
    Text {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::NetOutOfRange { net, num_nets } => {
                write!(f, "net {net} out of range (netlist has {num_nets} nets)")
            }
            IrError::ArityMismatch { gate_index, kind, expected, got } => {
                write!(f, "gate {gate_index} ({kind:?}) expects {expected} inputs, has {got}")
            }
            IrError::MultipleDrivers { net } => write!(f, "net {net} has multiple drivers"),
            IrError::InputDriven { gate_index, net } => {
                write!(f, "gate {gate_index} drives primary-input net {net}")
            }
            IrError::UndrivenNet { net } => write!(f, "net {net} is used but has no driver"),
            IrError::DanglingNet { net } => {
                write!(f, "net {net} is never driven, read, or observed")
            }
            IrError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net {net}")
            }
            IrError::NotTopological { gate_index, net } => {
                write!(f, "gate {gate_index} reads net {net} before its driver runs")
            }
            IrError::Text { line, message } => write!(f, "ir text line {line}: {message}"),
        }
    }
}

impl std::error::Error for IrError {}
