#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! Gate-level netlist substrate for the R2D3 reproduction.
//!
//! The paper's fault-coverage study (Fig. 4) runs Synopsys TetraMAX ATPG
//! over the synthesized OpenSPARC T1 netlist with the industry-standard
//! stuck-at fault model. We do not have that netlist or tool, so this crate
//! provides the substitute substrate:
//!
//! * a simple combinational gate-level netlist representation
//!   ([`Netlist`], [`Gate`], [`NetId`]) with 64-way bit-parallel evaluation
//!   (64 test patterns per simulation pass),
//! * builder combinators for realistic datapath structures
//!   ([`builder::NetlistBuilder`]: adders, barrel shifters, comparators,
//!   multipliers, priority encoders, muxes),
//! * structural generators for the five OpenSPARC pipeline units
//!   ([`stages`]), sized proportionally to the paper's Table III silicon
//!   areas, with a known set of *redundant* (provably untestable) logic so
//!   the ATPG campaign has exact ground truth for the "undetectable" class,
//! * stage composition ([`compose_chain`]) used to model *core-level*
//!   observability (fault effects must propagate through all downstream
//!   stages before they can be seen),
//! * a validated IR layer ([`ir`]) with a structural validator, a
//!   deterministic text format, level analysis, and a fixed-order rewrite
//!   pipeline (constant folding, buf/inv cleanup, normalization,
//!   chain→tree rebalancing),
//! * a Yosys-JSON importer ([`yosys_json`]) that maps real synthesized
//!   combinational cores onto this substrate,
//! * the workspace's one JSON reader ([`json`]), shared with the engine's
//!   snapshot, wire and telemetry decoders.
//!
//! # Example
//!
//! ```
//! use r2d3_netlist::builder::NetlistBuilder;
//!
//! // A 4-bit adder: sum = a + b.
//! let mut b = NetlistBuilder::new();
//! let a = b.inputs(4);
//! let bb = b.inputs(4);
//! let zero = b.constant(false);
//! let (sum, _carry) = b.ripple_adder(&a, &bb, zero);
//! b.outputs(&sum);
//! let netlist = b.finish();
//!
//! // Evaluate 3 + 5 (patterns are bit-parallel; lane 0 here).
//! let out = netlist.eval(&[1, 1, 0, 0, 1, 0, 1, 0]);
//! let value = out.iter().enumerate().fold(0u64, |acc, (i, bit)| acc | ((bit & 1) << i));
//! assert_eq!(value, 8);
//! ```

pub mod builder;
pub mod ir;
pub mod json;
pub mod netlist;
pub mod sim;
pub mod stages;
pub mod yosys_json;

pub use builder::NetlistBuilder;
pub use ir::{
    analyze_levels, rewrite, text_emit, text_parse, IrError, LevelMap, PassManager, RewriteOutcome,
    RewriteStats, MAX_TEXT_NETS,
};
pub use netlist::{
    compose_chain, compose_chain_with, ComposeOptions, Gate, GateKind, NetId, Netlist,
};
pub use sim::{pack_blocks, FaultSim, SimBlock, SimScratch, SimdKernel};
pub use stages::{stage_netlist, StageNetlist, StageSizing};
pub use yosys_json::{parse_yosys_json, ImportedCore, YosysJsonError};

use std::fmt;

/// Errors raised while composing netlists; structural violations are
/// [`IrError`]s from [`ir::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// Chain composition was asked to join an empty list.
    EmptyChain,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::EmptyChain => write!(f, "cannot compose an empty stage chain"),
        }
    }
}

impl std::error::Error for NetlistError {}
