#![warn(missing_docs)]

//! 3D thermal modeling for the R2D3 reproduction.
//!
//! The paper uses HotSpot v6.0 in grid mode to obtain per-block
//! temperatures of the 8-layer monolithic-3D OpenSPARC stack (§IV,
//! Fig. 6). This crate implements the same abstraction HotSpot's grid
//! mode uses: the die stack is discretized into a 3D grid of thermal RC
//! cells with lateral conductances within each silicon tier, vertical
//! conductances through the inter-layer dielectric, and a heat-sink
//! boundary on one face. Block powers (unit power × activity) are spread
//! over the cells each block covers, and a steady-state (SOR) or
//! transient (backward-Euler) solve produces per-block temperatures.
//! Where many steady states of one grid are needed, [`SteadyResponse`]
//! solves the network once, exactly, for each block's unit power, and
//! every later steady state is a matrix-vector product.
//!
//! The key physical behaviour the reproduction relies on: *layers far
//! from the heat sink run hotter*, which is what makes R2D3-Pro's
//! temperature-aware activity assignment outperform round-robin
//! (R2D3-Lite).
//!
//! # Example
//!
//! ```
//! use r2d3_thermal::{Floorplan, GridConfig, PowerMap, ThermalGrid};
//! use r2d3_isa::Unit;
//!
//! # fn main() -> Result<(), r2d3_thermal::ThermalError> {
//! let fp = Floorplan::opensparc_3d(8);
//! let grid = ThermalGrid::new(&fp, &GridConfig::default());
//! let mut power = PowerMap::new(&fp);
//! for layer in 0..8 {
//!     for unit in Unit::ALL {
//!         power.add_block(layer, unit, 0.05); // 50 mW per unit
//!     }
//! }
//! let temps = grid.steady_state(&power)?;
//! // The layer farthest from the heat sink is the hottest.
//! assert!(temps.layer_avg(7) > temps.layer_avg(0));
//! # Ok(())
//! # }
//! ```

pub mod floorplan;
pub mod grid;
pub mod map;
pub mod power;
pub mod response;
pub mod solver;

pub use floorplan::{BlockId, Floorplan, Rect};
pub use grid::{GridConfig, MaterialParams, ThermalGrid};
pub use map::TemperatureField;
pub use power::PowerMap;
pub use response::SteadyResponse;
pub use solver::{CyclingProfile, SolveOutcome};

use std::fmt;

/// Errors raised by the thermal solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// The iterative solver did not converge within its iteration cap.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual (max per-cell temperature change) at the last sweep.
        residual: f64,
    },
    /// A block reference was outside the floorplan.
    UnknownBlock {
        /// Requested layer.
        layer: usize,
        /// Number of layers in the floorplan.
        layers: usize,
    },
    /// The steady-state conductance matrix is not positive definite: no
    /// heat reaches the sink, or a conductance is not finite.
    Singular {
        /// Cell whose pivot failed.
        cell: usize,
    },
    /// A warm-start field was built for a different grid.
    CellCountMismatch {
        /// Cells in this grid.
        expected: usize,
        /// Cells in the supplied field.
        got: usize,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::NoConvergence { iterations, residual } => {
                write!(f, "thermal solve did not converge after {iterations} sweeps (residual {residual:.3e})")
            }
            ThermalError::UnknownBlock { layer, layers } => {
                write!(f, "layer {layer} outside floorplan with {layers} layers")
            }
            ThermalError::Singular { cell } => {
                write!(f, "conductance matrix is singular at cell {cell} (no path to the sink)")
            }
            ThermalError::CellCountMismatch { expected, got } => {
                write!(f, "warm-start field has {got} cells, grid has {expected}")
            }
        }
    }
}

impl std::error::Error for ThermalError {}
