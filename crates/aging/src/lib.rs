#![warn(missing_docs)]

//! Wearout models for the R2D3 reproduction.
//!
//! The paper evaluates lifetime with an NBTI-based ΔVth model plus a
//! divide-and-conquer Monte-Carlo MTTF methodology (JEP122, \[28\] in the
//! paper). This crate provides the corresponding models:
//!
//! * [`nbti`] — long-term negative-bias-temperature-instability ΔVth
//!   accumulation with equivalent-stress-time bookkeeping, duty-cycle
//!   stress scaling, Arrhenius temperature acceleration, and partial
//!   recovery during idle periods (the effect R2D3's rotation policies
//!   exploit),
//! * [`em`] — Black's-equation electromigration MTTF (a secondary
//!   mechanism, used in an ablation),
//! * [`mttf`] — Monte-Carlo system MTTF: per-stage failure times sampled
//!   from aging-dependent hazard rates, walked against a caller-supplied
//!   system-alive predicate (pipeline formability in `r2d3-core`),
//! * [`delay`] — alpha-power-law frequency degradation as a function of
//!   ΔVth.
//!
//! # Example
//!
//! ```
//! use r2d3_aging::nbti::{NbtiModel, NbtiState};
//!
//! let model = NbtiModel::default();
//! let mut hot = NbtiState::new();
//! let mut cool = NbtiState::new();
//! let month = 30.44 * 24.0 * 3600.0;
//! for _ in 0..96 {
//!     model.advance(&mut hot, 1.0, 130.0, month);
//!     model.advance(&mut cool, 0.75, 100.0, month);
//! }
//! assert!(cool.vth_shift() < hot.vth_shift());
//! ```

pub mod avs;
pub mod delay;
pub mod em;
pub mod jep122;
pub mod mttf;
pub mod nbti;

pub use avs::{avs_trajectory, AvsParams, AvsPoint, AvsPolicy};
pub use delay::frequency_factor;
pub use em::EmModel;
pub use jep122::{CompositeModel, CyclingModel, HciModel, OperatingPoint, TddbModel};
pub use mttf::{mttf_monte_carlo, mttf_of_draws, mttf_of_failure_times, ExpDraws, MttfConfig};
pub use nbti::{NbtiModel, NbtiParams, NbtiState};

/// Boltzmann constant in eV/K.
pub const BOLTZMANN_EV: f64 = 8.617_333e-5;

/// Seconds per (average) month, the lifetime simulation's timestep unit.
pub const SECONDS_PER_MONTH: f64 = 30.44 * 24.0 * 3600.0;

/// Converts Celsius to Kelvin.
#[must_use]
pub fn kelvin(celsius: f64) -> f64 {
    celsius + 273.15
}
