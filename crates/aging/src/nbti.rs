//! Long-term NBTI ΔVth model.
//!
//! The model follows the standard reaction–diffusion long-term form
//!
//! ```text
//! ΔVth(t) = A₀ · exp(−Ea / kB·T) · (α · t)^n
//! ```
//!
//! where `α` is the stress duty factor (fraction of time the unit is
//! powered and active) and `n ≈ 1/6…1/4` the diffusion exponent. Between
//! windows of different temperature/duty, the state is advanced with the
//! *equivalent stress time* method: the accumulated ΔVth is converted to
//! the stress time that would have produced it at the new conditions, the
//! new window's stress is appended, and ΔVth re-evaluated. Idle time
//! additionally grants a small fractional recovery — the effect the paper
//! exploits: "gives the units a chance to be unstressed and partially
//! recover their Vth degradation" (§III-E).
//!
//! Parameter defaults are fitted so that an always-on unit at the hottest
//! layer of the 8-layer stack accumulates ≈0.1 V over 8 years (paper
//! Fig. 5(a), NoRecon curve). The effective activation energy (0.18 eV)
//! sits in the experimentally reported NBTI range of 0.1–0.2 eV.

use crate::{kelvin, BOLTZMANN_EV};

/// NBTI model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbtiParams {
    /// Prefactor `A₀` in volts per `s^n`.
    pub a0: f64,
    /// Effective activation energy in eV.
    pub ea_ev: f64,
    /// Time exponent `n`.
    pub n: f64,
    /// Exponent `q` on the duty factor's stress-time contribution:
    /// a window adds `duty^q · Δt` of equivalent stress. `q = 1` is the
    /// classic equivalent-time model (stress strictly proportional to
    /// active time); `q > 1` captures the *superlinear* benefit of
    /// power-gated idle periods, where the full supply removal lets
    /// interface traps anneal (the partial-recovery effect the paper's
    /// rotation policies exploit). The default is calibrated against the
    /// paper's measured 31 % reduction for round-robin rotation.
    pub duty_exponent: f64,
}

impl Default for NbtiParams {
    fn default() -> Self {
        NbtiParams { a0: 0.19, ea_ev: 0.17, n: 0.2, duty_exponent: 3.0 }
    }
}

/// Accumulated NBTI damage of one device/unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NbtiState {
    vth_shift: f64,
}

impl NbtiState {
    /// Fresh (unstressed) device.
    #[must_use]
    pub fn new() -> Self {
        NbtiState::default()
    }

    /// Accumulated threshold-voltage shift in volts.
    #[must_use]
    pub fn vth_shift(&self) -> f64 {
        self.vth_shift
    }

    /// Rebuilds a state from a previously observed
    /// [`vth_shift`](NbtiState::vth_shift) value, e.g. when restoring a
    /// lifetime-simulation snapshot. The value is taken verbatim (no
    /// clamping) so a save/restore round-trip is bit-exact.
    #[must_use]
    pub fn from_vth_shift(vth_shift: f64) -> Self {
        NbtiState { vth_shift }
    }
}

/// The NBTI aging model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NbtiModel {
    /// Model parameters.
    pub params: NbtiParams,
}

impl NbtiModel {
    /// Creates a model with explicit parameters.
    #[must_use]
    pub fn new(params: NbtiParams) -> Self {
        NbtiModel { params }
    }

    /// Temperature-dependent rate coefficient `A₀·exp(−Ea/kB·T)`.
    #[must_use]
    pub fn rate(&self, temp_c: f64) -> f64 {
        self.params.a0 * (-self.params.ea_ev / (BOLTZMANN_EV * kelvin(temp_c))).exp()
    }

    /// Advances `state` over a window of `dt_seconds` during which the
    /// unit was stressed a fraction `duty` of the time at `temp_c`.
    ///
    /// `duty` is clamped to `[0, 1]`. The update is exact under constant
    /// conditions and timestep-invariant (equivalent-stress-time method).
    pub fn advance(&self, state: &mut NbtiState, duty: f64, temp_c: f64, dt_seconds: f64) {
        let duty = duty.clamp(0.0, 1.0);
        let k = self.rate(temp_c);
        let n = self.params.n;

        // Equivalent stress time at the current conditions.
        let t_eq = if state.vth_shift > 0.0 { (state.vth_shift / k).powf(1.0 / n) } else { 0.0 };
        let stressed = t_eq + duty.powf(self.params.duty_exponent) * dt_seconds;
        let vth = k * stressed.powf(n);
        // The long-term component is monotone: recovery is modeled inside
        // the duty exponent, never as rejuvenation of accumulated damage.
        state.vth_shift = vth.max(state.vth_shift);
    }

    /// Closed-form ΔVth for constant conditions (used in tests and quick
    /// estimates): `A₀·exp(−Ea/kB·T)·(α^q·t)^n`.
    #[must_use]
    pub fn vth_constant(&self, duty: f64, temp_c: f64, t_seconds: f64) -> f64 {
        let q = self.params.duty_exponent;
        self.rate(temp_c) * (duty.clamp(0.0, 1.0).powf(q) * t_seconds).powf(self.params.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SECONDS_PER_MONTH;

    const EIGHT_YEARS: f64 = 96.0 * SECONDS_PER_MONTH;

    #[test]
    fn eight_year_hot_dc_stress_near_100mv() {
        // The hottest always-on block of the unmanaged stack sits near
        // 145 °C; the paper's NoRecon curve reaches ≈0.1 V at 8 years.
        let m = NbtiModel::default();
        let v = m.vth_constant(1.0, 145.0, EIGHT_YEARS);
        assert!((0.06..0.14).contains(&v), "ΔVth {v:.3} V should be ≈0.1 V (Fig 5a)");
    }

    #[test]
    fn incremental_matches_closed_form_at_constant_conditions() {
        let m = NbtiModel::default();
        let mut s = NbtiState::new();
        for _ in 0..96 {
            m.advance(&mut s, 1.0, 120.0, SECONDS_PER_MONTH);
        }
        let closed = m.vth_constant(1.0, 120.0, EIGHT_YEARS);
        assert!(
            (s.vth_shift() - closed).abs() / closed < 1e-9,
            "equivalent-time stepping must be exact at constant conditions: {} vs {closed}",
            s.vth_shift()
        );
    }

    #[test]
    fn hotter_ages_faster() {
        let m = NbtiModel::default();
        assert!(m.vth_constant(1.0, 140.0, EIGHT_YEARS) > m.vth_constant(1.0, 100.0, EIGHT_YEARS));
    }

    #[test]
    fn lower_duty_ages_slower() {
        let m = NbtiModel::default();
        let mut busy = NbtiState::new();
        let mut rotated = NbtiState::new();
        for _ in 0..96 {
            m.advance(&mut busy, 1.0, 120.0, SECONDS_PER_MONTH);
            m.advance(&mut rotated, 0.6, 120.0, SECONDS_PER_MONTH);
        }
        assert!(rotated.vth_shift() < busy.vth_shift());
    }

    #[test]
    fn degradation_is_monotone_in_time() {
        let m = NbtiModel::default();
        let mut s = NbtiState::new();
        let mut prev = 0.0;
        for month in 0..96 {
            // Alternate hot/cool and busy/idle: ΔVth must never decrease
            // faster than the bounded recoverable component.
            let duty = if month % 2 == 0 { 1.0 } else { 0.0 };
            let temp = if month % 3 == 0 { 140.0 } else { 90.0 };
            m.advance(&mut s, duty, temp, SECONDS_PER_MONTH);
            assert!(s.vth_shift() >= prev - 1e-12, "month {month}: {prev} -> {}", s.vth_shift());
            prev = s.vth_shift();
        }
        assert!(s.vth_shift() > 0.0);
    }

    #[test]
    fn fully_idle_unit_barely_ages() {
        let m = NbtiModel::default();
        let mut s = NbtiState::new();
        for _ in 0..96 {
            m.advance(&mut s, 0.0, 120.0, SECONDS_PER_MONTH);
        }
        assert!(s.vth_shift() < 1e-6, "idle unit aged by {}", s.vth_shift());
    }

    #[test]
    fn duty_is_clamped() {
        let m = NbtiModel::default();
        let mut a = NbtiState::new();
        let mut b = NbtiState::new();
        m.advance(&mut a, 2.0, 120.0, SECONDS_PER_MONTH);
        m.advance(&mut b, 1.0, 120.0, SECONDS_PER_MONTH);
        assert_eq!(a.vth_shift(), b.vth_shift());
    }
}
