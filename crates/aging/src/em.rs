//! Electromigration wearout via Black's equation.
//!
//! EM is a secondary mechanism in the paper ("R2D3 can be used to
//! optimize any wearout mechanisms, we optimize our policy for NBTI-based
//! aging"); it is included here for the ablation benches. Black's
//! equation gives the median time to failure of an interconnect segment:
//!
//! ```text
//! MTTF = A · J^(−n) · exp(Ea / kB·T)
//! ```

use crate::{kelvin, BOLTZMANN_EV};

/// Black's-equation electromigration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmModel {
    /// Technology prefactor `A` (scaled so the reference condition gives
    /// `reference_mttf_hours`).
    pub reference_mttf_hours: f64,
    /// Reference temperature (°C) at which the prefactor is anchored.
    pub reference_temp_c: f64,
    /// Current-density exponent `n` (≈2 for copper).
    pub n: f64,
    /// Activation energy in eV (≈0.9 for copper interconnect).
    pub ea_ev: f64,
}

impl Default for EmModel {
    fn default() -> Self {
        EmModel {
            reference_mttf_hours: 10.0 * 365.25 * 24.0,
            reference_temp_c: 105.0,
            n: 2.0,
            ea_ev: 0.9,
        }
    }
}

impl EmModel {
    /// Median time to failure (hours) at temperature `temp_c` with a
    /// current density `j_rel` relative to the reference condition.
    ///
    /// `j_rel = 1.0` and `temp_c = reference_temp_c` yields
    /// `reference_mttf_hours`.
    #[must_use]
    pub fn mttf_hours(&self, temp_c: f64, j_rel: f64) -> f64 {
        let accel = (self.ea_ev / BOLTZMANN_EV
            * (1.0 / kelvin(temp_c) - 1.0 / kelvin(self.reference_temp_c)))
        .exp();
        self.reference_mttf_hours * j_rel.max(f64::MIN_POSITIVE).powf(-self.n) * accel
    }

    /// EM failure rate (per hour) at the given conditions, assuming an
    /// exponential approximation around the median.
    #[must_use]
    pub fn rate_per_hour(&self, temp_c: f64, j_rel: f64) -> f64 {
        1.0 / self.mttf_hours(temp_c, j_rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_condition_anchors() {
        let m = EmModel::default();
        let h = m.mttf_hours(m.reference_temp_c, 1.0);
        assert!((h - m.reference_mttf_hours).abs() / m.reference_mttf_hours < 1e-12);
    }

    #[test]
    fn hotter_fails_sooner() {
        let m = EmModel::default();
        assert!(m.mttf_hours(140.0, 1.0) < m.mttf_hours(100.0, 1.0));
    }

    #[test]
    fn higher_current_fails_sooner() {
        let m = EmModel::default();
        assert!(m.mttf_hours(105.0, 2.0) < m.mttf_hours(105.0, 1.0));
        // n = 2: doubling J quarters the lifetime.
        let ratio = m.mttf_hours(105.0, 1.0) / m.mttf_hours(105.0, 2.0);
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rate_is_reciprocal() {
        let m = EmModel::default();
        let h = m.mttf_hours(120.0, 1.5);
        assert!((m.rate_per_hour(120.0, 1.5) - 1.0 / h).abs() < 1e-15);
    }
}
