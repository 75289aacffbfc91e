//! Delay/frequency impact of threshold-voltage degradation.
//!
//! Gate delay follows the alpha-power law `d ∝ Vdd / (Vdd − Vth)^α`;
//! as NBTI raises `Vth`, the maximum frequency a unit can sustain falls.
//! A unit whose accumulated ΔVth exhausts the timing guardband can no
//! longer meet its cycle time and is treated as failed by the lifetime
//! simulation.

/// Alpha-power-law delay model parameters (45 nm-class defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Nominal threshold voltage (V).
    pub vth0: f64,
    /// Velocity-saturation exponent α.
    pub alpha: f64,
}

impl Default for DelayParams {
    fn default() -> Self {
        DelayParams { vdd: 1.0, vth0: 0.35, alpha: 1.3 }
    }
}

/// Achievable frequency relative to nominal for a given ΔVth, under the
/// default [`DelayParams`].
///
/// Returns a factor in `(0, 1]`; ΔVth ≤ 0 returns exactly 1.0.
///
/// # Example
///
/// ```
/// let f = r2d3_aging::frequency_factor(0.05);
/// assert!(f < 1.0 && f > 0.8);
/// ```
#[must_use]
pub fn frequency_factor(vth_shift: f64) -> f64 {
    frequency_factor_with(&DelayParams::default(), vth_shift)
}

/// [`frequency_factor`] with explicit parameters.
#[must_use]
pub fn frequency_factor_with(params: &DelayParams, vth_shift: f64) -> f64 {
    if vth_shift <= 0.0 {
        return 1.0;
    }
    let headroom0 = params.vdd - params.vth0;
    let headroom = (params.vdd - params.vth0 - vth_shift).max(1e-6);
    (headroom / headroom0).powf(params.alpha).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_device_runs_at_nominal() {
        assert_eq!(frequency_factor(0.0), 1.0);
        assert_eq!(frequency_factor(-0.1), 1.0);
    }

    #[test]
    fn hundred_mv_costs_roughly_twenty_percent() {
        let f = frequency_factor(0.1);
        assert!((0.75..0.90).contains(&f), "f = {f}");
    }

    proptest! {
        #[test]
        fn monotone_decreasing(a in 0.0..0.3f64, b in 0.0..0.3f64) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(frequency_factor(hi) <= frequency_factor(lo));
        }

        #[test]
        fn bounded(v in -1.0..0.6f64) {
            let f = frequency_factor(v);
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }
}
