//! Adaptive voltage scaling (AVS) baselines.
//!
//! §II-B of the paper surveys voltage-based lifetime management —
//! Facelift's one-time switch and Bubblewrap's AVS — and argues they are
//! limited: "when the supply voltage increases to counteract aging, the
//! Vth degradation soon converges to that found in the guardbanded
//! case". This module models that family so the ablation bench can
//! contrast it with R2D3's reconfiguration-based prevention:
//!
//! * the NBTI rate gains a voltage-acceleration factor
//!   `exp(γ_v · (Vdd − Vdd₀))`,
//! * performance follows the alpha-power law with the *current* Vdd and
//!   accumulated ΔVth,
//! * three policies: a fixed guardbanded supply, a fully adaptive supply
//!   that cancels ΔVth each step, and Facelift's one-time switch from a
//!   slow-aging (low-Vdd) mode to a high-speed mode.

use crate::delay::DelayParams;
use crate::nbti::{NbtiModel, NbtiState};
use crate::SECONDS_PER_MONTH;

/// Voltage-management policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AvsPolicy {
    /// Fixed nominal supply; frequency degrades with ΔVth.
    Guardband,
    /// Every step, raise Vdd to fully cancel the accumulated ΔVth.
    Adaptive,
    /// Facelift: run at `low_vdd` until `switch_month`, then jump to the
    /// high-speed supply `high_vdd`.
    OneTimeSwitch {
        /// Month of the mode switch.
        switch_month: usize,
        /// Slow-aging supply (V).
        low_vdd: f64,
        /// High-speed supply (V).
        high_vdd: f64,
    },
}

/// AVS model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvsParams {
    /// Nominal supply (V).
    pub vdd0: f64,
    /// Voltage acceleration of NBTI: rate multiplies by
    /// `exp(γ_v · (Vdd − Vdd₀))`; γ_v ≈ 6–10 /V for thin oxides.
    pub gamma_v: f64,
    /// Delay model used for the performance read-out.
    pub delay: DelayParams,
}

impl Default for AvsParams {
    fn default() -> Self {
        AvsParams { vdd0: 1.0, gamma_v: 8.0, delay: DelayParams::default() }
    }
}

/// One sample of an AVS trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvsPoint {
    /// Month index.
    pub month: usize,
    /// Accumulated ΔVth (V).
    pub vth_shift: f64,
    /// Supply voltage in effect (V).
    pub vdd: f64,
    /// Achievable frequency relative to the fresh nominal design.
    pub freq_factor: f64,
}

/// Simulates `months` of constant-duty operation under an AVS policy.
///
/// Returns one [`AvsPoint`] per month. The NBTI stress each month is the
/// base model's rate scaled by the voltage-acceleration factor of the
/// supply in effect.
#[must_use]
pub fn avs_trajectory(
    nbti: &NbtiModel,
    params: &AvsParams,
    policy: AvsPolicy,
    duty: f64,
    temp_c: f64,
    months: usize,
) -> Vec<AvsPoint> {
    let mut state = NbtiState::new();
    let mut out = Vec::with_capacity(months);
    let mut vdd = match policy {
        AvsPolicy::OneTimeSwitch { low_vdd, .. } => low_vdd,
        _ => params.vdd0,
    };

    for month in 0..months {
        if let AvsPolicy::OneTimeSwitch { switch_month, high_vdd, .. } = policy {
            if month >= switch_month {
                vdd = high_vdd;
            }
        }
        if policy == AvsPolicy::Adaptive {
            // Cancel the accumulated shift: headroom restored each step.
            vdd = params.vdd0 + state.vth_shift();
        }

        // Voltage acceleration enters as an effective stress-time scale.
        let accel = (params.gamma_v * (vdd - params.vdd0)).exp();
        let dt = SECONDS_PER_MONTH * accel;
        nbti.advance(&mut state, duty, temp_c, dt);

        let freq_factor = freq_with_vdd(&params.delay, vdd, state.vth_shift())
            / freq_with_vdd(&params.delay, params.vdd0, 0.0);
        out.push(AvsPoint { month, vth_shift: state.vth_shift(), vdd, freq_factor });
    }
    out
}

/// Alpha-power frequency at an arbitrary supply.
fn freq_with_vdd(delay: &DelayParams, vdd: f64, vth_shift: f64) -> f64 {
    let headroom = (vdd - delay.vth0 - vth_shift).max(1e-6);
    headroom.powf(delay.alpha) / vdd
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: AvsPolicy) -> Vec<AvsPoint> {
        avs_trajectory(&NbtiModel::default(), &AvsParams::default(), policy, 1.0, 130.0, 96)
    }

    #[test]
    fn guardband_loses_frequency() {
        let t = run(AvsPolicy::Guardband);
        assert!((t[0].freq_factor - 1.0).abs() < 0.08, "early degradation is steep but small");
        assert!(t.last().unwrap().freq_factor < 0.95, "ΔVth must cost frequency");
        assert!(t.iter().all(|p| (p.vdd - 1.0).abs() < 1e-12));
    }

    #[test]
    fn adaptive_holds_frequency_but_ages_faster() {
        let guard = run(AvsPolicy::Guardband);
        let adaptive = run(AvsPolicy::Adaptive);
        // Performance is (approximately) sustained...
        assert!(adaptive.last().unwrap().freq_factor > guard.last().unwrap().freq_factor);
        // ...but the boosted supply accelerates degradation past the
        // guardbanded case — the paper's §II-B convergence argument.
        assert!(
            adaptive.last().unwrap().vth_shift >= guard.last().unwrap().vth_shift,
            "AVS ΔVth {:.4} should meet or exceed guardband {:.4}",
            adaptive.last().unwrap().vth_shift,
            guard.last().unwrap().vth_shift
        );
    }

    #[test]
    fn facelift_switch_changes_slope() {
        let t = run(AvsPolicy::OneTimeSwitch { switch_month: 48, low_vdd: 0.95, high_vdd: 1.05 });
        // Slow-aging mode: degradation below the guardbanded trajectory.
        let guard = run(AvsPolicy::Guardband);
        assert!(t[40].vth_shift < guard[40].vth_shift);
        // After the switch the supply jumps and aging accelerates.
        assert!((t[60].vdd - 1.05).abs() < 1e-12);
        let slope_before = t[47].vth_shift - t[40].vth_shift;
        let slope_after = t[60].vth_shift - t[53].vth_shift;
        assert!(slope_after > slope_before, "high-speed mode must age faster");
    }

    #[test]
    fn trajectories_are_monotone_in_vth() {
        for policy in [
            AvsPolicy::Guardband,
            AvsPolicy::Adaptive,
            AvsPolicy::OneTimeSwitch { switch_month: 24, low_vdd: 0.95, high_vdd: 1.05 },
        ] {
            let t = run(policy);
            for w in t.windows(2) {
                assert!(w[1].vth_shift >= w[0].vth_shift);
            }
        }
    }
}
