//! Activity indices (Eq. 1 and Eq. 2 of the paper).
//!
//! R2D3-Pro assigns each stage an activity index
//!
//! ```text
//! A_i = α_i / Σ_j α_j · n_workload        (Eq. 1)
//! T_sched,i = A_i · T_cal                 (Eq. 2)
//! ```
//!
//! where `α_i` is the stage's predicted activity factor — lower for
//! stages "more prone to hot spots and degradation". The paper derives
//! the `α_i` offline from steady-state temperatures of typical workloads
//! (implicitly the stage's layer position); [`pro_layer_weights`] is that
//! offline profile.

/// Eq. 1: converts predicted activity factors `α_i` into activity
/// indices `A_i` that sum to `n_workload`.
///
/// Returns an empty vector if all `α_i` are zero.
#[must_use]
pub fn activity_indices(alphas: &[f64], n_workload: f64) -> Vec<f64> {
    let total: f64 = alphas.iter().sum();
    if total <= 0.0 {
        return vec![0.0; alphas.len()];
    }
    alphas.iter().map(|a| a / total * n_workload).collect()
}

/// Eq. 2: schedule time per stage within a calibration window of
/// `t_cal` cycles. Indices above 1.0 are capped (a stage cannot serve
/// more than the whole window).
#[must_use]
pub fn schedule_times(indices: &[f64], t_cal: u64) -> Vec<u64> {
    indices.iter().map(|a| (a.clamp(0.0, 1.0) * t_cal as f64).round() as u64).collect()
}

/// Offline per-layer weights for the steady-state-temperature method the
/// paper uses ("In this work, we use the steady state temperature
/// method").
///
/// The weights are chosen to *equalize wear rates*: NBTI damage grows as
/// `ΔVth ∝ exp(−Ea/kB·T) · duty^(q·n)`, so equal wear across tiers needs
/// `duty_l ∝ exp((Ea/(q·n·kB)) · (1/T_l − 1/T_0))` — cooler (sink-near)
/// tiers carry proportionally more duty so every tier's ΔVth advances at
/// the same rate. The offline temperature profile is the steady-state
/// per-layer gradient of the loaded stack.
#[must_use]
pub fn pro_layer_weights(layers: usize) -> Vec<f64> {
    use r2d3_aging::nbti::NbtiParams;
    use r2d3_aging::{kelvin, BOLTZMANN_EV};
    // Offline steady-state layer temperatures of a loaded stack (°C).
    let profile = |l: usize| 95.0 + 5.5 * l as f64;
    let p = NbtiParams::default();
    let t0 = kelvin(profile(0));
    let exponent = p.ea_ev / (p.duty_exponent * p.n * BOLTZMANN_EV);
    (0..layers)
        .map(|l| {
            let tl = kelvin(profile(l));
            (exponent * (1.0 / tl - 1.0 / t0)).exp()
        })
        .collect()
}

/// Weighted water-filling: finds duties `d_i = min(c·w_i, 1)` with the
/// scale `c` chosen so `Σ d_i = total` (or every stage saturates). This
/// realizes Eq. 1's proportional sharing under the physical per-stage
/// duty cap.
#[must_use]
pub fn weighted_fill(weights: &[f64], total: f64) -> Vec<f64> {
    if weights.is_empty() || weights.iter().all(|&w| w <= 0.0) {
        return vec![0.0; weights.len()];
    }
    let cap_total = weights.len() as f64;
    if total >= cap_total {
        return vec![1.0; weights.len()];
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let sum_at = |c: f64| weights.iter().map(|&w| (c * w).min(1.0)).sum::<f64>();
    while sum_at(hi) < total {
        hi *= 2.0;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if sum_at(mid) < total {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    weights.iter().map(|&w| (hi * w).min(1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_sums_to_n_workload() {
        let a = activity_indices(&[1.0, 2.0, 3.0], 6.0);
        let sum: f64 = a.iter().sum();
        assert!((sum - 6.0).abs() < 1e-12);
        assert!(a[2] > a[0]);
    }

    #[test]
    fn eq1_zero_alphas() {
        assert_eq!(activity_indices(&[0.0, 0.0], 4.0), vec![0.0, 0.0]);
    }

    #[test]
    fn eq2_caps_at_window() {
        let t = schedule_times(&[0.5, 1.5, 0.0], 1000);
        assert_eq!(t, vec![500, 1000, 0]);
    }

    #[test]
    fn weighted_fill_preserves_total() {
        let d = weighted_fill(&[1.0, 0.5, 0.25], 1.5);
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.5).abs() < 1e-9, "{d:?}");
        assert!(d[0] > d[1] && d[1] > d[2]);
    }

    #[test]
    fn weighted_fill_caps_at_one() {
        let d = weighted_fill(&[10.0, 1.0], 1.5);
        assert!((d[0] - 1.0).abs() < 1e-9);
        assert!((d[1] - 0.5).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn weighted_fill_saturates_gracefully() {
        assert_eq!(weighted_fill(&[1.0, 1.0], 5.0), vec![1.0, 1.0]);
        assert_eq!(weighted_fill(&[0.0, 0.0], 1.0), vec![0.0, 0.0]);
        assert_eq!(weighted_fill(&[], 1.0), Vec::<f64>::new());
    }

    #[test]
    fn layer_weights_decay_monotonically() {
        let w = pro_layer_weights(8);
        assert_eq!(w.len(), 8);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert_eq!(w[0], 1.0);
    }
}
