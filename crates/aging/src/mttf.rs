//! System MTTF: exact for groups in series, sampled for any structure.
//!
//! Following the divide-and-conquer methodology the paper adopts from
//! \[28\], each component fails at an exponential time whose
//! (aging-state-dependent) hazard rate holds over the forward horizon,
//! and the system fails when its structure says so. For R2D3 the system
//! fails when no complete logical pipeline can be formed; for a NoRecon
//! baseline, when no core has all five of its own stages alive.
//!
//! Both structures are groups in series, each alive while at least a
//! `level` of its members survive, and [`mttf_exact`] integrates their
//! survival function. [`mttf_monte_carlo`] samples failure times and walks
//! them against a black-box *system-alive* predicate; it is the reference
//! the exact value is tested against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfConfig {
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Censoring horizon credited to a trial in which the system survives
    /// every modeled failure (e.g. an immortal redundant component).
    pub survivor_horizon: f64,
}

impl Default for MttfConfig {
    fn default() -> Self {
        MttfConfig { trials: 1000, seed: 0x4d7f, survivor_horizon: 1e9 }
    }
}

/// Step of the trapezoid rule in `s = ln t`. The k-out-of-n closed forms
/// of up to eight members agree to 1.4·10⁻¹¹ relative at 0.3, and only to
/// 2·10⁻⁸ at 0.4.
const LN_STEP: f64 = 0.3;

/// The integral stops at either end once what it leaves out is at most
/// this fraction of the sum so far, a hundredth of the step's error.
const TOLERANCE: f64 = 1e-13;

/// DP states kept on the stack; a `level` at or above this allocates them.
const STACK_STATES: usize = 16;

/// Exact mean time to failure (same unit as `1/rate`) of groups in
/// series.
///
/// Each item of `groups` lists the hazard rates of one group's members.
/// A group is alive while at least `level` of its members survive, and a
/// member of rate `λ` survives to time `t` with probability `e^(−λt)`,
/// independently of the others (rate 0 never fails). The system survives
/// to `t` with probability `R(t)`, the product over groups of
/// P(at least `level` members survive), each a Poisson-binomial tail; its
/// mean time to failure is `∫₀^∞ R(t) dt`.
///
/// The integral runs in `s = ln t`, where `R(eˢ)·eˢ` is smooth and falls
/// off at both ends, so the trapezoid rule converges faster than any
/// power of its step `h`. The grid runs through `1/Σλ`. Walking down, it
/// stops at the first node `t` where `(1 − R(t))·t` is at most 10⁻¹³ of
/// the sum: the nodes below differ by less than that from their values
/// at `R = 1`, where they sum to `h·t/(eʰ − 1) = t·(1 − h/2 + h²/12 − …)`,
/// the `[0, t]` piece with every Euler–Maclaurin end term. Walking up, it
/// stops once `R(t)` times a bound on the mean remaining life is at most
/// 10⁻¹³ of the sum (a group with fewer than `level` immortal members is
/// dead once its mortal ones are, which takes at most `Σ 1/λ` over them on
/// average).
///
/// Returns `survivor_horizon` when every group keeps at least `level`
/// members at rate 0, so the system never fails (what
/// [`mttf_monte_carlo`] credits every trial with), and 0 when a group has
/// fewer than `level` members. Allocates nothing unless `level` is 16 or
/// more.
///
/// # Panics
///
/// Panics if a rate is negative or not finite.
#[must_use]
pub fn mttf_exact<G>(groups: G, level: usize, survivor_horizon: f64) -> f64
where
    G: IntoIterator + Clone,
    G::Item: IntoIterator<Item = f64>,
{
    let mut total_rate = 0.0;
    let mut remaining = f64::INFINITY;
    for group in groups.clone() {
        let (mut members, mut immortal, mut mortal_life) = (0, 0, 0.0);
        for rate in group {
            assert!(rate.is_finite() && rate >= 0.0, "a hazard rate must be finite and >= 0");
            members += 1;
            if rate > 0.0 {
                total_rate += rate;
                mortal_life += 1.0 / rate;
            } else {
                immortal += 1;
            }
        }
        if members < level {
            return 0.0;
        }
        if immortal < level {
            remaining = f64::min(remaining, mortal_life);
        }
    }
    if remaining.is_infinite() {
        return survivor_horizon;
    }

    let mut stack = [0.0; STACK_STATES];
    let mut heap = Vec::new();
    let state = if level < STACK_STATES {
        &mut stack[..=level]
    } else {
        heap.resize(level + 1, 0.0);
        &mut heap[..]
    };
    let mut node = |t: f64| survival(groups.clone(), level, t, state);

    let growth = LN_STEP.exp();
    let anchor = 1.0 / total_rate;
    let mut sum = 0.0;
    let mut t = anchor;
    loop {
        let r = node(t);
        sum += LN_STEP * t * r;
        if (1.0 - r) * t <= TOLERANCE * sum {
            break;
        }
        t /= growth;
    }
    sum += LN_STEP * t / LN_STEP.exp_m1();
    let mut t = anchor;
    loop {
        t *= growth;
        let r = node(t);
        sum += LN_STEP * t * r;
        // A rate below about 10⁻³⁰⁵ lets `t` overflow before `R` reaches
        // 0, and the sum is then NaN; stop rather than loop on it.
        if r * remaining <= TOLERANCE * sum || t.is_infinite() {
            return sum;
        }
    }
}

/// `R(t)` of [`mttf_exact`]'s groups. `state` holds `level + 1` working
/// values: while a group's members are folded in, `state[j]` is the
/// probability that exactly `j` of them survive (`j < level`) and
/// `state[level]` that at least `level` do.
fn survival<G>(groups: G, level: usize, t: f64, state: &mut [f64]) -> f64
where
    G: IntoIterator,
    G::Item: IntoIterator<Item = f64>,
{
    let mut r = 1.0;
    for group in groups {
        state.fill(0.0);
        state[0] = 1.0;
        for rate in group {
            let p = (-rate * t).exp();
            let q = 1.0 - p;
            state[level] += state[level - 1] * p;
            for j in (1..level).rev() {
                state[j] = state[j] * q + state[j - 1] * p;
            }
            state[0] *= q;
        }
        r *= state[level];
    }
    r
}

/// Estimates the mean time to system failure (same unit as `1/rate`)
/// against a black-box system-alive predicate.
///
/// `rates[i]` is component `i`'s hazard rate (exponential approximation;
/// components with rate 0 never fail). `alive` receives the boolean alive
/// mask after each failure and must return whether the *system* is still
/// functional; it is guaranteed to be called with monotonically fewer
/// alive components.
///
/// Each trial samples component `i`'s failure time from `Exp(rates[i])`
/// by inverse-CDF, reading one uniform per component with a positive rate
/// in index order, and walks the failures in time order (a stable sort,
/// so ties fail in index order) until the predicate fails. A trial whose
/// system never fails is censored at [`MttfConfig::survivor_horizon`].
/// Trials are summed in order.
///
/// Returns the mean failure time over all trials. If the system is
/// already dead with all components alive, returns 0.
///
/// # Panics
///
/// Panics if `rates` is empty or `config.trials` is 0.
#[must_use]
pub fn mttf_monte_carlo(
    rates: &[f64],
    alive: impl Fn(&[bool]) -> bool,
    config: &MttfConfig,
) -> f64 {
    assert!(!rates.is_empty(), "need at least one component");
    assert!(config.trials > 0, "need at least one trial");

    let mut mask = vec![true; rates.len()];
    if !alive(&mask) {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events: Vec<(f64, usize)> = Vec::with_capacity(rates.len());
    let mut total = 0.0f64;
    for _ in 0..config.trials {
        events.clear();
        for (i, &rate) in rates.iter().enumerate() {
            if rate > 0.0 {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let t = -u.ln() / rate;
                if t.is_finite() {
                    events.push((t, i));
                }
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        mask.fill(true);
        let failure = events.iter().find_map(|&(t, i)| {
            mask[i] = false;
            (!alive(&mask)).then_some(t)
        });
        total += failure.unwrap_or(config.survivor_horizon);
    }
    total / config.trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: f64 = 1e9;

    /// [`mttf_exact`] over slices.
    fn exact(groups: &[&[f64]], level: usize) -> f64 {
        mttf_exact(groups.iter().map(|g| g.iter().copied()), level, HORIZON)
    }

    fn assert_close(got: f64, want: f64, what: &str) {
        let rel = (got - want).abs() / want;
        assert!(rel < 1e-9, "{what}: {got} vs closed form {want} ({rel:.1e} relative)");
    }

    #[test]
    fn series_systems_match_the_sum_of_rates() {
        // One group that needs every member, or one group per member.
        for rates in [&[0.01][..], &[0.02, 0.05], &[3e-4, 0.2, 7.0, 0.01, 0.5, 1e-3, 0.04, 2.5]] {
            let want = 1.0 / rates.iter().sum::<f64>();
            assert_close(exact(&[rates], rates.len()), want, "one group");
            let singles: Vec<&[f64]> = rates.chunks(1).collect();
            assert_close(exact(&singles, 1), want, "one group per member");
        }
    }

    #[test]
    fn five_columns_of_one_stage_are_a_series_system() {
        let columns = [[0.004], [0.011], [0.0075], [0.02], [0.0031]];
        let groups: Vec<&[f64]> = columns.iter().map(|c| &c[..]).collect();
        let want = 1.0 / columns.iter().map(|c| c[0]).sum::<f64>();
        assert_close(exact(&groups, 1), want, "five columns");
    }

    #[test]
    fn k_out_of_n_with_equal_rates_matches_its_closed_form() {
        // The j-th failure comes 1/(jλ) after the one before it, with j
        // members alive; the system outlives failures until k are left.
        for n in 1..=12 {
            for k in 1..=n {
                for rate in [1e-4, 0.0123, 3.0] {
                    let members = vec![rate; n];
                    let want: f64 = (k..=n).map(|j| 1.0 / (j as f64 * rate)).sum();
                    let got = exact(&[&members], k);
                    assert_close(got, want, &format!("{k}-of-{n} at {rate}"));
                }
            }
        }
    }

    #[test]
    fn parallel_pair_with_unequal_rates_matches_inclusion_exclusion() {
        let (a, b) = (0.01, 0.07);
        assert_close(exact(&[&[a, b]], 1), 1.0 / a + 1.0 / b - 1.0 / (a + b), "1-of-2");
    }

    #[test]
    fn immortal_groups_are_censored_at_the_horizon() {
        // Every group keeps `level` members at rate 0: never fails.
        assert_eq!(exact(&[&[0.0, 0.3], &[0.1, 0.0, 0.0]], 1), HORIZON);
        assert_eq!(exact(&[&[0.0, 0.0, 0.3], &[0.0, 0.0]], 2), HORIZON);
        assert_eq!(exact(&[&[0.0]], 1), HORIZON);
        assert_eq!(exact(&[&[0.4, 0.2]], 0), HORIZON, "level 0 never fails");
        // One group keeps fewer: the system fails when that group does.
        let one_short = exact(&[&[0.0, 0.3], &[0.1, 0.0]], 2);
        assert_close(one_short, 1.0 / 0.4, "two series pairs, one member of each immortal");
        let mortal = exact(&[&[0.0, 0.3], &[0.1, 0.2]], 1);
        assert_close(mortal, 1.0 / 0.1 + 1.0 / 0.2 - 1.0 / 0.3, "an immortal column in series");
    }

    #[test]
    fn too_few_members_have_zero_mttf() {
        assert_eq!(exact(&[&[0.1, 0.2], &[0.1]], 2), 0.0);
        assert_eq!(exact(&[&[0.1], &[]], 1), 0.0);
    }

    #[test]
    fn levels_beyond_the_stack_states_are_exact_too() {
        let members = vec![0.05; 20];
        let want: f64 = (17..=20).map(|j| 1.0 / (f64::from(j) * 0.05)).sum();
        assert_close(exact(&[&members], 17), want, "17-of-20");
    }

    #[test]
    fn single_component_matches_exponential_mean() {
        let rate = 0.01; // MTTF = 100
        let cfg = MttfConfig { trials: 20_000, seed: 1, ..Default::default() };
        let m = mttf_monte_carlo(&[rate], |mask| mask[0], &cfg);
        assert!((m - 100.0).abs() < 3.0, "measured {m}");
    }

    #[test]
    fn series_system_fails_at_first_failure() {
        // Two components in series: rate adds, MTTF = 1/(r1+r2) = 50.
        let cfg = MttfConfig { trials: 20_000, seed: 2, ..Default::default() };
        let m = mttf_monte_carlo(&[0.01, 0.01], |mask| mask.iter().all(|&a| a), &cfg);
        assert!((m - 50.0).abs() < 2.0, "measured {m}");
    }

    #[test]
    fn parallel_system_outlives_series() {
        let cfg = MttfConfig { trials: 10_000, seed: 3, ..Default::default() };
        let rates = [0.01, 0.01];
        let series = mttf_monte_carlo(&rates, |m| m.iter().all(|&a| a), &cfg);
        let parallel = mttf_monte_carlo(&rates, |m| m.iter().any(|&a| a), &cfg);
        // 1-of-2 redundancy: MTTF = 1/r1 + 1/(r1+r2) − ... = 150 for equal rates.
        assert!(parallel > series * 2.0);
        assert!((parallel - 150.0).abs() < 5.0, "measured {parallel}");
    }

    #[test]
    fn already_dead_system_has_zero_mttf() {
        let m = mttf_monte_carlo(&[0.01], |_| false, &MttfConfig::default());
        assert_eq!(m, 0.0);
    }

    #[test]
    fn zero_rate_components_never_fail() {
        // One immortal component in a 1-of-2 system: system never dies.
        let cfg = MttfConfig { trials: 100, seed: 4, ..Default::default() };
        let m = mttf_monte_carlo(&[0.0, 1.0], |mask| mask.iter().any(|&a| a), &cfg);
        assert!(m > 1e6, "immortal redundancy should dominate: {m}");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = MttfConfig { trials: 500, seed: 9, ..Default::default() };
        let a = mttf_monte_carlo(&[0.02, 0.05], |m| m.iter().all(|&x| x), &cfg);
        let b = mttf_monte_carlo(&[0.02, 0.05], |m| m.iter().all(|&x| x), &cfg);
        assert_eq!(a, b);
    }
}
