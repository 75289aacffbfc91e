//! Monte-Carlo system MTTF evaluation.
//!
//! Following the divide-and-conquer methodology the paper adopts from
//! \[28\], the system's mean time to failure is estimated by sampling
//! per-component failure times from their (aging-state-dependent) hazard
//! rates and asking when the system fails given those times. For R2D3 the
//! system fails when no complete logical pipeline can be formed; for a
//! NoRecon baseline, when no core has all five of its own stages alive.
//!
//! [`mttf_of_draws`] is the one sampling loop. It reads its `-ln u` values
//! from an [`ExpDraws`] stream, so systems sampled from the same seed can
//! share every draw and logarithm; [`mttf_of_failure_times`] opens a fresh
//! stream for one system. The caller names the system failure time for a
//! trial's sampled times: in closed form where the structure allows (the
//! lifetime loop uses order statistics), or by walking the failures in
//! time order against a black-box *system-alive* predicate, which is what
//! [`mttf_monte_carlo`] does.

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

/// Unit-exponential draws `-ln u` from one seed, in draw order. Values are
/// drawn only as far as a reader has needed and are kept, so every system
/// sampled from the seed reads the same values and each draw and
/// logarithm is computed once.
#[derive(Debug)]
pub struct ExpDraws {
    seed: u64,
    rng: StdRng,
    values: Vec<f64>,
}

impl ExpDraws {
    /// An empty stream on `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ExpDraws { seed, rng: StdRng::seed_from_u64(seed), values: Vec::new() }
    }

    /// The first `n` values, drawing whichever are still missing.
    fn first(&mut self, n: usize) -> &[f64] {
        while self.values.len() < n {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            self.values.push(-u.ln());
        }
        &self.values[..n]
    }
}

/// Estimates the mean time to system failure (same unit as `1/rate`)
/// from sampled component failure times.
///
/// Each trial samples component `i`'s failure time from `Exp(rates[i])`
/// by inverse-CDF, reading `draws` in index order (components with rate 0
/// never fail: their time is `INFINITY` and they read nothing), and asks
/// `system_failure` when the system fails given those times. A trial
/// whose system never fails is censored at
/// [`MttfConfig::survivor_horizon`]. Trials are summed in order, so two
/// `system_failure`s that return the same time for every trial give the
/// same estimate, bit for bit. Every estimate reads the stream from its
/// start: what other systems read before does not change it.
///
/// # Panics
///
/// Panics if `rates` is empty, `config.trials` is 0, or `draws` was not
/// opened on `config.seed`.
#[must_use]
pub fn mttf_of_draws(
    rates: &[f64],
    config: &MttfConfig,
    draws: &mut ExpDraws,
    mut system_failure: impl FnMut(&[f64]) -> f64,
) -> f64 {
    assert!(!rates.is_empty(), "need at least one component");
    assert!(config.trials > 0, "need at least one trial");
    assert_eq!(draws.seed, config.seed, "draws come from another seed");

    let failing: Vec<usize> = (0..rates.len()).filter(|&i| rates[i] > 0.0).collect();
    let exp = draws.first(config.trials * failing.len());
    let mut times = vec![f64::INFINITY; rates.len()];
    let mut total = 0.0f64;
    for trial in 0..config.trials {
        for (&i, &e) in failing.iter().zip(&exp[trial * failing.len()..]) {
            times[i] = e / rates[i];
        }
        let failure_time = system_failure(&times);
        total += if failure_time.is_infinite() { config.survivor_horizon } else { failure_time };
    }
    total / config.trials as f64
}

/// [`mttf_of_draws`] on a fresh stream opened on `config.seed`.
///
/// # Panics
///
/// Panics if `rates` is empty or `config.trials` is 0.
#[must_use]
pub fn mttf_of_failure_times(
    rates: &[f64],
    config: &MttfConfig,
    system_failure: impl FnMut(&[f64]) -> f64,
) -> f64 {
    mttf_of_draws(rates, config, &mut ExpDraws::new(config.seed), system_failure)
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
/// Samples exactly as [`mttf_of_failure_times`] and walks each trial's
/// failures in time order (a stable sort, so ties fail in index order)
/// until the predicate fails. Callers that can name the system failure
/// time in closed form should pass it to [`mttf_of_failure_times`]
/// instead; this walk is their reference.
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
    let mut events: Vec<(f64, usize)> = Vec::with_capacity(rates.len());
    mttf_of_failure_times(rates, config, |times| {
        events.clear();
        events.extend(times.iter().copied().zip(0..).filter(|(t, _)| t.is_finite()));
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        mask.fill(true);
        for &(t, i) in &events {
            mask[i] = false;
            if !alive(&mask) {
                return t;
            }
        }
        f64::INFINITY
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn closed_forms_match_the_predicate_walk_bit_for_bit() {
        // A series system fails at its first failure, a 1-of-n parallel
        // one at its last: the walk must land on exactly those times.
        let cfg = MttfConfig { trials: 500, seed: 11, ..Default::default() };
        let rates = [0.02, 0.0, 0.05, 0.01];
        let first = mttf_of_failure_times(&rates, &cfg, |t| {
            t.iter().copied().fold(f64::INFINITY, f64::min)
        });
        let walk = mttf_monte_carlo(&rates, |m| m.iter().all(|&a| a), &cfg);
        assert_eq!(first.to_bits(), walk.to_bits());
        let rates = [0.02, 0.05, 0.01];
        let last = mttf_of_failure_times(&rates, &cfg, |t| t.iter().copied().fold(0.0, f64::max));
        let walk = mttf_monte_carlo(&rates, |m| m.iter().any(|&a| a), &cfg);
        assert_eq!(last.to_bits(), walk.to_bits());
    }

    #[test]
    fn a_stream_draws_only_what_its_readers_need() {
        // Trials × components with a positive rate: a fresh stream per
        // estimate draws exactly what one estimate reads.
        let cfg = MttfConfig { trials: 30, seed: 12, ..Default::default() };
        let mut draws = ExpDraws::new(cfg.seed);
        let _ = mttf_of_draws(&[0.02, 0.0, 0.05], &cfg, &mut draws, |t| t[0]);
        assert_eq!(draws.values.len(), 30 * 2);
        let _ = mttf_of_draws(&[0.02, 0.01, 0.05, 0.0], &cfg, &mut draws, |t| t[0]);
        assert_eq!(draws.values.len(), 30 * 3);
        let _ = mttf_of_draws(&[0.02], &cfg, &mut draws, |t| t[0]);
        assert_eq!(draws.values.len(), 30 * 3, "a shorter reader draws nothing new");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = MttfConfig { trials: 500, seed: 9, ..Default::default() };
        let a = mttf_monte_carlo(&[0.02, 0.05], |m| m.iter().all(|&x| x), &cfg);
        let b = mttf_monte_carlo(&[0.02, 0.05], |m| m.iter().all(|&x| x), &cfg);
        assert_eq!(a, b);
    }
}
