//! Driver for the Fig. 5 lifetime sweeps.

use r2d3_core::lifetime::{LifetimeConfig, LifetimeOutcome, LifetimeSim};
use r2d3_core::policy::PolicyKind;
use r2d3_isa::kernels::KernelKind;
use r2d3_thermal::GridConfig;

/// One lifetime outcome per policy, in [`PolicyKind::ALL`] order.
#[derive(Debug, Clone)]
pub struct Fig5Results {
    /// Outcomes for NoRecon, Static, Lite, Pro.
    pub outcomes: Vec<LifetimeOutcome>,
}

impl Fig5Results {
    /// The outcome for one policy.
    ///
    /// # Panics
    ///
    /// Panics if the sweep did not include the policy (it always does).
    #[must_use]
    pub fn policy(&self, kind: PolicyKind) -> &LifetimeOutcome {
        self.outcomes.iter().find(|o| o.policy == kind).expect("sweep covers all policies")
    }
}

/// The default 8-year configuration used by the figure harnesses.
#[must_use]
pub fn quick_lifetime_config(policy: PolicyKind, workload: KernelKind) -> LifetimeConfig {
    LifetimeConfig {
        replicas: 8,
        mttf_trials: 300,
        grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
        ..LifetimeConfig::new(policy, workload.core_demand_fraction(), workload.activity_weight())
    }
}

/// Runs the 8-year lifetime simulation for all four policies.
///
/// # Panics
///
/// Panics if the grid's thermal response cannot be built (its
/// conductance matrix is singular; the default grid's is not).
#[must_use]
pub fn fig5_sweep(workload: KernelKind) -> Fig5Results {
    sweep_with(workload, true)
}

/// Fig. 5(a)'s pure-aging variant: stochastic hard faults disabled so the
/// ΔVth trajectories show the policies' wear management alone (a dead
/// stage stops aging, which would otherwise freeze the max-ΔVth metric —
/// the paper evaluates the degradation and failure pillars separately).
#[must_use]
pub fn fig5a_sweep(workload: KernelKind) -> Fig5Results {
    sweep_with(workload, false)
}

fn sweep_with(workload: KernelKind, faults: bool) -> Fig5Results {
    let outcomes = PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let mut cfg = quick_lifetime_config(policy, workload);
            if !faults {
                cfg.reliability.base_rate_per_month = 0.0;
                cfg.replicas = 1; // deterministic without fault sampling
            }
            LifetimeSim::new(cfg).run().expect("lifetime simulation")
        })
        .collect();
    Fig5Results { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_orders_policies_on_vth() {
        // Short horizon keeps the test fast; ordering must already hold.
        let mut results = Vec::new();
        for &policy in &PolicyKind::ALL {
            let mut cfg = quick_lifetime_config(policy, KernelKind::Gemm);
            cfg.months = 18;
            cfg.replicas = 2;
            cfg.mttf_trials = 50;
            cfg.reliability.base_rate_per_month = 0.0;
            results.push(LifetimeSim::new(cfg).run().unwrap());
        }
        let vth = |k: PolicyKind| {
            *results.iter().find(|o| o.policy == k).unwrap().series.max_vth.last().unwrap()
        };
        assert!(vth(PolicyKind::Pro) < vth(PolicyKind::Lite));
        assert!(vth(PolicyKind::Lite) < vth(PolicyKind::NoRecon));
    }
}
