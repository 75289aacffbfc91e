//! The full ATPG flow: random-pattern phase plus deterministic cleanup.
//!
//! Commercial flows (TetraMAX in the paper) fault-simulate cheap random
//! patterns first, then spend deterministic search only on the resistant
//! tail. [`run_full_flow`] reproduces that: every fault the random
//! campaign left `Undetected` goes through PODEM, which either produces
//! a witness vector (upgrading the fault to `Detected`), proves it
//! `Undetectable`, or leaves it `Undetected` on budget exhaustion.

use crate::campaign::{run_campaign, CampaignConfig, CampaignOutcome, FaultStatus};
use crate::fault::Fault;
use crate::podem::{podem, verify_test, PodemResult};
use r2d3_netlist::Netlist;

/// Configuration of the combined flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Random-pattern phase parameters.
    pub random: CampaignConfig,
    /// PODEM backtrack budget per resistant fault.
    pub podem_backtracks: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig { random: CampaignConfig::default(), podem_backtracks: 5_000 }
    }
}

/// Statistics of the deterministic phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CleanupStats {
    /// Faults handed to PODEM.
    pub attempted: usize,
    /// Upgraded to detected (witness vector found and verified).
    pub proven_testable: usize,
    /// Proven untestable (search space exhausted).
    pub proven_untestable: usize,
    /// Budget exhausted without a verdict.
    pub aborted: usize,
}

/// Runs the random campaign followed by PODEM cleanup of the resistant
/// tail. Returns the upgraded outcome and the cleanup statistics.
///
/// Detected-by-PODEM faults get a detection latency of
/// `patterns_applied` (they would be caught by the deterministic vector
/// appended after the random set), preserving Fig. 4(c)'s bucket
/// semantics.
#[must_use]
pub fn run_full_flow(
    netlist: &Netlist,
    faults: &[Fault],
    config: &FlowConfig,
) -> (CampaignOutcome, CleanupStats) {
    let outcome = run_campaign(netlist, faults, &config.random);
    let mut statuses = outcome.statuses().to_vec();
    let mut stats = CleanupStats::default();

    for (i, fault) in faults.iter().enumerate() {
        if statuses[i] != FaultStatus::Undetected {
            continue;
        }
        stats.attempted += 1;
        match podem(netlist, *fault, config.podem_backtracks) {
            PodemResult::Test(pattern) => {
                debug_assert!(verify_test(netlist, *fault, &pattern));
                statuses[i] = FaultStatus::Detected { pattern: outcome.patterns_applied() };
                stats.proven_testable += 1;
            }
            PodemResult::Untestable => {
                statuses[i] = FaultStatus::Undetectable;
                stats.proven_untestable += 1;
            }
            PodemResult::Aborted => stats.aborted += 1,
        }
    }

    let upgraded =
        CampaignOutcome::from_raw_parts(faults.to_vec(), statuses, outcome.patterns_applied());
    (upgraded, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::collapsed_faults;
    use r2d3_netlist::stages::{stage_netlist, StageSizing};
    use r2d3_netlist::NetlistBuilder;

    #[test]
    fn cleanup_closes_the_random_resistant_tail() {
        // 24-input AND root: hopeless for 64 random patterns, trivial for
        // PODEM.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(24);
        let root = b.and_tree(&i);
        b.output(root);
        let nl = b.finish();
        let faults = crate::fault::all_faults(&nl);
        let config = FlowConfig {
            random: CampaignConfig { max_patterns: 64, seed: 1, threads: 1 },
            podem_backtracks: 5_000,
        };
        let (outcome, stats) = run_full_flow(&nl, &faults, &config);
        let (_, undetected, _) = outcome.counts();
        assert_eq!(undetected, 0, "PODEM must settle every fault of a pure AND tree");
        assert!(stats.proven_testable > 0);
        assert_eq!(stats.aborted, 0);
    }

    #[test]
    fn flow_never_downgrades_random_results() {
        let sizing = StageSizing { gates_per_mm2: 1_200.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Exu, &sizing);
        let faults = collapsed_faults(sn.netlist());
        let random = CampaignConfig { max_patterns: 512, seed: 2, threads: 2 };
        let base = run_campaign(sn.netlist(), &faults, &random);
        let (upgraded, stats) =
            run_full_flow(sn.netlist(), &faults, &FlowConfig { random, podem_backtracks: 1_000 });
        let (d0, u0, _) = base.counts();
        let (d1, u1, _) = upgraded.counts();
        assert!(d1 >= d0, "detected must not shrink");
        assert!(u1 <= u0, "undetected must not grow");
        assert_eq!(u1, stats.aborted, "every surviving Undetected must be a PODEM abort");
    }

    #[test]
    fn proven_untestable_faults_are_never_simulatable() {
        // The flow's Undetectable verdicts must be consistent with long
        // random simulation: rerun with 64× the budget and check that
        // none of them got detected.
        let sizing = StageSizing { gates_per_mm2: 800.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Tlu, &sizing);
        let faults = collapsed_faults(sn.netlist());
        let (upgraded, _) = run_full_flow(
            sn.netlist(),
            &faults,
            &FlowConfig {
                random: CampaignConfig { max_patterns: 256, seed: 3, threads: 1 },
                podem_backtracks: 20_000,
            },
        );
        let long = run_campaign(
            sn.netlist(),
            &faults,
            &CampaignConfig { max_patterns: 16_384, seed: 99, threads: 4 },
        );
        for (i, status) in upgraded.statuses().iter().enumerate() {
            if *status == FaultStatus::Undetectable {
                assert!(
                    !long.statuses()[i].is_detected(),
                    "fault {} proven untestable but detected by simulation",
                    faults[i]
                );
            }
        }
    }
}
