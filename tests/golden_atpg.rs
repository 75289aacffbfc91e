//! Golden pin of every Fig. 4 campaign outcome.
//!
//! The Fig. 4(b)/(c) harness runs one random-pattern campaign per stage
//! netlist and one over the stages composed into the core-level chain.
//! This test runs the same campaigns at the harness's default settings
//! (default sizing, seed 7, 16,384 patterns, `ComposeOptions::core_level`)
//! and folds, bit for bit, into one FNV-1a-64:
//!
//! - every fault's status, with its first detecting pattern index;
//! - each campaign's `patterns_applied`.
//!
//! It runs once serially and once at 3 threads, which takes the threaded
//! path. A fault-simulation speed-up must leave the constant alone.

use r2d3::atpg::campaign::{run_campaign, CampaignConfig, CampaignOutcome, FaultStatus};
use r2d3::atpg::fault::collapsed_faults;
use r2d3::atpg::observe::core_level_campaign_with;
use r2d3::netlist::stages::{all_stage_netlists, StageSizing};
use r2d3::netlist::ComposeOptions;

/// FNV-1a-64 of the outcomes below, computed while each fault
/// representative still walked every lane group on its own.
const GOLDEN: u64 = 0x3d83_a922_e780_3765;

/// Byte-wise FNV-1a-64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn outcome(&mut self, outcome: &CampaignOutcome) {
        self.word(outcome.statuses().len() as u64);
        for status in outcome.statuses() {
            match *status {
                FaultStatus::Detected { pattern } => {
                    self.word(0);
                    self.word(pattern as u64);
                }
                FaultStatus::Undetected => self.word(1),
                FaultStatus::Undetectable => self.word(2),
            }
        }
        self.word(outcome.patterns_applied() as u64);
    }
}

fn fig4_digest(threads: usize) -> u64 {
    let stages = all_stage_netlists(&StageSizing::default());
    let config = CampaignConfig { max_patterns: 1 << 14, seed: 7, threads };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let netlists: Vec<_> = stages.iter().map(|s| s.netlist()).collect();
    let faults: Vec<_> = netlists.iter().map(|n| collapsed_faults(n)).collect();
    for (netlist, faults) in netlists.iter().zip(&faults) {
        h.outcome(&run_campaign(netlist, faults, &config));
    }
    let core = core_level_campaign_with(&netlists, &faults, &config, &ComposeOptions::core_level())
        .expect("five stages compose");
    for outcome in &core {
        h.outcome(outcome);
    }
    h.0
}

#[test]
fn every_fig4_outcome_matches_the_golden_digest_serially() {
    let digest = fig4_digest(1);
    assert_eq!(digest, GOLDEN, "serial digest {digest:#018x}");
}

#[test]
fn every_fig4_outcome_matches_the_golden_digest_on_three_threads() {
    let digest = fig4_digest(3);
    assert_eq!(digest, GOLDEN, "3-thread digest {digest:#018x}");
}
