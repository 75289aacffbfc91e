//! CI bench smoke: a reduced-budget version of the `perf` harness's two
//! hard performance gates, exiting nonzero (panicking) on violation.
//!
//! - **Campaign**: the incremental collapsed/SIMD engine must classify
//!   every fault identically to the full-re-evaluation oracle (counts,
//!   statuses, applied patterns) and must not regress below a
//!   conservative speedup floor on the reduced budget. The identity
//!   check also runs on the composed core-level chain, at reduced
//!   sizing and a budget that ends in a partial lane group.
//! - **Lifetime**: the replica-parallel Monte-Carlo must produce a
//!   bit-identical averaged series at 1 and 2 worker threads (each
//!   replica has its own seed and thermal warm start, and replicas are
//!   averaged in order).
//!
//! Thresholds here are deliberately loose relative to `BENCH_perf.json`
//! (shared CI hosts are noisy); the full harness records the honest
//! numbers.

use r2d3_atpg::campaign::{run_campaign, run_campaign_reference, CampaignConfig};
use r2d3_atpg::fault::all_faults;
use r2d3_core::lifetime::{LifetimeConfig, LifetimeSim};
use r2d3_core::policy::PolicyKind;
use r2d3_isa::kernels::KernelKind;
use r2d3_isa::Unit;
use r2d3_netlist::stages::{all_stage_netlists, stage_netlist, StageSizing};
use r2d3_netlist::{compose_chain_with, ComposeOptions, FaultSim};
use r2d3_thermal::GridConfig;
use std::time::Instant;

/// Minimum incremental-vs-reference speedup tolerated in CI. The full
/// bench targets far higher; this floor only catches real regressions
/// (an incremental path slower than ~1.5x the oracle is broken).
const MIN_CAMPAIGN_SPEEDUP: f64 = 1.5;

fn time<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out.expect("runs >= 1"), best)
}

fn campaign_smoke() {
    let sn = stage_netlist(Unit::Exu, &StageSizing::default());
    let nl = sn.netlist();
    // Full uncollapsed universe: `run_campaign` collapses internally,
    // the reference simulates every fault, and the status comparison
    // below is the `counts_identical` CI gate.
    let faults = all_faults(nl);
    // Reduced pattern budget: enough blocks for the incremental engine's
    // early exits to matter, small enough for CI.
    let cfg = CampaignConfig { max_patterns: 1024, seed: 1, threads: 1 };

    let (inc, inc_secs) = time(3, || run_campaign(nl, &faults, &cfg));
    let (reference, ref_secs) = time(1, || run_campaign_reference(nl, &faults, &cfg));

    assert_eq!(
        inc.statuses(),
        reference.statuses(),
        "bench smoke: incremental statuses differ from reference (counts_identical=false)"
    );
    assert_eq!(
        inc.patterns_applied(),
        reference.patterns_applied(),
        "bench smoke: applied-pattern counts differ"
    );
    let speedup = ref_secs / inc_secs;
    println!(
        "bench smoke campaign: {} faults, kernel {}, incremental {inc_secs:.3}s, \
         reference {ref_secs:.3}s, {speedup:.2}x",
        faults.len(),
        FaultSim::new(nl).kernel().name(),
    );
    assert!(
        speedup >= MIN_CAMPAIGN_SPEEDUP,
        "bench smoke: incremental path regressed — {speedup:.2}x < {MIN_CAMPAIGN_SPEEDUP}x floor"
    );
}

/// Identity gate on the composed core-level chain, whose fanout-free
/// regions are deep enough that most faults share a stem walk: reduced
/// sizing, and a budget of 33 blocks, which ends in a partial lane group.
fn chain_identity_smoke() {
    let sizing = StageSizing { gates_per_mm2: 4_000.0, ..Default::default() };
    let stages = all_stage_netlists(&sizing);
    let netlists: Vec<_> = stages.iter().map(|s| s.netlist()).collect();
    let (chain, _) =
        compose_chain_with(&netlists, &ComposeOptions::core_level()).expect("five stages compose");
    let faults = all_faults(&chain);
    let cfg = CampaignConfig { max_patterns: 2_112, seed: 1, threads: 1 };
    let inc = run_campaign(&chain, &faults, &cfg);
    let reference = run_campaign_reference(&chain, &faults, &cfg);
    assert_eq!(
        inc.statuses(),
        reference.statuses(),
        "bench smoke: core-level chain statuses differ from reference"
    );
    assert_eq!(
        inc.patterns_applied(),
        reference.patterns_applied(),
        "bench smoke: core-level chain applied-pattern counts differ"
    );
    println!(
        "bench smoke chain: {} faults over {} gates, {} undetected after {} patterns, \
         statuses identical",
        faults.len(),
        chain.num_gates(),
        inc.counts().1,
        inc.patterns_applied()
    );
}

fn lifetime_smoke() {
    let mk = |threads: usize| LifetimeConfig {
        months: 12,
        replicas: 4,
        threads,
        mttf_trials: 50,
        grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
        ..LifetimeConfig::new(
            PolicyKind::Pro,
            KernelKind::Gemm.core_demand_fraction(),
            KernelKind::Gemm.activity_weight(),
        )
    };
    let (serial, serial_secs) = time(1, || LifetimeSim::new(mk(1)).run().expect("serial run"));
    let (par, par_secs) = time(1, || LifetimeSim::new(mk(2)).run().expect("2-thread run"));
    assert_eq!(
        serial.series, par.series,
        "bench smoke: lifetime series not bit-identical across thread counts"
    );
    println!(
        "bench smoke lifetime: serial {serial_secs:.3}s, 2 threads {par_secs:.3}s, \
         series bit-identical"
    );
}

fn main() {
    campaign_smoke();
    chain_identity_smoke();
    lifetime_smoke();
    println!("bench smoke OK");
}
