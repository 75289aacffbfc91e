//! Criterion micro-benchmarks plus the machine-readable perf report.
//!
//! After the four substrate micro-benches run, this harness measures the
//! PR-level performance claims head-to-head and writes them to
//! `BENCH_perf.json` at the workspace root:
//!
//! - **Campaign**: incremental cone-restricted fault simulation
//!   ([`run_campaign`]) vs the full-re-evaluation oracle
//!   ([`run_campaign_reference`]) on the EXU stage netlist, same seed and
//!   budget, with the fault classification asserted identical.
//! - **Rewritten netlist**: the 8-stage composed pipeline chain put
//!   through the IR rewrite pipeline ([`r2d3_netlist::rewrite`]), with
//!   campaign gate-evals/s, logic depth and fault-universe size measured
//!   before and after — the rewrite must not regress fault-sim
//!   throughput.
//! - **Fault campaign**: adversarial fault-injection scenario throughput
//!   ([`r2d3_core::campaign`]) on both reliability substrates, asserted
//!   failure-free (no misdiagnosis, silent corruption or engine error).
//! - **Lifetime**: replica-parallel Monte-Carlo at 1 vs 4 threads, with
//!   the averaged [`LifetimeSeries`] asserted bit-identical.
//! - **Substrate**: the same detect → diagnose → repair scenario driven
//!   by one engine over the behavioral and gate-level substrates, with
//!   epoch throughput for both and the verdicts asserted identical.
//! - **Telemetry**: the same repair scenario with the compiled-away
//!   `NullSink` vs a recording `RingSink` — the overhead budget (<5 %
//!   target) and the metrics-identity determinism check, plus the
//!   detection-latency and replay-count histograms.
//! - **Thermal**: sweeps-to-convergence of a warm-started SOR solve vs a
//!   cold solve, for both a perturbed power map and an exact re-solve.
//!
//! [`LifetimeSeries`]: r2d3_core::lifetime::LifetimeSeries

use criterion::{criterion_group, Criterion, Throughput};
use r2d3_atpg::campaign::{run_campaign, run_campaign_reference, CampaignConfig};
use r2d3_atpg::fault::{all_faults, collapsed_faults};
use r2d3_core::engine::R2d3Engine;
use r2d3_core::lifetime::{LifetimeConfig, LifetimeSim};
use r2d3_core::policy::PolicyKind;
use r2d3_core::substrate::{NetlistSubstrate, NetlistSubstrateConfig, ReliabilitySubstrate};
use r2d3_core::R2d3Config;
use r2d3_isa::kernels::{gemm, gemv, KernelKind};
use r2d3_isa::Unit;
use r2d3_netlist::stages::{stage_netlist, StageSizing};
use r2d3_netlist::FaultSim;
use r2d3_pipeline_sim::{FaultEffect, StageId, System3d, SystemConfig};
use r2d3_thermal::{Floorplan, GridConfig, PowerMap, ThermalGrid};
use std::time::Instant;

fn pipeline_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_sim");
    let cycles = 50_000u64;
    group.throughput(Throughput::Elements(cycles * 8));
    group.bench_function("8core_gemm_cycles", |b| {
        b.iter(|| {
            let mut sys = System3d::new(&SystemConfig::default());
            for p in 0..8 {
                sys.load_program(p, gemm(16, 16, 16, p as u64 + 1).program().clone()).unwrap();
            }
            sys.run(cycles).unwrap();
            sys.aggregate_ipc()
        });
    });
    group.finish();
}

fn netlist_eval(c: &mut Criterion) {
    let sn = stage_netlist(Unit::Exu, &StageSizing::default());
    let nl = sn.netlist().clone();
    let inputs: Vec<u64> = (0..nl.num_inputs() as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
    let mut group = c.benchmark_group("netlist");
    group.throughput(Throughput::Elements(nl.num_gates() as u64 * 64));
    group.bench_function("exu_eval_64_patterns", |b| {
        b.iter(|| nl.eval(&inputs));
    });
    group.finish();
}

fn fault_sim(c: &mut Criterion) {
    let sizing = StageSizing { gates_per_mm2: 3_000.0, ..Default::default() };
    let sn = stage_netlist(Unit::Ffu, &sizing);
    let faults = collapsed_faults(sn.netlist());
    let cc = CampaignConfig { max_patterns: 256, seed: 1, threads: 1 };
    let mut group = c.benchmark_group("atpg");
    group.throughput(Throughput::Elements(faults.len() as u64));
    group.bench_function("ffu_campaign_256_patterns", |b| {
        b.iter(|| run_campaign(sn.netlist(), &faults, &cc));
    });
    group.finish();
}

fn thermal_solve(c: &mut Criterion) {
    let fp = Floorplan::opensparc_3d(8);
    let grid = ThermalGrid::new(&fp, &GridConfig { nx: 8, ny: 6, ..Default::default() });
    let mut power = PowerMap::new(&fp);
    for layer in 0..8 {
        for unit in Unit::ALL {
            power.set_block(layer, unit, 0.03);
        }
    }
    let mut group = c.benchmark_group("thermal");
    group.bench_function("steady_state_8x6x8", |b| {
        b.iter(|| grid.steady_state(&power).unwrap());
    });
    group.finish();
}

fn substrate_epoch(c: &mut Criterion) {
    let mut sub = NetlistSubstrate::new(&NetlistSubstrateConfig::default());
    let mut engine = R2d3Engine::builder().build().unwrap();
    let cycles = R2d3Config::default().t_epoch;
    let mut group = c.benchmark_group("substrate");
    group.throughput(Throughput::Elements(cycles * sub.pipeline_count() as u64));
    group.bench_function("netlist_epoch_8x6", |b| {
        b.iter(|| engine.run_epoch(&mut sub).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = pipeline_sim, netlist_eval, fault_sim, thermal_solve, substrate_epoch
}

/// Runs `f` `runs` times and returns the last result with the best
/// wall-clock time in seconds.
fn time_best<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out.expect("runs >= 1"), best)
}

fn campaign_report(json: &mut String) {
    let sn = stage_netlist(Unit::Exu, &StageSizing::default());
    let nl = sn.netlist();
    // The honest deliverable is a verdict for *every* stuck-at fault:
    // `run_campaign` collapses the universe internally and expands the
    // verdicts back, while the reference simulates each fault outright.
    // Measuring over the full universe credits the collapsing win to the
    // normalized rate below.
    let faults = all_faults(nl);
    // The default pattern budget: survivors of the first block are
    // re-simulated over up to 127 further blocks, which is where the
    // incremental engine's early exits pay off.
    let cfg = CampaignConfig { max_patterns: 8192, seed: 1, threads: 1 };
    let simd_kernel = FaultSim::new(nl).kernel().name();

    let (inc, inc_secs) = time_best(5, || run_campaign(nl, &faults, &cfg));
    let (reference, ref_secs) = time_best(2, || run_campaign_reference(nl, &faults, &cfg));

    assert_eq!(inc.counts(), reference.counts(), "incremental vs reference classification");
    assert_eq!(inc.patterns_applied(), reference.patterns_applied(), "patterns applied");
    let (detected, undetected, undetectable) = inc.counts();

    // Normalized work: the gate evaluations a full re-evaluation performs
    // for this budget. Same numerator for both engines, so the rate ratio
    // equals the wall-clock speedup.
    let blocks = inc.patterns_applied() / 64;
    let gate_evals = (nl.num_gates() * faults.len() * blocks) as f64;
    let speedup = ref_secs / inc_secs;

    println!(
        "perf campaign exu: incremental {inc_secs:.3}s, reference {ref_secs:.3}s, {speedup:.1}x"
    );
    json.push_str(&format!(
        concat!(
            "  \"campaign\": {{\n",
            "    \"netlist\": \"exu_stage\",\n",
            "    \"simd_kernel\": \"{}\",\n",
            "    \"gates\": {},\n",
            "    \"faults\": {},\n",
            "    \"patterns_applied\": {},\n",
            "    \"detected\": {},\n",
            "    \"undetected\": {},\n",
            "    \"undetectable\": {},\n",
            "    \"counts_identical\": true,\n",
            "    \"incremental_secs\": {:.6},\n",
            "    \"reference_secs\": {:.6},\n",
            "    \"incremental_gate_evals_per_sec\": {:.1},\n",
            "    \"reference_gate_evals_per_sec\": {:.1},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n"
        ),
        simd_kernel,
        nl.num_gates(),
        faults.len(),
        inc.patterns_applied(),
        detected,
        undetected,
        undetectable,
        inc_secs,
        ref_secs,
        gate_evals / inc_secs,
        gate_evals / ref_secs,
        speedup,
    ));
}

fn rewritten_netlist_report(json: &mut String) {
    use r2d3_netlist::{analyze_levels, compose_chain, rewrite, Netlist};

    // The 8-stage logical pipeline: Unit::ALL cycled, as formed by the
    // reconfiguration layer when it chains stages across layers.
    let sizing = StageSizing::default();
    let stages: Vec<Netlist> = Unit::ALL
        .iter()
        .cycle()
        .take(8)
        .map(|&u| stage_netlist(u, &sizing).netlist().clone())
        .collect();
    let refs: Vec<&Netlist> = stages.iter().collect();
    let (chain, _maps) = compose_chain(&refs).expect("compose 8-stage chain");

    let outcome = rewrite(&chain).expect("rewrite 8-stage chain");
    let rewritten = &outcome.netlist;
    let stats = &outcome.stats;
    debug_assert_eq!(stats.depth_after, analyze_levels(rewritten).depth());

    let faults_before = all_faults(&chain);
    let faults_after = all_faults(rewritten);
    let cfg = CampaignConfig { max_patterns: 8192, seed: 1, threads: 1 };

    let (before, before_secs) = time_best(3, || run_campaign(&chain, &faults_before, &cfg));
    let (after, after_secs) = time_best(3, || run_campaign(rewritten, &faults_after, &cfg));

    // Same normalization as the campaign row: gate evaluations a full
    // re-evaluation would perform for the applied budget.
    let evals = |nl: &Netlist, faults: usize, patterns: usize| {
        (nl.num_gates() * faults) as f64 * (patterns / 64) as f64
    };
    let before_rate = evals(&chain, faults_before.len(), before.patterns_applied()) / before_secs;
    let after_rate = evals(rewritten, faults_after.len(), after.patterns_applied()) / after_secs;

    // The acceptance gate: rewriting must never cost fault-sim
    // throughput on the composed chain (it should win — fewer gates,
    // fewer fault sites, shallower logic).
    assert!(
        after_rate >= before_rate,
        "rewrite regressed chain fault-sim throughput: {after_rate:.3e} < {before_rate:.3e}"
    );

    println!(
        "perf rewritten netlist: 8-stage chain {} → {} gates, depth {} → {}, \
         {:.2e} → {:.2e} gate-evals/s",
        stats.gates_before,
        stats.gates_after,
        stats.depth_before,
        stats.depth_after,
        before_rate,
        after_rate,
    );
    json.push_str(&format!(
        concat!(
            "  \"rewritten_netlist\": {{\n",
            "    \"netlist\": \"8_stage_chain\",\n",
            "    \"gates_before\": {},\n",
            "    \"gates_after\": {},\n",
            "    \"depth_before\": {},\n",
            "    \"depth_after\": {},\n",
            "    \"faults_before\": {},\n",
            "    \"faults_after\": {},\n",
            "    \"merged_duplicates\": {},\n",
            "    \"rebalanced_chains\": {},\n",
            "    \"dead_gates_removed\": {},\n",
            "    \"before_secs\": {:.6},\n",
            "    \"after_secs\": {:.6},\n",
            "    \"before_gate_evals_per_sec\": {:.1},\n",
            "    \"after_gate_evals_per_sec\": {:.1},\n",
            "    \"rewrite_speedup\": {:.2}\n",
            "  }},\n"
        ),
        stats.gates_before,
        stats.gates_after,
        stats.depth_before,
        stats.depth_after,
        faults_before.len(),
        faults_after.len(),
        stats.merged_duplicates,
        stats.rebalanced_chains,
        stats.dead_gates_removed,
        before_secs,
        after_secs,
        before_rate,
        after_rate,
        after_rate / before_rate,
    ));
}

fn lifetime_report(json: &mut String) {
    let months = 24;
    let replicas = 8;
    let mk = |threads: usize| LifetimeConfig {
        months,
        replicas,
        threads,
        mttf_trials: 100,
        grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
        ..LifetimeConfig::new(
            PolicyKind::Pro,
            KernelKind::Gemm.core_demand_fraction(),
            KernelKind::Gemm.activity_weight(),
        )
    };

    let (serial, serial_secs) =
        time_best(3, || LifetimeSim::new(mk(1)).run().expect("serial lifetime run"));
    let (par, par_secs) =
        time_best(3, || LifetimeSim::new(mk(4)).run().expect("parallel lifetime run"));
    assert_eq!(serial.series, par.series, "1-thread vs 4-thread averaged series");

    let sim_months = (months * replicas) as f64;
    let speedup = serial_secs / par_secs;
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "perf lifetime: serial {serial_secs:.3}s, 4 threads {par_secs:.3}s, \
         {speedup:.2}x on {host}-core host, series bit-identical"
    );
    json.push_str(&format!(
        concat!(
            "  \"lifetime\": {{\n",
            "    \"months\": {},\n",
            "    \"replicas\": {},\n",
            "    \"host_parallelism\": {},\n",
            "    \"serial_secs\": {:.6},\n",
            "    \"threads4_secs\": {:.6},\n",
            "    \"serial_months_per_sec\": {:.1},\n",
            "    \"threads4_months_per_sec\": {:.1},\n",
            "    \"speedup\": {:.2},\n",
            "    \"series_bit_identical\": true\n",
            "  }},\n"
        ),
        months,
        replicas,
        host,
        serial_secs,
        par_secs,
        sim_months / serial_secs,
        sim_months / par_secs,
        speedup,
    ));
}

fn fault_campaign_report(json: &mut String) {
    use r2d3_core::campaign::{run_campaign, CampaignConfig, SubstrateKind};

    // Shrinking off: it only triggers on failures, and a bench that
    // failed would abort on the assert below anyway.
    let config =
        CampaignConfig { scenarios_per_substrate: 18, shrink: false, ..Default::default() };
    let sweep = |kind| {
        let one = CampaignConfig { substrates: vec![kind], ..config.clone() };
        time_best(3, || run_campaign(&one).substrates.remove(0))
    };
    let (behav, behav_secs) = sweep(SubstrateKind::Behavioral);
    let (gate, gate_secs) = sweep(SubstrateKind::Netlist);

    let failures =
        behav.results.iter().chain(&gate.results).filter(|r| r.outcome.is_failure()).count();
    assert_eq!(failures, 0, "campaign bench sweep must be failure-free");

    let n = config.scenarios_per_substrate as f64;
    println!(
        "perf fault campaign: {} scenarios — behavioral {behav_secs:.3}s \
         ({:.1}/s), netlist {gate_secs:.3}s ({:.1}/s)",
        config.scenarios_per_substrate,
        n / behav_secs,
        n / gate_secs,
    );
    json.push_str(&format!(
        concat!(
            "  \"fault_campaign\": {{\n",
            "    \"scenarios_per_substrate\": {},\n",
            "    \"behavioral_secs\": {:.6},\n",
            "    \"netlist_secs\": {:.6},\n",
            "    \"behavioral_scenarios_per_sec\": {:.1},\n",
            "    \"netlist_scenarios_per_sec\": {:.1},\n",
            "    \"failures\": 0\n",
            "  }},\n"
        ),
        config.scenarios_per_substrate,
        behav_secs,
        gate_secs,
        n / behav_secs,
        n / gate_secs,
    ));
}

/// One engine-managed repair scenario on a substrate: injects a fault,
/// runs epochs until diagnosis (or the epoch budget), returns
/// `(epochs_run, diagnosed)`.
fn drive_scenario<S: ReliabilitySubstrate>(
    sys: &mut S,
    victim: StageId,
    max_epochs: usize,
) -> (usize, bool) {
    let mut engine = R2d3Engine::builder().build().unwrap();
    for epoch in 1..=max_epochs {
        engine.run_epoch(sys).expect("epoch");
        if engine.is_believed_faulty(victim) {
            return (epoch, true);
        }
    }
    (max_epochs, false)
}

fn substrate_report(json: &mut String) {
    let victim = StageId::new(2, Unit::Exu);
    let epochs = 8usize;
    let t_epoch = R2d3Config::default().t_epoch;

    // Behavioral backend: same detect → diagnose → repair scenario.
    let ((behav_epochs, behav_hit), behav_secs) = time_best(3, || {
        let mut sys = System3d::new(&SystemConfig { pipelines: 6, ..Default::default() });
        for p in 0..6 {
            sys.load_program(p, gemv(32, 32, 7).program().clone()).unwrap();
        }
        sys.inject_fault(victim, FaultEffect { bit: 0, stuck: true }).unwrap();
        drive_scenario(&mut sys, victim, epochs)
    });

    // Gate-level backend, one R2D3 engine over both.
    let ((gate_epochs, gate_hit), gate_secs) = time_best(3, || {
        let mut sub = NetlistSubstrate::new(&NetlistSubstrateConfig::default());
        let fault = sub.output_fault(Unit::Exu, 0, true);
        sub.inject_fault(victim, fault).unwrap();
        drive_scenario(&mut sub, victim, epochs)
    });

    assert!(behav_hit && gate_hit, "both substrates must diagnose the EXU fault");
    let behav_cycles = (behav_epochs as u64 * t_epoch) as f64;
    let gate_cycles = (gate_epochs as u64 * t_epoch) as f64;

    println!(
        "perf substrate: behavioral {behav_secs:.3}s / {behav_epochs} epochs, \
         netlist {gate_secs:.3}s / {gate_epochs} epochs to diagnosis"
    );
    json.push_str(&format!(
        concat!(
            "  \"substrate\": {{\n",
            "    \"scenario\": \"exu_l2_stuck_at_1_detect_diagnose_repair\",\n",
            "    \"t_epoch\": {},\n",
            "    \"behavioral_epochs_to_diagnosis\": {},\n",
            "    \"netlist_epochs_to_diagnosis\": {},\n",
            "    \"behavioral_secs\": {:.6},\n",
            "    \"netlist_secs\": {:.6},\n",
            "    \"behavioral_cycles_per_sec\": {:.1},\n",
            "    \"netlist_cycles_per_sec\": {:.1},\n",
            "    \"verdicts_identical\": true\n",
            "  }},\n"
        ),
        t_epoch,
        behav_epochs,
        gate_epochs,
        behav_secs,
        gate_secs,
        behav_cycles / behav_secs,
        gate_cycles / gate_secs,
    ));
}

fn telemetry_report(json: &mut String) {
    use r2d3_core::telemetry::RingSink;

    let victim = StageId::new(2, Unit::Exu);
    let epochs = 8usize;

    let make_sys = || {
        let mut sys = System3d::new(&SystemConfig { pipelines: 6, ..Default::default() });
        for p in 0..6 {
            sys.load_program(p, gemv(32, 32, 7).program().clone()).unwrap();
        }
        sys.inject_fault(victim, FaultEffect { bit: 0, stuck: true }).unwrap();
        sys
    };

    // Same scenario, compiled-away NullSink vs a recording RingSink.
    let (null_metrics, null_secs) = time_best(5, || {
        let mut sys = make_sys();
        let mut engine = R2d3Engine::builder().build().unwrap();
        for _ in 0..epochs {
            engine.run_epoch(&mut sys).unwrap();
        }
        engine.metrics()
    });
    let ((ring_metrics, events), ring_secs) = time_best(5, || {
        let mut sys = make_sys();
        let mut engine = R2d3Engine::builder().telemetry(RingSink::new()).build().unwrap();
        for _ in 0..epochs {
            engine.run_epoch(&mut sys).unwrap();
        }
        (engine.metrics(), engine.telemetry().len())
    });

    // The determinism contract, timed: recording must not perturb the
    // engine's observable behavior.
    assert_eq!(null_metrics, ring_metrics, "metrics identical with and without telemetry");
    assert!(events > 0, "the recording run must have captured events");

    let overhead_pct = 100.0 * (ring_secs - null_secs) / null_secs;
    println!(
        "perf telemetry: {epochs} epochs — NullSink {null_secs:.3}s, \
         RingSink {ring_secs:.3}s ({events} events, {overhead_pct:+.1}% overhead)"
    );
    json.push_str(&format!(
        concat!(
            "  \"telemetry\": {{\n",
            "    \"scenario\": \"exu_l2_stuck_at_1_detect_diagnose_repair\",\n",
            "    \"epochs\": {},\n",
            "    \"null_sink_secs\": {:.6},\n",
            "    \"ring_sink_secs\": {:.6},\n",
            "    \"overhead_pct\": {:.2},\n",
            "    \"events_recorded\": {},\n",
            "    \"metrics_identical\": true,\n",
            "    \"detection_latency\": {},\n",
            "    \"replay_count\": {}\n",
            "  }},\n"
        ),
        epochs,
        null_secs,
        ring_secs,
        overhead_pct,
        events,
        ring_metrics.detection_latency.to_json(),
        ring_metrics.replay_count.to_json(),
    ));
}

fn thermal_report(json: &mut String) {
    let fp = Floorplan::opensparc_3d(8);
    let grid = ThermalGrid::new(&fp, &GridConfig { nx: 8, ny: 6, ..Default::default() });
    let mut power = PowerMap::new(&fp);
    for layer in 0..8 {
        for unit in Unit::ALL {
            power.set_block(layer, unit, 0.03);
        }
    }
    let mut perturbed = PowerMap::new(&fp);
    for layer in 0..8 {
        for unit in Unit::ALL {
            perturbed.set_block(layer, unit, if layer % 2 == 0 { 0.033 } else { 0.027 });
        }
    }

    let cold = grid.steady_state_warm(&power, None).expect("cold solve");
    let perturbed_cold = grid.steady_state_warm(&perturbed, None).expect("perturbed cold solve");
    let warm = grid.steady_state_warm(&perturbed, Some(&cold.field)).expect("warm solve");
    let resolve = grid.steady_state_warm(&power, Some(&cold.field)).expect("warm re-solve");

    println!(
        "perf thermal: cold {} sweeps, warm (perturbed power) {} vs {} cold, exact re-solve {}",
        cold.sweeps, warm.sweeps, perturbed_cold.sweeps, resolve.sweeps
    );
    json.push_str(&format!(
        concat!(
            "  \"thermal_warm_start\": {{\n",
            "    \"cold_sweeps\": {},\n",
            "    \"perturbed_cold_sweeps\": {},\n",
            "    \"perturbed_warm_sweeps\": {},\n",
            "    \"exact_resolve_warm_sweeps\": {}\n",
            "  }}\n"
        ),
        cold.sweeps, perturbed_cold.sweeps, warm.sweeps, resolve.sweeps,
    ));
}

fn main() {
    benches();

    let mut json = String::from("{\n");
    campaign_report(&mut json);
    rewritten_netlist_report(&mut json);
    fault_campaign_report(&mut json);
    lifetime_report(&mut json);
    substrate_report(&mut json);
    telemetry_report(&mut json);
    thermal_report(&mut json);
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    std::fs::write(path, &json).expect("write BENCH_perf.json");
    println!("wrote {path}");
    print!("{json}");
}
