//! The `figures` workload: the data behind Figs. 4(b)/(c), 5(a)/(b)/(c),
//! 6 and Table I, each computed once per pass, plus the aging and thermal
//! probes.
//!
//! Why this workload: the lifetime stack (aging MTTF, thermal SOR, NBTI)
//! and the atpg kernels do all of its work, while the engine, the
//! substrates, snapshot and serve do none.

use crate::paper::{paper_err_pct, HEADLINES};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{mix, passes, set_ups};
use r2d3_aging::mttf::{mttf_monte_carlo, MttfConfig};
use r2d3_aging::nbti::{NbtiModel, NbtiParams, NbtiState};
use r2d3_atpg::campaign::{run_campaign, CampaignConfig};
use r2d3_atpg::fault::{collapsed_faults, Fault};
use r2d3_atpg::observe::core_level_campaign_with;
use r2d3_atpg::report::{unit_report, LatencyBucket, UnitReport};
use r2d3_bench::{quick_lifetime_config, Fig4Config};
use r2d3_core::lifetime::{LifetimeOutcome, LifetimeSim};
use r2d3_core::policy::PolicyKind;
use r2d3_core::repair::stage_level_formable;
use r2d3_isa::kernels::KernelKind;
use r2d3_isa::Unit;
use r2d3_netlist::stages::{all_stage_netlists, StageNetlist};
use r2d3_netlist::ComposeOptions;
use r2d3_physical::{DesignVariant, PhysicalModel};
use r2d3_thermal::{Floorplan, PowerMap, ThermalGrid};
use std::hint::black_box;
use std::time::Instant;

/// Seed of the figure harnesses' Fig. 4 campaigns; the workload's default.
pub const DEFAULT_SEED: u64 = 7;
/// `LifetimeConfig`'s default seed, which the Fig. 5/6 harnesses use.
const LIFETIME_SEED: u64 = 0x52D3;
/// Kernels of Fig. 5(c), in [`HEADLINES`] order.
const KERNELS: [KernelKind; 3] = [KernelKind::Fft, KernelKind::Gemm, KernelKind::Gemv];
/// Repetitions of each aging and thermal probe (the median is reported).
const PROBE_REPS: usize = 15;
/// Worker threads of the atpg campaigns and lifetime runs. Results are
/// thread-count invariant; one thread keeps the timing steady on a small
/// shared host, where a two-thread pass waits on whichever vCPU a
/// neighbour slows (10-seed spread of `wall_s`: 26 % with two threads,
/// against 7 % for the single-threaded campaign workload in the same
/// window).
const THREADS: usize = 1;

/// Everything set up before the first campaign: synthesized stage
/// netlists, their collapsed fault lists and the 8×6×8 thermal grid.
struct Setup {
    stages: Vec<StageNetlist>,
    faults: Vec<Vec<Fault>>,
    grid: ThermalGrid,
    floorplan: Floorplan,
}

/// Phase times of one set-up.
struct SetupTimes {
    synth_s: f64,
    collapse_s: f64,
    total_s: f64,
}

fn setup() -> (Setup, SetupTimes) {
    let fig4 = Fig4Config::default();
    let t0 = Instant::now();
    let stages = all_stage_netlists(&fig4.sizing);
    let t1 = Instant::now();
    let faults: Vec<Vec<Fault>> = stages.iter().map(|s| collapsed_faults(s.netlist())).collect();
    let t2 = Instant::now();
    let probe = quick_lifetime_config(PolicyKind::Pro, KernelKind::Gemm);
    let floorplan = Floorplan::opensparc_3d(probe.layers);
    let grid = ThermalGrid::new(&floorplan, &probe.grid);
    let times = SetupTimes {
        synth_s: t1.duration_since(t0).as_secs_f64(),
        collapse_s: t2.duration_since(t1).as_secs_f64(),
        total_s: t0.elapsed().as_secs_f64(),
    };
    (Setup { stages, faults, grid, floorplan }, times)
}

/// Seeds of one pass, derived from the workload seed so that the default
/// seed reproduces the harness defaults.
#[derive(Clone, Copy)]
struct Seeds {
    fig4: u64,
    lifetime: u64,
}

impl Seeds {
    fn new(seed: u64) -> Self {
        Seeds { fig4: seed, lifetime: seed ^ DEFAULT_SEED ^ LIFETIME_SEED }
    }
}

/// What one pass measured.
struct Pass {
    /// Measured headline values, in [`HEADLINES`] order.
    headline: [f64; HEADLINES.len()],
    /// Table I's R2D3 row: coverage %, 8-year gain %, frequency, area and
    /// power overheads %.
    table1: [f64; 5],
    fig4_s: f64,
    fig5_s: f64,
    calls: u64,
    failed: u64,
    stage_s: Vec<(Unit, f64)>,
    core_level_s: f64,
    /// Full-re-evaluation gate evaluations the stage campaigns stand for
    /// (gates × faults × 64-pattern blocks, as `perf.rs` normalizes).
    gate_evals: f64,
    /// `LifetimeSim::run` seconds per policy over the Fig. 5(c) kernels.
    run_s: [f64; 4],
    replica_months: f64,
}

fn merge_into(acc: &mut Option<UnitReport>, label: &str, report: &UnitReport) {
    match acc {
        None => *acc = Some(UnitReport { label: label.into(), ..report.clone() }),
        Some(t) => t.merge(report),
    }
}

fn pass(setup: &Setup, seeds: Seeds, tracer: &mut Tracer) -> Pass {
    let mut calls = 0u64;
    let mut failed = 0u64;
    let fig4 = Fig4Config::default();
    let cc = CampaignConfig { max_patterns: fig4.max_patterns, seed: seeds.fig4, threads: THREADS };

    // Fig. 4(b)/(c): per-unit stage-boundary campaigns, then the composed
    // core-level campaign.
    let t4 = Instant::now();
    let mut stage_s = Vec::new();
    let mut gate_evals = 0.0;
    let mut total = None;
    for (i, (sn, faults)) in setup.stages.iter().zip(&setup.faults).enumerate() {
        let t0 = Instant::now();
        let outcome = tracer.span(&format!("atpg.stage.{}", sn.unit().name()), i as u64, |_| {
            run_campaign(sn.netlist(), faults, &cc)
        });
        stage_s.push((sn.unit(), t0.elapsed().as_secs_f64()));
        calls += 1;
        gate_evals +=
            (sn.netlist().num_gates() * faults.len() * (outcome.patterns_applied() / 64)) as f64;
        merge_into(&mut total, "Total", &unit_report(sn.unit().name(), &outcome));
    }
    let t0 = Instant::now();
    let netlists: Vec<_> = setup.stages.iter().map(StageNetlist::netlist).collect();
    let core = tracer.span("atpg.core_level", 0, |_| {
        core_level_campaign_with(&netlists, &setup.faults, &cc, &ComposeOptions::core_level())
    });
    let core_level_s = t0.elapsed().as_secs_f64();
    calls += 1;
    let mut core_level = None;
    match core {
        Ok(outcomes) => {
            for (sn, outcome) in setup.stages.iter().zip(&outcomes) {
                merge_into(&mut core_level, "Core-Level", &unit_report(sn.unit().name(), outcome));
            }
        }
        Err(_) => failed += 1,
    }
    let fig4_s = t4.elapsed().as_secs_f64();

    // Fig. 5(b)/(c) and Table I: 8-year runs of every policy on each
    // kernel; Fig. 5(a): the pure-aging GEMM sweep; Fig. 6: one-month maps.
    let t5 = Instant::now();
    let mut run_s = [0.0; 4];
    let mut replica_months = 0.0;
    let mut run =
        |label: &str, id: u64, cfg: r2d3_core::lifetime::LifetimeConfig, tracer: &mut Tracer| {
            calls += 1;
            let out = tracer.span(label, id, |_| LifetimeSim::new(cfg).run());
            if out.is_err() {
                failed += 1;
            }
            out.ok()
        };
    let mut sweeps: Vec<Vec<Option<LifetimeOutcome>>> = Vec::new();
    for (k, &kernel) in KERNELS.iter().enumerate() {
        let mut row = Vec::new();
        for (p, &policy) in PolicyKind::ALL.iter().enumerate() {
            let mut cfg = quick_lifetime_config(policy, kernel);
            cfg.seed = seeds.lifetime;
            cfg.threads = THREADS;
            let months = (cfg.replicas * cfg.months) as f64;
            let t0 = Instant::now();
            row.push(run(
                &format!("lifetime.run.{}", policy_name(policy)),
                (k * 4 + p) as u64,
                cfg,
                tracer,
            ));
            run_s[p] += t0.elapsed().as_secs_f64();
            replica_months += months;
        }
        sweeps.push(row);
    }
    let fig5a: Vec<Option<LifetimeOutcome>> = PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let mut cfg = quick_lifetime_config(policy, KernelKind::Gemm);
            cfg.seed = seeds.lifetime;
            cfg.threads = THREADS;
            cfg.reliability.base_rate_per_month = 0.0;
            cfg.replicas = 1;
            run("lifetime.run.fig5a", 0, cfg, tracer)
        })
        .collect();
    let fig6: Vec<Option<LifetimeOutcome>> =
        [PolicyKind::Static, PolicyKind::Lite, PolicyKind::Pro]
            .iter()
            .map(|&policy| {
                let mut cfg = quick_lifetime_config(policy, KernelKind::Gemm);
                cfg.seed = seeds.lifetime;
                cfg.threads = THREADS;
                cfg.months = 1;
                cfg.replicas = 1;
                cfg.mttf_trials = 10;
                run("lifetime.run.fig6", 0, cfg, tracer)
            })
            .collect();
    let fig5_s = t5.elapsed().as_secs_f64();

    let mut headline = [f64::NAN; HEADLINES.len()];
    let mut table1 = [f64::NAN; 5];
    if let (Some(total), Some(core)) = (&total, &core_level) {
        headline[0] = total.detectable_pct();
        headline[1] = core.detectable_pct();
        headline[2] = total.cumulative_detected_pct(LatencyBucket::Lt5k);
        headline[3] = core.cumulative_detected_pct(LatencyBucket::Lt5k);
        table1[0] = total.detectable_pct();
    }
    let last = |o: &Option<LifetimeOutcome>, f: fn(&LifetimeOutcome) -> &[f64]| {
        o.as_ref().and_then(|o| f(o).last().copied()).unwrap_or(f64::NAN)
    };
    let vth = |p: usize| last(&fig5a[p], |o| &o.series.max_vth);
    let base = vth(0);
    headline[4] = base;
    headline[5] = 100.0 * (1.0 - vth(2) / base);
    headline[6] = 100.0 * (1.0 - vth(3) / base);
    headline[7] = 100.0 * (1.0 - vth(3) / vth(2));
    let gemm = &sweeps[1];
    let mttf = |p: usize| last(&gemm[p], |o| &o.series.mttf_months);
    headline[8] = mttf(2) / mttf(0);
    headline[9] = mttf(3) / mttf(0);
    for (k, row) in sweeps.iter().enumerate() {
        headline[10 + k] =
            last(&row[3], |o| &o.series.norm_ipc) / last(&row[0], |o| &o.series.norm_ipc).max(1e-9);
    }
    let avg = |o: &Option<LifetimeOutcome>, f: fn(&LifetimeOutcome) -> &[f64]| {
        o.as_ref().map_or(f64::NAN, |o| f(o).iter().sum::<f64>() / f(o).len().max(1) as f64)
    };
    let hot = |i: usize| avg(&fig6[i], |o| &o.initial_hot_layer_map);
    headline[13] = hot(0) - hot(1);
    headline[14] = hot(0) - hot(2);
    table1[1] = 100.0
        * (avg(&gemm[3], |o| &o.series.norm_ipc) / avg(&gemm[0], |o| &o.series.norm_ipc) - 1.0);
    let design = PhysicalModel::table_iii().design(DesignVariant::R2d3);
    table1[2] = 100.0 * design.frequency_overhead;
    table1[3] = 100.0 * design.area_overhead;
    table1[4] = 100.0 * design.power_overhead;

    Pass {
        headline,
        table1,
        fig4_s,
        fig5_s,
        calls,
        failed,
        stage_s,
        core_level_s,
        gate_evals,
        run_s,
        replica_months,
    }
}

fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::NoRecon => "norecon",
        PolicyKind::Static => "static",
        PolicyKind::Lite => "lite",
        PolicyKind::Pro => "pro",
    }
}

fn record_values(p: &Pass, report: &mut Report) {
    report.attempted += p.calls;
    report.failed += p.failed;
    report.check(
        &format!("{} of {} figure computations returned an error", p.failed, p.calls),
        p.failed == 0,
    );
    report.check(
        "every figure value is finite",
        p.headline.iter().chain(&p.table1).all(|v| v.is_finite()),
    );
}

fn paper_lines(p: &Pass, report: &mut Report) {
    for (h, m) in HEADLINES.iter().zip(&p.headline) {
        report.lines.push(format!(
            "paper {:<32} measured {:>9.3} {:<2} paper {:>7.2} {:<2} error {:>6.1} %",
            h.key,
            m,
            h.unit,
            h.paper,
            h.unit,
            100.0 * (m - h.paper).abs() / h.paper
        ));
    }
    let t1 = [
        "coverage %",
        "8-year gain %",
        "frequency overhead %",
        "area overhead %",
        "power overhead %",
    ];
    let paper_t1 = [96.0, 78.0, 8.2, 7.4, 6.5];
    for ((what, m), paper) in t1.iter().zip(&p.table1).zip(paper_t1) {
        report.lines.push(format!("table1 R2D3 {what:<22} measured {m:>7.2} paper {paper:>5.1}"));
    }
}

/// Untraced passes for `seconds`: records the workload's end-to-end
/// metrics. Returns the first pass's values (for the traced comparison)
/// and its wall time.
pub fn untraced(seed: u64, seconds: f64, report: &mut Report) -> (Vec<u64>, f64) {
    let mut setups = Vec::new();
    set_ups(&mut setups, || setup().1.total_s);
    let (kept, _) = setup();
    let mut runs: Vec<Pass> = Vec::new();
    let walls = passes(seconds, || {
        let t0 = Instant::now();
        runs.push(pass(&kept, Seeds::new(seed), &mut Tracer::new(false)));
        let wall = t0.elapsed().as_secs_f64();
        if runs.len() == 1 {
            crate::record_peak_rss(report);
        }
        set_ups(&mut setups, || setup().1.total_s);
        Some(wall)
    });
    let first = &runs[0];
    for p in &runs {
        record_values(p, report);
    }
    report.check(
        "repeated passes give identical figure values",
        runs.iter().all(|p| value_bits(p) == value_bits(first)),
    );
    paper_lines(first, report);
    report.add_median("wall_s", &walls, "s", "passes");
    report.add_median("setup_s", &setups, "s", "set-ups");
    let fig4: Vec<f64> = runs.iter().map(|p| p.fig4_s).collect();
    let fig5: Vec<f64> = runs.iter().map(|p| p.fig5_s).collect();
    report.add_median("fig4_s", &fig4, "s", "passes");
    report.add_median("fig5_s", &fig5, "s", "passes");
    report.add(
        "paper_err_pct",
        paper_err_pct(&first.headline),
        "%",
        format!("mean of {} headline values", HEADLINES.len()),
    );
    (value_bits(first), walls[0])
}

fn value_bits(p: &Pass) -> Vec<u64> {
    p.headline.iter().chain(&p.table1).map(|v| v.to_bits()).collect()
}

/// One traced pass: records the netlist, atpg and lifetime layers'
/// metrics and returns the pass's values and wall time.
pub fn traced(seed: u64, tracer: &mut Tracer, report: &mut Report) -> (Vec<u64>, f64) {
    let (setup, times) = tracer.span("figures.setup", 0, |_| setup());
    report.add("netlist.synth_s", times.synth_s, "s", "one set-up");
    report.add("atpg.collapse_s", times.collapse_s, "s", "one set-up");
    let t1 = Instant::now();
    let p = tracer.span("figures.pass", 0, |tracer| pass(&setup, Seeds::new(seed), tracer));
    let wall = t1.elapsed().as_secs_f64();
    record_values(&p, report);
    for (unit, s) in &p.stage_s {
        report.add(
            &format!("atpg.stage_s.{}", unit.name().to_ascii_lowercase()),
            *s,
            "s",
            "one campaign",
        );
    }
    report.add("atpg.core_level_s", p.core_level_s, "s", "one campaign");
    let stage_total: f64 = p.stage_s.iter().map(|(_, s)| s).sum();
    report.add(
        "atpg.gate_evals_per_s",
        p.gate_evals / stage_total,
        "1/s",
        format!("{:.3e} full-re-evaluation gate evals", p.gate_evals),
    );
    for (policy, s) in PolicyKind::ALL.iter().zip(p.run_s) {
        report.add(
            &format!("lifetime.run_s.{}", policy_name(*policy)),
            s,
            "s",
            "sum over FFT, GEMM, GEMV",
        );
    }
    report.add(
        "lifetime.replica_months_per_s",
        p.replica_months / p.run_s.iter().sum::<f64>(),
        "1/s",
        format!("{} replica-months", p.replica_months),
    );
    tracer.span("figures.probes", 0, |_| lifetime_probes(seed, &setup, report));
    (value_bits(&p), wall)
}

/// Probe calls into the aging and thermal crates with the workload's own
/// configuration (lifetime's internal calls cannot be spanned from
/// outside).
fn lifetime_probes(seed: u64, setup: &Setup, report: &mut Report) {
    let cfg = quick_lifetime_config(PolicyKind::Pro, KernelKind::Gemm);
    let stages = cfg.layers * Unit::ALL.len();
    let base = cfg.reliability.base_rate_per_month;
    let rates: Vec<f64> = (0..stages)
        .map(|i| base * (0.5 + (mix(seed, i as u64) >> 11) as f64 / (1u64 << 53) as f64))
        .collect();
    let layers = cfg.layers;
    let mc = MttfConfig { trials: cfg.mttf_trials, seed: cfg.seed, survivor_horizon: 1e9 };
    let mttf: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(mttf_monte_carlo(
                black_box(&rates),
                |mask: &[bool]| stage_level_formable(layers, |s| mask[s.flat_index()]) >= 1,
                &mc,
            ));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let basis = format!("median of {PROBE_REPS}");
    report.add(
        "aging.mttf_ms",
        crate::stats::median(&mttf),
        "ms",
        format!("{} trials, {stages} stages, {basis}", cfg.mttf_trials),
    );

    const NBTI_STEPS: usize = 200_000;
    let model = NbtiModel::new(NbtiParams::default());
    let nbti: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let mut state = NbtiState::new();
            let t0 = Instant::now();
            for i in 0..NBTI_STEPS {
                model.advance(
                    &mut state,
                    black_box(0.5 + (i % 7) as f64 * 0.05),
                    black_box(85.0),
                    2.6e6,
                );
            }
            black_box(state.vth_shift());
            t0.elapsed().as_secs_f64() * 1e9 / NBTI_STEPS as f64
        })
        .collect();
    report.add(
        "aging.nbti_ns",
        crate::stats::median(&nbti),
        "ns",
        format!("{NBTI_STEPS} steps, {basis}"),
    );

    let mut power = PowerMap::new(&setup.floorplan);
    for layer in 0..setup.floorplan.layers() {
        for (u, &unit) in Unit::ALL.iter().enumerate() {
            power.set_block(layer, unit, 0.03 + 0.002 * ((layer + u) % 5) as f64);
        }
    }
    let mut warm_power = power.clone();
    warm_power.scale(1.02);
    let (mut cold_ms, mut warm_ms, mut cold_sweeps, mut warm_sweeps) = (vec![], vec![], 0, 0);
    let mut solved = true;
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let cold = setup.grid.steady_state_warm(&power, None);
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Ok(cold) = cold else {
            solved = false;
            break;
        };
        let t1 = Instant::now();
        let warm = setup.grid.steady_state_warm(&warm_power, Some(&cold.field));
        warm_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        let Ok(warm) = warm else {
            solved = false;
            break;
        };
        (cold_sweeps, warm_sweeps) = (cold.sweeps, warm.sweeps);
    }
    report.check("thermal probe solves converge", solved);
    if solved {
        report.add(
            "thermal.solve_ms.cold",
            crate::stats::median(&cold_ms),
            "ms",
            format!("8x6x8 grid, {basis}"),
        );
        report.add(
            "thermal.solve_ms.warm",
            crate::stats::median(&warm_ms),
            "ms",
            format!("+2 % power, {basis}"),
        );
        report.add("thermal.sweeps.cold", cold_sweeps as f64, "count", "SOR sweeps");
        report.add("thermal.sweeps.warm", warm_sweeps as f64, "count", "SOR sweeps");
    }
}
