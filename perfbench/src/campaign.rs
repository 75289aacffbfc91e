//! The `campaign` workload — exactly what `r2d3 campaign` runs — plus the
//! traced durable sweep and the substrate/engine probe.
//!
//! Why this workload: the engine and both substrates do all of its work,
//! while thermal, aging, atpg, snapshot and serve do none.

use crate::report::Report;
use crate::timed::{CallTimes, Timed};
use crate::trace::Tracer;
use crate::{mix, passes, set_ups};
use r2d3_core::api::{execute_local, render_outcome, JobKind, JobOutcome, JobSpec};
use r2d3_core::campaign::{
    campaign_engine_config, generate_scenarios_with, render_report, run_campaign_durable,
    CampaignConfig, FaultScenario, ScenarioSpace, SubstrateKind, INJECTABLE_UNITS, KIND_NAMES,
};
use r2d3_core::engine::R2d3Engine;
use r2d3_core::snapshot::fnv1a64;
use r2d3_core::substrate::ReliabilitySubstrate;
use r2d3_core::{NetlistSubstrate, NetlistSubstrateConfig};
use r2d3_isa::kernels::trap_mix;
use r2d3_pipeline_sim::{StageId, System3d, SystemConfig};
use std::ops::ControlFlow;
use std::time::Instant;

/// `r2d3 campaign`'s default seed.
pub const DEFAULT_SEED: u64 = 0xCA3A;
/// FNV-1a-64 of the report `r2d3 campaign --out` writes at the default seed.
const DEFAULT_REPORT_FNV: u64 = 0xd2ec_5fdb_cd30_255a;
/// Length of that report.
const DEFAULT_REPORT_BYTES: usize = 45_327;
/// Engine epochs per substrate/engine probe run: about one campaign
/// scenario's length.
const PROBE_EPOCHS: u64 = 16;
/// Fresh-substrate probe runs per substrate.
const PROBE_RUNS: u64 = 8;
const SUBSTRATES: [SubstrateKind; 2] = [SubstrateKind::Behavioral, SubstrateKind::Netlist];

/// The campaign job `r2d3 campaign --seed <seed>` describes, its config
/// and its scenario list: the workload's set-up.
fn setup(seed: u64) -> (JobSpec, CampaignConfig, Vec<FaultScenario>) {
    let spec = JobSpec::campaign().seed(seed).build().expect("default campaign spec is valid");
    let JobKind::Campaign(cspec) = &spec.kind else { unreachable!("built as a campaign") };
    let config = cspec.to_config().expect("no core file to load");
    let space = ScenarioSpace {
        seed: config.seed,
        count: config.scenarios_per_substrate,
        pipelines: config.pipelines,
        layers: config.layers,
        settle_epochs: config.settle_epochs,
    };
    let scenarios = generate_scenarios_with(&space, &config.kinds);
    (spec, config, scenarios)
}

/// Checks a rendered report against the bytes `r2d3 campaign` writes at
/// the default seed.
fn check_default_bytes(seed: u64, bytes: &str, report: &mut Report) {
    if seed == DEFAULT_SEED {
        report.check(
            &format!(
                "default-seed report is {} bytes with FNV-1a-64 {:016x} (expected {} / {:016x})",
                bytes.len(),
                fnv1a64(bytes.as_bytes()),
                DEFAULT_REPORT_BYTES,
                DEFAULT_REPORT_FNV
            ),
            bytes.len() == DEFAULT_REPORT_BYTES && fnv1a64(bytes.as_bytes()) == DEFAULT_REPORT_FNV,
        );
    }
}

/// Untraced passes of the workload for `seconds`; records `wall_s` and
/// `setup_s` and returns the first pass's report bytes and its wall time.
pub fn untraced(seed: u64, seconds: f64, report: &mut Report) -> (String, f64) {
    let time_setup = || {
        let t0 = Instant::now();
        std::hint::black_box(setup(seed));
        t0.elapsed().as_secs_f64()
    };
    let mut setups = Vec::new();
    set_ups(&mut setups, time_setup);
    let (spec, _, _) = setup(seed);
    let mut first: Option<String> = None;
    let walls = passes(seconds, || {
        let t0 = Instant::now();
        let outcome = execute_local(&spec);
        let bytes = outcome.as_ref().ok().map(|o| render_outcome(&spec, o));
        let wall = t0.elapsed().as_secs_f64();
        if first.is_none() {
            crate::record_peak_rss(report);
        }
        set_ups(&mut setups, time_setup);
        match (&outcome, bytes) {
            (Ok(JobOutcome::Campaign(r)), Some(bytes)) => {
                report.attempted += r.total_scenarios() as u64;
                report.failed += r.failures() as u64;
                report.check(
                    &format!("{} of {} scenario runs failed", r.failures(), r.total_scenarios()),
                    r.failures() == 0,
                );
                match &first {
                    None => first = Some(bytes),
                    Some(f) => {
                        report.check("repeated passes render identical reports", *f == bytes)
                    }
                }
            }
            _ => report.check("campaign executes", false),
        }
        Some(wall)
    });
    let bytes = first.unwrap_or_default();
    check_default_bytes(seed, &bytes, report);
    report.add_median("wall_s", &walls, "s", "passes");
    report.add_median("setup_s", &setups, "s", "set-ups");
    (bytes, walls[0])
}

/// The traced sweep: `run_campaign_durable` with an observer that only
/// takes timestamps, so every scenario gets a span. Records the campaign
/// layer's metrics and returns the report bytes and the sweep's wall time.
pub fn traced(seed: u64, tracer: &mut Tracer, report: &mut Report) -> (String, f64) {
    let t_all = Instant::now();
    let (config, scenarios, steps, result) = tracer.span("campaign", 0, |tracer| {
        let t0 = Instant::now();
        let (_, config, scenarios) = tracer.span("campaign.generate", 0, |_| setup(seed));
        report.add("campaign.generate_s", t0.elapsed().as_secs_f64(), "s", "one set-up");
        let mut steps: Vec<(usize, usize, Instant, Instant)> = Vec::new();
        let mut last = Instant::now();
        let result = run_campaign_durable(&config, None, None, |st| {
            let now = Instant::now();
            steps.push((st.substrate(), st.scenario() - 1, last, now));
            last = Instant::now();
            Ok(ControlFlow::Continue(()))
        });
        (config, scenarios, steps, result)
    });
    let wall = t_all.elapsed().as_secs_f64();

    let root = tracer.spans().iter().rposition(|s| s.name == "campaign");
    let epochs: u64 = scenarios.iter().map(|s| s.epochs).sum();
    for (si, kind) in config.substrates.iter().enumerate() {
        let name = kind.name();
        let mine: Vec<_> = steps.iter().filter(|s| s.0 == si).collect();
        let (Some(first), Some(last)) = (mine.first(), mine.last()) else {
            report.check(&format!("{name} sweep ran"), false);
            continue;
        };
        let sweep_s = last.3.duration_since(first.2).as_secs_f64();
        if tracer.enabled() {
            let (a, b) = (tracer.at(first.2), tracer.at(last.3));
            let sweep = tracer.push(&format!("campaign.sweep.{name}"), 0, root, a, b);
            for &&(_, idx, t0, t1) in &mine {
                let (a, b) = (tracer.at(t0), tracer.at(t1));
                tracer.push(
                    &format!("campaign.scenario.{}", scenarios[idx].kind.name()),
                    u64::from(scenarios[idx].id),
                    Some(sweep),
                    a,
                    b,
                );
            }
        }
        let ms: Vec<f64> =
            mine.iter().map(|s| s.3.duration_since(s.2).as_secs_f64() * 1e3).collect();
        report.add(
            &format!("campaign.sweep_s.{name}"),
            sweep_s,
            "s",
            format!("{} scenarios", ms.len()),
        );
        report.add(
            &format!("campaign.ms_per_epoch.{name}"),
            sweep_s * 1e3 / epochs as f64,
            "ms",
            format!("{epochs} engine epochs"),
        );
        report.add_pct(&format!("campaign.scenario_ms.{name}.p50"), &ms, 0.5, 1.0, "ms");
        report.add_pct(&format!("campaign.scenario_ms.{name}.p95"), &ms, 0.95, 1.0, "ms");
        for kind_name in KIND_NAMES {
            let (n, total) = mine
                .iter()
                .zip(&ms)
                .filter(|(s, _)| scenarios[s.1].kind.name() == kind_name)
                .fold((0, 0.0), |(n, t), (_, m)| (n + 1, t + m));
            report.add(
                &format!("campaign.kind_ms.{name}.{kind_name}"),
                total,
                "ms",
                format!("{n} scenarios"),
            );
        }
    }

    let bytes = match result {
        Ok(Some(r)) => {
            report.check(
                &format!(
                    "traced sweep: {} of {} scenario runs failed",
                    r.failures(),
                    r.total_scenarios()
                ),
                r.failures() == 0,
            );
            render_report(&r)
        }
        other => {
            report.check(&format!("traced sweep completes ({:?})", other.err()), false);
            String::new()
        }
    };
    check_default_bytes(seed, &bytes, report);
    (bytes, wall)
}

/// Drives `R2d3Engine` with the campaign's engine configuration over both
/// substrates through the [`Timed`] wrapper: the campaign's workload and
/// one seeded permanent fault, [`PROBE_EPOCHS`] epochs on each of
/// [`PROBE_RUNS`] fresh substrates (scenario-length runs, so the workload
/// programs are still executing throughout).
pub fn engine_probe(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let config = CampaignConfig { seed, ..Default::default() };
    for kind in SUBSTRATES {
        let name = kind.name();
        let (mut times, mut total_s, mut ok) = (CallTimes::default(), 0.0, true);
        tracer.span(&format!("engine.probe.{name}"), 0, |_| {
            for run in 0..PROBE_RUNS {
                let fault_seed = mix(seed, run);
                let victim = StageId::new(
                    (fault_seed % config.pipelines as u64) as usize,
                    INJECTABLE_UNITS[(fault_seed / 8 % INJECTABLE_UNITS.len() as u64) as usize],
                );
                let (t, secs, run_ok) = match kind {
                    SubstrateKind::Behavioral => {
                        let mut sys = System3d::new(&SystemConfig {
                            pipelines: config.pipelines,
                            layers: config.layers,
                            ..Default::default()
                        });
                        for p in 0..config.pipelines {
                            let program =
                                trap_mix(4096, config.seed ^ (p as u64 + 1)).program().clone();
                            ok &= sys.load_program(p, program).is_ok();
                        }
                        probe(sys, victim, fault_seed)
                    }
                    SubstrateKind::Netlist => probe(
                        NetlistSubstrate::new(&NetlistSubstrateConfig {
                            pipelines: config.pipelines,
                            layers: config.layers,
                            ..Default::default()
                        }),
                        victim,
                        fault_seed,
                    ),
                };
                times.merge(&t);
                total_s += secs;
                ok &= run_ok;
            }
        });
        report.check(&format!("{name} probe injects its faults and runs its epochs"), ok);
        let epochs = PROBE_RUNS * PROBE_EPOCHS;
        let per_epoch = |s: f64| s * 1e3 / epochs as f64;
        let basis = format!("{PROBE_RUNS} runs of {PROBE_EPOCHS} epochs");
        let t = times;
        report.add(&format!("substrate.{name}.run_ms_per_epoch"), per_epoch(t.run_s), "ms", &basis);
        report.add(
            &format!("substrate.{name}.mcycles_per_s"),
            t.run_cycles as f64 / t.run_s / 1e6,
            "Mcycle/s",
            format!("{} simulated cycles", t.run_cycles),
        );
        report.add(
            &format!("engine.{name}.self_ms_per_epoch"),
            per_epoch(total_s - t.total_s()),
            "ms",
            &basis,
        );
        report.add(
            &format!("engine.{name}.trace_window_ms_per_epoch"),
            per_epoch(t.trace_window_s),
            "ms",
            &basis,
        );
        report.add(&format!("engine.{name}.replay_ms"), t.replay_s * 1e3, "ms", &basis);
        report.add(&format!("engine.{name}.replays"), t.replays as f64, "count", &basis);
        report.add(&format!("engine.{name}.reconfigs"), t.reconfigs as f64, "count", &basis);
        report.add(
            &format!("engine.{name}.checkpoint_ms_per_epoch"),
            per_epoch(t.checkpoint_s),
            "ms",
            &basis,
        );
    }
}

/// One probe run: the call times below the trait, the epochs' total wall
/// time, and whether the injection and every epoch succeeded.
fn probe<S: ReliabilitySubstrate>(sub: S, victim: StageId, seed: u64) -> (CallTimes, f64, bool) {
    let mut sys = Timed::new(sub);
    let mut ok = sys.inject_permanent_seeded(victim, seed).is_ok();
    let mut engine = R2d3Engine::builder()
        .config(campaign_engine_config())
        .build()
        .expect("campaign engine configuration is valid");
    let t0 = Instant::now();
    for _ in 0..PROBE_EPOCHS {
        ok &= engine.run_epoch(&mut sys).is_ok();
    }
    (sys.times(), t0.elapsed().as_secs_f64(), ok)
}
