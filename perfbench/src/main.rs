//! End-to-end and per-layer benchmark of the R2D3 workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign|figures|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the chosen workload untraced for about
//! `--seconds` and reports its end-to-end metrics. With `--trace 1` it
//! runs the workload once untraced and once traced (their difference is
//! the tracing overhead), then the traced passes of the other two
//! workloads and the layer probes, so every per-layer metric is reported;
//! its spans are written to `.bench_out/`. Either way the last line of
//! standard output is one JSON object, and the exit code is non-zero when
//! an output check fails.

mod campaign;
mod figures;
mod paper;
mod report;
mod serve;
mod stats;
mod timed;
mod trace;

use r2d3_core::chaos::splitmix64;
use report::Report;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per burst, at least. A run measures one burst
/// before its first pass and one after every pass; `setup_s` is the
/// median of them all, so it samples the host over the whole run as
/// `wall_s` does rather than the first fraction of a second alone.
const SETUP_REPS: usize = 21;
/// Wall time spent on each burst of set-up repetitions, at least.
const SETUP_BUDGET_S: f64 = 0.3;
/// Where runs leave their spans, results and serve state directories.
const OUT_DIR: &str = ".bench_out";
/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign,
    Figures,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign" => Some(Workload::Campaign),
            "figures" => Some(Workload::Figures),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Figures => "figures",
            Workload::Serve => "serve",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::Campaign => campaign::DEFAULT_SEED,
            Workload::Figures => figures::DEFAULT_SEED,
            Workload::Serve => serve::DEFAULT_SEED,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(parse_u64(&value).ok_or_else(|| format!("bad seed `{value}`"))?)
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed: seed.unwrap_or_else(|| workload.default_seed()), seconds, trace })
}

/// Runs `pass` (which returns its wall time, or `None` to stop) at least
/// once and until `seconds` have elapsed; returns the wall times.
pub fn passes(seconds: f64, mut pass: impl FnMut() -> Option<f64>) -> Vec<f64> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        match pass() {
            Some(wall) => walls.push(wall),
            None => break,
        }
    }
    walls
}

/// One burst of set-up repetitions (`once` returns a set-up's duration):
/// at least [`SETUP_REPS`] of them, for at least [`SETUP_BUDGET_S`].
pub fn set_ups(times: &mut Vec<f64>, mut once: impl FnMut() -> f64) {
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || t0.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        times.push(once());
        reps += 1;
    }
}

/// Item `index` of the SplitMix64 stream seeded with `seed`: derived
/// per-item seeds.
pub fn mix(seed: u64, index: u64) -> u64 {
    splitmix64(seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Worker threads the host offers.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Records `peak_rss_mb`: the process's peak resident set so far, from
/// `/proc/self/status`. Workloads call it at the end of their first timed
/// pass, so it does not depend on how many passes fit in the run.
pub fn record_peak_rss(report: &mut Report) {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    match kb {
        Some(kb) => report.add("peak_rss_mb", kb / 1024.0, "MB", "VmHWM after the first pass"),
        None => report.check("peak resident set is readable from /proc/self/status", false),
    }
}

/// The host block recorded with every result set.
fn host_lines() -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let sn = r2d3_netlist::stages::stage_netlist(r2d3_isa::Unit::Exu, &Default::default());
    let simd = r2d3_netlist::FaultSim::new(sn.netlist()).kernel().name();
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![format!(
        "host nproc={} cpu=\"{cpu}\" simd_kernel={simd} profile={profile}",
        host_parallelism()
    )]
}

/// Every per-layer metric a traced run reports, in report order.
fn per_layer_names() -> Vec<String> {
    let mut names = vec!["campaign.generate_s".to_string()];
    for sub in ["behavioral", "netlist"] {
        names.push(format!("campaign.sweep_s.{sub}"));
        names.push(format!("campaign.ms_per_epoch.{sub}"));
        names.push(format!("campaign.scenario_ms.{sub}.p50"));
        names.push(format!("campaign.scenario_ms.{sub}.p95"));
        for kind in r2d3_core::campaign::KIND_NAMES {
            names.push(format!("campaign.kind_ms.{sub}.{kind}"));
        }
    }
    names.extend(["netlist.synth_s", "atpg.collapse_s"].map(String::from));
    for unit in ["ifu", "exu", "lsu", "tlu", "ffu"] {
        names.push(format!("atpg.stage_s.{unit}"));
    }
    names.extend(["atpg.core_level_s", "atpg.gate_evals_per_s"].map(String::from));
    for policy in ["norecon", "static", "lite", "pro"] {
        names.push(format!("lifetime.run_s.{policy}"));
    }
    names.extend(
        [
            "lifetime.replica_months_per_s",
            "aging.mttf_ms",
            "aging.nbti_ns",
            "thermal.solve_ms.cold",
            "thermal.solve_ms.warm",
            "thermal.sweeps.cold",
            "thermal.sweeps.warm",
        ]
        .map(String::from),
    );
    names.extend(
        [
            "serve.submit_ms.p50",
            "serve.queue_ms.p50",
            "serve.unit_s.campaign.p50",
            "serve.unit_s.lifetime.p50",
            "serve.unit_s.inject.p50",
            "serve.finalize_ms.p50",
            "serve.result_ms.p50",
            "serve.inject_job_ms.p50",
            "serve.checkpoints",
            "serve.slowdown.campaign",
            "serve.slowdown.lifetime",
            "serve.slowdown.inject",
            "snapshot.campaign_save_ms.p50",
            "snapshot.campaign_bytes.max",
            "snapshot.campaign_bytes.total",
            "snapshot.lifetime_save_ms.p50",
            "snapshot.lifetime_bytes",
        ]
        .map(String::from),
    );
    for sub in ["behavioral", "netlist"] {
        for m in [
            "substrate.{}.run_ms_per_epoch",
            "substrate.{}.mcycles_per_s",
            "engine.{}.self_ms_per_epoch",
            "engine.{}.trace_window_ms_per_epoch",
            "engine.{}.replay_ms",
            "engine.{}.replays",
            "engine.{}.reconfigs",
            "engine.{}.checkpoint_ms_per_epoch",
        ] {
            names.push(m.replace("{}", sub));
        }
    }
    names
}

/// An untraced measurement of the chosen workload.
fn untraced(args: &Args, out: &Path, report: &mut Report) {
    match args.workload {
        Workload::Campaign => {
            campaign::untraced(args.seed, args.seconds, report);
        }
        Workload::Figures => {
            figures::untraced(args.seed, args.seconds, report);
        }
        Workload::Serve => {
            serve::untraced(args.seed, args.seconds, out, report);
        }
    }
}

/// The traced run: the chosen workload untraced then traced (one pass
/// each, compared), the other workloads' traced passes and the layer
/// probes. Returns the tracer and the host line with the overhead.
fn traced(args: &Args, out: &Path, report: &mut Report) -> (Tracer, String) {
    let mut tracer = Tracer::new(true);
    let seed = args.seed;
    let mut plain_report = Report::default();
    let (plain_s, traced_s) = match args.workload {
        Workload::Campaign => {
            let (plain, plain_s) = campaign::untraced(seed, 0.0, &mut plain_report);
            let (bytes, traced_s) = campaign::traced(seed, &mut tracer, report);
            report.check("traced and untraced campaign reports are identical", plain == bytes);
            (plain_s, traced_s)
        }
        Workload::Figures => {
            let (plain, plain_s) = figures::untraced(seed, 0.0, &mut plain_report);
            let (values, traced_s) = figures::traced(seed, &mut tracer, report);
            report.check("traced and untraced figure values are identical", plain == values);
            (plain_s, traced_s)
        }
        Workload::Serve => {
            let plain_s = serve::untraced(seed, 0.0, out, &mut plain_report);
            (plain_s, serve::traced(seed, out, &mut tracer, report))
        }
    };
    report.checks.append(&mut plain_report.checks);
    report.attempted += plain_report.attempted;
    report.failed += plain_report.failed;
    if args.workload != Workload::Campaign {
        campaign::traced(seed, &mut tracer, report);
    }
    if args.workload != Workload::Figures {
        figures::traced(seed, &mut tracer, report);
    }
    if args.workload != Workload::Serve {
        serve::traced(seed, out, &mut tracer, report);
    }
    campaign::engine_probe(seed, &mut tracer, report);
    let host = format!(
        "host trace_overhead_s={:.6} ({} traced {:.6} s - untraced {:.6} s, probes excluded)",
        traced_s - plain_s,
        args.workload.name(),
        traced_s,
        plain_s
    );
    (tracer, host)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <campaign|figures|serve> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut host = host_lines();
    let mut report = Report::default();
    let tag = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let wanted: Vec<String> = if args.trace {
        let (tracer, overhead) = traced(&args, out, &mut report);
        host.push(overhead);
        let path = out.join(format!("spans-{tag}.json"));
        let written = std::fs::write(&path, tracer.chrome_json());
        report.check(
            &format!("{} spans written to {}", tracer.spans().len(), path.display()),
            written.is_ok(),
        );
        per_layer_names()
    } else {
        untraced(&args, out, &mut report);
        let failure_ratio = report.failed as f64 / report.attempted.max(1) as f64;
        report.add(
            "failure_ratio",
            failure_ratio,
            "ratio",
            format!("{} of {} failed", report.failed, report.attempted),
        );
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let missing: Vec<&String> = wanted.iter().filter(|n| report.value(n).is_none()).collect();
    report.check(
        &format!("every listed metric was measured (missing: {missing:?})"),
        missing.is_empty(),
    );

    let keep: Vec<&str> = wanted.iter().map(String::as_str).collect();
    let json = report.json(&keep);
    let text = format!(
        "workload {} seed {} seconds {} trace {}\n{}\n{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.join("\n"),
        report.text()
    );
    let _ = std::fs::write(out.join(format!("result-{tag}.txt")), format!("{text}{json}\n"));
    print!("{text}");
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listed_metric_names_are_valid_and_unique() {
        let mut names = per_layer_names();
        names.extend(END_TO_END.iter().map(|s| s.to_string()));
        assert!(names.iter().all(|n| stats::valid_name(n)), "{names:?}");
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(count <= 128 + END_TO_END.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_measured_metrics() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(manifest) else {
            return; // a checkout of the benchmark alone
        };
        for name in per_layer_names()
            .iter()
            .chain(END_TO_END.iter().map(|s| s.to_string()).collect::<Vec<_>>().iter())
        {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let workloads = text.matches("\"why\":").count();
        assert!(workloads >= 2);
        assert_eq!(
            text.matches("\"name\":").count(),
            per_layer_names().len() + END_TO_END.len() + workloads
        );
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload campaign").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (0xCA3A, 10.0, false));
        let a = args("--workload serve --seed 0x10 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Serve, 16, 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload figures --trace 2").is_err());
    }

    #[test]
    fn mix_walks_the_splitmix64_stream() {
        assert_eq!(mix(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(0, 1), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix(24158, 7), 0x173a_cd63_9f97_2572);
    }
}
