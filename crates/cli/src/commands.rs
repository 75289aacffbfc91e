//! Subcommand implementations.
//!
//! Every subcommand declares its arguments through [`crate::args`], so
//! flag spelling, error wording and `--help` pages stay uniform across
//! `run`/`inject`/`campaign`/`atpg`/`lifetime`/`thermal`/`trace`.
//!
//! I/O note: one-shot artifact reads and writes here (assembly sources,
//! `--out`/`--metrics-out`/`--trace-out` reports) deliberately use
//! `std::fs` directly rather than the [`r2d3_core::chaos::Vfs`] seam.
//! They are terminal, user-facing outputs of a batch command — a failed
//! or torn write surfaces immediately as a non-zero exit, and rerunning
//! the command regenerates the bytes deterministically. Only
//! *recovery-critical* durable state (snapshots, campaign/lifetime
//! checkpoints, the serve job store, the streaming sink) goes through
//! the seam, where the chaos harness can torture it.

use crate::args::{parse_substrate, Command, SubstrateChoice};
use r2d3_core::api::{
    execute_local, read_bounded, render_outcome, run_inject_with, standard_system, JobKind,
    JobOutcome, JobSpec, MAX_CORE_BYTES,
};
use r2d3_core::campaign::SubstrateKind;
use r2d3_core::engine::{EngineEvent, R2d3Engine};
use r2d3_core::lifetime::{LifetimeRunState, LifetimeSim};
use r2d3_core::substrate::{NetlistSubstrate, NetlistSubstrateConfig, ReliabilitySubstrate};
use r2d3_core::telemetry::{
    chrome_trace, json_lines, lifetime_counter_trace, validate_chrome_trace, validate_json_lines,
    ChromeTrace, OverflowPolicy, RingSink, StreamSink, StreamStats, TelemetryRecord,
};
use r2d3_isa::text::parse_program;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{StageId, System3d, SystemConfig};
use r2d3_thermal::{Floorplan, GridConfig, PowerMap, ThermalGrid};
use std::fmt::Write as _;

pub type CliResult = Result<(), Box<dyn std::error::Error>>;

fn parse_unit(token: &str) -> Result<Unit, String> {
    r2d3_core::api::parse_unit(token)
        .map_err(|_| format!("unknown unit `{token}` (IFU/EXU/LSU/TLU/FFU)"))
}

/// Largest assembly source `run` reads: 16 MiB, hundreds of thousands
/// of instructions at a few dozen bytes a line.
const MAX_SOURCE_BYTES: u64 = 16 << 20;

/// `r2d3 run <file.s>`
pub fn run(args: &[String]) -> CliResult {
    let cmd = Command::new("run", "assemble a .s program and run it on the 3D system")
        .positional("file.s", "assembly source file")
        .flag("pipes", "N", "logical pipelines to load (1..8)")
        .flag("cycles", "N", "cycles to simulate");
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let path = p.positional(0);
    let pipes: usize = p.get_or("pipes", 1)?;
    let cycles: u64 = p.get_or("cycles", 1_000_000)?;

    let source = read_bounded(path, "source file", MAX_SOURCE_BYTES)?;
    let program = parse_program(&source)?;
    println!("{path}: {} instructions, {} data words", program.len(), program.data_words());

    let config = SystemConfig { pipelines: pipes.clamp(1, 8), ..Default::default() };
    let mut sys = System3d::new(&config);
    for p in 0..config.pipelines {
        sys.load_program(p, program.clone())?;
    }
    sys.run(cycles)?;

    for p in 0..config.pipelines {
        let pipe = sys.pipeline(p).expect("pipeline exists");
        println!(
            "pipeline {p}: {} — retired {}, IPC {:.3}, L1D hit {:.1} %, bpred {:.1} %",
            if pipe.halted() { "halted" } else { "running" },
            pipe.retired(),
            pipe.ipc(),
            100.0 * pipe.l1d().hit_rate(),
            100.0 * pipe.predictor().accuracy(),
        );
        if pipe.halted() {
            // Dump the first few registers for quick inspection.
            let regs: Vec<String> = (1..=4)
                .map(|i| {
                    let r = r2d3_isa::Reg::from_index(i).expect("index < 32");
                    format!("{r}={:#x}", pipe.reg(r))
                })
                .collect();
            println!("  {}", regs.join("  "));
        }
    }
    Ok(())
}

/// `r2d3 inject <unit> <layer>`
pub fn inject(args: &[String]) -> CliResult {
    let cmd = Command::new("inject", "inject a permanent fault and watch the engine repair it")
        .positional("unit", "pipeline unit: IFU|EXU|LSU|TLU|FFU")
        .positional("layer", "stack layer of the victim stage (0..8)")
        .flag("bit", "B", "output bit the fault sticks at 1")
        .substrate_flag(false)
        .seed_flag()
        .epochs_flag()
        .metrics_out_flag()
        .trace_out_flag();
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let unit = parse_unit(p.positional(0))?;
    let layer: usize = p
        .positional(1)
        .parse()
        .map_err(|_| format!("invalid layer `{}` (expected 0..8)", p.positional(1)))?;
    let bit: u8 = p.get_or("bit", 0)?;
    let substrate = match parse_substrate(p.get("substrate"), SubstrateChoice::Behavioral, false)? {
        SubstrateChoice::Behavioral => SubstrateKind::Behavioral,
        SubstrateChoice::Netlist => SubstrateKind::Netlist,
        SubstrateChoice::Both => unreachable!("rejected by parse_substrate"),
    };
    let spec = JobSpec::inject(unit, layer)
        .bit(bit)
        .substrate(substrate)
        .seed(p.get_or("seed", 7)?)
        .epochs(p.get_or("epochs", 64)?)
        .build()
        .map_err(|e| e.to_string())?;
    let JobKind::Inject(ispec) = &spec.kind else { unreachable!("built as inject") };
    let epochs = ispec.epochs;
    let victim = StageId::new(layer, unit);

    let out = run_inject_with(
        ispec,
        |net| match net {
            None => println!(
                "behavioral substrate: stuck-at-1 (bit {bit}) into {victim}; running epochs…"
            ),
            Some(net) => println!(
                "netlist substrate: stuck-at-1 on net {net} of {victim}'s {unit} netlist; \
                 running epochs…"
            ),
        },
        |epoch, e| match e {
            EngineEvent::Symptom { dut, pipe } => {
                println!("epoch {epoch:>2}: symptom on {dut} (pipeline {pipe})");
            }
            EngineEvent::Permanent { stage } => {
                println!("epoch {epoch:>2}: permanent fault localized at {stage}");
            }
            EngineEvent::Repaired { pipelines_formed } => {
                println!("epoch {epoch:>2}: repaired — {pipelines_formed} pipelines formed");
            }
            other => println!("epoch {epoch:>2}: {other:?}"),
        },
    )?;

    let metrics = &out.metrics;
    if out.diagnosed {
        println!("\ndiagnosis complete; believed-faulty = {:?}", metrics.believed_faulty);
        if let Some(stats) = &metrics.checkpoints {
            println!(
                "recovery: {} rollback(s), {} restart(s), {} instructions of work lost",
                stats.restores, stats.restarts, stats.lost_instructions
            );
        }
    } else {
        println!("fault did not manifest within {epochs} epochs (data-dependent masking)");
    }
    if let Some(path) = p.get("metrics-out") {
        std::fs::write(path, metrics.to_json())?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = p.get("trace-out") {
        std::fs::write(path, chrome_trace(&out.records, out.substrate))?;
        eprintln!("trace written to {path} (load in Perfetto)");
    }
    Ok(())
}

/// `r2d3 campaign`
pub fn campaign(args: &[String]) -> CliResult {
    use r2d3_core::campaign::{
        run_campaign_durable, run_campaign_traced, CampaignState, ShardReport, ShardSpec,
    };

    if args.first().map(String::as_str) == Some("merge") {
        return campaign_merge(&args[1..]);
    }

    let cmd = Command::new("campaign", "adversarial fault-injection sweep over both substrates")
        .seed_flag()
        .flag("scenarios", "N", "scenarios per substrate")
        .flag("kinds", "LIST", "comma-separated fault kinds to sweep (default: all)")
        .substrate_flag(true)
        .out_flag("report")
        .switch("smoke", "small CI-sized sweep (27 scenarios)")
        .flag(
            "core",
            "FILE",
            "gate-level stages use this imported core (text netlist from `r2d3 import`, \
             or raw Yosys JSON) instead of the synthesized stage netlists",
        )
        .metrics_out_flag()
        .trace_out_flag()
        .flag("shard", "K/N", "run only shard K of an N-way partition (shard file goes to --out)")
        .flag("resume", "FILE", "resume a run from a snapshot written by --snapshot")
        .flag("snapshot", "FILE", "write a crash-safe run snapshot here as scenarios complete")
        .flag("snapshot-every", "N", "scenarios between snapshots (default 1)")
        .flag("stop-after", "N", "stop (after snapshotting) once N scenarios ran this invocation");
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let smoke = p.has("smoke");
    let substrates = match parse_substrate(p.get("substrate"), SubstrateChoice::Both, true)? {
        SubstrateChoice::Behavioral => vec![SubstrateKind::Behavioral],
        SubstrateChoice::Netlist => vec![SubstrateKind::Netlist],
        SubstrateChoice::Both => vec![SubstrateKind::Behavioral, SubstrateKind::Netlist],
    };
    // Everything the flags describe funnels into one JobSpec — the same
    // description `r2d3 submit campaign` puts on the wire — and the
    // config comes out of its `to_config()`, so batch and served runs
    // cannot assemble different campaigns from the same parameters.
    let mut builder = JobSpec::campaign()
        .seed(p.get_or("seed", 0xCA3A)?)
        .scenarios(p.get_or("scenarios", if smoke { 27 } else { 256 })?)
        .substrates(substrates)
        .kinds(parse_kinds(p.get("kinds"))?);
    if let Some(core) = p.get("core") {
        builder = builder.core(core);
    }
    let spec = builder.build().map_err(|e| e.to_string())?;
    let JobKind::Campaign(cspec) = &spec.kind else { unreachable!("built as campaign") };
    let config = cspec.to_config()?;
    if let Some(stages) = &config.netlist_stages {
        let nl = stages[0].netlist();
        eprintln!(
            "core: {} gates, {} outputs per stage (imported netlist on all units)",
            nl.gates().len(),
            nl.outputs().len()
        );
    }

    let shard = p.get("shard").map(ShardSpec::parse).transpose()?;
    let snapshot_path = p.get("snapshot");
    let snapshot_every: usize = p.get_or("snapshot-every", 1)?.max(1);
    let stop_after: Option<usize> = match p.get("stop-after") {
        Some(v) => Some(v.parse().map_err(|_| format!("invalid value for --stop-after: `{v}`"))?),
        None => None,
    };
    let durable = shard.is_some()
        || p.get("resume").is_some()
        || snapshot_path.is_some()
        || stop_after.is_some();
    if durable && p.get("trace-out").is_some() {
        return Err("--trace-out cannot be combined with \
                    --shard/--resume/--snapshot/--stop-after"
            .into());
    }
    if shard.is_some() && p.get("out").is_none() {
        return Err("--shard needs --out FILE for the shard report \
                    (merge later with `r2d3 campaign merge`)"
            .into());
    }

    eprintln!(
        "campaign: seed {:#x}, {} scenarios × {} substrate(s){}{}…",
        config.seed,
        config.scenarios_per_substrate,
        config.substrates.len(),
        if config.kinds.len() < r2d3_core::campaign::KindId::COUNT {
            format!(
                ", kinds {}",
                config.kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join(",")
            )
        } else {
            String::new()
        },
        match shard {
            Some(s) => format!(", shard {s}"),
            None => String::new(),
        }
    );

    let report = if let Some(path) = p.get("trace-out") {
        let (report, traces) = run_campaign_traced(&config);
        let mut trace = ChromeTrace::new();
        for (i, t) in traces.iter().enumerate() {
            let name = format!("{}:scenario-{}", t.substrate, t.scenario);
            trace.add_process(i as u32 + 1, &name, &t.records);
        }
        std::fs::write(path, trace.finish())?;
        eprintln!("  trace written to {path} (load in Perfetto)");
        report
    } else {
        let resume = p
            .get("resume")
            .map(|path| CampaignState::load(std::path::Path::new(path)))
            .transpose()?;
        let mut executed = 0usize;
        let outcome = run_campaign_durable(&config, shard, resume, |st| {
            executed += 1;
            let stopping = stop_after.is_some_and(|n| executed >= n);
            if let Some(path) = snapshot_path {
                if stopping || executed.is_multiple_of(snapshot_every) {
                    st.save(std::path::Path::new(path))?;
                }
            }
            Ok(if stopping {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            })
        })?;
        match outcome {
            Some(report) => report,
            None => {
                match snapshot_path {
                    Some(path) => eprintln!(
                        "  stopped after {executed} scenario(s); resume with --resume {path}"
                    ),
                    None => eprintln!(
                        "  stopped after {executed} scenario(s); no --snapshot, progress lost"
                    ),
                }
                return Ok(());
            }
        }
    };

    print_campaign_summary(&report);
    if let Some(path) = p.get("metrics-out") {
        std::fs::write(path, render_campaign_metrics(&report))?;
        eprintln!("  metrics written to {path}");
    }

    if let Some(shard) = shard {
        let path = p.get("out").expect("checked above");
        ShardReport { shard, report: report.clone() }.save(std::path::Path::new(path))?;
        eprintln!("  shard report written to {path}");
    } else {
        emit_campaign_report(&report, p.get("out"))?;
    }
    campaign_failures_check(&report)
}

/// `r2d3 campaign merge <shard>...`
fn campaign_merge(args: &[String]) -> CliResult {
    use r2d3_core::campaign::{merge_shards, ShardReport};

    let cmd =
        Command::new("campaign merge", "recombine per-shard reports into one campaign report")
            .positional("shard", "shard file written by `campaign --shard K/N --out FILE`")
            .trailing()
            .out_flag("report");
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let mut shards = Vec::with_capacity(p.positionals().len());
    for path in p.positionals() {
        shards.push(
            ShardReport::load(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?,
        );
    }
    let report = merge_shards(&shards)?;
    eprintln!("merged {} shard(s):", shards.len());
    print_campaign_summary(&report);
    emit_campaign_report(&report, p.get("out"))?;
    campaign_failures_check(&report)
}

/// Resolves `--kinds a,b,c` into scenario-kind ids (all kinds when absent).
pub(crate) fn parse_kinds(
    list: Option<&str>,
) -> Result<Vec<r2d3_core::campaign::KindId>, Box<dyn std::error::Error>> {
    use r2d3_core::campaign::{KindId, KIND_NAMES};
    let Some(list) = list else {
        return Ok(KindId::ALL.to_vec());
    };
    let mut kinds = Vec::new();
    for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let kind = KindId::from_name(name).ok_or_else(|| {
            format!("unknown fault kind `{name}` (known kinds: {})", KIND_NAMES.join(", "))
        })?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err("--kinds needs at least one fault kind".into());
    }
    Ok(kinds)
}

fn print_campaign_summary(report: &r2d3_core::campaign::CampaignReport) {
    use r2d3_core::campaign::Outcome;
    // Derived from `Outcome::ALL` so the line can never drift from the
    // outcome table; zero-count outcomes are elided to keep it readable.
    for sub in &report.substrates {
        let tallies: Vec<String> = Outcome::ALL
            .iter()
            .map(|o| (sub.outcome_count(*o), o.name()))
            .filter(|(n, _)| *n > 0)
            .map(|(n, name)| format!("{n} {name}"))
            .collect();
        eprintln!(
            "  {:>10}: {} scenarios — {}",
            sub.substrate,
            sub.results.len(),
            if tallies.is_empty() { "none ran".to_string() } else { tallies.join(", ") },
        );
    }
}

fn emit_campaign_report(
    report: &r2d3_core::campaign::CampaignReport,
    out: Option<&str>,
) -> CliResult {
    let json = r2d3_core::campaign::render_report(report);
    match out {
        Some(path) => {
            std::fs::write(path, &json)?;
            eprintln!("  report written to {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn campaign_failures_check(report: &r2d3_core::campaign::CampaignReport) -> CliResult {
    let failures = report.failures();
    if failures > 0 {
        return Err(format!(
            "{failures} scenario(s) ended in misdiagnosis, an undetected misroute, \
             silent corruption or engine failure"
        )
        .into());
    }
    Ok(())
}

/// Per-substrate sweep metrics as a standalone deterministic document.
fn render_campaign_metrics(report: &r2d3_core::campaign::CampaignReport) -> String {
    let mut out = String::from("{\n  \"substrates\": [\n");
    for (i, sub) in report.substrates.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"substrate\": \"{}\", \"detections\": {}, \"replays\": {}, \
             \"detection_latency\": {}, \"replay_count\": {}}}",
            sub.substrate,
            sub.metrics.detections,
            sub.metrics.replays,
            sub.metrics.detection_latency.to_json(),
            sub.metrics.replay_count.to_json()
        );
        out.push_str(if i + 1 < report.substrates.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `r2d3 trace`
pub fn trace(args: &[String]) -> CliResult {
    let cmd =
        Command::new("trace", "record a canonical detect → diagnose → repair scenario as a trace")
            .substrate_flag(false)
            .seed_flag()
            .epochs_flag()
            .flag("format", "NAME", "output format: chrome|jsonl")
            .out_flag("trace")
            .flag("check", "FILE", "validate an existing trace file and exit")
            .flag("stream-out", "FILE", "stream JSON-lines through the bounded sink to FILE")
            .flag(
                "rotate-bytes",
                "N",
                "rotate --stream-out into FILE, FILE.1, … once a segment reaches N bytes \
                 (0 = single unbounded file)",
            );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };

    if let Some(path) = p.get("check") {
        return check_trace(path);
    }

    let seed: u64 = p.get_or("seed", 7)?;
    let epochs: u64 = p.get_or("epochs", 24)?;
    let victim = StageId::new(2, Unit::Exu);

    if let Some(path) = p.get("stream-out") {
        let rotate_bytes: u64 = p.get_or("rotate-bytes", 0)?;
        let sink = StreamSink::to_file_rotating(path, OverflowPolicy::Block, rotate_bytes)?;
        let stats = match parse_substrate(p.get("substrate"), SubstrateChoice::Behavioral, false)? {
            SubstrateChoice::Behavioral => {
                stream_scenario(standard_system(seed)?, victim, seed, epochs, sink)?
            }
            SubstrateChoice::Netlist => {
                let sub = NetlistSubstrate::new(&NetlistSubstrateConfig::default());
                stream_scenario(sub, victim, seed, epochs, sink)?
            }
            SubstrateChoice::Both => unreachable!("rejected by parse_substrate"),
        };
        eprintln!(
            "{path}: {} records streamed ({} written, {} dropped, {} backpressure stalls)",
            stats.recorded, stats.written, stats.dropped, stats.stalls
        );
        return Ok(());
    }
    let (records, substrate) =
        match parse_substrate(p.get("substrate"), SubstrateChoice::Behavioral, false)? {
            SubstrateChoice::Behavioral => {
                (record_scenario(standard_system(seed)?, victim, seed, epochs)?, "behavioral")
            }
            SubstrateChoice::Netlist => {
                let sub = NetlistSubstrate::new(&NetlistSubstrateConfig::default());
                (record_scenario(sub, victim, seed, epochs)?, "netlist")
            }
            SubstrateChoice::Both => unreachable!("rejected by parse_substrate"),
        };

    let text = match p.get("format").unwrap_or("chrome") {
        "chrome" => chrome_trace(&records, substrate),
        "jsonl" => json_lines(&records),
        other => return Err(format!("unknown format `{other}` (chrome|jsonl)").into()),
    };
    match p.get("out") {
        Some(path) => {
            std::fs::write(path, &text)?;
            eprintln!("{} telemetry records written to {path}", records.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Runs the canonical single-permanent-fault scenario with a recording
/// sink and returns the telemetry it produced.
fn record_scenario<S: ReliabilitySubstrate>(
    mut sys: S,
    victim: StageId,
    seed: u64,
    epochs: u64,
) -> Result<Vec<TelemetryRecord>, Box<dyn std::error::Error>> {
    sys.inject_permanent_seeded(victim, seed)?;
    let mut engine = R2d3Engine::builder().telemetry(RingSink::new()).build()?;
    for _ in 0..epochs {
        engine.run_epoch(&mut sys)?;
    }
    Ok(engine.telemetry().records())
}

/// Same canonical scenario as [`record_scenario`], but with telemetry
/// streamed to disk through the bounded-channel [`StreamSink`] instead
/// of buffered in memory. Returns the sink's delivery accounting.
fn stream_scenario<S: ReliabilitySubstrate>(
    mut sys: S,
    victim: StageId,
    seed: u64,
    epochs: u64,
    sink: StreamSink,
) -> Result<StreamStats, Box<dyn std::error::Error>> {
    sys.inject_permanent_seeded(victim, seed)?;
    let mut engine = R2d3Engine::builder().telemetry(sink).build()?;
    for _ in 0..epochs {
        engine.run_epoch(&mut sys)?;
    }
    Ok(engine.into_telemetry().finish()?)
}

/// Largest trace `trace --check` reads: 256 MiB, about 30× the 8.2 MB
/// Chrome trace of the default `campaign --trace-out`.
const MAX_TRACE_BYTES: u64 = 256 << 20;

/// Validates a trace file emitted by any `--trace-out` (Chrome format)
/// or `trace --format jsonl` (JSON lines).
fn check_trace(path: &str) -> CliResult {
    let text = read_bounded(path, "trace file", MAX_TRACE_BYTES)?;
    // Both formats open with `{`; only the Chrome envelope opens with
    // its mandatory `traceEvents` key. JSON-lines records never do.
    let (kind, events) = if text.trim_start().starts_with("{\"traceEvents\"") {
        ("Chrome trace", validate_chrome_trace(&text)?)
    } else {
        ("JSON lines", validate_json_lines(&text)?)
    };
    println!("{path}: valid {kind} ({events} events)");
    Ok(())
}

/// `r2d3 import`
pub fn import(args: &[String]) -> CliResult {
    use r2d3_netlist::{analyze_levels, parse_yosys_json, rewrite, text_emit};

    let cmd = Command::new(
        "import",
        "import a Yosys `write_json` combinational core: validate it against the \
         IR invariants, run the deterministic rewrite passes, and emit the text \
         netlist format (feed the result to `campaign --core`)",
    )
    .positional("core.json", "Yosys `write_json` netlist file")
    .flag("top", "NAME", "module to import (default: the file's only module)")
    .out_flag("text netlist")
    .switch("no-rewrite", "skip the rewrite passes (validate and emit as imported)");
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let path = p.positional(0);
    let json = read_bounded(path, "core file", MAX_CORE_BYTES)?;
    let core = parse_yosys_json(&json, p.get("top")).map_err(|e| format!("{path}: {e}"))?;

    let ports = |ports: &[(String, usize)]| {
        ports.iter().map(|(n, w)| format!("{n}[{w}]")).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "{path}: module `{}` — {} inputs ({}), {} outputs ({}), {} gates, depth {}",
        core.name,
        core.netlist.num_inputs(),
        ports(&core.input_ports),
        core.netlist.outputs().len(),
        ports(&core.output_ports),
        core.netlist.gates().len(),
        analyze_levels(&core.netlist).depth(),
    );

    let netlist = if p.has("no-rewrite") {
        core.netlist
    } else {
        let outcome = rewrite(&core.netlist).map_err(|e| format!("{path}: {e}"))?;
        let s = &outcome.stats;
        eprintln!(
            "rewrite: {} → {} gates, depth {} → {} ({} consts folded, {} buffers removed, \
             {} duplicates merged, {} chains rebalanced, {} dead gates removed)",
            s.gates_before,
            s.gates_after,
            s.depth_before,
            s.depth_after,
            s.folded_constants,
            s.removed_buffers,
            s.merged_duplicates,
            s.rebalanced_chains,
            s.dead_gates_removed,
        );
        outcome.netlist
    };

    let text = text_emit(&netlist);
    match p.get("out") {
        Some(out) => {
            std::fs::write(out, &text)?;
            eprintln!("text netlist written to {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `r2d3 atpg`
pub fn atpg(args: &[String]) -> CliResult {
    use r2d3_atpg::campaign::{run_campaign, CampaignConfig};
    use r2d3_atpg::fault::collapsed_faults;
    use r2d3_atpg::flow::{run_full_flow, FlowConfig};
    use r2d3_atpg::report::unit_report;
    use r2d3_netlist::stages::{all_stage_netlists, StageSizing};

    let cmd = Command::new("atpg", "stuck-at coverage per pipeline-unit netlist")
        .flag("patterns", "N", "random patterns per unit")
        .switch("podem", "run PODEM cleanup on random-resistant faults");
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let patterns: usize = p.get_or("patterns", 8192)?;
    let use_podem = p.has("podem");

    println!(
        "stuck-at campaign: {patterns} random patterns{}",
        if use_podem { " + PODEM cleanup" } else { "" }
    );
    for sn in all_stage_netlists(&StageSizing::default()) {
        let faults = collapsed_faults(sn.netlist());
        let cc = CampaignConfig { max_patterns: patterns, seed: 7, threads: 8 };
        let report = if use_podem {
            let (outcome, _) = run_full_flow(
                sn.netlist(),
                &faults,
                &FlowConfig { random: cc, podem_backtracks: 4_000 },
            );
            unit_report(sn.unit().name(), &outcome)
        } else {
            unit_report(sn.unit().name(), &run_campaign(sn.netlist(), &faults, &cc))
        };
        println!(
            "{:4}: {:5} faults — detected {:5.1} %, undetected {:4.1} %, undetectable {:4.1} %",
            report.label,
            report.total,
            100.0 * report.detected as f64 / report.total as f64,
            100.0 * report.undetected as f64 / report.total as f64,
            100.0 * report.undetectable as f64 / report.total as f64,
        );
    }
    Ok(())
}

/// `r2d3 lifetime`
pub fn lifetime(args: &[String]) -> CliResult {
    let cmd = Command::new("lifetime", "NBTI-aware lifetime trajectory (Fig. 5)")
        .flag("policy", "P", "rotation policy: norecon|static|lite|pro")
        .flag("months", "N", "months to simulate (paper: 96)")
        .flag("workload", "K", "workload kernel: gemm|gemv|fft")
        .seed_flag()
        .metrics_out_flag()
        .trace_out_flag()
        .flag("resume", "FILE", "resume a run from a snapshot written by --snapshot")
        .flag("snapshot", "FILE", "write a crash-safe run snapshot here as months complete")
        .flag("snapshot-every", "N", "month-steps between snapshots (default 12)")
        .flag(
            "stop-after",
            "N",
            "stop (after snapshotting) once N month-steps ran this invocation",
        );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let policy_token = p.get("policy").unwrap_or("pro");
    let policy = r2d3_core::api::parse_policy(policy_token)
        .map_err(|_| format!("unknown policy `{policy_token}` (norecon|static|lite|pro)"))?;
    let months: usize = p.get_or("months", 96)?;
    let workload_token = p.get("workload").unwrap_or("gemm");
    let workload = r2d3_core::api::parse_workload(workload_token)
        .map_err(|_| format!("unknown workload `{workload_token}` (gemm|gemv|fft)"))?;

    // One JobSpec describes the run — the same description `r2d3 submit
    // lifetime` sends — and `to_config()` yields the exact config this
    // command used to assemble by hand.
    let spec = JobSpec::lifetime()
        .policy(policy)
        .months(months)
        .workload(workload)
        .seed(p.get_or("seed", 0x52D3)?)
        .build()
        .map_err(|e| e.to_string())?;
    let JobKind::Lifetime(lspec) = &spec.kind else { unreachable!("built as lifetime") };
    let config = lspec.to_config();
    let snapshot_path = p.get("snapshot");
    let snapshot_every: usize = p.get_or("snapshot-every", 12)?.max(1);
    let stop_after: Option<usize> = match p.get("stop-after") {
        Some(v) => Some(v.parse().map_err(|_| format!("invalid value for --stop-after: `{v}`"))?),
        None => None,
    };
    let durable = p.get("resume").is_some() || snapshot_path.is_some() || stop_after.is_some();

    println!("{policy} on {workload} for {months} months…");
    let out = if durable {
        let resume = p
            .get("resume")
            .map(|path| LifetimeRunState::load(std::path::Path::new(path)))
            .transpose()?;
        let mut executed = 0usize;
        let outcome = LifetimeSim::new(config).run_durable(resume, |st| {
            executed += 1;
            let stopping = stop_after.is_some_and(|n| executed >= n);
            if let Some(path) = snapshot_path {
                if stopping || executed.is_multiple_of(snapshot_every) {
                    st.save(std::path::Path::new(path))?;
                }
            }
            Ok(if stopping {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            })
        })?;
        match outcome {
            Some(out) => out,
            None => {
                match snapshot_path {
                    Some(path) => eprintln!(
                        "stopped after {executed} month-step(s); resume with --resume {path}"
                    ),
                    None => eprintln!(
                        "stopped after {executed} month-step(s); no --snapshot, progress lost"
                    ),
                }
                return Ok(());
            }
        }
    } else {
        let JobOutcome::Lifetime(out) = execute_local(&spec)? else {
            unreachable!("lifetime spec executes to a lifetime outcome")
        };
        *out
    };
    let outcome = JobOutcome::Lifetime(Box::new(out));
    let JobOutcome::Lifetime(out) = &outcome else { unreachable!() };
    let s = &out.series;
    println!("month   ΔVth(V)   MTTF(mo)   IPC   hottest(°C)");
    for m in (0..months).step_by((months / 8).max(1)).chain([months - 1]) {
        println!(
            "{:>5}   {:.4}    {:>6.0}   {:.2}   {:.1}",
            m, s.max_vth[m], s.mttf_months[m], s.norm_ipc[m], s.hottest_layer_temp[m]
        );
    }
    if let Some(path) = p.get("metrics-out") {
        // Rendered by the shared executor so the document is the same
        // bytes a served lifetime job's report carries.
        std::fs::write(path, render_outcome(&spec, &outcome))?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = p.get("trace-out") {
        std::fs::write(path, lifetime_counter_trace(s))?;
        eprintln!("counter trace written to {path} (load in Perfetto)");
    }
    Ok(())
}

/// `r2d3 thermal`
pub fn thermal(args: &[String]) -> CliResult {
    let cmd = Command::new("thermal", "steady-state stack heat map").flag(
        "active",
        "N",
        "powered layers (1..8)",
    );
    let Some(parsed) = cmd.parse(args)? else {
        return Ok(());
    };
    let active: usize = parsed.get_or("active", 8)?;

    let fp = Floorplan::opensparc_3d(8);
    let grid = ThermalGrid::new(&fp, &GridConfig::default());
    let physical = r2d3_physical::PhysicalModel::table_iii();
    let mut p = PowerMap::new(&fp);
    for layer in (8 - active.clamp(1, 8))..8 {
        for unit in Unit::ALL {
            p.add_block(layer, unit, physical.unit_powers_w()[unit.index()]);
        }
    }
    let t = grid.steady_state(&p)?;
    println!("{} active layers, {:.2} W total", active, p.total());
    for layer in (0..8).rev() {
        println!(
            "layer {layer}: avg {:6.1} °C  max {:6.1} °C",
            t.layer_avg(layer),
            t.layer_max(layer)
        );
    }
    let hottest = t.hottest_layer();
    let (lo, hi) = (t.layer_avg(0) - 10.0, t.layer_max(hottest));
    println!("\nhottest layer ({hottest}):");
    print!("{}", t.render_layer(hottest, lo, hi));
    Ok(())
}

/// `r2d3 chaos`
pub fn chaos(args: &[String]) -> CliResult {
    let cmd = Command::new(
        "chaos",
        "torture the durable stack with seeded I/O fault schedules (torn writes, \
         fsync/rename failures, ENOSPC, crash points) and verify the recovery contract",
    )
    .seed_flag()
    .flag("schedules", "N", "fault schedules to run, rotating over the five targets (default 256)")
    .switch("smoke", "CI-sized sweep (40 schedules)");
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let smoke = p.has("smoke");
    let config = r2d3_core::campaign::ChaosConfig {
        seed: p.get_or("seed", 0xC4A0)?,
        schedules: p.get_or("schedules", if smoke { 40 } else { 256 })?,
    };
    let report = r2d3_core::campaign::run_chaos(&config);
    print!("{}", report.render());
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "{} contract violation(s) — reproduce with `r2d3 chaos --seed {:#x} --schedules {}`",
            report.violations.len(),
            report.seed,
            report.schedules
        )
        .into())
    }
}

/// `r2d3 info`
pub fn info() -> CliResult {
    use r2d3_physical::{table, DesignVariant, PhysicalModel};
    let model = PhysicalModel::table_iii();
    println!("45 nm SOI physical anchor (paper Table III):");
    for row in &table::TABLE_III {
        println!(
            "  {:4}: {:.3} mm²  {:5.1} mW  crossbar +{:.1} %  checker +{:.2} %  protected {:.0} %",
            row.unit.name(),
            row.area_mm2,
            row.power_mw,
            row.crossbar_overhead_pct,
            row.checker_overhead_pct,
            row.protected_area_pct,
        );
    }
    let d = model.design(DesignVariant::R2d3);
    println!(
        "\nR2D3 vs NoRecon: area +{:.1} %, frequency −{:.1} % ({:.3} GHz), power +{:.1} %",
        100.0 * d.area_overhead,
        100.0 * d.frequency_overhead,
        d.frequency_ghz,
        100.0 * d.power_overhead,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_core::api::InputError;

    #[test]
    fn unit_names_parse_case_insensitively() {
        assert_eq!(parse_unit("exu").unwrap(), Unit::Exu);
        assert_eq!(parse_unit("LSU").unwrap(), Unit::Lsu);
        assert!(parse_unit("XYZ").is_err());
    }

    #[test]
    fn kinds_flag_parses_names_and_rejects_unknowns() {
        use r2d3_core::campaign::KindId;
        assert_eq!(parse_kinds(None).unwrap(), KindId::ALL.to_vec());
        assert_eq!(
            parse_kinds(Some("tsv_stuck, mux_select,tsv_stuck")).unwrap(),
            vec![KindId::TsvStuck, KindId::MuxSelect],
            "names trim whitespace and duplicates collapse"
        );
        assert!(parse_kinds(Some("warp_core")).unwrap_err().to_string().contains("tsv_bridge"));
        assert!(parse_kinds(Some(" , ")).is_err());
    }

    #[test]
    fn trace_round_trips_through_its_own_validator() {
        let records =
            record_scenario(standard_system(7).unwrap(), StageId::new(2, Unit::Exu), 7, 6).unwrap();
        assert!(!records.is_empty());
        let chrome = chrome_trace(&records, "behavioral");
        assert!(validate_chrome_trace(&chrome).unwrap() > 0);
        let jsonl = json_lines(&records);
        assert_eq!(validate_json_lines(&jsonl).unwrap(), records.len());
    }

    /// Asserts `result` is the typed refusal naming a `mib` MiB limit.
    fn assert_too_large(result: CliResult, mib: u64) {
        let err = result.expect_err("the input is refused");
        assert!(
            matches!(err.downcast_ref(), Some(InputError::TooLarge { limit, .. }) if *limit == mib << 20),
            "{err}"
        );
        assert!(err.to_string().ends_with(&format!("larger than the {mib} MiB limit")), "{err}");
    }

    /// Runs `command` on a sparse file one byte past `limit`: it takes no
    /// disk space, and is refused by its length before any read.
    fn one_byte_past(name: &str, limit: u64, command: impl Fn(&str) -> CliResult) -> CliResult {
        let path = std::env::temp_dir().join(format!("r2d3-{name}-{}", std::process::id()));
        std::fs::File::create(&path).unwrap().set_len(limit + 1).unwrap();
        let result = command(path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        result
    }

    fn import_path(path: &str) -> CliResult {
        import(&[path.to_string()])
    }

    fn check_path(path: &str) -> CliResult {
        trace(&["--check".to_string(), path.to_string()])
    }

    fn run_path(path: &str) -> CliResult {
        run(&[path.to_string()])
    }

    #[test]
    fn import_refuses_a_core_one_byte_past_the_limit() {
        assert_too_large(one_byte_past("big-core.json", MAX_CORE_BYTES, import_path), 64);
    }

    #[test]
    fn trace_check_refuses_a_trace_one_byte_past_the_limit() {
        assert_too_large(one_byte_past("big-trace.json", MAX_TRACE_BYTES, check_path), 256);
    }

    #[test]
    fn run_refuses_a_source_one_byte_past_the_limit() {
        assert_too_large(one_byte_past("big-source.s", MAX_SOURCE_BYTES, run_path), 16);
    }

    #[cfg(unix)]
    #[test]
    fn import_refuses_an_endless_device() {
        assert_too_large(import_path("/dev/zero"), 64);
    }

    #[cfg(unix)]
    #[test]
    fn run_refuses_an_endless_device() {
        assert_too_large(run_path("/dev/zero"), 16);
    }
}
