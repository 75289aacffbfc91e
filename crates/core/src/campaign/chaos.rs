//! Chaos torture harness: seeded fault schedules over the durable stack.
//!
//! Each *schedule* takes one durable subsystem — snapshot container,
//! durable campaign, durable lifetime, telemetry stream sink, or the
//! serve job store — puts it on a [`FaultyFs`] with a deterministically
//! derived [`FaultPlan`] (torn writes, fsync/rename failures, ENOSPC
//! windows, a crash point), runs a workload against it, and checks the
//! reliability contract the rest of the crate promises:
//!
//! * **No panics.** Every fault surfaces as a typed error.
//! * **No silent corruption.** A durable artifact read back at any
//!   point — including after a crash rollback — is a byte-exact
//!   previously written version, never garbage. Digest/format errors
//!   from a *committed* artifact are violations.
//! * **Byte-identical resume.** A campaign or lifetime run that
//!   crashes and resumes from its checkpoint produces exactly the
//!   report an uninterrupted run produces ([`PartialEq`] on the report
//!   structures, which is the same as comparing rendered bytes).
//! * **Exact accounting.** Stream sinks reconcile
//!   `recorded == written + dropped` whenever they finish cleanly, and
//!   fail with a typed error otherwise.
//!
//! Schedules are pure functions of `(seed, index)`: a failing index
//! reproduces by itself, which is what makes `r2d3 chaos --seed S`
//! a regression command rather than a flake generator.

use super::durable::{run_campaign_durable, CampaignState, ShardReport, ShardSpec};
use super::runner::{CampaignConfig, SubstrateKind};
use crate::api::wire::JobState;
use crate::api::JobSpec;
use crate::chaos::{injected_fault, splitmix64, FaultPlan, FaultyFs, InjectedFault, IoEnv, Vfs};
use crate::lifetime::{LifetimeConfig, LifetimeOutcome, LifetimeSim};
use crate::policy::PolicyKind;
use crate::serve::store::JobRec;
use crate::snapshot::{self, SnapshotError};
use crate::telemetry::{
    validate_json_lines, OverflowPolicy, StreamSink, TelemetryEvent, TelemetryRecord, TelemetrySink,
};
use crate::EngineError;
use r2d3_thermal::GridConfig;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;

/// The durable subsystems a schedule can torture, in rotation order.
pub const CHAOS_TARGETS: [&str; 5] = ["snapshot", "campaign", "lifetime", "stream", "serve-store"];

/// Most re-run attempts a single schedule may take to drive its
/// workload to completion through the fault plan. Probabilistic faults
/// have 1-in-N odds per op with fresh op indices every attempt, so a
/// schedule that can complete at all converges far below this; hitting
/// the bound is itself reported as a violation.
const MAX_ATTEMPTS: u32 = 64;

/// Chaos sweep configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; schedule `i` derives its plan from `(seed, i)`.
    pub seed: u64,
    /// Fault schedules to run (rotating over [`CHAOS_TARGETS`]).
    pub schedules: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 0xC4A0, schedules: 256 }
    }
}

/// Outcome of a chaos sweep. `violations` empty means every schedule
/// upheld the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Master seed the sweep ran under.
    pub seed: u64,
    /// Schedules executed.
    pub schedules: u64,
    /// Schedules per target, in [`CHAOS_TARGETS`] order.
    pub per_target: [u64; 5],
    /// Crash points that fired (each followed by a restart + recovery).
    pub crashes: u64,
    /// Typed injected faults observed (non-crash).
    pub faults: u64,
    /// Contract violations, each tagged with its schedule index — a
    /// failing index replays alone via the same seed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether every schedule upheld the reliability contract.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "chaos sweep: seed {:#x}, {} schedule(s)", self.seed, self.schedules);
        for (name, runs) in CHAOS_TARGETS.iter().zip(self.per_target) {
            let _ = writeln!(out, "  {name:<12} {runs} schedule(s)");
        }
        let _ = writeln!(out, "  crashes injected   {}", self.crashes);
        let _ = writeln!(out, "  faults injected    {}", self.faults);
        if self.violations.is_empty() {
            let _ = writeln!(out, "  contract           upheld (0 violations)");
        } else {
            let _ = writeln!(out, "  VIOLATIONS         {}", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "    - {v}");
            }
        }
        out
    }
}

/// Counters one schedule feeds back into the sweep report.
#[derive(Default)]
struct Tally {
    crashes: u64,
    faults: u64,
}

/// Derives schedule `i`'s fault plan from the master seed. Half the
/// schedules carry a crash point; the rest mix probabilistic faults
/// and occasional ENOSPC pressure windows.
fn plan_for(seed: u64, schedule: u64) -> FaultPlan {
    let h = splitmix64(seed ^ schedule.wrapping_mul(0xA5A5_5A5A_0F0F_F0F0).wrapping_add(1));
    let crash = h & 1 == 0;
    FaultPlan {
        seed: splitmix64(h),
        torn_write_in: 3 + ((h >> 8) as u32 % 4),
        enospc_in: if (h >> 2) & 7 == 0 { 9 } else { 0 },
        fsync_fail_in: 4 + ((h >> 16) as u32 % 4),
        rename_fail_in: 6 + ((h >> 24) as u32 % 4),
        crash_at: crash.then(|| 4 + ((h >> 32) % 48)),
        enospc_window: (!crash && (h >> 5) & 3 == 0)
            .then(|| ((h >> 40) % 24, (h >> 40) % 24 + 8 + (h >> 48) % 16)),
    }
}

fn injected_in_snap(e: &SnapshotError) -> Option<InjectedFault> {
    match e {
        SnapshotError::Io(io) => injected_fault(io),
        _ => None,
    }
}

fn injected_in_engine(e: &EngineError) -> Option<InjectedFault> {
    match e {
        EngineError::Snapshot(s) => injected_in_snap(s),
        _ => None,
    }
}

/// Runs the whole sweep. Never panics and never errors: everything a
/// schedule can do wrong lands in [`ChaosReport::violations`].
#[must_use]
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport {
        seed: config.seed,
        schedules: config.schedules,
        per_target: [0; 5],
        crashes: 0,
        faults: 0,
        violations: Vec::new(),
    };
    for i in 0..config.schedules {
        let target = (i % CHAOS_TARGETS.len() as u64) as usize;
        report.per_target[target] += 1;
        let plan = plan_for(config.seed, i);
        let mut tally = Tally::default();
        let result = match target {
            0 => torture_snapshot(&plan, i, &mut tally),
            1 => torture_campaign(&plan, i, &mut tally),
            2 => torture_lifetime(&plan, i, &mut tally),
            3 => torture_stream(&plan, i, &mut tally),
            _ => torture_store(&plan, i, &mut tally),
        };
        report.crashes += tally.crashes;
        report.faults += tally.faults;
        if let Err(v) = result {
            report.violations.push(format!("schedule {i} ({}): {v}", CHAOS_TARGETS[target]));
        }
    }
    report
}

/// Creates a scratch directory *durably* (created and dir-synced under
/// whatever plan is active — call before arming faults): the schedules
/// torture the artifacts inside the directory, not the fixture itself.
fn scratch_dir(fs: &FaultyFs, dir: &Path) -> Result<(), String> {
    fs.create_dir_all(dir).map_err(|e| e.to_string())?;
    fs.sync_dir(dir).map_err(|e| e.to_string())
}

/// Reads `path` through the fault-free [`MemFs`] view and checks it is
/// a byte-exact member of `allowed` — the no-silent-corruption check.
fn check_visible(
    fs: &FaultyFs,
    path: &Path,
    kind: &'static str,
    allowed: &[&[u8]],
    ctx: &str,
) -> Result<(), String> {
    let mem = fs.mem();
    match snapshot::read_verified_with(&mem, path, kind) {
        Ok(body) => {
            if allowed.contains(&body.as_bytes()) {
                Ok(())
            } else {
                Err(format!("{ctx}: visible body is none of the written versions"))
            }
        }
        Err(e) => Err(format!("{ctx}: committed artifact unreadable: {e}")),
    }
}

/// Target 0: the `R2D3SNAP` atomic-write container itself. Generations
/// of bodies are written through the fault plan; at every failure the
/// visible artifact must still be a previously written generation, and
/// after a crash rollback it must be exactly the last *committed* one.
fn torture_snapshot(plan: &FaultPlan, schedule: u64, tally: &mut Tally) -> Result<(), String> {
    let fs = FaultyFs::new(FaultPlan::clean());
    let dir = Path::new("/chaos");
    let path = dir.join("state.r2d3s");
    scratch_dir(&fs, dir)?;
    let seed_tag = splitmix64(plan.seed);
    let gen_body = |g: u64| format!("generation {g} of schedule {schedule} ({seed_tag:016x})");

    // Generation 0 commits fault-free: a durable baseline always exists.
    snapshot::write_atomic_with(&fs, &path, "chaos", gen_body(0).as_bytes())
        .map_err(|e| format!("clean baseline write failed: {e}"))?;
    let mut committed = gen_body(0).into_bytes();
    // Bodies that may be *visible* (renamed into place) without being
    // durable yet — acceptable to observe until the next crash.
    let mut pending: Vec<Vec<u8>> = Vec::new();

    fs.set_plan(plan.clone());
    for g in 1..=8u64 {
        let body = gen_body(g).into_bytes();
        match snapshot::write_atomic_with(&fs, &path, "chaos", &body) {
            Ok(()) => {
                committed = body;
                pending.clear();
            }
            Err(e) => match injected_in_snap(&e) {
                Some(InjectedFault::Crash) => {
                    tally.crashes += 1;
                    fs.restart();
                    // Rollback: only the dir-synced generation survives.
                    check_visible(&fs, &path, "chaos", &[&committed], "after crash rollback")?;
                    pending.clear();
                }
                Some(_) => {
                    tally.faults += 1;
                    // The write may have landed (rename done, dir sync
                    // failed) or not; either way the artifact must read
                    // back as one exact written version.
                    pending.push(body);
                    let mut allowed: Vec<&[u8]> = vec![&committed];
                    allowed.extend(pending.iter().map(Vec::as_slice));
                    check_visible(&fs, &path, "chaos", &allowed, "after injected fault")?;
                }
                None => return Err(format!("untyped write error: {e}")),
            },
        }
    }
    let mut allowed: Vec<&[u8]> = vec![&committed];
    allowed.extend(pending.iter().map(Vec::as_slice));
    check_visible(&fs, &path, "chaos", &allowed, "final state")
}

/// Drives a durable runner to completion through the fault plan:
/// `run_once(resume)` executes (checkpointing through the faulty fs)
/// and `reload()` recovers the checkpoint after a failure. Returns the
/// completed value and counts crashes/faults into the tally.
fn drive<T, S>(
    fs: &FaultyFs,
    tally: &mut Tally,
    mut run_once: impl FnMut(Option<S>) -> Result<T, (Option<InjectedFault>, String)>,
    mut reload: impl FnMut() -> Option<S>,
) -> Result<T, String> {
    let mut resume: Option<S> = None;
    for _ in 0..MAX_ATTEMPTS {
        match run_once(resume.take()) {
            Ok(done) => return Ok(done),
            Err((Some(InjectedFault::Crash), _)) => {
                tally.crashes += 1;
                fs.restart();
                resume = reload();
            }
            Err((Some(_), _)) => {
                tally.faults += 1;
                resume = reload();
            }
            Err((None, msg)) => return Err(format!("untyped durable-run error: {msg}")),
        }
    }
    Err(format!("schedule did not converge within {MAX_ATTEMPTS} attempts"))
}

/// Target 1: the durable campaign runner. A clean reference run fixes
/// the expected report; the chaos run checkpoints through the faulty
/// fs, crashes, resumes — and must produce the identical report.
fn torture_campaign(plan: &FaultPlan, schedule: u64, tally: &mut Tally) -> Result<(), String> {
    let config = CampaignConfig {
        seed: splitmix64(plan.seed ^ 0xCA),
        scenarios_per_substrate: 3,
        substrates: vec![SubstrateKind::Behavioral],
        ..Default::default()
    };
    let shard = ShardSpec::new(1, 1).map_err(|e| e.to_string())?;
    let reference =
        run_campaign_durable(&config, Some(shard), None, |_| Ok(ControlFlow::Continue(())))
            .map_err(|e| format!("clean reference run failed: {e}"))?
            .map(|report| ShardReport { shard, report })
            .expect("observer never breaks");

    let fs = FaultyFs::new(FaultPlan::clean());
    let dir = Path::new("/campaign");
    let path = dir.join("unit.state.r2d3s");
    scratch_dir(&fs, dir)?;
    fs.set_plan(plan.clone());
    let env = IoEnv::with_vfs(Arc::new(fs.clone()));

    let torture = drive(
        &fs,
        tally,
        |resume| {
            run_campaign_durable(&config, Some(shard), resume, |st| {
                env.retry_snapshot(|| st.save_with(env.vfs.as_ref(), &path))?;
                Ok(ControlFlow::Continue(()))
            })
            .map(|r| ShardReport { shard, report: r.expect("observer never breaks") })
            .map_err(|e| (injected_in_snap(&e), e.to_string()))
        },
        || CampaignState::load_with(&fs.mem(), &path).ok(),
    )?;
    if torture == reference {
        Ok(())
    } else {
        Err(format!("resumed campaign report diverged from clean run (schedule {schedule})"))
    }
}

/// Target 2: the durable lifetime runner, same contract as the
/// campaign — crash, resume from checkpoint, byte-identical outcome.
fn torture_lifetime(plan: &FaultPlan, schedule: u64, tally: &mut Tally) -> Result<(), String> {
    let config = LifetimeConfig {
        months: 2,
        replicas: 1,
        threads: 1,
        mttf_trials: 16,
        seed: splitmix64(plan.seed ^ 0x11FE) | 1,
        grid: GridConfig { nx: 6, ny: 4, ..Default::default() },
        ..LifetimeConfig::new(PolicyKind::Pro, 0.75, 0.85)
    };
    let sim = LifetimeSim::new(config);
    let reference: LifetimeOutcome = sim
        .run_durable(None, |_| Ok(ControlFlow::Continue(())))
        .map_err(|e| format!("clean reference run failed: {e}"))?
        .expect("observer never breaks");

    let fs = FaultyFs::new(FaultPlan::clean());
    let dir = Path::new("/lifetime");
    let path = dir.join("unit.state.r2d3s");
    scratch_dir(&fs, dir)?;
    fs.set_plan(plan.clone());
    let env = IoEnv::with_vfs(Arc::new(fs.clone()));

    let torture = drive(
        &fs,
        tally,
        |resume| {
            sim.run_durable(resume, |st| {
                env.retry_snapshot(|| st.save_with(env.vfs.as_ref(), &path))
                    .map_err(EngineError::Snapshot)?;
                Ok(ControlFlow::Continue(()))
            })
            .map(|r| r.expect("observer never breaks"))
            .map_err(|e| (injected_in_engine(&e), e.to_string()))
        },
        || crate::lifetime::LifetimeRunState::load_with(&fs.mem(), &path).ok(),
    )?;
    if torture == reference {
        Ok(())
    } else {
        Err(format!("resumed lifetime outcome diverged from clean run (schedule {schedule})"))
    }
}

/// Target 3: the telemetry stream sink. The writer thread runs on the
/// faulty fs; whatever happens, the sink must finish with exact
/// accounting or a typed error — and the bytes on disk must be intact
/// JSON lines (a torn tail is allowed, mid-file garbage is not).
fn torture_stream(plan: &FaultPlan, schedule: u64, tally: &mut Tally) -> Result<(), String> {
    let fs = FaultyFs::new(FaultPlan::clean());
    let dir = Path::new("/stream");
    let path = dir.join("trace.jsonl");
    scratch_dir(&fs, dir)?;
    fs.set_plan(plan.clone());
    let policy = if schedule & 8 == 0 { OverflowPolicy::Block } else { OverflowPolicy::Drop };

    let total = 120u64;
    let mut sink = match StreamSink::to_file_with(&fs, &path, policy) {
        Ok(s) => s,
        Err(e) if injected_fault(&e).is_some() => {
            // The create itself faulted — a typed error, contract held.
            tally.faults += 1;
            return Ok(());
        }
        Err(e) => return Err(format!("untyped create error: {e}")),
    };
    for i in 0..total {
        sink.record(TelemetryRecord {
            epoch: i,
            cycle: i * 10,
            event: TelemetryEvent::Scan { tested: 3, untested: 0, detections: 0 },
        });
    }
    let clean_finish = match sink.finish() {
        Ok(stats) => {
            if stats.recorded != total {
                return Err(format!("recorded {} of {total} records", stats.recorded));
            }
            if stats.recorded != stats.written + stats.dropped {
                return Err(format!(
                    "accounting does not reconcile: {} != {} + {}",
                    stats.recorded, stats.written, stats.dropped
                ));
            }
            true
        }
        Err(e) if injected_fault(&e).is_some() => {
            // Typed error: the log is declared suspect, which is the
            // contract — a fault may leave a torn tail behind.
            tally.faults += 1;
            false
        }
        Err(e) => return Err(format!("untyped stream error: {e}")),
    };
    if fs.crashed() {
        tally.crashes += 1;
        fs.restart();
    }

    // A *clean* finish promised intact output: every line must parse.
    if clean_finish {
        let raw = fs.mem().read(&path).map_err(|e| format!("clean log unreadable: {e}"))?;
        let text = String::from_utf8_lossy(&raw);
        validate_json_lines(&text)
            .map_err(|e| format!("corruption in cleanly finished stream log: {e}"))?;
    }
    Ok(())
}

/// Target 4: the serve job store. Job manifests are saved through an
/// [`IoEnv`] with retry (exactly as the daemon does), crashed over,
/// and must always load back as an exact previously saved lifecycle
/// state.
fn torture_store(plan: &FaultPlan, schedule: u64, tally: &mut Tally) -> Result<(), String> {
    let fs = FaultyFs::new(FaultPlan::clean());
    let state_dir = Path::new("/serve");
    let spec = JobSpec::lifetime()
        .months(1)
        .seed(splitmix64(plan.seed ^ schedule))
        .build()
        .map_err(|e| e.to_string())?;
    let mut rec = JobRec::new(0x2a, 1, "chaos".into(), spec);
    scratch_dir(&fs, &JobRec::dir(state_dir, rec.id))?;
    let env = IoEnv::with_vfs(Arc::new(fs.clone()));
    rec.save(&env, state_dir).map_err(|e| format!("clean baseline save failed: {e}"))?;

    fs.set_plan(plan.clone());
    let states = [JobState::Running, JobState::Degraded, JobState::Running, JobState::Completed];
    let mut committed = (rec.state, rec.unit_progress[0]);
    let mut pending: Vec<(JobState, u64)> = Vec::new();
    for (g, state) in states.iter().enumerate() {
        rec.state = *state;
        rec.unit_progress[0] = g as u64 + 1;
        rec.error = (*state == JobState::Degraded).then(|| "disk pressure".to_string());
        match rec.save(&env, state_dir) {
            Ok(()) => {
                committed = (rec.state, rec.unit_progress[0]);
                pending.clear();
            }
            Err(e) => match injected_in_snap(&e) {
                Some(InjectedFault::Crash) => {
                    tally.crashes += 1;
                    fs.restart();
                    pending.clear();
                    let back = load_manifest(&fs, state_dir, rec.id)?;
                    if (back.state, back.unit_progress[0]) != committed {
                        return Err(
                            "manifest after crash rollback is not the committed version".into()
                        );
                    }
                }
                Some(_) => {
                    tally.faults += 1;
                    pending.push((rec.state, rec.unit_progress[0]));
                    let back = load_manifest(&fs, state_dir, rec.id)?;
                    let got = (back.state, back.unit_progress[0]);
                    if got != committed && !pending.contains(&got) {
                        return Err("manifest after fault is none of the saved versions".into());
                    }
                }
                None => return Err(format!("untyped manifest save error: {e}")),
            },
        }
    }
    Ok(())
}

fn load_manifest(fs: &FaultyFs, state_dir: &Path, id: u64) -> Result<JobRec, String> {
    let mem = fs.mem();
    JobRec::load(&mem, &JobRec::manifest_path(state_dir, id))
        .map_err(|e| format!("committed manifest unreadable: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_diverse() {
        let a = plan_for(7, 3);
        assert_eq!(a, plan_for(7, 3));
        assert_ne!(a, plan_for(7, 4));
        let crashes = (0..64).filter(|i| plan_for(7, *i).crash_at.is_some()).count();
        assert!(crashes > 16 && crashes < 48, "crash mix should be near half, got {crashes}");
    }

    /// One schedule per target, fixed seed — the cheap always-on check;
    /// `tests/chaos.rs` runs the full 256-schedule sweep.
    #[test]
    fn five_schedule_smoke_upholds_contract() {
        let report = run_chaos(&ChaosConfig { seed: 0x5EED, schedules: 5 });
        assert_eq!(report.per_target, [1, 1, 1, 1, 1]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.render().contains("contract"));
    }
}
