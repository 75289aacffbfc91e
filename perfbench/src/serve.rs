//! The `serve` workload: an in-process daemon with `r2d3 serve` defaults
//! (but one worker) and one closed-loop client, plus the snapshot-growth
//! probe.
//!
//! Why this workload: it runs the same code as the batch workloads, but
//! through the wire codec, the scheduler, the event hub, the durable
//! runners and one fsync'd checkpoint per step — so runner and snapshot
//! changes show here and not in the other two workloads.

use crate::report::Report;
use crate::trace::Tracer;
use crate::{mix, passes, set_ups};
use r2d3_core::api::{execute_local, render_outcome, JobEvent, JobKind, JobSpec};
use r2d3_core::campaign::{run_campaign_durable, SubstrateKind, INJECTABLE_UNITS};
use r2d3_core::lifetime::LifetimeSim;
use r2d3_core::serve::{Client, Daemon, Listen, ServeConfig};
use r2d3_core::telemetry::OverflowPolicy;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workload's default seed.
pub const DEFAULT_SEED: u64 = 0x5E5E;
/// Jobs of each kind per pass: a median with ten samples beyond it.
const JOBS_PER_KIND: u64 = 20;
/// Scenarios per substrate of each campaign job (two shards).
const CAMPAIGN_SCENARIOS: usize = 6;
/// Months of each lifetime job.
const LIFETIME_MONTHS: usize = 6;
/// Snapshot saves the probe collects per durable type, at least.
const PROBE_SAVES: usize = 20;
const KINDS: [&str; 3] = ["campaign", "lifetime", "inject"];

/// The fixed, interleaved job list: campaign, lifetime, inject, repeated.
fn plan(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for i in 0..JOBS_PER_KIND {
        let s = mix(seed, i);
        jobs.push(
            JobSpec::campaign()
                .seed(s)
                .scenarios(CAMPAIGN_SCENARIOS)
                .shards(2)
                .build()
                .expect("valid campaign job"),
        );
        jobs.push(
            JobSpec::lifetime()
                .months(LIFETIME_MONTHS)
                .seed(s)
                .build()
                .expect("valid lifetime job"),
        );
        let substrate = if i % 2 == 0 { SubstrateKind::Behavioral } else { SubstrateKind::Netlist };
        let unit = INJECTABLE_UNITS[(i as usize / 2) % INJECTABLE_UNITS.len()];
        jobs.push(
            JobSpec::inject(unit, (s % 5) as usize)
                .substrate(substrate)
                .seed(s)
                .build()
                .expect("valid inject job"),
        );
    }
    jobs
}

fn kind_index(spec: &JobSpec) -> usize {
    KINDS.iter().position(|k| *k == spec.kind_name()).expect("three job kinds")
}

/// Client-side timestamps of one job.
struct JobRun {
    kind: usize,
    submit_s: f64,
    queue_s: Option<f64>,
    unit_s: Vec<f64>,
    finalize_s: Option<f64>,
    result_s: f64,
    total_s: f64,
    checkpoints: u64,
    report: Option<String>,
}

/// Submits a job, watches it to its terminal event and fetches its report.
fn run_job(client: &mut Client, spec: &JobSpec, tracer: &mut Tracer) -> Result<JobRun, String> {
    let t0 = Instant::now();
    let id = client.submit("bench", spec).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut started: Vec<(u64, Instant)> = Vec::new();
    let mut done: Vec<(u64, Instant)> = Vec::new();
    let mut checkpoints = 0;
    let terminal = client
        .watch(id, OverflowPolicy::Block, |ev| {
            let now = Instant::now();
            match ev {
                JobEvent::Started { unit, .. } => started.push((*unit, now)),
                JobEvent::UnitDone { unit, .. } => done.push((*unit, now)),
                JobEvent::Checkpointed { .. } => checkpoints += 1,
                _ => {}
            }
        })
        .map_err(|e| e.to_string())?;
    let t_end = Instant::now();
    let completed = matches!(terminal, JobEvent::Completed { .. });
    let t2 = Instant::now();
    let report = if completed { Some(client.result(id).map_err(|e| e.to_string())?) } else { None };
    let t3 = Instant::now();

    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let unit_s: Vec<f64> = started
        .iter()
        .filter_map(|(u, s)| done.iter().find(|(d, _)| d == u).map(|(_, e)| secs(*s, *e)))
        .collect();
    let first_start = started.iter().map(|s| s.1).min();
    let last_done = done.iter().map(|d| d.1).max();
    if tracer.enabled() {
        let job = tracer.push(
            &format!("serve.job.{}", spec.kind_name()),
            id.0,
            None,
            tracer.at(t0),
            tracer.at(t3),
        );
        let mut child = |name: &str, a: Instant, b: Instant| {
            let (a, b) = (tracer.at(a), tracer.at(b));
            tracer.push(name, id.0, Some(job), a, b);
        };
        child("serve.submit", t0, t1);
        if let Some(s) = first_start {
            child("serve.queue", t1, s);
        }
        for (u, s) in &started {
            if let Some((_, e)) = done.iter().find(|(d, _)| d == u) {
                child("serve.unit", *s, *e);
            }
        }
        if let Some(d) = last_done {
            child("serve.finalize", d, t_end);
        }
        child("serve.result", t2, t3);
    }
    Ok(JobRun {
        kind: kind_index(spec),
        submit_s: secs(t0, t1),
        queue_s: first_start.map(|s| secs(t1, s)),
        unit_s,
        finalize_s: last_done.map(|d| secs(d, t_end)),
        result_s: secs(t2, t3),
        total_s: secs(t0, t3),
        checkpoints,
        report,
    })
}

/// A one-worker daemon over a fresh state directory, and
/// one client connected to it.
struct Session {
    daemon: Daemon,
    client: Client,
    dir: PathBuf,
}

impl Session {
    /// Starts a session in a fresh directory `dir`; also returns the
    /// seconds `Daemon::start` plus `Client::connect` took (the workload's
    /// set-up; preparing the directory is not part of it).
    fn start(dir: PathBuf) -> Result<(Session, f64), String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        // A relative socket path keeps it under the unix-socket length
        // limit wherever the checkout lives.
        let listen = Listen::Unix(dir.join("sock"));
        // One worker: `r2d3 serve` starts two, but on a two-vCPU host a
        // job's parallel shards wait on whichever vCPU a neighbour slows
        // (10-seed spread of `wall_s`: 23 % with two workers); the wire,
        // scheduler, event and checkpoint paths are the same.
        let config =
            ServeConfig { state_dir: dir.join("state"), workers: 1, ..ServeConfig::default() };
        let t0 = Instant::now();
        let daemon = Daemon::start(config, &listen).map_err(|e| e.to_string())?;
        match Client::connect(&listen) {
            Ok(client) => Ok((Session { daemon, client, dir }, t0.elapsed().as_secs_f64())),
            Err(e) => {
                daemon.shutdown();
                daemon.join();
                Err(e.to_string())
            }
        }
    }

    fn stop(self) {
        drop(self.client);
        self.daemon.shutdown();
        self.daemon.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Times one set-up: a fresh daemon started and a client connected to
/// it; both are stopped afterwards, untimed.
fn time_session(out: &Path, rep: &mut u64, error: &mut Option<String>) -> f64 {
    *rep += 1;
    match Session::start(out.join(format!("serve-{}-{rep}", std::process::id()))) {
        Ok((session, secs)) => {
            session.stop();
            secs
        }
        Err(e) => {
            *error = Some(e);
            f64::NAN
        }
    }
}

/// Runs the job list once; `None` when the connection broke.
fn pass(
    client: &mut Client,
    jobs: &[JobSpec],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<Vec<JobRun>> {
    let mut runs = Vec::with_capacity(jobs.len());
    for spec in jobs {
        match run_job(client, spec, tracer) {
            Ok(run) => runs.push(run),
            Err(e) => {
                report.check(&format!("job round trip ({e})"), false);
                return None;
            }
        }
    }
    Some(runs)
}

/// Batch reports of every job, computed outside the timed region on
/// `threads` threads, and the batch seconds per kind (a clean base only
/// when `threads` is 1).
fn batch(jobs: &[JobSpec], threads: usize) -> (Vec<Option<String>>, [f64; 3]) {
    let threads = threads.clamp(1, jobs.len().max(1));
    // Per worker: (job index, report) pairs and batch seconds per kind.
    type Stripe = (Vec<(usize, Option<String>)>, [f64; 3]);
    let stripes: Vec<Stripe> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut secs = [0.0; 3];
                    let mut out = Vec::new();
                    for (i, spec) in jobs.iter().enumerate().skip(t).step_by(threads) {
                        let t0 = Instant::now();
                        out.push((i, execute_local(spec).ok().map(|o| render_outcome(spec, &o))));
                        secs[kind_index(spec)] += t0.elapsed().as_secs_f64();
                    }
                    (out, secs)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("batch worker panicked")).collect()
    });
    let mut reports = vec![None; jobs.len()];
    let mut secs = [0.0; 3];
    for (out, s) in stripes {
        for (i, r) in out {
            reports[i] = r;
        }
        for k in 0..3 {
            secs[k] += s[k];
        }
    }
    (reports, secs)
}

/// Counts jobs, checks every served report against its batch bytes.
fn check_runs(passes: &[Vec<JobRun>], batch: &[Option<String>], report: &mut Report) {
    let (mut jobs, mut bad) = (0u64, 0u64);
    for runs in passes {
        for (run, expected) in runs.iter().zip(batch) {
            jobs += 1;
            if run.report.is_none() || run.report != *expected {
                bad += 1;
            }
        }
    }
    report.attempted += jobs;
    report.failed += bad;
    report.check(
        &format!("{bad} of {jobs} served jobs not Completed or not equal to their batch report"),
        bad == 0 && batch.iter().all(Option::is_some),
    );
}

fn job_seconds(passes: &[Vec<JobRun>], kind: usize) -> Vec<f64> {
    passes.iter().flatten().filter(|r| r.kind == kind).map(|r| r.total_s).collect()
}

/// Untraced passes for `seconds`: records the workload's end-to-end
/// metrics and returns the first pass's wall time.
pub fn untraced(seed: u64, seconds: f64, out: &Path, report: &mut Report) -> f64 {
    let (mut setups, mut rep, mut error) = (Vec::new(), 0, None);
    let jobs = plan(seed);
    let mut all = Vec::new();
    let walls = passes(seconds, || {
        // Set-ups are sampled with no daemon running, and every pass gets a
        // fresh daemon and state directory, as a user's first job would.
        set_ups(&mut setups, || time_session(out, &mut rep, &mut error));
        if error.is_some() {
            return None;
        }
        let (mut session, secs) = Session::start(out.join(format!("serve-{}", std::process::id())))
            .map_err(|e| error = Some(e))
            .ok()?;
        setups.push(secs);
        let t0 = Instant::now();
        let runs = pass(&mut session.client, &jobs, &mut Tracer::new(false), report);
        let wall = t0.elapsed().as_secs_f64();
        if all.is_empty() {
            crate::record_peak_rss(report);
        }
        session.stop();
        all.push(runs?);
        Some(wall)
    });
    report.check(&format!("every daemon starts and accepts a client ({error:?})"), error.is_none());
    if walls.is_empty() {
        return f64::NAN;
    }
    report.add_median("setup_s", &setups, "s", "daemon starts");
    let (expected, _) = batch(&jobs, crate::host_parallelism());
    check_runs(&all, &expected, report);
    report.add_median("wall_s", &walls, "s", &format!("passes of {} jobs", jobs.len()));
    report.add_pct("campaign_job_p50_s", &job_seconds(&all, 0), 0.5, 1.0, "s");
    report.add_pct("lifetime_job_p50_s", &job_seconds(&all, 1), 0.5, 1.0, "s");
    walls[0]
}

/// One traced pass: records the serve layer's metrics (client-side
/// timestamps and the event stream) and returns its wall time.
pub fn traced(seed: u64, out: &Path, tracer: &mut Tracer, report: &mut Report) -> f64 {
    let Some((mut session, _)) =
        Session::start(out.join(format!("serve-{}-traced", std::process::id())))
            .map_err(|e| report.check(&format!("daemon starts ({e})"), false))
            .ok()
    else {
        return f64::NAN;
    };
    let jobs = plan(seed);
    let t0 = Instant::now();
    let runs =
        tracer.span("serve.pass", 0, |tracer| pass(&mut session.client, &jobs, tracer, report));
    let wall = t0.elapsed().as_secs_f64();
    session.stop();
    let Some(runs) = runs else {
        return f64::NAN;
    };
    let (expected, batch_s) = tracer.span("serve.batch", 0, |_| batch(&jobs, 1));
    let all = [runs];
    check_runs(&all, &expected, report);
    let runs = &all[0];

    let pick = |f: &dyn Fn(&JobRun) -> Option<f64>| runs.iter().filter_map(f).collect::<Vec<f64>>();
    report.add_pct("serve.submit_ms.p50", &pick(&|r| Some(r.submit_s)), 0.5, 1e3, "ms");
    report.add_pct("serve.queue_ms.p50", &pick(&|r| r.queue_s), 0.5, 1e3, "ms");
    for (k, kind) in KINDS.iter().enumerate() {
        let unit: Vec<f64> =
            runs.iter().filter(|r| r.kind == k).flat_map(|r| r.unit_s.clone()).collect();
        report.add_pct(&format!("serve.unit_s.{kind}.p50"), &unit, 0.5, 1.0, "s");
    }
    report.add_pct("serve.finalize_ms.p50", &pick(&|r| r.finalize_s), 0.5, 1e3, "ms");
    report.add_pct("serve.result_ms.p50", &pick(&|r| Some(r.result_s)), 0.5, 1e3, "ms");
    report.add_pct("serve.inject_job_ms.p50", &job_seconds(&all, 2), 0.5, 1e3, "ms");
    report.add(
        "serve.checkpoints",
        runs.iter().map(|r| r.checkpoints).sum::<u64>() as f64,
        "count",
        format!("one pass of {} jobs", runs.len()),
    );
    for (k, kind) in KINDS.iter().enumerate() {
        let served: f64 = job_seconds(&all, k).iter().sum();
        report.add(
            &format!("serve.slowdown.{kind}"),
            served / batch_s[k],
            "x",
            format!("served {served:.4} s over batch base {:.4} s", batch_s[k]),
        );
    }
    tracer.span("snapshot.probe", 0, |_| snapshot_probe(&jobs, out, report));
    wall
}

/// Drives the durable runners for one served spec of each kind, saving
/// the state after every step as the daemon does, and records each save's
/// time and size.
fn snapshot_probe(jobs: &[JobSpec], out: &Path, report: &mut Report) {
    let dir = out.join(format!("snapshot-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.check(&format!("snapshot probe directory ({e})"), false);
        return;
    }
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());

    let campaign = jobs.iter().find_map(|j| match &j.kind {
        JobKind::Campaign(c) => c.to_config().ok(),
        _ => None,
    });
    let path = dir.join("campaign.snap");
    let (mut save_ms, mut bytes) = (Vec::new(), Vec::new());
    let mut ok = campaign.is_some();
    // One durable run of the spec saves once per scenario step; repeat
    // the run until the percentile has enough samples.
    while ok && save_ms.len() < PROBE_SAVES {
        let first_run = bytes.is_empty();
        let config = campaign.as_ref().expect("checked above");
        ok &= run_campaign_durable(config, None, None, |st| {
            let t0 = Instant::now();
            st.save(&path)?;
            save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if first_run {
                bytes.push(size(&path));
            }
            Ok(ControlFlow::Continue(()))
        })
        .is_ok_and(|r| r.is_some());
    }
    report.check("snapshot probe: durable campaign completes", ok);
    report.add_pct("snapshot.campaign_save_ms.p50", &save_ms, 0.5, 1.0, "ms");
    report.add(
        "snapshot.campaign_bytes.max",
        bytes.iter().copied().max().unwrap_or(0) as f64,
        "B",
        "final state",
    );
    report.add(
        "snapshot.campaign_bytes.total",
        bytes.iter().sum::<u64>() as f64,
        "B",
        format!("{} saves of one run", bytes.len()),
    );

    let lifetime = jobs.iter().find_map(|j| match &j.kind {
        JobKind::Lifetime(l) => Some(l.to_config()),
        _ => None,
    });
    let path = dir.join("lifetime.snap");
    let (mut save_ms, mut bytes) = (Vec::new(), Vec::new());
    let ok = lifetime.is_some_and(|cfg| {
        LifetimeSim::new(cfg)
            .run_durable(None, |st| {
                let t0 = Instant::now();
                st.save(&path)?;
                save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                bytes.push(size(&path));
                Ok(ControlFlow::Continue(()))
            })
            .is_ok_and(|r| r.is_some())
    });
    report.check("snapshot probe: durable lifetime run completes", ok);
    report.add_pct("snapshot.lifetime_save_ms.p50", &save_ms, 0.5, 1.0, "ms");
    report.add(
        "snapshot.lifetime_bytes",
        bytes.iter().copied().max().unwrap_or(0) as f64,
        "B",
        "largest state",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
