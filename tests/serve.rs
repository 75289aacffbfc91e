//! Integration tests for the `r2d3 serve` job daemon: the serving
//! contract from DESIGN.md §5.0, driven over real unix sockets against
//! in-process [`Daemon`]s.
//!
//! * served == batch, byte-compared — a job's fetched report is exactly
//!   what [`execute_local`] + [`render_outcome`] produce for the same
//!   spec, including after forced worker losses mid-unit;
//! * killed workers resume, not restart — a daemon restarted over the
//!   same state directory finishes the jobs the first daemon accepted;
//! * malformed input never kills the daemon — typed error responses,
//!   connection stays usable, including for over-deep and over-long
//!   lines;
//! * disk pressure parks a job instead of failing it — it reports
//!   `degraded`, un-parks when writes succeed again, and still lands on
//!   the batch bytes;
//! * fairness is deterministic — the dispatch order for a contended
//!   queue is a documented function of quotas alone, independent of
//!   the worker count, and per-job results don't change with it.

#![cfg(unix)]

use r2d3::engine::api::{
    execute_local, render_outcome, JobEvent, JobId, JobSpec, JobState, PROTO_VERSION,
};
use r2d3::engine::campaign::{KindId, SubstrateKind};
use r2d3::engine::chaos::{FaultPlan, FaultyFs, IoEnv};
use r2d3::engine::serve::{Client, Daemon, Listen, ServeConfig, MAX_REQUEST_LINE};
use r2d3::engine::telemetry::OverflowPolicy;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-test scratch directory (state dir + socket), recreated fresh.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("r2d3-serve-tests-{}", std::process::id())).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn daemon_at(dir: &std::path::Path, config: ServeConfig) -> (Daemon, Listen) {
    let listen = Listen::Unix(dir.join("d.sock"));
    let daemon = Daemon::start(config, &listen).unwrap();
    (daemon, listen)
}

/// A quick behavioral campaign spec: `scenarios` scenarios of one fault
/// kind, sharded `shards` ways.
fn quick_campaign(seed: u64, scenarios: usize, shards: usize) -> JobSpec {
    JobSpec::campaign()
        .seed(seed)
        .scenarios(scenarios)
        .substrates(vec![SubstrateKind::Behavioral])
        .kinds(vec![KindId::ALL[0]])
        .shards(shards)
        .build()
        .unwrap()
}

/// The batch-path bytes for a spec: execute in-process, render.
fn batch_bytes(spec: &JobSpec) -> String {
    render_outcome(spec, &execute_local(spec).unwrap())
}

fn wait_all_terminal(client: &mut Client, deadline: Duration) {
    let start = Instant::now();
    loop {
        let jobs = client.status(None).unwrap();
        if !jobs.is_empty() && jobs.iter().all(|j| j.state.is_terminal()) {
            return;
        }
        assert!(start.elapsed() < deadline, "jobs did not all finish: {jobs:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Forced worker losses (the lease) interrupt every unit mid-run; each
/// resumes from its last checkpoint, and the merged report is still
/// byte-identical to the batch path.
#[test]
fn leased_units_resume_and_report_matches_batch() {
    let dir = scratch("lease");
    let (daemon, listen) = daemon_at(
        &dir,
        ServeConfig {
            state_dir: dir.join("state"),
            workers: 2,
            lease_steps: Some(2),
            ..ServeConfig::default()
        },
    );

    let spec = quick_campaign(0xBEEF, 6, 2);
    let mut client = Client::connect(&listen).unwrap();
    let job = client.submit("tester", &spec).unwrap();

    let mut losses = 0;
    let mut checkpoints = 0;
    let terminal = client
        .watch(job, OverflowPolicy::Block, |ev| match ev {
            JobEvent::WorkerLost { .. } => losses += 1,
            JobEvent::Checkpointed { .. } => checkpoints += 1,
            _ => {}
        })
        .unwrap();
    assert_eq!(terminal, JobEvent::Completed { job });
    // 3 steps per unit with a 2-step lease: every unit is interrupted
    // at least once, so the report below was provably assembled from
    // resumed state, not a clean run.
    assert!(losses >= 2, "expected every unit to lose its worker at least once, saw {losses}");
    assert!(checkpoints >= losses, "every loss checkpoints first");

    assert_eq!(client.result(job).unwrap(), batch_bytes(&spec), "served != batch");

    daemon.shutdown();
    daemon.join();
}

/// Jobs accepted by one daemon are finished by the next daemon started
/// over the same state directory — acceptance survives the process.
#[test]
fn restarted_daemon_finishes_accepted_jobs() {
    let dir = scratch("restart");
    let state_dir = dir.join("state");
    let spec = quick_campaign(0xD1E, 5, 2);

    // Daemon A: paused, so the job is durably accepted but no unit
    // runs before the shutdown.
    let (daemon_a, listen) = daemon_at(
        &dir,
        ServeConfig { state_dir: state_dir.clone(), paused: true, ..ServeConfig::default() },
    );
    let job = {
        let mut client = Client::connect(&listen).unwrap();
        let job = client.submit("tester", &spec).unwrap();
        client.shutdown_server().unwrap();
        job
    };
    daemon_a.join();

    // Daemon B over the same state dir picks the job up and runs it.
    let (daemon_b, listen) = daemon_at(&dir, ServeConfig { state_dir, ..ServeConfig::default() });
    let mut client = Client::connect(&listen).unwrap();
    let mut saw_accepted = false;
    let terminal = client
        .watch(job, OverflowPolicy::Block, |ev| {
            // The pre-restart history (the acceptance) replays first.
            if matches!(ev, JobEvent::Accepted { .. }) {
                saw_accepted = true;
            }
        })
        .unwrap();
    assert!(saw_accepted, "watch must replay pre-restart history");
    assert_eq!(terminal, JobEvent::Completed { job });
    assert_eq!(client.result(job).unwrap(), batch_bytes(&spec), "served != batch after restart");

    let status = client.status(Some(job)).unwrap();
    assert_eq!(status.len(), 1);
    assert_eq!(status[0].state, JobState::Completed);
    assert_eq!(status[0].units_done, 2);

    daemon_b.shutdown();
    daemon_b.join();
}

/// Canceling latches: a queued job cancels immediately, a second cancel
/// reports it was already terminal, and the daemon stays up throughout.
#[test]
fn cancel_latches_and_reports_terminal_state() {
    let dir = scratch("cancel");
    let (daemon, listen) = daemon_at(
        &dir,
        ServeConfig { state_dir: dir.join("state"), paused: true, ..ServeConfig::default() },
    );
    let mut client = Client::connect(&listen).unwrap();
    let job = client.submit("tester", &quick_campaign(1, 4, 1)).unwrap();

    assert!(client.cancel(job).unwrap(), "queued job cancels");
    assert!(!client.cancel(job).unwrap(), "second cancel finds it already terminal");
    let status = client.status(Some(job)).unwrap();
    assert_eq!(status[0].state, JobState::Canceled);
    assert!(client.cancel(JobId(0x77)).is_err(), "unknown job is a typed remote error");

    daemon.shutdown();
    daemon.join();
}

/// Hostile input: every malformed line gets a one-line typed error
/// response, the connection survives all of them, and a well-formed
/// request still works afterwards on the same socket.
#[test]
fn malformed_lines_get_typed_errors_and_connection_survives() {
    let dir = scratch("fuzz");
    let (daemon, listen) = daemon_at(
        &dir,
        ServeConfig { state_dir: dir.join("state"), paused: true, ..ServeConfig::default() },
    );
    let Listen::Unix(sock) = &listen else { unreachable!() };

    let stream = UnixStream::connect(sock).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let deep = "[".repeat(1_000_000);
    // A valid request padded past the cap: only the cap can reject it.
    let status = format!("{{\"proto_version\":{PROTO_VERSION},\"op\":\"status\",\"job\":null}}");
    let long = " ".repeat(MAX_REQUEST_LINE + 1 - status.len()) + &status;
    let probes: &[(&str, &str)] = &[
        ("not json at all", "syntax"),
        (&deep, "syntax"),
        (&long, "syntax"),
        ("{\"op\":\"status\"}", "missing"),
        ("{\"proto_version\":99,\"op\":\"status\",\"job\":null}", "version"),
        ("{\"proto_version\":1,\"op\":\"launch\"}", "unknown_op"),
        ("{\"proto_version\":1,\"op\":\"cancel\",\"job\":\"zebra\"}", "invalid"),
        ("[1,2,3]", "missing"),
        ("{\"proto_version\":1,\"op\":\"submit\",\"client\":\"x\",\"spec\":{\"proto_version\":1,\"kind\":\"tournament\",\"priority\":0}}", "unknown_kind"),
        // Admission would allocate per unit before any work runs: a
        // billion scenarios (and shards) must be refused, not admitted.
        ("{\"proto_version\":1,\"op\":\"submit\",\"client\":\"x\",\"spec\":{\"proto_version\":1,\"kind\":\"campaign\",\"priority\":0,\"seed\":\"7\",\"scenarios\":1000000000,\"substrates\":[\"behavioral\"],\"kinds\":[\"permanent\"],\"core\":null,\"shards\":1000000000}}", "invalid"),
    ];
    for (line, code) in probes {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let probe = &line[..line.len().min(40)];
        assert!(
            reply.contains(&format!("\"code\":\"{code}\"")),
            "probe {probe:?} expected error class {code:?}, got: {reply}"
        );
        assert!(reply.contains("\"ok\":false"), "got: {reply}");
    }

    // Same connection, now a valid request: still served.
    writeln!(writer, "{{\"proto_version\":{PROTO_VERSION},\"op\":\"status\",\"job\":null}}")
        .unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "connection must survive bad lines, got: {reply}");

    daemon.shutdown();
    daemon.join();
}

/// Persistent disk pressure from the first unit checkpoint on: the job
/// must park as `degraded` (in its status and as an event) instead of
/// failing, then un-park once writes succeed again and complete with
/// the batch report's bytes.
fn degraded_job_unparks_and_matches_batch(name: &str, spec: &JobSpec) {
    let dir = scratch(name);
    let fs = FaultyFs::new(FaultPlan::clean());
    let (daemon, listen) = daemon_at(
        &dir,
        ServeConfig {
            state_dir: PathBuf::from("/state"),
            paused: true,
            io: IoEnv::with_vfs(Arc::new(fs.clone())),
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&listen).unwrap();
    let mut status = Client::connect(&listen).unwrap();
    let job = client.submit("tester", spec).unwrap();
    fs.set_plan(FaultPlan { enospc_window: Some((fs.op_count(), u64::MAX)), ..FaultPlan::clean() });
    daemon.release();

    let mut degraded = 0;
    let terminal = client
        .watch(job, OverflowPolicy::Block, |ev| {
            if matches!(ev, JobEvent::Degraded { .. }) {
                degraded += 1;
                assert_eq!(status.status(Some(job)).unwrap()[0].state, JobState::Degraded);
                fs.set_plan(FaultPlan::clean());
            }
        })
        .unwrap();
    assert_eq!(degraded, 1, "the job must park exactly once");
    assert_eq!(terminal, JobEvent::Completed { job });
    assert_eq!(client.result(job).unwrap(), batch_bytes(spec), "served != batch after parking");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn disk_full_campaign_parks_then_completes_byte_identically() {
    degraded_job_unparks_and_matches_batch("degraded-campaign", &quick_campaign(0xD15C, 3, 1));
}

#[test]
fn disk_full_lifetime_parks_then_completes_byte_identically() {
    let spec = JobSpec::lifetime().months(2).build().unwrap();
    degraded_job_unparks_and_matches_batch("degraded-lifetime", &spec);
}

/// Two clients with 3:1 quotas submitting one-unit jobs: the dispatch
/// order is the documented deficit pattern (`ab` then `aaab` repeating,
/// then the surplus), identical for 1 worker and 3 workers, and every
/// job's report is identical across the two runs.
#[test]
fn fairness_dispatch_is_deterministic_across_worker_counts() {
    let run = |workers: usize| -> (Vec<String>, Vec<(JobId, String)>) {
        let dir = scratch(&format!("fair-{workers}"));
        let (daemon, listen) = daemon_at(
            &dir,
            ServeConfig {
                state_dir: dir.join("state"),
                workers,
                quotas: vec![("alice".to_string(), 3)],
                paused: true,
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(&listen).unwrap();
        let mut jobs = Vec::new();
        // Submission order fixes the job ids, so both runs see the
        // same queue; dispatch starts only at release().
        for i in 0..12u64 {
            jobs.push(client.submit("alice", &quick_campaign(100 + i, 1, 1)).unwrap());
        }
        for i in 0..4u64 {
            jobs.push(client.submit("bob", &quick_campaign(200 + i, 1, 1)).unwrap());
        }
        daemon.release();
        wait_all_terminal(&mut client, Duration::from_secs(120));
        let reports = jobs.iter().map(|&j| (j, client.result(j).unwrap())).collect::<Vec<_>>();
        let log = daemon.dispatch_log();
        daemon.shutdown();
        daemon.join();
        (log, reports)
    };

    let (log1, reports1) = run(1);
    let (log3, reports3) = run(3);

    // The pick order is a pure function of the queue, not the workers.
    assert_eq!(log1, log3, "dispatch order must not depend on worker count");

    // And it is the documented 3:1 deficit pattern.
    let letters: String =
        log1.iter().map(|entry| if entry.starts_with("alice:") { 'a' } else { 'b' }).collect();
    assert_eq!(letters, "abaaabaaabaaabaa");

    // Same inputs, same results, regardless of parallelism.
    assert_eq!(reports1, reports3, "per-job reports must not depend on worker count");
}
