//! The job daemon: socket front end, admission, worker pool, durable
//! execution and recovery.
//!
//! Locking discipline: `jobs` before `sched` before `parked` when more
//! than one is needed; event emission ([`EventHub::emit`]) never takes
//! any of them, so it may be called with or without them held (helpers
//! here emit *after* releasing `jobs` so a blocked watcher can never
//! stall status queries).
//!
//! Every durable byte goes through [`ServeConfig::io`]: transient
//! write/fsync/rename faults get a bounded retry on the env's clock;
//! persistent `ENOSPC` parks the affected job ([`JobState::Degraded`],
//! units moved off the run queue) instead of failing it, and a periodic
//! write probe un-parks everything once the state directory accepts
//! writes again.

use super::events::EventHub;
use super::sched::{QueueEntry, Scheduler};
use super::store::{scan_jobs, JobRec};
use super::{Listen, ServeConfig, ServeError};
use crate::api::wire::{JobEvent, JobState, Reply, Request, Response};
use crate::api::{
    render_outcome, run_inject_with, ApiError, CampaignSpec, InjectSpec, JobId, JobKind,
    JobOutcome, JobSpec, LifetimeSpec,
};
use crate::campaign::{
    merge_shards, render_report, run_campaign_durable, CampaignState, ShardReport, ShardSpec,
};
use crate::chaos::{is_disk_full, IoEnv};
use crate::lifetime::{LifetimeRunState, LifetimeSim};
use crate::snapshot::SnapshotError;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::ops::ControlFlow;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Inner {
    config: ServeConfig,
    jobs: Mutex<BTreeMap<u64, JobRec>>,
    sched: Mutex<Scheduler>,
    cond: Condvar,
    hub: EventHub,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    dispatch_log: Mutex<Vec<String>>,
    /// Units parked by disk-pressure degradation: off the run queue
    /// until a write probe succeeds, never lost.
    parked: Mutex<Vec<QueueEntry>>,
}

impl Inner {
    fn env(&self) -> &IoEnv {
        &self.config.io
    }
}

/// A running `r2d3 serve` daemon. Dropping the handle does **not**
/// stop it — call [`Daemon::shutdown`] then [`Daemon::join`] (or let a
/// remote `shutdown` request do it).
pub struct Daemon {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, recovers persisted jobs from the state
    /// directory (non-terminal jobs re-queue and resume from their unit
    /// checkpoints), and starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on bind failure or unreadable state.
    pub fn start(config: ServeConfig, listen: &Listen) -> Result<Daemon, ServeError> {
        let env = config.io.clone();
        env.vfs.create_dir_all(&config.state_dir)?;
        let hub = EventHub::new(env.clone());
        let mut sched = Scheduler::new(config.default_quota, &config.quotas, config.paused);
        let mut jobs = BTreeMap::new();
        let (mut next_id, mut next_seq) = (1u64, 1u64);
        for mut j in scan_jobs(env.vfs.as_ref(), &config.state_dir)? {
            next_id = next_id.max(j.id + 1);
            next_seq = next_seq.max(j.seq + 1);
            hub.preload(j.id, &JobRec::events_path(&config.state_dir, j.id))?;
            if !j.state.is_terminal() {
                // A job mid-run (or parked for disk pressure) when the
                // previous daemon died starts over from Queued; its
                // units resume from their checkpoints.
                if j.state == JobState::Running || j.state == JobState::Degraded {
                    j.state = JobState::Queued;
                    j.error = None;
                    j.save(&env, &config.state_dir)?;
                }
                for unit in 0..j.units() {
                    if !j.unit_done[unit as usize] {
                        sched.push(QueueEntry {
                            client: j.client.clone(),
                            job: j.id,
                            seq: j.seq,
                            priority: j.spec.priority,
                            unit,
                        });
                    }
                }
            }
            jobs.insert(j.id, j);
        }

        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            config,
            jobs: Mutex::new(jobs),
            sched: Mutex::new(sched),
            cond: Condvar::new(),
            hub,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(next_id),
            next_seq: AtomicU64::new(next_seq),
            dispatch_log: Mutex::new(Vec::new()),
            parked: Mutex::new(Vec::new()),
        });

        let accept = spawn_accept(&inner, listen)?;
        let workers = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("r2d3-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Daemon { inner, accept: Some(accept), workers })
    }

    /// Unpauses dispatch (no-op unless started with
    /// [`ServeConfig::paused`]).
    pub fn release(&self) {
        self.inner.sched.lock().unwrap().release();
        self.inner.cond.notify_all();
    }

    /// The dispatch decisions taken so far, in order, as
    /// `client:jobid.unit` strings — the observable scheduler trace the
    /// fairness contract is tested against.
    #[must_use]
    pub fn dispatch_log(&self) -> Vec<String> {
        self.inner.dispatch_log.lock().unwrap().clone()
    }

    /// Asks every thread to stop. Running units checkpoint and exit at
    /// their next observer step; their jobs resume on the next start
    /// over the same state directory.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cond.notify_all();
    }

    /// Waits for the accept loop and workers to finish (connection
    /// handler threads are detached and die with their sockets).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn spawn_accept(inner: &Arc<Inner>, listen: &Listen) -> Result<JoinHandle<()>, ServeError> {
    enum Bound {
        Unix(UnixListener),
        Tcp(TcpListener),
    }
    let bound = match listen {
        Listen::Unix(path) => {
            // The socket file is ephemeral plumbing, not durable state —
            // clearing a stale one bypasses the chaos Vfs seam on purpose.
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Bound::Unix(l)
        }
        Listen::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            Bound::Tcp(l)
        }
    };
    let inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name("r2d3-accept".into())
        .spawn(move || loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let conn: Option<(Box<dyn Read + Send>, Box<dyn Write + Send>)> = match &bound {
                Bound::Unix(l) => match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(false);
                        match s.try_clone() {
                            Ok(r) => Some((Box::new(r), Box::new(s))),
                            Err(_) => None,
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => return,
                },
                Bound::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(false);
                        match s.try_clone() {
                            Ok(r) => Some((Box::new(r), Box::new(s))),
                            Err(_) => None,
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => return,
                },
            };
            match conn {
                Some((reader, writer)) => {
                    let inner = Arc::clone(&inner);
                    let _ = std::thread::Builder::new()
                        .name("r2d3-conn".into())
                        .spawn(move || handle_conn(&inner, reader, writer));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        })
        .map_err(ServeError::Io)?;
    Ok(handle)
}

// --- connection handling -------------------------------------------

fn write_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// Longest request line the daemon reads: 1 MiB. A request carries a
/// spec and at most a `core` path, never file contents; a longer line
/// gets a typed `syntax` error and the connection keeps serving.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Reads one request line, terminator included, into `buf`. Returns
/// `Ok(None)` at end of stream and `Ok(Some(false))` for a line longer
/// than [`MAX_REQUEST_LINE`], whose rest is skipped up to its newline
/// one bounded read at a time.
fn read_request_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    let mut within_cap = true;
    loop {
        buf.clear();
        let read = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', buf)?;
        if read == 0 && within_cap {
            return Ok(None);
        }
        if read == 0 || buf.ends_with(b"\n") || buf.len() <= MAX_REQUEST_LINE {
            return Ok(Some(within_cap));
        }
        within_cap = false;
    }
}

fn handle_conn(inner: &Arc<Inner>, reader: Box<dyn Read + Send>, mut out: Box<dyn Write + Send>) {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    while let Ok(Some(within_cap)) = read_request_line(&mut reader, &mut buf) {
        let decoded = if within_cap {
            let Ok(line) = std::str::from_utf8(&buf) else { return };
            if line.trim().is_empty() {
                continue;
            }
            Request::decode(line)
        } else {
            Err(ApiError::Syntax(format!("request line longer than {MAX_REQUEST_LINE} bytes")))
        };
        let req = match decoded {
            Ok(req) => req,
            Err(e) => {
                // A malformed line is the sender's problem, not the
                // daemon's: typed error back, connection stays usable.
                if write_line(&mut out, &Response::protocol_error(&e).encode()).is_err() {
                    return;
                }
                continue;
            }
        };
        match serve_request(inner, req, &mut out) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
    }
}

fn err_response(code: &str, message: String) -> Response {
    Response::Err { code: code.into(), message }
}

/// Handles one decoded request. `Ok(false)` closes the connection.
fn serve_request(inner: &Arc<Inner>, req: Request, out: &mut impl Write) -> std::io::Result<bool> {
    match req {
        Request::Submit { client, spec } => {
            let resp = match admit(inner, client, spec) {
                Ok(id) => Response::Ok(Reply::Submitted { job: JobId(id) }),
                Err(e) => err_response("rejected", e.to_string()),
            };
            write_line(out, &resp.encode())?;
        }
        Request::Status { job } => {
            let jobs = inner.jobs.lock().unwrap();
            let resp = match job {
                Some(id) => match jobs.get(&id.0) {
                    Some(j) => Response::Ok(Reply::Jobs(vec![j.status()])),
                    None => err_response("not_found", format!("no job {id}")),
                },
                None => Response::Ok(Reply::Jobs(jobs.values().map(JobRec::status).collect())),
            };
            drop(jobs);
            write_line(out, &resp.encode())?;
        }
        Request::Watch { job, overflow } => {
            if !inner.jobs.lock().unwrap().contains_key(&job.0) {
                write_line(out, &err_response("not_found", format!("no job {job}")).encode())?;
                return Ok(true);
            }
            // Subscribe *before* replying so the reply/replay/live
            // sequence is gapless.
            let (history, rx) = inner.hub.subscribe(job.0, overflow);
            write_line(out, &Response::Ok(Reply::Watching { job }).encode())?;
            let mut terminal = false;
            for ev in &history {
                terminal = ev.is_terminal();
                write_line(out, &ev.encode())?;
            }
            if let Some(rx) = rx {
                while !terminal {
                    let Ok(ev) = rx.recv() else { break };
                    terminal = ev.is_terminal();
                    write_line(out, &ev.encode())?;
                }
            }
        }
        Request::Cancel { job } => {
            let resp = match cancel_job(inner, job.0) {
                Some(canceled) => Response::Ok(Reply::Canceled { job, canceled }),
                None => err_response("not_found", format!("no job {job}")),
            };
            write_line(out, &resp.encode())?;
        }
        Request::Result { job } => {
            let state = inner.jobs.lock().unwrap().get(&job.0).map(|j| j.state);
            let resp = match state {
                None => err_response("not_found", format!("no job {job}")),
                Some(JobState::Completed) => {
                    let path = JobRec::report_path(&inner.config.state_dir, job.0);
                    match inner
                        .env()
                        .vfs
                        .read(&path)
                        .map_err(|e| e.to_string())
                        .and_then(|raw| String::from_utf8(raw).map_err(|e| e.to_string()))
                    {
                        Ok(report) => Response::Ok(Reply::Report { job, report }),
                        Err(e) => err_response("io", format!("report for {job}: {e}")),
                    }
                }
                Some(st) => err_response("not_ready", format!("job {job} is {}", st.token())),
            };
            write_line(out, &resp.encode())?;
        }
        Request::Shutdown => {
            write_line(out, &Response::Ok(Reply::ShuttingDown).encode())?;
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.cond.notify_all();
            return Ok(false);
        }
    }
    Ok(true)
}

fn admit(inner: &Arc<Inner>, client: String, spec: JobSpec) -> Result<u64, ServeError> {
    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    let seq = inner.next_seq.fetch_add(1, Ordering::SeqCst);
    let rec = JobRec::new(id, seq, client.clone(), spec);
    let units = rec.units();
    let priority = rec.spec.priority;
    let env = inner.env();
    env.vfs.create_dir_all(&JobRec::dir(&inner.config.state_dir, id))?;
    // The job directory's *entry* must be durable too, or a crash could
    // forget an accepted job — same bug class as the snapshot rename.
    env.retry_io(|| env.vfs.sync_dir(&inner.config.state_dir))?;
    rec.save(env, &inner.config.state_dir)?;
    inner.hub.open(id, &JobRec::events_path(&inner.config.state_dir, id))?;
    inner.jobs.lock().unwrap().insert(id, rec);
    inner.hub.emit(&JobEvent::Accepted { job: JobId(id), units });
    {
        let mut sched = inner.sched.lock().unwrap();
        for unit in 0..units {
            sched.push(QueueEntry { client: client.clone(), job: id, seq, priority, unit });
        }
    }
    inner.cond.notify_all();
    Ok(id)
}

/// `None` = unknown job; `Some(false)` = already terminal.
fn cancel_job(inner: &Arc<Inner>, id: u64) -> Option<bool> {
    let mut emit_canceled = false;
    {
        let mut jobs = inner.jobs.lock().unwrap();
        let j = jobs.get_mut(&id)?;
        if j.state.is_terminal() {
            return Some(false);
        }
        j.cancel_requested = true;
        inner.sched.lock().unwrap().remove_job(id);
        inner.parked.lock().unwrap().retain(|e| e.job != id);
        if j.running_units == 0 {
            j.state = JobState::Canceled;
            let _ = j.save(inner.env(), &inner.config.state_dir);
            emit_canceled = true;
        }
        // Units already on a worker observe the latch at their next
        // step, checkpoint, and the last one out finalizes the cancel.
    }
    if emit_canceled {
        inner.hub.emit(&JobEvent::Canceled { job: JobId(id) });
    }
    Some(true)
}

// --- workers -------------------------------------------------------

enum UnitRun {
    Done,
    Interrupted(Stop),
    Failed(String),
}

#[derive(Clone, PartialEq)]
enum Stop {
    Shutdown,
    Cancel,
    Lease,
    /// Persistent disk pressure: the unit parks instead of failing.
    Degraded(String),
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        maybe_unpark(inner);
        let entry = {
            let mut sched = inner.sched.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(e) = sched.pick() {
                    // Logged before the queue lock drops, so the log
                    // order is the pick order for any worker count.
                    inner
                        .dispatch_log
                        .lock()
                        .unwrap()
                        .push(format!("{}:{:08x}.{}", e.client, e.job, e.unit));
                    break Some(e);
                }
                let (guard, timeout) =
                    inner.cond.wait_timeout(sched, Duration::from_millis(200)).unwrap();
                sched = guard;
                if timeout.timed_out() {
                    // Release the queue lock so the outer loop can
                    // re-probe parked (degraded) work without holding
                    // `sched` across the jobs lock.
                    break None;
                }
            }
        };
        let Some(entry) = entry else { continue };
        run_unit(inner, entry);
    }
}

/// When parked units exist, probes the state directory with a small
/// write+fsync; on success every parked unit re-queues and its job
/// leaves [`JobState::Degraded`]. Pressure still present → leave them
/// parked and try again on the next idle tick.
fn maybe_unpark(inner: &Arc<Inner>) {
    if inner.parked.lock().unwrap().is_empty() {
        return;
    }
    let env = inner.env();
    let probe = inner.config.state_dir.join(".write-probe");
    let probe_ok = (|| -> std::io::Result<()> {
        let mut f = env.vfs.create(&probe)?;
        f.write_all(b"probe")?;
        f.sync_all()?;
        drop(f);
        env.vfs.remove_file(&probe)
    })()
    .is_ok();
    if !probe_ok {
        return;
    }
    let entries: Vec<QueueEntry> = std::mem::take(&mut *inner.parked.lock().unwrap());
    if entries.is_empty() {
        return;
    }
    {
        let mut jobs = inner.jobs.lock().unwrap();
        let mut sched = inner.sched.lock().unwrap();
        for entry in entries {
            if let Some(j) = jobs.get_mut(&entry.job) {
                if j.state == JobState::Degraded {
                    j.state = JobState::Queued;
                    j.error = None;
                    let _ = j.save(inner.env(), &inner.config.state_dir);
                }
                if !j.state.is_terminal() && !j.cancel_requested {
                    sched.push(entry);
                }
            }
        }
    }
    inner.cond.notify_all();
}

fn run_unit(inner: &Arc<Inner>, entry: QueueEntry) {
    let spec = {
        let mut jobs = inner.jobs.lock().unwrap();
        let Some(j) = jobs.get_mut(&entry.job) else { return };
        if j.state.is_terminal() || j.cancel_requested || j.unit_done[entry.unit as usize] {
            return;
        }
        j.running_units += 1;
        if j.state == JobState::Queued {
            j.state = JobState::Running;
            let _ = j.save(inner.env(), &inner.config.state_dir);
        }
        j.spec.clone()
    };
    inner.hub.emit(&JobEvent::Started { job: JobId(entry.job), unit: entry.unit });
    let outcome = match &spec.kind {
        JobKind::Campaign(c) => run_campaign_unit(inner, entry.job, entry.unit, &spec, c),
        JobKind::Lifetime(l) => run_lifetime_unit(inner, entry.job, &spec, l),
        JobKind::Inject(i) => run_inject_unit(inner, entry.job, &spec, i),
    };
    finalize_unit(inner, entry, &spec, outcome);
}

fn update_progress(inner: &Arc<Inner>, job: u64, unit: u64, unit_steps: u64) -> u64 {
    let mut jobs = inner.jobs.lock().unwrap();
    match jobs.get_mut(&job) {
        Some(j) => {
            j.unit_progress[unit as usize] = unit_steps;
            j.progress_done()
        }
        None => unit_steps,
    }
}

fn save_manifest(inner: &Arc<Inner>, job: u64) {
    let jobs = inner.jobs.lock().unwrap();
    if let Some(j) = jobs.get(&job) {
        let _ = j.save(inner.env(), &inner.config.state_dir);
    }
}

fn cancel_requested(inner: &Arc<Inner>, job: u64) -> bool {
    inner.jobs.lock().unwrap().get(&job).is_some_and(|j| j.cancel_requested)
}

/// The shared checkpoint-or-stop tail of every durable unit observer:
/// counts the step, decides whether to stop (shutdown / cancel /
/// lease expiry), persists on schedule or before stopping, and emits
/// the progress/checkpoint events.
struct UnitObserver<'a> {
    inner: &'a Arc<Inner>,
    job: u64,
    unit: u64,
    total: u64,
    since_ckpt: u64,
    lease_used: u64,
    stop: Option<Stop>,
}

impl<'a> UnitObserver<'a> {
    fn new(inner: &'a Arc<Inner>, job: u64, unit: u64, total: u64) -> Self {
        UnitObserver { inner, job, unit, total, since_ckpt: 0, lease_used: 0, stop: None }
    }

    /// One observer step at `unit_steps` completed steps. When a
    /// checkpoint is due, `save` persists the unit state under the env's
    /// transient-fault retry; persistent disk pressure parks the unit
    /// ([`Stop::Degraded`]) instead of failing it, and the next dispatch
    /// resumes from the last checkpoint.
    fn step(
        &mut self,
        unit_steps: u64,
        save: impl FnMut() -> Result<(), SnapshotError>,
    ) -> Result<ControlFlow<()>, SnapshotError> {
        let done = update_progress(self.inner, self.job, self.unit, unit_steps);
        self.inner.hub.emit(&JobEvent::Progress {
            job: JobId(self.job),
            unit: self.unit,
            done,
            total: self.total,
        });
        self.since_ckpt += 1;
        self.lease_used += 1;
        let shutdown = self.inner.shutdown.load(Ordering::SeqCst);
        let cancel = cancel_requested(self.inner, self.job);
        let lease = self.inner.config.lease_steps.is_some_and(|n| self.lease_used >= n);
        let stopping = shutdown || cancel || lease;
        if stopping {
            self.stop = Some(if cancel {
                Stop::Cancel
            } else if shutdown {
                Stop::Shutdown
            } else {
                Stop::Lease
            });
        }
        if stopping || self.since_ckpt >= self.inner.config.snapshot_every.max(1) {
            self.since_ckpt = 0;
            match self.inner.env().retry_snapshot(save) {
                Ok(()) => {
                    save_manifest(self.inner, self.job);
                    self.inner.hub.emit(&JobEvent::Checkpointed {
                        job: JobId(self.job),
                        unit: self.unit,
                        done,
                    });
                }
                Err(SnapshotError::Io(e)) if is_disk_full(&e) => {
                    self.stop = Some(Stop::Degraded(format!("unit checkpoint: {e}")));
                    return Ok(ControlFlow::Break(()));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(if stopping { ControlFlow::Break(()) } else { ControlFlow::Continue(()) })
    }
}

fn run_campaign_unit(
    inner: &Arc<Inner>,
    job: u64,
    unit: u64,
    spec: &JobSpec,
    c: &CampaignSpec,
) -> UnitRun {
    let cfg = match c.to_config() {
        Ok(cfg) => cfg,
        Err(e) => return UnitRun::Failed(e.to_string()),
    };
    let shard = match ShardSpec::new(unit as usize + 1, c.shards) {
        Ok(s) => s,
        Err(e) => return UnitRun::Failed(e),
    };
    let env = inner.env();
    let state_path = JobRec::unit_state_path(&inner.config.state_dir, job, unit);
    // A corrupt or stale checkpoint is discarded (typed rejection →
    // fresh start for this unit); a valid one resumes mid-shard.
    let resume = CampaignState::load_with(env.vfs.as_ref(), &state_path).ok();
    let owned = (0..c.scenarios as u32).filter(|&id| shard.owns(id)).count();
    let mut obs = UnitObserver::new(inner, job, unit, spec.progress_total());
    let result = run_campaign_durable(&cfg, Some(shard), resume, |st| {
        obs.step((st.substrate() * owned + st.scenario()) as u64, || {
            st.save_with(env.vfs.as_ref(), &state_path)
        })
    });
    match result {
        Err(e) => UnitRun::Failed(e.to_string()),
        Ok(None) => UnitRun::Interrupted(obs.stop.unwrap_or(Stop::Shutdown)),
        Ok(Some(report)) => {
            let shard_report = ShardReport { shard, report };
            let shard_path = JobRec::unit_shard_path(&inner.config.state_dir, job, unit);
            match env.retry_snapshot(|| shard_report.save_with(env.vfs.as_ref(), &shard_path)) {
                Ok(()) => {}
                Err(SnapshotError::Io(e)) if is_disk_full(&e) => {
                    return UnitRun::Interrupted(Stop::Degraded(format!("shard report: {e}")));
                }
                Err(e) => return UnitRun::Failed(e.to_string()),
            }
            let _ = env.vfs.remove_file(&state_path);
            update_progress(inner, job, unit, (owned * cfg.substrates.len()) as u64);
            UnitRun::Done
        }
    }
}

fn run_lifetime_unit(inner: &Arc<Inner>, job: u64, spec: &JobSpec, l: &LifetimeSpec) -> UnitRun {
    let cfg = l.to_config();
    let months = cfg.months;
    let env = inner.env();
    let state_path = JobRec::unit_state_path(&inner.config.state_dir, job, 0);
    let resume = LifetimeRunState::load_with(env.vfs.as_ref(), &state_path).ok();
    let mut obs = UnitObserver::new(inner, job, 0, spec.progress_total());
    let result = LifetimeSim::new(cfg).run_durable(resume, |st| {
        obs.step(st.months_done(months) as u64, || st.save_with(env.vfs.as_ref(), &state_path))
            .map_err(Into::into)
    });
    match result {
        Err(e) => UnitRun::Failed(e.to_string()),
        Ok(None) => UnitRun::Interrupted(obs.stop.unwrap_or(Stop::Shutdown)),
        Ok(Some(outcome)) => {
            let report = render_outcome(spec, &JobOutcome::Lifetime(Box::new(outcome)));
            match write_report(env, &JobRec::report_path(&inner.config.state_dir, job), &report) {
                Ok(()) => {}
                Err(e) if is_disk_full(&e) => {
                    return UnitRun::Interrupted(Stop::Degraded(format!("final report: {e}")));
                }
                Err(e) => return UnitRun::Failed(e.to_string()),
            }
            let _ = env.vfs.remove_file(&state_path);
            update_progress(inner, job, 0, spec.progress_total());
            UnitRun::Done
        }
    }
}

fn run_inject_unit(inner: &Arc<Inner>, job: u64, spec: &JobSpec, i: &InjectSpec) -> UnitRun {
    // Inject runs are short and have no durable mid-state: they are
    // non-preemptible, and a worker lost mid-run restarts the unit
    // (documented exception to resume-not-restart).
    match run_inject_with(i, |_| {}, |_, _| {}) {
        Err(e) => UnitRun::Failed(e.to_string()),
        Ok(outcome) => {
            let report = render_outcome(spec, &JobOutcome::Inject(Box::new(outcome)));
            match write_report(
                inner.env(),
                &JobRec::report_path(&inner.config.state_dir, job),
                &report,
            ) {
                Ok(()) => {}
                Err(e) if is_disk_full(&e) => {
                    return UnitRun::Interrupted(Stop::Degraded(format!("final report: {e}")));
                }
                Err(e) => return UnitRun::Failed(e.to_string()),
            }
            let done = update_progress(inner, job, 0, 1);
            inner.hub.emit(&JobEvent::Progress { job: JobId(job), unit: 0, done, total: 1 });
            UnitRun::Done
        }
    }
}

/// Atomic, durable report write: tmp + fsync + rename + dir sync, with
/// the env's transient-fault retry. The rendered report is the job's
/// externally-visible product; it gets the same durability discipline
/// as the snapshots.
fn write_report(env: &IoEnv, path: &Path, report: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    env.retry_io(|| {
        let mut f = env.vfs.create(&tmp)?;
        f.write_all(report.as_bytes())?;
        f.sync_all()?;
        drop(f);
        env.vfs.rename(&tmp, path)?;
        match path.parent().filter(|d| !d.as_os_str().is_empty()) {
            Some(dir) => env.vfs.sync_dir(dir),
            None => Ok(()),
        }
    })
}

fn finalize_unit(inner: &Arc<Inner>, entry: QueueEntry, spec: &JobSpec, outcome: UnitRun) {
    let (job, unit) = (entry.job, entry.unit);
    match outcome {
        UnitRun::Done => {
            let all_done = {
                let mut jobs = inner.jobs.lock().unwrap();
                let Some(j) = jobs.get_mut(&job) else { return };
                j.unit_done[unit as usize] = true;
                j.running_units -= 1;
                let _ = j.save(inner.env(), &inner.config.state_dir);
                j.all_done()
            };
            inner.hub.emit(&JobEvent::UnitDone { job: JobId(job), unit });
            if all_done {
                finalize_job_completion(inner, job, spec);
            } else {
                maybe_finalize_cancel(inner, job);
            }
        }
        UnitRun::Failed(error) => {
            {
                let mut jobs = inner.jobs.lock().unwrap();
                let Some(j) = jobs.get_mut(&job) else { return };
                j.running_units -= 1;
                if !j.state.is_terminal() {
                    j.state = JobState::Failed;
                    j.error = Some(error.clone());
                    let _ = j.save(inner.env(), &inner.config.state_dir);
                }
                inner.sched.lock().unwrap().remove_job(job);
            }
            inner.hub.emit(&JobEvent::Failed { job: JobId(job), error });
        }
        UnitRun::Interrupted(Stop::Lease) => {
            let done = {
                let mut jobs = inner.jobs.lock().unwrap();
                let Some(j) = jobs.get_mut(&job) else { return };
                j.running_units -= 1;
                j.progress_done()
            };
            inner.hub.emit(&JobEvent::WorkerLost { job: JobId(job), unit, done });
            inner.sched.lock().unwrap().push(entry);
            inner.cond.notify_all();
        }
        UnitRun::Interrupted(Stop::Cancel) => {
            {
                let mut jobs = inner.jobs.lock().unwrap();
                if let Some(j) = jobs.get_mut(&job) {
                    j.running_units -= 1;
                }
            }
            maybe_finalize_cancel(inner, job);
        }
        UnitRun::Interrupted(Stop::Shutdown) => {
            let mut jobs = inner.jobs.lock().unwrap();
            if let Some(j) = jobs.get_mut(&job) {
                j.running_units -= 1;
                let _ = j.save(inner.env(), &inner.config.state_dir);
            }
        }
        UnitRun::Interrupted(Stop::Degraded(reason)) => {
            // Disk pressure: park the unit instead of failing the job.
            // The worker loop re-probes writability and requeues it when
            // the pressure lifts (`maybe_unpark`).
            {
                let mut jobs = inner.jobs.lock().unwrap();
                let Some(j) = jobs.get_mut(&job) else { return };
                j.running_units -= 1;
                if !j.state.is_terminal() {
                    j.state = JobState::Degraded;
                    j.error = Some(reason.clone());
                    // Best effort: under ENOSPC this save may itself
                    // fail; the in-memory state still degrades and the
                    // unpark path re-saves once writes succeed again.
                    let _ = j.save(inner.env(), &inner.config.state_dir);
                }
            }
            inner.parked.lock().unwrap().push(entry);
            inner.hub.emit(&JobEvent::Degraded { job: JobId(job), reason });
        }
    }
}

fn maybe_finalize_cancel(inner: &Arc<Inner>, job: u64) {
    let emit = {
        let mut jobs = inner.jobs.lock().unwrap();
        match jobs.get_mut(&job) {
            Some(j) if j.cancel_requested && !j.state.is_terminal() && j.running_units == 0 => {
                j.state = JobState::Canceled;
                let _ = j.save(inner.env(), &inner.config.state_dir);
                true
            }
            _ => false,
        }
    };
    if emit {
        inner.hub.emit(&JobEvent::Canceled { job: JobId(job) });
    }
}

/// All units done: render the final report (merging campaign shards),
/// then flip the job to its terminal state.
fn finalize_job_completion(inner: &Arc<Inner>, job: u64, spec: &JobSpec) {
    let result = render_final_report(inner, job, spec);
    let event = {
        let mut jobs = inner.jobs.lock().unwrap();
        let Some(j) = jobs.get_mut(&job) else { return };
        match &result {
            Ok(()) => {
                j.state = JobState::Completed;
                let _ = j.save(inner.env(), &inner.config.state_dir);
                JobEvent::Completed { job: JobId(job) }
            }
            Err(error) => {
                j.state = JobState::Failed;
                j.error = Some(error.clone());
                let _ = j.save(inner.env(), &inner.config.state_dir);
                JobEvent::Failed { job: JobId(job), error: error.clone() }
            }
        }
    };
    inner.hub.emit(&event);
}

fn render_final_report(inner: &Arc<Inner>, job: u64, spec: &JobSpec) -> Result<(), String> {
    match &spec.kind {
        JobKind::Campaign(_) => {
            let units = spec.units();
            let mut shards = Vec::with_capacity(units as usize);
            for unit in 0..units {
                let path = JobRec::unit_shard_path(&inner.config.state_dir, job, unit);
                shards.push(
                    ShardReport::load_with(inner.env().vfs.as_ref(), &path)
                        .map_err(|e| format!("shard {unit}: {e}"))?,
                );
            }
            let merged = merge_shards(&shards).map_err(|e| e.to_string())?;
            write_report(
                inner.env(),
                &JobRec::report_path(&inner.config.state_dir, job),
                &render_report(&merged),
            )
            .map_err(|e| e.to_string())
        }
        // Lifetime/inject units rendered their report on completion.
        JobKind::Lifetime(_) | JobKind::Inject(_) => {
            let path = JobRec::report_path(&inner.config.state_dir, job);
            if inner.env().vfs.exists(&path) {
                Ok(())
            } else {
                Err("unit completed without rendering its report".into())
            }
        }
    }
}
