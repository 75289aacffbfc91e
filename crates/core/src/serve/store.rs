//! Durable job records: one `job-<id>/` directory per job under the
//! daemon's state directory.
//!
//! ```text
//! state_dir/job-0000002a/
//!   manifest.r2d3s        R2D3SNAP "job" container: spec + lifecycle
//!   unit-<k>.state.r2d3s  unit checkpoint (campaign/lifetime state)
//!   unit-<k>.shard.r2d3s  completed campaign shard report
//!   report.json           rendered report (written once, on completion)
//!   events.jsonl          append-only event log (one wire line each)
//! ```
//!
//! The manifest rides the same `R2D3SNAP` container as every other
//! durable artifact (atomic replace, digest-verified, versioned with a
//! migration window), under the v2-introduced kind `"job"`.

use crate::api::wire::{decode_spec_value, encode_spec, JobState, JobStatus};
use crate::api::{JobId, JobSpec, PROTO_VERSION};
use crate::chaos::{IoEnv, Vfs};
use crate::snapshot::{self, SnapshotError};
use r2d3_netlist::json::{self, hex_u64};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub(crate) const JOB_KIND: &str = "job";

/// The daemon's in-memory (and persisted) record of one job.
#[derive(Debug, Clone)]
pub(crate) struct JobRec {
    pub id: u64,
    pub client: String,
    /// Admission order; scheduler tie-break and recovery-stable.
    pub seq: u64,
    pub spec: JobSpec,
    pub state: JobState,
    pub error: Option<String>,
    pub unit_done: Vec<bool>,
    /// Per-unit completed observer steps (progress numerators).
    pub unit_progress: Vec<u64>,
    /// Units currently on a worker. Not persisted: a restarted daemon
    /// has no workers running yet.
    pub running_units: u64,
    /// Cancellation latch. Not persisted: queued units of a canceled
    /// job are removed before the terminal state is saved.
    pub cancel_requested: bool,
}

impl JobRec {
    pub(crate) fn new(id: u64, seq: u64, client: String, spec: JobSpec) -> JobRec {
        let units = spec.units() as usize;
        JobRec {
            id,
            client,
            seq,
            spec,
            state: JobState::Queued,
            error: None,
            unit_done: vec![false; units],
            unit_progress: vec![0; units],
            running_units: 0,
            cancel_requested: false,
        }
    }

    pub(crate) fn units(&self) -> u64 {
        self.unit_done.len() as u64
    }

    pub(crate) fn all_done(&self) -> bool {
        self.unit_done.iter().all(|&d| d)
    }

    pub(crate) fn progress_done(&self) -> u64 {
        self.unit_progress.iter().sum()
    }

    pub(crate) fn status(&self) -> JobStatus {
        JobStatus {
            id: JobId(self.id),
            client: self.client.clone(),
            kind: self.spec.kind_name(),
            priority: self.spec.priority,
            state: self.state,
            error: self.error.clone(),
            units: self.units(),
            units_done: self.unit_done.iter().filter(|&&d| d).count() as u64,
            progress_done: self.progress_done(),
            progress_total: self.spec.progress_total(),
        }
    }

    pub(crate) fn dir(state_dir: &Path, id: u64) -> PathBuf {
        state_dir.join(format!("job-{id:08x}"))
    }

    pub(crate) fn manifest_path(state_dir: &Path, id: u64) -> PathBuf {
        Self::dir(state_dir, id).join("manifest.r2d3s")
    }

    pub(crate) fn unit_state_path(state_dir: &Path, id: u64, unit: u64) -> PathBuf {
        Self::dir(state_dir, id).join(format!("unit-{unit}.state.r2d3s"))
    }

    pub(crate) fn unit_shard_path(state_dir: &Path, id: u64, unit: u64) -> PathBuf {
        Self::dir(state_dir, id).join(format!("unit-{unit}.shard.r2d3s"))
    }

    pub(crate) fn report_path(state_dir: &Path, id: u64) -> PathBuf {
        Self::dir(state_dir, id).join("report.json")
    }

    pub(crate) fn events_path(state_dir: &Path, id: u64) -> PathBuf {
        Self::dir(state_dir, id).join("events.jsonl")
    }

    /// Atomically persists the manifest through the environment's
    /// [`Vfs`], retrying transient injected faults per its policy.
    pub(crate) fn save(&self, env: &IoEnv, state_dir: &Path) -> Result<(), SnapshotError> {
        let mut body = format!(
            "{{\"proto_version\":{PROTO_VERSION},\"id\":{},\"client\":\"{}\",\"seq\":{},\"state\":\"{}\",\"error\":",
            hex_u64(self.id),
            crate::api::wire::escape(&self.client),
            self.seq,
            self.state.token(),
        );
        match &self.error {
            Some(e) => {
                let _ = write!(body, "\"{}\"", crate::api::wire::escape(e));
            }
            None => body.push_str("null"),
        }
        body.push_str(",\"unit_done\":[");
        for (i, d) in self.unit_done.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "{d}");
        }
        body.push_str("],\"unit_progress\":[");
        for (i, p) in self.unit_progress.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "{p}");
        }
        let _ = write!(body, "],\"spec\":{}}}", encode_spec(&self.spec));
        body.push('\n');
        // Transient write/fsync/rename faults get the env's bounded
        // retry; the atomic write syncs the job directory so the
        // manifest entry itself is crash-durable (satellite: the
        // unsynced-dir bug applies to manifests too).
        env.retry_snapshot(|| {
            snapshot::write_atomic_with(
                env.vfs.as_ref(),
                &Self::manifest_path(state_dir, self.id),
                JOB_KIND,
                body.as_bytes(),
            )
        })
    }

    /// Loads and validates a manifest.
    pub(crate) fn load(vfs: &dyn Vfs, path: &Path) -> Result<JobRec, SnapshotError> {
        let v = json::parse(&snapshot::read_verified_with(vfs, path, JOB_KIND)?)?;
        let id = v.hex("id")?;
        let spec = decode_spec_value(v.field("spec")?)
            .map_err(|e| SnapshotError::Malformed(format!("job spec: {e}")))?;
        let unit_done = v.bools("unit_done")?;
        let unit_progress = v.ints("unit_progress")?;
        if unit_done.len() as u64 != spec.units() || unit_progress.len() != unit_done.len() {
            return Err(SnapshotError::Malformed(
                "unit arrays do not match the spec's unit count".into(),
            ));
        }
        let state = JobState::parse(v.str("state")?)
            .map_err(|e| SnapshotError::Malformed(format!("job state: {e}")))?;
        Ok(JobRec {
            id,
            client: v.str("client")?.to_string(),
            seq: v.int("seq")?,
            spec,
            state,
            error: v.opt("error").map(|_| v.str("error")).transpose()?.map(String::from),
            unit_done,
            unit_progress,
            running_units: 0,
            cancel_requested: false,
        })
    }
}

/// Scans a state directory for persisted jobs, skipping (and reporting
/// through the returned list's absence) nothing: a manifest that fails
/// to load is a hard error — a daemon must not silently forget jobs.
pub(crate) fn scan_jobs(vfs: &dyn Vfs, state_dir: &Path) -> Result<Vec<JobRec>, SnapshotError> {
    let mut jobs = Vec::new();
    if !vfs.exists(state_dir) {
        return Ok(jobs);
    }
    let mut dirs: Vec<PathBuf> = vfs
        .read_dir(state_dir)?
        .into_iter()
        .filter(|p| {
            vfs.is_dir(p)
                && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("job-"))
        })
        .collect();
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("manifest.r2d3s");
        if vfs.exists(&manifest) {
            jobs.push(JobRec::load(vfs, &manifest)?);
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::JobKind;
    use crate::campaign::SubstrateKind;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("r2d3-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifests_round_trip_and_scan() {
        let dir = tmp_dir("roundtrip");
        let spec = JobSpec::campaign()
            .scenarios(12)
            .shards(3)
            .substrates(vec![SubstrateKind::Behavioral])
            .build()
            .unwrap();
        let mut rec = JobRec::new(0x2a, 7, "alice".into(), spec);
        rec.state = JobState::Running;
        rec.unit_done[1] = true;
        rec.unit_progress = vec![2, 4, 0];
        rec.error = Some("not really".into());
        let env = IoEnv::default();
        std::fs::create_dir_all(JobRec::dir(&dir, rec.id)).unwrap();
        rec.save(&env, &dir).unwrap();

        let jobs = scan_jobs(env.vfs.as_ref(), &dir).unwrap();
        assert_eq!(jobs.len(), 1);
        let back = &jobs[0];
        assert_eq!(back.id, rec.id);
        assert_eq!(back.client, rec.client);
        assert_eq!(back.seq, rec.seq);
        assert_eq!(back.spec, rec.spec);
        assert_eq!(back.state, rec.state);
        assert_eq!(back.error, rec.error);
        assert_eq!(back.unit_done, rec.unit_done);
        assert_eq!(back.unit_progress, rec.unit_progress);
        assert_eq!(back.status().progress_done, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_over_the_month_cap_is_refused() {
        // Written without the builder's check, as a manifest from a build
        // without the cap would be.
        let dir = tmp_dir("months");
        let JobKind::Lifetime(mut lifetime) = JobSpec::lifetime().build().unwrap().kind else {
            unreachable!("built as lifetime")
        };
        lifetime.months = 1_000_000_000;
        let spec = JobSpec { priority: 0, kind: JobKind::Lifetime(lifetime) };
        let rec = JobRec::new(3, 1, "c".into(), spec);
        std::fs::create_dir_all(JobRec::dir(&dir, rec.id)).unwrap();
        rec.save(&IoEnv::default(), &dir).unwrap();
        match JobRec::load(IoEnv::default().vfs.as_ref(), &JobRec::manifest_path(&dir, rec.id)) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("months"), "{msg}"),
            other => panic!("expected a malformed spec, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = tmp_dir("kind");
        let spec = JobSpec::lifetime().months(1).build().unwrap();
        let rec = JobRec::new(1, 1, "c".into(), spec);
        std::fs::create_dir_all(JobRec::dir(&dir, rec.id)).unwrap();
        rec.save(&IoEnv::default(), &dir).unwrap();
        let path = JobRec::manifest_path(&dir, rec.id);
        assert!(matches!(
            crate::campaign::CampaignState::load(&path),
            Err(SnapshotError::Kind { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
