//! The versioned JSON-lines wire protocol.
//!
//! One document per line, every document stamped with
//! [`PROTO_VERSION`]. Encoders are deterministic
//! single-line emitters — fixed field order, no whitespace variance — so
//! identical values always produce identical bytes. Decoders read the
//! [`r2d3_netlist::json`] tree through its required-field accessors: any
//! malformed input yields a typed [`ApiError`], never a panic, and
//! unknown `proto_version`s are rejected outright rather than
//! half-parsed.
//!
//! Full-range `u64` values (seeds, job ids) travel as lowercase hex
//! *strings* ([`hex_u64`]); bare-integer counts must be exact (below
//! 2^53). Free-text strings (client names, error messages) are escaped
//! by `escape`, which maps non-ASCII and unsupported control bytes to
//! `?`, so every line an encoder writes is ASCII. Decoders accept any
//! standard JSON, including `\uXXXX` escapes and raw UTF-8.

use super::spec::{
    parse_policy, parse_substrate_kind, parse_unit, parse_workload, policy_token, substrate_token,
    unit_token, workload_token, CampaignSpec, InjectSpec, JobId, JobKind, JobSpec, LifetimeSpec,
};
use super::{ApiError, PROTO_VERSION};
use crate::campaign::KindId;
use crate::telemetry::OverflowPolicy;
use r2d3_netlist::json::{self, hex_u64, Value};
use std::fmt::Write as _;

// --- primitives ----------------------------------------------------

/// Escapes a free-text string for a wire document: `\" \\ \n \t \r`
/// are escaped, and every other control byte and all non-ASCII is
/// replaced with `?`, so encoded lines stay ASCII.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
            _ => out.push('?'),
        }
    }
    out
}

fn check_version(v: &Value) -> Result<(), ApiError> {
    let found: u64 = v.int("proto_version")?;
    if found != u64::from(PROTO_VERSION) {
        return Err(ApiError::Version { found: u32::try_from(found).unwrap_or(u32::MAX) });
    }
    Ok(())
}

fn job(v: &Value) -> Result<JobId, ApiError> {
    JobId::parse(v.str("job")?)
}

fn parse_doc(line: &str) -> Result<Value, ApiError> {
    let v = json::parse(line)?;
    check_version(&v)?;
    Ok(v)
}

/// Wire token of a watch overflow policy (`block|drop`).
#[must_use]
pub fn overflow_token(policy: OverflowPolicy) -> &'static str {
    match policy {
        OverflowPolicy::Block => "block",
        OverflowPolicy::Drop => "drop",
    }
}

/// Parses an [`overflow_token`].
///
/// # Errors
///
/// [`ApiError::UnknownKind`] for anything else.
pub fn parse_overflow(token: &str) -> Result<OverflowPolicy, ApiError> {
    match token {
        "block" => Ok(OverflowPolicy::Block),
        "drop" => Ok(OverflowPolicy::Drop),
        other => Err(ApiError::UnknownKind(other.to_string())),
    }
}

// --- job specs -----------------------------------------------------

/// Encodes a [`JobSpec`] as one standalone wire document (also embedded
/// verbatim inside submit requests and job manifests).
#[must_use]
pub fn encode_spec(spec: &JobSpec) -> String {
    let mut s = format!(
        "{{\"proto_version\":{PROTO_VERSION},\"kind\":\"{}\",\"priority\":{}",
        spec.kind_name(),
        spec.priority
    );
    match &spec.kind {
        JobKind::Campaign(c) => {
            let _ = write!(s, ",\"seed\":{},\"scenarios\":{}", hex_u64(c.seed), c.scenarios);
            s.push_str(",\"substrates\":[");
            for (i, sub) in c.substrates.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", substrate_token(*sub));
            }
            s.push_str("],\"kinds\":[");
            for (i, k) in c.kinds.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", k.name());
            }
            s.push_str("],\"core\":");
            match &c.core {
                Some(path) => {
                    let _ = write!(s, "\"{}\"", escape(path));
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"shards\":{}", c.shards);
        }
        JobKind::Lifetime(l) => {
            let _ = write!(
                s,
                ",\"policy\":\"{}\",\"months\":{},\"workload\":\"{}\",\"seed\":{}",
                policy_token(l.policy),
                l.months,
                workload_token(l.workload),
                hex_u64(l.seed)
            );
        }
        JobKind::Inject(i) => {
            let _ = write!(
                s,
                ",\"unit\":\"{}\",\"layer\":{},\"bit\":{},\"substrate\":\"{}\",\"seed\":{},\"epochs\":{}",
                unit_token(i.unit),
                i.layer,
                i.bit,
                substrate_token(i.substrate),
                hex_u64(i.seed),
                i.epochs
            );
        }
    }
    s.push('}');
    s
}

/// Decodes and validates a [`JobSpec`] from a parsed wire object.
/// (Crate-internal: the tree type is; external callers use
/// [`decode_spec`] on whole lines.)
pub(crate) fn decode_spec_value(v: &Value) -> Result<JobSpec, ApiError> {
    check_version(v)?;
    let priority = v.int("priority")?;
    let kind = match v.str("kind")? {
        "campaign" => {
            let substrates = v
                .strs("substrates")?
                .into_iter()
                .map(parse_substrate_kind)
                .collect::<Result<_, _>>()?;
            let kinds = v
                .strs("kinds")?
                .into_iter()
                .map(|t| KindId::from_name(t).ok_or_else(|| ApiError::UnknownKind(t.to_string())))
                .collect::<Result<_, _>>()?;
            let core = v.opt("core").map(|_| v.str("core")).transpose()?.map(String::from);
            JobKind::Campaign(CampaignSpec {
                seed: v.hex("seed")?,
                scenarios: v.int("scenarios")?,
                substrates,
                kinds,
                core,
                shards: v.int("shards")?,
            })
        }
        "lifetime" => JobKind::Lifetime(LifetimeSpec {
            policy: parse_policy(v.str("policy")?)?,
            months: v.int("months")?,
            workload: parse_workload(v.str("workload")?)?,
            seed: v.hex("seed")?,
        }),
        "inject" => {
            let bit = v.int("bit")?;
            JobKind::Inject(InjectSpec {
                unit: parse_unit(v.str("unit")?)?,
                layer: v.int("layer")?,
                bit,
                substrate: parse_substrate_kind(v.str("substrate")?)?,
                seed: v.hex("seed")?,
                epochs: v.int("epochs")?,
            })
        }
        other => return Err(ApiError::UnknownKind(other.to_string())),
    };
    let spec = JobSpec { priority, kind };
    spec.validate()?;
    Ok(spec)
}

/// Decodes a [`JobSpec`] from one wire line.
///
/// # Errors
///
/// Typed [`ApiError`] for a malformed line or an invalid spec.
pub fn decode_spec(line: &str) -> Result<JobSpec, ApiError> {
    decode_spec_value(&parse_doc(line)?)
}

// --- requests ------------------------------------------------------

/// A client-to-daemon request, one per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for execution under a client identity.
    Submit {
        /// Quota-accounting identity of the submitter.
        client: String,
        /// The job to run.
        spec: JobSpec,
    },
    /// List one job's status, or every job's.
    Status {
        /// Specific job, or `None` for all.
        job: Option<JobId>,
    },
    /// Subscribe to a job's live event stream (history replayed first).
    Watch {
        /// Job to watch.
        job: JobId,
        /// What the daemon does when this subscriber falls behind.
        overflow: OverflowPolicy,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job to cancel.
        job: JobId,
    },
    /// Fetch a completed job's rendered report.
    Result {
        /// Job whose report to fetch.
        job: JobId,
    },
    /// Ask the daemon to stop accepting work and exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as one wire line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let head = format!("{{\"proto_version\":{PROTO_VERSION}");
        match self {
            Request::Submit { client, spec } => {
                format!(
                    "{head},\"op\":\"submit\",\"client\":\"{}\",\"spec\":{}}}",
                    escape(client),
                    encode_spec(spec)
                )
            }
            Request::Status { job: Some(job) } => {
                format!("{head},\"op\":\"status\",\"job\":\"{job}\"}}")
            }
            Request::Status { job: None } => format!("{head},\"op\":\"status\",\"job\":null}}"),
            Request::Watch { job, overflow } => {
                format!(
                    "{head},\"op\":\"watch\",\"job\":\"{job}\",\"overflow\":\"{}\"}}",
                    overflow_token(*overflow)
                )
            }
            Request::Cancel { job } => format!("{head},\"op\":\"cancel\",\"job\":\"{job}\"}}"),
            Request::Result { job } => format!("{head},\"op\":\"result\",\"job\":\"{job}\"}}"),
            Request::Shutdown => format!("{head},\"op\":\"shutdown\"}}"),
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`] on malformed JSON, version skew, unknown op
    /// or bad fields — the daemon turns these into error responses, so
    /// a hostile line can never panic or kill the connection handler.
    pub fn decode(line: &str) -> Result<Request, ApiError> {
        let v = parse_doc(line)?;
        match v.str("op")? {
            "submit" => Ok(Request::Submit {
                client: v.str("client")?.to_string(),
                spec: decode_spec_value(v.field("spec")?)?,
            }),
            "status" => Ok(Request::Status { job: v.opt("job").map(|_| job(&v)).transpose()? }),
            "watch" => {
                Ok(Request::Watch { job: job(&v)?, overflow: parse_overflow(v.str("overflow")?)? })
            }
            "cancel" => Ok(Request::Cancel { job: job(&v)? }),
            "result" => Ok(Request::Result { job: job(&v)? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ApiError::UnknownOp(other.to_string())),
        }
    }
}

// --- job status ----------------------------------------------------

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; at least one unit is waiting for a worker.
    Queued,
    /// At least one unit is executing.
    Running,
    /// Persistent disk pressure (`ENOSPC`): the daemon parked the job's
    /// units instead of failing them; see [`JobStatus::error`] for the
    /// reason. Not terminal — the job resumes (→ [`JobState::Queued`])
    /// when writes to the state directory succeed again.
    Degraded,
    /// All units finished and the report is rendered.
    Completed,
    /// The engine reported an error; see [`JobStatus::error`].
    Failed,
    /// Canceled by request before completion.
    Canceled,
}

impl JobState {
    /// Stable wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Degraded => "degraded",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Parses a [`JobState::token`].
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownKind`] for anything else.
    pub fn parse(token: &str) -> Result<JobState, ApiError> {
        match token {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "degraded" => Ok(JobState::Degraded),
            "completed" => Ok(JobState::Completed),
            "failed" => Ok(JobState::Failed),
            "canceled" => Ok(JobState::Canceled),
            other => Err(ApiError::UnknownKind(other.to_string())),
        }
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Canceled)
    }
}

/// A point-in-time snapshot of one job, as reported by `status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Daemon-assigned id.
    pub id: JobId,
    /// Submitting client.
    pub client: String,
    /// Job family token (`campaign`/`lifetime`/`inject`).
    pub kind: &'static str,
    /// Within-client scheduling priority.
    pub priority: u8,
    /// Lifecycle state.
    pub state: JobState,
    /// Failure description when `state` is [`JobState::Failed`], or the
    /// disk-pressure reason when it is [`JobState::Degraded`].
    pub error: Option<String>,
    /// Schedulable units the job splits into.
    pub units: u64,
    /// Units that have finished.
    pub units_done: u64,
    /// Progress steps completed across all units.
    pub progress_done: u64,
    /// Total progress steps the job will report.
    pub progress_total: u64,
}

fn kind_static(token: &str) -> Result<&'static str, ApiError> {
    match token {
        "campaign" => Ok("campaign"),
        "lifetime" => Ok("lifetime"),
        "inject" => Ok("inject"),
        other => Err(ApiError::UnknownKind(other.to_string())),
    }
}

impl JobStatus {
    fn encode_obj(&self) -> String {
        let error = match &self.error {
            Some(e) => format!("\"{}\"", escape(e)),
            None => "null".to_string(),
        };
        format!(
            "{{\"job\":\"{}\",\"client\":\"{}\",\"kind\":\"{}\",\"priority\":{},\"state\":\"{}\",\"error\":{},\"units\":{},\"units_done\":{},\"progress_done\":{},\"progress_total\":{}}}",
            self.id,
            escape(&self.client),
            self.kind,
            self.priority,
            self.state.token(),
            error,
            self.units,
            self.units_done,
            self.progress_done,
            self.progress_total
        )
    }

    fn decode_obj(v: &Value) -> Result<JobStatus, ApiError> {
        let priority = v.int("priority")?;
        Ok(JobStatus {
            id: job(v)?,
            client: v.str("client")?.to_string(),
            kind: kind_static(v.str("kind")?)?,
            priority,
            state: JobState::parse(v.str("state")?)?,
            error: v.opt("error").map(|_| v.str("error")).transpose()?.map(String::from),
            units: v.int("units")?,
            units_done: v.int("units_done")?,
            progress_done: v.int("progress_done")?,
            progress_total: v.int("progress_total")?,
        })
    }
}

// --- events --------------------------------------------------------

/// A live job-lifecycle event, streamed to watchers and appended to the
/// job's durable event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// The job was admitted and its units enqueued.
    Accepted {
        /// Job id.
        job: JobId,
        /// Units the job was split into.
        units: u64,
    },
    /// A worker picked up one unit.
    Started {
        /// Job id.
        job: JobId,
        /// 0-based unit index.
        unit: u64,
    },
    /// A unit advanced; `done`/`total` are job-wide step counts.
    Progress {
        /// Job id.
        job: JobId,
        /// 0-based unit index.
        unit: u64,
        /// Steps completed job-wide.
        done: u64,
        /// Total steps job-wide.
        total: u64,
    },
    /// A unit persisted its state snapshot.
    Checkpointed {
        /// Job id.
        job: JobId,
        /// 0-based unit index.
        unit: u64,
        /// Steps completed job-wide at the checkpoint.
        done: u64,
    },
    /// A unit ran to completion.
    UnitDone {
        /// Job id.
        job: JobId,
        /// 0-based unit index.
        unit: u64,
    },
    /// A worker was lost mid-unit; the unit re-queues and will resume
    /// from its last checkpoint.
    WorkerLost {
        /// Job id.
        job: JobId,
        /// 0-based unit index.
        unit: u64,
        /// Steps completed job-wide when the worker was lost.
        done: u64,
    },
    /// Persistent disk pressure parked the job's units; not terminal —
    /// the job resumes when writes succeed again.
    Degraded {
        /// Job id.
        job: JobId,
        /// Why the job was parked (e.g. the `ENOSPC` description).
        reason: String,
    },
    /// All units finished; the report is rendered and fetchable.
    Completed {
        /// Job id.
        job: JobId,
    },
    /// The engine reported an error; the job is over.
    Failed {
        /// Job id.
        job: JobId,
        /// Failure description.
        error: String,
    },
    /// The job was canceled; the job is over.
    Canceled {
        /// Job id.
        job: JobId,
    },
}

impl JobEvent {
    /// The job the event concerns.
    #[must_use]
    pub fn job(&self) -> JobId {
        match self {
            JobEvent::Accepted { job, .. }
            | JobEvent::Started { job, .. }
            | JobEvent::Progress { job, .. }
            | JobEvent::Checkpointed { job, .. }
            | JobEvent::UnitDone { job, .. }
            | JobEvent::WorkerLost { job, .. }
            | JobEvent::Degraded { job, .. }
            | JobEvent::Completed { job }
            | JobEvent::Failed { job, .. }
            | JobEvent::Canceled { job } => *job,
        }
    }

    /// Whether this event ends the job's stream.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobEvent::Completed { .. } | JobEvent::Failed { .. } | JobEvent::Canceled { .. }
        )
    }

    /// Stable wire token of the event type.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobEvent::Accepted { .. } => "accepted",
            JobEvent::Started { .. } => "started",
            JobEvent::Progress { .. } => "progress",
            JobEvent::Checkpointed { .. } => "checkpointed",
            JobEvent::UnitDone { .. } => "unit_done",
            JobEvent::WorkerLost { .. } => "worker_lost",
            JobEvent::Degraded { .. } => "degraded",
            JobEvent::Completed { .. } => "completed",
            JobEvent::Failed { .. } => "failed",
            JobEvent::Canceled { .. } => "canceled",
        }
    }

    /// Encodes the event as one wire line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let head = format!(
            "{{\"proto_version\":{PROTO_VERSION},\"event\":\"{}\",\"job\":\"{}\"",
            self.name(),
            self.job()
        );
        match self {
            JobEvent::Accepted { units, .. } => format!("{head},\"units\":{units}}}"),
            JobEvent::Started { unit, .. } | JobEvent::UnitDone { unit, .. } => {
                format!("{head},\"unit\":{unit}}}")
            }
            JobEvent::Progress { unit, done, total, .. } => {
                format!("{head},\"unit\":{unit},\"done\":{done},\"total\":{total}}}")
            }
            JobEvent::Checkpointed { unit, done, .. } | JobEvent::WorkerLost { unit, done, .. } => {
                format!("{head},\"unit\":{unit},\"done\":{done}}}")
            }
            JobEvent::Completed { .. } | JobEvent::Canceled { .. } => format!("{head}}}"),
            JobEvent::Failed { error, .. } => format!("{head},\"error\":\"{}\"}}", escape(error)),
            JobEvent::Degraded { reason, .. } => {
                format!("{head},\"reason\":\"{}\"}}", escape(reason))
            }
        }
    }

    /// Decodes one event line.
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`] on any malformed input.
    pub fn decode(line: &str) -> Result<JobEvent, ApiError> {
        let v = parse_doc(line)?;
        let job = job(&v)?;
        match v.str("event")? {
            "accepted" => Ok(JobEvent::Accepted { job, units: v.int("units")? }),
            "started" => Ok(JobEvent::Started { job, unit: v.int("unit")? }),
            "progress" => Ok(JobEvent::Progress {
                job,
                unit: v.int("unit")?,
                done: v.int("done")?,
                total: v.int("total")?,
            }),
            "checkpointed" => {
                Ok(JobEvent::Checkpointed { job, unit: v.int("unit")?, done: v.int("done")? })
            }
            "unit_done" => Ok(JobEvent::UnitDone { job, unit: v.int("unit")? }),
            "worker_lost" => {
                Ok(JobEvent::WorkerLost { job, unit: v.int("unit")?, done: v.int("done")? })
            }
            "degraded" => Ok(JobEvent::Degraded { job, reason: v.str("reason")?.to_string() }),
            "completed" => Ok(JobEvent::Completed { job }),
            "failed" => Ok(JobEvent::Failed { job, error: v.str("error")?.to_string() }),
            "canceled" => Ok(JobEvent::Canceled { job }),
            other => Err(ApiError::UnknownKind(other.to_string())),
        }
    }
}

// --- replies -------------------------------------------------------

/// The payload of a successful daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The job was admitted.
    Submitted {
        /// Assigned job id.
        job: JobId,
    },
    /// Status listing (one entry for a specific-job query).
    Jobs(Vec<JobStatus>),
    /// The watch subscription is live; event lines follow on this
    /// connection until a terminal event.
    Watching {
        /// Watched job.
        job: JobId,
    },
    /// Cancel acknowledgement.
    Canceled {
        /// Target job.
        job: JobId,
        /// Whether the job was actually canceled (false if it had
        /// already reached a terminal state).
        canceled: bool,
    },
    /// A completed job's rendered report, verbatim.
    Report {
        /// Source job.
        job: JobId,
        /// Exact report bytes the batch path would have written.
        report: String,
    },
    /// The daemon is shutting down.
    ShuttingDown,
}

/// A daemon-to-client response, one per request line (watch responses
/// are followed by event lines).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded.
    Ok(Reply),
    /// The request was rejected.
    Err {
        /// Stable error class token ([`ApiError::code`] or an
        /// executor-defined code such as `engine` / `not_found`).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Encodes the response as one wire line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let head = format!("{{\"proto_version\":{PROTO_VERSION}");
        match self {
            Response::Ok(reply) => {
                let body = match reply {
                    Reply::Submitted { job } => {
                        format!("{{\"type\":\"submitted\",\"job\":\"{job}\"}}")
                    }
                    Reply::Jobs(jobs) => {
                        let mut s = String::from("{\"type\":\"jobs\",\"jobs\":[");
                        for (i, j) in jobs.iter().enumerate() {
                            if i > 0 {
                                s.push(',');
                            }
                            s.push_str(&j.encode_obj());
                        }
                        s.push_str("]}");
                        s
                    }
                    Reply::Watching { job } => {
                        format!("{{\"type\":\"watching\",\"job\":\"{job}\"}}")
                    }
                    Reply::Canceled { job, canceled } => {
                        format!(
                            "{{\"type\":\"canceled\",\"job\":\"{job}\",\"canceled\":{canceled}}}"
                        )
                    }
                    Reply::Report { job, report } => {
                        format!(
                            "{{\"type\":\"report\",\"job\":\"{job}\",\"report\":\"{}\"}}",
                            escape(report)
                        )
                    }
                    Reply::ShuttingDown => "{\"type\":\"shutting_down\"}".to_string(),
                };
                format!("{head},\"ok\":true,\"reply\":{body}}}")
            }
            Response::Err { code, message } => {
                format!(
                    "{head},\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
                    escape(code),
                    escape(message)
                )
            }
        }
    }

    /// Builds the error response for a rejected request.
    #[must_use]
    pub fn protocol_error(err: &ApiError) -> Response {
        Response::Err { code: err.code().to_string(), message: err.to_string() }
    }
}

/// Decodes one response line.
///
/// # Errors
///
/// Typed [`ApiError`] on any malformed input.
pub fn decode_response(line: &str) -> Result<Response, ApiError> {
    let v = parse_doc(line)?;
    if !v.bool("ok")? {
        let err = v.field("error")?;
        return Ok(Response::Err {
            code: err.str("code")?.to_string(),
            message: err.str("message")?.to_string(),
        });
    }
    let reply = v.field("reply")?;
    match reply.str("type")? {
        "submitted" => Ok(Response::Ok(Reply::Submitted { job: job(reply)? })),
        "jobs" => {
            let jobs =
                reply.arr("jobs")?.iter().map(JobStatus::decode_obj).collect::<Result<_, _>>()?;
            Ok(Response::Ok(Reply::Jobs(jobs)))
        }
        "watching" => Ok(Response::Ok(Reply::Watching { job: job(reply)? })),
        "canceled" => Ok(Response::Ok(Reply::Canceled {
            job: job(reply)?,
            canceled: reply.bool("canceled")?,
        })),
        "report" => Ok(Response::Ok(Reply::Report {
            job: job(reply)?,
            report: reply.str("report")?.to_string(),
        })),
        "shutting_down" => Ok(Response::Ok(Reply::ShuttingDown)),
        other => Err(ApiError::UnknownKind(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SubstrateKind;
    use r2d3_isa::Unit;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec::campaign().build().unwrap(),
            JobSpec::campaign()
                .seed(0xFFFF_FFFF_FFFF_FFFF)
                .scenarios(12)
                .shards(3)
                .substrates(vec![SubstrateKind::Behavioral])
                .kinds(vec![KindId::TsvStuck, KindId::MuxSelect])
                .core("cores/t1.json")
                .priority(9)
                .build()
                .unwrap(),
            JobSpec::lifetime().months(12).seed(1).build().unwrap(),
            JobSpec::inject(Unit::Ffu, 7).bit(13).epochs(9).priority(255).build().unwrap(),
        ]
    }

    #[test]
    fn specs_round_trip() {
        for spec in specs() {
            let line = encode_spec(&spec);
            assert_eq!(decode_spec(&line).unwrap(), spec, "line: {line}");
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit { client: "alice".into(), spec: specs().remove(1) },
            Request::Status { job: None },
            Request::Status { job: Some(JobId(7)) },
            Request::Watch { job: JobId(7), overflow: OverflowPolicy::Drop },
            Request::Cancel { job: JobId(u64::MAX) },
            Request::Result { job: JobId(1) },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            assert_eq!(Request::decode(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn responses_and_events_round_trip() {
        let status = JobStatus {
            id: JobId(0xAB),
            client: "bob".into(),
            kind: "campaign",
            priority: 3,
            state: JobState::Running,
            error: None,
            units: 3,
            units_done: 1,
            progress_done: 12,
            progress_total: 54,
        };
        let resps = vec![
            Response::Ok(Reply::Submitted { job: JobId(0xAB) }),
            Response::Ok(Reply::Jobs(vec![status])),
            Response::Ok(Reply::Watching { job: JobId(0xAB) }),
            Response::Ok(Reply::Canceled { job: JobId(0xAB), canceled: false }),
            Response::Ok(Reply::Report { job: JobId(0xAB), report: "{\n  \"x\": 1\n}\n".into() }),
            Response::Ok(Reply::ShuttingDown),
            Response::Err { code: "invalid".into(), message: "bad \"field\"".into() },
        ];
        for resp in resps {
            let line = resp.encode();
            assert_eq!(decode_response(&line).unwrap(), resp, "line: {line}");
        }
        let events = vec![
            JobEvent::Accepted { job: JobId(1), units: 3 },
            JobEvent::Started { job: JobId(1), unit: 0 },
            JobEvent::Progress { job: JobId(1), unit: 0, done: 2, total: 54 },
            JobEvent::Checkpointed { job: JobId(1), unit: 0, done: 2 },
            JobEvent::UnitDone { job: JobId(1), unit: 0 },
            JobEvent::WorkerLost { job: JobId(1), unit: 2, done: 9 },
            JobEvent::Completed { job: JobId(1) },
            JobEvent::Failed { job: JobId(1), error: "thermal: grid\ntoo small".into() },
            JobEvent::Canceled { job: JobId(1) },
        ];
        for ev in events {
            let line = ev.encode();
            assert_eq!(JobEvent::decode(&line).unwrap(), ev, "line: {line}");
            assert!(!line.contains('\n'), "events must be single-line");
        }
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        assert!(matches!(Request::decode("not json"), Err(ApiError::Syntax(_))));
        assert!(matches!(Request::decode("{}"), Err(ApiError::Missing { .. })));
        assert!(matches!(
            Request::decode("{\"proto_version\":99,\"op\":\"shutdown\"}"),
            Err(ApiError::Version { found: 99 })
        ));
        assert!(matches!(
            Request::decode("{\"proto_version\":1,\"op\":\"launch\"}"),
            Err(ApiError::UnknownOp(_))
        ));
        assert!(matches!(
            Request::decode("{\"proto_version\":1,\"op\":\"cancel\",\"job\":\"zebra\"}"),
            Err(ApiError::Invalid { .. })
        ));
        assert!(matches!(
            decode_spec("{\"proto_version\":1,\"kind\":\"tournament\",\"priority\":0}"),
            Err(ApiError::UnknownKind(_))
        ));
        // Validation runs on decode too: a wire-well-formed but
        // semantically bad spec is rejected.
        let bad = "{\"proto_version\":1,\"kind\":\"campaign\",\"priority\":0,\"seed\":\"0\",\"scenarios\":4,\"substrates\":[\"behavioral\"],\"kinds\":[\"permanent\"],\"core\":null,\"shards\":9}";
        assert!(
            matches!(decode_spec(bad), Err(ApiError::Invalid { field, .. }) if field == "shards")
        );
        let long = r#"{"proto_version":1,"kind":"lifetime","priority":0,"policy":"pro","months":1000000000,"workload":"gemm","seed":"1"}"#;
        assert!(
            matches!(decode_spec(long), Err(ApiError::Invalid { field, .. }) if field == "months")
        );
    }

    #[test]
    fn standard_json_decodes_and_inexact_counts_are_refused() {
        // What Python's `json.dumps` writes: spaces after separators and
        // non-ASCII text as `\u` escapes.
        let line = r#"{"proto_version": 1, "op": "submit", "client": "caf\u00e9", "spec": {"proto_version": 1, "kind": "inject", "priority": 0, "unit": "exu", "layer": 2, "bit": 5, "substrate": "behavioral", "seed": "7", "epochs": 3}}"#;
        match Request::decode(line) {
            Ok(Request::Submit { client, .. }) => assert_eq!(client, "café"),
            other => panic!("expected a submit, got {other:?}"),
        }
        let months = r#"{"proto_version":1,"kind":"lifetime","priority":0,"policy":"lite","months":1e30,"workload":"gemm","seed":"1"}"#;
        assert!(
            matches!(decode_spec(months), Err(ApiError::Invalid { field, .. }) if field == "months")
        );
    }

    #[test]
    fn escape_is_parser_exact() {
        let s = "tab\there \"quoted\" back\\slash\nnewline\rreturn café\u{7f}";
        let line = format!("{{\"s\": \"{}\"}}", escape(s));
        let parsed = json::parse(&line).unwrap();
        // Non-ASCII and unsupported control bytes were mapped to '?';
        // everything else survives byte-exactly.
        assert_eq!(
            parsed.str("s").unwrap(),
            "tab\there \"quoted\" back\\slash\nnewline\rreturn caf??"
        );
    }
}
