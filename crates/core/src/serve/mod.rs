//! Campaign-as-a-service: the `r2d3 serve` job daemon.
//!
//! A [`Daemon`] listens on a unix or TCP socket ([`Listen`]), speaks the
//! JSON-lines protocol from [`crate::api::wire`], and schedules accepted
//! jobs onto a pool of worker threads. The serving contract
//! (DESIGN.md §5.0):
//!
//! * **Served == batch, byte-compared.** A job's rendered report is
//!   byte-identical to what the batch CLI command with the same spec
//!   writes: single-unit jobs run through
//!   [`crate::api::execute_local`]'s machinery, sharded campaigns
//!   run one [`crate::campaign::ShardSpec`] partition per unit and are
//!   recombined with [`crate::campaign::merge_shards`], whose output is
//!   provably the unsharded report.
//! * **Killed workers resume, not restart.** Every unit checkpoints
//!   its durable state ([`crate::campaign::CampaignState`] /
//!   [`crate::lifetime::LifetimeRunState`]) into the job's state
//!   directory through the `R2D3SNAP` container; a unit re-dispatched
//!   after a worker loss — or a whole daemon restart over the same
//!   `--state-dir` — picks up from the last checkpoint, and the final
//!   report is still byte-identical (the durable runners' contract).
//! * **Malformed input never kills the daemon.** Every request line is
//!   decoded by the typed validators, with bounded length
//!   ([`MAX_REQUEST_LINE`]) and nesting depth; a bad line gets a typed
//!   error response and the connection stays usable.
//! * **Fairness is deterministic.** Units are dispatched by a
//!   quota-proportional deficit scheduler ([`sched`]) with documented,
//!   worker-count-independent tie-breaking.
//!
//! Live job events stream to `watch` subscribers with per-subscriber
//! [`crate::telemetry::OverflowPolicy`] (Block = lossless backpressure,
//! Drop = lossy non-stalling), mirroring the telemetry stream sink's
//! overflow semantics.

mod client;
mod daemon;
mod events;
mod sched;
pub(crate) mod store;

pub use client::Client;
pub use daemon::{Daemon, MAX_REQUEST_LINE};

use crate::api::ApiError;
use crate::snapshot::SnapshotError;
use crate::EngineError;
use std::fmt;
use std::path::PathBuf;

/// Where a daemon listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// Unix-domain socket at this path.
    Unix(PathBuf),
    /// TCP socket at this `host:port`.
    Tcp(String),
}

impl Listen {
    /// Parses an address argument: `unix:PATH` and `tcp:HOST:PORT` are
    /// explicit; a bare token containing `:` is TCP, anything else is a
    /// unix socket path.
    ///
    /// # Errors
    ///
    /// [`ServeError::Addr`] on an empty address.
    pub fn parse(text: &str) -> Result<Listen, ServeError> {
        let listen = if let Some(path) = text.strip_prefix("unix:") {
            Listen::Unix(PathBuf::from(path))
        } else if let Some(addr) = text.strip_prefix("tcp:") {
            Listen::Tcp(addr.to_string())
        } else if text.contains(':') {
            Listen::Tcp(text.to_string())
        } else {
            Listen::Unix(PathBuf::from(text))
        };
        let empty = match &listen {
            Listen::Unix(p) => p.as_os_str().is_empty(),
            Listen::Tcp(a) => a.is_empty(),
        };
        if empty {
            return Err(ServeError::Addr(format!("empty listen address: `{text}`")));
        }
        Ok(listen)
    }
}

impl fmt::Display for Listen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Listen::Unix(p) => write!(f, "unix:{}", p.display()),
            Listen::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding per-job state: manifests, unit checkpoints,
    /// shard reports, rendered reports and event logs. Restarting a
    /// daemon over the same directory resumes its unfinished jobs.
    pub state_dir: PathBuf,
    /// Worker threads executing job units.
    pub workers: usize,
    /// Scheduling quota for clients not named in `quotas`.
    pub default_quota: u64,
    /// Per-client scheduling quotas (`(client, weight)`); a client with
    /// quota 3 is dispatched three units for every one of a quota-1
    /// client under contention.
    pub quotas: Vec<(String, u64)>,
    /// Observer steps (scenarios / month-steps) between unit
    /// checkpoints; 1 = checkpoint after every step.
    pub snapshot_every: u64,
    /// When set, a worker voluntarily yields a unit back to the queue
    /// after this many observer steps (checkpointing first and emitting
    /// a `worker_lost` event). Exercises the kill/resume path
    /// deterministically; `None` disables leasing.
    pub lease_steps: Option<u64>,
    /// Start with dispatch paused; no unit runs until
    /// [`Daemon::release`]. Lets tests (and batch pre-loading) submit a
    /// whole job set before the first dispatch decision.
    pub paused: bool,
    /// I/O environment every durable byte goes through: filesystem seam,
    /// transient-failure retry policy, and the clock backoff sleeps on.
    /// Defaults to the real filesystem; chaos tests inject a
    /// [`crate::chaos::FaultyFs`] and a virtual clock here.
    pub io: crate::chaos::IoEnv,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("r2d3-serve"),
            workers: 2,
            default_quota: 1,
            quotas: Vec::new(),
            snapshot_every: 1,
            lease_steps: None,
            paused: false,
            io: crate::chaos::IoEnv::default(),
        }
    }
}

/// Errors raised by the serve daemon and client.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket or state-directory I/O failure.
    Io(std::io::Error),
    /// A durable artifact could not be written or restored.
    Snapshot(SnapshotError),
    /// A wire document was rejected.
    Protocol(ApiError),
    /// Job execution failed in the engine.
    Engine(EngineError),
    /// The listen/connect address is unusable.
    Addr(String),
    /// The daemon rejected a request (client side).
    Remote {
        /// Stable error class token.
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// The peer closed the connection mid-conversation.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Snapshot(e) => write!(f, "{e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Addr(msg) => write!(f, "{msg}"),
            ServeError::Remote { code, message } => write!(f, "daemon error ({code}): {message}"),
            ServeError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Engine(e) => Some(e),
            ServeError::Addr(_) | ServeError::Remote { .. } | ServeError::Closed => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<ApiError> for ServeError {
    fn from(e: ApiError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addresses_parse() {
        assert_eq!(Listen::parse("unix:/tmp/a.sock").unwrap(), Listen::Unix("/tmp/a.sock".into()));
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7373").unwrap(),
            Listen::Tcp("127.0.0.1:7373".into())
        );
        assert_eq!(Listen::parse("127.0.0.1:7373").unwrap(), Listen::Tcp("127.0.0.1:7373".into()));
        assert_eq!(Listen::parse("/tmp/a.sock").unwrap(), Listen::Unix("/tmp/a.sock".into()));
        assert!(Listen::parse("unix:").is_err());
    }
}
