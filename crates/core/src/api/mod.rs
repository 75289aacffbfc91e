//! The typed job API: one definition of what a job *is*, shared by the
//! serve daemon, the socket clients and the batch CLI paths.
//!
//! Three layers, each in its own submodule:
//!
//! * `spec` — the library types: [`JobSpec`] (a validated, executable
//!   description of a campaign, lifetime or inject run), [`JobId`], and
//!   fallible builders ([`JobSpec::campaign`] /
//!   [`JobSpec::lifetime`] / [`JobSpec::inject`]) mirroring
//!   `R2d3Engine::builder()`. `to_config()` conversions produce exactly
//!   the configurations the batch CLI used to assemble by hand, which is
//!   what makes a served job's report byte-identical to the batch path.
//! * [`wire`] — the versioned JSON-lines wire protocol: every document
//!   carries `"proto_version"` ([`PROTO_VERSION`]), encoders are
//!   deterministic single-line emitters, and decoders read the
//!   [`r2d3_netlist::json`] tree and return a typed [`ApiError`] — never
//!   a panic — on any malformed input.
//! * `exec` — the in-process executor: [`execute_local`] runs any
//!   `JobSpec` to a [`JobOutcome`], and [`render_outcome`] renders it to
//!   the exact artifact bytes the corresponding batch command emits.
//!   Batch mode *is* submit-to-in-process-executor.
//!
//! The protocol versioning rule (DESIGN.md §5.0): `proto_version` bumps
//! on any breaking change to a wire document; peers reject documents
//! from other versions with [`ApiError::Version`] rather than guess.

mod exec;
mod spec;
pub mod wire;

pub use exec::{
    execute_local, render_outcome, run_inject_with, standard_system, InjectOutcome, JobOutcome,
};
pub use spec::{
    load_core_stages, parse_policy, parse_unit, parse_workload, policy_token, unit_token,
    workload_token, CampaignJobBuilder, CampaignSpec, InjectJobBuilder, InjectSpec, JobId, JobKind,
    JobSpec, LifetimeJobBuilder, LifetimeSpec,
};
pub use wire::{JobEvent, JobState, JobStatus, Reply, Request, Response};

use r2d3_netlist::json::{FieldError, SyntaxError};
use std::fmt;

/// Wire-protocol version stamped on (and required of) every document.
pub const PROTO_VERSION: u32 = 1;

/// Typed rejection reasons for API documents and job specifications.
/// Decoding and validation never panic; every failure mode is one of
/// these, and [`ApiError::code`] gives the stable wire token the daemon
/// reports it under.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApiError {
    /// The line is not well-formed JSON.
    Syntax(String),
    /// The document carries a different `proto_version` than this build
    /// speaks.
    Version {
        /// Version found in the document.
        found: u32,
    },
    /// A required field is absent.
    Missing {
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field is present but its value is unusable.
    Invalid {
        /// Dotted path of the offending field.
        field: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// The request's `op` is not part of the protocol.
    UnknownOp(String),
    /// The job/event/state kind token is not part of the protocol.
    UnknownKind(String),
    /// A client-side deadline expired before the peer answered (connect
    /// or read timeout). The connection is no longer usable: a reply
    /// arriving after the timeout would desynchronize the stream.
    Timeout,
}

impl ApiError {
    /// Stable wire token identifying the error class.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::Syntax(_) => "syntax",
            ApiError::Version { .. } => "version",
            ApiError::Missing { .. } => "missing",
            ApiError::Invalid { .. } => "invalid",
            ApiError::UnknownOp(_) => "unknown_op",
            ApiError::UnknownKind(_) => "unknown_kind",
            ApiError::Timeout => "timeout",
        }
    }

    pub(crate) fn invalid(field: &str, reason: impl Into<String>) -> Self {
        ApiError::Invalid { field: field.to_string(), reason: reason.into() }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Syntax(msg) => write!(f, "malformed JSON: {msg}"),
            ApiError::Version { found } => {
                write!(
                    f,
                    "protocol version {found} unsupported (this build speaks {PROTO_VERSION})"
                )
            }
            ApiError::Missing { field } => write!(f, "missing field \"{field}\""),
            ApiError::Invalid { field, reason } => write!(f, "invalid \"{field}\": {reason}"),
            ApiError::UnknownOp(op) => write!(f, "unknown op \"{op}\""),
            ApiError::UnknownKind(kind) => write!(f, "unknown kind \"{kind}\""),
            ApiError::Timeout => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<SyntaxError> for ApiError {
    fn from(e: SyntaxError) -> Self {
        ApiError::Syntax(e.to_string())
    }
}

impl From<FieldError> for ApiError {
    fn from(e: FieldError) -> Self {
        match e {
            FieldError::Missing { field } => ApiError::Missing { field },
            FieldError::Invalid { field, reason } => ApiError::Invalid { field, reason },
        }
    }
}
