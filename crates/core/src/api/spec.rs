//! Job specifications: the one description of runnable work shared by
//! the daemon, the socket clients and the batch CLI.
//!
//! A [`JobSpec`] is always valid by construction: the builders and the
//! wire decoder both funnel through [`JobSpec::validate`], so anything
//! holding a `JobSpec` can execute it without re-checking. The
//! `to_config()` conversions reproduce the exact configurations the
//! batch CLI commands assemble, which is the foundation of the serve
//! determinism contract (served report == batch report, byte-compared).

use super::ApiError;
use crate::campaign::{CampaignConfig, KindId, SubstrateKind};
use crate::lifetime::LifetimeConfig;
use crate::policy::PolicyKind;
use crate::EngineError;
use r2d3_isa::kernels::KernelKind;
use r2d3_isa::Unit;
use r2d3_netlist::stages::StageNetlist;
use r2d3_thermal::GridConfig;
use std::fmt;

/// Daemon-assigned job identifier; renders as fixed-width hex (the form
/// used on the wire, in job directory names and by the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// Parses the wire/CLI form (lowercase hex, as printed by `Display`).
    ///
    /// # Errors
    ///
    /// [`ApiError::Invalid`] when the token is not hex.
    pub fn parse(token: &str) -> Result<JobId, ApiError> {
        u64::from_str_radix(token, 16)
            .map(JobId)
            .map_err(|_| ApiError::invalid("job", format!("not a job id: \"{token}\"")))
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

/// A validated, executable job description plus its scheduling priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Scheduling priority *within one client's queue* (higher runs
    /// first; fairness across clients is governed by quotas, which
    /// priority never overrides).
    pub priority: u8,
    /// What to run.
    pub kind: JobKind,
}

/// The three runnable job families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Adversarial fault-injection sweep (`r2d3 campaign`).
    Campaign(CampaignSpec),
    /// NBTI-aware lifetime trajectory (`r2d3 lifetime`).
    Lifetime(LifetimeSpec),
    /// Single permanent fault, watch the engine repair it
    /// (`r2d3 inject`).
    Inject(InjectSpec),
}

/// Campaign job parameters — the serializable subset of
/// [`CampaignConfig`] plus a shard count for the worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Master scenario seed.
    pub seed: u64,
    /// Scenarios per substrate.
    pub scenarios: usize,
    /// Substrates to sweep, in report order.
    pub substrates: Vec<SubstrateKind>,
    /// Fault kinds the generator cycles through.
    pub kinds: Vec<KindId>,
    /// Optional path to an imported core netlist (`campaign --core`);
    /// resolved by the executing host when the job runs.
    pub core: Option<String>,
    /// Units the job is split into (1 = unsharded). Each unit runs one
    /// [`crate::campaign::ShardSpec`] partition; the daemon merges them
    /// with [`crate::campaign::merge_shards`].
    pub shards: usize,
}

/// Lifetime job parameters, mirroring `r2d3 lifetime`'s flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeSpec {
    /// Rotation policy under evaluation.
    pub policy: PolicyKind,
    /// Months to simulate.
    pub months: usize,
    /// Workload kernel (sets demand and activity weight).
    pub workload: KernelKind,
    /// RNG seed.
    pub seed: u64,
}

/// Inject job parameters, mirroring `r2d3 inject`'s arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectSpec {
    /// Victim pipeline unit.
    pub unit: Unit,
    /// Victim stack layer.
    pub layer: usize,
    /// Output bit the fault sticks at 1.
    pub bit: u8,
    /// Substrate to drive (never `Both`; one system per job).
    pub substrate: SubstrateKind,
    /// Workload / fault derivation seed.
    pub seed: u64,
    /// Engine epochs to run before giving up on a diagnosis.
    pub epochs: u64,
}

impl JobSpec {
    /// Starts a campaign job description with `r2d3 campaign` defaults.
    #[must_use]
    pub fn campaign() -> CampaignJobBuilder {
        CampaignJobBuilder {
            spec: CampaignSpec {
                seed: 0xCA3A,
                scenarios: 256,
                substrates: vec![SubstrateKind::Behavioral, SubstrateKind::Netlist],
                kinds: KindId::ALL.to_vec(),
                core: None,
                shards: 1,
            },
            priority: 0,
        }
    }

    /// Starts a lifetime job description with `r2d3 lifetime` defaults.
    #[must_use]
    pub fn lifetime() -> LifetimeJobBuilder {
        LifetimeJobBuilder {
            spec: LifetimeSpec {
                policy: PolicyKind::Pro,
                months: 96,
                workload: KernelKind::Gemm,
                seed: 0x52D3,
            },
            priority: 0,
        }
    }

    /// Starts an inject job description for a victim stage, with
    /// `r2d3 inject` defaults for everything else.
    #[must_use]
    pub fn inject(unit: Unit, layer: usize) -> InjectJobBuilder {
        InjectJobBuilder {
            spec: InjectSpec {
                unit,
                layer,
                bit: 0,
                substrate: SubstrateKind::Behavioral,
                seed: 7,
                epochs: 64,
            },
            priority: 0,
        }
    }

    /// Stable job-family token (`campaign` / `lifetime` / `inject`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            JobKind::Campaign(_) => "campaign",
            JobKind::Lifetime(_) => "lifetime",
            JobKind::Inject(_) => "inject",
        }
    }

    /// Schedulable units the job splits into (campaign shards; 1
    /// otherwise).
    #[must_use]
    pub fn units(&self) -> u64 {
        match &self.kind {
            JobKind::Campaign(c) => c.shards as u64,
            JobKind::Lifetime(_) | JobKind::Inject(_) => 1,
        }
    }

    /// Total progress steps the job will report (observer granularity:
    /// scenarios × substrates for campaigns, month-steps × replicas for
    /// lifetime runs, 1 for injects).
    #[must_use]
    pub fn progress_total(&self) -> u64 {
        match &self.kind {
            JobKind::Campaign(c) => (c.scenarios * c.substrates.len()) as u64,
            JobKind::Lifetime(l) => (l.months * LIFETIME_REPLICAS) as u64,
            JobKind::Inject(_) => 1,
        }
    }

    /// Checks every invariant the builders and the wire decoder enforce.
    ///
    /// # Errors
    ///
    /// [`ApiError::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), ApiError> {
        match &self.kind {
            JobKind::Campaign(c) => c.validate(),
            JobKind::Lifetime(l) => l.validate(),
            JobKind::Inject(i) => i.validate(),
        }
    }
}

/// Replicas the lifetime CLI path (and therefore lifetime jobs) runs.
const LIFETIME_REPLICAS: usize = 6;

/// Most months one lifetime job may simulate: 1,000 years. A run's time,
/// and the series every checkpoint rewrites, grow with its months, so
/// this bounds what one submit line can claim.
const MAX_MONTHS: usize = 12_000;

/// Most scenarios one campaign job may sweep: 256× the default sweep.
/// Admission allocates per scenario (each can be a shard unit) before
/// any work runs, so this bounds what one submit line can claim.
const MAX_SCENARIOS: usize = 65_536;

/// Largest `--core` file read (by jobs, `campaign --core` and `r2d3
/// import`): 64 MiB, about 15,000× the vendored 4.5 KB core.
pub const MAX_CORE_BYTES: u64 = 64 << 20;

impl CampaignSpec {
    fn validate(&self) -> Result<(), ApiError> {
        if !(1..=MAX_SCENARIOS).contains(&self.scenarios) {
            return Err(ApiError::invalid("scenarios", format!("must be in 1..={MAX_SCENARIOS}")));
        }
        if self.substrates.is_empty() {
            return Err(ApiError::invalid("substrates", "must name at least one substrate"));
        }
        if self.substrates.len() > 2
            || (self.substrates.len() == 2 && self.substrates[0] == self.substrates[1])
        {
            return Err(ApiError::invalid("substrates", "substrates must be distinct"));
        }
        if self.kinds.is_empty() {
            return Err(ApiError::invalid("kinds", "must name at least one fault kind"));
        }
        for (i, k) in self.kinds.iter().enumerate() {
            if self.kinds[..i].contains(k) {
                return Err(ApiError::invalid(
                    "kinds",
                    format!("duplicate fault kind \"{}\"", k.name()),
                ));
            }
        }
        if self.shards == 0 || self.shards > self.scenarios {
            return Err(ApiError::invalid(
                "shards",
                format!("must be in 1..={} (the scenario count)", self.scenarios),
            ));
        }
        Ok(())
    }

    /// Scenario-steps (scenarios × substrates) owned by 0-based shard
    /// `unit` of this spec's `shards`-way partition — the unit's
    /// progress denominator, computable without loading the core file.
    #[must_use]
    pub fn unit_steps(&self, unit: u64) -> u64 {
        let owned = (0..self.scenarios).filter(|id| id % self.shards == unit as usize).count();
        (owned * self.substrates.len()) as u64
    }

    /// Builds the exact [`CampaignConfig`] the batch CLI assembles for
    /// these parameters (loading `core` from disk when set), so a job
    /// run through any path produces byte-identical reports.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when the core file cannot be read
    /// or parsed.
    pub fn to_config(&self) -> Result<CampaignConfig, EngineError> {
        let netlist_stages = self.core.as_deref().map(load_core_stages).transpose()?;
        Ok(CampaignConfig {
            seed: self.seed,
            scenarios_per_substrate: self.scenarios,
            substrates: self.substrates.clone(),
            netlist_stages,
            kinds: self.kinds.clone(),
            ..Default::default()
        })
    }
}

impl LifetimeSpec {
    fn validate(&self) -> Result<(), ApiError> {
        if !(1..=MAX_MONTHS).contains(&self.months) {
            return Err(ApiError::invalid("months", format!("must be in 1..={MAX_MONTHS}")));
        }
        Ok(())
    }

    /// Builds the exact [`LifetimeConfig`] the batch CLI assembles for
    /// these parameters.
    #[must_use]
    pub fn to_config(&self) -> LifetimeConfig {
        LifetimeConfig {
            months: self.months,
            replicas: LIFETIME_REPLICAS,
            mttf_trials: 200,
            seed: self.seed,
            grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
            ..LifetimeConfig::new(
                self.policy,
                self.workload.core_demand_fraction(),
                self.workload.activity_weight(),
            )
        }
    }
}

impl InjectSpec {
    fn validate(&self) -> Result<(), ApiError> {
        if self.layer >= 8 {
            return Err(ApiError::invalid("layer", "must be in 0..8"));
        }
        if self.epochs == 0 {
            return Err(ApiError::invalid("epochs", "must be at least 1"));
        }
        Ok(())
    }
}

// --- builders ------------------------------------------------------

/// Fallible builder for campaign jobs (see [`JobSpec::campaign`]).
#[derive(Debug, Clone)]
pub struct CampaignJobBuilder {
    spec: CampaignSpec,
    priority: u8,
}

impl CampaignJobBuilder {
    /// Master scenario seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Scenarios per substrate.
    #[must_use]
    pub fn scenarios(mut self, scenarios: usize) -> Self {
        self.spec.scenarios = scenarios;
        self
    }

    /// Substrates to sweep, in report order.
    #[must_use]
    pub fn substrates(mut self, substrates: Vec<SubstrateKind>) -> Self {
        self.spec.substrates = substrates;
        self
    }

    /// Fault kinds to sweep.
    #[must_use]
    pub fn kinds(mut self, kinds: Vec<KindId>) -> Self {
        self.spec.kinds = kinds;
        self
    }

    /// Path to an imported core netlist for the gate-level substrate.
    #[must_use]
    pub fn core(mut self, path: impl Into<String>) -> Self {
        self.spec.core = Some(path.into());
        self
    }

    /// Units to split the job into (serve worker parallelism).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Scheduling priority within the submitting client's queue.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Validates and seals the spec.
    ///
    /// # Errors
    ///
    /// [`ApiError::Invalid`] naming the offending field.
    pub fn build(self) -> Result<JobSpec, ApiError> {
        let spec = JobSpec { priority: self.priority, kind: JobKind::Campaign(self.spec) };
        spec.validate()?;
        Ok(spec)
    }
}

/// Fallible builder for lifetime jobs (see [`JobSpec::lifetime`]).
#[derive(Debug, Clone)]
pub struct LifetimeJobBuilder {
    spec: LifetimeSpec,
    priority: u8,
}

impl LifetimeJobBuilder {
    /// Rotation policy under evaluation.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Months to simulate.
    #[must_use]
    pub fn months(mut self, months: usize) -> Self {
        self.spec.months = months;
        self
    }

    /// Workload kernel.
    #[must_use]
    pub fn workload(mut self, workload: KernelKind) -> Self {
        self.spec.workload = workload;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Scheduling priority within the submitting client's queue.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Validates and seals the spec.
    ///
    /// # Errors
    ///
    /// [`ApiError::Invalid`] naming the offending field.
    pub fn build(self) -> Result<JobSpec, ApiError> {
        let spec = JobSpec { priority: self.priority, kind: JobKind::Lifetime(self.spec) };
        spec.validate()?;
        Ok(spec)
    }
}

/// Fallible builder for inject jobs (see [`JobSpec::inject`]).
#[derive(Debug, Clone)]
pub struct InjectJobBuilder {
    spec: InjectSpec,
    priority: u8,
}

impl InjectJobBuilder {
    /// Output bit the fault sticks at 1.
    #[must_use]
    pub fn bit(mut self, bit: u8) -> Self {
        self.spec.bit = bit;
        self
    }

    /// Substrate to drive.
    #[must_use]
    pub fn substrate(mut self, substrate: SubstrateKind) -> Self {
        self.spec.substrate = substrate;
        self
    }

    /// Workload / fault derivation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Engine epochs to run before giving up.
    #[must_use]
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.spec.epochs = epochs;
        self
    }

    /// Scheduling priority within the submitting client's queue.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Validates and seals the spec.
    ///
    /// # Errors
    ///
    /// [`ApiError::Invalid`] naming the offending field.
    pub fn build(self) -> Result<JobSpec, ApiError> {
        let spec = JobSpec { priority: self.priority, kind: JobKind::Inject(self.spec) };
        spec.validate()?;
        Ok(spec)
    }
}

// --- wire tokens ---------------------------------------------------
//
// Spelled independently of any `Display` impl so protocol stability
// never hinges on human-facing formatting.

/// Wire token of a rotation policy (`norecon|static|lite|pro`).
#[must_use]
pub fn policy_token(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::NoRecon => "norecon",
        PolicyKind::Static => "static",
        PolicyKind::Lite => "lite",
        PolicyKind::Pro => "pro",
    }
}

/// Parses a [`policy_token`].
///
/// # Errors
///
/// [`ApiError::UnknownKind`] for anything else.
pub fn parse_policy(token: &str) -> Result<PolicyKind, ApiError> {
    match token {
        "norecon" => Ok(PolicyKind::NoRecon),
        "static" => Ok(PolicyKind::Static),
        "lite" => Ok(PolicyKind::Lite),
        "pro" => Ok(PolicyKind::Pro),
        other => Err(ApiError::UnknownKind(other.to_string())),
    }
}

/// Wire token of a workload kernel (`gemm|gemv|fft`).
#[must_use]
pub fn workload_token(workload: KernelKind) -> &'static str {
    match workload {
        KernelKind::Gemm => "gemm",
        KernelKind::Gemv => "gemv",
        KernelKind::Fft => "fft",
    }
}

/// Parses a [`workload_token`].
///
/// # Errors
///
/// [`ApiError::UnknownKind`] for anything else.
pub fn parse_workload(token: &str) -> Result<KernelKind, ApiError> {
    match token {
        "gemm" => Ok(KernelKind::Gemm),
        "gemv" => Ok(KernelKind::Gemv),
        "fft" => Ok(KernelKind::Fft),
        other => Err(ApiError::UnknownKind(other.to_string())),
    }
}

/// Wire token of a pipeline unit (its canonical name, e.g. `EXU`).
#[must_use]
pub fn unit_token(unit: Unit) -> &'static str {
    unit.name()
}

/// Parses a [`unit_token`] case-insensitively.
///
/// # Errors
///
/// [`ApiError::UnknownKind`] for anything else.
pub fn parse_unit(token: &str) -> Result<Unit, ApiError> {
    Unit::ALL
        .iter()
        .copied()
        .find(|u| u.name().eq_ignore_ascii_case(token))
        .ok_or_else(|| ApiError::UnknownKind(token.to_string()))
}

pub(crate) fn substrate_token(kind: SubstrateKind) -> &'static str {
    kind.name()
}

pub(crate) fn parse_substrate_kind(token: &str) -> Result<SubstrateKind, ApiError> {
    match token {
        "behavioral" => Ok(SubstrateKind::Behavioral),
        "netlist" => Ok(SubstrateKind::Netlist),
        other => Err(ApiError::UnknownKind(other.to_string())),
    }
}

/// A user-named input file refused before it was parsed.
#[derive(Debug)]
#[non_exhaustive]
pub enum InputError {
    /// The file could not be opened or read, or is not UTF-8.
    Io {
        /// The path as given.
        path: String,
        /// What the operating system reported.
        source: std::io::Error,
    },
    /// The file holds more than `limit` bytes.
    TooLarge {
        /// The path as given.
        path: String,
        /// What the file was read as, e.g. `core file`.
        what: &'static str,
        /// The size limit in bytes.
        limit: u64,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Io { path, source } => write!(f, "{path}: {source}"),
            InputError::TooLarge { path, what, limit } => {
                write!(f, "{path}: {what} is larger than the {} MiB limit", limit >> 20)
            }
        }
    }
}

impl std::error::Error for InputError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InputError::Io { source, .. } => Some(source),
            InputError::TooLarge { .. } => None,
        }
    }
}

/// Reads the user-named file at `path` as UTF-8 text, refusing one of
/// more than `limit` bytes. A regular file is refused by its length
/// before any of it is read. The read itself is bounded too, because
/// devices such as `/dev/zero` report length 0; so a path from a job or
/// a command line never makes the reader allocate past `limit`.
///
/// # Errors
///
/// [`InputError::TooLarge`] past the limit, [`InputError::Io`] when the
/// file cannot be opened or read or is not UTF-8.
pub fn read_bounded(path: &str, what: &'static str, limit: u64) -> Result<String, InputError> {
    use std::io::Read as _;
    let io = |source| InputError::Io { path: path.to_string(), source };
    let too_large = || InputError::TooLarge { path: path.to_string(), what, limit };
    let file = std::fs::File::open(path).map_err(io)?;
    if file.metadata().map_err(io)?.len() > limit {
        return Err(too_large());
    }
    let mut text = String::new();
    file.take(limit + 1).read_to_string(&mut text).map_err(io)?;
    if text.len() as u64 > limit {
        return Err(too_large());
    }
    Ok(text)
}

/// Loads a `--core` file — either the text netlist format emitted by
/// `r2d3 import` (used as-is) or a raw Yosys-JSON core (which gets the
/// full import pipeline: validate + rewrite) — and maps the one core
/// onto every pipeline-unit stage. Shared by the batch CLI and the
/// serve workers so both resolve a job's `core` path identically.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] describing the read or parse failure,
/// or naming the size limit for a file larger than [`MAX_CORE_BYTES`].
pub fn load_core_stages(path: &str) -> Result<Vec<StageNetlist>, EngineError> {
    // Read-only user input, not durable state: stays off the chaos Vfs
    // seam on purpose (a failed read is a typed config error up front).
    let text = read_bounded(path, "core file", MAX_CORE_BYTES)
        .map_err(|e| EngineError::InvalidConfig(e.to_string()))?;
    let netlist = if text.trim_start().starts_with('{') {
        let core = r2d3_netlist::parse_yosys_json(&text, None)
            .map_err(|e| EngineError::InvalidConfig(format!("{path}: {e}")))?;
        r2d3_netlist::rewrite(&core.netlist)
            .map_err(|e| EngineError::InvalidConfig(format!("{path}: {e}")))?
            .netlist
    } else {
        r2d3_netlist::text_parse(&text)
            .map_err(|e| EngineError::InvalidConfig(format!("{path}: {e}")))?
    };
    Unit::ALL
        .iter()
        .map(|&u| {
            StageNetlist::from_netlist(u, netlist.clone())
                .map_err(|e| EngineError::InvalidConfig(format!("{path}: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_round_trip_through_display() {
        for v in [0u64, 42, 0xdead_beef, u64::MAX] {
            let id = JobId(v);
            assert_eq!(JobId::parse(&id.to_string()).unwrap(), id);
        }
        assert!(JobId::parse("zebra").is_err());
    }

    #[test]
    fn builders_validate_their_specs() {
        assert!(JobSpec::campaign().scenarios(9).shards(3).build().is_ok());
        assert!(matches!(
            JobSpec::campaign().scenarios(0).build(),
            Err(ApiError::Invalid { field, .. }) if field == "scenarios"
        ));
        assert!(matches!(
            JobSpec::campaign().scenarios(1_000_000_000).shards(1_000_000_000).build(),
            Err(ApiError::Invalid { field, .. }) if field == "scenarios"
        ));
        assert!(matches!(
            JobSpec::campaign().scenarios(4).shards(5).build(),
            Err(ApiError::Invalid { field, .. }) if field == "shards"
        ));
        assert!(matches!(
            JobSpec::campaign().kinds(vec![]).build(),
            Err(ApiError::Invalid { field, .. }) if field == "kinds"
        ));
        assert!(matches!(
            JobSpec::lifetime().months(0).build(),
            Err(ApiError::Invalid { field, .. }) if field == "months"
        ));
        assert!(JobSpec::lifetime().months(12_000).build().is_ok());
        assert!(matches!(
            JobSpec::lifetime().months(12_001).build(),
            Err(ApiError::Invalid { field, .. }) if field == "months"
        ));
        assert!(matches!(
            JobSpec::inject(Unit::Exu, 9).build(),
            Err(ApiError::Invalid { field, .. }) if field == "layer"
        ));
    }

    #[test]
    fn campaign_config_matches_batch_assembly() {
        let spec = JobSpec::campaign().seed(0xD00B).scenarios(9).build().unwrap();
        let JobKind::Campaign(c) = &spec.kind else { unreachable!() };
        let cfg = c.to_config().unwrap();
        let batch = CampaignConfig {
            seed: 0xD00B,
            scenarios_per_substrate: 9,
            substrates: vec![SubstrateKind::Behavioral, SubstrateKind::Netlist],
            netlist_stages: None,
            kinds: KindId::ALL.to_vec(),
            ..Default::default()
        };
        assert_eq!(format!("{cfg:?}"), format!("{batch:?}"));
    }

    #[test]
    fn unit_steps_partition_the_scenarios() {
        let spec = JobSpec::campaign().scenarios(9).shards(3).build().unwrap();
        let JobKind::Campaign(c) = &spec.kind else { unreachable!() };
        let total: u64 = (0..3).map(|u| c.unit_steps(u)).sum();
        assert_eq!(total, spec.progress_total());
    }

    #[test]
    fn wire_tokens_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(parse_policy(policy_token(p)).unwrap(), p);
        }
        for w in KernelKind::ALL {
            assert_eq!(parse_workload(workload_token(w)).unwrap(), w);
        }
        for u in Unit::ALL {
            assert_eq!(parse_unit(unit_token(u)).unwrap(), u);
        }
        assert!(parse_policy("NoRecon").is_err(), "wire tokens are exact, not Display");
    }

    fn assert_size_error(result: Result<Vec<StageNetlist>, EngineError>) {
        match result {
            Err(EngineError::InvalidConfig(msg)) => {
                assert!(msg.ends_with("larger than the 64 MiB limit"), "{msg}");
            }
            other => panic!("expected the size error, got {other:?}"),
        }
    }

    #[test]
    fn core_file_one_byte_past_the_limit_is_refused() {
        // Sparse: takes no disk space, and is refused by its length.
        let path = std::env::temp_dir().join(format!("r2d3-big-core-{}.nl", std::process::id()));
        std::fs::File::create(&path).unwrap().set_len(MAX_CORE_BYTES + 1).unwrap();
        let result = load_core_stages(path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        assert_size_error(result);
    }

    #[cfg(unix)]
    #[test]
    fn endless_core_device_is_refused() {
        assert_size_error(load_core_stages("/dev/zero"));
    }
}
