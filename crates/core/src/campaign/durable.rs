//! Durable campaign execution: the one campaign loop, sharding,
//! fault-tolerant merge, and crash-safe resume.
//!
//! Four pieces, all built on the [`snapshot`] container format:
//!
//! * **One loop** — every campaign schedule (batch, traced,
//!   checkpointed, sharded, served) runs the private `sweep` through
//!   [`run_campaign`], [`run_campaign_traced`] or
//!   [`run_campaign_durable`]. It runs scenarios on every host core and
//!   hands the observer a portable [`CampaignState`] after every
//!   scenario, in scenario order.
//! * **Sharding** — [`ShardSpec`] deterministically partitions the
//!   scenario space (`id % total == index - 1`, so the round-robin kind
//!   cycle stays balanced across shards); [`run_campaign_durable`] with
//!   a shard sweeps one partition and [`ShardReport::save`] persists it.
//! * **Merge** — [`merge_shards`] recombines per-shard reports into one
//!   [`CampaignReport`], validating seed/size/substrate compatibility
//!   and detecting scenario overlaps and gaps. Scenario execution is
//!   independent and the metric folds are commutative, so the merged
//!   report renders byte-identical to an unsharded run.
//! * **Resume** — a state captured mid-flight and handed back to
//!   [`run_campaign_durable`] resumes into a byte-identical report.

use crate::campaign::runner::{
    CampaignConfig, CampaignReport, CampaignTrace, EventCounts, Outcome, PreparedSubstrate,
    ScenarioResult, SubstrateKind, SubstrateReport, SweepMetrics,
};
use crate::campaign::scenario::{
    generate_scenarios_with, FaultKind, FaultScenario, Injection, KindId, ScenarioSpace, KIND_NAMES,
};
use crate::chaos::Vfs;
use crate::pool::run_in_order;
use crate::snapshot::{self, SnapshotError};
use crate::telemetry::Histogram;
use r2d3_netlist::json::{self, hex_u64, FieldError, Value};
use r2d3_pipeline_sim::StageId;
use std::fmt;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::Path;

/// One shard of a partitioned campaign: shard `index` of `total`
/// (1-based, like the CLI's `--shard K/N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    total: usize,
}

impl ShardSpec {
    /// Builds a shard spec; `index` is 1-based.
    ///
    /// # Errors
    ///
    /// Rejects `total == 0` and `index` outside `1..=total`.
    pub fn new(index: usize, total: usize) -> Result<Self, String> {
        if total == 0 {
            return Err("shard total must be at least 1".into());
        }
        if index == 0 || index > total {
            return Err(format!("shard index must be in 1..={total}, got {index}"));
        }
        Ok(ShardSpec { index, total })
    }

    /// Parses the CLI form `K/N`.
    ///
    /// # Errors
    ///
    /// Malformed syntax or an out-of-range pair.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (k, n) = text
            .split_once('/')
            .ok_or_else(|| format!("expected K/N (e.g. 2/4), got \"{text}\""))?;
        let index = k.trim().parse::<usize>().map_err(|_| format!("bad shard index \"{k}\""))?;
        let total = n.trim().parse::<usize>().map_err(|_| format!("bad shard total \"{n}\""))?;
        ShardSpec::new(index, total)
    }

    /// 1-based shard index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of shards in the partition.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether this shard owns scenario `id`. Strided assignment keeps
    /// the generator's round-robin kind cycle balanced across shards.
    #[must_use]
    pub fn owns(&self, id: u32) -> bool {
        id as usize % self.total == self.index - 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// The scenarios of `config`'s campaign owned by `shard`, in id order.
#[must_use]
pub fn shard_scenarios(config: &CampaignConfig, shard: ShardSpec) -> Vec<FaultScenario> {
    campaign_scenarios(config).into_iter().filter(|s| shard.owns(s.id)).collect()
}

pub(super) fn campaign_scenarios(config: &CampaignConfig) -> Vec<FaultScenario> {
    generate_scenarios_with(
        &ScenarioSpace {
            seed: config.seed,
            count: config.scenarios_per_substrate,
            pipelines: config.pipelines,
            layers: config.layers,
            settle_epochs: config.settle_epochs,
        },
        &config.kinds,
    )
}

/// One shard's sweep output: the shard coordinates plus a
/// [`CampaignReport`] whose result lists cover only the shard's
/// scenario ids (under their campaign-global ids).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Which shard of how many.
    pub shard: ShardSpec,
    /// The shard's sweep, scoped to its scenario partition.
    pub report: CampaignReport,
}

impl ShardReport {
    /// Snapshot-container kind tag for shard reports.
    pub const KIND: &'static str = "shard";

    /// Atomically persists the shard report at `path`.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic(path, Self::KIND, self.to_body().as_bytes())
    }

    /// [`save`](ShardReport::save) through a [`Vfs`] seam.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Io`].
    pub fn save_with(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic_with(vfs, path, Self::KIND, self.to_body().as_bytes())
    }

    /// Loads and verifies a shard report written by
    /// [`save`](ShardReport::save).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O, wrong magic/version/kind, truncation,
    /// digest mismatch, malformed body.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_body(&snapshot::read_verified(path, Self::KIND)?)
    }

    /// [`load`](ShardReport::load) through a [`Vfs`] seam.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`].
    pub fn load_with(vfs: &dyn Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::from_body(&snapshot::read_verified_with(vfs, path, Self::KIND)?)
    }

    fn to_body(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"shard\": [{}, {}],", self.shard.index, self.shard.total);
        let _ = writeln!(out, "  \"seed\": {},", hex_u64(self.report.seed));
        let _ = writeln!(
            out,
            "  \"scenarios_per_substrate\": {},",
            self.report.scenarios_per_substrate
        );
        out.push_str("  \"kinds\": [");
        for (i, k) in self.report.kinds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\"");
        }
        out.push_str("],\n");
        out.push_str("  \"substrates\": [");
        for (i, sub) in self.report.substrates.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            substrate_report_to_json(&mut out, sub);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    fn from_body(body: &str) -> Result<Self, SnapshotError> {
        let v = json::parse(body)?;
        Ok(ShardReport { shard: shard_from_json(&v)?, report: campaign_report_from_json(&v)? })
    }
}

/// Recombines per-shard reports into one campaign report.
///
/// Validation, in order: at least one shard; every shard agrees on the
/// partition size, seed, scenario count and substrate list; shard
/// indices `1..=total` are each present exactly once; every result id
/// belongs to the shard that reported it; and per substrate the union of
/// ids is exactly `0..scenarios_per_substrate` — duplicates (overlap)
/// and holes (gap) are rejected. Results are recombined in id order and
/// metrics are folded with the same commutative merges the straight
/// sweep uses, so the merged report renders byte-identical to an
/// unsharded run.
///
/// # Errors
///
/// [`SnapshotError::ConfigMismatch`] for incompatible shards,
/// [`SnapshotError::Malformed`] for duplicate/missing shards and
/// overlapping or gapped scenario coverage.
pub fn merge_shards(shards: &[ShardReport]) -> Result<CampaignReport, SnapshotError> {
    let Some(first) = shards.first() else {
        return Err(SnapshotError::Malformed("no shard reports to merge".into()));
    };
    let total = first.shard.total;
    let seed = first.report.seed;
    let count = first.report.scenarios_per_substrate;
    let names: Vec<&'static str> = first.report.substrates.iter().map(|s| s.substrate).collect();

    let mut seen = vec![false; total];
    for sh in shards {
        if sh.shard.total != total {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shard {} is of a {}-way partition, expected {}-way",
                sh.shard, sh.shard.total, total
            )));
        }
        if sh.report.seed != seed {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shard {} ran seed {:#x}, expected {:#x}",
                sh.shard, sh.report.seed, seed
            )));
        }
        if sh.report.scenarios_per_substrate != count {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shard {} covers a {}-scenario campaign, expected {}",
                sh.shard, sh.report.scenarios_per_substrate, count
            )));
        }
        if sh.report.kinds != first.report.kinds {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shard {} ran kinds {:?}, expected {:?}",
                sh.shard, sh.report.kinds, first.report.kinds
            )));
        }
        let sh_names: Vec<&'static str> =
            sh.report.substrates.iter().map(|s| s.substrate).collect();
        if sh_names != names {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shard {} swept substrates {sh_names:?}, expected {names:?}",
                sh.shard
            )));
        }
        if seen[sh.shard.index - 1] {
            return Err(SnapshotError::Malformed(format!(
                "shard {} appears more than once",
                sh.shard
            )));
        }
        seen[sh.shard.index - 1] = true;
        for sub in &sh.report.substrates {
            for r in &sub.results {
                if (r.id as usize) >= count || !sh.shard.owns(r.id) {
                    return Err(SnapshotError::Malformed(format!(
                        "shard {} reports scenario {} it does not own",
                        sh.shard, r.id
                    )));
                }
            }
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(SnapshotError::Malformed(format!(
            "shard {}/{total} is missing from the merge set",
            missing + 1
        )));
    }

    let mut substrates = Vec::with_capacity(names.len());
    for (si, name) in names.iter().enumerate() {
        let mut results: Vec<ScenarioResult> = Vec::with_capacity(count);
        let mut metrics = SweepMetrics::default();
        for sh in shards {
            let sub = &sh.report.substrates[si];
            results.extend(sub.results.iter().cloned());
            metrics.detections += sub.metrics.detections;
            metrics.replays += sub.metrics.replays;
            metrics.detection_latency.merge(&sub.metrics.detection_latency);
            metrics.replay_count.merge(&sub.metrics.replay_count);
        }
        results.sort_by_key(|r| r.id);
        for (want, r) in results.iter().enumerate() {
            if r.id as usize != want {
                let verb = if (r.id as usize) < want { "twice (overlap)" } else { "never (gap)" };
                return Err(SnapshotError::Malformed(format!(
                    "substrate \"{name}\" covers scenario {want} {verb}"
                )));
            }
        }
        if results.len() != count {
            return Err(SnapshotError::Malformed(format!(
                "substrate \"{name}\" covers {} scenarios, expected {count}",
                results.len()
            )));
        }
        substrates.push(SubstrateReport { substrate: name, results, metrics });
    }
    Ok(CampaignReport {
        seed,
        scenarios_per_substrate: count,
        kinds: first.report.kinds.clone(),
        substrates,
    })
}

/// Portable mid-flight state of a (possibly sharded) campaign run: the
/// scenario-granular cursor, every completed substrate sweep, and the
/// in-flight substrate's partial results. Scenario execution is
/// self-contained (fresh substrate and engine per scenario), so the
/// scenario boundary is a perfect resume point: a resumed campaign's
/// report is byte-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// Digest of the originating configuration and shard selection.
    config_digest: u64,
    /// Shard this run covers, if sharded.
    shard: Option<ShardSpec>,
    /// Index into the configured substrate list.
    substrate_cursor: usize,
    /// Scenarios of the current substrate completed so far.
    scenario_cursor: usize,
    /// Fully swept substrates.
    completed: Vec<SubstrateReport>,
    /// Results of the in-flight substrate, in execution order.
    partial_results: Vec<ScenarioResult>,
    /// Metric aggregate of the in-flight substrate.
    partial_metrics: SweepMetrics,
}

impl CampaignState {
    /// Snapshot-container kind tag for campaign run states.
    pub const KIND: &'static str = "campaign";

    /// Index of the substrate currently being swept.
    #[must_use]
    pub fn substrate(&self) -> usize {
        self.substrate_cursor
    }

    /// Scenarios of the current substrate completed so far.
    #[must_use]
    pub fn scenario(&self) -> usize {
        self.scenario_cursor
    }

    /// Atomically persists the state at `path` (see [`snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic(path, Self::KIND, self.to_body().as_bytes())
    }

    /// [`save`](CampaignState::save) through a [`Vfs`] seam.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Io`].
    pub fn save_with(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic_with(vfs, path, Self::KIND, self.to_body().as_bytes())
    }

    /// Loads and verifies a state written by [`save`](CampaignState::save).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O, wrong magic/version/kind, truncation,
    /// digest mismatch, malformed body.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_body(&snapshot::read_verified(path, Self::KIND)?)
    }

    /// [`load`](CampaignState::load) through a [`Vfs`] seam.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`].
    pub fn load_with(vfs: &dyn Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::from_body(&snapshot::read_verified_with(vfs, path, Self::KIND)?)
    }

    fn to_body(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"config_digest\": {},", hex_u64(self.config_digest));
        match self.shard {
            Some(s) => {
                let _ = writeln!(out, "  \"shard\": [{}, {}],", s.index, s.total);
            }
            None => out.push_str("  \"shard\": null,\n"),
        }
        let _ = writeln!(out, "  \"substrate_cursor\": {},", self.substrate_cursor);
        let _ = writeln!(out, "  \"scenario_cursor\": {},", self.scenario_cursor);
        out.push_str("  \"completed\": [");
        for (i, sub) in self.completed.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            substrate_report_to_json(&mut out, sub);
        }
        out.push_str(if self.completed.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"partial_results\": [");
        for (i, r) in self.partial_results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            scenario_result_to_json(&mut out, r);
        }
        out.push_str(if self.partial_results.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"partial_metrics\": ");
        sweep_metrics_to_json(&mut out, &self.partial_metrics);
        out.push_str("\n}\n");
        out
    }

    fn from_body(body: &str) -> Result<Self, SnapshotError> {
        let v = json::parse(body)?;
        Ok(CampaignState {
            config_digest: v.hex("config_digest")?,
            shard: v.opt("shard").map(|_| shard_from_json(&v)).transpose()?,
            substrate_cursor: v.int("substrate_cursor")?,
            scenario_cursor: v.int("scenario_cursor")?,
            completed: v
                .arr("completed")?
                .iter()
                .map(substrate_report_from_json)
                .collect::<Result<_, _>>()?,
            partial_results: v
                .arr("partial_results")?
                .iter()
                .map(scenario_result_from_json)
                .collect::<Result<_, _>>()?,
            partial_metrics: sweep_metrics_from_json(v.field("partial_metrics")?)?,
        })
    }
}

/// Digest identifying a campaign configuration plus shard selection
/// (FNV-1a over their canonical `Debug` renderings).
fn campaign_digest(config: &CampaignConfig, shard: Option<ShardSpec>) -> u64 {
    snapshot::fnv1a64(format!("{config:?}|{shard:?}").as_bytes())
}

/// Runs the full campaign: generates the scenario list once, sweeps it
/// over every configured substrate, shrinks failures. Deterministic: the
/// same configuration produces an identical report.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    sweep(config, None, None, None, |_| Ok(ControlFlow::Continue(())))
        .expect("sweep errs only on a resumed state or an observer error")
        .expect("sweep stops early only when the observer breaks")
}

/// [`run_campaign`] with a [`RingSink`] attached to every scenario's
/// engine, returning the per-scenario telemetry streams (one per
/// substrate and scenario, in sweep order) alongside the report. The
/// report itself is byte-identical to [`run_campaign`]'s (the sink never
/// feeds back into the engine); shrink re-executions stay untraced.
///
/// [`RingSink`]: crate::telemetry::RingSink
#[must_use]
pub fn run_campaign_traced(config: &CampaignConfig) -> (CampaignReport, Vec<CampaignTrace>) {
    let mut traces = Vec::new();
    let report = sweep(config, None, None, Some(&mut traces), |_| Ok(ControlFlow::Continue(())))
        .expect("sweep errs only on a resumed state or an observer error")
        .expect("sweep stops early only when the observer breaks");
    (report, traces)
}

/// Runs the campaign (or one shard of it) durably: after every scenario
/// the observer receives the complete portable [`CampaignState`] to
/// persist ([`CampaignState::save`]) and/or stop on
/// ([`ControlFlow::Break`]). Passing a previously captured state resumes
/// mid-flight; the final report is byte-identical to an uninterrupted
/// run, and a merged set of shard reports to an unsharded one.
///
/// Returns `Ok(None)` when the observer stopped the run early,
/// `Ok(Some(report))` on completion; a sharded report's result lists
/// cover only the shard's scenarios (wrap it as a [`ShardReport`]).
///
/// # Errors
///
/// [`SnapshotError::ConfigMismatch`] when `resume` was captured under a
/// different configuration or shard selection (or its cursors lie
/// outside this run), plus whatever the observer raises.
pub fn run_campaign_durable<F>(
    config: &CampaignConfig,
    shard: Option<ShardSpec>,
    resume: Option<CampaignState>,
    observe: F,
) -> Result<Option<CampaignReport>, SnapshotError>
where
    F: FnMut(&CampaignState) -> Result<ControlFlow<()>, SnapshotError>,
{
    sweep(config, shard, resume, None, observe)
}

/// The one campaign loop: every scenario runs on a fresh substrate and
/// engine, one worker per host core, and the observer sees the state
/// after each one in scenario order.
fn sweep<F>(
    config: &CampaignConfig,
    shard: Option<ShardSpec>,
    resume: Option<CampaignState>,
    traces: Option<&mut Vec<CampaignTrace>>,
    mut observe: F,
) -> Result<Option<CampaignReport>, SnapshotError>
where
    F: FnMut(&CampaignState) -> Result<ControlFlow<()>, SnapshotError>,
{
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    sweep_on(host, config, shard, resume, traces, &mut observe)
}

/// [`sweep`] on `workers` threads. The observer is a trait object so
/// the worker code is compiled once, not once per observer type.
fn sweep_on(
    workers: usize,
    config: &CampaignConfig,
    shard: Option<ShardSpec>,
    resume: Option<CampaignState>,
    mut traces: Option<&mut Vec<CampaignTrace>>,
    observe: &mut dyn FnMut(&CampaignState) -> Result<ControlFlow<()>, SnapshotError>,
) -> Result<Option<CampaignReport>, SnapshotError> {
    let digest = campaign_digest(config, shard);
    let scenarios = match shard {
        Some(s) => shard_scenarios(config, s),
        None => campaign_scenarios(config),
    };

    let mut st = match resume {
        Some(st) => {
            if st.config_digest != digest {
                return Err(SnapshotError::ConfigMismatch(format!(
                    "snapshot was captured under a different campaign configuration \
                     (digest {:#018x}, this run is {:#018x})",
                    st.config_digest, digest
                )));
            }
            if st.substrate_cursor > config.substrates.len()
                || st.completed.len() != st.substrate_cursor
                || st.scenario_cursor > scenarios.len()
                || st.partial_results.len() != st.scenario_cursor
            {
                return Err(SnapshotError::ConfigMismatch(format!(
                    "snapshot cursor (substrate {}, scenario {}) is inconsistent with \
                     this run ({} substrates x {} scenarios)",
                    st.substrate_cursor,
                    st.scenario_cursor,
                    config.substrates.len(),
                    scenarios.len()
                )));
            }
            st
        }
        None => CampaignState {
            config_digest: digest,
            shard,
            substrate_cursor: 0,
            scenario_cursor: 0,
            completed: Vec::new(),
            partial_results: Vec::new(),
            partial_metrics: SweepMetrics::default(),
        },
    };

    while st.substrate_cursor < config.substrates.len() {
        let kind = config.substrates[st.substrate_cursor];
        let prepared = PreparedSubstrate::new(kind, config);
        let traced = traces.is_some();
        let flow = run_in_order(
            workers,
            &prepared,
            &scenarios[st.scenario_cursor..],
            |prepared, scenario| prepared.run_one(scenario, config, traced),
            |(result, metrics, trace)| {
                st.partial_metrics.absorb(&metrics);
                st.partial_results.push(result);
                st.scenario_cursor += 1;
                if let (Some(traces), Some(trace)) = (traces.as_deref_mut(), trace) {
                    traces.push(trace);
                }
                observe(&st)
            },
        )?;
        if flow.is_break() {
            return Ok(None);
        }
        st.completed.push(SubstrateReport {
            substrate: kind.name(),
            results: std::mem::take(&mut st.partial_results),
            metrics: std::mem::take(&mut st.partial_metrics),
        });
        st.substrate_cursor += 1;
        st.scenario_cursor = 0;
    }

    Ok(Some(CampaignReport {
        seed: config.seed,
        scenarios_per_substrate: config.scenarios_per_substrate,
        kinds: config.kinds.iter().map(|k| k.name()).collect(),
        substrates: st.completed,
    }))
}

// --- JSON codec for report structures ------------------------------
//
// Hand-rolled like `render_report`, but *round-trippable*: every field
// of the Rust structures is preserved, u64 seeds travel as hex strings
// (bare JSON integers are exact only below 2^53), and names are parsed
// back to the crate's `&'static str` tables.

fn substrate_report_to_json(out: &mut String, sub: &SubstrateReport) {
    let _ = write!(out, "    {{\"substrate\": \"{}\", \"results\": [", sub.substrate);
    for (i, r) in sub.results.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        scenario_result_to_json(out, r);
    }
    out.push_str("], \"metrics\": ");
    sweep_metrics_to_json(out, &sub.metrics);
    out.push('}');
}

fn substrate_report_from_json(v: &Value) -> Result<SubstrateReport, FieldError> {
    let name = v.str("substrate")?;
    let substrate = [SubstrateKind::Behavioral, SubstrateKind::Netlist]
        .iter()
        .map(|k| k.name())
        .find(|n| *n == name)
        .ok_or_else(|| FieldError::invalid("substrate", format!("unknown substrate \"{name}\"")))?;
    Ok(SubstrateReport {
        substrate,
        results: v
            .arr("results")?
            .iter()
            .map(scenario_result_from_json)
            .collect::<Result<_, _>>()?,
        metrics: sweep_metrics_from_json(v.field("metrics")?)?,
    })
}

fn scenario_result_to_json(out: &mut String, r: &ScenarioResult) {
    let _ = write!(
        out,
        "{{\"id\": {}, \"kind\": \"{}\", \"outcome\": \"{}\", \"counts\": ",
        r.id,
        r.kind,
        r.outcome.name()
    );
    event_counts_to_json(out, &r.counts);
    out.push_str(", \"shrunk\": ");
    match &r.shrunk {
        Some(sc) => fault_scenario_to_json(out, sc),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn scenario_result_from_json(v: &Value) -> Result<ScenarioResult, FieldError> {
    let kind_name = v.str("kind")?;
    let kind = KIND_NAMES.iter().find(|n| **n == kind_name).copied().ok_or_else(|| {
        FieldError::invalid("kind", format!("unknown fault kind \"{kind_name}\""))
    })?;
    let outcome_name = v.str("outcome")?;
    let outcome =
        Outcome::ALL.iter().find(|o| o.name() == outcome_name).copied().ok_or_else(|| {
            FieldError::invalid("outcome", format!("unknown outcome \"{outcome_name}\""))
        })?;
    Ok(ScenarioResult {
        id: v.int("id")?,
        kind,
        outcome,
        counts: event_counts_from_json(v.field("counts")?)?,
        shrunk: v.opt("shrunk").map(fault_scenario_from_json).transpose()?,
    })
}

pub(super) fn event_counts_to_json(out: &mut String, c: &EventCounts) {
    let _ = write!(
        out,
        "{{\"symptoms\": {}, \"transients\": {}, \"permanents\": {}, \
         \"inconclusives\": {}, \"escalations\": {}, \"recoveries\": {}, \
         \"checkpoint_corruptions\": {}, \"reroutes\": {}, \"link_quarantines\": {}}}",
        c.symptoms,
        c.transients,
        c.permanents,
        c.inconclusives,
        c.escalations,
        c.recoveries,
        c.checkpoint_corruptions,
        c.reroutes,
        c.link_quarantines
    );
}

fn event_counts_from_json(v: &Value) -> Result<EventCounts, FieldError> {
    Ok(EventCounts {
        symptoms: v.int("symptoms")?,
        transients: v.int("transients")?,
        permanents: v.int("permanents")?,
        inconclusives: v.int("inconclusives")?,
        escalations: v.int("escalations")?,
        recoveries: v.int("recoveries")?,
        checkpoint_corruptions: v.int("checkpoint_corruptions")?,
        reroutes: v.int("reroutes")?,
        link_quarantines: v.int("link_quarantines")?,
    })
}

pub(super) fn sweep_metrics_to_json(out: &mut String, m: &SweepMetrics) {
    let _ = write!(
        out,
        "{{\"detections\": {}, \"replays\": {}, \"detection_latency\": {}, \
         \"replay_count\": {}}}",
        m.detections,
        m.replays,
        m.detection_latency.to_json(),
        m.replay_count.to_json()
    );
}

fn sweep_metrics_from_json(v: &Value) -> Result<SweepMetrics, FieldError> {
    Ok(SweepMetrics {
        detections: v.int("detections")?,
        replays: v.int("replays")?,
        detection_latency: histogram_from_json(v.field("detection_latency")?)?,
        replay_count: histogram_from_json(v.field("replay_count")?)?,
    })
}

fn histogram_from_json(v: &Value) -> Result<Histogram, FieldError> {
    let bounds: [u64; 7] = v
        .ints("bounds")?
        .try_into()
        .map_err(|_| FieldError::invalid("bounds", "must hold 7 entries"))?;
    if !bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err(FieldError::invalid("bounds", "must increase"));
    }
    let counts: [u64; 8] = v
        .ints("counts")?
        .try_into()
        .map_err(|_| FieldError::invalid("counts", "must hold 8 entries"))?;
    Ok(Histogram::from_parts(bounds, counts, v.int("total")?, v.int("sum")?, v.int("max")?))
}

fn fault_scenario_to_json(out: &mut String, sc: &FaultScenario) {
    let _ = write!(out, "{{\"id\": {}, \"kind\": ", sc.id);
    fault_kind_to_json(out, sc.kind);
    let _ = write!(out, ", \"epochs\": {}, \"injections\": [", sc.epochs);
    for (i, inj) in sc.injections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"epoch\": {}, \"stage\": {}, \"pipe\": {}, \"seed\": {}}}",
            inj.epoch,
            inj.stage.flat_index(),
            inj.pipe,
            hex_u64(inj.seed)
        );
    }
    out.push_str("]}");
}

fn fault_scenario_from_json(v: &Value) -> Result<FaultScenario, FieldError> {
    Ok(FaultScenario {
        id: v.int("id")?,
        kind: fault_kind_from_json(v.field("kind")?)?,
        injections: v
            .arr("injections")?
            .iter()
            .map(injection_from_json)
            .collect::<Result<_, _>>()?,
        epochs: v.int("epochs")?,
    })
}

fn injection_from_json(v: &Value) -> Result<Injection, FieldError> {
    Ok(Injection {
        epoch: v.int("epoch")?,
        stage: StageId::from_flat_index(v.int("stage")?),
        pipe: v.int("pipe")?,
        seed: v.hex("seed")?,
    })
}

fn fault_kind_to_json(out: &mut String, kind: FaultKind) {
    match kind {
        FaultKind::Intermittent { period } => {
            let _ = write!(out, "{{\"name\": \"intermittent\", \"period\": {period}}}");
        }
        FaultKind::CheckerCorrupt { persistent } => {
            let _ = write!(out, "{{\"name\": \"checker_corrupt\", \"persistent\": {persistent}}}");
        }
        other => {
            let _ = write!(out, "{{\"name\": \"{}\"}}", other.name());
        }
    }
}

fn fault_kind_from_json(v: &Value) -> Result<FaultKind, FieldError> {
    Ok(match v.str("name")? {
        "permanent" => FaultKind::Permanent,
        "transient" => FaultKind::Transient,
        "intermittent" => FaultKind::Intermittent { period: v.int("period")? },
        "burst" => FaultKind::Burst,
        "checker_corrupt" => FaultKind::CheckerCorrupt { persistent: v.bool("persistent")? },
        "replay_corrupt" => FaultKind::ReplayCorrupt,
        "checkpoint_corrupt" => FaultKind::CheckpointCorrupt,
        "mid_window" => FaultKind::MidWindow,
        "mid_diagnosis" => FaultKind::MidDiagnosis,
        "tsv_stuck" => FaultKind::TsvStuck,
        "tsv_bridge" => FaultKind::TsvBridge,
        "crosstalk" => FaultKind::Crosstalk,
        "mux_select" => FaultKind::MuxSelect,
        "seu_burst" => FaultKind::SeuBurst,
        other => {
            return Err(FieldError::invalid("name", format!("unknown fault kind \"{other}\"")))
        }
    })
}

/// The `"shard": [index, total]` pair of a shard report or sharded state.
fn shard_from_json(v: &Value) -> Result<ShardSpec, FieldError> {
    let [index, total] = v.ints("shard")?[..] else {
        return Err(FieldError::invalid("shard", "must be [index, total]"));
    };
    ShardSpec::new(index, total).map_err(|e| FieldError::invalid("shard", e))
}

fn campaign_report_from_json(v: &Value) -> Result<CampaignReport, FieldError> {
    let kinds = v
        .strs("kinds")?
        .into_iter()
        .map(|name| {
            KindId::from_name(name).map(KindId::name).ok_or_else(|| {
                FieldError::invalid("kinds", format!("unknown fault kind \"{name}\""))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(CampaignReport {
        seed: v.hex("seed")?,
        scenarios_per_substrate: v.int("scenarios_per_substrate")?,
        kinds,
        substrates: v
            .arr("substrates")?
            .iter()
            .map(substrate_report_from_json)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            scenarios_per_substrate: 9,
            substrates: vec![SubstrateKind::Behavioral],
            ..Default::default()
        }
    }

    fn run_shard(config: &CampaignConfig, index: usize, total: usize) -> ShardReport {
        let shard = ShardSpec::new(index, total).unwrap();
        let report =
            run_campaign_durable(config, Some(shard), None, |_| Ok(ControlFlow::Continue(())))
                .unwrap()
                .expect("observer never breaks");
        ShardReport { shard, report }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("r2d3-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn shard_spec_parses_and_validates() {
        let s = ShardSpec::parse("2/4").unwrap();
        assert_eq!((s.index(), s.total()), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert!(s.owns(1) && s.owns(5) && !s.owns(0) && !s.owns(2));
        assert!(ShardSpec::parse("0/4").is_err());
        assert!(ShardSpec::parse("5/4").is_err());
        assert!(ShardSpec::parse("1/0").is_err());
        assert!(ShardSpec::parse("nope").is_err());
    }

    #[test]
    fn shards_partition_the_scenario_space() {
        let config = tiny_config();
        let mut ids = Vec::new();
        for k in 1..=3 {
            let shard = ShardSpec::new(k, 3).unwrap();
            ids.extend(shard_scenarios(&config, shard).iter().map(|s| s.id));
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn shard_report_round_trips_through_disk() {
        let config = tiny_config();
        let report = run_shard(&config, 1, 3);
        let path = tmp_path("shard-roundtrip");
        report.save(&path).unwrap();
        let reloaded = ShardReport::load(&path).unwrap();
        assert_eq!(report, reloaded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_detects_incompatible_and_incomplete_sets() {
        let config = tiny_config();
        let s1 = run_shard(&config, 1, 2);
        let s2 = run_shard(&config, 2, 2);

        // Missing shard -> gap.
        match merge_shards(std::slice::from_ref(&s1)) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Duplicate shard.
        match merge_shards(&[s1.clone(), s1.clone()]) {
            Err(SnapshotError::Malformed(msg)) => {
                assert!(msg.contains("more than once"), "{msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Seed mismatch.
        let mut alien = s2.clone();
        alien.report.seed ^= 1;
        match merge_shards(&[s1.clone(), alien]) {
            Err(SnapshotError::ConfigMismatch(msg)) => assert!(msg.contains("seed"), "{msg}"),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // Overlapping coverage: a result smuggled into the wrong shard.
        let mut overlap = s2.clone();
        let stolen = s1.report.substrates[0].results[0].clone();
        overlap.report.substrates[0].results.insert(0, stolen);
        match merge_shards(&[s1, overlap]) {
            Err(SnapshotError::Malformed(msg)) => {
                assert!(msg.contains("does not own"), "{msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn every_worker_count_sees_the_serial_sweep() {
        // Both substrates, each sweeping every fault kind once.
        let config =
            CampaignConfig { scenarios_per_substrate: KindId::COUNT, ..Default::default() };
        let n = config.scenarios_per_substrate;
        let names: Vec<&str> = config.substrates.iter().map(SubstrateKind::name).collect();
        let cursors: Vec<(usize, usize)> =
            (0..names.len()).flat_map(|s| (1..=n).map(move |k| (s, k))).collect();
        let order: Vec<(&str, u32)> =
            names.iter().flat_map(|&name| (0..n as u32).map(move |id| (name, id))).collect();
        // Stop three scenarios into the netlist sweep.
        let stop_at = n + 3;
        let mut serial = None;
        for workers in [1, 2, 3, 7] {
            let mut traces = Vec::new();
            let mut seen = Vec::new();
            let report = sweep_on(workers, &config, None, None, Some(&mut traces), &mut |st| {
                seen.push((st.substrate(), st.scenario()));
                Ok(ControlFlow::Continue(()))
            })
            .unwrap()
            .expect("observer never breaks");
            assert_eq!(seen, cursors, "{workers} workers: one scenario per observer call");
            let traced: Vec<(&str, u32)> =
                traces.iter().map(|t| (t.substrate, t.scenario)).collect();
            assert_eq!(traced, order, "{workers} workers: traces in sweep order");

            let path = tmp_path(&format!("worker-stop-{workers}"));
            let mut calls = 0;
            let stopped = sweep_on(workers, &config, None, None, None, &mut |st| {
                calls += 1;
                if calls < stop_at {
                    return Ok(ControlFlow::Continue(()));
                }
                st.save(&path)?;
                Ok(ControlFlow::Break(()))
            })
            .unwrap();
            assert!(stopped.is_none(), "{workers} workers: the observer's break stops the sweep");
            assert_eq!(calls, stop_at, "{workers} workers: no call after the break");
            let state = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();

            let records: Vec<Vec<_>> = traces.into_iter().map(|t| t.records).collect();
            match &serial {
                None => serial = Some((report, records, state)),
                Some((report1, records1, state1)) => {
                    assert_eq!(&report, report1, "{workers} workers: report");
                    assert!(&records == records1, "{workers} workers: trace records");
                    assert!(
                        &state == state1,
                        "{workers} workers: snapshot bytes at step {stop_at}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_scenario_panics_the_sweep() {
        // An engine configuration the builder refuses makes every
        // scenario panic inside its worker.
        let mut config = tiny_config();
        config.engine.t_test = config.engine.t_epoch + 1;
        for workers in [1, 3] {
            let mut calls = 0;
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                sweep_on(workers, &config, None, None, None, &mut |_| {
                    calls += 1;
                    Ok(ControlFlow::Continue(()))
                })
            }));
            let payload = result.expect_err("the scenario's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("campaign engine configuration"), "{workers}: {message}");
            assert_eq!(calls, 0, "{workers} workers: no result was absorbed");
        }
    }

    #[test]
    fn campaign_resume_rejects_config_change() {
        let config = tiny_config();
        let mut captured = None;
        run_campaign_durable(&config, None, None, |st| {
            captured = Some(st.clone());
            Ok(ControlFlow::Break(()))
        })
        .unwrap();

        let mut other = tiny_config();
        other.seed ^= 1;
        match run_campaign_durable(&other, None, captured, |_| unreachable!()) {
            Err(SnapshotError::ConfigMismatch(msg)) => {
                assert!(msg.contains("different campaign configuration"), "{msg}");
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}
