//! The in-process job executor: run any [`JobSpec`] locally and render
//! its outcome to the exact artifact bytes the corresponding batch CLI
//! command emits.
//!
//! The batch CLI paths and the serve daemon's single-unit fast path
//! both execute through here, which is what makes "batch mode" nothing
//! more than submit-to-in-process-executor: there is one code path
//! from a validated spec to a report, so there is nothing that can
//! drift between the two front ends. (Sharded campaign jobs run
//! through [`crate::campaign::run_campaign_durable`] with one shard per
//! unit instead and are merged by the daemon;
//! [`crate::campaign::merge_shards`] guarantees that route renders
//! byte-identically to [`execute_local`].)

use super::spec::{InjectSpec, JobKind, JobSpec, LifetimeSpec};
use crate::campaign::{run_campaign, CampaignReport};
use crate::engine::{EngineEvent, R2d3Engine};
use crate::lifetime::{LifetimeOutcome, LifetimeSim};
use crate::substrate::{NetlistSubstrate, NetlistSubstrateConfig, ReliabilitySubstrate};
use crate::telemetry::{MetricsSnapshot, RingSink, TelemetryRecord};
use crate::EngineError;
use r2d3_isa::kernels::gemv;
use r2d3_pipeline_sim::{FaultEffect, StageId, System3d, SystemConfig};
use std::fmt::Write as _;

/// What running a job produced, before rendering.
#[derive(Debug)]
pub enum JobOutcome {
    /// A finished campaign sweep.
    Campaign(CampaignReport),
    /// A finished lifetime trajectory.
    Lifetime(Box<LifetimeOutcome>),
    /// A finished inject-and-repair run.
    Inject(Box<InjectOutcome>),
}

/// Everything `r2d3 inject` observes about one injected fault.
#[derive(Debug)]
pub struct InjectOutcome {
    /// Whether the engine localized the victim stage within the epoch
    /// budget.
    pub diagnosed: bool,
    /// Faulted net index, for gate-level injections.
    pub net: Option<usize>,
    /// Substrate the fault was driven on.
    pub substrate: &'static str,
    /// Engine counters at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Cycle-stamped telemetry of the whole run.
    pub records: Vec<TelemetryRecord>,
}

/// Runs a job to completion in this process.
///
/// # Errors
///
/// Any [`EngineError`] the underlying campaign/lifetime/inject
/// machinery reports.
pub fn execute_local(spec: &JobSpec) -> Result<JobOutcome, EngineError> {
    match &spec.kind {
        JobKind::Campaign(c) => Ok(JobOutcome::Campaign(run_campaign(&c.to_config()?))),
        JobKind::Lifetime(l) => {
            Ok(JobOutcome::Lifetime(Box::new(LifetimeSim::new(l.to_config()).run()?)))
        }
        JobKind::Inject(i) => {
            Ok(JobOutcome::Inject(Box::new(run_inject_with(i, |_| {}, |_, _| {})?)))
        }
    }
}

/// Builds the 6-pipeline behavioral system with the standard GEMV
/// workload loaded everywhere (the canonical detection traffic). All
/// behavioral front ends (`inject`, `trace`, inject jobs) start here.
///
/// # Errors
///
/// [`EngineError`] when a program fails to load.
pub fn standard_system(seed: u64) -> Result<System3d, EngineError> {
    let config = SystemConfig { pipelines: 6, ..Default::default() };
    let mut sys = System3d::new(&config);
    let kernel = gemv(32, 32, seed);
    for p in 0..6 {
        sys.load_program(p, kernel.program().clone())?;
    }
    Ok(sys)
}

/// Runs an inject job with observation hooks: `on_injected` fires once
/// after the fault lands (with the faulted net index for gate-level
/// injections), `on_event` fires for every engine event with its
/// 1-based epoch. The CLI narrates through these; the daemon passes
/// no-ops.
///
/// # Errors
///
/// Any [`EngineError`] from fault injection or the engine loop.
pub fn run_inject_with(
    spec: &InjectSpec,
    mut on_injected: impl FnMut(Option<usize>),
    on_event: impl FnMut(u64, &EngineEvent),
) -> Result<InjectOutcome, EngineError> {
    use crate::campaign::SubstrateKind;
    let victim = StageId::new(spec.layer, spec.unit);
    match spec.substrate {
        SubstrateKind::Behavioral => {
            let mut sys = standard_system(spec.seed)?;
            ReliabilitySubstrate::inject_fault(
                &mut sys,
                victim,
                FaultEffect { bit: spec.bit, stuck: true },
            )?;
            on_injected(None);
            drive_repair(&mut sys, victim, spec.epochs, None, on_event)
        }
        SubstrateKind::Netlist => {
            let mut sub = NetlistSubstrate::new(&NetlistSubstrateConfig::default());
            let fault = sub.output_fault(spec.unit, spec.bit as usize, true);
            let net = fault.net.index();
            sub.inject_fault(victim, fault)?;
            on_injected(Some(net));
            drive_repair(&mut sub, victim, spec.epochs, Some(net), on_event)
        }
    }
}

/// Drives the engine's detect → diagnose → repair loop on any substrate
/// until the victim stage is diagnosed or the epoch budget runs out.
fn drive_repair<S: ReliabilitySubstrate>(
    sys: &mut S,
    victim: StageId,
    epochs: u64,
    net: Option<usize>,
    mut on_event: impl FnMut(u64, &EngineEvent),
) -> Result<InjectOutcome, EngineError> {
    let mut engine = R2d3Engine::builder().telemetry(RingSink::new()).build()?;
    let mut diagnosed = false;
    for epoch in 1..=epochs {
        let events = engine.run_epoch(sys)?;
        for e in &events {
            on_event(epoch, e);
        }
        if engine.is_believed_faulty(victim) {
            diagnosed = true;
            break;
        }
    }
    Ok(InjectOutcome {
        diagnosed,
        net,
        substrate: sys.name(),
        metrics: engine.metrics(),
        records: engine.telemetry().records(),
    })
}

/// Renders a job outcome to the exact bytes the corresponding batch
/// command writes to its `--out` / `--metrics-out` file: the campaign
/// JSON report, the lifetime final-metrics document, or the inject
/// metrics snapshot. Byte-compared in CI against the batch path.
#[must_use]
pub fn render_outcome(spec: &JobSpec, outcome: &JobOutcome) -> String {
    match (outcome, &spec.kind) {
        (JobOutcome::Campaign(report), _) => crate::campaign::render_report(report),
        (JobOutcome::Lifetime(out), JobKind::Lifetime(l)) => render_lifetime_metrics(l, out),
        (JobOutcome::Inject(out), _) => out.metrics.to_json(),
        // A lifetime outcome only ever pairs with a lifetime spec; the
        // executor constructs both from the same JobKind.
        (JobOutcome::Lifetime(_), _) => unreachable!("outcome kind must match spec kind"),
    }
}

/// The `r2d3 lifetime --metrics-out` document, byte for byte.
fn render_lifetime_metrics(spec: &LifetimeSpec, out: &LifetimeOutcome) -> String {
    let s = &out.series;
    let months = spec.months;
    let last = months - 1;
    let policy = out.policy;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"policy\": \"{policy}\",");
    let _ = writeln!(json, "  \"months\": {months},");
    let _ = writeln!(json, "  \"final_max_vth\": {},", s.max_vth[last]);
    let _ = writeln!(json, "  \"final_mttf_months\": {},", s.mttf_months[last]);
    let _ = writeln!(json, "  \"final_norm_ipc\": {},", s.norm_ipc[last]);
    let _ = writeln!(json, "  \"final_active_pipelines\": {},", s.active_pipelines[last]);
    let _ = writeln!(json, "  \"final_hottest_layer_temp\": {}", s.hottest_layer_temp[last]);
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{render_report, SubstrateKind};
    use crate::campaign::{CampaignConfig, KindId};
    use r2d3_isa::Unit;

    /// The executor's campaign path must be indistinguishable from
    /// calling `run_campaign` on a hand-assembled config — same seed in,
    /// same bytes out.
    #[test]
    fn executor_campaign_matches_direct_run() {
        let spec = JobSpec::campaign()
            .seed(0xD00B)
            .scenarios(6)
            .substrates(vec![SubstrateKind::Behavioral])
            .build()
            .unwrap();
        let outcome = execute_local(&spec).unwrap();
        let direct = run_campaign(&CampaignConfig {
            seed: 0xD00B,
            scenarios_per_substrate: 6,
            substrates: vec![SubstrateKind::Behavioral],
            kinds: KindId::ALL.to_vec(),
            ..Default::default()
        });
        assert_eq!(render_outcome(&spec, &outcome), render_report(&direct));
    }

    /// The canonical inject scenario (EXU layer 2, behavioral) must be
    /// diagnosed within the default epoch budget, and the rendered
    /// outcome must be the metrics snapshot.
    #[test]
    fn executor_inject_diagnoses_the_victim() {
        let spec = JobSpec::inject(Unit::Exu, 2).build().unwrap();
        let JobKind::Inject(i) = &spec.kind else { unreachable!() };
        let mut injected = 0;
        let out = run_inject_with(
            i,
            |net| {
                injected += 1;
                assert!(net.is_none(), "behavioral injection has no net index");
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!(injected, 1);
        assert!(out.diagnosed);
        assert!(!out.records.is_empty());
        let rendered = render_outcome(&spec, &JobOutcome::Inject(Box::new(out)));
        assert!(rendered.contains("\"believed_faulty\""));
    }
}
