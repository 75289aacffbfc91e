//! End-to-end checks of the adversarial fault-injection campaign harness:
//! deterministic reports, failure-free sweeps on both substrates (stage
//! *and* fabric fault universes), and the harness catching deliberately
//! re-introduced engine bugs (checkpoint integrity, route scrubbing).

use r2d3::engine::campaign::{
    render_report, run_campaign, CampaignConfig, KindId, Outcome, SubstrateKind,
};
use r2d3::engine::checkpoint::CheckpointConfig;

fn small_config(seed: u64) -> CampaignConfig {
    CampaignConfig { seed, scenarios_per_substrate: 18, ..Default::default() }
}

/// `count` scenarios of one fault kind on one substrate, shrinking off,
/// at the default seed and geometry.
fn one_kind_config(substrate: SubstrateKind, kind: KindId, count: usize) -> CampaignConfig {
    CampaignConfig {
        scenarios_per_substrate: count,
        substrates: vec![substrate],
        kinds: vec![kind],
        shrink: false,
        ..Default::default()
    }
}

/// The interconnect fault classes (the `--kinds` fabric subset).
const FABRIC_KINDS: [KindId; 5] =
    [KindId::TsvStuck, KindId::TsvBridge, KindId::Crosstalk, KindId::MuxSelect, KindId::SeuBurst];

#[test]
fn same_seed_renders_byte_identical_reports() {
    let a = render_report(&run_campaign(&small_config(0xCA3A)));
    let b = render_report(&run_campaign(&small_config(0xCA3A)));
    assert_eq!(a, b, "same seed must produce a byte-identical campaign report");

    let c = render_report(&run_campaign(&small_config(0x5EED)));
    assert_ne!(a, c, "different seeds must explore different scenarios");
}

#[test]
fn sweep_is_failure_free_on_both_substrates() {
    let report = run_campaign(&small_config(0xCA3A));
    assert_eq!(report.total_scenarios(), 36);
    assert_eq!(report.substrates.len(), 2);
    for sub in &report.substrates {
        assert_eq!(
            sub.outcome_count(Outcome::Misdiagnosed),
            0,
            "{}: healthy hardware was condemned",
            sub.substrate
        );
        assert_eq!(
            sub.outcome_count(Outcome::SilentCorruption),
            0,
            "{}: corruption survived unnoticed",
            sub.substrate
        );
        assert_eq!(
            sub.outcome_count(Outcome::EngineFailure),
            0,
            "{}: the engine errored",
            sub.substrate
        );
        // The sweep is not vacuous: the engine actually handled faults.
        let handled = sub.outcome_count(Outcome::DetectedRepaired)
            + sub.outcome_count(Outcome::Rerouted)
            + sub.outcome_count(Outcome::LinkQuarantined);
        assert!(handled > sub.results.len() / 2, "{}: too few scenarios manifested", sub.substrate);
    }
    // Both substrates ran the *same* scenario list.
    let ids = |i: usize| report.substrates[i].results.iter().map(|r| r.id).collect::<Vec<_>>();
    assert_eq!(ids(0), ids(1));
}

/// The harness as a regression oracle: re-introduce the historical
/// restore-blindly checkpoint bug (`verify_integrity: false` skips the
/// digest check at recovery) and the campaign's checkpoint-corruption
/// scenarios classify as silent corruption; with the integrity check on,
/// the very same scenarios are detected and repaired.
#[test]
fn reintroduced_checkpoint_bug_is_caught_and_fix_restores_integrity() {
    let hardened = one_kind_config(SubstrateKind::Netlist, KindId::CheckpointCorrupt, 4);

    // Pre-fix engine: restores whatever the checkpoint store returns.
    let mut buggy = hardened.clone();
    buggy.engine.checkpoint = Some(CheckpointConfig {
        interval_epochs: 2,
        verify_integrity: false,
        ..Default::default()
    });
    let before = run_campaign(&buggy).substrates.remove(0);
    assert!(before.results.len() >= 3, "need several checkpoint-corruption scenarios");
    let silent = before.outcome_count(Outcome::SilentCorruption);
    assert!(silent >= 1, "harness failed to expose the restore-blindly bug: {before:?}");

    // Post-fix engine (defaults): digests verified at recovery, poisoned
    // slots invalidated, pipelines restarted instead.
    let after = run_campaign(&hardened).substrates.remove(0);
    assert_eq!(
        after.outcome_count(Outcome::SilentCorruption),
        0,
        "integrity check must eliminate every silent restore"
    );
    assert_eq!(
        after.outcome_count(Outcome::DetectedRepaired),
        after.results.len(),
        "hardened engine must catch and recover every scenario"
    );
    assert!(
        after.total_counts().checkpoint_corruptions >= silent as u64,
        "each caught corruption must surface as a CheckpointCorrupt event"
    );
}

/// The fabric universe end-to-end: a `--kinds`-filtered sweep over every
/// interconnect fault class is failure-free on both substrates, and the
/// link-fault corruption model (one [`Fabric`] serving both) makes the
/// per-scenario verdicts agree across them.
#[test]
fn fabric_fault_sweep_is_failure_free_and_substrate_parity_holds() {
    let config = CampaignConfig {
        scenarios_per_substrate: 15,
        kinds: FABRIC_KINDS.to_vec(),
        ..Default::default()
    };
    let report = run_campaign(&config);
    assert_eq!(report.kinds, ["tsv_stuck", "tsv_bridge", "crosstalk", "mux_select", "seu_burst"]);
    assert_eq!(report.failures(), 0, "fabric sweep failed:\n{}", render_report(&report));
    for sub in &report.substrates {
        assert!(sub.outcome_count(Outcome::LinkQuarantined) >= 3, "{}", sub.substrate);
        assert!(sub.outcome_count(Outcome::Rerouted) >= 3, "{}", sub.substrate);
        assert!(sub.outcome_count(Outcome::DetectedRepaired) >= 3, "{}", sub.substrate);
    }
    // Cross-substrate parity: same scenario, same verdict, even though
    // one substrate retires instructions and the other clocks gates.
    let [behavioral, netlist] = &report.substrates[..] else {
        panic!("expected two substrate sweeps");
    };
    for (b, n) in behavioral.results.iter().zip(&netlist.results) {
        assert_eq!(b.id, n.id);
        assert_eq!(
            b.outcome, n.outcome,
            "scenario {} ({}) diverged: behavioral={:?} netlist={:?}",
            b.id, b.kind, b.outcome, n.outcome
        );
    }
}

/// The paper's central repair claim for fabric faults: a dead TSV is a
/// *routing constraint*. The engine must quarantine the link and reroute
/// — stage quarantines (escalations) must stay at zero, and any stage
/// quarantine would classify as [`Outcome::Misdiagnosed`] because the
/// truth set of a link fault contains no stage.
#[test]
fn link_fault_resolves_by_rerouting_not_stage_retirement() {
    let config = CampaignConfig {
        scenarios_per_substrate: 4,
        kinds: vec![KindId::TsvStuck],
        substrates: vec![SubstrateKind::Behavioral],
        ..Default::default()
    };
    let report = run_campaign(&config);
    for r in &report.substrates[0].results {
        assert_eq!(
            r.outcome,
            Outcome::LinkQuarantined,
            "stuck TSV must resolve via link quarantine: {r:?}"
        );
        assert!(r.counts.link_quarantines >= 1, "{r:?}");
        assert_eq!(r.counts.escalations, 0, "a healthy stage was retired: {r:?}");
    }
}

/// The harness as a regression oracle for routing-aware detection:
/// disable the route scrub and late crossbar mux-select upsets outlive
/// the scenario as [`Outcome::MisroutedUndetected`]; the scrub (default
/// on) catches and rewrites every one within an epoch.
#[test]
fn disabled_route_scrub_leaves_mux_upsets_undetected() {
    let hardened = one_kind_config(SubstrateKind::Behavioral, KindId::MuxSelect, 3);

    let mut blind = hardened.clone();
    blind.engine.route_scrub = false;
    let before = run_campaign(&blind).substrates.remove(0);
    assert!(
        before.outcome_count(Outcome::MisroutedUndetected) >= 1,
        "harness failed to expose the unscrubbed-crossbar hole: {before:?}"
    );

    let after = run_campaign(&hardened).substrates.remove(0);
    assert_eq!(
        after.outcome_count(Outcome::Rerouted),
        after.results.len(),
        "route scrub must catch and rewrite every mux upset: {after:?}"
    );
    assert!(
        after.total_counts().reroutes >= after.results.len() as u64,
        "each rewrite must surface as a Misrouted event"
    );
}
