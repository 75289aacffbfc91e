//! IR round-trip and rewrite-equivalence differential suite.
//!
//! Three layers of guarantees, each tested against an independent oracle:
//!
//! * the deterministic text format is a lossless encoding — build →
//!   `text_emit` → `text_parse` reproduces the identical [`Netlist`],
//! * the rewrite pipeline is semantics-preserving — on random netlists
//!   the post-rewrite outputs match the pre-rewrite outputs on random
//!   input vectors, every `net_map` entry points at a net computing the
//!   identical function, and the whole pipeline is byte-deterministic,
//! * campaigns over rewritten stage chains stay sane — fault lists
//!   align, eliminated sites classify as undetectable, and verdicts are
//!   reproducible — and the vendored Yosys-JSON core drives the full
//!   import → rewrite → detect/diagnose/repair path.

use proptest::prelude::*;
use r2d3_atpg::campaign::{CampaignConfig as FaultCampaignConfig, FaultStatus};
use r2d3_atpg::fault::all_faults;
use r2d3_atpg::observe::core_level_campaign_rewritten;
use r2d3_netlist::{
    parse_yosys_json, rewrite, text_emit, text_parse, ComposeOptions, GateKind, NetId, Netlist,
    NetlistBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The vendored Yosys `write_json` core (also exercised by the CI
/// `import_smoke` job through the CLI).
const ALU4_JSON: &str = include_str!("golden/alu4_core.json");

/// Random combinational netlist (same generator family as
/// `fault_collapse.rs`): arbitrary fanout, shared subtrees, redundant
/// and dead cones included.
fn random_netlist(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new();
    let num_inputs = rng.gen_range(2usize..10);
    let mut nets = b.inputs(num_inputs);
    if rng.gen_bool(0.3) {
        nets.push(b.constant(rng.gen_bool(0.5)));
    }
    let num_gates = rng.gen_range(5usize..120);
    for _ in 0..num_gates {
        let kind = match rng.gen_range(0u32..9) {
            0 => GateKind::Buf,
            1 => GateKind::Not,
            2 => GateKind::And,
            3 => GateKind::Or,
            4 => GateKind::Nand,
            5 => GateKind::Nor,
            6 => GateKind::Xor,
            7 => GateKind::Xnor,
            _ => GateKind::Mux,
        };
        let picks: Vec<NetId> =
            (0..kind.arity()).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
        nets.push(b.gate(kind, &picks));
    }
    let mut observed = 0usize;
    for &net in &nets {
        if rng.gen_bool(0.15) {
            b.output(net);
            observed += 1;
        }
    }
    if observed == 0 {
        let last = *nets.last().unwrap();
        b.output(last);
    }
    b.finish()
}

fn random_vectors(num_inputs: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_inputs).map(|_| rng.gen()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_round_trip_is_identity(seed in 0u64..(1u64 << 48)) {
        let nl = random_netlist(seed);
        let text = text_emit(&nl);
        let parsed = text_parse(&text).expect("emitted text must parse");
        prop_assert_eq!(&parsed, &nl, "text round-trip changed the netlist");
        // Emission is a pure function of the netlist, so re-emission is
        // byte-identical.
        prop_assert_eq!(text_emit(&parsed), text);
    }

    #[test]
    fn rewrite_preserves_function(
        shape_seed in 0u64..(1u64 << 48),
        vector_seed in 0u64..(1u64 << 48),
    ) {
        let nl = random_netlist(shape_seed);
        let out = rewrite(&nl).expect("random builder netlists are valid IR");
        prop_assert_eq!(nl.num_inputs(), out.netlist.num_inputs());
        for round in 0..4u64 {
            let inputs = random_vectors(nl.num_inputs(), vector_seed ^ round);
            prop_assert_eq!(
                nl.eval(&inputs),
                out.netlist.eval(&inputs),
                "rewrite changed observable behavior (seed {}, round {})",
                shape_seed,
                round
            );
        }
    }

    #[test]
    fn rewrite_net_map_points_at_equivalent_nets(
        shape_seed in 0u64..(1u64 << 48),
        vector_seed in 0u64..(1u64 << 48),
    ) {
        let nl = random_netlist(shape_seed);
        let out = rewrite(&nl).expect("valid IR");
        let inputs = random_vectors(nl.num_inputs(), vector_seed);
        let before = nl.eval_all(&inputs);
        let after = out.netlist.eval_all(&inputs);
        for (orig, mapped) in out.net_map.iter().enumerate() {
            if let Some(net) = mapped {
                prop_assert_eq!(
                    before[orig], after[net.index()],
                    "net_map[{}] → {:?} is not function-identical", orig, net
                );
            }
        }
    }

    #[test]
    fn rewrite_is_byte_deterministic(seed in 0u64..(1u64 << 48)) {
        let nl = random_netlist(seed);
        let a = rewrite(&nl).expect("valid IR");
        let b = rewrite(&nl).expect("valid IR");
        prop_assert_eq!(text_emit(&a.netlist), text_emit(&b.netlist));
        prop_assert_eq!(a.net_map, b.net_map);
    }
}

/// Campaign-verdict sanity on a rewritten stage chain: fault lists stay
/// aligned with the inputs, sites the rewrite eliminated classify as
/// undetectable (never silently dropped), verdicts are reproducible, and
/// the rewritten chain still detects a healthy majority of what the
/// un-rewritten chain detects.
#[test]
fn rewritten_stage_chain_campaign_is_sane() {
    use r2d3_netlist::{stage_netlist, StageSizing};

    let sizing = StageSizing { gates_per_mm2: 1_200.0, ..Default::default() };
    let stages: Vec<_> = r2d3_isa::Unit::ALL.iter().map(|&u| stage_netlist(u, &sizing)).collect();
    let netlists: Vec<&Netlist> = stages.iter().map(|s| s.netlist()).collect();
    let faults: Vec<_> = netlists.iter().map(|nl| all_faults(nl)).collect();
    let config = FaultCampaignConfig { max_patterns: 1024, seed: 0x1234, threads: 2 };
    let options = ComposeOptions::core_level();

    let (rewritten, outcomes) =
        core_level_campaign_rewritten(&netlists, &faults, &config, &options).unwrap();
    assert!(
        rewritten.stats.gates_after <= rewritten.stats.gates_before,
        "rewrite grew the composed chain"
    );

    let (rewritten2, outcomes2) =
        core_level_campaign_rewritten(&netlists, &faults, &config, &options).unwrap();
    assert_eq!(text_emit(&rewritten.netlist), text_emit(&rewritten2.netlist));

    let mut detected = 0usize;
    let mut total = 0usize;
    for (si, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.faults(), faults[si].as_slice(), "stage {si} fault list misaligned");
        assert_eq!(
            outcome.statuses(),
            outcomes2[si].statuses(),
            "stage {si} verdicts are not reproducible"
        );
        total += outcome.statuses().len();
        detected += outcome.statuses().iter().filter(|s| s.is_detected()).count();
    }
    assert_eq!(total, faults.iter().map(Vec::len).sum::<usize>());
    assert!(detected * 2 > total / 2, "rewritten chain detected only {detected}/{total} faults");
}

/// Reference semantics of the vendored ALU core, lane-parallel.
fn alu4_reference(a: u64, b: u64, op: (bool, bool), cin: u64) -> (u64, u64, bool) {
    let mask = 0xfu64;
    let (a, b, cin) = (a & mask, b & mask, cin & 1);
    // The carry chain runs regardless of the selected operation (the op
    // mux selects y only); cout is always the adder carry-out.
    let sum = a + b + cin;
    let cout = (sum >> 4) & 1;
    let y = match op {
        (false, false) => sum & mask,
        (true, false) => a & b,
        (false, true) => a | b,
        (true, true) => a ^ b,
    };
    (y, cout, y == 0)
}

#[test]
fn golden_core_imports_and_matches_reference_semantics() {
    let core = parse_yosys_json(ALU4_JSON, None).unwrap();
    assert_eq!(core.name, "alu4");
    assert_eq!(core.input_ports.len(), 4);
    assert_eq!(core.output_ports.len(), 3);
    assert_eq!(core.netlist.num_inputs(), 11); // a[4] b[4] op[2] cin
    assert_eq!(core.netlist.outputs().len(), 6); // y[4] cout zero

    let rewritten = rewrite(&core.netlist).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA111);
    for _ in 0..64 {
        let a = rng.gen_range(0u64..16);
        let b = rng.gen_range(0u64..16);
        let op = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        let cin = u64::from(rng.gen_bool(0.5));
        // Single-lane stimulus: bit 0 of every input word.
        let inputs: Vec<u64> = (0..4)
            .map(|i| (a >> i) & 1)
            .chain((0..4).map(|i| (b >> i) & 1))
            .chain([u64::from(op.0), u64::from(op.1), cin])
            .collect();
        let (want_y, want_cout, want_zero) = alu4_reference(a, b, op, cin);
        for nl in [&core.netlist, &rewritten.netlist] {
            let out = nl.eval(&inputs);
            let got_y = (0..4).fold(0u64, |acc, i| acc | ((out[i] & 1) << i));
            assert_eq!(got_y, want_y, "y mismatch at a={a} b={b} op={op:?} cin={cin}");
            assert_eq!(out[4] & 1, want_cout, "cout mismatch at a={a} b={b} cin={cin}");
            assert_eq!(out[5] & 1 == 1, want_zero, "zero flag mismatch at a={a} b={b}");
        }
    }
}

#[test]
fn golden_core_text_format_round_trips() {
    let core = parse_yosys_json(ALU4_JSON, None).unwrap();
    let rewritten = rewrite(&core.netlist).unwrap();
    for nl in [&core.netlist, &rewritten.netlist] {
        let text = text_emit(nl);
        assert_eq!(&text_parse(&text).unwrap(), nl);
    }
}

/// The acceptance path end-to-end in-process: the vendored core becomes
/// the gate-level substrate of a full engine campaign (detect → diagnose
/// → repair) with zero engine failures and zero silent corruption.
#[test]
fn golden_core_campaign_has_no_failures() {
    use r2d3::engine::campaign::{run_campaign, CampaignConfig, Outcome, SubstrateKind};
    use r2d3_netlist::StageNetlist;

    let core = parse_yosys_json(ALU4_JSON, None).unwrap();
    let rewritten = rewrite(&core.netlist).unwrap().netlist;
    let stages: Vec<StageNetlist> = r2d3_isa::Unit::ALL
        .iter()
        .map(|&u| StageNetlist::from_netlist(u, rewritten.clone()).unwrap())
        .collect();

    let config = CampaignConfig {
        seed: 0xA104,
        scenarios_per_substrate: 12,
        substrates: vec![SubstrateKind::Netlist],
        netlist_stages: Some(stages),
        shrink: false,
        ..Default::default()
    };
    let report = run_campaign(&config);
    let sub = &report.substrates[0];
    assert_eq!(sub.results.len(), 12);
    assert_eq!(sub.outcome_count(Outcome::EngineFailure), 0, "engine failures on imported core");
    assert_eq!(
        sub.outcome_count(Outcome::SilentCorruption),
        0,
        "silent corruption on imported core"
    );
}

/// Faults whose sites the rewrite eliminates must come back as
/// undetectable verdicts, not vanish from the outcome.
#[test]
fn eliminated_fault_sites_classify_as_undetectable() {
    let mut b = NetlistBuilder::new();
    let i = b.inputs(2);
    let anded = b.and2(i[0], i[1]);
    // Dead cone: never observed, removed by DCE. (Not a double
    // inversion — that would be aliased away by the buf/inv cleanup
    // before DCE ever saw it.)
    let dead = b.not(anded);
    let _ = b.xor2(dead, i[0]);
    b.output(anded);
    let nl = b.finish();

    // Direct rewrite: the dead cone is DCE'd and its nets map to None.
    let direct = rewrite(&nl).unwrap();
    assert!(direct.stats.dead_gates_removed >= 2);
    assert!(direct.net_map.iter().filter(|m| m.is_none()).count() >= 2);

    let faults = vec![all_faults(&nl)];
    let config = FaultCampaignConfig { max_patterns: 256, seed: 1, threads: 1 };
    let (_, outcomes) =
        core_level_campaign_rewritten(&[&nl], &faults, &config, &ComposeOptions::default())
            .unwrap();

    let outcome = &outcomes[0];
    assert_eq!(outcome.faults(), faults[0].as_slice());
    let mut undetectable = 0usize;
    let mut detected = 0usize;
    for (fault, status) in outcome.results() {
        match status {
            FaultStatus::Undetectable => undetectable += 1,
            FaultStatus::Detected { .. } => detected += 1,
            FaultStatus::Undetected => {}
        }
        if fault.net == anded {
            // The observed AND output survives every pass; its faults
            // must still be live (an AND output is trivially detectable).
            assert!(status.is_detected(), "fault on the observed output was lost: {status:?}");
        }
    }
    // Both dead-cone nets contribute two faults each, all undetectable.
    assert!(undetectable >= 4, "dead-cone faults must classify as undetectable");
    assert!(detected > 0);
}
