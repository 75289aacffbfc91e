//! Property tests for structural fault collapsing: on randomly generated
//! netlists, the collapsed campaign (simulate one representative per
//! equivalence class, expand verdicts to members) must be byte-identical
//! to the uncollapsed full-re-evaluation oracle — statuses, first
//! detecting pattern indices, and applied-pattern counts — and every
//! collapsed pair must share detection words on every pattern block.

use proptest::prelude::*;
use r2d3_atpg::campaign::{run_campaign, run_campaign_reference, CampaignConfig};
use r2d3_atpg::collapse::FaultClasses;
use r2d3_atpg::fault::{all_faults, Fault};
use r2d3_netlist::{FaultSim, GateKind, NetId, Netlist, NetlistBuilder, SimScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random combinational netlist (same generator family as
/// `incremental_sim.rs`).
fn random_netlist(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new();
    let num_inputs = rng.gen_range(2usize..10);
    let mut nets = b.inputs(num_inputs);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collapsed_campaign_matches_uncollapsed_oracle(
        shape_seed in 0u64..(1u64 << 48),
        pattern_seed in 0u64..(1u64 << 48),
    ) {
        let nl = random_netlist(shape_seed);
        let faults = all_faults(&nl);
        let config = CampaignConfig { max_patterns: 512, seed: pattern_seed, threads: 1 };
        // `run_campaign` collapses internally; the reference simulates
        // every fault by full re-evaluation. Expanded verdicts must be
        // byte-identical, down to first-detection pattern indices.
        let collapsed = run_campaign(&nl, &faults, &config);
        let oracle = run_campaign_reference(&nl, &faults, &config);
        prop_assert_eq!(collapsed.statuses(), oracle.statuses());
        prop_assert_eq!(collapsed.patterns_applied(), oracle.patterns_applied());
    }

    #[test]
    fn collapsed_classmates_share_detection_words(
        shape_seed in 0u64..(1u64 << 48),
        pattern_seed in 0u64..(1u64 << 48),
    ) {
        // The determinism contract behind verdict expansion: every fault
        // shares its representative's detection word on every block.
        let nl = random_netlist(shape_seed);
        let classes = FaultClasses::build(&nl);
        let sim = FaultSim::new(&nl);
        let mut scratch = SimScratch::<1>::new();
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        for _ in 0..4 {
            let inputs: Vec<u64> = (0..nl.num_inputs()).map(|_| rng.gen()).collect();
            let good = nl.eval_all(&inputs);
            let good = good.as_chunks::<1>().0;
            // A fault's word: the walk seeded with its excitation lanes.
            let mut word = |f: Fault| {
                let [g] = good[f.net.index()];
                let excite = if f.stuck { !g } else { g };
                sim.seeded_walk(good, f.net, [excite], [0], &mut scratch);
                scratch.detect_words()[0]
            };
            for fault in all_faults(&nl) {
                let rep = classes.representative(fault);
                if rep == fault {
                    continue;
                }
                let fault_word = word(fault);
                let rep_word = word(rep);
                prop_assert_eq!(
                    fault_word, rep_word,
                    "{} vs representative {}", fault, rep
                );
            }
        }
    }
}
