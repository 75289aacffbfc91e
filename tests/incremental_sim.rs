//! Property test: the incremental, cone-restricted fault-simulation
//! walk is bit-identical to the full-re-evaluation oracle
//! (`Netlist::eval_all_stuck`) on randomly generated netlists — and the
//! 256-lane (`[u64; 4]`) walk is bit-identical, lane group by lane
//! group, to the 64-lane (`W = 1`) walk of each block. Walks from a
//! fault's fanout-free-region stem, seeded with the lanes the fault
//! flips the stem on, detect it exactly as walks from its site do.

use proptest::prelude::*;
use r2d3_netlist::{pack_blocks, FaultSim, GateKind, NetId, Netlist, NetlistBuilder, SimScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random combinational netlist: a few primary inputs, a random
/// DAG of gates over already-driven nets, and a random observed subset.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_fault_sim_matches_oracle(
        shape_seed in 0u64..(1u64 << 48),
        pattern_seed in 0u64..(1u64 << 48),
    ) {
        let nl = random_netlist(shape_seed);
        let sim = FaultSim::new(&nl);
        let mut scratch = SimScratch::<1>::new();
        let mut det_scratch = SimScratch::<1>::new();
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        let inputs: Vec<u64> = (0..nl.num_inputs()).map(|_| rng.gen()).collect();
        let good = nl.eval_all(&inputs);
        let good_out = nl.output_values(&good);
        let good = good.as_chunks::<1>().0;

        // Every stuck-at fault on every net, both polarities.
        for net in 0..nl.num_nets() as u32 {
            let net = NetId(net);
            let [g] = good[net.index()];
            for stuck in [false, true] {
                let oracle = nl.eval_all_stuck(&inputs, (net, stuck));
                // The walk seeded with the excitation lanes, without an
                // exit, is the faulty circuit on every net.
                let excite = if stuck { !g } else { g };
                sim.seeded_walk(good, net, [excite], [0], &mut scratch);
                for n in 0..nl.num_nets() as u32 {
                    prop_assert_eq!(
                        scratch.value(good, NetId(n)),
                        [oracle[n as usize]],
                        "net n{} differs for fault ({}, sa{})",
                        n,
                        net,
                        u8::from(stuck)
                    );
                }
                let mut oracle_diff = 0u64;
                for (o, g) in nl.outputs().iter().zip(&good_out) {
                    oracle_diff |= oracle[o.index()] ^ g;
                }
                prop_assert_eq!(scratch.detect_words(), [oracle_diff]);

                // Walks that exit once their lowest seeded lanes are
                // observed (as campaigns run them), masked by this fault's
                // lanes, must agree on detection and on the first
                // detecting lane: from the site seeded with the
                // excitation lanes, from the site seeded with a flip of
                // every lane (both polarities at once), and from the
                // fanout-free region's stem seeded with the lanes the
                // fault flips it on.
                let lowest = |m: u64| m & m.wrapping_neg();
                let both = lowest(g) | lowest(!g);
                let mut path = [excite];
                let stem = sim.sensitize(good, net, &mut path);
                for (seed, diff, exit) in [
                    (net, excite, lowest(excite)),
                    (net, !0, both),
                    (stem, path[0], lowest(path[0])),
                ] {
                    sim.seeded_walk(good, seed, [diff], [exit], &mut det_scratch);
                    let det = det_scratch.detect_words()[0] & excite & diff;
                    prop_assert_eq!(det != 0, oracle_diff != 0, "walk from {}", seed);
                    if oracle_diff != 0 {
                        prop_assert_eq!(det.trailing_zeros(), oracle_diff.trailing_zeros());
                    }
                }
            }
        }
    }

    #[test]
    fn wide_fault_sim_matches_narrow_per_lane_group(
        shape_seed in 0u64..(1u64 << 48),
        pattern_seed in 0u64..(1u64 << 48),
    ) {
        let nl = random_netlist(shape_seed);
        let sim = FaultSim::new(&nl);
        let mut narrow = SimScratch::<1>::new();
        let mut wide = SimScratch::<4>::new();
        let mut det = SimScratch::<4>::new();

        let mut rng = StdRng::seed_from_u64(pattern_seed);
        let blocks: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let goods: Vec<Vec<u64>> = blocks.iter().map(|b| nl.eval_all(b)).collect();
        let packed = pack_blocks::<4>(&goods.iter().map(Vec::as_slice).collect::<Vec<_>>());

        for net in 0..nl.num_nets() as u32 {
            let net = NetId(net);
            // One walk from the fanout-free region's stem, seeded with
            // every lane the site can flip it on, serves both polarities.
            let mut path = [!0u64; 4];
            let stem = sim.sensitize(&packed, net, &mut path);
            sim.seeded_walk(&packed, stem, path, [0; 4], &mut det);
            for stuck in [false, true] {
                let excite = packed[net.index()].map(|g| if stuck { !g } else { g });
                sim.seeded_walk(&packed, net, excite, [0; 4], &mut wide);
                let words = wide.detect_words();
                for (g, good) in goods.iter().enumerate() {
                    let good = good.as_chunks::<1>().0;
                    sim.seeded_walk(good, net, [excite[g]], [0], &mut narrow);
                    for n in 0..nl.num_nets() as u32 {
                        prop_assert_eq!(
                            wide.value(&packed, NetId(n))[g],
                            narrow.value(good, NetId(n))[0],
                            "net n{} lane group {} for fault ({}, sa{})",
                            n,
                            g,
                            net,
                            u8::from(stuck)
                        );
                    }
                    let [word] = narrow.detect_words();
                    prop_assert_eq!(words[g], word, "detect word, lane group {}", g);
                    // The stem-shared word is exact on every lane.
                    let shared = excite[g] & path[g] & det.detect_words()[g];
                    prop_assert_eq!(shared, word, "stem-shared word, lane group {}", g);
                }
            }
        }
    }
}
