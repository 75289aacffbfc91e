//! Differential suite for the runtime-dispatched SIMD kernels: every
//! kernel path available on the host must produce detection words and
//! faulty net values byte-identical to the scalar kernel, for every
//! dispatchable lane width, on randomly generated netlists, and walks
//! that exit early must stop with the same words under every kernel.
//! (Kernels unavailable on the host are compile-gated out of
//! `available()`, so CI on each architecture exercises exactly the paths
//! it can run. These netlists fit the cone-bitset budget; the walk
//! without bitsets is checked kernel by kernel in `sim.rs`'s unit tests.)

use proptest::prelude::*;
use r2d3_netlist::{
    pack_blocks, FaultSim, GateKind, NetId, Netlist, NetlistBuilder, SimBlock, SimScratch,
    SimdKernel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random combinational netlist (same generator family as
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

/// The oracle's detect words of `fault`, one per pattern block.
fn oracle_words<const W: usize>(
    nl: &Netlist,
    blocks: &[Vec<u64>],
    goods: &[Vec<u64>],
    fault: (NetId, bool),
) -> SimBlock<W> {
    std::array::from_fn(|g| {
        let faulty = nl.eval_all_stuck(&blocks[g], fault);
        nl.outputs().iter().fold(0, |d, o| d | (goods[g][o.index()] ^ faulty[o.index()]))
    })
}

/// Runs every fault under `kernel` and the scalar kernel at width `W`,
/// asserting byte-identical detection words and net values for walks
/// seeded at the fault site, and identical detection words for walks
/// seeded at its fanout-free region's stem. Both walks also run with an
/// exit at the lowest lane of each lane group's mask: their detection
/// words must be identical across kernels and keep each group's oracle
/// verdict and first detecting lane.
fn assert_kernel_matches_scalar<const W: usize>(
    nl: &Netlist,
    kernel: SimdKernel,
    pattern_seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(pattern_seed);
    let blocks: Vec<Vec<u64>> =
        (0..W).map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect()).collect();
    let goods: Vec<Vec<u64>> = blocks.iter().map(|b| nl.eval_all(b)).collect();
    let packed: Vec<SimBlock<W>> =
        pack_blocks::<W>(&goods.iter().map(Vec::as_slice).collect::<Vec<_>>());

    let mut scalar_sim = FaultSim::new(nl);
    prop_assert!(scalar_sim.set_kernel(SimdKernel::Scalar));
    let mut simd_sim = FaultSim::new(nl);
    prop_assert!(simd_sim.set_kernel(kernel), "{} unavailable", kernel.name());

    let mut a = SimScratch::<W>::new();
    let mut b = SimScratch::<W>::new();
    for net in 0..nl.num_nets() as u32 {
        let net = NetId(net);
        for stuck in [false, true] {
            // Value-exact walk from the site, seeded with its
            // excitation lanes.
            let excite = packed[net.index()].map(|g| if stuck { !g } else { g });
            scalar_sim.seeded_walk(&packed, net, excite, [0; W], &mut a);
            simd_sim.seeded_walk(&packed, net, excite, [0; W], &mut b);
            prop_assert_eq!(
                a.detect_words(),
                b.detect_words(),
                "{} W={} detect words for ({}, sa{})",
                kernel.name(),
                W,
                net,
                u8::from(stuck)
            );
            for n in 0..nl.num_nets() as u32 {
                prop_assert_eq!(
                    a.value(&packed, NetId(n)),
                    b.value(&packed, NetId(n)),
                    "{} W={} value of n{} for ({}, sa{})",
                    kernel.name(),
                    W,
                    n,
                    net,
                    u8::from(stuck)
                );
            }
            // Walk from the stem, seeded with the lanes the fault flips
            // it on: identical detection words (and thus identical
            // first detecting block and lane).
            let mut mask = excite;
            let stem = scalar_sim.sensitize(&packed, net, &mut mask);
            scalar_sim.seeded_walk(&packed, stem, mask, [0; W], &mut a);
            simd_sim.seeded_walk(&packed, stem, mask, [0; W], &mut b);
            prop_assert_eq!(
                a.detect_words(),
                b.detect_words(),
                "{} W={} stem walk words for ({}, sa{})",
                kernel.name(),
                W,
                net,
                u8::from(stuck)
            );
            // The same walks, exiting once the lowest lane of each lane
            // group's mask is observed.
            let oracle = oracle_words::<W>(nl, &blocks, &goods, (net, stuck));
            for (seed, diff) in [(net, excite), (stem, mask)] {
                let exit = diff.map(|m| m & m.wrapping_neg());
                scalar_sim.seeded_walk(&packed, seed, diff, exit, &mut a);
                simd_sim.seeded_walk(&packed, seed, diff, exit, &mut b);
                prop_assert_eq!(
                    a.detect_words(),
                    b.detect_words(),
                    "{} W={} exit walk words from {} for ({}, sa{})",
                    kernel.name(),
                    W,
                    seed,
                    net,
                    u8::from(stuck)
                );
                for (g, (word, want)) in b.detect_words().iter().zip(oracle).enumerate() {
                    let word = word & diff[g];
                    prop_assert_eq!(
                        (word != 0, word.trailing_zeros()),
                        (want != 0, want.trailing_zeros()),
                        "{} W={} exit walk from {} for ({}, sa{}), lane group {}",
                        kernel.name(),
                        W,
                        seed,
                        net,
                        u8::from(stuck),
                        g
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_dispatch_path_matches_scalar(
        shape_seed in 0u64..(1u64 << 48),
        pattern_seed in 0u64..(1u64 << 48),
    ) {
        let nl = random_netlist(shape_seed);
        for kernel in SimdKernel::available() {
            assert_kernel_matches_scalar::<1>(&nl, kernel, pattern_seed)?;
            assert_kernel_matches_scalar::<2>(&nl, kernel, pattern_seed)?;
            assert_kernel_matches_scalar::<4>(&nl, kernel, pattern_seed)?;
            assert_kernel_matches_scalar::<8>(&nl, kernel, pattern_seed)?;
        }
    }
}

#[test]
fn detected_kernel_is_available() {
    let nl = random_netlist(7);
    let sim = FaultSim::new(&nl);
    assert!(sim.kernel().is_available());
    assert!(SimdKernel::available().contains(&SimdKernel::Scalar));
}
