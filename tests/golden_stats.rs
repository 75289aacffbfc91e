//! Golden pin of every statistic the behavioral substrate simulates.
//!
//! `System3d` runs on the campaign geometry (5 pipelines on 8 layers, the
//! `trap_mix` workloads `r2d3 campaign` loads) under one fault of each
//! kind the simulator's hot path treats differently: a permanent IFU
//! fault (corrupted fetches, some undecodable), a permanent EXU fault, an
//! LSU transient re-armed every epoch and a stuck TSV. Every trace record,
//! pipeline counter, memory word, cache and predictor statistic and busy
//! cycle is folded into one FNV-1a-64, so any change to a simulated value
//! moves the constant. Speed-ups of the simulator must leave it alone.

use r2d3::isa::kernels::trap_mix;
use r2d3::isa::Unit;
use r2d3::pipeline_sim::{FaultEffect, LinkFault, StageId, System3d, SystemConfig};

/// `r2d3 campaign`'s default seed: the workloads are the campaign's own.
const CAMPAIGN_SEED: u64 = 0xCA3A;
const PIPELINES: usize = 5;
const LAYERS: usize = 8;
const EPOCHS: usize = 16;
const EPOCH_CYCLES: u64 = 4000;
/// FNV-1a-64 of the statistics below, computed before the simulator's
/// hot path was optimised.
const GOLDEN: u64 = 0xfd83_9426_a162_d36f;

/// Byte-wise FNV-1a-64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn fold(sys: &System3d, h: &mut Fnv) {
    for layer in 0..LAYERS {
        for unit in Unit::ALL {
            let stage = StageId::new(layer, unit);
            let ring = sys.stage_trace(stage);
            h.word(ring.total_pushed());
            h.word(ring.len() as u64);
            for r in ring.iter() {
                h.word(r.cycle);
                h.word(r.input_sig);
                h.word(u64::from(r.golden_output));
                h.word(u64::from(r.actual_output));
            }
            h.word(sys.stats().busy(stage));
        }
    }
    for p in 0..PIPELINES {
        let pipe = sys.pipeline(p).expect("campaign pipeline");
        for w in [u64::from(pipe.pc()), pipe.retired(), pipe.cycles(), pipe.active_cycles()] {
            h.word(w);
        }
        for flag in [pipe.halted(), pipe.crashed(), pipe.tainted()] {
            h.word(u64::from(flag));
        }
        h.word(pipe.memory().len() as u64);
        for &w in pipe.memory() {
            h.word(u64::from(w));
        }
        for cache in [pipe.l1i(), pipe.l1d()] {
            h.word(cache.hits());
            h.word(cache.misses());
        }
        h.word(pipe.predictor().predictions());
        h.word(pipe.predictor().mispredictions());
    }
}

#[test]
fn every_simulated_statistic_matches_the_golden_digest() {
    let mut sys =
        System3d::new(&SystemConfig { pipelines: PIPELINES, layers: LAYERS, ..Default::default() });
    for p in 0..PIPELINES {
        let kernel = trap_mix(4096, CAMPAIGN_SEED ^ (p as u64 + 1));
        sys.load_program(p, kernel.program().clone()).unwrap();
    }
    // Bit 4 stuck high turns R-type functs and trap codes undecodable
    // and shifts immediates: some fetches wedge, others mis-execute.
    sys.inject_fault(StageId::new(0, Unit::Ifu), FaultEffect { bit: 4, stuck: true }).unwrap();
    sys.inject_fault(StageId::new(1, Unit::Exu), FaultEffect { bit: 31, stuck: false }).unwrap();
    sys.fabric_mut()
        .inject_link_fault(3, Unit::Exu, LinkFault::Stuck { mask: 1 << 12, pattern: 0 })
        .unwrap();
    let lsu_transient = (StageId::new(2, Unit::Lsu), FaultEffect { bit: 3, stuck: true });

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut wedges = 0;
    for _ in 0..EPOCHS {
        sys.inject_transient(lsu_transient.0, lsu_transient.1).unwrap();
        sys.run(EPOCH_CYCLES).unwrap();
        fold(&sys, &mut h);
        // Keep every workload running, as the campaign runner does.
        for p in 0..PIPELINES {
            let pipe = sys.pipeline(p).unwrap();
            wedges += usize::from(pipe.crashed());
            if pipe.halted() || pipe.crashed() {
                sys.restart_program(p).unwrap();
            }
        }
    }
    assert!(wedges > 0, "the IFU fault never wedged a pipeline");
    assert_eq!(h.0, GOLDEN, "simulated statistics moved: digest {:#018x}", h.0);
}
