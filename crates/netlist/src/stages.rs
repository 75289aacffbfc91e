//! Structural netlist generators for the five OpenSPARC T1 pipeline units.
//!
//! The paper's ATPG study runs on the synthesized 45 nm netlist of each
//! unit. We substitute generated structural models: each unit gets a
//! hand-built *architectural core* (the datapath a designer would expect —
//! next-PC logic for the IFU, an ALU for the EXU, address/tag logic for the
//! LSU, trap priority logic for the TLU, a multiplier array for the FFU)
//! padded with deterministic *filler logic* up to a gate budget
//! proportional to the unit's Table III silicon area. The filler mixes
//! easily-sensitized (XOR) and masking (AND/OR/MUX) structures so the
//! random-pattern testability profile resembles real control/datapath mix,
//! and a configurable fraction of provably redundant gates provides exact
//! ground truth for undetectable stuck-at faults.

use crate::builder::NetlistBuilder;
use crate::netlist::{GateKind, NetId, Netlist};
use r2d3_isa::Unit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-unit silicon area in mm² from the paper's Table III (45 nm SOI).
///
/// Order matches [`Unit::ALL`]: IFU, EXU, LSU, TLU, FFU.
pub const UNIT_AREA_MM2: [f64; 5] = [0.056, 0.036, 0.067, 0.040, 0.014];

/// Sizing knobs for stage-netlist generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSizing {
    /// Gate density used to convert Table III areas into gate budgets.
    /// The default (15 000 gates/mm²) keeps the full five-unit fault
    /// universe in the tens of thousands so campaigns run in seconds.
    pub gates_per_mm2: f64,
    /// Fraction of the gate budget spent on provably redundant logic
    /// (ground truth for the "undetectable" class in Fig. 4(b); the paper
    /// reports ~4 % of total faults undetectable at stage level).
    pub redundant_fraction: f64,
    /// Seed for the deterministic filler generator.
    pub seed: u64,
}

impl Default for StageSizing {
    fn default() -> Self {
        StageSizing { gates_per_mm2: 15_000.0, redundant_fraction: 0.032, seed: 0xD3D3 }
    }
}

impl StageSizing {
    /// Gate budget for one unit.
    #[must_use]
    pub fn gate_budget(&self, unit: Unit) -> usize {
        (UNIT_AREA_MM2[unit.index()] * self.gates_per_mm2).round() as usize
    }
}

/// A generated pipeline-unit netlist.
#[derive(Debug, Clone)]
pub struct StageNetlist {
    unit: Unit,
    netlist: Netlist,
}

impl StageNetlist {
    /// Which pipeline unit this netlist models.
    #[must_use]
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// The netlist itself.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Wraps an externally built netlist (e.g. a Yosys-JSON import) as a
    /// stage for `unit`, validating it against the IR invariants first.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::ir::IrError`] if the netlist violates any
    /// structural IR invariant.
    pub fn from_netlist(unit: Unit, netlist: Netlist) -> Result<Self, crate::ir::IrError> {
        crate::ir::validate(&netlist)?;
        Ok(StageNetlist { unit, netlist })
    }
}

/// Generates the structural netlist for one pipeline unit.
///
/// The result is deterministic in `(unit, sizing)`.
#[must_use]
pub fn stage_netlist(unit: Unit, sizing: &StageSizing) -> StageNetlist {
    let mut b = NetlistBuilder::new();
    let core_outputs = match unit {
        Unit::Ifu => build_ifu(&mut b),
        Unit::Exu => build_exu(&mut b),
        Unit::Lsu => build_lsu(&mut b),
        Unit::Tlu => build_tlu(&mut b),
        Unit::Ffu => build_ffu(&mut b),
    };

    let budget = sizing.gate_budget(unit);
    let seed = sizing.seed ^ (unit.index() as u64).wrapping_mul(0x9e37_79b9);
    let filler_outputs = add_filler(&mut b, &core_outputs, budget, sizing.redundant_fraction, seed);

    b.outputs(&core_outputs);
    b.outputs(&filler_outputs);
    StageNetlist { unit, netlist: b.finish() }
}

/// Generates all five unit netlists with the same sizing.
#[must_use]
pub fn all_stage_netlists(sizing: &StageSizing) -> Vec<StageNetlist> {
    Unit::ALL.iter().map(|&u| stage_netlist(u, sizing)).collect()
}

const WORD: usize = 16;

/// IFU: next-PC pipeline — PC incrementer, branch-target mux, and a
/// branch-predictor index/tag slice.
fn build_ifu(b: &mut NetlistBuilder) -> Vec<NetId> {
    let pc = b.inputs(WORD);
    let target = b.inputs(WORD);
    let taken = b.input();
    let btb_tag = b.inputs(8);

    // pc + 1
    let zero = b.constant(false);
    let one = b.constant(true);
    let zeros: Vec<NetId> = (0..WORD).map(|_| zero).collect();
    let (pc_inc, _c) = b.ripple_adder(&pc, &zeros, one);
    // next = taken ? target : pc + 1
    let next_pc = b.mux_word(taken, &target, &pc_inc);
    // Predictor index: XOR-fold the PC into 4 bits, decode, tag compare.
    let idx: Vec<NetId> = (0..4)
        .map(|i| {
            let taps: Vec<NetId> = (0..WORD / 4).map(|j| pc[i + 4 * j]).collect();
            b.xor_tree(&taps)
        })
        .collect();
    let lines = b.decoder(&idx);
    let tag_hit = b.equal(&btb_tag, &pc[..8]);
    let pred: Vec<NetId> = lines.iter().map(|&l| b.and2(l, tag_hit)).collect();
    let pred_any = b.or_tree(&pred);

    let mut outs = next_pc;
    outs.push(pred_any);
    outs.extend(pred.into_iter().take(4));
    outs
}

/// EXU: a word ALU — adder, subtractor, logic ops, barrel shifter and an
/// op-select mux network plus condition flags.
fn build_exu(b: &mut NetlistBuilder) -> Vec<NetId> {
    let a = b.inputs(WORD);
    let bb = b.inputs(WORD);
    let op = b.inputs(3);

    let zero = b.constant(false);
    let (sum, cout) = b.ripple_adder(&a, &bb, zero);
    let (diff, borrow) = b.subtractor(&a, &bb);
    let and_w: Vec<NetId> = a.iter().zip(&bb).map(|(&x, &y)| b.and2(x, y)).collect();
    let or_w: Vec<NetId> = a.iter().zip(&bb).map(|(&x, &y)| b.or2(x, y)).collect();
    let xor_w: Vec<NetId> = a.iter().zip(&bb).map(|(&x, &y)| b.xor2(x, y)).collect();
    let shifted = b.barrel_shift_left(&a, &op);

    // Result select: op2 chooses arith vs logic group, op1/op0 within.
    let arith = b.mux_word(op[0], &diff, &sum);
    let logic1 = b.mux_word(op[0], &or_w, &and_w);
    let logic2 = b.mux_word(op[1], &shifted, &xor_w);
    let logic = b.mux_word(op[0], &logic2, &logic1);
    let result = b.mux_word(op[2], &arith, &logic);

    // Flags: zero, carry/borrow, sign.
    let nz = b.or_tree(&result);
    let z = b.not(nz);
    let cf = b.mux2(op[0], borrow, cout);
    let sign = result[WORD - 1];

    let mut outs = result;
    outs.extend([z, cf, sign]);
    outs
}

/// LSU: address generation, 2-way tag compare, byte-alignment muxing and
/// store-mask logic.
fn build_lsu(b: &mut NetlistBuilder) -> Vec<NetId> {
    let base = b.inputs(WORD);
    let offset = b.inputs(WORD);
    let store_data = b.inputs(WORD);
    let tag0 = b.inputs(8);
    let tag1 = b.inputs(8);
    let is_store = b.input();

    let zero = b.constant(false);
    let (addr, _c) = b.ripple_adder(&base, &offset, zero);
    let addr_tag: Vec<NetId> = addr[WORD - 8..].to_vec();
    let hit0 = b.equal(&addr_tag, &tag0);
    let hit1 = b.equal(&addr_tag, &tag1);
    let n0 = b.not(hit0);
    let hit1_only = b.and2(hit1, n0);
    let hit = b.or2(hit0, hit1);

    // Alignment: rotate store data by addr[0..1] bytes (8-bit halves here).
    let lo: Vec<NetId> = store_data[..8].to_vec();
    let hi: Vec<NetId> = store_data[8..].to_vec();
    let swapped: Vec<NetId> = hi.iter().chain(&lo).copied().collect();
    let aligned = b.mux_word(addr[0], &swapped, &store_data);

    // Store byte-enable mask.
    let na = b.not(addr[1]);
    let be0 = b.and2(is_store, na);
    let be1 = b.and2(is_store, addr[1]);

    let mut outs = addr;
    outs.extend(aligned);
    outs.extend([hit, hit0, hit1_only, be0, be1]);
    outs
}

/// TLU: masked interrupt priority logic with a trap-level comparator.
fn build_tlu(b: &mut NetlistBuilder) -> Vec<NetId> {
    let irq = b.inputs(8);
    let mask = b.inputs(8);
    let new_level = b.inputs(3);
    let cur_level = b.inputs(3);

    let masked: Vec<NetId> = irq.iter().zip(&mask).map(|(&i, &m)| b.and2(i, m)).collect();
    let grants = b.priority_encoder(&masked);
    let any = b.or_tree(&masked);
    // Take the trap only if new_level > cur_level: new - cur has no borrow
    // and levels differ.
    let (_, borrow) = b.subtractor(&new_level, &cur_level);
    let no_borrow = b.not(borrow);
    let eq = b.equal(&new_level, &cur_level);
    let neq = b.not(eq);
    let gt = b.and2(no_borrow, neq);
    let take = b.and2(any, gt);

    let mut outs = grants;
    outs.extend([any, take]);
    outs
}

/// FFU: floating-point front end — an 8×8 mantissa multiplier array and a
/// 6-bit exponent adder.
fn build_ffu(b: &mut NetlistBuilder) -> Vec<NetId> {
    let man_a = b.inputs(8);
    let man_b = b.inputs(8);
    let exp_a = b.inputs(6);
    let exp_b = b.inputs(6);

    let product = b.array_multiplier(&man_a, &man_b);
    let zero = b.constant(false);
    let (exp_sum, ovf) = b.ripple_adder(&exp_a, &exp_b, zero);

    let mut outs = product;
    outs.extend(exp_sum);
    outs.push(ovf);
    outs
}

/// Pads the netlist with deterministic filler logic up to `budget` gates,
/// returning the filler's observable outputs.
///
/// The filler grows a random logic cloud rooted at the core's nets. A
/// `redundant_fraction` of the budget goes to [`NetlistBuilder::redundant_zero`]
/// / [`redundant_one`](NetlistBuilder::redundant_one) pairs spliced into
/// live paths. Cloud outputs are folded into a handful of primary outputs
/// through mixed OR/MUX collector trees (realistic partial masking).
fn add_filler(
    b: &mut NetlistBuilder,
    roots: &[NetId],
    budget: usize,
    redundant_fraction: f64,
    seed: u64,
) -> Vec<NetId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<NetId> = roots.to_vec();
    if pool.is_empty() {
        pool.push(b.constant(false));
    }
    let mut collectors: Vec<NetId> = Vec::new();

    // Every unit gets at least one redundant insertion so the campaign's
    // "undetectable" class has ground truth even for the smallest unit.
    let redundant_target = if redundant_fraction > 0.0 {
        ((budget as f64 * redundant_fraction) as usize).max(8)
    } else {
        0
    };
    let mut redundant_emitted = 0usize;
    let mut gates_emitted = 0usize;

    while gates_emitted < budget {
        let pick = |rng: &mut StdRng, pool: &[NetId]| pool[rng.gen_range(0..pool.len())];
        if redundant_emitted < redundant_target && rng.gen_bool(0.06) {
            // Splice a chain of redundant constants into a live path.
            // z0 = a & !a is constant 0; every AND of a constant-0 net
            // with anything stays constant 0, so each chain link adds one
            // provably undetectable SA0 site. ORing the chain tail into a
            // live net keeps the surrounding function unchanged while the
            // links' SA1 faults remain detectable through the splice.
            // (The dual chain uses OR links on a constant-1 root.)
            let a = pick(&mut rng, &pool);
            let live = pick(&mut rng, &pool);
            let chain_len = rng.gen_range(3..8usize);
            let new = if rng.gen_bool(0.5) {
                let mut z = b.redundant_zero(a);
                for _ in 0..chain_len {
                    let other = pick(&mut rng, &pool);
                    z = b.and2(z, other);
                    b.mark_redundant(z, false);
                }
                b.or2(live, z)
            } else {
                let mut o = b.redundant_one(a);
                for _ in 0..chain_len {
                    let other = pick(&mut rng, &pool);
                    o = b.or2(o, other);
                    b.mark_redundant(o, true);
                }
                b.and2(live, o)
            };
            pool.push(new);
            redundant_emitted += chain_len;
            gates_emitted += chain_len + 3;
            continue;
        }
        let kind = match rng.gen_range(0..100) {
            0..=44 => GateKind::Xor,
            45..=62 => GateKind::And,
            63..=80 => GateKind::Or,
            81..=92 => GateKind::Mux,
            93..=96 => GateKind::Not,
            _ => GateKind::Xnor,
        };
        let out = match kind.arity() {
            1 => {
                let a = pick(&mut rng, &pool);
                b.gate(kind, &[a])
            }
            2 => {
                let a = pick(&mut rng, &pool);
                let c = pick(&mut rng, &pool);
                b.gate(kind, &[a, c])
            }
            _ => {
                let s = pick(&mut rng, &pool);
                let a = pick(&mut rng, &pool);
                let c = pick(&mut rng, &pool);
                b.gate(kind, &[s, a, c])
            }
        };
        gates_emitted += 1;
        pool.push(out);
        // Bound the working set, but fold the retired nets into a collector
        // first so no logic cone is silently orphaned (orphaned cones would
        // inflate the structurally-undetectable class beyond the intended
        // ground truth).
        if pool.len() > 96 {
            let retired: Vec<NetId> = pool.drain(..32).collect();
            let folded = b.xor_tree(&retired);
            collectors.push(folded);
        }
        if rng.gen_bool(0.11) {
            collectors.push(out);
        }
    }

    // Fold collectors into observable outputs in small groups. XOR folds
    // are transparent (any single flip propagates); a minority of OR folds
    // keeps a realistic slow-to-detect tail. A stage-boundary checker sees
    // all of these, so there is no need to compress aggressively.
    let mut outs = Vec::new();
    if collectors.is_empty() {
        collectors.push(*pool.last().expect("pool is never empty"));
    }
    for (i, chunk) in collectors.chunks(6).enumerate() {
        let folded = if i % 4 == 3 { b.or_tree(chunk) } else { b.xor_tree(chunk) };
        outs.push(folded);
    }
    // Ensure the most recent cloud frontier is observable too.
    let frontier = b.xor_tree(&pool[pool.len().saturating_sub(8)..]);
    outs.push(frontier);
    outs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_track_table_iii_areas() {
        let s = StageSizing::default();
        // LSU is the largest unit, FFU the smallest (Table III).
        assert!(s.gate_budget(Unit::Lsu) > s.gate_budget(Unit::Ifu));
        assert!(s.gate_budget(Unit::Ffu) < s.gate_budget(Unit::Exu));
        assert_eq!(s.gate_budget(Unit::Ifu), 840);
    }

    #[test]
    fn all_units_generate_valid_netlists() {
        let sizing = StageSizing { gates_per_mm2: 3_000.0, ..StageSizing::default() };
        for sn in all_stage_netlists(&sizing) {
            crate::ir::validate(sn.netlist()).unwrap();
            assert!(sn.netlist().num_gates() >= sizing.gate_budget(sn.unit()));
            assert!(!sn.netlist().outputs().is_empty());
            assert!(
                !sn.netlist().redundant_constants().is_empty(),
                "{} should contain redundant ground truth",
                sn.unit()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let sizing = StageSizing { gates_per_mm2: 2_000.0, ..StageSizing::default() };
        let a = stage_netlist(Unit::Exu, &sizing);
        let b = stage_netlist(Unit::Exu, &sizing);
        assert_eq!(a.netlist(), b.netlist());
    }

    #[test]
    fn redundant_nets_are_actually_constant() {
        let sizing = StageSizing { gates_per_mm2: 2_000.0, ..StageSizing::default() };
        let sn = stage_netlist(Unit::Tlu, &sizing);
        let nl = sn.netlist();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..8 {
            let inputs: Vec<u64> = (0..nl.num_inputs()).map(|_| rng.gen()).collect();
            let values = nl.eval_all(&inputs);
            for &(net, val) in nl.redundant_constants() {
                let expect = if val { !0u64 } else { 0u64 };
                assert_eq!(values[net.index()], expect, "redundant net {net} not constant");
            }
        }
    }

    #[test]
    fn exu_core_adds_through_filler() {
        // With op = 0b100 (arith group, add), result bits must equal a + b
        // regardless of the filler.
        let sizing = StageSizing { gates_per_mm2: 2_000.0, ..StageSizing::default() };
        let sn = stage_netlist(Unit::Exu, &sizing);
        let nl = sn.netlist();
        let (a, bb) = (1234u64, 4321u64);
        let mut lanes = vec![0u64; nl.num_inputs()];
        for i in 0..WORD {
            lanes[i] = (a >> i) & 1;
            lanes[WORD + i] = (bb >> i) & 1;
        }
        lanes[2 * WORD + 2] = 1; // op[2] = 1 -> arith, op[0] = 0 -> add
        let out = nl.eval(&lanes);
        let got: u64 = (0..WORD).fold(0, |acc, i| acc | ((out[i] & 1) << i));
        assert_eq!(got, (a + bb) & 0xffff);
    }
}
