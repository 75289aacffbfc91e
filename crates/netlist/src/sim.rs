//! Incremental, event-driven stuck-at fault simulation.
//!
//! [`Netlist::eval_all_stuck`] re-evaluates every gate for every fault and
//! every pattern block. That is wasteful: a stuck-at fault only disturbs
//! the nets in its *fanout cone*, and on most pattern blocks the
//! disturbance dies out (logic masking) long before it reaches the
//! outputs. [`FaultSim`] exploits both effects with one walk,
//! [`FaultSim::seeded_walk`]:
//!
//! * The engine precomputes a CSR fanout adjacency (which gates read
//!   each net) over the netlist, with gates permuted into **level-major
//!   slot order**: a stable sort of the topological gate order by logic
//!   level. Slot order is still topological, and every level occupies a
//!   contiguous slot run ("bucket"), so the walk tests its frontier
//!   horizon once per bucket or bitset word instead of once per gate.
//! * A walk flips one net on chosen lanes of `W` 64-lane pattern blocks
//!   ([`SimBlock<W>`], `W × 64` lanes) against cached good values and
//!   simulates *only* the net's cone: its precomputed cone-bitset row, or
//!   when the bitsets exceed their memory budget, its gate list derived
//!   per walk. Nets whose faulty value differs from the good value are
//!   recorded in a [`SimScratch`]. The walk early-exits as soon as the
//!   event frontier has converged back to the good values (no remaining
//!   cone gate reads a differing net).
//!
//! A stuck-at-`v` fault on net `n` is the flip of `n` on the lanes where
//! its good value is not `v`. Seeded so, the walk is bit-identical to
//! [`Netlist::eval_all_stuck`] — that method stays as the reference
//! oracle — at a fraction of the work: cost per (fault, block) is
//! `O(active cone)` instead of `O(gates)`. Lane groups never mix, so
//! group `g` of a `W`-block walk is bit-identical to the `W = 1` walk of
//! block `g` alone, which keeps group-aware detection accounting exact,
//! while one pass over the cone amortizes the walk's bookkeeping
//! (frontier test, touched-list maintenance, gate decode) across `W`×
//! the patterns.
//!
//! A walk serves every fault of a **fanout-free region** at once. Inside
//! such a region each net has one reader and is not an output, so a
//! fault's effect leaves it only through the region's stem
//! ([`FaultSim::stem`]). [`FaultSim::sensitize`] narrows a fault's
//! excitation lanes to those on which it flips the stem, and one walk
//! seeded at the stem with the union of those lanes then detects each
//! fault exactly on its own lanes.
//!
//! The inner loop is **runtime-dispatched** over [`SimdKernel`]
//! backends (scalar, AVX2, AVX-512, NEON). Every backend computes the
//! same lane-wise boolean algebra, so detection words are byte-identical
//! across kernels — the differential tests in this module and in
//! `tests/` pin each dispatch path to the scalar kernel's exact output.
//!
//! # `unsafe` boundaries
//!
//! The crate denies `unsafe_op_in_unsafe_fn`: every unchecked load/store
//! sits in an explicit `unsafe` block whose soundness argument is local.
//! There are exactly two obligations, both discharged at construction
//! time by [`FaultSim::new`]:
//!
//! 1. every packed pin/output index is `< num_nets` (asserted once over
//!    the packed gate stream), and every walk asserts its value buffers
//!    are `num_nets` long before entering the unchecked loop;
//! 2. SIMD walk bodies are `#[target_feature]` functions, reachable only
//!    through the [`SimdKernel`] dispatch, which only offers kernels that
//!    runtime CPU detection reported available.

use crate::netlist::{Gate, GateKind, NetId, Netlist};

/// Memory cap for the precomputed per-net cone bitsets (bytes). Above
/// this, [`FaultSim::cone_into`] falls back to an on-demand worklist walk.
const CONE_BITS_BUDGET: usize = 16 << 20;

/// `FaultSim::single_reader` entry of a fanout-free region's stem.
const NO_READER: u32 = u32::MAX;

/// `W` independent 64-lane pattern blocks carried by one net during a
/// walk: `W × 64` test patterns per gate evaluation.
pub type SimBlock<const W: usize> = [u64; W];

/// One gate flattened to 16 bytes for the hot walk: three input pins
/// (unused pins repeat pin 0, turning `Buf`/`Not` into one-input
/// `And`/`Nand`) plus the output net and a 4-bit flag nibble — 2-bit
/// base op (AND/OR/XOR/MUX), an invert bit, and an is-primary-output
/// bit — packed into the last word. The flag encoding lets the walk
/// evaluate any gate with a handful of ALU selects instead of an
/// unpredictable indirect jump.
#[derive(Debug, Clone, Copy)]
struct PackedGate {
    pins: [u32; 3],
    /// `output_net << 4 | is_output << 3 | invert << 2 | base_op`.
    ko: u32,
    /// This gate's own slot — the walk's frontier test compares it
    /// against `last_needed` without a second stream.
    idx: u32,
    /// `last_reader[output_net]`, folded in so the frontier extension
    /// needs no scattered lookup.
    lr: u32,
}

const BASE_AND: u32 = 0;
const BASE_OR: u32 = 1;
const BASE_XOR: u32 = 2;
const BASE_MUX: u32 = 3;

impl PackedGate {
    fn new(gate: &Gate, is_output: bool, idx: u32, lr: u32) -> Self {
        let pin = |i: usize| gate.inputs.get(i).or_else(|| gate.inputs.first());
        let pad = pin(0).map_or(0, |n| n.0);
        let out = gate.output.0;
        assert!(out < 1 << 28, "net index exceeds packed-gate range");
        let (base, inv) = match gate.kind {
            // With pin 1 padded to pin 0, `a AND a` is a buffer.
            GateKind::Buf | GateKind::And => (BASE_AND, 0),
            GateKind::Not | GateKind::Nand => (BASE_AND, 1),
            GateKind::Or => (BASE_OR, 0),
            GateKind::Nor => (BASE_OR, 1),
            GateKind::Xor => (BASE_XOR, 0),
            GateKind::Xnor => (BASE_XOR, 1),
            GateKind::Mux => (BASE_MUX, 0),
            // Constants read no nets, so they appear in no cone; the
            // encoding is never evaluated.
            GateKind::Const0 | GateKind::Const1 => (BASE_AND, 0),
        };
        PackedGate {
            pins: [
                pin(0).map_or(pad, |n| n.0),
                pin(1).map_or(pad, |n| n.0),
                pin(2).map_or(pad, |n| n.0),
            ],
            ko: out << 4 | u32::from(is_output) << 3 | inv << 2 | base,
            idx,
            lr,
        }
    }

    #[inline(always)]
    fn output(self) -> u32 {
        self.ko >> 4
    }

    /// The gate's output word for pin values `va`, `vb`, `vc`: ALU
    /// selects over the four base ops, then the invert bit.
    #[inline(always)]
    fn eval(self, va: u64, vb: u64, vc: u64) -> u64 {
        let base = self.ko & 3;
        let m_and = u64::from(base == BASE_AND).wrapping_neg();
        let m_or = u64::from(base == BASE_OR).wrapping_neg();
        let m_xor = u64::from(base == BASE_XOR).wrapping_neg();
        let m_mux = u64::from(base == BASE_MUX).wrapping_neg();
        let m_inv = (u64::from(self.ko) >> 2 & 1).wrapping_neg();
        (((va & vb) & m_and)
            | ((va | vb) & m_or)
            | ((va ^ vb) & m_xor)
            | (((va & vb) | (!va & vc)) & m_mux))
            ^ m_inv
    }

    /// The gate's Boolean difference with respect to `net`: the lanes
    /// where flipping every pin that reads `net` flips the output, with
    /// the other pins at `value`. Padded pins repeat pin 0 and only
    /// `Mux` reads pin 2, so a one-input gate's difference is all ones.
    #[inline]
    fn difference(self, net: u32, value: impl Fn(u32) -> u64) -> u64 {
        let [a, b, c] = self.pins;
        let flip = |pin: u32| value(pin) ^ u64::from(pin == net).wrapping_neg();
        self.eval(flip(a), flip(b), flip(c)) ^ self.eval(value(a), value(b), value(c))
    }
}

/// One gate step of the event-driven walk over `W` 64-lane pattern
/// blocks: reads the XOR-difference overlay, fires the gate branchlessly
/// if any input differs in any lane group, records the output difference,
/// and extends the frontier horizon. Lanes never interact — each
/// [`SimBlock<W>`] entry is `W` independent difference words — so the
/// result per lane group is bit-identical to firing on that block alone,
/// except that the shared frontier keeps walking while *any* lane group
/// still differs (extra fired gates write zero difference for converged
/// lanes).
///
/// The body is branchless apart from the dead-input skip: gate kinds and
/// outcomes are data-dependent with no usable pattern, so ALU selects
/// beat an indirect jump and conditional stores here, while dead
/// stretches of a converging frontier reduce to three loads per gate.
///
/// This is the portable reference kernel; the SIMD kernels below compute
/// the identical boolean algebra chunk-wise and are pinned to it by
/// differential tests.
///
/// # Safety
///
/// `p.pins` and `p.output()` must be in range for both `good` and
/// `scratch.diff` — guaranteed for records built by [`FaultSim::new`]
/// against a `good` slice of `num_nets` values and a scratch sized by
/// [`SimScratch::begin`].
#[inline(always)]
unsafe fn fire_gate_scalar<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut SimScratch<W>,
    last_needed: &mut u32,
) {
    let [a, b, c] = p.pins;
    // SAFETY: pins/output range-checked at construction (caller contract).
    let (da, db, dc) = unsafe {
        (
            *scratch.diff.get_unchecked(a as usize),
            *scratch.diff.get_unchecked(b as usize),
            *scratch.diff.get_unchecked(c as usize),
        )
    };
    let mut live = 0u64;
    for l in 0..W {
        live |= da[l] | db[l] | dc[l];
    }
    // No differing input in any lane group ⇒ all blocks reproduce their
    // good values.
    if live == 0 {
        return;
    }
    // SAFETY: same in-range guarantee as above.
    let (ga, gb, gc) = unsafe {
        (
            *good.get_unchecked(a as usize),
            *good.get_unchecked(b as usize),
            *good.get_unchecked(c as usize),
        )
    };
    let base = p.ko & 3;
    let m_and = u64::from(base == BASE_AND).wrapping_neg();
    let m_or = u64::from(base == BASE_OR).wrapping_neg();
    let m_xor = u64::from(base == BASE_XOR).wrapping_neg();
    let m_mux = u64::from(base == BASE_MUX).wrapping_neg();
    let m_inv = (u64::from(p.ko) >> 2 & 1).wrapping_neg();
    let m_out = (u64::from(p.ko) >> 3 & 1).wrapping_neg();
    let out = p.output() as usize;
    // SAFETY: `out < num_nets` per the construction-time assert.
    let gout = unsafe { *good.get_unchecked(out) };
    let mut d = [0u64; W];
    let mut any = 0u64;
    for l in 0..W {
        let va = ga[l] ^ da[l];
        let vb = gb[l] ^ db[l];
        let vc = gc[l] ^ dc[l];
        let v = (((va & vb) & m_and)
            | ((va | vb) & m_or)
            | ((va ^ vb) & m_xor)
            | (((va & vb) | (!va & vc)) & m_mux))
            ^ m_inv;
        d[l] = v ^ gout[l];
        scratch.out_diff[l] |= d[l] & m_out;
        any |= d[l];
    }
    // SAFETY: `out < num_nets`, and `scratch.diff` is `num_nets` long.
    unsafe {
        *scratch.diff.get_unchecked_mut(out) = d;
    }
    scratch.touched.push(out as u32);
    let gated = p.lr & u32::from(any != 0).wrapping_neg();
    *last_needed = (*last_needed).max(gated);
}

/// AVX2 kernel: the same gate step as [`fire_gate_scalar`], four
/// lane groups (256 bits) per vector op. `W` must be a multiple of 4
/// ([`effective_kernel`] guarantees it).
///
/// # Safety
///
/// Caller must guarantee the [`fire_gate_scalar`] range contract,
/// `W % 4 == 0`, and that the CPU supports AVX2 (the enclosing walk is
/// gated on runtime detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fire_gate_avx2<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut SimScratch<W>,
    last_needed: &mut u32,
) {
    use core::arch::x86_64::*;
    let [a, b, c] = p.pins;
    let (a, b, c) = (a as usize, b as usize, c as usize);
    let out = p.output() as usize;
    let diff: *mut u64 = scratch.diff.as_mut_ptr().cast();
    let goodp: *const u64 = good.as_ptr().cast();
    // SAFETY: rows `a`, `b`, `c`, `out` are `< num_nets` (construction
    // assert), both buffers are `num_nets × W` u64s, and `W % 4 == 0`,
    // so every 4-lane chunk below stays inside its row. Loads/stores are
    // the unaligned (`loadu`/`storeu`) forms.
    unsafe {
        let mut live = _mm256_setzero_si256();
        for ch in 0..W / 4 {
            let o = ch * 4;
            let da = _mm256_loadu_si256(diff.add(a * W + o).cast());
            let db = _mm256_loadu_si256(diff.add(b * W + o).cast());
            let dc = _mm256_loadu_si256(diff.add(c * W + o).cast());
            live = _mm256_or_si256(live, _mm256_or_si256(da, _mm256_or_si256(db, dc)));
        }
        if _mm256_testz_si256(live, live) != 0 {
            return;
        }
        let base = p.ko & 3;
        let mask = |on: bool| _mm256_set1_epi64x(u64::from(on).wrapping_neg() as i64);
        let m_and = mask(base == BASE_AND);
        let m_or = mask(base == BASE_OR);
        let m_xor = mask(base == BASE_XOR);
        let m_mux = mask(base == BASE_MUX);
        let m_inv = mask(p.ko >> 2 & 1 != 0);
        let m_out = mask(p.ko >> 3 & 1 != 0);
        let od: *mut u64 = scratch.out_diff.as_mut_ptr();
        let mut any = _mm256_setzero_si256();
        for ch in 0..W / 4 {
            let o = ch * 4;
            let da = _mm256_loadu_si256(diff.add(a * W + o).cast());
            let db = _mm256_loadu_si256(diff.add(b * W + o).cast());
            let dc = _mm256_loadu_si256(diff.add(c * W + o).cast());
            let va = _mm256_xor_si256(_mm256_loadu_si256(goodp.add(a * W + o).cast()), da);
            let vb = _mm256_xor_si256(_mm256_loadu_si256(goodp.add(b * W + o).cast()), db);
            let vc = _mm256_xor_si256(_mm256_loadu_si256(goodp.add(c * W + o).cast()), dc);
            let ab = _mm256_and_si256(va, vb);
            let v = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_and_si256(ab, m_and),
                    _mm256_and_si256(_mm256_or_si256(va, vb), m_or),
                ),
                _mm256_or_si256(
                    _mm256_and_si256(_mm256_xor_si256(va, vb), m_xor),
                    // `_mm256_andnot_si256(va, vc)` = `!va & vc`.
                    _mm256_and_si256(_mm256_or_si256(ab, _mm256_andnot_si256(va, vc)), m_mux),
                ),
            );
            let v = _mm256_xor_si256(v, m_inv);
            let d = _mm256_xor_si256(v, _mm256_loadu_si256(goodp.add(out * W + o).cast()));
            _mm256_storeu_si256(diff.add(out * W + o).cast(), d);
            let acc = _mm256_loadu_si256(od.add(o).cast());
            _mm256_storeu_si256(od.add(o).cast(), _mm256_or_si256(acc, _mm256_and_si256(d, m_out)));
            any = _mm256_or_si256(any, d);
        }
        scratch.touched.push(out as u32);
        let gated = p.lr & u32::from(_mm256_testz_si256(any, any) == 0).wrapping_neg();
        *last_needed = (*last_needed).max(gated);
    }
}

/// AVX-512F kernel: eight lane groups (512 bits) per vector op. `W` must
/// be a multiple of 8 ([`effective_kernel`] guarantees it).
///
/// # Safety
///
/// Caller must guarantee the [`fire_gate_scalar`] range contract,
/// `W % 8 == 0`, and that the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn fire_gate_avx512<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut SimScratch<W>,
    last_needed: &mut u32,
) {
    use core::arch::x86_64::*;
    let [a, b, c] = p.pins;
    let (a, b, c) = (a as usize, b as usize, c as usize);
    let out = p.output() as usize;
    let diff: *mut u64 = scratch.diff.as_mut_ptr().cast();
    let goodp: *const u64 = good.as_ptr().cast();
    // SAFETY: as in the AVX2 kernel, rows are in range, buffers are
    // `num_nets × W` u64s, and `W % 8 == 0` keeps each chunk in-row.
    unsafe {
        let mut live = _mm512_setzero_si512();
        for ch in 0..W / 8 {
            let o = ch * 8;
            let da = _mm512_loadu_si512(diff.add(a * W + o).cast());
            let db = _mm512_loadu_si512(diff.add(b * W + o).cast());
            let dc = _mm512_loadu_si512(diff.add(c * W + o).cast());
            live = _mm512_or_si512(live, _mm512_or_si512(da, _mm512_or_si512(db, dc)));
        }
        if _mm512_test_epi64_mask(live, live) == 0 {
            return;
        }
        let base = p.ko & 3;
        let mask = |on: bool| _mm512_set1_epi64(u64::from(on).wrapping_neg() as i64);
        let m_and = mask(base == BASE_AND);
        let m_or = mask(base == BASE_OR);
        let m_xor = mask(base == BASE_XOR);
        let m_mux = mask(base == BASE_MUX);
        let m_inv = mask(p.ko >> 2 & 1 != 0);
        let m_out = mask(p.ko >> 3 & 1 != 0);
        let od: *mut u64 = scratch.out_diff.as_mut_ptr();
        let mut any = _mm512_setzero_si512();
        for ch in 0..W / 8 {
            let o = ch * 8;
            let da = _mm512_loadu_si512(diff.add(a * W + o).cast());
            let db = _mm512_loadu_si512(diff.add(b * W + o).cast());
            let dc = _mm512_loadu_si512(diff.add(c * W + o).cast());
            let va = _mm512_xor_si512(_mm512_loadu_si512(goodp.add(a * W + o).cast()), da);
            let vb = _mm512_xor_si512(_mm512_loadu_si512(goodp.add(b * W + o).cast()), db);
            let vc = _mm512_xor_si512(_mm512_loadu_si512(goodp.add(c * W + o).cast()), dc);
            let ab = _mm512_and_si512(va, vb);
            let v = _mm512_or_si512(
                _mm512_or_si512(
                    _mm512_and_si512(ab, m_and),
                    _mm512_and_si512(_mm512_or_si512(va, vb), m_or),
                ),
                _mm512_or_si512(
                    _mm512_and_si512(_mm512_xor_si512(va, vb), m_xor),
                    // `_mm512_andnot_si512(va, vc)` = `!va & vc`.
                    _mm512_and_si512(_mm512_or_si512(ab, _mm512_andnot_si512(va, vc)), m_mux),
                ),
            );
            let v = _mm512_xor_si512(v, m_inv);
            let d = _mm512_xor_si512(v, _mm512_loadu_si512(goodp.add(out * W + o).cast()));
            _mm512_storeu_si512(diff.add(out * W + o).cast(), d);
            let acc = _mm512_loadu_si512(od.add(o).cast());
            _mm512_storeu_si512(od.add(o).cast(), _mm512_or_si512(acc, _mm512_and_si512(d, m_out)));
            any = _mm512_or_si512(any, d);
        }
        scratch.touched.push(out as u32);
        let gated = p.lr & u32::from(_mm512_test_epi64_mask(any, any) != 0).wrapping_neg();
        *last_needed = (*last_needed).max(gated);
    }
}

/// NEON kernel: two lane groups (128 bits) per vector op. `W` must be a
/// multiple of 2 ([`effective_kernel`] guarantees it).
///
/// # Safety
///
/// Caller must guarantee the [`fire_gate_scalar`] range contract,
/// `W % 2 == 0`, and that the CPU supports NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[inline]
unsafe fn fire_gate_neon<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut SimScratch<W>,
    last_needed: &mut u32,
) {
    use core::arch::aarch64::*;
    let [a, b, c] = p.pins;
    let (a, b, c) = (a as usize, b as usize, c as usize);
    let out = p.output() as usize;
    let diff: *mut u64 = scratch.diff.as_mut_ptr().cast();
    let goodp: *const u64 = good.as_ptr().cast();
    // SAFETY: as in the AVX2 kernel, rows are in range, buffers are
    // `num_nets × W` u64s, and `W % 2 == 0` keeps each chunk in-row.
    unsafe {
        let mut live = vdupq_n_u64(0);
        for ch in 0..W / 2 {
            let o = ch * 2;
            let da = vld1q_u64(diff.add(a * W + o));
            let db = vld1q_u64(diff.add(b * W + o));
            let dc = vld1q_u64(diff.add(c * W + o));
            live = vorrq_u64(live, vorrq_u64(da, vorrq_u64(db, dc)));
        }
        if vgetq_lane_u64(live, 0) | vgetq_lane_u64(live, 1) == 0 {
            return;
        }
        let base = p.ko & 3;
        let mask = |on: bool| vdupq_n_u64(u64::from(on).wrapping_neg());
        let m_and = mask(base == BASE_AND);
        let m_or = mask(base == BASE_OR);
        let m_xor = mask(base == BASE_XOR);
        let m_mux = mask(base == BASE_MUX);
        let m_inv = mask(p.ko >> 2 & 1 != 0);
        let m_out = mask(p.ko >> 3 & 1 != 0);
        let od: *mut u64 = scratch.out_diff.as_mut_ptr();
        let mut any = vdupq_n_u64(0);
        for ch in 0..W / 2 {
            let o = ch * 2;
            let da = vld1q_u64(diff.add(a * W + o));
            let db = vld1q_u64(diff.add(b * W + o));
            let dc = vld1q_u64(diff.add(c * W + o));
            let va = veorq_u64(vld1q_u64(goodp.add(a * W + o)), da);
            let vb = veorq_u64(vld1q_u64(goodp.add(b * W + o)), db);
            let vc = veorq_u64(vld1q_u64(goodp.add(c * W + o)), dc);
            let ab = vandq_u64(va, vb);
            let v = vorrq_u64(
                vorrq_u64(vandq_u64(ab, m_and), vandq_u64(vorrq_u64(va, vb), m_or)),
                vorrq_u64(
                    vandq_u64(veorq_u64(va, vb), m_xor),
                    // `vbicq_u64(vc, va)` = `vc & !va`.
                    vandq_u64(vorrq_u64(ab, vbicq_u64(vc, va)), m_mux),
                ),
            );
            let v = veorq_u64(v, m_inv);
            let d = veorq_u64(v, vld1q_u64(goodp.add(out * W + o)));
            vst1q_u64(diff.add(out * W + o), d);
            let acc = vld1q_u64(od.add(o));
            vst1q_u64(od.add(o), vorrq_u64(acc, vandq_u64(d, m_out)));
            any = vorrq_u64(any, d);
        }
        scratch.touched.push(out as u32);
        let live_out = vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1);
        let gated = p.lr & u32::from(live_out != 0).wrapping_neg();
        *last_needed = (*last_needed).max(gated);
    }
}

/// Generates the two walk bodies (materialized-cone walk and cone-bitset
/// row walk) for one fire kernel, optionally compiled under a
/// `#[target_feature]` so the `#[inline]` fire kernel fuses into a
/// vectorized loop.
///
/// The walks are where the levelized scheduling lives:
///
/// * the cone walk iterates the cone's precomputed **level runs** and
///   tests the frontier horizon once per run — gates within a run never
///   read each other's outputs, so firing a whole run unconditionally is
///   result-identical (gates past the horizon self-skip on their
///   all-zero difference inputs);
/// * the row walk tests the horizon once per 64-gate bitset word for
///   the same reason.
///
/// Both test the exit mask ([`SimScratch::exited`]) at the same
/// granularity, after each run or word, so every kernel stops at the
/// same gate.
macro_rules! wide_walks {
    ($cone_walk:ident, $row_walk:ident, $fire:ident $(, enable = $feat:literal)?) => {
        /// Materialized-cone walk (see [`wide_walks!`]).
        ///
        /// # Safety
        ///
        /// Caller must guarantee the corresponding fire kernel's contract:
        /// in-range packed records, `num_nets`-sized buffers, a `W`
        /// accepted by [`effective_kernel`] for this kernel, and (for SIMD
        /// kernels) runtime support for the enabled target feature.
        $(#[target_feature(enable = $feat)])?
        unsafe fn $cone_walk<const W: usize>(
            cone: &FaultCone,
            good: &[SimBlock<W>],
            exit: &SimBlock<W>,
            scratch: &mut SimScratch<W>,
            mut last_needed: u32,
        ) {
            for run in cone.runs.windows(2) {
                let (s, e) = (run[0] as usize, run[1] as usize);
                // SAFETY: `runs` indexes `packed` by construction
                // (`cone_into` derives both from the same gate list).
                let first = unsafe { cone.packed.get_unchecked(s) };
                if first.idx >= last_needed {
                    // Runs ascend by slot: no later run can start below
                    // the horizon either — the frontier has converged.
                    break;
                }
                // SAFETY: `s..e` is in range for `packed` (see above).
                for p in unsafe { cone.packed.get_unchecked(s..e) } {
                    // SAFETY: caller discharges the fire contract.
                    unsafe { $fire::<W>(p, good, scratch, &mut last_needed) };
                }
                if scratch.exited(exit) {
                    break;
                }
            }
        }

        /// Cone-bitset row walk (see [`wide_walks!`]).
        ///
        /// # Safety
        ///
        /// Same contract as the cone walk, plus: `row` must be a cone
        /// bitset row over `packed` (one bit per slot).
        $(#[target_feature(enable = $feat)])?
        unsafe fn $row_walk<const W: usize>(
            row: &[u64],
            packed: &[PackedGate],
            good: &[SimBlock<W>],
            exit: &SimBlock<W>,
            scratch: &mut SimScratch<W>,
            mut last_needed: u32,
        ) {
            for (wi, &wbits) in row.iter().enumerate() {
                if wbits == 0 {
                    continue;
                }
                if (wi * 64) as u32 >= last_needed {
                    // Every remaining slot is ≥ the frontier horizon.
                    break;
                }
                let mut w = wbits;
                while w != 0 {
                    let g = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    // SAFETY: `g` indexes a gate (one bit per slot in the
                    // row); the fire contract is the caller's.
                    unsafe {
                        let p = packed.get_unchecked(g);
                        $fire::<W>(p, good, scratch, &mut last_needed);
                    }
                }
                if scratch.exited(exit) {
                    break;
                }
            }
        }
    };
}

wide_walks!(cone_walk_scalar, row_walk_scalar, fire_gate_scalar);
#[cfg(target_arch = "x86_64")]
wide_walks!(cone_walk_avx2, row_walk_avx2, fire_gate_avx2, enable = "avx2");
#[cfg(target_arch = "x86_64")]
wide_walks!(cone_walk_avx512, row_walk_avx512, fire_gate_avx512, enable = "avx512f");
#[cfg(target_arch = "aarch64")]
wide_walks!(cone_walk_neon, row_walk_neon, fire_gate_neon, enable = "neon");

/// SIMD backend for the event walk, selected at runtime via CPU feature
/// detection ([`SimdKernel::detect`]) and overridable per engine
/// ([`FaultSim::set_kernel`]).
///
/// Every kernel computes the identical lane-wise boolean algebra, so
/// detection words and difference overlays are **byte-identical** across
/// kernels; differential tests pin each path to [`SimdKernel::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdKernel {
    /// Portable scalar reference kernel (any arch, any lane width).
    Scalar,
    /// AVX2, 4 lane groups per vector op (`x86_64`, `W % 4 == 0`).
    Avx2,
    /// AVX-512F, 8 lane groups per vector op (`x86_64`, `W % 8 == 0`).
    Avx512,
    /// NEON, 2 lane groups per vector op (`aarch64`, `W % 2 == 0`).
    Neon,
}

impl SimdKernel {
    /// The widest kernel the running CPU supports.
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") {
                return SimdKernel::Avx512;
            }
            if std::is_x86_feature_detected!("avx2") {
                return SimdKernel::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdKernel::Neon;
            }
        }
        SimdKernel::Scalar
    }

    /// Whether the running CPU can execute this kernel.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            SimdKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every kernel the running CPU supports ([`SimdKernel::Scalar`]
    /// first). Differential tests iterate this list.
    #[must_use]
    pub fn available() -> Vec<SimdKernel> {
        [SimdKernel::Scalar, SimdKernel::Avx2, SimdKernel::Avx512, SimdKernel::Neon]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// Stable lowercase name for bench rows and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdKernel::Scalar => "scalar",
            SimdKernel::Avx2 => "avx2",
            SimdKernel::Avx512 => "avx512",
            SimdKernel::Neon => "neon",
        }
    }
}

/// The kernel actually dispatched for lane width `W`: each SIMD kernel
/// requires `W` to be a multiple of its chunk width, otherwise the call
/// degrades to the next narrower kernel (AVX-512 → AVX2 when `W % 4 ==
/// 0`) and ultimately to scalar. Never *upgrades*, so an engine pinned
/// to [`SimdKernel::Scalar`] stays scalar.
fn effective_kernel<const W: usize>(kernel: SimdKernel) -> SimdKernel {
    match kernel {
        SimdKernel::Scalar => SimdKernel::Scalar,
        SimdKernel::Avx2 if W.is_multiple_of(4) => SimdKernel::Avx2,
        SimdKernel::Avx512 if W.is_multiple_of(8) => SimdKernel::Avx512,
        SimdKernel::Avx512 if W.is_multiple_of(4) => SimdKernel::Avx2,
        SimdKernel::Neon if W.is_multiple_of(2) => SimdKernel::Neon,
        _ => SimdKernel::Scalar,
    }
}

/// Per-net fanout-cone bitsets: row `n` holds one bit per gate slot, set
/// iff the gate is structurally reachable from net `n`.
#[derive(Debug, Clone)]
struct ConeBits {
    /// `u64` words per row.
    words: usize,
    /// `num_nets` rows, row-major.
    bits: Vec<u64>,
}

/// Shared read-only engine state: fanout adjacency over one netlist.
///
/// Construction is `O(nets + gates log gates)` (the level sort) plus
/// (for netlists small enough to fit the budget) an
/// `O(edges × gates/64)` cone-bitset closure. The engine **owns** its
/// tables — it copies the output list and sizes out of the netlist and
/// keeps no borrow — so it can live inside long-lived state (per-unit
/// scan engines, campaign shards) without a self-referential lifetime.
/// It is `Sync`, so one instance can serve many worker threads.
///
/// Internally, gates are addressed by **slot**: a stable permutation of
/// the netlist's topological gate order sorted by logic level. All
/// adjacency tables (`readers`, `last_reader`, cone bitsets, packed gate
/// records) speak slot indices. Slot order is itself topological, so
/// every walk over ascending slots is a valid evaluation order.
#[derive(Debug, Clone)]
pub struct FaultSim {
    num_nets: usize,
    num_gates: usize,
    /// Primary-output nets, in the netlist's output order.
    outputs: Vec<NetId>,
    /// CSR row offsets: reader slots of net `n` are
    /// `readers[reader_off[n] as usize .. reader_off[n + 1] as usize]`.
    reader_off: Vec<u32>,
    /// Gate slots, ascending within each net's row.
    readers: Vec<u32>,
    /// Per net: largest reader slot **plus one** (0 = no readers).
    /// The event walk may stop at slot `s` once `s >= last_reader[n]`
    /// for every currently-differing net `n`.
    last_reader: Vec<u32>,
    /// Whether each net is a primary output (observed by detection).
    is_output: Vec<bool>,
    /// Per net: the slot of its one reader pin when it has exactly one
    /// and is not a primary output — the net then lies inside a
    /// fanout-free region — otherwise [`NO_READER`]: the net is the
    /// stem of its region.
    single_reader: Vec<u32>,
    /// Flattened 16-byte copy of each gate in slot order, so the hot
    /// walk reads one contiguous stream instead of chasing each
    /// [`Gate::inputs`] heap allocation.
    packed: Vec<PackedGate>,
    /// Per slot: the end slot (exclusive) of its level bucket. Slots of
    /// equal logic level form contiguous runs; gates within a run never
    /// read each other's outputs, which lets walks fire whole runs
    /// without per-gate frontier tests.
    bucket_end: Vec<u32>,
    /// Precomputed transitive fanout, when it fits [`CONE_BITS_BUDGET`].
    cone_bits: Option<ConeBits>,
    /// The walks' SIMD backend ([`SimdKernel::detect`] at construction).
    kernel: SimdKernel,
}

impl FaultSim {
    /// Builds the fanout adjacency for `netlist`. The engine copies what
    /// it needs and does not borrow `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let num_nets = netlist.num_nets();
        let gates = netlist.gates();
        let num_gates = gates.len();

        // Logic levels come from the IR level-analysis pass (primary
        // inputs and constants sit at level 0); the level-major slot
        // permutation and event-walk buckets below are derived from it.
        let net_level = crate::ir::analyze_levels(netlist).into_net_levels();
        // Level-major slot order: stable sort keeps the topological tie
        // break, so ascending slot order is still topological and every
        // level occupies one contiguous slot run.
        let mut slot_order: Vec<u32> =
            (0..u32::try_from(num_gates).expect("gate count exceeds u32")).collect();
        slot_order.sort_by_key(|&g| net_level[gates[g as usize].output.index()]);
        let slot_level: Vec<u32> =
            slot_order.iter().map(|&g| net_level[gates[g as usize].output.index()]).collect();
        let mut bucket_end = vec![0u32; num_gates];
        let mut end = num_gates as u32;
        for slot in (0..num_gates).rev() {
            bucket_end[slot] = end;
            if slot > 0 && slot_level[slot - 1] != slot_level[slot] {
                end = slot as u32;
            }
        }

        // Counting sort into CSR form keeps each row ascending because
        // gates are visited in slot order.
        let mut counts = vec![0u32; num_nets + 1];
        for gate in gates {
            for input in &gate.inputs {
                counts[input.index() + 1] += 1;
            }
        }
        let mut reader_off = counts;
        for i in 0..num_nets {
            reader_off[i + 1] += reader_off[i];
        }
        let mut cursor: Vec<u32> = reader_off[..num_nets].to_vec();
        let mut readers = vec![0u32; reader_off[num_nets] as usize];
        let mut last_reader = vec![0u32; num_nets];
        for (slot, &g) in slot_order.iter().enumerate() {
            let slot = slot as u32;
            for input in &gates[g as usize].inputs {
                let n = input.index();
                readers[cursor[n] as usize] = slot;
                cursor[n] += 1;
                last_reader[n] = slot + 1; // ascending visit ⇒ final value is max
            }
        }

        let mut is_output = vec![false; num_nets];
        for o in netlist.outputs() {
            is_output[o.index()] = true;
        }
        // Fanout counts reader *pins*, so a gate that reads a net twice
        // makes that net a stem.
        let single_reader: Vec<u32> = (0..num_nets)
            .map(|n| {
                let (lo, hi) = (reader_off[n] as usize, reader_off[n + 1] as usize);
                if hi - lo == 1 && !is_output[n] {
                    readers[lo]
                } else {
                    NO_READER
                }
            })
            .collect();

        let packed: Vec<PackedGate> = slot_order
            .iter()
            .enumerate()
            .map(|(slot, &g)| {
                let gate = &gates[g as usize];
                let out = gate.output.index();
                PackedGate::new(gate, is_output[out], slot as u32, last_reader[out])
            })
            .collect();
        // Soundness gate for the walks' unchecked loads: every pin and
        // output index is in range for a `num_nets`-sized vector.
        for p in &packed {
            assert!(
                p.pins.iter().all(|&n| (n as usize) < num_nets) && (p.output() as usize) < num_nets,
                "packed gate references an out-of-range net"
            );
        }

        let words = num_gates.div_ceil(64);
        let cone_bits = if num_nets * words * 8 <= CONE_BITS_BUDGET {
            // Transitive closure by descending net index: every reader's
            // output net is numbered above the net it reads, so row
            // `out(g)` is final before any row that includes gate `g`.
            let mut bits = vec![0u64; num_nets * words];
            for n in (0..num_nets).rev() {
                let (head, tail) = bits.split_at_mut((n + 1) * words);
                let row = &mut head[n * words..];
                for &g in &readers[reader_off[n] as usize..reader_off[n + 1] as usize] {
                    row[g as usize / 64] |= 1u64 << (g % 64);
                    let out = packed[g as usize].output() as usize;
                    debug_assert!(out > n, "reader output must be numbered above its input");
                    let src = &tail[(out - n - 1) * words..(out - n) * words];
                    for (d, s) in row.iter_mut().zip(src) {
                        *d |= s;
                    }
                }
            }
            Some(ConeBits { words, bits })
        } else {
            None
        };

        FaultSim {
            num_nets,
            num_gates,
            outputs: netlist.outputs().to_vec(),
            reader_off,
            readers,
            last_reader,
            is_output,
            single_reader,
            packed,
            bucket_end,
            cone_bits,
            kernel: SimdKernel::detect(),
        }
    }

    /// Number of nets in the netlist this engine was built over.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of gates in the netlist this engine was built over.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Primary-output nets, in the netlist's output order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The SIMD backend walks currently dispatch to.
    #[must_use]
    pub fn kernel(&self) -> SimdKernel {
        self.kernel
    }

    /// Pins the walks' backend to `kernel`. Returns `false` (leaving
    /// the engine unchanged) if the running CPU does not support it.
    /// Lane widths a kernel cannot divide still degrade per call — see
    /// [`SimdKernel`].
    pub fn set_kernel(&mut self, kernel: SimdKernel) -> bool {
        if kernel.is_available() {
            self.kernel = kernel;
            true
        } else {
            false
        }
    }

    /// Gate slots reading `net`, ascending.
    #[must_use]
    pub fn readers_of(&self, net: NetId) -> &[u32] {
        let n = net.index();
        &self.readers[self.reader_off[n] as usize..self.reader_off[n + 1] as usize]
    }

    /// Rebuilds `cone` as the fanout cone of `net`: every gate whose value
    /// can be disturbed by a stuck-at fault on `net`, in ascending
    /// (levelized) slot order, pre-split into level runs. Buffers inside
    /// `cone` are reused across calls, so deriving one cone per walk is
    /// cheap.
    fn cone_into(&self, net: NetId, cone: &mut FaultCone) {
        cone.begin();
        if let Some(cb) = &self.cone_bits {
            // Precomputed closure: emit set bits, ascending by construction.
            let row = &cb.bits[net.index() * cb.words..(net.index() + 1) * cb.words];
            for (w, &word) in row.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros();
                    cone.gates.push(w as u32 * 64 + b);
                    word &= word - 1;
                }
            }
        } else {
            // Worklist walk with stamp dedup. Reachability is
            // order-independent, so a plain vec queue suffices; one sort
            // restores the levelized (ascending) order.
            cone.begin_marks(self.num_gates);
            for &g in self.readers_of(net) {
                if cone.mark(g) {
                    cone.gates.push(g);
                }
            }
            let mut i = 0;
            while i < cone.gates.len() {
                let out = NetId(self.packed[cone.gates[i] as usize].output());
                i += 1;
                for &r in self.readers_of(out) {
                    if cone.mark(r) {
                        cone.gates.push(r);
                    }
                }
            }
            cone.gates.sort_unstable();
        }
        debug_assert!(cone.gates.windows(2).all(|w| w[0] < w[1]));
        cone.packed.extend(cone.gates.iter().map(|&g| self.packed[g as usize]));
        // Split the (slot-ascending) cone into level runs: a new run
        // starts whenever a slot crosses the previous slot's bucket end.
        let mut cur_end = 0u32;
        for (i, &g) in cone.gates.iter().enumerate() {
            if g >= cur_end {
                cone.runs.push(i as u32);
                cur_end = self.bucket_end[g as usize];
            }
        }
        cone.runs.push(cone.gates.len() as u32);
    }

    /// The stem of `net`'s fanout-free region: the first net on its
    /// single-reader chain that fans out, is a primary output or has no
    /// reader. A difference on any net of the region reaches the
    /// outputs only through the stem.
    #[must_use]
    pub fn stem(&self, net: NetId) -> NetId {
        let mut n = net.0;
        while let Some(p) = self.single_reader_gate(n) {
            n = p.output();
        }
        NetId(n)
    }

    /// The one gate reading `net`, unless `net` is its region's stem.
    fn single_reader_gate(&self, net: u32) -> Option<PackedGate> {
        let slot = self.single_reader[net as usize];
        (slot != NO_READER).then(|| self.packed[slot as usize])
    }

    /// ANDs into `mask`, lane by lane, the Boolean difference of each
    /// gate on the path from `net` to its [`stem`](FaultSim::stem) (side
    /// inputs at their values in `good`), and returns the stem. `W = 1`
    /// serves one 64-lane block (`good.as_chunks::<1>().0`).
    ///
    /// Every net on the path has one reader, the next path gate, and is
    /// not an output, so a flip of `net` on some lanes changes nothing
    /// off the path and flips the stem exactly where every path gate
    /// passes it. A stuck-at-`v` fault on `net` is such a flip on its
    /// excitation lanes (`good ≠ v`): seeded with those, `mask` ends as
    /// the lanes on which the fault flips the stem. The fault's detect
    /// word is then `mask` ANDed with the detect word of a
    /// [`seeded_walk`](FaultSim::seeded_walk) from the stem over any
    /// superset of `mask`: lanes never interact, so one walk serves every
    /// fault of the region.
    pub fn sensitize<const W: usize>(
        &self,
        good: &[SimBlock<W>],
        net: NetId,
        mask: &mut SimBlock<W>,
    ) -> NetId {
        let mut n = net.0;
        while let Some(p) = self.single_reader_gate(n) {
            for (l, m) in mask.iter_mut().enumerate() {
                *m &= p.difference(n, |k| good[k as usize][l]);
            }
            n = p.output();
        }
        NetId(n)
    }

    /// Seeded-difference walk over `W` 64-lane pattern blocks: flips
    /// `net` on the lanes of `diff` against the blocks' good values (see
    /// [`pack_blocks`]; one block is `good.as_chunks::<1>().0`) and
    /// propagates the difference toward the outputs, dispatched to the
    /// engine's [`SimdKernel`]. Afterwards [`SimScratch::value`] holds
    /// every net's faulty value and [`SimScratch::detect_words`] the lanes
    /// on which the flip reached a primary output. Seeded with a stuck-at
    /// fault's excitation lanes (forced value XOR good value), the walk is
    /// bit-identical to [`Netlist::eval_all_stuck`] on every net, and lane
    /// group `g` to the `W = 1` walk of block `g` alone, whatever the
    /// kernel. The groups share one frontier, so the cost of a walk is
    /// bounded by its widest group, not their sum.
    ///
    /// With cone bitsets built the walk scans `net`'s bitset row; without
    /// them it derives `net`'s cone into the scratch and walks its level
    /// runs.
    ///
    /// The walk stops early once every lane of `exit` has reached an
    /// output, tested after each 64-slot bitset word or level run;
    /// `exit = [0; W]` never stops it. This is the excitation freeze: a
    /// fault classified from this walk has a detect word that is a subset
    /// of its own seeded lanes, so once its lowest seeded lane detects,
    /// later gates only OR higher lanes in, and its verdict and first
    /// detecting lane (`trailing_zeros`) are pinned. Callers pass the
    /// lowest seeded lane of every fault they classify. After such a stop
    /// the detect words are exact in those two facts, and
    /// [`SimScratch::value`] only for nets written before the stop.
    pub fn seeded_walk<const W: usize>(
        &self,
        good: &[SimBlock<W>],
        net: NetId,
        diff: SimBlock<W>,
        exit: SimBlock<W>,
        scratch: &mut SimScratch<W>,
    ) {
        assert_eq!(good.len(), self.num_nets, "good vector length");
        scratch.begin(self.num_nets);
        if diff == [0; W] {
            return;
        }
        scratch.set_diff(net, diff);
        let m_out = u64::from(self.is_output[net.index()]).wrapping_neg();
        for (o, d) in scratch.out_diff.iter_mut().zip(diff) {
            *o |= d & m_out;
        }
        if scratch.exited(&exit) {
            return;
        }
        let last_needed = self.last_reader[net.index()];
        let kernel = effective_kernel::<W>(self.kernel);
        // SAFETY (all arms below): pins and outputs were range-checked
        // against `num_nets` in `FaultSim::new`; `good` and
        // `scratch.diff` are both `num_nets` long (asserted/sized
        // above); `effective_kernel` only returns kernels whose chunk
        // width divides `W`, and SIMD kernels only when `self.kernel`
        // passed runtime CPU detection; `row` is this engine's own cone
        // bitset row (one bit per slot of `packed`).
        if let Some(cb) = &self.cone_bits {
            let row = &cb.bits[net.index() * cb.words..][..cb.words];
            let packed = &self.packed;
            match kernel {
                #[cfg(target_arch = "x86_64")]
                SimdKernel::Avx2 => unsafe {
                    row_walk_avx2::<W>(row, packed, good, &exit, scratch, last_needed)
                },
                #[cfg(target_arch = "x86_64")]
                SimdKernel::Avx512 => unsafe {
                    row_walk_avx512::<W>(row, packed, good, &exit, scratch, last_needed)
                },
                #[cfg(target_arch = "aarch64")]
                SimdKernel::Neon => unsafe {
                    row_walk_neon::<W>(row, packed, good, &exit, scratch, last_needed)
                },
                _ => unsafe {
                    row_walk_scalar::<W>(row, packed, good, &exit, scratch, last_needed)
                },
            }
            return;
        }
        let mut cone = std::mem::take(&mut scratch.cone);
        self.cone_into(net, &mut cone);
        match kernel {
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx2 => unsafe {
                cone_walk_avx2::<W>(&cone, good, &exit, scratch, last_needed)
            },
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 => unsafe {
                cone_walk_avx512::<W>(&cone, good, &exit, scratch, last_needed)
            },
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => unsafe {
                cone_walk_neon::<W>(&cone, good, &exit, scratch, last_needed)
            },
            _ => unsafe { cone_walk_scalar::<W>(&cone, good, &exit, scratch, last_needed) },
        }
        scratch.cone = cone;
    }
}

/// Fanout-cone gate list of one walked net (see [`FaultSim::cone_into`]).
///
/// Holds reusable mark buffers so cones for successive walks can be
/// derived without reallocating.
#[derive(Debug, Default, Clone)]
struct FaultCone {
    /// Affected gate slots, ascending (= levelized order).
    gates: Vec<u32>,
    /// Flattened gate records parallel to `gates`, so the event walk
    /// streams one contiguous buffer instead of gathering from the full
    /// gate table (whose access pattern defeats the prefetcher).
    packed: Vec<PackedGate>,
    /// Level-run boundaries into `packed`: run `r` is
    /// `packed[runs[r]..runs[r + 1]]`, one run per logic level present
    /// in the cone. Walks test the frontier horizon once per run.
    runs: Vec<u32>,
    /// Epoch stamps per gate; a gate is in the current cone iff its stamp
    /// equals `epoch`. Only the fallback walk uses these.
    stamp: Vec<u32>,
    epoch: u32,
}

impl FaultCone {
    fn begin(&mut self) {
        self.gates.clear();
        self.packed.clear();
        self.runs.clear();
    }

    /// Lazily sizes the dedup stamps (fallback walk only).
    fn begin_marks(&mut self, num_gates: usize) {
        if self.stamp.len() < num_gates {
            self.stamp.resize(num_gates, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `gate`; returns `false` if it was already marked this epoch.
    fn mark(&mut self, gate: u32) -> bool {
        let slot = &mut self.stamp[gate as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// `W × 64`-lane XOR-difference overlay of a [`FaultSim::seeded_walk`]:
/// `W` independent 64-lane pattern blocks ("lane groups") simulated in
/// one event walk. `diff[n][g]` holds `faulty ^ good` for net `n` on
/// block `g` — zero everywhere the flip has no effect — so an overlay
/// read is a single extra XOR. `begin` re-zeroes only the entries the previous walk wrote (via
/// `touched`), keeping every walk allocation-free and `O(walked gates)`.
#[derive(Debug, Clone)]
pub struct SimScratch<const W: usize> {
    diff: Vec<SimBlock<W>>,
    /// Nets written by the walk, in the order it reached them.
    touched: Vec<u32>,
    /// OR of `faulty ^ good` over primary-output nets, per lane group.
    out_diff: SimBlock<W>,
    /// The walked net's cone, derived per walk when the engine has no
    /// cone bitsets.
    cone: FaultCone,
}

impl<const W: usize> SimScratch<W> {
    /// Creates an empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        SimScratch {
            diff: Vec::new(),
            touched: Vec::new(),
            out_diff: [0; W],
            cone: FaultCone::default(),
        }
    }

    fn begin(&mut self, num_nets: usize) {
        for &n in &self.touched {
            self.diff[n as usize] = [0; W];
        }
        self.touched.clear();
        self.out_diff = [0; W];
        if self.diff.len() < num_nets {
            self.diff.resize(num_nets, [0; W]);
        }
    }

    fn set_diff(&mut self, net: NetId, diff: SimBlock<W>) {
        self.diff[net.index()] = diff;
        self.touched.push(net.0);
    }

    /// Whether a walk under exit mask `exit` may stop: `exit` is nonzero
    /// and every one of its lanes has reached a primary output.
    #[inline(always)]
    fn exited(&self, exit: &SimBlock<W>) -> bool {
        let (mut any, mut missed) = (0, 0);
        for (e, o) in exit.iter().zip(&self.out_diff) {
            any |= e;
            missed |= e & !o;
        }
        any != 0 && missed == 0
    }

    /// Per-lane-group detection words after an evaluation: entry `g`,
    /// bit `i` set iff pattern lane `i` of block `g` exposes the fault
    /// at any primary output. `O(1)` — accumulated during the walk.
    #[must_use]
    pub fn detect_words(&self) -> SimBlock<W> {
        self.out_diff
    }

    /// The faulty values of `net` (one word per lane group) after an
    /// evaluation: the good values XORed with the recorded differences.
    #[must_use]
    pub fn value(&self, good: &[SimBlock<W>], net: NetId) -> SimBlock<W> {
        let g = good[net.index()];
        let d = self.diff[net.index()];
        let mut v = [0u64; W];
        for l in 0..W {
            v[l] = g[l] ^ d[l];
        }
        v
    }
}

impl<const W: usize> Default for SimScratch<W> {
    fn default() -> Self {
        Self::new()
    }
}

/// Packs up to `W` 64-lane good-value vectors (one per pattern block,
/// each `num_nets` long as produced by `Netlist::eval_all`) into the
/// lane-group layout consumed by [`FaultSim::seeded_walk`]. When
/// fewer than `W` blocks are supplied, the trailing lane groups repeat
/// the last block so padded lanes behave like real patterns; callers
/// must ignore their detection words.
///
/// # Panics
///
/// Panics on an empty slice, more than `W` blocks, or blocks of unequal
/// length.
#[must_use]
pub fn pack_blocks<const W: usize>(blocks: &[&[u64]]) -> Vec<SimBlock<W>> {
    assert!((1..=W).contains(&blocks.len()), "pack_blocks takes 1..=W blocks");
    let nets = blocks[0].len();
    assert!(blocks.iter().all(|b| b.len() == nets), "block lengths must agree");
    let last = blocks.len() - 1;
    (0..nets)
        .map(|n| {
            let mut group = [0u64; W];
            for (g, slot) in group.iter_mut().enumerate() {
                *slot = blocks[g.min(last)][n];
            }
            group
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_inputs(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    /// The lanes on which stuck-at fault `(net, stuck)` flips `net`.
    fn excitation<const W: usize>(
        good: &[SimBlock<W>],
        (net, stuck): (NetId, bool),
    ) -> SimBlock<W> {
        good[net.index()].map(|g| if stuck { !g } else { g })
    }

    /// The lowest lane of each lane group of `mask`.
    fn lowest<const W: usize>(mask: SimBlock<W>) -> SimBlock<W> {
        mask.map(|m| m & m.wrapping_neg())
    }

    /// The oracle's detect word of `fault` on one pattern block.
    fn oracle_word(nl: &Netlist, inputs: &[u64], fault: (NetId, bool)) -> u64 {
        let good = nl.eval_all(inputs);
        let faulty = nl.eval_all_stuck(inputs, fault);
        nl.outputs().iter().fold(0, |d, o| d | (good[o.index()] ^ faulty[o.index()]))
    }

    /// Checks every stuck-at fault on every net of `nl` against the
    /// full-re-evaluation oracle, over several pattern blocks — once with
    /// the precomputed cone bitsets and once with the worklist fallback.
    fn assert_matches_oracle(nl: &Netlist) {
        let mut sim = FaultSim::new(nl);
        assert!(sim.cone_bits.is_some(), "test netlists fit the cone-bitset budget");
        assert_matches_oracle_with(nl, &sim);
        sim.cone_bits = None;
        assert_matches_oracle_with(nl, &sim);
    }

    fn assert_matches_oracle_with(nl: &Netlist, sim: &FaultSim) {
        let mut scratch = SimScratch::<1>::new();
        let mut det = SimScratch::<1>::new();
        for block in 0..4u64 {
            let inputs = random_inputs(nl.num_inputs(), 0xBEEF ^ block);
            let good = nl.eval_all(&inputs);
            let good = good.as_chunks::<1>().0;
            for net in 0..nl.num_nets() as u32 {
                let net = NetId(net);
                for stuck in [false, true] {
                    let oracle = nl.eval_all_stuck(&inputs, (net, stuck));
                    let excite = excitation(good, (net, stuck));
                    sim.seeded_walk(good, net, excite, [0], &mut scratch);
                    for n in 0..nl.num_nets() as u32 {
                        assert_eq!(
                            scratch.value(good, NetId(n)),
                            [oracle[n as usize]],
                            "net n{n} mismatch for fault ({net}, sa{})",
                            u8::from(stuck)
                        );
                    }
                    let [word] = scratch.detect_words();
                    assert_eq!(word, oracle_word(nl, &inputs, (net, stuck)));
                    // Exit walks from the site and, narrowed by the
                    // region's path differences, from its stem must agree
                    // on detection and the first detecting lane (they may
                    // stop once the lowest seeded lane fires).
                    let mut mask = excite;
                    let stem = sim.sensitize(good, net, &mut mask);
                    assert_eq!(stem, sim.stem(net));
                    for (seed, diff) in [(net, excite), (stem, mask)] {
                        sim.seeded_walk(good, seed, diff, lowest(diff), &mut det);
                        let exited = det.detect_words()[0] & diff[0];
                        assert_eq!(
                            exited != 0,
                            word != 0,
                            "walk from {seed} disagrees for fault ({net}, sa{})",
                            u8::from(stuck)
                        );
                        if word != 0 {
                            assert_eq!(exited.trailing_zeros(), word.trailing_zeros());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_adder() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(6);
        let bb = b.inputs(6);
        let zero = b.constant(false);
        let (sum, carry) = b.ripple_adder(&a, &bb, zero);
        b.outputs(&sum);
        b.output(carry);
        assert_matches_oracle(&b.finish());
    }

    #[test]
    fn matches_oracle_on_mixed_logic() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(8);
        let x = b.xor_tree(&i);
        let y = b.and_tree(&i[..4]);
        let z = b.mux2(i[0], x, y);
        let dead = b.and2(i[6], i[7]); // unobserved cone
        let _ = dead;
        b.output(z);
        b.output(y);
        assert_matches_oracle(&b.finish());
    }

    #[test]
    fn cone_is_ascending_and_complete() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(4);
        let x = b.xor2(i[0], i[1]);
        let y = b.and2(x, i[2]);
        let z = b.or2(y, i[3]);
        b.output(z);
        let nl = b.finish();
        let sim = FaultSim::new(&nl);
        let cone_len = |net| {
            let mut cone = FaultCone::default();
            sim.cone_into(net, &mut cone);
            cone.gates.len()
        };
        // Fault on input 0 disturbs all three gates.
        assert_eq!(cone_len(i[0]), 3);
        // Fault on the output net disturbs nothing downstream.
        assert_eq!(cone_len(z), 0);
        // Fault on input 3 only disturbs the final OR.
        assert_eq!(cone_len(i[3]), 1);
    }

    #[test]
    fn stems_end_fanout_free_regions() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(3);
        let x = b.and2(i[0], i[1]); // read once: inside z's region
        let y = b.not(x);
        let z = b.xor2(y, i[2]); // primary output
        let w = b.and2(i[2], i[2]); // reads i2 twice more
        b.output(z);
        b.output(w);
        let nl = b.finish();
        let sim = FaultSim::new(&nl);
        assert_eq!(sim.stem(i[0]), z);
        assert_eq!(sim.stem(x), z);
        assert_eq!(sim.stem(y), z);
        assert_eq!(sim.stem(z), z, "a primary output ends its region");
        assert_eq!(sim.stem(i[2]), i[2], "three reader pins make a stem");
        assert_eq!(sim.stem(w), w);
        // The path differences of i0 → x → y → z: the AND passes i0
        // where i1 = 1, the inverter and the XOR always.
        let good = nl.eval_all(&[0b0101, 0b0011, 0b1111]);
        let mut mask = [!0u64];
        assert_eq!(sim.sensitize(good.as_chunks::<1>().0, i[0], &mut mask), z);
        assert_eq!(mask[0], 0b0011);
    }

    #[test]
    fn level_buckets_partition_slots() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(5);
        let bb = b.inputs(5);
        let zero = b.constant(false);
        let (sum, carry) = b.ripple_adder(&a, &bb, zero);
        b.outputs(&sum);
        b.output(carry);
        let nl = b.finish();
        let sim = FaultSim::new(&nl);
        // Bucket ends are non-decreasing, strictly above their slot, and
        // every slot inside a bucket shares the same end.
        for slot in 0..sim.num_gates {
            let end = sim.bucket_end[slot] as usize;
            assert!(end > slot && end <= sim.num_gates);
            for s in slot..end {
                assert_eq!(sim.bucket_end[s] as usize, end, "slot {s} in bucket of {slot}");
            }
        }
        // Slot order is topological: every reader of a gate's output
        // sits in a strictly later slot, and in a strictly later bucket.
        for p in &sim.packed {
            for &r in sim.readers_of(NetId(p.output())) {
                assert!(r > p.idx, "reader slot precedes driver");
                assert!(r >= sim.bucket_end[p.idx as usize], "reader in driver's bucket");
            }
        }
        // Cone runs cover the cone exactly, in order.
        let mut cone = FaultCone::default();
        for net in 0..nl.num_nets() as u32 {
            sim.cone_into(NetId(net), &mut cone);
            assert_eq!(cone.runs[0], 0);
            assert_eq!(*cone.runs.last().unwrap() as usize, cone.gates.len());
            for run in cone.runs.windows(2) {
                assert!(run[0] < run[1] || cone.gates.is_empty());
                let end = sim.bucket_end[cone.gates[run[0] as usize] as usize];
                for &g in &cone.gates[run[0] as usize..run[1] as usize] {
                    assert!(g < end, "cone run crosses a bucket boundary");
                }
            }
        }
    }

    #[test]
    fn forced_value_equal_to_good_touches_nothing() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let x = b.and2(i[0], i[1]);
        b.output(x);
        let nl = b.finish();
        let sim = FaultSim::new(&nl);
        let mut scratch = SimScratch::<1>::new();
        // Input 0 all-ones; stuck-at-1 on it changes nothing.
        let good = nl.eval_all(&[!0, 0]);
        let good = good.as_chunks::<1>().0;
        sim.seeded_walk(good, i[0], excitation(good, (i[0], true)), [0], &mut scratch);
        assert!(scratch.touched.is_empty());
        assert_eq!(scratch.detect_words(), [0]);
    }

    /// Every fault, over `W` pattern blocks, with cone bitsets and
    /// without: one walk seeded with the fault's excitation lanes must be
    /// bit-identical, lane group by lane group, to the `W = 1` walk of
    /// each block — values on every net and detection words, which match
    /// the oracle — for the given kernel. So must the fault's stem-shared
    /// detect words: its lanes narrowed to the stem, ANDed with one walk
    /// from the stem seeded with both polarities' lanes. Walks from the
    /// site and from the stem that exit once the lowest lane of each
    /// group's mask is observed keep each group's verdict and first
    /// detecting lane, and stop with the scalar kernel's words.
    fn assert_wide_matches_narrow<const W: usize>(nl: &Netlist, kernel: SimdKernel) {
        let mut sim = FaultSim::new(nl);
        assert!(sim.cone_bits.is_some(), "test netlists fit the cone-bitset budget");
        let mut scalar = sim.clone();
        assert!(sim.set_kernel(kernel));
        assert!(scalar.set_kernel(SimdKernel::Scalar));
        for pass in 0..2 {
            if pass == 1 {
                sim.cone_bits = None;
                scalar.cone_bits = None;
            }
            let mut narrow = SimScratch::<1>::new();
            let mut wide = SimScratch::<W>::new();
            let mut shared = SimScratch::<W>::new();
            let mut reference = SimScratch::<W>::new();
            let blocks: Vec<Vec<u64>> =
                (0..W as u64).map(|b| random_inputs(nl.num_inputs(), 0xD1CE ^ b)).collect();
            let goods: Vec<Vec<u64>> = blocks.iter().map(|b| nl.eval_all(b)).collect();
            let packed = pack_blocks::<W>(&goods.iter().map(Vec::as_slice).collect::<Vec<_>>());
            for net in 0..nl.num_nets() as u32 {
                let net = NetId(net);
                let mut path = [!0u64; W];
                let stem = sim.sensitize(&packed, net, &mut path);
                sim.seeded_walk(&packed, stem, path, [0; W], &mut shared);
                for stuck in [false, true] {
                    let excite = excitation(&packed, (net, stuck));
                    sim.seeded_walk(&packed, net, excite, [0; W], &mut wide);
                    let words = wide.detect_words();
                    for (g, good) in goods.iter().enumerate() {
                        let good = good.as_chunks::<1>().0;
                        sim.seeded_walk(good, net, [excite[g]], [0], &mut narrow);
                        for n in 0..nl.num_nets() as u32 {
                            assert_eq!(
                                wide.value(&packed, NetId(n))[g],
                                narrow.value(good, NetId(n))[0],
                                "net n{n} lane group {g} for fault ({net}, sa{}) on {}",
                                u8::from(stuck),
                                kernel.name()
                            );
                        }
                        let [word] = narrow.detect_words();
                        assert_eq!(
                            words[g],
                            word,
                            "detect word, lane group {g}, {}",
                            kernel.name()
                        );
                        assert_eq!(word, oracle_word(nl, &blocks[g], (net, stuck)));
                        assert_eq!(
                            excite[g] & path[g] & shared.detect_words()[g],
                            word,
                            "stem-shared detect word, lane group {g}, {}",
                            kernel.name()
                        );
                    }
                    let mut mask = excite;
                    sim.sensitize(&packed, net, &mut mask);
                    for (seed, diff) in [(net, excite), (stem, mask)] {
                        sim.seeded_walk(&packed, seed, diff, lowest(diff), &mut wide);
                        scalar.seeded_walk(&packed, seed, diff, lowest(diff), &mut reference);
                        assert_eq!(
                            wide.detect_words(),
                            reference.detect_words(),
                            "exit walk from {seed}, fault ({net}, sa{}), {}",
                            u8::from(stuck),
                            kernel.name()
                        );
                        for (g, word) in words.iter().enumerate() {
                            let exited = wide.detect_words()[g] & diff[g];
                            assert_eq!(
                                (exited != 0, exited.trailing_zeros()),
                                (*word != 0, word.trailing_zeros()),
                                "exit walk from {seed}, lane group {g}, fault ({net}, sa{}), {}",
                                u8::from(stuck),
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_walk_matches_narrow_on_adder() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(6);
        let bb = b.inputs(6);
        let zero = b.constant(false);
        let (sum, carry) = b.ripple_adder(&a, &bb, zero);
        b.outputs(&sum);
        b.output(carry);
        let nl = b.finish();
        for kernel in SimdKernel::available() {
            assert_wide_matches_narrow::<1>(&nl, kernel);
            assert_wide_matches_narrow::<4>(&nl, kernel);
            assert_wide_matches_narrow::<8>(&nl, kernel);
        }
    }

    #[test]
    fn wide_walk_matches_narrow_on_mixed_logic() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(8);
        let x = b.xor_tree(&i);
        let y = b.and_tree(&i[..4]);
        let z = b.mux2(i[0], x, y);
        let dead = b.and2(i[6], i[7]);
        let _ = dead;
        b.output(z);
        b.output(y);
        let nl = b.finish();
        for kernel in SimdKernel::available() {
            assert_wide_matches_narrow::<1>(&nl, kernel);
            assert_wide_matches_narrow::<2>(&nl, kernel);
            assert_wide_matches_narrow::<4>(&nl, kernel);
            assert_wide_matches_narrow::<8>(&nl, kernel);
            assert_wide_matches_narrow::<16>(&nl, kernel);
        }
    }

    /// The exit stops a walk, not only its verdicts: on a ripple adder
    /// spanning several bitset words, some walk from an input that
    /// reaches a low sum bit at once must write fewer nets with the exit
    /// than without, on both walk paths and at both widths.
    #[test]
    fn exit_stops_the_walk_early() {
        fn shortened<const W: usize>(sim: &FaultSim, nl: &Netlist) -> bool {
            let goods: Vec<Vec<u64>> =
                (0..W as u64).map(|b| nl.eval_all(&random_inputs(nl.num_inputs(), b))).collect();
            let packed = pack_blocks::<W>(&goods.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let (mut full, mut cut) = (SimScratch::<W>::new(), SimScratch::<W>::new());
            (0..nl.num_inputs() as u32).map(NetId).any(|net| {
                sim.seeded_walk(&packed, net, [!0; W], [0; W], &mut full);
                sim.seeded_walk(&packed, net, [!0; W], [1; W], &mut cut);
                cut.touched.len() < full.touched.len()
            })
        }
        let mut b = NetlistBuilder::new();
        let a = b.inputs(32);
        let bb = b.inputs(32);
        let zero = b.constant(false);
        let (sum, carry) = b.ripple_adder(&a, &bb, zero);
        b.outputs(&sum);
        b.output(carry);
        let nl = b.finish();
        for kernel in SimdKernel::available() {
            let mut sim = FaultSim::new(&nl);
            assert!(sim.num_gates > 128, "the adder spans several bitset words");
            assert!(sim.set_kernel(kernel));
            for bits in [true, false] {
                if !bits {
                    sim.cone_bits = None;
                }
                assert!(shortened::<1>(&sim, &nl), "W = 1, bitsets {bits}, {}", kernel.name());
                assert!(shortened::<8>(&sim, &nl), "W = 8, bitsets {bits}, {}", kernel.name());
            }
        }
    }

    #[test]
    fn kernel_dispatch_degrades_to_available_chunk_widths() {
        assert_eq!(effective_kernel::<4>(SimdKernel::Scalar), SimdKernel::Scalar);
        assert_eq!(effective_kernel::<8>(SimdKernel::Avx512), SimdKernel::Avx512);
        assert_eq!(effective_kernel::<4>(SimdKernel::Avx512), SimdKernel::Avx2);
        assert_eq!(effective_kernel::<2>(SimdKernel::Avx512), SimdKernel::Scalar);
        assert_eq!(effective_kernel::<4>(SimdKernel::Avx2), SimdKernel::Avx2);
        assert_eq!(effective_kernel::<6>(SimdKernel::Avx2), SimdKernel::Scalar);
        assert_eq!(effective_kernel::<2>(SimdKernel::Neon), SimdKernel::Neon);
        assert_eq!(effective_kernel::<3>(SimdKernel::Neon), SimdKernel::Scalar);
        // `detect` and `available` agree: the detected kernel is offered.
        assert!(SimdKernel::available().contains(&SimdKernel::detect()));
        assert!(SimdKernel::available().starts_with(&[SimdKernel::Scalar]));
    }

    #[test]
    fn pack_blocks_pads_with_last_block() {
        let b0 = vec![1u64, 2, 3];
        let b1 = vec![4u64, 5, 6];
        let packed = pack_blocks::<4>(&[&b0, &b1]);
        assert_eq!(packed, vec![[1, 4, 4, 4], [2, 5, 5, 5], [3, 6, 6, 6]]);
        let full = pack_blocks::<4>(&[&b0, &b1, &b0, &b1]);
        assert_eq!(full[0], [1, 4, 1, 4]);
        let wide = pack_blocks::<8>(&[&b0, &b1]);
        assert_eq!(wide[0], [1, 4, 4, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn scratch_reuse_across_faults_is_clean() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(3);
        let x = b.xor_tree(&i);
        b.output(x);
        let nl = b.finish();
        let sim = FaultSim::new(&nl);
        let mut scratch = SimScratch::<1>::new();
        let inputs = random_inputs(3, 7);
        let good = nl.eval_all(&inputs);
        let good = good.as_chunks::<1>().0;
        for net in 0..nl.num_nets() as u32 {
            let net = NetId(net);
            for stuck in [false, true] {
                sim.seeded_walk(good, net, excitation(good, (net, stuck)), [0], &mut scratch);
                let oracle = nl.eval_all_stuck(&inputs, (net, stuck));
                for n in 0..nl.num_nets() as u32 {
                    assert_eq!(scratch.value(good, NetId(n)), [oracle[n as usize]]);
                }
            }
        }
    }
}
