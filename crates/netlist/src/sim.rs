//! Incremental, event-driven stuck-at fault simulation.
//!
//! [`Netlist::eval_all_stuck`] re-evaluates every gate for every fault and
//! every pattern block. That is wasteful: a stuck-at fault only disturbs
//! the nets in its *fanout cone*, and on most pattern blocks the
//! disturbance dies out (logic masking) long before it reaches the
//! outputs. This module exploits both effects:
//!
//! * [`FaultSim`] precomputes a CSR fanout adjacency (which gates read
//!   each net) over the netlist, with gates permuted into **level-major
//!   slot order**: a stable sort of the topological gate order by logic
//!   level. Slot order is still topological, and every level occupies a
//!   contiguous slot run ("bucket"), so the event walk tests its frontier
//!   horizon once per bucket instead of once per gate.
//! * [`FaultSim::cone_into`] derives, once per fault site, the list of
//!   gates structurally reachable from the faulty net (ascending slot
//!   order), pre-split into level runs.
//! * [`FaultSim::eval_stuck`] starts from a cached good-value vector and
//!   simulates *only* the cone, stamping nets whose faulty value differs
//!   from the good value into an epoch-tagged [`SimScratch`]. The walk
//!   early-exits as soon as the event frontier has converged back to the
//!   good values (no remaining cone gate reads a differing net).
//!
//! The result is bit-identical to [`Netlist::eval_all_stuck`] — that
//! method stays as the reference oracle — at a fraction of the work:
//! cost per (fault, block) is `O(active cone)` instead of `O(gates)`.
//!
//! On top of the 64-lane walk, [`FaultSim::eval_stuck_wide`] and
//! [`WideScratch`] process **`W` pattern blocks (`W × 64` lanes) per
//! walk**: each net carries a [`SimBlock<W>`] of independent lane groups,
//! so one pass over the cone amortizes the event-walk bookkeeping
//! (frontier test, touched-list maintenance, gate decode) across `W`× the
//! patterns. Lane groups never mix; per group the walk is bit-identical
//! to the narrow one, which keeps group-aware detection accounting exact.
//!
//! The wide inner loop is **runtime-dispatched** over [`SimdKernel`]
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

/// `W` independent 64-lane pattern blocks carried by one net during a
/// wide walk: `W × 64` test patterns per gate evaluation.
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
}

/// One gate step of the event-driven walk: reads the XOR-difference
/// overlay, fires the gate branchlessly if any input differs, records
/// the output difference, and extends the frontier horizon.
///
/// The body is branchless apart from the dead-input skip: gate kinds and
/// outcomes are data-dependent with no usable pattern, so ALU selects
/// beat an indirect jump and conditional stores here, while dead
/// stretches of a converging frontier reduce to three loads per gate.
///
/// # Safety
///
/// `p.pins` and `p.output()` must be in range for both `good` and
/// `scratch.diff` — guaranteed for records built by [`FaultSim::new`]
/// against a `good` slice of `num_nets` values and a scratch sized by
/// [`SimScratch::begin`].
#[inline(always)]
unsafe fn fire_gate(p: &PackedGate, good: &[u64], scratch: &mut SimScratch, last_needed: &mut u32) {
    let [a, b, c] = p.pins;
    // SAFETY: pins/output range-checked at construction (caller contract).
    let (da, db, dc) = unsafe {
        (
            *scratch.diff.get_unchecked(a as usize),
            *scratch.diff.get_unchecked(b as usize),
            *scratch.diff.get_unchecked(c as usize),
        )
    };
    // No differing input ⇒ the gate reproduces its good value.
    if da | db | dc == 0 {
        return;
    }
    // SAFETY: same in-range guarantee as above.
    let (va, vb, vc) = unsafe {
        (
            *good.get_unchecked(a as usize) ^ da,
            *good.get_unchecked(b as usize) ^ db,
            *good.get_unchecked(c as usize) ^ dc,
        )
    };
    let base = p.ko & 3;
    let m_and = u64::from(base == BASE_AND).wrapping_neg();
    let m_or = u64::from(base == BASE_OR).wrapping_neg();
    let m_xor = u64::from(base == BASE_XOR).wrapping_neg();
    let m_mux = u64::from(base == BASE_MUX).wrapping_neg();
    let m_inv = (u64::from(p.ko) >> 2 & 1).wrapping_neg();
    let v = (((va & vb) & m_and)
        | ((va | vb) & m_or)
        | ((va ^ vb) & m_xor)
        | (((va & vb) | (!va & vc)) & m_mux))
        ^ m_inv;
    let out = p.output() as usize;
    // SAFETY: `out < num_nets` per the construction-time assert.
    let d = unsafe {
        let d = v ^ *good.get_unchecked(out);
        *scratch.diff.get_unchecked_mut(out) = d;
        d
    };
    scratch.touched.push(out as u32);
    // Primary outputs feed the detection word as they are walked.
    scratch.out_diff |= d & (u64::from(p.ko) >> 3 & 1).wrapping_neg();
    // Branchless frontier extension: differing outputs push the walk's
    // horizon to their last reader (folded into the packed record).
    let gated = p.lr & u32::from(d != 0).wrapping_neg();
    *last_needed = (*last_needed).max(gated);
}

/// Scalar `W`-block variant of [`fire_gate`]: one gate step over `W`
/// 64-lane pattern blocks at once. Lanes never interact — each
/// [`SimBlock<W>`] entry is `W` independent difference words — so the
/// result per lane group is bit-identical to running [`fire_gate`] on
/// that block alone, except that the shared frontier keeps walking while
/// *any* lane group still differs (extra fired gates write zero
/// difference for converged lanes).
///
/// This is the portable reference kernel; the SIMD kernels below compute
/// the identical boolean algebra chunk-wise and are pinned to it by
/// differential tests.
///
/// # Safety
///
/// Same contract as [`fire_gate`]: `p.pins` and `p.output()` must be in
/// range for both `good` and `scratch.diff`.
#[inline(always)]
unsafe fn fire_gate_wide_scalar<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut WideScratch<W>,
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

/// AVX2 kernel: the same gate step as [`fire_gate_wide_scalar`], four
/// lane groups (256 bits) per vector op. `W` must be a multiple of 4
/// ([`effective_kernel`] guarantees it).
///
/// # Safety
///
/// Caller must guarantee the [`fire_gate`] range contract, `W % 4 == 0`,
/// and that the CPU supports AVX2 (the enclosing walk is gated on
/// runtime detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fire_gate_wide_avx2<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut WideScratch<W>,
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
/// Caller must guarantee the [`fire_gate`] range contract, `W % 8 == 0`,
/// and that the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn fire_gate_wide_avx512<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut WideScratch<W>,
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
/// Caller must guarantee the [`fire_gate`] range contract, `W % 2 == 0`,
/// and that the CPU supports NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[inline]
unsafe fn fire_gate_wide_neon<const W: usize>(
    p: &PackedGate,
    good: &[SimBlock<W>],
    scratch: &mut WideScratch<W>,
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

/// Generates the two wide walk bodies (materialized-cone walk and
/// cone-bitset row walk) for one fire kernel, optionally compiled under
/// a `#[target_feature]` so the `#[inline]` fire kernel fuses into a
/// vectorized loop.
///
/// The walks are where the levelized scheduling lives:
///
/// * the cone walk iterates the cone's precomputed **level runs** and
///   tests the frontier horizon once per run — gates within a run never
///   read each other's outputs, so firing a whole run unconditionally is
///   result-identical (gates past the horizon self-skip on their
///   all-zero difference inputs);
/// * the row walk tests the horizon (and the block-0 lane-0 detection
///   freeze) once per 64-gate bitset word for the same reason.
macro_rules! wide_walks {
    ($cone_walk:ident, $row_walk:ident, $fire:ident $(, enable = $feat:literal)?) => {
        /// Materialized-cone wide walk (see [`wide_walks!`]).
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
            scratch: &mut WideScratch<W>,
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
            }
        }

        /// Cone-bitset row wide walk (see [`wide_walks!`]): detection
        /// oriented — stops at word granularity once block 0's lowest
        /// excited lane (`freeze`, a single-bit mask or 0) observes the
        /// fault.
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
            scratch: &mut WideScratch<W>,
            mut last_needed: u32,
            freeze: u64,
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
                // Block-0 excitation freeze: once the lowest excited
                // lane of lane group 0 detects, the group-aware verdict
                // (earliest block, then earliest lane) cannot change —
                // group 0's word only gains higher bits from here.
                if scratch.out_diff[0] & freeze != 0 {
                    return;
                }
            }
        }
    };
}

wide_walks!(cone_walk_scalar, row_walk_scalar, fire_gate_wide_scalar);
#[cfg(target_arch = "x86_64")]
wide_walks!(cone_walk_avx2, row_walk_avx2, fire_gate_wide_avx2, enable = "avx2");
#[cfg(target_arch = "x86_64")]
wide_walks!(cone_walk_avx512, row_walk_avx512, fire_gate_wide_avx512, enable = "avx512f");
#[cfg(target_arch = "aarch64")]
wide_walks!(cone_walk_neon, row_walk_neon, fire_gate_wide_neon, enable = "neon");

/// SIMD backend for the wide event walk, selected at runtime via CPU
/// feature detection ([`SimdKernel::detect`]) and overridable per engine
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
/// records) speak slot indices; [`FaultCone::gates`] therefore also
/// yields slots. Slot order is itself topological, so every walk over
/// ascending slots is a valid evaluation order.
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
    /// Flattened 16-byte copy of each gate in slot order, so the hot
    /// walk reads one contiguous stream instead of chasing each
    /// [`Gate::inputs`] heap allocation.
    packed: Vec<PackedGate>,
    /// Per slot: the end slot (exclusive) of its level bucket. Slots of
    /// equal logic level form contiguous runs; gates within a run never
    /// read each other's outputs, which lets walks fire whole runs
    /// without per-gate frontier tests.
    bucket_end: Vec<u32>,
    /// Per slot: the gate's logic level (≥ 1; primary inputs and
    /// constants sit at level 0). The levelized event walk buckets
    /// scheduled gates by this.
    slot_level: Vec<u32>,
    /// `max(slot_level) + 1` — bucket count for the levelized event walk
    /// (0 on a gate-free netlist).
    num_levels: usize,
    /// Precomputed transitive fanout, when it fits [`CONE_BITS_BUDGET`].
    cone_bits: Option<ConeBits>,
    /// Wide-walk SIMD backend ([`SimdKernel::detect`] at construction).
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

        let packed: Vec<PackedGate> = slot_order
            .iter()
            .enumerate()
            .map(|(slot, &g)| {
                let gate = &gates[g as usize];
                let out = gate.output.index();
                PackedGate::new(gate, is_output[out], slot as u32, last_reader[out])
            })
            .collect();
        // Soundness gate for the unchecked loads in `eval_stuck`: every
        // pin and output index is in range for a `num_nets`-sized vector.
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

        let num_levels = slot_level.last().map_or(0, |&l| l as usize + 1);
        FaultSim {
            num_nets,
            num_gates,
            outputs: netlist.outputs().to_vec(),
            reader_off,
            readers,
            last_reader,
            is_output,
            packed,
            bucket_end,
            slot_level,
            num_levels,
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

    /// The SIMD backend wide walks currently dispatch to.
    #[must_use]
    pub fn kernel(&self) -> SimdKernel {
        self.kernel
    }

    /// Pins the wide-walk backend to `kernel`. Returns `false` (leaving
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
    /// `cone` are reused across calls, so deriving one cone per fault
    /// site is cheap.
    pub fn cone_into(&self, net: NetId, cone: &mut FaultCone) {
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

    /// Whether cones come from the precomputed bitset closure — i.e. the
    /// netlist fit the memory budget. Cheap cones make per-fault cone
    /// caching across a whole campaign worthwhile.
    #[must_use]
    pub fn cheap_cones(&self) -> bool {
        self.cone_bits.is_some()
    }

    /// Convenience wrapper around [`cone_into`](FaultSim::cone_into)
    /// allocating a fresh [`FaultCone`].
    #[must_use]
    pub fn cone(&self, net: NetId) -> FaultCone {
        let mut cone = FaultCone::new();
        self.cone_into(net, &mut cone);
        cone
    }

    /// Event-driven fault evaluation against a cached good-value vector.
    ///
    /// `good` must be `netlist.eval_all(..)` for the pattern block being
    /// simulated, and `cone` the [`cone_into`](FaultSim::cone_into) result
    /// for `stuck.0`. Afterwards `scratch` holds the nets whose faulty
    /// value differs from `good` (query via [`SimScratch::value`],
    /// [`FaultSim::detect_word`] or [`FaultSim::output_diffs`]).
    ///
    /// Bit-identical to [`Netlist::eval_all_stuck`] on every net.
    pub fn eval_stuck(
        &self,
        good: &[u64],
        stuck: (NetId, bool),
        cone: &FaultCone,
        scratch: &mut SimScratch,
    ) {
        // Hard assert: with `scratch.begin` sizing `diff` to `num_nets`
        // and the construction-time pin-range check, this is the last
        // bound the unchecked loads below rely on.
        assert_eq!(good.len(), self.num_nets, "good vector length");
        scratch.begin(self.num_nets);
        let (fnet, fval) = stuck;
        let forced = if fval { !0u64 } else { 0u64 };
        if good[fnet.index()] == forced {
            // The net already carries the forced value in all 64 lanes:
            // the faulty circuit is indistinguishable on this block.
            return;
        }
        let fdiff = forced ^ good[fnet.index()];
        scratch.set_diff(fnet, fdiff);
        // A fault on a primary-output net is directly observable.
        scratch.out_diff |= fdiff & u64::from(self.is_output[fnet.index()]).wrapping_neg();
        let mut last_needed = self.last_reader[fnet.index()];

        // Fire whole level runs: gates within a run never read each
        // other's outputs, and gates past the horizon self-skip, so the
        // frontier test runs once per run instead of once per gate.
        for run in cone.runs.windows(2) {
            let (s, e) = (run[0] as usize, run[1] as usize);
            if cone.packed[s].idx >= last_needed {
                // Runs ascend by slot: the event frontier has converged
                // back to the good values.
                break;
            }
            for p in &cone.packed[s..e] {
                // SAFETY: pins and outputs were range-checked against
                // `num_nets` in `FaultSim::new`; `good` and
                // `scratch.diff` are both `num_nets` long
                // (asserted/sized above).
                unsafe { fire_gate(p, good, scratch, &mut last_needed) };
            }
        }
    }

    /// Detection-oriented variant of [`eval_stuck`](FaultSim::eval_stuck)
    /// that needs no materialized [`FaultCone`] and no per-fault cone
    /// derivation: with cone bitsets built it scans the precomputed
    /// bitset row in slot order (prefetch-friendly, branchless
    /// per-gate skip); without them it falls back to a levelized event
    /// walk over the per-level buckets (only gates with a differing
    /// input fire — `O(active frontier)` instead of `O(structural
    /// cone)`, which is what makes the fallback viable on netlists too
    /// large for the bitset budget).
    ///
    /// **Detection-exact, not value-exact**: a lane where the fault site
    /// is not excited carries the good circuit everywhere, so the detect
    /// word is always a bitwise subset of the site's excitation word.
    /// The walk therefore stops (at 64-slot word or level granularity)
    /// as soon as the **lowest excited lane** observes the fault — from
    /// that point the detect word can only gain *higher* bits and its
    /// `trailing_zeros` is already pinned. Relative to a full
    /// `eval_stuck`, the detect word's nonzero-ness and its
    /// `trailing_zeros` (the first detecting lane) are exact, but
    /// [`SimScratch::value`] is only meaningful for nets written before
    /// the stop. Campaign classification needs exactly the former two;
    /// callers that read net values keep the full walk.
    pub fn eval_stuck_detect(&self, good: &[u64], stuck: (NetId, bool), scratch: &mut SimScratch) {
        assert_eq!(good.len(), self.num_nets, "good vector length");
        scratch.begin(self.num_nets);
        let (fnet, fval) = stuck;
        let forced = if fval { !0u64 } else { 0u64 };
        if good[fnet.index()] == forced {
            // The net already carries the forced value in all 64 lanes:
            // the faulty circuit is indistinguishable on this block.
            return;
        }
        let fdiff = forced ^ good[fnet.index()];
        // Lowest excited lane: no detect-word bit below it can ever
        // appear, so detection there pins the verdict and the lane.
        let freeze = fdiff & fdiff.wrapping_neg();
        self.detect_walk(good, fnet, fdiff, freeze, scratch);
    }

    /// Evaluates **both** stuck-at polarities of `fnet` in one walk.
    ///
    /// The two polarities excite complementary lane sets — `fdiff` for
    /// stuck-at-0 is `good[fnet]`, for stuck-at-1 it is `!good[fnet]` —
    /// and lanes never interact, so seeding the walk with an all-ones
    /// difference (a per-lane bit flip at the site) simulates stuck-at-0
    /// in the lanes where the good value is 1 and stuck-at-1 in the
    /// rest. Afterwards `detect_word(..) & good[fnet]` is bit-identical
    /// to the stuck-at-0 walk's detect word and `detect_word(..) &
    /// !good[fnet]` to the stuck-at-1 one (same exactness contract as
    /// [`eval_stuck_detect`](FaultSim::eval_stuck_detect): nonzero-ness
    /// and `trailing_zeros` per polarity). One traversal classifies two
    /// faults — the campaign's first-block probe runs on site pairs.
    pub fn eval_flip_detect(&self, good: &[u64], fnet: NetId, scratch: &mut SimScratch) {
        assert_eq!(good.len(), self.num_nets, "good vector length");
        scratch.begin(self.num_nets);
        let g = good[fnet.index()];
        // Lowest excited lane of each polarity: the walk may stop only
        // once *both* verdicts are pinned (an unexcitable polarity
        // contributes no bit, so its side of the mask is 0 and the walk
        // runs until the other polarity detects or the frontier dies).
        let e0 = g & g.wrapping_neg();
        let e1 = !g & (!g).wrapping_neg();
        self.detect_walk(good, fnet, !0u64, e0 | e1, scratch);
    }

    /// Shared body of the detect walks: seeds `fdiff` at `fnet`,
    /// propagates, and stops early once every bit of `exit_mask` has
    /// appeared in the detection word (callers pass the lowest excited
    /// lane per polarity of interest — see the excitation-freeze notes
    /// on [`eval_stuck_detect`](FaultSim::eval_stuck_detect)).
    fn detect_walk(
        &self,
        good: &[u64],
        fnet: NetId,
        fdiff: u64,
        exit_mask: u64,
        scratch: &mut SimScratch,
    ) {
        scratch.set_diff(fnet, fdiff);
        scratch.out_diff |= fdiff & u64::from(self.is_output[fnet.index()]).wrapping_neg();
        if scratch.out_diff & exit_mask == exit_mask {
            return;
        }
        if let Some(cb) = &self.cone_bits {
            // Fast path: linear scan of the precomputed cone row. With
            // 64 patterns per lane the fault effect rarely dies, so most
            // cone gates are active anyway and the branchless in-order
            // scan beats event scheduling.
            let mut last_needed = self.last_reader[fnet.index()];
            let row = &cb.bits[fnet.index() * cb.words..][..cb.words];
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
                    // SAFETY: `g` indexes a gate (the bitset has one bit
                    // per slot); pins/outputs were range-checked in
                    // `new`.
                    unsafe {
                        let p = self.packed.get_unchecked(g);
                        fire_gate(p, good, scratch, &mut last_needed);
                    }
                    // Excitation freeze at gate granularity: once every
                    // polarity's lowest excited lane detects, the
                    // classification outcomes and first detecting lanes
                    // cannot change (extra fired slots only OR higher
                    // bits into each polarity's detect word).
                    if scratch.out_diff & exit_mask == exit_mask {
                        return;
                    }
                }
            }
            return;
        }
        scratch.begin_events(self.num_levels, self.num_gates);
        let mut lo = self.num_levels;
        let mut hi = 0usize;
        for &g in self.readers_of(fnet) {
            if scratch.mark_gate(g) {
                let l = self.slot_level[g as usize] as usize;
                scratch.pending[l].push(g);
                lo = lo.min(l);
                hi = hi.max(l);
            }
        }
        let mut level = lo;
        while level <= hi {
            // Take the bucket out so firing can push into higher ones;
            // readers always sit in strictly higher levels, so the
            // drained bucket never grows under us.
            let bucket = std::mem::take(&mut scratch.pending[level]);
            for &g in &bucket {
                let p = &self.packed[g as usize];
                let [a, b, c] = p.pins;
                // SAFETY: pins and outputs were range-checked against
                // `num_nets` in `new`; `good` and `scratch.diff` are both
                // `num_nets` long (asserted/sized above).
                let (da, db, dc) = unsafe {
                    (
                        *scratch.diff.get_unchecked(a as usize),
                        *scratch.diff.get_unchecked(b as usize),
                        *scratch.diff.get_unchecked(c as usize),
                    )
                };
                // SAFETY: same in-range guarantee as above.
                let (va, vb, vc) = unsafe {
                    (
                        *good.get_unchecked(a as usize) ^ da,
                        *good.get_unchecked(b as usize) ^ db,
                        *good.get_unchecked(c as usize) ^ dc,
                    )
                };
                let base = p.ko & 3;
                let m_and = u64::from(base == BASE_AND).wrapping_neg();
                let m_or = u64::from(base == BASE_OR).wrapping_neg();
                let m_xor = u64::from(base == BASE_XOR).wrapping_neg();
                let m_mux = u64::from(base == BASE_MUX).wrapping_neg();
                let m_inv = (u64::from(p.ko) >> 2 & 1).wrapping_neg();
                let v = (((va & vb) & m_and)
                    | ((va | vb) & m_or)
                    | ((va ^ vb) & m_xor)
                    | (((va & vb) | (!va & vc)) & m_mux))
                    ^ m_inv;
                let out = p.output() as usize;
                // SAFETY: `out < num_nets` per the construction assert.
                let d = v ^ unsafe { *good.get_unchecked(out) };
                if d == 0 {
                    // The fault effect dies at this gate: `diff[out]` is
                    // already zero (each net is written by at most one
                    // fired gate), so there is nothing to record.
                    continue;
                }
                // SAFETY: as above.
                unsafe { *scratch.diff.get_unchecked_mut(out) = d };
                scratch.touched.push(out as u32);
                scratch.out_diff |= d & (u64::from(p.ko) >> 3 & 1).wrapping_neg();
                for &r in self.readers_of(NetId(out as u32)) {
                    if scratch.mark_gate(r) {
                        let l = self.slot_level[r as usize] as usize;
                        scratch.pending[l].push(r);
                        hi = hi.max(l);
                    }
                }
            }
            // Return the drained (empty-again) bucket for reuse.
            let mut bucket = bucket;
            bucket.clear();
            scratch.pending[level] = bucket;
            // Excitation freeze at level granularity: once every
            // polarity's lowest excited lane detects, the classification
            // outcomes and first detecting lanes cannot change (further
            // levels only OR higher bits into each polarity's detect
            // word). Scheduled-but-unfired levels are cleared so every
            // bucket is empty again for the next walk.
            if scratch.out_diff & exit_mask == exit_mask {
                for b in &mut scratch.pending[level + 1..=hi] {
                    b.clear();
                }
                break;
            }
            level += 1;
        }
    }

    /// `W × 64`-lane event-driven fault evaluation: `W` 64-pattern
    /// blocks in one walk, dispatched to the engine's [`SimdKernel`].
    ///
    /// `good` must hold, per net, the good values of the `W` blocks
    /// being simulated (see [`pack_blocks`]), and `cone` the
    /// [`cone_into`](FaultSim::cone_into) result for `stuck.0`. Lane
    /// groups are independent: afterwards, lane group `g` of the scratch
    /// (difference overlay, detection word) is bit-identical to an
    /// [`eval_stuck`](FaultSim::eval_stuck) over block `g` alone —
    /// regardless of the dispatched kernel. The walk shares one frontier
    /// across the blocks, so it only converges once *every* block's
    /// fault effect has died out — the cost of a group is bounded by its
    /// widest member, not their sum.
    pub fn eval_stuck_wide<const W: usize>(
        &self,
        good: &[SimBlock<W>],
        stuck: (NetId, bool),
        cone: &FaultCone,
        scratch: &mut WideScratch<W>,
    ) {
        assert_eq!(good.len(), self.num_nets, "good vector length");
        scratch.begin(self.num_nets);
        let Some(last_needed) = self.seed_wide(good, stuck, scratch) else {
            return;
        };
        // SAFETY (all arms): pins and outputs were range-checked against
        // `num_nets` in `FaultSim::new`; `good` and `scratch.diff` are
        // both `num_nets` long (asserted/sized above); `effective_kernel`
        // only returns kernels whose chunk width divides `W`, and SIMD
        // kernels only when `self.kernel` passed runtime CPU detection.
        match effective_kernel::<W>(self.kernel) {
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx2 => unsafe { cone_walk_avx2::<W>(cone, good, scratch, last_needed) },
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 => unsafe {
                cone_walk_avx512::<W>(cone, good, scratch, last_needed)
            },
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => unsafe { cone_walk_neon::<W>(cone, good, scratch, last_needed) },
            _ => unsafe { cone_walk_scalar::<W>(cone, good, scratch, last_needed) },
        }
    }

    /// `W × 64`-lane detection-oriented walk over the precomputed cone
    /// bitset row — the [`eval_stuck_detect`](FaultSim::eval_stuck_detect)
    /// analogue for `W` pattern blocks at once, dispatched to the
    /// engine's [`SimdKernel`]. Returns `false` (doing nothing) when the
    /// engine was built without cone bitsets; callers then fall back to
    /// [`cone_into`](FaultSim::cone_into) +
    /// [`eval_stuck_wide`](FaultSim::eval_stuck_wide).
    ///
    /// **Detection-exact per lane group**: each detection word's
    /// nonzero-ness and `trailing_zeros` match a standalone walk of that
    /// block, with one exception mirroring the narrow variant's
    /// excitation freeze — once the lowest excited lane of lane group 0
    /// observes the fault, the walk stops (at word granularity), because
    /// group 0's word is a bitwise subset of the site's block-0
    /// excitation: group-aware accounting (earliest block wins, then
    /// earliest lane) is already pinned at block 0 and no lower lane of
    /// it can ever appear.
    pub fn eval_stuck_detect_wide<const W: usize>(
        &self,
        good: &[SimBlock<W>],
        stuck: (NetId, bool),
        scratch: &mut WideScratch<W>,
    ) -> bool {
        let Some(cb) = &self.cone_bits else {
            return false;
        };
        assert_eq!(good.len(), self.num_nets, "good vector length");
        scratch.begin(self.num_nets);
        let Some(last_needed) = self.seed_wide(good, stuck, scratch) else {
            return true;
        };
        // Lowest excited lane of block 0: group 0's detect word is a
        // subset of the site's block-0 excitation, so detection there
        // pins the earliest (block, lane) verdict.
        let f0 = (if stuck.1 { !0u64 } else { 0 }) ^ good[stuck.0.index()][0];
        let freeze = f0 & f0.wrapping_neg();
        if scratch.out_diff[0] & freeze != 0 {
            return true;
        }
        let row = &cb.bits[stuck.0.index() * cb.words..][..cb.words];
        // SAFETY (all arms): as in `eval_stuck_wide`, plus `row` is this
        // engine's own cone bitset row (one bit per slot of `packed`).
        match effective_kernel::<W>(self.kernel) {
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx2 => unsafe {
                row_walk_avx2::<W>(row, &self.packed, good, scratch, last_needed, freeze)
            },
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 => unsafe {
                row_walk_avx512::<W>(row, &self.packed, good, scratch, last_needed, freeze)
            },
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => unsafe {
                row_walk_neon::<W>(row, &self.packed, good, scratch, last_needed, freeze)
            },
            _ => unsafe {
                row_walk_scalar::<W>(row, &self.packed, good, scratch, last_needed, freeze)
            },
        }
        true
    }

    /// Shared wide-walk prologue: seeds the fault-site difference and
    /// the primary-output detection words, and returns the initial
    /// frontier horizon — or `None` when every block already carries the
    /// forced value (the walk has nothing to do).
    fn seed_wide<const W: usize>(
        &self,
        good: &[SimBlock<W>],
        stuck: (NetId, bool),
        scratch: &mut WideScratch<W>,
    ) -> Option<u32> {
        let (fnet, fval) = stuck;
        let forced = if fval { !0u64 } else { 0u64 };
        let site = good[fnet.index()];
        let mut fdiff = [0u64; W];
        let mut any = 0u64;
        for l in 0..W {
            fdiff[l] = forced ^ site[l];
            any |= fdiff[l];
        }
        if any == 0 {
            return None;
        }
        scratch.set_diff(fnet, fdiff);
        let m_out = u64::from(self.is_output[fnet.index()]).wrapping_neg();
        for (o, d) in scratch.out_diff.iter_mut().zip(fdiff) {
            *o |= d & m_out;
        }
        Some(self.last_reader[fnet.index()])
    }

    /// Detection word after [`eval_stuck`](FaultSim::eval_stuck): bit
    /// `i` set iff pattern lane `i` exposes the fault at any primary
    /// output. `O(1)` — accumulated during the walk.
    #[must_use]
    pub fn detect_word(&self, good: &[u64], scratch: &SimScratch) -> u64 {
        let _ = good;
        scratch.out_diff
    }

    /// Per-output difference words (`faulty ^ good`) in primary-output
    /// order, as consumed by syndrome hashing. Untouched outputs yield 0.
    pub fn output_diffs<'s>(
        &'s self,
        good: &'s [u64],
        scratch: &'s SimScratch,
    ) -> impl Iterator<Item = u64> + 's {
        self.outputs.iter().map(move |&o| scratch.value(good, o) ^ good[o.index()])
    }
}

/// Fanout-cone gate list for one fault site (see [`FaultSim::cone_into`]).
///
/// Holds reusable mark buffers so cones for successive fault sites can be
/// derived without reallocating.
#[derive(Debug, Default, Clone)]
pub struct FaultCone {
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
    /// Creates an empty cone.
    #[must_use]
    pub fn new() -> Self {
        FaultCone::default()
    }

    /// Gate slots in the cone, ascending.
    #[must_use]
    pub fn gates(&self) -> &[u32] {
        &self.gates
    }

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

/// XOR-difference overlay used by [`FaultSim::eval_stuck`].
///
/// `diff[n]` holds `faulty ^ good` for net `n` — zero everywhere the
/// fault has no effect — so an overlay read is a single extra XOR and the
/// walk needs no stamps or epochs. `begin` re-zeroes only the entries the
/// previous evaluation wrote (via `touched`), keeping every evaluation
/// allocation-free and `O(walked gates)`.
#[derive(Debug, Default, Clone)]
pub struct SimScratch {
    diff: Vec<u64>,
    touched: Vec<u32>,
    /// OR of `faulty ^ good` over primary-output nets, accumulated while
    /// the walk runs.
    out_diff: u64,
    /// Levelized event-walk state ([`FaultSim::eval_stuck_detect`]):
    /// scheduled gate slots per logic level. All buckets are empty
    /// between walks (drained in level order, or cleared on the lane-0
    /// freeze), so only the walked levels cost anything.
    pending: Vec<Vec<u32>>,
    /// Epoch-tagged dedup stamps, one per gate slot: a gate schedules
    /// at most once per walk even when several of its inputs differ.
    gate_stamp: Vec<u32>,
    gate_epoch: u32,
}

impl SimScratch {
    /// Creates an empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }

    fn begin(&mut self, num_nets: usize) {
        for &n in &self.touched {
            self.diff[n as usize] = 0;
        }
        self.touched.clear();
        self.out_diff = 0;
        if self.diff.len() < num_nets {
            self.diff.resize(num_nets, 0);
        }
    }

    fn set_diff(&mut self, net: NetId, diff: u64) {
        self.diff[net.index()] = diff;
        self.touched.push(net.0);
    }

    /// Sizes the event-walk buckets and stamps and opens a new epoch.
    fn begin_events(&mut self, num_levels: usize, num_gates: usize) {
        if self.pending.len() < num_levels {
            self.pending.resize_with(num_levels, Vec::new);
        }
        if self.gate_stamp.len() < num_gates {
            self.gate_stamp.resize(num_gates, 0);
        }
        self.gate_epoch = self.gate_epoch.wrapping_add(1);
        if self.gate_epoch == 0 {
            self.gate_stamp.fill(0);
            self.gate_epoch = 1;
        }
    }

    /// Marks gate `slot`; returns `false` if already scheduled this walk.
    fn mark_gate(&mut self, slot: u32) -> bool {
        let stamp = &mut self.gate_stamp[slot as usize];
        if *stamp == self.gate_epoch {
            false
        } else {
            *stamp = self.gate_epoch;
            true
        }
    }

    /// The faulty value of `net` after an evaluation: the good value
    /// XORed with the recorded difference (zero where undisturbed).
    #[must_use]
    pub fn value(&self, good: &[u64], net: NetId) -> u64 {
        good[net.index()] ^ self.diff[net.index()]
    }

    /// Nets written by the last event walk, in the order it reached them:
    /// a superset of the differing nets (non-differing entries carry the
    /// good value, so difference queries over them still read as zero).
    #[must_use]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }
}

/// `W × 64`-lane XOR-difference overlay used by
/// [`FaultSim::eval_stuck_wide`]: `W` independent 64-lane pattern
/// blocks ("lane groups") simulated in one event walk. `diff[n][g]`
/// holds `faulty ^ good` for net `n` on block `g`.
///
/// The lane width defaults to the historical `W = 4` in type position;
/// expression-position constructors need a turbofish
/// (`WideScratch::<8>::new()`).
#[derive(Debug, Clone)]
pub struct WideScratch<const W: usize = 4> {
    diff: Vec<SimBlock<W>>,
    touched: Vec<u32>,
    /// OR of `faulty ^ good` over primary-output nets, per lane group.
    out_diff: SimBlock<W>,
}

impl<const W: usize> WideScratch<W> {
    /// Creates an empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        WideScratch { diff: Vec::new(), touched: Vec::new(), out_diff: [0; W] }
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

    /// Nets written by the last event walk (see [`SimScratch::touched`]).
    #[must_use]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }
}

impl<const W: usize> Default for WideScratch<W> {
    fn default() -> Self {
        Self::new()
    }
}

/// Packs up to `W` 64-lane good-value vectors (one per pattern block,
/// each `num_nets` long as produced by `Netlist::eval_all`) into the
/// lane-group layout consumed by [`FaultSim::eval_stuck_wide`]. When
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
        let mut cone = FaultCone::new();
        let mut scratch = SimScratch::new();
        let mut det_scratch = SimScratch::new();
        for block in 0..4u64 {
            let inputs = random_inputs(nl.num_inputs(), 0xBEEF ^ block);
            let good = nl.eval_all(&inputs);
            for net in 0..nl.num_nets() as u32 {
                let net = NetId(net);
                sim.cone_into(net, &mut cone);
                for stuck in [false, true] {
                    let oracle = nl.eval_all_stuck(&inputs, (net, stuck));
                    sim.eval_stuck(&good, (net, stuck), &cone, &mut scratch);
                    for n in 0..nl.num_nets() as u32 {
                        assert_eq!(
                            scratch.value(&good, NetId(n)),
                            oracle[n as usize],
                            "net n{n} mismatch for fault ({net}, sa{})",
                            u8::from(stuck)
                        );
                    }
                    // Detection word must match the oracle's output diff.
                    let mut oracle_diff = 0u64;
                    for (o, g) in nl.outputs().iter().zip(nl.output_values(&good)) {
                        oracle_diff |= oracle[o.index()] ^ g;
                    }
                    assert_eq!(sim.detect_word(&good, &scratch), oracle_diff);
                    // The levelized event-walk detection variant must
                    // agree on detection and the first detecting lane
                    // (it may stop early once lane 0 fires).
                    sim.eval_stuck_detect(&good, (net, stuck), &mut det_scratch);
                    let det = sim.detect_word(&good, &det_scratch);
                    assert_eq!(
                        det != 0,
                        oracle_diff != 0,
                        "detect variant disagreement for fault ({net}, sa{})",
                        u8::from(stuck)
                    );
                    if oracle_diff != 0 {
                        assert_eq!(det.trailing_zeros(), oracle_diff.trailing_zeros());
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
        // Fault on input 0 disturbs all three gates.
        assert_eq!(sim.cone(i[0]).gates().len(), 3);
        // Fault on the output net disturbs nothing downstream.
        assert!(sim.cone(z).gates().is_empty());
        // Fault on input 3 only disturbs the final OR.
        assert_eq!(sim.cone(i[3]).gates().len(), 1);
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
        let mut cone = FaultCone::new();
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
        let cone = sim.cone(i[0]);
        let mut scratch = SimScratch::new();
        // Input 0 all-ones; stuck-at-1 on it changes nothing.
        let good = nl.eval_all(&[!0, 0]);
        sim.eval_stuck(&good, (i[0], true), &cone, &mut scratch);
        assert!(scratch.touched().is_empty());
        assert_eq!(sim.detect_word(&good, &scratch), 0);
    }

    /// Every fault, over `W` pattern blocks: one wide walk must be
    /// bit-identical, lane group by lane group, to `W` narrow walks —
    /// values on every net, detection words, and the detect variant's
    /// group-aware verdict (earliest block, then earliest lane) — for
    /// the given kernel.
    fn assert_wide_matches_narrow<const W: usize>(nl: &Netlist, kernel: SimdKernel) {
        let mut sim = FaultSim::new(nl);
        assert!(sim.cone_bits.is_some(), "test netlists fit the cone-bitset budget");
        assert!(sim.set_kernel(kernel));
        for pass in 0..2 {
            if pass == 1 {
                sim.cone_bits = None;
            }
            let mut cone = FaultCone::new();
            let mut narrow = SimScratch::new();
            let mut wide = WideScratch::<W>::new();
            let mut det = WideScratch::<W>::new();
            let blocks: Vec<Vec<u64>> =
                (0..W as u64).map(|b| random_inputs(nl.num_inputs(), 0xD1CE ^ b)).collect();
            let goods: Vec<Vec<u64>> = blocks.iter().map(|b| nl.eval_all(b)).collect();
            let packed = pack_blocks::<W>(&goods.iter().map(Vec::as_slice).collect::<Vec<_>>());
            for net in 0..nl.num_nets() as u32 {
                let net = NetId(net);
                sim.cone_into(net, &mut cone);
                for stuck in [false, true] {
                    sim.eval_stuck_wide(&packed, (net, stuck), &cone, &mut wide);
                    let words = wide.detect_words();
                    let mut first = None;
                    for (g, good) in goods.iter().enumerate() {
                        sim.eval_stuck(good, (net, stuck), &cone, &mut narrow);
                        for n in 0..nl.num_nets() as u32 {
                            assert_eq!(
                                wide.value(&packed, NetId(n))[g],
                                narrow.value(good, NetId(n)),
                                "net n{n} lane group {g} for fault ({net}, sa{}) on {}",
                                u8::from(stuck),
                                kernel.name()
                            );
                        }
                        let word = sim.detect_word(good, &narrow);
                        assert_eq!(
                            words[g],
                            word,
                            "detect word, lane group {g}, {}",
                            kernel.name()
                        );
                        if first.is_none() && word != 0 {
                            first = Some((g, word.trailing_zeros()));
                        }
                    }
                    // The detect variant must agree on the earliest
                    // detecting (block, lane) pair — the only facts
                    // group-aware campaign accounting consumes.
                    if sim.eval_stuck_detect_wide(&packed, (net, stuck), &mut det) {
                        let dw = det.detect_words();
                        let got = (0..W).find(|&g| dw[g] != 0).map(|g| (g, dw[g].trailing_zeros()));
                        assert_eq!(
                            got.is_some(),
                            first.is_some(),
                            "detect-wide disagreement for fault ({net}, sa{})",
                            u8::from(stuck)
                        );
                        if let (Some(a), Some(b)) = (got, first) {
                            assert_eq!(a, b, "first detecting (block, lane)");
                        }
                    } else {
                        assert!(sim.cone_bits.is_none(), "detect-wide refused with bitsets");
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
            assert_wide_matches_narrow::<2>(&nl, kernel);
            assert_wide_matches_narrow::<4>(&nl, kernel);
            assert_wide_matches_narrow::<8>(&nl, kernel);
            assert_wide_matches_narrow::<16>(&nl, kernel);
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
        let mut scratch = SimScratch::new();
        let inputs = random_inputs(3, 7);
        let good = nl.eval_all(&inputs);
        for net in 0..nl.num_nets() as u32 {
            let net = NetId(net);
            let cone = sim.cone(net);
            for stuck in [false, true] {
                sim.eval_stuck(&good, (net, stuck), &cone, &mut scratch);
                let oracle = nl.eval_all_stuck(&inputs, (net, stuck));
                for n in 0..nl.num_nets() as u32 {
                    assert_eq!(scratch.value(&good, NetId(n)), oracle[n as usize]);
                }
            }
        }
    }
}
