//! Sequential netlists with full-scan test access.
//!
//! The ATPG campaign treats every pipeline unit as a combinational core —
//! the industry *full-scan* assumption: all state elements are stitched
//! into scan chains, so a sequential circuit's flops become pseudo-inputs
//! (their `Q` pins) and pseudo-outputs (their `D` pins) of the
//! combinational core. This module makes that assumption concrete:
//!
//! * [`SequentialNetlist`] wraps a combinational [`Netlist`] whose input
//!   space is `[primary inputs ‖ flop Qs]` and whose output space is
//!   `[primary outputs ‖ flop Ds]`,
//! * [`SequentialNetlist::step`] clocks it functionally,
//! * [`SequentialNetlist::scan_cycle`] performs the scan protocol —
//!   shift-in a state, apply a pattern, capture, shift-out — and is
//!   provably equivalent to one combinational evaluation of the core,
//!   which is exactly why the stuck-at campaign may run on the core alone.
//!
//! # Example
//!
//! ```
//! use r2d3_netlist::{NetlistBuilder, sequential::SequentialNetlist};
//!
//! // A 4-bit accumulator: state' = state + in.
//! let mut b = NetlistBuilder::new();
//! let input = b.inputs(4);    // primary inputs
//! let state = b.inputs(4);    // flop Q pseudo-inputs
//! let zero = b.constant(false);
//! let (sum, _) = b.ripple_adder(&state, &input, zero);
//! b.outputs(&sum);            // visible output
//! b.outputs(&sum);            // flop D pseudo-outputs (state')
//! let seq = SequentialNetlist::new(b.finish(), 4, 4).unwrap();
//!
//! let mut state = vec![0u64; 4];
//! // Accumulate 3 twice (lane 0): 0 → 3 → 6.
//! let three = [1, 1, 0, 0];
//! seq.step(&mut state, &three);
//! seq.step(&mut state, &three);
//! assert_eq!(state, vec![0, 1, 1, 0]); // 6 = 0b0110
//! ```

use crate::netlist::Netlist;
use crate::NetlistError;

/// A full-scan sequential circuit built over a combinational core.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialNetlist {
    core: Netlist,
    real_inputs: usize,
    real_outputs: usize,
}

impl SequentialNetlist {
    /// Wraps a combinational core.
    ///
    /// The core's inputs must be `[real_inputs ‖ flops]` and its outputs
    /// `[real_outputs ‖ flops]`, with the same flop count on both sides.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputLenMismatch`] when the widths do not
    /// leave a consistent flop count.
    pub fn new(
        core: Netlist,
        real_inputs: usize,
        real_outputs: usize,
    ) -> Result<Self, NetlistError> {
        let flops_in = core.num_inputs().checked_sub(real_inputs);
        let flops_out = core.outputs().len().checked_sub(real_outputs);
        match (flops_in, flops_out) {
            (Some(fi), Some(fo)) if fi == fo => {
                Ok(SequentialNetlist { core, real_inputs, real_outputs })
            }
            _ => Err(NetlistError::InputLenMismatch {
                expected: core.num_inputs(),
                got: real_inputs,
            }),
        }
    }

    /// The combinational core (what the ATPG campaign runs on).
    #[must_use]
    pub fn core(&self) -> &Netlist {
        &self.core
    }

    /// Number of state elements.
    #[must_use]
    pub fn flops(&self) -> usize {
        self.core.num_inputs() - self.real_inputs
    }

    /// Number of real (non-scan) primary inputs.
    #[must_use]
    pub fn real_inputs(&self) -> usize {
        self.real_inputs
    }

    /// Number of real primary outputs.
    #[must_use]
    pub fn real_outputs(&self) -> usize {
        self.real_outputs
    }

    /// Clocks the circuit once: `state` is updated in place to the next
    /// state, and the real outputs are returned. Bit-parallel (64 lanes).
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`state` widths are wrong.
    pub fn step(&self, state: &mut [u64], inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.real_inputs, "primary-input width");
        assert_eq!(state.len(), self.flops(), "state width");
        let mut all = Vec::with_capacity(self.core.num_inputs());
        all.extend_from_slice(inputs);
        all.extend_from_slice(state);
        let outs = self.core.eval(&all);
        let (real, next) = outs.split_at(self.real_outputs);
        state.copy_from_slice(next);
        real.to_vec()
    }

    /// Runs the scan protocol for one test: shift-in `scan_state`, apply
    /// `inputs`, capture, and shift-out. Returns
    /// `(real_outputs, captured_state)`.
    ///
    /// By construction this equals one evaluation of the combinational
    /// core with `[inputs ‖ scan_state]` — the equivalence that justifies
    /// running the stuck-at campaign on the core alone (tested below).
    ///
    /// # Panics
    ///
    /// Panics if the widths are wrong.
    #[must_use]
    pub fn scan_cycle(&self, inputs: &[u64], scan_state: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert_eq!(scan_state.len(), self.flops(), "scan chain length");
        // Shift-in: serially load the chain (modeled as a direct load —
        // shifting is linear and fault-free in this model).
        let mut state = scan_state.to_vec();
        // Capture.
        let real = self.step(&mut state, inputs);
        // Shift-out: the captured next-state becomes observable.
        (real, state)
    }

    /// Scan-based stuck-at check: evaluates the test `(inputs, state)`
    /// on the good circuit and with `stuck` injected, returning whether
    /// any observable value (real outputs or shifted-out state) differs.
    #[must_use]
    pub fn scan_detects(
        &self,
        inputs: &[u64],
        scan_state: &[u64],
        stuck: (crate::NetId, bool),
    ) -> bool {
        let mut all = Vec::with_capacity(self.core.num_inputs());
        all.extend_from_slice(inputs);
        all.extend_from_slice(scan_state);
        let good = self.core.eval_all(&all);
        let bad = self.core.eval_all_stuck(&all, stuck);
        self.core.outputs().iter().any(|o| good[o.index()] != bad[o.index()])
    }
}

/// Registers a combinational stage behind an output flop bank: the
/// returned sequential circuit latches every stage output each cycle (a
/// pipeline stage boundary). Useful for building multi-cycle testbenches
/// on the generated unit netlists.
#[must_use]
pub fn register_outputs(core: &Netlist) -> SequentialNetlist {
    use crate::builder::NetlistBuilder;
    let mut b = NetlistBuilder::new();
    let real = b.inputs(core.num_inputs());
    let state = b.inputs(core.outputs().len());

    // Re-instantiate the core's gates on the new builder.
    let mut map = vec![crate::NetId(u32::MAX); core.num_nets()];
    for (i, r) in real.iter().enumerate() {
        map[i] = *r;
    }
    for gate in core.gates() {
        let inputs: Vec<crate::NetId> = gate.inputs.iter().map(|n| map[n.index()]).collect();
        map[gate.output.index()] = b.gate(gate.kind, &inputs);
    }
    // Real outputs: the *registered* values (previous cycle's state).
    b.outputs(&state);
    // Flop Ds: the core's current outputs.
    let ds: Vec<crate::NetId> = core.outputs().iter().map(|o| map[o.index()]).collect();
    b.outputs(&ds);

    SequentialNetlist::new(b.finish(), core.num_inputs(), core.outputs().len())
        .expect("widths consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::NetId;

    fn counter4() -> SequentialNetlist {
        // state' = state + 1, output = state.
        let mut b = NetlistBuilder::new();
        let state = b.inputs(4);
        let one = b.constant(true);
        let zero = b.constant(false);
        let ones = vec![one, zero, zero, zero];
        let (next, _) = b.ripple_adder(&state, &ones, zero);
        b.outputs(&state);
        b.outputs(&next);
        SequentialNetlist::new(b.finish(), 0, 4).unwrap()
    }

    fn bits(v: &[u64]) -> u64 {
        v.iter().enumerate().fold(0, |acc, (i, b)| acc | ((b & 1) << i))
    }

    #[test]
    fn counter_counts() {
        let c = counter4();
        let mut state = vec![0u64; 4];
        for expect in 0..20u64 {
            let out = c.step(&mut state, &[]);
            assert_eq!(bits(&out), expect % 16, "output shows pre-increment state");
        }
    }

    #[test]
    fn scan_cycle_equals_core_evaluation() {
        let c = counter4();
        for v in 0..16u64 {
            let state: Vec<u64> = (0..4).map(|i| (v >> i) & 1).collect();
            let (outs, captured) = c.scan_cycle(&[], &state);
            assert_eq!(bits(&outs), v);
            assert_eq!(bits(&captured), (v + 1) % 16);
            // Direct core evaluation agrees.
            let core_out = c.core().eval(&state);
            assert_eq!(bits(&core_out[..4]), v);
            assert_eq!(bits(&core_out[4..]), (v + 1) % 16);
        }
    }

    #[test]
    fn scan_detects_core_faults_exactly_like_combinational_campaign() {
        use crate::stages::{stage_netlist, StageSizing};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let sizing = StageSizing { gates_per_mm2: 1_000.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Exu, &sizing);
        let seq = register_outputs(sn.netlist());
        let core = seq.core().clone();

        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..16 {
            let inputs: Vec<u64> = (0..seq.real_inputs()).map(|_| rng.gen()).collect();
            let state: Vec<u64> = (0..seq.flops()).map(|_| rng.gen()).collect();
            let fault_net = NetId(rng.gen_range(0..core.num_nets() as u32));
            let stuck = rng.gen_bool(0.5);

            // Combinational view: evaluate the core with the merged input.
            let mut all = inputs.clone();
            all.extend_from_slice(&state);
            let good = core.eval_all(&all);
            let bad = core.eval_all_stuck(&all, (fault_net, stuck));
            let comb_detects = core.outputs().iter().any(|o| good[o.index()] != bad[o.index()]);

            assert_eq!(
                seq.scan_detects(&inputs, &state, (fault_net, stuck)),
                comb_detects,
                "full-scan equivalence violated for {fault_net}/sa{}",
                u8::from(stuck)
            );
        }
    }

    #[test]
    fn register_outputs_delays_by_one_cycle() {
        // Combinational XOR; registered version shows last cycle's value.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let x = b.xor2(i[0], i[1]);
        b.output(x);
        let core = b.finish();
        let seq = register_outputs(&core);
        assert_eq!(seq.flops(), 1);

        let mut state = vec![0u64];
        let out1 = seq.step(&mut state, &[1, 0]); // xor = 1 latched
        assert_eq!(out1[0] & 1, 0, "first output is the reset state");
        let out2 = seq.step(&mut state, &[0, 0]);
        assert_eq!(out2[0] & 1, 1, "second output is last cycle's xor");
    }

    #[test]
    fn width_validation() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(3);
        let x = b.and2(i[0], i[1]);
        b.output(x);
        let nl = b.finish();
        // 3 inputs, 1 output: claiming 1 real input (2 flops in) but 1
        // real output (0 flops out) is inconsistent.
        assert!(SequentialNetlist::new(nl.clone(), 1, 1).is_err());
        // 2 real inputs (1 flop), 0 real outputs (1 flop) is consistent.
        assert!(SequentialNetlist::new(nl, 2, 0).is_ok());
    }
}
