//! Core netlist representation and bit-parallel evaluation.

use crate::NetlistError;
use std::fmt;

/// Index of a signal net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// The net's index as a `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Primitive gate types.
///
/// `Mux` takes three inputs `(sel, a, b)` and produces `sel ? a : b`.
/// `Const0`/`Const1` take no inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum GateKind {
    Buf,
    Not,
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Mux,
    Const0,
    Const1,
}

impl GateKind {
    /// Number of input pins the gate kind expects (`And`/`Or`/… are 2-input).
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => 2,
            GateKind::Mux => 3,
            GateKind::Const0 | GateKind::Const1 => 0,
        }
    }
}

/// A gate instance: a kind, input nets and one output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Gate function.
    pub kind: GateKind,
    /// Input nets (length = `kind.arity()`).
    pub inputs: Vec<NetId>,
    /// Output net (unique driver).
    pub output: NetId,
}

impl Gate {
    fn eval(&self, values: &[u64]) -> u64 {
        let input = |i: usize| values[self.inputs[i].index()];
        match self.kind {
            GateKind::Buf => input(0),
            GateKind::Not => !input(0),
            GateKind::And => input(0) & input(1),
            GateKind::Or => input(0) | input(1),
            GateKind::Nand => !(input(0) & input(1)),
            GateKind::Nor => !(input(0) | input(1)),
            GateKind::Xor => input(0) ^ input(1),
            GateKind::Xnor => !(input(0) ^ input(1)),
            GateKind::Mux => (input(0) & input(1)) | (!input(0) & input(2)),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
        }
    }
}

/// A combinational netlist in topological order.
///
/// Primary inputs come first in the net numbering, gates are stored in a
/// valid evaluation order (the builder guarantees inputs are driven before
/// use), and a subset of nets are designated primary outputs.
///
/// Evaluation is 64-way bit-parallel: each `u64` carries 64 independent
/// test patterns, one per bit lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    num_nets: usize,
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<NetId>,
    /// Nets that are constant by construction, with their constant value.
    /// Stuck-at faults matching the constant are provably undetectable;
    /// the ATPG campaign uses this as ground truth.
    redundant_constants: Vec<(NetId, bool)>,
}

impl Netlist {
    pub(crate) fn from_parts(
        num_nets: usize,
        num_inputs: usize,
        gates: Vec<Gate>,
        outputs: Vec<NetId>,
        redundant_constants: Vec<(NetId, bool)>,
    ) -> Self {
        Netlist { num_nets, num_inputs, gates, outputs, redundant_constants }
    }

    /// Total number of nets (inputs + gate outputs).
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of primary inputs (nets `0..num_inputs`).
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates in evaluation order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary output nets.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Primary input nets (`0..num_inputs`).
    pub fn inputs(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.num_inputs as u32).map(NetId)
    }

    /// Nets that are constant by construction (ground truth for
    /// undetectable stuck-at faults), as `(net, constant_value)` pairs.
    #[must_use]
    pub fn redundant_constants(&self) -> &[(NetId, bool)] {
        &self.redundant_constants
    }

    /// Validates structural invariants: every gate input is driven by a
    /// primary input or an earlier gate, and every net has at most one
    /// driver.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut driven = vec![false; self.num_nets];
        for d in driven.iter_mut().take(self.num_inputs) {
            *d = true;
        }
        for (i, gate) in self.gates.iter().enumerate() {
            for &input in &gate.inputs {
                if !driven[input.index()] {
                    return Err(NetlistError::UndrivenInput { gate_index: i, net: input });
                }
            }
            if driven[gate.output.index()] {
                return Err(NetlistError::MultipleDrivers(gate.output));
            }
            driven[gate.output.index()] = true;
        }
        Ok(())
    }

    /// Evaluates all nets for 64 parallel patterns.
    ///
    /// `inputs[i]` carries 64 values (one per bit lane) for primary input
    /// `i`. Returns the full net-value vector.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    #[must_use]
    pub fn eval_all(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "primary input width mismatch");
        let mut values = vec![0u64; self.num_nets];
        values[..self.num_inputs].copy_from_slice(inputs);
        for gate in &self.gates {
            values[gate.output.index()] = gate.eval(&values);
        }
        values
    }

    /// Allocation-free variant of [`eval_all`](Netlist::eval_all): writes
    /// every net's value into `values`, resizing it if needed. Intended
    /// for loops that evaluate many pattern blocks.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval_all_into(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(inputs.len(), self.num_inputs, "primary input width mismatch");
        values.clear();
        values.resize(self.num_nets, 0);
        values[..self.num_inputs].copy_from_slice(inputs);
        for gate in &self.gates {
            values[gate.output.index()] = gate.eval(values);
        }
    }

    /// Evaluates all nets with one net overridden to a stuck value
    /// (bit-parallel fault simulation primitive).
    ///
    /// `stuck` is `(net, value)`: after the net's driver evaluates (or, for
    /// a primary input, immediately), the net is forced to all-0s or all-1s.
    #[must_use]
    pub fn eval_all_stuck(&self, inputs: &[u64], stuck: (NetId, bool)) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "primary input width mismatch");
        let (fnet, fval) = stuck;
        let forced = if fval { !0u64 } else { 0u64 };
        let mut values = vec![0u64; self.num_nets];
        values[..self.num_inputs].copy_from_slice(inputs);
        if fnet.index() < self.num_inputs {
            values[fnet.index()] = forced;
        }
        for gate in &self.gates {
            let v = gate.eval(&values);
            values[gate.output.index()] = if gate.output == fnet { forced } else { v };
        }
        values
    }

    /// Allocation-free variant of [`eval_all_stuck`](Netlist::eval_all_stuck):
    /// writes net values into `values`, resizing it if needed. Intended for
    /// fault-simulation inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval_all_stuck_into(&self, inputs: &[u64], stuck: (NetId, bool), values: &mut Vec<u64>) {
        assert_eq!(inputs.len(), self.num_inputs, "primary input width mismatch");
        let (fnet, fval) = stuck;
        let forced = if fval { !0u64 } else { 0u64 };
        values.clear();
        values.resize(self.num_nets, 0);
        values[..self.num_inputs].copy_from_slice(inputs);
        if fnet.index() < self.num_inputs {
            values[fnet.index()] = forced;
        }
        for gate in &self.gates {
            let v = gate.eval(values);
            values[gate.output.index()] = if gate.output == fnet { forced } else { v };
        }
    }

    /// Evaluates and returns only the primary-output lanes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    #[must_use]
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        let values = self.eval_all(inputs);
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Extracts primary-output values from a full net-value vector.
    #[must_use]
    pub fn output_values(&self, values: &[u64]) -> Vec<u64> {
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }
}

/// Width-adaptation policy for [`compose_chain_with`].
///
/// When a stage produces more outputs than the next stage consumes, the
/// leftovers are either *dropped* (their exclusive logic cones become
/// unobservable at the core boundary) or *absorbed* into consumed signals
/// through glue gates. OR-glue keeps the cone structurally reachable but
/// heavily logic-masked (random patterns rarely sensitize it); XOR-glue is
/// transparent. The mix controls how much core-boundary masking the
/// composition exhibits, which is the knob behind the paper's 96 % → 84 %
/// stage-to-core coverage drop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeOptions {
    /// Fraction of leftover outputs absorbed (rest are dropped).
    pub absorb_fraction: f64,
    /// Of the absorbed outputs, fraction glued transparently (direct XOR
    /// into a consumed line — fault effects propagate on every pattern).
    /// The rest are funneled through deep OR chains (see `mask_depth`).
    pub transparent_fraction: f64,
    /// Length of the masking OR chains used for non-transparent
    /// absorption. Chain tails are XORed back into consumed lines, which
    /// both keeps absorbed cones structurally observable and creates
    /// reconvergent paths whose XOR cancellation masks fault effects —
    /// exactly the behaviour of logic buried behind downstream pipeline
    /// stages.
    pub mask_depth: usize,
    /// If set, only the first `n` outputs of the final stage are
    /// observable (the architectural core boundary); the rest of the last
    /// stage's outputs are internal. `None` observes everything.
    pub observe_limit: Option<usize>,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            absorb_fraction: 0.0,
            transparent_fraction: 0.0,
            mask_depth: 14,
            observe_limit: None,
        }
    }
}

impl ComposeOptions {
    /// Calibrated options for modeling a *core-level* detection
    /// architecture over the default [`crate::stages`] netlists: part of
    /// each stage's boundary signals is simply invisible at the core
    /// boundary, the rest funnels through masking glue, and only the final
    /// stage's architectural outputs are observed.
    ///
    /// With these options the default five-unit chain measures ≈85 %
    /// detectable faults and ≈70 % of detectable faults detected within
    /// 5 k patterns, reproducing the paper's Fig. 4 stage-vs-core gap
    /// (96 % → 84 % coverage, 96 % → 63 % within 5 k).
    #[must_use]
    pub fn core_level() -> Self {
        ComposeOptions {
            absorb_fraction: 0.45,
            transparent_fraction: 0.0,
            mask_depth: 14,
            observe_limit: Some(23),
        }
    }
}

/// Composes a chain of netlists: stage `i`'s primary outputs feed stage
/// `i+1`'s primary inputs; only the *last* stage's outputs are observable.
///
/// This models core-level fault observation (paper Fig. 4(b) "Core Level"):
/// a fault effect inside an upstream stage must functionally propagate
/// through all downstream stages before a core-boundary checker can see it,
/// so logic masking reduces effective coverage.
///
/// Width adaptation: if a stage has more inputs than the previous stage has
/// outputs, the outputs are reused cyclically; extra outputs are handled
/// per [`ComposeOptions`] (dropped by default — see [`compose_chain_with`]).
/// Returns the composed netlist and, for each chained stage, a map from
/// that stage's local net indices to composed nets (so fault sites can be
/// mapped from a stage-local netlist into the composition).
///
/// # Errors
///
/// Returns [`NetlistError::EmptyChain`] if `stages` is empty.
pub fn compose_chain(stages: &[&Netlist]) -> Result<(Netlist, Vec<Vec<NetId>>), NetlistError> {
    compose_chain_with(stages, &ComposeOptions::default())
}

/// [`compose_chain`] with explicit width-adaptation options.
///
/// # Errors
///
/// Returns [`NetlistError::EmptyChain`] if `stages` is empty.
pub fn compose_chain_with(
    stages: &[&Netlist],
    options: &ComposeOptions,
) -> Result<(Netlist, Vec<Vec<NetId>>), NetlistError> {
    let first = *stages.first().ok_or(NetlistError::EmptyChain)?;

    let mut gates: Vec<Gate> = Vec::new();
    let mut redundant = Vec::new();
    let mut maps: Vec<Vec<NetId>> = Vec::with_capacity(stages.len());

    // The composed circuit's primary inputs are the first stage's inputs.
    let num_inputs = first.num_inputs();
    let mut next_net = num_inputs as u32;

    // Stage 0's inputs map to composed inputs directly.
    let mut prev_outputs: Vec<NetId> = Vec::new();

    for (si, stage) in stages.iter().enumerate() {
        let mut map = vec![NetId(u32::MAX); stage.num_nets()];
        if si == 0 {
            for (i, slot) in map.iter_mut().enumerate().take(stage.num_inputs()) {
                *slot = NetId(i as u32);
            }
        } else {
            // Absorb or drop leftover previous outputs before wiring.
            let consumed = stage.num_inputs().min(prev_outputs.len());
            if prev_outputs.len() > consumed {
                let leftovers: Vec<NetId> = prev_outputs.split_off(consumed);
                let mut emit = |kind: GateKind, a: NetId, c: NetId| {
                    let out = NetId(next_net);
                    next_net += 1;
                    gates.push(Gate { kind, inputs: vec![a, c], output: out });
                    out
                };
                // Masked leftovers accumulate into deep OR chains; each
                // full chain's tail is XORed into one consumed line.
                let mut chain: Option<(NetId, usize)> = None;
                let mut chain_slot = 0usize;
                for (k, leftover) in leftovers.into_iter().enumerate() {
                    // Deterministic per-leftover decision (no RNG dep).
                    let h = hash_index(si, k);
                    if (h % 1000) as f64 >= options.absorb_fraction * 1000.0 {
                        continue; // dropped: cone becomes unobservable
                    }
                    let hs = ((h / 1000) % 1000) as f64;
                    if hs < options.transparent_fraction * 1000.0 {
                        let j = k % consumed;
                        prev_outputs[j] = emit(GateKind::Xor, prev_outputs[j], leftover);
                        continue;
                    }
                    chain = Some(match chain {
                        None => (leftover, 1),
                        Some((acc, n)) => (emit(GateKind::Or, acc, leftover), n + 1),
                    });
                    if let Some((acc, n)) = chain {
                        if n >= options.mask_depth.max(2) {
                            let j = chain_slot % consumed;
                            prev_outputs[j] = emit(GateKind::Xor, prev_outputs[j], acc);
                            chain_slot += 1;
                            chain = None;
                        }
                    }
                }
                if let Some((acc, _)) = chain {
                    let j = chain_slot % consumed;
                    prev_outputs[j] = emit(GateKind::Xor, prev_outputs[j], acc);
                }
            }
            // Feed this stage's inputs from previous outputs (cyclically).
            for i in 0..stage.num_inputs() {
                map[i] = prev_outputs[i % prev_outputs.len()];
            }
        }
        // Allocate composed nets for this stage's gate outputs, preserving
        // gate order (which preserves topological validity).
        for gate in stage.gates() {
            let out = NetId(next_net);
            next_net += 1;
            map[gate.output.index()] = out;
        }
        // Emit the gates with remapped nets.
        for gate in stage.gates() {
            gates.push(Gate {
                kind: gate.kind,
                inputs: gate.inputs.iter().map(|n| map[n.index()]).collect(),
                output: map[gate.output.index()],
            });
        }
        for &(net, val) in stage.redundant_constants() {
            let mapped = map[net.index()];
            if mapped != NetId(u32::MAX) {
                redundant.push((mapped, val));
            }
        }
        prev_outputs = stage.outputs().iter().map(|o| map[o.index()]).collect();
        if prev_outputs.is_empty() {
            return Err(NetlistError::EmptyChain);
        }
        maps.push(map);
    }

    if let Some(limit) = options.observe_limit {
        prev_outputs.truncate(limit.max(1));
    }

    let composed =
        Netlist::from_parts(next_net as usize, num_inputs, gates, prev_outputs, redundant);
    Ok((composed, maps))
}

/// SplitMix64-style hash of a `(stage, leftover)` pair, used for
/// deterministic absorb/drop decisions in [`compose_chain_with`].
fn hash_index(stage: usize, k: usize) -> u64 {
    let mut x = (stage as u64) << 32 | k as u64;
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn xor_circuit() -> Netlist {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let x = b.xor2(i[0], i[1]);
        b.output(x);
        b.finish()
    }

    #[test]
    fn gate_eval_truth_tables() {
        // lanes: bit0 = (0,0), bit1 = (0,1), bit2 = (1,0), bit3 = (1,1)
        let a = 0b1100u64;
        let b = 0b1010u64;
        let nl = xor_circuit();
        let out = nl.eval(&[a, b]);
        assert_eq!(out[0] & 0xf, 0b0110);
    }

    #[test]
    fn mux_semantics() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(3); // sel, a, b
        let m = b.mux2(i[0], i[1], i[2]);
        b.output(m);
        let nl = b.finish();
        // sel=1 -> a; sel=0 -> b
        let out = nl.eval(&[0b10, 0b11, 0b01]);
        assert_eq!(out[0] & 0b11, 0b11, "lane0: sel=0 picks b=1; lane1: sel=1 picks a=1");
    }

    #[test]
    fn stuck_at_changes_output() {
        let nl = xor_circuit();
        let good = nl.eval(&[0b1100, 0b1010]);
        let bad = {
            let v = nl.eval_all_stuck(&[0b1100, 0b1010], (nl.outputs()[0], false));
            nl.output_values(&v)
        };
        assert_ne!(good[0] & 0xf, bad[0] & 0xf);
        assert_eq!(bad[0] & 0xf, 0);
    }

    #[test]
    fn stuck_at_on_primary_input() {
        let nl = xor_circuit();
        let v = nl.eval_all_stuck(&[0, 0], (NetId(0), true));
        assert_eq!(nl.output_values(&v)[0], !0u64, "sa1 on input a makes xor = 1");
    }

    #[test]
    fn validate_accepts_builder_output() {
        xor_circuit().validate().unwrap();
    }

    #[test]
    fn compose_two_stages() {
        // Stage: 2-in, 2-out (pass-through xor + and).
        let stage = || {
            let mut b = NetlistBuilder::new();
            let i = b.inputs(2);
            let x = b.xor2(i[0], i[1]);
            let y = b.and2(i[0], i[1]);
            b.output(x);
            b.output(y);
            b.finish()
        };
        let s1 = stage();
        let s2 = stage();
        let (composed, maps) = compose_chain(&[&s1, &s2]).unwrap();
        composed.validate().unwrap();
        assert_eq!(composed.num_inputs(), 2);
        assert_eq!(composed.outputs().len(), 2);
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].len(), s1.num_nets());
        // (a,b) -> stage1 (x=a^b, y=a&b) -> stage2 (x^y, x&y)
        let a = 0b1100u64;
        let b = 0b1010u64;
        let out = composed.eval(&[a, b]);
        let x1 = a ^ b;
        let y1 = a & b;
        assert_eq!(out[0] & 0xf, (x1 ^ y1) & 0xf);
        assert_eq!(out[1] & 0xf, (x1 & y1) & 0xf);
    }

    #[test]
    fn compose_empty_is_error() {
        assert!(matches!(compose_chain(&[]), Err(NetlistError::EmptyChain)));
    }
}
