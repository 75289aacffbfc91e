//! Netlist construction combinators.

use crate::netlist::{Gate, GateKind, NetId, Netlist};

/// Incremental netlist builder.
///
/// Gates must be created after their input nets, which makes the gate list
/// topologically ordered by construction; [`finish`](NetlistBuilder::finish)
/// asserts that invariant in debug builds.
///
/// # Example
///
/// ```
/// use r2d3_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.inputs(8);
/// let bb = b.inputs(8);
/// let eq = b.equal(&a, &bb);
/// b.output(eq);
/// let nl = b.finish();
/// assert_eq!(nl.num_inputs(), 16);
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    num_inputs: usize,
    next_net: u32,
    gates: Vec<Gate>,
    outputs: Vec<NetId>,
    redundant_constants: Vec<(NetId, bool)>,
    inputs_frozen: bool,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Allocates `n` new primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if called after the first gate was created (inputs must be
    /// allocated first so they occupy the low net indices).
    pub fn inputs(&mut self, n: usize) -> Vec<NetId> {
        assert!(!self.inputs_frozen, "allocate all inputs before creating gates");
        let start = self.next_net;
        self.next_net += n as u32;
        self.num_inputs += n;
        (start..self.next_net).map(NetId).collect()
    }

    /// Allocates a single primary input.
    pub fn input(&mut self) -> NetId {
        self.inputs(1)[0]
    }

    fn fresh(&mut self) -> NetId {
        let id = NetId(self.next_net);
        self.next_net += 1;
        id
    }

    /// Creates a gate and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != kind.arity()`.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "wrong arity for {kind:?}");
        self.inputs_frozen = true;
        let output = self.fresh();
        self.gates.push(Gate { kind, inputs: inputs.to_vec(), output });
        output
    }

    /// Constant 0 or 1 net.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.gate(if value { GateKind::Const1 } else { GateKind::Const0 }, &[])
    }

    /// `!a`
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Not, &[a])
    }

    /// `a & b`
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::And, &[a, b])
    }

    /// `a | b`
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Or, &[a, b])
    }

    /// `a ^ b`
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Xor, &[a, b])
    }

    /// `sel ? a : b`
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Mux, &[sel, a, b])
    }

    /// Balanced AND tree over `nets` (empty → constant 1).
    pub fn and_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(GateKind::And, nets, true)
    }

    /// Balanced OR tree over `nets` (empty → constant 0).
    pub fn or_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(GateKind::Or, nets, false)
    }

    /// Balanced XOR (parity) tree over `nets` (empty → constant 0).
    pub fn xor_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(GateKind::Xor, nets, false)
    }

    fn tree(&mut self, kind: GateKind, nets: &[NetId], empty_value: bool) -> NetId {
        match nets.len() {
            0 => self.constant(empty_value),
            1 => nets[0],
            _ => {
                let mut layer: Vec<NetId> = nets.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            self.gate(kind, &[pair[0], pair[1]])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Full adder; returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let t1 = self.and2(a, b);
        let t2 = self.and2(axb, cin);
        let cout = self.or2(t1, t2);
        (sum, cout)
    }

    /// Ripple-carry adder over equal-width operands; returns
    /// `(sum_bits, carry_out)` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn ripple_adder(&mut self, a: &[NetId], b: &[NetId], cin: NetId) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "adder operand widths differ");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&ai, &bi) in a.iter().zip(b) {
            let (s, c) = self.full_adder(ai, bi, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Subtractor `a - b` via two's complement; returns `(diff, borrow_out)`.
    pub fn subtractor(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        let nb: Vec<NetId> = b.iter().map(|&x| self.not(x)).collect();
        let one = self.constant(true);
        let (diff, carry) = self.ripple_adder(a, &nb, one);
        let borrow = self.not(carry);
        (diff, borrow)
    }

    /// Bitwise equality comparator (XNOR reduce).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn equal(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len(), "comparator operand widths differ");
        let eqs: Vec<NetId> =
            a.iter().zip(b).map(|(&x, &y)| self.gate(GateKind::Xnor, &[x, y])).collect();
        self.and_tree(&eqs)
    }

    /// Word-wide 2:1 mux (`sel ? a : b`).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn mux_word(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "mux operand widths differ");
        a.iter().zip(b).map(|(&x, &y)| self.mux2(sel, x, y)).collect()
    }

    /// Logarithmic barrel shifter (left shift by `shamt`, zero fill).
    /// `shamt` is LSB-first; only `log2(width)` bits are used.
    pub fn barrel_shift_left(&mut self, value: &[NetId], shamt: &[NetId]) -> Vec<NetId> {
        let width = value.len();
        let zero = self.constant(false);
        let mut cur: Vec<NetId> = value.to_vec();
        let stages = usize::BITS - (width.max(2) - 1).leading_zeros();
        for s in 0..stages as usize {
            let Some(&sel) = shamt.get(s) else { break };
            let shift = 1usize << s;
            let shifted: Vec<NetId> =
                (0..width).map(|i| if i >= shift { cur[i - shift] } else { zero }).collect();
            cur = self.mux_word(sel, &shifted, &cur);
        }
        cur
    }

    /// Array multiplier over unsigned operands; returns the low
    /// `a.len() + b.len()` product bits (LSB first).
    pub fn array_multiplier(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        let zero = self.constant(false);
        let out_w = a.len() + b.len();
        let mut acc: Vec<NetId> = vec![zero; out_w];
        for (j, &bj) in b.iter().enumerate() {
            // Partial product row: (a & bj) << j, padded to out_w.
            let mut row: Vec<NetId> = vec![zero; out_w];
            for (i, &ai) in a.iter().enumerate() {
                row[i + j] = self.and2(ai, bj);
            }
            let (sum, _c) = self.ripple_adder(&acc, &row, zero);
            acc = sum;
        }
        acc
    }

    /// Priority encoder: given request lines (index 0 = highest priority),
    /// returns one-hot grant lines.
    pub fn priority_encoder(&mut self, requests: &[NetId]) -> Vec<NetId> {
        let mut grants = Vec::with_capacity(requests.len());
        let mut none_above = self.constant(true);
        for &req in requests {
            let grant = self.and2(req, none_above);
            grants.push(grant);
            let n = self.not(req);
            none_above = self.and2(none_above, n);
        }
        grants
    }

    /// Binary decoder: `sel` (LSB first) to `2^sel.len()` one-hot lines.
    pub fn decoder(&mut self, sel: &[NetId]) -> Vec<NetId> {
        let n = 1usize << sel.len();
        let inv: Vec<NetId> = sel.iter().map(|&s| self.not(s)).collect();
        (0..n)
            .map(|i| {
                let terms: Vec<NetId> = sel
                    .iter()
                    .enumerate()
                    .map(|(b, &s)| if (i >> b) & 1 == 1 { s } else { inv[b] })
                    .collect();
                self.and_tree(&terms)
            })
            .collect()
    }

    /// Inserts a *redundant* constant-0 net: `a & !a`. The returned net is
    /// provably always 0, so its stuck-at-0 fault is undetectable. The net
    /// is registered in [`Netlist::redundant_constants`].
    ///
    /// ORing this net into a live path keeps the surrounding logic
    /// functionally unchanged while adding genuinely untestable fault
    /// sites — ground truth for the campaign's "undetectable" class.
    pub fn redundant_zero(&mut self, a: NetId) -> NetId {
        let na = self.not(a);
        let z = self.and2(a, na);
        self.redundant_constants.push((z, false));
        z
    }

    /// Inserts a redundant constant-1 net: `a | !a` (stuck-at-1 undetectable).
    pub fn redundant_one(&mut self, a: NetId) -> NetId {
        let na = self.not(a);
        let o = self.or2(a, na);
        self.redundant_constants.push((o, true));
        o
    }

    /// Registers `net` as constant-by-construction with value `value`.
    ///
    /// Use this when deriving further constant nets from a
    /// [`redundant_zero`](NetlistBuilder::redundant_zero) /
    /// [`redundant_one`](NetlistBuilder::redundant_one) root (e.g. an AND
    /// of a constant-0 net with anything is still constant 0). The caller
    /// is responsible for the constant-ness claim; stage generators verify
    /// it by simulation in their tests.
    pub fn mark_redundant(&mut self, net: NetId, value: bool) {
        self.redundant_constants.push((net, value));
    }

    /// Marks a net as a primary output.
    pub fn output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Marks several nets as primary outputs.
    pub fn outputs(&mut self, nets: &[NetId]) {
        self.outputs.extend_from_slice(nets);
    }

    /// Finalizes the netlist.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the netlist violates a structural IR
    /// invariant checked by [`crate::ir::validate`].
    #[must_use]
    pub fn finish(self) -> Netlist {
        let nl = Netlist::from_parts(
            self.next_net as usize,
            self.num_inputs,
            self.gates,
            self.outputs,
            self.redundant_constants,
        );
        debug_assert_eq!(crate::ir::validate(&nl), Ok(()));
        nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits_to_lanes(value: u64, width: usize) -> Vec<u64> {
        (0..width).map(|i| (value >> i) & 1).collect()
    }

    fn lanes_to_bits(lanes: &[u64]) -> u64 {
        lanes.iter().enumerate().fold(0u64, |acc, (i, l)| acc | ((l & 1) << i))
    }

    #[test]
    fn adder_adds() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(8);
        let bb = b.inputs(8);
        let zero = b.constant(false);
        let (sum, cout) = b.ripple_adder(&a, &bb, zero);
        b.outputs(&sum);
        b.output(cout);
        let nl = b.finish();
        for (x, y) in [(0u64, 0u64), (1, 1), (200, 100), (255, 255), (37, 91)] {
            let mut lanes = bits_to_lanes(x, 8);
            lanes.extend(bits_to_lanes(y, 8));
            let out = nl.eval(&lanes);
            let got = lanes_to_bits(&out);
            assert_eq!(got, (x + y) & 0x1ff, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_subtracts() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(8);
        let bb = b.inputs(8);
        let (diff, borrow) = b.subtractor(&a, &bb);
        b.outputs(&diff);
        b.output(borrow);
        let nl = b.finish();
        for (x, y) in [(10u64, 3u64), (3, 10), (255, 0), (0, 255)] {
            let mut lanes = bits_to_lanes(x, 8);
            lanes.extend(bits_to_lanes(y, 8));
            let out = nl.eval(&lanes);
            let diff_got = lanes_to_bits(&out[..8]);
            let borrow_got = out[8] & 1;
            assert_eq!(diff_got, x.wrapping_sub(y) & 0xff, "{x}-{y}");
            assert_eq!(borrow_got, u64::from(x < y), "borrow for {x}-{y}");
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(6);
        let bb = b.inputs(6);
        let p = b.array_multiplier(&a, &bb);
        b.outputs(&p);
        let nl = b.finish();
        for (x, y) in [(0u64, 0u64), (1, 63), (63, 63), (12, 5), (31, 33 & 63)] {
            let mut lanes = bits_to_lanes(x, 6);
            lanes.extend(bits_to_lanes(y, 6));
            let out = nl.eval(&lanes);
            assert_eq!(lanes_to_bits(&out), x * y, "{x}*{y}");
        }
    }

    #[test]
    fn barrel_shifter_shifts() {
        let mut b = NetlistBuilder::new();
        let v = b.inputs(8);
        let s = b.inputs(3);
        let out = b.barrel_shift_left(&v, &s);
        b.outputs(&out);
        let nl = b.finish();
        for (x, sh) in [(0b1u64, 0u64), (0b1, 7), (0xff, 4), (0b1011, 2)] {
            let mut lanes = bits_to_lanes(x, 8);
            lanes.extend(bits_to_lanes(sh, 3));
            let got = lanes_to_bits(&nl.eval(&lanes));
            assert_eq!(got, (x << sh) & 0xff, "{x}<<{sh}");
        }
    }

    #[test]
    fn priority_encoder_grants_highest() {
        let mut b = NetlistBuilder::new();
        let req = b.inputs(4);
        let g = b.priority_encoder(&req);
        b.outputs(&g);
        let nl = b.finish();
        for (r, want) in
            [(0b0000u64, 0b0000u64), (0b0110, 0b0010), (0b1000, 0b1000), (0b1111, 0b0001)]
        {
            let lanes = bits_to_lanes(r, 4);
            assert_eq!(lanes_to_bits(&nl.eval(&lanes)), want, "req {r:#b}");
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new();
        let s = b.inputs(3);
        let d = b.decoder(&s);
        b.outputs(&d);
        let nl = b.finish();
        for v in 0..8u64 {
            let got = lanes_to_bits(&nl.eval(&bits_to_lanes(v, 3)));
            assert_eq!(got, 1 << v, "decode {v}");
        }
    }

    #[test]
    fn redundant_nets_are_constant() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(1);
        let z = b.redundant_zero(a[0]);
        let o = b.redundant_one(a[0]);
        let live = b.or2(a[0], z);
        let live2 = b.and2(live, o);
        b.output(live2);
        let nl = b.finish();
        assert_eq!(nl.redundant_constants().len(), 2);
        // Function is unchanged: output == input.
        for v in [0u64, 1] {
            assert_eq!(nl.eval(&[v])[0] & 1, v);
        }
    }

    proptest! {
        #[test]
        fn equal_matches_semantics(x in 0u64..256, y in 0u64..256) {
            let mut b = NetlistBuilder::new();
            let a = b.inputs(8);
            let bb = b.inputs(8);
            let eq = b.equal(&a, &bb);
            b.output(eq);
            let nl = b.finish();
            let mut lanes = bits_to_lanes(x, 8);
            lanes.extend(bits_to_lanes(y, 8));
            prop_assert_eq!(nl.eval(&lanes)[0] & 1, u64::from(x == y));
        }

        #[test]
        fn adder_random(x in 0u64..65536, y in 0u64..65536) {
            let mut b = NetlistBuilder::new();
            let a = b.inputs(16);
            let bb = b.inputs(16);
            let zero = b.constant(false);
            let (sum, _) = b.ripple_adder(&a, &bb, zero);
            b.outputs(&sum);
            let nl = b.finish();
            let mut lanes = bits_to_lanes(x, 16);
            lanes.extend(bits_to_lanes(y, 16));
            prop_assert_eq!(lanes_to_bits(&nl.eval(&lanes)), (x + y) & 0xffff);
        }
    }
}
