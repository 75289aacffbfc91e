//! PODEM — deterministic test-pattern generation.
//!
//! Random patterns leave a tail of hard-to-sensitize faults undetected
//! (deep AND/OR structures, reconvergent masking). Commercial ATPG —
//! TetraMAX in the paper — closes that tail with deterministic search.
//! This module implements PODEM (Path-Oriented DEcision Making, Goel
//! 1981): a branch-and-bound search over *primary-input* assignments
//! that either produces a test vector for a stuck-at fault, proves the
//! fault untestable, or gives up after a backtrack budget.
//!
//! The engine works on the five-valued D-algebra: `0`, `1`, `X`,
//! `D` (good 1 / faulty 0) and `D̄` (good 0 / faulty 1).
//!
//! # Example
//!
//! ```
//! use r2d3_netlist::NetlistBuilder;
//! use r2d3_atpg::podem::{podem, PodemResult};
//! use r2d3_atpg::fault::Fault;
//!
//! // A 4-input AND tree: SA0 at the root needs the all-ones pattern —
//! // hard for random patterns, one backtrace for PODEM.
//! let mut b = NetlistBuilder::new();
//! let i = b.inputs(4);
//! let root = b.and_tree(&i);
//! b.output(root);
//! let nl = b.finish();
//!
//! match podem(&nl, Fault::sa0(root), 1000) {
//!     PodemResult::Test(pattern) => {
//!         assert!(pattern.iter().all(|v| *v == Some(true)));
//!     }
//!     other => panic!("expected a test, got {other:?}"),
//! }
//! ```

use crate::fault::Fault;
use r2d3_netlist::{Gate, GateKind, NetId, Netlist};

/// Five-valued D-algebra value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum V5 {
    /// Logic 0 in both good and faulty circuit.
    Zero,
    /// Logic 1 in both circuits.
    One,
    /// Unassigned / unknown.
    X,
    /// Good 1, faulty 0 (the fault effect).
    D,
    /// Good 0, faulty 1.
    Db,
}

impl V5 {
    /// Good-circuit component (`None` = unknown).
    #[must_use]
    pub fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Db => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// Faulty-circuit component (`None` = unknown).
    #[must_use]
    pub fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Db => Some(true),
            V5::X => None,
        }
    }

    /// Whether the value carries a fault effect.
    #[must_use]
    pub fn is_d(self) -> bool {
        matches!(self, V5::D | V5::Db)
    }

    fn from_parts(good: Option<bool>, faulty: Option<bool>) -> V5 {
        match (good, faulty) {
            (Some(false), Some(false)) => V5::Zero,
            (Some(true), Some(true)) => V5::One,
            (Some(true), Some(false)) => V5::D,
            (Some(false), Some(true)) => V5::Db,
            _ => V5::X,
        }
    }

    fn not(self) -> V5 {
        V5::from_parts(self.good().map(|b| !b), self.faulty().map(|b| !b))
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn xor3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x ^ y),
        _ => None,
    }
}

fn v5_and(a: V5, b: V5) -> V5 {
    V5::from_parts(and3(a.good(), b.good()), and3(a.faulty(), b.faulty()))
}

fn v5_or(a: V5, b: V5) -> V5 {
    V5::from_parts(or3(a.good(), b.good()), or3(a.faulty(), b.faulty()))
}

fn v5_xor(a: V5, b: V5) -> V5 {
    V5::from_parts(xor3(a.good(), b.good()), xor3(a.faulty(), b.faulty()))
}

fn v5_mux(s: V5, a: V5, b: V5) -> V5 {
    // out = (s & a) | (!s & b), componentwise.
    v5_or(v5_and(s, a), v5_and(s.not(), b))
}

fn eval_gate(gate: &Gate, values: &[V5]) -> V5 {
    let input = |i: usize| values[gate.inputs[i].index()];
    match gate.kind {
        GateKind::Buf => input(0),
        GateKind::Not => input(0).not(),
        GateKind::And => v5_and(input(0), input(1)),
        GateKind::Or => v5_or(input(0), input(1)),
        GateKind::Nand => v5_and(input(0), input(1)).not(),
        GateKind::Nor => v5_or(input(0), input(1)).not(),
        GateKind::Xor => v5_xor(input(0), input(1)),
        GateKind::Xnor => v5_xor(input(0), input(1)).not(),
        GateKind::Mux => v5_mux(input(0), input(1), input(2)),
        GateKind::Const0 => V5::Zero,
        GateKind::Const1 => V5::One,
    }
}

/// Outcome of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A test vector: per-PI assignment (`None` = don't care).
    Test(Vec<Option<bool>>),
    /// The fault is provably untestable: the search space is exhausted.
    Untestable,
    /// The backtrack budget ran out before a verdict.
    Aborted,
}

/// Runs PODEM for one stuck-at fault.
///
/// `max_backtracks` bounds the search; commercial tools use budgets in
/// the tens of thousands. Returns [`PodemResult::Untestable`] only after
/// exhausting the decision space, so that verdict is a proof.
#[must_use]
pub fn podem(netlist: &Netlist, fault: Fault, max_backtracks: usize) -> PodemResult {
    debug_assert!(
        r2d3_netlist::ir::validate(netlist).is_ok(),
        "PODEM requires a valid IR netlist: {:?}",
        r2d3_netlist::ir::validate(netlist)
    );
    let mut engine = Podem::new(netlist, fault);
    engine.run(max_backtracks)
}

struct Podem<'a> {
    netlist: &'a Netlist,
    fault: Fault,
    /// Current PI assignments.
    pi: Vec<Option<bool>>,
    /// Net values from the last implication pass.
    values: Vec<V5>,
    /// Decision stack: (pi index, value tried first, flipped already?).
    stack: Vec<(usize, bool, bool)>,
    /// `driver[net] = index of the gate driving it` (PIs have none).
    driver: Vec<Option<usize>>,
}

impl<'a> Podem<'a> {
    fn new(netlist: &'a Netlist, fault: Fault) -> Self {
        let mut driver = vec![None; netlist.num_nets()];
        for (gi, gate) in netlist.gates().iter().enumerate() {
            driver[gate.output.index()] = Some(gi);
        }
        Podem {
            netlist,
            fault,
            pi: vec![None; netlist.num_inputs()],
            values: vec![V5::X; netlist.num_nets()],
            stack: Vec::new(),
            driver,
        }
    }

    fn run(&mut self, max_backtracks: usize) -> PodemResult {
        let mut backtracks = 0usize;
        self.imply();
        loop {
            if self.test_found() {
                return PodemResult::Test(self.pi.clone());
            }
            // Choose the next objective and backtrace it to a PI.
            let next = self.objective().and_then(|(net, val)| self.backtrace(net, val));
            match next {
                Some((pi, val)) => {
                    self.pi[pi] = Some(val);
                    self.stack.push((pi, val, false));
                    self.imply();
                }
                None => {
                    // Dead end: undo decisions until an unflipped one.
                    loop {
                        match self.stack.pop() {
                            Some((pi, first, flipped)) if !flipped => {
                                backtracks += 1;
                                if backtracks > max_backtracks {
                                    return PodemResult::Aborted;
                                }
                                self.pi[pi] = Some(!first);
                                self.stack.push((pi, first, true));
                                self.imply();
                                break;
                            }
                            Some((pi, _, _)) => {
                                self.pi[pi] = None;
                            }
                            None => return PodemResult::Untestable,
                        }
                    }
                }
            }
        }
    }

    /// Forward implication: five-valued simulation with the fault
    /// injected at its site.
    fn imply(&mut self) {
        for (i, v) in self.pi.iter().enumerate() {
            let mut val = match v {
                Some(true) => V5::One,
                Some(false) => V5::Zero,
                None => V5::X,
            };
            if self.fault.net.index() == i {
                val = inject(val, self.fault.stuck);
            }
            self.values[i] = val;
        }
        for gate in self.netlist.gates() {
            let mut val = eval_gate(gate, &self.values);
            if gate.output == self.fault.net {
                val = inject(val, self.fault.stuck);
            }
            self.values[gate.output.index()] = val;
        }
    }

    fn test_found(&self) -> bool {
        self.netlist.outputs().iter().any(|o| self.values[o.index()].is_d())
    }

    /// Whether the fault site currently carries (or could carry) the
    /// activating value.
    fn activation_state(&self) -> Activation {
        let v = self.values[self.fault.net.index()];
        if v.is_d() {
            Activation::Active
        } else {
            match v.good() {
                None => Activation::Possible,
                // Good value equals the stuck value: no effect visible.
                Some(g) if g == self.fault.stuck => Activation::Blocked,
                // Good value differs but no D appeared: can only happen
                // at a site whose faulty component is equally fixed —
                // treat as blocked.
                Some(_) => Activation::Blocked,
            }
        }
    }

    /// Next objective `(net, value)`.
    fn objective(&self) -> Option<(NetId, bool)> {
        match self.activation_state() {
            Activation::Blocked => None,
            Activation::Possible => Some((self.fault.net, !self.fault.stuck)),
            Activation::Active => {
                // Propagate: pick a D-frontier gate and set one of its X
                // inputs to the gate's non-controlling value.
                for gate in self.netlist.gates() {
                    if self.values[gate.output.index()] != V5::X {
                        continue;
                    }
                    let has_d = gate.inputs.iter().any(|i| self.values[i.index()].is_d());
                    if !has_d {
                        continue;
                    }
                    let x_input = gate.inputs.iter().find(|i| self.values[i.index()] == V5::X)?;
                    let val = non_controlling(gate.kind)?;
                    return Some((*x_input, val));
                }
                None
            }
        }
    }

    /// Backtraces an objective to an unassigned primary input.
    fn backtrace(&self, mut net: NetId, mut val: bool) -> Option<(usize, bool)> {
        loop {
            match self.driver[net.index()] {
                None => {
                    // Primary input.
                    let idx = net.index();
                    if idx >= self.pi.len() || self.pi[idx].is_some() {
                        return None;
                    }
                    return Some((idx, val));
                }
                Some(gi) => {
                    let gate = &self.netlist.gates()[gi];
                    match gate.kind {
                        GateKind::Const0 | GateKind::Const1 => return None,
                        GateKind::Buf => net = gate.inputs[0],
                        GateKind::Not => {
                            net = gate.inputs[0];
                            val = !val;
                        }
                        GateKind::Nand | GateKind::Nor => {
                            let inner = pick_x_input(gate, &self.values)?;
                            net = inner;
                            val = !val;
                        }
                        GateKind::And | GateKind::Or | GateKind::Xor | GateKind::Xnor => {
                            net = pick_x_input(gate, &self.values)?;
                            // For XOR/XNOR the needed input value depends on
                            // the other input; guessing `val` is fine — PODEM
                            // corrects wrong guesses by backtracking.
                        }
                        GateKind::Mux => {
                            // Prefer steering the select if it is free.
                            let sel = gate.inputs[0];
                            net = if self.values[sel.index()] == V5::X {
                                sel
                            } else {
                                pick_x_input(gate, &self.values)?
                            };
                        }
                    }
                }
            }
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Activation {
    Active,
    Possible,
    Blocked,
}

/// Injects a stuck value into a site's five-valued state.
fn inject(v: V5, stuck: bool) -> V5 {
    V5::from_parts(v.good(), Some(stuck))
}

fn non_controlling(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(true),
        GateKind::Or | GateKind::Nor => Some(false),
        // XOR-family and MUX propagate for either value.
        GateKind::Xor | GateKind::Xnor | GateKind::Mux => Some(false),
        GateKind::Buf | GateKind::Not => Some(true),
        GateKind::Const0 | GateKind::Const1 => None,
    }
}

fn pick_x_input(gate: &Gate, values: &[V5]) -> Option<NetId> {
    gate.inputs.iter().copied().find(|i| values[i.index()] == V5::X)
}

/// Verifies a PODEM test vector by two-valued simulation: the fault must
/// be observable at a primary output with the pattern applied (don't-care
/// inputs set to 0).
#[must_use]
pub fn verify_test(netlist: &Netlist, fault: Fault, pattern: &[Option<bool>]) -> bool {
    let inputs: Vec<u64> =
        pattern.iter().map(|v| if v.unwrap_or(false) { !0u64 } else { 0u64 }).collect();
    let good = netlist.eval_all(&inputs);
    let bad = netlist.eval_all_stuck(&inputs, (fault.net, fault.stuck));
    netlist.outputs().iter().any(|o| (good[o.index()] ^ bad[o.index()]) & 1 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_netlist::NetlistBuilder;

    #[test]
    fn v5_algebra_basics() {
        assert_eq!(v5_and(V5::D, V5::One), V5::D);
        assert_eq!(v5_and(V5::D, V5::Zero), V5::Zero);
        assert_eq!(v5_and(V5::D, V5::Db), V5::Zero, "D & D̄ = (1&0, 0&1) = 0");
        assert_eq!(v5_or(V5::Db, V5::Zero), V5::Db);
        assert_eq!(v5_xor(V5::D, V5::One), V5::Db);
        assert_eq!(V5::D.not(), V5::Db);
        assert_eq!(v5_and(V5::X, V5::Zero), V5::Zero, "controlling beats X");
        assert_eq!(v5_or(V5::X, V5::One), V5::One);
        assert_eq!(v5_and(V5::X, V5::One), V5::X);
    }

    #[test]
    fn finds_test_for_deep_and_tree() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(16);
        let root = b.and_tree(&i);
        b.output(root);
        let nl = b.finish();
        let fault = Fault::sa0(root);
        match podem(&nl, fault, 10_000) {
            PodemResult::Test(p) => {
                assert!(verify_test(&nl, fault, &p), "returned vector must detect");
                assert!(p.iter().all(|v| *v == Some(true)));
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let z = b.redundant_zero(i[0]); // a & !a == 0 always
        let live = b.or2(i[1], z);
        b.output(live);
        let nl = b.finish();
        assert_eq!(podem(&nl, Fault::sa0(z), 10_000), PodemResult::Untestable);
        // The opposite polarity IS testable (forces the OR high).
        match podem(&nl, Fault::sa1(z), 10_000) {
            PodemResult::Test(p) => assert!(verify_test(&nl, Fault::sa1(z), &p)),
            other => panic!("sa1 should be testable, got {other:?}"),
        }
    }

    #[test]
    fn unobservable_fault_untestable() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let dead = b.and2(i[0], i[1]);
        let live = b.xor2(i[0], i[1]);
        let _ = dead;
        b.output(live);
        let nl = b.finish();
        assert_eq!(podem(&nl, Fault::sa1(dead), 10_000), PodemResult::Untestable);
    }

    #[test]
    fn every_test_verifies_on_stage_netlists() {
        use r2d3_netlist::stages::{stage_netlist, StageSizing};
        let sizing = StageSizing { gates_per_mm2: 1_500.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Tlu, &sizing);
        let nl = sn.netlist();
        let faults = crate::fault::collapsed_faults(nl);
        let mut tested = 0;
        let mut untestable = 0;
        let mut aborted = 0;
        for fault in faults.iter().step_by(7) {
            match podem(nl, *fault, 2_000) {
                PodemResult::Test(p) => {
                    tested += 1;
                    assert!(
                        verify_test(nl, *fault, &p),
                        "PODEM vector for {fault} fails simulation"
                    );
                }
                PodemResult::Untestable => untestable += 1,
                PodemResult::Aborted => aborted += 1,
            }
        }
        assert!(tested > 0, "PODEM generated no tests");
        // Ground-truth redundant faults exist in the generated stage, so
        // some untestable verdicts should appear over a broad sample.
        assert!(
            tested + untestable + aborted > 0 && aborted <= tested,
            "tested {tested}, untestable {untestable}, aborted {aborted}"
        );
    }

    #[test]
    fn untestable_verdicts_agree_with_ground_truth() {
        use r2d3_netlist::stages::{stage_netlist, StageSizing};
        let sizing = StageSizing { gates_per_mm2: 1_500.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Ffu, &sizing);
        let nl = sn.netlist();
        for &(net, val) in nl.redundant_constants() {
            // Stuck at the constant value is provably undetectable.
            let fault = Fault { net, stuck: val };
            match podem(nl, fault, 5_000) {
                PodemResult::Untestable | PodemResult::Aborted => {}
                PodemResult::Test(p) => {
                    assert!(
                        !verify_test(nl, fault, &p),
                        "PODEM 'detected' a provably redundant fault {fault}"
                    );
                    panic!("PODEM returned a test for redundant fault {fault}");
                }
            }
        }
    }

    #[test]
    fn mux_propagation_works() {
        // Fault behind a mux: PODEM must steer the select.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(3); // sel, a, b
        let inner = b.and2(i[1], i[2]);
        let out = b.mux2(i[0], inner, i[2]);
        b.output(out);
        let nl = b.finish();
        let fault = Fault::sa0(inner);
        match podem(&nl, fault, 10_000) {
            PodemResult::Test(p) => assert!(verify_test(&nl, fault, &p)),
            other => panic!("expected test, got {other:?}"),
        }
    }
}
