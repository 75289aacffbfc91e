//! Structural stuck-at fault collapsing: equivalence classes, one
//! simulated representative per class, verdicts expanded back to members.
//!
//! Two stuck-at faults are *equivalent* when the two faulty circuits
//! compute the same function on every input — no test can tell them
//! apart, so simulating one answers for both. This module builds the
//! classical gate-level equivalence classes with a union-find over fault
//! keys, using only rules that are **function-exact** (never dominance,
//! which preserves detectability but not detection words):
//!
//! * `Buf`: `i/v ≡ o/v` — the buffer copies the forced value.
//! * `Not`: `i/v ≡ o/!v`.
//! * `And`: `i/0 ≡ o/0` — a controlling 0 forces the output everywhere.
//! * `Nand`: `i/0 ≡ o/1`; `Or`: `i/1 ≡ o/1`; `Nor`: `i/1 ≡ o/0`.
//! * `Xor`/`Xnor`/`Mux`/constants: no input fault forces the output —
//!   no rule.
//!
//! Every rule additionally requires the input net to have **fanout 1**
//! (exactly one gate read, no primary-output use): if the net feeds
//! anything else, the input fault disturbs that second path too and the
//! faulty functions differ. Under that guard the rules are exact, so
//! union-find transitivity is sound (e.g. a buffer chain collapses to
//! one class per polarity, and `a AND b` yields `{a/0, b/0, out/0}`).
//!
//! # Determinism contract
//!
//! [`FaultClasses::build`] is a pure function of netlist structure; the
//! representative of each class is the member with the smallest fault
//! key (net-major, SA0 before SA1), so collapsing is deterministic and
//! stable across runs, platforms, and thread counts. Because members of
//! a class have byte-identical detection words on every pattern block,
//! a campaign that simulates only representatives and copies each
//! verdict to the class members reproduces the uncollapsed campaign's
//! statuses, first-detection pattern indices, and applied-pattern
//! counts **byte-identically** — `campaign::run_campaign` relies on
//! exactly this, and the proptest suite in `tests/` pins it against the
//! uncollapsed oracle.

use crate::fault::Fault;
use r2d3_netlist::{GateKind, NetId, Netlist};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Equivalence classes over the full stuck-at fault universe of one
/// netlist (two keys per net: `net * 2 + stuck`).
///
/// After [`build`](FaultClasses::build), every key points directly at
/// its class representative — the smallest key in the class — so
/// queries are `O(1)` with no interior mutability.
#[derive(Debug, Clone)]
pub struct FaultClasses {
    /// `rep[key]` = smallest key in `key`'s class (== `key` for
    /// representatives and singletons).
    rep: Vec<u32>,
}

/// Union-find `find` with path halving over a mutable parent table.
fn find(parent: &mut [u32], mut k: u32) -> u32 {
    while parent[k as usize] != k {
        parent[k as usize] = parent[parent[k as usize] as usize];
        k = parent[k as usize];
    }
    k
}

impl FaultClasses {
    /// Builds the equivalence classes for `netlist`'s fault universe.
    #[must_use]
    pub fn build(netlist: &Netlist) -> Self {
        debug_assert!(
            r2d3_netlist::ir::validate(netlist).is_ok(),
            "fault collapsing requires a valid IR netlist: {:?}",
            r2d3_netlist::ir::validate(netlist)
        );
        let num_nets = netlist.num_nets();
        let mut parent: Vec<u32> = (0..2 * num_nets as u32).collect();

        // Fanout = gate reads + primary-output uses. The rules below only
        // fire on fanout-1 nets, whose single use is the gate read at
        // hand (a gate reading the same net twice counts twice, so such
        // nets are excluded too).
        let mut fanout = vec![0usize; num_nets];
        for gate in netlist.gates() {
            for input in &gate.inputs {
                fanout[input.index()] += 1;
            }
        }
        for out in netlist.outputs() {
            fanout[out.index()] += 1;
        }

        let key = |net: NetId, stuck: bool| net.0 * 2 + u32::from(stuck);
        let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Root at the smaller key so the final pass below meets
                // each class's minimum first.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        };

        for gate in netlist.gates() {
            let out = gate.output;
            for &input in &gate.inputs {
                if fanout[input.index()] != 1 {
                    continue;
                }
                match gate.kind {
                    GateKind::Buf => {
                        union(&mut parent, key(input, false), key(out, false));
                        union(&mut parent, key(input, true), key(out, true));
                    }
                    GateKind::Not => {
                        union(&mut parent, key(input, false), key(out, true));
                        union(&mut parent, key(input, true), key(out, false));
                    }
                    GateKind::And => union(&mut parent, key(input, false), key(out, false)),
                    GateKind::Nand => union(&mut parent, key(input, false), key(out, true)),
                    GateKind::Or => union(&mut parent, key(input, true), key(out, true)),
                    GateKind::Nor => union(&mut parent, key(input, true), key(out, false)),
                    // No input value forces the output of XOR-family or
                    // MUX gates; constants read nothing.
                    GateKind::Xor
                    | GateKind::Xnor
                    | GateKind::Mux
                    | GateKind::Const0
                    | GateKind::Const1 => {}
                }
            }
        }

        // Flatten: point every key at its class minimum. `union` always
        // roots the larger key under the smaller, so by induction every
        // tree's root is its class minimum already.
        let mut rep = vec![0u32; 2 * num_nets];
        for k in 0..2 * num_nets as u32 {
            rep[k as usize] = find(&mut parent, k);
        }

        FaultClasses { rep }
    }

    /// The representative of `fault`'s equivalence class: the class
    /// member with the smallest key (net-major, SA0 before SA1).
    #[must_use]
    pub fn representative(&self, fault: Fault) -> Fault {
        let r = self.rep[fault.net.index() * 2 + usize::from(fault.stuck)];
        Fault { net: NetId(r / 2), stuck: r % 2 == 1 }
    }

    /// Whether `fault` is its own class representative.
    #[must_use]
    pub fn is_representative(&self, fault: Fault) -> bool {
        let k = fault.net.index() * 2 + usize::from(fault.stuck);
        self.rep[k] == k as u32
    }

    /// Whether two faults are equivalent (same faulty function on every
    /// input, hence byte-identical detection words on every block).
    #[must_use]
    pub fn are_equivalent(&self, a: Fault, b: Fault) -> bool {
        self.rep[a.net.index() * 2 + usize::from(a.stuck)]
            == self.rep[b.net.index() * 2 + usize::from(b.stuck)]
    }

    /// Number of distinct classes across the full universe.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.rep.iter().enumerate().filter(|&(k, &r)| k as u32 == r).count()
    }
}

/// Collapses an *active* subset of a fault list for simulation: groups
/// the indices in `active` (ascending indices into `faults`) by
/// equivalence class and returns `(reps, expansions)` where `reps` are
/// the indices to simulate (the first — smallest — active index of each
/// class, in their original order) and `expansions` maps every remaining
/// active index to its class's chosen rep index.
///
/// Grouping is restricted to `active` on purpose: a fault preclassified
/// without simulation (ground-truth redundant, structurally
/// unobservable) must not donate or receive a verdict through a class,
/// so the collapsed campaign stays byte-identical to the uncollapsed
/// one — each expanded member takes exactly the status, detection
/// pattern, and block usage its own simulation would have produced.
#[must_use]
pub fn collapse_active(
    classes: &FaultClasses,
    faults: &[Fault],
    active: &[usize],
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut rep_by_class: HashMap<u32, usize> = HashMap::new();
    let mut reps = Vec::with_capacity(active.len());
    let mut expansions = Vec::new();
    for &i in active {
        let f = faults[i];
        let root = classes.rep[f.net.index() * 2 + usize::from(f.stuck)];
        match rep_by_class.entry(root) {
            Entry::Vacant(v) => {
                v.insert(i);
                reps.push(i);
            }
            Entry::Occupied(o) => expansions.push((i, *o.get())),
        }
    }
    (reps, expansions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use r2d3_netlist::{FaultSim, NetlistBuilder, SimScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn and_gate_collapses_controlling_zeros() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let a = b.and2(i[0], i[1]);
        b.output(a);
        let nl = b.finish();
        let c = FaultClasses::build(&nl);
        // {i0/0, i1/0, a/0} is one class, represented by i0/0.
        assert!(c.are_equivalent(Fault::sa0(i[0]), Fault::sa0(i[1])));
        assert!(c.are_equivalent(Fault::sa0(i[0]), Fault::sa0(a)));
        assert_eq!(c.representative(Fault::sa0(a)), Fault::sa0(i[0]));
        // SA1s stay apart: a 1 on one AND input does not force anything.
        assert!(!c.are_equivalent(Fault::sa1(i[0]), Fault::sa1(a)));
        assert!(c.is_representative(Fault::sa1(i[0])));
    }

    #[test]
    fn inverter_chain_collapses_with_polarity_flips() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(1);
        let n1 = b.not(i[0]);
        let n2 = b.not(n1);
        b.output(n2);
        let nl = b.finish();
        let c = FaultClasses::build(&nl);
        // i/0 ≡ n1/1 ≡ n2/0 and i/1 ≡ n1/0 ≡ n2/1: two classes total
        // across the three nets.
        assert!(c.are_equivalent(Fault::sa0(i[0]), Fault::sa1(n1)));
        assert!(c.are_equivalent(Fault::sa0(i[0]), Fault::sa0(n2)));
        assert!(c.are_equivalent(Fault::sa1(i[0]), Fault::sa0(n1)));
        assert!(!c.are_equivalent(Fault::sa0(i[0]), Fault::sa1(i[0])));
        assert_eq!(c.class_count(), 2);
    }

    #[test]
    fn fanout_stems_never_collapse() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let stem = b.or2(i[0], i[1]);
        let a1 = b.and2(stem, i[0]);
        let a2 = b.and2(stem, i[1]);
        b.output(a1);
        b.output(a2);
        let nl = b.finish();
        let c = FaultClasses::build(&nl);
        // `stem`, `i0`, `i1` all have fanout ≥ 2: every rule is gated off.
        assert!(!c.are_equivalent(Fault::sa0(stem), Fault::sa0(a1)));
        assert!(!c.are_equivalent(Fault::sa1(i[0]), Fault::sa1(stem)));
        assert!(c.is_representative(Fault::sa0(stem)));
        assert!(c.is_representative(Fault::sa1(stem)));
    }

    #[test]
    fn collapse_active_picks_first_active_index() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let a = b.and2(i[0], i[1]);
        b.output(a);
        let nl = b.finish();
        let c = FaultClasses::build(&nl);
        let faults = all_faults(&nl);
        let active: Vec<usize> = (0..faults.len()).collect();
        let (reps, expansions) = collapse_active(&c, &faults, &active);
        // Class {i0/0, i1/0, a/0}: rep is i0/0's index; the other two
        // expand to it.
        let i0_sa0 = faults.iter().position(|&f| f == Fault::sa0(i[0])).unwrap();
        let i1_sa0 = faults.iter().position(|&f| f == Fault::sa0(i[1])).unwrap();
        let a_sa0 = faults.iter().position(|&f| f == Fault::sa0(a)).unwrap();
        assert!(reps.contains(&i0_sa0));
        assert!(!reps.contains(&i1_sa0));
        assert!(!reps.contains(&a_sa0));
        assert!(expansions.contains(&(i1_sa0, i0_sa0)));
        assert!(expansions.contains(&(a_sa0, i0_sa0)));
        assert_eq!(reps.len() + expansions.len(), faults.len());
        // Restricting `active` re-elects a rep from what remains.
        let restricted: Vec<usize> = active.iter().copied().filter(|&x| x != i0_sa0).collect();
        let (reps2, _) = collapse_active(&c, &faults, &restricted);
        assert!(reps2.contains(&i1_sa0));
    }

    /// Brute-force ground truth: every pair the classes call equivalent
    /// has byte-identical detection words on random pattern blocks, on a
    /// netlist mixing every collapsible gate kind with fanout stems.
    #[test]
    fn equivalent_faults_share_detection_words() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(6);
        let a = b.and2(i[0], i[1]);
        let na = b.gate(GateKind::Nand, &[a, i[2]]);
        let o = b.or2(na, i[3]);
        let no = b.gate(GateKind::Nor, &[o, i[4]]);
        let buf = b.gate(GateKind::Buf, &[no]);
        let inv = b.not(buf);
        let x = b.xor2(inv, i[5]);
        b.output(x);
        let nl = b.finish();
        let classes = FaultClasses::build(&nl);
        let faults = all_faults(&nl);
        assert!(classes.class_count() < faults.len(), "something must collapse");

        let sim = FaultSim::new(&nl);
        let mut scratch = SimScratch::<1>::new();
        let mut rng = StdRng::seed_from_u64(0xC011A);
        for _ in 0..8 {
            let inputs: Vec<u64> = (0..nl.num_inputs()).map(|_| rng.gen()).collect();
            let good = nl.eval_all(&inputs);
            let good = good.as_chunks::<1>().0;
            let words: Vec<u64> = faults
                .iter()
                .map(|f| {
                    let [g] = good[f.net.index()];
                    let excite = if f.stuck { !g } else { g };
                    sim.seeded_walk(good, f.net, [excite], [0], &mut scratch);
                    scratch.detect_words()[0]
                })
                .collect();
            for (fi, fa) in faults.iter().enumerate() {
                for (fj, fb) in faults.iter().enumerate().skip(fi + 1) {
                    if classes.are_equivalent(*fa, *fb) {
                        assert_eq!(
                            words[fi], words[fj],
                            "class {{{fa}, {fb}}} split on a detection word"
                        );
                    }
                }
            }
        }
    }
}
