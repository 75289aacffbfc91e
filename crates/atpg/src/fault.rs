//! The stuck-at fault universe.

use r2d3_netlist::{NetId, Netlist};
use std::fmt;

/// A single stuck-at fault: `net` permanently at logic `stuck`.
///
/// This is the industry-standard fault model the paper uses ("It assumes
/// that a circuit defect behaves as a node stuck at 0 or 1").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulted net.
    pub net: NetId,
    /// The stuck value (`false` = SA0, `true` = SA1).
    pub stuck: bool,
}

impl Fault {
    /// Stuck-at-0 on `net`.
    #[must_use]
    pub fn sa0(net: NetId) -> Self {
        Fault { net, stuck: false }
    }

    /// Stuck-at-1 on `net`.
    #[must_use]
    pub fn sa1(net: NetId) -> Self {
        Fault { net, stuck: true }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/sa{}", self.net, u8::from(self.stuck))
    }
}

/// The uncollapsed fault universe: SA0 and SA1 on every net.
#[must_use]
pub fn all_faults(netlist: &Netlist) -> Vec<Fault> {
    (0..netlist.num_nets() as u32)
        .flat_map(|n| [Fault::sa0(NetId(n)), Fault::sa1(NetId(n))])
        .collect()
}

/// Equivalence-collapsed fault universe: one representative (the
/// smallest fault key, net-major with SA0 before SA1) per structural
/// equivalence class of [`crate::collapse::FaultClasses`].
///
/// The classes are function-exact — members share detection words on
/// every pattern block — so a campaign over the collapsed set loses no
/// information, and coverage percentages over it equal those over the
/// full set up to class weighting, which is how commercial tools report
/// coverage. (Campaigns over *uncollapsed* lists collapse internally
/// anyway; this set is for callers who want the smaller universe as
/// their unit of account.)
#[must_use]
pub fn collapsed_faults(netlist: &Netlist) -> Vec<Fault> {
    let classes = crate::collapse::FaultClasses::build(netlist);
    all_faults(netlist).into_iter().filter(|&f| classes.is_representative(f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_netlist::NetlistBuilder;

    #[test]
    fn universe_size_is_two_per_net() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let x = b.and2(i[0], i[1]);
        b.output(x);
        let nl = b.finish();
        assert_eq!(all_faults(&nl).len(), 2 * nl.num_nets());
    }

    #[test]
    fn collapsing_reduces_universe() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(4);
        let a = b.and2(i[0], i[1]);
        let o = b.or2(a, i[2]);
        let n = b.not(o);
        let x = b.xor2(n, i[3]);
        b.output(x);
        let nl = b.finish();
        let full = all_faults(&nl);
        let collapsed = collapsed_faults(&nl);
        assert!(collapsed.len() < full.len());
        // The NOT's output faults must be gone.
        assert!(!collapsed.iter().any(|f| f.net == n));
    }

    #[test]
    fn collapsing_preserves_fanout_stems() {
        // A net with fanout 2 must keep both faults even when feeding an AND.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let stem = b.or2(i[0], i[1]);
        let a1 = b.and2(stem, i[0]);
        let a2 = b.and2(stem, i[1]);
        b.output(a1);
        b.output(a2);
        let nl = b.finish();
        let collapsed = collapsed_faults(&nl);
        assert!(collapsed.contains(&Fault::sa0(stem)));
        assert!(collapsed.contains(&Fault::sa1(stem)));
    }
}
