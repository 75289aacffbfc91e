//! Level analysis: longest-path depth of every net from the primary
//! inputs. The fault simulator's level-major slot permutation and
//! event-walk buckets are built directly from this map.

use crate::netlist::{NetId, Netlist};

/// Per-net logic levels produced by [`analyze_levels`].
///
/// Primary inputs and constant gates sit at level 0 (a constant gate's
/// output is `max()` over zero inputs, so it levels like an input);
/// every other gate output sits one above the deepest of its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelMap {
    net_level: Vec<u32>,
    depth: u32,
}

impl LevelMap {
    /// Level of a single net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the analyzed netlist.
    #[must_use]
    pub fn net_level(&self, net: NetId) -> u32 {
        self.net_level[net.index()]
    }

    /// Consumes the map, returning the per-net level vector.
    #[must_use]
    pub fn into_net_levels(self) -> Vec<u32> {
        self.net_level
    }

    /// Maximum gate level: the combinational logic depth of the
    /// netlist. 0 for a gateless netlist.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of distinct levels including level 0 (`depth() + 1`).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.depth as usize + 1
    }
}

/// Computes logic levels for every net in one forward sweep.
///
/// Requires a netlist whose stored gate order is a valid evaluation
/// order (what [`super::validate`] checks); on such input the sweep is
/// exact longest-path labeling. Levels for driven nets are
/// `1 + max(level of inputs)`; inputs and never-driven nets are 0.
#[must_use]
pub fn analyze_levels(netlist: &Netlist) -> LevelMap {
    let mut net_level = vec![0u32; netlist.num_nets()];
    let mut depth = 0u32;
    for gate in netlist.gates() {
        let level = gate.inputs.iter().map(|n| net_level[n.index()]).max().unwrap_or(0) + 1;
        net_level[gate.output.index()] = level;
        depth = depth.max(level);
    }
    LevelMap { net_level, depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn levels_count_longest_path() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let x = b.xor2(i[0], i[1]); // level 1
        let y = b.and2(x, i[0]); // level 2
        let z = b.or2(y, x); // level 3
        b.output(z);
        let nl = b.finish();
        let levels = analyze_levels(&nl);
        assert_eq!(levels.net_level(i[0]), 0);
        assert_eq!(levels.net_level(x), 1);
        assert_eq!(levels.net_level(y), 2);
        assert_eq!(levels.net_level(z), 3);
        assert_eq!(levels.depth(), 3);
        assert_eq!(levels.num_levels(), 4);
    }

    #[test]
    fn gateless_netlist_has_depth_zero() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(1);
        b.output(i[0]);
        let nl = b.finish();
        assert_eq!(analyze_levels(&nl).depth(), 0);
    }
}
