//! Per-physical-stage activity accounting.

use crate::stage::StageId;
use r2d3_isa::Unit;

/// Busy-cycle counters for every physical stage in the stack.
///
/// Activity factors (`busy / elapsed`) are the utilization signal that
/// drives the power map, the thermal solve and the NBTI duty factor in
/// the lifetime simulation, and the `α_i` inputs of the paper's Eq. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityStats {
    layers: usize,
    busy: Vec<u64>,
}

impl ActivityStats {
    /// Zeroed counters for a stack of `layers` tiers.
    #[must_use]
    pub fn new(layers: usize) -> Self {
        ActivityStats { layers, busy: vec![0; layers * Unit::COUNT] }
    }

    /// Number of tiers covered.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Adds busy cycles to a stage.
    pub fn add_busy(&mut self, stage: StageId, cycles: u64) {
        if stage.layer < self.layers {
            self.busy[stage.flat_index()] += cycles;
        }
    }

    /// Busy cycles of a stage.
    #[must_use]
    pub fn busy(&self, stage: StageId) -> u64 {
        if stage.layer < self.layers {
            self.busy[stage.flat_index()]
        } else {
            0
        }
    }

    /// Activity factor of a stage over a window of `elapsed` cycles,
    /// clamped to `[0, 1]`.
    #[must_use]
    pub fn activity_factor(&self, stage: StageId, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.busy(stage) as f64 / elapsed as f64).min(1.0)
        }
    }

    /// Total busy cycles of one unit type across all layers.
    #[must_use]
    pub fn unit_busy(&self, unit: Unit) -> u64 {
        (0..self.layers).map(|l| self.busy(StageId::new(l, unit))).sum()
    }

    /// Total busy cycles of all stages on one layer.
    #[must_use]
    pub fn layer_busy(&self, layer: usize) -> u64 {
        Unit::ALL.iter().map(|&u| self.busy(StageId::new(layer, u))).sum()
    }

    /// Resets all counters (start of a new measurement window).
    pub fn reset(&mut self) {
        self.busy.iter_mut().for_each(|b| *b = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_query() {
        let mut s = ActivityStats::new(4);
        let id = StageId::new(2, Unit::Exu);
        s.add_busy(id, 10);
        s.add_busy(id, 5);
        assert_eq!(s.busy(id), 15);
        assert_eq!(s.unit_busy(Unit::Exu), 15);
        assert_eq!(s.layer_busy(2), 15);
        assert_eq!(s.layer_busy(0), 0);
    }

    #[test]
    fn activity_factor_clamped() {
        let mut s = ActivityStats::new(1);
        let id = StageId::new(0, Unit::Ifu);
        s.add_busy(id, 200);
        assert_eq!(s.activity_factor(id, 100), 1.0);
        assert_eq!(s.activity_factor(id, 400), 0.5);
        assert_eq!(s.activity_factor(id, 0), 0.0);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut s = ActivityStats::new(2);
        s.add_busy(StageId::new(7, Unit::Ifu), 10);
        assert_eq!(s.busy(StageId::new(7, Unit::Ifu)), 0);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = ActivityStats::new(2);
        s.add_busy(StageId::new(1, Unit::Lsu), 3);
        s.reset();
        assert_eq!(s.busy(StageId::new(1, Unit::Lsu)), 0);
    }
}
