//! Power maps: per-block dissipation for a thermal solve.

use crate::floorplan::Floorplan;
use r2d3_isa::Unit;

/// Per-block power assignment (watts), layer-major in floorplan block
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMap {
    layers: usize,
    unit_order: Vec<Unit>,
    watts: Vec<f64>,
}

impl PowerMap {
    /// Creates an all-zero power map for `floorplan`.
    #[must_use]
    pub fn new(floorplan: &Floorplan) -> Self {
        let unit_order: Vec<Unit> = floorplan.blocks().iter().map(|(u, _)| *u).collect();
        PowerMap {
            layers: floorplan.layers(),
            watts: vec![0.0; floorplan.layers() * unit_order.len()],
            unit_order,
        }
    }

    fn index(&self, layer: usize, unit: Unit) -> Option<usize> {
        if layer >= self.layers {
            return None;
        }
        let pos = self.unit_order.iter().position(|u| *u == unit)?;
        Some(layer * self.unit_order.len() + pos)
    }

    /// Adds `watts` to a block's power (silently ignores out-of-range
    /// layers, which simplifies policy loops over heterogeneous stacks).
    pub fn add_block(&mut self, layer: usize, unit: Unit, watts: f64) {
        if let Some(i) = self.index(layer, unit) {
            self.watts[i] += watts;
        }
    }

    /// Sets a block's power.
    pub fn set_block(&mut self, layer: usize, unit: Unit, watts: f64) {
        if let Some(i) = self.index(layer, unit) {
            self.watts[i] = watts;
        }
    }

    /// A block's power in watts (0 if out of range).
    #[must_use]
    pub fn block(&self, layer: usize, unit: Unit) -> f64 {
        self.index(layer, unit).map_or(0.0, |i| self.watts[i])
    }

    /// Total power in watts.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.watts.iter().sum()
    }

    /// Number of layers covered.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Raw per-block powers (layer-major, floorplan order).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.watts
    }

    /// Scales all powers by a factor (e.g. a global activity derating).
    pub fn scale(&mut self, factor: f64) {
        for w in &mut self.watts {
            *w *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_get() {
        let fp = Floorplan::opensparc_3d(2);
        let mut p = PowerMap::new(&fp);
        p.set_block(0, Unit::Exu, 0.1);
        p.add_block(0, Unit::Exu, 0.05);
        assert!((p.block(0, Unit::Exu) - 0.15).abs() < 1e-12);
        assert_eq!(p.block(1, Unit::Exu), 0.0);
        assert!((p.total() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_is_noop() {
        let fp = Floorplan::opensparc_3d(2);
        let mut p = PowerMap::new(&fp);
        p.set_block(9, Unit::Ifu, 1.0);
        assert_eq!(p.total(), 0.0);
    }

    #[test]
    fn scale_scales_everything() {
        let fp = Floorplan::opensparc_3d(1);
        let mut p = PowerMap::new(&fp);
        for u in Unit::ALL {
            p.set_block(0, u, 1.0);
        }
        p.scale(0.5);
        assert!((p.total() - 2.5).abs() < 1e-12);
    }
}
