//! Temperature fields: extraction and rendering.

use crate::floorplan::BlockId;
use crate::grid::ThermalGrid;
use crate::ThermalError;
use r2d3_isa::Unit;

/// A solved temperature field (°C per grid cell) with the grid metadata
/// needed to extract block and layer statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureField {
    nx: usize,
    ny: usize,
    layers: usize,
    blocks_per_layer: usize,
    unit_order: Vec<Unit>,
    /// Block coverage copied from the grid (layer-major block order).
    block_cells: Vec<Vec<(usize, f64)>>,
    cells: Vec<f64>,
}

impl TemperatureField {
    pub(crate) fn new(grid: &ThermalGrid, cells: Vec<f64>) -> Self {
        let blocks = grid.layers() * grid.blocks_per_layer();
        TemperatureField {
            nx: grid.nx(),
            ny: grid.ny(),
            layers: grid.layers(),
            blocks_per_layer: grid.blocks_per_layer(),
            unit_order: grid.unit_order().to_vec(),
            block_cells: (0..blocks).map(|b| grid.coverage(b).to_vec()).collect(),
            cells,
        }
    }

    /// Raw per-cell temperatures (layer-major, row-major within a layer).
    #[must_use]
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    pub(crate) fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.cells
    }

    /// Number of tiers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Average temperature of one tier.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer_avg(&self, layer: usize) -> f64 {
        let per = self.nx * self.ny;
        let slice = &self.cells[layer * per..(layer + 1) * per];
        slice.iter().sum::<f64>() / per as f64
    }

    /// Peak temperature of one tier.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer_max(&self, layer: usize) -> f64 {
        let per = self.nx * self.ny;
        self.cells[layer * per..(layer + 1) * per].iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index of the hottest tier (the layer farthest from the heat sink in
    /// a uniformly-loaded stack — the layer Fig. 6 maps).
    #[must_use]
    pub fn hottest_layer(&self) -> usize {
        (0..self.layers)
            .max_by(|a, b| self.layer_avg(*a).total_cmp(&self.layer_avg(*b)))
            .unwrap_or(0)
    }

    /// Area-weighted average temperature of a block.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownBlock`] for out-of-range layers.
    pub fn block_avg(&self, id: BlockId) -> Result<f64, ThermalError> {
        if id.layer >= self.layers {
            return Err(ThermalError::UnknownBlock { layer: id.layer, layers: self.layers });
        }
        let pos =
            self.unit_order.iter().position(|u| *u == id.unit).expect("unit present in floorplan");
        let bi = id.layer * self.blocks_per_layer + pos;
        let per = self.nx * self.ny;
        let base = id.layer * per;
        let mut acc = 0.0;
        for &(cell, frac) in &self.block_cells[bi] {
            acc += self.cells[base + cell] * frac;
        }
        Ok(acc)
    }

    /// Renders one tier as an ASCII heat map (rows top-to-bottom), using
    /// the given temperature range for the character ramp.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn render_layer(&self, layer: usize, t_min: f64, t_max: f64) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let per = self.nx * self.ny;
        let slice = &self.cells[layer * per..(layer + 1) * per];
        let span = (t_max - t_min).max(1e-9);
        let mut out = String::with_capacity((self.nx + 1) * self.ny);
        for y in (0..self.ny).rev() {
            for x in 0..self.nx {
                let t = slice[y * self.nx + x];
                let idx = (((t - t_min) / span) * (RAMP.len() - 1) as f64)
                    .clamp(0.0, (RAMP.len() - 1) as f64) as usize;
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

impl TemperatureField {
    /// Renders one tier as a binary PPM (P6) image with a blue→red ramp,
    /// suitable for viewing the Fig. 6-style maps outside the terminal.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn render_layer_ppm(&self, layer: usize, t_min: f64, t_max: f64) -> Vec<u8> {
        let per = self.nx * self.ny;
        let slice = &self.cells[layer * per..(layer + 1) * per];
        let span = (t_max - t_min).max(1e-9);
        let mut out = format!("P6\n{} {}\n255\n", self.nx, self.ny).into_bytes();
        for y in (0..self.ny).rev() {
            for x in 0..self.nx {
                let t = ((slice[y * self.nx + x] - t_min) / span).clamp(0.0, 1.0);
                // Blue (cold) → red (hot) through green.
                let r = (255.0 * t) as u8;
                let g = (255.0 * (1.0 - (2.0 * t - 1.0).abs())) as u8;
                let b = (255.0 * (1.0 - t)) as u8;
                out.extend_from_slice(&[r, g, b]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Floorplan, GridConfig, PowerMap};

    fn solved_field() -> TemperatureField {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let mut p = PowerMap::new(&fp);
        p.set_block(1, Unit::Exu, 0.1);
        grid.steady_state(&p).unwrap()
    }

    #[test]
    fn layer_stats_consistent() {
        let t = solved_field();
        assert!(t.layer_max(1) >= t.layer_avg(1));
        assert_eq!(t.hottest_layer(), 1);
    }

    #[test]
    fn block_avg_checks_range() {
        let t = solved_field();
        assert!(t.block_avg(BlockId { layer: 7, unit: Unit::Ifu }).is_err());
        assert!(t.block_avg(BlockId { layer: 1, unit: Unit::Exu }).is_ok());
    }

    #[test]
    fn ppm_has_header_and_pixel_payload() {
        let t = solved_field();
        let ppm = t.render_layer_ppm(1, 45.0, 120.0);
        assert!(ppm.starts_with(b"P6\n16 12\n255\n"));
        let header_len = b"P6\n16 12\n255\n".len();
        assert_eq!(ppm.len(), header_len + 16 * 12 * 3);
    }

    #[test]
    fn render_has_expected_shape() {
        let t = solved_field();
        let s = t.render_layer(1, 45.0, 120.0);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 12);
        assert!(lines.iter().all(|l| l.len() == 16));
    }
}
