//! Thermal grid construction (geometry, materials, conductances).

use crate::floorplan::{Floorplan, Rect};

/// Per-unit silicon area in mm² (paper Table III), used by the floorplan.
pub const UNIT_AREA_MM2: [f64; 5] = [0.056, 0.036, 0.067, 0.040, 0.014];

/// Material and boundary parameters for the stack.
///
/// Defaults are calibrated so an 8-layer stack dissipating the paper's
/// 250 mW/core reaches the Fig. 6 temperature range (~110–150 °C on the
/// hottest layer with a 45 °C ambient): monolithic tiers are thin, the
/// inter-layer dielectric conducts poorly, and the heat path to the sink
/// is long — the paper's motivating observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterialParams {
    /// Silicon thermal conductivity (W/m·K) at operating temperature.
    pub k_silicon: f64,
    /// Inter-layer dielectric conductivity (W/m·K).
    pub k_ild: f64,
    /// Active-tier silicon thickness (m).
    pub t_silicon: f64,
    /// Inter-layer dielectric thickness (m).
    pub t_ild: f64,
    /// Volumetric heat capacity of silicon (J/m³·K).
    pub c_volumetric: f64,
    /// Specific heat-sink resistance at the sink-side face (m²·K/W).
    pub r_sink_specific: f64,
    /// Ambient (coolant) temperature in °C.
    pub ambient: f64,
}

impl Default for MaterialParams {
    fn default() -> Self {
        MaterialParams {
            k_silicon: 110.0,
            k_ild: 0.25,
            t_silicon: 5.0e-6,
            t_ild: 1.5e-6,
            c_volumetric: 1.6e6,
            r_sink_specific: 4.0e-6,
            ambient: 45.0,
        }
    }
}

/// Grid resolution and materials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Cells along the die width.
    pub nx: usize,
    /// Cells along the die height.
    pub ny: usize,
    /// Material and boundary parameters.
    pub materials: MaterialParams,
    /// SOR over-relaxation factor (1.0 = Gauss–Seidel).
    pub sor_omega: f64,
    /// Convergence threshold: max per-cell change per sweep (K).
    pub tolerance: f64,
    /// Sweep cap for the steady-state solver.
    pub max_sweeps: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            nx: 16,
            ny: 12,
            materials: MaterialParams::default(),
            sor_omega: 1.85,
            tolerance: 1e-4,
            max_sweeps: 20_000,
        }
    }
}

/// The discretized RC network for a floorplan: per-cell conductances plus
/// the block→cell coverage map used to spread block power and extract
/// block temperatures.
#[derive(Debug, Clone)]
pub struct ThermalGrid {
    nx: usize,
    ny: usize,
    layers: usize,
    /// Lateral conductance in x / y (uniform per direction).
    g_x: f64,
    g_y: f64,
    /// Vertical conductance between adjacent tiers (per cell).
    g_z: f64,
    /// Sink conductance for layer-0 cells.
    g_sink: f64,
    /// Thermal capacitance per cell (J/K).
    cap: f64,
    ambient: f64,
    config: GridConfig,
    /// Per block (layer-major, floorplan block order): list of
    /// `(cell_index_in_layer, fraction_of_block_area)`.
    block_cells: Vec<Vec<(usize, f64)>>,
    blocks_per_layer: usize,
    unit_order: Vec<r2d3_isa::Unit>,
}

impl ThermalGrid {
    /// Discretizes `floorplan` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if the grid resolution or floorplan is degenerate (zero
    /// cells or layers).
    #[must_use]
    pub fn new(floorplan: &Floorplan, config: &GridConfig) -> Self {
        assert!(config.nx > 0 && config.ny > 0, "grid must have cells");
        assert!(floorplan.layers() > 0, "floorplan must have layers");
        let m = &config.materials;
        let dx = floorplan.chip_width() / config.nx as f64;
        let dy = floorplan.chip_height() / config.ny as f64;
        let dz = m.t_silicon;

        let g_x = m.k_silicon * (dy * dz) / dx;
        let g_y = m.k_silicon * (dx * dz) / dy;
        // Vertical path between tiers: half a tier of silicon on each side
        // plus the ILD, in series, over the cell footprint.
        let area = dx * dy;
        let r_z = m.t_silicon / (m.k_silicon * area) + m.t_ild / (m.k_ild * area);
        let g_z = 1.0 / r_z;
        let g_sink = area / m.r_sink_specific;
        let cap = m.c_volumetric * dx * dy * dz;

        // Block coverage: fraction of each block's area in each cell.
        let mut block_cells = Vec::new();
        for layer in 0..floorplan.layers() {
            let _ = layer;
            for (_, rect) in floorplan.blocks() {
                block_cells.push(cell_coverage(rect, config.nx, config.ny, dx, dy));
            }
        }

        ThermalGrid {
            nx: config.nx,
            ny: config.ny,
            layers: floorplan.layers(),
            g_x,
            g_y,
            g_z,
            g_sink,
            cap,
            ambient: m.ambient,
            config: *config,
            block_cells,
            blocks_per_layer: floorplan.blocks().len(),
            unit_order: floorplan.blocks().iter().map(|(u, _)| *u).collect(),
        }
    }

    /// Cells along the die width.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along the die height.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of tiers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Blocks per tier (floorplan block order).
    #[must_use]
    pub fn blocks_per_layer(&self) -> usize {
        self.blocks_per_layer
    }

    /// Ambient temperature (°C).
    #[must_use]
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Solver configuration.
    #[must_use]
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    pub(crate) fn cell_count(&self) -> usize {
        self.nx * self.ny * self.layers
    }

    pub(crate) fn g_xyz(&self) -> (f64, f64, f64) {
        (self.g_x, self.g_y, self.g_z)
    }

    pub(crate) fn g_sink(&self) -> f64 {
        self.g_sink
    }

    pub(crate) fn capacitance(&self) -> f64 {
        self.cap
    }

    /// Coverage list for a block index (layer-major).
    pub(crate) fn coverage(&self, block_index: usize) -> &[(usize, f64)] {
        &self.block_cells[block_index]
    }

    /// Unit placement order within each tier.
    #[must_use]
    pub fn unit_order(&self) -> &[r2d3_isa::Unit] {
        &self.unit_order
    }
}

/// Computes `(cell_in_layer, fraction_of_block_area)` coverage of a rect.
fn cell_coverage(rect: &Rect, nx: usize, ny: usize, dx: f64, dy: f64) -> Vec<(usize, f64)> {
    let mut cover = Vec::new();
    let block_area = rect.area().max(f64::MIN_POSITIVE);
    let ix0 = (rect.x0 / dx).floor() as usize;
    let ix1 = ((rect.x1 / dx).ceil() as usize).min(nx);
    let iy0 = (rect.y0 / dy).floor() as usize;
    let iy1 = ((rect.y1 / dy).ceil() as usize).min(ny);
    for iy in iy0..iy1 {
        for ix in ix0..ix1 {
            let cell = Rect {
                x0: ix as f64 * dx,
                y0: iy as f64 * dy,
                x1: (ix + 1) as f64 * dx,
                y1: (iy + 1) as f64 * dy,
            };
            let ov = rect.overlap(&cell);
            if ov > 0.0 {
                cover.push((iy * nx + ix, ov / block_area));
            }
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Floorplan;

    #[test]
    fn coverage_fractions_sum_to_one() {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        for b in 0..grid.block_cells.len() {
            let sum: f64 = grid.coverage(b).iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "block {b} coverage sums to {sum}");
        }
    }

    #[test]
    fn conductances_positive() {
        let fp = Floorplan::opensparc_3d(8);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let (gx, gy, gz) = grid.g_xyz();
        assert!(gx > 0.0 && gy > 0.0 && gz > 0.0);
        assert!(grid.g_sink() > 0.0);
        assert!(grid.capacitance() > 0.0);
        // The vertical path crosses the ILD, so it is far more resistive
        // than lateral conduction within silicon relative to geometry.
        assert_eq!(grid.cell_count(), 16 * 12 * 8);
    }

    #[test]
    fn field_block_lookup_bounds_checked() {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let field = grid.steady_state(&crate::PowerMap::new(&fp)).expect("zero-power solve");
        let id = crate::floorplan::BlockId { layer: 5, unit: r2d3_isa::Unit::Ifu };
        assert!(field.block_avg(id).is_err());
    }
}
