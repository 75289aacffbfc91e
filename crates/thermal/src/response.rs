//! The exact steady-state response of a thermal grid to its block powers.

use crate::grid::ThermalGrid;
use crate::map::TemperatureField;
use crate::power::PowerMap;
use crate::ThermalError;

/// Steady-state temperatures as a fixed linear function of the block
/// powers.
///
/// The RC network's conductances are constant, so its steady state is
/// the ambient plus `G⁻¹·p`, where `G` is the conductance matrix and `p`
/// the cell powers, which are in turn linear in the block powers. The
/// response holds that map in two forms:
///
/// - the field response: each cell's rise per watt in each block;
/// - the block response: each block's area-weighted rise per watt in
///   each block, the average [`TemperatureField::block_avg`] takes.
///
/// [`new`](SteadyResponse::new) solves for both directly. There is no
/// tolerance and no iteration: where
/// [`steady_state`](ThermalGrid::steady_state) stops SOR once no cell
/// moves by more than the grid's tolerance, the response is exact to
/// rounding and reads none of `sor_omega`, `tolerance` or `max_sweeps`.
#[derive(Debug, Clone)]
pub struct SteadyResponse {
    blocks: usize,
    ambient: f64,
    /// Cells × blocks, row-major, in kelvin per watt.
    field: Vec<f64>,
    /// Blocks × blocks, row-major, in kelvin per watt.
    block: Vec<f64>,
    /// The zero-power field, every cell at the ambient: the template
    /// [`field`](SteadyResponse::field) fills.
    zero: TemperatureField,
}

impl SteadyResponse {
    /// Builds the response of `grid`: a banded Cholesky factorisation of
    /// its steady-state conductance matrix, whose half-bandwidth is one
    /// tier of cells (`nx·ny`), then one forward and one back substitution
    /// per block, with that block's watt spread over its cells as the
    /// right-hand side.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Singular`] if the matrix is not positive definite:
    /// no heat reaches the sink, or a conductance is not finite.
    pub fn new(grid: &ThermalGrid) -> Result<Self, ThermalError> {
        let factor = BandCholesky::conductance(grid)?;
        let per_layer = grid.nx() * grid.ny();
        let cells = grid.cell_count();
        let blocks = grid.layers() * grid.blocks_per_layer();
        let spread = |b: usize| {
            let base = b / grid.blocks_per_layer() * per_layer;
            grid.coverage(b).iter().map(move |&(cell, frac)| (base + cell, frac))
        };

        let mut field = vec![0.0; cells * blocks];
        let mut rise = vec![0.0; cells];
        for b in 0..blocks {
            rise.fill(0.0);
            for (cell, frac) in spread(b) {
                rise[cell] += frac;
            }
            factor.solve(&mut rise);
            for (cell, &t) in rise.iter().enumerate() {
                field[cell * blocks + b] = t;
            }
        }
        let mut block = vec![0.0; blocks * blocks];
        for (b, row) in block.chunks_exact_mut(blocks).enumerate() {
            for (cell, frac) in spread(b) {
                for (acc, &t) in row.iter_mut().zip(&field[cell * blocks..][..blocks]) {
                    *acc += frac * t;
                }
            }
        }
        Ok(SteadyResponse {
            blocks,
            ambient: grid.ambient(),
            field,
            block,
            zero: TemperatureField::new(grid, vec![grid.ambient(); cells]),
        })
    }

    /// Steady-state block temperatures (°C) under `power`, layer-major in
    /// floorplan block order like [`PowerMap::as_slice`].
    #[must_use]
    pub fn block_temps(&self, power: &PowerMap) -> Vec<f64> {
        let watts = power.as_slice();
        self.block.chunks_exact(self.blocks).map(|row| self.ambient + dot(row, watts)).collect()
    }

    /// The full steady-state field under `power`.
    #[must_use]
    pub fn field(&self, power: &PowerMap) -> TemperatureField {
        let mut field = self.zero.clone();
        for (t, row) in field.cells_mut().iter_mut().zip(self.field.chunks_exact(self.blocks)) {
            *t += dot(row, power.as_slice());
        }
        field
    }
}

/// The dot product over the shorter of `a` and `b`.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The lower Cholesky factor `L` of a symmetric positive-definite band
/// matrix of half-bandwidth `half`. Row `i` keeps `L[i][i - half..=i]`,
/// so `L[i][k]` sits at `band[(i + 1) * half + k]`.
struct BandCholesky {
    half: usize,
    band: Vec<f64>,
}

impl BandCholesky {
    /// Factors the steady-state conductance matrix of `grid`: the same
    /// stencil as the SOR sweep, with each cell's neighbour and sink
    /// conductances summed on the diagonal.
    fn conductance(grid: &ThermalGrid) -> Result<Self, ThermalError> {
        let (gx, gy, gz) = grid.g_xyz();
        let (nx, ny, layers) = (grid.nx(), grid.ny(), grid.layers());
        let half = nx * ny;
        let mut m = BandCholesky { half, band: vec![0.0; grid.cell_count() * (half + 1)] };
        for z in 0..layers {
            for y in 0..ny {
                for x in 0..nx {
                    let i = (z * ny + y) * nx + x;
                    let mut diag = 0.0;
                    if x > 0 {
                        diag += gx;
                        *m.at(i, i - 1) = -gx;
                    }
                    if x + 1 < nx {
                        diag += gx;
                    }
                    if y > 0 {
                        diag += gy;
                        *m.at(i, i - nx) = -gy;
                    }
                    if y + 1 < ny {
                        diag += gy;
                    }
                    if z > 0 {
                        diag += gz;
                        *m.at(i, i - half) = -gz;
                    }
                    if z + 1 < layers {
                        diag += gz;
                    }
                    if z == 0 {
                        diag += grid.g_sink();
                    }
                    *m.at(i, i) = diag;
                }
            }
        }
        m.factor()?;
        Ok(m)
    }

    fn at(&mut self, i: usize, k: usize) -> &mut f64 {
        &mut self.band[(i + 1) * self.half + k]
    }

    /// Row `i`'s stored entries `L[i][lo..end]`.
    fn row(&self, i: usize, lo: usize, end: usize) -> &[f64] {
        let start = (i + 1) * self.half;
        &self.band[start + lo..start + end]
    }

    /// Overwrites the matrix with its factor, row by row. A pivot that is
    /// not positive beyond the rounding of `n` terms of its diagonal
    /// means the matrix is singular (or not finite).
    fn factor(&mut self) -> Result<(), ThermalError> {
        let n = self.band.len() / (self.half + 1);
        let floor = n as f64 * f64::EPSILON;
        for i in 0..n {
            let lo = i.saturating_sub(self.half);
            for j in lo..=i {
                let a = *self.at(i, j);
                let s = a - dot(self.row(i, lo, j), self.row(j, lo, j));
                if j < i {
                    *self.at(i, j) = s / *self.at(j, j);
                } else if s > a * floor && s.is_finite() {
                    *self.at(i, i) = s.sqrt();
                } else {
                    return Err(ThermalError::Singular { cell: i });
                }
            }
        }
        Ok(())
    }

    /// Solves `L·Lᵀ·x = rhs` in place.
    fn solve(&self, rhs: &mut [f64]) {
        let diag = |i: usize| self.band[(i + 1) * self.half + i];
        // Rows above the first non-zero right-hand side solve to zero.
        let first = rhs.iter().position(|&r| r != 0.0).unwrap_or(rhs.len());
        for i in first..rhs.len() {
            let lo = i.saturating_sub(self.half);
            rhs[i] = (rhs[i] - dot(self.row(i, lo, i), &rhs[lo..i])) / diag(i);
        }
        for i in (0..rhs.len()).rev() {
            rhs[i] /= diag(i);
            let (xi, lo) = (rhs[i], i.saturating_sub(self.half));
            for (x, &l) in rhs[lo..i].iter_mut().zip(self.row(i, lo, i)) {
                *x -= l * xi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Floorplan, GridConfig};

    /// SplitMix64: a reproducible stream of block powers.
    struct Stream(u64);

    impl Stream {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        }

        /// Every block at 0–80 mW, a fifth of them idle.
        fn power(&mut self, fp: &Floorplan) -> PowerMap {
            let mut p = PowerMap::new(fp);
            for layer in 0..fp.layers() {
                for &(unit, _) in fp.blocks() {
                    let busy = self.unit() > 0.2;
                    p.set_block(layer, unit, if busy { 0.08 * self.unit() } else { 0.0 });
                }
            }
            p
        }
    }

    fn grid(layers: usize, nx: usize, ny: usize, tolerance: f64) -> (Floorplan, ThermalGrid) {
        let fp = Floorplan::opensparc_3d(layers);
        let config = GridConfig { nx, ny, tolerance, max_sweeps: 1_000_000, ..Default::default() };
        let grid = ThermalGrid::new(&fp, &config);
        (fp, grid)
    }

    const SHAPES: [(usize, usize); 3] = [(8, 6), (16, 12), (5, 3)];

    #[test]
    fn matches_a_converged_sor_solve() {
        let mut stream = Stream(0x52d3);
        for layers in [1, 2, 8] {
            for (nx, ny) in SHAPES {
                let (fp, grid) = grid(layers, nx, ny, 1e-12);
                let response = SteadyResponse::new(&grid).unwrap();
                for _ in 0..3 {
                    let power = stream.power(&fp);
                    let sor = grid.steady_state(&power).unwrap();
                    let exact = response.field(&power);
                    let worst = sor
                        .cells()
                        .iter()
                        .zip(exact.cells())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(worst < 1e-9, "{layers}×{nx}×{ny}: field off by {worst:e} K");
                    for (b, t) in response.block_temps(&power).into_iter().enumerate() {
                        let (layer, pos) = (b / fp.blocks().len(), b % fp.blocks().len());
                        let id = crate::BlockId { layer, unit: fp.blocks()[pos].0 };
                        let want = sor.block_avg(id).unwrap();
                        assert!(
                            (t - want).abs() < 1e-9,
                            "{layers}×{nx}×{ny} block {b}: {t} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_power_is_exactly_the_ambient() {
        for layers in [1, 2, 8] {
            for (nx, ny) in SHAPES {
                let (fp, grid) = grid(layers, nx, ny, 1e-4);
                let response = SteadyResponse::new(&grid).unwrap();
                let idle = PowerMap::new(&fp);
                assert!(response.block_temps(&idle).iter().all(|&t| t == grid.ambient()));
                assert!(response.field(&idle).cells().iter().all(|&t| t == grid.ambient()));
            }
        }
    }

    #[test]
    fn response_is_linear_in_power() {
        let mut stream = Stream(7);
        for (layers, nx, ny) in [(1, 5, 3), (2, 16, 12), (8, 8, 6)] {
            let (fp, grid) = grid(layers, nx, ny, 1e-4);
            let response = SteadyResponse::new(&grid).unwrap();
            let rise = |temps: Vec<f64>| -> Vec<f64> {
                temps.into_iter().map(|t| t - grid.ambient()).collect()
            };
            let rises = |p: &PowerMap| {
                [rise(response.field(p).cells().to_vec()), rise(response.block_temps(p))]
            };
            for _ in 0..5 {
                let (p1, p2, a) = (stream.power(&fp), stream.power(&fp), 4.0 * stream.unit() - 2.0);
                let mut mix = PowerMap::new(&fp);
                for layer in 0..layers {
                    for &(unit, _) in fp.blocks() {
                        mix.set_block(
                            layer,
                            unit,
                            a * p1.block(layer, unit) + p2.block(layer, unit),
                        );
                    }
                }
                for ((got, r1), r2) in rises(&mix).iter().zip(rises(&p1)).zip(rises(&p2)) {
                    for ((m, x), y) in got.iter().zip(r1).zip(r2) {
                        let want = a * x + y;
                        let scale = (a * x).abs() + y.abs();
                        assert!(
                            (m - want).abs() <= 1e-12 * scale.max(1.0),
                            "{layers}×{nx}×{ny}: {m} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_grid_without_a_sink_is_refused() {
        let fp = Floorplan::opensparc_3d(2);
        for r_sink in [f64::INFINITY, f64::NAN] {
            let mut config = GridConfig { nx: 5, ny: 3, ..Default::default() };
            config.materials.r_sink_specific = r_sink;
            let grid = ThermalGrid::new(&fp, &config);
            assert!(
                matches!(SteadyResponse::new(&grid), Err(ThermalError::Singular { .. })),
                "sink resistance {r_sink}"
            );
        }
    }
}
