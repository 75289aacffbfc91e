//! Steady-state and transient solvers over the thermal grid.

use crate::grid::ThermalGrid;
use crate::map::TemperatureField;
use crate::power::PowerMap;
use crate::ThermalError;

/// Result of a steady-state solve: the converged field plus how many SOR
/// sweeps it took (the warm-start figure of merit).
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Converged temperature field.
    pub field: TemperatureField,
    /// SOR sweeps spent reaching the tolerance.
    pub sweeps: usize,
}

impl ThermalGrid {
    /// Spreads block powers onto grid cells (watts per cell).
    fn cell_powers(&self, power: &PowerMap) -> Vec<f64> {
        let per_layer = self.nx() * self.ny();
        let mut p = vec![0.0; self.cell_count()];
        let blocks = power.as_slice();
        for (bi, &watts) in blocks.iter().enumerate() {
            if watts == 0.0 {
                continue;
            }
            let layer = bi / self.blocks_per_layer();
            if layer >= self.layers() {
                break;
            }
            for &(cell, frac) in self.coverage(bi) {
                p[layer * per_layer + cell] += watts * frac;
            }
        }
        p
    }

    /// One SOR sweep; returns the maximum temperature change. `g_bath`
    /// is an extra per-cell conductance whose bath temperature is folded
    /// into `cell_power`: 0 for the steady state, `C/dt` for a backward
    /// Euler step.
    fn sweep(&self, temps: &mut [f64], cell_power: &[f64], g_bath: f64, omega: f64) -> f64 {
        let (gx, gy, gz) = self.g_xyz();
        let g_sink = self.g_sink();
        let ambient = self.ambient();
        let (nx, ny, layers) = (self.nx(), self.ny(), self.layers());
        let per_layer = nx * ny;
        let mut max_delta = 0.0f64;

        for z in 0..layers {
            for y in 0..ny {
                for x in 0..nx {
                    let i = z * per_layer + y * nx + x;
                    let mut num = cell_power[i];
                    let mut den = g_bath;
                    if x > 0 {
                        num += gx * temps[i - 1];
                        den += gx;
                    }
                    if x + 1 < nx {
                        num += gx * temps[i + 1];
                        den += gx;
                    }
                    if y > 0 {
                        num += gy * temps[i - nx];
                        den += gy;
                    }
                    if y + 1 < ny {
                        num += gy * temps[i + nx];
                        den += gy;
                    }
                    if z > 0 {
                        num += gz * temps[i - per_layer];
                        den += gz;
                    }
                    if z + 1 < layers {
                        num += gz * temps[i + per_layer];
                        den += gz;
                    }
                    if z == 0 {
                        num += g_sink * ambient;
                        den += g_sink;
                    }
                    let new = num / den;
                    let relaxed = temps[i] + omega * (new - temps[i]);
                    max_delta = max_delta.max((relaxed - temps[i]).abs());
                    temps[i] = relaxed;
                }
            }
        }
        max_delta
    }

    /// Solves for the steady-state temperature field under `power`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoConvergence`] if SOR does not reach the
    /// configured tolerance within `max_sweeps`.
    pub fn steady_state(&self, power: &PowerMap) -> Result<TemperatureField, ThermalError> {
        self.steady_state_warm(power, None).map(|o| o.field)
    }

    /// [`steady_state`](ThermalGrid::steady_state) with an optional warm
    /// start: SOR iterates from `init` instead of the ambient guess.
    ///
    /// Successive solves along a slowly-varying power trajectory (e.g. the
    /// lifetime loop's monthly duty patterns) converge in far fewer sweeps
    /// when seeded with the previous solution; the returned
    /// [`SolveOutcome::sweeps`] quantifies that saving.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoConvergence`] if SOR does not reach the
    /// configured tolerance within `max_sweeps`, and
    /// [`ThermalError::CellCountMismatch`] if `init` has a different cell
    /// count than this grid.
    pub fn steady_state_warm(
        &self,
        power: &PowerMap,
        init: Option<&TemperatureField>,
    ) -> Result<SolveOutcome, ThermalError> {
        let cell_power = self.cell_powers(power);
        let mut temps = match init {
            Some(field) => {
                if field.cells().len() != self.cell_count() {
                    return Err(ThermalError::CellCountMismatch {
                        expected: self.cell_count(),
                        got: field.cells().len(),
                    });
                }
                field.cells().to_vec()
            }
            None => vec![self.ambient(); self.cell_count()],
        };
        let cfg = self.config();
        let mut residual = f64::INFINITY;
        for sweep in 0..cfg.max_sweeps {
            residual = self.sweep(&mut temps, &cell_power, 0.0, cfg.sor_omega);
            if residual < cfg.tolerance {
                return Ok(SolveOutcome {
                    field: TemperatureField::new(self, temps),
                    sweeps: sweep + 1,
                });
            }
        }
        Err(ThermalError::NoConvergence { iterations: cfg.max_sweeps, residual })
    }

    /// Advances a transient solution by `dt` seconds with backward Euler,
    /// starting from `state` (or ambient if `None`).
    ///
    /// Each step solves the implicit system with SOR using the same
    /// tolerance as the steady-state solver.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoConvergence`] if the implicit solve
    /// fails to converge.
    pub fn transient_step(
        &self,
        state: Option<&TemperatureField>,
        power: &PowerMap,
        dt: f64,
    ) -> Result<TemperatureField, ThermalError> {
        let cell_power = self.cell_powers(power);
        let c_dt = self.capacitance() / dt.max(f64::MIN_POSITIVE);
        let old: Vec<f64> = match state {
            Some(s) => s.cells().to_vec(),
            None => vec![self.ambient(); self.cell_count()],
        };
        let mut temps = old.clone();
        // Backward Euler: (C/dt)·T + Σ G (T - Tn) = P + (C/dt)·T_old.
        // Reuse the SOR sweep by folding C/dt into a virtual conductance
        // to a "previous temperature" bath per cell.
        let effective_power: Vec<f64> =
            cell_power.iter().zip(&old).map(|(p, t)| p + c_dt * t).collect();
        let cfg = self.config();
        let mut residual = f64::INFINITY;
        for _ in 0..cfg.max_sweeps {
            residual = self.sweep(&mut temps, &effective_power, c_dt, cfg.sor_omega);
            if residual < cfg.tolerance {
                return Ok(TemperatureField::new(self, temps));
            }
        }
        Err(ThermalError::NoConvergence { iterations: cfg.max_sweeps, residual })
    }
}

/// Per-block temperature swing under periodic power cycling.
///
/// Alternates `half_period_s` of `power_on` and `power_off` for `cycles`
/// full periods using the transient solver, then reports each block's
/// peak-to-trough swing ΔT (K) over the final period — the input the
/// Coffin–Manson thermal-cycling model needs.
#[must_use = "the swing map is the result"]
pub struct CyclingProfile {
    /// Per-block swing in kelvin (layer-major, floorplan block order).
    pub swing: Vec<f64>,
    /// Peak block temperature observed (°C).
    pub peak: f64,
}

impl ThermalGrid {
    /// Computes the power-cycling temperature swing per block.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoConvergence`] if a transient step fails.
    pub fn cycling_profile(
        &self,
        power_on: &PowerMap,
        power_off: &PowerMap,
        half_period_s: f64,
        cycles: usize,
    ) -> Result<CyclingProfile, ThermalError> {
        let steps_per_half = 8usize;
        let dt = half_period_s / steps_per_half as f64;
        let blocks = self.layers() * self.blocks_per_layer();
        let mut state: Option<TemperatureField> = None;
        let mut min_t = vec![f64::INFINITY; blocks];
        let mut max_t = vec![f64::NEG_INFINITY; blocks];
        let mut peak = f64::NEG_INFINITY;

        for cycle in 0..cycles.max(1) {
            let last = cycle + 1 == cycles.max(1);
            for (phase, power) in [(0, power_on), (1, power_off)] {
                let _ = phase;
                for _ in 0..steps_per_half {
                    let next = self.transient_step(state.as_ref(), power, dt)?;
                    if last {
                        for (bi, (lo, hi)) in min_t.iter_mut().zip(max_t.iter_mut()).enumerate() {
                            let layer = bi / self.blocks_per_layer();
                            let per = self.nx() * self.ny();
                            let base = layer * per;
                            let mut acc = 0.0;
                            for &(cell, frac) in self.coverage(bi) {
                                acc += next.cells()[base + cell] * frac;
                            }
                            *lo = lo.min(acc);
                            *hi = hi.max(acc);
                            peak = peak.max(acc);
                        }
                    }
                    state = Some(next);
                }
            }
        }
        let swing = min_t.iter().zip(&max_t).map(|(lo, hi)| (hi - lo).max(0.0)).collect();
        Ok(CyclingProfile { swing, peak })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Floorplan, GridConfig, PowerMap};
    use r2d3_isa::Unit;

    fn uniform_power(fp: &Floorplan, watts_per_unit: f64) -> PowerMap {
        let mut p = PowerMap::new(fp);
        for layer in 0..fp.layers() {
            for unit in Unit::ALL {
                p.set_block(layer, unit, watts_per_unit);
            }
        }
        p
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let fp = Floorplan::opensparc_3d(4);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let t = grid.steady_state(&PowerMap::new(&fp)).unwrap();
        for layer in 0..4 {
            assert!((t.layer_avg(layer) - grid.ambient()).abs() < 1e-2);
        }
    }

    #[test]
    fn far_layers_run_hotter() {
        let fp = Floorplan::opensparc_3d(8);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let t = grid.steady_state(&uniform_power(&fp, 0.05)).unwrap();
        let mut prev = 0.0;
        for layer in 0..8 {
            let avg = t.layer_avg(layer);
            assert!(avg > prev, "layer {layer} ({avg:.1}) not hotter than below ({prev:.1})");
            prev = avg;
        }
    }

    #[test]
    fn temperature_scales_with_power() {
        let fp = Floorplan::opensparc_3d(4);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let t1 = grid.steady_state(&uniform_power(&fp, 0.02)).unwrap();
        let t2 = grid.steady_state(&uniform_power(&fp, 0.04)).unwrap();
        let rise1 = t1.layer_avg(3) - grid.ambient();
        let rise2 = t2.layer_avg(3) - grid.ambient();
        assert!((rise2 / rise1 - 2.0).abs() < 0.02, "linear RC network: rise doubles");
    }

    #[test]
    fn transient_approaches_steady_state() {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let p = uniform_power(&fp, 0.05);
        let steady = grid.steady_state(&p).unwrap();
        let mut state = None;
        for _ in 0..50 {
            let next = grid.transient_step(state.as_ref(), &p, 1e-3).unwrap();
            state = Some(next);
        }
        let t = state.unwrap();
        let diff = (t.layer_avg(1) - steady.layer_avg(1)).abs();
        assert!(diff < 1.0, "transient should settle near steady state (diff {diff:.3})");
    }

    #[test]
    fn transient_heats_monotonically_from_ambient() {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let p = uniform_power(&fp, 0.05);
        let t1 = grid.transient_step(None, &p, 1e-4).unwrap();
        let t2 = grid.transient_step(Some(&t1), &p, 1e-4).unwrap();
        assert!(t1.layer_avg(1) > grid.ambient());
        assert!(t2.layer_avg(1) > t1.layer_avg(1));
    }

    #[test]
    fn cycling_profile_swings_more_with_longer_periods() {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let on = uniform_power(&fp, 0.08);
        let off = PowerMap::new(&fp);
        let fast = grid.cycling_profile(&on, &off, 5e-4, 3).unwrap();
        let slow = grid.cycling_profile(&on, &off, 5e-3, 3).unwrap();
        let fast_max = fast.swing.iter().cloned().fold(0.0f64, f64::max);
        let slow_max = slow.swing.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            slow_max > fast_max,
            "longer thermal cycles must swing harder: {slow_max:.2} vs {fast_max:.2}"
        );
        assert!(slow.peak > grid.ambient());
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_field() {
        let fp = Floorplan::opensparc_3d(4);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let cold = grid.steady_state_warm(&uniform_power(&fp, 0.05), None).unwrap();
        // Slightly perturbed power, seeded with the previous solution —
        // the trajectory case the lifetime loop hits every month.
        let near = uniform_power(&fp, 0.052);
        let warm = grid.steady_state_warm(&near, Some(&cold.field)).unwrap();
        let scratch = grid.steady_state_warm(&near, None).unwrap();
        assert!(
            warm.sweeps < scratch.sweeps,
            "warm start must need fewer sweeps ({} vs {})",
            warm.sweeps,
            scratch.sweeps
        );
        // Re-solving the *same* power from its own solution is near-free.
        let resolve = grid.steady_state_warm(&uniform_power(&fp, 0.05), Some(&cold.field)).unwrap();
        assert!(
            resolve.sweeps * 10 <= cold.sweeps,
            "restart at the solution should be ~free ({} vs {})",
            resolve.sweeps,
            cold.sweeps
        );
        // Both converge to the same tolerance band.
        for layer in 0..4 {
            assert!((warm.field.layer_avg(layer) - scratch.field.layer_avg(layer)).abs() < 0.1);
        }
    }

    #[test]
    fn warm_start_rejects_mismatched_field() {
        let fp2 = Floorplan::opensparc_3d(2);
        let fp4 = Floorplan::opensparc_3d(4);
        let g2 = ThermalGrid::new(&fp2, &GridConfig::default());
        let g4 = ThermalGrid::new(&fp4, &GridConfig::default());
        let f2 = g2.steady_state(&PowerMap::new(&fp2)).unwrap();
        let err = g4.steady_state_warm(&PowerMap::new(&fp4), Some(&f2)).unwrap_err();
        assert!(matches!(err, ThermalError::CellCountMismatch { .. }));
    }

    #[test]
    fn hot_block_is_hotter_than_idle_block() {
        let fp = Floorplan::opensparc_3d(2);
        let grid = ThermalGrid::new(&fp, &GridConfig::default());
        let mut p = PowerMap::new(&fp);
        p.set_block(1, Unit::Lsu, 0.2);
        let t = grid.steady_state(&p).unwrap();
        let hot = t.block_avg(crate::BlockId { layer: 1, unit: Unit::Lsu }).unwrap();
        let idle = t.block_avg(crate::BlockId { layer: 1, unit: Unit::Ffu }).unwrap();
        assert!(hot > idle + 1.0, "hot {hot:.1} vs idle {idle:.1}");
    }
}
