//! Golden pin of every value the thermal solvers produce.
//!
//! Three grids, each loaded with non-uniform block powers: the default
//! 16×12 grid under the 8-layer stack, the lifetime loop's 8×6 grid under
//! the same stack, and a 5×7 grid under 3 layers (odd sizes, few layers).
//! On each, four results are folded, bit for bit, into one FNV-1a-64:
//!
//! - a cold steady-state solve: every cell and the sweep count;
//! - a warm re-solve at 1.03× the power, started from that field;
//! - three chained backward-Euler transient steps;
//! - a power-cycling profile: every block swing and the peak.
//!
//! The thermal unit tests compare fields against tolerances, so only this
//! test notices a solver change that moves a value by a few ulps.
//! Refactors of the SOR stencil must leave the constant alone.

use r2d3::isa::Unit;
use r2d3::thermal::{Floorplan, GridConfig, PowerMap, TemperatureField, ThermalGrid};

/// FNV-1a-64 of the results below, computed while the steady-state and
/// transient solvers still kept separate copies of the SOR stencil.
const GOLDEN: u64 = 0x0b99_e91f_44c3_a18a;

/// Byte-wise FNV-1a-64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    fn field(&mut self, field: &TemperatureField) {
        self.floats(field.cells());
    }
}

/// Every block gets its own power (20–60 mW), scaled by `scale`.
fn uneven_power(fp: &Floorplan, scale: f64) -> PowerMap {
    let mut p = PowerMap::new(fp);
    for layer in 0..fp.layers() {
        for unit in Unit::ALL {
            let step = (layer * 7 + unit.index() * 3) % 5;
            p.set_block(layer, unit, (0.02 + 0.01 * step as f64) * scale);
        }
    }
    p
}

fn fold_grid(layers: usize, nx: usize, ny: usize, h: &mut Fnv) {
    let fp = Floorplan::opensparc_3d(layers);
    let grid = ThermalGrid::new(&fp, &GridConfig { nx, ny, ..Default::default() });
    let power = uneven_power(&fp, 1.0);

    let cold = grid.steady_state_warm(&power, None).unwrap();
    h.field(&cold.field);
    h.word(cold.sweeps as u64);

    let warm = grid.steady_state_warm(&uneven_power(&fp, 1.03), Some(&cold.field)).unwrap();
    h.field(&warm.field);
    h.word(warm.sweeps as u64);
    assert!(warm.sweeps < cold.sweeps, "the warm start must help");

    let mut state = None;
    for _ in 0..3 {
        let next = grid.transient_step(state.as_ref(), &power, 1e-3).unwrap();
        h.field(&next);
        state = Some(next);
    }

    let idle = uneven_power(&fp, 0.25);
    let cycling = grid.cycling_profile(&power, &idle, 2e-3, 2).unwrap();
    h.floats(&cycling.swing);
    h.word(cycling.peak.to_bits());
    assert!(cycling.swing.iter().any(|&s| s > 0.0), "the cycle must swing");
}

#[test]
fn every_thermal_value_matches_the_golden_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    fold_grid(8, 16, 12, &mut h);
    fold_grid(8, 8, 6, &mut h);
    fold_grid(3, 5, 7, &mut h);
    assert_eq!(h.0, GOLDEN, "thermal values moved: digest {:#018x}", h.0);
}
