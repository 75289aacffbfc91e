//! Cross-subsystem consistency checks: the substrates must agree where
//! they overlap (areas, powers, coverage classes, policy invariants).

use proptest::prelude::*;
use r2d3::engine::repair::{core_level_formable, form_pipelines, stage_level_formable};
use r2d3::isa::Unit;
use r2d3::netlist::stages::UNIT_AREA_MM2;
use r2d3::physical::table::TABLE_III;
use r2d3::pipeline_sim::StageId;
use r2d3::thermal::{Floorplan, GridConfig, PowerMap, ThermalGrid};

#[test]
fn netlist_and_physical_agree_on_areas() {
    // The netlist generator and the physical model share the Table III
    // anchor; their area tables must be identical.
    for (i, row) in TABLE_III.iter().enumerate() {
        assert!(
            (row.area_mm2 - UNIT_AREA_MM2[i]).abs() < 1e-12,
            "{}: physical {} vs netlist {}",
            row.unit,
            row.area_mm2,
            UNIT_AREA_MM2[i]
        );
        assert!(
            (row.area_mm2 - r2d3::thermal::grid::UNIT_AREA_MM2[i]).abs() < 1e-12,
            "thermal area table diverged for {}",
            row.unit
        );
    }
}

#[test]
fn floorplan_block_areas_scale_with_table_iii() {
    // The thermal floorplan spreads the uncore across blocks pro rata, so
    // block-area *ratios* must match unit-area ratios.
    let fp = Floorplan::opensparc_3d(8);
    let area = |u: Unit| fp.unit_rect(u).expect("unit placed").area();
    let ratio_fp = area(Unit::Lsu) / area(Unit::Ffu);
    let ratio_tab = TABLE_III[Unit::Lsu.index()].area_mm2 / TABLE_III[Unit::Ffu.index()].area_mm2;
    assert!(
        (ratio_fp - ratio_tab).abs() / ratio_tab < 1e-9,
        "LSU/FFU area ratio: floorplan {ratio_fp:.3} vs Table III {ratio_tab:.3}"
    );
}

#[test]
fn table_iii_power_heats_the_stack_into_paper_range() {
    // Eight cores at Table III powers must land the hottest layer in the
    // paper's Fig. 6 temperature regime (roughly 110–150 °C block means).
    let fp = Floorplan::opensparc_3d(8);
    let grid = ThermalGrid::new(&fp, &GridConfig::default());
    let physical = r2d3::physical::PhysicalModel::table_iii();
    let mut p = PowerMap::new(&fp);
    for layer in 0..8 {
        for unit in Unit::ALL {
            p.add_block(layer, unit, physical.unit_powers_w()[unit.index()]);
        }
    }
    let t = grid.steady_state(&p).expect("solve");
    let hottest = t.layer_avg(t.hottest_layer());
    assert!(
        (100.0..180.0).contains(&hottest),
        "hottest layer {hottest:.1} °C outside the plausible 3D-stack regime"
    );
    // And the vertical gradient the policies exploit exists.
    assert!(t.layer_avg(7) > t.layer_avg(0) + 15.0);
}

proptest! {
    /// The engine's repair must agree with the standalone formation
    /// arithmetic for any fault pattern.
    #[test]
    fn formation_counts_are_consistent(fault_bits in proptest::collection::vec(any::<bool>(), 40)) {
        let usable = |s: StageId| !fault_bits[s.flat_index()];
        let formed = form_pipelines(8, usable, 8);
        prop_assert_eq!(formed.len(), stage_level_formable(8, usable));
        prop_assert!(stage_level_formable(8, usable) >= core_level_formable(8, usable));
        // Every formed pipeline uses only usable stages, each at most once.
        let mut seen = std::collections::HashSet::new();
        for fp in &formed {
            for u in Unit::ALL {
                let s = fp.stage(u);
                prop_assert!(usable(s));
                prop_assert!(seen.insert(s));
            }
        }
    }

    /// Eq. 1 arithmetic: activity indices conserve total demand for any
    /// positive alpha vector.
    #[test]
    fn activity_indices_conserve_demand(
        alphas in proptest::collection::vec(0.01f64..10.0, 1..40),
        demand in 0.1f64..8.0,
    ) {
        let idx = r2d3::engine::activity::activity_indices(&alphas, demand);
        let total: f64 = idx.iter().sum();
        prop_assert!((total - demand).abs() < 1e-9);
    }

    /// Weighted water-filling conserves the total until saturation and
    /// never exceeds per-stage capacity.
    #[test]
    fn weighted_fill_invariants(
        weights in proptest::collection::vec(0.01f64..5.0, 1..40),
        total in 0.1f64..8.0,
    ) {
        let duties = r2d3::engine::activity::weighted_fill(&weights, total);
        prop_assert_eq!(duties.len(), weights.len());
        for &d in &duties {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        }
        let sum: f64 = duties.iter().sum();
        let expect = total.min(weights.len() as f64);
        prop_assert!((sum - expect).abs() < 1e-6, "sum {} expect {}", sum, expect);
    }
}

#[test]
fn physical_frequency_feeds_lifetime_normalization() {
    // The lifetime sim's R2D3 curves start at the physical model's
    // frequency ratio — a cross-check that the overhead plumbs through.
    let physical = r2d3::physical::PhysicalModel::table_iii();
    let expected = physical.design(r2d3::physical::DesignVariant::R2d3).frequency_ghz;
    let mut cfg =
        r2d3::engine::lifetime::LifetimeConfig::new(r2d3::engine::PolicyKind::Pro, 0.75, 0.85);
    cfg.months = 1;
    cfg.replicas = 1;
    cfg.grid = GridConfig { nx: 8, ny: 6, ..Default::default() };
    let out = r2d3::engine::lifetime::LifetimeSim::new(cfg).run().expect("sim");
    assert!(
        (out.series.norm_ipc[0] - expected).abs() < 1e-9,
        "month-0 normalized IPC {} should equal the frequency ratio {}",
        out.series.norm_ipc[0],
        expected
    );
}
