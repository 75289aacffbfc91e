//! Table III of the paper: per-unit silicon measurements.

use r2d3_isa::Unit;

/// Physical measurements of one pipeline unit (45 nm SOI, paper Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitPhysical {
    /// Which unit.
    pub unit: Unit,
    /// Total silicon area in mm².
    pub area_mm2: f64,
    /// Crossbar (MIVs + switching logic) area overhead, % of unit area.
    pub crossbar_overhead_pct: f64,
    /// Checker area overhead, % of unit area.
    pub checker_overhead_pct: f64,
    /// Fraction of the unit's area covered by the fault-detection
    /// mechanism, %.
    pub protected_area_pct: f64,
    /// Unit power in mW (excluding register files and caches).
    pub power_mw: f64,
}

/// The five rows of Table III.
///
/// The "Total" row of the paper (0.387 mm², 7.4 % crossbar, 0.31 %
/// checker, 93 % protected, 250 mW) is derivable via [`totals`]; the
/// remaining area/power (register files, caches, routing) is accounted as
/// the *uncore* share.
pub const TABLE_III: [UnitPhysical; 5] = [
    UnitPhysical {
        unit: Unit::Ifu,
        area_mm2: 0.056,
        crossbar_overhead_pct: 10.3,
        checker_overhead_pct: 0.43,
        protected_area_pct: 88.0,
        power_mw: 115.0,
    },
    UnitPhysical {
        unit: Unit::Exu,
        area_mm2: 0.036,
        crossbar_overhead_pct: 12.0,
        checker_overhead_pct: 0.5,
        protected_area_pct: 95.0,
        power_mw: 23.0,
    },
    UnitPhysical {
        unit: Unit::Lsu,
        area_mm2: 0.067,
        crossbar_overhead_pct: 18.8,
        checker_overhead_pct: 0.74,
        protected_area_pct: 98.0,
        power_mw: 44.0,
    },
    UnitPhysical {
        unit: Unit::Tlu,
        area_mm2: 0.040,
        crossbar_overhead_pct: 5.0,
        checker_overhead_pct: 0.22,
        protected_area_pct: 91.0,
        power_mw: 10.0,
    },
    UnitPhysical {
        unit: Unit::Ffu,
        area_mm2: 0.014,
        crossbar_overhead_pct: 35.4,
        checker_overhead_pct: 1.24,
        protected_area_pct: 96.0,
        power_mw: 3.0,
    },
];

/// Paper-reported whole-core figures (the Table III "Total" row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTotals {
    /// Whole-core area (mm²) including uncore.
    pub area_mm2: f64,
    /// Whole-core crossbar overhead (%).
    pub crossbar_overhead_pct: f64,
    /// Whole-core checker overhead (%).
    pub checker_overhead_pct: f64,
    /// Whole-core protected area (%).
    pub protected_area_pct: f64,
    /// Whole-core power (mW) excluding register files and caches.
    pub power_mw: f64,
}

/// The paper's Table III "Total" row.
#[must_use]
pub fn totals() -> CoreTotals {
    CoreTotals {
        area_mm2: 0.387,
        crossbar_overhead_pct: 7.4,
        checker_overhead_pct: 0.31,
        protected_area_pct: 93.0,
        power_mw: 250.0,
    }
}

/// Looks up a unit's Table III row.
#[must_use]
pub fn unit_physical(unit: Unit) -> UnitPhysical {
    TABLE_III[unit.index()]
}

/// Sum of the five units' powers (mW); the remainder up to
/// [`CoreTotals::power_mw`] is uncore power.
#[must_use]
pub fn units_power_mw() -> f64 {
    TABLE_III.iter().map(|u| u.power_mw).sum()
}

/// Sum of the five units' areas (mm²); the remainder up to
/// [`CoreTotals::area_mm2`] is uncore area.
#[must_use]
pub fn units_area_mm2() -> f64 {
    TABLE_III.iter().map(|u| u.area_mm2).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_in_unit_order() {
        for (i, row) in TABLE_III.iter().enumerate() {
            assert_eq!(row.unit.index(), i);
            assert_eq!(unit_physical(row.unit), *row);
        }
    }

    #[test]
    fn units_fit_inside_core() {
        assert!(units_area_mm2() < totals().area_mm2);
        assert!(units_power_mw() < totals().power_mw);
    }

    #[test]
    fn area_weighted_crossbar_overhead_is_consistent() {
        // The per-unit crossbar overheads, weighted by unit area and spread
        // over the whole core, should land near the paper's 7.4 % total.
        let weighted: f64 =
            TABLE_III.iter().map(|u| u.area_mm2 * u.crossbar_overhead_pct / 100.0).sum();
        let total_pct = 100.0 * weighted / totals().area_mm2;
        assert!(
            (total_pct - totals().crossbar_overhead_pct).abs() < 1.0,
            "weighted crossbar overhead {total_pct:.2}% vs reported 7.4%"
        );
    }

    #[test]
    fn protected_area_near_93_pct() {
        let weighted: f64 =
            TABLE_III.iter().map(|u| u.area_mm2 * u.protected_area_pct).sum::<f64>()
                / units_area_mm2();
        assert!((weighted - totals().protected_area_pct).abs() < 2.0, "weighted {weighted:.1}%");
    }
}
