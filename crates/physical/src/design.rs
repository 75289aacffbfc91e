//! Design-level summaries: NoRecon vs R2D3 variants.

use crate::miv::MivModel;
use crate::table::{totals, units_power_mw, TABLE_III};

/// Which design is being summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignVariant {
    /// Plain 3D stack with hard-wired pipelines (the paper's NoRecon).
    NoRecon,
    /// Stack with failure-repairing static reconfiguration. Physically
    /// identical to R2D3's fabric (it needs the crossbars to reroute) but
    /// without the dynamic scheduling machinery.
    Static,
    /// The full R2D3 engine (crossbars + checkers + controller).
    R2d3,
}

impl DesignVariant {
    /// All variants.
    pub const ALL: [DesignVariant; 3] =
        [DesignVariant::NoRecon, DesignVariant::Static, DesignVariant::R2d3];
}

/// Derived physical summary of one design variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSummary {
    /// Variant summarized.
    pub variant: DesignVariant,
    /// Per-core area (mm²).
    pub core_area_mm2: f64,
    /// Achievable clock (GHz).
    pub frequency_ghz: f64,
    /// Per-core power (mW) at full activity.
    pub core_power_mw: f64,
    /// Area overhead over NoRecon (fraction).
    pub area_overhead: f64,
    /// Frequency overhead over NoRecon (fraction).
    pub frequency_overhead: f64,
    /// Power overhead over NoRecon (fraction).
    pub power_overhead: f64,
}

/// The calibrated physical model.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalModel {
    /// Number of tiers in the stack.
    pub layers: usize,
    /// MIV/crossbar timing model.
    pub miv: MivModel,
    /// Nominal core frequency (GHz) of the NoRecon design.
    pub nominal_ghz: f64,
    /// Power overhead fraction of the R2D3 design (checkers, controller,
    /// crossbar switching) over NoRecon — §V-A reports 6.5 %.
    pub power_overhead: f64,
}

impl PhysicalModel {
    /// The paper's measured 45 nm design point (Table III + §V-A).
    #[must_use]
    pub fn table_iii() -> Self {
        PhysicalModel {
            layers: 8,
            miv: MivModel::default(),
            nominal_ghz: 1.0,
            power_overhead: 0.065,
        }
    }

    /// Area overhead fraction of the reconfigurable fabric (crossbars +
    /// checkers), derived from the per-unit Table III overheads.
    #[must_use]
    pub fn fabric_area_overhead(&self) -> f64 {
        let added: f64 = TABLE_III
            .iter()
            .map(|u| u.area_mm2 * (u.crossbar_overhead_pct + u.checker_overhead_pct) / 100.0)
            .sum();
        added / totals().area_mm2
    }

    /// Summary of a design variant.
    #[must_use]
    pub fn design(&self, variant: DesignVariant) -> DesignSummary {
        let base_area = totals().area_mm2;
        let base_power = totals().power_mw;
        match variant {
            DesignVariant::NoRecon => DesignSummary {
                variant,
                core_area_mm2: base_area,
                frequency_ghz: self.nominal_ghz,
                core_power_mw: base_power,
                area_overhead: 0.0,
                frequency_overhead: 0.0,
                power_overhead: 0.0,
            },
            DesignVariant::Static | DesignVariant::R2d3 => {
                let area_oh = self.fabric_area_overhead();
                let freq_oh = self.miv.frequency_overhead(self.layers);
                let power_oh = self.power_overhead;
                DesignSummary {
                    variant,
                    core_area_mm2: base_area * (1.0 + area_oh),
                    frequency_ghz: self.nominal_ghz * (1.0 - freq_oh),
                    core_power_mw: base_power * (1.0 + power_oh),
                    area_overhead: area_oh,
                    frequency_overhead: freq_oh,
                    power_overhead: power_oh,
                }
            }
        }
    }

    /// Per-unit power (watts) at full activity, in [`r2d3_isa::Unit::ALL`]
    /// order — the power map the thermal solve consumes.
    #[must_use]
    pub fn unit_powers_w(&self) -> [f64; 5] {
        let mut p = [0.0; 5];
        for (i, u) in TABLE_III.iter().enumerate() {
            p[i] = u.power_mw / 1000.0;
        }
        p
    }

    /// Uncore (register file / cache / routing) power per core in watts,
    /// dissipated regardless of which units are active.
    #[must_use]
    pub fn uncore_power_w(&self) -> f64 {
        (totals().power_mw - units_power_mw()) / 1000.0
    }
}

impl Default for PhysicalModel {
    fn default() -> Self {
        PhysicalModel::table_iii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_match_section_v_a() {
        let m = PhysicalModel::table_iii();
        let r = m.design(DesignVariant::R2d3);
        assert!((r.area_overhead - 0.074).abs() < 0.01, "area overhead {:.3}", r.area_overhead);
        assert!(
            (0.075..=0.082).contains(&r.frequency_overhead),
            "frequency overhead {:.3}",
            r.frequency_overhead
        );
        assert!((r.power_overhead - 0.065).abs() < 1e-12);
    }

    #[test]
    fn norecon_is_the_reference() {
        let m = PhysicalModel::table_iii();
        let b = m.design(DesignVariant::NoRecon);
        assert_eq!(b.frequency_ghz, 1.0);
        assert_eq!(b.core_area_mm2, 0.387);
        assert_eq!(b.core_power_mw, 250.0);
    }

    #[test]
    fn static_shares_r2d3_fabric() {
        let m = PhysicalModel::table_iii();
        let s = m.design(DesignVariant::Static);
        let r = m.design(DesignVariant::R2d3);
        assert_eq!(s.core_area_mm2, r.core_area_mm2);
        assert_eq!(s.frequency_ghz, r.frequency_ghz);
    }

    #[test]
    fn unit_powers_sum_below_core_power() {
        let m = PhysicalModel::table_iii();
        let units: f64 = m.unit_powers_w().iter().sum();
        assert!((units - 0.195).abs() < 1e-9);
        assert!((m.uncore_power_w() - 0.055).abs() < 1e-9);
    }
}
