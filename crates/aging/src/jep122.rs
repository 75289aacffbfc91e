//! JEP122 wearout-mechanism suite.
//!
//! The paper's reliability evaluation cites JEDEC JEP122 ("Failure
//! Mechanisms and Models for Semiconductor Devices", \[28\]) for its
//! failure models. Besides NBTI ([`crate::nbti`]) and electromigration
//! ([`crate::em`]), JEP122 covers:
//!
//! * **TDDB** — time-dependent dielectric breakdown, E-model:
//!   `TTF = A · exp(−γ·E_ox) · exp(Ea / kB·T)`,
//! * **HCI** — hot-carrier injection: `TTF = A · exp(Ea / kB·T)` with a
//!   *negative* activation energy (HCI worsens at low temperature),
//! * **Thermal cycling** — Coffin–Manson: `N_f = C · ΔT^(−q)`.
//!
//! [`CompositeModel`] combines any subset under the competing-risks
//! (sum-of-failure-rates) assumption JEP122 prescribes, which is how the
//! multi-mechanism ablation bench evaluates R2D3's thermal headroom.

use crate::{kelvin, BOLTZMANN_EV};

/// Time-dependent dielectric breakdown, E-model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TddbModel {
    /// Lifetime (hours) at the reference field and temperature.
    pub reference_ttf_hours: f64,
    /// Reference oxide field (MV/cm).
    pub reference_field_mv_cm: f64,
    /// Field-acceleration factor γ (decades per MV/cm ≈ 1–4; here in
    /// natural-log units per MV/cm).
    pub gamma: f64,
    /// Activation energy (eV), ≈ 0.6–0.9 for gate oxides.
    pub ea_ev: f64,
    /// Reference temperature (°C).
    pub reference_temp_c: f64,
}

impl Default for TddbModel {
    fn default() -> Self {
        TddbModel {
            reference_ttf_hours: 20.0 * 365.25 * 24.0,
            reference_field_mv_cm: 5.0,
            gamma: 2.0,
            ea_ev: 0.7,
            reference_temp_c: 105.0,
        }
    }
}

impl TddbModel {
    /// Time to failure (hours) at oxide field `field_mv_cm` and
    /// temperature `temp_c`.
    #[must_use]
    pub fn ttf_hours(&self, field_mv_cm: f64, temp_c: f64) -> f64 {
        let field_term = (-self.gamma * (field_mv_cm - self.reference_field_mv_cm)).exp();
        let temp_term = (self.ea_ev / BOLTZMANN_EV
            * (1.0 / kelvin(temp_c) - 1.0 / kelvin(self.reference_temp_c)))
        .exp();
        self.reference_ttf_hours * field_term * temp_term
    }
}

/// Hot-carrier injection.
///
/// HCI has a *negative* effective activation energy: carrier mean free
/// paths grow at low temperature, so cold, fast-switching logic degrades
/// faster — the one mechanism where R2D3-Pro's cool-tier bias is not
/// automatically a win (quantified in the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HciModel {
    /// Lifetime (hours) at the reference condition.
    pub reference_ttf_hours: f64,
    /// Activation energy (eV), negative (≈ −0.1 … −0.2).
    pub ea_ev: f64,
    /// Reference temperature (°C).
    pub reference_temp_c: f64,
    /// Switching-activity exponent: TTF ∝ activity^(−m).
    pub activity_exponent: f64,
}

impl Default for HciModel {
    fn default() -> Self {
        HciModel {
            reference_ttf_hours: 30.0 * 365.25 * 24.0,
            ea_ev: -0.15,
            reference_temp_c: 105.0,
            activity_exponent: 1.0,
        }
    }
}

impl HciModel {
    /// Time to failure (hours) at `temp_c` with relative switching
    /// activity `activity` (1.0 = reference).
    #[must_use]
    pub fn ttf_hours(&self, temp_c: f64, activity: f64) -> f64 {
        let temp_term = (self.ea_ev / BOLTZMANN_EV
            * (1.0 / kelvin(temp_c) - 1.0 / kelvin(self.reference_temp_c)))
        .exp();
        self.reference_ttf_hours
            * temp_term
            * activity.max(f64::MIN_POSITIVE).powf(-self.activity_exponent)
    }
}

/// Coffin–Manson thermal-cycling fatigue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclingModel {
    /// Cycles to failure at the reference swing.
    pub reference_cycles: f64,
    /// Reference temperature swing (K).
    pub reference_delta_t: f64,
    /// Coffin–Manson exponent `q` (≈ 2–2.5 for ductile metal films).
    pub exponent: f64,
}

impl Default for CyclingModel {
    fn default() -> Self {
        CyclingModel { reference_cycles: 1.0e5, reference_delta_t: 40.0, exponent: 2.3 }
    }
}

impl CyclingModel {
    /// Cycles to failure for a temperature swing of `delta_t` kelvin.
    #[must_use]
    pub fn cycles_to_failure(&self, delta_t: f64) -> f64 {
        if delta_t <= 0.0 {
            return f64::INFINITY;
        }
        self.reference_cycles * (delta_t / self.reference_delta_t).powf(-self.exponent)
    }

    /// Failure rate per hour given `cycles_per_hour` power cycles of
    /// swing `delta_t`.
    #[must_use]
    pub fn rate_per_hour(&self, delta_t: f64, cycles_per_hour: f64) -> f64 {
        let n = self.cycles_to_failure(delta_t);
        if n.is_infinite() {
            0.0
        } else {
            cycles_per_hour / n
        }
    }
}

/// Operating condition of one device/stage for the composite evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Junction temperature (°C).
    pub temp_c: f64,
    /// Relative current density (EM), 1.0 = reference.
    pub j_rel: f64,
    /// Oxide field (MV/cm).
    pub field_mv_cm: f64,
    /// Relative switching activity (HCI), 1.0 = reference.
    pub activity: f64,
    /// Power-cycling swing (K) and frequency (cycles/hour).
    pub cycle_delta_t: f64,
    /// Power cycles per hour.
    pub cycles_per_hour: f64,
}

impl Default for OperatingPoint {
    fn default() -> Self {
        OperatingPoint {
            temp_c: 105.0,
            j_rel: 1.0,
            field_mv_cm: 5.0,
            activity: 1.0,
            cycle_delta_t: 0.0,
            cycles_per_hour: 0.0,
        }
    }
}

/// Competing-risks combination of the JEP122 mechanisms: the system
/// failure rate is the sum of the mechanism rates (series reliability),
/// per JEP122's sum-of-failure-rates method.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompositeModel {
    /// Electromigration.
    pub em: crate::em::EmModel,
    /// Dielectric breakdown.
    pub tddb: TddbModel,
    /// Hot carriers.
    pub hci: HciModel,
    /// Thermal cycling.
    pub cycling: CyclingModel,
}

impl CompositeModel {
    /// Total failure rate (per hour) at an operating point.
    #[must_use]
    pub fn rate_per_hour(&self, op: &OperatingPoint) -> f64 {
        1.0 / self.em.mttf_hours(op.temp_c, op.j_rel)
            + 1.0 / self.tddb.ttf_hours(op.field_mv_cm, op.temp_c)
            + 1.0 / self.hci.ttf_hours(op.temp_c, op.activity)
            + self.cycling.rate_per_hour(op.cycle_delta_t, op.cycles_per_hour)
    }

    /// Combined MTTF (hours) at an operating point.
    #[must_use]
    pub fn mttf_hours(&self, op: &OperatingPoint) -> f64 {
        1.0 / self.rate_per_hour(op)
    }

    /// Per-mechanism rate breakdown `(em, tddb, hci, cycling)` per hour.
    #[must_use]
    pub fn breakdown(&self, op: &OperatingPoint) -> (f64, f64, f64, f64) {
        (
            1.0 / self.em.mttf_hours(op.temp_c, op.j_rel),
            1.0 / self.tddb.ttf_hours(op.field_mv_cm, op.temp_c),
            1.0 / self.hci.ttf_hours(op.temp_c, op.activity),
            self.cycling.rate_per_hour(op.cycle_delta_t, op.cycles_per_hour),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tddb_accelerates_with_field_and_heat() {
        let m = TddbModel::default();
        assert!(m.ttf_hours(6.0, 105.0) < m.ttf_hours(5.0, 105.0));
        assert!(m.ttf_hours(5.0, 140.0) < m.ttf_hours(5.0, 105.0));
        let anchored = m.ttf_hours(m.reference_field_mv_cm, m.reference_temp_c);
        assert!((anchored - m.reference_ttf_hours).abs() / m.reference_ttf_hours < 1e-12);
    }

    #[test]
    fn hci_worsens_when_cold() {
        let m = HciModel::default();
        assert!(
            m.ttf_hours(60.0, 1.0) < m.ttf_hours(120.0, 1.0),
            "negative Ea: HCI lifetime is shorter at low temperature"
        );
        assert!(m.ttf_hours(105.0, 2.0) < m.ttf_hours(105.0, 1.0));
    }

    #[test]
    fn coffin_manson_power_law() {
        let m = CyclingModel::default();
        let n40 = m.cycles_to_failure(40.0);
        let n80 = m.cycles_to_failure(80.0);
        let expected = 2.0f64.powf(m.exponent);
        assert!(((n40 / n80) - expected).abs() / expected < 1e-9);
        assert!(m.cycles_to_failure(0.0).is_infinite());
        assert_eq!(m.rate_per_hour(0.0, 10.0), 0.0);
    }

    #[test]
    fn composite_rate_is_sum_of_mechanisms() {
        let m = CompositeModel::default();
        let op = OperatingPoint { cycle_delta_t: 30.0, cycles_per_hour: 2.0, ..Default::default() };
        let (em, tddb, hci, cyc) = m.breakdown(&op);
        let total = m.rate_per_hour(&op);
        assert!((total - (em + tddb + hci + cyc)).abs() / total < 1e-12);
        // Composite MTTF is below every single mechanism's TTF.
        assert!(m.mttf_hours(&op) < 1.0 / em);
        assert!(m.mttf_hours(&op) < 1.0 / tddb);
    }

    #[test]
    fn cooling_helps_overall_despite_hci() {
        // R2D3-Pro's cooling must win overall: EM + TDDB gains dominate
        // the HCI penalty at realistic parameters.
        let m = CompositeModel::default();
        let hot = OperatingPoint { temp_c: 140.0, ..Default::default() };
        let cool = OperatingPoint { temp_c: 110.0, ..Default::default() };
        assert!(m.mttf_hours(&cool) > m.mttf_hours(&hot));
    }
}
