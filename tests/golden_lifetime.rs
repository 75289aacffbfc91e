//! Golden pin of every value the lifetime co-simulation produces.
//!
//! Runs the small configuration of the lifetime unit tests (24 months,
//! 3 replicas, 60 forward-MTTF trials, an 8×6 thermal grid) down every
//! path the forward-MTTF estimate and the thermal response take: all four
//! policies under total loss, both formation structures under the
//! service-level criterion (levels above 1), a pure-aging run where every
//! hazard rate is 0 (the Fig. 5(a) path), the JEP122 competing-risk
//! hazard, and a fault rate high enough that replicas lose a whole unit
//! column. Every series value and every month-0 hot-layer map cell is
//! folded, bit for bit, into one FNV-1a-64, so any change to a simulated
//! value moves the constant. Speed-ups of the lifetime loop must leave it
//! alone unless they change the model's numerics and say so; the switch
//! from a tolerance-stopped SOR solve to an exact steady-state response
//! did, and it left [`TRAJECTORIES`] alone.

use r2d3::engine::lifetime::{LifetimeConfig, LifetimeOutcome, LifetimeSim, MttfCriterion};
use r2d3::engine::policy::PolicyKind;
use r2d3::thermal::GridConfig;

/// FNV-1a-64 of the outcomes below, computed once each month's
/// temperatures came from an exact steady-state response instead of a
/// warm-started SOR solve stopped at 10⁻⁴ K per sweep. That moved every
/// temperature by at most 1.6·10⁻⁴ K, and ΔVth and forward MTTF by at
/// most 3·10⁻⁶ relative, but no fault draw.
const GOLDEN: u64 = 0xa3bc_bfe2_14c7_08f6;

/// FNV-1a-64 of the fault trajectories alone: `norm_ipc` and
/// `active_pipelines` of every outcome below. They move only when a
/// fault draw flips, so a change to how temperatures are solved leaves
/// this constant alone even where it moves [`GOLDEN`]. Computed with the
/// SOR-solved loop, and unchanged by the exact response.
const TRAJECTORIES: u64 = 0x1957_c1c4_199d_6b9e;

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
}

fn quick(policy: PolicyKind) -> LifetimeConfig {
    LifetimeConfig {
        months: 24,
        replicas: 3,
        mttf_trials: 60,
        grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
        ..LifetimeConfig::new(policy, 0.75, 0.85)
    }
}

fn fold(out: &LifetimeOutcome, h: &mut Fnv) {
    let s = &out.series;
    for values in [
        &s.months,
        &s.mean_vth,
        &s.max_vth,
        &s.mttf_months,
        &s.norm_ipc,
        &s.active_pipelines,
        &s.hottest_layer_temp,
        &out.initial_hot_layer_map,
    ] {
        h.floats(values);
    }
}

#[test]
fn every_lifetime_value_matches_the_golden_digest() {
    let mut runs: Vec<LifetimeConfig> = PolicyKind::ALL.iter().map(|&p| quick(p)).collect();
    for policy in [PolicyKind::Static, PolicyKind::NoRecon] {
        runs.push(LifetimeConfig { mttf_criterion: MttfCriterion::ServiceLevel, ..quick(policy) });
    }
    let mut pure_aging = quick(PolicyKind::Pro);
    pure_aging.reliability.base_rate_per_month = 0.0;
    runs.push(pure_aging);
    let mut jep122 = quick(PolicyKind::Pro);
    jep122.reliability.jep122 = true;
    runs.push(jep122);
    let mut column_loss = quick(PolicyKind::Static);
    column_loss.reliability.base_rate_per_month = 0.15;
    runs.push(column_loss);

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut trajectories = Fnv(0xcbf2_9ce4_8422_2325);
    let outcomes: Vec<LifetimeOutcome> =
        runs.into_iter().map(|cfg| LifetimeSim::new(cfg).run().unwrap()).collect();
    for out in &outcomes {
        fold(out, &mut h);
        trajectories.floats(&out.series.norm_ipc);
        trajectories.floats(&out.series.active_pipelines);
    }

    // The runs reach the paths they are named for.
    let pure_aging = &outcomes[6].series;
    assert!(pure_aging.mttf_months.iter().all(|&m| m == 1e9), "a zero rate must never fail");
    let column_loss = &outcomes[8].series;
    assert!(column_loss.active_pipelines[0] > 0.0);
    assert_eq!(column_loss.active_pipelines.last(), Some(&0.0), "every replica lost a column");
    assert_eq!(column_loss.mttf_months.last(), Some(&0.0));
    assert_eq!(
        trajectories.0, TRAJECTORIES,
        "fault trajectories moved: digest {:#018x}",
        trajectories.0
    );
    assert_eq!(h.0, GOLDEN, "lifetime values moved: digest {:#018x}", h.0);
}
