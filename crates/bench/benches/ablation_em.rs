//! Ablation — electromigration as a second wear-out mechanism, and the
//! MTTF-criterion sensitivity.
//!
//! The paper notes R2D3 "can be used to optimize any wearout mechanisms"
//! while optimizing its policy for NBTI. This harness (a) shows how the
//! policies' temperature reductions translate through Black's equation
//! into EM lifetime, and (b) contrasts the two system-failure criteria of
//! the lifetime simulation.

use r2d3_aging::EmModel;
use r2d3_bench::format::Table;
use r2d3_bench::{header, quick_lifetime_config};
use r2d3_core::lifetime::{LifetimeSim, MttfCriterion};
use r2d3_core::policy::PolicyKind;
use r2d3_isa::kernels::KernelKind;

fn main() {
    header("Ablation", "EM lifetime under policy temperatures + MTTF criterion sensitivity");

    // Hottest-layer temperatures under each policy (month-0 duty maps).
    let mut temps = Vec::new();
    for policy in [PolicyKind::Static, PolicyKind::Lite, PolicyKind::Pro] {
        let mut cfg = quick_lifetime_config(policy, KernelKind::Gemm);
        cfg.months = 1;
        cfg.replicas = 1;
        let out = LifetimeSim::new(cfg).run().expect("lifetime sim");
        temps.push((policy, out.series.hottest_layer_temp[0]));
    }

    let em = EmModel::default();
    let mut t = Table::new(&["Policy", "Hottest layer (°C)", "EM MTTF (years)", "vs Static"]);
    let static_mttf = em.mttf_hours(temps[0].1, 1.0);
    for (policy, temp) in &temps {
        let mttf = em.mttf_hours(*temp, 1.0);
        t.row(&[
            policy.to_string(),
            format!("{temp:.1}"),
            format!("{:.1}", mttf / (365.25 * 24.0)),
            format!("{:.2}×", mttf / static_mttf),
        ]);
    }
    t.print();
    println!();
    println!(
        "Black's equation turns Pro's thermal headroom into a multiplicative EM lifetime win."
    );

    println!();
    println!("MTTF criterion sensitivity (R2D3-Pro, 24 months):");
    let mut t = Table::new(&["Criterion", "MTTF at month 0", "MTTF at month 23"]);
    for criterion in [MttfCriterion::TotalLoss, MttfCriterion::ServiceLevel] {
        let mut cfg = quick_lifetime_config(PolicyKind::Pro, KernelKind::Gemm);
        cfg.months = 24;
        cfg.replicas = 4;
        cfg.mttf_criterion = criterion;
        let out = LifetimeSim::new(cfg).run().expect("lifetime sim");
        t.row(&[
            format!("{criterion:?}"),
            format!("{:.0} months", out.series.mttf_months[0]),
            format!("{:.0} months", out.series.mttf_months[23]),
        ]);
    }
    t.print();
    println!();
    println!(
        "TotalLoss (Fig. 5(b)'s criterion) asks when no pipeline can be formed; \
         ServiceLevel asks when the next capacity-reducing fault lands."
    );
}
