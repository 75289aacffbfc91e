//! Fig. 5(b) — mean time to failure over 8 years for the four systems.

use r2d3_bench::format::Table;
use r2d3_bench::{fig5_sweep, header};
use r2d3_core::policy::PolicyKind;
use r2d3_isa::kernels::KernelKind;

fn main() {
    header("Fig. 5(b)", "MTTF over 8 years (exact forward MTTF, total-loss criterion)");
    let sweep = fig5_sweep(KernelKind::Gemm);

    let mut t =
        Table::new(&["Year", "NoRecon (mo)", "Static (mo)", "R2D3-Lite (mo)", "R2D3-Pro (mo)"]);
    let at = |k: PolicyKind, m: usize| sweep.policy(k).series.mttf_months[m.min(95)];
    for year in 0..=8 {
        let m = if year == 0 { 0 } else { year * 12 - 1 };
        t.row(&[
            format!("{year}"),
            format!("{:.0}", at(PolicyKind::NoRecon, m)),
            format!("{:.0}", at(PolicyKind::Static, m)),
            format!("{:.0}", at(PolicyKind::Lite, m)),
            format!("{:.0}", at(PolicyKind::Pro, m)),
        ]);
    }
    t.print();

    let end = |k: PolicyKind| at(k, 95);
    println!();
    println!(
        "MTTF improvement at 8 years vs NoRecon: Lite {:.2}×  (paper 1.63×), Pro {:.2}×  (paper 2.16×)",
        end(PolicyKind::Lite) / end(PolicyKind::NoRecon),
        end(PolicyKind::Pro) / end(PolicyKind::NoRecon)
    );
    println!(
        "Both R2D3 policies postpone total loss by salvaging stages and slowing \
         wear; at 8 replicas the gap between Lite and Pro is replica noise (at 256 \
         replicas they are never more than 2 % apart — see EXPERIMENTS.md)."
    );
}
