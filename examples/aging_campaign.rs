//! Aging campaign: the full 8-year lifetime co-simulation for all four
//! system configurations, printing the Vth / MTTF / IPC trajectories —
//! the data behind the paper's Fig. 5.
//!
//! ```sh
//! cargo run --release --example aging_campaign [months] [workload]
//! ```

use r2d3::engine::lifetime::{LifetimeConfig, LifetimeSim};
use r2d3::engine::policy::PolicyKind;
use r2d3::isa::kernels::KernelKind;
use r2d3::thermal::GridConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let months: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(96);
    let workload = match args.get(2).map(String::as_str) {
        Some("gemv") => KernelKind::Gemv,
        Some("fft") => KernelKind::Fft,
        _ => KernelKind::Gemm,
    };

    println!(
        "8-year lifetime co-simulation — workload {workload} (demand {:.0} % of 8 cores)",
        100.0 * workload.core_demand_fraction()
    );
    println!("policy      year:  0     2     4     6     8");
    println!("--------------------------------------------------");

    let mut summaries = Vec::new();
    for policy in PolicyKind::ALL {
        let config = LifetimeConfig {
            months,
            replicas: 8,
            grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
            ..LifetimeConfig::new(
                policy,
                workload.core_demand_fraction(),
                workload.activity_weight(),
            )
        };
        let outcome = LifetimeSim::new(config).run()?;
        let s = &outcome.series;
        let sample = |v: &[f64], year: usize| v[(year * 12).min(v.len() - 1)];

        print!("{:9} ΔVth:", policy.name());
        for year in [0, 2, 4, 6, 8] {
            print!(" {:5.3}", sample(&s.max_vth, year));
        }
        println!(" V");
        print!("{:9} MTTF:", "");
        for year in [0, 2, 4, 6, 8] {
            print!(" {:5.0}", sample(&s.mttf_months, year));
        }
        println!(" months");
        print!("{:9}  IPC:", "");
        for year in [0, 2, 4, 6, 8] {
            print!(" {:5.2}", sample(&s.norm_ipc, year));
        }
        println!(" (normalized)");
        println!();
        summaries.push((policy, s.clone()));
    }

    let end = |p: PolicyKind, f: &dyn Fn(&r2d3::engine::lifetime::LifetimeSeries) -> f64| {
        summaries.iter().find(|(k, _)| *k == p).map(|(_, s)| f(s)).unwrap_or(0.0)
    };
    let last = |v: &Vec<f64>| *v.last().unwrap_or(&0.0);
    let nr_ipc = end(PolicyKind::NoRecon, &|s| last(&s.norm_ipc));
    println!("after {months} months (faults + aging coupled):");
    println!(
        "  end-of-life throughput vs NoRecon — Lite {:.2}×, Pro {:.2}×",
        end(PolicyKind::Lite, &|s| last(&s.norm_ipc)) / nr_ipc,
        end(PolicyKind::Pro, &|s| last(&s.norm_ipc)) / nr_ipc,
    );
    println!(
        "  (the pure-aging ΔVth comparison of Fig. 5(a) — with fault arrival\n            disabled so dead stages don't freeze the metric — is regenerated by\n            `cargo bench -p r2d3-bench --bench fig5a`)"
    );
    Ok(())
}
