//! Fig. 6 — average temperature map of the hottest layer for Static,
//! R2D3-Lite and R2D3-Pro.

use r2d3_bench::{header, quick_lifetime_config};
use r2d3_core::lifetime::LifetimeSim;
use r2d3_core::policy::PolicyKind;
use r2d3_isa::kernels::KernelKind;

fn render(map: &[f64], nx: usize, ny: usize, t_min: f64, t_max: f64) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let span = (t_max - t_min).max(1e-9);
    let mut out = String::new();
    for y in (0..ny).rev() {
        for x in 0..nx {
            let t = map[y * nx + x];
            let i = (((t - t_min) / span) * (RAMP.len() - 1) as f64)
                .clamp(0.0, (RAMP.len() - 1) as f64) as usize;
            out.push(RAMP[i] as char);
        }
        out.push('\n');
    }
    out
}

fn main() {
    header("Fig. 6", "hottest-layer temperature maps under each policy's duty assignment");
    let mut maps = Vec::new();
    for policy in [PolicyKind::Static, PolicyKind::Lite, PolicyKind::Pro] {
        let mut cfg = quick_lifetime_config(policy, KernelKind::Gemm);
        cfg.months = 1;
        cfg.replicas = 1;
        let out = LifetimeSim::new(cfg).run().expect("lifetime sim");
        maps.push((policy, out));
    }

    let (t_min, t_max) = maps.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |acc, (_, o)| {
        o.initial_hot_layer_map.iter().fold(acc, |(lo, hi), &t| (lo.min(t), hi.max(t)))
    });
    println!(
        "Common scale: {t_min:.0} °C (' ') … {t_max:.0} °C ('@');  paper color bar: 111–147 °C\n"
    );

    let static_avg = avg(&maps[0].1.initial_hot_layer_map);
    for (policy, out) in &maps {
        let mean = avg(&out.initial_hot_layer_map);
        let peak = out.initial_hot_layer_map.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        println!(
            "{policy}: hottest-layer avg {mean:.1} °C, peak {peak:.1} °C, Δ vs Static {:+.1} °C",
            mean - static_avg
        );
        print!("{}", render(&out.initial_hot_layer_map, out.map_nx, out.map_ny, t_min, t_max));
        println!();
    }
    let lite_avg = avg(&maps[1].1.initial_hot_layer_map);
    let pro_avg = avg(&maps[2].1.initial_hot_layer_map);
    println!(
        "Average reduction over Static — Lite: {:.0} °C (paper: up to 24 °C), Pro: {:.0} °C (paper: up to 33 °C)",
        static_avg - lite_avg,
        static_avg - pro_avg
    );
}

fn avg(map: &[f64]) -> f64 {
    map.iter().sum::<f64>() / map.len().max(1) as f64
}
