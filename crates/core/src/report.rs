//! Measurement helpers and serializable experiment reports.

use r2d3_isa::kernels::{fft, gemm, gemv, KernelKind};
use r2d3_pipeline_sim::{System3d, SystemConfig};

/// Measured cycle-level profile of one workload (the short-timescale leg
/// of the two-timescale methodology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Which workload.
    pub kind: KernelKind,
    /// Per-pipeline IPC measured on the cycle-level simulator.
    pub ipc: f64,
    /// Demand: fraction of pipelines the workload keeps busy.
    pub demand: f64,
    /// Relative switching-activity weight.
    pub activity_weight: f64,
    /// Mean EXU activity factor during the run.
    pub exu_activity: f64,
    /// Mean LSU activity factor during the run.
    pub lsu_activity: f64,
    /// Mean FFU activity factor during the run.
    pub ffu_activity: f64,
}

/// Measures a kernel's IPC and per-unit activity on the 8-core simulator.
///
/// Uses a mid-size instance of each kernel and runs every pipeline with a
/// distinct seed (independent instruction streams, as in the paper).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_kernel_profile(
    kind: KernelKind,
) -> Result<KernelProfile, r2d3_pipeline_sim::SimError> {
    let config = SystemConfig::default();
    let mut sys = System3d::new(&config);
    for p in 0..config.pipelines {
        let seed = p as u64 + 1;
        let program = match kind {
            KernelKind::Gemm => gemm(16, 16, 16, seed).program().clone(),
            KernelKind::Gemv => gemv(48, 48, seed).program().clone(),
            KernelKind::Fft => fft(8, seed).program().clone(),
        };
        sys.load_program(p, program)?;
    }
    let window = 60_000u64;
    sys.run(window)?;

    let mut ipc_sum = 0.0;
    let mut counted = 0usize;
    for p in 0..config.pipelines {
        let pipe = sys.pipeline(p).expect("index in range");
        if pipe.retired() > 0 {
            ipc_sum += pipe.retired() as f64 / pipe.cycles().max(1) as f64;
            counted += 1;
        }
    }
    let stats = sys.stats();
    let mean_unit = |unit: r2d3_isa::Unit| {
        let total: u64 =
            (0..config.layers).map(|l| stats.busy(r2d3_pipeline_sim::StageId::new(l, unit))).sum();
        total as f64 / (config.layers as f64 * window as f64)
    };

    Ok(KernelProfile {
        kind,
        ipc: if counted == 0 { 0.0 } else { ipc_sum / counted as f64 },
        demand: kind.core_demand_fraction(),
        activity_weight: kind.activity_weight(),
        exu_activity: mean_unit(r2d3_isa::Unit::Exu),
        lsu_activity: mean_unit(r2d3_isa::Unit::Lsu),
        ffu_activity: mean_unit(r2d3_isa::Unit::Ffu),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_measure_all_kernels() {
        for kind in KernelKind::ALL {
            let p = measure_kernel_profile(kind).unwrap();
            assert!(p.ipc > 0.1 && p.ipc < 1.0, "{kind} IPC {ipc}", ipc = p.ipc);
            assert!(p.exu_activity > 0.0);
            assert!(p.lsu_activity > 0.0);
        }
    }

    #[test]
    fn fp_kernels_exercise_the_ffu() {
        let p = measure_kernel_profile(KernelKind::Gemv).unwrap();
        assert!(p.ffu_activity > 0.0, "GEMV is FMAC-heavy");
    }
}
