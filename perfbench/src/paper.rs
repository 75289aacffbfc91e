//! The paper's headline values (the "Paper" column of EXPERIMENTS.md's
//! summary matrix) and the simulator's error against them.

/// One headline quantity of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Stable key, `<figure>.<quantity>`.
    pub key: &'static str,
    /// The value the paper reports.
    pub paper: f64,
    /// Unit of both the paper and the measured value.
    pub unit: &'static str,
}

const fn h(key: &'static str, paper: f64, unit: &'static str) -> Headline {
    Headline { key, paper, unit }
}

/// Every headline value, in the order the `figures` workload measures them.
pub const HEADLINES: [Headline; 15] = [
    h("fig4b.stage_detectable", 96.0, "%"),
    h("fig4b.core_detectable", 84.0, "%"),
    h("fig4c.stage_detected_lt5k", 96.0, "%"),
    h("fig4c.core_detected_lt5k", 63.0, "%"),
    h("fig5a.norecon_dvth_8y", 0.10, "V"),
    h("fig5a.lite_dvth_reduction", 31.0, "%"),
    h("fig5a.pro_dvth_reduction", 53.0, "%"),
    h("fig5a.pro_over_lite_reduction", 30.0, "%"),
    h("fig5b.lite_mttf_gain", 1.63, "x"),
    h("fig5b.pro_mttf_gain", 2.16, "x"),
    h("fig5c.fft_pro_ipc_gain", 2.27, "x"),
    h("fig5c.gemm_pro_ipc_gain", 1.97, "x"),
    h("fig5c.gemv_pro_ipc_gain", 3.76, "x"),
    h("fig6.lite_cooling", 24.0, "C"),
    h("fig6.pro_cooling", 33.0, "C"),
];

/// Mean relative error (%) of `measured` against [`HEADLINES`].
pub fn paper_err_pct(measured: &[f64; HEADLINES.len()]) -> f64 {
    let sum: f64 =
        HEADLINES.iter().zip(measured).map(|(h, m)| 100.0 * (m - h.paper).abs() / h.paper).sum();
    sum / HEADLINES.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_have_no_error_against_themselves() {
        let paper = HEADLINES.map(|h| h.paper);
        assert_eq!(paper_err_pct(&paper), 0.0);
        let mut off = paper;
        off[0] *= 1.5; // one value 50 % off → mean error 50/15 %
        assert!((paper_err_pct(&off) - 50.0 / 15.0).abs() < 1e-9);
    }
}
