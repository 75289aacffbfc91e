//! Collected metrics, output checks and the run's printed result.

use crate::stats::{self, Pct};
use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`stats::valid_name`]).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (see [`stats::valid_unit`]).
    pub unit: &'static str,
    /// How the value was formed: its sample count, repetitions or base.
    pub basis: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Output checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (scenario runs, figure computations or jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Free-form lines printed before the metrics (e.g. paper values).
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, basis: impl Into<String>) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, basis: basis.into() });
    }

    /// Records the median of repeated measurements of one quantity, with
    /// their count and range.
    pub fn add_median(&mut self, name: &str, samples: &[f64], unit: &'static str, what: &str) {
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let basis = format!("median of {} {what} (min {lo:.6}, max {hi:.6})", samples.len());
        self.add(name, stats::median(samples), unit, basis);
    }

    /// Records percentile `p` of `samples` (scaled by `scale`), or fails a
    /// check when too few samples lie beyond it.
    pub fn add_pct(&mut self, name: &str, samples: &[f64], p: f64, scale: f64, unit: &'static str) {
        match stats::percentile(samples, p) {
            Some(Pct { value, n }) => self.add(name, value * scale, unit, format!("n={n}")),
            None => self.check(
                &format!(
                    "{name}: {} samples leave fewer than {} beyond p{}",
                    samples.len(),
                    stats::MIN_BEYOND,
                    p * 100.0
                ),
                false,
            ),
        }
    }

    /// Records an output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Whether every check passed and every metric is finite and well named.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| {
                m.value.is_finite() && stats::valid_name(&m.name) && stats::valid_unit(m.unit)
            })
    }

    /// Value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable lines: notes, checks and every metric with its basis.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        for m in &self.metrics {
            let _ =
                writeln!(out, "metric {:<48} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.basis);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `keep`.
    pub fn json(&self, keep: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in &self.metrics {
            if !keep.contains(&m.name.as_str()) {
                continue;
            }
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if first { "" } else { ", " },
                m.name,
                json_number(m.value),
                m.unit
            );
            first = false;
        }
        out.push_str("}}");
        out
    }
}

/// A finite value with all its digits; non-finite values (which fail
/// [`Report::correct`]) print as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_counts_and_selected_metrics() {
        let mut r = Report { attempted: 4, ..Default::default() };
        r.add("wall_s", 1.25, "s", "median of 2 passes");
        r.add("extra", 3.0, "count", "");
        r.check("bytes match", true);
        assert_eq!(
            r.json(&["wall_s"]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.add_pct("too_few", &[1.0, 2.0], 0.5, 1.0, "s");
        assert!(!r.correct(), "an unreportable percentile fails the run");
    }
}
