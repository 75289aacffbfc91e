//! Deterministic JSON rendering of campaign reports.
//!
//! Hand-rolled writer: fixed key order, fixed outcome/kind ordering, no
//! floats, no timestamps — the same campaign configuration renders to a
//! byte-identical document on every run and every machine, so reports
//! can be diffed (and CI can assert on them) directly.

use crate::campaign::durable::{event_counts_to_json, sweep_metrics_to_json};
use crate::campaign::runner::{CampaignReport, Outcome, SubstrateReport};
use crate::campaign::scenario::{FaultScenario, Injection, KIND_NAMES};
use std::fmt::Write;

/// Renders a campaign report as deterministic, pretty-printed JSON.
#[must_use]
pub fn render_report(report: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    let _ = writeln!(out, "  \"scenarios_per_substrate\": {},", report.scenarios_per_substrate);
    out.push_str("  \"active_kinds\": [");
    for (i, k) in report.kinds.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\"");
    }
    out.push_str("],\n");
    let _ = writeln!(out, "  \"total_scenarios\": {},", report.total_scenarios());
    let _ = writeln!(out, "  \"failures\": {},", report.failures());
    out.push_str("  \"substrates\": [\n");
    for (i, sub) in report.substrates.iter().enumerate() {
        render_substrate(&mut out, sub);
        out.push_str(if i + 1 < report.substrates.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_substrate(out: &mut String, sub: &SubstrateReport) {
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"substrate\": \"{}\",", sub.substrate);
    let _ = writeln!(out, "      \"scenarios\": {},", sub.results.len());

    out.push_str("      \"outcomes\": {");
    for (i, o) in Outcome::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {}", o.name(), sub.outcome_count(*o));
    }
    out.push_str("},\n");

    out.push_str("      \"kinds\": {\n");
    for (i, kind) in KIND_NAMES.iter().enumerate() {
        let _ = write!(out, "        \"{kind}\": {{");
        for (j, o) in Outcome::ALL.iter().enumerate() {
            let n = sub.results.iter().filter(|r| r.kind == *kind && r.outcome == *o).count();
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {n}", o.name());
        }
        out.push_str(if i + 1 < KIND_NAMES.len() { "},\n" } else { "}\n" });
    }
    out.push_str("      },\n");

    out.push_str("      \"events\": ");
    event_counts_to_json(out, &sub.total_counts());
    out.push_str(",\n      \"metrics\": ");
    sweep_metrics_to_json(out, &sub.metrics);
    out.push_str(",\n");

    out.push_str("      \"results\": [\n");
    for (i, r) in sub.results.iter().enumerate() {
        let _ = write!(
            out,
            "        {{\"id\": {}, \"kind\": \"{}\", \"outcome\": \"{}\"}}",
            r.id,
            r.kind,
            r.outcome.name()
        );
        out.push_str(if i + 1 < sub.results.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ],\n");

    let failures: Vec<_> = sub.results.iter().filter(|r| r.outcome.is_failure()).collect();
    if failures.is_empty() {
        out.push_str("      \"failure_details\": []\n");
    } else {
        out.push_str("      \"failure_details\": [\n");
        for (i, r) in failures.iter().enumerate() {
            out.push_str("        {");
            let _ = write!(
                out,
                "\"id\": {}, \"kind\": \"{}\", \"outcome\": \"{}\", \"counts\": ",
                r.id,
                r.kind,
                r.outcome.name()
            );
            event_counts_to_json(out, &r.counts);
            if let Some(shrunk) = &r.shrunk {
                out.push_str(", \"shrunk\": ");
                render_scenario(out, shrunk);
            }
            out.push('}');
            out.push_str(if i + 1 < failures.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
    }
    out.push_str("    }");
}

fn render_scenario(out: &mut String, sc: &FaultScenario) {
    let _ = write!(out, "{{\"epochs\": {}, \"injections\": [", sc.epochs);
    for (i, inj) in sc.injections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_injection(out, inj);
    }
    out.push_str("]}");
}

fn render_injection(out: &mut String, inj: &Injection) {
    let _ = write!(
        out,
        "{{\"epoch\": {}, \"stage\": \"L{}.{:?}\", \"pipe\": {}, \"seed\": {}}}",
        inj.epoch, inj.stage.layer, inj.stage.unit, inj.pipe, inj.seed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::runner::{EventCounts, ScenarioResult};
    use crate::campaign::scenario::FaultKind;
    use r2d3_isa::Unit;
    use r2d3_pipeline_sim::StageId;

    fn tiny_report() -> CampaignReport {
        let shrunk = FaultScenario {
            id: 1,
            kind: FaultKind::Burst,
            injections: vec![Injection {
                epoch: 1,
                stage: StageId::new(2, Unit::Exu),
                pipe: 2,
                seed: 9,
            }],
            epochs: 3,
        };
        CampaignReport {
            seed: 7,
            scenarios_per_substrate: 2,
            kinds: vec!["permanent", "burst"],
            substrates: vec![SubstrateReport {
                substrate: "behavioral",
                results: vec![
                    ScenarioResult {
                        id: 0,
                        kind: "permanent",
                        outcome: Outcome::DetectedRepaired,
                        counts: EventCounts { symptoms: 1, permanents: 1, ..Default::default() },
                        shrunk: None,
                    },
                    ScenarioResult {
                        id: 1,
                        kind: "burst",
                        outcome: Outcome::SilentCorruption,
                        counts: EventCounts::default(),
                        shrunk: Some(shrunk),
                    },
                ],
                metrics: crate::campaign::SweepMetrics::default(),
            }],
        }
    }

    #[test]
    fn rendering_is_deterministic_and_structurally_sound() {
        let report = tiny_report();
        let a = render_report(&report);
        let b = render_report(&report);
        assert_eq!(a, b);
        // Balanced braces/brackets (cheap structural check without a
        // JSON parser in the dependency set).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"failures\": 1"));
        assert!(a.contains("\"silent_corruption\": 1"));
        assert!(a.contains("\"shrunk\": {\"epochs\": 3"));
        assert!(a.contains("L2.Exu"));
    }

    #[test]
    fn failure_free_report_has_empty_details() {
        let mut report = tiny_report();
        report.substrates[0].results.truncate(1);
        let text = render_report(&report);
        assert!(text.contains("\"failure_details\": []"));
        assert!(text.contains("\"failures\": 0"));
    }
}
