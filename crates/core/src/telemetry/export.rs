//! Trace exporters and schema validators.
//!
//! Two textual formats, both hand-written and byte-deterministic:
//!
//! * **JSON-lines** — one object per [`TelemetryRecord`], first keys
//!   always `epoch`, `cycle`, `type`; greppable and diffable.
//! * **Chrome trace-event** — the `{"traceEvents": [...]}` object
//!   form understood by Perfetto and `chrome://tracing`. Execution
//!   spans become `"X"` complete events; everything else is an `"i"`
//!   instant event carried with its fields in `args`.
//!
//! The validators parse with the workspace's JSON reader
//! ([`r2d3_netlist::json`]) and check the schema the golden-file tests
//! pin, so CI can verify an emitted trace without any external tooling.

use super::{TelemetryEvent, TelemetryRecord};
use crate::lifetime::LifetimeSeries;
use r2d3_netlist::json::{self, Value};
use std::error::Error;
use std::fmt::Write;

/// Pushes `"key": value` pairs for one event into `out` (no leading
/// comma; caller provides separators). Shared by both exporters so
/// field names never diverge between formats.
fn event_fields(event: &TelemetryEvent, out: &mut String) {
    match event {
        TelemetryEvent::Exec { pipe, cycles, retired } => {
            let _ = write!(out, "\"pipe\": {pipe}, \"cycles\": {cycles}, \"retired\": {retired}");
        }
        TelemetryEvent::Scan { tested, untested, detections } => {
            let _ = write!(
                out,
                "\"tested\": {tested}, \"untested\": {untested}, \"detections\": {detections}"
            );
        }
        TelemetryEvent::Detect { dut, pipe, latency, suspended } => {
            let _ = write!(
                out,
                "\"dut\": \"{}\", \"pipe\": {pipe}, \"latency\": {latency}, \
                 \"suspended\": {suspended}",
                super::stage_label(*dut)
            );
        }
        TelemetryEvent::Replay { stage } => {
            let _ = write!(out, "\"stage\": \"{}\"", super::stage_label(*stage));
        }
        TelemetryEvent::Verdict { dut, verdict, replays } => {
            let _ = write!(
                out,
                "\"dut\": \"{}\", \"verdict\": \"{}\", \"replays\": {replays}",
                super::stage_label(*dut),
                verdict.name()
            );
        }
        TelemetryEvent::Escalated { stage, score } => {
            let _ =
                write!(out, "\"stage\": \"{}\", \"score\": {score}", super::stage_label(*stage));
        }
        TelemetryEvent::CheckpointCommit { pipes } => {
            let _ = write!(out, "\"pipes\": {pipes}");
        }
        TelemetryEvent::CheckpointVerify { pipe, ok } => {
            let _ = write!(out, "\"pipe\": {pipe}, \"ok\": {ok}");
        }
        TelemetryEvent::Recovery { pipe, rolled_back } => {
            let _ = write!(out, "\"pipe\": {pipe}, \"rolled_back\": {rolled_back}");
        }
        TelemetryEvent::Reform { formed, ops, churn, rotation } => {
            let _ = write!(
                out,
                "\"formed\": {formed}, \"ops\": {ops}, \"churn\": {churn}, \
                 \"rotation\": {rotation}"
            );
        }
        TelemetryEvent::Rotate { window } => {
            let _ = write!(out, "\"window\": {window}");
        }
        TelemetryEvent::Misroute { pipe, expected, actual } => {
            let _ = write!(out, "\"pipe\": {pipe}, \"expected\": {expected}, \"actual\": {actual}");
        }
        TelemetryEvent::LinkQuarantine { link } => {
            let _ = write!(out, "\"link\": \"{}\"", super::stage_label(*link));
        }
        TelemetryEvent::EpochEnd { events } => {
            let _ = write!(out, "\"events\": {events}");
        }
    }
}

/// Lane (Chrome `tid`) an event renders on: its pipeline where one is
/// identified, else lane 0 (engine-wide events).
fn event_tid(event: &TelemetryEvent) -> u32 {
    match event {
        TelemetryEvent::Exec { pipe, .. }
        | TelemetryEvent::Detect { pipe, .. }
        | TelemetryEvent::CheckpointVerify { pipe, .. }
        | TelemetryEvent::Recovery { pipe, .. }
        | TelemetryEvent::Misroute { pipe, .. } => *pipe,
        _ => 0,
    }
}

/// Renders records as JSON-lines: one `{"epoch":…,"cycle":…,"type":…}`
/// object per line, trailing newline included when non-empty.
#[must_use]
pub fn json_lines(records: &[TelemetryRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(
            out,
            "{{\"epoch\": {}, \"cycle\": {}, \"type\": \"{}\"",
            r.epoch,
            r.cycle,
            r.event.name()
        );
        let mut fields = String::new();
        event_fields(&r.event, &mut fields);
        if !fields.is_empty() {
            out.push_str(", ");
            out.push_str(&fields);
        }
        out.push_str("}\n");
    }
    out
}

/// Incremental Chrome trace-event builder; one process per traced
/// engine (campaigns use one pid per scenario).
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Adds `records` under process id `pid` named `name` (emits the
    /// `process_name` metadata event first).
    pub fn add_process(&mut self, pid: u32, name: &str, records: &[TelemetryRecord]) {
        self.events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{name}\"}}}}"
        ));
        for r in records {
            let mut args = format!("\"epoch\": {}", r.epoch);
            let extra_len = args.len();
            args.push_str(", ");
            event_fields(&r.event, &mut args);
            if args.len() == extra_len + 2 {
                args.truncate(extra_len);
            }
            let tid = event_tid(&r.event);
            let ev = match r.event {
                // Execution spans know their duration: render a
                // complete event starting where the run began, on the
                // pipeline's own lane.
                TelemetryEvent::Exec { cycles, .. } => format!(
                    "{{\"name\": \"exec\", \"ph\": \"X\", \"ts\": {}, \"dur\": {cycles}, \
                     \"pid\": {pid}, \"tid\": {tid}, \"args\": {{{args}}}}}",
                    r.cycle.saturating_sub(cycles)
                ),
                _ => format!(
                    "{{\"name\": \"{}\", \"ph\": \"i\", \"ts\": {}, \"s\": \"t\", \
                     \"pid\": {pid}, \"tid\": {tid}, \"args\": {{{args}}}}}",
                    r.event.name(),
                    r.cycle
                ),
            };
            self.events.push(ev);
        }
    }

    /// Serializes the accumulated trace as a `{"traceEvents": [...]}`
    /// object.
    #[must_use]
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Single-process convenience wrapper over [`ChromeTrace`].
#[must_use]
pub fn chrome_trace(records: &[TelemetryRecord], process: &str) -> String {
    let mut trace = ChromeTrace::new();
    trace.add_process(0, process, records);
    trace.finish()
}

/// Renders a [`LifetimeSeries`] as Chrome `"C"` counter events (one
/// sample set per month on a months-as-microseconds timeline), so a
/// lifetime sweep is inspectable on the same Perfetto timeline as an
/// engine trace. Values here are physical quantities, so floats are
/// expected — golden-file tests pin the integer-only engine formats,
/// not this one.
#[must_use]
pub fn lifetime_counter_trace(series: &LifetimeSeries) -> String {
    let mut trace = ChromeTrace::new();
    trace.events.push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"lifetime\"}}"
            .to_string(),
    );
    let counters: [(&str, &[f64]); 6] = [
        ("mean_vth_shift_v", &series.mean_vth),
        ("max_vth_shift_v", &series.max_vth),
        ("mttf_months", &series.mttf_months),
        ("norm_ipc", &series.norm_ipc),
        ("active_pipelines", &series.active_pipelines),
        ("hottest_layer_temp_c", &series.hottest_layer_temp),
    ];
    for (i, month) in series.months.iter().enumerate() {
        for (name, values) in &counters {
            let Some(v) = values.get(i) else { continue };
            trace.events.push(format!(
                "{{\"name\": \"{name}\", \"ph\": \"C\", \"ts\": {month}, \"pid\": 0, \
                 \"tid\": 0, \"args\": {{\"value\": {v}}}}}"
            ));
        }
    }
    trace.finish()
}

/// Validates a JSON-lines telemetry dump: every non-empty line must be
/// an object with integer `epoch`/`cycle` and a known `type`. Returns
/// the number of records on success.
pub fn validate_json_lines(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_record(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        count += 1;
    }
    Ok(count)
}

fn validate_record(line: &str) -> Result<(), Box<dyn Error>> {
    let v = json::parse(line)?;
    v.int::<u64>("epoch")?;
    v.int::<u64>("cycle")?;
    let ty = v.str("type")?;
    if !TelemetryEvent::NAMES.contains(&ty) {
        return Err(format!("unknown event type \"{ty}\"").into());
    }
    Ok(())
}

/// Validates a Chrome trace-event file (object form): `traceEvents`
/// must be an array of events each carrying a string `name`, a phase
/// in {M, X, i, C} and integer `pid`/`tid`, with `ts` (and `dur` for
/// `"X"`) integers on non-metadata events. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc.arr("traceEvents").map_err(|e| e.to_string())?;
    for (i, ev) in events.iter().enumerate() {
        validate_event(ev).map_err(|e| format!("traceEvents[{i}]: {e}"))?;
    }
    Ok(events.len())
}

fn validate_event(ev: &Value) -> Result<(), Box<dyn Error>> {
    ev.str("name")?;
    let ph = ev.str("ph")?;
    if !matches!(ph, "M" | "X" | "i" | "C") {
        return Err(format!("unsupported phase \"{ph}\"").into());
    }
    ev.int::<u64>("pid")?;
    ev.int::<u64>("tid")?;
    if ph != "M" && ph != "C" {
        ev.int::<u64>("ts")?;
    }
    if ph == "X" {
        ev.int::<u64>("dur")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::VerdictKind;
    use super::*;
    use r2d3_isa::Unit;
    use r2d3_pipeline_sim::StageId;

    fn sample_records() -> Vec<TelemetryRecord> {
        let dut = StageId::new(2, Unit::Exu);
        vec![
            TelemetryRecord {
                epoch: 0,
                cycle: 20_000,
                event: TelemetryEvent::Exec { pipe: 1, cycles: 20_000, retired: 512 },
            },
            TelemetryRecord {
                epoch: 0,
                cycle: 20_000,
                event: TelemetryEvent::Detect { dut, pipe: 1, latency: 412, suspended: false },
            },
            TelemetryRecord {
                epoch: 0,
                cycle: 20_000,
                event: TelemetryEvent::Verdict { dut, verdict: VerdictKind::Permanent, replays: 3 },
            },
        ]
    }

    #[test]
    fn json_lines_round_trips_through_validator() {
        let text = json_lines(&sample_records());
        assert_eq!(validate_json_lines(&text), Ok(3));
        assert!(text.lines().next().unwrap().contains("\"type\": \"exec\""));
        assert!(text.contains("\"dut\": \"L2.Exu\""));
        assert!(text.contains("\"verdict\": \"permanent\""));
    }

    #[test]
    fn chrome_trace_round_trips_through_validator() {
        let text = chrome_trace(&sample_records(), "engine");
        // 3 records + 1 process_name metadata event.
        assert_eq!(validate_chrome_trace(&text), Ok(4));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"dur\": 20000"));
        // Exec span starts at cycle - dur, on its pipeline's lane.
        assert!(text.contains("\"ts\": 0, \"dur\": 20000"));
        assert!(text.contains("\"dur\": 20000, \"pid\": 0, \"tid\": 1"));
    }

    #[test]
    fn validators_reject_malformed_input() {
        assert!(validate_json_lines("{\"epoch\": 1}\n").is_err());
        assert!(validate_json_lines("{\"epoch\": 1, \"cycle\": 2, \"type\": \"bogus\"}\n").is_err());
        assert!(validate_json_lines("not json\n").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"i\"}]}").is_err());
    }

    #[test]
    fn exporters_are_deterministic() {
        let records = sample_records();
        assert_eq!(json_lines(&records), json_lines(&records));
        assert_eq!(chrome_trace(&records, "a"), chrome_trace(&records, "a"));
    }
}
