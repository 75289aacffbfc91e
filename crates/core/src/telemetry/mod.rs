//! Structured, deterministic telemetry for the R2D3 engine.
//!
//! R2D3's value claims are latency claims — detection within
//! `T_epoch + T_test`, one-cycle diagnosis stalls, bounded repair
//! reformation — and none of them are measurable from coarse end-of-run
//! counters. This module threads a cycle-stamped event stream through
//! the whole detect → diagnose → repair → prevent loop:
//!
//! * a [`TelemetrySink`] receives [`TelemetryRecord`]s from
//!   [`crate::engine::R2d3Engine::run_epoch`] — execution spans, scan
//!   summaries, per-detection latencies, every TMR replay, verdicts,
//!   checkpoint commits/verifications, recoveries, crossbar
//!   reformations and rotations;
//! * [`NullSink`] is the zero-cost default: `is_enabled()` is `false`,
//!   `record()` is a no-op, and the whole record path monomorphizes
//!   away;
//! * [`RingSink`] is a fixed-capacity ring buffer with a zero-alloc
//!   record path (records are `Copy`; the buffer is preallocated);
//! * [`StreamSink`] streams JSON-lines through a bounded channel to a
//!   writer thread, so million-epoch traces survive without the ring
//!   cap — with explicit backpressure accounting ([`OverflowPolicy`]);
//! * [`Metrics`]/[`MetricsSnapshot`] aggregate derived per-epoch
//!   metrics — counters plus fixed-bucket [`Histogram`]s for detection
//!   latency, replay count, reformation cost and rotation churn;
//! * [`json_lines`] and [`chrome_trace`] render record streams as
//!   JSON-lines or Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`).
//!
//! # Determinism contract
//!
//! Every field of every record is derived from simulated state — cycle
//! counters, epoch indices, stage coordinates — never from host clocks,
//! allocation addresses or hash-iteration order. The sink is strictly
//! write-only from the engine's perspective: no verdict, repair or
//! rotation decision ever reads it. Consequently the engine's behavior
//! (and every campaign report) is byte-identical whichever sink is
//! installed, and two runs with the same seed produce identical traces.

mod export;
mod metrics;
mod stream;

pub use export::{
    chrome_trace, json_lines, lifetime_counter_trace, validate_chrome_trace, validate_json_lines,
    ChromeTrace,
};
pub use metrics::{
    Histogram, Metrics, MetricsSnapshot, DETECTION_LATENCY_BOUNDS, REFORMATION_OPS_BOUNDS,
    REPLAY_COUNT_BOUNDS, ROTATION_CHURN_BOUNDS,
};
pub use stream::{OverflowPolicy, StreamSink, StreamStats, DEFAULT_STREAM_CAPACITY};

use r2d3_pipeline_sim::StageId;

/// Verdict of one single-replay TMR diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// The symptom did not recur under replay: a consumed soft error.
    Transient,
    /// The majority vote localized a permanent fault.
    Permanent,
    /// Every vote split three ways; both comparison parties quarantined.
    Inconclusive,
}

impl VerdictKind {
    /// Stable export name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            VerdictKind::Transient => "transient",
            VerdictKind::Permanent => "permanent",
            VerdictKind::Inconclusive => "inconclusive",
        }
    }
}

/// One structured engine event. All variants are `Copy` so the record
/// path never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// One pipeline's share of an epoch's execution (a span: it ends at
    /// the record's cycle stamp). Emitted once per logical pipeline per
    /// epoch so trace viewers render per-pipe lanes.
    Exec {
        /// The logical pipeline.
        pipe: u32,
        /// Cycles executed.
        cycles: u64,
        /// Operations the pipeline retired during the span (0 for
        /// broken/idle pipelines).
        retired: u64,
    },
    /// Epoch-boundary detection scan summary.
    Scan {
        /// DUT stages actually compared against a redundant stage.
        tested: u32,
        /// Mapped stages skipped (no redundant available / empty window).
        untested: u32,
        /// Symptoms found.
        detections: u32,
    },
    /// One checker firing, with its measured detection latency.
    Detect {
        /// The stage under test.
        dut: StageId,
        /// Pipeline that was using it.
        pipe: u32,
        /// Cycles from the symptom-producing operation to the scan that
        /// caught it (the paper's detection-latency claim).
        latency: u64,
        /// Whether the redundant stage was borrowed from a running core.
        suspended: bool,
    },
    /// One TMR replay of the symptom-generating operation.
    Replay {
        /// The stage that re-executed the operation.
        stage: StageId,
    },
    /// Diagnosis verdict for one detection.
    Verdict {
        /// The stage under test.
        dut: StageId,
        /// Classification.
        verdict: VerdictKind,
        /// Replays the diagnosis consumed (2 + third-voter retries).
        replays: u32,
    },
    /// Symptom-history escalation quarantined a stage.
    Escalated {
        /// The quarantined stage.
        stage: StageId,
        /// Its decayed symptom score when it crossed the threshold, in
        /// 1/1024 symptom units.
        score: u64,
    },
    /// Checkpoints were committed after a clean scan.
    CheckpointCommit {
        /// Pipelines committed.
        pipes: u32,
    },
    /// A committed slot's payload digest was checked during recovery.
    CheckpointVerify {
        /// Pipeline whose slot was verified.
        pipe: u32,
        /// `false` means the slot rotted since commit and was rejected.
        ok: bool,
    },
    /// A corrupted pipeline was recovered.
    Recovery {
        /// The recovered pipeline.
        pipe: u32,
        /// `true` for a checkpoint rollback, `false` for a restart.
        rolled_back: bool,
    },
    /// The crossbars were re-formed (repair or rotation).
    Reform {
        /// Complete pipelines after reformation.
        formed: u32,
        /// Crossbar operations performed (unassigns + assigns) — the
        /// reformation-cost proxy in this zero-latency-reconfig model.
        ops: u32,
        /// Slots whose serving stage changed.
        churn: u32,
        /// `true` for a calibration-window rotation, `false` for repair.
        rotation: bool,
    },
    /// A calibration-window rotation boundary was crossed.
    Rotate {
        /// Calibration-window index.
        window: u64,
    },
    /// Route scrub found a crossbar select register disagreeing with the
    /// controller's routing intent and rewrote it.
    Misroute {
        /// Pipeline whose slot was misrouted.
        pipe: u32,
        /// Layer the controller intended the slot to read.
        expected: u32,
        /// Layer the select register actually read (`u32::MAX` when the
        /// readback was empty).
        actual: u32,
    },
    /// A vertical TSV link bundle was quarantined as a routing
    /// constraint: repair avoids it without retiring its (healthy)
    /// stage.
    LinkQuarantine {
        /// The quarantined link (stage-coordinate addressed).
        link: StageId,
    },
    /// End of one `run_epoch` call.
    EpochEnd {
        /// [`crate::engine::EngineEvent`]s the epoch produced.
        events: u32,
    },
}

impl TelemetryEvent {
    /// Stable export name (the `type` field of the JSON schema).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::Exec { .. } => "exec",
            TelemetryEvent::Scan { .. } => "scan",
            TelemetryEvent::Detect { .. } => "detect",
            TelemetryEvent::Replay { .. } => "replay",
            TelemetryEvent::Verdict { .. } => "verdict",
            TelemetryEvent::Escalated { .. } => "escalate",
            TelemetryEvent::CheckpointCommit { .. } => "checkpoint_commit",
            TelemetryEvent::CheckpointVerify { .. } => "checkpoint_verify",
            TelemetryEvent::Recovery { .. } => "recovery",
            TelemetryEvent::Reform { .. } => "reform",
            TelemetryEvent::Rotate { .. } => "rotate",
            TelemetryEvent::Misroute { .. } => "misroute",
            TelemetryEvent::LinkQuarantine { .. } => "link_quarantine",
            TelemetryEvent::EpochEnd { .. } => "epoch_end",
        }
    }

    /// Every event name the exporters can emit, in schema order.
    pub const NAMES: [&'static str; 14] = [
        "exec",
        "scan",
        "detect",
        "replay",
        "verdict",
        "escalate",
        "checkpoint_commit",
        "checkpoint_verify",
        "recovery",
        "reform",
        "rotate",
        "misroute",
        "link_quarantine",
        "epoch_end",
    ];
}

/// A cycle-stamped telemetry record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Engine epoch counter when the event was recorded.
    pub epoch: u64,
    /// Substrate cycle count when the event was recorded (simulated
    /// time, never host time).
    pub cycle: u64,
    /// The event.
    pub event: TelemetryEvent,
}

/// Receives engine telemetry. Implementations must never feed back into
/// engine decisions (see the module-level determinism contract).
pub trait TelemetrySink {
    /// Accepts one record. Called only when [`is_enabled`] is `true`,
    /// so disabled sinks pay nothing on the record path.
    ///
    /// [`is_enabled`]: TelemetrySink::is_enabled
    fn record(&mut self, record: TelemetryRecord);

    /// Whether the engine should construct and deliver records at all.
    /// Defaults to `true`; [`NullSink`] returns `false`, letting the
    /// whole instrumentation path compile away.
    #[must_use]
    fn is_enabled(&self) -> bool {
        true
    }

    /// Records this sink has lost (ring overwrite, channel overflow
    /// under a drop policy, …). Surfaced in
    /// [`MetricsSnapshot::trace_dropped`](crate::telemetry::MetricsSnapshot)
    /// so truncated traces are visible in reports. Lossless sinks keep
    /// the default of 0.
    #[must_use]
    fn dropped(&self) -> u64 {
        0
    }
}

/// The disabled sink: records are never constructed, the instrumented
/// paths monomorphize to the uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline]
    fn record(&mut self, _record: TelemetryRecord) {}

    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Default [`RingSink`] capacity (records).
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Fixed-capacity ring-buffer sink with a zero-alloc record path.
///
/// The buffer is preallocated at construction; once full, the oldest
/// record is overwritten and [`dropped`](RingSink::dropped) counts the
/// loss — recording never allocates and never fails.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TelemetryRecord>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding up to `capacity` records (at least one).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink { buf: Vec::with_capacity(capacity), capacity, head: 0, dropped: 0 }
    }

    /// A ring with the default capacity ([`DEFAULT_RING_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        RingSink::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum records the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TelemetryRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Empties the ring (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl Default for RingSink {
    fn default() -> Self {
        RingSink::new()
    }
}

impl TelemetrySink for RingSink {
    #[inline]
    fn record(&mut self, record: TelemetryRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    #[inline]
    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Renders a stage as the stable export label (e.g. `L2.Exu`), matching
/// the campaign report's stage notation.
#[must_use]
pub fn stage_label(stage: StageId) -> String {
    format!("L{}.{:?}", stage.layer, stage.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_isa::Unit;

    fn rec(i: u64) -> TelemetryRecord {
        TelemetryRecord { epoch: i, cycle: i * 10, event: TelemetryEvent::EpochEnd { events: 0 } }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.is_enabled());
        sink.record(rec(1)); // no-op, must not panic
    }

    #[test]
    fn ring_keeps_newest_records_and_counts_drops() {
        let mut ring = RingSink::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..6 {
            ring.record(rec(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let epochs: Vec<u64> = ring.records().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4, 5], "oldest-first, newest kept");
    }

    #[test]
    fn ring_clear_resets() {
        let mut ring = RingSink::with_capacity(2);
        ring.record(rec(0));
        ring.record(rec(1));
        ring.record(rec(2));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.record(rec(7));
        assert_eq!(ring.records()[0].epoch, 7);
    }

    #[test]
    fn event_names_match_schema_list() {
        let sample = [
            TelemetryEvent::Exec { pipe: 0, cycles: 1, retired: 0 },
            TelemetryEvent::Scan { tested: 0, untested: 0, detections: 0 },
            TelemetryEvent::Detect {
                dut: StageId::new(0, Unit::Exu),
                pipe: 0,
                latency: 0,
                suspended: false,
            },
            TelemetryEvent::Replay { stage: StageId::new(0, Unit::Exu) },
            TelemetryEvent::Verdict {
                dut: StageId::new(0, Unit::Exu),
                verdict: VerdictKind::Transient,
                replays: 2,
            },
            TelemetryEvent::Escalated { stage: StageId::new(0, Unit::Exu), score: 0 },
            TelemetryEvent::CheckpointCommit { pipes: 1 },
            TelemetryEvent::CheckpointVerify { pipe: 0, ok: true },
            TelemetryEvent::Recovery { pipe: 0, rolled_back: true },
            TelemetryEvent::Reform { formed: 0, ops: 0, churn: 0, rotation: false },
            TelemetryEvent::Rotate { window: 1 },
            TelemetryEvent::Misroute { pipe: 0, expected: 1, actual: 2 },
            TelemetryEvent::LinkQuarantine { link: StageId::new(0, Unit::Exu) },
            TelemetryEvent::EpochEnd { events: 0 },
        ];
        let names: Vec<&str> = sample.iter().map(TelemetryEvent::name).collect();
        assert_eq!(names, TelemetryEvent::NAMES);
    }
}
