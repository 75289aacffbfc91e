//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory while a workload runs and are written out once,
//! at the end, as Chrome trace-event JSON (loadable in Perfetto). A
//! disabled tracer records nothing, so the untraced runs that produce the
//! end-to-end metrics pay only for a branch.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `campaign.scenario`.
    pub name: String,
    /// Identifier shared by every span of one scenario or job (0 when the
    /// span belongs to no such unit).
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start offset (s).
    pub start: f64,
    /// End offset (s).
    pub end: f64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Offset of `instant` from the tracer's origin (s).
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span nested under the innermost open span.
    pub fn span<R>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.at(Instant::now());
        out
    }

    /// Appends a span measured elsewhere (from timestamps taken inside a
    /// callback or on the client side of a socket), with explicit offsets
    /// and parent; returns its index.
    pub fn push(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), id, parent, start, end });
        self.spans.len() - 1
    }

    /// Duration of span `idx` minus the part of it its child spans cover.
    pub fn self_time(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (span.end - span.start) - covered
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events,
    /// microsecond timestamps, parent and self time in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"id\": {}, \
                 \"parent\": {parent}, \"self_us\": {:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name.replace(['"', '\\'], "_"),
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.id,
                self.self_time(i) * 1e6,
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.push("root", 0, None, 0.0, 10.0);
        // Two overlapping children cover [1, 4]; a third covers [6, 7];
        // a grandchild must not count against the root.
        let a = t.push("a", 1, Some(root), 1.0, 3.0);
        t.push("b", 2, Some(root), 2.0, 4.0);
        t.push("c", 3, Some(root), 6.0, 7.0);
        t.push("a.inner", 1, Some(a), 1.5, 2.5);
        assert!((t.self_time(root) - 6.0).abs() < 1e-12);
        assert!((t.self_time(a) - 1.0).abs() < 1e-12);
        // A child spilling past its parent is clipped to the parent.
        let p = t.push("p", 0, None, 20.0, 22.0);
        t.push("late", 0, Some(p), 21.0, 25.0);
        assert!((t.self_time(p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert!(t.chrome_json().contains("\"name\": \"inner\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
