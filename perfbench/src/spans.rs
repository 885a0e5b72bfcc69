//! In-memory spans for the traced run.
//!
//! The benchmark records spans from its own code, around each call it
//! makes into a layer. A span names the layer, carries the request id it
//! replays, and points at its parent: the span of the next layer out for
//! the same request. A layer's self time is its duration minus the time
//! its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`kernel`, `executor`, `lane`, `engine`, `wire`, …).
    pub name: &'static str,
    /// Start, microseconds since the recorder's origin.
    pub start_us: f64,
    /// End, microseconds since the recorder's origin.
    pub end_us: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans; written out once at the end of the run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Time `f` as a span; returns its index and `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        (self.push(name, req, parent, t0, t1), out)
    }

    /// Record a span measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        t0: Instant,
        t1: Instant,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(t0),
            end_us: us(t1),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines: `{"name", "start_us", "end_us", "parent", "req"}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"req\": {}}}",
                sp.name, sp.start_us, sp.end_us, sp.req
            );
        }
        s
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its children. Children are timed as separate calls, so they do not
/// overlap one another; a negative self time means the inner call ran
/// slower than the outer one on that request and is kept as measured.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for sp in spans {
        if let Some(p) = sp.parent {
            out[p] -= sp.dur_us();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            req: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // wire(100) ⊃ engine(60) ⊃ executor(45) ⊃ kernel(30)
        let spans = vec![
            span("wire", 0.0, 100.0, None),
            span("engine", 200.0, 260.0, Some(0)),
            span("executor", 300.0, 345.0, Some(1)),
            span("kernel", 400.0, 430.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40.0, 15.0, 15.0, 30.0]);
        // the ledger adds back up to the outermost span
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn several_children_and_negative_residuals() {
        let spans = vec![
            span("engine", 0.0, 50.0, None),
            span("lane", 60.0, 70.0, Some(0)),
            span("executor", 80.0, 125.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![-5.0, 10.0, 45.0]);
    }

    #[test]
    fn recorder_links_and_serializes() {
        let mut r = Recorder::default();
        let (outer, _) = r.time("engine", 1, None, || ());
        let (inner, v) = r.time("executor", 1, Some(outer), || 42);
        assert_eq!(v, 42);
        assert_eq!(r.spans()[inner].parent, Some(outer));
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\": \"executor\"") && text.contains("\"parent\": 0"));
    }
}
