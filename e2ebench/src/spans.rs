//! In-memory spans around the benchmark's calls into each layer.
//!
//! The program itself is not instrumented: the traced replay of a
//! workload wraps each public call it makes (`clara_lang::parse`,
//! `clara_predict::enumerate_classes`, ...) in a span. A span records its
//! name, start, end, parent span and the operation (or cell, or request)
//! id it belongs to. Spans stay in memory until the run ends; the
//! per-layer metrics are computed from them and they are written out as
//! a Chrome trace.

use clara_telemetry::{ChromeTrace, TraceEvent};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or `NO_PARENT`.
    pub parent: u32,
    /// Operation, cell, or request id.
    pub op: u64,
    /// Recording thread (one tracer per thread).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it nests under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            tid: self.tid,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() matches a begin()") as usize;
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Record a span whose interval was measured elsewhere (the daemon's
    /// own clocks), nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            tid: self.tid,
        });
    }

    /// Nanoseconds since the epoch of an instant.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Spans merged from every thread of a traced phase.
#[derive(Debug, Default)]
pub struct SpanSet {
    pub spans: Vec<Span>,
    /// Self time (duration minus direct children) per span, same order.
    self_ns: Vec<u64>,
}

impl SpanSet {
    pub fn from_tracers(tracers: Vec<Tracer>) -> Self {
        let mut spans = Vec::new();
        let mut self_ns = Vec::new();
        for t in tracers {
            assert!(t.open.is_empty(), "traced phase left a span open");
            let base = spans.len() as u32;
            let mut own: Vec<u64> = t.spans.iter().map(Span::dur_ns).collect();
            for s in &t.spans {
                if s.parent != NO_PARENT {
                    let p = s.parent as usize;
                    own[p] = own[p].saturating_sub(s.dur_ns());
                }
            }
            for mut s in t.spans {
                if s.parent != NO_PARENT {
                    s.parent += base;
                }
                spans.push(s);
            }
            self_ns.extend(own);
        }
        SpanSet { spans, self_ns }
    }

    /// Total self time of one name, microseconds (0 when absent).
    pub fn self_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| *own as f64 / 1e3)
            .sum()
    }

    /// Durations (µs) of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Serialize as a Chrome trace: one track per recording thread, the
    /// operation id as the event category, nesting by interval.
    pub fn to_chrome(&self) -> ChromeTrace {
        ChromeTrace {
            events: self
                .spans
                .iter()
                .map(|s| TraceEvent {
                    name: s.name.to_string(),
                    cat: format!("op {}", s.op),
                    ts_us: s.start_ns as f64 / 1e3,
                    dur_us: s.dur_ns() as f64 / 1e3,
                    pid: 1,
                    tid: s.tid,
                })
                .collect(),
        }
    }
}
