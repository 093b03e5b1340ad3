//! Per-packet stage timelines and Chrome trace-event export.
//!
//! The timeline records, for the first N packets of a simulation, one
//! span per executed stage: which packet, which stage, which unit, when
//! it started and how long it ran (all in NIC cycles). The export emits
//! the Chrome trace-event JSON format — an array of complete (`"ph":
//! "X"`) events with microsecond `ts`/`dur` — which Perfetto and
//! `chrome://tracing` load directly: one track (`tid`) per hardware
//! thread, packets visible as labeled spans along each track.

use crate::json::{ObjBuilder, Value};

/// One recorded stage execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Packet index in trace order.
    pub packet: u64,
    /// Stage name from the [`NicProgram`](https://docs.rs/clara-nicsim).
    pub stage: String,
    /// Unit label (`npu`, `checksum-accel`, ...).
    pub unit: String,
    /// Hardware thread the packet ran on (one Perfetto track each).
    pub tid: u32,
    /// Stage start, cycles since simulation start.
    pub start_cycles: u64,
    /// Stage duration, cycles.
    pub dur_cycles: u64,
}

/// A bounded per-packet stage recorder. Recording stops after
/// [`StageTimeline::limit`] distinct packets so the opt-in stays cheap
/// on long traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimeline {
    /// Record stages for packets with index below this.
    pub limit: u64,
    /// Recorded stage spans, in execution order.
    pub spans: Vec<StageSpan>,
}

impl StageTimeline {
    /// A timeline recording the first `limit` packets.
    pub fn first(limit: u64) -> Self {
        StageTimeline { limit, spans: Vec::new() }
    }

    /// Whether stages of packet `packet` should be recorded.
    #[inline]
    pub fn wants(&self, packet: u64) -> bool {
        packet < self.limit
    }

    /// Record one stage execution (caller has checked [`Self::wants`]).
    pub fn record(
        &mut self,
        packet: u64,
        stage: &str,
        unit: &str,
        tid: u32,
        start_cycles: u64,
        dur_cycles: u64,
    ) {
        self.spans.push(StageSpan {
            packet,
            stage: stage.to_string(),
            unit: unit.to_string(),
            tid,
            start_cycles,
            dur_cycles,
        });
    }

    /// Convert to Chrome trace events. `freq_ghz` maps cycles to
    /// microseconds (`µs = cycles / (freq_ghz * 1000)`); pass the NIC
    /// clock so Perfetto's time axis reads in real time.
    pub fn to_chrome(&self, freq_ghz: f64) -> ChromeTrace {
        let scale = 1.0 / (freq_ghz.max(1e-9) * 1000.0);
        ChromeTrace {
            events: self
                .spans
                .iter()
                .map(|s| TraceEvent {
                    name: format!("pkt{} {}", s.packet, s.stage),
                    cat: s.unit.clone(),
                    ts_us: s.start_cycles as f64 * scale,
                    dur_us: s.dur_cycles as f64 * scale,
                    pid: 1,
                    tid: s.tid,
                })
                .collect(),
        }
    }
}

/// One complete (`"ph": "X"`) Chrome trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event label shown on the span.
    pub name: String,
    /// Category (we use the executing unit).
    pub cat: String,
    /// Start timestamp, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Process id (constant 1: one simulated NIC).
    pub pid: u32,
    /// Thread id (one track per hardware thread).
    pub tid: u32,
}

/// A Chrome trace-event file: `{"traceEvents": [...]}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    /// The events, already in emission order.
    pub events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// Serialize to the JSON object form Perfetto and
    /// `chrome://tracing` accept.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            ObjBuilder::new()
                .str("name", &e.name)
                .str("cat", &e.cat)
                .str("ph", "X")
                .num("ts", e.ts_us)
                .num("dur", e.dur_us)
                .uint("pid", u64::from(e.pid))
                .uint("tid", u64::from(e.tid))
                .build()
        });
        ObjBuilder::new().put("traceEvents", Value::Arr(events.collect())).build().to_json_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn timeline_respects_its_packet_limit() {
        let tl = StageTimeline::first(3);
        assert!(tl.wants(0) && tl.wants(2));
        assert!(!tl.wants(3));
    }

    #[test]
    fn chrome_export_has_required_fields_and_parses() {
        let mut tl = StageTimeline::first(2);
        tl.record(0, "parse", "npu", 4, 100, 50);
        tl.record(1, "lookup \"q\"", "npu", 5, 180, 300);
        let trace = tl.to_chrome(0.8);
        assert_eq!(trace.events.len(), 2);
        let v = parse(&trace.to_json()).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"), "{e:?}");
            for field in ["ts", "dur", "pid", "tid"] {
                assert!(e.get(field).and_then(Value::as_f64).is_some(), "missing {field} in {e:?}");
            }
        }
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("pkt1 lookup \"q\""));
        // 100 cycles at 0.8 GHz = 0.125 µs.
        let ts = events[0].get("ts").and_then(Value::as_f64).unwrap();
        assert!((ts - 0.125).abs() < 1e-12, "{ts}");
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let v = parse(&ChromeTrace::default().to_json()).unwrap();
        assert_eq!(v.get("traceEvents").and_then(Value::as_arr), Some(&[][..]));
    }
}
