//! The aggregated [`TelemetryReport`] and its hand-rolled JSON form.
//!
//! Like the sweep checkpoint files, the serialization is deliberately
//! tiny and dependency-free (the workspace takes no serde): plain
//! string building with a shared escaper, verified by a scanner-style
//! validity check in tests.

use crate::hist::HistSummary;
use crate::sink::{Sink, SpanRecord};
use crate::stats::{SimStats, SolveStats};
use std::fmt::Write as _;
use std::path::Path;

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` the way the checkpoint code does: finite values
/// verbatim, non-finite as `null` (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Everything one instrumented run observed, across every layer.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Free-form context pairs (`("nf", "dpi")`, `("nic", ...)`,
    /// `("workload", ...)`), emitted first so a report is
    /// self-describing.
    pub context: Vec<(String, String)>,
    /// Pipeline spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Named counters from the sink, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Latency-histogram summaries (name, quantiles), sorted by name.
    /// Values are in the unit the histogram recorded (µs for serve).
    pub hists: Vec<(String, HistSummary)>,
    /// Aggregated ILP solver stats, when any solve ran.
    pub solver: Option<SolveStats>,
    /// Aggregated simulator stats, when any simulation ran.
    pub sim: Option<SimStats>,
}

impl TelemetryReport {
    /// Build a report from a sink's spans and counters (solver/sim
    /// sections are attached by the caller).
    pub fn from_sink(sink: &Sink) -> Self {
        TelemetryReport {
            spans: sink.spans().to_vec(),
            counters: sink.counters(),
            ..TelemetryReport::default()
        }
    }

    /// Add one context pair.
    pub fn with_context(mut self, key: &str, value: &str) -> Self {
        self.context.push((key.to_string(), value.to_string()));
        self
    }

    /// Serialize the report as one pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"telemetry_version\": 1,\n");
        out.push_str("  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": \"{}\"",
                if i == 0 { "" } else { ", " },
                json_escape(k),
                json_escape(v)
            );
        }
        out.push_str("},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"start_us\": {}, \"dur_us\": {}, \"depth\": {}}}",
                json_escape(&s.name),
                s.start_us,
                s.dur_us,
                s.depth
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {v}",
                if i == 0 { "" } else { ", " },
                json_escape(k)
            );
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p99\": {}, \"max\": {}}}",
                if i == 0 { "" } else { ", " },
                json_escape(name),
                h.count,
                h.sum,
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
        }
        out.push_str("},\n");
        match &self.solver {
            Some(s) => {
                out.push_str("  \"solver\": {\n");
                let _ = writeln!(out, "    \"nodes_explored\": {},", s.nodes_explored);
                let _ = writeln!(out, "    \"lp_solves\": {},", s.lp_solves);
                let _ = writeln!(out, "    \"simplex_pivots\": {},", s.simplex_pivots);
                let _ = writeln!(out, "    \"warm_start_hits\": {},", s.warm_start_hits);
                let _ = writeln!(out, "    \"warm_start_misses\": {},", s.warm_start_misses);
                let _ = writeln!(out, "    \"memo_hits\": {},", s.memo_hits);
                let _ = writeln!(out, "    \"cell_warm_hits\": {},", s.cell_warm_hits);
                let _ = writeln!(out, "    \"cell_warm_misses\": {},", s.cell_warm_misses);
                out.push_str("    \"incumbent_trajectory\": [");
                for (i, (n, obj)) in s.incumbent_trajectory.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}[{n}, {}]",
                        if i == 0 { "" } else { ", " },
                        json_f64(*obj)
                    );
                }
                out.push_str("],\n");
                let _ = writeln!(out, "    \"proven_optimal\": {}", s.proven_optimal);
                out.push_str("  },\n");
            }
            None => out.push_str("  \"solver\": null,\n"),
        }
        match &self.sim {
            Some(s) => {
                out.push_str("  \"sim\": {\n");
                let _ = writeln!(out, "    \"injected\": {},", s.injected);
                let _ = writeln!(out, "    \"completed\": {},", s.completed);
                let _ = writeln!(out, "    \"truncated\": {},", s.truncated);
                out.push_str("    \"drops\": {");
                let _ = write!(
                    out,
                    "\"overflow\": {}, \"fault_corrupt\": {}, \"fault_accel\": {}, \
                     \"watchdog_trips\": {}, \"total\": {}",
                    s.overflow_drops,
                    s.fault_corrupt_drops,
                    s.fault_accel_drops,
                    s.watchdog_trips,
                    s.dropped_total()
                );
                out.push_str("},\n");
                let _ = writeln!(out, "    \"conserved\": {},", s.conserved());
                let _ = writeln!(out, "    \"span_cycles\": {},", s.span_cycles);
                out.push_str("    \"islands\": [");
                for (i, is) in s.islands.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{{\"island\": {}, \"threads\": {}, \"busy_cycles\": {}, \
                         \"occupancy\": {}}}",
                        if i == 0 { "" } else { ", " },
                        is.island,
                        is.threads,
                        is.busy_cycles,
                        json_f64(is.occupancy(s.span_cycles))
                    );
                }
                out.push_str("],\n    \"mem_levels\": [");
                for (i, ml) in s.mem_levels.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{{\"name\": \"{}\", \"accesses\": {}}}",
                        if i == 0 { "" } else { ", " },
                        json_escape(&ml.name),
                        ml.accesses
                    );
                }
                out.push_str("],\n");
                let _ = writeln!(
                    out,
                    "    \"emem_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {}}},",
                    s.emem_cache_hits,
                    s.emem_cache_misses,
                    s.emem_hit_rate().map(json_f64).unwrap_or_else(|| "null".into())
                );
                out.push_str("    \"accels\": [");
                for (i, ac) in s.accels.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{{\"name\": \"{}\", \"calls\": {}, \"busy_cycles\": {}, \
                         \"hol_stall_cycles\": {}, \"queue_highwater\": {}}}",
                        if i == 0 { "" } else { ", " },
                        json_escape(&ac.name),
                        ac.calls,
                        ac.busy_cycles,
                        ac.hol_stall_cycles,
                        ac.queue_highwater
                    );
                }
                out.push_str("],\n");
                let _ = writeln!(out, "    \"switch_transfers\": {}", s.switch_transfers);
                out.push_str("  }\n");
            }
            None => out.push_str("  \"sim\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Write the JSON form atomically (temp file + rename), mirroring
    /// the checkpoint writer.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
    }
}

/// Test-only structural JSON validation: strings (with escapes) are
/// skipped, and braces/brackets must balance and close in order. Not a
/// full parser, but enough to catch the classes of bugs hand-rolled
/// serialization produces (unescaped quotes, trailing commas are left
/// to the CI `python3 -c json.load` smoke).
#[cfg(test)]
pub(crate) fn assert_valid_json(s: &str) {
    let mut stack = Vec::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                // Consume the string literal, honoring escapes.
                loop {
                    match chars.next() {
                        Some('\\') => {
                            chars.next();
                        }
                        Some('"') => break,
                        Some(_) => {}
                        None => panic!("unterminated string in {s}"),
                    }
                }
            }
            '{' | '[' => stack.push(c),
            '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced }} in {s}"),
            ']' => assert_eq!(stack.pop(), Some('['), "unbalanced ] in {s}"),
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed delimiters {stack:?} in {s}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{AccelStats, IslandStats, MemLevelStats};

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn empty_report_serializes_validly() {
        let json = TelemetryReport::default().to_json();
        assert_valid_json(&json);
        assert!(json.contains("\"solver\": null"));
        assert!(json.contains("\"sim\": null"));
    }

    #[test]
    fn full_report_serializes_every_section() {
        let mut sink = Sink::memory();
        sink.span("solve", || ());
        sink.count("cells", 4);
        let report = TelemetryReport::from_sink(&sink)
            .with_context("nf", "dpi \"ported\"")
            .with_context("nic", "netronome");
        let report = TelemetryReport {
            solver: Some(SolveStats {
                nodes_explored: 12,
                lp_solves: 30,
                simplex_pivots: 456,
                warm_start_hits: 8,
                warm_start_misses: 2,
                cell_warm_hits: 3,
                cell_warm_misses: 1,
                memo_hits: 5,
                incumbent_trajectory: vec![(1, 1200.5), (7, 1100.0)],
                proven_optimal: true,
            }),
            sim: Some(SimStats {
                injected: 400,
                completed: 390,
                overflow_drops: 6,
                fault_corrupt_drops: 3,
                fault_accel_drops: 1,
                span_cycles: 1_000_000,
                islands: vec![IslandStats { island: 0, threads: 8, busy_cycles: 5000 }],
                mem_levels: vec![MemLevelStats { name: "emem".into(), accesses: 900 }],
                emem_cache_hits: 700,
                emem_cache_misses: 200,
                accels: vec![AccelStats {
                    name: "checksum".into(),
                    calls: 390,
                    busy_cycles: 40_000,
                    hol_stall_cycles: 77,
                    queue_highwater: 2,
                }],
                switch_transfers: 1290,
                ..SimStats::default()
            }),
            ..report
        };
        let json = report.to_json();
        assert_valid_json(&json);
        for needle in [
            "\"nodes_explored\": 12",
            "\"cell_warm_hits\": 3",
            "\"cell_warm_misses\": 1",
            "\"incumbent_trajectory\": [[1, 1200.5], [7, 1100]]",
            "\"conserved\": true",
            "\"hit_rate\": 0.7",
            "\"hol_stall_cycles\": 77",
            "\"switch_transfers\": 1290",
            "dpi \\\"ported\\\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn histogram_summaries_serialize_under_their_names() {
        let report = TelemetryReport {
            hists: vec![(
                "serve.service_us".into(),
                HistSummary { count: 3, sum: 600, p50: 100, p90: 300, p99: 300, max: 310 },
            )],
            ..TelemetryReport::default()
        };
        let json = report.to_json();
        assert_valid_json(&json);
        assert!(json.contains(
            "\"serve.service_us\": {\"count\": 3, \"sum\": 600, \"p50\": 100, \
             \"p90\": 300, \"p99\": 300, \"max\": 310}"
        ));
    }

    #[test]
    fn save_is_atomic_and_readable() {
        let path = std::env::temp_dir()
            .join(format!("clara-telemetry-{}.json", std::process::id()));
        let report = TelemetryReport::default().with_context("k", "v");
        report.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_valid_json(&text);
        assert!(text.contains("\"telemetry_version\": 1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
