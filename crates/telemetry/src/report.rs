//! The aggregated [`TelemetryReport`] and its JSON form.
//!
//! The report is one pretty JSON file written through the workspace
//! codec ([`crate::json`]): counters are exact integers, floats
//! round-trip, and a non-finite float is `null`.

use crate::hist::HistSummary;
use crate::json::{ObjBuilder, Value};
use crate::sink::{Sink, SpanRecord};
use crate::stats::{SimStats, SolveStats};
use std::path::Path;

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
        let context = self.context.iter().fold(ObjBuilder::new(), |b, (k, v)| b.str(k, v));
        let spans = self.spans.iter().map(|s| {
            ObjBuilder::new()
                .str("name", &s.name)
                .uint("start_us", s.start_us)
                .uint("dur_us", s.dur_us)
                .uint("depth", s.depth as u64)
                .build()
        });
        let counters = self.counters.iter().fold(ObjBuilder::new(), |b, (k, v)| b.uint(k, *v));
        let hists = self.hists.iter().fold(ObjBuilder::new(), |b, (name, h)| {
            let summary = ObjBuilder::new()
                .uint("count", h.count)
                .uint("sum", h.sum)
                .uint("p50", h.p50)
                .uint("p90", h.p90)
                .uint("p99", h.p99)
                .uint("max", h.max);
            b.put(name, summary.build())
        });
        ObjBuilder::new()
            .uint("telemetry_version", 1)
            .put("context", context.build())
            .put("spans", Value::Arr(spans.collect()))
            .put("counters", counters.build())
            .put("histograms", hists.build())
            .put("solver", self.solver.as_ref().map_or(Value::Null, solver_value))
            .put("sim", self.sim.as_ref().map_or(Value::Null, sim_value))
            .build()
            .to_json_pretty()
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

fn solver_value(s: &SolveStats) -> Value {
    let trajectory = s
        .incumbent_trajectory
        .iter()
        .map(|&(node, objective)| Value::Arr(vec![Value::UInt(node), Value::Num(objective)]));
    ObjBuilder::new()
        .uint("nodes_explored", s.nodes_explored)
        .uint("lp_solves", s.lp_solves)
        .uint("simplex_pivots", s.simplex_pivots)
        .uint("warm_start_hits", s.warm_start_hits)
        .uint("warm_start_misses", s.warm_start_misses)
        .uint("memo_hits", s.memo_hits)
        .uint("cell_warm_hits", s.cell_warm_hits)
        .uint("cell_warm_misses", s.cell_warm_misses)
        .put("incumbent_trajectory", Value::Arr(trajectory.collect()))
        .bool("proven_optimal", s.proven_optimal)
        .build()
}

fn sim_value(s: &SimStats) -> Value {
    let drops = ObjBuilder::new()
        .uint("overflow", s.overflow_drops)
        .uint("fault_corrupt", s.fault_corrupt_drops)
        .uint("fault_accel", s.fault_accel_drops)
        .uint("watchdog_trips", s.watchdog_trips)
        .uint("total", s.dropped_total());
    let islands = s.islands.iter().map(|is| {
        ObjBuilder::new()
            .uint("island", is.island as u64)
            .uint("threads", is.threads)
            .uint("busy_cycles", is.busy_cycles)
            .num("occupancy", is.occupancy(s.span_cycles))
            .build()
    });
    let mem_levels = s.mem_levels.iter().map(|ml| {
        ObjBuilder::new().str("name", &ml.name).uint("accesses", ml.accesses).build()
    });
    let emem_cache = ObjBuilder::new()
        .uint("hits", s.emem_cache_hits)
        .uint("misses", s.emem_cache_misses)
        .put("hit_rate", s.emem_hit_rate().map_or(Value::Null, Value::Num));
    let accels = s.accels.iter().map(|ac| {
        ObjBuilder::new()
            .str("name", &ac.name)
            .uint("calls", ac.calls)
            .uint("busy_cycles", ac.busy_cycles)
            .uint("hol_stall_cycles", ac.hol_stall_cycles)
            .uint("queue_highwater", ac.queue_highwater)
            .build()
    });
    ObjBuilder::new()
        .uint("injected", s.injected)
        .uint("completed", s.completed)
        .uint("truncated", s.truncated)
        .put("drops", drops.build())
        .bool("conserved", s.conserved())
        .uint("replayed_packets", s.replayed_packets)
        .uint("span_cycles", s.span_cycles)
        .put("islands", Value::Arr(islands.collect()))
        .put("mem_levels", Value::Arr(mem_levels.collect()))
        .put("emem_cache", emem_cache.build())
        .put("accels", Value::Arr(accels.collect()))
        .uint("switch_transfers", s.switch_transfers)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::stats::{AccelStats, IslandStats, MemLevelStats};

    /// Follow a path of object keys and array indices.
    fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
        path.iter().fold(v, |v, step| match step.parse::<usize>() {
            Ok(i) => &v.as_arr().unwrap_or_else(|| panic!("no array at {step}: {v:?}"))[i],
            Err(_) => v.get(step).unwrap_or_else(|| panic!("no `{step}` in {v:?}")),
        })
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        let nasty = "a\"b\\c\nd\te\u{01}";
        let text = TelemetryReport::default().with_context(nasty, nasty).to_json();
        let escaped = r#""a\"b\\c\nd\te\u0001""#;
        assert!(text.contains(&format!("{escaped}: {escaped}")), "{text}");
        let v = parse(&text).unwrap();
        assert_eq!(at(&v, &["context", nasty]).as_str(), Some(nasty));
    }

    #[test]
    fn empty_report_serializes_validly() {
        let v = parse(&TelemetryReport::default().to_json()).unwrap();
        assert_eq!(at(&v, &["solver"]), &Value::Null);
        assert_eq!(at(&v, &["sim"]), &Value::Null);
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
        let v = parse(&report.to_json()).unwrap();
        let uint = |path: &[&str]| at(&v, path).as_u64();
        assert_eq!(uint(&["solver", "nodes_explored"]), Some(12));
        assert_eq!(uint(&["solver", "cell_warm_hits"]), Some(3));
        assert_eq!(uint(&["solver", "cell_warm_misses"]), Some(1));
        let trajectory: Vec<(Option<u64>, Option<f64>)> = at(&v, &["solver", "incumbent_trajectory"])
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| (at(p, &["0"]).as_u64(), at(p, &["1"]).as_f64()))
            .collect();
        assert_eq!(trajectory, [(Some(1), Some(1200.5)), (Some(7), Some(1100.0))]);
        assert_eq!(at(&v, &["sim", "conserved"]), &Value::Bool(true));
        // 700 hits of 900 lookups.
        assert_eq!(at(&v, &["sim", "emem_cache", "hit_rate"]).as_f64(), Some(700.0 / 900.0));
        assert_eq!(uint(&["sim", "accels", "0", "hol_stall_cycles"]), Some(77));
        assert_eq!(uint(&["sim", "switch_transfers"]), Some(1290));
        assert_eq!(at(&v, &["context", "nf"]).as_str(), Some("dpi \"ported\""));
        assert_eq!(uint(&["counters", "cells"]), Some(4));
        assert_eq!(at(&v, &["spans", "0", "name"]).as_str(), Some("solve"));
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
        let v = parse(&report.to_json()).unwrap();
        let h = at(&v, &["histograms", "serve.service_us"]);
        let fields: Vec<Option<u64>> = ["count", "sum", "p50", "p90", "p99", "max"]
            .iter()
            .map(|k| at(h, &[k]).as_u64())
            .collect();
        assert_eq!(fields, [Some(3), Some(600), Some(100), Some(300), Some(300), Some(310)]);
    }

    #[test]
    fn save_is_atomic_and_readable() {
        let path = std::env::temp_dir()
            .join(format!("clara-telemetry-{}.json", std::process::id()));
        let report = TelemetryReport::default().with_context("k", "v");
        report.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = parse(&text).unwrap();
        assert_eq!(at(&v, &["telemetry_version"]), &Value::UInt(1));
        assert!(text.contains("\"telemetry_version\": 1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let report = TelemetryReport {
            solver: Some(SolveStats {
                incumbent_trajectory: vec![(1, f64::INFINITY), (2, f64::NAN)],
                ..SolveStats::default()
            }),
            ..TelemetryReport::default()
        };
        let v = parse(&report.to_json()).unwrap();
        assert_eq!(at(&v, &["solver", "incumbent_trajectory", "0", "1"]), &Value::Null);
        assert_eq!(at(&v, &["solver", "incumbent_trajectory", "1", "1"]), &Value::Null);
    }
}
