//! Self-test of the benchmark: the short `--smoke` mode follows the same
//! code path as a measured run. Every metric named in `BENCHMARK.json`
//! must be printed with its unit, the default and held-out seeds must
//! pass their output checks, and a deliberately corrupted output must
//! fail them.

use clara_serve::json::{self, Value};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: &[&str] = &[
    "predict-cold",
    "serve-open",
    "validate-lookup",
    "validate-scan",
];
const HELD_OUT_SEED: &str = "20261016";

/// The workload-specific names each workload prints next to the gated
/// ones, with their units.
fn named(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "predict-cold" => &[
            ("predict_cold_p50_us", "us"),
            ("predict_cold_p90_us", "us"),
            ("predict_cold_p99_us", "us"),
            ("predict_cold_ops_per_s", "1/s"),
        ],
        "serve-open" => &[
            ("serve_p50_us.light", "us"),
            ("serve_p99_us.light", "us"),
            ("serve_p50_us.loaded", "us"),
            ("serve_p99_us.loaded", "us"),
            ("serve_max_rps", "req/s"),
            ("serve_closed_loop_rps", "req/s"),
            ("serve_gen_late_us_p99.light", "us"),
            ("serve_backlog_max.loaded", "count"),
        ],
        _ => &[
            ("validate_cells_per_s", "cells/s"),
            ("validate_sweep_p50_us", "us"),
            ("rel_error_mean", "ratio"),
            ("rel_error_p90", "ratio"),
        ],
    }
}

struct Run {
    code: i32,
    stdout: String,
    last: Value,
}

fn run(workload: &str, args: &[&str]) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--smoke", "--out"])
        .arg(&out_dir)
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = stdout.lines().last().unwrap_or_default();
    let last = json::parse(line)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {line}"));
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout,
        last,
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// The last line holds exactly the declared metrics, each a finite
/// number with the declared unit.
fn assert_metrics(workload: &str, r: &Run, section: &str) {
    let metrics = match r.last.get("metrics") {
        Some(Value::Obj(m)) => m,
        other => panic!("{workload}: no metrics object: {other:?}"),
    };
    let want = declared(section);
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: {section} metric count"
    );
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: missing {name}"));
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{workload}: {name}"
        );
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
        let printed = r.stdout.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() >= 3 && f[0] == name && f[2] == unit
        });
        assert!(printed, "{workload}: {name} not printed with unit {unit}");
    }
}

fn assert_passed(workload: &str, r: &Run) {
    assert_eq!(r.code, 0, "{workload} failed:\n{}", r.stdout);
    assert_eq!(
        r.last.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        r.last.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        r.last
            .get("attempted")
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1),
        "{workload}"
    );
    assert!(
        r.stdout
            .lines()
            .any(|l| l.starts_with(&format!("digest {workload} "))),
        "{workload}: digest"
    );
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for &w in WORKLOADS {
        let plain = run(w, &["--trace", "0"]);
        assert_passed(w, &plain);
        assert_metrics(w, &plain, "end_to_end");
        for (name, unit) in named(w) {
            let printed = plain.stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() >= 3 && f[0] == *name && f[2] == *unit
            });
            assert!(
                printed,
                "{w}: {name} not printed with unit {unit}:\n{}",
                plain.stdout
            );
        }
        let traced = run(w, &["--trace", "1"]);
        assert_passed(w, &traced);
        assert_metrics(w, &traced, "per_layer");
    }
}

#[test]
fn held_out_seed_passes_its_checks() {
    for &w in WORKLOADS {
        assert_passed(w, &run(w, &["--trace", "0", "--seed", HELD_OUT_SEED]));
    }
}

#[test]
fn a_corrupted_output_fails_the_check() {
    for &w in WORKLOADS {
        let r = run(w, &["--trace", "0", "--corrupt"]);
        assert_eq!(
            r.code, 1,
            "{w}: a corrupted output must fail the run:\n{}",
            r.stdout
        );
        assert_eq!(
            r.last.get("correct").and_then(Value::as_bool),
            Some(false),
            "{w}"
        );
        assert!(
            r.last
                .get("failed")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1),
            "{w}"
        );
    }
}
