//! Predictions are pinned bit for bit: for every corpus NF under a fixed
//! set of workloads, the prediction's outputs, its per-class latencies
//! and its mapping (node units and state placements) must render to
//! exactly the committed file.
//!
//! The flow counts sit either side of the two cache-model thresholds on
//! the Netronome parameters: the flow-cache engine's entry capacity
//! (34,398 entries) and the EMEM cache's resident entries (63,474 at one
//! line per entry), under a uniform (α = 0) and a skewed (α = 0.9) flow
//! popularity. The parameters are the committed extraction that
//! `crates/microbench/tests/golden_params.rs` pins.
//!
//! Each `f64` is printed in its shortest round-tripping form, so equal
//! text means equal bits. A change that is meant to move a prediction
//! re-records the file with
//! `cargo test -p clara-core --test golden_predictions -- --ignored`
//! and says why in its description.
//!
//! The partial-offload plans of the same cells (every cut's
//! `latency_ns` under the default host) are pinned the same way, in
//! their own file.

use clara_cir::CirModule;
use clara_microbench::NicParameters;
use clara_nfs::{by_name, CORPUS_NAMES};
use clara_predict::HostParams;
use clara_workload::WorkloadProfile;
use std::fmt::Write;

const GOLDEN_PATH: &str = "tests/data/golden_predictions.txt";
const GOLDEN: &str = include_str!("data/golden_predictions.txt");
const PARTIAL_PATH: &str = "tests/data/golden_partial_plans.txt";
const PARTIAL: &str = include_str!("data/golden_partial_plans.txt");
const PARAMS: &str = include_str!("../crates/microbench/tests/data/netronome-agilio-cx40.params");

/// Flow-popularity exponents: uniform and skewed.
const ALPHAS: &[f64] = &[0.0, 0.9];

/// Flow counts below both thresholds, between them, and above both.
const FLOWS: &[usize] = &[1_000, 50_000, 500_000];

/// Render `line(head, module, params, workload)` for every corpus NF
/// under every pinned workload.
fn render_cells(
    mut line: impl FnMut(&mut String, &str, &CirModule, &NicParameters, &WorkloadProfile),
) -> String {
    let params = clara_microbench::from_text(PARAMS).expect("committed parameters parse");
    let mut out = String::new();
    for &nf in CORPUS_NAMES {
        let (source, _) = by_name(nf).expect("corpus NF resolves");
        let module = clara_cir::lower(&clara_lang::frontend(&source).expect("corpus NF parses"))
            .expect("corpus NF lowers");
        for &alpha in ALPHAS {
            for &flows in FLOWS {
                let wl = WorkloadProfile {
                    flows,
                    zipf_alpha: alpha,
                    avg_payload: 300.0,
                    max_payload: 300,
                    ..WorkloadProfile::paper_default()
                };
                let head = format!("{nf} alpha={alpha:?} flows={flows}");
                line(&mut out, &head, &module, &params, &wl);
            }
        }
    }
    out
}

fn render() -> String {
    render_cells(|out, head, module, params, wl| {
        let p = clara_predict::predict(module, params, wl).expect("corpus NF predicts");
        writeln!(
            out,
            "{head}: latency={:?} latency_ns={:?} throughput={:?} energy={:?} \
             bottleneck={}",
            p.avg_latency_cycles,
            p.avg_latency_ns,
            p.throughput_pps,
            p.energy_nj_per_packet,
            p.bottleneck
        )
        .unwrap();
        for c in &p.per_class {
            writeln!(
                out,
                "{head} class {}: share={:?} payload={:?} latency={:?}",
                c.name, c.share, c.payload, c.latency_cycles
            )
            .unwrap();
        }
        let units: Vec<String> =
            p.mapping.node_unit.iter().map(|u| u.to_string()).collect();
        writeln!(
            out,
            "{head} mapping: units=[{}] states={:?} objective={:?}",
            units.join(" "),
            p.mapping.state_mem,
            p.mapping.latency_cycles
        )
        .unwrap();
    })
}

/// Every cut's latency, full offload last, one line per cell.
fn render_partial() -> String {
    render_cells(|out, head, module, params, wl| {
        let plans = clara_predict::predict_partial(module, params, wl, HostParams::default())
            .expect("corpus NF predicts");
        let cuts: Vec<String> = plans
            .iter()
            .map(|p| {
                let pcie = if p.crosses_pcie { "*" } else { "" };
                format!("{}:{:?}{pcie}", p.cut, p.latency_ns)
            })
            .collect();
        writeln!(out, "{head}: {}", cuts.join(" ")).unwrap();
    })
}

/// Panic with the differing lines when `text` is not `golden`.
fn assert_matches(text: &str, golden: &str, what: &str) {
    if text != golden {
        let diff: Vec<String> = text
            .lines()
            .zip(golden.lines())
            .filter(|(got, want)| got != want)
            .map(|(got, want)| format!("  got  {got}\n  want {want}"))
            .collect();
        panic!(
            "{what} differ from the recorded file ({} vs {} lines):\n{}",
            text.lines().count(),
            golden.lines().count(),
            diff.join("\n")
        );
    }
}

fn record(path: &str, text: String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
    std::fs::write(path, text).expect("golden file writable");
}

#[test]
fn predictions_match_the_recorded_file() {
    assert_matches(&render(), GOLDEN, "predictions");
}

#[test]
fn partial_plans_match_the_recorded_file() {
    assert_matches(&render_partial(), PARTIAL, "partial-offload plans");
}

#[test]
#[ignore = "re-records the golden files; run explicitly with --ignored"]
fn record_predictions() {
    record(GOLDEN_PATH, render());
    record(PARTIAL_PATH, render_partial());
}
