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

use clara_nfs::{by_name, CORPUS_NAMES};
use clara_workload::WorkloadProfile;
use std::fmt::Write;

const GOLDEN_PATH: &str = "tests/data/golden_predictions.txt";
const GOLDEN: &str = include_str!("data/golden_predictions.txt");
const PARAMS: &str = include_str!("../crates/microbench/tests/data/netronome-agilio-cx40.params");

/// Flow-popularity exponents: uniform and skewed.
const ALPHAS: &[f64] = &[0.0, 0.9];

/// Flow counts below both thresholds, between them, and above both.
const FLOWS: &[usize] = &[1_000, 50_000, 500_000];

fn render() -> String {
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
                let p = clara_predict::predict(&module, &params, &wl).expect("corpus NF predicts");
                let head = format!("{nf} alpha={alpha:?} flows={flows}");
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
            }
        }
    }
    out
}

#[test]
fn predictions_match_the_recorded_file() {
    let text = render();
    if text != GOLDEN {
        let diff: Vec<String> = text
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(got, want)| got != want)
            .map(|(got, want)| format!("  got  {got}\n  want {want}"))
            .collect();
        panic!(
            "predictions differ from the recorded file ({} vs {} lines):\n{}",
            text.lines().count(),
            GOLDEN.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
#[ignore = "re-records the golden file; run explicitly with --ignored"]
fn record_predictions() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(GOLDEN_PATH);
    std::fs::write(path, render()).expect("golden file writable");
}
