//! Class profiling is pinned bit for bit: every packet class that
//! `enumerate_classes` builds for each corpus NF, under a fixed set of
//! workloads, must render to exactly the committed file.
//!
//! Each `f64` is printed in its shortest round-tripping form, so equal
//! text means equal bits. A change that is meant to move a class
//! profile re-records the file with
//! `cargo test -p clara-core --test golden_classes -- --ignored`
//! and says why in its description.

use clara_nfs::{by_name, CORPUS_NAMES};
use clara_predict::enumerate_classes;
use clara_workload::WorkloadProfile;
use std::fmt::Write;

const GOLDEN_PATH: &str = "tests/data/golden_classes.txt";
const GOLDEN: &str = include_str!("data/golden_classes.txt");

/// The traffic mixes: the paper default (all TCP, no SYN), all UDP, and
/// half TCP with a fifth of it SYN, so every class kind appears.
const MIXES: &[(&str, f64, f64)] = &[("paper", 1.0, 0.0), ("udp", 0.0, 0.0), ("mixed", 0.5, 0.2)];

/// Payload sizes: empty, minimum-frame, the paper's 300 B, and MTU-sized.
const PAYLOADS: &[f64] = &[0.0, 64.0, 300.0, 1500.0];

fn render() -> String {
    let mut out = String::new();
    for &nf in CORPUS_NAMES {
        let (source, _) = by_name(nf).expect("corpus NF resolves");
        let module = clara_cir::lower(&clara_lang::frontend(&source).expect("corpus NF parses"))
            .expect("corpus NF lowers");
        for &(mix, tcp, syn) in MIXES {
            for &payload in PAYLOADS {
                let wl = WorkloadProfile {
                    tcp_share: tcp,
                    syn_share: syn,
                    avg_payload: payload,
                    max_payload: payload as usize,
                    ..WorkloadProfile::paper_default()
                };
                for c in enumerate_classes(&module, &wl) {
                    writeln!(
                        out,
                        "{nf} {mix} {payload:?} {}: share={:?} payload={:?} forward={:?} weights={:?}",
                        c.name, c.share, c.payload, c.forward_share, c.block_weights
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn class_profiles_match_the_recorded_file() {
    let text = render();
    if text != GOLDEN {
        let diff: Vec<String> = text
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(got, want)| got != want)
            .map(|(got, want)| format!("  got  {got}\n  want {want}"))
            .collect();
        panic!(
            "class profiles differ from the recorded file ({} vs {} lines):\n{}",
            text.lines().count(),
            GOLDEN.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
#[ignore = "re-records the golden file; run explicitly with --ignored"]
fn record_class_profiles() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(GOLDEN_PATH);
    std::fs::write(path, render()).expect("golden file writable");
}
