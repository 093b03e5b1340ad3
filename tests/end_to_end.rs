//! End-to-end integration: the full Clara pipeline (source → frontend →
//! CIR → dataflow → microbenchmark parameters → ILP mapping → prediction)
//! validated against the simulator substrate, NF by NF.
//!
//! These tests encode the paper's headline claims as assertions, with
//! smaller sweeps than the `clara-bench` harnesses so they stay fast.

use clara_core::sim::simulate;
use clara_core::{nfs, Clara, WorkloadProfile};
use clara_predict::{predict_with_options, PredictOptions};
use std::sync::OnceLock;

fn clara() -> &'static Clara {
    static C: OnceLock<Clara> = OnceLock::new();
    C.get_or_init(|| Clara::new(&clara_core::profiles::netronome_agilio_cx40()))
}

/// Steady-state simulated latency (cold-start half discarded).
fn simulate_steady(program: &clara_core::sim::NicProgram, wl: &WorkloadProfile, packets: usize) -> f64 {
    let nic = clara_core::profiles::netronome_agilio_cx40();
    let trace = wl.to_trace(packets, 42);
    simulate(&nic, program, &trace).expect("port simulates").steady_latency_cycles
}

fn rel_err(predicted: f64, actual: f64) -> f64 {
    (predicted - actual).abs() / actual
}

/// Figure 3c in miniature: NAT predictions within 10% of the simulated
/// port across payload sizes (paper: 7%).
#[test]
fn nat_prediction_tracks_simulation() {
    let module = clara().analyze(&nfs::nat::source()).unwrap().module;
    let program = nfs::nat::ported();
    for payload in [200.0, 800.0, 1400.0] {
        let wl = WorkloadProfile {
            avg_payload: payload,
            max_payload: payload as usize,
            ..WorkloadProfile::paper_default()
        };
        let predicted = clara().predict_module(&module, &wl).unwrap().avg_latency_cycles;
        let actual = simulate_steady(&program, &wl, 3_000);
        assert!(
            rel_err(predicted, actual) < 0.10,
            "NAT @ {payload}B: predicted {predicted:.0} vs actual {actual:.0}"
        );
    }
}

/// Figure 3a in miniature: LPM (software match/action strategy, rules
/// pinned to DRAM) within 20% per point (paper: 12% mean).
#[test]
fn lpm_prediction_tracks_simulation() {
    let wl = WorkloadProfile::paper_default();
    for entries in [5_000u64, 20_000] {
        let module = clara().analyze(&nfs::lpm::source(entries)).unwrap().module;
        let predicted = predict_with_options(
            &module,
            clara().params(),
            &wl,
            PredictOptions {
                software_only: true,
                pin_state: vec![("routes".into(), "emem".into())],
                ..PredictOptions::default()
            },
        )
        .unwrap()
        .avg_latency_cycles;
        let actual = simulate_steady(&nfs::lpm::ported_scan(entries), &wl, 800);
        assert!(
            rel_err(predicted, actual) < 0.20,
            "LPM @ {entries} rules: predicted {predicted:.0} vs actual {actual:.0}"
        );
    }
}

/// Figure 3b in miniature: the VNF chain within 12% per point
/// (paper: 3% mean on their testbed).
#[test]
fn vnf_prediction_tracks_simulation() {
    let module = clara()
        .analyze(&nfs::vnf::source(nfs::vnf::AUTOMATON_ENTRIES, nfs::vnf::STAT_BUCKETS))
        .unwrap()
        .module;
    let program = nfs::vnf::ported();
    for payload in [400.0, 1200.0] {
        let wl = WorkloadProfile {
            avg_payload: payload,
            max_payload: payload as usize,
            ..WorkloadProfile::paper_default()
        };
        let predicted = clara().predict_module(&module, &wl).unwrap().avg_latency_cycles;
        let actual = simulate_steady(&program, &wl, 1_200);
        assert!(
            rel_err(predicted, actual) < 0.12,
            "VNF @ {payload}B: predicted {predicted:.0} vs actual {actual:.0}"
        );
    }
}

/// The latency curves keep the paper's shapes: linear in rules (3a) and
/// in payload (3b, 3c).
#[test]
fn curve_shapes_are_linear() {
    // LPM: 4x the rules ≈ 4x the latency.
    let wl = WorkloadProfile::paper_default();
    let lat = |entries: u64| simulate_steady(&nfs::lpm::ported_scan(entries), &wl, 600);
    let (small, large) = (lat(5_000), lat(20_000));
    let ratio = large / small;
    assert!((3.0..5.0).contains(&ratio), "LPM scaling {ratio:.2}");

    // NAT: latency strictly increases with payload.
    let nat = nfs::nat::ported();
    let mut prev = 0.0;
    for payload in [200.0, 600.0, 1000.0, 1400.0] {
        let wl = WorkloadProfile {
            avg_payload: payload,
            max_payload: payload as usize,
            ..WorkloadProfile::paper_default()
        };
        let cur = simulate_steady(&nat, &wl, 1_500);
        assert!(cur > prev, "NAT not monotone at {payload}B: {cur} <= {prev}");
        prev = cur;
    }
}

/// Every corpus NF makes it through the entire pipeline and yields a
/// finite, positive prediction.
#[test]
fn whole_corpus_predicts() {
    let wl = WorkloadProfile::paper_default();
    for (name, src) in [
        ("nat", nfs::nat::source()),
        ("dpi", nfs::dpi::source(65_536)),
        ("fw", nfs::firewall::source(65_536)),
        ("lpm", nfs::lpm::source(10_000)),
        ("hh", nfs::heavy_hitter::source(4_096)),
        ("vnf", nfs::vnf::source(65_536, 1_024)),
    ] {
        let p = clara().predict(&src, &wl).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(p.avg_latency_cycles.is_finite() && p.avg_latency_cycles > 0.0, "{name}");
        assert!(p.throughput_pps > wl.rate_pps, "{name} can't sustain 60 kpps?");
        assert!(!p.per_class.is_empty(), "{name}");
    }
}

/// The porting strategy knobs change the prediction in the right
/// direction: software-only is never faster than the auto strategy.
#[test]
fn strategies_order_correctly() {
    let wl = WorkloadProfile {
        avg_payload: 1000.0,
        max_payload: 1000,
        ..WorkloadProfile::paper_default()
    };
    // Checksum before rewrite: accelerator-eligible under auto.
    let src = r#"nf verify {
        fn handle(pkt: packet) -> action {
            dpdk.parse_headers(pkt);
            let ck: u16 = checksum(pkt);
            if (ck == 0) { return drop; }
            return forward;
        } }"#;
    let module = clara().analyze(src).unwrap().module;
    let auto = clara().predict_module(&module, &wl).unwrap().avg_latency_cycles;
    let sw = predict_with_options(
        &module,
        clara().params(),
        &wl,
        PredictOptions { software_only: true, pin_state: vec![], ..PredictOptions::default() },
    )
    .unwrap()
    .avg_latency_cycles;
    assert!(sw > auto + 500.0, "software {sw:.0} vs auto {auto:.0}");
}
