//! Cross-crate integration of the sweep path: the parallel,
//! shared-preparation sweep must be indistinguishable from independent
//! sequential predictions — bit-identical numbers, identical mappings —
//! and the fast solver must agree with the seed's dense reference.
//!
//! The grid's skewed cells (α = 0.9 at 500,000 flows, above both
//! cache-model thresholds) fill the cache model's rank weights on one
//! thread inside a sweep worker and on every core in a standalone
//! prediction; the results must not differ.

use clara_core::{
    nfs, run_sweep, Clara, PredictOptions, SolverConfig, SweepScenario, WorkloadProfile,
};
use std::sync::OnceLock;

fn clara() -> &'static Clara {
    static C: OnceLock<Clara> = OnceLock::new();
    C.get_or_init(|| Clara::new(&clara_core::profiles::netronome_agilio_cx40()))
}

fn grid<'a>(
    module: &'a clara_core::CirModule,
    solver: SolverConfig,
) -> Vec<SweepScenario<'a>> {
    let mut out = Vec::new();
    for rate in [20_000.0, 200_000.0, 600_000.0] {
        for payload in [100.0, 700.0, 1400.0] {
            for (flows, alpha) in [(100usize, 0.0), (10_000, 0.0), (100_000, 0.0), (500_000, 0.9)] {
                out.push(SweepScenario {
                    label: format!("rate={rate} payload={payload} flows={flows} alpha={alpha}"),
                    module,
                    params: clara().params(),
                    workload: WorkloadProfile {
                        rate_pps: rate,
                        avg_payload: payload,
                        max_payload: payload as usize,
                        flows,
                        zipf_alpha: alpha,
                        ..WorkloadProfile::paper_default()
                    },
                    options: PredictOptions { solver, ..Default::default() },
                });
            }
        }
    }
    out
}

/// Parallel sweep output is bit-identical to a sequential run and to
/// per-cell `predict` calls that share nothing.
#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let module = clara().analyze(&nfs::nat::source()).unwrap().module;
    let scenarios = grid(&module, SolverConfig::default());

    let seq = run_sweep(&scenarios, 1);
    let par = run_sweep(&scenarios, 4);
    assert_eq!(seq.len(), par.len());
    for ((sc, a), b) in scenarios.iter().zip(&seq).zip(&par) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.avg_latency_cycles.to_bits(),
            b.avg_latency_cycles.to_bits(),
            "{}: latency diverged",
            sc.label
        );
        assert_eq!(
            a.throughput_pps.to_bits(),
            b.throughput_pps.to_bits(),
            "{}: throughput diverged",
            sc.label
        );
        assert_eq!(a.mapping.node_unit, b.mapping.node_unit, "{}", sc.label);
        assert_eq!(a.mapping.state_mem, b.mapping.state_mem, "{}", sc.label);

        // Shared preparation is an optimization, not a semantic change:
        // a from-scratch prediction of the same cell matches bit-for-bit.
        let solo = clara_predict::predict_with_options(
            sc.module,
            sc.params,
            &sc.workload,
            sc.options.clone(),
        )
        .unwrap();
        assert_eq!(
            a.avg_latency_cycles.to_bits(),
            solo.avg_latency_cycles.to_bits(),
            "{}: sweep diverged from standalone predict",
            sc.label
        );
    }
}

/// The fast solver and the seed reference produce equally good sweeps:
/// identical predicted numbers in every cell (the mapping objective has
/// a unique optimum on these NFs).
#[test]
fn fast_solver_sweep_matches_reference_solver() {
    let module = clara().analyze(&nfs::nat::source()).unwrap().module;
    let fast = run_sweep(&grid(&module, SolverConfig::default()), 2);
    let reference = run_sweep(&grid(&module, SolverConfig::baseline()), 2);
    for (a, b) in fast.iter().zip(&reference) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        let rel = (a.avg_latency_cycles - b.avg_latency_cycles).abs()
            / b.avg_latency_cycles.max(1.0);
        assert!(
            rel < 1e-9,
            "fast {} vs reference {}",
            a.avg_latency_cycles,
            b.avg_latency_cycles
        );
    }
}
