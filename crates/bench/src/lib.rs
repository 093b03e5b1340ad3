//! Benchmark harnesses regenerating every table and figure of the Clara
//! paper.
//!
//! Each figure/table has a binary under `src/bin/` that prints the same
//! rows/series the paper reports; this library holds the shared
//! experiment drivers so the binaries and the integration tests agree on
//! exactly what is measured.
//!
//! | artifact | binary |
//! |---|---|
//! | Figure 1 (variability) | `fig1_variability` |
//! | Figure 3a (LPM)        | `fig3a_lpm` |
//! | Figure 3b (VNF)        | `fig3b_vnf` |
//! | Figure 3c (NAT)        | `fig3c_nat` |
//! | §4 accuracy (12/3/7 %) | `table_accuracy` |
//! | §3.2 parameter table   | `table_params` |
//! | §6 throughput ext.     | `ext_throughput` |
//! | §3.5 interference ext. | `ext_interference` |
//! | §6 partial offload ext.| `ext_partial_offload` |
//! | NIC selection ext.     | `ext_nic_selection` |
//! | ablations              | `ablation_*` |

use clara_core::nfs;
use clara_core::sim::{simulate, NicProgram};
use clara_core::{Clara, Lnic, WorkloadProfile};
use clara_predict::{predict_with_options, PredictOptions};
use std::sync::OnceLock;

/// Packets per simulated point (the paper averages over 1M packets on
/// hardware; the simulator converges much sooner).
pub const SIM_PACKETS: usize = 4_000;

/// The Netronome profile (built once).
pub fn netronome() -> &'static Lnic {
    static NIC: OnceLock<Lnic> = OnceLock::new();
    NIC.get_or_init(clara_core::profiles::netronome_agilio_cx40)
}

/// Clara with extracted parameters (built once — the paper's "one-time
/// effort per SmartNIC").
pub fn clara() -> &'static Clara {
    static C: OnceLock<Clara> = OnceLock::new();
    C.get_or_init(|| Clara::new(netronome()))
}

/// One predicted-vs-actual point of a Figure-3 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The sweep variable (table entries or payload bytes).
    pub x: f64,
    /// Clara's prediction, cycles.
    pub predicted: f64,
    /// Simulator ("hardware") measurement, cycles.
    pub actual: f64,
}

impl Point {
    /// Relative error of the prediction.
    pub fn rel_error(&self) -> f64 {
        (self.predicted - self.actual).abs() / self.actual
    }
}

/// Mean absolute relative error over a series (the §4 inaccuracy metric).
pub fn mean_error(points: &[Point]) -> f64 {
    points.iter().map(Point::rel_error).sum::<f64>() / points.len().max(1) as f64
}

/// Steady-state mean simulated latency of a ported program.
pub fn actual_cycles(program: &NicProgram, workload: &WorkloadProfile, packets: usize) -> f64 {
    let trace = workload.to_trace(packets, 42);
    simulate(netronome(), program, &trace).expect("port must simulate").steady_latency_cycles
}

/// Figure 3a: LPM latency vs number of table entries, predicted vs
/// actual. The ported strategy is the software match/action scan (no
/// flow cache), as in the paper's sweep.
pub fn fig3a_series() -> Vec<Point> {
    let workload = WorkloadProfile::paper_default();
    (1..=6)
        .map(|i| {
            let entries = i * 5_000u64;
            let module = clara()
                .analyze(&nfs::lpm::source(entries))
                .expect("LPM source compiles")
                .module;
            let predicted = predict_with_options(
                &module,
                clara().params(),
                &workload,
                PredictOptions {
                    software_only: true,
                    // The paper's sweep keeps the match/action rules in
                    // DRAM; pin the same placement the port uses.
                    pin_state: vec![("routes".into(), "emem".into())],
                    ..PredictOptions::default()
                },
            )
            .expect("prediction succeeds")
            .avg_latency_cycles;
            let actual = actual_cycles(&nfs::lpm::ported_scan(entries), &workload, 1_500);
            Point { x: entries as f64, predicted, actual }
        })
        .collect()
}

/// Figure 3b: VNF chain latency vs payload size, predicted vs actual.
pub fn fig3b_series() -> Vec<Point> {
    let module = clara()
        .analyze(&nfs::vnf::source(
            nfs::vnf::AUTOMATON_ENTRIES,
            nfs::vnf::STAT_BUCKETS,
        ))
        .expect("VNF source compiles")
        .module;
    let program = nfs::vnf::ported();
    (1..=7)
        .map(|i| {
            let payload = 200.0 * i as f64;
            let workload = WorkloadProfile {
                avg_payload: payload,
                max_payload: payload as usize,
                ..WorkloadProfile::paper_default()
            };
            let predicted = clara()
                .predict_module(&module, &workload)
                .expect("prediction succeeds")
                .avg_latency_cycles;
            let actual = actual_cycles(&program, &workload, 2_000);
            Point { x: payload, predicted, actual }
        })
        .collect()
}

/// Figure 3c: NAT latency vs payload size, predicted vs actual.
pub fn fig3c_series() -> Vec<Point> {
    let module = clara()
        .analyze(&nfs::nat::source())
        .expect("NAT source compiles")
        .module;
    let program = nfs::nat::ported();
    (1..=7)
        .map(|i| {
            let payload = 200.0 * i as f64;
            let workload = WorkloadProfile {
                avg_payload: payload,
                max_payload: payload as usize,
                ..WorkloadProfile::paper_default()
            };
            let predicted = clara()
                .predict_module(&module, &workload)
                .expect("prediction succeeds")
                .avg_latency_cycles;
            let actual = actual_cycles(&program, &workload, SIM_PACKETS);
            Point { x: payload, predicted, actual }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Pipeline hot-path benchmark helpers (solver fast path + sweep).
// Shared by `benches/pipeline.rs` and the `pipeline_bench` emitter so
// both measure exactly the same work.
// ---------------------------------------------------------------------------

/// A generalized-assignment ILP sized to force a substantive
/// branch-and-bound tree: `tasks` tasks onto `units` units, each unit
/// with a knapsack capacity. Pure assignment polytopes are integral (the
/// LP relaxation already lands on integers, so nothing branches); the
/// capacity rows break integrality, and the resulting tree of closely
/// related LP re-solves is exactly what the warm-start/memoization fast
/// path accelerates.
pub fn solver_stress_model(tasks: usize, units: usize) -> clara_ilp::Model {
    // Deterministic LCG so every run benchmarks the same instance.
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |m: u64| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) % m
    };

    let mut model = clara_ilp::Model::minimize();
    let mut x = Vec::with_capacity(tasks);
    let mut weights = Vec::with_capacity(tasks);
    for t in 0..tasks {
        let row: Vec<_> = (0..units).map(|u| model.binary(format!("x{t}_{u}"))).collect();
        model.constraint(
            clara_ilp::LinExpr::sum(row.iter().map(|&v| clara_ilp::LinExpr::from(v))),
            clara_ilp::Rel::Eq,
            1.0,
        );
        x.push(row);
        weights.push((next(9) + 1) as f64);
    }
    // Tight capacities: ~15% slack over a perfectly balanced packing.
    let capacity = (weights.iter().sum::<f64>() / units as f64 * 1.15).ceil();
    for u in 0..units {
        model.constraint(
            clara_ilp::LinExpr::sum(
                x.iter().zip(&weights).map(|(row, &w)| w * clara_ilp::LinExpr::from(row[u])),
            ),
            clara_ilp::Rel::Le,
            capacity,
        );
    }
    let mut obj = clara_ilp::LinExpr::zero();
    for row in &x {
        for &v in row {
            obj += (next(50) + 1) as f64 * v;
        }
    }
    model.objective(obj);
    model
}

/// The pipeline bench's workload grid: `per_axis`³ cells over rate ×
/// payload × flow count (4 per axis = the headline 64-cell sweep).
pub fn sweep_grid(per_axis: usize) -> Vec<WorkloadProfile> {
    let rates = [20_000.0, 60_000.0, 200_000.0, 600_000.0];
    let payloads = [100.0, 300.0, 700.0, 1400.0];
    let flows = [100usize, 1_000, 10_000, 100_000];
    let n = per_axis.clamp(1, 4);
    let mut grid = Vec::with_capacity(n * n * n);
    for &rate in &rates[..n] {
        for &payload in &payloads[..n] {
            for &f in &flows[..n] {
                grid.push(WorkloadProfile {
                    rate_pps: rate,
                    avg_payload: payload,
                    max_payload: payload as usize,
                    flows: f,
                    ..WorkloadProfile::paper_default()
                });
            }
        }
    }
    grid
}

/// Sweep scenarios over one module for `grid`, all under `solver`.
pub fn sweep_scenarios<'a>(
    module: &'a clara_core::CirModule,
    params: &'a clara_core::NicParameters,
    grid: &[WorkloadProfile],
    solver: clara_core::SolverConfig,
) -> Vec<clara_core::SweepScenario<'a>> {
    grid.iter()
        .map(|wl| clara_core::SweepScenario {
            label: format!("rate={} payload={} flows={}", wl.rate_pps, wl.avg_payload, wl.flows),
            module,
            params,
            workload: wl.clone(),
            options: clara_core::PredictOptions { solver, ..Default::default() },
        })
        .collect()
}

/// Render a predicted/actual series as an aligned text table.
pub fn render_series(title: &str, x_label: &str, unit: &str, points: &[Point]) -> String {
    let mut out = format!(
        "{title}\n{:>12}  {:>16}  {:>16}  {:>7}\n",
        x_label, "Predicted", "Actual", "err"
    );
    for p in points {
        out.push_str(&format!(
            "{:>12}  {:>14.1} {unit}  {:>14.1} {unit}  {:>6.1}%\n",
            p.x,
            p.predicted,
            p.actual,
            p.rel_error() * 100.0
        ));
    }
    out.push_str(&format!("mean abs. error: {:.1}%\n", mean_error(points) * 100.0));
    out
}
