//! Predicted-vs-simulated validation sweeps (the paper's Figure-3-style
//! accuracy evidence, grid-shaped).
//!
//! A validation run takes one NF twice — the *lowered* form the
//! predictor prices and the *ported* [`NicProgram`] the simulator
//! executes — and sweeps both over a workload grid. Each cell predicts
//! the mean per-packet latency, then measures it by simulating a
//! generated trace, and reports the relative error between the two: the
//! per-cell analogue of the paper's §4 accuracy tables.
//!
//! A validation sweep is the prediction sweep plus a simulator: the grid
//! becomes [`SweepScenario`]s, and the predicted side runs through
//! [`crate::sweep`]'s prep groups and cell runner (one `Prepared` and one
//! ILP warm-start donor per workload class). The simulated side is
//! grouped by family: cells whose workloads differ only in offered rate
//! simulate the same packets ([`BodyKey`]), and cells that differ only in
//! payload too, by relabelling, when the program lets one recorded
//! service column serve several payloads
//! ([`NicProgram::shares_payloads`]; [`BodyKey::family`]). The
//! `fanout.rs` executor hands out families, not cells: 4 per lookup NF on
//! the 64-cell grid, one per flow count, and 16 for dpi and vnf, whose
//! automaton walks read the payload through the EMEM cache. The worker
//! that claims a family predicts its cells in grid order (each prep
//! group's donor first), generates one body ([`TraceBody`], 24 bytes a
//! packet) and simulates every cell with one [`simulate_rates`] call,
//! which runs one cell in full and replays only the queueing at the
//! others wherever the simulator can (an all-NPU program). A family's
//! work is panic-isolated, so a bad (workload, program) pairing degrades
//! to failed cells instead of killing the run. Each worker owns a single
//! [`SimScratch`] reused across all the families it claims, and
//! steady-state simulation allocates O(1) per family. Healthy-cell
//! results are bit-identical between a sequential run (`threads: 1`),
//! any parallel schedule, [`SimConfig::exact`] streaming each cell's
//! trace, and [`crate::run_sweep`] over the same scenarios: cells are
//! pure, and neither scratch reuse nor replay changes simulator output.

use crate::fanout::{contain, fan_out};
use crate::predictor::{PredictOptions, Prediction};
use crate::supervisor::{CellOutcome, RunReport};
use crate::sweep::{run_cell, PrepShare, SweepScenario};
use clara_cir::CirModule;
use clara_lnic::Lnic;
use clara_map::RunDeadline;
use clara_microbench::NicParameters;
use clara_nicsim::{
    simulate_rates, CostCache, FaultPlan, NicProgram, RateRun, SimConfig, SimScratch, Watchdog,
};
use clara_telemetry::{SimStats, SolveStats};
use clara_workload::{BodyKey, TraceBody, WorkloadProfile};
use std::collections::HashMap;
use std::sync::Arc;

/// The most packets one simulated cell may ask for at a boundary: the
/// CLI's `--packets` for `clara validate` and `clara profile`, and a
/// served validate request's `packets`. The simulator reserves its
/// per-packet arenas at the trace's length (a validation body and its
/// service column add about 36 bytes a packet), so an unbounded count is
/// an allocation that aborts the process instead of an error.
pub const MAX_PACKETS: usize = 1_000_000;

/// Policy knobs for one validation sweep.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Worker threads; `0` = available parallelism.
    pub threads: usize,
    /// Packets simulated per cell (predictions are closed-form; the
    /// simulated side needs enough packets to reach steady state).
    pub packets: usize,
    /// Trace-generation seed, shared by every cell.
    pub seed: u64,
    /// Simulator configuration; [`SimConfig::exact`] forces the exact
    /// oracle path for fidelity audits.
    pub sim: SimConfig,
    /// Prediction options applied to every cell.
    pub options: PredictOptions,
    /// Watchdog for every cell's simulation. The default caps are far
    /// above legitimate programs; a server threads its per-request
    /// wall-clock deadline (and drain cancel token) through here so a
    /// slow simulation stops cooperatively instead of outliving its
    /// request.
    pub watchdog: Watchdog,
    /// Collect per-cell telemetry: simulator counters in each
    /// [`ValidationCell::sim_stats`] and a summary line on each
    /// [`crate::supervisor::CellReport`]. Off by default; instrumented cells are
    /// bit-identical to uninstrumented ones (telemetry never feeds back),
    /// so this only adds observation cost.
    pub telemetry: bool,
    /// Shared stage-cost cache attached to every worker's scratch.
    /// `None` (the default) makes the sweep create one internally, so
    /// cells still share costs with each other; pass a session-owned
    /// cache to also share across requests. Shared values are replayed
    /// bit-identically (they are keyed by the post-fault run
    /// fingerprint), so attaching a cache never changes results.
    pub cost_cache: Option<Arc<CostCache>>,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            threads: 0,
            packets: 4_000,
            seed: 42,
            sim: SimConfig::default(),
            options: PredictOptions::default(),
            watchdog: Watchdog::new(),
            telemetry: false,
            cost_cache: None,
        }
    }
}

/// One healthy cell: a workload point with both numbers attached.
#[derive(Debug, Clone)]
pub struct ValidationCell {
    /// Human-readable cell label (`rate=… payload=… flows=…`).
    pub label: String,
    /// Offered rate of the cell's workload, packets per second.
    pub rate_pps: f64,
    /// Mean payload bytes of the cell's workload.
    pub avg_payload: f64,
    /// Concurrent flow count of the cell's workload.
    pub flows: usize,
    /// Clara's predicted mean per-packet latency, cycles.
    pub predicted_cycles: f64,
    /// Simulated steady-state mean latency
    /// ([`clara_nicsim::SimResult::steady_latency_cycles`]), cycles.
    pub actual_cycles: f64,
    /// Mapping quality tag of the prediction (`optimal`, `incumbent`, …).
    pub quality: String,
    /// Packets the simulator completed (vs. dropped) in this cell.
    pub completed: usize,
    /// Solver telemetry of the cell's prediction (always filled: the
    /// mapping carries it whether or not telemetry collection is on).
    pub solve: SolveStats,
    /// Simulator counters, when [`ValidationConfig::telemetry`] was on.
    pub sim_stats: Option<SimStats>,
}

impl ValidationCell {
    /// Relative prediction error of this cell.
    pub fn rel_error(&self) -> f64 {
        (self.predicted_cycles - self.actual_cycles).abs() / self.actual_cycles.max(1.0)
    }
}

/// What one cell of a validation sweep produced.
// `Ok` is by far the common variant in a healthy sweep, so the cell
// stays inline rather than boxed — the per-element size is paid either
// way inside `Vec<ValidationResult>`, and boxing would add an
// allocation per healthy cell.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ValidationResult {
    /// Both sides ran; numbers attached.
    Ok(ValidationCell),
    /// Prediction or simulation failed (message says which and why).
    Failed(String),
}

/// The outcome of [`run_validation_sweep`].
#[derive(Debug)]
pub struct ValidationSweep {
    /// Per-cell results, in grid order.
    pub cells: Vec<ValidationResult>,
    /// Per-cell outcomes folded into the supervisor's run report, so
    /// callers classify exit codes exactly as they do for plain sweeps.
    pub report: RunReport,
}

/// Aggregate accuracy summary of a validation sweep: cell counts by
/// outcome plus the distribution of per-cell relative errors.
#[derive(Debug, Clone, Default)]
pub struct ErrorSummary {
    /// Cells where both sides ran.
    pub ok_cells: usize,
    /// Cells that failed (predict, simulate, or panic).
    pub failed_cells: usize,
    /// Mean relative error over healthy cells; `None` when none.
    pub mean: Option<f64>,
    /// Median relative error; `None` when no cell succeeded.
    pub p50: Option<f64>,
    /// 95th-percentile relative error; `None` when no cell succeeded.
    pub p95: Option<f64>,
    /// Worst relative error; `None` when no cell succeeded.
    pub max: Option<f64>,
}

impl ValidationSweep {
    /// Mean absolute relative error over the healthy cells (the §4
    /// aggregate accuracy metric). `None` when no cell succeeded.
    pub fn mean_error(&self) -> Option<f64> {
        self.error_summary().mean
    }

    /// The aggregate accuracy block: ok/failed counts and the
    /// p50/p95/max relative-error distribution over healthy cells.
    /// Percentiles use the nearest-rank method over the sorted errors.
    pub fn error_summary(&self) -> ErrorSummary {
        let mut errs: Vec<f64> = self
            .cells
            .iter()
            .filter_map(|c| match c {
                ValidationResult::Ok(cell) => Some(cell.rel_error()),
                ValidationResult::Failed(_) => None,
            })
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        let failed_cells = self.cells.len() - errs.len();
        if errs.is_empty() {
            return ErrorSummary { ok_cells: 0, failed_cells, ..ErrorSummary::default() };
        }
        let pct = |q: f64| {
            let idx = ((errs.len() as f64 * q).ceil() as usize).clamp(1, errs.len()) - 1;
            errs[idx]
        };
        ErrorSummary {
            ok_cells: errs.len(),
            failed_cells,
            mean: Some(errs.iter().sum::<f64>() / errs.len() as f64),
            p50: Some(pct(0.50)),
            p95: Some(pct(0.95)),
            max: errs.last().copied(),
        }
    }

    /// Fold per-cell telemetry into one run-level view: summed solver
    /// stats over healthy cells, and merged simulator counters when the
    /// sweep ran with [`ValidationConfig::telemetry`]. `(None, None)`
    /// when no cell succeeded.
    pub fn merged_stats(&self) -> (Option<SolveStats>, Option<SimStats>) {
        let mut solve: Option<SolveStats> = None;
        let mut sim: Option<SimStats> = None;
        for cell in &self.cells {
            let ValidationResult::Ok(c) = cell else { continue };
            match &mut solve {
                Some(s) => s.merge(&c.solve),
                None => solve = Some(c.solve.clone()),
            }
            if let Some(cs) = &c.sim_stats {
                match &mut sim {
                    Some(s) => s.merge(cs),
                    None => sim = Some(cs.clone()),
                }
            }
        }
        (solve, sim)
    }
}

/// The default validation grid: `per_axis`³ cells over offered rate ×
/// payload size × flow count, the same axes (and values) as the
/// pipeline bench's sweep so the two artifacts describe the same space.
pub fn validation_grid(per_axis: usize) -> Vec<WorkloadProfile> {
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

/// Label a grid cell the way sweep scenarios are labelled.
fn cell_label(wl: &WorkloadProfile) -> String {
    format!("rate={} payload={} flows={}", wl.rate_pps, wl.avg_payload, wl.flows)
}

/// Predict and simulate every cell of `grid`, in parallel, returning
/// per-cell prediction error.
///
/// `module` is the lowered NF the predictor prices; `program` is the
/// ported form the simulator executes on `nic`. Both sides of a cell see
/// the same [`WorkloadProfile`] — the predictor through its closed-form
/// pipeline, the simulator through a seeded trace, generated once per
/// family, relabelled per payload and timestamped per rate. A cell whose
/// simulation completes no packet is `Failed`: it has no latency to
/// compare.
pub fn run_validation_sweep(
    module: &CirModule,
    params: &NicParameters,
    nic: &Lnic,
    program: &NicProgram,
    grid: &[WorkloadProfile],
    config: &ValidationConfig,
) -> ValidationSweep {
    let faults = FaultPlan::none();
    // One shared cost cache per sweep: the first cell to cost a pure
    // (stage, unit[, len]) signature publishes it and every later cell —
    // on any worker — replays it instead of recomputing.
    let cost_cache: Arc<CostCache> =
        config.cost_cache.clone().unwrap_or_else(|| Arc::new(CostCache::new()));
    let scenarios: Vec<SweepScenario<'_>> = grid
        .iter()
        .map(|wl| SweepScenario {
            label: cell_label(wl),
            module,
            params,
            workload: wl.clone(),
            options: config.options.clone(),
        })
        .collect();
    let share = PrepShare::build(&scenarios);
    // Cells grouped by family (every input of the trace but the rate, and
    // but the payload when the program shares payloads), each family in
    // grid order, families in order of first cell. A family holds whole
    // prep groups, so each donor is predicted before its siblings.
    let shares = program.shares_payloads(nic, &faults);
    let mut family_ids: HashMap<BodyKey, usize> = HashMap::new();
    let mut families: Vec<Vec<usize>> = Vec::new();
    for (i, wl) in grid.iter().enumerate() {
        let key = BodyKey::of(wl, config.packets, config.seed);
        let n = families.len();
        let f = *family_ids.entry(if shares { key.family() } else { key }).or_insert(n);
        if f == n {
            families.push(Vec::new());
        }
        families[f].push(i);
    }
    let new_scratch = || {
        let mut scratch = SimScratch::new();
        scratch.attach_cost_cache(Arc::clone(&cost_cache));
        scratch
    };

    let run = FamilyRun { scenarios: &scenarios, share: &share, nic, program, faults: &faults };
    let per_family = fan_out(families.len(), config.threads, new_scratch, |f, scratch| {
        let cells = &families[f];
        let mut out: Vec<Option<ValidationResult>> = vec![None; cells.len()];
        if let Err(payload) = contain(|| run.validate(cells, config, scratch, &mut out)) {
            // Cells already reported keep their results.
            for slot in out.iter_mut().filter(|slot| slot.is_none()) {
                *slot = Some(ValidationResult::Failed(format!("panicked: {payload}")));
            }
        }
        out
    });
    let mut cells: Vec<Option<ValidationResult>> = vec![None; grid.len()];
    for (members, results) in families.iter().zip(per_family) {
        for (&i, result) in members.iter().zip(results) {
            cells[i] = result;
        }
    }
    let cells: Vec<ValidationResult> =
        cells.into_iter().map(|c| c.expect("every cell belongs to one family")).collect();

    let mut report = RunReport::default();
    for (sc, cell) in scenarios.iter().zip(&cells) {
        let (outcome, telemetry) = match cell {
            ValidationResult::Ok(c) => (
                CellOutcome::Ok { quality: c.quality.clone(), retried: false },
                Some(match &c.sim_stats {
                    Some(s) => format!("{} | {}", c.solve.summary(), s.summary()),
                    None => c.solve.summary(),
                }),
            ),
            ValidationResult::Failed(e) => {
                (CellOutcome::Failed { error: e.clone(), retried: false }, None)
            }
        };
        report.record_with_telemetry(&sc.label, outcome, telemetry);
    }
    ValidationSweep { cells, report }
}

/// What every family of one validation sweep shares.
struct FamilyRun<'s, 'a> {
    scenarios: &'s [SweepScenario<'a>],
    share: &'s PrepShare,
    nic: &'s Lnic,
    program: &'s NicProgram,
    faults: &'s FaultPlan,
}

impl FamilyRun<'_, '_> {
    /// Predict and simulate the cells of one family (grid indices, in
    /// grid order), filling each cell's slot in `out` as it completes.
    fn validate(
        &self,
        cells: &[usize],
        config: &ValidationConfig,
        scratch: &mut SimScratch,
        out: &mut [Option<ValidationResult>],
    ) {
        let mut predicted: Vec<(usize, Prediction)> = Vec::with_capacity(cells.len());
        for (slot, &i) in cells.iter().enumerate() {
            let deadline = RunDeadline::within_ms(self.scenarios[i].options.deadline_ms);
            match run_cell(self.scenarios, self.share, i, &deadline) {
                Ok(p) => predicted.push((slot, p)),
                Err(e) => out[slot] = Some(ValidationResult::Failed(format!("predict: {e}"))),
            }
        }
        let Some(&(first, _)) = predicted.first() else { return };
        let body = TraceBody::generate(
            &self.scenarios[cells[first]].workload,
            config.packets,
            config.seed,
        );
        let family_cells: Vec<(usize, f64)> = predicted
            .iter()
            .map(|&(slot, _)| {
                let wl = &self.scenarios[cells[slot]].workload;
                (wl.payload_len(), wl.rate_pps)
            })
            .collect();
        simulate_rates(
            self.nic,
            self.program,
            &body,
            &family_cells,
            self.faults,
            &config.watchdog,
            &config.sim,
            scratch,
            config.telemetry,
            |run| {
                let (slot, p) = &predicted[run.index];
                out[*slot] = Some(cell_result(&self.scenarios[cells[*slot]], p, run));
            },
        );
    }
}

/// One cell's result from its prediction and its rate's simulation.
fn cell_result(sc: &SweepScenario<'_>, p: &Prediction, run: RateRun<'_>) -> ValidationResult {
    let sim = match run.result {
        Ok(sim) if sim.completed > 0 => sim,
        Ok(_) => return ValidationResult::Failed("simulate: no packet completed".into()),
        Err(e) => return ValidationResult::Failed(format!("simulate: {e}")),
    };
    let wl = &sc.workload;
    ValidationResult::Ok(ValidationCell {
        label: sc.label.clone(),
        rate_pps: wl.rate_pps,
        avg_payload: wl.avg_payload,
        flows: wl.flows,
        predicted_cycles: p.avg_latency_cycles,
        actual_cycles: sim.steady_latency_cycles,
        quality: p.mapping.quality.to_string(),
        completed: sim.completed,
        solve: p.mapping.stats.clone(),
        sim_stats: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::RunClass;
    use clara_lang::frontend;
    use clara_lnic::profiles;
    use clara_microbench::extract_parameters;
    use clara_nicsim::{MicroOp, Stage, StageUnit, TableCfg};

    fn nat_module() -> CirModule {
        let src = r#"nf nat {
            state flow_table: map<u64, u64>[65536];
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let entry: u64 = flow_table.lookup(hash(pkt.src_ip, pkt.src_port));
                let ck: u16 = checksum(pkt);
                return forward;
            } }"#;
        clara_cir::lower(&frontend(src).unwrap()).unwrap()
    }

    fn nat_program() -> NicProgram {
        NicProgram {
            name: "nat".into(),
            tables: vec![TableCfg {
                name: "flow_table".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries: 65_536,
                use_flow_cache: true,
            }],
            stages: vec![Stage {
                name: "rewrite".into(),
                unit: StageUnit::Npu,
                ops: vec![
                    MicroOp::ParseHeader,
                    MicroOp::Hash { count: 1 },
                    MicroOp::TableLookup { table: 0 },
                    MicroOp::MetadataMod { count: 3 },
                    MicroOp::ChecksumSw,
                ],
            }],
        }
    }

    fn small_config(threads: usize) -> ValidationConfig {
        ValidationConfig { threads, packets: 600, ..ValidationConfig::default() }
    }

    /// Like [`nat_program`] but split into per-op stages, so the parse
    /// stage classifies Fixed and the checksum stage PayloadPure — the
    /// shapes the shared cost cache actually interns. The single-stage
    /// variant is one Live stage and never touches the cache.
    fn staged_nat_program() -> NicProgram {
        NicProgram {
            name: "nat-staged".into(),
            tables: vec![TableCfg {
                name: "flow_table".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries: 65_536,
                use_flow_cache: true,
            }],
            stages: vec![
                Stage {
                    name: "parse".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::ParseHeader, MicroOp::Hash { count: 1 }],
                },
                Stage {
                    name: "lookup".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::TableLookup { table: 0 }, MicroOp::MetadataMod { count: 3 }],
                },
                Stage {
                    name: "checksum".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::ChecksumSw],
                },
            ],
        }
    }

    #[test]
    fn shared_cost_cache_across_sweeps_is_bit_identical_and_reused() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        let program = staged_nat_program();
        let grid = validation_grid(2);
        // Baseline: sweep-internal cache (the default path).
        let baseline =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &small_config(1));
        // Caller-owned cache shared across two whole sweeps.
        let cache = Arc::new(CostCache::new());
        let shared_cfg =
            ValidationConfig { cost_cache: Some(Arc::clone(&cache)), ..small_config(1) };
        let first =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &shared_cfg);
        let misses_after_first = cache.misses();
        assert!(misses_after_first > 0, "first sweep must publish pure stage costs");
        assert!(cache.views() >= 1, "at least one fingerprint view interned");
        let second =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &shared_cfg);
        assert!(cache.hits() > 0, "second sweep must resolve from the shared cache");
        assert_eq!(
            cache.misses(),
            misses_after_first,
            "an identical sweep recomputes no pure signature"
        );
        for (a, b) in baseline.cells.iter().zip(first.cells.iter().zip(&second.cells)) {
            let (ValidationResult::Ok(a), (ValidationResult::Ok(b), ValidationResult::Ok(c))) =
                (a, b)
            else {
                panic!("expected all Ok")
            };
            assert_eq!(a.predicted_cycles.to_bits(), b.predicted_cycles.to_bits());
            assert_eq!(a.actual_cycles.to_bits(), b.actual_cycles.to_bits());
            assert_eq!(b.actual_cycles.to_bits(), c.actual_cycles.to_bits());
            assert_eq!(a.completed, b.completed);
            assert_eq!(b.completed, c.completed);
        }
    }

    #[test]
    fn healthy_sweep_is_all_ok_with_finite_errors() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        let program = nat_program();
        let grid = validation_grid(2);
        assert_eq!(grid.len(), 8);
        let sweep =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &small_config(1));
        assert_eq!(sweep.report.class(), RunClass::AllOk);
        for cell in &sweep.cells {
            let ValidationResult::Ok(c) = cell else { panic!("expected Ok, got {cell:?}") };
            assert!(c.predicted_cycles > 0.0);
            assert!(c.actual_cycles > 0.0);
            assert!(c.rel_error().is_finite());
            assert!(c.completed > 0);
        }
        assert!(sweep.mean_error().unwrap().is_finite());
    }

    #[test]
    fn parallel_fanout_is_bit_identical_to_sequential() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        let program = nat_program();
        let grid = validation_grid(2);
        let seq =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &small_config(1));
        let par =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &small_config(4));
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            let (ValidationResult::Ok(a), ValidationResult::Ok(b)) = (a, b) else {
                panic!("expected both Ok, got {a:?} vs {b:?}")
            };
            assert_eq!(a.predicted_cycles.to_bits(), b.predicted_cycles.to_bits());
            assert_eq!(a.actual_cycles.to_bits(), b.actual_cycles.to_bits());
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn predictions_match_the_plain_sweep_and_one_shot() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        let program = nat_program();
        let grid = validation_grid(2);
        let scenarios: Vec<SweepScenario<'_>> = grid
            .iter()
            .map(|wl| SweepScenario {
                label: cell_label(wl),
                module: &module,
                params: &params,
                workload: wl.clone(),
                options: PredictOptions::default(),
            })
            .collect();
        for threads in [1, 4] {
            let sweep = run_validation_sweep(
                &module, &params, &nic, &program, &grid, &small_config(threads),
            );
            let plain = crate::run_sweep(&scenarios, threads);
            for ((cell, plain), wl) in sweep.cells.iter().zip(&plain).zip(&grid) {
                let ValidationResult::Ok(c) = cell else { panic!("expected Ok, got {cell:?}") };
                let plain = plain.as_ref().unwrap();
                let one_shot =
                    crate::predict_with_options(&module, &params, wl, PredictOptions::default())
                        .unwrap();
                assert_eq!(c.predicted_cycles.to_bits(), plain.avg_latency_cycles.to_bits());
                assert_eq!(c.predicted_cycles.to_bits(), one_shot.avg_latency_cycles.to_bits());
            }
            // Four classes of two rates each: every second-rate cell is
            // seeded from its class's first cell, as in the plain sweep.
            assert!(sweep.merged_stats().0.unwrap().cell_warm_hits > 0);
        }
    }

    /// The counters every simulator route reports alike: a batch kernel
    /// counts its own packets and the accesses of the classes it costed.
    fn route_free(s: &SimStats, batched: bool) -> SimStats {
        SimStats {
            batch_packets: 0,
            batch_partial_packets: 0,
            replayed_packets: 0,
            memo_hits: 0,
            memo_misses: 0,
            mem_levels: if batched { Vec::new() } else { s.mem_levels.clone() },
            switch_transfers: if batched { 0 } else { s.switch_transfers },
            ..s.clone()
        }
    }

    #[test]
    fn exact_sim_config_matches_memoized_default() {
        // Two payloads and two rates per flow count. nat, firewall, lpm
        // and hh share payloads, so each of their two families runs one
        // cell in full and replays (or hands out) the other three; dpi's
        // automaton walk reads the payload through the EMEM cache, so its
        // four bodies each replay only their second rate. The exact
        // oracle streams every cell.
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let grid = validation_grid(2);
        for name in ["nat", "firewall", "lpm", "hh", "dpi"] {
            let (source, program) = clara_nfs::by_name(name).expect("corpus NF");
            let module = clara_cir::lower(&frontend(&source).unwrap()).unwrap();
            let cfg = ValidationConfig { packets: 300, telemetry: true, ..small_config(1) };
            let fast = run_validation_sweep(&module, &params, &nic, &program, &grid, &cfg);
            let exact_cfg = ValidationConfig { sim: SimConfig::exact(), ..cfg };
            let exact = run_validation_sweep(&module, &params, &nic, &program, &grid, &exact_cfg);
            // A replayed cell reports no kernel counters, so a program's
            // route is read off the cells it ran in full.
            let batched = fast.cells.iter().any(|c| {
                let ValidationResult::Ok(c) = c else { return false };
                let s = c.sim_stats.as_ref().unwrap();
                s.batch_packets + s.batch_partial_packets > 0
            });
            let mut replayed = 0;
            for (a, b) in fast.cells.iter().zip(&exact.cells) {
                let (ValidationResult::Ok(a), ValidationResult::Ok(b)) = (a, b) else {
                    panic!("{name}: expected both Ok, got {a:?} vs {b:?}")
                };
                assert_eq!(a.actual_cycles.to_bits(), b.actual_cycles.to_bits(), "{name}");
                assert_eq!(a.completed, b.completed, "{name}");
                let (sa, sb) = (a.sim_stats.as_ref().unwrap(), b.sim_stats.as_ref().unwrap());
                assert_eq!(route_free(sa, batched), route_free(sb, batched), "{name} {}", a.label);
                assert_eq!(sb.replayed_packets, 0, "{name}: the exact oracle never replays");
                replayed += sa.replayed_packets;
            }
            assert_eq!(batched, name == "hh", "{name}: route");
            let want = if name == "dpi" { 4 * 300 } else { 6 * 300 };
            assert_eq!(replayed, want, "{name}: replayed packets");
        }
    }

    /// Mapping solves `f` starts on this thread.
    fn solves(f: impl FnOnce()) -> usize {
        crate::predictor::MAPPING_SOLVES.with(|n| n.set(0));
        f();
        crate::predictor::MAPPING_SOLVES.with(|n| n.get())
    }

    #[test]
    fn each_prep_group_donor_is_solved_once() {
        use crate::supervisor::{run_sweep_supervised, CellResult, SupervisorConfig};
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        let grid = validation_grid(4);
        let cfg = ValidationConfig { packets: 100, ..small_config(1) };
        let mut sweep = None;
        let solved = solves(|| {
            sweep = Some(run_validation_sweep(&module, &params, &nic, &nat_program(), &grid, &cfg))
        });
        // One solve per cell: each of the 16 donors publishes its own seed.
        assert_eq!(solved, grid.len());
        // A supervised sweep with a deadline keeps the old path (every
        // donor solved again for its group's seed), with the same bits.
        let scenarios: Vec<SweepScenario<'_>> = grid
            .iter()
            .map(|wl| SweepScenario {
                label: cell_label(wl),
                module: &module,
                params: &params,
                workload: wl.clone(),
                options: PredictOptions::default(),
            })
            .collect();
        let supervisor = SupervisorConfig {
            threads: 1,
            deadline_ms: Some(600_000),
            ..SupervisorConfig::default()
        };
        let mut supervised = None;
        let solved = solves(|| supervised = Some(run_sweep_supervised(&scenarios, &supervisor)));
        assert_eq!(solved, grid.len() + 16);
        let supervised = supervised.unwrap().expect("no checkpoint to write");
        for (cell, result) in sweep.unwrap().cells.iter().zip(&supervised.results) {
            let (ValidationResult::Ok(c), CellResult::Fresh(p)) = (cell, result) else {
                panic!("expected healthy cells, got {cell:?} and {result:?}")
            };
            assert_eq!(c.predicted_cycles.to_bits(), p.avg_latency_cycles.to_bits(), "{}", c.label);
            assert_eq!(c.quality, p.mapping.quality.to_string(), "{}", c.label);
        }
    }

    #[test]
    fn a_cell_that_completes_no_packet_fails() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let cfg = ValidationConfig { packets: 0, ..small_config(2) };
        let sweep = run_validation_sweep(
            &nat_module(),
            &params,
            &nic,
            &nat_program(),
            &validation_grid(2),
            &cfg,
        );
        assert_eq!(sweep.report.class(), RunClass::AllFailed);
        for cell in &sweep.cells {
            let ValidationResult::Failed(e) = cell else { panic!("expected Failed, got {cell:?}") };
            assert_eq!(e, "simulate: no packet completed");
        }
    }

    #[test]
    fn telemetry_sweep_is_bit_identical_and_carries_stats() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        let program = nat_program();
        let grid = validation_grid(2);
        let plain =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &small_config(1));
        let tele_cfg = ValidationConfig { telemetry: true, ..small_config(1) };
        let tele = run_validation_sweep(&module, &params, &nic, &program, &grid, &tele_cfg);
        for (a, b) in plain.cells.iter().zip(&tele.cells) {
            let (ValidationResult::Ok(a), ValidationResult::Ok(b)) = (a, b) else {
                panic!("expected both Ok, got {a:?} vs {b:?}")
            };
            // Telemetry must never perturb either side of a cell.
            assert_eq!(a.predicted_cycles.to_bits(), b.predicted_cycles.to_bits());
            assert_eq!(a.actual_cycles.to_bits(), b.actual_cycles.to_bits());
            assert_eq!(a.completed, b.completed);
            let st = b.sim_stats.as_ref().expect("telemetry run fills sim_stats");
            assert!(st.conserved(), "{st:?}");
            assert_eq!(st.completed as usize, b.completed);
            assert!(a.sim_stats.is_none());
        }
        let summary = tele.error_summary();
        assert_eq!((summary.ok_cells, summary.failed_cells), (8, 0));
        assert!(summary.p50.unwrap() <= summary.p95.unwrap());
        assert!(summary.p95.unwrap() <= summary.max.unwrap());
        assert_eq!(summary.mean, tele.mean_error());
        let (solve, sim) = tele.merged_stats();
        assert!(solve.unwrap().nodes_explored > 0);
        let sim = sim.unwrap();
        assert!(sim.conserved());
        assert_eq!(sim.injected, 8 * 600);
        // Per-cell telemetry summaries ride on the run report.
        assert!(tele
            .report
            .cells
            .iter()
            .all(|c| c.telemetry.as_deref().is_some_and(|t| t.contains("sim:"))));
    }

    #[test]
    fn bad_program_degrades_to_failed_cell_not_a_crash() {
        let nic = profiles::netronome_agilio_cx40();
        let params = extract_parameters(&nic);
        let module = nat_module();
        // A table in a region the Netronome profile does not have: the
        // simulator panics per cell; the sweep must contain it.
        let mut program = nat_program();
        program.tables[0].mem = "hbm".into();
        let grid = validation_grid(1);
        let sweep =
            run_validation_sweep(&module, &params, &nic, &program, &grid, &small_config(2));
        assert_eq!(sweep.report.class(), RunClass::AllFailed);
        for cell in &sweep.cells {
            assert!(matches!(cell, ValidationResult::Failed(_)), "got {cell:?}");
        }
        assert!(sweep.mean_error().is_none());
    }
}
