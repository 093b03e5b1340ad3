//! Supervised sweep execution: run-wide deadlines, fail-fast
//! cancellation, one retry under a tighter budget, and
//! checkpoint/resume — the robustness layer between the CLI and
//! [`crate::sweep`]'s cell runner. The first pass runs on the same
//! `fanout.rs` executor and [`crate::sweep`] prep groups as the
//! plain sweep; only the policy around each cell is added here.
//!
//! A supervised sweep never aborts wholesale on one bad cell. Each cell
//! ends in exactly one [`CellOutcome`]; the aggregated [`RunReport`]
//! classifies the run ([`RunClass::AllOk`] / `Partial` / `AllFailed`) so
//! callers can pick an exit code, and the optional checkpoint file makes
//! an interrupted grid resumable with only the unfinished cells re-run.

use crate::checkpoint::{scenario_hash, CellSummary, Checkpoint};
use crate::fanout::fan_out;
use crate::predictor::{PredictError, Prediction};
use crate::sweep::{run_cell, PrepShare, SweepScenario};
use clara_map::{RunDeadline, SolveBudget};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Policy knobs for one supervised sweep.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads; `0` = available parallelism.
    pub threads: usize,
    /// Run-wide per-cell wall-clock budget in milliseconds. A cell's own
    /// [`crate::PredictOptions::deadline_ms`] takes precedence when set.
    pub deadline_ms: Option<u64>,
    /// Retry failed cells once, sequentially, under [`Self::retry_budget`].
    pub retry: bool,
    /// Tighter solver budget for the retry pass: a cell that failed at
    /// full effort gets one more chance to land an incumbent fast.
    pub retry_budget: SolveBudget,
    /// Cancel remaining cells after the first failure.
    pub fail_fast: bool,
    /// Write per-cell results here as they complete.
    pub checkpoint: Option<PathBuf>,
    /// Load this checkpoint first and skip cells it already covers.
    /// Also becomes the checkpoint path when [`Self::checkpoint`] is
    /// unset, so plain `--resume f` keeps extending `f`.
    pub resume: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: 0,
            deadline_ms: None,
            retry: true,
            retry_budget: SolveBudget::nodes(256),
            fail_fast: false,
            checkpoint: None,
            resume: None,
        }
    }
}

/// What a supervised cell produced.
// `Fresh` dwarfs the other variants (a Prediction now carries the
// exported warm-start seed), but it is also the overwhelmingly common
// case in a healthy sweep — boxing it would trade an allocation per
// cell for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellResult {
    /// Computed this run.
    Fresh(Prediction),
    /// Restored from the resume checkpoint; numbers only, no mapping.
    Resumed(CellSummary),
    /// Failed (after any retry).
    Failed(PredictError),
    /// Never started: the run was cancelled (fail-fast) first.
    Skipped,
}

/// How a supervised cell ended, for the run report.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// Completed with a mapping of the given quality.
    Ok { quality: String, retried: bool },
    /// Restored from the resume checkpoint.
    Resumed,
    /// Solve or simulation exceeded its deadline.
    TimedOut { retried: bool },
    /// The cell panicked; payload is the panic message.
    Panicked { payload: String, retried: bool },
    /// Any other per-cell error.
    Failed { error: String, retried: bool },
    /// Cancelled before starting (fail-fast).
    Skipped,
}

impl CellOutcome {
    fn of(result: &CellResult, retried: bool) -> Self {
        match result {
            CellResult::Fresh(p) => CellOutcome::Ok {
                quality: p.mapping.quality.to_string(),
                retried,
            },
            CellResult::Resumed(_) => CellOutcome::Resumed,
            CellResult::Failed(PredictError::TimedOut) => CellOutcome::TimedOut { retried },
            CellResult::Failed(PredictError::Panicked { payload, .. }) => CellOutcome::Panicked {
                payload: payload.clone(),
                retried,
            },
            CellResult::Failed(e) => CellOutcome::Failed {
                error: e.to_string(),
                retried,
            },
            CellResult::Skipped => CellOutcome::Skipped,
        }
    }

    /// Whether this outcome counts as a success for run classification.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok { .. } | CellOutcome::Resumed)
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let retried = |r: &bool| if *r { " (after retry)" } else { "" };
        match self {
            CellOutcome::Ok { quality, retried: r } => write!(f, "ok [{quality}]{}", retried(r)),
            CellOutcome::Resumed => write!(f, "resumed from checkpoint"),
            CellOutcome::TimedOut { retried: r } => write!(f, "timed out{}", retried(r)),
            CellOutcome::Panicked { payload, retried: r } => {
                write!(f, "panicked: {payload}{}", retried(r))
            }
            CellOutcome::Failed { error, retried: r } => write!(f, "failed: {error}{}", retried(r)),
            CellOutcome::Skipped => write!(f, "skipped (run cancelled)"),
        }
    }
}

/// One row of the run report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's label.
    pub label: String,
    /// How it ended.
    pub outcome: CellOutcome,
    /// Compact telemetry summary (solver counters, and simulator
    /// counters when the run collected them). `None` for cells with no
    /// fresh computation (resumed, skipped, failed before solving).
    pub telemetry: Option<String>,
}

/// Aggregated fate of every cell in a supervised run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-cell outcomes, in input order (plus any externally
    /// [`RunReport::record`]ed rows).
    pub cells: Vec<CellReport>,
}

/// Coarse classification of a run, for exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// Every cell succeeded (or the run was empty).
    AllOk,
    /// Some cells succeeded, some failed.
    Partial,
    /// Every cell failed.
    AllFailed,
}

impl RunReport {
    /// Append an externally observed outcome (e.g. a simulator-watchdog
    /// failure from a stage outside the sweep itself).
    pub fn record(&mut self, label: &str, outcome: CellOutcome) {
        self.record_with_telemetry(label, outcome, None);
    }

    /// [`RunReport::record`] with a telemetry summary attached.
    pub fn record_with_telemetry(
        &mut self,
        label: &str,
        outcome: CellOutcome,
        telemetry: Option<String>,
    ) {
        self.cells.push(CellReport { label: label.to_string(), outcome, telemetry });
    }

    /// Number of successful cells (fresh or resumed).
    pub fn ok_count(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Number of failed cells (including skipped).
    pub fn failed_count(&self) -> usize {
        self.cells.len() - self.ok_count()
    }

    /// Classify the run. Skipped cells count as failures: a fail-fast
    /// run that cancelled half the grid is not "all ok".
    pub fn class(&self) -> RunClass {
        match (self.ok_count(), self.failed_count()) {
            (_, 0) => RunClass::AllOk,
            (0, _) => RunClass::AllFailed,
            _ => RunClass::Partial,
        }
    }
}

/// The outcome of [`run_sweep_supervised`].
#[derive(Debug)]
pub struct SupervisedSweep {
    /// Per-cell results, in input order.
    pub results: Vec<CellResult>,
    /// Per-cell outcomes and run classification.
    pub report: RunReport,
}

/// Failures of the supervision machinery itself (never of a cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// The final checkpoint write failed; per-cell results were still
    /// computed but are not persisted.
    Checkpoint(String),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Run a sweep under supervision: panic isolation (inherited from the
/// cell runner), per-cell deadlines with a fail-fast cancel token, one
/// sequential retry of failed cells under a tighter budget, and
/// checkpoint/resume.
///
/// Healthy cells produce results bit-identical to [`crate::run_sweep`]:
/// supervision only adds policy around the same pure computation.
pub fn run_sweep_supervised(
    scenarios: &[SweepScenario<'_>],
    config: &SupervisorConfig,
) -> Result<SupervisedSweep, SupervisorError> {
    let ck_path = config.checkpoint.clone().or_else(|| config.resume.clone());
    let restored = match &config.resume {
        Some(path) => Checkpoint::load(path),
        None => Checkpoint::new(),
    };
    let hashes: Vec<u64> = scenarios.iter().map(scenario_hash).collect();
    let checkpoint = Mutex::new(restored.clone());

    let cancel = Arc::new(AtomicBool::new(false));
    let share = PrepShare::build(scenarios);

    // First pass: parallel. Restored cells are claimed like any other
    // but resolved instantly.
    let mut results: Vec<CellResult> = fan_out(scenarios.len(), config.threads, || (), |i, _| {
        if let Some(summary) = restored.get(hashes[i]) {
            return CellResult::Resumed(summary.clone());
        }
        if cancel.load(Ordering::Relaxed) {
            return CellResult::Skipped;
        }
        let eff = scenarios[i].options.deadline_ms.or(config.deadline_ms);
        let deadline = RunDeadline::within_ms(eff).with_cancel(Arc::clone(&cancel));
        match run_cell(scenarios, &share, i, &deadline) {
            Ok(p) => {
                checkpoint_cell(&checkpoint, &ck_path, hashes[i], &scenarios[i].label, &p);
                CellResult::Fresh(p)
            }
            Err(PredictError::Cancelled) => CellResult::Skipped,
            Err(e) => {
                if config.fail_fast {
                    cancel.store(true, Ordering::Relaxed);
                }
                CellResult::Failed(e)
            }
        }
    });

    // Retry pass: sequential, one attempt per failed cell, tighter
    // budget, fresh deadline, no cancel token. Cancelled/skipped cells
    // are not retried — the user asked the run to stop.
    let mut retried = vec![false; scenarios.len()];
    if config.retry {
        for i in 0..scenarios.len() {
            if !matches!(results[i], CellResult::Failed(_)) {
                continue;
            }
            retried[i] = true;
            let mut sc = scenarios[i].clone();
            sc.options.budget = config.retry_budget;
            let retry_scenarios = [sc];
            let retry_share = PrepShare::build(&retry_scenarios);
            let eff = retry_scenarios[0].options.deadline_ms.or(config.deadline_ms);
            let deadline = RunDeadline::within_ms(eff);
            match run_cell(&retry_scenarios, &retry_share, 0, &deadline) {
                Ok(p) => {
                    checkpoint_cell(&checkpoint, &ck_path, hashes[i], &scenarios[i].label, &p);
                    results[i] = CellResult::Fresh(p);
                }
                Err(PredictError::Panicked { payload, .. }) => {
                    // Re-attribute to the cell's index in the original
                    // grid, not the 1-element retry grid.
                    results[i] =
                        CellResult::Failed(PredictError::Panicked { cell: i, payload });
                }
                Err(e) => results[i] = CellResult::Failed(e),
            }
        }
    }

    let report = RunReport {
        cells: scenarios
            .iter()
            .zip(&results)
            .zip(&retried)
            .map(|((sc, res), &r)| CellReport {
                label: sc.label.clone(),
                outcome: CellOutcome::of(res, r),
                telemetry: match res {
                    CellResult::Fresh(p) => Some(p.mapping.stats.summary()),
                    _ => None,
                },
            })
            .collect(),
    };

    // Final checkpoint write is authoritative: per-cell saves above are
    // best-effort, but a failure here means resume would lose work.
    if let Some(path) = &ck_path {
        let ck = checkpoint.lock().unwrap_or_else(|p| p.into_inner());
        if !ck.is_empty() || path.exists() {
            ck.save_atomic(path).map_err(SupervisorError::Checkpoint)?;
        }
    }

    Ok(SupervisedSweep { results, report })
}

/// Record a completed cell and write the checkpoint through, best-effort
/// (mid-run persistence; the final save reports errors).
fn checkpoint_cell(
    checkpoint: &Mutex<Checkpoint>,
    path: &Option<PathBuf>,
    hash: u64,
    label: &str,
    p: &Prediction,
) {
    if path.is_none() {
        return;
    }
    let mut ck = checkpoint.lock().unwrap_or_else(|e| e.into_inner());
    ck.insert(CellSummary::of(hash, label, p));
    if let Some(path) = path {
        let _ = ck.save_atomic(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictOptions;
    use clara_cir::{lower, CirModule};
    use clara_lang::frontend;
    use clara_lnic::profiles;
    use clara_microbench::{extract_parameters, NicParameters};
    use clara_workload::WorkloadProfile;
    use std::sync::OnceLock;

    fn params() -> &'static NicParameters {
        static P: OnceLock<NicParameters> = OnceLock::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    fn module() -> CirModule {
        let src = r#"nf nat {
            state flow_table: map<u64, u64>[65536];
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let entry: u64 = flow_table.lookup(hash(pkt.src_ip, pkt.src_port));
                let ck: u16 = checksum(pkt);
                return forward;
            } }"#;
        lower(&frontend(src).unwrap()).unwrap()
    }

    fn grid<'a>(module: &'a CirModule, params: &'a NicParameters) -> Vec<SweepScenario<'a>> {
        [50_000.0, 150_000.0, 400_000.0, 800_000.0]
            .iter()
            .map(|&rate| SweepScenario {
                label: format!("rate={rate}"),
                module,
                params,
                workload: WorkloadProfile { rate_pps: rate, ..WorkloadProfile::paper_default() },
                options: PredictOptions::default(),
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clara-supervisor-{name}-{}.json", std::process::id()))
    }

    #[test]
    fn healthy_run_is_all_ok_and_bit_identical_to_plain_sweep() {
        let m = module();
        let p = params();
        let scenarios = grid(&m, p);
        let plain = crate::run_sweep(&scenarios, 1);
        let sup = run_sweep_supervised(&scenarios, &SupervisorConfig::default()).unwrap();
        assert_eq!(sup.report.class(), RunClass::AllOk);
        for (a, b) in plain.iter().zip(&sup.results) {
            let a = a.as_ref().unwrap();
            let CellResult::Fresh(b) = b else { panic!("expected Fresh, got {b:?}") };
            assert_eq!(a.avg_latency_cycles.to_bits(), b.avg_latency_cycles.to_bits());
            assert_eq!(a.throughput_pps.to_bits(), b.throughput_pps.to_bits());
        }
    }

    #[test]
    fn panicking_cell_yields_partial_run_and_distinct_outcome() {
        let m = module();
        let p = params();
        let mut scenarios = grid(&m, p);
        scenarios[1].options.inject_panic = true;
        let sup = run_sweep_supervised(&scenarios, &SupervisorConfig::default()).unwrap();
        assert_eq!(sup.report.class(), RunClass::Partial);
        match &sup.report.cells[1].outcome {
            CellOutcome::Panicked { payload, retried } => {
                assert!(payload.contains("injected panic"));
                assert!(*retried, "panicking cell should have been retried once");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert!(sup.report.cells[0].outcome.is_ok());
        assert!(sup.report.cells[2].outcome.is_ok());
    }

    #[test]
    fn zero_deadline_times_out_distinctly() {
        let m = module();
        let p = params();
        let mut scenarios = grid(&m, p);
        scenarios[2].options.deadline_ms = Some(0);
        let config = SupervisorConfig { retry: false, ..SupervisorConfig::default() };
        let sup = run_sweep_supervised(&scenarios, &config).unwrap();
        assert!(matches!(
            sup.report.cells[2].outcome,
            CellOutcome::TimedOut { retried: false }
        ));
        assert_eq!(sup.report.class(), RunClass::Partial);
    }

    #[test]
    fn retried_failure_that_fails_again_stays_failed_and_marked_retried() {
        let m = module();
        let p = params();
        let mut scenarios = grid(&m, p);
        // A cell-level zero deadline binds the retry too (the cell's
        // own options always win), so this cell fails twice — the
        // report must say both "timed out" and "retried".
        scenarios[2].options.deadline_ms = Some(0);
        let sup = run_sweep_supervised(&scenarios, &SupervisorConfig::default()).unwrap();
        assert!(matches!(
            sup.report.cells[2].outcome,
            CellOutcome::TimedOut { retried: true }
        ));
    }

    #[test]
    fn fail_fast_skips_remaining_cells() {
        let m = module();
        let p = params();
        let mut scenarios = grid(&m, p);
        scenarios[0].options.inject_panic = true;
        let config = SupervisorConfig {
            threads: 1,
            fail_fast: true,
            retry: false,
            ..SupervisorConfig::default()
        };
        let sup = run_sweep_supervised(&scenarios, &config).unwrap();
        assert!(matches!(sup.report.cells[0].outcome, CellOutcome::Panicked { .. }));
        let skipped = sup
            .report
            .cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Skipped))
            .count();
        assert_eq!(skipped, 3, "fail-fast must cancel every cell after the failure");
        assert_eq!(sup.report.class(), RunClass::AllFailed);
    }

    #[test]
    fn checkpoint_then_resume_skips_finished_cells() {
        let m = module();
        let p = params();
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);

        // First run: one cell fails, three checkpoint.
        let mut scenarios = grid(&m, p);
        scenarios[1].options.inject_panic = true;
        let config = SupervisorConfig {
            checkpoint: Some(path.clone()),
            retry: false,
            ..SupervisorConfig::default()
        };
        let first = run_sweep_supervised(&scenarios, &config).unwrap();
        assert_eq!(first.report.class(), RunClass::Partial);

        // Second run: same grid, panic hook removed, resuming. The three
        // healthy cells restore; only cell 1 computes fresh.
        let scenarios = grid(&m, p);
        let config = SupervisorConfig {
            resume: Some(path.clone()),
            retry: false,
            ..SupervisorConfig::default()
        };
        let second = run_sweep_supervised(&scenarios, &config).unwrap();
        assert_eq!(second.report.class(), RunClass::AllOk);
        let resumed = second
            .results
            .iter()
            .filter(|r| matches!(r, CellResult::Resumed(_)))
            .count();
        let fresh = second
            .results
            .iter()
            .filter(|r| matches!(r, CellResult::Fresh(_)))
            .count();
        assert_eq!((resumed, fresh), (3, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hash_mismatch_forces_recompute() {
        let m = module();
        let p = params();
        let path = tmp("stale");
        let _ = std::fs::remove_file(&path);

        let scenarios = grid(&m, p);
        let config =
            SupervisorConfig { checkpoint: Some(path.clone()), ..SupervisorConfig::default() };
        run_sweep_supervised(&scenarios, &config).unwrap();

        // Change one cell's workload: its hash moves, so resume must
        // recompute it while the others restore.
        let mut scenarios = grid(&m, p);
        scenarios[3].workload.rate_pps *= 2.0;
        let config = SupervisorConfig { resume: Some(path.clone()), ..SupervisorConfig::default() };
        let again = run_sweep_supervised(&scenarios, &config).unwrap();
        assert!(matches!(again.results[3], CellResult::Fresh(_)));
        assert!(matches!(again.results[0], CellResult::Resumed(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_run_classifies_all_ok() {
        let report = RunReport::default();
        assert_eq!(report.class(), RunClass::AllOk);
    }

    #[test]
    fn record_folds_external_failures_into_class() {
        let mut report = RunReport::default();
        report.record("sim", CellOutcome::Ok { quality: "optimal".into(), retried: false });
        assert_eq!(report.class(), RunClass::AllOk);
        report.record(
            "sim-adversarial",
            CellOutcome::Failed { error: "watchdog".into(), retried: false },
        );
        assert_eq!(report.class(), RunClass::Partial);
    }
}
