//! Acceptance scenario for supervised execution (the PR's tentpole): a
//! sweep containing a panicking cell, a deadline-exceeding cell, and a
//! watchdog-tripping simulation completes end to end; healthy cells are
//! bit-identical to an unsupervised run; the three failure kinds stay
//! distinct in the run report; and the run is resumable from its
//! checkpoint with only the failed cells re-run.

use clara_core::sim::{
    simulate_streamed, FaultPlan, MicroOp, NicProgram, SimConfig, SimError, SimResult,
    SimScratch, Stage, StageUnit, Watchdog,
};
use clara_core::{
    nfs, run_sweep, run_sweep_supervised, CellOutcome, CellResult, Clara, Lnic, PredictOptions,
    RunClass, SupervisorConfig, SweepScenario, Trace, TraceGenerator, WorkloadProfile,
};
use std::path::PathBuf;
use std::sync::OnceLock;

/// `trace` under `faults` and `wd` on the default configuration: the
/// result and its per-packet latencies.
fn supervised(
    nic: &Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
    wd: &Watchdog,
) -> Result<(SimResult, Vec<u64>), SimError> {
    let mut scratch = SimScratch::new();
    let packets = trace.iter().cloned();
    let r = simulate_streamed(nic, prog, packets, faults, wd, &SimConfig::default(), &mut scratch)?;
    Ok((r, scratch.latencies().to_vec()))
}

fn clara() -> &'static Clara {
    static C: OnceLock<Clara> = OnceLock::new();
    C.get_or_init(|| Clara::new(&clara_core::profiles::netronome_agilio_cx40()))
}

/// A 6-cell grid over the NAT NF with two poisoned cells: cell 1 panics
/// (test hook), cell 3 carries an already-expired solve deadline.
fn grid(module: &clara_core::CirModule) -> Vec<SweepScenario<'_>> {
    let rates = [20_000.0, 60_000.0, 100_000.0, 200_000.0, 400_000.0, 600_000.0];
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut options = PredictOptions::default();
            if i == 1 {
                options.inject_panic = true;
            }
            if i == 3 {
                options.deadline_ms = Some(0);
            }
            SweepScenario {
                label: format!("rate={rate}"),
                module,
                params: clara().params(),
                workload: WorkloadProfile { rate_pps: rate, ..WorkloadProfile::paper_default() },
                options,
            }
        })
        .collect()
}

fn healthy_grid(module: &clara_core::CirModule) -> Vec<SweepScenario<'_>> {
    let mut g = grid(module);
    for sc in &mut g {
        sc.options.inject_panic = false;
        sc.options.deadline_ms = None;
    }
    g
}

/// An adversarial NIC program: one StreamPayload whose per-byte loop
/// overhead makes a single packet cost ~u64::MAX cycles.
fn adversarial_program() -> NicProgram {
    NicProgram {
        name: "adversarial".into(),
        tables: vec![],
        stages: vec![Stage {
            name: "spin".into(),
            unit: StageUnit::Npu,
            ops: vec![MicroOp::StreamPayload { table: None, loop_overhead: u64::MAX / 4 }],
        }],
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clara-acceptance-{name}-{}.json", std::process::id()))
}

/// The headline scenario: one sweep, three distinct failure kinds, zero
/// collateral damage, resumable.
#[test]
fn supervised_sweep_survives_panic_deadline_and_watchdog_and_resumes() {
    let module = clara().analyze(&nfs::nat::source()).unwrap().module;
    let path = tmp("headline");
    let _ = std::fs::remove_file(&path);

    // Reference: the same grid, unpoisoned, through the plain sweep.
    let baseline = run_sweep(&healthy_grid(&module), 1);

    let scenarios = grid(&module);
    let config = SupervisorConfig {
        checkpoint: Some(path.clone()),
        retry: false,
        ..SupervisorConfig::default()
    };
    let sweep = run_sweep_supervised(&scenarios, &config).unwrap();
    let mut report = sweep.report.clone();

    // Failure kind #3 rides along as an out-of-sweep stage: an
    // adversarial simulation whose watchdog failure is recorded into the
    // same report.
    let nic = clara_core::profiles::netronome_agilio_cx40();
    let trace = TraceGenerator::new(1).packets(5).generate();
    match supervised(&nic, &adversarial_program(), &trace, &FaultPlan::none(), &Watchdog::new()) {
        Err(e @ SimError::Watchdog { .. }) => {
            report.record("sim=adversarial", CellOutcome::Failed {
                error: e.to_string(),
                retried: false,
            });
        }
        other => panic!("expected a watchdog trip, got {other:?}"),
    }

    // The three failures are present and distinct.
    assert!(
        matches!(&report.cells[1].outcome, CellOutcome::Panicked { payload, .. }
            if payload.contains("injected panic")),
        "{}",
        report.cells[1].outcome
    );
    assert!(
        matches!(report.cells[3].outcome, CellOutcome::TimedOut { .. }),
        "{}",
        report.cells[3].outcome
    );
    assert!(
        matches!(&report.cells[6].outcome, CellOutcome::Failed { error, .. }
            if error.contains("watchdog")),
        "{}",
        report.cells[6].outcome
    );
    assert_eq!(report.class(), RunClass::Partial);
    assert_eq!(report.ok_count(), 4);
    assert_eq!(report.failed_count(), 3);

    // Healthy cells are bit-identical to the unsupervised run.
    for i in [0usize, 2, 4, 5] {
        let expected = baseline[i].as_ref().unwrap();
        let CellResult::Fresh(got) = &sweep.results[i] else {
            panic!("cell {i} should be Fresh, got {:?}", sweep.results[i]);
        };
        assert_eq!(
            expected.avg_latency_cycles.to_bits(),
            got.avg_latency_cycles.to_bits(),
            "cell {i}: supervision changed a healthy result"
        );
        assert_eq!(expected.throughput_pps.to_bits(), got.throughput_pps.to_bits());
    }

    // Resume with the poison removed: only the two failed sweep cells
    // recompute; the four healthy ones restore from the checkpoint.
    let scenarios = healthy_grid(&module);
    let config = SupervisorConfig { resume: Some(path.clone()), ..SupervisorConfig::default() };
    let resumed = run_sweep_supervised(&scenarios, &config).unwrap();
    assert_eq!(resumed.report.class(), RunClass::AllOk);
    let (mut n_resumed, mut n_fresh) = (0, 0);
    for (i, r) in resumed.results.iter().enumerate() {
        match r {
            CellResult::Resumed(_) => n_resumed += 1,
            CellResult::Fresh(p) => {
                n_fresh += 1;
                // Recomputed cells match the healthy baseline too.
                let expected = baseline[i].as_ref().unwrap();
                assert_eq!(
                    expected.avg_latency_cycles.to_bits(),
                    p.avg_latency_cycles.to_bits()
                );
            }
            other => panic!("cell {i}: unexpected {other:?}"),
        }
    }
    assert_eq!((n_resumed, n_fresh), (4, 2));
    let _ = std::fs::remove_file(&path);
}

/// Supervision composes with PR 1's fault injection: a faulted,
/// watchdog-capped simulation still degrades gracefully, and the caps
/// don't disturb a legitimately faulted run.
#[test]
fn watchdog_composes_with_fault_plans() {
    let nic = clara_core::profiles::netronome_agilio_cx40();
    let prog = NicProgram {
        name: "stream".into(),
        tables: vec![],
        stages: vec![Stage {
            name: "scan".into(),
            unit: StageUnit::Npu,
            ops: vec![MicroOp::ParseHeader, MicroOp::StreamPayload { table: None, loop_overhead: 2 }],
        }],
    };
    let trace = TraceGenerator::new(5).packets(200).generate();
    let faults = FaultPlan { corrupt_every: 10, dead_threads: 8, ..FaultPlan::none() };

    let uncapped = Watchdog {
        max_cycles_per_packet: Some(u64::MAX),
        max_total_cycles: Some(u64::MAX),
        ..Watchdog::new()
    };
    let (plain, plain_latencies) = supervised(&nic, &prog, &trace, &faults, &uncapped).unwrap();
    let (capped, capped_latencies) =
        supervised(&nic, &prog, &trace, &faults, &Watchdog::new()).unwrap();
    assert_eq!(plain_latencies, capped_latencies);
    assert_eq!(plain.corrupt_drops, capped.corrupt_drops);

    // The adversarial program trips the watchdog even while faults are
    // dropping part of the trace.
    let err = supervised(&nic, &adversarial_program(), &trace, &faults, &Watchdog::new())
        .unwrap_err();
    assert!(matches!(err, SimError::Watchdog { .. }), "{err}");
}

/// A run-wide `--deadline`-style budget with retry enabled: the
/// timed-out cell is retried (and times out again under the same
/// config), everything else completes.
#[test]
fn run_wide_deadline_and_retry_interact_sanely() {
    let module = clara().analyze(&nfs::nat::source()).unwrap().module;
    let mut scenarios = healthy_grid(&module);
    scenarios.truncate(3);
    scenarios[1].options.deadline_ms = Some(0);
    let sup = run_sweep_supervised(&scenarios, &SupervisorConfig::default()).unwrap();
    assert!(matches!(sup.report.cells[1].outcome, CellOutcome::TimedOut { retried: true }));
    assert!(sup.report.cells[0].outcome.is_ok());
    assert!(sup.report.cells[2].outcome.is_ok());
    assert_eq!(sup.report.class(), RunClass::Partial);
}

/// A truncated checkpoint salvages its complete cells: resuming from a
/// half-written file restores some cells and recomputes the rest, never
/// erroring.
#[test]
fn truncated_checkpoint_resumes_partially() {
    let module = clara().analyze(&nfs::nat::source()).unwrap().module;
    let path = tmp("truncated");
    let _ = std::fs::remove_file(&path);

    let scenarios = healthy_grid(&module);
    let config =
        SupervisorConfig { checkpoint: Some(path.clone()), ..SupervisorConfig::default() };
    run_sweep_supervised(&scenarios, &config).unwrap();

    // Clip the file to half: a crash mid-write.
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    let config = SupervisorConfig { resume: Some(path.clone()), ..SupervisorConfig::default() };
    let resumed = run_sweep_supervised(&scenarios, &config).unwrap();
    assert_eq!(resumed.report.class(), RunClass::AllOk);
    let n_resumed = resumed
        .results
        .iter()
        .filter(|r| matches!(r, CellResult::Resumed(_)))
        .count();
    assert!(
        n_resumed >= 1 && n_resumed < scenarios.len(),
        "expected partial salvage, got {n_resumed}/{}",
        scenarios.len()
    );
    let _ = std::fs::remove_file(&path);
}
