//! `validate-lookup` and `validate-scan`: `run_validation_sweep` with the
//! `clara validate` defaults (the 64-cell `validation_grid(4)`, 4,000
//! packets per cell, nproc threads), over the lookup NFs (nat, firewall,
//! lpm, hh) or the scanning NFs (dpi, vnf).
//!
//! The run repeats rounds (every NF of the mix validated once) while the
//! next round is expected to end within the time; one operation is one
//! NF's 64-cell sweep.

use crate::common::{mean, nproc, pct_of, Digest, Metric, Report, Rng};
use crate::layers::{self, IlpTally, Sizes};
use crate::spans::{SpanSet, Tracer};
use crate::{Ctx, SetUps};
use clara_cir::CirModule;
use clara_core::{
    analyze_source, run_validation_sweep, validation_grid, PredictOptions, SimStats, SolveStats,
    ValidationConfig, ValidationResult, WorkloadProfile,
};
use clara_map::RunDeadline;
use clara_microbench::NicParameters;
use clara_nicsim::{
    simulate_streamed, simulate_streamed_instrumented, CostCache, FaultPlan, NicProgram, SimConfig,
    SimInstruments, SimScratch, Watchdog,
};
use clara_predict::{cache::hit_model, enumerate_classes, predictor::state_specs, NfSession};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A validate workload: which corpus NFs, and how many cells per run
/// are re-simulated under the exact oracle.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub nfs: &'static [&'static str],
    pub exact_sample: usize,
}

pub const LOOKUP: Mix = Mix {
    nfs: &["nat", "firewall", "lpm", "hh"],
    exact_sample: 8,
};
pub const SCAN: Mix = Mix {
    nfs: &["dpi", "vnf"],
    exact_sample: 2,
};

struct Nf {
    name: &'static str,
    source: String,
    module: CirModule,
    program: NicProgram,
}

/// What one cell of the untraced sweep produced.
#[derive(Debug, Clone)]
struct CellOut {
    predicted: f64,
    actual: f64,
    solve: SolveStats,
}

/// One cell of the traced replay.
struct Replayed {
    k: usize,
    i: usize,
    predicted: f64,
    actual: f64,
}

/// Simulated steady-state latency, exactly as the sweep computes it
/// (mean of the tail half of the per-packet latencies).
fn tail_mean(latencies: &[u64]) -> f64 {
    let tail = &latencies[latencies.len() / 2..];
    tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64
}

pub fn run(ctx: &Ctx, mix: Mix) -> Report {
    let threads = nproc();
    let mut r = Report {
        threads,
        ..Report::default()
    };
    let mut setups = SetUps::new(ctx);
    let build = |_: Arc<NicParameters>| {
        mix.nfs
            .iter()
            .map(|&name| {
                let (source, program) = clara_nfs::by_name(name).expect("corpus NF");
                let module = analyze_source(&source).expect("corpus NF analyzes").module;
                Nf {
                    name,
                    source,
                    module,
                    program,
                }
            })
            .collect::<Vec<_>>()
    };
    let (mut nfs, mut params) = setups.run(ctx, build);

    let grid = validation_grid(if ctx.smoke { 2 } else { 4 });
    let config = ValidationConfig {
        threads: 0,
        packets: if ctx.smoke { 400 } else { 4_000 },
        seed: ctx.seed,
        ..ValidationConfig::default()
    };

    // Timed phase: whole rounds until the time is up.
    let budget = if ctx.smoke { 0.0 } else { ctx.seconds };
    let mut rounds_us = Vec::new();
    // Each NF's sweep times, one per round.
    let mut sweep_us: Vec<Vec<f64>> = vec![Vec::new(); nfs.len()];
    let mut first: Vec<Vec<CellOut>> = Vec::new();
    let mut mismatched_rounds = 0;
    loop {
        // A round starts only while it is expected to end within the budget.
        let measured = rounds_us.iter().sum::<f64>() / 1e6;
        if !rounds_us.is_empty() && measured + pct_of(&rounds_us, 0.5) / 1e6 > budget {
            break;
        }
        if setups.due(measured / budget) {
            (nfs, params) = setups.run(ctx, build);
        }
        let t0 = Instant::now();
        let sweeps: Vec<_> = nfs
            .iter()
            .enumerate()
            .map(|(k, nf)| {
                let t = Instant::now();
                let sweep = run_validation_sweep(
                    &nf.module,
                    &params,
                    &ctx.nic,
                    &nf.program,
                    &grid,
                    &config,
                );
                sweep_us[k].push(t.elapsed().as_secs_f64() * 1e6);
                sweep
            })
            .collect();
        rounds_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let round: Vec<Vec<Option<CellOut>>> = sweeps
            .iter()
            .map(|s| {
                s.cells
                    .iter()
                    .map(|c| match c {
                        ValidationResult::Ok(c) => Some(CellOut {
                            predicted: c.predicted_cycles,
                            actual: c.actual_cycles,
                            solve: c.solve.clone(),
                        }),
                        ValidationResult::Failed(_) => None,
                    })
                    .collect()
            })
            .collect();
        if first.is_empty() {
            for (nf, (sweep, cells)) in nfs.iter().zip(sweeps.iter().zip(round)) {
                let mut kept = Vec::new();
                for (i, (cell, out)) in sweep.cells.iter().zip(cells).enumerate() {
                    match (cell, out) {
                        (_, Some(out)) => kept.push(out),
                        (ValidationResult::Failed(e), None) => {
                            r.fail(format!("{} cell {i}: {e}", nf.name));
                            kept.push(CellOut {
                                predicted: f64::NAN,
                                actual: f64::NAN,
                                solve: SolveStats::default(),
                            });
                        }
                        (ValidationResult::Ok(_), None) => unreachable!("mapped above"),
                    }
                }
                first.push(kept);
            }
        } else {
            // Every round of a seed must reproduce the first bit for bit.
            let same = first.iter().zip(&round).all(|(a, b)| {
                a.iter().zip(b).all(|(a, b)| {
                    b.as_ref().is_some_and(|b| {
                        a.predicted.to_bits() == b.predicted.to_bits()
                            && a.actual.to_bits() == b.actual.to_bits()
                    })
                })
            });
            if !same {
                mismatched_rounds += 1;
            }
        }
    }
    setups.report(&mut r);
    let cells_per_round = nfs.len() * grid.len();
    let cells = rounds_us.len() * cells_per_round;
    r.attempted = cells as u64;
    if mismatched_rounds > 0 {
        r.fail(format!(
            "{mismatched_rounds} later rounds differ from the first"
        ));
    }

    // One operation is one NF's 64-cell sweep (one `clara validate`
    // call), and its time is the least over the rounds: every round
    // repeats the same sweeps, and the host can only add to a time, never
    // take away. The rate is a round's cells over the sum of those least
    // times; the percentiles are over the mix's NFs, whose spread is the
    // program's.
    let nr = rounds_us.len();
    let best_us: Vec<f64> = sweep_us
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let rate = cells_per_round as f64 / (best_us.iter().sum::<f64>() / 1e6);
    let (p50, p90) = (pct_of(&best_us, 0.5), pct_of(&best_us, 0.9));
    let ns = best_us.len();
    r.e2e(Metric::new("ops_per_s", rate, "1/s").n(cells));
    r.e2e(Metric::new("op_p50_us", p50, "us").n(ns));
    r.e2e(Metric::new("op_p90_us", p90, "us").n(ns));
    r.named(Metric::new("validate_cells_per_s", rate, "cells/s").n(cells));
    r.named(Metric::new("validate_sweep_p50_us", p50, "us").n(ns));
    r.named(Metric::new("validate_sweep_p90_us", p90, "us").n(ns));
    let errors: Vec<f64> = first
        .iter()
        .flatten()
        .map(|c| (c.predicted - c.actual).abs() / c.actual.max(1.0))
        .collect();
    r.named(Metric::new("rel_error_mean", mean(&errors), "ratio").n(errors.len()));
    r.named(Metric::new("rel_error_p90", pct_of(&errors, 0.9), "ratio").n(errors.len()));
    for ((nf, t), best) in nfs.iter().zip(&sweep_us).zip(&best_us) {
        r.notes.push(format!(
            "{}: sweep least {:.1} ms, median {:.1} ms",
            nf.name,
            best / 1e3,
            pct_of(t, 0.5) / 1e3
        ));
    }
    r.notes.push(format!(
        "{} rounds of {} x {}-cell sweeps ({} packets per cell, {threads} threads)",
        nr,
        nfs.len(),
        grid.len(),
        config.packets
    ));

    if ctx.corrupt {
        let c = &mut first[0][0];
        c.predicted = f64::from_bits(c.predicted.to_bits() ^ 1);
    }
    let mut d = Digest::default();
    for c in first.iter().flatten() {
        d.f64(c.predicted);
        d.f64(c.actual);
    }
    r.digest = d;

    // Each cell's prediction equals a one-shot prediction.
    for (nf, cells) in nfs.iter().zip(&first) {
        for (i, (wl, c)) in grid.iter().zip(cells).enumerate() {
            match clara_predict::predict_with_options(
                &nf.module,
                &params,
                wl,
                PredictOptions::default(),
            ) {
                Ok(p) if p.avg_latency_cycles.to_bits() == c.predicted.to_bits() => {}
                Ok(p) => r.fail(format!(
                    "{} cell {i}: sweep predicted {:?}, one-shot {:?}",
                    nf.name, c.predicted, p.avg_latency_cycles
                )),
                Err(e) => r.fail(format!("{} cell {i}: one-shot failed: {e}", nf.name)),
            }
        }
    }
    // A seeded sample of cells agrees with the exact simulator oracle.
    let mut pick = Rng::new(ctx.seed, u64::MAX);
    let sample = if ctx.smoke { 1 } else { mix.exact_sample };
    for _ in 0..sample {
        let (k, i) = (pick.below(nfs.len()), pick.below(grid.len()));
        let nf = &nfs[k];
        let mut scratch = SimScratch::new();
        let stream = grid[i].to_trace_stream(config.packets, config.seed);
        let exact = simulate_streamed(
            &ctx.nic,
            &nf.program,
            stream,
            &FaultPlan::none(),
            &Watchdog::new(),
            &SimConfig::exact(),
            &mut scratch,
        )
        .map(|_| tail_mean(scratch.latencies()));
        match exact {
            Ok(a) if a.to_bits() == first[k][i].actual.to_bits() => {}
            other => r.fail(format!(
                "{} cell {i}: sweep simulated {:?}, exact oracle {other:?}",
                nf.name, first[k][i].actual
            )),
        }
    }
    // Solver counters of the program's own solves (per cell).
    let mut ilp = IlpTally::default();
    first.iter().flatten().for_each(|c| ilp.add(&c.solve));
    ilp.report(&mut r);

    if ctx.trace {
        let round_us = pct_of(&rounds_us, 0.5);
        traced(ctx, &nfs, &params, &grid, &config, &first, round_us, &mut r);
    }
    r
}

/// Traced replay of one round: the benchmark's own fan-out over every
/// cell on nproc threads, with spans around the prediction, the trace
/// generation and the simulation of each cell; then attribution probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    nfs: &[Nf],
    params: &Arc<NicParameters>,
    grid: &[WorkloadProfile],
    config: &ValidationConfig,
    first: &[Vec<CellOut>],
    untraced_round_us: f64,
    r: &mut Report,
) {
    let epoch = Instant::now();
    let threads = nproc();
    let cells: Vec<(usize, usize)> = (0..nfs.len())
        .flat_map(|k| (0..grid.len()).map(move |i| (k, i)))
        .collect();
    let id = |k: usize, i: usize| (k * grid.len() + i) as u64;

    // Frontend layers, once per NF (the sweep takes analyzed modules).
    let mut main_t = Tracer::new(epoch, threads as u32);
    let mut sizes = Sizes::default();
    for (k, nf) in nfs.iter().enumerate() {
        let op = id(k, 0);
        main_t.begin("analyze", op);
        sizes.add(
            layers::frontend(&mut main_t, op, &nf.source)
                .expect("corpus NF analyzes")
                .1,
        );
        main_t.end();
    }

    // The fan-out: a claim counter over cells, one scratch per worker,
    // one shared cost cache per NF (as the sweep shares one per sweep).
    let caches: Vec<Arc<CostCache>> = nfs.iter().map(|_| Arc::new(CostCache::new())).collect();
    let next = AtomicUsize::new(0);
    let fan_start = Instant::now();
    let per_thread: Vec<(Tracer, Vec<Replayed>, SimStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (cells, caches, next) = (&cells, &caches, &next);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch, tid as u32);
                    let mut scratch = SimScratch::new();
                    let (mut mine, mut stats) = (Vec::new(), SimStats::default());
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(k, i)) = cells.get(c) else { break };
                        let (nf, wl, op) = (&nfs[k], &grid[i], id(k, i));
                        scratch.attach_cost_cache(Arc::clone(&caches[k]));
                        t.begin("cell", op);
                        let p = t.span("predict", op, || {
                            clara_predict::predict_with_options(
                                &nf.module,
                                params,
                                wl,
                                PredictOptions::default(),
                            )
                        });
                        let trace = t.span("workload.trace_gen", op, || {
                            wl.to_trace(config.packets, config.seed)
                        });
                        let mut instr = SimInstruments::new();
                        let sim = t.span("nicsim.simulate", op, || {
                            simulate_streamed_instrumented(
                                &ctx.nic,
                                &nf.program,
                                trace.packets().iter().cloned(),
                                &FaultPlan::none(),
                                &Watchdog::new(),
                                &config.sim,
                                &mut scratch,
                                &mut instr,
                            )
                        });
                        let actual = match sim {
                            Ok(_) => tail_mean(scratch.latencies()),
                            Err(_) => f64::NAN,
                        };
                        t.end();
                        let predicted = p.map(|p| p.avg_latency_cycles).unwrap_or(f64::NAN);
                        mine.push(Replayed {
                            k,
                            i,
                            predicted,
                            actual,
                        });
                        stats.merge(&instr.stats);
                    }
                    (t, mine, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker"))
            .collect()
    });
    let fan_wall_us = fan_start.elapsed().as_secs_f64() * 1e6;

    let mut tracers = Vec::new();
    let mut st = SimStats::default();
    for (t, replayed, stats) in per_thread {
        tracers.push(t);
        st.merge(&stats);
        for Replayed {
            k,
            i,
            predicted,
            actual,
        } in replayed
        {
            let want = &first[k][i];
            if predicted.to_bits() != want.predicted.to_bits()
                || actual.to_bits() != want.actual.to_bits()
            {
                r.fail(format!(
                    "{} cell {i}: traced ({predicted:?}, {actual:?}) != untraced ({:?}, {:?})",
                    nfs[k].name, want.predicted, want.actual
                ));
            }
        }
    }

    // Probes: class enumeration, cache model, and the warm solve (second
    // session prediction on the same class) for every cell.
    let sessions: Vec<NfSession> = nfs
        .iter()
        .map(|nf| NfSession::from_module(nf.module.clone(), Arc::clone(params)))
        .collect();
    let opts = PredictOptions::default();
    for &(k, i) in &cells {
        let (nf, wl, op) = (&nfs[k], &grid[i], id(k, i));
        main_t.begin("probe", op);
        main_t.span("predict.classes", op, || enumerate_classes(&nf.module, wl));
        let states = state_specs(&nf.module);
        main_t.span("predict.cache_model", op, || hit_model(&states, params, wl));
        let _ = sessions[k].predict(wl, &opts, &RunDeadline::none());
        let warm = main_t.span("predict.solve", op, || {
            sessions[k].predict(wl, &opts, &RunDeadline::none())
        });
        main_t.end();
        if !warm.is_ok_and(|p| p.avg_latency_cycles.to_bits() == first[k][i].predicted.to_bits()) {
            r.fail(format!(
                "{} cell {i}: session probe differs from the sweep",
                nf.name
            ));
        }
    }

    let mut all = tracers;
    all.push(main_t);
    let spans = SpanSet::from_tracers(all);
    let n = cells.len() as f64;
    let per_cell = |name: &str| spans.self_us(name) / n;
    sizes.report(r, &spans, n);
    r.layer("predict.predict_us", per_cell("predict"));
    r.layer("predict.classes_us", per_cell("predict.classes"));
    r.layer("predict.cache_model_us", per_cell("predict.cache_model"));
    r.layer("predict.solve_us", per_cell("predict.solve"));
    r.layer("workload.trace_gen_us", per_cell("workload.trace_gen"));
    let sim_us = spans.self_us("nicsim.simulate");
    r.layer("nicsim.simulate_us", sim_us / n);
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    r.layer(
        "nicsim.ns_per_packet",
        sim_us * 1e3 / st.injected.max(1) as f64,
    );
    r.layer(
        "nicsim.batch_share",
        share(st.batch_packets + st.batch_partial_packets, st.injected),
    );
    r.layer(
        "nicsim.memo_hit_rate",
        share(st.memo_hits, st.memo_hits + st.memo_misses),
    );
    r.layer(
        "nicsim.emem_cache_hit_rate",
        share(
            st.emem_cache_hits,
            st.emem_cache_hits + st.emem_cache_misses,
        ),
    );
    let layered: f64 = ["predict", "workload.trace_gen", "nicsim.simulate"]
        .iter()
        .map(|l| spans.self_us(l))
        .sum();
    r.layer(
        "unattributed_frac",
        1.0 - layered / (threads as f64 * fan_wall_us),
    );
    r.layer("trace_overhead_frac", fan_wall_us / untraced_round_us - 1.0);
    r.notes.push(format!(
        "traced replay: {} cells on {threads} threads in {:.1} ms (untraced round {:.1} ms)",
        cells.len(),
        fan_wall_us / 1e3,
        untraced_round_us / 1e3
    ));
    crate::write_trace(ctx, &spans);
}
