//! `predict-cold`: single-threaded one-shot predictions.
//!
//! One operation is what `Clara::predict` does once parameters are
//! loaded: validate the workload, `analyze_source`, then
//! `predict_with_options`. Nothing is kept between operations. Each
//! operation draws its NF (small NFs two thirds of the draw, so the
//! median sits inside the small-NF mode), the NF's size arguments, and a
//! workload profile from the run seed.

use crate::common::{lerp, log_lerp, mean, median, pct_of, us, Digest, Metric, Report, Rng};
use crate::layers::{self, IlpTally, Sizes};
use crate::spans::{SpanSet, Tracer};
use crate::{Ctx, SetUps};
use clara_core::{Clara, PredictOptions, Prediction, WorkloadProfile};
use clara_map::RunDeadline;
use clara_microbench::NicParameters;
use clara_nfs as nfs;
use clara_predict::{cache::hit_model, enumerate_classes, predictor::state_specs, NfSession};
use std::sync::Arc;
use std::time::Instant;

/// One drawn operation: an NF source and the workload it is predicted
/// under.
pub struct ColdOp {
    pub nf: &'static str,
    pub source: String,
    pub workload: WorkloadProfile,
}

/// The NFs drawn from, in equal numbers: four small NFs (two thirds of
/// the operations, so the median sits inside the small-NF mode) and the
/// two scanning NFs.
pub const KINDS: &[&str] = &["nat", "firewall", "lpm", "hh", "dpi", "vnf"];

/// Input dimensions of one operation (see [`make`]).
const DIMS: usize = 8;

/// Build operation inputs for `nf` from coordinates `u(0..DIMS)` in [0, 1):
/// the size argument(s) of the NF's `source` function, payload 64-1500 B,
/// flows log-uniform in 100-1M, TCP and SYN shares, rate and Zipf skew.
fn make(nf: &'static str, u: impl Fn(usize) -> f64) -> ColdOp {
    let size = |k: usize, lo: f64, hi: f64| log_lerp(u(k), lo, hi).round() as u64;
    let source = match nf {
        "nat" => nfs::nat::source(),
        "firewall" => nfs::firewall::source(size(0, 4_096.0, 262_144.0)),
        "lpm" => nfs::lpm::source(size(0, 1_000.0, 100_000.0)),
        "hh" => nfs::heavy_hitter::source(size(0, 1_024.0, 65_536.0)),
        "dpi" => nfs::dpi::source(size(0, 4_096.0, 262_144.0)),
        _ => nfs::vnf::source(size(0, 65_536.0, 2_097_152.0), size(1, 1_024.0, 16_384.0)),
    };
    let payload = lerp(u(2), 64.0, 1500.0).round();
    let workload = WorkloadProfile {
        flows: log_lerp(u(3), 100.0, 1_000_000.0).round() as usize,
        tcp_share: lerp(u(4), 0.5, 1.0),
        syn_share: lerp(u(5), 0.0, 0.2),
        avg_payload: payload,
        max_payload: payload as usize,
        rate_pps: log_lerp(u(6), 10_000.0, 1_000_000.0),
        zipf_alpha: lerp(u(7), 0.0, 1.2),
    };
    ColdOp {
        nf,
        source,
        workload,
    }
}

/// Draw `n` operations from the seed: equal numbers of each NF, and for
/// each NF a centred Latin hypercube over the input dimensions (every
/// dimension cut into as many equal strata as the NF has operations, one
/// value at the centre of each stratum, strata paired at random by the
/// seed). Every seed thus takes the same values of each input and differs
/// in how they combine, which keeps percentiles comparable from seed to
/// seed: with a random value inside each stratum, the operation at the
/// median moved its flow count (and so its cache-model cost) by up to a
/// third between seeds.
pub fn draw(seed: u64, n: usize) -> Vec<ColdOp> {
    let m = n.div_ceil(KINDS.len());
    let per_kind: Vec<Vec<ColdOp>> = KINDS
        .iter()
        .enumerate()
        .map(|(k, &nf)| {
            let mut r = Rng::new(seed, 1_000 + k as u64);
            let cols: Vec<Vec<f64>> = (0..DIMS)
                .map(|_| {
                    let mut strata: Vec<usize> = (0..m).collect();
                    for i in (1..m).rev() {
                        strata.swap(i, r.below(i + 1));
                    }
                    strata
                        .iter()
                        .map(|&s| (s as f64 + 0.5) / m as f64)
                        .collect()
                })
                .collect();
            (0..m).map(|j| make(nf, |d| cols[d][j])).collect()
        })
        .collect();
    // Interleave the NFs so every stretch of the run sees the whole mix.
    let mut ops: Vec<ColdOp> = Vec::with_capacity(m * KINDS.len());
    let mut iters: Vec<_> = per_kind.into_iter().map(Vec::into_iter).collect();
    for _ in 0..m {
        for it in iters.iter_mut() {
            ops.extend(it.next());
        }
    }
    ops.truncate(n);
    ops
}

/// The four outputs a prediction is checked on.
#[derive(Debug, Clone, Copy)]
pub struct Out(pub [f64; 4]);

impl Out {
    pub fn of(p: &Prediction) -> Self {
        Out([
            p.avg_latency_cycles,
            p.avg_latency_ns,
            p.throughput_pps,
            p.energy_nj_per_packet,
        ])
    }

    pub fn same_bits(&self, other: &Out) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn sane(&self) -> bool {
        self.0.iter().all(|v| v.is_finite() && *v > 0.0)
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let mut setups = SetUps::new(ctx);
    let build = |p: Arc<NicParameters>| Clara::with_params((*p).clone());
    let (mut clara, mut params) = setups.run(ctx, build);

    // Timed phase: passes over one set of drawn operations until
    // `--seconds` is spent, at least two so that every operation is rerun.
    // The set does not depend on `--seconds`, so one seed always runs the
    // same operations. An operation's latency is the least of its times:
    // the host can only add to a time (CPU steal, a busy neighbour on a
    // shared machine), never take away, and the passes spread each
    // operation's runs over the whole phase (and the run's later set-up
    // rounds, see `SetUps`, fall between passes), so its least time is
    // the one the host disturbed least.
    const OPS: usize = 180;
    let n = if ctx.smoke { 8 } else { OPS };
    let budget = if ctx.smoke { 0.0 } else { ctx.seconds };
    let mut lat: Vec<f64> = Vec::new();
    let mut outs: Vec<Result<Out, String>> = Vec::new();
    let mut reruns_differ = 0usize;
    let mut pass_walls: Vec<f64> = Vec::new();
    let ops = draw(ctx.seed, n);
    loop {
        // A pass starts only while it is expected to end within the budget.
        let measured: f64 = pass_walls.iter().sum();
        if pass_walls.len() >= 2 && measured + median(&pass_walls) > budget {
            break;
        }
        if setups.due(measured / budget) {
            (clara, params) = setups.run(ctx, build);
        }
        let first_pass = pass_walls.is_empty();
        let t_pass = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let t0 = Instant::now();
            let out = clara.predict(&op.source, &op.workload).map(|p| Out::of(&p));
            let dt = us(t0.elapsed());
            let out = out.map_err(|e| format!("{} op: {e}", op.nf));
            if first_pass {
                lat.push(dt);
                outs.push(out);
            } else {
                lat[i] = lat[i].min(dt);
                let same = match (&outs[i], &out) {
                    (Ok(a), Ok(b)) => a.same_bits(b),
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                if !same {
                    reruns_differ += 1;
                }
            }
        }
        pass_walls.push(t_pass.elapsed().as_secs_f64());
    }
    let passes = pass_walls.len();
    setups.report(&mut r);
    let untraced_wall = pass_walls[0];
    r.notes.push(format!(
        "{n} operations x {passes} passes: {}",
        pass_walls
            .iter()
            .map(|w| format!("{w:.2} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    r.attempted = (n * passes) as u64;
    if reruns_differ > 0 {
        r.fail(format!(
            "{reruns_differ} reruns differ from the first run of their operation"
        ));
    }

    let rate = n as f64 / (lat.iter().sum::<f64>() / 1e6);
    let (p50, p90, p99) = (pct_of(&lat, 0.5), pct_of(&lat, 0.9), pct_of(&lat, 0.99));
    r.e2e(Metric::new("ops_per_s", rate, "1/s").n(n));
    r.e2e(Metric::new("op_p50_us", p50, "us").n(n));
    r.e2e(Metric::new("op_p90_us", p90, "us").n(n));
    r.named(Metric::new("predict_cold_p50_us", p50, "us").n(n));
    r.named(Metric::new("predict_cold_p90_us", p90, "us").n(n));
    r.named(Metric::new("predict_cold_p99_us", p99, "us").n(n));
    r.named(Metric::new("predict_cold_ops_per_s", rate, "1/s").n(n));
    for &nf in KINDS {
        let mine: Vec<f64> = lat
            .iter()
            .zip(&ops)
            .filter(|(_, op)| op.nf == nf)
            .map(|(l, _)| *l)
            .collect();
        r.notes.push(format!(
            "{nf}: {} ops, p50 {:.0} us, p99 {:.0} us",
            mine.len(),
            pct_of(&mine, 0.5),
            pct_of(&mine, 0.99)
        ));
    }

    if ctx.corrupt {
        if let Some(Ok(o)) = outs.first_mut() {
            o.0[0] = f64::from_bits(o.0[0].to_bits() ^ 1);
        }
    }
    let mut d = Digest::default();
    for o in &outs {
        match o {
            Ok(o) => o.0.iter().for_each(|v| d.f64(*v)),
            Err(_) => d.u64(u64::MAX),
        }
    }
    r.digest = d;

    // Every output must be a sane prediction.
    for (i, o) in outs.iter().enumerate() {
        match o {
            Ok(o) if o.sane() => {}
            Ok(o) => r.fail(format!("op {i}: non-finite or non-positive output {o:?}")),
            Err(e) => r.fail(format!("op {i}: {e}")),
        }
    }

    if ctx.trace {
        traced(ctx, &ops, &params, &outs, untraced_wall, &mut r);
    } else {
        // The first eight operations and a seeded eighth of the rest
        // re-predicted through a prediction session (the serving path),
        // which must agree bit for bit with the one-shot path.
        let mut pick = Rng::new(ctx.seed, u64::MAX);
        for (i, want) in outs.iter().enumerate() {
            let Ok(want) = want else { continue };
            if i >= 8 && pick.unit() >= 1.0 / 8.0 {
                continue;
            }
            let op = &ops[i];
            let got = NfSession::from_source(&op.source, Arc::clone(&params))
                .map_err(|e| format!("{e:?}"))
                .and_then(|s| {
                    s.predict(
                        &op.workload,
                        &PredictOptions::default(),
                        &RunDeadline::none(),
                    )
                    .map_err(|e| e.to_string())
                });
            match got {
                Ok(p) if Out::of(&p).same_bits(want) => {}
                Ok(p) => r.fail(format!(
                    "op {i} ({}): session path {:?} != one-shot {:?}",
                    op.nf,
                    Out::of(&p),
                    want
                )),
                Err(e) => r.fail(format!("op {i} ({}): session path failed: {e}", op.nf)),
            }
        }
    }
    r
}

/// Replay every operation with a span around each layer call, check the
/// outputs match the untraced run, then run attribution probes (class
/// enumeration, cache model, warm solve) on a prefix of the operations.
fn traced(
    ctx: &Ctx,
    ops: &[ColdOp],
    params: &Arc<NicParameters>,
    outs: &[Result<Out, String>],
    untraced_wall: f64,
    r: &mut Report,
) {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let mut sizes = Sizes::default();
    let mut ilp = IlpTally::default();
    let phase = Instant::now();
    for (i, want) in outs.iter().enumerate() {
        let op = &ops[i];
        let id = i as u64;
        t.begin("op", id);
        let got = (|| {
            op.workload.validate().map_err(|e| e.to_string())?;
            let (module, size) = layers::frontend(&mut t, id, &op.source)?;
            let p = t
                .span("predict", id, || {
                    clara_predict::predict_with_options(
                        &module,
                        params,
                        &op.workload,
                        PredictOptions::default(),
                    )
                })
                .map_err(|e| e.to_string())?;
            sizes.add(size);
            ilp.add(&p.mapping.stats);
            Ok::<Out, String>(Out::of(&p))
        })();
        t.end();
        match (want, got) {
            (Ok(w), Ok(g)) if w.same_bits(&g) => {}
            (Err(_), Err(_)) => {}
            (w, g) => r.fail(format!("op {i}: traced {g:?} != untraced {w:?}")),
        }
    }
    let traced_wall = phase.elapsed().as_secs_f64();

    // Probes: decompose `predict` into class enumeration, the cache
    // model, and the warm solve (a second session prediction on the same
    // class hits the prepare cache and runs only the ILP, queueing and
    // pricing).
    let probe_budget = if ctx.smoke { 0.2 } else { ctx.seconds / 2.0 };
    let probes = Instant::now();
    let mut probed = 0usize;
    for (i, want) in outs.iter().enumerate() {
        if probes.elapsed().as_secs_f64() > probe_budget && probed > 0 {
            break;
        }
        let Ok(want) = want else { continue };
        let op = &ops[i];
        let id = i as u64;
        let Ok(module) = clara_lang::frontend(&op.source)
            .map_err(|e| e.to_string())
            .and_then(|ast| clara_cir::lower(&ast).map_err(|e| e.to_string()))
        else {
            continue;
        };
        t.begin("probe", id);
        t.span("predict.classes", id, || {
            enumerate_classes(&module, &op.workload)
        });
        let states = state_specs(&module);
        t.span("predict.cache_model", id, || {
            hit_model(&states, params, &op.workload)
        });
        let session = NfSession::from_module(module, Arc::clone(params));
        let opts = PredictOptions::default();
        let first = session.predict(&op.workload, &opts, &RunDeadline::none());
        let warm = t.span("predict.solve", id, || {
            session.predict(&op.workload, &opts, &RunDeadline::none())
        });
        t.end();
        for p in [first, warm] {
            match p {
                Ok(p) if Out::of(&p).same_bits(want) => {}
                other => r.fail(format!(
                    "op {i}: session probe {:?} != one-shot {want:?}",
                    other.map(|p| Out::of(&p))
                )),
            }
        }
        probed += 1;
    }

    let n = outs.len() as f64;
    let spans = SpanSet::from_tracers(vec![t]);
    let per_probe = |name: &str| spans.self_us(name) / probed.max(1) as f64;
    sizes.report(r, &spans, n);
    r.layer("predict.predict_us", spans.self_us("predict") / n);
    r.layer("predict.classes_us", per_probe("predict.classes"));
    r.layer("predict.cache_model_us", per_probe("predict.cache_model"));
    r.layer("predict.solve_us", per_probe("predict.solve"));
    ilp.report(r);
    let layered: f64 = [
        "lang.parse",
        "lang.check",
        "cir.lower",
        "dataflow.extract",
        "predict",
    ]
    .iter()
    .map(|l| spans.self_us(l))
    .sum();
    r.layer("unattributed_frac", 1.0 - layered / (traced_wall * 1e6));
    r.layer("trace_overhead_frac", traced_wall / untraced_wall - 1.0);
    r.notes.push(format!(
        "traced replay: {} ops, {probed} probed; mean op {:.1} us",
        outs.len(),
        mean(&spans.durations_us("op"))
    ));
    crate::write_trace(ctx, &spans);
}
