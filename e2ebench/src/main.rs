//! The repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!          [--smoke] [--corrupt] [--out DIR]
//! ```
//!
//! Workloads: `predict-cold`, `serve-open`, `validate-lookup`,
//! `validate-scan` (see `README.md` for what each runs and why).
//!
//! With `--trace 0` a run sets up three times (reporting the median as
//! `setup_s`), measures the workload for `--seconds`, checks every output,
//! and prints the end-to-end metrics. With `--trace 1` it sets up once,
//! runs the same untimed-check path, then replays the workload with a
//! span around every call into a layer and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the full result, with
//! provenance and the workload-specific metric names, is written to
//! `<out>/<workload>-s<seed>-t<trace>.json`.
//!
//! The exit code is 0 only when every output check passed.

mod common;
mod layers;
mod predict_cold;
mod serve_open;
mod spans;
mod validate;

use clara_core::serve::json::{ObjBuilder, Value};
use clara_lnic::Lnic;
use clara_microbench::{extract_parameters, NicParameters};
use common::{median, Metric, Provenance, Report};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The documented default seed, and the held-out seed the benchmark's
/// own tests also run (never used while tuning the benchmark).
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 20_261_016;

pub const WORKLOADS: &[&str] = &[
    "predict-cold",
    "serve-open",
    "validate-lookup",
    "validate-scan",
];

/// Run-wide settings every workload reads.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Same code path, smaller counts (the self-test mode).
    pub smoke: bool,
    /// Test hook: flip one bit of one recorded output before the checks.
    pub corrupt: bool,
    pub out_dir: PathBuf,
    pub nic: Lnic,
}

/// The workload's set-up (parameter extraction for the NIC, then the
/// workload's own `build`), run several times so that `setup_s` is a
/// median: three rounds in a measured run, one in a trace or smoke run.
/// The first round comes before the timed phase; the others come after a
/// third and two thirds of it (see [`SetUps::due`]), and the timed phase
/// goes on with the state the latest round built. The timed phase is thus
/// spread over the whole run, which gives its least-time estimates (see
/// `README.md`) more chances to catch the host undisturbed. Set-up time
/// is not counted in the timed phase.
#[derive(Debug)]
pub struct SetUps {
    total_s: Vec<f64>,
    extract_s: Vec<f64>,
    rounds: usize,
}

impl SetUps {
    pub fn new(ctx: &Ctx) -> Self {
        SetUps {
            total_s: Vec::new(),
            extract_s: Vec::new(),
            rounds: if ctx.trace || ctx.smoke { 1 } else { 3 },
        }
    }

    /// Run one set-up round and time it.
    pub fn run<S>(
        &mut self,
        ctx: &Ctx,
        build: impl FnOnce(Arc<NicParameters>) -> S,
    ) -> (S, Arc<NicParameters>) {
        let t0 = Instant::now();
        let params = Arc::new(extract_parameters(&ctx.nic));
        self.extract_s.push(t0.elapsed().as_secs_f64());
        let state = build(Arc::clone(&params));
        self.total_s.push(t0.elapsed().as_secs_f64());
        (state, params)
    }

    /// Whether another round is due once the share `done` (0 to 1) of the
    /// timed phase is over.
    pub fn due(&self, done: f64) -> bool {
        let ran = self.total_s.len();
        ran < self.rounds && done * self.rounds as f64 >= ran as f64
    }

    /// `setup_s` (end to end) and `microbench.extract_s` (per layer).
    pub fn report(&self, r: &mut Report) {
        r.e2e(Metric::new("setup_s", median(&self.total_s), "s").n(self.total_s.len()));
        r.layer("microbench.extract_s", median(&self.extract_s));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> [--seed N (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})] \
         [--seconds S] [--trace 0|1] [--smoke] [--corrupt] [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt: false,
        out_dir: PathBuf::from(".bench_out"),
        nic: clara_lnic::profiles::netronome_agilio_cx40(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage("missing value"))
        };
        match args[i].as_str() {
            "--workload" => ctx.workload = value(i),
            "--seed" => ctx.seed = value(i).parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                ctx.seconds = value(i).parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                ctx.trace = match value(i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => ctx.out_dir = PathBuf::from(value(i)),
            "--smoke" => {
                ctx.smoke = true;
                i += 1;
                continue;
            }
            "--corrupt" => {
                ctx.corrupt = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        usage("--workload is required");
    }
    ctx
}

fn main() {
    let ctx = parse_args();
    let prov = Provenance::collect();
    let started = Instant::now();
    let ticks0 = common::cpu_ticks();
    let mut report = match ctx.workload.as_str() {
        "predict-cold" => predict_cold::run(&ctx),
        "serve-open" => serve_open::run(&ctx),
        "validate-lookup" => validate::run(&ctx, validate::LOOKUP),
        "validate-scan" => validate::run(&ctx, validate::SCAN),
        _ => unreachable!("workload validated in parse_args"),
    };
    report.e2e(Metric::new("peak_rss_mb", common::peak_rss_mib(), "MiB"));
    let ticks1 = common::cpu_ticks();
    report.notes.push(format!(
        "cpu steal during the run: {:.1}% of machine time",
        100.0 * (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64
    ));
    let wall_s = started.elapsed().as_secs_f64();
    let shown = gated(&ctx, &mut report);
    emit(&ctx, &prov, &report, &shown, wall_s);
    std::process::exit(if report.failed == 0 && report.failures.is_empty() {
        0
    } else {
        1
    });
}

/// Gated end-to-end metrics, in `BENCHMARK.json` order.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. Every traced run
/// reports all of them; a layer that does no work in a workload reads 0.
/// The serve metrics marked `.light` / `.loaded` are per rate step.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.check_us", "us"),
    ("cir.lower_us", "us"),
    ("cir.instrs", "count"),
    ("dataflow.extract_us", "us"),
    ("dataflow.nodes", "count"),
    ("predict.predict_us", "us"),
    ("predict.classes_us", "us"),
    ("predict.cache_model_us", "us"),
    ("predict.solve_us", "us"),
    ("predict.prepared_hit_rate", "ratio"),
    ("ilp.nodes", "count"),
    ("ilp.lp_solves", "count"),
    ("ilp.pivots", "count"),
    ("ilp.warm_start_hits", "count"),
    ("ilp.cell_warm_hits", "count"),
    ("workload.trace_gen_us", "us"),
    ("nicsim.simulate_us", "us"),
    ("nicsim.ns_per_packet", "ns"),
    ("nicsim.batch_share", "ratio"),
    ("nicsim.memo_hit_rate", "ratio"),
    ("nicsim.emem_cache_hit_rate", "ratio"),
    ("microbench.extract_s", "s"),
    ("serve.service_us_p50.light", "us"),
    ("serve.service_us_p99.light", "us"),
    ("serve.queue_wait_us_p50.light", "us"),
    ("serve.solve_us_p50.light", "us"),
    ("serve.residual_us_p50.light", "us"),
    ("serve.gen_late_us_p99.light", "us"),
    ("serve.backlog_max.light", "count"),
    ("serve.service_us_p50.loaded", "us"),
    ("serve.service_us_p99.loaded", "us"),
    ("serve.queue_wait_us_p50.loaded", "us"),
    ("serve.solve_us_p50.loaded", "us"),
    ("serve.residual_us_p50.loaded", "us"),
    ("serve.gen_late_us_p99.loaded", "us"),
    ("serve.backlog_max.loaded", "count"),
    ("serve.request_codec_us", "us"),
    ("serve.reply_codec_us", "us"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Write a traced phase's spans as a Chrome trace next to the result.
pub fn write_trace(ctx: &Ctx, spans: &spans::SpanSet) {
    let path = ctx
        .out_dir
        .join(format!("{}-s{}.trace.json", ctx.workload, ctx.seed));
    if std::fs::create_dir_all(&ctx.out_dir).is_ok() {
        let _ = std::fs::write(path, spans.to_chrome().to_json());
    }
}

/// The gated list of this mode, in `BENCHMARK.json` order. A metric the
/// workload did not produce, or one that is not a finite number, fails
/// the run.
fn gated(ctx: &Ctx, r: &mut Report) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    if ctx.trace {
        for (name, unit) in LAYER_METRICS {
            let value = r.layers.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                missing.push(*name);
            }
            out.push(Metric::new(name, value, unit));
        }
        for name in r.layers.keys() {
            assert!(
                LAYER_METRICS.iter().any(|(n, _)| n == name),
                "unlisted layer metric {name}"
            );
        }
    } else {
        for (name, unit) in E2E_METRICS {
            match r.e2e.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => {
                    assert_eq!(m.unit, *unit, "unit of {name}");
                    out.push(m.clone());
                }
                _ => missing.push(*name),
            }
        }
    }
    for name in missing {
        r.failures
            .push(format!("metric {name} missing or not finite"));
    }
    out
}

fn metric_line(m: &Metric) -> String {
    match m.samples {
        Some(n) => format!("{:<34} {:>16.4} {:<6} (n={n})", m.name, m.value, m.unit),
        None => format!("{:<34} {:>16.4} {}", m.name, m.value, m.unit),
    }
}

fn emit(ctx: &Ctx, prov: &Provenance, r: &Report, shown: &[Metric], wall_s: f64) {
    let correct = r.failed == 0 && r.failures.is_empty();
    for f in &r.failures {
        eprintln!("e2ebench: check failed: {f}");
    }
    println!(
        "e2ebench workload={} seed={} trace={} seconds={} smoke={}",
        ctx.workload, ctx.seed, ctx.trace as u8, ctx.seconds, ctx.smoke
    );
    println!(
        "provenance commit={} source={} cpu=\"{}\" nproc={} threads={} rustc=\"{}\"",
        prov.commit, prov.source_digest, prov.cpu, prov.nproc, r.threads, prov.rustc
    );
    for note in &r.notes {
        println!("note {note}");
    }
    println!("-- end-to-end (gated names)");
    for m in &r.e2e {
        println!("{}", metric_line(m));
    }
    println!("-- end-to-end (workload names)");
    for m in &r.named {
        println!("{}", metric_line(m));
    }
    if ctx.trace {
        println!("-- per layer (traced replay)");
        for m in shown {
            println!("{}", metric_line(m));
        }
    }
    println!(
        "digest {} seed={} {}",
        ctx.workload,
        ctx.seed,
        r.digest.hex()
    );
    println!(
        "ops attempted={} failed={} correct={} wall_s={wall_s:.3}",
        r.attempted, r.failed, correct
    );

    // Full result file, with provenance and sample counts.
    let list = |ms: &[Metric]| {
        Value::Arr(
            ms.iter()
                .map(|m| {
                    let mut b = ObjBuilder::new()
                        .str("name", &m.name)
                        .num("value", m.value)
                        .str("unit", m.unit);
                    if let Some(n) = m.samples {
                        b = b.uint("samples", n as u64);
                    }
                    b.build()
                })
                .collect(),
        )
    };
    let result = ObjBuilder::new()
        .str("workload", &ctx.workload)
        .uint("seed", ctx.seed)
        .bool("trace", ctx.trace)
        .bool("smoke", ctx.smoke)
        .num("seconds", ctx.seconds)
        .str("commit", &prov.commit)
        .str("source_digest", &prov.source_digest)
        .str("cpu", &prov.cpu)
        .uint("nproc", prov.nproc as u64)
        .uint("threads", r.threads as u64)
        .str("rustc", &prov.rustc)
        .uint("attempted", r.attempted)
        .uint("failed", r.failed)
        .bool("correct", correct)
        .str("digest", &r.digest.hex())
        .num("wall_s", wall_s)
        .put("end_to_end", list(&r.e2e))
        .put("named", list(&r.named))
        .put("per_layer", list(if ctx.trace { shown } else { &[] }))
        .put(
            "notes",
            Value::Arr(r.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        )
        .put(
            "failures",
            Value::Arr(r.failures.iter().map(|n| Value::Str(n.clone())).collect()),
        )
        .build();
    let path = ctx.out_dir.join(format!(
        "{}-s{}-t{}{}.json",
        ctx.workload,
        ctx.seed,
        ctx.trace as u8,
        if ctx.smoke { "-smoke" } else { "" }
    ));
    if std::fs::create_dir_all(&ctx.out_dir).is_ok() {
        let _ = std::fs::write(&path, result.to_json() + "\n");
    }

    // The machine-readable last line: the gated metrics of this mode.
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                clara_core::serve::json::num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}
