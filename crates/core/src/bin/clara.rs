//! The `clara` command-line tool.
//!
//! ```text
//! clara extract --nic netronome -o nic.params     # one-time per NIC
//! clara analyze nf.nfc                            # IR + dataflow dump
//! clara predict nf.nfc --params nic.params --rate 60000 --payload 300
//! clara hints   nf.nfc --nic netronome
//! ```
//!
//! Argument parsing is hand-rolled (no CLI crates). Failures exit with a
//! category-specific code so scripts can tell bad invocations from bad
//! inputs: 2 = usage, 3 = file I/O, 4 = NF frontend error, 5 = lowering
//! error, 6 = prediction error, 7 = workload error. Supervised sweeps
//! additionally exit 8 when some cells failed and 9 when every cell
//! failed — the sweep itself completes and reports either way.

use clara_core::{
    exit_codes, predict_with_sink, run_sweep_supervised, run_validation_sweep,
    CellOutcome, CellResult, Clara, ClaraError, PredictOptions, RunClass, Sink, SolveStats,
    SupervisorConfig, SweepScenario, TelemetryReport, ValidationConfig, ValidationResult,
    WorkloadProfile,
};
use clara_core::serve::json::{ObjBuilder, Value};
use std::process::ExitCode;

const USAGE: &str = "\
clara — performance clarity for SmartNIC offloading

USAGE:
  clara extract --nic <profile> [-o <file>]
  clara analyze <nf.nfc>
  clara predict <nf.nfc> (--nic <profile> | --params <file>) [workload flags]
  clara hints   <nf.nfc> (--nic <profile> | --params <file>) [workload flags]
  clara sweep   <nf.nfc> (--nic <profile> | --params <file>) [sweep flags]
  clara validate <nf> [--nic <profile>] [--params <file>] [validate flags]
  clara profile <nf> [--nic <profile>] [--params <file>] [profile flags]
  clara serve   [--nic <profile> | --params <file>] [serve flags]
  clara top     [--addr <host:port>] [top flags]

NIC PROFILES:
  netronome | soc | asic        (built-in LNIC models)

CORPUS NFS (for `validate` and `profile`, which also simulate the
hand-ported form on the `--nic` profile, default netronome):
  nat | dpi | dpi-imem | firewall | lpm | hh | vnf

WORKLOAD FLAGS (defaults = the paper's 60 kpps / 300 B / 1k flows):
  --rate <pps>        offered load in packets per second
  --payload <bytes>   mean transport payload
  --flows <n>         concurrent flows
  --tcp <0..1>        TCP share of packets
  --syn <0..1>        SYN share of TCP packets
  --zipf <alpha>      flow-popularity skew (0 = uniform)

SWEEP FLAGS (defaults give a 4×4×4 = 64-cell grid):
  --rates <a,b,..>    rate axis       (default 20000,60000,200000,600000)
  --payloads <a,b,..> payload axis    (default 100,300,700,1400)
  --flows <a,b,..>    flow-count axis (default 100,1000,10000,100000)
  --threads <n>       worker threads; 0 = all cores, 1 = sequential (default 0)
  --deadline <ms>     per-cell wall-clock budget; expiring cells degrade or time out
  --checkpoint <file> save completed cells as they finish (atomic JSON)
  --resume <file>     load a checkpoint and recompute only unfinished cells
                      (also keeps checkpointing to the same file)
  --fail-fast         cancel remaining cells after the first failure
  --no-retry          skip the one retry of failed cells under a tighter budget

VALIDATE FLAGS (predicted-vs-simulated error per grid cell):
  --rates / --payloads / --flows   grid axes, as for sweep (default 4x4x4 = 64)
  --threads <n>       worker threads; 0 = all cores, 1 = sequential (default 0)
  --packets <n>       simulated packets per cell, 1..=1000000 (default 4000)
  --seed <n>          trace-generation seed (default 42)
  --exact             run the simulator's exact oracle path (fidelity audit)
  -o <file>           write the per-cell JSON report here (`-` = stdout)

PROFILE FLAGS (one-cell predict + instrumented simulate of a corpus NF):
  --packets <n>       simulated packets, 1..=1000000 (default 4000, as validate)
  --seed <n>          trace-generation seed (default 42)
  --exact             run the simulator's exact oracle path
  --trace-packets <n> packets recorded in the stage timeline (default 32)
  --trace <file>      write a Chrome trace-event JSON of the first packets
                      (open in Perfetto or chrome://tracing)
  plus the workload flags above

SERVE FLAGS (a long-lived prediction daemon over length-prefixed JSON):
  --addr <host:port>  bind address (default 127.0.0.1:7421; port 0 = any)
  --workers <n>       worker threads; 0 = half the cores (default 0)
  --queue <n>         bounded job queue; beyond it requests are shed
                      with an `overloaded` reply (default 16)
  --deadline <ms>     default per-request deadline when a request sets
                      none (default: unlimited)
  --max-frame <bytes> largest accepted request frame (default 1 MiB)
  --idle-timeout <ms> close idle/stalled connections (default 5000)
  --chaos <seed>      inject worker panics, slow-downs, and truncated
                      replies, deterministically from the seed
  --telemetry <file>  flush server counters here on drain
  --metrics-addr <host:port>
                      serve a Prometheus text exposition over HTTP at
                      GET /metrics on this address (port 0 = any)
  --flight-capacity <n>
                      flight-recorder ring size in events (default 256;
                      0 disables recording)
  --flight-path <file>
                      dump the flight recorder as JSONL here on worker
                      panics and at drain
  Drain with SIGTERM/SIGINT or a `{\"op\":\"shutdown\"}` request: the
  daemon stops accepting, finishes (or deadlines out) admitted jobs,
  flushes telemetry, and exits 0.

TOP FLAGS (a live terminal dashboard polling a daemon's `stats` op):
  --addr <host:port>  daemon address (default 127.0.0.1:7421)
  --interval <ms>     poll period (default 1000)
  --iterations <n>    number of polls; 0 = until interrupted (default 0)
  --raw               print each stats reply as raw JSON, one per line
                      (`--iterations 1 --raw` = a one-shot scrape)

TELEMETRY (predict | sweep | validate | profile):
  --telemetry <file>  collect pipeline spans plus solver/simulator counters
                      and write a TelemetryReport JSON; observation only —
                      results are bit-identical with or without it
";

/// The full help text: the static usage block plus the exit-code table,
/// which is generated from [`exit_codes::TABLE`] so help, README, and
/// the process exit status can never disagree.
fn usage() -> String {
    format!("{USAGE}\nEXIT CODES:\n{}", exit_codes::table())
}

/// A categorized CLI failure; the category decides the exit code.
enum CliError {
    /// Bad invocation: unknown command/flag values, missing arguments.
    Usage(String),
    /// A file could not be read, written, or parsed as a parameter table.
    Io(String),
    /// The analysis/prediction pipeline rejected the inputs.
    Pipeline(ClaraError),
    /// A supervised sweep finished, but some cells failed. The table was
    /// already printed; the message is the one-line summary.
    SweepPartial(String),
    /// A supervised sweep finished with *every* cell failed.
    SweepFailed(String),
    /// The serve daemon could not start (bind failure etc.).
    Serve(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => exit_codes::USAGE,
            CliError::Io(_) => exit_codes::IO,
            CliError::Pipeline(ClaraError::Frontend(_)) => exit_codes::FRONTEND,
            CliError::Pipeline(ClaraError::Lower(_)) => exit_codes::LOWER,
            CliError::Pipeline(ClaraError::Predict(_)) => exit_codes::PREDICT,
            CliError::Pipeline(ClaraError::Workload(_)) => exit_codes::WORKLOAD,
            CliError::SweepPartial(_) => exit_codes::SWEEP_PARTIAL,
            CliError::SweepFailed(_) => exit_codes::SWEEP_FAILED,
            CliError::Serve(_) => exit_codes::SERVE,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg)
            | CliError::Io(msg)
            | CliError::SweepPartial(msg)
            | CliError::SweepFailed(msg)
            | CliError::Serve(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl From<ClaraError> for CliError {
    fn from(e: ClaraError) -> Self {
        CliError::Pipeline(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A reader that closes stdout early (`clara hints … | head`) ends the
    // process by SIGPIPE, as it ends any Unix filter, instead of panicking
    // in `println!`. The daemon keeps the runtime's ignored SIGPIPE, so a
    // client that goes away is an error on its connection, not the end
    // of the server.
    if args.first().map(String::as_str) != Some("serve") {
        restore_default_sigpipe();
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("\n{}", usage());
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// Put `SIGPIPE` back to its default action (terminate), which the Rust
/// runtime sets to ignored before `main`. Declared against libc's
/// `signal` directly, as `clara-serve` does for SIGTERM, so the CLI stays
/// dependency-free.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: installs the default disposition, with no handler code.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    match cmd.as_str() {
        "extract" => extract(&args[1..]),
        "analyze" => analyze(&args[1..]),
        "predict" => predict(&args[1..], false),
        "hints" => predict(&args[1..], true),
        "sweep" => sweep(&args[1..]),
        "validate" => validate(&args[1..]),
        "profile" => profile(&args[1..]),
        "serve" => serve(&args[1..]),
        "top" => top(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// `--packets`, refused outside `1..=MAX_PACKETS` — the bound a served
/// validate request has — before any work starts. Without the flag,
/// `validate` and `profile` both simulate a validation cell's default
/// count, so their default runs of one cell share one ground truth.
fn packets_flag(args: &[String]) -> Result<usize, CliError> {
    let packets = match flag_value(args, "--packets") {
        Some(v) => v.parse().map_err(|_| CliError::Usage(format!("bad --packets `{v}`")))?,
        None => ValidationConfig::default().packets,
    };
    if !(1..=clara_core::MAX_PACKETS).contains(&packets) {
        return Err(CliError::Usage(format!(
            "--packets must be in 1..={}, got {packets}",
            clara_core::MAX_PACKETS
        )));
    }
    Ok(packets)
}

fn nic_by_name(name: &str) -> Result<clara_core::Lnic, CliError> {
    clara_core::profiles::by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown NIC profile `{name}`")))
}

fn build_clara(args: &[String]) -> Result<Clara, CliError> {
    if let Some(path) = flag_value(args, "--params") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
        let params = clara_microbench::from_text(&text)
            .map_err(|e| CliError::Io(format!("bad parameter file `{path}`: {e}")))?;
        return Ok(Clara::with_params(params));
    }
    let nic_name = flag_value(args, "--nic")
        .ok_or_else(|| CliError::Usage("need --nic <profile> or --params <file>".into()))?;
    eprintln!("extracting parameters for `{nic_name}` (one-time per NIC; use `clara extract` to cache)...");
    Ok(Clara::new(&nic_by_name(nic_name)?))
}

fn workload(args: &[String]) -> Result<WorkloadProfile, CliError> {
    let mut wl = WorkloadProfile::paper_default();
    let parse = |v: &str, what: &str| -> Result<f64, CliError> {
        v.parse().map_err(|_| CliError::Usage(format!("bad {what} `{v}`")))
    };
    if let Some(v) = flag_value(args, "--rate") {
        wl.rate_pps = parse(v, "--rate")?;
    }
    if let Some(v) = flag_value(args, "--payload") {
        wl.avg_payload = parse(v, "--payload")?;
        wl.max_payload = wl.avg_payload as usize;
    }
    if let Some(v) = flag_value(args, "--flows") {
        wl.flows = parse(v, "--flows")? as usize;
    }
    if let Some(v) = flag_value(args, "--tcp") {
        wl.tcp_share = parse(v, "--tcp")?;
    }
    if let Some(v) = flag_value(args, "--syn") {
        wl.syn_share = parse(v, "--syn")?;
    }
    if let Some(v) = flag_value(args, "--zipf") {
        wl.zipf_alpha = parse(v, "--zipf")?;
    }
    // Reject NaN/negative rates, zero flows, out-of-range shares, ...
    // before they reach the predictor's arithmetic (exit code 7).
    wl.validate().map_err(ClaraError::from)?;
    Ok(wl)
}

fn read_source(args: &[String]) -> Result<String, CliError> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".nfc"))
        .ok_or_else(|| CliError::Usage("need an NF source file (.nfc)".into()))?;
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))
}

fn extract(args: &[String]) -> Result<(), CliError> {
    let nic_name = flag_value(args, "--nic")
        .ok_or_else(|| CliError::Usage("need --nic <profile>".into()))?;
    let nic = nic_by_name(nic_name)?;
    eprintln!("running the microbenchmark suite against `{}`...", nic.name);
    let params = clara_core::extract_parameters(&nic);
    let text = clara_microbench::to_text(&params);
    match flag_value(args, "-o") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn analyze(args: &[String]) -> Result<(), CliError> {
    let source = read_source(args)?;
    // Analysis needs no NIC parameters.
    let analysis = clara_core::analyze_source(&source)?;
    println!("nf `{}`:", analysis.module.name);
    println!(
        "  {} basic blocks, {} instructions, {} state table(s), {} B of state",
        analysis.module.handle.blocks.len(),
        analysis.module.handle.num_instrs(),
        analysis.module.states.len(),
        analysis.module.states.iter().map(|s| s.size_bytes).sum::<usize>(),
    );
    println!("  dataflow graph ({} nodes):", analysis.graph.nodes.len());
    for node in &analysis.graph.nodes {
        let loop_note = match node.loop_bound {
            Some(b) => format!("  [loop: {b:?}]"),
            None => String::new(),
        };
        println!(
            "    {:>2}  {:<18} {:>3} ops{}",
            node.id.0,
            node.kind.to_string(),
            node.ops.total(),
            loop_note
        );
    }
    for (a, b) in &analysis.graph.edges {
        println!("    edge {} -> {}", a.0, b.0);
    }
    Ok(())
}

/// Write a [`TelemetryReport`] to `path` (`-` = stdout).
fn write_telemetry(path: &str, report: &TelemetryReport) -> Result<(), CliError> {
    if path == "-" {
        print!("{}", report.to_json());
    } else {
        report.save(std::path::Path::new(path)).map_err(CliError::Io)?;
        eprintln!("wrote telemetry to {path}");
    }
    Ok(())
}

fn predict(args: &[String], hints: bool) -> Result<(), CliError> {
    let source = read_source(args)?;
    // Workload flags are validated before the (slow) parameter extraction.
    let wl = workload(args)?;
    let clara = build_clara(args)?;
    if hints {
        let text = clara.porting_hints(&source, &wl)?;
        println!("{text}");
        return Ok(());
    }
    // The disabled sink is a no-op, so the untelemetried path pays
    // nothing; the enabled path never perturbs the prediction.
    let telemetry_path = flag_value(args, "--telemetry");
    let mut sink = if telemetry_path.is_some() { Sink::memory() } else { Sink::disabled() };
    let module = sink.span("frontend+lower", || clara_core::lower_source(&source))?;
    let p = predict_with_sink(
        &module,
        clara.params(),
        &wl,
        PredictOptions::default(),
        &mut sink,
    )
    .map_err(|e| CliError::Pipeline(ClaraError::from(e)))?;
    println!("predicted on {}:", clara.params().nic_name);
    println!(
        "  avg latency : {:.0} cycles ({:.2} µs)",
        p.avg_latency_cycles,
        p.avg_latency_ns / 1000.0
    );
    for c in &p.per_class {
        println!(
            "    {:<8} {:>5.1}%  {:.0} cycles",
            c.name,
            c.share * 100.0,
            c.latency_cycles
        );
    }
    println!(
        "  throughput  : {:.2} Mpps (bottleneck: {})",
        p.throughput_pps / 1e6,
        p.bottleneck
    );
    println!("  energy      : {:.0} nJ/packet", p.energy_nj_per_packet);
    if let Some(path) = telemetry_path {
        let report = TelemetryReport {
            solver: Some(p.mapping.stats.clone()),
            ..TelemetryReport::from_sink(&sink)
        }
        .with_context("command", "predict")
        .with_context("nf", &module.name)
        .with_context("nic", &clara.params().nic_name)
        .with_context("workload", &wl.summary());
        write_telemetry(path, &report)?;
    }
    Ok(())
}

/// Parse a comma-separated numeric axis (e.g. `--rates 20000,60000`).
fn axis(args: &[String], name: &str, default: &[f64]) -> Result<Vec<f64>, CliError> {
    let Some(raw) = flag_value(args, name) else {
        return Ok(default.to_vec());
    };
    let vals: Vec<f64> = raw
        .split(',')
        .map(|v| v.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| CliError::Usage(format!("bad {name} `{raw}`")))?;
    if vals.is_empty() {
        return Err(CliError::Usage(format!("{name} needs at least one value")));
    }
    Ok(vals)
}

fn sweep(args: &[String]) -> Result<(), CliError> {
    let source = read_source(args)?;
    let rates = axis(args, "--rates", &[20_000.0, 60_000.0, 200_000.0, 600_000.0])?;
    let payloads = axis(args, "--payloads", &[100.0, 300.0, 700.0, 1400.0])?;
    let flows = axis(args, "--flows", &[100.0, 1_000.0, 10_000.0, 100_000.0])?;
    let threads: usize = match flag_value(args, "--threads") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --threads `{v}`")))?,
        None => 0,
    };
    let deadline_ms: Option<u64> = match flag_value(args, "--deadline") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --deadline `{v}`")))?,
        ),
        None => None,
    };
    let config = SupervisorConfig {
        threads,
        deadline_ms,
        retry: !args.iter().any(|a| a == "--no-retry"),
        fail_fast: args.iter().any(|a| a == "--fail-fast"),
        checkpoint: flag_value(args, "--checkpoint").map(Into::into),
        resume: flag_value(args, "--resume").map(Into::into),
        ..SupervisorConfig::default()
    };

    // Every grid cell is validated before the (slow) parameter
    // extraction, so a bad axis value exits 7 without waiting.
    let mut grid = Vec::with_capacity(rates.len() * payloads.len() * flows.len());
    for &rate in &rates {
        for &payload in &payloads {
            for &n_flows in &flows {
                let mut wl = WorkloadProfile::paper_default();
                wl.rate_pps = rate;
                wl.avg_payload = payload;
                wl.max_payload = payload as usize;
                wl.flows = n_flows as usize;
                wl.validate().map_err(ClaraError::from)?;
                grid.push(wl);
            }
        }
    }

    let clara = build_clara(args)?;
    let telemetry_path = flag_value(args, "--telemetry");
    let mut sink = if telemetry_path.is_some() { Sink::memory() } else { Sink::disabled() };
    let module = sink.span("frontend+lower", || clara_core::lower_source(&source))?;
    let scenarios: Vec<SweepScenario<'_>> = grid
        .into_iter()
        .map(|wl| SweepScenario {
            label: format!(
                "{:>8} {:>7} {:>7}",
                wl.rate_pps as u64, wl.avg_payload as u64, wl.flows
            ),
            module: &module,
            params: clara.params(),
            workload: wl,
            options: PredictOptions::default(),
        })
        .collect();

    let sweep = sink
        .span("supervised-sweep", || run_sweep_supervised(&scenarios, &config))
        .map_err(|e| CliError::Io(e.to_string()))?;

    println!(
        "sweep of `{}` on {} ({} cells):",
        module.name,
        clara.params().nic_name,
        scenarios.len()
    );
    println!(
        "{:>8} {:>7} {:>7} | {:>12} {:>10} bottleneck",
        "rate", "payload", "flows", "lat(cyc)", "tput(Mpps)"
    );
    for (sc, res) in scenarios.iter().zip(&sweep.results) {
        match res {
            CellResult::Fresh(p) => println!(
                "{} | {:>12.0} {:>10.2} {}",
                sc.label,
                p.avg_latency_cycles,
                p.throughput_pps / 1e6,
                p.bottleneck
            ),
            CellResult::Resumed(s) => println!(
                "{} | {:>12.0} {:>10.2} {} (resumed)",
                sc.label,
                s.avg_latency_cycles,
                s.throughput_pps / 1e6,
                s.bottleneck
            ),
            CellResult::Failed(e) => println!("{} | failed: {e}", sc.label),
            CellResult::Skipped => println!("{} | skipped (run cancelled)", sc.label),
        }
    }

    let report = &sweep.report;
    let resumed = report
        .cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::Resumed))
        .count();
    let summary = format!(
        "sweep: {} ok ({} resumed), {} failed",
        report.ok_count(),
        resumed,
        report.failed_count()
    );
    // Run-level solver stats: the sum over freshly computed cells
    // (resumed cells carry no mapping to account). Printed on every
    // sweep — the `cell-warm=` ratio is how a reader checks that
    // cross-cell warm starting actually engaged, not silently fell back.
    let mut solver: Option<SolveStats> = None;
    for res in &sweep.results {
        if let CellResult::Fresh(p) = res {
            match &mut solver {
                Some(s) => s.merge(&p.mapping.stats),
                None => solver = Some(p.mapping.stats.clone()),
            }
        }
    }
    if let Some(s) = &solver {
        println!("solver: {}", s.summary());
    }
    if let Some(path) = telemetry_path {
        sink.count("cells_ok", report.ok_count() as u64);
        sink.count("cells_failed", report.failed_count() as u64);
        let telemetry = TelemetryReport { solver, ..TelemetryReport::from_sink(&sink) }
            .with_context("command", "sweep")
            .with_context("nf", &module.name)
            .with_context("nic", &clara.params().nic_name)
            .with_context("cells", &scenarios.len().to_string());
        write_telemetry(path, &telemetry)?;
    }
    match report.class() {
        RunClass::AllOk => {
            println!("{summary}");
            Ok(())
        }
        RunClass::Partial => Err(CliError::SweepPartial(summary)),
        RunClass::AllFailed => Err(CliError::SweepFailed(summary)),
    }
}

/// The corpus NF named on the command line, in both forms validation
/// needs: unported source for the predictor, hand-ported program for
/// the simulator.
fn corpus_nf(name: &str) -> Result<(String, clara_core::sim::NicProgram), CliError> {
    clara_core::nfs::by_name(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown corpus NF `{name}` (try {})",
            clara_core::nfs::CORPUS_NAMES.join(", ")
        ))
    })
}

/// The corpus NF named by the first positional argument of `validate`
/// or `profile`. Flags are skipped with their operands; `--exact` is the
/// only bare switch. `example` is the invocation the usage error shows.
fn nf_name_arg(args: &[String], example: &str) -> Result<String, CliError> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if !a.starts_with('-') {
            return Ok(a.clone());
        }
        i += if a == "--exact" { 1 } else { 2 };
    }
    Err(CliError::Usage(format!("need a corpus NF name (e.g. `{example}`)")))
}

/// The integer value of flag `name`, or `default` when it is absent.
fn num_flag(args: &[String], name: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, name) {
        Some(v) => v.parse().map_err(|_| CliError::Usage(format!("bad {name} `{v}`"))),
        None => Ok(default),
    }
}

/// The simulated NIC (`--nic`, default the paper's) and the predictor
/// for a corpus-NF command: parameters from `--params` when given, else
/// extracted for that NIC. Simulation needs an LNIC profile, so
/// `--params` alone is not enough here.
fn corpus_target(args: &[String]) -> Result<(clara_core::Lnic, Clara), CliError> {
    let nic = nic_by_name(flag_value(args, "--nic").unwrap_or("netronome"))?;
    let clara = if flag_value(args, "--params").is_some() {
        build_clara(args)?
    } else {
        eprintln!("extracting parameters for `{}`...", nic.name);
        Clara::new(&nic)
    };
    Ok((nic, clara))
}

/// Render a validation run as the per-cell JSON artifact.
fn validation_json(
    nf: &str,
    nic: &str,
    config: &ValidationConfig,
    sweep: &clara_core::ValidationSweep,
) -> String {
    let cells = sweep.cells.iter().map(|cell| match cell {
        ValidationResult::Ok(c) => ObjBuilder::new()
            .str("status", "ok")
            .num("rate_pps", c.rate_pps)
            .num("payload", c.avg_payload)
            .uint("flows", c.flows as u64)
            .num("predicted_cycles", c.predicted_cycles)
            .num("actual_cycles", c.actual_cycles)
            .num("rel_error", c.rel_error())
            .str("quality", &c.quality)
            .uint("completed", c.completed as u64)
            .build(),
        ValidationResult::Failed(e) => {
            ObjBuilder::new().str("status", "failed").str("error", e).build()
        }
    });
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
    let s = sweep.error_summary();
    let rel_error = ObjBuilder::new()
        .put("mean", opt(s.mean))
        .put("p50", opt(s.p50))
        .put("p95", opt(s.p95))
        .put("max", opt(s.max));
    let summary = ObjBuilder::new()
        .uint("ok_cells", s.ok_cells as u64)
        .uint("failed_cells", s.failed_cells as u64)
        .put("rel_error", rel_error.build());
    ObjBuilder::new()
        .str("nf", nf)
        .str("nic", nic)
        .uint("packets_per_cell", config.packets as u64)
        .uint("seed", config.seed)
        .str("sim_path", if config.sim.batch { "batched" } else { "exact" })
        .put("mean_abs_rel_error", opt(sweep.mean_error()))
        .put("summary", summary.build())
        .put("cells", Value::Arr(cells.collect()))
        .build()
        .to_json_pretty()
}

fn validate(args: &[String]) -> Result<(), CliError> {
    let nf_name = nf_name_arg(args, "clara validate nat")?;
    let (source, program) = corpus_nf(&nf_name)?;
    let rates = axis(args, "--rates", &[20_000.0, 60_000.0, 200_000.0, 600_000.0])?;
    let payloads = axis(args, "--payloads", &[100.0, 300.0, 700.0, 1400.0])?;
    let flows = axis(args, "--flows", &[100.0, 1_000.0, 10_000.0, 100_000.0])?;
    let telemetry_path = flag_value(args, "--telemetry");
    let mut config = ValidationConfig {
        threads: num_flag(args, "--threads", 0)? as usize,
        packets: packets_flag(args)?,
        seed: num_flag(args, "--seed", 42)?,
        telemetry: telemetry_path.is_some(),
        ..ValidationConfig::default()
    };
    if args.iter().any(|a| a == "--exact") {
        config.sim = clara_core::sim::SimConfig::exact();
    }

    // Grid cells are validated before the (slow) parameter extraction.
    let mut grid = Vec::with_capacity(rates.len() * payloads.len() * flows.len());
    for &rate in &rates {
        for &payload in &payloads {
            for &n_flows in &flows {
                let mut wl = WorkloadProfile::paper_default();
                wl.rate_pps = rate;
                wl.avg_payload = payload;
                wl.max_payload = payload as usize;
                wl.flows = n_flows as usize;
                wl.validate().map_err(ClaraError::from)?;
                grid.push(wl);
            }
        }
    }

    let (nic, clara) = corpus_target(args)?;
    let mut sink = if telemetry_path.is_some() { Sink::memory() } else { Sink::disabled() };
    let module = sink.span("frontend+lower", || clara_core::lower_source(&source))?;
    program
        .validate()
        .map_err(|e| CliError::Io(format!("corpus program `{nf_name}` invalid: {e}")))?;

    let sweep = sink.span("validation-sweep", || {
        run_validation_sweep(&module, clara.params(), &nic, &program, &grid, &config)
    });

    println!(
        "validation of `{nf_name}` on {} ({} cells, {} packets/cell, {} path):",
        nic.name,
        grid.len(),
        config.packets,
        if config.sim.batch { "batched" } else { "exact" },
    );
    println!(
        "{:>8} {:>7} {:>7} | {:>12} {:>12} {:>7}",
        "rate", "payload", "flows", "predicted", "actual", "err"
    );
    for cell in &sweep.cells {
        match cell {
            ValidationResult::Ok(c) => println!(
                "{:>8} {:>7} {:>7} | {:>12.0} {:>12.0} {:>6.1}%",
                c.rate_pps as u64,
                c.avg_payload as u64,
                c.flows,
                c.predicted_cycles,
                c.actual_cycles,
                c.rel_error() * 100.0,
            ),
            ValidationResult::Failed(e) => println!("failed: {e}"),
        }
    }
    let es = sweep.error_summary();
    if let (Some(mean), Some(p50), Some(p95), Some(max)) = (es.mean, es.p50, es.p95, es.max) {
        println!(
            "rel. error over {} healthy cells: mean {:.1}%  p50 {:.1}%  p95 {:.1}%  max {:.1}%",
            es.ok_cells,
            mean * 100.0,
            p50 * 100.0,
            p95 * 100.0,
            max * 100.0,
        );
    }

    if let Some(path) = flag_value(args, "-o") {
        let json = validation_json(&nf_name, &nic.name, &config, &sweep);
        if path == "-" {
            print!("{json}");
        } else {
            std::fs::write(path, &json)
                .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
            eprintln!("wrote {path}");
        }
    }

    if let Some(path) = telemetry_path {
        let (solver, sim) = sweep.merged_stats();
        sink.count("cells_ok", sweep.report.ok_count() as u64);
        sink.count("cells_failed", sweep.report.failed_count() as u64);
        let telemetry = TelemetryReport { solver, sim, ..TelemetryReport::from_sink(&sink) }
            .with_context("command", "validate")
            .with_context("nf", &nf_name)
            .with_context("nic", &nic.name)
            .with_context("cells", &grid.len().to_string());
        write_telemetry(path, &telemetry)?;
    }

    let summary = format!(
        "validate: {} ok, {} failed",
        sweep.report.ok_count(),
        sweep.report.failed_count()
    );
    match sweep.report.class() {
        RunClass::AllOk => {
            println!("{summary}");
            Ok(())
        }
        RunClass::Partial => Err(CliError::SweepPartial(summary)),
        RunClass::AllFailed => Err(CliError::SweepFailed(summary)),
    }
}

/// `clara profile <nf>`: predict one cell, simulate it instrumented, and
/// print where the cycles went — pipeline phases, solver counters,
/// per-stage simulated cycles, island occupancy, and accelerator queues.
/// `--trace` additionally exports the first packets as Chrome
/// trace-event JSON for Perfetto.
fn profile(args: &[String]) -> Result<(), CliError> {
    use clara_core::sim::{
        simulate_streamed_instrumented, FaultPlan, SimConfig, SimInstruments, SimScratch, Watchdog,
    };

    let nf_name = nf_name_arg(args, "clara profile dpi")?;
    let (source, program) = corpus_nf(&nf_name)?;
    let wl = workload(args)?;
    let packets = packets_flag(args)?;
    let seed = num_flag(args, "--seed", 42)?;
    let trace_packets = num_flag(args, "--trace-packets", 32)?;
    let sim_config = if args.iter().any(|a| a == "--exact") {
        SimConfig::exact()
    } else {
        SimConfig::default()
    };

    let (nic, clara) = corpus_target(args)?;

    // Profiling exists to observe, so the sink is always on here.
    let mut sink = Sink::memory();
    let module = sink.span("frontend+lower", || clara_core::lower_source(&source))?;
    program
        .validate()
        .map_err(|e| CliError::Io(format!("corpus program `{nf_name}` invalid: {e}")))?;
    let p = predict_with_sink(
        &module,
        clara.params(),
        &wl,
        PredictOptions::default(),
        &mut sink,
    )
    .map_err(|e| CliError::Pipeline(ClaraError::from(e)))?;

    let faults = FaultPlan::none();
    let watchdog = Watchdog::new();
    let mut scratch = SimScratch::new();
    // A packet timeline leaves every stage unplanned, priced per packet
    // through the exact stage costs — only pay that when the user
    // actually asked for a `--trace` export. A default profile run
    // exercises the planned path and reports it on its `batch kernel:`
    // line.
    let mut instr = if flag_value(args, "--trace").is_some() {
        SimInstruments::with_timeline(trace_packets)
    } else {
        SimInstruments::new()
    };
    let stream = wl.to_trace_stream(packets, seed);
    let sim = sink
        .span("simulate", || {
            simulate_streamed_instrumented(
                &nic, &program, stream, &faults, &watchdog, &sim_config, &mut scratch, &mut instr,
            )
        })
        .map_err(|e| CliError::Io(format!("simulate `{nf_name}`: {e}")))?;
    let stats = &instr.stats;

    println!(
        "profile of `{nf_name}` on {} ({packets} packets, {} path)",
        nic.name,
        if sim_config.batch { "batched" } else { "exact" },
    );
    println!("workload: {}", wl.summary());

    println!("\npipeline phases (wall-clock):");
    let mut spans = sink.spans().to_vec();
    spans.sort_by_key(|s| s.start_us);
    for s in &spans {
        println!("  {:indent$}{:<18} {:>8} µs", "", s.name, s.dur_us, indent = (s.depth - 1) * 2);
    }
    println!("\nsolver: {}", p.mapping.stats.summary());

    println!("\nper-stage simulated cycles (mean per packet):");
    let total: f64 = sim.per_stage_cycles.iter().map(|(_, c)| c).sum();
    for (name, cycles) in &sim.per_stage_cycles {
        println!(
            "  {:<20} {:>10.1} {:>6.1}%",
            name,
            cycles,
            if total > 0.0 { cycles / total * 100.0 } else { 0.0 },
        );
    }
    println!("  {:<20} {:>10.1} (avg latency {:.0} cycles)", "total", total, sim.avg_latency_cycles);

    println!("\n{}", stats.summary());
    for is in &stats.islands {
        println!(
            "  island {}: {} threads, {:.1}% busy",
            is.island,
            is.threads,
            is.occupancy(stats.span_cycles) * 100.0,
        );
    }
    for ml in &stats.mem_levels {
        if ml.accesses > 0 {
            println!("  mem {:<6} {:>10} accesses", ml.name, ml.accesses);
        }
    }
    if let Some(rate) = stats.emem_hit_rate() {
        println!(
            "  emem cache: {} hits / {} misses ({:.1}%)",
            stats.emem_cache_hits,
            stats.emem_cache_misses,
            rate * 100.0,
        );
    }
    for ac in &stats.accels {
        println!(
            "  accel {:<10} {} calls, {} busy cyc, {} HOL-stall cyc, queue high-water {}",
            ac.name, ac.calls, ac.busy_cycles, ac.hol_stall_cycles, ac.queue_highwater,
        );
    }
    println!("  switch fabric: {} transfers", stats.switch_transfers);
    println!(
        "  batch kernel: {} of {} packets costed in batch{}",
        stats.batch_packets,
        stats.injected,
        if stats.batch_packets == 0 {
            " (stateful stages, timeline tracing or --exact force the scalar path)"
        } else {
            ""
        },
    );
    // Judged against the steady-state mean, as `clara validate` judges
    // the same cell.
    let actual = sim.steady_latency_cycles;
    println!(
        "\npredicted {:.0} cycles vs simulated {:.0} (rel. error {:.1}%)",
        p.avg_latency_cycles,
        actual,
        (p.avg_latency_cycles - actual).abs() / actual.max(1.0) * 100.0,
    );

    if let Some(path) = flag_value(args, "--trace") {
        if let Some(timeline) = instr.timeline.as_ref() {
            let json = timeline.to_chrome(clara.params().freq_ghz).to_json();
            if path == "-" {
                print!("{json}");
            } else {
                std::fs::write(path, &json)
                    .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
                eprintln!(
                    "wrote Chrome trace to {path} ({} events; open in Perfetto or chrome://tracing)",
                    timeline.spans.len(),
                );
            }
        }
    }
    if let Some(path) = flag_value(args, "--telemetry") {
        let telemetry = TelemetryReport {
            solver: Some(p.mapping.stats.clone()),
            sim: Some(stats.clone()),
            ..TelemetryReport::from_sink(&sink)
        }
        .with_context("command", "profile")
        .with_context("nf", &nf_name)
        .with_context("nic", &nic.name)
        .with_context("workload", &wl.summary())
        .with_context("packets", &packets.to_string());
        write_telemetry(path, &telemetry)?;
    }
    Ok(())
}

/// `clara serve`: run the prediction daemon until drained by SIGTERM,
/// SIGINT, or a `shutdown` request.
fn serve(args: &[String]) -> Result<(), CliError> {
    use clara_core::serve::{ChaosConfig, ServeConfig, Server};
    use std::sync::Arc;

    let parse_num = |v: &str, what: &str| -> Result<u64, CliError> {
        v.parse().map_err(|_| CliError::Usage(format!("bad {what} `{v}`")))
    };
    let mut config = ServeConfig {
        addr: flag_value(args, "--addr").unwrap_or("127.0.0.1:7421").to_string(),
        handle_sigterm: true,
        ..ServeConfig::default()
    };
    if let Some(v) = flag_value(args, "--workers") {
        config.workers = parse_num(v, "--workers")? as usize;
    }
    if let Some(v) = flag_value(args, "--queue") {
        config.queue_cap = (parse_num(v, "--queue")? as usize).max(1);
    }
    if let Some(v) = flag_value(args, "--max-frame") {
        config.max_frame = parse_num(v, "--max-frame")? as usize;
    }
    if let Some(v) = flag_value(args, "--idle-timeout") {
        config.read_timeout_ms = parse_num(v, "--idle-timeout")?;
    }
    if let Some(v) = flag_value(args, "--deadline") {
        config.default_deadline_ms = Some(parse_num(v, "--deadline")?);
    }
    if let Some(v) = flag_value(args, "--chaos") {
        config.chaos = Some(ChaosConfig::with_seed(parse_num(v, "--chaos seed")?));
    }
    config.telemetry_path = flag_value(args, "--telemetry").map(Into::into);
    if let Some(v) = flag_value(args, "--flight-capacity") {
        config.flight_capacity = parse_num(v, "--flight-capacity")? as usize;
    }
    config.flight_path = flag_value(args, "--flight-path").map(Into::into);
    config.metrics_addr = flag_value(args, "--metrics-addr").map(Into::into);

    // Resolve the default target up front so the first request doesn't
    // pay for parameter extraction. `--params` skips extraction; the
    // profile name it's seeded under is `--nic` (default: the profile
    // whose full name matches the parameter file).
    let nic_flag = flag_value(args, "--nic");
    let (seed_name, lnic, params) = if let Some(path) = flag_value(args, "--params") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
        let params = clara_microbench::from_text(&text)
            .map_err(|e| CliError::Io(format!("bad parameter file `{path}`: {e}")))?;
        let short = match nic_flag {
            Some(name) => name.to_string(),
            None => ["netronome", "soc", "asic"]
                .iter()
                .find(|n| nic_by_name(n).is_ok_and(|l| l.name == params.nic_name))
                .map(|n| n.to_string())
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "cannot map parameter file for `{}` to a profile; pass --nic",
                        params.nic_name
                    ))
                })?,
        };
        (short.clone(), nic_by_name(&short)?, params)
    } else {
        let name = nic_flag.unwrap_or("netronome");
        let lnic = nic_by_name(name)?;
        eprintln!("extracting parameters for `{name}` (one-time; use --params to skip)...");
        let params = clara_core::extract_parameters(&lnic);
        (name.to_string(), lnic, params)
    };

    let chaos_note = config
        .chaos
        .as_ref()
        .map(|c| format!(", chaos seed {}", c.seed))
        .unwrap_or_default();
    let (queue_cap, workers) = (config.queue_cap, config.workers);
    let server = Server::start(config).map_err(|e| CliError::Serve(e.to_string()))?;
    server.seed_target(&seed_name, lnic, Arc::new(params));
    eprintln!(
        "clara serve: listening on {} (nic {seed_name}, queue {queue_cap}, workers {}{chaos_note})",
        server.addr(),
        if workers == 0 { "auto".to_string() } else { workers.to_string() },
    );
    if let Some(maddr) = server.metrics_addr() {
        eprintln!("clara serve: Prometheus exposition at http://{maddr}/metrics");
    }
    eprintln!("clara serve: drain with SIGTERM or a {{\"op\":\"shutdown\"}} request");
    let stats = server.join();
    eprintln!(
        "clara serve: drained; {} completed, {} shed, {} timed out, {} panicked, {} workers respawned, {} cache hits",
        stats.completed, stats.shed, stats.timed_out, stats.panicked,
        stats.workers_respawned, stats.prepared_hits,
    );
    Ok(())
}

/// Render a microsecond value with a unit that keeps 3-ish significant
/// digits readable.
fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1} s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

/// One dashboard frame from a `stats` reply (and, when available, an
/// `events` reply). Pure string building so it is unit-testable without
/// a daemon.
fn render_top(addr: &str, stats: &Value, events: Option<&Value>) -> String {
    let u = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    let rate = |key: &str| -> f64 {
        stats
            .get("rates")
            .and_then(|r| r.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "clara top — {addr}   up {}s   workers {}/{}   queue {}/{}   in-flight {}\n",
        u("uptime_s"),
        u("workers_live"),
        u("workers"),
        u("queue_depth"),
        u("queue_capacity"),
        u("inflight"),
    ));
    out.push_str(&format!(
        "totals: {} requests  {} completed  {} shed  {} timed out  {} panicked  {} errored\n",
        u("requests"),
        u("completed"),
        u("shed"),
        u("timed_out"),
        u("panicked"),
        u("errored"),
    ));
    out.push_str(&format!(
        "cache : {} sessions  prepared {}/{}  sim memo {}/{}  quarantined {}\n\n",
        u("sessions"),
        u("prepared_hits"),
        u("prepared_hits") + u("prepared_misses"),
        u("sim_memo_hits"),
        u("sim_memo_hits") + u("sim_memo_misses"),
        u("quarantined"),
    ));
    out.push_str(&format!("{:<12} {:>9} {:>9} {:>9}\n", "rates", "1s", "10s", "60s"));
    for (label, stem) in
        [("req/s", "req_per_s"), ("shed/s", "shed_per_s"), ("done/s", "complete_per_s")]
    {
        out.push_str(&format!(
            "{:<12} {:>9.1} {:>9.1} {:>9.1}\n",
            label,
            rate(&format!("{stem}_1s")),
            rate(&format!("{stem}_10s")),
            rate(&format!("{stem}_60s")),
        ));
    }
    let memo = |key: &str| -> String {
        match stats.get("rates").and_then(|r| r.get(key)).and_then(Value::as_f64) {
            Some(f) => format!("{:.0}%", f * 100.0),
            None => "-".to_string(),
        }
    };
    out.push_str(&format!(
        "{:<12} {:>9} {:>9} {:>9}\n\n",
        "memo hit",
        memo("sim_memo_hit_rate_1s"),
        memo("sim_memo_hit_rate_10s"),
        memo("sim_memo_hit_rate_60s"),
    ));
    out.push_str(&format!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "latency", "count", "p50", "p90", "p99", "max"
    ));
    for (label, key) in [
        ("service", "service_us"),
        ("queue wait", "queue_wait_us"),
        ("solve", "solve_us"),
        ("sim", "sim_us"),
    ] {
        let h = |field: &str| {
            stats.get(key).and_then(|h| h.get(field)).and_then(Value::as_u64).unwrap_or(0)
        };
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            label,
            h("count"),
            fmt_us(h("p50")),
            fmt_us(h("p90")),
            fmt_us(h("p99")),
            fmt_us(h("max")),
        ));
    }
    if let Some(list) = events.and_then(|e| e.get("events")).and_then(Value::as_arr) {
        if !list.is_empty() {
            out.push_str("\nrecent events:\n");
            for ev in list {
                let g = |k: &str| ev.get(k).and_then(Value::as_u64).unwrap_or(0);
                out.push_str(&format!(
                    "  #{:<6} +{:<12} {:<10} req {:<6} val {}\n",
                    g("seq"),
                    fmt_us(g("ts_us")),
                    ev.get("event").and_then(Value::as_str).unwrap_or("?"),
                    g("req"),
                    g("val"),
                ));
            }
        }
    }
    out
}

/// `clara top`: a terminal dashboard over a running daemon, polled from
/// the same `stats` and `events` ops any client can issue — nothing
/// here is privileged, the dashboard is just one more protocol client.
fn top(args: &[String]) -> Result<(), CliError> {
    use clara_core::serve::Client;
    use std::io::IsTerminal;
    use std::net::ToSocketAddrs;

    let parse_num = |v: &str, what: &str| -> Result<u64, CliError> {
        v.parse().map_err(|_| CliError::Usage(format!("bad {what} `{v}`")))
    };
    let addr_s = flag_value(args, "--addr").unwrap_or("127.0.0.1:7421").to_string();
    let addr = addr_s
        .to_socket_addrs()
        .map_err(|e| CliError::Usage(format!("bad --addr `{addr_s}`: {e}")))?
        .next()
        .ok_or_else(|| CliError::Usage(format!("bad --addr `{addr_s}`")))?;
    let interval_ms = match flag_value(args, "--interval") {
        Some(v) => parse_num(v, "--interval")?,
        None => 1_000,
    };
    let iterations = match flag_value(args, "--iterations") {
        Some(v) => parse_num(v, "--iterations")?,
        None => 0,
    };
    let raw = args.iter().any(|a| a == "--raw");
    // Only a real terminal gets the clear-screen dance; a pipe gets
    // appended frames (and `--raw` gets plain JSON lines either way).
    let clear = std::io::stdout().is_terminal();

    let mut client = Client::connect(addr)
        .map_err(|e| CliError::Serve(format!("cannot connect to {addr_s}: {e}")))?;
    let mut polls: u64 = 0;
    loop {
        let stats = match client.stats() {
            Ok(v) => v,
            Err(first_err) => {
                // The daemon may have dropped the idle connection
                // between polls; retry once on a fresh one.
                client = Client::connect(addr).map_err(|_| {
                    CliError::Serve(format!("lost daemon at {addr_s}: {first_err}"))
                })?;
                client
                    .stats()
                    .map_err(|e| CliError::Serve(format!("stats poll failed: {e}")))?
            }
        };
        if raw {
            println!("{}", stats.to_json());
        } else {
            let events = client.request(r#"{"op":"events","limit":8}"#).ok();
            if clear {
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top(&addr_s, &stats, events.as_ref()));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        polls += 1;
        if iterations != 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
