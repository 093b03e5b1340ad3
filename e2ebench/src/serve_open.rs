//! `serve-open`: an in-process daemon (`Server::start`, default workers)
//! driven over loopback by an open-loop Poisson generator on nproc
//! connections.
//!
//! Requests are `predict` ops over the six corpus NFs, each with one of
//! 16 workload classes per NF (the `validation_grid` payload x flow axes)
//! and a continuous rate. Set-up predicts every class once, so timed
//! requests hit the session cache. The run measures a light rate, a
//! loaded rate, then searches for the highest rate whose p99 stays
//! within the latency limit. A connection carries one request at a
//! time, so queueing shows at the client: every request is timed from
//! when it was due.

use crate::common::{
    least_disturbed_time, log_lerp, mean, nproc, pct_of, Digest, Lds, Metric, Report, Rng,
};
use crate::layers::{self, IlpTally, Sizes};
use crate::predict_cold::Out;
use crate::spans::{SpanSet, Tracer};
use crate::{Ctx, SetUps};
use clara_core::serve::json::{self, Value};
use clara_core::serve::{
    parse_request, read_frame, write_frame, ServeConfig, Server, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use clara_core::{PredictOptions, WorkloadProfile};
use clara_map::RunDeadline;
use clara_microbench::NicParameters;
use clara_predict::{cache::hit_model, enumerate_classes, predictor::state_specs, NfSession};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

pub const NFS: &[&str] = &["nat", "firewall", "lpm", "hh", "dpi", "vnf"];
/// Offered rates of the two fixed steps, requests per second. The loaded
/// rate sits near half the open-loop capacity measured on a 2-vCPU
/// machine (about 3,600 req/s), so its tail reflects queueing rather
/// than a growing backlog.
const LIGHT_RPS: f64 = 1_000.0;
const LOADED_RPS: f64 = 2_000.0;
/// Latency limit on p99 (and on generator lateness), microseconds.
const LIMIT_US: f64 = 5_000.0;
/// Rates drawn per request, packets per second (the grid's rate range).
const RATE_RANGE: (f64, f64) = (20_000.0, 600_000.0);

/// The 16 workload classes per NF: the `validation_grid` payload x flow
/// axes.
fn classes() -> Vec<(f64, usize)> {
    let mut out: Vec<(f64, usize)> = Vec::new();
    for wl in clara_core::validation_grid(4) {
        if !out
            .iter()
            .any(|&(p, f)| p == wl.avg_payload && f == wl.flows)
        {
            out.push((wl.avg_payload, wl.flows));
        }
    }
    out
}

#[derive(Debug, Clone)]
struct Req {
    nf: usize,
    class: usize,
    rate: f64,
    body: String,
}

impl Req {
    fn new(nf: usize, class: usize, rate: f64, classes: &[(f64, usize)]) -> Self {
        let (payload, flows) = classes[class];
        let body = format!(
            "{{\"op\":\"predict\",\"nf\":\"{}\",\"nic\":\"netronome\",\"rate_pps\":{},\"payload\":{},\"max_payload\":{},\"flows\":{flows}}}",
            NFS[nf],
            json::num(rate),
            json::num(payload),
            payload as usize,
        );
        Req {
            nf,
            class,
            rate,
            body,
        }
    }

    /// The workload the daemon builds from this request.
    fn workload(&self, classes: &[(f64, usize)]) -> WorkloadProfile {
        let (payload, flows) = classes[self.class];
        WorkloadProfile {
            rate_pps: self.rate,
            avg_payload: payload,
            max_payload: payload as usize,
            flows,
            ..WorkloadProfile::paper_default()
        }
    }
}

/// A seeded open-loop schedule: Poisson arrivals at `rate` for
/// `seconds`; the requests' NF, class and rate come from a seeded
/// low-discrepancy sequence, so every step covers the mix evenly.
fn schedule(
    seed: u64,
    tag: u64,
    rate: f64,
    seconds: f64,
    classes: &[(f64, usize)],
) -> (Vec<u64>, Vec<Req>) {
    let mut r = Rng::new(seed, tag);
    let seq = Lds::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407), 3);
    let (mut offsets, mut reqs) = (Vec::new(), Vec::new());
    let mut t = r.exp_gap(rate);
    while t < seconds {
        let i = reqs.len() as u64;
        offsets.push((t * 1e9) as u64);
        let nf = (seq.at(i, 0) * NFS.len() as f64) as usize;
        let class = (seq.at(i, 1) * classes.len() as f64) as usize;
        reqs.push(Req::new(
            nf,
            class,
            log_lerp(seq.at(i, 2), RATE_RANGE.0, RATE_RANGE.1),
            classes,
        ));
        t += r.exp_gap(rate);
    }
    (offsets, reqs)
}

/// One request as the generator saw it. Times are nanoseconds from the
/// step's start.
#[derive(Debug, Clone, Default)]
struct Rec {
    due: u64,
    /// When the request could first have been sent: its due time, or
    /// later if every connection was busy.
    ready: u64,
    sent: u64,
    done: u64,
    /// Requests due but not yet sent when this one was claimed.
    backlog: usize,
    /// Reply code; `None` for a client-side error.
    code: Option<u64>,
    out: [f64; 4],
    reply: Vec<u8>,
}

impl Rec {
    fn ok(&self) -> bool {
        self.code == Some(0)
    }
    fn latency_us(&self) -> f64 {
        if self.ok() {
            self.done.saturating_sub(self.due) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }
    fn gen_late_us(&self) -> f64 {
        self.sent.saturating_sub(self.ready) as f64 / 1e3
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    s.set_write_timeout(Some(Duration::from_secs(30)))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Connect and wait until the daemon has accepted the connection (a
/// ping round trip), so a step's clock starts with every connection live.
fn connect_ready(addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = connect(addr).ok()?;
    round_trip(&mut stream, br#"{"op":"ping"}"#, false).ok()?;
    Some(stream)
}

/// Wait for a reply by polling (yielding) instead of blocking in `read`:
/// a blocked generator lets its CPU idle, and on a virtual machine waking
/// an idle CPU takes as long as the host pleases, which would time the
/// host rather than the daemon.
fn await_reply(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut probe = [0u8; 1];
    let ready = loop {
        match stream.peek(&mut probe) {
            // Data, or a closed connection that `read_frame` reports.
            Ok(_) => break Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::yield_now()
            }
            Err(e) => break Err(e),
        }
    };
    stream.set_nonblocking(false)?;
    ready
}

/// One framed round trip; the reply parsed, plus its raw bytes. With
/// `poll` the reply is awaited by [`await_reply`], else in a blocking read.
fn round_trip(stream: &mut TcpStream, body: &[u8], poll: bool) -> Result<(Value, Vec<u8>), String> {
    write_frame(stream, body).map_err(|e| e.to_string())?;
    if poll {
        await_reply(stream).map_err(|e| e.to_string())?;
    }
    let frame = read_frame(stream, DEFAULT_MAX_FRAME)
        .map_err(|e| e.to_string())?
        .ok_or("connection closed")?;
    let value = json::parse(&String::from_utf8_lossy(&frame))?;
    Ok((value, frame))
}

fn outputs(v: &Value) -> [f64; 4] {
    let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    [
        f("avg_latency_cycles"),
        f("avg_latency_ns"),
        f("throughput_pps"),
        f("energy_nj_per_packet"),
    ]
}

/// Drive one step: `conns` connections share the schedule; each sends
/// its next request when due (or as soon as it is free, if later).
fn run_step(
    addr: SocketAddr,
    offsets: &[u64],
    reqs: &[Req],
    conns: usize,
    keep_replies: bool,
) -> Vec<Rec> {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(conns);
    let start: OnceLock<Instant> = OnceLock::new();
    let mut recs: Vec<(usize, Rec)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut stream = connect_ready(addr);
                    barrier.wait();
                    let start = *start.get_or_init(|| Instant::now() + Duration::from_millis(2));
                    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
                    let mut mine = Vec::new();
                    loop {
                        let claim = Instant::now();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let due = start + Duration::from_nanos(offsets[i]);
                        let arrived = offsets.partition_point(|&o| o <= ns(claim));
                        // Busy-wait (yielding) rather than sleep: a sleeping
                        // generator lets the machine's CPUs idle, and on a
                        // virtual machine waking an idle CPU takes as long
                        // as the host pleases, which would time the host.
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let sent = Instant::now();
                        if stream.is_none() {
                            stream = connect(addr).ok();
                        }
                        let reply = match stream.as_mut() {
                            Some(st) => round_trip(st, req.body.as_bytes(), true),
                            None => Err("cannot connect".into()),
                        };
                        let done = Instant::now();
                        let mut rec = Rec {
                            due: offsets[i],
                            ready: offsets[i].max(ns(claim)),
                            sent: ns(sent),
                            done: ns(done),
                            backlog: arrived.saturating_sub(i),
                            ..Rec::default()
                        };
                        match reply {
                            Ok((v, frame)) => {
                                rec.code = v.get("code").and_then(Value::as_u64);
                                rec.out = outputs(&v);
                                if keep_replies {
                                    rec.reply = frame;
                                }
                            }
                            Err(_) => stream = None,
                        }
                        mine.push((i, rec));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    recs.sort_by_key(|(i, _)| *i);
    recs.into_iter().map(|(_, r)| r).collect()
}

/// Closed loop: connection `c` sends pool requests `c`, `c + conns`,
/// `c + 2 conns`, ... (`per_conn` of them), each as soon as the previous
/// reply is in. Returns the records (due = sent), each with its position
/// `c + k conns` in the pass, so that repeated passes line up request by
/// request. The clients block on their replies rather than poll: with
/// every connection busy the machine's CPUs do not idle, and polling
/// clients would take CPU time from the daemon, which makes the rate
/// depend on how the scheduler shares it out.
fn closed_loop(addr: SocketAddr, reqs: &[Req], conns: usize, per_conn: usize) -> Vec<(usize, Rec)> {
    let barrier = Barrier::new(conns);
    let start: OnceLock<Instant> = OnceLock::new();
    let mut recs: Vec<(usize, Rec)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let mut stream = connect_ready(addr);
                    barrier.wait();
                    let start = *start.get_or_init(Instant::now);
                    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
                    let mut mine = Vec::new();
                    for k in 0..per_conn {
                        let i = c + k * conns;
                        let sent = Instant::now();
                        let reply = match stream.as_mut() {
                            Some(st) => round_trip(st, reqs[i % reqs.len()].body.as_bytes(), false),
                            None => Err("cannot connect".into()),
                        };
                        let done = Instant::now();
                        let mut rec = Rec {
                            due: ns(sent),
                            ready: ns(sent),
                            sent: ns(sent),
                            done: ns(done),
                            ..Rec::default()
                        };
                        match reply {
                            Ok((v, _)) => {
                                rec.code = v.get("code").and_then(Value::as_u64);
                                rec.out = outputs(&v);
                            }
                            Err(_) => stream = connect(addr).ok(),
                        }
                        mine.push((i, rec));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    recs.sort_by_key(|(i, _)| *i);
    recs
}

/// One window of a step: the requests due in one slice of its schedule.
#[derive(Debug, Clone)]
struct Window {
    failed: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    /// Generator lateness stayed within the limit.
    valid: bool,
    /// The backlog did not grow: the median backlog over the window's
    /// last third stayed within two requests per connection of its first
    /// third's.
    bounded: bool,
}

impl Window {
    fn of(recs: &[Rec], conns: usize) -> Self {
        let lat: Vec<f64> = recs.iter().map(Rec::latency_us).collect();
        let gen: Vec<f64> = recs.iter().map(Rec::gen_late_us).collect();
        let third = recs.len() / 3;
        let backlog_median = |rs: &[Rec]| {
            pct_of(
                &rs.iter().map(|r| r.backlog as f64).collect::<Vec<_>>(),
                0.5,
            )
        };
        let growth = backlog_median(&recs[recs.len() - third..]) - backlog_median(&recs[..third]);
        Window {
            failed: recs.iter().filter(|r| !r.ok()).count(),
            p50: pct_of(&lat, 0.5),
            p90: pct_of(&lat, 0.9),
            p99: pct_of(&lat, 0.99),
            valid: pct_of(&gen, 0.99) <= LIMIT_US,
            bounded: growth <= (2 * conns) as f64,
        }
    }

    fn passes(&self) -> bool {
        self.failed == 0 && self.valid && self.bounded && self.p99 <= LIMIT_US
    }
}

/// A step's client-side summary. The step's schedule is cut into
/// equal windows by due time; its latency percentiles are the
/// least-disturbed tenths of the windows' percentiles (see
/// [`least_disturbed_time`]), so a stall of the machine (CPU steal on a
/// shared host) that spoils some windows does not decide the step.
#[derive(Debug, Clone)]
struct Step {
    rate: f64,
    n: usize,
    windows: Vec<Window>,
    failed: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    gen_p50: f64,
    gen_p99: f64,
    backlog_max: usize,
    /// The generator kept to the schedule (see [`Step::valid`]).
    on_time: bool,
}

impl Step {
    /// Cut `recs` into `windows` equal slices of the schedule by due time.
    fn of(rate: f64, recs: &[Rec], conns: usize, windows: usize) -> Self {
        let span = recs.last().map_or(1, |r| r.due + 1);
        let mut cut: Vec<Vec<Rec>> = vec![Vec::new(); windows.max(1)];
        for r in recs {
            let w = (r.due as u128 * cut.len() as u128 / span as u128) as usize;
            cut[w].push(r.clone());
        }
        Self::of_windows(rate, &cut, conns)
    }

    /// A step whose windows were run (or cut) separately.
    fn of_windows(rate: f64, cut: &[Vec<Rec>], conns: usize) -> Self {
        let windows: Vec<Window> = cut
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| Window::of(w, conns))
            .collect();
        let best = |f: fn(&Window) -> f64| {
            least_disturbed_time(&windows.iter().map(f).collect::<Vec<_>>())
        };
        let recs: Vec<&Rec> = cut.iter().flatten().collect();
        let gen: Vec<f64> = recs.iter().map(|r| r.gen_late_us()).collect();
        Step {
            rate,
            n: recs.len(),
            failed: recs.iter().filter(|r| !r.ok()).count(),
            p50: best(|w| w.p50),
            p90: best(|w| w.p90),
            p99: best(|w| w.p99),
            gen_p50: pct_of(&gen, 0.5),
            gen_p99: pct_of(&gen, 0.99),
            backlog_max: recs.iter().map(|r| r.backlog).max().unwrap_or(0),
            on_time: 2 * windows.iter().filter(|w| w.valid).count() > windows.len(),
            windows,
        }
    }

    /// A step whose schedule was replayed pass after pass (`passes[k][i]`
    /// is request `i` of pass `k`): a request's latency is the least over
    /// its passes, as a cold prediction's is in `predict-cold`, and the
    /// percentiles are over requests. The schedule is the same in every
    /// pass, so queueing that the schedule itself causes shows in every
    /// pass and stays in the least latency; what the host adds does not.
    fn of_replays(rate: f64, passes: &[Vec<Rec>], conns: usize) -> Self {
        let mut step = Self::of_windows(rate, passes, conns);
        let least: Vec<f64> = (0..passes.first().map_or(0, Vec::len))
            .map(|i| {
                passes
                    .iter()
                    .map(|p| p[i].latency_us())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        step.p50 = pct_of(&least, 0.5);
        step.p90 = pct_of(&least, 0.9);
        step.p99 = pct_of(&least, 0.99);
        // Each request's least latency comes from a pass whose send was on
        // time unless every pass of it was late; the step is on time when
        // 99% of its requests had an on-time pass.
        let least_late: Vec<f64> = (0..least.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| p[i].gen_late_us())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        step.on_time = pct_of(&least_late, 0.99) <= LIMIT_US;
        step
    }

    /// The generator kept to the schedule: most windows had a generator
    /// within the limit, or for a replayed step, 99% of its requests had
    /// a pass whose send was within the limit (else the step's latencies
    /// describe the generator and are not reported).
    fn valid(&self) -> bool {
        self.on_time
    }

    /// Meets the limit: most windows had no failed request, a p99 within
    /// the limit, a valid generator and no growing backlog.
    fn passes(&self) -> bool {
        2 * self.windows.iter().filter(|w| w.passes()).count() > self.windows.len()
    }
}

/// A started daemon with the Netronome target seeded, so no request
/// pays for parameter extraction.
struct Daemon {
    server: Server,
}

impl Daemon {
    fn start(params: &Arc<NicParameters>, nic: &clara_lnic::Lnic, config: ServeConfig) -> Self {
        let server = Server::start(config).expect("daemon starts on a loopback port");
        server.seed_target("netronome", nic.clone(), Arc::clone(params));
        Daemon { server }
    }

    /// Predict every class of every NF once, so timed requests hit the
    /// session cache. Returns the number of non-OK warm-up replies.
    fn warm_up(&self, classes: &[(f64, usize)], conns: usize) -> usize {
        let reqs: Vec<Req> = (0..NFS.len())
            .flat_map(|nf| (0..classes.len()).map(move |c| (nf, c)))
            .map(|(nf, c)| Req::new(nf, c, 60_000.0, classes))
            .collect();
        let offsets = vec![0; reqs.len()];
        run_step(self.server.addr(), &offsets, &reqs, conns, false)
            .iter()
            .filter(|r| !r.ok())
            .count()
    }

    fn stop(self) -> StatsSnapshot {
        self.server.shutdown();
        self.server.join()
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let conns = nproc();
    let mut r = Report {
        threads: conns,
        ..Report::default()
    };
    let classes = classes();
    let mut setups = SetUps::new(ctx);
    let build = |p: Arc<NicParameters>| {
        let d = Daemon::start(&p, &ctx.nic, ServeConfig::default());
        let failed = d.warm_up(&classes, conns);
        (d, failed)
    };
    let ((mut daemon, mut warm_failures), mut params) = setups.run(ctx, build);

    // Time split: light step half, closed loop about an eighth, loaded
    // step a tenth, capacity search 15%. The gated figures come from the
    // light step and the closed loop, which run first, in interleaved
    // rounds spread over the phase: each round replays the light step's
    // third-of-a-second schedule once (one window), then sends the closed
    // loop's requests once. Every light request thus runs once per round,
    // and its latency is the least of those runs (see
    // `Step::of_replays`); the closed loop's rate is the connections over
    // the mean least round trip (Little's law), as `predict-cold`'s rate
    // is operations over their summed least times. The requests do not
    // depend on `--seconds`; the number of rounds does.
    let secs = if ctx.smoke { 0.8 } else { ctx.seconds };
    let (rounds, pass_secs) = if ctx.smoke {
        (2, 0.15)
    } else {
        ((1.5 * secs).round().max(2.0) as usize, 1.0 / 3.0)
    };
    // Prepared-cache hits and lookups over the timed phase, per daemon.
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut tally = |before: &StatsSnapshot, after: &StatsSnapshot| {
        hits += after.prepared_hits - before.prepared_hits;
        lookups += after.prepared_hits + after.prepared_misses
            - before.prepared_hits
            - before.prepared_misses;
    };
    let mut before = daemon.server.stats();
    let (pass_off, pass_reqs) = schedule(ctx.seed, 1, LIGHT_RPS, pass_secs, &classes);
    let (_, cl_pool) = schedule(ctx.seed, 3, LOADED_RPS, 2.0, &classes);
    // Requests per connection per closed-loop round: about 90 ms at the
    // 8,000-10,000 req/s two connections sustain on a 2-vCPU machine.
    let per_conn = if ctx.smoke { 20 } else { 400 };
    let mut least_rtt = vec![f64::INFINITY; conns * per_conn];
    let (mut passes, mut cl_recs) = (Vec::new(), Vec::new());
    for k in 0..rounds {
        if setups.due(k as f64 / rounds as f64) {
            tally(&before, &daemon.server.stats());
            daemon.stop();
            let failed;
            ((daemon, failed), params) = setups.run(ctx, build);
            warm_failures += failed;
            before = daemon.server.stats();
        }
        let addr = daemon.server.addr();
        passes.push(run_step(addr, &pass_off, &pass_reqs, conns, false));
        for (i, rec) in closed_loop(addr, &cl_pool, conns, per_conn) {
            least_rtt[i] = least_rtt[i].min(rec.latency_us());
            cl_recs.push((i % cl_pool.len(), rec));
        }
    }
    setups.report(&mut r);
    if warm_failures > 0 {
        r.fail(format!("{warm_failures} warm-up requests failed"));
    }
    let addr = daemon.server.addr();
    let light = Step::of_replays(LIGHT_RPS, &passes, conns);
    let closed_rps = conns as f64 / (mean(&least_rtt) / 1e6);
    // The whole light step, pass after pass on one clock.
    let pass_ns = (pass_secs * 1e9) as u64;
    let lo_off: Vec<u64> = (0..rounds as u64)
        .flat_map(|k| pass_off.iter().map(move |o| o + k * pass_ns))
        .collect();
    let lo_reqs: Vec<Req> = (0..rounds).flat_map(|_| pass_reqs.clone()).collect();
    let light_recs: Vec<Rec> = passes.into_iter().flatten().collect();
    let (ld_off, ld_reqs) = schedule(ctx.seed, 2, LOADED_RPS, 0.1 * secs, &classes);
    let loaded_recs = run_step(addr, &ld_off, &ld_reqs, conns, false);
    let loaded = Step::of(LOADED_RPS, &loaded_recs, conns, 4);

    // Capacity search: multiplicative steps from the loaded rate until
    // one fails, then bisection between the last pass and first fail.
    let probe_secs = (0.15 * secs / 6.0).max(0.1);
    let mut probes: Vec<(Step, Vec<Req>, Vec<Rec>)> = Vec::new();
    let (mut lo, mut hi) = if loaded.passes() {
        (Some(loaded.clone()), None)
    } else {
        (None, Some(loaded.clone()))
    };
    for k in 0..(if ctx.smoke { 1 } else { 6 }) {
        let rate = match (&lo, &hi) {
            (Some(l), None) => l.rate * 1.25,
            (None, Some(h)) => h.rate / 1.25,
            (Some(l), Some(h)) if h.rate / l.rate > 1.03 => (l.rate * h.rate).sqrt(),
            _ => break,
        };
        let (off, reqs) = schedule(ctx.seed, 10 + k, rate, probe_secs, &classes);
        let recs = run_step(addr, &off, &reqs, conns, false);
        let step = Step::of(rate, &recs, conns, 3);
        if step.passes() {
            lo = Some(step.clone());
        } else {
            hi = Some(step.clone());
        }
        probes.push((step, reqs, recs));
    }
    tally(&before, &daemon.server.stats());
    let max_rps = match (&lo, &hi) {
        // Interpolate where p99 crosses the limit when the failing step
        // failed on latency alone.
        (Some(l), Some(h)) if h.failed == 0 && h.valid() && h.p99.is_finite() && h.p99 > l.p99 => {
            let f = ((LIMIT_US.ln() - l.p99.ln()) / (h.p99.ln() - l.p99.ln())).clamp(0.0, 1.0);
            l.rate * (h.rate / l.rate).powf(f)
        }
        (Some(l), _) => l.rate,
        (None, _) => 0.0,
    };

    // Accounting: every request of every step is an operation.
    let all: Vec<(&Req, &Rec)> = lo_reqs
        .iter()
        .zip(&light_recs)
        .chain(ld_reqs.iter().zip(&loaded_recs))
        .chain(cl_recs.iter().map(|(i, rec)| (&cl_pool[*i], rec)))
        .chain(probes.iter().flat_map(|(_, q, c)| q.iter().zip(c)))
        .collect();
    r.attempted = all.len() as u64;

    for (name, step) in [("light", &light), ("loaded", &loaded)] {
        if !step.valid() {
            r.fail(format!(
                "{name} step invalid: generator lateness p99 {:.0} us exceeds the limit",
                step.gen_p99
            ));
        }
    }
    r.e2e(Metric::new("ops_per_s", closed_rps, "1/s").n(cl_recs.len()));
    r.e2e(Metric::new("op_p50_us", light.p50, "us").n(light.n));
    r.e2e(Metric::new("op_p90_us", light.p90, "us").n(light.n));
    for (name, step) in [("light", &light), ("loaded", &loaded)] {
        if step.valid() {
            r.named(Metric::new(&format!("serve_p50_us.{name}"), step.p50, "us").n(step.n));
            r.named(Metric::new(&format!("serve_p90_us.{name}"), step.p90, "us").n(step.n));
            r.named(Metric::new(&format!("serve_p99_us.{name}"), step.p99, "us").n(step.n));
        }
        r.named(
            Metric::new(&format!("serve_gen_late_us_p50.{name}"), step.gen_p50, "us").n(step.n),
        );
        r.named(
            Metric::new(&format!("serve_gen_late_us_p99.{name}"), step.gen_p99, "us").n(step.n),
        );
        r.named(Metric::new(
            &format!("serve_backlog_max.{name}"),
            step.backlog_max as f64,
            "count",
        ));
        r.named(Metric::new(
            &format!("serve_failed.{name}"),
            step.failed as f64,
            "count",
        ));
    }
    r.named(Metric::new("serve_max_rps", max_rps, "req/s").n(probes.len()));
    r.named(Metric::new("serve_closed_loop_rps", closed_rps, "req/s").n(cl_recs.len()));
    for step in [&light, &loaded]
        .into_iter()
        .chain(probes.iter().map(|(s, _, _)| s))
    {
        r.notes.push(format!(
            "step {:.0} req/s: n={} in {} windows, p50 {:.0} us p99 {:.0} us gen-late p50 {:.0} us p99 {:.0} us backlog max {} failed {} -> {}",
            step.rate,
            step.n,
            step.windows.len(),
            step.p50,
            step.p99,
            step.gen_p50,
            step.gen_p99,
            step.backlog_max,
            step.failed,
            match (step.valid(), step.passes()) {
                (false, _) => "invalid (generator behind)",
                (true, true) => "pass",
                (true, false) => "fail",
            }
        ));
    }
    r.layer(
        "predict.prepared_hit_rate",
        hits as f64 / lookups.max(1) as f64,
    );

    // Output checks: every reply OK and bit-identical to the benchmark's
    // own session on the same module, parameters and workload; a seeded
    // sample also against the one-shot `predict_with_options`.
    let sessions: Vec<NfSession> = NFS
        .iter()
        .map(|nf| {
            let src = clara_nfs::by_name(nf).expect("corpus NF").0;
            NfSession::from_source(&src, Arc::clone(&params)).expect("corpus NF analyzes")
        })
        .collect();
    let mut outs: Vec<[f64; 4]> = all.iter().map(|(_, rec)| rec.out).collect();
    if ctx.corrupt {
        outs[0][0] = f64::from_bits(outs[0][0].to_bits() ^ 1);
    }
    let opts = PredictOptions::default();
    let mut pick = Rng::new(ctx.seed, u64::MAX);
    for (i, ((req, rec), got)) in all.iter().zip(&outs).enumerate() {
        if !rec.ok() {
            r.fail(format!(
                "request {i} ({}): reply code {:?}",
                NFS[req.nf], rec.code
            ));
            continue;
        }
        let wl = req.workload(&classes);
        let want = sessions[req.nf].predict(&wl, &opts, &RunDeadline::none());
        let same = |p: &clara_core::Prediction| Out::of(p).same_bits(&Out(*got));
        match &want {
            Ok(p) if same(p) => {}
            _ => {
                r.fail(format!(
                    "request {i} ({}): served {got:?} differs from local {want:?}",
                    NFS[req.nf]
                ));
                continue;
            }
        }
        if pick.unit() < 32.0 / all.len() as f64 {
            let one_shot = clara_predict::predict_with_options(
                sessions[req.nf].module(),
                &params,
                &wl,
                opts.clone(),
            );
            if !one_shot.as_ref().is_ok_and(same) {
                r.fail(format!(
                    "request {i} ({}): served differs from one-shot prediction",
                    NFS[req.nf]
                ));
            }
        }
    }
    let mut d = Digest::default();
    for ((_, rec), out) in all
        .iter()
        .zip(&outs)
        .take(light_recs.len() + loaded_recs.len())
    {
        d.u64(rec.code.unwrap_or(u64::MAX));
        out.iter().for_each(|v| d.f64(*v));
    }
    r.digest = d;
    daemon.stop();

    if ctx.trace {
        let untraced = [
            (&lo_off, &lo_reqs, &light_recs),
            (&ld_off, &ld_reqs, &loaded_recs),
        ];
        traced(ctx, &params, &classes, conns, &sessions, untraced, &mut r);
    }
    r
}

type StepInput<'a> = (&'a Vec<u64>, &'a Vec<Req>, &'a Vec<Rec>);

/// Traced replay of the light and loaded steps, each on a fresh daemon
/// whose flight recorder keeps every event: per-step daemon service and
/// queue-wait distributions come from those events, the solve
/// distribution from the daemon's `stats` histogram (which also holds
/// the 96 warm-up solves), and the codec costs from replaying the step's
/// request frames and reply bodies.
fn traced(
    ctx: &Ctx,
    params: &Arc<NicParameters>,
    classes: &[(f64, usize)],
    conns: usize,
    sessions: &[NfSession],
    untraced: [StepInput; 2],
    r: &mut Report,
) {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);

    // The benchmark's own frontend and prepare work for the NFs and
    // classes it serves (the daemon does the same once per class).
    let mut sizes = Sizes::default();
    for (k, nf) in NFS.iter().enumerate() {
        let src = clara_nfs::by_name(nf).expect("corpus NF").0;
        let op = k as u64;
        t.begin("analyze", op);
        let (module, size) = layers::frontend(&mut t, op, &src).expect("corpus NF analyzes");
        sizes.add(size);
        for c in 0..classes.len() {
            let wl = Req::new(k, c, 60_000.0, classes).workload(classes);
            t.span("predict.classes", op, || enumerate_classes(&module, &wl));
            let states = state_specs(&module);
            t.span("predict.cache_model", op, || {
                hit_model(&states, params, &wl)
            });
        }
        t.end();
    }

    let mut total_requests = 0usize;
    let (mut lat_traced, mut lat_untraced, mut waits, mut daemon_us) = (0.0, 0.0, 0.0, 0.0);
    let (mut req_codec, mut reply_codec, mut frames) = (0.0, 0.0, 0usize);
    let mut ilp = IlpTally::default();
    for (name, rate, (offsets, reqs, base)) in [
        ("light", LIGHT_RPS, untraced[0]),
        ("loaded", LOADED_RPS, untraced[1]),
    ] {
        let flight = ctx.out_dir.join(format!(
            "{}-s{}-flight-{name}.jsonl",
            ctx.workload, ctx.seed
        ));
        let _ = std::fs::create_dir_all(&ctx.out_dir);
        let d = Daemon::start(
            params,
            &ctx.nic,
            ServeConfig {
                flight_capacity: 1 << 17,
                flight_path: Some(flight.clone()),
                ..ServeConfig::default()
            },
        );
        let warm = NFS.len() * classes.len();
        if d.warm_up(classes, conns) > 0 {
            r.fail(format!("traced {name} step: warm-up failed"));
        }
        let step_t0 = Instant::now();
        let recs = run_step(d.server.addr(), offsets, reqs, conns, true);
        let step = Step::of(rate, &recs, conns, if name == "light" { 10 } else { 4 });
        let stats = d.server.stats();
        d.stop();
        let base_ns = t.at(step_t0);
        for (i, (rec, want)) in recs.iter().zip(base.iter()).enumerate() {
            if !rec.ok()
                || rec
                    .out
                    .iter()
                    .zip(&want.out)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                r.fail(format!(
                    "traced {name} request {i}: reply differs from the untraced run"
                ));
            }
            let op = (total_requests + i) as u64;
            t.record("serve.request", op, base_ns + rec.due, base_ns + rec.done);
        }

        // Daemon-side times per request, from the flight recorder.
        let (mut wait_us, mut service_us) = (Vec::new(), Vec::new());
        for line in std::fs::read_to_string(&flight).unwrap_or_default().lines() {
            let Ok(ev) = json::parse(line) else { continue };
            let req = ev.get("req").and_then(Value::as_u64).unwrap_or(0);
            let val = ev.get("val").and_then(Value::as_f64).unwrap_or(0.0);
            if req as usize <= warm {
                continue;
            }
            match ev.get("event").and_then(Value::as_str) {
                Some("dequeue") => wait_us.push(val),
                Some("complete") => service_us.push(val),
                _ => {}
            }
        }
        let _ = std::fs::remove_file(&flight);
        if service_us.len() != recs.len() {
            r.fail(format!(
                "traced {name} step: flight recorder holds {} of {} requests",
                service_us.len(),
                recs.len()
            ));
        }
        let (svc50, q50) = (pct_of(&service_us, 0.5), pct_of(&wait_us, 0.5));
        r.layer(step_metric(format!("serve.service_us_p50.{name}")), svc50);
        r.layer(
            step_metric(format!("serve.service_us_p99.{name}")),
            pct_of(&service_us, 0.99),
        );
        r.layer(step_metric(format!("serve.queue_wait_us_p50.{name}")), q50);
        r.layer(
            step_metric(format!("serve.solve_us_p50.{name}")),
            stats.solve_us.p50 as f64,
        );
        r.layer(
            step_metric(format!("serve.residual_us_p50.{name}")),
            step.p50 - step.gen_p50 - q50 - svc50,
        );
        r.layer(
            step_metric(format!("serve.gen_late_us_p99.{name}")),
            step.gen_p99,
        );
        r.layer(
            step_metric(format!("serve.backlog_max.{name}")),
            step.backlog_max as f64,
        );

        lat_traced += recs.iter().map(Rec::latency_us).sum::<f64>();
        lat_untraced += base.iter().map(Rec::latency_us).sum::<f64>();
        waits += recs
            .iter()
            .map(|r| r.sent.saturating_sub(r.due) as f64 / 1e3)
            .sum::<f64>();
        daemon_us += wait_us.iter().sum::<f64>() + service_us.iter().sum::<f64>();

        // Codec replays on the captured frames, and the warm solve each
        // request needed, through the benchmark's own session.
        let opts = PredictOptions::default();
        for (i, (req, rec)) in reqs.iter().zip(&recs).enumerate() {
            let op = (total_requests + i) as u64;
            t.begin("replay", op);
            let parsed = t.span("serve.request_codec", op, || {
                parse_request(req.body.as_bytes())
            });
            let text = String::from_utf8_lossy(&rec.reply);
            let reply = t.span("serve.reply_codec", op, || json::parse(&text));
            let p = t.span("predict.solve", op, || {
                sessions[req.nf].predict(&req.workload(classes), &opts, &RunDeadline::none())
            });
            t.end();
            if parsed.is_err() || reply.is_err() {
                r.fail(format!("traced {name} request {i}: codec replay failed"));
            }
            if let Ok(p) = p {
                ilp.add(&p.mapping.stats);
            }
            frames += 1;
        }
        total_requests += recs.len();
    }
    let spans = SpanSet::from_tracers(vec![t]);
    req_codec += spans.self_us("serve.request_codec");
    reply_codec += spans.self_us("serve.reply_codec");
    let n = total_requests.max(1) as f64;
    sizes.report(r, &spans, n);
    r.layer("predict.classes_us", spans.self_us("predict.classes") / n);
    r.layer(
        "predict.cache_model_us",
        spans.self_us("predict.cache_model") / n,
    );
    r.layer(
        "predict.solve_us",
        spans.self_us("predict.solve") / frames.max(1) as f64,
    );
    ilp.report(r);
    r.layer("serve.request_codec_us", req_codec / frames.max(1) as f64);
    r.layer("serve.reply_codec_us", reply_codec / frames.max(1) as f64);
    // An open-loop connection is idle between arrivals by design, so the
    // unattributed share is taken over the time requests were
    // outstanding: what neither the generator's wait nor the daemon's
    // queue and service explain.
    r.layer("unattributed_frac", 1.0 - (waits + daemon_us) / lat_traced);
    r.layer("trace_overhead_frac", lat_traced / lat_untraced - 1.0);
    r.notes.push(format!(
        "traced replay: {total_requests} requests over two fresh daemons"
    ));
    crate::write_trace(ctx, &spans);
}

/// The listed per-layer name for a per-step metric built at run time.
fn step_metric(name: String) -> &'static str {
    crate::LAYER_METRICS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .expect("per-step metric is listed in LAYER_METRICS")
}
