//! The daemon: accept loop, bounded job queue, panic-isolated worker
//! pool, session caches, and graceful drain.
//!
//! # Failure envelope
//!
//! Every way a request can go wrong maps to a *distinct structured
//! reply* (see [`crate::protocol::reply_codes`]) — the daemon never
//! answers a live connection with silence and never falls over from one
//! request's misbehavior:
//!
//! * **Overload.** Admission control bounds memory: a full queue sheds
//!   the request immediately with `overloaded` and a `retry_after_ms`
//!   hint derived from observed service times. Nothing blocks, nothing
//!   accumulates.
//! * **Deadlines.** Each job arms a wall-clock deadline at admission.
//!   It is threaded cooperatively into the ILP solver
//!   ([`RunDeadline`]) and the simulator ([`Watchdog`]), so an
//!   expensive cell stops mid-solve; a job that already expired in the
//!   queue is answered without starting.
//! * **Panics.** Work runs under `catch_unwind`: the poisoned request
//!   gets a `worker-panicked` reply and its session cache entry is
//!   quarantined. A worker that dies *outside* the per-job catch (chaos
//!   kill) is respawned by its supervisor slot.
//! * **Protocol abuse.** Frames are length-checked before allocation,
//!   reads time out, and malformed JSON is a typed reply, not a panic.
//! * **Drain.** Shutdown (request, [`Server::shutdown`], or SIGTERM)
//!   stops the accept loop, sheds new work with `shutting-down`,
//!   finishes (or deadlines out) everything already admitted, then
//!   flushes counters to telemetry.

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::chaos::{Chaos, ChaosConfig};
use crate::json::{ObjBuilder, Value};
use crate::metrics;
use crate::obs::{memo_hit_fraction, ServeObs};
use crate::protocol::{
    self, read_frame, reply_codes, write_frame, FrameError, Reply, Request, Source,
};
use crate::stats::{ServeStats, StatsSnapshot};
use clara_telemetry::EventKind;
use clara_lnic::{profiles, Lnic};
use clara_microbench::{extract_parameters, NicParameters};
use clara_nicsim::Watchdog;
use clara_predict::{
    panic_text, run_validation_sweep, NfSession, PredictError, PredictOptions, Prediction,
    RunClass, RunDeadline, SessionBuildError, ValidationConfig, ValidationResult,
};
use clara_workload::WorkloadProfile;

/// Server configuration. The defaults favor bounded resource use over
/// throughput; benchmarks override them explicitly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads; `0` = half the cores, at least 2.
    pub workers: usize,
    /// Bounded job queue capacity; beyond it, requests are shed.
    pub queue_cap: usize,
    /// Largest accepted frame, bytes.
    pub max_frame: usize,
    /// Per-read socket timeout; an idle or stalled peer is closed after
    /// this long. `0` disables (not recommended outside tests).
    pub read_timeout_ms: u64,
    /// Deadline applied to requests that don't set their own.
    pub default_deadline_ms: Option<u64>,
    /// Maximum concurrent connections; excess are refused with an
    /// `overloaded` reply at accept time.
    pub max_conns: usize,
    /// Fault injection (`clara serve --chaos <seed>`).
    pub chaos: Option<ChaosConfig>,
    /// Where to flush the final telemetry report at drain.
    pub telemetry_path: Option<std::path::PathBuf>,
    /// Install a SIGTERM/SIGINT handler that triggers graceful drain
    /// (the CLI sets this; in-process tests don't).
    pub handle_sigterm: bool,
    /// Flight-recorder ring capacity in events; `0` disables recording
    /// entirely (the `record` call returns without touching memory).
    pub flight_capacity: usize,
    /// Where to dump the flight recorder as JSONL on a worker panic
    /// and at drain. `None` keeps the ring queryable via the `events`
    /// op but never writes a file.
    pub flight_path: Option<std::path::PathBuf>,
    /// Optional HTTP/1.1 sidecar serving `GET /metrics` (Prometheus
    /// text exposition) on this address; port 0 picks a free port.
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_cap: 16,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            read_timeout_ms: 5_000,
            default_deadline_ms: None,
            max_conns: 128,
            chaos: None,
            telemetry_path: None,
            handle_sigterm: false,
            flight_capacity: 256,
            flight_path: None,
            metrics_addr: None,
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind(String, std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(addr, e) => write!(f, "cannot bind {addr}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One admitted unit of work.
struct Job {
    /// Flight-recorder correlation id, unique per work request.
    id: u64,
    request: Request,
    reply_tx: mpsc::Sender<Reply>,
    /// Admission time, for the queue-wait histogram.
    enqueued_at: Instant,
    /// Wall-clock deadline armed at admission (`None` = unlimited).
    deadline_at: Option<Instant>,
    /// Shared force-cancel token (raised only on hard abort).
    cancel: Arc<AtomicBool>,
}

impl Job {
    fn expired(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
            || self.deadline_at.is_some_and(|at| Instant::now() >= at)
    }

    /// The solver-facing deadline: remaining budget plus the cancel
    /// token.
    fn run_deadline(&self) -> RunDeadline {
        let base = match self.deadline_at {
            Some(at) => RunDeadline::within(at.saturating_duration_since(Instant::now())),
            None => RunDeadline::none(),
        };
        base.with_cancel(Arc::clone(&self.cancel))
    }

    /// Remaining budget in whole milliseconds, for APIs that take
    /// `deadline_ms` (per-cell solver budgets in validation).
    fn remaining_ms(&self) -> Option<u64> {
        self.deadline_at
            .map(|at| at.saturating_duration_since(Instant::now()).as_millis() as u64)
    }

    /// The simulator-facing deadline for this job.
    fn watchdog(&self) -> Watchdog {
        Watchdog {
            deadline: self.deadline_at,
            cancel: Some(Arc::clone(&self.cancel)),
            ..Watchdog::default()
        }
    }
}

/// Rejection reasons from the bounded queue.
enum PushError {
    Full { capacity: usize },
    Closed,
}

/// A bounded MPMC job queue: `try_push` never blocks (that's the
/// admission-control contract), `pop` blocks until work or close.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Queue `job` unless the queue is closed or full. `admitted` runs
    /// with the new depth while the lock is still held, so whatever it
    /// records happens before any worker can pop the job.
    fn try_push(&self, job: Job, admitted: impl FnOnce(usize)) -> Result<(), PushError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full { capacity: self.capacity });
        }
        state.jobs.push_back(job);
        admitted(state.jobs.len());
        self.ready.notify_one();
        Ok(())
    }

    /// Next job, or `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close admission; queued jobs still drain.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).jobs.len()
    }
}

/// A resolved NIC target: the hardware model plus its extracted
/// parameters, cached so repeat requests skip re-extraction.
struct Target {
    lnic: Lnic,
    params: Arc<NicParameters>,
}

/// State shared by acceptor, connection threads, and workers.
struct Shared {
    config: ServeConfig,
    queue: JobQueue,
    stats: ServeStats,
    obs: ServeObs,
    chaos: Option<Chaos>,
    draining: AtomicBool,
    force_cancel: Arc<AtomicBool>,
    conns: AtomicUsize,
    workers: usize,
    workers_live: AtomicUsize,
    inflight: AtomicUsize,
    targets: Mutex<HashMap<String, Arc<Target>>>,
    sessions: Mutex<HashMap<(String, String), Arc<NfSession>>>,
}

/// Decrements a gauge on drop, so worker deaths (including panics
/// unwinding past the loop) keep `workers_live` honest.
struct GaugeGuard<'a>(&'a AtomicUsize);

impl<'a> GaugeGuard<'a> {
    fn enter(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::SeqCst);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon. Dropping without [`Server::join`] leaves threads
/// running until process exit; the CLI always joins.
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    metrics_thread: Option<thread::JoinHandle<()>>,
    slots: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Bind(config.addr.clone(), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(config.addr.clone(), e))?;
        if config.handle_sigterm {
            sig::install();
        }
        let workers = match config.workers {
            0 => thread::available_parallelism()
                .map(|n| (n.get() / 2).max(2))
                .unwrap_or(2),
            n => n,
        };
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(
                TcpListener::bind(addr).map_err(|e| ServeError::Bind(addr.clone(), e))?,
            ),
            None => None,
        };
        let metrics_addr = metrics_listener.as_ref().and_then(|l| l.local_addr().ok());
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_cap),
            stats: ServeStats::default(),
            obs: ServeObs::new(config.flight_capacity),
            chaos: config.chaos.clone().map(Chaos::new),
            draining: AtomicBool::new(false),
            force_cancel: Arc::new(AtomicBool::new(false)),
            conns: AtomicUsize::new(0),
            workers,
            workers_live: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            targets: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            config,
        });
        let (ready_tx, ready_rx) = mpsc::channel();
        let slots = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                let ready = ready_tx.clone();
                thread::Builder::new()
                    .name(format!("clara-serve-slot-{slot}"))
                    .spawn(move || worker_slot(shared, slot, ready))
                    .expect("spawn worker slot")
            })
            .collect();
        // Each slot's first worker reports once it counts in
        // `workers_live`, then drops its sender; the channel closes when
        // all have, so the daemon never starts under-reporting its pool.
        drop(ready_tx);
        for () in ready_rx {}
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("clara-serve-accept".to_string())
                .spawn(move || accept_loop(shared, listener))
                .expect("spawn acceptor")
        };
        let metrics_thread = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("clara-serve-metrics".to_string())
                .spawn(move || metrics_loop(shared, listener))
                .expect("spawn metrics sidecar")
        });
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            acceptor: Some(acceptor),
            metrics_thread,
            slots,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics sidecar's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Pre-populate the target cache under the protocol name requests
    /// use (e.g. `"netronome"`), skipping parameter extraction for the
    /// first request; the CLI seeds its `--nic` this way.
    pub fn seed_target(&self, name: &str, lnic: Lnic, params: Arc<NicParameters>) {
        self.shared
            .targets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), Arc::new(Target { lnic, params }));
    }

    /// Current counters (cache fields included).
    pub fn stats(&self) -> StatsSnapshot {
        snapshot_with_cache(&self.shared)
    }

    /// Whether a drain is underway.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Begin a graceful drain (same as a `shutdown` request).
    pub fn shutdown(&self) {
        initiate_drain(&self.shared);
    }

    /// Wait for the drain to finish: accept loop stopped, queued jobs
    /// done, connections closed. Returns the final counters after
    /// flushing them to the configured telemetry path.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for slot in self.slots.drain(..) {
            let _ = slot.join();
        }
        // The sidecar polls the draining flag, so it exits promptly
        // once the acceptor has.
        if let Some(metrics) = self.metrics_thread.take() {
            let _ = metrics.join();
        }
        // Connection threads unwind on their own (replies written, then
        // the drain check closes them); read timeouts bound the wait.
        let grace = Duration::from_millis(self.shared.config.read_timeout_ms.max(250) * 2);
        let waited = Instant::now();
        while self.shared.conns.load(Ordering::SeqCst) > 0 && waited.elapsed() < grace {
            thread::sleep(Duration::from_millis(5));
        }
        dump_flight(&self.shared);
        let snapshot = snapshot_with_cache(&self.shared);
        if let Some(path) = &self.shared.config.telemetry_path {
            let report = snapshot.into_report();
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("clara-serve: telemetry flush to {} failed: {e}", path.display());
            }
        }
        snapshot
    }
}

/// Mark the daemon as draining exactly once: stop admissions, let the
/// queue drain, let the accept loop exit.
fn initiate_drain(shared: &Shared) {
    if !shared.draining.swap(true, Ordering::SeqCst) {
        shared.obs.event(EventKind::Drain, 0, shared.queue.depth() as u64, 0);
        shared.queue.close();
    }
}

/// Write the flight-recorder ring as JSONL (temp file + rename, like
/// the telemetry flush), if a dump path is configured. Called on every
/// worker-panic reply and at drain; the last write wins, which is the
/// one with the most history.
fn dump_flight(shared: &Shared) {
    let Some(path) = &shared.config.flight_path else { return };
    let tmp = path.with_extension("tmp");
    if let Err(e) = std::fs::write(&tmp, shared.obs.recorder.to_jsonl()) {
        eprintln!("clara-serve: flight dump to {} failed: {e}", tmp.display());
        return;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        eprintln!("clara-serve: flight dump rename to {} failed: {e}", path.display());
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    loop {
        if sig::seen() {
            initiate_drain(&shared);
        }
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if shared.conns.load(Ordering::SeqCst) >= shared.config.max_conns {
                    shared.stats.bump(&shared.stats.conns_rejected);
                    let reply = Reply::err(reply_codes::OVERLOADED, "connection limit reached");
                    let mut stream = stream;
                    let _ = write_frame(&mut stream, reply.json.as_bytes());
                    continue;
                }
                shared.stats.bump(&shared.stats.conns_accepted);
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("clara-serve-conn".to_string())
                    .spawn(move || serve_connection(shared, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn serve_connection(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if shared.config.read_timeout_ms > 0 {
        let _ = stream
            .set_read_timeout(Some(Duration::from_millis(shared.config.read_timeout_ms)));
    }
    loop {
        let reply = match read_frame(&mut stream, shared.config.max_frame) {
            Ok(None) => break,
            // Idle or stalled peer: a slow loris cannot hold a thread.
            Err(FrameError::TimedOut) => break,
            Err(FrameError::Truncated) => {
                shared.stats.bump(&shared.stats.protocol_errors);
                break;
            }
            Err(FrameError::TooLarge { declared, max }) => {
                shared.stats.bump(&shared.stats.protocol_errors);
                let reply = Reply::err(
                    reply_codes::FRAME_TOO_LARGE,
                    &format!("declared {declared} bytes, cap is {max}"),
                );
                let _ = write_reply(&shared, &mut stream, &reply);
                break;
            }
            Err(FrameError::Io(_)) => break,
            Ok(Some(bytes)) => {
                shared.stats.bump(&shared.stats.requests);
                shared.obs.req_rate.record(1);
                match protocol::parse_request(&bytes) {
                    Err(e) => {
                        shared.stats.bump(&shared.stats.protocol_errors);
                        Reply::err(e.code, &e.message)
                    }
                    Ok(request) if request.is_inline() => inline_reply(&shared, &request),
                    Ok(request) => admit_and_wait(&shared, request),
                }
            }
        };
        if write_reply(&shared, &mut stream, &reply).is_err() {
            break;
        }
        // Once draining, close after the in-flight reply: connections
        // converge to zero so `join` can return.
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
    }
    shared.conns.fetch_sub(1, Ordering::SeqCst);
}

/// Write a reply frame, with chaos-mode truncation: the frame is cut
/// mid-body and the connection poisoned, exercising client-side
/// `Truncated` handling.
fn write_reply(
    shared: &Shared,
    stream: &mut TcpStream,
    reply: &Reply,
) -> std::io::Result<()> {
    let body = reply.json.as_bytes();
    if let Some(chaos) = &shared.chaos {
        if chaos.truncate_reply() {
            shared.stats.bump(&shared.stats.chaos_truncated_replies);
            let len = u32::try_from(body.len()).unwrap_or(u32::MAX).to_be_bytes();
            stream.write_all(&len)?;
            stream.write_all(&body[..body.len() / 2])?;
            stream.flush()?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "chaos: reply truncated",
            ));
        }
    }
    write_frame(stream, body)
}

/// Ops the connection thread answers without queue admission.
fn inline_reply(shared: &Shared, request: &Request) -> Reply {
    match request {
        Request::Ping => Reply::ok(
            ObjBuilder::new()
                .str("op", "ping")
                .bool("draining", shared.draining.load(Ordering::SeqCst)),
        ),
        Request::Stats => {
            let snap = snapshot_with_cache(shared);
            Reply::ok(
                snap.fill(ObjBuilder::new())
                    .str("op", "stats")
                    .uint("avg_service_us", shared.stats.avg_service_us())
                    .bool("draining", shared.draining.load(Ordering::SeqCst)),
            )
        }
        Request::Events { limit } => {
            let events = shared.obs.recorder.tail(*limit).iter().map(|e| e.to_value()).collect();
            Reply::ok(
                ObjBuilder::new()
                    .str("op", "events")
                    .uint("recorded", shared.obs.recorder.recorded())
                    .uint("capacity", shared.obs.recorder.capacity() as u64)
                    .put("events", Value::Arr(events)),
            )
        }
        Request::Metrics => {
            let snap = snapshot_with_cache(shared);
            Reply::ok(
                ObjBuilder::new()
                    .str("op", "metrics")
                    .str("content_type", metrics::CONTENT_TYPE)
                    .str("text", &metrics::render(&snap)),
            )
        }
        Request::Shutdown => {
            initiate_drain(shared);
            Reply::ok(ObjBuilder::new().str("op", "shutdown").bool("draining", true))
        }
        _ => Reply::err(reply_codes::USAGE, "not an inline op"),
    }
}

/// Admission control: push the job or shed it, then wait for the
/// worker's reply.
fn admit_and_wait(shared: &Shared, request: Request) -> Reply {
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.bump(&shared.stats.shutdown_rejects);
        return Reply::err(reply_codes::SHUTTING_DOWN, "daemon is draining");
    }
    let id = shared.obs.next_req_id();
    let deadline_ms = request.deadline_ms().or(shared.config.default_deadline_ms);
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        id,
        request,
        reply_tx,
        enqueued_at: Instant::now(),
        deadline_at: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        cancel: Arc::clone(&shared.force_cancel),
    };
    // Counting the admission inside the push keeps it ahead of the
    // worker's dequeue and completion, in the event sequence and in the
    // `accepted` conservation invariant.
    let admitted = |depth: usize| {
        shared.stats.bump(&shared.stats.accepted);
        shared.obs.event(EventKind::Admit, 0, id, depth as u64);
    };
    match shared.queue.try_push(job, admitted) {
        Ok(()) => {
            match reply_rx.recv() {
                Ok(reply) => reply,
                // The worker died between popping the job and replying;
                // the supervisor is respawning it.
                Err(_) => {
                    shared.stats.bump(&shared.stats.panicked);
                    shared.obs.event(EventKind::Panic, reply_codes::PANICKED, id, 0);
                    Reply::err(reply_codes::PANICKED, "worker lost before replying")
                }
            }
        }
        Err(PushError::Full { capacity }) => {
            shared.stats.bump(&shared.stats.shed);
            shared.obs.shed_rate.record(1);
            // The hint is a tail estimate, not a mean: p90 of observed
            // worker service times (25 ms prior until the histogram has
            // its first record), scaled by the backlog a retry would
            // land behind. A mean under-hints exactly when overload is
            // caused by slow outliers.
            let p90_us = shared.obs.service_us.quantile_or(0.9, 25_000);
            let backlog = (capacity as u64 + 1) * p90_us;
            let retry_after_ms = (backlog / (shared.workers as u64).max(1) / 1_000).max(1);
            shared
                .obs
                .event(EventKind::Shed, reply_codes::OVERLOADED, id, retry_after_ms);
            Reply::err_with(
                reply_codes::OVERLOADED,
                &format!("queue full ({capacity} queued)"),
                ObjBuilder::new().uint("retry_after_ms", retry_after_ms),
            )
        }
        Err(PushError::Closed) => {
            shared.stats.bump(&shared.stats.shutdown_rejects);
            shared.obs.event(EventKind::Shed, reply_codes::SHUTTING_DOWN, id, 0);
            Reply::err(reply_codes::SHUTTING_DOWN, "daemon is draining")
        }
    }
}

/// A supervisor slot: spawn a worker, and if it dies by panic (chaos
/// kill or an escape from the per-job catch), spawn a replacement. A
/// clean return means the queue closed and drained. Only the slot's
/// first worker reports start-up on `ready`; respawns do not.
fn worker_slot(shared: Arc<Shared>, slot: usize, ready: mpsc::Sender<()>) {
    let mut ready = Some(ready);
    loop {
        let worker_shared = Arc::clone(&shared);
        let worker_ready = ready.clone();
        let handle = thread::Builder::new()
            .name(format!("clara-serve-worker-{slot}"))
            .spawn(move || worker_loop(&worker_shared, slot, worker_ready));
        let handle = match handle {
            Ok(h) => h,
            Err(_) => {
                thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        ready = None;
        match handle.join() {
            Ok(()) => return,
            Err(_) => {
                shared.stats.bump(&shared.stats.workers_respawned);
                shared.obs.event(EventKind::Respawn, 0, slot as u64, 0);
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, slot: usize, ready: Option<mpsc::Sender<()>>) {
    let _live = GaugeGuard::enter(&shared.workers_live);
    if let Some(ready) = ready {
        let _ = ready.send(());
    }
    while let Some(job) = shared.queue.pop() {
        let wait_us = job.enqueued_at.elapsed().as_micros() as u64;
        shared.obs.queue_wait_us.record(wait_us);
        shared.obs.event(EventKind::Dequeue, 0, job.id, wait_us);
        let inflight = GaugeGuard::enter(&shared.inflight);
        let job_chaos = shared
            .chaos
            .as_ref()
            .map(|c| c.decide_job())
            .unwrap_or_default();
        // Service time starts before the chaos slow-down: an injected
        // stall models a genuinely slow job, and the `retry_after_ms`
        // hint must see it (the overload protocol test relies on this).
        let started = Instant::now();
        if let Some(delay) = job_chaos.slow {
            thread::sleep(delay);
        }
        let reply = process_job(shared, &job, job_chaos.panic_job);
        let code = reply.code;
        let service_us = started.elapsed().as_micros() as u64;
        // Every worker-run job lands in the service histogram — an
        // errored job occupies a worker just the same; only the legacy
        // mean stays completed-only.
        shared.obs.service_us.record(service_us);
        match code {
            reply_codes::OK => {
                shared.stats.bump(&shared.stats.completed);
                shared.stats.add(&shared.stats.service_us_total, service_us);
                shared.obs.complete_rate.record(1);
                shared.obs.event(EventKind::Complete, 0, job.id, service_us);
            }
            reply_codes::DEADLINE => {
                shared.stats.bump(&shared.stats.timed_out);
                shared.obs.event(EventKind::Timeout, code, job.id, service_us);
            }
            reply_codes::PANICKED => {
                shared.stats.bump(&shared.stats.panicked);
                shared.obs.event(EventKind::Panic, code, job.id, slot as u64);
                // A panic is exactly when the recent event history is
                // wanted on disk: dump the ring now, not only at drain.
                dump_flight(shared);
            }
            other => {
                shared.stats.bump(&shared.stats.errored);
                shared.obs.event(EventKind::Complete, other, job.id, service_us);
            }
        }
        drop(inflight);
        // Reply last, so a client that has its reply also finds the job
        // in the counters, gauges and event ring.
        let _ = job.reply_tx.send(reply);
        if job_chaos.kill_worker {
            // Deliberately outside the per-job catch: the reply is
            // already sent; this exercises the supervisor respawn path.
            panic!("chaos: worker killed after job");
        }
    }
}

fn process_job(shared: &Shared, job: &Job, chaos_panic: bool) -> Reply {
    if job.expired() {
        return Reply::err(reply_codes::DEADLINE, "deadline expired while queued");
    }
    match &job.request {
        Request::Predict { source, nic, workload, inject_panic, .. } => {
            let (_target, session) = match resolve(shared, source, nic) {
                Ok(pair) => pair,
                Err(reply) => return reply,
            };
            let options = PredictOptions {
                inject_panic: *inject_panic || chaos_panic,
                ..PredictOptions::default()
            };
            let deadline = job.run_deadline();
            let solve_started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.predict(workload, &options, &deadline)
            }));
            shared
                .obs
                .solve_us
                .record(solve_started.elapsed().as_micros() as u64);
            match outcome {
                Ok(Ok(prediction)) => predict_reply(source, nic, workload, &prediction),
                Ok(Err(e)) => predict_error_reply(&e),
                Err(payload) => {
                    session.quarantine(workload);
                    shared.obs.event(EventKind::Quarantine, 0, job.id, 0);
                    Reply::err(reply_codes::PANICKED, &panic_text(payload.as_ref()))
                }
            }
        }
        Request::Sweep { source, nic, workload, rates, .. } => {
            let (_target, session) = match resolve(shared, source, nic) {
                Ok(pair) => pair,
                Err(reply) => return reply,
            };
            let options = PredictOptions {
                inject_panic: chaos_panic,
                ..PredictOptions::default()
            };
            let deadline = job.run_deadline();
            let mut cells = Vec::with_capacity(rates.len());
            let (mut ok, mut failed) = (0usize, 0usize);
            for &rate in rates {
                let mut wl = workload.clone();
                wl.rate_pps = rate;
                let cell = ObjBuilder::new().num("rate_pps", rate);
                if deadline.expired() {
                    failed += 1;
                    cells.push(
                        cell.bool("ok", false).str("error", "deadline-exceeded").build(),
                    );
                    continue;
                }
                let solve_started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    session.predict(&wl, &options, &deadline)
                }));
                shared
                    .obs
                    .solve_us
                    .record(solve_started.elapsed().as_micros() as u64);
                match outcome {
                    Ok(Ok(p)) => {
                        ok += 1;
                        cells.push(
                            cell.bool("ok", true)
                                .num("avg_latency_cycles", p.avg_latency_cycles)
                                .num("throughput_pps", p.throughput_pps)
                                .str("quality", &p.mapping.quality.to_string())
                                .build(),
                        );
                    }
                    Ok(Err(e)) => {
                        failed += 1;
                        cells.push(
                            cell.bool("ok", false).str("error", &e.to_string()).build(),
                        );
                    }
                    Err(payload) => {
                        failed += 1;
                        session.quarantine(&wl);
                        shared.obs.event(EventKind::Quarantine, 0, job.id, 0);
                        cells.push(
                            cell.bool("ok", false)
                                .str("error", &format!(
                                    "worker panicked: {}",
                                    panic_text(payload.as_ref())
                                ))
                                .build(),
                        );
                    }
                }
            }
            let body = ObjBuilder::new()
                .str("op", "sweep")
                .str("nf", &source.label())
                .str("nic", nic)
                .uint("ok_cells", ok as u64)
                .uint("failed_cells", failed as u64)
                .put("cells", Value::Arr(cells));
            match (ok, failed) {
                (_, 0) => Reply::ok(body),
                (0, _) => Reply::degraded(reply_codes::SWEEP_FAILED, body),
                _ => Reply::degraded(reply_codes::SWEEP_PARTIAL, body),
            }
        }
        Request::Validate { nf, nic, workload, rates, packets, seed, .. } => {
            let source = Source::Corpus(nf.clone());
            let Some((_, program)) = clara_nfs::by_name(nf) else {
                return Reply::err(reply_codes::USAGE, &format!("unknown nf `{nf}`"));
            };
            let (target, session) = match resolve(shared, &source, nic) {
                Ok(pair) => pair,
                Err(reply) => return reply,
            };
            let grid: Vec<WorkloadProfile> = rates
                .iter()
                .map(|&rate| {
                    let mut wl = workload.clone();
                    wl.rate_pps = rate;
                    wl
                })
                .collect();
            let config = ValidationConfig {
                threads: 1,
                packets: *packets,
                seed: *seed,
                options: PredictOptions {
                    deadline_ms: job.remaining_ms(),
                    inject_panic: chaos_panic,
                    ..PredictOptions::default()
                },
                watchdog: job.watchdog(),
                // Session-owned cost cache: repeated validate requests
                // for the same (NF, NIC) replay pure stage costs instead
                // of re-costing every cell. Bit-identical by the cache's
                // fingerprint contract.
                cost_cache: Some(Arc::clone(session.cost_cache())),
                ..ValidationConfig::default()
            };
            let sim_started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_validation_sweep(
                    session.module(),
                    session.params(),
                    &target.lnic,
                    &program,
                    &grid,
                    &config,
                )
            }));
            // Validation is simulator-dominated; the whole sweep lands
            // in the sim histogram (per-stage split is future work).
            shared
                .obs
                .sim_us
                .record(sim_started.elapsed().as_micros() as u64);
            let sweep = match outcome {
                Ok(sweep) => sweep,
                Err(payload) => {
                    session.quarantine(workload);
                    shared.obs.event(EventKind::Quarantine, 0, job.id, 0);
                    return Reply::err(reply_codes::PANICKED, &panic_text(payload.as_ref()));
                }
            };
            let summary = sweep.error_summary();
            let mut cells = Vec::with_capacity(sweep.cells.len());
            for cell in &sweep.cells {
                cells.push(match cell {
                    ValidationResult::Ok(c) => ObjBuilder::new()
                        .bool("ok", true)
                        .str("label", &c.label)
                        .num("rate_pps", c.rate_pps)
                        .num("predicted_cycles", c.predicted_cycles)
                        .num("actual_cycles", c.actual_cycles)
                        .num("rel_error", c.rel_error())
                        .build(),
                    ValidationResult::Failed(why) => ObjBuilder::new()
                        .bool("ok", false)
                        .str("error", why)
                        .build(),
                });
            }
            let body = ObjBuilder::new()
                .str("op", "validate")
                .str("nf", nf)
                .str("nic", nic)
                .uint("ok_cells", summary.ok_cells as u64)
                .uint("failed_cells", summary.failed_cells as u64)
                .num("mean_rel_error", summary.mean.unwrap_or(f64::NAN))
                .num("p95_rel_error", summary.p95.unwrap_or(f64::NAN))
                .put("cells", Value::Arr(cells));
            match sweep.report.class() {
                RunClass::AllOk => Reply::ok(body),
                RunClass::Partial => Reply::degraded(reply_codes::SWEEP_PARTIAL, body),
                RunClass::AllFailed => Reply::degraded(reply_codes::SWEEP_FAILED, body),
            }
        }
        // Inline ops never reach the queue.
        _ => Reply::err(reply_codes::USAGE, "inline op reached a worker"),
    }
}

/// Resolve the NIC target and the (source, nic) session, building and
/// caching either on first use.
fn resolve(
    shared: &Shared,
    source: &Source,
    nic: &str,
) -> Result<(Arc<Target>, Arc<NfSession>), Reply> {
    let target = resolve_target(shared, nic)?;
    let key = (source.cache_text().to_string(), nic.to_string());
    if let Some(session) = shared
        .sessions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
    {
        return Ok((target, Arc::clone(session)));
    }
    let text = match source {
        Source::Corpus(name) => match clara_nfs::by_name(name) {
            Some((text, _)) => text,
            None => {
                return Err(Reply::err(
                    reply_codes::USAGE,
                    &format!(
                        "unknown nf `{name}` (expected one of {})",
                        clara_nfs::CORPUS_NAMES.join(", ")
                    ),
                ))
            }
        },
        Source::Inline(text) => text.clone(),
    };
    // Build outside the lock: frontend+lowering must not serialize
    // unrelated sessions. A racing duplicate build is benign.
    let session = match NfSession::from_source(&text, Arc::clone(&target.params)) {
        Ok(s) => Arc::new(s),
        Err(SessionBuildError::Frontend(e)) => {
            return Err(Reply::err(reply_codes::FRONTEND, &e.to_string()))
        }
        Err(SessionBuildError::Lower(e)) => {
            return Err(Reply::err(reply_codes::LOWER, &e.to_string()))
        }
    };
    let mut sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
    let entry = sessions.entry(key).or_insert_with(|| Arc::clone(&session));
    Ok((target, Arc::clone(entry)))
}

fn resolve_target(shared: &Shared, nic: &str) -> Result<Arc<Target>, Reply> {
    if let Some(target) = shared
        .targets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(nic)
    {
        return Ok(Arc::clone(target));
    }
    let Some(lnic) = profiles::by_name(nic) else {
        return Err(Reply::err(
            reply_codes::USAGE,
            &format!("unknown nic `{nic}` (expected netronome, soc, or asic)"),
        ));
    };
    // Extraction is expensive; do it outside the lock and tolerate a
    // racing duplicate (parameters are deterministic).
    let target = Arc::new(Target {
        params: Arc::new(extract_parameters(&lnic)),
        lnic,
    });
    let mut targets = shared.targets.lock().unwrap_or_else(|e| e.into_inner());
    let entry = targets
        .entry(nic.to_string())
        .or_insert_with(|| Arc::clone(&target));
    Ok(Arc::clone(entry))
}

fn predict_reply(
    source: &Source,
    nic: &str,
    workload: &WorkloadProfile,
    p: &Prediction,
) -> Reply {
    let classes = p
        .per_class
        .iter()
        .map(|c| {
            ObjBuilder::new()
                .str("name", &c.name)
                .num("share", c.share)
                .num("payload", c.payload)
                .num("latency_cycles", c.latency_cycles)
                .build()
        })
        .collect();
    Reply::ok(
        ObjBuilder::new()
            .str("op", "predict")
            .str("nf", &source.label())
            .str("nic", nic)
            .num("rate_pps", workload.rate_pps)
            .num("avg_latency_cycles", p.avg_latency_cycles)
            .num("avg_latency_ns", p.avg_latency_ns)
            .num("throughput_pps", p.throughput_pps)
            .num("energy_nj_per_packet", p.energy_nj_per_packet)
            .str("bottleneck", &p.bottleneck)
            .str("quality", &p.mapping.quality.to_string())
            .put("per_class", Value::Arr(classes)),
    )
}

fn predict_error_reply(e: &PredictError) -> Reply {
    match e {
        PredictError::TimedOut => {
            Reply::err(reply_codes::DEADLINE, "solve deadline expired")
        }
        PredictError::Cancelled => {
            Reply::err(reply_codes::SHUTTING_DOWN, "cancelled by shutdown")
        }
        PredictError::Panicked { .. } => Reply::err(reply_codes::PANICKED, &e.to_string()),
        other => Reply::err(reply_codes::PREDICT, &other.to_string()),
    }
}

fn snapshot_with_cache(shared: &Shared) -> StatsSnapshot {
    let mut snap = shared.stats.snapshot();
    {
        let sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
        snap.sessions = sessions.len() as u64;
        for session in sessions.values() {
            let s = session.stats();
            snap.prepared_hits += s.prepared_hits;
            snap.prepared_misses += s.prepared_misses;
            snap.quarantined += s.quarantined;
            snap.sim_memo_hits += s.sim_memo_hits;
            snap.sim_memo_misses += s.sim_memo_misses;
            snap.sim_cost_views += s.sim_cost_views;
        }
    }
    let obs = &shared.obs;
    // Credit memo deltas since the last snapshot to the rate rings
    // (sampled here, where the totals were just summed anyway, so the
    // job hot path never walks the session map).
    obs.sample_memo(snap.sim_memo_hits, snap.sim_memo_misses);
    snap.queue_depth = shared.queue.depth() as u64;
    snap.queue_capacity = shared.queue.capacity as u64;
    snap.workers = shared.workers as u64;
    snap.workers_live = shared.workers_live.load(Ordering::SeqCst) as u64;
    snap.inflight = shared.inflight.load(Ordering::SeqCst) as u64;
    snap.uptime_s = obs.uptime_s();
    snap.service_us = obs.service_us.summary();
    snap.queue_wait_us = obs.queue_wait_us.summary();
    snap.solve_us = obs.solve_us.summary();
    snap.sim_us = obs.sim_us.summary();
    for (i, w) in [1u64, 10, 60].into_iter().enumerate() {
        snap.req_per_s[i] = obs.req_rate.rate(w);
        snap.shed_per_s[i] = obs.shed_rate.rate(w);
        snap.complete_per_s[i] = obs.complete_rate.rate(w);
        snap.memo_hit_rate[i] = memo_hit_fraction(obs, w);
    }
    snap
}

/// The `--metrics-addr` sidecar: a minimal HTTP/1.1 responder for
/// `GET /metrics`, one request per connection (`Connection: close`).
/// Read-only — it renders the same snapshot the `stats` op does and
/// exits when the daemon drains.
fn metrics_loop(shared: Arc<Shared>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(1_000)));
                answer_metrics_http(&shared, &mut stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn answer_metrics_http(shared: &Shared, stream: &mut TcpStream) {
    // Read the request head (bounded; anything longer is not a scrape).
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && path == "/metrics" {
        ("200 OK", metrics::render(&snapshot_with_cache(shared)))
    } else {
        ("404 Not Found", "only GET /metrics is served\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        metrics::CONTENT_TYPE,
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// SIGTERM/SIGINT → graceful drain. Declared against libc's `signal`
/// directly (std already links libc on unix) so the daemon stays
/// dependency-free.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SEEN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SEEN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn seen() -> bool {
        SEEN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn seen() -> bool {
        false
    }
}
