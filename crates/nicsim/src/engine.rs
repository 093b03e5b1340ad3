//! The simulation engine: packets → threads → stages → cycle costs,
//! with shared caches, accelerator queues, and ingress queueing.
//!
//! Packets are processed in arrival order with resource reservations:
//! each packet takes the earliest-available NPU thread (run-to-completion,
//! as on the Netronome), accelerator calls reserve a single-server queue
//! (head-of-line blocking emerges under load), and every memory access
//! goes through the shared cache state — so flow skew, working-set size,
//! and packet rate all shape the measured latencies, exactly the factors
//! §2.1 lists as making offloaded performance hard to predict.

use crate::costcache::{CostCache, CostView};
use crate::fault::{FaultPlan, TRUNCATED_PAYLOAD_BYTES};
use crate::memory::{Cache, MemorySim};
use crate::program::{BytesSpec, MicroOp, NicProgram, Stage, StageUnit};
use crate::watchdog::{Watchdog, DEADLINE_STRIDE};
use clara_lnic::{AccelCost, AccelKind, ComputeClass, Lnic, MemId, MemKind, UnitId};
use clara_telemetry::{AccelStats, IslandStats, MemLevelStats, SimStats, StageTimeline};
use clara_workload::{Trace, TracePacket};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Packets larger than this have their payload tail spilled to EMEM
/// (paper §3.2: "packets smaller than 1 kB will reside in the CTM
/// entirely, but the tails of larger packets will spill to the EMEM").
const CTM_RESIDENCY_BYTES: u64 = 1024;

/// Errors from simulation setup or supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program failed validation.
    BadProgram(String),
    /// A table names a memory region the NIC does not have.
    UnknownRegion(String),
    /// A stage needs an accelerator the NIC does not have.
    MissingAccelerator(String),
    /// The NIC has no general-purpose cores.
    NoThreads,
    /// A packet blew the watchdog's cycle budget — the program asked for
    /// effectively unbounded work (see [`crate::Watchdog`]).
    Watchdog {
        /// Index of the offending packet in the trace.
        packet: usize,
        /// Stage whose cost crossed the limit.
        stage: String,
        /// Cycles the packet had consumed when tripped (saturating).
        cycles: u64,
        /// The limit it crossed.
        limit: u64,
    },
    /// The watchdog's wall-clock deadline passed (or the run was
    /// cancelled) before the trace finished.
    TimedOut,
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::BadProgram(m) => write!(f, "invalid program: {m}"),
            SimError::UnknownRegion(r) => write!(f, "unknown memory region `{r}`"),
            SimError::MissingAccelerator(k) => write!(f, "NIC lacks accelerator `{k}`"),
            SimError::NoThreads => write!(f, "NIC has no general-purpose threads"),
            SimError::Watchdog { packet, stage, cycles, limit } => write!(
                f,
                "watchdog: packet {packet} consumed {cycles} cycles in stage `{stage}` \
                 (limit {limit})"
            ),
            SimError::TimedOut => write!(f, "simulation deadline exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// Measured results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Packets offered by the trace.
    pub packets: usize,
    /// Packets that completed processing.
    pub completed: usize,
    /// Packets dropped at the ingress queue (overflow).
    pub dropped: usize,
    /// Packets dropped because a required accelerator was offline
    /// (fault injection).
    pub accel_drops: usize,
    /// Packets dropped as corrupt at ingress (fault injection).
    pub corrupt_drops: usize,
    /// Packets that arrived truncated but were still processed
    /// (fault injection).
    pub truncated: usize,
    /// Mean per-packet latency in NIC cycles.
    pub avg_latency_cycles: f64,
    /// Median latency in cycles.
    pub p50_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: f64,
    /// Worst observed latency in cycles.
    pub max_latency_cycles: f64,
    /// Mean latency in nanoseconds (at the NIC clock).
    pub avg_latency_ns: f64,
    /// Completed packets per second of simulated time.
    pub achieved_pps: f64,
    /// Mean cycles spent in each stage (same order as the program).
    pub per_stage_cycles: Vec<(String, f64)>,
    /// Flow-cache (hits, misses) summed over tables fronted by it.
    pub flow_cache: (u64, u64),
    /// EMEM cache (hits, misses), if the NIC has one.
    pub emem_cache: Option<(u64, u64)>,
    /// Total energy in millijoules (active cycles × nJ/cycle).
    pub energy_mj: f64,
    /// Raw per-packet latencies in cycles, arrival order.
    pub latencies: Vec<u64>,
}

pub(crate) struct TableRt {
    pub(crate) mem: MemId,
    pub(crate) base: u64,
    pub(crate) entry_bytes: u64,
    pub(crate) entries: u64,
    /// Flow-cache front: entry-granular set-associative state.
    pub(crate) fc: Option<Cache>,
}

pub(crate) struct ThreadRt {
    pub(crate) unit: UnitId,
    /// Packet-residence CTM for this thread's island, resolved once at
    /// setup (the seed re-ran a `format!("ctm{i}")` + name scan for
    /// every NPU stage of every packet).
    pub(crate) ctm: Option<MemId>,
    pub(crate) free_at: u64,
}

/// One accelerator engine's runtime state, held in a fixed array
/// indexed by [`AccelKind`] discriminant — no hashing on dispatch.
pub(crate) struct AccelRt {
    /// Service curve from the unit's cost model, if it declares one.
    curve: Option<AccelCost>,
    /// When the single-server queue drains (head-of-line blocking).
    free_at: u64,
}

/// Engine tuning knobs, mirroring `SolverConfig` on the solve side: the
/// default is the fast path, and the seed-exact path stays one call away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Memoize stage costs by signature (stage, placement, payload
    /// length). Stages whose cost can depend on shared mutable state —
    /// caches, the flow cache, accelerator queues — are never memoized,
    /// so results are bit-identical to the exact path either way.
    pub memoize: bool,
    /// Evaluate signature-pure runs through the batched struct-of-arrays
    /// kernel (the `batch` module): stage costs are computed once per
    /// (cost-equivalent unit, payload length) class over column arenas
    /// instead of per packet. Only engaged when *every* stage classifies
    /// Fixed/PayloadPure; any condition the kernel cannot replay exactly
    /// (live stages, cache-thrash faults, a stage timeline, queue
    /// overflow) falls back to the scalar loop, so results are
    /// bit-identical either way.
    pub batch: bool,
    /// Within a batched run, compute the per-thread start/finish
    /// recurrences island-parallel (threads only interact through the
    /// ingress queue and run-total watchdog, both replayed in a
    /// sequential merge). Off by default until a sweep opts in; the
    /// identity corpus pins islands-on == islands-off == exact.
    pub islands: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { memoize: true, batch: true, islands: false }
    }
}

impl SimConfig {
    /// The seed-equivalent configuration: every stage cost recomputed
    /// from scratch for every packet. Kept as the fidelity baseline
    /// (the bench's identity check runs memoized vs. exact).
    pub fn exact() -> Self {
        SimConfig { memoize: false, batch: false, islands: false }
    }

    /// The default fast path with island-parallel DES enabled on top.
    pub fn islands() -> Self {
        SimConfig { islands: true, ..SimConfig::default() }
    }
}

/// Reusable arenas for repeated simulation runs.
///
/// A sweep of N runs performs O(1) heap allocations per run instead of
/// O(packets): latencies, completions, percentile scratch, per-thread
/// state, the pending-start heap, and the memo tables all retain their
/// capacity across [`simulate_streamed`] calls. A fresh `SimScratch` is
/// equivalent to a reused one — reuse never changes results.
#[derive(Default)]
pub struct SimScratch {
    latencies: Vec<u64>,
    completions: Vec<u64>,
    select: Vec<u64>,
    stage_totals: Vec<u64>,
    pending: BinaryHeap<Reverse<u64>>,
    threads: Vec<ThreadRt>,
    classes: Vec<StageClass>,
    fixed_memo: HashMap<(u32, u32), u64>,
    payload_memo: HashMap<(u32, u32, u64), u64>,
    /// Ingested trace rows for the batched path (also the replay source
    /// when the batch kernel falls back to the scalar loop).
    rows: Vec<TracePacket>,
    /// Column arenas and class tables for [`crate::batch`].
    batch: crate::batch::BatchScratch,
    /// Shared stage-cost cache, consulted when the run-local memo
    /// misses. `None` (the default) keeps the per-run memo as the only
    /// layer — the escape hatch for callers that must not share.
    shared_costs: Option<Arc<CostCache>>,
}

impl SimScratch {
    /// An empty scratch; arenas grow on first use and are kept after.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Per-packet latencies (cycles, arrival order) of the last
    /// [`simulate_streamed`] run — left here rather than copied into
    /// [`SimResult::latencies`] so the streamed path stays allocation-free.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Attach a shared [`CostCache`]: subsequent runs resolve pure stage
    /// costs through it (keyed by the run's post-fault fingerprint)
    /// whenever the run-local memo misses, and publish what they compute.
    /// Sharing one cache across sweep cells, fan-out workers, and serve
    /// sessions is bit-identical to running without it — the cache only
    /// replays values the exact path produced under an equal fingerprint.
    pub fn attach_cost_cache(&mut self, cache: Arc<CostCache>) {
        self.shared_costs = Some(cache);
    }

    /// Detach the shared cache, restoring the per-run-memo-only path.
    pub fn detach_cost_cache(&mut self) -> Option<Arc<CostCache>> {
        self.shared_costs.take()
    }

    /// The attached shared cache, if any.
    pub fn cost_cache(&self) -> Option<&Arc<CostCache>> {
        self.shared_costs.as_ref()
    }
}

/// Opt-in observation state for one simulation run.
///
/// Instrumentation is strictly *read-only* with respect to simulation
/// state: every counter observes a value the engine computes anyway, so
/// an instrumented run is bit-identical to an uninstrumented one (the
/// `prop_telemetry` suite asserts this over random programs, traces,
/// and fault plans). A successful run overwrites [`Self::stats`] except
/// for `watchdog_trips`, which belongs to the supervising caller (a
/// tripped run returns an error before stats are assembled).
#[derive(Debug, Default)]
pub struct SimInstruments {
    /// Aggregated counters, filled when the run completes.
    pub stats: SimStats,
    /// Per-packet stage timeline, recorded when present.
    pub timeline: Option<StageTimeline>,
}

impl SimInstruments {
    /// Counters only, no timeline.
    pub fn new() -> Self {
        SimInstruments::default()
    }

    /// Counters plus a stage timeline covering the first `packets`
    /// packets of the trace.
    pub fn with_timeline(packets: u64) -> Self {
        SimInstruments { stats: SimStats::default(), timeline: Some(StageTimeline::first(packets)) }
    }
}

/// Observation state for one accelerator's single-server queue.
#[derive(Debug, Default)]
pub(crate) struct AccelProbe {
    calls: u64,
    busy_cycles: u64,
    hol_stall_cycles: u64,
    queue_highwater: u64,
    /// Completion times of calls submitted but not yet drained at the
    /// most recent submission instant.
    inflight: VecDeque<u64>,
}

/// How a stage's cost may vary across packets, decided once per run
/// (after fault application — e.g. disabling the EMEM cache makes its
/// tables signature-pure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum StageClass {
    /// Cost depends only on the executing unit: memo key (stage, unit).
    Fixed,
    /// Cost additionally depends on the (possibly truncated) payload
    /// length: memo key (stage, unit, payload_len).
    PayloadPure,
    /// Cost can read or write shared mutable state (a cache, the flow
    /// cache, an accelerator queue): recomputed for every packet.
    Live,
}

/// How a single NPU micro-op's cost may vary across packets — the
/// op-granular refinement of [`StageClass`] that partial-run batching
/// needs: a stage whose only live ops are flow-cache table accesses can
/// have its pure ops costed per class and only the flow-cache branch
/// replayed per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    /// Cost depends only on the executing unit.
    Fixed,
    /// Cost additionally depends on the (truncated) payload length.
    PayloadPure,
    /// A table access through a flow-cache front over an *uncached*
    /// backing region: cost is one of two per-(unit, table) constants,
    /// decided by the flow cache's hit/miss state.
    FlowCacheOnly,
    /// Reads or writes shared mutable state beyond the flow cache
    /// (a memory-level cache, an accelerator queue).
    Live,
}

/// Classify one NPU op. This is the single source of truth the stage
/// classifier folds over, so the partial kernel's per-op plan can never
/// disagree with the per-stage classes.
pub(crate) fn classify_op(op: &MicroOp, tables: &[TableRt], mem: &MemorySim) -> OpClass {
    match op {
        MicroOp::Compute { .. }
        | MicroOp::ParseHeader
        | MicroOp::MetadataMod { .. }
        | MicroOp::Hash { .. }
        | MicroOp::FloatOps { .. } => OpClass::Fixed,
        MicroOp::TableLookup { table } | MicroOp::TableWrite { table } => {
            let t = &tables[*table];
            if mem.has_cache(t.mem) {
                OpClass::Live
            } else if t.fc.is_none() {
                OpClass::Fixed
            } else {
                OpClass::FlowCacheOnly
            }
        }
        MicroOp::CounterUpdate { table } | MicroOp::LinearScan { table } => {
            if mem.has_cache(tables[*table].mem) {
                OpClass::Live
            } else {
                OpClass::Fixed
            }
        }
        // Payload streaming and software checksums read the packet's
        // residence (raw latency + bulk rate, never a cache), so they
        // are pure in (unit, payload_len). A transition table adds a
        // per-byte access, pure only if its region is uncached.
        MicroOp::StreamPayload { table: None, .. } | MicroOp::ChecksumSw => OpClass::PayloadPure,
        MicroOp::StreamPayload { table: Some(t), .. } => {
            if mem.has_cache(tables[*t].mem) {
                OpClass::Live
            } else {
                OpClass::PayloadPure
            }
        }
        MicroOp::AccelCall { .. } => OpClass::Live,
    }
}

/// Classify a stage for memoization. A stage is memoized only if *every*
/// op in it is signature-pure; a single live op (flow-cache accesses
/// included — their hit/miss state is shared) makes the whole stage
/// live. Accesses to uncached regions cost `raw + bulk·(bytes − 64)`
/// regardless of address or history, so table ops are pure exactly when
/// the table has no flow-cache front and its region has no cache.
fn classify_stage(stage: &Stage, tables: &[TableRt], mem: &MemorySim) -> StageClass {
    if !matches!(stage.unit, StageUnit::Npu) {
        return StageClass::Live; // accelerator queues are stateful
    }
    let mut class = StageClass::Fixed;
    for op in &stage.ops {
        let op_class = match classify_op(op, tables, mem) {
            OpClass::Fixed => StageClass::Fixed,
            OpClass::PayloadPure => StageClass::PayloadPure,
            OpClass::FlowCacheOnly | OpClass::Live => StageClass::Live,
        };
        class = class.max(op_class);
    }
    class
}

/// Render every input a *pure* stage cost can read — after fault
/// application — into a compact `u64` token stream: the interning key
/// for [`CostCache`] views.
///
/// Equal fingerprints must imply equal costs for every
/// `(stage, unit[, payload_len])` signature, so the encoding covers:
/// the program (stages, ops, table geometry), each unit's cost model,
/// FPU, and island (the island plus region names determine CTM
/// residence), each region's name, post-fault cache presence, bulk
/// rate, and per-unit raw latency, the resolved per-table runtime
/// geometry including post-fault flow-cache presence, and the per-stage
/// fault stalls. Table base addresses are deliberately absent: pure
/// classification already guarantees every access is to an uncached
/// region, whose cost is address-free. NF/stage/table names are absent
/// too — no cost reads them. Every list is length-prefixed and emitted
/// in a fixed traversal order, so distinct configurations cannot
/// produce equal streams. The binary form replaces an earlier formatted
/// string: fingerprints are built once per run on the sweep hot path,
/// where `fmt` machinery cost more than the batched kernel itself.
fn run_fingerprint(
    nic: &Lnic,
    prog: &NicProgram,
    mem: &MemorySim,
    tables: &[TableRt],
    emem: Option<MemId>,
    stage_stalls: &[u64],
    fc_engine_cycles: u64,
) -> Vec<u64> {
    const NONE: u64 = u64::MAX;
    let mut s: Vec<u64> = Vec::with_capacity(768);
    // Encode an optional index where the valid range can never reach
    // u64::MAX (unit/table/island counts are tiny).
    let opt = |v: Option<usize>| v.map_or(NONE, |x| x as u64);

    s.push(prog.stages.len() as u64);
    for stage in &prog.stages {
        match stage.unit {
            StageUnit::Npu => s.push(NONE),
            StageUnit::Accel(kind) => s.push(kind as u64),
        }
        s.push(stage.ops.len() as u64);
        for op in &stage.ops {
            match *op {
                MicroOp::Compute { cycles } => s.extend([0, cycles]),
                MicroOp::ParseHeader => s.push(1),
                MicroOp::MetadataMod { count } => s.extend([2, count]),
                MicroOp::Hash { count } => s.extend([3, count]),
                MicroOp::TableLookup { table } => s.extend([4, table as u64]),
                MicroOp::TableWrite { table } => s.extend([5, table as u64]),
                MicroOp::CounterUpdate { table } => s.extend([6, table as u64]),
                MicroOp::LinearScan { table } => s.extend([7, table as u64]),
                MicroOp::StreamPayload { table, loop_overhead } => {
                    s.extend([8, opt(table), loop_overhead])
                }
                MicroOp::ChecksumSw => s.push(9),
                MicroOp::AccelCall { bytes } => {
                    s.push(10);
                    match bytes {
                        BytesSpec::Payload => s.push(0),
                        BytesSpec::Frame => s.push(1),
                        BytesSpec::Fixed(n) => s.extend([2, n]),
                    }
                }
                MicroOp::FloatOps { count } => s.extend([11, count]),
            }
        }
    }
    s.push(opt(emem.map(|e| e.0)));
    s.push(fc_engine_cycles);
    s.push(stage_stalls.len() as u64);
    s.extend_from_slice(stage_stalls);
    s.push(nic.units().len() as u64);
    for u in nic.units() {
        let c = &u.cost;
        s.extend([
            c.alu,
            c.mul,
            c.div,
            c.branch,
            c.metadata_mod,
            c.hash,
            c.parse_header,
            c.float_native,
            c.float_emulation,
            c.stream_per_byte.to_bits(),
        ]);
        match c.accel {
            None => s.push(NONE),
            Some(a) => {
                s.extend([a.base, a.per_byte.to_bits(), a.queue_capacity as u64]);
            }
        }
        s.push(u64::from(u.has_fpu));
        s.push(opt(u.island));
    }
    s.push(nic.memories().len() as u64);
    for (mi, m) in nic.memories().iter().enumerate() {
        let id = MemId(mi);
        // Region names resolve CTM residence and table placement, so
        // they are part of the key: length-prefixed, bytes packed
        // little-endian eight to a token.
        let name = m.name.as_bytes();
        s.push(name.len() as u64);
        for chunk in name.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            s.push(u64::from_le_bytes(word));
        }
        s.push(mem.bulk_per_byte(id).to_bits());
        s.push(u64::from(mem.has_cache(id)));
        for ui in 0..nic.units().len() {
            s.push(mem.raw_latency(UnitId(ui), id));
        }
    }
    s.push(tables.len() as u64);
    for t in tables {
        s.extend([t.mem.0 as u64, t.entry_bytes, t.entries, u64::from(t.fc.is_some())]);
    }
    s
}

/// Run `prog` over `trace` on `nic` with healthy hardware.
pub fn simulate(nic: &Lnic, prog: &NicProgram, trace: &Trace) -> Result<SimResult, SimError> {
    simulate_with_faults(nic, prog, trace, &FaultPlan::none())
}

/// Run `prog` over `trace` on `nic` under a [`FaultPlan`].
///
/// Faults degrade the run instead of failing it: unserviceable packets are
/// dropped and counted ([`SimResult::accel_drops`],
/// [`SimResult::corrupt_drops`], [`SimResult::dropped`]), survivors see
/// the degraded latency. Errors are reserved for setup problems (an
/// invalid program, a region the NIC lacks, zero usable threads).
pub fn simulate_with_faults(
    nic: &Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
) -> Result<SimResult, SimError> {
    simulate_supervised(nic, prog, trace, faults, &Watchdog::default())
}

/// Run `prog` over `trace` on `nic` under a [`FaultPlan`] and a
/// [`Watchdog`].
///
/// The watchdog turns unbounded work into errors instead of hangs: a
/// packet whose stages exceed the per-packet cycle cap (or push the run
/// past the total cap) ends the run with [`SimError::Watchdog`], and an
/// expired wall-clock deadline or cancel token ends it with
/// [`SimError::TimedOut`]. Default caps are far above any legitimate
/// program, so `simulate`/`simulate_with_faults` results are unchanged.
pub fn simulate_supervised(
    nic: &Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
    watchdog: &Watchdog,
) -> Result<SimResult, SimError> {
    simulate_configured(nic, prog, trace, faults, watchdog, &SimConfig::default())
}

/// [`simulate_supervised`] with an explicit [`SimConfig`]: the entry
/// point that chooses between the memoized default and
/// [`SimConfig::exact`], the seed-equivalent recompute-everything path.
pub fn simulate_configured(
    nic: &Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let mut scratch = SimScratch::new();
    let mut r =
        run_sim(nic, prog, trace.iter().cloned(), faults, watchdog, config, &mut scratch, None)?;
    r.latencies = std::mem::take(&mut scratch.latencies);
    Ok(r)
}

/// [`simulate_configured`] with a [`SimInstruments`] attached: the run
/// fills `instruments.stats` (and the timeline, when one is present)
/// while producing a [`SimResult`] bit-identical to the uninstrumented
/// entry points.
#[allow(clippy::too_many_arguments)]
pub fn simulate_instrumented(
    nic: &Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    instruments: &mut SimInstruments,
) -> Result<SimResult, SimError> {
    let mut scratch = SimScratch::new();
    let mut r = run_sim(
        nic,
        prog,
        trace.iter().cloned(),
        faults,
        watchdog,
        config,
        &mut scratch,
        Some(instruments),
    )?;
    r.latencies = std::mem::take(&mut scratch.latencies);
    Ok(r)
}

/// Run `prog` over a lazily produced packet stream, reusing `scratch`
/// arenas across calls — the sweep hot path: no trace materialization,
/// O(1) allocations per run.
///
/// `packets` must yield arrivals in non-decreasing timestamp order
/// ([`Trace`] iteration and [`clara_workload::TraceStream`] both
/// guarantee this); regressions are clamped to the running maximum,
/// exactly as [`Trace::push`] would have clamped them, so streaming a
/// generator is bit-identical to materializing it first.
///
/// Per-packet latencies are left in the scratch
/// ([`SimScratch::latencies`]); [`SimResult::latencies`] comes back
/// empty so the run allocates nothing per packet.
pub fn simulate_streamed<I>(
    nic: &Lnic,
    prog: &NicProgram,
    packets: I,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> Result<SimResult, SimError>
where
    I: IntoIterator<Item = TracePacket>,
{
    run_sim(nic, prog, packets.into_iter(), faults, watchdog, config, scratch, None)
}

/// [`simulate_streamed`] with a [`SimInstruments`] attached — the sweep
/// hot path with telemetry: O(1) allocations per run plus whatever the
/// timeline records.
#[allow(clippy::too_many_arguments)]
pub fn simulate_streamed_instrumented<I>(
    nic: &Lnic,
    prog: &NicProgram,
    packets: I,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
    instruments: &mut SimInstruments,
) -> Result<SimResult, SimError>
where
    I: IntoIterator<Item = TracePacket>,
{
    run_sim(nic, prog, packets.into_iter(), faults, watchdog, config, scratch, Some(instruments))
}

#[allow(clippy::too_many_arguments)]
fn run_sim<I: Iterator<Item = TracePacket>>(
    nic: &Lnic,
    prog: &NicProgram,
    mut packets: I,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
    mut instruments: Option<&mut SimInstruments>,
) -> Result<SimResult, SimError> {
    prog.validate().map_err(SimError::BadProgram)?;
    let SimScratch {
        latencies,
        completions,
        select,
        stage_totals,
        pending,
        threads,
        classes,
        fixed_memo,
        payload_memo,
        rows,
        batch: batch_scratch,
        shared_costs,
    } = scratch;

    let mut mem = MemorySim::new(nic);

    let emem = nic.memory_named("emem").or_else(|| {
        nic.memories()
            .iter()
            .position(|m| m.kind == MemKind::External)
            .map(MemId)
    });
    if faults.disable_emem_cache {
        if let Some(e) = emem {
            mem.disable_cache(e);
        }
    }

    // Resolve accelerators once; offline engines are simply absent.
    let mut accels: [Option<AccelRt>; 4] = [None, None, None, None];
    for kind in AccelKind::ALL {
        if faults.is_offline(kind) {
            continue;
        }
        if let Some(&u) = nic.accelerators(kind).first() {
            accels[kind as usize] = Some(AccelRt { curve: nic.unit(u).cost.accel, free_at: 0 });
        }
    }
    // Flow-cache engine probe cost, fixed for the whole run.
    let fc_engine_cycles = accels[AccelKind::FlowCache as usize]
        .as_ref()
        .and_then(|a| a.curve.map(|c| c.service_cycles(0)))
        .unwrap_or(40);
    // Packets whose program calls an offline engine cannot be serviced;
    // they are dropped at ingress (and counted), never a panic. The flow
    // cache is excluded: its loss degrades table lookups instead.
    let offline_required = prog
        .required_accels()
        .iter()
        .any(|&k| faults.is_offline(k) && !nic.accelerators(k).is_empty());

    // Resolve tables.
    let fc_region_capacity = nic
        .memory_named("flowcache-sram")
        .map(|m| nic.memory(m).capacity as u64);
    let mut tables: Vec<TableRt> = Vec::with_capacity(prog.tables.len());
    for cfg in &prog.tables {
        let mem_id = nic
            .memory_named(&cfg.mem)
            .ok_or_else(|| SimError::UnknownRegion(cfg.mem.clone()))?;
        let base = mem.alloc(mem_id, cfg.size_bytes() as u64);
        let fc = if cfg.use_flow_cache && faults.is_offline(AccelKind::FlowCache) {
            // Outage: lookups fall back to the backing memory (degraded
            // latency, not an error).
            None
        } else if cfg.use_flow_cache {
            if accels[AccelKind::FlowCache as usize].is_none() {
                return Err(SimError::MissingAccelerator("flow-cache".into()));
            }
            let cap = fc_region_capacity
                .map(|c| (c / cfg.entry_bytes.max(1) as u64).max(64))
                .unwrap_or(32_768)
                .min(1 << 20);
            // Entry-granular cache: line = 1 "byte" = 1 entry.
            Some(Cache::new(cap as usize, 1, 4))
        } else {
            None
        };
        tables.push(TableRt {
            mem: mem_id,
            base,
            entry_bytes: cfg.entry_bytes.max(1) as u64,
            entries: cfg.entries.max(1),
            fc,
        });
    }

    // Threads. Packet residence is the thread's own-island CTM, falling
    // back to any cluster SRAM; resolve it here, once per unit.
    let fallback_ctm = nic
        .memories()
        .iter()
        .position(|m| m.kind == MemKind::ClusterSram)
        .map(MemId);
    threads.clear();
    // Island → CTM resolution, memoized so the per-unit loop formats no
    // region names (units share a handful of islands).
    let mut island_ctm: Vec<Option<Option<MemId>>> = Vec::new();
    for (i, u) in nic.units().iter().enumerate() {
        if u.class == ComputeClass::GeneralCore {
            let ctm = match u.island {
                Some(isl) => {
                    if isl >= island_ctm.len() {
                        island_ctm.resize(isl + 1, None);
                    }
                    island_ctm[isl]
                        .get_or_insert_with(|| nic.memory_named(&format!("ctm{isl}")))
                        .or(fallback_ctm)
                }
                None => fallback_ctm,
            };
            for _ in 0..u.threads {
                threads.push(ThreadRt { unit: UnitId(i), ctm, free_at: 0 });
            }
        }
    }
    // Fault injection: wedged threads are unavailable for dispatch.
    if faults.dead_threads > 0 {
        let keep = threads.len().saturating_sub(faults.dead_threads);
        threads.truncate(keep);
    }
    if threads.is_empty() {
        return Err(SimError::NoThreads);
    }

    // Observation-only setup. Everything below this block feeds the
    // optional SimInstruments and never flows back into costs, so the
    // uninstrumented path pays a single `is_some()` check per packet.
    let mut probes: Option<[AccelProbe; 4]> =
        instruments.is_some().then(<[AccelProbe; 4]>::default);
    let mut thread_island: Vec<usize> = Vec::new();
    let mut island_busy: Vec<u64> = Vec::new();
    let mut island_threads: Vec<u64> = Vec::new();
    if instruments.is_some() {
        for t in threads.iter() {
            let isl = nic.unit(t.unit).island.unwrap_or(0);
            if isl >= island_busy.len() {
                island_busy.resize(isl + 1, 0);
                island_threads.resize(isl + 1, 0);
            }
            thread_island.push(isl);
            island_threads[isl] += 1;
        }
    }
    // Stage unit labels, precomputed only when a timeline will use them.
    let stage_unit_labels: Vec<String> =
        if instruments.as_ref().is_some_and(|i| i.timeline.is_some()) {
            prog.stages
                .iter()
                .map(|s| match s.unit {
                    StageUnit::Npu => "npu".to_string(),
                    StageUnit::Accel(kind) => kind.to_string(),
                })
                .collect()
        } else {
            Vec::new()
        };

    // Hubs: first hub is ingress, second (if any) egress.
    let ingress = nic.hubs().first();
    let egress = nic.hubs().get(1).or(ingress);
    let ingress_capacity = faults
        .ingress_capacity
        .unwrap_or_else(|| ingress.map(|h| h.queue_capacity).unwrap_or(usize::MAX));

    let freq = nic.freq_ghz;
    let to_cycles = |ns: u64| -> u64 { (ns as f64 * freq).round() as u64 };

    // Fault stalls are per-stage constants; resolve them once.
    let stage_stalls: Vec<u64> =
        prog.stages.iter().map(|s| faults.accel_stall_for(&s.unit)).collect();

    // Memoization classes are decided once per run, after faults have
    // been applied to the memory system (a disabled EMEM cache makes its
    // tables signature-pure). Memo tables are cleared — signatures are
    // only valid within one (nic, program, faults) combination — but keep
    // their capacity.
    classes.clear();
    if config.memoize {
        classes.extend(prog.stages.iter().map(|s| classify_stage(s, &tables, &mem)));
    } else {
        classes.extend(prog.stages.iter().map(|_| StageClass::Live));
    }
    fixed_memo.clear();
    payload_memo.clear();

    // Shared cost-cache view: resolved once per run from the post-fault
    // fingerprint, consulted only when the run-local memo misses. The
    // counters tally *shared-layer* resolutions (a hit is a local miss
    // answered by the cache; a miss had to be computed), so they measure
    // cross-run reuse, not per-packet replays.
    let shared_view: Option<Arc<CostView>> = match shared_costs {
        Some(cache) if classes.iter().any(|c| *c != StageClass::Live) => Some(cache.view(
            &run_fingerprint(nic, prog, &mem, &tables, emem, &stage_stalls, fc_engine_cycles),
        )),
        _ => None,
    };
    let mut memo_hits = 0u64;
    let mut memo_misses = 0u64;

    latencies.clear();
    completions.clear();
    stage_totals.clear();
    stage_totals.resize(prog.stages.len(), 0u64);
    pending.clear();
    let mut dropped = 0usize;
    let mut accel_drops = 0usize;
    let mut corrupt_drops = 0usize;
    let mut truncated = 0usize;
    let mut busy_cycles = 0u64;
    let mut offered = 0usize;
    let mut last_arrival = 0u64;
    let mut fc_hits = 0u64;
    let mut fc_misses = 0u64;
    let pkt_limit = watchdog.packet_limit();
    let total_limit = watchdog.total_limit();

    // Batched struct-of-arrays path: when every stage is signature-pure
    // and nothing per-packet needs the scalar replay (no stage timeline,
    // no per-packet cache thrash), the whole trace is ingested into
    // column arenas and evaluated per (unit-group, payload-length) class
    // instead of per packet. Any run the kernel cannot reproduce exactly
    // falls back to the scalar loop below, replayed over the same rows.
    let mut batch_packets = 0u64;
    let mut island_packets = 0u64;
    let mut partial_packets = 0u64;
    let all_pure = classes.iter().all(|c| *c != StageClass::Live);
    let any_pure = classes.iter().any(|c| *c != StageClass::Live);
    let no_timeline = instruments.as_ref().is_none_or(|i| i.timeline.is_none());
    let batchable = config.batch && all_pure && !faults.thrash_emem_cache && no_timeline;
    // Partial-run batching: Live stages no longer poison the whole run.
    // Pure stages are costed once per (unit-group, payload-length) class
    // and the genuinely history-coupled stages are replayed per packet in
    // an exact sequential merge — so the partial kernel, unlike the full
    // one, tolerates cache-thrash faults and never needs a fallback.
    let partially_batchable = config.batch && any_pure && !all_pure && no_timeline;
    enum Source<'r, I> {
        Live(I),
        Rows(std::slice::Iter<'r, TracePacket>),
    }
    impl<I: Iterator<Item = TracePacket>> Iterator for Source<'_, I> {
        type Item = TracePacket;
        fn next(&mut self) -> Option<TracePacket> {
            match self {
                Source::Live(i) => i.next(),
                Source::Rows(r) => r.next().cloned(),
            }
        }
    }
    let source;
    if batchable || partially_batchable {
        if partially_batchable {
            // The partial kernel replays per-packet state, so it wants
            // the rows materialized up front. The full kernel ingests
            // inside its own fused column pass instead.
            rows.clear();
            for (idx, tp) in packets.by_ref().enumerate() {
                // Same supervision cadence the scalar loop polls at.
                if idx % DEADLINE_STRIDE == 0 && watchdog.expired() {
                    return Err(SimError::TimedOut);
                }
                rows.push(tp);
            }
        }
        let run = crate::batch::BatchRun {
            nic,
            prog,
            faults,
            watchdog,
            rows: &mut *rows,
            emem,
            fc_engine_cycles,
            offline_required,
            ingress_lat: ingress.map(|h| h.latency).unwrap_or(0),
            egress_lat: egress.map(|h| h.latency).unwrap_or(0),
            ingress_capacity,
            stage_stalls: &stage_stalls,
            freq,
            pkt_limit,
            total_limit,
            use_islands: config.islands,
            classes: &classes[..],
            shared: shared_view.as_deref(),
            memo_hits: &mut memo_hits,
            memo_misses: &mut memo_misses,
            mem: &mut mem,
            tables: &mut tables,
            accels: &mut accels,
            threads: &mut threads[..],
            pending: &mut *pending,
            latencies: &mut *latencies,
            completions: &mut *completions,
            stage_totals: &mut stage_totals[..],
            fc_hits: &mut fc_hits,
            fc_misses: &mut fc_misses,
            scratch: &mut *batch_scratch,
            thread_island: &thread_island,
            island_busy: &mut island_busy,
            instrumented: instruments.is_some(),
            probes: probes.as_mut(),
        };
        let outcome = if batchable {
            crate::batch::run_batched(run, packets)?
        } else {
            // The partial kernel replays per-packet state exactly, so it
            // never refuses a run the way the full kernel can.
            Some(crate::batch::run_partial(run)?)
        };
        match outcome {
            Some(tally) => {
                offered = tally.offered;
                dropped = tally.overflow_drops;
                accel_drops = tally.accel_drops;
                corrupt_drops = tally.corrupt_drops;
                truncated = tally.truncated;
                busy_cycles = tally.busy_cycles;
                batch_packets = tally.batch_packets;
                island_packets = tally.island_packets;
                partial_packets = tally.partial_packets;
                // Outputs are already in the arenas; the scalar loop
                // below sees an empty source and falls through.
                source = Source::Rows(std::slice::Iter::default());
            }
            None => {
                // Fallback: the kernel refused the run (ingress-queue
                // overflow, cycle counts near saturation). Reset every
                // piece of state the attempt touched and replay the
                // exact scalar loop over the ingested rows. Rare by
                // construction; fidelity beats speed here.
                mem = MemorySim::new(nic);
                if faults.disable_emem_cache {
                    if let Some(e) = emem {
                        mem.disable_cache(e);
                    }
                }
                for (t, cfg) in tables.iter_mut().zip(&prog.tables) {
                    t.base = mem.alloc(t.mem, cfg.size_bytes() as u64);
                }
                for t in threads.iter_mut() {
                    t.free_at = 0;
                }
                for b in island_busy.iter_mut() {
                    *b = 0;
                }
                latencies.clear();
                completions.clear();
                for s in stage_totals.iter_mut() {
                    *s = 0;
                }
                pending.clear();
                fc_hits = 0;
                fc_misses = 0;
                // Shared-layer tallies restart with the replay; values the
                // refused attempt already published stay valid (pure costs
                // are fingerprint-determined) and will be re-resolved.
                memo_hits = 0;
                memo_misses = 0;
                source = Source::Rows(rows.iter());
            }
        }
    } else {
        source = Source::Live(packets);
    }

    for (pkt_idx, tp) in source.enumerate() {
        offered += 1;
        // Wall-clock supervision is polled on a stride: cheap enough to
        // leave on for every run, fine-grained enough that a cancelled
        // simulation stops within ~a thousand packets.
        if pkt_idx % DEADLINE_STRIDE == 0 && watchdog.expired() {
            return Err(SimError::TimedOut);
        }
        // Arrivals from a Trace or TraceStream are already monotone; the
        // clamp is a no-op there and makes raw iterators behave as if
        // they had been materialized through Trace::push first.
        let arrival = to_cycles(tp.ts_ns).max(last_arrival);
        last_arrival = arrival;

        // Fault injection: corrupt frames fail the ingress CRC check and
        // are discarded before queueing.
        if faults.corrupt_every > 0 && (pkt_idx as u64 + 1).is_multiple_of(faults.corrupt_every) {
            corrupt_drops += 1;
            continue;
        }
        // Fault injection: a packet that needs an offline engine cannot
        // be serviced — discard it instead of wedging a thread.
        if offline_required {
            accel_drops += 1;
            continue;
        }

        // Ingress queue: packets that arrived earlier but have not started.
        while pending.peek().is_some_and(|&Reverse(s)| s <= arrival) {
            pending.pop();
        }
        if pending.len() >= ingress_capacity {
            dropped += 1;
            continue;
        }

        // RSS-style dispatch: a flow is pinned to a thread by its hash
        // (packets of one flow must not be reordered). Skewed flows
        // therefore concentrate on hot threads, as on real hardware.
        let flow_hash = tp.spec.flow.hash64();
        let tid = (mix(flow_hash ^ 0x5a5a) % threads.len() as u64) as usize;
        let start = arrival.max(threads[tid].free_at);
        // Only future starts can ever occupy the queue: arrivals are
        // monotone, so an entry with `start <= arrival` would be drained
        // by the pop loop above before any later capacity check could see
        // it. Skipping the push is therefore exact, and in the unloaded
        // case the heap stays empty entirely.
        if start > arrival {
            pending.push(Reverse(start));
        }
        let unit = threads[tid].unit;
        let ctm = threads[tid].ctm;

        let mut payload_len = tp.spec.payload_len as u64;
        let mut wire_len = tp.spec.wire_len() as u64;
        // Fault injection: truncated frames keep only a runt payload; the
        // program still runs, over the bytes that actually arrived.
        if faults.truncate_every > 0 && (pkt_idx as u64 + 1).is_multiple_of(faults.truncate_every) {
            truncated += 1;
            let headers = wire_len.saturating_sub(payload_len);
            payload_len = payload_len.min(TRUNCATED_PAYLOAD_BYTES);
            wire_len = headers + payload_len;
        }
        let payload_seed = tp.spec.payload_seed;

        // Fault injection: a co-tenant wipes the EMEM cache between
        // packets, so no working set survives.
        if faults.thrash_emem_cache {
            if let Some(e) = emem {
                mem.flush_cache(e);
            }
        }

        let mut cur = start + ingress.map(|h| h.latency).unwrap_or(0);
        let mut pkt_cycles = 0u64;
        for (si, stage) in prog.stages.iter().enumerate() {
            // Signature memoization: a pure stage's cost is computed once
            // per (stage, unit[, payload]) signature by the exact code
            // path below, then replayed — bit-identical by construction.
            let memo_hit = match classes[si] {
                StageClass::Fixed => fixed_memo.get(&(si as u32, unit.0 as u32)).copied(),
                StageClass::PayloadPure => {
                    payload_memo.get(&(si as u32, unit.0 as u32, payload_len)).copied()
                }
                StageClass::Live => None,
            };
            let cost = match memo_hit {
                Some(c) => c,
                None => {
                    // Run-local miss: resolve against the shared cache
                    // (when attached) before computing. Shared values were
                    // produced by this exact path under an equal
                    // fingerprint, so replaying them is bit-identical.
                    let pure = classes[si] != StageClass::Live;
                    let shared_hit = if pure {
                        shared_view.as_deref().and_then(|v| match classes[si] {
                            StageClass::Fixed => v.get_fixed(si as u32, unit.0 as u32),
                            StageClass::PayloadPure => {
                                v.get_payload(si as u32, unit.0 as u32, payload_len)
                            }
                            StageClass::Live => None,
                        })
                    } else {
                        None
                    };
                    let c = match shared_hit {
                        Some(c) => {
                            memo_hits += 1;
                            c
                        }
                        None => {
                            let c = stage_cost(
                                nic,
                                &mut mem,
                                &mut tables,
                                &mut accels,
                                stage,
                                unit,
                                ctm,
                                cur,
                                payload_len,
                                wire_len,
                                flow_hash,
                                payload_seed,
                                emem,
                                &mut fc_hits,
                                &mut fc_misses,
                                fc_engine_cycles,
                                stage_stalls[si],
                                probes.as_mut(),
                            )?;
                            if pure {
                                memo_misses += 1;
                                if let Some(v) = shared_view.as_deref() {
                                    match classes[si] {
                                        StageClass::Fixed => {
                                            v.put_fixed(si as u32, unit.0 as u32, c)
                                        }
                                        StageClass::PayloadPure => {
                                            v.put_payload(si as u32, unit.0 as u32, payload_len, c)
                                        }
                                        StageClass::Live => {}
                                    }
                                }
                            }
                            c
                        }
                    };
                    match classes[si] {
                        StageClass::Fixed => {
                            fixed_memo.insert((si as u32, unit.0 as u32), c);
                        }
                        StageClass::PayloadPure => {
                            payload_memo.insert((si as u32, unit.0 as u32, payload_len), c);
                        }
                        StageClass::Live => {}
                    }
                    c
                }
            };
            // Saturating accumulation: an adversarial stage can produce
            // costs near u64::MAX; the watchdog must see "huge", not a
            // wrapped-around small number.
            pkt_cycles = pkt_cycles.saturating_add(cost);
            if pkt_cycles > pkt_limit {
                return Err(SimError::Watchdog {
                    packet: pkt_idx,
                    stage: stage.name.clone(),
                    cycles: pkt_cycles,
                    limit: pkt_limit,
                });
            }
            stage_totals[si] = stage_totals[si].saturating_add(cost);
            // Timeline: `cur` is the stage's start on the packet's
            // critical path, `cost` its duration — valid for memoized
            // stages too, whose replayed cost is bit-identical.
            if let Some(i) = instruments.as_deref_mut() {
                if let Some(tl) = i.timeline.as_mut() {
                    if tl.wants(pkt_idx as u64) {
                        tl.record(
                            pkt_idx as u64,
                            &stage.name,
                            &stage_unit_labels[si],
                            tid as u32,
                            cur,
                            cost,
                        );
                    }
                }
            }
            cur = cur.saturating_add(cost);
        }
        cur += egress.map(|h| h.latency).unwrap_or(0);

        threads[tid].free_at = cur;
        if instruments.is_some() {
            island_busy[thread_island[tid]] += cur - start;
        }
        busy_cycles = busy_cycles.saturating_add(cur - start);
        if busy_cycles > total_limit {
            return Err(SimError::Watchdog {
                packet: pkt_idx,
                stage: "<run total>".into(),
                cycles: busy_cycles,
                limit: total_limit,
            });
        }
        completions.push(cur);
        latencies.push(cur - arrival);
    }

    // Fold this run's shared-layer tallies into the cache-wide atomics
    // (once per run, not per lookup — the hot loop stays atomics-free).
    if let Some(cache) = shared_costs.as_ref() {
        cache.record(memo_hits, memo_misses);
    }

    // Order statistics via selection instead of a full sort: `latencies`
    // stays in arrival order, so the borrowed `select` scratch is
    // partitioned for p50/p99 and then reused for the completion
    // quartiles — the seed cloned and fully sorted both vectors, an
    // O(packets) allocation per run even outside sweeps.
    let completed = latencies.len();
    select.clear();
    select.extend_from_slice(latencies);
    let (avg, p50, p99, max_lat) = if completed == 0 {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        let avg = latencies.iter().sum::<u64>() as f64 / completed as f64;
        let idx = |p: f64| ((completed - 1) as f64 * p) as usize;
        let (i50, i99) = (idx(0.5), idx(0.99));
        let (below, v99, _) = select.select_nth_unstable(i99);
        let p99 = *v99;
        let p50 = if i50 == i99 { p99 } else { *below.select_nth_unstable(i50).1 };
        let max = *latencies.iter().max().unwrap();
        (avg, p50 as f64, p99 as f64, max as f64)
    };
    // Output rate over the interquartile completion window: unbiased by
    // the initial pipeline fill, the final drain, and single-packet tails.
    let (lo, hi) = (completions.len() / 4, completions.len() * 3 / 4);
    let (span_cycles, span_count) = if completions.is_empty() {
        (0, 0.0)
    } else {
        select.clear();
        select.extend_from_slice(completions);
        let (below, hi_v, _) = select.select_nth_unstable(hi);
        let hi_v = *hi_v;
        let lo_v = if lo == hi { hi_v } else { *below.select_nth_unstable(lo).1 };
        if hi > lo && hi_v > lo_v {
            (hi_v - lo_v, (hi - lo) as f64)
        } else {
            let min = *completions.iter().min().unwrap();
            let max = *completions.iter().max().unwrap();
            (max - min, completions.len().saturating_sub(1) as f64)
        }
    };
    let span_secs = nic.cycles_to_ns(span_cycles as f64) * 1e-9;

    // Assemble telemetry. Every counter mirrors a local the result is
    // built from (or a read-only probe of run state), so conservation —
    // injected == completed + drops by cause — is structural.
    if let Some(instr) = instruments {
        let trips = instr.stats.watchdog_trips;
        let accel_stats: Vec<AccelStats> = probes
            .take()
            .map(|probes| {
                AccelKind::ALL
                    .iter()
                    .zip(probes.iter())
                    .filter(|(_, p)| p.calls > 0)
                    .map(|(kind, p)| AccelStats {
                        name: kind.to_string(),
                        calls: p.calls,
                        busy_cycles: p.busy_cycles,
                        hol_stall_cycles: p.hol_stall_cycles,
                        queue_highwater: p.queue_highwater,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let accel_calls: u64 = accel_stats.iter().map(|a| a.calls).sum();
        // Fabric traffic: accesses to shared (non-island) memory levels
        // plus accelerator invocations. Cross-island CTM reads ride the
        // same fabric but are not separable from local ones here.
        let shared_accesses: u64 = nic
            .memories()
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                matches!(m.kind, MemKind::Internal | MemKind::External | MemKind::HostDram)
            })
            .map(|(i, _)| mem.access_count(MemId(i)))
            .sum();
        let (emem_hits, emem_misses) = emem.and_then(|e| mem.cache_stats(e)).unwrap_or((0, 0));
        instr.stats = SimStats {
            injected: offered as u64,
            completed: completed as u64,
            truncated: truncated as u64,
            overflow_drops: dropped as u64,
            fault_corrupt_drops: corrupt_drops as u64,
            fault_accel_drops: accel_drops as u64,
            watchdog_trips: trips,
            batch_packets,
            island_packets,
            batch_partial_packets: partial_packets,
            memo_hits,
            memo_misses,
            islands: island_busy
                .iter()
                .zip(island_threads.iter())
                .enumerate()
                .map(|(i, (&busy, &thr))| IslandStats {
                    island: i,
                    threads: thr,
                    busy_cycles: busy,
                })
                .collect(),
            mem_levels: nic
                .memories()
                .iter()
                .enumerate()
                .map(|(i, m)| MemLevelStats {
                    name: m.name.clone(),
                    accesses: mem.access_count(MemId(i)),
                })
                .collect(),
            emem_cache_hits: emem_hits,
            emem_cache_misses: emem_misses,
            accels: accel_stats,
            switch_transfers: shared_accesses + accel_calls,
            span_cycles: completions.iter().copied().max().unwrap_or(0),
        };
    }

    Ok(SimResult {
        packets: offered,
        completed,
        dropped,
        accel_drops,
        corrupt_drops,
        truncated,
        avg_latency_cycles: avg,
        p50_latency_cycles: p50,
        p99_latency_cycles: p99,
        max_latency_cycles: max_lat,
        avg_latency_ns: nic.cycles_to_ns(avg),
        achieved_pps: if span_secs > 0.0 { span_count / span_secs } else { 0.0 },
        per_stage_cycles: prog
            .stages
            .iter()
            .zip(stage_totals.iter())
            .map(|(s, &t)| {
                (s.name.clone(), if completed == 0 { 0.0 } else { t as f64 / completed as f64 })
            })
            .collect(),
        flow_cache: (fc_hits, fc_misses),
        emem_cache: emem.and_then(|e| mem.cache_stats(e)),
        energy_mj: busy_cycles as f64 * nic.nj_per_cycle * 1e-6,
        // The streamed path leaves per-packet latencies in the scratch
        // (`SimScratch::latencies`); `simulate_configured` moves them in.
        latencies: Vec::new(),
    })
}

/// splitmix64 — deterministic address scrambling.
pub(crate) fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_cost(
    nic: &Lnic,
    mem: &mut MemorySim,
    tables: &mut [TableRt],
    accels: &mut [Option<AccelRt>; 4],
    stage: &Stage,
    unit: UnitId,
    ctm: Option<MemId>,
    stage_start: u64,
    payload_len: u64,
    wire_len: u64,
    flow_hash: u64,
    payload_seed: u8,
    emem: Option<MemId>,
    fc_hits: &mut u64,
    fc_misses: &mut u64,
    fc_engine_cycles: u64,
    accel_stall: u64,
    probes: Option<&mut [AccelProbe; 4]>,
) -> Result<u64, SimError> {
    match stage.unit {
        StageUnit::Accel(kind) => {
            let accel = accels[kind as usize]
                .as_mut()
                .ok_or_else(|| SimError::MissingAccelerator(kind.to_string()))?;
            let curve = accel.curve.unwrap_or(AccelCost {
                base: 100,
                per_byte: 0.5,
                queue_capacity: 32,
            });
            let mut probe = probes.map(|p| &mut p[kind as usize]);
            let mut total = 0u64;
            let mut server_free = accel.free_at;
            for op in &stage.ops {
                let MicroOp::AccelCall { bytes } = op else { continue };
                let n = bytes.resolve(payload_len, wire_len);
                // A wedged engine stalls for extra cycles on every call.
                let service = curve.service_cycles(n as usize) + accel_stall;
                let submit = stage_start + total;
                let begin = submit.max(server_free);
                let wait = begin - submit;
                server_free = begin + service;
                if let Some(p) = probe.as_deref_mut() {
                    p.calls += 1;
                    p.busy_cycles += service;
                    p.hol_stall_cycles += wait;
                    // Queue depth at submission: earlier calls not yet
                    // drained, plus this one (the entry in service
                    // counts).
                    while p.inflight.front().is_some_and(|&t| t <= submit) {
                        p.inflight.pop_front();
                    }
                    p.inflight.push_back(begin + service);
                    p.queue_highwater = p.queue_highwater.max(p.inflight.len() as u64);
                }
                total += wait + service;
            }
            accel.free_at = server_free;
            Ok(total)
        }
        StageUnit::Npu => {
            let mut total = 0u64;
            for op in &stage.ops {
                total = total.saturating_add(npu_op_cost(
                    nic,
                    mem,
                    tables,
                    op,
                    unit,
                    ctm,
                    payload_len,
                    flow_hash,
                    payload_seed,
                    emem,
                    fc_hits,
                    fc_misses,
                    fc_engine_cycles,
                ));
            }
            Ok(total)
        }
    }
}

/// Cost of a single NPU micro-op — the body of [`stage_cost`]'s NPU
/// arm, split out so the partial batch kernel can cost a Live stage's
/// pure ops once per class while replaying only its flow-cache ops per
/// packet. A saturating sum of these per-op costs in any association
/// equals `min(true_sum, u64::MAX)`, i.e. exactly the scalar in-order
/// chain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn npu_op_cost(
    nic: &Lnic,
    mem: &mut MemorySim,
    tables: &mut [TableRt],
    op: &MicroOp,
    unit: UnitId,
    ctm: Option<MemId>,
    payload_len: u64,
    flow_hash: u64,
    payload_seed: u8,
    emem: Option<MemId>,
    fc_hits: &mut u64,
    fc_misses: &mut u64,
    fc_engine_cycles: u64,
) -> u64 {
    let u = nic.unit(unit);
    let cost = &u.cost;
    let has_fpu = u.has_fpu;
    match op {
        MicroOp::Compute { cycles } => *cycles,
        MicroOp::ParseHeader => cost.parse_header,
        MicroOp::MetadataMod { count } => count * cost.metadata_mod,
        MicroOp::Hash { count } => count * cost.hash,
        MicroOp::TableLookup { table } => {
            table_access(mem, &mut tables[*table], unit, flow_hash, false, fc_hits, fc_misses, fc_engine_cycles)
        }
        MicroOp::TableWrite { table } => {
            table_access(mem, &mut tables[*table], unit, flow_hash, true, fc_hits, fc_misses, fc_engine_cycles)
        }
        MicroOp::CounterUpdate { table } => {
            let t = &mut tables[*table];
            let bucket = mix(flow_hash) % t.entries;
            let addr = t.base + bucket * t.entry_bytes;
            let read = mem.access(unit, t.mem, addr, 8);
            let write = mem.access(unit, t.mem, addr, 8);
            read + write + 2 * cost.alu
        }
        MicroOp::LinearScan { table } => {
            let t = &tables[*table];
            let size = t.entries * t.entry_bytes;
            let walk = mem.access(unit, t.mem, t.base, size);
            walk + t.entries * 2 * cost.alu
        }
        MicroOp::StreamPayload { table, loop_overhead } => {
            // Saturating: `loop_overhead × payload_len` is the
            // program's knob, and a hostile program can push the
            // product past u64. Saturation keeps the cost "huge"
            // so the watchdog trips, instead of wrapping to a
            // small number (or panicking in debug builds).
            let mut cycles = cost
                .stream_cycles(payload_len as usize)
                .saturating_add(loop_overhead.saturating_mul(payload_len));
            cycles = cycles.saturating_add(residence_cost(mem, unit, ctm, emem, payload_len));
            if let Some(ti) = table {
                // Per-byte automaton transition: a dependent
                // random access into the transition table.
                let t = &tables[*ti];
                let mut state = flow_hash;
                for i in 0..payload_len {
                    let byte = payload_seed.wrapping_add(i as u8) as u64;
                    // Full-avalanche state evolution: a DFA
                    // over a large automaton visits distinct
                    // transitions, not a short cycle.
                    state = mix(state ^ byte ^ (i << 32));
                    let idx = state % t.entries;
                    let addr = t.base + idx * t.entry_bytes;
                    cycles =
                        cycles.saturating_add(mem.access(unit, t.mem, addr, t.entry_bytes.min(8)));
                }
            }
            cycles
        }
        MicroOp::ChecksumSw => {
            let bytes = payload_len + 40;
            cost.stream_cycles(bytes as usize) + residence_cost(mem, unit, ctm, emem, bytes)
        }
        MicroOp::AccelCall { .. } => unreachable!("validated"),
        MicroOp::FloatOps { count } => {
            count * if has_fpu { cost.float_native } else { cost.float_emulation }
        }
    }
}

/// Bulk cost of streaming `bytes` of packet data from its residence
/// (CTM, spilling to EMEM past the residency threshold).
fn residence_cost(
    mem: &MemorySim,
    unit: UnitId,
    ctm: Option<MemId>,
    emem: Option<MemId>,
    bytes: u64,
) -> u64 {
    let head = bytes.min(CTM_RESIDENCY_BYTES);
    let tail = bytes.saturating_sub(CTM_RESIDENCY_BYTES);
    let mut total = 0u64;
    if let Some(c) = ctm {
        total += mem.raw_latency(unit, c) + (mem.bulk_per_byte(c) * head as f64).round() as u64;
    }
    if tail > 0 {
        if let Some(e) = emem {
            total +=
                mem.raw_latency(unit, e) + (mem.bulk_per_byte(e) * tail as f64).round() as u64;
        }
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn table_access(
    mem: &mut MemorySim,
    t: &mut TableRt,
    unit: UnitId,
    flow_hash: u64,
    is_write: bool,
    fc_hits: &mut u64,
    fc_misses: &mut u64,
    fc_engine_cycles: u64,
) -> u64 {
    let overhead = 4; // hash/index arithmetic on the core
    if let Some(fc) = &mut t.fc {
        let hit = fc.access(mix(flow_hash));
        if hit && !is_write {
            *fc_hits += 1;
            return fc_engine_cycles + overhead;
        }
        if hit {
            *fc_hits += 1;
        } else {
            *fc_misses += 1;
        }
        // Miss (or write-through): engine probe + backing access.
        let bucket = mix(flow_hash) % t.entries;
        let addr = t.base + bucket * t.entry_bytes;
        return fc_engine_cycles + mem.access(unit, t.mem, addr, t.entry_bytes) + overhead;
    }
    let bucket = mix(flow_hash) % t.entries;
    let addr = t.base + bucket * t.entry_bytes;
    mem.access(unit, t.mem, addr, t.entry_bytes) + overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BytesSpec, TableCfg};
    use clara_lnic::profiles;
    use clara_workload::{SizeDist, TraceGenerator};

    fn nic() -> Lnic {
        profiles::netronome_agilio_cx40()
    }

    fn trace(packets: usize) -> Trace {
        TraceGenerator::new(7)
            .packets(packets)
            .flows(100)
            .sizes(SizeDist::Fixed(300))
            .syn_on_first(false)
            .generate()
    }

    fn npu_stage(ops: Vec<MicroOp>) -> NicProgram {
        NicProgram {
            name: "test".into(),
            tables: vec![],
            stages: vec![Stage { name: "s".into(), unit: StageUnit::Npu, ops }],
        }
    }

    #[test]
    fn echo_latency_is_parse_plus_hubs() {
        let prog = npu_stage(vec![MicroOp::ParseHeader]);
        let r = simulate(&nic(), &prog, &trace(100)).unwrap();
        assert_eq!(r.completed, 100);
        // 150 parse + 50 ingress + 50 egress = 250, no queueing at 60kpps.
        assert!((r.avg_latency_cycles - 250.0).abs() < 1.0, "{}", r.avg_latency_cycles);
    }

    #[test]
    fn checksum_accelerator_beats_software() {
        let nic = nic();
        let sw = npu_stage(vec![MicroOp::ChecksumSw]);
        let hw = NicProgram {
            name: "hw".into(),
            tables: vec![],
            stages: vec![Stage {
                name: "ck".into(),
                unit: StageUnit::Accel(AccelKind::Checksum),
                ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Frame }],
            }],
        };
        let t = TraceGenerator::new(1)
            .packets(200)
            .sizes(SizeDist::Fixed(960))
            .syn_on_first(false)
            .generate();
        let r_sw = simulate(&nic, &sw, &t).unwrap();
        let r_hw = simulate(&nic, &hw, &t).unwrap();
        // §2.1: software pays ~1700 extra cycles per 1000 B for memory.
        assert!(
            r_sw.avg_latency_cycles > r_hw.avg_latency_cycles + 1200.0,
            "sw {} vs hw {}",
            r_sw.avg_latency_cycles,
            r_hw.avg_latency_cycles
        );
    }

    #[test]
    fn memory_placement_matters() {
        let mk = |region: &str| NicProgram {
            name: "fw".into(),
            tables: vec![TableCfg {
                name: "t".into(),
                mem: region.into(),
                entry_bytes: 16,
                entries: 4096,
                use_flow_cache: false,
            }],
            stages: vec![Stage {
                name: "lookup".into(),
                unit: StageUnit::Npu,
                ops: vec![MicroOp::TableLookup { table: 0 }],
            }],
        };
        let nic = nic();
        let t = trace(500);
        let ctm = simulate(&nic, &mk("ctm0"), &t).unwrap().avg_latency_cycles;
        let imem = simulate(&nic, &mk("imem"), &t).unwrap().avg_latency_cycles;
        let emem = simulate(&nic, &mk("emem"), &t).unwrap().avg_latency_cycles;
        // A small hot table: CTM is cheapest. The EMEM *cache* (150 cyc)
        // legitimately beats flat IMEM (250 cyc) once the working set is
        // resident — the kind of non-obvious effect §2.1 describes.
        assert!(ctm < imem && ctm < emem, "ctm {ctm} imem {imem} emem {emem}");

        // A large cold working set (64 MB, 20k flows): the EMEM cache
        // stops helping and IMEM would have won if it were big enough.
        let big = NicProgram {
            name: "fw".into(),
            tables: vec![TableCfg {
                name: "t".into(),
                mem: "emem".into(),
                entry_bytes: 64,
                entries: 1 << 20,
                use_flow_cache: false,
            }],
            stages: vec![Stage {
                name: "lookup".into(),
                unit: StageUnit::Npu,
                ops: vec![MicroOp::TableLookup { table: 0 }],
            }],
        };
        let many_flows = TraceGenerator::new(9)
            .packets(2000)
            .flows(20_000)
            .syn_on_first(false)
            .generate();
        let emem_cold = simulate(&nic, &big, &many_flows).unwrap().avg_latency_cycles;
        assert!(emem_cold > imem, "cold emem {emem_cold} vs imem {imem}");
    }

    #[test]
    fn flow_cache_hits_on_skewed_traffic() {
        let mk = |fc: bool| NicProgram {
            name: "lpm".into(),
            tables: vec![TableCfg {
                name: "rules".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries: 10_000,
                use_flow_cache: fc,
            }],
            stages: vec![Stage {
                name: "match".into(),
                unit: StageUnit::Npu,
                ops: vec![MicroOp::LinearScan { table: 0 }],
            }],
        };
        // With the flow cache the lookup is a TableLookup-style hit path;
        // model that variant with TableLookup + fc.
        let cached = NicProgram {
            stages: vec![Stage {
                name: "match".into(),
                unit: StageUnit::Npu,
                ops: vec![MicroOp::TableLookup { table: 0 }],
            }],
            ..mk(true)
        };
        let nic = nic();
        let t = TraceGenerator::new(3)
            .packets(2000)
            .flows(50)
            .syn_on_first(false)
            .generate();
        let scan = simulate(&nic, &mk(false), &t).unwrap();
        let fc = simulate(&nic, &cached, &t).unwrap();
        assert!(
            fc.avg_latency_cycles * 10.0 < scan.avg_latency_cycles,
            "orders of magnitude apart: fc {} vs scan {}",
            fc.avg_latency_cycles,
            scan.avg_latency_cycles
        );
        let (hits, misses) = fc.flow_cache;
        assert!(hits > misses, "hits {hits} misses {misses}");
    }

    #[test]
    fn linear_scan_scales_with_entries() {
        let mk = |entries: u64| NicProgram {
            name: "lpm".into(),
            tables: vec![TableCfg {
                name: "rules".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries,
                use_flow_cache: false,
            }],
            stages: vec![Stage {
                name: "scan".into(),
                unit: StageUnit::Npu,
                ops: vec![MicroOp::LinearScan { table: 0 }],
            }],
        };
        let nic = nic();
        // Enough flows that RSS spreads load over all threads and the
        // measurement stays queueing-free.
        let t = TraceGenerator::new(7)
            .packets(300)
            .flows(5_000)
            .rate_pps(10_000.0)
            .sizes(SizeDist::Fixed(300))
            .syn_on_first(false)
            .generate();
        let small = simulate(&nic, &mk(5_000), &t).unwrap().avg_latency_cycles;
        let large = simulate(&nic, &mk(30_000), &t).unwrap().avg_latency_cycles;
        let ratio = large / small;
        assert!((4.0..8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn payload_spill_to_emem_costs_more() {
        let prog = npu_stage(vec![MicroOp::StreamPayload { table: None, loop_overhead: 0 }]);
        let nic = nic();
        let small = TraceGenerator::new(2)
            .packets(100)
            .sizes(SizeDist::Fixed(1000))
            .syn_on_first(false)
            .generate();
        let big = TraceGenerator::new(2)
            .packets(100)
            .sizes(SizeDist::Fixed(1400))
            .syn_on_first(false)
            .generate();
        let r_small = simulate(&nic, &prog, &small).unwrap().avg_latency_cycles;
        let r_big = simulate(&nic, &prog, &big).unwrap().avg_latency_cycles;
        // 400 extra bytes at EMEM bulk (4.0/B) + EMEM base ≈ 2100 extra,
        // vs only ~780 if the tail stayed in CTM.
        assert!(r_big - r_small > 1500.0, "small {r_small} big {r_big}");
    }

    #[test]
    fn saturation_grows_latency() {
        // One heavy compute stage; drive arrival rate past capacity.
        // Capacity: 3072 threads x 0.8 GHz ≈ 2.5e12 cycle/s; at 1M cycles
        // per packet that saturates near 2.5 Mpps — offer 10 Mpps.
        let prog = npu_stage(vec![MicroOp::Compute { cycles: 1_000_000 }]);
        let nic = nic();
        let slow = TraceGenerator::new(4)
            .packets(20_000)
            .flows(20_000)
            .rate_pps(50_000.0)
            .generate();
        let fast = TraceGenerator::new(4)
            .packets(20_000)
            .flows(20_000)
            .rate_pps(10_000_000.0)
            .generate();
        let r_slow = simulate(&nic, &prog, &slow).unwrap();
        let r_fast = simulate(&nic, &prog, &fast).unwrap();
        // Overload shows up as queueing delay AND ingress-queue drops.
        assert!(
            r_fast.avg_latency_cycles > 1.5 * r_slow.avg_latency_cycles,
            "slow {} fast {}",
            r_slow.avg_latency_cycles,
            r_fast.avg_latency_cycles
        );
        assert_eq!(r_slow.dropped, 0);
        assert!(r_fast.dropped > 0, "expected ingress drops under overload");
        assert!(r_fast.achieved_pps < 9_000_000.0);
    }

    #[test]
    fn accelerator_head_of_line_blocking() {
        let prog = NicProgram {
            name: "crypto".into(),
            tables: vec![],
            stages: vec![Stage {
                name: "aes".into(),
                unit: StageUnit::Accel(AccelKind::Crypto),
                ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Payload }],
            }],
        };
        let nic = nic();
        // 1400-byte payloads: service ~1600 cycles = 2 µs at 0.8 GHz.
        // 600 kpps offered = 1.67 µs spacing -> the single crypto engine
        // saturates and queueing delay accumulates.
        let light = TraceGenerator::new(5)
            .packets(1000)
            .rate_pps(100_000.0)
            .sizes(SizeDist::Fixed(1400))
            .syn_on_first(false)
            .generate();
        let heavy = TraceGenerator::new(5)
            .packets(1000)
            .rate_pps(600_000.0)
            .sizes(SizeDist::Fixed(1400))
            .syn_on_first(false)
            .generate();
        let r_light = simulate(&nic, &prog, &light).unwrap();
        let r_heavy = simulate(&nic, &prog, &heavy).unwrap();
        assert!(
            r_heavy.p99_latency_cycles > 3.0 * r_light.p99_latency_cycles,
            "light p99 {} heavy p99 {}",
            r_light.p99_latency_cycles,
            r_heavy.p99_latency_cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let prog = npu_stage(vec![MicroOp::ParseHeader, MicroOp::Hash { count: 2 }]);
        let nic = nic();
        let t = trace(500);
        let a = simulate(&nic, &prog, &t).unwrap();
        let b = simulate(&nic, &prog, &t).unwrap();
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.energy_mj, b.energy_mj);
    }

    #[test]
    fn instrumented_run_is_bit_identical_and_conserved() {
        let nic = nic();
        // A cached EMEM table and an accelerator stage so every counter
        // family has traffic; a fault plan so drops have causes.
        let prog = NicProgram {
            name: "dpi".into(),
            tables: vec![TableCfg {
                name: "t".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries: 4096,
                use_flow_cache: false,
            }],
            stages: vec![
                Stage {
                    name: "lookup".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::ParseHeader, MicroOp::TableLookup { table: 0 }],
                },
                Stage {
                    name: "ck".into(),
                    unit: StageUnit::Accel(AccelKind::Checksum),
                    ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Frame }],
                },
            ],
        };
        let t = trace(800);
        let faults = FaultPlan { corrupt_every: 7, ..FaultPlan::none() };
        let wd = Watchdog::default();
        let cfg = SimConfig::default();
        let plain = simulate_configured(&nic, &prog, &t, &faults, &wd, &cfg).unwrap();
        let mut instr = SimInstruments::with_timeline(5);
        let seen = simulate_instrumented(&nic, &prog, &t, &faults, &wd, &cfg, &mut instr).unwrap();

        // Telemetry never perturbs results.
        assert_eq!(plain.latencies, seen.latencies);
        assert_eq!(plain.energy_mj.to_bits(), seen.energy_mj.to_bits());
        assert_eq!(plain.emem_cache, seen.emem_cache);

        // Counters mirror the result and conserve packets by cause.
        let s = &instr.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.injected, seen.packets as u64);
        assert_eq!(s.completed, seen.completed as u64);
        assert_eq!(s.fault_corrupt_drops, seen.corrupt_drops as u64);
        assert_eq!(
            (s.emem_cache_hits, s.emem_cache_misses),
            seen.emem_cache.unwrap_or((0, 0))
        );
        assert!(s.emem_hit_rate().is_some());
        assert!(s.islands.iter().any(|i| i.busy_cycles > 0));
        assert!(s.mem_levels.iter().any(|m| m.name == "emem" && m.accesses > 0));
        assert_eq!(s.accels.len(), 1);
        assert!(s.accels[0].calls > 0 && s.accels[0].queue_highwater >= 1);
        assert!(s.switch_transfers > 0);

        // The timeline covers exactly the first 5 packets, both stages.
        let tl = instr.timeline.unwrap();
        assert!(tl.spans.iter().all(|sp| sp.packet < 5));
        assert_eq!(tl.spans.len(), 10, "2 stages x 5 recorded packets");
        assert!(tl.spans.iter().any(|sp| sp.unit == "checksum"));
    }

    #[test]
    fn instrumented_streamed_matches_instrumented_exact() {
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::ParseHeader, MicroOp::Hash { count: 2 }]);
        let t = trace(400);
        let wd = Watchdog::default();
        let mut a = SimInstruments::new();
        let ra = simulate_instrumented(
            &nic,
            &prog,
            &t,
            &FaultPlan::none(),
            &wd,
            &SimConfig::exact(),
            &mut a,
        )
        .unwrap();
        let mut scratch = SimScratch::new();
        let mut b = SimInstruments::new();
        let rb = simulate_streamed_instrumented(
            &nic,
            &prog,
            t.iter().cloned(),
            &FaultPlan::none(),
            &wd,
            &SimConfig::exact(),
            &mut scratch,
            &mut b,
        )
        .unwrap();
        assert_eq!(ra.latencies, scratch.latencies);
        assert_eq!(ra.avg_latency_cycles.to_bits(), rb.avg_latency_cycles.to_bits());
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.conserved());
    }

    #[test]
    fn unknown_region_rejected() {
        let prog = NicProgram {
            name: "x".into(),
            tables: vec![TableCfg {
                name: "t".into(),
                mem: "l4-cache".into(),
                entry_bytes: 8,
                entries: 8,
                use_flow_cache: false,
            }],
            stages: vec![],
        };
        assert_eq!(
            simulate(&nic(), &prog, &trace(1)).unwrap_err(),
            SimError::UnknownRegion("l4-cache".into())
        );
    }

    #[test]
    fn float_emulation_charged_on_fpu_less_npu() {
        let nic = nic();
        let emu = simulate(&nic, &npu_stage(vec![MicroOp::FloatOps { count: 10 }]), &trace(50))
            .unwrap()
            .avg_latency_cycles;
        let base = simulate(&nic, &npu_stage(vec![]), &trace(50))
            .unwrap()
            .avg_latency_cycles;
        assert!((emu - base - 800.0).abs() < 1.0, "emu {emu} base {base}");

        // The SoC profile has FPUs: 10 float ops cost 20 cycles.
        let soc = profiles::soc_armada();
        let emu_soc = simulate(&soc, &npu_stage(vec![MicroOp::FloatOps { count: 10 }]), &trace(50))
            .unwrap()
            .avg_latency_cycles;
        let base_soc =
            simulate(&soc, &npu_stage(vec![]), &trace(50)).unwrap().avg_latency_cycles;
        assert!((emu_soc - base_soc - 20.0).abs() < 1.0);
    }

    #[test]
    fn energy_scales_with_work() {
        let nic = nic();
        let light = simulate(&nic, &npu_stage(vec![MicroOp::Compute { cycles: 100 }]), &trace(200))
            .unwrap();
        let heavy =
            simulate(&nic, &npu_stage(vec![MicroOp::Compute { cycles: 10_000 }]), &trace(200))
                .unwrap();
        assert!(heavy.energy_mj > 5.0 * light.energy_mj);
    }

    #[test]
    fn faulted_run_degrades_without_panicking() {
        // The acceptance scenario: one accelerator offline and NPU
        // threads lost. The run completes, reports drops, and survivors
        // see degraded latency — no panic anywhere.
        let nic = nic();
        let prog = NicProgram {
            name: "nat".into(),
            tables: vec![TableCfg {
                name: "flows".into(),
                mem: "emem".into(),
                entry_bytes: 24,
                entries: 65536,
                use_flow_cache: true,
            }],
            stages: vec![
                Stage {
                    name: "lookup".into(),
                    unit: StageUnit::Npu,
                    ops: vec![
                        MicroOp::ParseHeader,
                        MicroOp::Hash { count: 1 },
                        MicroOp::TableLookup { table: 0 },
                    ],
                },
                Stage {
                    name: "ck".into(),
                    unit: StageUnit::Accel(AccelKind::Checksum),
                    ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Frame }],
                },
            ],
        };
        let t = trace(500);
        let healthy = simulate(&nic, &prog, &t).unwrap();
        assert_eq!(healthy.completed, 500);

        // Checksum engine down: every packet needs it, so all are counted
        // as accelerator drops.
        let outage = FaultPlan {
            accel_outage: vec![AccelKind::Checksum],
            dead_threads: 1,
            ..FaultPlan::none()
        };
        let r = simulate_with_faults(&nic, &prog, &t, &outage).unwrap();
        assert_eq!(r.accel_drops, 500);
        assert_eq!(r.completed, 0);

        // Flow-cache engine down instead: packets survive but lookups
        // degrade to the backing memory.
        let fc_down = FaultPlan {
            accel_outage: vec![AccelKind::FlowCache],
            dead_threads: 1,
            ..FaultPlan::none()
        };
        let r = simulate_with_faults(&nic, &prog, &t, &fc_down).unwrap();
        assert_eq!(r.completed, 500);
        assert_eq!(r.accel_drops, 0);
        assert!(
            r.avg_latency_cycles > healthy.avg_latency_cycles,
            "faulted {} vs healthy {}",
            r.avg_latency_cycles,
            healthy.avg_latency_cycles
        );
    }

    #[test]
    fn accel_stall_inflates_service_time() {
        let nic = nic();
        let prog = NicProgram {
            name: "ck".into(),
            tables: vec![],
            stages: vec![Stage {
                name: "ck".into(),
                unit: StageUnit::Accel(AccelKind::Checksum),
                ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Frame }],
            }],
        };
        let t = trace(100);
        let healthy = simulate(&nic, &prog, &t).unwrap().avg_latency_cycles;
        let stalled = simulate_with_faults(
            &nic,
            &prog,
            &t,
            &FaultPlan {
                accel_stall: vec![(AccelKind::Checksum, 2_000)],
                ..FaultPlan::none()
            },
        )
        .unwrap()
        .avg_latency_cycles;
        assert!(
            stalled >= healthy + 2_000.0,
            "stalled {stalled} healthy {healthy}"
        );
    }

    #[test]
    fn emem_cache_faults_degrade_lookups() {
        let nic = nic();
        let prog = NicProgram {
            name: "fw".into(),
            tables: vec![TableCfg {
                name: "t".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries: 4096,
                use_flow_cache: false,
            }],
            stages: vec![Stage {
                name: "lookup".into(),
                unit: StageUnit::Npu,
                ops: vec![MicroOp::TableLookup { table: 0 }],
            }],
        };
        // Few flows: the healthy EMEM cache converges to hits.
        let t = TraceGenerator::new(11)
            .packets(1000)
            .flows(20)
            .syn_on_first(false)
            .generate();
        let healthy = simulate(&nic, &prog, &t).unwrap();
        let disabled = simulate_with_faults(
            &nic,
            &prog,
            &t,
            &FaultPlan { disable_emem_cache: true, ..FaultPlan::none() },
        )
        .unwrap();
        let thrashed = simulate_with_faults(
            &nic,
            &prog,
            &t,
            &FaultPlan { thrash_emem_cache: true, ..FaultPlan::none() },
        )
        .unwrap();
        assert!(disabled.emem_cache.is_none());
        assert!(disabled.avg_latency_cycles > healthy.avg_latency_cycles);
        assert!(thrashed.avg_latency_cycles > healthy.avg_latency_cycles);
        // Thrash keeps the cache alive but useless: hits stay rare.
        let (hits, misses) = thrashed.emem_cache.unwrap();
        assert!(misses > hits, "hits {hits} misses {misses}");
    }

    #[test]
    fn shrunken_ingress_queue_drops_bursts() {
        let prog = npu_stage(vec![MicroOp::Compute { cycles: 50_000 }]);
        let nic = nic();
        let t = TraceGenerator::new(13)
            .packets(2000)
            .flows(5)
            .rate_pps(5_000_000.0)
            .syn_on_first(false)
            .generate();
        let healthy = simulate(&nic, &prog, &t).unwrap();
        let squeezed = simulate_with_faults(
            &nic,
            &prog,
            &t,
            &FaultPlan { ingress_capacity: Some(4), ..FaultPlan::none() },
        )
        .unwrap();
        assert!(
            squeezed.dropped > healthy.dropped,
            "squeezed {} healthy {}",
            squeezed.dropped,
            healthy.dropped
        );
        assert!(squeezed.completed + squeezed.dropped == 2000);
    }

    #[test]
    fn corrupt_and_truncated_packets_counted() {
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::StreamPayload { table: None, loop_overhead: 0 }]);
        let t = TraceGenerator::new(17)
            .packets(100)
            .sizes(SizeDist::Fixed(1400))
            .syn_on_first(false)
            .generate();

        let corrupt = simulate_with_faults(
            &nic,
            &prog,
            &t,
            &FaultPlan { corrupt_every: 10, ..FaultPlan::none() },
        )
        .unwrap();
        assert_eq!(corrupt.corrupt_drops, 10);
        assert_eq!(corrupt.completed, 90);

        let healthy = simulate(&nic, &prog, &t).unwrap();
        let runt = simulate_with_faults(
            &nic,
            &prog,
            &t,
            &FaultPlan { truncate_every: 1, ..FaultPlan::none() },
        )
        .unwrap();
        assert_eq!(runt.truncated, 100);
        assert_eq!(runt.completed, 100);
        // Runts carry less payload: the stream stage has less to do.
        assert!(runt.avg_latency_cycles < healthy.avg_latency_cycles);
    }

    #[test]
    fn losing_every_thread_is_an_error_not_a_panic() {
        let prog = npu_stage(vec![MicroOp::ParseHeader]);
        let err = simulate_with_faults(
            &nic(),
            &prog,
            &trace(10),
            &FaultPlan { dead_threads: usize::MAX, ..FaultPlan::none() },
        )
        .unwrap_err();
        assert_eq!(err, SimError::NoThreads);
    }

    #[test]
    fn adversarial_stream_payload_trips_watchdog_not_a_spin() {
        // §satellite: a StreamPayload whose loop_overhead × payload_len
        // product is astronomically large must become a counted error —
        // under default caps — rather than wrapping the cycle math or
        // simulating for hours.
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::StreamPayload {
            table: None,
            loop_overhead: u64::MAX / 2,
        }]);
        let t = TraceGenerator::new(23)
            .packets(10)
            .sizes(SizeDist::Fixed(1400))
            .syn_on_first(false)
            .generate();
        let err = simulate(&nic, &prog, &t).unwrap_err();
        match err {
            SimError::Watchdog { packet, ref stage, cycles, limit } => {
                assert_eq!(packet, 0, "first packet must trip the cap");
                assert_eq!(stage, "s");
                assert!(cycles > limit);
                assert_eq!(limit, crate::watchdog::DEFAULT_PACKET_CYCLES);
            }
            other => panic!("expected Watchdog, got {other:?}"),
        }
    }

    #[test]
    fn tiny_caps_trip_on_legitimate_programs() {
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::ParseHeader]);
        let t = trace(100);

        let per_packet = Watchdog { max_cycles_per_packet: Some(10), ..Watchdog::new() };
        assert!(matches!(
            simulate_supervised(&nic, &prog, &t, &FaultPlan::none(), &per_packet),
            Err(SimError::Watchdog { packet: 0, .. })
        ));

        // A total cap below the aggregate cost trips partway through the
        // trace, attributing the packet that crossed it.
        let total = Watchdog { max_total_cycles: Some(1_000), ..Watchdog::new() };
        match simulate_supervised(&nic, &prog, &t, &FaultPlan::none(), &total) {
            Err(SimError::Watchdog { packet, stage, .. }) => {
                assert!(packet > 0, "several packets fit under 1000 cycles");
                assert_eq!(stage, "<run total>");
            }
            other => panic!("expected total-cap Watchdog, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_and_cancel_token_time_out() {
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::ParseHeader]);
        let t = trace(10);
        let expired =
            Watchdog { deadline: Some(std::time::Instant::now()), ..Watchdog::new() };
        assert!(matches!(
            simulate_supervised(&nic, &prog, &t, &FaultPlan::none(), &expired),
            Err(SimError::TimedOut)
        ));
        let token = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = Watchdog { cancel: Some(token), ..Watchdog::new() };
        assert!(matches!(
            simulate_supervised(&nic, &prog, &t, &FaultPlan::none(), &cancelled),
            Err(SimError::TimedOut)
        ));
    }

    #[test]
    fn default_watchdog_leaves_results_bit_unchanged() {
        // The supervised path with default caps must be invisible:
        // identical latencies and energy to the plain entry points.
        let nic = nic();
        let prog = npu_stage(vec![
            MicroOp::ParseHeader,
            MicroOp::Hash { count: 2 },
            MicroOp::StreamPayload { table: None, loop_overhead: 2 },
        ]);
        let t = trace(300);
        let plain = simulate(&nic, &prog, &t).unwrap();
        let supervised =
            simulate_supervised(&nic, &prog, &t, &FaultPlan::none(), &Watchdog::new()).unwrap();
        assert_eq!(plain.latencies, supervised.latencies);
        assert_eq!(plain.energy_mj.to_bits(), supervised.energy_mj.to_bits());
        assert_eq!(plain.per_stage_cycles, supervised.per_stage_cycles);
    }

    #[test]
    fn per_stage_breakdown_reported() {
        let prog = NicProgram {
            name: "two".into(),
            tables: vec![],
            stages: vec![
                Stage {
                    name: "parse".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::ParseHeader],
                },
                Stage {
                    name: "mods".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::MetadataMod { count: 4 }],
                },
            ],
        };
        let r = simulate(&nic(), &prog, &trace(100)).unwrap();
        assert_eq!(r.per_stage_cycles.len(), 2);
        assert!((r.per_stage_cycles[0].1 - 150.0).abs() < 1.0);
        assert!((r.per_stage_cycles[1].1 - 12.0).abs() < 1.0);
    }

    /// Every observable field must match bit-for-bit (floats compared by
    /// bits: memoization and streaming are exact rewrites, not
    /// approximations).
    fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
        assert_eq!(a.packets, b.packets, "{what}: packets");
        assert_eq!(a.completed, b.completed, "{what}: completed");
        assert_eq!(a.dropped, b.dropped, "{what}: dropped");
        assert_eq!(a.accel_drops, b.accel_drops, "{what}: accel_drops");
        assert_eq!(a.corrupt_drops, b.corrupt_drops, "{what}: corrupt_drops");
        assert_eq!(a.truncated, b.truncated, "{what}: truncated");
        assert_eq!(
            a.avg_latency_cycles.to_bits(),
            b.avg_latency_cycles.to_bits(),
            "{what}: avg"
        );
        assert_eq!(a.p50_latency_cycles.to_bits(), b.p50_latency_cycles.to_bits(), "{what}: p50");
        assert_eq!(a.p99_latency_cycles.to_bits(), b.p99_latency_cycles.to_bits(), "{what}: p99");
        assert_eq!(a.max_latency_cycles.to_bits(), b.max_latency_cycles.to_bits(), "{what}: max");
        assert_eq!(a.achieved_pps.to_bits(), b.achieved_pps.to_bits(), "{what}: pps");
        assert_eq!(a.flow_cache, b.flow_cache, "{what}: flow_cache");
        assert_eq!(a.emem_cache, b.emem_cache, "{what}: emem_cache");
        assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits(), "{what}: energy");
        assert_eq!(a.per_stage_cycles.len(), b.per_stage_cycles.len(), "{what}: stages");
        for (x, y) in a.per_stage_cycles.iter().zip(&b.per_stage_cycles) {
            assert_eq!(x.0, y.0, "{what}: stage name");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: stage cycles");
        }
    }

    /// A corpus of programs spanning every memoization class: pure
    /// payload streaming over an uncached automaton, flow-cache-fronted
    /// lookups, cached-EMEM counters, linear scans, an accelerator stage.
    fn fidelity_corpus() -> Vec<NicProgram> {
        vec![
            NicProgram {
                name: "dpi".into(),
                tables: vec![TableCfg {
                    name: "automaton".into(),
                    mem: "imem".into(),
                    entry_bytes: 8,
                    entries: 4096,
                    use_flow_cache: false,
                }],
                stages: vec![Stage {
                    name: "scan".into(),
                    unit: StageUnit::Npu,
                    ops: vec![
                        MicroOp::ParseHeader,
                        MicroOp::StreamPayload { table: Some(0), loop_overhead: 10 },
                    ],
                }],
            },
            NicProgram {
                name: "nat".into(),
                tables: vec![TableCfg {
                    name: "flows".into(),
                    mem: "emem".into(),
                    entry_bytes: 24,
                    entries: 65_536,
                    use_flow_cache: true,
                }],
                stages: vec![
                    Stage {
                        name: "rewrite".into(),
                        unit: StageUnit::Npu,
                        ops: vec![
                            MicroOp::ParseHeader,
                            MicroOp::Hash { count: 1 },
                            MicroOp::TableLookup { table: 0 },
                            MicroOp::MetadataMod { count: 3 },
                            MicroOp::ChecksumSw,
                        ],
                    },
                    Stage {
                        name: "ck".into(),
                        unit: StageUnit::Accel(AccelKind::Checksum),
                        ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Frame }],
                    },
                ],
            },
            NicProgram {
                name: "stats".into(),
                tables: vec![
                    TableCfg {
                        name: "counters".into(),
                        mem: "emem".into(),
                        entry_bytes: 8,
                        entries: 1024,
                        use_flow_cache: false,
                    },
                    TableCfg {
                        name: "rules".into(),
                        mem: "imem".into(),
                        entry_bytes: 16,
                        entries: 512,
                        use_flow_cache: false,
                    },
                ],
                stages: vec![Stage {
                    name: "count".into(),
                    unit: StageUnit::Npu,
                    ops: vec![
                        MicroOp::CounterUpdate { table: 0 },
                        MicroOp::LinearScan { table: 1 },
                        MicroOp::TableWrite { table: 1 },
                        MicroOp::FloatOps { count: 2 },
                    ],
                }],
            },
        ]
    }

    #[test]
    fn memoized_is_bit_identical_to_exact() {
        let nic = nic();
        let t = TraceGenerator::new(31)
            .packets(1500)
            .flows(300)
            .zipf(1.1)
            .sizes(SizeDist::imix())
            .tcp_share(0.8)
            .generate();
        for prog in fidelity_corpus() {
            for faults in [
                FaultPlan::none(),
                FaultPlan { disable_emem_cache: true, ..FaultPlan::none() },
                FaultPlan { thrash_emem_cache: true, ..FaultPlan::none() },
                FaultPlan { truncate_every: 3, corrupt_every: 7, ..FaultPlan::none() },
                FaultPlan {
                    accel_stall: vec![(AccelKind::Checksum, 500)],
                    dead_threads: 100,
                    ..FaultPlan::none()
                },
            ] {
                let wd = Watchdog::new();
                let fast =
                    simulate_configured(&nic, &prog, &t, &faults, &wd, &SimConfig::default())
                        .unwrap();
                let exact =
                    simulate_configured(&nic, &prog, &t, &faults, &wd, &SimConfig::exact())
                        .unwrap();
                let what = format!("{} under {:?}", prog.name, faults);
                assert_bit_identical(&fast, &exact, &what);
                assert_eq!(fast.latencies, exact.latencies, "{what}: latencies");
            }
        }
    }

    #[test]
    fn streamed_matches_materialized_trace() {
        let nic = nic();
        let gen = TraceGenerator::new(37)
            .packets(1200)
            .flows(150)
            .sizes(SizeDist::imix())
            .arrival(clara_workload::Arrival::Poisson)
            .syn_on_first(false);
        let trace = gen.generate();
        let mut scratch = SimScratch::new();
        for prog in fidelity_corpus() {
            let eager = simulate(&nic, &prog, &trace).unwrap();
            let lazy = simulate_streamed(
                &nic,
                &prog,
                gen.stream(),
                &FaultPlan::none(),
                &Watchdog::new(),
                &SimConfig::default(),
                &mut scratch,
            )
            .unwrap();
            assert_bit_identical(&eager, &lazy, &prog.name);
            // Latencies live in the scratch on the streamed path.
            assert!(lazy.latencies.is_empty());
            assert_eq!(scratch.latencies(), &eager.latencies[..], "{}", prog.name);
        }
    }

    #[test]
    fn scratch_reuse_never_changes_results() {
        // One scratch across runs of *different* programs, NICs, and
        // traces must equal fresh-scratch runs: arenas carry capacity,
        // never state.
        let nics = [nic(), profiles::soc_armada()];
        let mut reused = SimScratch::new();
        for round in 0..2 {
            for n in &nics {
                for prog in fidelity_corpus() {
                    // Skip programs placing tables in regions this NIC lacks.
                    if prog.tables.iter().any(|t| n.memory_named(&t.mem).is_none()) {
                        continue;
                    }
                    let gen = TraceGenerator::new(41 + round)
                        .packets(400)
                        .flows(64)
                        .sizes(SizeDist::Fixed(700));
                    let mut fresh = SimScratch::new();
                    let cfg = SimConfig::default();
                    let (fp, wd) = (FaultPlan::none(), Watchdog::new());
                    let a =
                        simulate_streamed(n, &prog, gen.stream(), &fp, &wd, &cfg, &mut reused)
                            .unwrap();
                    let lat_a = reused.latencies().to_vec();
                    let b = simulate_streamed(n, &prog, gen.stream(), &fp, &wd, &cfg, &mut fresh)
                        .unwrap();
                    assert_bit_identical(&a, &b, &prog.name);
                    assert_eq!(lat_a, fresh.latencies());
                }
            }
        }
    }

    #[test]
    fn watchdog_trips_identically_with_memoization() {
        // The per-packet cap must see the same saturating totals on the
        // memoized path, including the stage attribution.
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::StreamPayload {
            table: None,
            loop_overhead: u64::MAX / 2,
        }]);
        let t = TraceGenerator::new(23)
            .packets(10)
            .sizes(SizeDist::Fixed(1400))
            .syn_on_first(false)
            .generate();
        let wd = Watchdog::new();
        let fast = simulate_configured(&nic, &prog, &t, &FaultPlan::none(), &wd, &SimConfig::default());
        let exact = simulate_configured(&nic, &prog, &t, &FaultPlan::none(), &wd, &SimConfig::exact());
        assert_eq!(fast.unwrap_err(), exact.unwrap_err());
    }
}
