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

use crate::batch::StagePlan;
use crate::costcache::CostCache;
use crate::fault::{FaultPlan, TRUNCATED_PAYLOAD_BYTES};
use crate::memory::{Cache, MemorySim};
use crate::program::{BytesSpec, MicroOp, NicProgram, Stage, StageUnit};
use crate::rates::ServiceColumn;
use crate::watchdog::{Watchdog, DEADLINE_STRIDE};
use clara_lnic::{AccelCost, AccelKind, ComputeClass, Lnic, MemId, MemKind, UnitId};
use clara_telemetry::{AccelStats, IslandStats, MemLevelStats, SimStats, StageTimeline};
use clara_workload::{Trace, TracePacket};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
    /// Steady-state latency in cycles: the mean over the later half of
    /// the completed packets' latencies in arrival order, from index
    /// `completed / 2` on (0 when none completed). The earlier half,
    /// which fills the caches and the flow cache from cold, is
    /// discarded, as the paper's 1M-packet hardware averages do
    /// implicitly; this is the "actual" figure a prediction is judged by.
    pub steady_latency_cycles: f64,
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

/// The engine's one knob, mirroring `SolverConfig` on the solve side:
/// the default is the fast path, and the exact oracle is one call away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Plan each stage once per run (the `batch` module): a
    /// signature-pure stage is priced once per (cost-equivalent unit
    /// group, payload length) class, and every other stage runs per
    /// packet. A run is planned only when it has a pure stage and
    /// records no stage timeline; either way it takes the one
    /// per-packet loop, and results are bit-identical to
    /// [`SimConfig::exact`].
    pub batch: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { batch: true }
    }
}

impl SimConfig {
    /// The exact oracle: no stage planned, every stage of every packet
    /// priced through `stage_cost`. Every fast path is checked against
    /// it.
    pub fn exact() -> Self {
        SimConfig { batch: false }
    }
}

/// Reusable arenas for repeated simulation runs.
///
/// A sweep of N runs performs O(1) heap allocations per run instead of
/// O(packets) or O(flows): latencies, completions, percentile scratch,
/// per-thread state, the pending-start heap, the memory model (its
/// caches included) and the tables' flow-cache fronts, the stage plans,
/// class table and flow LUT, and the service column
/// [`crate::simulate_rates`] records for a family's other cells all retain
/// their capacity across [`simulate_streamed`] and
/// [`crate::simulate_rates`] calls. The per-packet arenas take the
/// trace's length (its `size_hint`) when a run starts, so even a fresh
/// scratch's allocation count does not grow with packets. A fresh
/// `SimScratch` is equivalent to a reused one — reuse never changes
/// results.
#[derive(Default)]
pub struct SimScratch {
    /// The memory model, re-initialised from the LNIC at each run.
    pub(crate) mem: MemorySim,
    /// Per-table runtime state, re-initialised from the program at each
    /// run; a table keeps its flow-cache storage while it has one.
    pub(crate) tables: Vec<TableRt>,
    pub(crate) latencies: Vec<u64>,
    pub(crate) completions: Vec<u64>,
    pub(crate) select: Vec<u64>,
    stage_totals: Vec<u64>,
    pub(crate) pending: BinaryHeap<Reverse<u64>>,
    pub(crate) threads: Vec<ThreadRt>,
    classes: Vec<StageClass>,
    /// Stage plans, unit groups, class table and flow LUT
    /// ([`crate::batch`]).
    pub(crate) batch: crate::batch::BatchScratch,
    /// Stage-cost cache shared across runs by planned runs' pure stages.
    /// `None` (the default) leaves each run's class table as the only
    /// reuse.
    shared_costs: Option<Arc<CostCache>>,
    /// The per-packet service column and end-of-run counters a recording
    /// run leaves for [`crate::simulate_rates`]'s replays, and its
    /// rebuilds at other payloads.
    pub(crate) column: ServiceColumn,
}

impl SimScratch {
    /// An empty scratch; arenas grow on first use and are kept after.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Per-packet latencies (cycles, arrival order) of the last run on
    /// this scratch. This is the only place they are kept: a
    /// [`SimResult`] carries their statistics, so a run allocates
    /// nothing per packet beyond these reused arenas.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Attach a shared [`CostCache`]: subsequent planned runs resolve
    /// each class's pure stage costs through it (keyed by the run's
    /// post-fault fingerprint) and publish what they compute.
    /// Sharing one cache across sweep cells, fan-out workers, and serve
    /// sessions is bit-identical to running without it — the cache only
    /// replays values the exact path produced under an equal fingerprint.
    pub fn attach_cost_cache(&mut self, cache: Arc<CostCache>) {
        self.shared_costs = Some(cache);
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

/// How a stage's (or one NPU op's) cost may vary across packets,
/// decided once per run (after fault application — e.g. disabling the
/// EMEM cache makes its tables signature-pure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum StageClass {
    /// Cost depends only on the executing unit: cost key (stage, unit).
    Fixed,
    /// Cost additionally depends on the (possibly truncated) payload
    /// length: cost key (stage, unit, payload_len).
    PayloadPure,
    /// Cost can read or write shared mutable state (a cache, the flow
    /// cache, an accelerator queue): recomputed for every packet.
    Live,
}

/// Classify one NPU op. This is the single source of truth the stage
/// classifier folds over, so a stage's plan can never disagree with its
/// class.
pub(crate) fn classify_op(op: &MicroOp, tables: &[TableRt], mem: &MemorySim) -> StageClass {
    match op {
        MicroOp::Compute { .. }
        | MicroOp::ParseHeader
        | MicroOp::MetadataMod { .. }
        | MicroOp::Hash { .. }
        | MicroOp::FloatOps { .. } => StageClass::Fixed,
        MicroOp::TableLookup { table } | MicroOp::TableWrite { table } => {
            let t = &tables[*table];
            if mem.has_cache(t.mem) || t.fc.is_some() {
                StageClass::Live
            } else {
                StageClass::Fixed
            }
        }
        MicroOp::CounterUpdate { table } | MicroOp::LinearScan { table } => {
            if mem.has_cache(tables[*table].mem) {
                StageClass::Live
            } else {
                StageClass::Fixed
            }
        }
        // Payload streaming and software checksums read the packet's
        // residence (raw latency + bulk rate, never a cache), so they
        // are pure in (unit, payload_len). A transition table adds a
        // per-byte access, pure only if its region is uncached.
        MicroOp::StreamPayload { table: None, .. } | MicroOp::ChecksumSw => {
            StageClass::PayloadPure
        }
        MicroOp::StreamPayload { table: Some(t), .. } => {
            if mem.has_cache(tables[*t].mem) {
                StageClass::Live
            } else {
                StageClass::PayloadPure
            }
        }
        MicroOp::AccelCall { .. } => StageClass::Live,
    }
}

/// Classify a stage for stage planning. A stage is pure only if
/// *every* op in it is signature-pure; a single live op (flow-cache accesses
/// included — their hit/miss state is shared) makes the whole stage
/// live. Accesses to uncached regions cost `raw + bulk·(bytes − 64)`
/// regardless of address or history, so table ops are pure exactly when
/// the table has no flow-cache front and its region has no cache.
fn classify_stage(stage: &Stage, tables: &[TableRt], mem: &MemorySim) -> StageClass {
    if !matches!(stage.unit, StageUnit::Npu) {
        return StageClass::Live; // accelerator queues are stateful
    }
    stage.ops.iter().map(|op| classify_op(op, tables, mem)).max().unwrap_or(StageClass::Fixed)
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
/// where `fmt` machinery cost more than pricing a run's classes.
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

/// Run `prog` over `trace` on `nic` with healthy hardware, the default
/// [`Watchdog`] and [`SimConfig`], and a fresh scratch: the one-shot
/// entry point. Anything else (faults, caps, the exact oracle, reused
/// arenas, per-packet latencies) goes through [`simulate_streamed`] over
/// `trace.iter().cloned()`.
pub fn simulate(nic: &Lnic, prog: &NicProgram, trace: &Trace) -> Result<SimResult, SimError> {
    simulate_streamed(
        nic,
        prog,
        trace.iter().cloned(),
        &FaultPlan::none(),
        &Watchdog::default(),
        &SimConfig::default(),
        &mut SimScratch::new(),
    )
}

/// Run `prog` over a packet stream on `nic` under a [`FaultPlan`], a
/// [`Watchdog`] and a [`SimConfig`], reusing `scratch`'s arenas: the
/// general entry point. A materialized [`Trace`] streams as
/// `trace.iter().cloned()`; a generator streams without materializing,
/// and a run performs O(1) allocations.
///
/// `packets` must yield arrivals in non-decreasing timestamp order
/// ([`Trace`] iteration and [`clara_workload::TraceStream`] both
/// guarantee this); regressions are clamped to the running maximum,
/// exactly as [`Trace::push`] would have clamped them, so streaming a
/// generator is bit-identical to materializing it first.
///
/// Faults degrade the run instead of failing it: unserviceable packets
/// are dropped and counted ([`SimResult::accel_drops`],
/// [`SimResult::corrupt_drops`], [`SimResult::dropped`]), survivors see
/// the degraded latency. The watchdog turns unbounded work into errors
/// instead of hangs: a packet whose stages exceed the per-packet cycle
/// cap (or push the run past the total cap) ends the run with
/// [`SimError::Watchdog`], and an expired wall-clock deadline or cancel
/// token ends it with [`SimError::TimedOut`]; default caps are far above
/// any legitimate program. Other errors are setup problems (an invalid
/// program, a region the NIC lacks, zero usable threads).
///
/// Per-packet latencies are left in the scratch
/// ([`SimScratch::latencies`]) until its next run.
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
    run_sim(nic, prog, packets.into_iter(), faults, watchdog, config, scratch, None, false)
}

/// [`simulate_streamed`] with a [`SimInstruments`] attached: the run
/// fills `instruments.stats` (and the timeline, when one is present)
/// while producing a [`SimResult`] bit-identical to the uninstrumented
/// run, with O(1) allocations per run plus whatever the timeline records.
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
    run_sim(
        nic,
        prog,
        packets.into_iter(),
        faults,
        watchdog,
        config,
        scratch,
        Some(instruments),
        false,
    )
}

/// The engine behind every entry point: one per-packet loop for every
/// full run. A run of the fast configuration with a pure stage and no
/// stage timeline plans its stages ([`crate::batch::StagePlan`]); every
/// other run prices every stage of every packet through [`stage_cost`].
/// With `record`, a run of an all-NPU program under the fast
/// configuration leaves its per-packet service column in
/// `scratch.column` for [`crate::simulate_rates`] to replay; the column
/// is marked valid only if no packet was dropped. Results never depend
/// on it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sim<I: Iterator<Item = TracePacket>>(
    nic: &Lnic,
    prog: &NicProgram,
    packets: I,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
    mut instruments: Option<&mut SimInstruments>,
    record: bool,
) -> Result<SimResult, SimError> {
    prog.validate().map_err(SimError::BadProgram)?;
    let SimScratch {
        mem,
        tables,
        latencies,
        completions,
        select,
        stage_totals,
        pending,
        threads,
        classes,
        batch,
        shared_costs,
        column,
    } = scratch;

    mem.reset(nic);

    let emem = emem_region(nic);
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
    tables.truncate(prog.tables.len());
    for (ti, cfg) in prog.tables.iter().enumerate() {
        let mem_id = nic
            .memory_named(&cfg.mem)
            .ok_or_else(|| SimError::UnknownRegion(cfg.mem.clone()))?;
        let base = mem.alloc(mem_id, cfg.size_bytes() as u64);
        let fc_capacity = if cfg.use_flow_cache && faults.is_offline(AccelKind::FlowCache) {
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
            Some(cap as usize)
        } else {
            None
        };
        // Entry-granular cache: line = 1 "byte" = 1 entry. A flow cache
        // left in this slot by an earlier run is re-initialised in place.
        let fc = match (fc_capacity, tables.get_mut(ti).and_then(|t| t.fc.take())) {
            (Some(cap), Some(mut fc)) => {
                fc.reset(cap, 1, 4);
                Some(fc)
            }
            (Some(cap), None) => Some(Cache::new(cap, 1, 4)),
            (None, _) => None,
        };
        let rt = TableRt {
            mem: mem_id,
            base,
            entry_bytes: cfg.entry_bytes.max(1) as u64,
            entries: cfg.entries.max(1),
            fc,
        };
        match tables.get_mut(ti) {
            Some(t) => *t = rt,
            None => tables.push(rt),
        }
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
    let no_timeline = instruments.as_ref().is_none_or(|i| i.timeline.is_none());
    // Stage unit labels, precomputed only when a timeline will use them.
    let stage_unit_labels: Vec<String> = if no_timeline {
        Vec::new()
    } else {
        prog.stages
            .iter()
            .map(|s| match s.unit {
                StageUnit::Npu => "npu".to_string(),
                StageUnit::Accel(kind) => kind.to_string(),
            })
            .collect()
    };

    // Fault stalls are per-stage constants; resolve them once.
    let stage_stalls: Vec<u64> =
        prog.stages.iter().map(|s| faults.accel_stall_for(&s.unit)).collect();

    // Stage classes are decided once per run, after faults have been
    // applied to the memory system (a disabled EMEM cache makes its
    // tables signature-pure), and each stage is planned from its class.
    classes.clear();
    classes.extend(prog.stages.iter().map(|s| classify_stage(s, tables, mem)));
    let all_pure = classes.iter().all(|c| *c != StageClass::Live);
    let planned =
        config.batch && no_timeline && (all_pure || classes.iter().any(|c| *c != StageClass::Live));
    // The shared cost-cache view, resolved once per planned run from the
    // post-fault fingerprint.
    let mut shared_view = None;
    if planned {
        batch.plan_run(nic, classes, mem, tables, threads, emem);
        shared_view = shared_costs.as_ref().map(|cache| {
            cache.view(&run_fingerprint(
                nic,
                prog,
                mem,
                tables,
                emem,
                &stage_stalls,
                fc_engine_cycles,
            ))
        });
    } else {
        batch.plan_scalar(prog.stages.len());
    }
    // Pure-stage class prices: (hits answered by the shared cache, misses
    // computed and published when a cache is attached). They count class
    // work, not packets.
    let mut memo = (0u64, 0u64);
    // Fault injection: a co-tenant wipes the EMEM cache between packets,
    // so no working set survives. Only a `Scalar` stage can see it: a
    // pure op touches no cached region, and a flush keeps the cache's
    // hit/miss counters.
    let thrash = faults.thrash_emem_cache && batch.plan.contains(&StagePlan::Scalar);

    stage_totals.clear();
    stage_totals.resize(prog.stages.len(), 0u64);
    let expected = packets.size_hint().0;
    // Shared-service recording (`crate::rates`): the fast configuration
    // records each completed packet's thread and service cycles, but only
    // for a program whose stage costs cannot read the clock — every stage
    // on an NPU (an accelerator queue's wait depends on when the packet
    // reaches it) — and that no fault drops wholesale. The column is kept
    // only if the run ends with no drop of any kind.
    if record {
        column.start(expected);
    }
    let recording = record
        && config.batch
        && no_timeline
        && !offline_required
        && prog.stages.iter().all(|s| matches!(s.unit, StageUnit::Npu));
    let mut queue = Queueing::new(
        nic,
        faults,
        watchdog,
        threads,
        pending,
        latencies,
        completions,
        expected,
        instruments.is_some(),
        recording.then_some(&mut *column),
    );
    let ingress_lat = queue.hubs.ingress_lat;
    let n_threads = queue.threads.len() as u64;
    let mut accel_drops = 0usize;
    let mut corrupt_drops = 0usize;
    let mut truncated = 0usize;
    let mut fc_hits = 0u64;
    let mut fc_misses = 0u64;
    let pkt_limit = watchdog.packet_limit();

    for (pkt_idx, tp) in packets.enumerate() {
        let arrival = queue.arrive(pkt_idx, tp.ts_ns)?;
        // Fault injection: corrupt frames fail the ingress CRC check and
        // are discarded before queueing.
        if faults.corrupt_every > 0 && (pkt_idx as u64 + 1).is_multiple_of(faults.corrupt_every) {
            corrupt_drops += 1;
            queue.column = None;
            continue;
        }
        // Fault injection: a packet that needs an offline engine cannot
        // be serviced — discard it instead of wedging a thread.
        if offline_required {
            accel_drops += 1;
            continue;
        }
        if !queue.admit(arrival) {
            continue;
        }

        // RSS-style dispatch: a flow is pinned to a thread by its hash
        // (packets of one flow must not be reordered). Skewed flows
        // therefore concentrate on hot threads, as on real hardware.
        let (flow_hash, tid) = if planned {
            batch.flow_hash_tid(&tp.spec.flow)
        } else {
            let hash = tp.spec.flow.hash64();
            (hash, crate::batch::dispatch(hash, n_threads))
        };
        let tid = tid as usize;
        let start = queue.start(tid, arrival);
        let (unit, ctm) = (queue.threads[tid].unit, queue.threads[tid].ctm);

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
        if thrash {
            if let Some(e) = emem {
                mem.flush_cache(e);
            }
        }
        let parts = if planned {
            batch.class_parts(
                tid,
                payload_len,
                nic,
                mem,
                tables,
                prog,
                classes,
                emem,
                shared_view.as_deref(),
                &mut memo,
            )
        } else {
            0
        };

        let mut cur = start.saturating_add(ingress_lat);
        let mut pkt_cycles = 0u64;
        for (si, stage) in prog.stages.iter().enumerate() {
            let cost = match batch.plan[si] {
                StagePlan::Pure => batch.parts[parts + si],
                StagePlan::Scalar => stage_cost(
                    nic,
                    mem,
                    tables,
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
                )?,
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
            // critical path, `cost` its duration.
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
        queue.complete(pkt_idx, tid, arrival, start, pkt_cycles)?;
    }

    if let Some(column) = queue.column.take() {
        // Every packet completed: keep the end-of-run counters a replay
        // reports in place of re-running the memory model.
        column.stage_totals.clear();
        column.stage_totals.extend_from_slice(stage_totals);
        column.accesses.clear();
        column.accesses.extend_from_slice(mem.access_counts());
        column.flow_cache = (fc_hits, fc_misses);
        column.emem_cache = emem.and_then(|e| mem.cache_stats(e));
        column.truncated = truncated;
        column.valid = true;
    }
    // Fold this run's class-price tallies into the cache-wide atomics
    // (once per run, not per lookup).
    if let Some(cache) = shared_costs.as_ref() {
        cache.record(memo.0, memo.1);
    }

    let completed = queue.latencies.len() as u64;
    let tally = Tally {
        offered: queue.offered,
        dropped: queue.dropped,
        accel_drops,
        corrupt_drops,
        truncated,
        busy_cycles: queue.busy_cycles,
        stage_totals,
        flow_cache: (fc_hits, fc_misses),
        emem_cache: emem.and_then(|e| mem.cache_stats(e)),
        accesses: mem.access_counts(),
        batch_packets: if planned && all_pure { completed } else { 0 },
        partial_packets: if planned && !all_pure { completed } else { 0 },
        memo_hits: memo.0,
        memo_misses: memo.1,
        replayed_packets: 0,
    };
    Ok(queue.finish(nic, prog, select, tally, instruments, probes))
}

/// The queueing step every full run ([`run_sim`]) and every rate replay
/// (`rates::replay`) shares, packet by packet: the deadline poll and
/// arrival clamp ([`Queueing::arrive`]), the ingress queue's drain and
/// capacity check ([`Queueing::admit`]), the start on the packet's
/// thread and its pending entry ([`Queueing::start`]), and the finish
/// ([`Queueing::complete`]): the thread's `free_at`, busy cycles against
/// the total cap, the completion and latency arenas, and a recording
/// run's service-column push. A packet's stage costs are the caller's;
/// this step sees only their saturating sum, its service cycles.
pub(crate) struct Queueing<'a> {
    freq: f64,
    hubs: Hubs,
    watchdog: &'a Watchdog,
    threads: &'a mut [ThreadRt],
    pending: &'a mut BinaryHeap<Reverse<u64>>,
    latencies: &'a mut Vec<u64>,
    completions: &'a mut Vec<u64>,
    /// Where a recording run pushes each completed packet's thread and
    /// service cycles; `None` once a packet drops.
    column: Option<&'a mut ServiceColumn>,
    /// Island per thread, and thread count and busy cycles per island:
    /// kept for an instrumented run only (observation).
    thread_island: Vec<usize>,
    island_threads: Vec<u64>,
    island_busy: Vec<u64>,
    last_arrival: u64,
    /// Packets offered so far.
    pub(crate) offered: usize,
    /// Packets dropped at the full ingress queue so far.
    dropped: usize,
    /// Summed occupancy (start to completion) of completed packets.
    pub(crate) busy_cycles: u64,
}

impl<'a> Queueing<'a> {
    /// The queueing of a run of `expected` packets on `nic` under `faults`
    /// and `watchdog`: every thread idle, the ingress queue and the
    /// per-packet arenas empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        nic: &Lnic,
        faults: &FaultPlan,
        watchdog: &'a Watchdog,
        threads: &'a mut [ThreadRt],
        pending: &'a mut BinaryHeap<Reverse<u64>>,
        latencies: &'a mut Vec<u64>,
        completions: &'a mut Vec<u64>,
        expected: usize,
        observe: bool,
        column: Option<&'a mut ServiceColumn>,
    ) -> Self {
        for t in threads.iter_mut() {
            t.free_at = 0;
        }
        pending.clear();
        latencies.clear();
        completions.clear();
        // Per-packet arenas are sized for the whole trace before its first
        // packet (`TraceStream` reports its exact length) rather than grown
        // by doubling from a small first block. glibc can hand a thread a
        // small block that another thread's arena owns, and `realloc` grows
        // a block inside its owner, so a doubling chain could settle in a
        // sweep worker's arena and keep its pages resident: the process's
        // peak RSS then depended on which thread had freed what last.
        latencies.reserve(expected);
        completions.reserve(expected);
        let (thread_island, island_threads) =
            if observe { island_layout(nic, threads) } else { Default::default() };
        let island_busy = vec![0; island_threads.len()];
        Queueing {
            freq: nic.freq_ghz,
            hubs: Hubs::of(nic, faults),
            watchdog,
            threads,
            pending,
            latencies,
            completions,
            column,
            thread_island,
            island_threads,
            island_busy,
            last_arrival: 0,
            offered: 0,
            dropped: 0,
            busy_cycles: 0,
        }
    }

    /// Offer packet `pkt_idx`, stamped `ts_ns`: its arrival cycle. The
    /// wall-clock deadline is polled on a stride, cheap enough to leave on
    /// for every run and fine-grained enough that a cancelled simulation
    /// stops within about a thousand packets. Arrivals from a [`Trace`] or
    /// `TraceStream` are already monotone; the clamp to the running
    /// maximum is a no-op there and makes raw iterators behave as if they
    /// had been materialized through [`Trace::push`] first.
    #[inline]
    pub(crate) fn arrive(&mut self, pkt_idx: usize, ts_ns: u64) -> Result<u64, SimError> {
        self.offered += 1;
        if pkt_idx.is_multiple_of(DEADLINE_STRIDE) && self.watchdog.expired() {
            return Err(SimError::TimedOut);
        }
        let arrival = to_cycles(ts_ns, self.freq).max(self.last_arrival);
        self.last_arrival = arrival;
        Ok(arrival)
    }

    /// Drain the packets that have started by `arrival` from the ingress
    /// queue, and whether it has room for one arriving then. A full queue
    /// drops the packet: counted, and a recording run stops recording.
    #[inline]
    pub(crate) fn admit(&mut self, arrival: u64) -> bool {
        while self.pending.peek().is_some_and(|&Reverse(s)| s <= arrival) {
            self.pending.pop();
        }
        if self.pending.len() >= self.hubs.ingress_capacity {
            self.dropped += 1;
            self.column = None;
            return false;
        }
        true
    }

    /// Start an admitted packet on thread `tid`: when it arrives or when
    /// the thread frees up, whichever is later. Only future starts can
    /// ever occupy the ingress queue: arrivals are monotone, so an entry
    /// with `start <= arrival` would be drained by the next admission
    /// before any capacity check could see it. Skipping its push is
    /// therefore exact, and in the unloaded case the heap stays empty.
    #[inline]
    pub(crate) fn start(&mut self, tid: usize, arrival: u64) -> u64 {
        let start = arrival.max(self.threads[tid].free_at);
        if start > arrival {
            self.pending.push(Reverse(start));
        }
        start
    }

    /// Complete packet `pkt_idx` on thread `tid` after `service` cycles
    /// of stages: at `start ⊕ ingress ⊕ service ⊕ egress` in saturating
    /// adds, which equals the per-stage chain's finish for any costs,
    /// since a saturating sum of non-negative terms does not depend on
    /// grouping. Trips the watchdog when the run's busy cycles pass its
    /// total cap.
    #[inline]
    pub(crate) fn complete(
        &mut self,
        pkt_idx: usize,
        tid: usize,
        arrival: u64,
        start: u64,
        service: u64,
    ) -> Result<(), SimError> {
        let Hubs { ingress_lat, egress_lat, .. } = self.hubs;
        let cur =
            start.saturating_add(ingress_lat).saturating_add(service).saturating_add(egress_lat);
        if let Some(column) = self.column.as_deref_mut() {
            // Rate-independent: the thread is the flow's, and every stage
            // cost read only the packet and the memory model.
            column.tids.push(tid as u32);
            column.service.push(service);
        }
        self.threads[tid].free_at = cur;
        if let Some(&island) = self.thread_island.get(tid) {
            let busy = &mut self.island_busy[island];
            *busy = busy.saturating_add(cur - start);
        }
        self.busy_cycles = self.busy_cycles.saturating_add(cur - start);
        let limit = self.watchdog.total_limit();
        if self.busy_cycles > limit {
            return Err(SimError::Watchdog {
                packet: pkt_idx,
                stage: "<run total>".into(),
                cycles: self.busy_cycles,
                limit,
            });
        }
        self.completions.push(cur);
        self.latencies.push(cur - arrival);
        Ok(())
    }

    /// End the run: the statistics pass ([`finish`]) over the arenas, and
    /// for an instrumented run its [`SimStats`] with the accelerator
    /// `probes` and the island occupancy this step kept.
    pub(crate) fn finish(
        self,
        nic: &Lnic,
        prog: &NicProgram,
        select: &mut Vec<u64>,
        tally: Tally<'_>,
        instruments: Option<&mut SimInstruments>,
        probes: Option<[AccelProbe; 4]>,
    ) -> SimResult {
        let observed = instruments.map(|instruments| Observation {
            instruments,
            probes,
            island_busy: &self.island_busy,
            island_threads: &self.island_threads,
        });
        finish(nic, prog, self.latencies, self.completions, select, tally, observed)
    }
}

/// The ingress and egress hubs' latencies and the ingress queue's
/// capacity, which a fault plan may shrink: the first hub is ingress,
/// the second (if any) egress.
struct Hubs {
    ingress_lat: u64,
    egress_lat: u64,
    ingress_capacity: usize,
}

impl Hubs {
    fn of(nic: &Lnic, faults: &FaultPlan) -> Self {
        let ingress = nic.hubs().first();
        let egress = nic.hubs().get(1).or(ingress);
        Hubs {
            ingress_lat: ingress.map(|h| h.latency).unwrap_or(0),
            egress_lat: egress.map(|h| h.latency).unwrap_or(0),
            ingress_capacity: faults
                .ingress_capacity
                .unwrap_or_else(|| ingress.map(|h| h.queue_capacity).unwrap_or(usize::MAX)),
        }
    }
}

/// The region the EMEM-cache faults and packet-tail spills address: the
/// one named `emem`, else the first external memory.
pub(crate) fn emem_region(nic: &Lnic) -> Option<MemId> {
    nic.memory_named("emem")
        .or_else(|| nic.memories().iter().position(|m| m.kind == MemKind::External).map(MemId))
}

/// A trace timestamp in NIC cycles.
fn to_cycles(ns: u64, freq_ghz: f64) -> u64 {
    (ns as f64 * freq_ghz).round() as u64
}

/// Each thread's island and every island's thread count: the layout an
/// instrumented run tallies busy cycles by (observation only).
fn island_layout(nic: &Lnic, threads: &[ThreadRt]) -> (Vec<usize>, Vec<u64>) {
    let mut thread_island = Vec::with_capacity(threads.len());
    let mut island_threads: Vec<u64> = Vec::new();
    for t in threads {
        let isl = nic.unit(t.unit).island.unwrap_or(0);
        if isl >= island_threads.len() {
            island_threads.resize(isl + 1, 0);
        }
        thread_island.push(isl);
        island_threads[isl] += 1;
    }
    (thread_island, island_threads)
}

/// A run's counts, beside its per-packet arenas: what [`finish`] turns
/// into a [`SimResult`] and, for an instrumented run, a [`SimStats`].
pub(crate) struct Tally<'a> {
    pub(crate) offered: usize,
    pub(crate) dropped: usize,
    pub(crate) accel_drops: usize,
    pub(crate) corrupt_drops: usize,
    pub(crate) truncated: usize,
    pub(crate) busy_cycles: u64,
    /// Summed cycles per stage, in program order.
    pub(crate) stage_totals: &'a [u64],
    pub(crate) flow_cache: (u64, u64),
    pub(crate) emem_cache: Option<(u64, u64)>,
    /// Accesses per memory region, in LNIC order.
    pub(crate) accesses: &'a [u64],
    pub(crate) batch_packets: u64,
    pub(crate) partial_packets: u64,
    pub(crate) memo_hits: u64,
    pub(crate) memo_misses: u64,
    pub(crate) replayed_packets: u64,
}

/// What an instrumented run observed beyond its [`Tally`].
struct Observation<'a> {
    instruments: &'a mut SimInstruments,
    probes: Option<[AccelProbe; 4]>,
    island_busy: &'a [u64],
    island_threads: &'a [u64],
}

/// The statistics pass every run ends with, whichever route costed its
/// packets (the per-packet loop or a rate replay): the
/// mean and steady-state mean and order statistics over `latencies`
/// (arrival order, left in the scratch), the output rate over
/// `completions`, the per-stage means, and, when the run is
/// instrumented, its [`SimStats`].
fn finish(
    nic: &Lnic,
    prog: &NicProgram,
    latencies: &[u64],
    completions: &[u64],
    select: &mut Vec<u64>,
    tally: Tally<'_>,
    observed: Option<Observation<'_>>,
) -> SimResult {
    // Order statistics via selection instead of a full sort: `latencies`
    // stays in arrival order, so the borrowed `select` scratch is
    // partitioned for p50/p99 and then reused for the completion
    // quartiles — the seed cloned and fully sorted both vectors, an
    // O(packets) allocation per run even outside sweeps.
    let completed = latencies.len();
    select.clear();
    select.extend_from_slice(latencies);
    let (avg, steady, p50, p99, max_lat) = if completed == 0 {
        (0.0, 0.0, 0.0, 0.0, 0.0)
    } else {
        // One pass of `u128` sums, split where the steady-state half
        // starts. A `u128` sum cannot wrap; below `u64::MAX` it is the
        // same value, so the total and the tail convert to the same `f64`
        // as a `u64` sum would.
        let sum = |l: &[u64]| l.iter().map(|&l| u128::from(l)).sum::<u128>();
        let half = completed / 2;
        let (head, tail) = (sum(&latencies[..half]), sum(&latencies[half..]));
        let avg = (head + tail) as f64 / completed as f64;
        let steady = tail as f64 / (completed - half) as f64;
        let idx = |p: f64| ((completed - 1) as f64 * p) as usize;
        let (i50, i99) = (idx(0.5), idx(0.99));
        let (below, v99, _) = select.select_nth_unstable(i99);
        let p99 = *v99;
        let p50 = if i50 == i99 { p99 } else { *below.select_nth_unstable(i50).1 };
        let max = *latencies.iter().max().unwrap();
        (avg, steady, p50 as f64, p99 as f64, max as f64)
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

    // Assemble telemetry. Every counter mirrors a tally the result is
    // built from (or a read-only probe of run state), so conservation —
    // injected == completed + drops by cause — is structural.
    if let Some(Observation { instruments: instr, probes, island_busy, island_threads }) = observed
    {
        let trips = instr.stats.watchdog_trips;
        let accel_stats: Vec<AccelStats> = probes
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
            .zip(tally.accesses)
            .filter(|(m, _)| {
                matches!(m.kind, MemKind::Internal | MemKind::External | MemKind::HostDram)
            })
            .map(|(_, &n)| n)
            .sum();
        let (emem_hits, emem_misses) = tally.emem_cache.unwrap_or((0, 0));
        instr.stats = SimStats {
            injected: tally.offered as u64,
            completed: completed as u64,
            truncated: tally.truncated as u64,
            overflow_drops: tally.dropped as u64,
            fault_corrupt_drops: tally.corrupt_drops as u64,
            fault_accel_drops: tally.accel_drops as u64,
            watchdog_trips: trips,
            batch_packets: tally.batch_packets,
            batch_partial_packets: tally.partial_packets,
            replayed_packets: tally.replayed_packets,
            memo_hits: tally.memo_hits,
            memo_misses: tally.memo_misses,
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
                .zip(tally.accesses)
                .map(|(m, &accesses)| MemLevelStats { name: m.name.clone(), accesses })
                .collect(),
            emem_cache_hits: emem_hits,
            emem_cache_misses: emem_misses,
            accels: accel_stats,
            switch_transfers: shared_accesses + accel_calls,
            span_cycles: completions.iter().copied().max().unwrap_or(0),
        };
    }

    SimResult {
        packets: tally.offered,
        completed,
        dropped: tally.dropped,
        accel_drops: tally.accel_drops,
        corrupt_drops: tally.corrupt_drops,
        truncated: tally.truncated,
        avg_latency_cycles: avg,
        steady_latency_cycles: steady,
        p50_latency_cycles: p50,
        p99_latency_cycles: p99,
        max_latency_cycles: max_lat,
        avg_latency_ns: nic.cycles_to_ns(avg),
        achieved_pps: if span_secs > 0.0 { span_count / span_secs } else { 0.0 },
        per_stage_cycles: prog
            .stages
            .iter()
            .zip(tally.stage_totals)
            .map(|(s, &t)| {
                (s.name.clone(), if completed == 0 { 0.0 } else { t as f64 / completed as f64 })
            })
            .collect(),
        flow_cache: tally.flow_cache,
        emem_cache: tally.emem_cache,
        energy_mj: tally.busy_cycles as f64 * nic.nj_per_cycle * 1e-6,
    }
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
            // Clock values saturate, as in the NPU arm and the packet
            // loop: with the watchdog caps disabled, a near-`u64` cost
            // ahead of this stage pins `stage_start` at the top of the
            // range, and a wrapped sum would read as a small one.
            for op in &stage.ops {
                let MicroOp::AccelCall { bytes } = op else { continue };
                let n = bytes.resolve(payload_len, wire_len);
                // A wedged engine stalls for extra cycles on every call.
                let service = curve.service_cycles(n as usize).saturating_add(accel_stall);
                let submit = stage_start.saturating_add(total);
                let begin = submit.max(server_free);
                let wait = begin - submit;
                server_free = begin.saturating_add(service);
                if let Some(p) = probe.as_deref_mut() {
                    p.calls += 1;
                    p.busy_cycles = p.busy_cycles.saturating_add(service);
                    p.hol_stall_cycles = p.hol_stall_cycles.saturating_add(wait);
                    // Queue depth at submission: earlier calls not yet
                    // drained, plus this one (the entry in service
                    // counts).
                    while p.inflight.front().is_some_and(|&t| t <= submit) {
                        p.inflight.pop_front();
                    }
                    p.inflight.push_back(server_free);
                    p.queue_highwater = p.queue_highwater.max(p.inflight.len() as u64);
                }
                total = total.saturating_add(wait).saturating_add(service);
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
/// arm, split out so a planned run and a rate replay's payload rebuild
/// can sum a stage's pure ops on their own. A saturating sum of
/// these per-op costs in any association equals `min(true_sum,
/// u64::MAX)`, i.e. exactly the in-order chain.
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

    /// `t` through [`simulate_streamed`] (with instruments,
    /// [`simulate_streamed_instrumented`]) on a fresh scratch: the result
    /// and the run's per-packet latencies.
    fn run(
        nic: &Lnic,
        prog: &NicProgram,
        t: &Trace,
        faults: &FaultPlan,
        wd: &Watchdog,
        cfg: &SimConfig,
        instruments: Option<&mut SimInstruments>,
    ) -> Result<(SimResult, Vec<u64>), SimError> {
        let mut scratch = SimScratch::new();
        let packets = t.iter().cloned();
        let r = match instruments {
            Some(instr) => simulate_streamed_instrumented(
                nic,
                prog,
                packets,
                faults,
                wd,
                cfg,
                &mut scratch,
                instr,
            ),
            None => simulate_streamed(nic, prog, packets, faults, wd, cfg, &mut scratch),
        }?;
        Ok((r, scratch.latencies().to_vec()))
    }

    /// `t` under `faults` with the default watchdog and configuration.
    fn faulted(
        nic: &Lnic,
        prog: &NicProgram,
        t: &Trace,
        faults: &FaultPlan,
    ) -> Result<SimResult, SimError> {
        run(nic, prog, t, faults, &Watchdog::new(), &SimConfig::default(), None).map(|(r, _)| r)
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
        let (wd, cfg) = (Watchdog::new(), SimConfig::default());
        let (a, lat_a) = run(&nic, &prog, &t, &FaultPlan::none(), &wd, &cfg, None).unwrap();
        let (b, lat_b) = run(&nic, &prog, &t, &FaultPlan::none(), &wd, &cfg, None).unwrap();
        assert_eq!(lat_a, lat_b);
        assert_eq!(a.energy_mj, b.energy_mj);
    }

    #[test]
    fn steady_latency_is_the_later_half_mean() {
        let nic = nic();
        let prog = npu_stage(vec![MicroOp::ParseHeader, MicroOp::Hash { count: 2 }]);
        // Every frame corrupt: no packet completes, and both means are 0.
        let all_corrupt = FaultPlan { corrupt_every: 1, ..FaultPlan::none() };
        let r = faulted(&nic, &prog, &trace(10), &all_corrupt).unwrap();
        assert_eq!((r.completed, r.corrupt_drops), (0, 10));
        assert_eq!(r.steady_latency_cycles.to_bits(), 0f64.to_bits());
        assert_eq!(r.avg_latency_cycles.to_bits(), 0f64.to_bits());
        let (wd, cfg) = (Watchdog::new(), SimConfig::default());
        // One packet is its own later half.
        let (r, lat) = run(&nic, &prog, &trace(1), &FaultPlan::none(), &wd, &cfg, None).unwrap();
        assert_eq!(lat.len(), 1);
        assert_eq!(r.steady_latency_cycles.to_bits(), (lat[0] as f64).to_bits());
        // An odd count keeps the middle packet in the later half.
        let (r, lat) = run(&nic, &prog, &trace(7), &FaultPlan::none(), &wd, &cfg, None).unwrap();
        let tail: u64 = lat[3..].iter().sum();
        assert_eq!(r.steady_latency_cycles.to_bits(), (tail as f64 / 4.0).to_bits());
        let total: u64 = lat.iter().sum();
        assert_eq!(r.avg_latency_cycles.to_bits(), (total as f64 / 7.0).to_bits());
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
        let (plain, plain_lat) = run(&nic, &prog, &t, &faults, &wd, &cfg, None).unwrap();
        let mut instr = SimInstruments::with_timeline(5);
        let (seen, seen_lat) = run(&nic, &prog, &t, &faults, &wd, &cfg, Some(&mut instr)).unwrap();

        // Telemetry never perturbs results.
        assert_eq!(plain_lat, seen_lat);
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
        let (ra, ra_lat) =
            run(&nic, &prog, &t, &FaultPlan::none(), &wd, &SimConfig::exact(), Some(&mut a))
                .unwrap();
        // A scratch that has run another program first.
        let mut scratch = SimScratch::new();
        simulate_streamed(
            &nic,
            &npu_stage(vec![MicroOp::Compute { cycles: 900 }]),
            trace(50).iter().cloned(),
            &FaultPlan::none(),
            &wd,
            &SimConfig::default(),
            &mut scratch,
        )
        .unwrap();
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
        assert_eq!(ra_lat, scratch.latencies);
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
        let r = faulted(&nic, &prog, &t, &outage).unwrap();
        assert_eq!(r.accel_drops, 500);
        assert_eq!(r.completed, 0);

        // Flow-cache engine down instead: packets survive but lookups
        // degrade to the backing memory.
        let fc_down = FaultPlan {
            accel_outage: vec![AccelKind::FlowCache],
            dead_threads: 1,
            ..FaultPlan::none()
        };
        let r = faulted(&nic, &prog, &t, &fc_down).unwrap();
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
        let stalled = faulted(
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
        let disabled = faulted(
            &nic,
            &prog,
            &t,
            &FaultPlan { disable_emem_cache: true, ..FaultPlan::none() },
        )
        .unwrap();
        let thrashed = faulted(
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
        let squeezed = faulted(
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

        let corrupt = faulted(
            &nic,
            &prog,
            &t,
            &FaultPlan { corrupt_every: 10, ..FaultPlan::none() },
        )
        .unwrap();
        assert_eq!(corrupt.corrupt_drops, 10);
        assert_eq!(corrupt.completed, 90);

        let healthy = simulate(&nic, &prog, &t).unwrap();
        let runt = faulted(
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
        let err = faulted(
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

        let (fp, cfg) = (FaultPlan::none(), SimConfig::default());
        let per_packet = Watchdog { max_cycles_per_packet: Some(10), ..Watchdog::new() };
        assert!(matches!(
            run(&nic, &prog, &t, &fp, &per_packet, &cfg, None),
            Err(SimError::Watchdog { packet: 0, .. })
        ));

        // A total cap below the aggregate cost trips partway through the
        // trace, attributing the packet that crossed it.
        let total = Watchdog { max_total_cycles: Some(1_000), ..Watchdog::new() };
        match run(&nic, &prog, &t, &fp, &total, &cfg, None) {
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
        let (fp, cfg) = (FaultPlan::none(), SimConfig::default());
        let expired =
            Watchdog { deadline: Some(std::time::Instant::now()), ..Watchdog::new() };
        assert!(matches!(run(&nic, &prog, &t, &fp, &expired, &cfg, None), Err(SimError::TimedOut)));
        let token = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = Watchdog { cancel: Some(token), ..Watchdog::new() };
        assert!(matches!(
            run(&nic, &prog, &t, &fp, &cancelled, &cfg, None),
            Err(SimError::TimedOut)
        ));
    }

    #[test]
    fn default_watchdog_leaves_results_bit_unchanged() {
        // The default caps must be invisible: identical latencies and
        // energy to a run with both caps disabled, and to `simulate`.
        let nic = nic();
        let prog = npu_stage(vec![
            MicroOp::ParseHeader,
            MicroOp::Hash { count: 2 },
            MicroOp::StreamPayload { table: None, loop_overhead: 2 },
        ]);
        let t = trace(300);
        let (fp, cfg) = (FaultPlan::none(), SimConfig::default());
        let uncapped = Watchdog {
            max_cycles_per_packet: Some(u64::MAX),
            max_total_cycles: Some(u64::MAX),
            ..Watchdog::new()
        };
        let (plain, plain_lat) = run(&nic, &prog, &t, &fp, &uncapped, &cfg, None).unwrap();
        let (supervised, supervised_lat) =
            run(&nic, &prog, &t, &fp, &Watchdog::new(), &cfg, None).unwrap();
        assert_eq!(plain_lat, supervised_lat);
        assert_eq!(plain.energy_mj.to_bits(), supervised.energy_mj.to_bits());
        assert_bit_identical(&simulate(&nic, &prog, &t).unwrap(), &supervised, "simulate");
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
    /// bits: batching and streaming are exact rewrites, not
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
        assert_eq!(
            a.steady_latency_cycles.to_bits(),
            b.steady_latency_cycles.to_bits(),
            "{what}: steady"
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

    /// A corpus of programs spanning every stage class: pure
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
                let (fast, fast_lat) =
                    run(&nic, &prog, &t, &faults, &wd, &SimConfig::default(), None).unwrap();
                let (exact, exact_lat) =
                    run(&nic, &prog, &t, &faults, &wd, &SimConfig::exact(), None).unwrap();
                let what = format!("{} under {:?}", prog.name, faults);
                assert_bit_identical(&fast, &exact, &what);
                assert_eq!(fast_lat, exact_lat, "{what}: latencies");
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
            let (fp, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
            let (eager, eager_lat) = run(&nic, &prog, &trace, &fp, &wd, &cfg, None).unwrap();
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
            assert_eq!(scratch.latencies(), &eager_lat[..], "{}", prog.name);
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
        // planned path, including the stage attribution.
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
        let fp = FaultPlan::none();
        let fast = run(&nic, &prog, &t, &fp, &wd, &SimConfig::default(), None);
        let exact = run(&nic, &prog, &t, &fp, &wd, &SimConfig::exact(), None);
        assert_eq!(fast.unwrap_err(), exact.unwrap_err());
    }

    #[test]
    fn thrash_fault_keeps_pure_programs_batched() {
        // dpi-imem's one stage is pure (its automaton sits in uncached
        // IMEM), so flushing the EMEM cache before every packet can change
        // neither a cost nor a cache counter: the run keeps its pure plan,
        // flushes nothing and agrees with the exact oracle.
        let nic = nic();
        let prog = NicProgram {
            name: "dpi".into(),
            tables: vec![TableCfg {
                name: "automaton".into(),
                mem: "imem".into(),
                entry_bytes: 8,
                entries: 65_536,
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
        };
        let t = TraceGenerator::new(5).packets(2_000).flows(500).sizes(SizeDist::imix()).generate();
        let fp = FaultPlan { thrash_emem_cache: true, ..FaultPlan::none() };
        let wd = Watchdog::new();
        let (exact, exact_lat) = run(&nic, &prog, &t, &fp, &wd, &SimConfig::exact(), None).unwrap();
        let mut instr = SimInstruments::new();
        let (fast, fast_lat) =
            run(&nic, &prog, &t, &fp, &wd, &SimConfig::default(), Some(&mut instr)).unwrap();
        assert_eq!(instr.stats.batch_packets, t.len() as u64, "the whole run is on its pure plan");
        assert_bit_identical(&fast, &exact, "dpi-imem under the thrash fault");
        assert_eq!(fast_lat, exact_lat);
    }

    #[test]
    fn saturated_costs_under_disabled_caps_finish_identically() {
        // With both watchdog caps disabled, a saturating stage cost pins
        // finish times at `u64::MAX`: the hub adds and the island
        // occupancy sums must saturate rather than overflow. The default
        // configuration keeps the run on its pure plan, and its saturating
        // chain must agree with the exact oracle.
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
        let wd = Watchdog {
            max_cycles_per_packet: Some(u64::MAX),
            max_total_cycles: Some(u64::MAX),
            ..Watchdog::new()
        };
        let fp = FaultPlan::none();
        let (exact, exact_lat) = run(&nic, &prog, &t, &fp, &wd, &SimConfig::exact(), None).unwrap();
        let (fast, fast_lat) = run(&nic, &prog, &t, &fp, &wd, &SimConfig::default(), None).unwrap();
        assert_bit_identical(&fast, &exact, "saturated");
        assert_eq!(fast_lat, exact_lat);
        let mut instr = SimInstruments::new();
        let (seen, _) =
            run(&nic, &prog, &t, &fp, &wd, &SimConfig::default(), Some(&mut instr)).unwrap();
        assert_bit_identical(&seen, &exact, "saturated, instrumented");
        assert_eq!(instr.stats.batch_packets, 10, "a saturating run stays on its pure plan");
        assert!(instr.stats.conserved());
    }

    #[test]
    fn saturated_costs_ahead_of_an_accelerator_finish_identically() {
        // A near-quarter-`u64` NPU cost ahead of a checksum-accelerator
        // stage, with both watchdog caps disabled: one flow keeps every
        // packet on one thread, so within a few packets the accelerator
        // stage starts at the top of the clock's range. Its submit,
        // service and queue sums must saturate as the NPU arm's do.
        let nic = nic();
        let prog = NicProgram {
            name: "huge-then-csum".into(),
            tables: vec![],
            stages: vec![
                Stage {
                    name: "huge".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::Compute { cycles: 1 << 61 }],
                },
                Stage {
                    name: "csum".into(),
                    unit: StageUnit::Accel(AccelKind::Checksum),
                    ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Frame }],
                },
            ],
        };
        let t = TraceGenerator::new(29)
            .packets(16)
            .flows(1)
            .sizes(SizeDist::Fixed(300))
            .syn_on_first(false)
            .generate();
        let wd = Watchdog {
            max_cycles_per_packet: Some(u64::MAX),
            max_total_cycles: Some(u64::MAX),
            ..Watchdog::new()
        };
        let fp = FaultPlan::none();
        let (exact, exact_lat) = run(&nic, &prog, &t, &fp, &wd, &SimConfig::exact(), None).unwrap();
        let mut instr = SimInstruments::new();
        let (fast, fast_lat) =
            run(&nic, &prog, &t, &fp, &wd, &SimConfig::default(), Some(&mut instr)).unwrap();
        assert_bit_identical(&fast, &exact, "saturated ahead of an accelerator");
        assert_eq!(fast_lat, exact_lat);
        assert_eq!(exact.completed, 16);
        // The last packet finishes at the top of the clock's range.
        let arrival = to_cycles(t.packets()[15].ts_ns, nic.freq_ghz);
        assert_eq!(exact_lat[15], u64::MAX - arrival);
        assert!(instr.stats.conserved());
    }
}
