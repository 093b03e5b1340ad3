//! Batched struct-of-arrays evaluation of signature-pure runs.
//!
//! The scalar engine walks packets one at a time, paying per packet for
//! dispatch hashing and the stage loop even when every stage's cost is
//! a pure function of (executing unit, payload length). This module
//! evaluates such runs columnwise instead:
//!
//! 1. **Ingest** — the trace lands in a row arena (kept for a scalar
//!    replay), and each packet's arrival cycle (with the monotonicity
//!    clamp), dispatch thread, and effective payload length (after
//!    truncation faults) are derived once.
//! 2. **Classify** — threads are grouped into *cost-equivalence unit
//!    groups* (units whose cost model, FPU, residence CTM latency, and
//!    per-table-region latencies agree produce identical stage costs),
//!    and each packet maps to a `(group, payload length)` class. Each
//!    class's per-stage costs are computed once, by the exact
//!    [`stage_cost`] the scalar path uses, when the class first appears.
//! 3. **Merge** — a tight sequential recurrence replays the ingress
//!    queue, per-thread `free_at` chains, and both watchdog limits in
//!    packet order, emitting completions and latencies. In [`run_batched`]
//!    the merge runs inline in the ingest pass, so each packet is touched
//!    once.
//!
//! **Partial-run batching** ([`run_partial`]) extends the same idea to
//! runs where some stages are `Live`: stages are *planned*
//! individually. Signature-pure stages still get per-class column
//! costs; stages whose only live dependence is a flow-cache front over
//! an uncached region get their pure ops costed per class and only the
//! two-valued flow-cache branch (hit constant vs per-(group, table)
//! miss constant) replayed per packet, with the LRU state and hit/miss
//! counters advanced exactly as the scalar path would; genuinely
//! history-coupled stages (accelerator queues, cached regions) are
//! replayed through the scalar [`stage_cost`] at the packet's true
//! start time. Because the merge is a full sequential replay, the
//! partial kernel handles ingress-overflow drops and cache-thrash
//! faults inline and never refuses a run.
//!
//! **Fidelity contract**: every result this module produces is
//! bit-identical to the scalar loop. Saturating per-packet sums of
//! non-negative costs equal `min(true_sum, u64::MAX)` independent of
//! association, so per-class totals replayed per packet are exact.
//! Which runs reach a kernel is decided by the engine before either
//! runs: Live stages (all of them, or any for [`run_batched`]) and a
//! stage timeline are gates. The cache-thrash fault is not: pure stages
//! touch no cached region, so [`run_batched`] ignores it and the partial
//! kernel flushes inline for its Live stages.
//! Both kernels replay ingress-overflow drops in the scalar loop's
//! order. [`run_batched`] refuses a run in only two cases, a
//! saturation-risk class and a finish time at or past `SAFE_CYCLES`,
//! where the closed form would leave the region in which plain and
//! saturating adds agree; it returns `Ok(None)` and the engine replays
//! the scalar loop from the same rows. Falling back is always safe;
//! completing the batch is only done when it is provably exact.
//!
//! Both kernels consult the engine's shared [`CostView`] (when one is
//! attached) before computing a class's pure stage cost, and publish
//! what they compute under the run's post-fault fingerprint, so later
//! runs with an equal fingerprint replay it.

use crate::costcache::CostView;
use crate::engine::{
    classify_op, mix, npu_op_cost, stage_cost, AccelProbe, AccelRt, OpClass, SimError, StageClass,
    TableRt, ThreadRt,
};
use crate::fault::{FaultPlan, TRUNCATED_PAYLOAD_BYTES};
use crate::memory::MemorySim;
use crate::program::{MicroOp, NicProgram, Stage, StageUnit};
use crate::rates::ServiceColumn;
use crate::watchdog::{Watchdog, DEADLINE_STRIDE};
use clara_lnic::{Lnic, MemId, UnitId};
use clara_workload::TracePacket;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel class ids for statically dropped rows.
const CLASS_CORRUPT: u32 = u32::MAX;
const CLASS_OFFLINE: u32 = u32::MAX - 1;

/// Finish times are only trusted while far from the saturation region:
/// below this bound, plain and saturating u64 adds agree, so the
/// per-class closed form equals the scalar per-stage chain.
const SAFE_CYCLES: u128 = 1 << 63;

/// Column arenas and class tables, retained across runs by
/// [`crate::SimScratch`].
#[derive(Default)]
pub(crate) struct BatchScratch {
    /// Arrival cycle per row (partial kernel; monotonicity clamp already
    /// applied).
    arrivals: Vec<u64>,
    /// Dispatch thread per row (partial kernel; valid only for classed
    /// rows).
    tids: Vec<u32>,
    /// Class id per row, or a `CLASS_*` drop sentinel (partial kernel).
    class_of: Vec<u32>,
    /// Unique effective payload lengths, in first-encounter order.
    lens: Vec<u64>,
    /// Cost-equivalence group per thread.
    pub(crate) tid_group: Vec<u32>,
    /// Representative `(unit, ctm)` per group.
    pub(crate) group_reps: Vec<(UnitId, Option<MemId>)>,
    /// Group per unit index (`u32::MAX` = not yet grouped), rebuilt each
    /// run — a direct-indexed memo while grouping.
    unit_groups: Vec<u32>,
    /// Per-class costs, indexed `len_idx * group_count + group`.
    classes: Vec<ClassCost>,
    /// Completed packets per class, for the stage-total closed form.
    class_count: Vec<u64>,
    /// Per-stage evaluation plan (partial kernel).
    plan: Vec<StagePlan>,
    /// Flow-cache miss-path constants, indexed `group * n_tables + table`
    /// (partial kernel; nonzero only for fc-fronted uncached tables).
    fc_miss: Vec<u64>,
    /// Direct-mapped flow → `(hash64, tid)` memo. Both values are pure —
    /// the hash in the five-tuple alone, the dispatch thread in the hash
    /// plus the thread count — so entries survive across runs and
    /// traces; [`BatchScratch::prepare_flow_lut`] flushes the map when a
    /// run arrives with a different thread count.
    flow_lut: Vec<FlowLutEntry>,
    /// Thread count the cached `tid`s were derived under.
    flow_lut_threads: u64,
}

/// log2 of the flow-LUT slot count: 8192 entries keep the zipf-heavy
/// sweep traces (a few thousand distinct flows per body) nearly
/// collision-free while staying L2-resident.
const FLOW_LUT_BITS: u32 = 13;

/// One flow-LUT slot: the five-tuple packed into two words plus the
/// memoized hash and dispatch thread. `b` packs ports and protocol into
/// 40 bits, so `u64::MAX` is a safe empty sentinel.
#[derive(Clone, Copy)]
struct FlowLutEntry {
    a: u64,
    b: u64,
    hash: u64,
    tid: u32,
}

const FLOW_LUT_EMPTY: FlowLutEntry = FlowLutEntry { a: 0, b: u64::MAX, hash: 0, tid: 0 };

/// The five-tuple as two comparison words: addresses in `a`, ports and
/// protocol in `b` (40 bits used — the empty sentinel cannot collide).
#[inline]
fn flow_words(flow: &clara_packet::FiveTuple) -> (u64, u64) {
    let a = (u64::from(u32::from_le_bytes(flow.src_ip)) << 32)
        | u64::from(u32::from_le_bytes(flow.dst_ip));
    let b = (u64::from(flow.src_port) << 24)
        | (u64::from(flow.dst_port) << 8)
        | u64::from(flow.proto.number());
    (a, b)
}

impl BatchScratch {
    /// Size the LUT (first run) or flush it (thread count changed, which
    /// invalidates the cached `tid`s but not the hashes — flushing both
    /// keeps the slot layout trivial).
    fn prepare_flow_lut(&mut self, n_threads: u64) {
        if self.flow_lut.is_empty() {
            self.flow_lut = vec![FLOW_LUT_EMPTY; 1 << FLOW_LUT_BITS];
            self.flow_lut_threads = n_threads;
        } else if self.flow_lut_threads != n_threads {
            self.flow_lut.fill(FLOW_LUT_EMPTY);
            self.flow_lut_threads = n_threads;
        }
    }

    /// `(flow.hash64(), dispatch tid)` via the memo. A hit replays the
    /// exact values a miss would compute — [`clara_packet::FiveTuple::
    /// hash64`] is deterministic and the `mix`/modulo dispatch map reads
    /// nothing but the hash and `n_threads` — so the scalar and batched
    /// paths stay bit-identical with or without the LUT populated.
    #[inline]
    fn flow_hash_tid(&mut self, flow: &clara_packet::FiveTuple, n_threads: u64) -> (u64, u32) {
        let (a, b) = flow_words(flow);
        let idx = ((a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            >> (64 - FLOW_LUT_BITS)) as usize;
        let e = &mut self.flow_lut[idx];
        if e.a == a && e.b == b {
            return (e.hash, e.tid);
        }
        let hash = flow.hash64();
        let tid = (mix(hash ^ 0x5a5a) % n_threads) as u32;
        *e = FlowLutEntry { a, b, hash, tid };
        (hash, tid)
    }
}

/// How the partial kernel evaluates one stage.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StagePlan {
    /// Signature-pure: cost replayed from the class column.
    Pure,
    /// Pure ops costed per class; flow-cache branches replayed per
    /// packet against the real LRU state.
    Fc,
    /// History-coupled: full scalar [`stage_cost`] per packet.
    Scalar,
}

/// Cost of one `(unit group, payload length)` class.
#[derive(Default, Clone)]
struct ClassCost {
    computed: bool,
    /// Per-stage costs from the exact scalar `stage_cost`.
    per_stage: Vec<u64>,
    /// Their saturating sum: a member packet's service cycles.
    service: u64,
    /// True (unsaturated) ingress + stages + egress total.
    total: u128,
    /// First stage whose saturating running sum crossed the per-packet
    /// watchdog limit, with the sum at that point.
    trip: Option<(u32, u64)>,
    /// The saturating chain diverged from the true sum without
    /// tripping: only possible with a disabled per-packet limit, and
    /// the closed form no longer holds — force the scalar fallback.
    risk: bool,
}

/// Everything one batched run needs, borrowed from the engine's setup.
pub(crate) struct BatchRun<'a> {
    pub nic: &'a Lnic,
    pub prog: &'a NicProgram,
    pub faults: &'a FaultPlan,
    pub watchdog: &'a Watchdog,
    /// Ingested rows. [`run_partial`] reads a pre-filled arena;
    /// [`run_batched`] fills it itself while building columns (one fused
    /// pass) so a refusal can still replay the scalar loop over it.
    pub rows: &'a mut Vec<TracePacket>,
    pub emem: Option<MemId>,
    pub fc_engine_cycles: u64,
    pub offline_required: bool,
    pub ingress_lat: u64,
    pub egress_lat: u64,
    pub ingress_capacity: usize,
    pub stage_stalls: &'a [u64],
    pub freq: f64,
    pub pkt_limit: u64,
    pub total_limit: u64,
    /// Per-stage memoization classes, decided by the engine post-fault.
    pub classes: &'a [StageClass],
    /// Shared cost-cache view for this run's fingerprint, if attached.
    pub shared: Option<&'a CostView>,
    /// Shared-layer resolution tallies (hit = answered by `shared`,
    /// miss = computed then published), folded into `SimStats` and the
    /// cache atomics by the engine.
    pub memo_hits: &'a mut u64,
    pub memo_misses: &'a mut u64,
    pub mem: &'a mut MemorySim,
    pub tables: &'a mut Vec<TableRt>,
    pub accels: &'a mut [Option<AccelRt>; 4],
    pub threads: &'a mut [ThreadRt],
    pub pending: &'a mut BinaryHeap<Reverse<u64>>,
    pub latencies: &'a mut Vec<u64>,
    pub completions: &'a mut Vec<u64>,
    pub stage_totals: &'a mut [u64],
    pub fc_hits: &'a mut u64,
    pub fc_misses: &'a mut u64,
    pub scratch: &'a mut BatchScratch,
    pub thread_island: &'a [usize],
    pub island_busy: &'a mut [u64],
    pub instrumented: bool,
    /// Accelerator probes (partial kernel only: live accelerator stages
    /// are replayed through the instrumented scalar path).
    pub probes: Option<&'a mut [AccelProbe; 4]>,
    /// Where a recording run pushes each completed packet's thread and
    /// service cycles, as the scalar loop does.
    pub column: Option<&'a mut ServiceColumn>,
}

/// Counters a completed batch hands back to the engine's epilogue.
#[derive(Default)]
pub(crate) struct BatchTally {
    pub offered: usize,
    pub overflow_drops: usize,
    pub accel_drops: usize,
    pub corrupt_drops: usize,
    pub truncated: usize,
    pub busy_cycles: u64,
    pub batch_packets: u64,
    pub partial_packets: u64,
}

/// Whether two `(unit, ctm)` placements are cost-equivalent: every
/// per-unit input [`stage_cost`] can read on an NPU stage — the cost
/// model, FPU, CTM latency and bulk rate, EMEM latency and bulk rate,
/// and each table's raw latency — compares equal. Equivalent placements
/// produce equal stage costs for every (stage, payload length), so one
/// representative computation covers the whole group.
fn cost_equivalent(
    nic: &Lnic,
    mem: &MemorySim,
    tables: &[TableRt],
    a: (UnitId, Option<MemId>),
    b: (UnitId, Option<MemId>),
    emem: Option<MemId>,
) -> bool {
    let (ua, ub) = (nic.unit(a.0), nic.unit(b.0));
    if ua.cost != ub.cost || ua.has_fpu != ub.has_fpu {
        return false;
    }
    match (a.1, b.1) {
        (Some(ca), Some(cb)) => {
            if mem.raw_latency(a.0, ca) != mem.raw_latency(b.0, cb)
                || mem.bulk_per_byte(ca) != mem.bulk_per_byte(cb)
            {
                return false;
            }
        }
        (None, None) => {}
        _ => return false,
    }
    if let Some(e) = emem {
        if mem.raw_latency(a.0, e) != mem.raw_latency(b.0, e) {
            return false;
        }
    }
    tables.iter().all(|t| mem.raw_latency(a.0, t.mem) == mem.raw_latency(b.0, t.mem))
}

/// Phase 0 of both kernels (and of a shared-service rebuild): group
/// threads into cost-equivalence unit groups (see [`cost_equivalent`]),
/// filling `tid_group`, `group_reps`, and the grouping memo. Returns the
/// group count.
pub(crate) fn group_units(
    scratch: &mut BatchScratch,
    nic: &Lnic,
    mem: &MemorySim,
    tables: &[TableRt],
    threads: &[ThreadRt],
    emem: Option<MemId>,
) -> usize {
    scratch.tid_group.clear();
    scratch.group_reps.clear();
    scratch.unit_groups.clear();
    scratch.unit_groups.resize(nic.units().len(), u32::MAX);
    for t in threads.iter() {
        let g = match scratch.unit_groups[t.unit.0] {
            u32::MAX => {
                let g = match scratch
                    .group_reps
                    .iter()
                    .position(|&rep| cost_equivalent(nic, mem, tables, rep, (t.unit, t.ctm), emem))
                {
                    Some(g) => g as u32,
                    None => {
                        scratch.group_reps.push((t.unit, t.ctm));
                        (scratch.group_reps.len() - 1) as u32
                    }
                };
                scratch.unit_groups[t.unit.0] = g;
                g
            }
            g => g,
        };
        scratch.tid_group.push(g);
    }
    scratch.group_reps.len()
}

/// Resolve one pure class stage cost: shared view first, computing (and
/// publishing) through the exact scalar path on a shared miss. The keys
/// — `(stage, unit)` for `Fixed`, `(stage, unit, len)` for
/// `PayloadPure` — are the same in both kernels, under the same
/// post-fault run fingerprint, so replaying a shared value is
/// bit-identical by construction.
#[allow(clippy::too_many_arguments)]
fn resolve_pure_stage(
    shared: Option<&CostView>,
    memo_hits: &mut u64,
    memo_misses: &mut u64,
    class: StageClass,
    si: u32,
    unit: UnitId,
    len: u64,
    compute: impl FnOnce() -> Result<u64, SimError>,
) -> Result<u64, SimError> {
    let shared_hit = shared.and_then(|v| match class {
        StageClass::Fixed => v.get_fixed(si, unit.0 as u32),
        StageClass::PayloadPure => v.get_payload(si, unit.0 as u32, len),
        StageClass::Live => None,
    });
    if let Some(c) = shared_hit {
        *memo_hits += 1;
        return Ok(c);
    }
    let c = compute()?;
    if class != StageClass::Live {
        *memo_misses += 1;
        if let Some(v) = shared {
            match class {
                StageClass::Fixed => v.put_fixed(si, unit.0 as u32, c),
                StageClass::PayloadPure => v.put_payload(si, unit.0 as u32, len, c),
                StageClass::Live => {}
            }
        }
    }
    Ok(c)
}

/// The pure part of NPU stage `stage` on `unit` at payload length `len`:
/// the saturating sum of its Fixed and PayloadPure ops (every op, for a
/// signature-pure stage). It reads only the unit's cost-equivalence
/// group and `len`: every access these ops make is to an uncached
/// region, whose cost is address-free, so any flow hash and payload seed
/// give the same sum (0 here), and none touches the flow cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pure_ops_cost(
    nic: &Lnic,
    mem: &mut MemorySim,
    tables: &mut [TableRt],
    stage: &Stage,
    unit: UnitId,
    ctm: Option<MemId>,
    len: u64,
    emem: Option<MemId>,
) -> u64 {
    // Pure ops never touch the flow cache or its engine.
    let (mut fc_hits, mut fc_misses) = (0, 0);
    let mut part = 0u64;
    for op in &stage.ops {
        if matches!(classify_op(op, tables, mem), OpClass::Fixed | OpClass::PayloadPure) {
            part = part.saturating_add(npu_op_cost(
                nic,
                mem,
                tables,
                op,
                unit,
                ctm,
                len,
                0,
                0,
                emem,
                &mut fc_hits,
                &mut fc_misses,
                0,
            ));
        }
    }
    part
}

/// Run the batched kernel over a packet stream. Ingestion is fused with
/// the merge: one pass fills the row arena (kept for a potential scalar
/// replay), costs each class on first sight, and replays the ingress
/// queue and per-thread chains inline — ingress-queue overflow drops
/// included, in the scalar loop's exact order. `Ok(Some(tally))` means
/// the arenas hold a completed, exact run; `Ok(None)` means the kernel
/// refused (a saturation-risk class, or a finish time at or past
/// `SAFE_CYCLES`) and the caller must replay the scalar loop over the
/// (fully ingested) rows; `Err` is the same error the scalar loop would
/// have returned.
pub(crate) fn run_batched<I: Iterator<Item = TracePacket>>(
    run: BatchRun<'_>,
    packets: I,
) -> Result<Option<BatchTally>, SimError> {
    let BatchRun {
        nic,
        prog,
        faults,
        watchdog,
        rows,
        emem,
        fc_engine_cycles,
        offline_required,
        ingress_lat,
        egress_lat,
        ingress_capacity,
        stage_stalls,
        freq,
        pkt_limit,
        total_limit,
        classes,
        shared,
        memo_hits,
        memo_misses,
        mem,
        tables,
        accels,
        threads,
        pending,
        latencies,
        completions,
        stage_totals,
        fc_hits,
        fc_misses,
        scratch,
        thread_island,
        island_busy,
        instrumented,
        probes: _,
        mut column,
    } = run;

    // ---- Phase 0: cost-equivalence unit groups --------------------------
    let group_count = group_units(scratch, nic, mem, tables, threads, emem);

    // ---- Phase 1: fused ingest + per-class costs + merge ----------------
    // One pass over the stream: each packet lands in the row arena (so a
    // refusal can replay the scalar loop over complete rows) and straight
    // through the merge. A refusal discovered mid-stream — a risk class,
    // cycle counts near saturation — stops batch work but keeps ingesting
    // rows until the stream is drained; the engine resets every piece of
    // state a refused attempt touched before it replays the scalar loop.
    rows.clear();
    // Sized up front, like the engine's latency arenas (see `run_sim`).
    rows.reserve(packets.size_hint().0);
    scratch.lens.clear();
    scratch.classes.clear();
    scratch.class_count.clear();
    let n_threads = threads.len() as u64;
    scratch.prepare_flow_lut(n_threads);
    let mut tally = BatchTally::default();
    let mut busy_cycles = 0u64;
    let mut last_arrival = 0u64;
    let mut refused = false;
    for (idx, tp) in packets.enumerate() {
        // Same supervision cadence the scalar loop polls at.
        if idx % DEADLINE_STRIDE == 0 && watchdog.expired() {
            return Err(SimError::TimedOut);
        }
        rows.push(tp);
        if refused {
            continue;
        }
        let tp = &rows[idx];
        // Same conversion and monotonicity clamp as the scalar loop.
        let arrival = ((tp.ts_ns as f64 * freq).round() as u64).max(last_arrival);
        last_arrival = arrival;
        if faults.corrupt_every > 0 && (idx as u64 + 1).is_multiple_of(faults.corrupt_every) {
            tally.corrupt_drops += 1;
            continue;
        }
        if offline_required {
            tally.accel_drops += 1;
            continue;
        }
        // Ingress queue, in the scalar loop's exact order: drain started
        // packets, then the capacity check — an overflow drop happens
        // before dispatch, truncation, and class work, and skips them all
        // (including their tallies).
        while pending.peek().is_some_and(|&Reverse(s)| s <= arrival) {
            pending.pop();
        }
        if pending.len() >= ingress_capacity {
            tally.overflow_drops += 1;
            continue;
        }
        let (flow_hash, tid) = scratch.flow_hash_tid(&tp.spec.flow, n_threads);
        let tid = tid as usize;
        let mut len = tp.spec.payload_len as u64;
        if faults.truncate_every > 0 && (idx as u64 + 1).is_multiple_of(faults.truncate_every) {
            tally.truncated += 1;
            len = len.min(TRUNCATED_PAYLOAD_BYTES);
        }
        let len_idx = match scratch.lens.iter().position(|&l| l == len) {
            Some(i) => i,
            None => {
                scratch.lens.push(len);
                scratch
                    .classes
                    .resize_with(scratch.lens.len() * group_count, ClassCost::default);
                scratch.class_count.resize(scratch.lens.len() * group_count, 0);
                scratch.lens.len() - 1
            }
        };
        let cid = len_idx * group_count + scratch.tid_group[tid] as usize;
        if !scratch.classes[cid].computed {
            // First encounter: compute per-stage costs through the exact
            // scalar path. The NPU arm of `stage_cost` never reads the
            // stage start, and eligibility guarantees every stage is an
            // NPU stage, so a zero start is exact. Addresses derive from
            // this packet's flow hash and payload seed; uncached-region
            // access cost is address-free, so any class member yields
            // the same costs.
            let (unit, ctm) = scratch.group_reps[scratch.tid_group[tid] as usize];
            let mut per_stage = Vec::with_capacity(prog.stages.len());
            for (si, stage) in prog.stages.iter().enumerate() {
                per_stage.push(resolve_pure_stage(
                    shared,
                    memo_hits,
                    memo_misses,
                    classes[si],
                    si as u32,
                    unit,
                    len,
                    || {
                        stage_cost(
                            nic,
                            mem,
                            tables,
                            accels,
                            stage,
                            unit,
                            ctm,
                            0,
                            len,
                            0,
                            flow_hash,
                            tp.spec.payload_seed,
                            emem,
                            fc_hits,
                            fc_misses,
                            fc_engine_cycles,
                            stage_stalls[si],
                            None,
                        )
                    },
                )?);
            }
            let mut chain = 0u64;
            let mut sum = 0u128;
            let mut trip = None;
            for (si, &c) in per_stage.iter().enumerate() {
                chain = chain.saturating_add(c);
                sum += c as u128;
                if trip.is_none() && chain > pkt_limit {
                    trip = Some((si as u32, chain));
                }
            }
            scratch.classes[cid] = ClassCost {
                computed: true,
                risk: trip.is_none() && chain as u128 != sum,
                total: ingress_lat as u128 + sum + egress_lat as u128,
                per_stage,
                service: chain,
                trip,
            };
        }
        if scratch.classes[cid].risk {
            // Refusal: stop batch work but keep draining the stream into
            // the row arena so the scalar replay sees every packet.
            refused = true;
            continue;
        }

        // Inline merge: the scalar loop's dispatch and accounting, with
        // the per-stage chain replayed from the class.
        let cls = &scratch.classes[cid];
        if let Some((si, cycles)) = cls.trip {
            return Err(SimError::Watchdog {
                packet: idx,
                stage: prog.stages[si as usize].name.clone(),
                cycles,
                limit: pkt_limit,
            });
        }
        let start = arrival.max(threads[tid].free_at);
        let fin = start as u128 + cls.total;
        if fin >= SAFE_CYCLES {
            refused = true;
            continue;
        }
        let fin = fin as u64;
        if start > arrival {
            pending.push(Reverse(start));
        }
        threads[tid].free_at = fin;
        let service = fin - start;
        if instrumented {
            let busy = &mut island_busy[thread_island[tid]];
            *busy = busy.saturating_add(service);
        }
        busy_cycles = busy_cycles.saturating_add(service);
        if busy_cycles > total_limit {
            return Err(SimError::Watchdog {
                packet: idx,
                stage: "<run total>".into(),
                cycles: busy_cycles,
                limit: total_limit,
            });
        }
        scratch.class_count[cid] += 1;
        if let Some(col) = column.as_deref_mut() {
            col.tids.push(tid as u32);
            col.service.push(cls.service);
        }
        completions.push(fin);
        latencies.push(fin - arrival);
    }
    if refused {
        return Ok(None);
    }
    tally.offered = rows.len();

    // Stage totals via the per-class closed form: a saturating chain of
    // non-negative u64 adds equals min(true sum, u64::MAX) regardless of
    // association, so count × cost accumulated in u128 and clamped is
    // bit-identical to the scalar per-packet accumulation.
    for (cid, &count) in scratch.class_count.iter().enumerate() {
        if count == 0 {
            continue;
        }
        for (si, &c) in scratch.classes[cid].per_stage.iter().enumerate() {
            let sum = stage_totals[si] as u128 + c as u128 * count as u128;
            stage_totals[si] = u64::try_from(sum).unwrap_or(u64::MAX);
        }
    }

    tally.busy_cycles = busy_cycles;
    tally.batch_packets = latencies.len() as u64;
    Ok(Some(tally))
}

/// Partial-run batching: per-stage plans instead of an all-or-nothing
/// gate. Pure stages replay class-column costs; flow-cache-only stages
/// replay only the two-valued cache branch against the real LRU state;
/// everything else goes through the scalar [`stage_cost`] at the
/// packet's true start time. The merge is a full sequential replay of
/// the scalar loop's control flow (ingress queue, overflow drops,
/// truncation, cache-thrash flushes, both watchdogs), so this kernel
/// never refuses a run — every per-packet effect the closed form cannot
/// capture is simply replayed exactly.
pub(crate) fn run_partial(run: BatchRun<'_>) -> Result<BatchTally, SimError> {
    let BatchRun {
        nic,
        prog,
        faults,
        watchdog,
        rows,
        emem,
        fc_engine_cycles,
        offline_required,
        ingress_lat,
        egress_lat,
        ingress_capacity,
        stage_stalls,
        freq,
        pkt_limit,
        total_limit,
        classes,
        shared,
        memo_hits,
        memo_misses,
        mem,
        tables,
        accels,
        threads,
        pending,
        latencies,
        completions,
        stage_totals,
        fc_hits,
        fc_misses,
        scratch,
        thread_island,
        island_busy,
        instrumented,
        mut probes,
        mut column,
    } = run;
    let rows: &[TracePacket] = rows;

    // ---- Phase 0: unit groups + per-stage plans -------------------------
    let group_count = group_units(scratch, nic, mem, tables, threads, emem);
    scratch.plan.clear();
    for (si, stage) in prog.stages.iter().enumerate() {
        let plan = if classes[si] != StageClass::Live {
            StagePlan::Pure
        } else if matches!(stage.unit, StageUnit::Npu) {
            let mut any_fc = false;
            let all_ok = stage.ops.iter().all(|op| match classify_op(op, tables, mem) {
                OpClass::Fixed | OpClass::PayloadPure => true,
                OpClass::FlowCacheOnly => {
                    any_fc = true;
                    true
                }
                OpClass::Live => false,
            });
            if all_ok && any_fc {
                StagePlan::Fc
            } else {
                StagePlan::Scalar
            }
        } else {
            StagePlan::Scalar
        };
        scratch.plan.push(plan);
    }

    // Flow-cache branch constants. The hit path never touches memory;
    // the miss path probes the engine and reads the *uncached* backing
    // region (FlowCacheOnly requires it), whose access cost is
    // address-free — one constant per (unit group, table). Units in a
    // group share per-table raw latencies by construction of
    // [`cost_equivalent`], and bulk rates are per-region, so the group
    // representative's constant is exact for every member.
    let n_tables = tables.len();
    let fc_hit_cost = fc_engine_cycles + 4;
    scratch.fc_miss.clear();
    scratch.fc_miss.resize(group_count * n_tables, 0);
    if scratch.plan.contains(&StagePlan::Fc) {
        for g in 0..group_count {
            let (unit, _) = scratch.group_reps[g];
            for (ti, t) in tables.iter().enumerate() {
                if t.fc.is_some() && !mem.has_cache(t.mem) {
                    scratch.fc_miss[g * n_tables + ti] =
                        fc_engine_cycles + mem.access(unit, t.mem, t.base, t.entry_bytes) + 4;
                }
            }
        }
    }

    // ---- Phase 1: columns + per-class pure costs ------------------------
    scratch.arrivals.clear();
    scratch.tids.clear();
    scratch.class_of.clear();
    scratch.arrivals.reserve(rows.len());
    scratch.tids.reserve(rows.len());
    scratch.class_of.reserve(rows.len());
    scratch.lens.clear();
    scratch.classes.clear();
    let n_threads = threads.len() as u64;
    scratch.prepare_flow_lut(n_threads);
    let mut last_arrival = 0u64;
    for (idx, tp) in rows.iter().enumerate() {
        let arrival = ((tp.ts_ns as f64 * freq).round() as u64).max(last_arrival);
        last_arrival = arrival;
        scratch.arrivals.push(arrival);
        if faults.corrupt_every > 0 && (idx as u64 + 1).is_multiple_of(faults.corrupt_every) {
            scratch.tids.push(0);
            scratch.class_of.push(CLASS_CORRUPT);
            continue;
        }
        if offline_required {
            scratch.tids.push(0);
            scratch.class_of.push(CLASS_OFFLINE);
            continue;
        }
        let (flow_hash, tid) = scratch.flow_hash_tid(&tp.spec.flow, n_threads);
        let tid = tid as usize;
        scratch.tids.push(tid as u32);
        let mut len = tp.spec.payload_len as u64;
        if faults.truncate_every > 0 && (idx as u64 + 1).is_multiple_of(faults.truncate_every) {
            // Tallied in the merge, after the overflow check — the
            // scalar loop does not count overflow-dropped packets.
            len = len.min(TRUNCATED_PAYLOAD_BYTES);
        }
        let len_idx = match scratch.lens.iter().position(|&l| l == len) {
            Some(i) => i,
            None => {
                scratch.lens.push(len);
                scratch
                    .classes
                    .resize_with(scratch.lens.len() * group_count, ClassCost::default);
                scratch.lens.len() - 1
            }
        };
        let cid = len_idx * group_count + scratch.tid_group[tid] as usize;
        if !scratch.classes[cid].computed {
            // First encounter: pure stages through the exact scalar
            // path (zero start is exact — the NPU arm never reads it);
            // flow-cache stages get the sum of their pure ops only, the
            // branch is replayed per packet. Addresses derive from this
            // packet's flow hash, and uncached-region access cost is
            // address-free, so any class member yields the same values.
            let (unit, ctm) = scratch.group_reps[scratch.tid_group[tid] as usize];
            let mut per_stage = Vec::with_capacity(prog.stages.len());
            for (si, stage) in prog.stages.iter().enumerate() {
                let c = match scratch.plan[si] {
                    StagePlan::Pure => resolve_pure_stage(
                        shared,
                        memo_hits,
                        memo_misses,
                        classes[si],
                        si as u32,
                        unit,
                        len,
                        || {
                            stage_cost(
                                nic,
                                mem,
                                tables,
                                accels,
                                stage,
                                unit,
                                ctm,
                                0,
                                len,
                                0,
                                flow_hash,
                                tp.spec.payload_seed,
                                emem,
                                fc_hits,
                                fc_misses,
                                fc_engine_cycles,
                                stage_stalls[si],
                                None,
                            )
                        },
                    )?,
                    // Pure part only; not published to the shared cache —
                    // a partial sum is not a whole-stage signature.
                    StagePlan::Fc => pure_ops_cost(nic, mem, tables, stage, unit, ctm, len, emem),
                    StagePlan::Scalar => 0,
                };
                per_stage.push(c);
            }
            scratch.classes[cid] =
                ClassCost { computed: true, per_stage, ..ClassCost::default() };
        }
        scratch.class_of.push(cid as u32);
    }

    // ---- Phase 2: sequential merge (exact scalar replay) ----------------
    pending.clear();
    let mut tally = BatchTally { offered: rows.len(), ..BatchTally::default() };
    let mut busy_cycles = 0u64;
    for (idx, tp) in rows.iter().enumerate() {
        if idx % DEADLINE_STRIDE == 0 && watchdog.expired() {
            return Err(SimError::TimedOut);
        }
        let cid = scratch.class_of[idx];
        if cid == CLASS_CORRUPT {
            tally.corrupt_drops += 1;
            continue;
        }
        if cid == CLASS_OFFLINE {
            tally.accel_drops += 1;
            continue;
        }
        let arrival = scratch.arrivals[idx];
        while pending.peek().is_some_and(|&Reverse(s)| s <= arrival) {
            pending.pop();
        }
        if pending.len() >= ingress_capacity {
            tally.overflow_drops += 1;
            continue;
        }
        let tid = scratch.tids[idx] as usize;
        let flow_hash = tp.spec.flow.hash64();
        let unit = threads[tid].unit;
        let ctm = threads[tid].ctm;
        let group = scratch.tid_group[tid] as usize;
        let len = scratch.lens[cid as usize / group_count];
        let mut wire_len = tp.spec.wire_len() as u64;
        if faults.truncate_every > 0 && (idx as u64 + 1).is_multiple_of(faults.truncate_every) {
            tally.truncated += 1;
            let headers = wire_len.saturating_sub(tp.spec.payload_len as u64);
            wire_len = headers + len;
        }
        if faults.thrash_emem_cache {
            if let Some(e) = emem {
                mem.flush_cache(e);
            }
        }
        let start = arrival.max(threads[tid].free_at);
        if start > arrival {
            pending.push(Reverse(start));
        }
        let mut cur = start.saturating_add(ingress_lat);
        let mut pkt_cycles = 0u64;
        for (si, stage) in prog.stages.iter().enumerate() {
            let cost = match scratch.plan[si] {
                StagePlan::Pure => scratch.classes[cid as usize].per_stage[si],
                StagePlan::Fc => {
                    let mut c = scratch.classes[cid as usize].per_stage[si];
                    for op in &stage.ops {
                        let (ti, write) = match op {
                            MicroOp::TableLookup { table } if tables[*table].fc.is_some() => {
                                (*table, false)
                            }
                            MicroOp::TableWrite { table } if tables[*table].fc.is_some() => {
                                (*table, true)
                            }
                            _ => continue,
                        };
                        // Same key, same LRU mutation, same counter
                        // bumps as `table_access` — only the backing
                        // read is replaced by its per-(group, table)
                        // constant.
                        let hit = tables[ti].fc.as_mut().unwrap().access(mix(flow_hash));
                        let branch = if hit && !write {
                            *fc_hits += 1;
                            fc_hit_cost
                        } else {
                            if hit {
                                *fc_hits += 1;
                            } else {
                                *fc_misses += 1;
                            }
                            scratch.fc_miss[group * n_tables + ti]
                        };
                        c = c.saturating_add(branch);
                    }
                    c
                }
                StagePlan::Scalar => stage_cost(
                    nic,
                    mem,
                    tables,
                    accels,
                    stage,
                    unit,
                    ctm,
                    cur,
                    len,
                    wire_len,
                    flow_hash,
                    tp.spec.payload_seed,
                    emem,
                    fc_hits,
                    fc_misses,
                    fc_engine_cycles,
                    stage_stalls[si],
                    probes.as_deref_mut(),
                )?,
            };
            pkt_cycles = pkt_cycles.saturating_add(cost);
            if pkt_cycles > pkt_limit {
                return Err(SimError::Watchdog {
                    packet: idx,
                    stage: stage.name.clone(),
                    cycles: pkt_cycles,
                    limit: pkt_limit,
                });
            }
            stage_totals[si] = stage_totals[si].saturating_add(cost);
            cur = cur.saturating_add(cost);
        }
        cur = cur.saturating_add(egress_lat);
        if let Some(col) = column.as_deref_mut() {
            col.tids.push(tid as u32);
            col.service.push(pkt_cycles);
        }
        threads[tid].free_at = cur;
        if instrumented {
            let busy = &mut island_busy[thread_island[tid]];
            *busy = busy.saturating_add(cur - start);
        }
        busy_cycles = busy_cycles.saturating_add(cur - start);
        if busy_cycles > total_limit {
            return Err(SimError::Watchdog {
                packet: idx,
                stage: "<run total>".into(),
                cycles: busy_cycles,
                limit: total_limit,
            });
        }
        completions.push(cur);
        latencies.push(cur - arrival);
    }

    tally.busy_cycles = busy_cycles;
    tally.partial_packets = latencies.len() as u64;
    Ok(tally)
}
