//! Stage plans: how a run of the fast configuration prices each stage.
//!
//! The engine's one per-packet loop (`engine::run_sim`) prices a stage
//! in one of two ways, decided once per run ([`StagePlan`]). A stage
//! whose every op is signature-pure (`Fixed` or `PayloadPure`, see
//! `engine::classify_op`) costs a function of the executing unit's
//! *cost-equivalence group* and the packet's effective payload length
//! alone: every access it makes is to an uncached region, whose cost is
//! address-free. Such a stage is priced once per `(group, length)`
//! class, at the class's first admitted packet, and its cost is read
//! back for every other member. Every other stage (cached regions, the
//! flow cache, accelerator queues) runs through the exact `stage_cost`
//! at the packet's stage start.
//!
//! 1. **Unit groups** — threads are grouped into cost-equivalence unit
//!    groups ([`group_units`]): units whose cost model, FPU, residence
//!    CTM latency and per-table-region latencies agree produce identical
//!    pure costs, so one representative prices the whole group.
//! 2. **Classes** — each admitted packet maps to a `(group, length)`
//!    class ([`BatchScratch::class_parts`]); a class's stage costs are
//!    priced on first sight, through the shared [`CostView`] when one is
//!    attached (published under the run's post-fault fingerprint, so
//!    later runs with an equal fingerprint replay them).
//! 3. **Dispatch** — a direct-mapped flow LUT memoizes each flow's hash
//!    and dispatch thread across runs.
//!
//! **Fidelity**: a saturating sum of non-negative costs equals
//! `min(true sum, u64::MAX)` in any association, so a packet's chain of
//! per-class and per-packet stage costs equals the exact oracle's
//! per-op chain bit for bit. The oracle ([`crate::SimConfig::exact`])
//! plans nothing: every stage of every packet goes through `stage_cost`.

use crate::costcache::CostView;
use crate::engine::{classify_op, mix, npu_op_cost, StageClass, TableRt, ThreadRt};
use crate::memory::MemorySim;
use crate::program::{NicProgram, Stage};
use clara_lnic::{Lnic, MemId, UnitId};

/// How a run prices one stage for every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StagePlan {
    /// `Fixed` or `PayloadPure`: the class's cost, priced once per class.
    Pure,
    /// A `Live` stage: `stage_cost` at the packet's stage start.
    Scalar,
}

/// Stage plans, unit groups, the class table and the flow LUT, retained
/// across runs by [`crate::SimScratch`].
#[derive(Default)]
pub(crate) struct BatchScratch {
    /// The run's plan, one per stage.
    pub(crate) plan: Vec<StagePlan>,
    /// Unique effective payload lengths, in first-encounter order.
    lens: Vec<u64>,
    /// Per class, per stage: the cost priced at the class's first
    /// admitted packet (0 for a `Scalar` stage), at
    /// `class * plan.len() + stage`; classes are `len_idx * groups + group`.
    pub(crate) parts: Vec<u64>,
    /// Whether each class has been priced.
    priced: Vec<bool>,
    /// Cost-equivalence group per thread.
    pub(crate) tid_group: Vec<u32>,
    /// Representative `(unit, ctm)` per group.
    pub(crate) group_reps: Vec<(UnitId, Option<MemId>)>,
    /// Group per unit index (`u32::MAX` = not yet grouped), rebuilt each
    /// run — a direct-indexed memo while grouping.
    unit_groups: Vec<u32>,
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

/// A flow's dispatch thread among `n_threads`: RSS by its hash.
#[inline]
pub(crate) fn dispatch(flow_hash: u64, n_threads: u64) -> u32 {
    (mix(flow_hash ^ 0x5a5a) % n_threads) as u32
}

impl BatchScratch {
    /// Plan every stage `Scalar`: the exact oracle's run, or one with no
    /// pure stage or a stage timeline.
    pub(crate) fn plan_scalar(&mut self, stages: usize) {
        self.plan.clear();
        self.plan.resize(stages, StagePlan::Scalar);
    }

    /// Plan each stage from its post-fault class, group the run's
    /// threads, empty the class table and ready the flow LUT.
    pub(crate) fn plan_run(
        &mut self,
        nic: &Lnic,
        classes: &[StageClass],
        mem: &MemorySim,
        tables: &[TableRt],
        threads: &[ThreadRt],
        emem: Option<MemId>,
    ) {
        self.plan.clear();
        self.plan.extend(classes.iter().map(|&class| match class {
            StageClass::Live => StagePlan::Scalar,
            StageClass::Fixed | StageClass::PayloadPure => StagePlan::Pure,
        }));
        group_units(self, nic, mem, tables, threads, emem);
        self.lens.clear();
        self.parts.clear();
        self.priced.clear();
        self.prepare_flow_lut(threads.len() as u64);
    }

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
    /// hash64`] is deterministic and [`dispatch`] reads nothing but the
    /// hash and the thread count — so a planned run dispatches exactly as
    /// the oracle does, with or without the LUT populated.
    #[inline]
    pub(crate) fn flow_hash_tid(&mut self, flow: &clara_packet::FiveTuple) -> (u64, u32) {
        let (a, b) = flow_words(flow);
        let idx = ((a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            >> (64 - FLOW_LUT_BITS)) as usize;
        let e = &mut self.flow_lut[idx];
        if e.a == a && e.b == b {
            return (e.hash, e.tid);
        }
        let hash = flow.hash64();
        let tid = dispatch(hash, self.flow_lut_threads);
        *e = FlowLutEntry { a, b, hash, tid };
        (hash, tid)
    }

    /// Where the stage costs of the class of a packet on thread `tid` at
    /// effective payload `len` start in [`BatchScratch::parts`], pricing
    /// them on the class's first packet ([`BatchScratch::price`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn class_parts(
        &mut self,
        tid: usize,
        len: u64,
        nic: &Lnic,
        mem: &mut MemorySim,
        tables: &mut [TableRt],
        prog: &NicProgram,
        classes: &[StageClass],
        emem: Option<MemId>,
        shared: Option<&CostView>,
        memo: &mut (u64, u64),
    ) -> usize {
        let len_idx = match self.lens.iter().position(|&l| l == len) {
            Some(i) => i,
            None => {
                self.lens.push(len);
                self.priced.resize(self.lens.len() * self.group_reps.len(), false);
                self.parts.resize(self.priced.len() * self.plan.len(), 0);
                self.lens.len() - 1
            }
        };
        let group = self.tid_group[tid] as usize;
        let class = len_idx * self.group_reps.len() + group;
        if !self.priced[class] {
            self.price(class, group, len, nic, mem, tables, prog, classes, emem, shared, memo);
        }
        class * self.plan.len()
    }

    /// Price `class` (unit group `group`, effective payload `len`): each
    /// `Pure` stage through the shared view (`memo` counts its hits and
    /// misses).
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn price(
        &mut self,
        class: usize,
        group: usize,
        len: u64,
        nic: &Lnic,
        mem: &mut MemorySim,
        tables: &mut [TableRt],
        prog: &NicProgram,
        classes: &[StageClass],
        emem: Option<MemId>,
        shared: Option<&CostView>,
        memo: &mut (u64, u64),
    ) {
        self.priced[class] = true;
        let at = class * self.plan.len();
        let (unit, ctm) = self.group_reps[group];
        for (si, stage) in prog.stages.iter().enumerate() {
            if self.plan[si] == StagePlan::Pure {
                let payload = classes[si] == StageClass::PayloadPure;
                let pure = || pure_ops_cost(nic, mem, tables, stage, unit, ctm, len, emem);
                self.parts[at + si] =
                    resolve_pure_stage(shared, memo, payload, si as u32, unit, len, pure);
            }
        }
    }
}

/// Whether two `(unit, ctm)` placements are cost-equivalent: every
/// per-unit input a pure op can read — the cost model, FPU, CTM latency
/// and bulk rate, EMEM latency and bulk rate, and each table's raw
/// latency — compares equal. Equivalent placements produce equal pure
/// costs for every (stage, payload length), so one representative
/// computation covers the whole group.
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

/// Group threads into cost-equivalence unit groups (see
/// [`cost_equivalent`]) for a planned run or a shared-service rebuild,
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

/// Resolve one pure stage's class cost: the shared view first,
/// computing (and publishing) on a shared miss. The keys — `(stage,
/// unit)` for a `Fixed` stage, `(stage, unit, len)` for a `PayloadPure`
/// one (`payload`) — are taken under the run's post-fault fingerprint,
/// so replaying a shared value is bit-identical by construction.
fn resolve_pure_stage(
    shared: Option<&CostView>,
    memo: &mut (u64, u64),
    payload: bool,
    si: u32,
    unit: UnitId,
    len: u64,
    compute: impl FnOnce() -> u64,
) -> u64 {
    let u = unit.0 as u32;
    let hit =
        shared.and_then(|v| if payload { v.get_payload(si, u, len) } else { v.get_fixed(si, u) });
    if let Some(c) = hit {
        memo.0 += 1;
        return c;
    }
    let c = compute();
    memo.1 += 1;
    if let Some(v) = shared {
        if payload {
            v.put_payload(si, u, len, c);
        } else {
            v.put_fixed(si, u, c);
        }
    }
    c
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
        if classify_op(op, tables, mem) != StageClass::Live {
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
