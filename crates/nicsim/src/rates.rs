//! Shared simulation of a family: one trace body at several payloads
//! and offered rates, with each packet's service simulated once.
//!
//! A validation grid simulates every flow sequence at several rates and
//! payloads, and those cells share one trace body up to relabelling
//! ([`TraceBody::relabel`]): the same flows in the same order, only the
//! timestamps and the payload lengths differ. For a program whose stages
//! all run on NPUs, a packet's service does not depend on when it
//! arrives. Its thread is its flow's (RSS dispatch), and an NPU stage's
//! cost reads only the packet, the executing unit and the memory model.
//! The memory model sees the same accesses in the same order at every
//! rate as long as no packet is dropped: a drop removes a packet's
//! accesses from the sequence, and which packets drop depends on the
//! rate. Only accelerator stages read the clock (their single-server
//! queues).
//!
//! Payload enters a packet's service in two ways. The ops the batch
//! kernels call pure (Fixed and PayloadPure, see `engine::classify_op`)
//! read nothing but the unit's cost-equivalence group and the effective
//! payload length. The history-coupled ops (cached tables, the flow
//! cache) read the memory model, and only one of them reads the payload
//! too: a `StreamPayload` walking its transition table in a cached
//! region. Without that op ([`NicProgram::shares_payloads`]), a packet's
//! service at another payload is its recorded service minus its pure
//! part at the recorded length plus its pure part at the new one, and
//! the memory model's counters do not move, apart from the per-byte
//! accesses of a table-walking `StreamPayload` over an uncached region.
//!
//! [`simulate_rates`] therefore runs a family's first cell through the
//! ordinary engine while every route (the scalar loop and both batch
//! kernels) records each packet's thread and service cycles (the
//! saturating sum of its stage costs) plus the run's end-of-run
//! counters. Every other cell is a queueing-only replay of that column,
//! rebuilt for the cell's payload when it differs: the arrival clamp,
//! the pending-start heap and its ingress-capacity check, each thread's
//! `free_at`, the hub latencies with the scalar loop's saturating adds,
//! both watchdog limits and the deadline poll, then the engine's own
//! statistics pass. Rates form the outer loop; a cell whose rebuilt
//! column, stage totals and access counts equal those of the previous
//! cell at its rate is handed that cell's result again. Wherever
//! recording, rebuilding or replay would not be exact, that cell runs in
//! full instead, so every cell's result is bit-identical to
//! [`crate::simulate_streamed`] of `body.relabel(payload).stream(rate)`.
//!
//! Recording happens only when all of these hold: the run takes the fast
//! configuration (never [`SimConfig::exact`]), every stage runs on an
//! NPU, no stage timeline is kept, no offline engine drops packets
//! wholesale, no kernel refuses the run, and the run ends `Ok` with no
//! drop of any kind. A cell whose replay would drop a packet (or trip the
//! per-packet cycle cap) runs in full, and so does one whose rebuild
//! would start from a saturated service or stage total. A replay never
//! reads the memory model, which a full run between two replays
//! overwrites; it reports the recorded snapshot of stage totals,
//! flow-cache and EMEM-cache counters, per-region access counts and
//! truncations, rebuilt for its payload.

use crate::batch::{group_units, pure_ops_cost};
use crate::engine::{
    emem_region, finish, island_layout, run_sim, to_cycles, Hubs, Observation, SimConfig, SimError,
    SimInstruments, SimResult, SimScratch, Tally,
};
use crate::fault::{FaultPlan, TRUNCATED_PAYLOAD_BYTES};
use crate::program::{MicroOp, NicProgram, StageUnit};
use crate::watchdog::{Watchdog, DEADLINE_STRIDE};
use clara_lnic::Lnic;
use clara_packet::PacketSpec;
use clara_telemetry::SimStats;
use clara_workload::TraceBody;
use std::cmp::Reverse;

/// The packet kinds a rebuild prices apart within a unit group: bit 1 is
/// set when the packet carries the family's payload
/// ([`TraceBody::carries_payload`]), bit 0 when the truncation fault
/// shortens it.
const KINDS: usize = 4;

/// The effective payload length of a `kind` packet in the body at
/// `payload`.
fn kind_len(kind: usize, payload: usize) -> u64 {
    let len = if kind & 2 != 0 { payload as u64 } else { 0 };
    if kind & 1 != 0 {
        len.min(TRUNCATED_PAYLOAD_BYTES)
    } else {
        len
    }
}

/// The kind of packet `pkt_idx` of a body under `faults`.
fn kind_of(spec: &PacketSpec, pkt_idx: usize, faults: &FaultPlan) -> usize {
    let truncated =
        faults.truncate_every > 0 && (pkt_idx as u64 + 1).is_multiple_of(faults.truncate_every);
    (usize::from(TraceBody::carries_payload(spec)) << 1) | usize::from(truncated)
}

/// One recorded run: per packet, its thread and service cycles, and the
/// run's counters that do not depend on arrival times.
#[derive(Default)]
pub(crate) struct ServiceColumn {
    /// Whether the column describes the body being simulated: set by a
    /// recording run that ended with every packet completed.
    pub(crate) valid: bool,
    /// The payload of the body the recording run streamed.
    pub(crate) payload: usize,
    /// Per packet: the thread it was dispatched to.
    pub(crate) tids: Vec<u32>,
    /// Per packet: the saturating sum of its stage costs.
    pub(crate) service: Vec<u64>,
    /// Summed cycles per stage.
    pub(crate) stage_totals: Vec<u64>,
    /// Accesses per memory region.
    pub(crate) accesses: Vec<u64>,
    /// Flow-cache (hits, misses).
    pub(crate) flow_cache: (u64, u64),
    /// EMEM-cache (hits, misses), if the NIC has one.
    pub(crate) emem_cache: Option<(u64, u64)>,
    /// Packets the truncation fault shortened.
    pub(crate) truncated: usize,
    /// Per thread: the first (group, kind) slot of its cost-equivalence
    /// group. Empty until the column is first rebuilt.
    slots: Vec<u32>,
    /// Packets per (group, kind) slot.
    counts: Vec<u64>,
    /// The column rebuilt at each payload asked for so far.
    rebuilds: Vec<Rebuild>,
}

impl ServiceColumn {
    /// Empty the column for a recording run of `expected` packets.
    pub(crate) fn start(&mut self, expected: usize) {
        self.valid = false;
        self.tids.clear();
        self.service.clear();
        self.tids.reserve(expected);
        self.service.reserve(expected);
        self.slots.clear();
        self.counts.clear();
        self.rebuilds.clear();
    }
}

/// The column at one payload. A packet's service there is its recorded
/// service minus `pure[slot].0` plus `pure[slot].1`: the pure part of its
/// service at the recorded length and at this payload's, for its
/// (group, kind) slot (0 for a slot no packet is in).
struct Rebuild {
    payload: usize,
    pure: Vec<(u64, u64)>,
    stage_totals: Vec<u64>,
    accesses: Vec<u64>,
    /// False when a recorded stage total saturated, which leaves its pure
    /// part unknown: no cell replays this rebuild.
    exact: bool,
}

impl Rebuild {
    /// Whether a replay from `self` and one from `other` produce the same
    /// run: equal service per packet, stage totals and access counts.
    fn same_run(&self, other: &Rebuild) -> bool {
        self.exact
            && other.exact
            && self.pure == other.pure
            && self.stage_totals == other.stage_totals
            && self.accesses == other.accesses
    }
}

impl NicProgram {
    /// Whether one recorded service column can serve bodies that differ
    /// only in payload on `nic` under `faults` (a family of several
    /// payloads in [`simulate_rates`]): every stage runs on an NPU, since
    /// only such runs record, and no history-coupled op reads the
    /// payload, i.e. no `StreamPayload` walks a transition table in a
    /// region that keeps a cache. When this is false, a family should
    /// hold one payload.
    pub fn shares_payloads(&self, nic: &Lnic, faults: &FaultPlan) -> bool {
        let emem = emem_region(nic);
        self.stages.iter().all(|stage| {
            matches!(stage.unit, StageUnit::Npu)
                && stage.ops.iter().all(|op| {
                    let MicroOp::StreamPayload { table: Some(t), .. } = op else { return true };
                    let region = self.tables.get(*t).and_then(|t| nic.memory_named(&t.mem));
                    region.is_some_and(|m| {
                        nic.memory(m).cache.is_none()
                            || (faults.disable_emem_cache && Some(m) == emem)
                    })
                })
        })
    }
}

/// How [`simulate_rates`] produced a cell's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellRoute {
    /// Simulated in full (recording the family's column when none
    /// serves the cell).
    Full,
    /// A queueing-only replay of the recorded column, rebuilt for the
    /// cell's payload when it differs.
    Replayed,
    /// The previous cell of its rate handed out again: the column rebuilt
    /// for this cell's payload equals that cell's.
    Reused,
}

/// What one cell of a [`simulate_rates`] call produced, handed to its
/// callback before the next cell runs.
pub struct RateRun<'a> {
    /// Position of the cell in the `cells` slice.
    pub index: usize,
    /// The cell's payload, bytes.
    pub payload: usize,
    /// The offered rate, packets per second.
    pub rate_pps: f64,
    /// How the result was produced.
    pub route: CellRoute,
    /// The run's result, bit-identical to [`crate::simulate_streamed`]
    /// of `body.relabel(payload).stream(rate_pps)`, its steady-state
    /// mean included.
    pub result: Result<SimResult, SimError>,
    /// Per-packet latencies in cycles, arrival order: the scratch's
    /// [`SimScratch::latencies`], lent until the next cell runs.
    pub latencies: &'a [u64],
    /// The run's counters, when the call was instrumented: those of
    /// [`crate::simulate_streamed_instrumented`], plus
    /// [`SimStats::replayed_packets`].
    pub stats: Option<SimStats>,
}

/// The previous cell of the current rate, when its result came from the
/// current column (its recording run or a replay).
struct Previous {
    rate_bits: u64,
    payload: usize,
    result: SimResult,
    stats: Option<SimStats>,
}

/// Simulate a family — `body` at each `(payload, rate)` of `cells` — and
/// call `each` with every cell's result while its latencies are still in
/// `scratch`.
///
/// Cells run rate by rate (rates in order of first appearance, cells of
/// one rate in input order), so `each` sees them in that order;
/// [`RateRun::index`] names the cell. Results are bit-identical to one
/// [`crate::simulate_streamed`] (or, with `instrumented`,
/// [`crate::simulate_streamed_instrumented`] with counters only) of
/// `body.relabel(payload).stream(rate)` per cell. A program whose stages
/// all run on NPUs, simulated under the fast configuration, records its
/// first drop-free cell and replays only the queueing at the others,
/// rebuilding the column for another payload when
/// [`NicProgram::shares_payloads`] holds and handing out the previous
/// result of a rate again when the rebuilt column equals its own (see the
/// module documentation); every other run, and any cell a replay cannot
/// reproduce, is simulated in full, relabelling the body when its
/// payload differs.
#[allow(clippy::too_many_arguments)]
pub fn simulate_rates(
    nic: &Lnic,
    prog: &NicProgram,
    body: &TraceBody,
    cells: &[(usize, f64)],
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
    instrumented: bool,
    mut each: impl FnMut(RateRun<'_>),
) {
    scratch.column.valid = false;
    let shares = prog.shares_payloads(nic, faults);
    let mut relabelled: Option<TraceBody> = None;
    let mut last: Option<Previous> = None;
    for index in rate_major(cells) {
        let (payload, rate_pps) = cells[index];
        if last.as_ref().is_some_and(|l| l.rate_bits != rate_pps.to_bits()) {
            last = None;
        }
        let usable = scratch.column.valid && (shares || payload == scratch.column.payload);
        if let Some(l) = last.as_ref().filter(|_| usable) {
            if same_column(nic, prog, body, faults, scratch, l.payload, payload) {
                let stats = l.stats.as_ref().map(|s| SimStats {
                    batch_packets: 0,
                    batch_partial_packets: 0,
                    replayed_packets: l.result.completed as u64,
                    memo_hits: 0,
                    memo_misses: 0,
                    ..s.clone()
                });
                each(RateRun {
                    index,
                    payload,
                    rate_pps,
                    route: CellRoute::Reused,
                    result: Ok(l.result.clone()),
                    latencies: scratch.latencies(),
                    stats,
                });
                continue;
            }
        }
        let mut instruments = instrumented.then(SimInstruments::new);
        let replayed = if usable {
            let rebuilt = (payload != scratch.column.payload)
                .then(|| rebuild(nic, prog, body, faults, scratch, payload));
            replay(
                nic,
                prog,
                body,
                rate_pps,
                faults,
                watchdog,
                scratch,
                rebuilt,
                instruments.as_mut(),
            )
        } else {
            None
        };
        // Whether the cell's result is the current column's: a replay, or
        // the run that recorded it.
        let from_column = (replayed.is_some() || !usable) && scratch.column.valid;
        let route = if replayed.is_some() { CellRoute::Replayed } else { CellRoute::Full };
        let result = match replayed {
            Some(result) => result,
            None => {
                let run_body = if payload == body.payload() {
                    body
                } else {
                    if relabelled.as_ref().is_none_or(|b| b.payload() != payload) {
                        relabelled = Some(body.relabel(payload));
                    }
                    relabelled.as_ref().expect("relabelled above")
                };
                // Record whenever no column serves this payload.
                let result = run_sim(
                    nic,
                    prog,
                    run_body.stream(rate_pps),
                    faults,
                    watchdog,
                    config,
                    scratch,
                    instruments.as_mut(),
                    !usable,
                );
                if !usable {
                    scratch.column.payload = payload;
                }
                result
            }
        };
        let stats = instruments.map(|i| i.stats);
        last = match &result {
            Ok(r) if from_column => Some(Previous {
                rate_bits: rate_pps.to_bits(),
                payload,
                result: r.clone(),
                stats: stats.clone(),
            }),
            _ => None,
        };
        each(RateRun {
            index,
            payload,
            rate_pps,
            route,
            result,
            latencies: scratch.latencies(),
            stats,
        });
    }
}

/// Cell indices rate by rate: rates in order of first appearance, the
/// cells of one rate in input order.
fn rate_major(cells: &[(usize, f64)]) -> Vec<usize> {
    let first =
        |k: usize| cells.iter().position(|c| c.1.to_bits() == cells[k].1.to_bits()).unwrap_or(k);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&k| first(k));
    order
}

/// Whether the column at payloads `a` and `b` replays into the same run.
fn same_column(
    nic: &Lnic,
    prog: &NicProgram,
    body: &TraceBody,
    faults: &FaultPlan,
    scratch: &mut SimScratch,
    a: usize,
    b: usize,
) -> bool {
    if a == b {
        return true;
    }
    let (i, j) = (
        rebuild(nic, prog, body, faults, scratch, a),
        rebuild(nic, prog, body, faults, scratch, b),
    );
    scratch.column.rebuilds[i].same_run(&scratch.column.rebuilds[j])
}

/// The index of the column's [`Rebuild`] at `payload`, priced on first
/// use: the scratch still holds the memory model, tables and threads of
/// this family's last full run, which all its runs set up alike.
fn rebuild(
    nic: &Lnic,
    prog: &NicProgram,
    body: &TraceBody,
    faults: &FaultPlan,
    scratch: &mut SimScratch,
    payload: usize,
) -> usize {
    let SimScratch { mem, tables, threads, batch, column, .. } = scratch;
    if let Some(i) = column.rebuilds.iter().position(|r| r.payload == payload) {
        return i;
    }
    let emem = emem_region(nic);
    let groups = group_units(batch, nic, mem, tables, threads, emem);
    if column.slots.is_empty() {
        column.slots.extend(batch.tid_group.iter().map(|&g| g * KINDS as u32));
        column.counts.resize(groups * KINDS, 0);
        for (pkt_idx, (spec, &tid)) in body.specs().iter().zip(&column.tids).enumerate() {
            let slot = column.slots[tid as usize] as usize + kind_of(spec, pkt_idx, faults);
            column.counts[slot] += 1;
        }
    }
    let mut pure = vec![(0u64, 0u64); groups * KINDS];
    let mut stage_delta = vec![0i128; prog.stages.len()];
    let mut len_delta = 0i128;
    for (slot, part) in pure.iter_mut().enumerate() {
        let count = column.counts[slot];
        if count == 0 {
            continue;
        }
        let (unit, ctm) = batch.group_reps[slot / KINDS];
        let (from, to) = (kind_len(slot % KINDS, column.payload), kind_len(slot % KINDS, payload));
        for (stage, delta) in prog.stages.iter().zip(&mut stage_delta) {
            let at = pure_ops_cost(nic, mem, tables, stage, unit, ctm, from, emem);
            let to_cost = pure_ops_cost(nic, mem, tables, stage, unit, ctm, to, emem);
            *part = (part.0.saturating_add(at), part.1.saturating_add(to_cost));
            *delta += i128::from(count) * (i128::from(to_cost) - i128::from(at));
        }
        len_delta += i128::from(count) * (i128::from(to) - i128::from(from));
    }
    let shift = |total: u64, delta: i128| {
        u64::try_from((i128::from(total) + delta).max(0)).unwrap_or(u64::MAX)
    };
    let exact = column.stage_totals.iter().all(|&t| t < u64::MAX);
    let stage_totals =
        column.stage_totals.iter().zip(&stage_delta).map(|(&t, &d)| shift(t, d)).collect();
    // A table-walking `StreamPayload` makes one access per payload byte.
    let mut accesses = column.accesses.clone();
    for op in prog.stages.iter().flat_map(|s| &s.ops) {
        if let MicroOp::StreamPayload { table: Some(t), .. } = op {
            let region = tables[*t].mem.0;
            accesses[region] = shift(accesses[region], len_delta);
        }
    }
    column.rebuilds.push(Rebuild { payload, pure, stage_totals, accesses, exact });
    column.rebuilds.len() - 1
}

/// `body` at `rate_pps` from the recorded column, rebuilt for another
/// payload by `column.rebuilds[rebuilt]` when given: the scalar loop's
/// queueing with each packet's thread and service cycles read back.
/// `None` when a packet would be dropped at ingress or trip the
/// per-packet cycle cap, or a rebuild would start from a saturated sum;
/// the caller then runs the cell in full, which resets every arena this
/// attempt touched.
#[allow(clippy::too_many_arguments)]
fn replay(
    nic: &Lnic,
    prog: &NicProgram,
    body: &TraceBody,
    rate_pps: f64,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    scratch: &mut SimScratch,
    rebuilt: Option<usize>,
    instruments: Option<&mut SimInstruments>,
) -> Option<Result<SimResult, SimError>> {
    let SimScratch { latencies, completions, select, pending, threads, column, .. } = scratch;
    let rebuilt = rebuilt.map(|i| &column.rebuilds[i]);
    if rebuilt.is_some_and(|r| !r.exact) {
        return None;
    }
    let Hubs { ingress_lat, egress_lat, ingress_capacity } = Hubs::of(nic, faults);
    let (pkt_limit, total_limit) = (watchdog.packet_limit(), watchdog.total_limit());
    let freq = nic.freq_ghz;
    // The recording run set the threads up for this (NIC, fault plan);
    // only their clocks carry over from whichever run came last.
    for t in threads.iter_mut() {
        t.free_at = 0;
    }
    let observe = instruments.is_some();
    let (thread_island, island_threads) =
        if observe { island_layout(nic, threads) } else { Default::default() };
    let mut island_busy = vec![0u64; island_threads.len()];
    latencies.clear();
    completions.clear();
    latencies.reserve(body.len());
    completions.reserve(body.len());
    pending.clear();
    let mut offered = 0usize;
    let mut last_arrival = 0u64;
    let mut busy_cycles = 0u64;
    for (pkt_idx, tp) in body.stream(rate_pps).enumerate() {
        offered += 1;
        if pkt_idx % DEADLINE_STRIDE == 0 && watchdog.expired() {
            return Some(Err(SimError::TimedOut));
        }
        let arrival = to_cycles(tp.ts_ns, freq).max(last_arrival);
        last_arrival = arrival;
        while pending.peek().is_some_and(|&Reverse(s)| s <= arrival) {
            pending.pop();
        }
        if pending.len() >= ingress_capacity {
            return None;
        }
        let tid = column.tids[pkt_idx] as usize;
        let mut pkt_cycles = column.service[pkt_idx];
        if let Some(r) = rebuilt {
            // Below saturation the recorded sum is exact, so its pure
            // part can be swapped for the one at this payload.
            if pkt_cycles == u64::MAX {
                return None;
            }
            let (from, to) =
                r.pure[column.slots[tid] as usize + kind_of(&tp.spec, pkt_idx, faults)];
            pkt_cycles =
                u64::try_from(u128::from(pkt_cycles - from) + u128::from(to)).unwrap_or(u64::MAX);
        }
        if pkt_cycles > pkt_limit {
            return None;
        }
        let start = arrival.max(threads[tid].free_at);
        if start > arrival {
            pending.push(Reverse(start));
        }
        let cur = start
            .saturating_add(ingress_lat)
            .saturating_add(pkt_cycles)
            .saturating_add(egress_lat);
        threads[tid].free_at = cur;
        if observe {
            let busy = &mut island_busy[thread_island[tid]];
            *busy = busy.saturating_add(cur - start);
        }
        busy_cycles = busy_cycles.saturating_add(cur - start);
        if busy_cycles > total_limit {
            return Some(Err(SimError::Watchdog {
                packet: pkt_idx,
                stage: "<run total>".into(),
                cycles: busy_cycles,
                limit: total_limit,
            }));
        }
        completions.push(cur);
        latencies.push(cur - arrival);
    }
    let tally = Tally {
        offered,
        dropped: 0,
        accel_drops: 0,
        corrupt_drops: 0,
        truncated: column.truncated,
        busy_cycles,
        stage_totals: rebuilt.map_or(&column.stage_totals, |r| &r.stage_totals),
        flow_cache: column.flow_cache,
        emem_cache: column.emem_cache,
        accesses: rebuilt.map_or(&column.accesses, |r| &r.accesses),
        batch_packets: 0,
        partial_packets: 0,
        memo_hits: 0,
        memo_misses: 0,
        replayed_packets: latencies.len() as u64,
    };
    let observed = instruments.map(|instruments| Observation {
        instruments,
        probes: None,
        island_busy: &island_busy,
        island_threads: &island_threads,
    });
    Some(Ok(finish(nic, prog, latencies, completions, select, tally, observed)))
}
