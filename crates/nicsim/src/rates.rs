//! Rate-shared simulation: one trace body at several offered rates, with
//! each packet's service simulated once.
//!
//! A validation grid simulates every workload class at several rates,
//! and the rates share one trace body ([`TraceBody`]): the same packets
//! in the same order, only the timestamps differ. For a program whose
//! stages all run on NPUs, a packet's service does not depend on when it
//! arrives. Its thread is its flow's (RSS dispatch), and an NPU stage's
//! cost reads only the packet, the executing unit and the memory model.
//! The memory model sees the same accesses in the same order at every
//! rate as long as no packet is dropped: a drop removes a packet's
//! accesses from the sequence, and which packets drop depends on the
//! rate. Only accelerator stages read the clock (their single-server
//! queues).
//!
//! [`simulate_rates`] therefore runs a body's first rate through the
//! ordinary engine while its scalar loop records each packet's thread
//! and service cycles (the saturating sum of its stage costs) plus the
//! run's end-of-run counters. Every later rate is then a queueing-only
//! replay of that column: the arrival clamp, the pending-start heap and
//! its ingress-capacity check, each thread's `free_at`, the hub
//! latencies with the scalar loop's saturating adds, both watchdog
//! limits and the deadline poll, then the engine's own statistics pass.
//! Wherever recording or replay would not be exact, that rate runs in
//! full instead, so every rate's result is bit-identical to
//! [`crate::simulate_streamed`] of `body.stream(rate)`.
//!
//! Recording happens only when all of these hold: the run takes the
//! scalar loop under the fast configuration (never
//! [`SimConfig::exact`], never a batch kernel), every stage runs on an
//! NPU, no stage timeline is kept, no offline engine drops packets
//! wholesale, and the run ends `Ok` with no drop of any kind. A rate
//! whose replay would drop a packet (or trip the per-packet cycle cap)
//! runs in full. A replay never reads the memory model, which a full run
//! between two replays overwrites; it reports the recorded snapshot of
//! stage totals, flow-cache and EMEM-cache counters, per-region access
//! counts and truncations.

use crate::engine::{
    finish, island_layout, run_sim, to_cycles, Hubs, Observation, SimConfig, SimError,
    SimInstruments, SimResult, SimScratch, Tally,
};
use crate::fault::FaultPlan;
use crate::program::NicProgram;
use crate::watchdog::{Watchdog, DEADLINE_STRIDE};
use clara_lnic::Lnic;
use clara_telemetry::SimStats;
use clara_workload::TraceBody;
use std::cmp::Reverse;

/// One recorded run: per packet, its thread and service cycles, and the
/// run's counters that do not depend on arrival times.
#[derive(Default)]
pub(crate) struct ServiceColumn {
    /// Whether the column describes the body being simulated: set by a
    /// recording run that ended with every packet completed.
    pub(crate) valid: bool,
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
}

/// What one rate of a [`simulate_rates`] call produced, handed to its
/// callback before the next rate runs.
pub struct RateRun<'a> {
    /// Position of the rate in the `rates` slice.
    pub index: usize,
    /// The offered rate, packets per second.
    pub rate_pps: f64,
    /// The run's result, bit-identical to [`crate::simulate_streamed`]
    /// of `body.stream(rate_pps)`; [`SimResult::latencies`] is empty.
    pub result: Result<SimResult, SimError>,
    /// Per-packet latencies in cycles, arrival order.
    pub latencies: &'a [u64],
    /// The run's counters, when the call was instrumented: those of
    /// [`crate::simulate_streamed_instrumented`], plus
    /// [`SimStats::replayed_packets`].
    pub stats: Option<SimStats>,
}

/// Simulate `body` at each of `rates` in order, calling `each` with every
/// rate's result while its latencies are still in `scratch`.
///
/// Results are bit-identical to one [`crate::simulate_streamed`] (or,
/// with `instrumented`, [`crate::simulate_streamed_instrumented`] with
/// counters only) of `body.stream(rate)` per rate. A program whose
/// stages all run on NPUs, simulated by the scalar loop of the fast
/// configuration, records its first drop-free rate and replays only the
/// queueing at the others (see the module documentation); every other
/// run, and any rate a replay cannot reproduce, is simulated in full.
#[allow(clippy::too_many_arguments)]
pub fn simulate_rates(
    nic: &Lnic,
    prog: &NicProgram,
    body: &TraceBody,
    rates: &[f64],
    faults: &FaultPlan,
    watchdog: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
    instrumented: bool,
    mut each: impl FnMut(RateRun<'_>),
) {
    scratch.column.valid = false;
    for (index, &rate_pps) in rates.iter().enumerate() {
        let mut instruments = instrumented.then(SimInstruments::new);
        let replayed = if scratch.column.valid {
            replay(nic, prog, body, rate_pps, faults, watchdog, scratch, instruments.as_mut())
        } else {
            None
        };
        let result = match replayed {
            Some(result) => result,
            None => {
                let record = !scratch.column.valid;
                run_sim(
                    nic,
                    prog,
                    body.stream(rate_pps),
                    faults,
                    watchdog,
                    config,
                    scratch,
                    instruments.as_mut(),
                    record,
                )
            }
        };
        each(RateRun {
            index,
            rate_pps,
            result,
            latencies: scratch.latencies(),
            stats: instruments.map(|i| i.stats),
        });
    }
}

/// `body` at `rate_pps` from the recorded column: the scalar loop's
/// queueing with each packet's thread and service cycles read back.
/// `None` when a packet would be dropped at ingress or trip the
/// per-packet cycle cap; the caller then runs the rate in full, which
/// resets every arena this attempt touched.
#[allow(clippy::too_many_arguments)]
fn replay(
    nic: &Lnic,
    prog: &NicProgram,
    body: &TraceBody,
    rate_pps: f64,
    faults: &FaultPlan,
    watchdog: &Watchdog,
    scratch: &mut SimScratch,
    instruments: Option<&mut SimInstruments>,
) -> Option<Result<SimResult, SimError>> {
    let SimScratch { latencies, completions, select, pending, threads, column, .. } = scratch;
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
        let pkt_cycles = column.service[pkt_idx];
        if pkt_cycles > pkt_limit {
            return None;
        }
        let tid = column.tids[pkt_idx] as usize;
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
        stage_totals: &column.stage_totals,
        flow_cache: column.flow_cache,
        emem_cache: column.emem_cache,
        accesses: &column.accesses,
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
