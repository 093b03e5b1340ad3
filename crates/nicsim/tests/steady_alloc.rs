//! A reused [`SimScratch`] re-initialises the memory model in place: a
//! run of nat (an EMEM-cached binding table with a flow cache in front
//! of it) allocates a small constant, however many flows its trace has,
//! and reuse never changes a bit, whatever fault plan ran before.
//!
//! Allocations, and the bytes they request, are counted per thread by a
//! counting global allocator, so tests running side by side do not see
//! each other's.

use clara_lnic::profiles;
use clara_nicsim::{
    simulate_rates, simulate_streamed, simulate_streamed_instrumented, FaultPlan, NicProgram,
    RateRun, SimConfig, SimInstruments, SimResult, SimScratch, Watchdog,
};
use clara_workload::{TraceBody, WorkloadProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `bytes` (a reallocation counts its new size).
fn bump(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations a reused scratch may make per run. The run-level
/// vectors (stage stalls, the per-stage result table, its stage names)
/// account for about fifteen; cache storage would be thousands.
const STEADY_ALLOCATIONS: u64 = 40;

const PACKETS: usize = 4_000;

/// One nat run of `flows` flows on `scratch`: its result and latencies.
fn run(
    prog: &NicProgram,
    flows: usize,
    faults: &FaultPlan,
    scratch: &mut SimScratch,
) -> (SimResult, Vec<u64>) {
    let nic = profiles::netronome_agilio_cx40();
    let wl = WorkloadProfile { flows, ..WorkloadProfile::paper_default() };
    let stream = wl.to_trace_stream(PACKETS, 1);
    let r = simulate_streamed(
        &nic,
        prog,
        stream,
        faults,
        &Watchdog::new(),
        &SimConfig::default(),
        scratch,
    )
    .expect("nat simulates");
    (r, scratch.latencies().to_vec())
}

#[test]
fn a_reused_scratch_allocates_a_constant_per_run() {
    let prog = clara_nfs::nat::ported();
    let nic = profiles::netronome_agilio_cx40();
    let faults = FaultPlan::none();
    let mut per_flows = Vec::new();
    for flows in [1_000, 100_000] {
        let mut scratch = SimScratch::new();
        run(&prog, flows, &faults, &mut scratch);
        // Only the simulation is counted: the stream is built first.
        let wl = WorkloadProfile { flows, ..WorkloadProfile::paper_default() };
        let stream = wl.to_trace_stream(PACKETS, 1);
        let (wd, cfg) = (Watchdog::new(), SimConfig::default());
        let before = ALLOCATIONS.with(Cell::get);
        let r = simulate_streamed(&nic, &prog, stream, &faults, &wd, &cfg, &mut scratch);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        let r = r.expect("nat simulates");
        assert!(r.emem_cache.is_some_and(|(h, m)| h + m > 0), "the EMEM cache is exercised");
        assert!(r.flow_cache.0 + r.flow_cache.1 > 0, "the flow cache is exercised");
        assert!(
            allocations <= STEADY_ALLOCATIONS,
            "a reused scratch made {allocations} allocations for {flows} flows"
        );
        per_flows.push(allocations);
    }
    assert_eq!(per_flows[0], per_flows[1], "allocations grow with flows: {per_flows:?}");
}

#[test]
fn reuse_after_any_fault_plan_is_bit_identical() {
    let prog = clara_nfs::nat::ported();
    let plans = [
        FaultPlan { disable_emem_cache: true, ..FaultPlan::none() },
        FaultPlan { thrash_emem_cache: true, ..FaultPlan::none() },
        FaultPlan::none(),
    ];
    let mut reused = SimScratch::new();
    for faults in &plans {
        let (a, lat_a) = run(&prog, 100_000, faults, &mut reused);
        let (b, lat_b) = run(&prog, 100_000, faults, &mut SimScratch::new());
        // `Debug` prints every `f64` in its shortest round-trip form, so
        // equal text is equal bits.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{faults:?}");
        assert_eq!(lat_a, lat_b, "{faults:?}");
    }
}

#[test]
fn a_fresh_scratch_sizes_its_packet_arenas_once() {
    // The per-packet arenas (latencies, completions, the order-statistic
    // copy; 8 bytes a packet each) take the trace's length before its
    // first packet, so a longer trace costs no extra allocation, and no
    // run keeps a copy of its packets (a 32-byte `TracePacket` each).
    // Grown by doubling, 16× the packets made four more reallocations
    // per arena.
    let nic = profiles::netronome_agilio_cx40();
    let (faults, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
    for name in ["nat", "firewall", "lpm", "hh"] {
        let (_, prog) = clara_nfs::by_name(name).expect("corpus NF");
        let [(allocs, bytes), (allocs_16x, bytes_16x)] = [PACKETS, 16 * PACKETS].map(|packets| {
            let stream = WorkloadProfile::paper_default().to_trace_stream(packets, 1);
            let mut scratch = SimScratch::new();
            let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
            simulate_streamed(&nic, &prog, stream, &faults, &wd, &cfg, &mut scratch)
                .expect("corpus NF simulates");
            (ALLOCATIONS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
        });
        assert_eq!(allocs, allocs_16x, "{name}: allocations grow with packets");
        let per_packet = (bytes_16x - bytes) as f64 / (15 * PACKETS) as f64;
        assert!(per_packet < 32.0, "{name}: {per_packet} bytes per added packet");
    }
    // Every stage of hh is pure, so its run takes the pure plan.
    let (_, hh) = clara_nfs::by_name("hh").expect("corpus NF");
    let stream = WorkloadProfile::paper_default().to_trace_stream(PACKETS, 1);
    let mut instr = SimInstruments::new();
    let r = simulate_streamed_instrumented(
        &nic,
        &hh,
        stream,
        &faults,
        &wd,
        &cfg,
        &mut SimScratch::new(),
        &mut instr,
    )
    .expect("hh simulates");
    assert_eq!(instr.stats.batch_packets, r.completed as u64, "hh: every packet on the pure plan");
}

#[test]
fn rate_shared_runs_on_a_reused_scratch_allocate_alike_at_any_length() {
    // A family's later cells replay into the same arenas (latencies,
    // completions, the recorded service column) and rebuild the column
    // per payload from per-class prices, so sixteen cells of nat (four
    // payloads at four rates) cost as many allocations at 64,000 packets
    // as at 4,000.
    let nic = profiles::netronome_agilio_cx40();
    let prog = clara_nfs::nat::ported();
    let (faults, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
    let payloads = [100, 300, 700, 1400];
    let cells: Vec<(usize, f64)> = [20_000.0, 60_000.0, 200_000.0, 600_000.0]
        .into_iter()
        .flat_map(|rate| payloads.map(|payload| (payload, rate)))
        .collect();
    let per_packets: Vec<u64> = [PACKETS, 16 * PACKETS]
        .into_iter()
        .map(|packets| {
            let wl = WorkloadProfile { avg_payload: 100.0, ..WorkloadProfile::paper_default() };
            let body = TraceBody::generate(&wl, packets, 1);
            let mut scratch = SimScratch::new();
            let sweep = |scratch: &mut SimScratch| {
                let mut replayed = 0;
                let each = |run: RateRun<'_>| {
                    let r = run.result.expect("nat simulates");
                    replayed += run.stats.expect("instrumented").replayed_packets;
                    assert_eq!(r.completed, packets);
                };
                simulate_rates(&nic, &prog, &body, &cells, &faults, &wd, &cfg, scratch, true, each);
                // One full run; every other cell is replayed.
                assert_eq!(replayed, (cells.len() as u64 - 1) * packets as u64);
            };
            sweep(&mut scratch);
            let before = ALLOCATIONS.with(Cell::get);
            sweep(&mut scratch);
            ALLOCATIONS.with(Cell::get) - before
        })
        .collect();
    assert_eq!(per_packets[0], per_packets[1], "allocations grow with packets");
    assert!(per_packets[0] <= 16 * STEADY_ALLOCATIONS, "{per_packets:?}");
}
