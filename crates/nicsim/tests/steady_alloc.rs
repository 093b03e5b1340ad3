//! A reused [`SimScratch`] re-initialises the memory model in place: a
//! run of nat (an EMEM-cached binding table with a flow cache in front
//! of it) allocates a small constant, however many flows its trace has,
//! and reuse never changes a bit, whatever fault plan ran before.
//!
//! Allocations are counted per thread by a counting global allocator,
//! so tests running side by side do not see each other's.

use clara_lnic::profiles;
use clara_nicsim::{
    simulate_rates, simulate_streamed, FaultPlan, NicProgram, RateRun, SimConfig, SimResult,
    SimScratch, Watchdog,
};
use clara_workload::{TraceBody, WorkloadProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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
    // The per-packet arenas (latencies, completions, the batch kernels'
    // rows and columns) take the trace's length before its first packet,
    // so a longer trace costs no extra allocation. Grown by doubling, 16×
    // the packets made four more reallocations per arena.
    let nic = profiles::netronome_agilio_cx40();
    let (faults, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
    for name in ["nat", "firewall", "lpm", "hh"] {
        let (_, prog) = clara_nfs::by_name(name).expect("corpus NF");
        let per_packets: Vec<u64> = [PACKETS, 16 * PACKETS]
            .into_iter()
            .map(|packets| {
                let stream = WorkloadProfile::paper_default().to_trace_stream(packets, 1);
                let mut scratch = SimScratch::new();
                let before = ALLOCATIONS.with(Cell::get);
                simulate_streamed(&nic, &prog, stream, &faults, &wd, &cfg, &mut scratch)
                    .expect("corpus NF simulates");
                ALLOCATIONS.with(Cell::get) - before
            })
            .collect();
        assert_eq!(per_packets[0], per_packets[1], "{name}: allocations grow with packets");
    }
}

#[test]
fn rate_shared_runs_on_a_reused_scratch_allocate_alike_at_any_length() {
    // A body's later rates replay into the same arenas (latencies,
    // completions, the recorded service column), so four rates of nat
    // cost as many allocations at 64,000 packets as at 4,000.
    let nic = profiles::netronome_agilio_cx40();
    let prog = clara_nfs::nat::ported();
    let (faults, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
    let rates = [20_000.0, 60_000.0, 200_000.0, 600_000.0];
    let per_packets: Vec<u64> = [PACKETS, 16 * PACKETS]
        .into_iter()
        .map(|packets| {
            let body = TraceBody::generate(&WorkloadProfile::paper_default(), packets, 1);
            let mut scratch = SimScratch::new();
            let sweep = |scratch: &mut SimScratch| {
                let mut done = 0;
                let each = |run: RateRun<'_>| {
                    run.result.expect("nat simulates");
                    done += 1;
                };
                simulate_rates(&nic, &prog, &body, &rates, &faults, &wd, &cfg, scratch, false, each);
                assert_eq!(done, rates.len());
            };
            sweep(&mut scratch);
            let before = ALLOCATIONS.with(Cell::get);
            sweep(&mut scratch);
            ALLOCATIONS.with(Cell::get) - before
        })
        .collect();
    assert_eq!(per_packets[0], per_packets[1], "allocations grow with packets");
    assert!(per_packets[0] <= 4 * STEADY_ALLOCATIONS, "{per_packets:?}");
}
