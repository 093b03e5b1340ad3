//! Identity corpus for the simulator's fast paths.
//!
//! Every hand-ported corpus program — across memory placements that
//! exercise the batchable (signature-pure) and non-batchable (live
//! cache) classifications — is simulated under a corpus of fault plans
//! by the exact oracle and by two fast routes: the batched default, and
//! the batched default with a stage timeline attached (the route
//! `clara profile --trace` takes, which sends the run through the scalar
//! loop). Each must agree with the oracle bit-for-bit on every
//! observable: a faster configuration is never a different simulator.
//! A families lane simulates one flow sequence at three payloads and
//! four rates with `simulate_rates` (the other cells of an all-NPU
//! program are replayed from the first one's service column, rebuilt per
//! payload where no cached op reads it) against the oracle on the body
//! generated at each cell's payload.

use clara_core::nfs;
use clara_core::sim::{
    simulate_rates, simulate_streamed, simulate_streamed_instrumented, AccelKind, FaultPlan,
    NicProgram, SimConfig, SimError, SimInstruments, SimResult, SimScratch, Watchdog,
};
use clara_core::{Trace, TraceGenerator, WorkloadProfile};
use clara_workload::TraceBody;

fn corpus() -> Vec<NicProgram> {
    vec![
        // Signature-pure: the whole run goes through the batched kernel.
        nfs::dpi::ported(65_536, "imem"),
        // Live EMEM cache: classified unbatchable, scalar loop all the way.
        nfs::dpi::ported(65_536, "emem"),
        // Flow-cache accelerator: live queues, unbatchable.
        nfs::nat::ported(),
        // Per-flow statistics (counter updates into cached memory).
        nfs::heavy_hitter::ported(4_096),
        // The full VNF chain, mixing all of the above.
        nfs::vnf::ported(),
    ]
}

fn fault_corpus() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan { disable_emem_cache: true, ..FaultPlan::none() },
        FaultPlan { thrash_emem_cache: true, ..FaultPlan::none() },
        FaultPlan { accel_outage: vec![AccelKind::FlowCache], ..FaultPlan::none() },
        FaultPlan { corrupt_every: 7, truncate_every: 11, ..FaultPlan::none() },
        FaultPlan { dead_threads: 200, ingress_capacity: Some(8), ..FaultPlan::none() },
    ]
}

/// One run's result and its per-packet latencies.
type Run = (SimResult, Vec<u64>);

/// `trace` streamed through the simulator on a fresh scratch, with
/// `instruments` when given.
fn run(
    nic: &clara_core::Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
    wd: &Watchdog,
    config: &SimConfig,
    instruments: Option<&mut SimInstruments>,
) -> Result<Run, SimError> {
    let mut scratch = SimScratch::new();
    let packets = trace.iter().cloned();
    let r = match instruments {
        Some(instr) => simulate_streamed_instrumented(
            nic,
            prog,
            packets,
            faults,
            wd,
            config,
            &mut scratch,
            instr,
        ),
        None => simulate_streamed(nic, prog, packets, faults, wd, config, &mut scratch),
    }?;
    Ok((r, scratch.latencies().to_vec()))
}

fn assert_identical(label: &str, (a, a_latencies): &Run, (b, b_latencies): &Run) {
    assert_eq!(a_latencies, b_latencies, "{label}: latencies");
    assert_eq!(a.packets, b.packets, "{label}: packets");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(a.dropped, b.dropped, "{label}: dropped");
    assert_eq!(a.accel_drops, b.accel_drops, "{label}: accel_drops");
    assert_eq!(a.corrupt_drops, b.corrupt_drops, "{label}: corrupt_drops");
    assert_eq!(a.truncated, b.truncated, "{label}: truncated");
    assert_eq!(a.flow_cache, b.flow_cache, "{label}: flow_cache");
    assert_eq!(a.emem_cache, b.emem_cache, "{label}: emem_cache");
    assert_eq!(
        a.energy_mj.to_bits(),
        b.energy_mj.to_bits(),
        "{label}: energy_mj {} vs {}",
        a.energy_mj,
        b.energy_mj
    );
    assert_eq!(
        a.achieved_pps.to_bits(),
        b.achieved_pps.to_bits(),
        "{label}: achieved_pps"
    );
    assert_eq!(
        a.avg_latency_cycles.to_bits(),
        b.avg_latency_cycles.to_bits(),
        "{label}: avg_latency_cycles"
    );
    assert_eq!(
        a.steady_latency_cycles.to_bits(),
        b.steady_latency_cycles.to_bits(),
        "{label}: steady_latency_cycles"
    );
    assert_eq!(
        a.p99_latency_cycles.to_bits(),
        b.p99_latency_cycles.to_bits(),
        "{label}: p99_latency_cycles"
    );
    assert_eq!(a.per_stage_cycles.len(), b.per_stage_cycles.len(), "{label}: stages");
    for ((an, ac), (bn, bc)) in a.per_stage_cycles.iter().zip(&b.per_stage_cycles) {
        assert_eq!(an, bn, "{label}: stage name");
        assert_eq!(ac.to_bits(), bc.to_bits(), "{label}: stage `{an}` cycles");
    }
}

#[test]
fn every_configuration_is_the_same_simulator() {
    let nic = clara_core::profiles::netronome_agilio_cx40();
    let wd = Watchdog::new();
    let trace = TraceGenerator::new(42).packets(600).flows(128).rate_pps(80_000.0).generate();
    let batched = SimConfig::default();
    for prog in corpus() {
        for (fi, faults) in fault_corpus().iter().enumerate() {
            let exact = run(&nic, &prog, &trace, faults, &wd, &SimConfig::exact(), None)
                .unwrap_or_else(|e| panic!("{} fault#{fi}: exact path failed: {e}", prog.name));
            let label = format!("{} fault#{fi} batched", prog.name);
            let got = run(&nic, &prog, &trace, faults, &wd, &batched, None)
                .unwrap_or_else(|e| panic!("{label}: failed: {e}"));
            assert_identical(&label, &got, &exact);

            let label = format!("{} fault#{fi} timeline", prog.name);
            let mut instr = SimInstruments::with_timeline(64);
            let got = run(&nic, &prog, &trace, faults, &wd, &batched, Some(&mut instr))
                .unwrap_or_else(|e| panic!("{label}: failed: {e}"));
            assert_identical(&label, &got, &exact);
            let st = &instr.stats;
            assert_eq!(st.batch_packets + st.batch_partial_packets, 0, "{label}: batched");
        }
    }
}

#[test]
fn every_rate_of_a_shared_body_is_the_same_simulator() {
    // The families lane: one flow sequence at three payloads and four
    // rates per (program, fault plan), against the exact oracle on the
    // body generated at each cell's payload.
    let nic = clara_core::profiles::netronome_agilio_cx40();
    let wd = Watchdog::new();
    let wl = |payload: usize| WorkloadProfile {
        flows: 128,
        avg_payload: payload as f64,
        max_payload: payload,
        ..WorkloadProfile::paper_default()
    };
    let body = TraceBody::generate(&wl(300), 600, 42);
    // The second rate overflows the shrunken ingress queue of the last
    // fault plan, so its replays fall back to full runs, which leave
    // their own memory-model state behind for the replays after them.
    let rates = [20_000.0, 5_000_000.0, 80_000.0, 600_000.0];
    let cells: Vec<(usize, f64)> =
        rates.iter().flat_map(|&r| [300, 64, 1400].map(|p| (p, r))).collect();
    let mut replayed = 0;
    let mut scratch = SimScratch::new();
    for prog in corpus() {
        for (fi, faults) in fault_corpus().iter().enumerate() {
            let mut runs = Vec::new();
            simulate_rates(
                &nic,
                &prog,
                &body,
                &cells,
                faults,
                &wd,
                &SimConfig::default(),
                &mut scratch,
                true,
                |run| {
                    let result = run.result.map(|r| (r, run.latencies.to_vec()));
                    runs.push((run.payload, run.rate_pps, result, run.stats));
                },
            );
            assert_eq!(runs.len(), cells.len());
            for (payload, rate, got, stats) in runs {
                let label = format!("{} fault#{fi} payload {payload} rate {rate}", prog.name);
                let trace: Trace =
                    TraceBody::generate(&wl(payload), 600, 42).stream(rate).collect();
                let exact = run(&nic, &prog, &trace, faults, &wd, &SimConfig::exact(), None)
                    .unwrap_or_else(|e| panic!("{label}: exact path failed: {e}"));
                let got = got.unwrap_or_else(|e| panic!("{label}: failed: {e}"));
                assert_identical(&label, &got, &exact);
                let stats = stats.expect("instrumented");
                assert!(stats.conserved(), "{label}: {stats:?}");
                replayed += stats.replayed_packets;
            }
        }
    }
    assert!(replayed > 0, "no cell of any corpus program was replayed");
}
