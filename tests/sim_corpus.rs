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

use clara_core::nfs;
use clara_core::sim::{
    simulate_configured, simulate_instrumented, AccelKind, FaultPlan, NicProgram, SimConfig,
    SimInstruments, SimResult, Watchdog,
};
use clara_core::TraceGenerator;

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

fn assert_identical(label: &str, a: &SimResult, b: &SimResult) {
    assert_eq!(a.latencies, b.latencies, "{label}: latencies");
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
            let exact = simulate_configured(&nic, &prog, &trace, faults, &wd, &SimConfig::exact())
                .unwrap_or_else(|e| panic!("{} fault#{fi}: exact path failed: {e}", prog.name));
            let label = format!("{} fault#{fi} batched", prog.name);
            let got = simulate_configured(&nic, &prog, &trace, faults, &wd, &batched)
                .unwrap_or_else(|e| panic!("{label}: failed: {e}"));
            assert_identical(&label, &got, &exact);

            let label = format!("{} fault#{fi} timeline", prog.name);
            let mut instr = SimInstruments::with_timeline(64);
            let got = simulate_instrumented(&nic, &prog, &trace, faults, &wd, &batched, &mut instr)
                .unwrap_or_else(|e| panic!("{label}: failed: {e}"));
            assert_identical(&label, &got, &exact);
            let st = &instr.stats;
            assert_eq!(st.batch_packets + st.batch_partial_packets, 0, "{label}: batched");
        }
    }
}
