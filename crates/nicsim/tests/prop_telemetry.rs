//! Property tests on simulator telemetry: instrumentation must observe
//! without perturbing, and its counters must conserve packets.

use clara_lnic::profiles;
use clara_nicsim::{
    simulate_streamed, simulate_streamed_instrumented, AccelKind, FaultPlan, MicroOp, NicProgram,
    SimConfig, SimInstruments, SimScratch, Stage, StageUnit, TableCfg, Watchdog,
};
use clara_workload::{SizeDist, TraceGenerator};
use proptest::prelude::*;

/// Three tables spanning the stage classes: uncached IMEM,
/// cached EMEM, and flow-cache-fronted EMEM.
fn prop_tables() -> Vec<TableCfg> {
    vec![
        TableCfg {
            name: "imem_t".into(),
            mem: "imem".into(),
            entry_bytes: 8,
            entries: 2048,
            use_flow_cache: false,
        },
        TableCfg {
            name: "emem_t".into(),
            mem: "emem".into(),
            entry_bytes: 16,
            entries: 8192,
            use_flow_cache: false,
        },
        TableCfg {
            name: "fc_t".into(),
            mem: "emem".into(),
            entry_bytes: 24,
            entries: 4096,
            use_flow_cache: true,
        },
    ]
}

/// Any NPU micro-op over the three [`prop_tables`] tables.
fn arb_op() -> impl Strategy<Value = MicroOp> {
    prop_oneof![
        (1u64..5_000).prop_map(|cycles| MicroOp::Compute { cycles }),
        Just(MicroOp::ParseHeader),
        (1u64..8).prop_map(|count| MicroOp::MetadataMod { count }),
        (1u64..4).prop_map(|count| MicroOp::Hash { count }),
        (0usize..3).prop_map(|table| MicroOp::TableLookup { table }),
        (0usize..3).prop_map(|table| MicroOp::TableWrite { table }),
        (0usize..3).prop_map(|table| MicroOp::CounterUpdate { table }),
        (0usize..2).prop_map(|table| MicroOp::LinearScan { table }),
        (0u64..20).prop_map(|loop_overhead| MicroOp::StreamPayload { table: None, loop_overhead }),
        (0usize..3, 0u64..20).prop_map(|(t, loop_overhead)| MicroOp::StreamPayload {
            table: Some(t),
            loop_overhead,
        }),
        Just(MicroOp::ChecksumSw),
        (1u64..5).prop_map(|count| MicroOp::FloatOps { count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter conservation and observational purity: for random
    /// (program, trace, fault-plan) triples, an instrumented run is
    /// bit-identical to the uninstrumented run, its counters mirror the
    /// result, and every injected packet is accounted to completion or
    /// exactly one drop cause.
    #[test]
    fn telemetry_conserves_and_never_perturbs(
        stages in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
        seed in any::<u64>(),
        engine_knobs in (
            any::<bool>(),
            any::<bool>(),
            prop_oneof![Just(None), (1u64..32).prop_map(Some)],
        ),
        shape in (50usize..250, 1usize..300, 0usize..1500, 10_000.0f64..2_000_000.0),
        fault_knobs in (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0u64..5,
            0u64..5,
            0usize..500,
        ),
        ingress_capacity in prop_oneof![Just(None), (1usize..32).prop_map(Some)],
    ) {
        let (with_accel, batch, timeline) = engine_knobs;
        let (packets, flows, payload, rate) = shape;
        let (disable_emem, thrash_emem, fc_outage, corrupt_every, truncate_every, dead_threads) =
            fault_knobs;
        let nic = profiles::netronome_agilio_cx40();
        let mut all_stages: Vec<Stage> = stages
            .into_iter()
            .enumerate()
            .map(|(i, ops)| Stage { name: format!("s{i}"), unit: StageUnit::Npu, ops })
            .collect();
        if with_accel {
            all_stages.push(Stage {
                name: "ck".into(),
                unit: StageUnit::Accel(AccelKind::Checksum),
                ops: vec![MicroOp::AccelCall { bytes: clara_nicsim::BytesSpec::Frame }],
            });
        }
        let prog = NicProgram { name: "prop".into(), tables: prop_tables(), stages: all_stages };
        let trace = TraceGenerator::new(seed)
            .packets(packets)
            .flows(flows)
            .rate_pps(rate)
            .sizes(SizeDist::Fixed(payload))
            .generate();
        let faults = FaultPlan {
            accel_outage: if fc_outage { vec![AccelKind::FlowCache] } else { vec![] },
            disable_emem_cache: disable_emem,
            thrash_emem_cache: thrash_emem,
            corrupt_every,
            truncate_every,
            dead_threads,
            ingress_capacity,
            ..FaultPlan::none()
        };
        let wd = Watchdog::default();
        let cfg = SimConfig { batch };
        let mut scratch = SimScratch::new();
        let plain = simulate_streamed(
            &nic, &prog, trace.iter().cloned(), &faults, &wd, &cfg, &mut scratch,
        );
        let plain_latencies = scratch.latencies().to_vec();
        let mut instr = match timeline {
            Some(n) => SimInstruments::with_timeline(n),
            None => SimInstruments::new(),
        };
        let seen = simulate_streamed_instrumented(
            &nic, &prog, trace.iter().cloned(), &faults, &wd, &cfg, &mut scratch, &mut instr,
        );
        match (plain, seen) {
            (Ok(p), Ok(s)) => {
                // Bit-identity: telemetry must never perturb results.
                prop_assert_eq!(&plain_latencies[..], scratch.latencies());
                prop_assert_eq!(
                    p.steady_latency_cycles.to_bits(),
                    s.steady_latency_cycles.to_bits()
                );
                prop_assert_eq!(p.completed, s.completed);
                prop_assert_eq!(p.dropped, s.dropped);
                prop_assert_eq!(p.accel_drops, s.accel_drops);
                prop_assert_eq!(p.corrupt_drops, s.corrupt_drops);
                prop_assert_eq!(p.truncated, s.truncated);
                prop_assert_eq!(p.flow_cache, s.flow_cache);
                prop_assert_eq!(p.emem_cache, s.emem_cache);
                prop_assert_eq!(p.energy_mj.to_bits(), s.energy_mj.to_bits());
                prop_assert_eq!(p.achieved_pps.to_bits(), s.achieved_pps.to_bits());

                // Conservation: injected == delivered + Σ drops-by-cause.
                let st = &instr.stats;
                prop_assert!(st.conserved(), "{:?}", st);
                prop_assert_eq!(st.injected, s.packets as u64);
                prop_assert_eq!(st.completed, s.completed as u64);
                prop_assert_eq!(st.overflow_drops, s.dropped as u64);
                prop_assert_eq!(st.fault_corrupt_drops, s.corrupt_drops as u64);
                prop_assert_eq!(st.fault_accel_drops, s.accel_drops as u64);
                prop_assert_eq!(st.truncated, s.truncated as u64);
                prop_assert_eq!(
                    (st.emem_cache_hits, st.emem_cache_misses),
                    s.emem_cache.unwrap_or((0, 0))
                );
                // Island threads cover every live thread exactly once.
                let hw_threads: usize = nic
                    .units()
                    .iter()
                    .filter(|u| u.class == clara_lnic::ComputeClass::GeneralCore)
                    .map(|u| u.threads)
                    .sum();
                let pool: u64 = st.islands.iter().map(|i| i.threads).sum();
                prop_assert_eq!(pool as usize, hw_threads - dead_threads);
                // The timeline respects its packet budget.
                if let (Some(n), Some(tl)) = (timeline, instr.timeline.as_ref()) {
                    prop_assert!(tl.spans.iter().all(|sp| sp.packet < n));
                }
            }
            (plain, seen) => prop_assert_eq!(plain.map(|_| ()), seen.map(|_| ())),
        }
    }
}
