//! Property tests on simulator invariants.

use clara_lnic::profiles;
use clara_nicsim::{
    simulate, simulate_configured, simulate_rates, simulate_streamed,
    simulate_streamed_instrumented, AccelKind, BytesSpec, CostCache, FaultPlan, MicroOp,
    NicProgram, SimConfig, SimError, SimInstruments, SimResult, SimScratch, Stage,
    StageUnit, TableCfg, Watchdog,
};
use clara_workload::{SizeDist, Trace, TraceBody, TraceGenerator, WorkloadProfile};
use proptest::prelude::*;

fn prog(ops: Vec<MicroOp>, tables: Vec<TableCfg>) -> NicProgram {
    NicProgram {
        name: "prop".into(),
        tables,
        stages: vec![Stage { name: "s".into(), unit: StageUnit::Npu, ops }],
    }
}

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

/// The random (program, trace, fault-plan, watchdog) quadruple shared by
/// the configuration-equivalence properties below.
#[allow(clippy::too_many_arguments)]
fn build_case(
    stages: Vec<Vec<MicroOp>>,
    seed: u64,
    packets: usize,
    flows: usize,
    payload: usize,
    rate: f64,
    fault_knobs: (bool, bool, bool, u64, u64, usize),
    caps: (Option<usize>, Option<u64>),
) -> (NicProgram, Trace, FaultPlan, Watchdog) {
    let (disable_emem, thrash_emem, fc_outage, corrupt_every, truncate_every, dead_threads) =
        fault_knobs;
    let (ingress_capacity, pkt_cap) = caps;
    let prog = NicProgram {
        name: "prop".into(),
        tables: prop_tables(),
        stages: stages
            .into_iter()
            .enumerate()
            .map(|(i, ops)| Stage { name: format!("s{i}"), unit: StageUnit::Npu, ops })
            .collect(),
    };
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
    let wd = Watchdog { max_cycles_per_packet: pkt_cap, ..Watchdog::new() };
    (prog, trace, faults, wd)
}

/// Every observable of two simulation outcomes, compared bit-for-bit
/// (floats via `to_bits`, errors via their rendering).
fn identical(a: &Result<SimResult, SimError>, b: &Result<SimResult, SimError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.latencies == y.latencies
                && x.packets == y.packets
                && x.completed == y.completed
                && x.dropped == y.dropped
                && x.accel_drops == y.accel_drops
                && x.corrupt_drops == y.corrupt_drops
                && x.truncated == y.truncated
                && x.flow_cache == y.flow_cache
                && x.emem_cache == y.emem_cache
                && x.per_stage_cycles.len() == y.per_stage_cycles.len()
                && x.per_stage_cycles
                    .iter()
                    .zip(&y.per_stage_cycles)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
                && x.avg_latency_cycles.to_bits() == y.avg_latency_cycles.to_bits()
                && x.p50_latency_cycles.to_bits() == y.p50_latency_cycles.to_bits()
                && x.p99_latency_cycles.to_bits() == y.p99_latency_cycles.to_bits()
                && x.max_latency_cycles.to_bits() == y.max_latency_cycles.to_bits()
                && x.avg_latency_ns.to_bits() == y.avg_latency_ns.to_bits()
                && x.achieved_pps.to_bits() == y.achieved_pps.to_bits()
                && x.energy_mj.to_bits() == y.energy_mj.to_bits()
        }
        (Err(x), Err(y)) => x.to_string() == y.to_string(),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every offered packet either completes or is dropped.
    #[test]
    fn packets_conserved(
        packets in 1usize..400,
        flows in 1usize..200,
        rate in 1_000.0f64..10_000_000.0,
    ) {
        let nic = profiles::netronome_agilio_cx40();
        let trace = TraceGenerator::new(1)
            .packets(packets)
            .flows(flows)
            .rate_pps(rate)
            .generate();
        let r = simulate(&nic, &prog(vec![MicroOp::ParseHeader], vec![]), &trace).unwrap();
        prop_assert_eq!(r.completed + r.dropped, r.packets);
        prop_assert_eq!(r.latencies.len(), r.completed);
    }

    /// Latency is never below the program's intrinsic cost, and the
    /// percentile ordering always holds.
    #[test]
    fn latency_ordering(compute in 1u64..50_000, packets in 10usize..300) {
        let nic = profiles::netronome_agilio_cx40();
        let trace = TraceGenerator::new(2)
            .packets(packets)
            .flows(packets)
            .rate_pps(10_000.0)
            .generate();
        let r = simulate(&nic, &prog(vec![MicroOp::Compute { cycles: compute }], vec![]), &trace)
            .unwrap();
        prop_assert!(r.p50_latency_cycles <= r.p99_latency_cycles + 1e-9);
        prop_assert!(r.p99_latency_cycles <= r.max_latency_cycles + 1e-9);
        // Ingress + egress hubs (50 + 50) plus the compute itself.
        prop_assert!(r.avg_latency_cycles >= (compute + 100) as f64 - 1e-9);
    }

    /// Adding work never reduces mean latency (monotonicity in the
    /// program, fixed workload).
    #[test]
    fn more_work_never_faster(extra in 1u64..10_000) {
        let nic = profiles::netronome_agilio_cx40();
        let trace = TraceGenerator::new(3).packets(200).rate_pps(10_000.0).generate();
        let base = simulate(&nic, &prog(vec![MicroOp::Compute { cycles: 100 }], vec![]), &trace)
            .unwrap()
            .avg_latency_cycles;
        let heavier = simulate(
            &nic,
            &prog(
                vec![MicroOp::Compute { cycles: 100 }, MicroOp::Compute { cycles: extra }],
                vec![],
            ),
            &trace,
        )
        .unwrap()
        .avg_latency_cycles;
        prop_assert!(heavier >= base);
    }

    /// Payload streaming latency is monotone in payload size.
    #[test]
    fn stream_monotone_in_payload(small in 0usize..700, delta in 1usize..700) {
        let nic = profiles::netronome_agilio_cx40();
        let mk = |payload: usize| {
            TraceGenerator::new(4)
                .packets(120)
                .rate_pps(10_000.0)
                .sizes(SizeDist::Fixed(payload))
                .syn_on_first(false)
                .generate()
        };
        let p = prog(vec![MicroOp::StreamPayload { table: None, loop_overhead: 3 }], vec![]);
        let a = simulate(&nic, &p, &mk(small)).unwrap().avg_latency_cycles;
        let b = simulate(&nic, &p, &mk(small + delta)).unwrap().avg_latency_cycles;
        prop_assert!(b >= a, "payload {small} -> {a}, {} -> {b}", small + delta);
    }

    /// Table lookups cost at least the region's access latency, whatever
    /// the geometry.
    #[test]
    fn lookup_cost_bounded_below(
        entries in 1u64..100_000,
        entry_bytes in 1usize..64,
    ) {
        let nic = profiles::netronome_agilio_cx40();
        let trace = TraceGenerator::new(5).packets(100).rate_pps(10_000.0).generate();
        let table = TableCfg {
            name: "t".into(),
            mem: "imem".into(),
            entry_bytes,
            entries,
            use_flow_cache: false,
        };
        let with = simulate(&nic, &prog(vec![MicroOp::TableLookup { table: 0 }], vec![table.clone()]), &trace)
            .unwrap()
            .avg_latency_cycles;
        let without = simulate(&nic, &prog(vec![], vec![table]), &trace)
            .unwrap()
            .avg_latency_cycles;
        prop_assert!(with - without >= 250.0 - 1e-9, "marginal lookup {}", with - without);
    }

    /// The default configuration is an exact rewrite: random (program,
    /// trace, fault-plan, watchdog) quadruples must simulate
    /// bit-identically under the default and the exact oracle — same
    /// latencies, same counters, same energy bits, and the same error when
    /// a tight cycle cap trips.
    #[test]
    fn memoization_is_bit_exact(
        stages in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
        seed in any::<u64>(),
        packets in 50usize..250,
        flows in 1usize..300,
        payload in 0usize..1500,
        rate in 10_000.0f64..2_000_000.0,
        fault_knobs in (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0u64..5,
            0u64..5,
            0usize..500,
        ),
        caps in (
            prop_oneof![Just(None), (1usize..32).prop_map(Some)],
            prop_oneof![Just(None), (10_000u64..500_000).prop_map(Some)],
        ),
    ) {
        let (disable_emem, thrash_emem, fc_outage, corrupt_every, truncate_every, dead_threads) =
            fault_knobs;
        let (ingress_capacity, pkt_cap) = caps;
        let nic = profiles::netronome_agilio_cx40();
        let prog = NicProgram {
            name: "prop".into(),
            tables: prop_tables(),
            stages: stages
                .into_iter()
                .enumerate()
                .map(|(i, ops)| Stage { name: format!("s{i}"), unit: StageUnit::Npu, ops })
                .collect(),
        };
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
        let wd = Watchdog { max_cycles_per_packet: pkt_cap, ..Watchdog::new() };
        let fast = simulate_configured(&nic, &prog, &trace, &faults, &wd, &SimConfig::default());
        let exact = simulate_configured(&nic, &prog, &trace, &faults, &wd, &SimConfig::exact());
        match (fast, exact) {
            (Ok(f), Ok(e)) => {
                prop_assert_eq!(f.latencies, e.latencies);
                prop_assert_eq!(f.completed, e.completed);
                prop_assert_eq!(f.dropped, e.dropped);
                prop_assert_eq!(f.accel_drops, e.accel_drops);
                prop_assert_eq!(f.corrupt_drops, e.corrupt_drops);
                prop_assert_eq!(f.truncated, e.truncated);
                prop_assert_eq!(f.flow_cache, e.flow_cache);
                prop_assert_eq!(f.emem_cache, e.emem_cache);
                prop_assert_eq!(f.energy_mj.to_bits(), e.energy_mj.to_bits());
                prop_assert_eq!(f.achieved_pps.to_bits(), e.achieved_pps.to_bits());
                prop_assert_eq!(f.p99_latency_cycles.to_bits(), e.p99_latency_cycles.to_bits());
            }
            (fast, exact) => prop_assert_eq!(fast.map(|_| ()), exact.map(|_| ())),
        }
    }

    /// The batched default and the exact per-packet oracle are one
    /// simulator: on random (program, trace, fault-plan) triples both
    /// must agree bit-for-bit on every observable — whether the run takes
    /// the whole-run kernel (ingress-overflow drops and cache thrash
    /// included), the partial kernel (Live stages), or the scalar loop
    /// (every stage Live, or a kernel refusal).
    #[test]
    fn batch_scalar_and_exact_agree(
        stages in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
        seed in any::<u64>(),
        packets in 50usize..250,
        flows in 1usize..300,
        payload in 0usize..1500,
        rate in 10_000.0f64..2_000_000.0,
        fault_knobs in (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0u64..5,
            0u64..5,
            0usize..500,
        ),
        caps in (
            prop_oneof![Just(None), (1usize..32).prop_map(Some)],
            prop_oneof![Just(None), (10_000u64..500_000).prop_map(Some)],
        ),
    ) {
        let (prog, trace, faults, wd) =
            build_case(stages, seed, packets, flows, payload, rate, fault_knobs, caps);
        let nic = profiles::netronome_agilio_cx40();
        let batched = simulate_configured(&nic, &prog, &trace, &faults, &wd, &SimConfig::default());
        let exact = simulate_configured(&nic, &prog, &trace, &faults, &wd, &SimConfig::exact());
        prop_assert!(identical(&batched, &exact), "batched != exact");
    }

    /// The shared cost cache is invisible in results: workers racing on
    /// one [`CostCache`] while simulating the same random (program,
    /// trace, fault-plan, watchdog) case agree bit-for-bit with the
    /// cacheless batched path and the exact path — and a warm-cache rerun
    /// (pure cross-run reuse) agrees too.
    #[test]
    fn shared_cost_cache_bit_exact(
        stages in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
        seed in any::<u64>(),
        packets in 50usize..250,
        flows in 1usize..300,
        payload in 0usize..1500,
        rate in 10_000.0f64..2_000_000.0,
        fault_knobs in (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0u64..5,
            0u64..5,
            0usize..500,
        ),
        caps in (
            prop_oneof![Just(None), (1usize..32).prop_map(Some)],
            prop_oneof![Just(None), (10_000u64..500_000).prop_map(Some)],
        ),
    ) {
        let (prog, trace, faults, wd) =
            build_case(stages, seed, packets, flows, payload, rate, fault_knobs, caps);
        let nic = profiles::netronome_agilio_cx40();
        let batched = simulate_configured(&nic, &prog, &trace, &faults, &wd, &SimConfig::default());
        let exact = simulate_configured(&nic, &prog, &trace, &faults, &wd, &SimConfig::exact());
        prop_assert!(identical(&batched, &exact), "cacheless batched != exact");

        let cache = std::sync::Arc::new(CostCache::new());
        let run_shared = |cache: &std::sync::Arc<CostCache>| {
            let mut scratch = SimScratch::new();
            scratch.attach_cost_cache(std::sync::Arc::clone(cache));
            simulate_streamed(
                &nic, &prog, trace.iter().cloned(), &faults, &wd,
                &SimConfig::default(), &mut scratch,
            )
            .map(|mut r| {
                r.latencies = scratch.latencies().to_vec();
                r
            })
        };
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3).map(|_| s.spawn(|| run_shared(&cache))).collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        for r in &results {
            prop_assert!(identical(r, &batched), "shared-cache worker != cacheless batched");
        }
        // Rerun against the warm cache: every pure class cost resolves
        // from the shared layer.
        let warm = run_shared(&cache);
        prop_assert!(identical(&warm, &batched), "warm shared-cache rerun != cacheless batched");
    }

    /// Determinism: identical runs produce identical results.
    #[test]
    fn simulation_deterministic(seed in any::<u64>()) {
        let nic = profiles::netronome_agilio_cx40();
        let trace = TraceGenerator::new(seed).packets(150).flows(40).generate();
        let p = prog(
            vec![MicroOp::ParseHeader, MicroOp::Hash { count: 2 }],
            vec![],
        );
        let a = simulate(&nic, &p, &trace).unwrap();
        let b = simulate(&nic, &p, &trace).unwrap();
        prop_assert_eq!(a.latencies, b.latencies);
        prop_assert_eq!(a.dropped, b.dropped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rate-shared simulation is the simulator run once per rate: for
    /// random programs (all-NPU, or with an accelerator stage), random
    /// trace bodies, one to five rates (some high enough to overflow a
    /// small ingress queue), random fault plans and watchdog caps, every
    /// rate's result, latencies and counters equal a fresh instrumented
    /// run of `body.stream(rate)` under the exact oracle, bit for bit.
    /// Counters of a run a batch kernel took are checked against a fresh
    /// run on the same route (their access counts are per class), and a
    /// drop-free rate after a drop-free run of an all-NPU program on the
    /// scalar loop must have been replayed. Half the programs touch the
    /// flow-cached table in every stage, which keeps every stage Live
    /// (the scalar loop) under most fault plans.
    #[test]
    fn rate_shared_runs_match_fresh_exact_runs(
        program in (
            proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
            any::<bool>(),
            any::<bool>(),
        ),
        body in (any::<u64>(), 0usize..250, 1usize..300, 0usize..1500, 0.0f64..1.0, 0.0f64..1.2),
        rates in proptest::collection::vec(
            prop_oneof![10_000.0f64..300_000.0, 1_000_000.0f64..20_000_000.0],
            1..6,
        ),
        fault_knobs in (
            any::<bool>(),
            any::<bool>(),
            0u8..3,
            0u64..5,
            0u64..5,
            prop_oneof![Just(0usize), 0usize..112, 100usize..500],
        ),
        caps in (
            prop_oneof![Just(None), (1usize..32).prop_map(Some)],
            prop_oneof![Just(None), (10_000u64..500_000).prop_map(Some)],
            prop_oneof![Just(None), (100_000u64..5_000_000).prop_map(Some)],
        ),
    ) {
        let (stages, with_accel, live) = program;
        let (seed, packets, flows, payload, tcp_share, zipf_alpha) = body;
        let (disable_emem, thrash_emem, outage, corrupt_every, truncate_every, dead_threads) =
            fault_knobs;
        let (ingress_capacity, pkt_cap, total_cap) = caps;
        let nic = profiles::netronome_agilio_cx40();
        let mut prog = NicProgram {
            name: "prop".into(),
            tables: prop_tables(),
            stages: stages
                .into_iter()
                .enumerate()
                .map(|(i, mut ops)| {
                    if live {
                        ops.push(MicroOp::TableLookup { table: 2 });
                    }
                    Stage { name: format!("s{i}"), unit: StageUnit::Npu, ops }
                })
                .collect(),
        };
        if with_accel {
            prog.stages.insert(1, Stage {
                name: "csum".into(),
                unit: StageUnit::Accel(AccelKind::Checksum),
                ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Payload }],
            });
        }
        let wl = WorkloadProfile {
            flows,
            avg_payload: payload as f64,
            max_payload: payload,
            tcp_share,
            zipf_alpha,
            ..WorkloadProfile::paper_default()
        };
        let body = TraceBody::generate(&wl, packets, seed);
        let faults = FaultPlan {
            accel_outage: match outage {
                1 => vec![AccelKind::FlowCache],
                2 => vec![AccelKind::Checksum],
                _ => vec![],
            },
            disable_emem_cache: disable_emem,
            thrash_emem_cache: thrash_emem,
            corrupt_every,
            truncate_every,
            dead_threads,
            ingress_capacity,
            ..FaultPlan::none()
        };
        let wd = Watchdog {
            max_cycles_per_packet: pkt_cap,
            max_total_cycles: total_cap,
            ..Watchdog::new()
        };
        let fresh = |rate: f64, config: &SimConfig| {
            let mut scratch = SimScratch::new();
            let mut instr = SimInstruments::new();
            let r = simulate_streamed_instrumented(
                &nic, &prog, body.stream(rate), &faults, &wd, config, &mut scratch, &mut instr,
            );
            (r, scratch.latencies().to_vec(), instr.stats)
        };

        let mut runs = Vec::new();
        let mut scratch = SimScratch::new();
        simulate_rates(
            &nic, &prog, &body, &rates, &faults, &wd, &SimConfig::default(), &mut scratch, true,
            |run| runs.push((run.index, run.result, run.latencies.to_vec(), run.stats)),
        );
        prop_assert_eq!(runs.len(), rates.len());
        let mut recorded = false;
        for (k, (index, result, latencies, stats)) in runs.into_iter().enumerate() {
            prop_assert_eq!(index, k);
            let (exact, exact_latencies, exact_stats) = fresh(rates[k], &SimConfig::exact());
            let (_, _, route_stats) = fresh(rates[k], &SimConfig::default());
            let mut stats = stats.expect("an instrumented call reports counters");
            let replayed = std::mem::take(&mut stats.replayed_packets);
            prop_assert!(identical(&result, &exact), "rate {} != exact", rates[k]);
            prop_assert_eq!(&latencies, &exact_latencies, "rate {} latencies", rates[k]);
            let Ok(r) = &result else { continue };
            // A batched run counts its packets in the kernel counters; one
            // that completed none still costed classes, so it is told
            // apart by its completions.
            let scalar = r.completed > 0
                && route_stats.batch_packets + route_stats.batch_partial_packets == 0;
            if scalar {
                prop_assert_eq!(&stats, &exact_stats, "rate {} counters", rates[k]);
            }
            prop_assert_eq!(&stats, &route_stats, "rate {} counters vs its route", rates[k]);
            let replayable = !with_accel && scalar;
            let expect = if replayable && recorded && r.dropped == 0 { r.completed } else { 0 };
            prop_assert_eq!(replayed, expect as u64, "rate {} replayed packets", rates[k]);
            recorded |= replayable && r.dropped + r.corrupt_drops + r.accel_drops == 0;
        }
    }
}
