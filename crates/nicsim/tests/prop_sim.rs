//! Property tests on simulator invariants.

use clara_lnic::{profiles, Lnic};
use clara_nicsim::{
    simulate, simulate_rates, simulate_streamed, simulate_streamed_instrumented, AccelKind,
    BytesSpec, CostCache, FaultPlan, MicroOp, NicProgram, SimConfig, SimError, SimInstruments,
    SimResult, SimScratch, SimStats, Stage, StageUnit, TableCfg, Watchdog,
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

/// A run's result with its per-packet latencies.
type Run = Result<(SimResult, Vec<u64>), SimError>;

/// `trace` through [`simulate_streamed`] on `scratch`.
fn run(
    nic: &Lnic,
    prog: &NicProgram,
    trace: &Trace,
    faults: &FaultPlan,
    wd: &Watchdog,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> Run {
    let r = simulate_streamed(nic, prog, trace.iter().cloned(), faults, wd, config, scratch)?;
    Ok((r, scratch.latencies().to_vec()))
}

/// The steady-state mean, computed the way the benchmark's independent
/// check computes it: the `u64` sum of the later half as `f64`, over
/// that half's length (at least 1).
fn tail_mean(latencies: &[u64]) -> f64 {
    let tail = &latencies[latencies.len() / 2..];
    tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64
}

/// Whether a result's steady-state mean has the bits of [`tail_mean`]
/// over its latencies.
fn steady_is_tail_mean(run: &Run) -> bool {
    match run {
        Ok((r, latencies)) => r.steady_latency_cycles.to_bits() == tail_mean(latencies).to_bits(),
        Err(_) => true,
    }
}

/// Every observable of two simulation outcomes, compared bit-for-bit
/// (floats via `to_bits`, errors via their rendering).
fn identical(a: &Run, b: &Run) -> bool {
    match (a, b) {
        (Ok((x, x_latencies)), Ok((y, y_latencies))) => {
            x_latencies == y_latencies
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
                && x.steady_latency_cycles.to_bits() == y.steady_latency_cycles.to_bits()
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
        let p = prog(vec![MicroOp::ParseHeader], vec![]);
        let (fp, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
        let (r, latencies) =
            run(&nic, &p, &trace, &fp, &wd, &cfg, &mut SimScratch::new()).unwrap();
        prop_assert_eq!(r.completed + r.dropped, r.packets);
        prop_assert_eq!(latencies.len(), r.completed);
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
        let batched =
            run(&nic, &prog, &trace, &faults, &wd, &SimConfig::default(), &mut SimScratch::new());
        let exact =
            run(&nic, &prog, &trace, &faults, &wd, &SimConfig::exact(), &mut SimScratch::new());
        prop_assert!(identical(&batched, &exact), "cacheless batched != exact");

        let cache = std::sync::Arc::new(CostCache::new());
        let run_shared = |cache: &std::sync::Arc<CostCache>| {
            let mut scratch = SimScratch::new();
            scratch.attach_cost_cache(std::sync::Arc::clone(cache));
            run(&nic, &prog, &trace, &faults, &wd, &SimConfig::default(), &mut scratch)
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
        let (fp, wd, cfg) = (FaultPlan::none(), Watchdog::new(), SimConfig::default());
        let fresh = || run(&nic, &p, &trace, &fp, &wd, &cfg, &mut SimScratch::new()).unwrap();
        let ((a, a_latencies), (b, b_latencies)) = (fresh(), fresh());
        prop_assert_eq!(a_latencies, b_latencies);
        prop_assert_eq!(a.dropped, b.dropped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched default and the exact per-packet oracle are one
    /// simulator: on random (program, trace, fault-plan, watchdog)
    /// quadruples both must agree bit-for-bit on every observable — the
    /// same latencies, counters and energy bits, and the same error when
    /// a tight cycle cap trips — whether the run takes the whole-run
    /// kernel (ingress-overflow drops and cache thrash included), the
    /// partial kernel (Live stages), or the scalar loop (every stage
    /// Live, or a kernel refusal). On every route the steady-state mean
    /// is the later-half mean of the run's latencies, bit for bit.
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
        let batched =
            run(&nic, &prog, &trace, &faults, &wd, &SimConfig::default(), &mut SimScratch::new());
        let exact =
            run(&nic, &prog, &trace, &faults, &wd, &SimConfig::exact(), &mut SimScratch::new());
        prop_assert!(identical(&batched, &exact), "batched != exact");
        prop_assert!(steady_is_tail_mean(&batched), "batched steady-state mean");
        prop_assert!(steady_is_tail_mean(&exact), "exact steady-state mean");
    }

    /// What a run memoizes stays in its run: a scratch that has just
    /// simulated another random program — its class tables, cost
    /// columns, memory model and flow-cache fronts all filled — runs a
    /// random (program, trace, fault-plan, watchdog) case bit-identically
    /// to the exact oracle on a fresh scratch, the same error included
    /// when a tight cycle cap trips.
    #[test]
    fn memoization_is_bit_exact(
        programs in (
            proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
            proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
        ),
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
        let (warm_stages, stages) = programs;
        let (warm, ..) =
            build_case(warm_stages, seed, packets, flows, payload, rate, fault_knobs, caps);
        let (prog, trace, faults, wd) =
            build_case(stages, seed, packets, flows, payload, rate, fault_knobs, caps);
        let nic = profiles::netronome_agilio_cx40();
        let (healthy, default_wd) = (FaultPlan::none(), Watchdog::new());
        let mut scratch = SimScratch::new();
        let cfg = SimConfig::default();
        let _ = run(&nic, &warm, &trace, &healthy, &default_wd, &cfg, &mut scratch);
        let reused = run(&nic, &prog, &trace, &faults, &wd, &cfg, &mut scratch);
        let exact =
            run(&nic, &prog, &trace, &faults, &wd, &SimConfig::exact(), &mut SimScratch::new());
        prop_assert!(identical(&reused, &exact), "reused-scratch default != exact");
        prop_assert!(steady_is_tail_mean(&reused), "reused-scratch steady-state mean");
    }
}

/// Counters every simulator route reports alike. A batch kernel counts
/// its own packets and only the accesses of the classes it costed, and a
/// replay or a handed-out result counts its packets as replayed, so those
/// counters are compared only between runs on one route.
fn route_free(s: &SimStats, batched: bool) -> SimStats {
    SimStats {
        batch_packets: 0,
        batch_partial_packets: 0,
        replayed_packets: 0,
        memo_hits: 0,
        memo_misses: 0,
        mem_levels: if batched { Vec::new() } else { s.mem_levels.clone() },
        switch_transfers: if batched { 0 } else { s.switch_transfers },
        ..s.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shared simulation of a family is the simulator run once per cell:
    /// for random programs (all-NPU over uncached, cached and
    /// flow-cache-fronted tables, with payload-pure ops such as
    /// `ChecksumSw` and table-less `StreamPayload`, sometimes a
    /// table-walking `StreamPayload` over cached EMEM, which reads the
    /// payload through the cache, or an accelerator stage), random flow
    /// sequences at one to four payloads (repeats and 0 included) and one
    /// to five rates (some high enough to overflow a small ingress
    /// queue), random fault plans and both watchdog caps (sometimes
    /// disabled under a cost that pushes the batch kernel into refusing
    /// the run), every cell's result and latencies equal a fresh run of
    /// the body generated at its payload under the exact oracle, bit for
    /// bit, and its counters equal the oracle's under the route-free
    /// comparison (a fresh default run's, for a program the batch
    /// kernels take). A program shares payloads exactly when no
    /// history-coupled op reads them, and a drop-free cell that a
    /// recorded column can serve must have been replayed or handed out.
    #[test]
    fn rate_shared_runs_match_fresh_exact_runs(
        program in (
            proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..3),
            any::<bool>(),
            any::<bool>(),
            (0u8..4).prop_map(|k| k == 0),
            0u8..3,
        ),
        body in (any::<u64>(), 0usize..250, 1usize..300, 0.0f64..1.0, 0.0f64..1.2),
        payloads in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(64), Just(300), 0usize..1500],
            1..5,
        ),
        rates in proptest::collection::vec(
            prop_oneof![10_000.0f64..300_000.0, 1_000_000.0f64..20_000_000.0],
            1..6,
        ),
        fault_knobs in (
            any::<bool>(),
            any::<bool>(),
            0u8..3,
            // A corrupt frame drops at every rate, so no column records:
            // mostly off, to leave the families something to share.
            prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1u64..5],
            0u64..5,
            prop_oneof![Just(0usize), 0usize..112, 100usize..500],
        ),
        caps in (
            prop_oneof![Just(None), (1usize..32).prop_map(Some)],
            prop_oneof![Just(None), (10_000u64..500_000).prop_map(Some)],
            prop_oneof![Just(None), (100_000u64..5_000_000).prop_map(Some)],
        ),
    ) {
        let (stages, with_accel, live, huge, scan) = program;
        // The accelerator arm adds clock values unsaturated, so the huge
        // cost goes to all-NPU programs only.
        let huge = huge && !with_accel;
        let (seed, packets, flows, tcp_share, zipf_alpha) = body;
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
        // A transition-table walk over the payload: through the EMEM
        // cache (history-coupled, so payloads cannot share a column) or
        // over uncached IMEM (payload-pure, with per-byte accesses).
        if scan > 0 {
            let table = Some(if scan == 1 { 1 } else { 0 });
            prog.stages[0].ops.push(MicroOp::StreamPayload { table, loop_overhead: 3 });
        }
        if huge {
            // Near a quarter of `u64`: with both caps disabled, a few
            // packets on one thread carry the batch kernel's finish times
            // past its safe bound, and it hands the run to the scalar loop.
            prog.stages[0].ops.push(MicroOp::Compute { cycles: 1 << 61 });
        }
        if with_accel {
            prog.stages.insert(1, Stage {
                name: "csum".into(),
                unit: StageUnit::Accel(AccelKind::Checksum),
                ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Payload }],
            });
        }
        let wl = |payload: usize| WorkloadProfile {
            flows,
            avg_payload: payload as f64,
            max_payload: payload,
            tcp_share,
            zipf_alpha,
            ..WorkloadProfile::paper_default()
        };
        let body = TraceBody::generate(&wl(payloads[0]), packets, seed);
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
        let wd = if huge {
            Watchdog {
                max_cycles_per_packet: Some(u64::MAX),
                max_total_cycles: Some(u64::MAX),
                ..Watchdog::new()
            }
        } else {
            Watchdog {
                max_cycles_per_packet: pkt_cap,
                max_total_cycles: total_cap,
                ..Watchdog::new()
            }
        };
        // Payload-major on purpose: the family runs rate by rate.
        let cells: Vec<(usize, f64)> =
            payloads.iter().flat_map(|&p| rates.iter().map(move |&r| (p, r))).collect();
        let fresh = |payload: usize, rate: f64, config: &SimConfig| {
            let generated = TraceBody::generate(&wl(payload), packets, seed);
            let mut scratch = SimScratch::new();
            let mut instr = SimInstruments::new();
            let r = simulate_streamed_instrumented(
                &nic, &prog, generated.stream(rate), &faults, &wd, config, &mut scratch, &mut instr,
            );
            (r.map(|r| (r, scratch.latencies().to_vec())), instr.stats)
        };

        // The one op that reads the payload through a cache: a transition
        // table in EMEM (tables 1 and 2), unless the fault removes the cache.
        let reads_cached_payload = !disable_emem
            && prog.stages.iter().flat_map(|s| &s.ops).any(|op| {
                matches!(op, MicroOp::StreamPayload { table: Some(1 | 2), .. })
            });
        let shares = !with_accel && !reads_cached_payload;
        prop_assert_eq!(prog.shares_payloads(&nic, &faults), shares);

        let mut runs = Vec::new();
        let mut scratch = SimScratch::new();
        simulate_rates(
            &nic, &prog, &body, &cells, &faults, &wd, &SimConfig::default(), &mut scratch, true,
            |run| {
                let latencies = run.latencies.to_vec();
                runs.push((run.index, run.payload, run.rate_pps, run.result, latencies, run.stats))
            },
        );
        prop_assert_eq!(runs.len(), cells.len());
        let mut order: Vec<usize> = runs.iter().map(|run| run.0).collect();
        let rank = |k: usize| rates.iter().position(|r| r.to_bits() == cells[k].1.to_bits());
        prop_assert!(order.windows(2).all(|w| rank(w[0]) <= rank(w[1])), "not rate by rate");
        order.sort_unstable();
        prop_assert_eq!(order, (0..cells.len()).collect::<Vec<_>>());
        // The payload of the column a replay can read, as the family rule
        // has it: recorded by a drop-free full run of an all-NPU program.
        let mut column: Option<usize> = None;
        for (k, payload, rate, result, latencies, stats) in runs {
            prop_assert_eq!((payload, rate.to_bits()), (cells[k].0, cells[k].1.to_bits()));
            let (exact, exact_stats) = fresh(payload, rate, &SimConfig::exact());
            let (_, route_stats) = fresh(payload, rate, &SimConfig::default());
            let result = result.map(|r| (r, latencies));
            prop_assert!(identical(&result, &exact), "cell ({payload}, {rate}) != exact");
            // A `u64` sum of saturated latencies wraps: `tail_mean` holds
            // only below the huge cost.
            prop_assert!(
                huge || steady_is_tail_mean(&result),
                "cell ({payload}, {rate}) steady-state mean"
            );
            let servable = !with_accel && column.is_some_and(|c| shares || c == payload);
            let Ok((r, _)) = &result else {
                if !servable {
                    column = None;
                }
                continue;
            };
            let stats = stats.expect("an instrumented call reports counters");
            // A batched run counts its packets in the kernel counters; one
            // that completed none still costed classes, so it is told apart
            // by its completions.
            let batched = r.completed == 0
                || route_stats.batch_packets + route_stats.batch_partial_packets > 0;
            let oracle = if batched { &route_stats } else { &exact_stats };
            prop_assert_eq!(
                route_free(&stats, batched),
                route_free(oracle, batched),
                "cell ({}, {}) counters", payload, rate
            );
            let drop_free = r.dropped + r.corrupt_drops + r.accel_drops == 0;
            let replayed = stats.replayed_packets;
            prop_assert!(
                replayed == 0 || replayed == r.completed as u64,
                "cell ({payload}, {rate})"
            );
            if !huge {
                let expect = if servable && drop_free { r.completed } else { 0 };
                prop_assert_eq!(
                    replayed,
                    expect as u64,
                    "cell ({}, {}) replayed packets",
                    payload,
                    rate
                );
            }
            if !servable && !with_accel {
                column = drop_free.then_some(payload);
            }
        }
    }
}
