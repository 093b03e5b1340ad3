//! The main prediction pipeline.

use crate::classes::{enumerate_classes, PacketClass};
use crate::queueing::{accel_wait, pool_wait};
use clara_cir::CirModule;
use clara_dataflow::{extract, DataflowGraph, DfNode};
use clara_lang::StateKind;
use clara_lnic::AccelKind;
use clara_map::cost::reaches_table_engine;
use clara_map::{
    node_compute_cost, solve_mapping_seeded, state_access_cost, CostCtx, IlpSeed, MapError,
    MapInput, Mapping, RunDeadline, SolveBudget, SolverConfig, StateClass, StateSpec, UnitChoice,
};
use clara_microbench::NicParameters;
use clara_workload::WorkloadProfile;
use std::collections::HashMap;

/// Packets spill payload past this many bytes (databook: packets smaller
/// than 1 kB reside in the CTM entirely).
const RESIDENCY_BYTES: f64 = 1024.0;

/// Default cache-hit assumption for DPI automaton tables.
const DPI_HIT_DEFAULT: f64 = 0.2;

/// Errors from prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// Mapping failed.
    Map(MapError),
    /// The cell's [`RunDeadline`] expired before a mapping was found.
    TimedOut,
    /// The run's cancel token was raised while this cell was in flight
    /// (e.g. `--fail-fast` after a sibling's hard failure). The cell was
    /// abandoned, not tried and failed.
    Cancelled,
    /// The cell's prediction panicked; the panic was caught at the sweep
    /// boundary so sibling cells were unaffected.
    Panicked {
        /// Index of the panicking cell in the sweep's scenario order.
        cell: usize,
        /// The panic payload, stringified (`&str`/`String` payloads are
        /// preserved verbatim).
        payload: String,
    },
}

impl core::fmt::Display for PredictError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PredictError::Map(e) => write!(f, "mapping failed: {e}"),
            PredictError::TimedOut => write!(f, "prediction deadline exceeded"),
            PredictError::Cancelled => write!(f, "prediction cancelled"),
            PredictError::Panicked { cell, payload } => {
                write!(f, "cell {cell} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

impl From<MapError> for PredictError {
    fn from(e: MapError) -> Self {
        match e {
            MapError::TimedOut => PredictError::TimedOut,
            other => PredictError::Map(other),
        }
    }
}

/// Prediction for one packet class.
#[derive(Debug, Clone)]
pub struct ClassPrediction {
    /// Class name.
    pub name: String,
    /// Fraction of traffic.
    pub share: f64,
    /// Class payload size, bytes.
    pub payload: f64,
    /// Predicted per-packet latency in cycles, including queueing.
    pub latency_cycles: f64,
}

/// The full §3.5 performance profile.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Expected per-packet latency in cycles (class-share weighted).
    pub avg_latency_cycles: f64,
    /// Same in nanoseconds at the NIC clock.
    pub avg_latency_ns: f64,
    /// Per-class breakdown (the paper's "TCP SYN packets experience
    /// higher latency ..." style of output).
    pub per_class: Vec<ClassPrediction>,
    /// The ILP mapping behind the numbers.
    pub mapping: Mapping,
    /// Idealized sustainable throughput in packets per second.
    pub throughput_pps: f64,
    /// Estimated energy per packet, nanojoules.
    pub energy_nj_per_packet: f64,
    /// The resource limiting throughput.
    pub bottleneck: String,
    /// The extracted dataflow graph (for reporting / porting hints).
    pub graph: DataflowGraph,
}

/// Resolve `(state name, region name)` pins to index pairs.
fn resolve_pins(
    options: &PredictOptions,
    module: &CirModule,
    params: &NicParameters,
) -> Result<Vec<(usize, usize)>, PredictError> {
    options
        .pin_state
        .iter()
        .map(|(state, region)| {
            let s = module
                .states
                .iter()
                .position(|st| &st.name == state)
                .ok_or_else(|| {
                    PredictError::Map(MapError::BadInput(format!("unknown state `{state}`")))
                })?;
            let m = params
                .mems
                .iter()
                .position(|me| &me.name == region)
                .ok_or_else(|| {
                    PredictError::Map(MapError::BadInput(format!("unknown region `{region}`")))
                })?;
            Ok((s, m))
        })
        .collect()
}

/// Build the [`StateSpec`]s the mapper needs from a lowered module.
pub fn state_specs(module: &CirModule) -> Vec<StateSpec> {
    module
        .states
        .iter()
        .map(|s| StateSpec {
            name: s.name.clone(),
            class: match s.kind {
                StateKind::Map { .. } => StateClass::ExactMatch,
                StateKind::Lpm => StateClass::Lpm,
                StateKind::Counter => StateClass::Counter,
                StateKind::Array { .. } => StateClass::Array,
            },
            entries: s.capacity,
            size_bytes: s.size_bytes,
        })
        .collect()
}

/// Node weight for a class: executions per packet, from block weights.
fn node_weight(node: &DfNode, block_weights: &[f64]) -> f64 {
    node.blocks
        .iter()
        .map(|b| block_weights.get(b.0 as usize).copied().unwrap_or(0.0))
        .fold(0.0, f64::max)
}

/// Knobs expressing the developer's porting strategy (§2.3: Clara lets
/// the developer "easily customize offloading strategies").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictOptions {
    /// Price a pure-software port: nothing maps to accelerators.
    pub software_only: bool,
    /// Developer-pinned state placements: `(state name, region name)`.
    pub pin_state: Vec<(String, String)>,
    /// Solver effort cap. When exhausted the mapper degrades gracefully
    /// (incumbent, then greedy) instead of erroring; the resulting
    /// [`Prediction::mapping`] carries the quality tag.
    pub budget: SolveBudget,
    /// Algorithmic solver knobs; the default enables the fast path
    /// (flat tableau, warm starts, memoization), while
    /// [`SolverConfig::baseline`] reproduces the seed solver for
    /// benchmarking.
    pub solver: SolverConfig,
    /// Wall-clock budget for this cell's solve, in milliseconds. `None`
    /// (the default) means unlimited. On expiry the mapper returns its
    /// incumbent (tagged [`clara_map::MappingQuality::Incumbent`]) if it
    /// has one, else the cell fails with [`PredictError::TimedOut`].
    pub deadline_ms: Option<u64>,
    /// Test hook: panic inside the prediction instead of predicting.
    /// Exercises the sweep's panic isolation without contriving an
    /// organically panicking input.
    #[doc(hidden)]
    pub inject_panic: bool,
}

/// Predict the performance of `module` on the NIC described by `params`
/// under `workload`, with the default (auto) strategy.
pub fn predict(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
) -> Result<Prediction, PredictError> {
    predict_with_options(module, params, workload, PredictOptions::default())
}

/// The workload fields `prepare` reads — everything except `rate_pps`.
/// Two workloads with equal keys share one `Prepared`: a sweep keeps one
/// per (module, parameters, class), a session one per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassKey {
    tcp_share: u64,
    syn_share: u64,
    avg_payload: u64,
    max_payload: usize,
    flows: usize,
    zipf_alpha: u64,
}

impl ClassKey {
    /// The class key of a workload (floats by bit pattern).
    pub fn of(wl: &WorkloadProfile) -> Self {
        // No `..`: a new workload field fails to compile here until it
        // is either keyed or, like the rate, ignored on purpose.
        let WorkloadProfile {
            flows,
            tcp_share,
            syn_share,
            avg_payload,
            max_payload,
            rate_pps: _,
            zipf_alpha,
        } = wl;
        ClassKey {
            tcp_share: tcp_share.to_bits(),
            syn_share: syn_share.to_bits(),
            avg_payload: avg_payload.to_bits(),
            max_payload: *max_payload,
            flows: *flows,
            zipf_alpha: zipf_alpha.to_bits(),
        }
    }
}

/// The workload-derived inputs of a prediction that do *not* depend on
/// the offered rate or the porting strategy: packet classes (CIR
/// interpreter runs), state specs, and the cache model. Computing these
/// dominates a prediction's cost, so sweeps and sessions share one
/// `Prepared` per [`ClassKey`].
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    pub(crate) classes: Vec<crate::classes::PacketClass>,
    pub(crate) states: Vec<StateSpec>,
    pub(crate) state_hit: Vec<Vec<f64>>,
    pub(crate) fc_hit: f64,
}

/// Compute the rate-independent inputs: reads `module`, `params`, and
/// the workload's class mix (`tcp_share`, `syn_share`), `avg_payload`,
/// `flows`, and `zipf_alpha` — never `rate_pps`. The skewed cache model
/// fans its weight pass over up to `threads` workers (0: every available
/// core; 1: inline, as a serving session asks, its pool being the
/// daemon's workers); a `prepare` on a sweep's worker runs it inline
/// whatever `threads` says. The result does not depend on `threads`.
pub(crate) fn prepare(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    threads: usize,
) -> Prepared {
    let classes = enumerate_classes(module, workload);
    let states = state_specs(module);
    // The flow-cache hit ratio prices only nodes on the flow-cache or LPM
    // engine; a graph with none never reads it. The graph is not kept for
    // the solve: one per class in every session's `Prepared` raised the
    // serving daemon's peak RSS by 5–20 MiB, where extracting it again
    // costs about 15 µs.
    let fc_read = extract(module).nodes.iter().any(|n| reaches_table_engine(n, params));
    let (state_hit, fc_hit) =
        crate::cache::hit_model_reading(&states, params, workload, fc_read, threads);
    Prepared { classes, states, state_hit, fc_hit }
}

/// [`predict`] under an explicit porting strategy.
pub fn predict_with_options(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    options: PredictOptions,
) -> Result<Prediction, PredictError> {
    let prepared = prepare(module, params, workload, 0);
    predict_prepared(module, params, workload, &options, &prepared)
}

/// [`predict_with_options`] with telemetry: the two pipeline phases run
/// inside [`clara_telemetry::Sink`] spans (`predict.prepare` — classes,
/// state specs, cache model; `predict.solve` — mapping ILP, queueing,
/// pricing) and the solver's counters land in the sink. With
/// [`clara_telemetry::Sink::Disabled`] this is exactly
/// [`predict_with_options`]: spans run their closures directly and the
/// counter calls are no-ops.
pub fn predict_with_sink(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    options: PredictOptions,
    sink: &mut clara_telemetry::Sink,
) -> Result<Prediction, PredictError> {
    let prepared = sink.span("predict.prepare", || prepare(module, params, workload, 0));
    let result = sink
        .span("predict.solve", || predict_prepared(module, params, workload, &options, &prepared));
    if let Ok(p) = &result {
        let st = &p.mapping.stats;
        sink.count("ilp.nodes_explored", st.nodes_explored);
        sink.count("ilp.lp_solves", st.lp_solves);
        sink.count("ilp.simplex_pivots", st.simplex_pivots);
        sink.count("ilp.warm_start_hits", st.warm_start_hits);
        sink.count("ilp.warm_start_misses", st.warm_start_misses);
        sink.count("ilp.memo_hits", st.memo_hits);
        sink.count("ilp.cell_warm_hits", st.cell_warm_hits);
        sink.count("ilp.cell_warm_misses", st.cell_warm_misses);
    }
    result
}

/// The rate- and strategy-dependent tail of a prediction: mapping ILP,
/// queueing, pricing. Pure in `prepared`, so sweeps may share one
/// `Prepared` across cells.
pub(crate) fn predict_prepared(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    options: &PredictOptions,
    prepared: &Prepared,
) -> Result<Prediction, PredictError> {
    let deadline = RunDeadline::within_ms(options.deadline_ms);
    predict_prepared_limited(module, params, workload, options, prepared, &deadline)
}

/// [`predict_prepared`] with the [`RunDeadline`] supplied by the caller
/// instead of armed from `options.deadline_ms` — the supervisor arms one
/// deadline-plus-cancel-token pair per cell and needs the token shared.
pub(crate) fn predict_prepared_limited(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    options: &PredictOptions,
    prepared: &Prepared,
    deadline: &RunDeadline,
) -> Result<Prediction, PredictError> {
    predict_prepared_seeded(module, params, workload, options, prepared, deadline, None)
}

#[cfg(test)]
thread_local! {
    /// Mapping solves started on this thread, for tests that count them.
    pub(crate) static MAPPING_SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`predict_prepared_limited`] with an optional cross-cell ILP
/// warm-start seed (the `mapping.ilp_seed` of a structurally similar
/// prediction — see [`crate::sweep`]'s star topology). The seed only
/// accelerates the mapping solve; every other stage is untouched, and a
/// rejected seed degrades to exactly the unseeded solve.
#[allow(clippy::too_many_arguments)]
pub(crate) fn predict_prepared_seeded(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    options: &PredictOptions,
    prepared: &Prepared,
    deadline: &RunDeadline,
    seed: Option<&IlpSeed>,
) -> Result<Prediction, PredictError> {
    if options.inject_panic {
        panic!("injected panic (test hook)");
    }
    let mut graph = extract(module);
    let Prepared { classes, states, state_hit, fc_hit } = prepared;
    let (fc_hit, classes) = (*fc_hit, classes.as_slice());

    // Workload-average node weights for the mapping objective.
    let mut avg_weights = vec![0.0f64; graph.nodes.len()];
    for class in classes {
        for (i, node) in graph.nodes.iter().enumerate() {
            avg_weights[i] += class.share * node_weight(node, &class.block_weights);
        }
    }
    for (node, w) in graph.nodes.iter_mut().zip(&avg_weights) {
        node.weight = *w;
    }

    let input = MapInput {
        graph: &graph,
        states: states.clone(),
        params,
        avg_payload: workload.avg_payload,
        rate_pps: workload.rate_pps,
        state_hit: state_hit.clone(),
        fc_hit,
        dpi_hit: DPI_HIT_DEFAULT,
        forbid_accels: options.software_only,
        pinned: resolve_pins(options, module, params)?,
    };
    #[cfg(test)]
    MAPPING_SOLVES.with(|n| n.set(n.get() + 1));
    let mapping = solve_mapping_seeded(&input, &options.budget, &options.solver, deadline, seed)
        .map_err(|e| match e {
            // A cell stopped by the shared cancel token was abandoned,
            // not genuinely out of time — report it as such.
            MapError::TimedOut if deadline.cancelled() => PredictError::Cancelled,
            other => PredictError::from(other),
        })?;

    // Shared-resource demand per packet (class-averaged) for queueing and
    // throughput.
    let avg_ctx = CostCtx {
        params,
        payload: workload.avg_payload,
        state_hit,
        fc_hit,
        dpi_hit: DPI_HIT_DEFAULT,
    };
    let mut accel_demand: HashMap<AccelKind, f64> = HashMap::new();
    let mut npu_demand = 0.0f64;
    for (i, node) in graph.nodes.iter().enumerate() {
        let unit = mapping.node_unit[i];
        let mut per_exec = node_compute_cost(node, unit, &avg_ctx);
        for state in node.touched_states() {
            let s = state.0 as usize;
            per_exec += state_access_cost(node, s, mapping.state_mem[s], unit, states, &avg_ctx);
        }
        match unit {
            UnitChoice::Accel(kind) => {
                *accel_demand.entry(kind).or_insert(0.0) += avg_weights[i] * per_exec;
            }
            UnitChoice::Npu | UnitChoice::Stage(_) => {
                npu_demand += avg_weights[i] * per_exec;
            }
        }
    }
    let freq_hz = params.freq_ghz * 1e9;
    let accel_rho: HashMap<AccelKind, f64> = accel_demand
        .iter()
        .map(|(&k, &d)| (k, workload.rate_pps * d / freq_hz))
        .collect();
    let pool_servers = params.total_threads.max(1);
    let pool_rho = workload.rate_pps * npu_demand / (freq_hz * pool_servers as f64);

    // Per-class pricing.
    let mut per_class = Vec::with_capacity(classes.len());
    let mut avg_latency = 0.0f64;
    let mut avg_energy_cycles = 0.0f64;
    for class in classes {
        let latency = price_class(
            class, &graph, &mapping, states, params, state_hit, fc_hit, &accel_rho, pool_rho,
            pool_servers,
        );
        avg_latency += class.share * latency;
        avg_energy_cycles += class.share * (latency - params.hub_overhead).max(0.0);
        per_class.push(ClassPrediction {
            name: class.name.clone(),
            share: class.share,
            payload: class.payload,
            latency_cycles: latency,
        });
    }

    // Idealized throughput: the tightest resource bound.
    let mut throughput = f64::INFINITY;
    let mut bottleneck = "offered-load".to_string();
    if npu_demand > 0.0 {
        let cap = freq_hz * pool_servers as f64 / npu_demand;
        if cap < throughput {
            throughput = cap;
            bottleneck = "npu-threads".into();
        }
    }
    for (kind, demand) in &accel_demand {
        if *demand > 0.0 {
            let cap = freq_hz / demand;
            if cap < throughput {
                throughput = cap;
                bottleneck = format!("{kind}-accelerator");
            }
        }
    }

    Ok(Prediction {
        avg_latency_cycles: avg_latency,
        avg_latency_ns: avg_latency / params.freq_ghz,
        per_class,
        mapping,
        throughput_pps: throughput,
        energy_nj_per_packet: avg_energy_cycles * params.nj_per_cycle,
        bottleneck,
        graph,
    })
}

/// Price one class against a fixed mapping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn price_class(
    class: &PacketClass,
    graph: &DataflowGraph,
    mapping: &Mapping,
    states: &[StateSpec],
    params: &NicParameters,
    state_hit: &[Vec<f64>],
    fc_hit: f64,
    accel_rho: &HashMap<AccelKind, f64>,
    pool_rho: f64,
    pool_servers: usize,
) -> f64 {
    let ctx = CostCtx {
        params,
        payload: class.payload,
        state_hit,
        fc_hit,
        dpi_hit: DPI_HIT_DEFAULT,
    };
    let spill_bytes = (class.payload + 40.0 - RESIDENCY_BYTES).max(0.0);
    let spill_frac = if class.payload > 0.0 { spill_bytes / class.payload } else { 0.0 };
    let spill_extra = params.stream_per_byte_spilled - params.stream_per_byte_resident;
    // The first spilled byte opens a transaction against the slowest
    // (external) region.
    let spill_base = params
        .mems
        .iter()
        .map(|m| m.latency)
        .fold(0.0, f64::max);

    let mut latency = params.hub_overhead;
    let mut npu_cycles = 0.0f64;
    for (i, node) in graph.nodes.iter().enumerate() {
        let weight = node_weight(node, &class.block_weights);
        if weight == 0.0 {
            continue;
        }
        let unit = mapping.node_unit[i];
        let mut per_exec = node_compute_cost(node, unit, &ctx);
        for state in node.touched_states() {
            let s = state.0 as usize;
            per_exec += state_access_cost(node, s, mapping.state_mem[s], unit, states, &ctx);
        }
        // Payload-spill correction for software streaming work: spilled
        // bytes stream at the slower rate, plus one spill-region
        // transaction per payload-sized operation.
        let frame_spills = class.payload + 40.0 > RESIDENCY_BYTES;
        if matches!(unit, UnitChoice::Npu | UnitChoice::Stage(_)) && frame_spills {
            let payload_ops: f64 = node
                .vcalls
                .iter()
                .filter(|(c, _)| c.is_payload_sized())
                .map(|(_, n)| *n as f64)
                .sum();
            let streamed: f64 =
                node.ops.payload_bytes as f64 + payload_ops * class.payload;
            per_exec += streamed * spill_frac * spill_extra;
            per_exec += payload_ops * spill_base;
        }
        let mut node_latency = weight * per_exec;
        // Queueing at shared resources.
        match unit {
            UnitChoice::Accel(kind) => {
                let rho = accel_rho.get(&kind).copied().unwrap_or(0.0);
                node_latency += weight * accel_wait(per_exec, rho);
            }
            UnitChoice::Npu | UnitChoice::Stage(_) => {
                npu_cycles += weight * per_exec;
            }
        }
        latency += node_latency;
    }
    latency + pool_wait(npu_cycles, pool_rho, pool_servers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_cir::lower;
    use clara_lang::frontend;
    use clara_lnic::profiles;
    use clara_microbench::extract_parameters;
    use std::sync::OnceLock;

    fn params() -> &'static NicParameters {
        static P: OnceLock<NicParameters> = OnceLock::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    fn module(src: &str) -> CirModule {
        lower(&frontend(src).unwrap()).unwrap()
    }

    fn wl() -> WorkloadProfile {
        WorkloadProfile::paper_default()
    }

    const NAT_SRC: &str = r#"nf nat {
        state flow_table: map<u64, u64>[65536];
        fn handle(pkt: packet) -> action {
            dpdk.parse_headers(pkt);
            let key: u64 = hash(pkt.src_ip, pkt.src_port);
            let entry: u64 = flow_table.lookup(key);
            if (entry == 0) {
                entry = key & 0xffff;
                flow_table.insert(key, entry);
            }
            pkt.set_src_ip(entry);
            let ck: u16 = checksum(pkt);
            return forward;
        } }"#;

    #[test]
    fn nat_prediction_is_positive_and_structured() {
        let m = module(NAT_SRC);
        let p = predict(&m, params(), &wl()).unwrap();
        assert!(p.avg_latency_cycles > params().hub_overhead);
        assert!(p.avg_latency_ns > 0.0);
        assert_eq!(p.per_class.len(), 1); // all established TCP
        assert!(p.throughput_pps.is_finite());
        assert!(p.energy_nj_per_packet > 0.0);
    }

    #[test]
    fn syn_packets_predicted_slower() {
        // The paper's example output: "TCP SYN packets experience higher
        // latency, but the following packets will hit".
        let m = module(NAT_SRC);
        let workload = WorkloadProfile { syn_share: 0.1, ..wl() };
        let p = predict(&m, params(), &workload).unwrap();
        let syn = p.per_class.iter().find(|c| c.name == "tcp-syn").unwrap();
        let est = p.per_class.iter().find(|c| c.name == "tcp").unwrap();
        // SYN takes the insert path: one extra table write. But SYNs also
        // carry no payload (cheaper checksum) — compare per-node work via
        // graph weights instead of raw latency.
        assert!(syn.latency_cycles > 0.0 && est.latency_cycles > 0.0);
        assert!((p.avg_latency_cycles
            - (syn.share * syn.latency_cycles + est.share * est.latency_cycles))
            .abs()
            < 1e-6);
    }

    #[test]
    fn latency_grows_with_payload() {
        let m = module(NAT_SRC); // checksum is payload-sized
        let small = predict(&m, params(), &WorkloadProfile { avg_payload: 200.0, ..wl() }).unwrap();
        let large =
            predict(&m, params(), &WorkloadProfile { avg_payload: 1400.0, ..wl() }).unwrap();
        assert!(
            large.avg_latency_cycles > small.avg_latency_cycles,
            "small {} large {}",
            small.avg_latency_cycles,
            large.avg_latency_cycles
        );
    }

    #[test]
    fn queueing_term_appears_at_high_rate() {
        let src = r#"nf scan {
            fn handle(pkt: packet) -> action {
                aes_encrypt(pkt);
                return forward;
            } }"#;
        let m = module(src);
        let low = predict(&m, params(), &WorkloadProfile { rate_pps: 50_000.0, avg_payload: 1400.0, max_payload: 1400, ..wl() })
            .unwrap();
        let high = predict(&m, params(), &WorkloadProfile { rate_pps: 450_000.0, avg_payload: 1400.0, max_payload: 1400, ..wl() })
            .unwrap();
        assert!(
            high.avg_latency_cycles > low.avg_latency_cycles * 1.1,
            "low {} high {}",
            low.avg_latency_cycles,
            high.avg_latency_cycles
        );
        assert!(high.bottleneck.contains("crypto"), "{}", high.bottleneck);
    }

    #[test]
    fn flow_count_changes_prediction_via_caches() {
        let src = r#"nf fw {
            state conns: map<u64, u64>[1000000];
            fn handle(pkt: packet) -> action {
                let v: u64 = conns.lookup(hash(pkt.src_ip, pkt.dst_ip));
                if (v == 0) { conns.insert(hash(pkt.src_ip, pkt.dst_ip), 1); }
                return forward;
            } }"#;
        let m = module(src);
        let few = predict(&m, params(), &WorkloadProfile { flows: 1_000, ..wl() }).unwrap();
        let many = predict(&m, params(), &WorkloadProfile { flows: 500_000, ..wl() }).unwrap();
        assert!(
            many.avg_latency_cycles > few.avg_latency_cycles,
            "few {} many {}",
            few.avg_latency_cycles,
            many.avg_latency_cycles
        );
    }

    #[test]
    fn spill_correction_kicks_in_past_residency() {
        let src = r#"nf dpi {
            fn handle(pkt: packet) -> action {
                let hits: u64 = payload_scan(pkt, 3);
                if (hits > 0) { return drop; }
                return forward;
            } }"#;
        let m = module(src);
        let at_1000 =
            predict(&m, params(), &WorkloadProfile { avg_payload: 1000.0, ..wl() }).unwrap();
        let at_1400 =
            predict(&m, params(), &WorkloadProfile { avg_payload: 1400.0, ..wl() }).unwrap();
        // Slope beyond residency exceeds proportional growth.
        let proportional = at_1000.avg_latency_cycles * 1.4;
        assert!(
            at_1400.avg_latency_cycles > proportional * 0.98,
            "1000B {} 1400B {} proportional {}",
            at_1000.avg_latency_cycles,
            at_1400.avg_latency_cycles,
            proportional
        );
    }

    #[test]
    fn class_key_tracks_every_rate_independent_field() {
        let base = wl();
        let key = ClassKey::of(&base);
        let faster = WorkloadProfile { rate_pps: base.rate_pps * 7.0, ..base.clone() };
        assert_eq!(ClassKey::of(&faster), key, "the rate is not part of the class");
        let variants = [
            WorkloadProfile { flows: base.flows + 1, ..base.clone() },
            WorkloadProfile { tcp_share: base.tcp_share + 0.25, ..base.clone() },
            WorkloadProfile { syn_share: base.syn_share + 0.25, ..base.clone() },
            WorkloadProfile { avg_payload: base.avg_payload + 1.0, ..base.clone() },
            WorkloadProfile { max_payload: base.max_payload + 1, ..base.clone() },
            WorkloadProfile { zipf_alpha: base.zipf_alpha + 0.5, ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(ClassKey::of(v), key, "{v:?}");
        }
    }

    #[test]
    fn throughput_bottleneck_identified() {
        let m = module(NAT_SRC);
        let p = predict(&m, params(), &wl()).unwrap();
        assert!(
            p.bottleneck == "npu-threads" || p.bottleneck.contains("accelerator"),
            "{}",
            p.bottleneck
        );
        assert!(p.throughput_pps > wl().rate_pps, "should sustain 60kpps");
    }
}
