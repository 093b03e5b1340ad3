//! The ILP formulation (Π, Γ, Θ) and solution extraction.

use crate::cost::{eligible_units, node_compute_cost, state_access_cost, CostCtx};
use crate::greedy::greedy_map;
use crate::input::{MapError, MapInput, Mapping, MappingQuality, UnitChoice};
use clara_ilp::{LinExpr, Model, Rel, RunDeadline, SolveBudget, SolveError, SolverConfig, Var};
use clara_lnic::AccelKind;

/// Fraction of cluster SRAM reserved for packet buffers rather than NF
/// state (packets reside in the CTM of their island).
const CTM_STATE_FRACTION: f64 = 0.5;

/// Utilization ceiling for the Θ (queueing) constraints.
const MAX_UTILIZATION: f64 = 0.95;

/// Solve the mapping ILP for `input` with the default [`SolveBudget`].
pub fn solve_mapping(input: &MapInput<'_>) -> Result<Mapping, MapError> {
    solve_mapping_with_budget(input, &SolveBudget::default())
}

/// Solve the mapping ILP under an explicit node budget, degrading
/// gracefully rather than failing:
///
/// 1. branch-and-bound completes → [`MappingQuality::Optimal`];
/// 2. the budget runs out with an incumbent → that feasible mapping,
///    tagged [`MappingQuality::Incumbent`];
/// 3. the ILP is infeasible or yields no incumbent in budget → the
///    greedy first-fit mapping, tagged [`MappingQuality::GreedyFallback`].
///
/// Only when the greedy mapper *also* fails (e.g. a state that fits in
/// no region) is the original error reported.
pub fn solve_mapping_with_budget(
    input: &MapInput<'_>,
    budget: &SolveBudget,
) -> Result<Mapping, MapError> {
    solve_mapping_with_config(input, budget, &SolverConfig::default())
}

/// [`solve_mapping_with_budget`] under an explicit [`SolverConfig`] —
/// the benchmark harness uses [`SolverConfig::baseline`] to price the
/// seed solver against the optimized one on identical inputs.
pub fn solve_mapping_with_config(
    input: &MapInput<'_>,
    budget: &SolveBudget,
    config: &SolverConfig,
) -> Result<Mapping, MapError> {
    solve_mapping_with_limits(input, budget, config, &RunDeadline::none())
}

/// [`solve_mapping_with_config`] under a cooperative [`RunDeadline`].
///
/// The degradation ladder still applies while time remains: an exhausted
/// node budget with an incumbent yields [`MappingQuality::Incumbent`],
/// and infeasible/budget-limited solves fall back to the greedy mapper.
/// An *expired deadline* with an incumbent also degrades to
/// [`MappingQuality::Incumbent`]; without one it returns
/// [`MapError::TimedOut`] — never the greedy fallback, because "out of
/// time" must stay distinguishable from "proved infeasible" for the
/// supervision layer's retry and reporting logic.
pub fn solve_mapping_with_limits(
    input: &MapInput<'_>,
    budget: &SolveBudget,
    config: &SolverConfig,
    deadline: &RunDeadline,
) -> Result<Mapping, MapError> {
    solve_mapping_seeded(input, budget, config, deadline, None)
}

/// [`solve_mapping_with_limits`] with an optional cross-cell warm-start
/// seed — the [`Mapping::ilp_seed`] exported by a structurally similar
/// solve (e.g. an adjacent sweep cell over the same NF). The seed is
/// verified against this cell's model before use and silently dropped
/// when it does not fit; acceptance is visible in the mapping's
/// `stats.cell_warm_hits` / `cell_warm_misses` counters.
pub fn solve_mapping_seeded(
    input: &MapInput<'_>,
    budget: &SolveBudget,
    config: &SolverConfig,
    deadline: &RunDeadline,
    seed: Option<&clara_ilp::IlpSeed>,
) -> Result<Mapping, MapError> {
    match solve_mapping_ilp(input, budget, config, deadline, seed) {
        Ok(mapping) => Ok(mapping),
        Err(err @ (MapError::Infeasible(_) | MapError::Solver(SolveError::Limit))) => {
            greedy_map(input).map_err(|_| err)
        }
        Err(other) => Err(other),
    }
}

/// Build and solve the ILP itself (no fallback).
fn solve_mapping_ilp(
    input: &MapInput<'_>,
    budget: &SolveBudget,
    config: &SolverConfig,
    deadline: &RunDeadline,
    seed: Option<&clara_ilp::IlpSeed>,
) -> Result<Mapping, MapError> {
    let graph = input.graph;
    let params = input.params;
    let ctx = CostCtx::from_input(input);
    if input.state_hit.len() != input.states.len() {
        return Err(MapError::BadInput(format!(
            "state_hit has {} rows for {} states",
            input.state_hit.len(),
            input.states.len()
        )));
    }

    let mut model = Model::minimize();
    let mut objective = LinExpr::constant(params.hub_overhead);

    // x[i] -> (unit option, var).
    let mut x: Vec<Vec<(UnitChoice, Var)>> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let mut units = eligible_units(node, params);
        if input.forbid_accels {
            units.retain(|u| !matches!(u, UnitChoice::Accel(_)));
        }
        let mut row = Vec::new();
        for unit in units {
            let compute = node_compute_cost(node, unit, &ctx);
            if compute.is_infinite() {
                continue;
            }
            let v = model.binary(format!("x_n{}_{}", node.id.0, unit));
            objective += (node.weight * compute) * v;
            row.push((unit, v));
        }
        if row.is_empty() {
            return Err(MapError::Infeasible(format!(
                "node {} ({}) has no unit option",
                node.id.0, node.kind
            )));
        }
        // Π: each node on exactly one unit.
        model.constraint(
            LinExpr::sum(row.iter().map(|(_, v)| LinExpr::from(*v))),
            Rel::Eq,
            1.0,
        );
        x.push(row);
    }

    // y[s][m] for placeable regions that fit.
    let mut y: Vec<Vec<(usize, Var)>> = Vec::with_capacity(input.states.len());
    for (s, spec) in input.states.iter().enumerate() {
        let pin = input.pinned.iter().find(|(ps, _)| *ps == s).map(|(_, m)| *m);
        let mut row = Vec::new();
        for (m, region) in params.mems.iter().enumerate() {
            if !region.placeable {
                continue;
            }
            if pin.is_some_and(|pm| pm != m) {
                continue;
            }
            let budget = if region.name.starts_with("ctm") {
                region.capacity as f64 * CTM_STATE_FRACTION
            } else {
                region.capacity as f64
            };
            if spec.size_bytes as f64 > budget {
                continue;
            }
            row.push((m, model.binary(format!("y_s{s}_m{m}"))));
        }
        if row.is_empty() {
            return Err(MapError::Infeasible(format!(
                "state `{}` ({} B) fits in no region",
                spec.name, spec.size_bytes
            )));
        }
        // Γ: exactly one placement.
        model.constraint(
            LinExpr::sum(row.iter().map(|(_, v)| LinExpr::from(*v))),
            Rel::Eq,
            1.0,
        );
        y.push(row);
    }

    // Γ capacity: per region, sum of placed state sizes within budget.
    for (m, region) in params.mems.iter().enumerate() {
        if !region.placeable {
            continue;
        }
        let mut expr = LinExpr::zero();
        let mut any = false;
        for (s, row) in y.iter().enumerate() {
            if let Some((_, v)) = row.iter().find(|(mi, _)| *mi == m) {
                expr += input.states[s].size_bytes as f64 * *v;
                any = true;
            }
        }
        if any {
            let budget = if region.name.starts_with("ctm") {
                region.capacity as f64 * CTM_STATE_FRACTION
            } else {
                region.capacity as f64
            };
            model.constraint(expr, Rel::Le, budget);
        }
    }

    // Cross terms: node i touching state s, on unit u, with s in region m.
    for (i, node) in graph.nodes.iter().enumerate() {
        for state in node.touched_states() {
            let s = state.0 as usize;
            if s >= input.states.len() {
                return Err(MapError::BadInput(format!(
                    "node {} references unknown state {s}",
                    node.id.0
                )));
            }
            for &(unit, xv) in &x[i] {
                for &(m, yv) in &y[s] {
                    let access = state_access_cost(node, s, m, unit, &input.states, &ctx);
                    if access == 0.0 {
                        continue;
                    }
                    let w =
                        model.num_var(format!("w_n{}_{}_s{s}_m{m}", node.id.0, unit), 0.0, 1.0);
                    // w >= x + y - 1  <=>  x + y - w <= 1
                    model.constraint(xv + yv - w, Rel::Le, 1.0);
                    objective += (node.weight * access) * w;
                }
            }
        }
    }

    // Π pipeline-order constraints on pipelined NICs: a dataflow edge
    // a -> b must not move backwards through the stages.
    if params.pipelined {
        let stage_of = |unit: UnitChoice| -> f64 {
            match unit {
                UnitChoice::Stage(s) => s as f64,
                UnitChoice::Npu => 3.0, // aux core sits at the tail
                UnitChoice::Accel(_) => 0.0,
            }
        };
        for &(a, b) in &graph.edges {
            let sa = LinExpr::sum(
                x[a.0].iter().map(|&(u, v)| stage_of(u) * v),
            );
            let sb = LinExpr::sum(
                x[b.0].iter().map(|&(u, v)| stage_of(u) * v),
            );
            model.constraint(sa - sb, Rel::Le, 0.0);
        }
    }

    // Θ queue/utilization constraints: accelerators are single servers;
    // the NPU pool has total_threads servers.
    let freq_hz = params.freq_ghz * 1e9;
    for kind in AccelKind::ALL {
        if !params.accels.contains_key(&kind) {
            continue;
        }
        let mut expr = LinExpr::zero();
        let mut any = false;
        for (i, node) in graph.nodes.iter().enumerate() {
            for &(unit, v) in &x[i] {
                if unit == UnitChoice::Accel(kind) {
                    let service = node_compute_cost(node, unit, &ctx);
                    expr += (node.weight * service * input.rate_pps) * v;
                    any = true;
                }
            }
        }
        if any {
            model.constraint(expr, Rel::Le, MAX_UTILIZATION * freq_hz);
        }
    }
    {
        let mut expr = LinExpr::zero();
        for (i, node) in graph.nodes.iter().enumerate() {
            for &(unit, v) in &x[i] {
                if matches!(unit, UnitChoice::Npu | UnitChoice::Stage(_)) {
                    let compute = node_compute_cost(node, unit, &ctx);
                    expr += (node.weight * compute * input.rate_pps) * v;
                }
            }
        }
        model.constraint(
            expr,
            Rel::Le,
            MAX_UTILIZATION * freq_hz * params.total_threads as f64,
        );
    }

    model.objective(objective);
    let solution = model
        .solve_seeded(budget, config, deadline, seed)
        .map_err(MapError::from)?;

    let node_unit: Vec<UnitChoice> = x
        .iter()
        .map(|row| {
            row.iter()
                .find(|(_, v)| solution.value(*v) > 0.5)
                .map(|(u, _)| *u)
                .ok_or_else(|| {
                    MapError::Internal("Σx = 1 violated: node without a unit choice".into())
                })
        })
        .collect::<Result<_, _>>()?;
    let state_mem: Vec<usize> = y
        .iter()
        .map(|row| {
            row.iter()
                .find(|(_, v)| solution.value(*v) > 0.5)
                .map(|(m, _)| *m)
                .ok_or_else(|| {
                    MapError::Internal("Σy = 1 violated: state without a placement".into())
                })
        })
        .collect::<Result<_, _>>()?;

    let quality = if solution.is_proven_optimal() {
        MappingQuality::Optimal
    } else {
        MappingQuality::Incumbent
    };
    Ok(Mapping {
        node_unit,
        state_mem,
        latency_cycles: solution.objective(),
        quality,
        stats: solution.stats().clone(),
        ilp_seed: Some(solution.export_seed()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{StateClass, StateSpec};
    use clara_dataflow::extract;
    use clara_lnic::profiles;
    use clara_microbench::{extract_parameters, NicParameters};
    use std::sync::OnceLock;

    fn params() -> &'static NicParameters {
        static P: OnceLock<NicParameters> = OnceLock::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    fn graph_of(src: &str) -> clara_dataflow::DataflowGraph {
        extract(&clara_cir::lower(&clara_lang::frontend(src).unwrap()).unwrap())
    }

    fn uniform_hits(states: usize, params: &NicParameters, h: f64) -> Vec<Vec<f64>> {
        vec![vec![h; params.mems.len()]; states]
    }

    fn input<'a>(
        graph: &'a clara_dataflow::DataflowGraph,
        states: Vec<StateSpec>,
        params: &'a NicParameters,
        hits: Vec<Vec<f64>>,
    ) -> MapInput<'a> {
        MapInput {
            graph,
            states,
            params,
            avg_payload: 300.0,
            rate_pps: 60_000.0,
            state_hit: hits,
            fc_hit: 0.8,
            dpi_hit: 0.2,
            forbid_accels: false,
            pinned: vec![],
        }
    }

    #[test]
    fn nat_maps_checksum_to_accelerator_and_table_to_fast_memory() {
        // Checksum verification happens at ingress, BEFORE the rewrite:
        // accelerator-eligible.
        let src = r#"nf nat {
            state flow_table: map<u64, u64>[65536];
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let ck: u16 = checksum(pkt);
                let key: u64 = hash(pkt.src_ip, pkt.src_port);
                let entry: u64 = flow_table.lookup(key);
                if (entry == 0) {
                    entry = key & 0xffff;
                    flow_table.insert(key, entry);
                }
                pkt.set_src_ip(entry);
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let states = vec![StateSpec {
            name: "flow_table".into(),
            class: StateClass::ExactMatch,
            entries: 65536,
            size_bytes: 65536 * 24,
        }];
        let hits = uniform_hits(1, p, 0.5);
        let inp = input(&graph, states, p, hits);
        let mapping = solve_mapping(&inp).unwrap();

        // The paper's §3.4 example: checksum to the accelerator, the flow
        // table in a fast-enough region (1.5 MB fits IMEM's 4 MB).
        let ck_node = graph
            .nodes
            .iter()
            .position(|n| n.kind == clara_dataflow::NodeKind::Checksum)
            .unwrap();
        assert_eq!(
            mapping.node_unit[ck_node],
            UnitChoice::Accel(AccelKind::Checksum),
            "{}",
            mapping.report(&inp)
        );
        let mem = &p.mems[mapping.state_mem[0]].name;
        assert!(mem == "imem" || mem.starts_with("ctm"), "placed in {mem}");
        assert!(mapping.latency_cycles > 0.0);
    }

    #[test]
    fn post_rewrite_checksum_forced_to_software() {
        // Recomputing the checksum AFTER rewriting headers cannot use the
        // ingress engine (it saw the original bytes).
        let src = r#"nf nat {
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                pkt.set_src_ip(12345);
                let ck: u16 = checksum(pkt);
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let inp = input(&graph, vec![], p, vec![]);
        let mapping = solve_mapping(&inp).unwrap();
        let ck_node = graph
            .nodes
            .iter()
            .position(|n| n.kind == clara_dataflow::NodeKind::Checksum)
            .unwrap();
        assert!(graph.nodes[ck_node].after_rewrite);
        assert_eq!(mapping.node_unit[ck_node], UnitChoice::Npu);
    }

    #[test]
    fn oversized_table_forced_to_emem() {
        let src = r#"nf fw {
            state conns: map<u64, u64>[4000000];
            fn handle(pkt: packet) -> action {
                let v: u64 = conns.lookup(hash(pkt.src_ip));
                if (v == 0) { return drop; }
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let states = vec![StateSpec {
            name: "conns".into(),
            class: StateClass::ExactMatch,
            entries: 4_000_000,
            size_bytes: 4_000_000 * 24, // 96 MB: only EMEM fits
        }];
        let hits = uniform_hits(1, p, 0.1);
        let inp = input(&graph, states, p, hits);
        let mapping = solve_mapping(&inp).unwrap();
        assert_eq!(p.mems[mapping.state_mem[0]].name, "emem");
    }

    #[test]
    fn impossible_state_is_infeasible() {
        let src = r#"nf big {
            state huge: map<u64, u64>[1000];
            fn handle(pkt: packet) -> action {
                let v: u64 = huge.lookup(1);
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let states = vec![StateSpec {
            name: "huge".into(),
            class: StateClass::ExactMatch,
            entries: 1000,
            size_bytes: 100 << 30, // 100 GB fits nowhere
        }];
        let hits = uniform_hits(1, p, 0.0);
        let inp = input(&graph, states, p, hits);
        assert!(matches!(solve_mapping(&inp).unwrap_err(), MapError::Infeasible(_)));
    }

    #[test]
    fn saturated_accelerator_spills_to_npu() {
        // At 60 kpps the crypto engine is fine; at 2 Mpps with 1400-byte
        // payloads its utilization exceeds 1 and Θ pushes crypto to NPUs.
        let src = r#"nf ipsec {
            fn handle(pkt: packet) -> action {
                aes_encrypt(pkt);
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let mk = |rate: f64| MapInput {
            graph: &graph,
            states: vec![],
            params: p,
            avg_payload: 1400.0,
            rate_pps: rate,
            state_hit: vec![],
            fc_hit: 0.0,
            dpi_hit: 0.2,
            forbid_accels: false,
            pinned: vec![],
        };
        let crypto_node = graph
            .nodes
            .iter()
            .position(|n| n.kind == clara_dataflow::NodeKind::Crypto)
            .unwrap();
        let low = solve_mapping(&mk(60_000.0)).unwrap();
        assert_eq!(low.node_unit[crypto_node], UnitChoice::Accel(AccelKind::Crypto));
        let high = solve_mapping(&mk(2_000_000.0)).unwrap();
        assert_eq!(high.node_unit[crypto_node], UnitChoice::Npu);
    }

    #[test]
    fn pipelined_nic_respects_stage_order() {
        let asic = extract_parameters(&profiles::pipeline_asic());
        let src = r#"nf router {
            state routes: map<u64, u64>[1000];
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let nh: u64 = routes.lookup(pkt.dst_ip);
                pkt.set_dst_ip(nh);
                return forward;
            } }"#;
        let graph = graph_of(src);
        let states = vec![StateSpec {
            name: "routes".into(),
            class: StateClass::ExactMatch,
            entries: 1000,
            size_bytes: 24_000,
        }];
        let hits = vec![vec![0.5; asic.mems.len()]];
        let inp = MapInput {
            graph: &graph,
            states,
            params: &asic,
            avg_payload: 300.0,
            rate_pps: 60_000.0,
            state_hit: hits,
            fc_hit: 0.0,
            dpi_hit: 0.2,
            forbid_accels: false,
            pinned: vec![],
        };
        let mapping = solve_mapping(&inp).unwrap();
        // Along every dataflow edge, stages never decrease.
        let stage = |u: UnitChoice| match u {
            UnitChoice::Stage(s) => s,
            UnitChoice::Npu => 3,
            UnitChoice::Accel(_) => 0,
        };
        for &(a, b) in &graph.edges {
            assert!(
                stage(mapping.node_unit[a.0]) <= stage(mapping.node_unit[b.0]),
                "edge {a:?} -> {b:?} violates pipeline order in {:?}",
                mapping.node_unit
            );
        }
    }

    #[test]
    fn budget_of_one_falls_back_to_greedy() {
        // The acceptance bar for the anytime ladder: a node budget of 1
        // still yields a *feasible* mapping, honestly tagged as greedy.
        let src = r#"nf nat {
            state flow_table: map<u64, u64>[65536];
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let ck: u16 = checksum(pkt);
                let key: u64 = hash(pkt.src_ip, pkt.src_port);
                let entry: u64 = flow_table.lookup(key);
                if (entry == 0) { flow_table.insert(key, entry); }
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let states = vec![StateSpec {
            name: "flow_table".into(),
            class: StateClass::ExactMatch,
            entries: 65536,
            size_bytes: 65536 * 24,
        }];
        let hits = uniform_hits(1, p, 0.5);
        let inp = input(&graph, states, p, hits);

        let starved = solve_mapping_with_budget(&inp, &SolveBudget::nodes(1)).unwrap();
        assert_eq!(starved.quality, MappingQuality::GreedyFallback);
        assert_eq!(starved.node_unit.len(), graph.nodes.len());
        assert!(starved.state_mem.iter().all(|&m| m < p.mems.len()));

        // The default budget proves optimality and the mapping is
        // unchanged from plain solve_mapping.
        let full = solve_mapping(&inp).unwrap();
        assert_eq!(full.quality, MappingQuality::Optimal);
        let explicit = solve_mapping_with_budget(&inp, &SolveBudget::default()).unwrap();
        assert_eq!(explicit, full);
    }

    #[test]
    fn report_states_solution_quality() {
        let src = r#"nf pass {
            fn handle(pkt: packet) -> action { return forward; } }"#;
        let graph = graph_of(src);
        let p = params();
        let inp = input(&graph, vec![], p, vec![]);
        let mapping = solve_mapping(&inp).unwrap();
        assert!(mapping.report(&inp).contains("solution quality: optimal"));
    }

    #[test]
    fn hit_ratio_shifts_placement() {
        // A table that fits in both IMEM and EMEM: with a high EMEM cache
        // hit ratio EMEM (150 cyc effective) beats IMEM (250); with a low
        // one it does not.
        let src = r#"nf fw {
            state conns: map<u64, u64>[100000];
            fn handle(pkt: packet) -> action {
                let v: u64 = conns.lookup(hash(pkt.src_ip));
                if (v == 0) { return drop; }
                return forward;
            } }"#;
        let graph = graph_of(src);
        let p = params();
        let states = |_: ()| {
            vec![StateSpec {
                name: "conns".into(),
                class: StateClass::ExactMatch,
                entries: 100_000,
                size_bytes: 100_000 * 24, // 2.4 MB: too big for CTM budget
            }]
        };
        let emem_idx = p.mems.iter().position(|m| m.name == "emem").unwrap();
        let mk = |hit: f64| {
            let mut hits = uniform_hits(1, p, 0.0);
            hits[0][emem_idx] = hit;
            MapInput {
                graph: &graph,
                states: states(()),
                params: p,
                avg_payload: 300.0,
                rate_pps: 60_000.0,
                state_hit: hits,
                fc_hit: 0.0,
                dpi_hit: 0.2,
                forbid_accels: false,
                pinned: vec![],
            }
        };
        let hot = solve_mapping(&mk(0.95)).unwrap();
        assert_eq!(p.mems[hot.state_mem[0]].name, "emem");
        let cold = solve_mapping(&mk(0.0)).unwrap();
        assert_eq!(p.mems[cold.state_mem[0]].name, "imem");
    }
}
