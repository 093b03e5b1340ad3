//! The cost model: pricing a dataflow node on a unit option, and state
//! accesses against a memory placement — all in measured parameters.
//!
//! The same functions are used three times: inside the ILP objective,
//! by the greedy baseline, and by `clara-predict` when it re-prices the
//! chosen mapping per packet class (with that class's payload size).

use crate::input::{MapInput, StateClass, UnitChoice};
use clara_dataflow::{DfNode, NodeKind};
use clara_lnic::AccelKind;
use clara_microbench::NicParameters;
use clara_cir::VCall;

/// Pricing context: parameters plus the workload quantities costs depend
/// on. `clara-predict` builds one per packet class.
#[derive(Debug, Clone)]
pub struct CostCtx<'a> {
    /// Measured NIC parameters.
    pub params: &'a NicParameters,
    /// Payload size in bytes for this pricing.
    pub payload: f64,
    /// Expected hit ratio per (state, region) pair.
    pub state_hit: &'a [Vec<f64>],
    /// Flow-cache hit ratio.
    pub fc_hit: f64,
    /// DPI automaton cache-hit ratio.
    pub dpi_hit: f64,
}

impl<'a> CostCtx<'a> {
    /// Build the mapping-time context from a [`MapInput`].
    pub fn from_input(input: &'a MapInput<'a>) -> Self {
        CostCtx {
            params: input.params,
            payload: input.avg_payload,
            state_hit: &input.state_hit,
            fc_hit: input.fc_hit,
            dpi_hit: input.dpi_hit,
        }
    }

    /// Hit ratio for `state` placed in region index `m`.
    pub fn hit(&self, state: usize, m: usize) -> f64 {
        self.state_hit
            .get(state)
            .and_then(|row| row.get(m))
            .copied()
            .unwrap_or(0.0)
    }

    /// Effective latency of one access by `state` in region `m`.
    pub fn eff_latency(&self, state: usize, m: usize) -> f64 {
        let region = &self.params.mems[m];
        self.params.effective_latency(region, self.hit(state, m))
    }

    /// The software DPI automaton access cost per payload byte: one
    /// dependent access into external memory at the workload's automaton
    /// hit ratio.
    pub fn dpi_access_per_byte(&self) -> f64 {
        let ext = self
            .params
            .mems
            .iter()
            .max_by(|a, b| a.latency.partial_cmp(&b.latency).unwrap_or(std::cmp::Ordering::Equal));
        match ext {
            Some(region) => self.params.effective_latency(region, self.dpi_hit),
            None => 400.0,
        }
    }
}

/// Frame bytes for a payload (IPv4 + transport + Ethernet headers).
pub fn frame_bytes(payload: f64) -> f64 {
    payload + 54.0
}

/// Compute-only cost of ONE execution of `node` on `unit`, excluding
/// state-table access latencies (those depend on placement and are priced
/// by [`state_access_cost`]).
pub fn node_compute_cost(node: &DfNode, unit: UnitChoice, ctx: &CostCtx<'_>) -> f64 {
    let p = ctx.params;
    match unit {
        UnitChoice::Accel(kind) => {
            let est = match p.accels.get(&kind) {
                Some(e) => e,
                None => return f64::INFINITY,
            };
            let bytes = match kind {
                AccelKind::Checksum => frame_bytes(ctx.payload),
                AccelKind::Crypto => ctx.payload,
                AccelKind::FlowCache | AccelKind::Lpm => 0.0,
            };
            est.base + est.per_byte * bytes
        }
        UnitChoice::Npu | UnitChoice::Stage(_) => {
            let ops = &node.ops;
            let mut cycles = ops.alu as f64 * p.alu
                + ops.mul as f64 * p.mul
                + ops.div as f64 * p.div
                + ops.branch as f64 * p.branch
                + ops.hash as f64 * p.hash
                + (ops.metadata_reads + ops.metadata_writes) as f64 * p.metadata_mod
                + ops.payload_bytes as f64 * p.stream_per_byte_resident
                + ops.float as f64 * p.float_op;
            for (call, count) in &node.vcalls {
                let n = *count as f64;
                cycles += n * match call {
                    VCall::ParseHeader => p.parse_header,
                    VCall::ChecksumFull => {
                        p.checksum_sw.base + p.checksum_sw.per_byte * frame_bytes(ctx.payload)
                    }
                    VCall::ChecksumIncr => 2.0 * p.metadata_mod,
                    // Software crypto: an order of magnitude over plain
                    // streaming (no AES datapath on the cores).
                    VCall::Crypto => ctx.payload * p.stream_per_byte_resident * 8.0,
                    VCall::PayloadScan => {
                        ctx.payload * (p.stream_per_byte_resident + ctx.dpi_access_per_byte())
                    }
                    VCall::Meter => 20.0 * p.alu,
                    VCall::FloatOp | VCall::Log => 0.0, // counted in ops
                    VCall::Hash => 0.0,                  // counted in ops
                    VCall::MetadataRead(_) | VCall::MetadataWrite(_) | VCall::PayloadByte => 0.0,
                    // State vcalls priced by state_access_cost.
                    VCall::TableLookup(_)
                    | VCall::TableWrite(_)
                    | VCall::LpmLookup(_)
                    | VCall::CounterAdd(_)
                    | VCall::CounterRead(_)
                    | VCall::ArrayRead(_)
                    | VCall::ArrayWrite(_) => 4.0 * p.alu, // index arithmetic
                };
            }
            cycles
        }
    }
}

/// State-access cost of ONE execution of `node`, given that its state is
/// placed in region `m` and the node runs on `unit`.
///
/// For exact-match / counter / array state this is `accesses ×
/// effective latency`; for LPM state on a general core it is the naive
/// software path — a full linear match/action scan of the rule table
/// (`size × bulk cost`); a node mapped onto the flow-cache engine pays
/// the engine on hits and falls back to the backing region on misses.
pub fn state_access_cost(
    node: &DfNode,
    state: usize,
    m: usize,
    unit: UnitChoice,
    input_states: &[crate::input::StateSpec],
    ctx: &CostCtx<'_>,
) -> f64 {
    let p = ctx.params;
    let spec = &input_states[state];
    let accesses: u64 = node
        .vcalls
        .iter()
        .filter(|(c, _)| c.state().map(|s| s.0 as usize) == Some(state))
        .map(|(c, n)| {
            // Counter updates are read-modify-write: two accesses.
            match c {
                VCall::CounterAdd(_) => 2 * n,
                _ => *n,
            }
        })
        .sum();
    if accesses == 0 {
        return 0.0;
    }
    match unit {
        UnitChoice::Accel(AccelKind::FlowCache) | UnitChoice::Accel(AccelKind::Lpm) => {
            // Engine hit path; misses fall back to the backing region.
            let engine = p.flow_cache_hit.min(1e6);
            let backing = ctx.eff_latency(state, m);
            accesses as f64 * (engine + (1.0 - ctx.fc_hit) * backing)
        }
        UnitChoice::Accel(_) => 0.0, // checksum/crypto engines hold no NF state
        UnitChoice::Npu | UnitChoice::Stage(_) => {
            match spec.class {
                StateClass::Lpm => {
                    // Naive software LPM: scan every rule for the longest
                    // match, streaming the table out of its region.
                    let region = &p.mems[m];
                    accesses as f64
                        * (spec.size_bytes as f64 * region.bulk_per_byte
                            + 2.0 * spec.entries as f64 * p.alu)
                }
                _ => accesses as f64 * ctx.eff_latency(state, m),
            }
        }
    }
}

/// Whether `node` may be placed on the flow-cache or LPM engine: the
/// only placements whose cost reads [`CostCtx::fc_hit`].
pub fn reaches_table_engine(node: &DfNode, params: &NicParameters) -> bool {
    eligible_units(node, params)
        .iter()
        .any(|u| matches!(u, UnitChoice::Accel(AccelKind::FlowCache | AccelKind::Lpm)))
}

/// Eligible unit options for a node on this NIC.
pub fn eligible_units(node: &DfNode, params: &NicParameters) -> Vec<UnitChoice> {
    let mut units = Vec::new();
    if params.pipelined {
        // Pipelined ASIC: header-engine stages 0..3 plus the aux core
        // treated as the last stage's NPU.
        for s in 0..4 {
            units.push(UnitChoice::Stage(s));
        }
    }
    units.push(UnitChoice::Npu);
    let accel = |k: AccelKind| params.accels.contains_key(&k);
    match node.kind {
        // The checksum engine sits at ingress: it saw the packet's
        // original bytes, so checksums computed after a header rewrite
        // must run in software.
        NodeKind::Checksum if accel(AccelKind::Checksum) && !node.after_rewrite => {
            units.push(UnitChoice::Accel(AccelKind::Checksum));
        }
        NodeKind::Crypto if accel(AccelKind::Crypto) => {
            units.push(UnitChoice::Accel(AccelKind::Crypto));
        }
        NodeKind::TableLookup(_) if accel(AccelKind::FlowCache) => {
            units.push(UnitChoice::Accel(AccelKind::FlowCache));
        }
        NodeKind::LpmLookup(_) => {
            if accel(AccelKind::Lpm) {
                units.push(UnitChoice::Accel(AccelKind::Lpm));
            }
            if accel(AccelKind::FlowCache) {
                units.push(UnitChoice::Accel(AccelKind::FlowCache));
            }
        }
        _ => {}
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::StateSpec;
    use clara_dataflow::{NodeId, OpCounts};
    use clara_lnic::profiles;
    use clara_microbench::extract_parameters;
    use std::sync::OnceLock;

    fn params() -> &'static NicParameters {
        static P: OnceLock<NicParameters> = OnceLock::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    fn ctx<'a>(p: &'a NicParameters, hits: &'a [Vec<f64>]) -> CostCtx<'a> {
        CostCtx { params: p, payload: 300.0, state_hit: hits, fc_hit: 0.8, dpi_hit: 0.2 }
    }

    fn node(kind: NodeKind, vcalls: Vec<(VCall, u64)>, ops: OpCounts) -> DfNode {
        DfNode {
            id: NodeId(0),
            kind,
            blocks: vec![],
            ops,
            vcalls,
            loop_bound: None,
            weight: 1.0,
            after_rewrite: false,
        }
    }

    #[test]
    fn checksum_accelerator_cheaper_than_software() {
        let p = params();
        let hits: Vec<Vec<f64>> = vec![];
        let c = ctx(p, &hits);
        let n = node(NodeKind::Checksum, vec![(VCall::ChecksumFull, 1)], OpCounts::default());
        let sw = node_compute_cost(&n, UnitChoice::Npu, &c);
        let hw = node_compute_cost(&n, UnitChoice::Accel(AccelKind::Checksum), &c);
        assert!(hw < sw / 2.0, "hw {hw} sw {sw}");
    }

    #[test]
    fn missing_accelerator_priced_infinite() {
        let p = extract_parameters(&profiles::soc_armada()); // no checksum accel
        let hits: Vec<Vec<f64>> = vec![];
        let c = CostCtx { params: &p, payload: 300.0, state_hit: &hits, fc_hit: 0.5, dpi_hit: 0.2 };
        let n = node(NodeKind::Checksum, vec![(VCall::ChecksumFull, 1)], OpCounts::default());
        assert!(node_compute_cost(&n, UnitChoice::Accel(AccelKind::Checksum), &c).is_infinite());
    }

    #[test]
    fn lpm_software_scan_scales_with_rules() {
        let p = params();
        let hits = vec![vec![0.5; p.mems.len()]];
        let c = ctx(p, &hits);
        let n = node(
            NodeKind::LpmLookup(clara_cir::StateId(0)),
            vec![(VCall::LpmLookup(clara_cir::StateId(0)), 1)],
            OpCounts::default(),
        );
        let emem = p.mems.iter().position(|m| m.name == "emem").unwrap();
        let small = [StateSpec {
            name: "r".into(),
            class: StateClass::Lpm,
            entries: 5_000,
            size_bytes: 80_000,
        }];
        let large = [StateSpec {
            name: "r".into(),
            class: StateClass::Lpm,
            entries: 30_000,
            size_bytes: 480_000,
        }];
        let cs = state_access_cost(&n, 0, emem, UnitChoice::Npu, &small, &c);
        let cl = state_access_cost(&n, 0, emem, UnitChoice::Npu, &large, &c);
        assert!((cl / cs - 6.0).abs() < 0.5, "ratio {}", cl / cs);
    }

    #[test]
    fn flow_cache_engine_cost_blends_hit_and_miss() {
        let p = params();
        let hits = vec![vec![0.0; p.mems.len()]];
        let mut c = ctx(p, &hits);
        let n = node(
            NodeKind::TableLookup(clara_cir::StateId(0)),
            vec![(VCall::TableLookup(clara_cir::StateId(0)), 1)],
            OpCounts::default(),
        );
        let states = [StateSpec {
            name: "t".into(),
            class: StateClass::ExactMatch,
            entries: 1024,
            size_bytes: 16_384,
        }];
        let emem = p.mems.iter().position(|m| m.name == "emem").unwrap();
        c.fc_hit = 1.0;
        let all_hit = state_access_cost(&n, 0, emem, UnitChoice::Accel(AccelKind::FlowCache), &states, &c);
        c.fc_hit = 0.0;
        let all_miss = state_access_cost(&n, 0, emem, UnitChoice::Accel(AccelKind::FlowCache), &states, &c);
        assert!(all_hit < all_miss);
        assert!((all_hit - p.flow_cache_hit).abs() < 1.0);
    }

    #[test]
    fn counter_update_is_rmw() {
        let p = params();
        let hits = vec![vec![0.0; p.mems.len()]];
        let c = ctx(p, &hits);
        let sid = clara_cir::StateId(0);
        let add = node(NodeKind::CounterOp(sid), vec![(VCall::CounterAdd(sid), 1)], OpCounts::default());
        let read = node(NodeKind::CounterOp(sid), vec![(VCall::CounterRead(sid), 1)], OpCounts::default());
        let states = [StateSpec {
            name: "c".into(),
            class: StateClass::Counter,
            entries: 64,
            size_bytes: 512,
        }];
        let imem = p.mems.iter().position(|m| m.name == "imem").unwrap();
        let ca = state_access_cost(&add, 0, imem, UnitChoice::Npu, &states, &c);
        let cr = state_access_cost(&read, 0, imem, UnitChoice::Npu, &states, &c);
        assert!((ca / cr - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eligibility_rules() {
        let p = params();
        let ck = node(NodeKind::Checksum, vec![], OpCounts::default());
        let units = eligible_units(&ck, p);
        assert!(units.contains(&UnitChoice::Npu));
        assert!(units.contains(&UnitChoice::Accel(AccelKind::Checksum)));
        assert!(!units.contains(&UnitChoice::Accel(AccelKind::Crypto)));

        let lpm = node(NodeKind::LpmLookup(clara_cir::StateId(0)), vec![], OpCounts::default());
        let units = eligible_units(&lpm, p);
        assert!(units.contains(&UnitChoice::Accel(AccelKind::FlowCache)));

        let generic = node(NodeKind::Compute, vec![], OpCounts::default());
        assert_eq!(eligible_units(&generic, p), vec![UnitChoice::Npu]);
    }

    #[test]
    fn payload_scan_scales_with_payload() {
        let p = params();
        let hits: Vec<Vec<f64>> = vec![];
        let mut c = ctx(p, &hits);
        let n = node(NodeKind::PayloadScan, vec![(VCall::PayloadScan, 1)], OpCounts::default());
        c.payload = 200.0;
        let small = node_compute_cost(&n, UnitChoice::Npu, &c);
        c.payload = 1400.0;
        let large = node_compute_cost(&n, UnitChoice::Npu, &c);
        assert!((large / small - 7.0).abs() < 0.2, "ratio {}", large / small);
    }
}
