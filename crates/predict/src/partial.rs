//! Partial offloading: splitting an NF between the SmartNIC and host
//! CPUs (§6).
//!
//! "Capturing partial offloading performance requires reasoning about the
//! host/NIC interconnect (e.g., PCIe)." The model: the dataflow graph is
//! cut at a prefix boundary (nodes before the cut run on the NIC, the
//! rest on the host); packets crossing the cut pay a PCIe traversal, and
//! host nodes are priced with a conventional x86-like cost model.

use crate::predictor::{predict_prepared, prepare, PredictError, PredictOptions, Prepared};
use clara_cir::CirModule;
use clara_dataflow::DfNode;
use clara_map::{node_compute_cost, state_access_cost, CostCtx};
use clara_microbench::NicParameters;
use clara_workload::WorkloadProfile;

/// Host-side execution parameters (a modern x86 server core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostParams {
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Cycles per ALU-class operation.
    pub alu: f64,
    /// Cycles per table access (DRAM with a large LLC blended in).
    pub table_access: f64,
    /// Cycles per payload byte for streaming work (checksum/DPI).
    pub stream_per_byte: f64,
    /// One-way PCIe crossing in nanoseconds (DMA + doorbell).
    pub pcie_ns: f64,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            freq_ghz: 3.4, // the paper's testbed: Xeon E5-2643 @ 3.40 GHz
            alu: 0.5,      // superscalar x86
            table_access: 90.0,
            stream_per_byte: 0.08,
            pcie_ns: 600.0,
        }
    }
}

/// One candidate split and its predicted latency.
#[derive(Debug, Clone)]
pub struct PartialPlan {
    /// Nodes `0..cut` run on the NIC; `cut..` on the host. `cut = n`
    /// means full offload, `cut = 0` means everything on the host.
    pub cut: usize,
    /// Predicted per-packet latency in nanoseconds (cycles don't compare
    /// across clock domains).
    pub latency_ns: f64,
    /// Whether the packet crosses PCIe.
    pub crosses_pcie: bool,
}

/// Evaluate every prefix cut of the dataflow graph and return the plans
/// sorted by cut position (full offload last).
///
/// One `prepare` (classes, state specs, cache model) serves both the
/// full-offload prediction and every cut. Its flow-cache hit ratio is
/// left at 0 only when no node can sit on the flow-cache or LPM engine,
/// and the cost model reads it only for such a placement, so the cuts
/// price exactly as with the ratio computed.
pub fn predict_partial(
    module: &CirModule,
    params: &NicParameters,
    workload: &WorkloadProfile,
    host: HostParams,
) -> Result<Vec<PartialPlan>, PredictError> {
    let prepared = prepare(module, params, workload, 0);
    let full =
        predict_prepared(module, params, workload, &PredictOptions::default(), &prepared)?;
    let Prepared { states, state_hit, fc_hit, .. } = &prepared;
    // The prediction's graph carries the class-averaged node weights.
    let graph = &full.graph;

    let ctx = CostCtx {
        params,
        payload: workload.avg_payload,
        state_hit,
        fc_hit: *fc_hit,
        dpi_hit: 0.2,
    };
    // Per-node NIC cost under the full mapping (ns).
    let nic_ns: Vec<f64> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let unit = full.mapping.node_unit[i];
            let mut cycles = node_compute_cost(node, unit, &ctx);
            for state in node.touched_states() {
                let s = state.0 as usize;
                cycles +=
                    state_access_cost(node, s, full.mapping.state_mem[s], unit, states, &ctx);
            }
            node.weight * cycles / params.freq_ghz
        })
        .collect();
    // Per-node host cost (ns).
    let host_ns: Vec<f64> = graph
        .nodes
        .iter()
        .map(|node| node.weight * host_node_cycles(node, workload.avg_payload, &host) / host.freq_ghz)
        .collect();

    let hub_ns = params.hub_overhead / params.freq_ghz;
    let n = graph.nodes.len();
    let mut plans = Vec::with_capacity(n + 1);
    for cut in 0..=n {
        let nic_part: f64 = nic_ns[..cut].iter().sum();
        let host_part: f64 = host_ns[cut..].iter().sum();
        let crosses = cut > 0 && cut < n;
        // Everything on host still crosses PCIe once (NIC -> host RX);
        // full offload never does.
        let crossings = if cut == n { 0.0 } else { 1.0 };
        plans.push(PartialPlan {
            cut,
            latency_ns: hub_ns + nic_part + host_part + crossings * host.pcie_ns,
            crosses_pcie: crosses || cut == 0,
        });
    }
    Ok(plans)
}

/// The plan with the lowest latency.
pub fn best_plan(plans: &[PartialPlan]) -> &PartialPlan {
    plans
        .iter()
        .min_by(|a, b| a.latency_ns.partial_cmp(&b.latency_ns).unwrap_or(std::cmp::Ordering::Equal))
        .expect("at least the trivial cuts exist")
}

fn host_node_cycles(node: &DfNode, payload: f64, host: &HostParams) -> f64 {
    use clara_cir::VCall;
    let ops = &node.ops;
    let mut cycles = (ops.alu + ops.branch + ops.metadata_reads + ops.metadata_writes) as f64
        * host.alu
        + ops.mul as f64 * host.alu * 2.0
        + ops.div as f64 * host.alu * 20.0
        + ops.hash as f64 * 8.0
        + ops.payload_bytes as f64 * host.stream_per_byte
        + ops.float as f64 * host.alu; // host cores have FPUs
    for (call, count) in &node.vcalls {
        let n = *count as f64;
        cycles += n * match call {
            VCall::ParseHeader => 25.0,
            VCall::ChecksumFull => host.stream_per_byte * (payload + 54.0) + 20.0,
            VCall::ChecksumIncr => 4.0,
            VCall::Crypto => payload * 0.6, // AES-NI
            VCall::PayloadScan => payload * (host.stream_per_byte + 3.0),
            VCall::Meter => 10.0,
            VCall::TableLookup(_)
            | VCall::TableWrite(_)
            | VCall::CounterAdd(_)
            | VCall::CounterRead(_)
            | VCall::ArrayRead(_)
            | VCall::ArrayWrite(_) => host.table_access,
            VCall::LpmLookup(_) => host.table_access * 2.0, // trie walk
            _ => 0.0,
        };
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_dataflow::extract;
    use clara_lnic::profiles;
    use clara_microbench::extract_parameters;
    use std::sync::OnceLock;

    fn params() -> &'static NicParameters {
        static P: OnceLock<NicParameters> = OnceLock::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    fn module(src: &str) -> CirModule {
        clara_cir::lower(&clara_lang::frontend(src).unwrap()).unwrap()
    }

    #[test]
    fn plans_cover_all_cuts() {
        let m = module(
            "nf t { state c: counter[64];
              fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                c.add(pkt.src_ip % 64, 1);
                return forward; } }",
        );
        let plans =
            predict_partial(&m, params(), &WorkloadProfile::paper_default(), HostParams::default())
                .unwrap();
        let graph = extract(&m);
        assert_eq!(plans.len(), graph.nodes.len() + 1);
        assert!(!plans.last().unwrap().crosses_pcie); // full offload
    }

    #[test]
    fn cheap_nf_prefers_full_offload() {
        // A trivial NF: the PCIe crossing dominates, keep it on the NIC.
        let m = module(
            "nf t { fn handle(pkt: packet) -> action {
                pkt.decrement_ttl();
                return forward; } }",
        );
        let plans =
            predict_partial(&m, params(), &WorkloadProfile::paper_default(), HostParams::default())
                .unwrap();
        let best = best_plan(&plans);
        let graph = extract(&m);
        assert_eq!(best.cut, graph.nodes.len(), "expected full offload");
    }

    #[test]
    fn compute_heavy_tail_prefers_host() {
        // Heavy per-byte scanning runs ~10x faster on the host cores; a
        // long DPI tail should be cut off the NIC despite PCIe.
        let m = module(
            "nf dpi { fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let h: u64 = payload_scan(pkt, 7);
                if (h > 0) { return drop; }
                return forward; } }",
        );
        let wl = WorkloadProfile {
            avg_payload: 1400.0,
            max_payload: 1400,
            ..WorkloadProfile::paper_default()
        };
        let plans = predict_partial(&m, params(), &wl, HostParams::default()).unwrap();
        let best = best_plan(&plans);
        let graph = extract(&m);
        assert!(best.cut < graph.nodes.len(), "expected a partial split");
        // And the split must beat both extremes clearly.
        let full = plans.last().unwrap().latency_ns;
        assert!(best.latency_ns < full, "split {} full {full}", best.latency_ns);
    }
}
