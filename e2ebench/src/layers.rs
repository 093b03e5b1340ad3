//! Span-wrapped calls into the layers that more than one workload's
//! traced replay makes, and the per-layer figures they share.

use crate::common::Report;
use crate::spans::{SpanSet, Tracer};
use clara_cir::CirModule;
use clara_telemetry::SolveStats;

/// Analyze one NF source the way `analyze_source` does, one span per
/// layer call: parse, check, lower, dataflow extraction. Returns the
/// lowered module and the sizes of the CIR (instructions) and the
/// dataflow graph (nodes).
pub fn frontend(t: &mut Tracer, op: u64, source: &str) -> Result<(CirModule, Sizes), String> {
    let ast = t
        .span("lang.parse", op, || clara_lang::parse(source))
        .map_err(|e| e.to_string())?;
    t.span("lang.check", op, || clara_lang::check(&ast))
        .map_err(|e| e.to_string())?;
    let module = t
        .span("cir.lower", op, || clara_cir::lower(&ast))
        .map_err(|e| e.to_string())?;
    let graph = t.span("dataflow.extract", op, || clara_dataflow::extract(&module));
    let sizes = Sizes {
        instrs: module.handle.num_instrs(),
        nodes: graph.nodes.len(),
        nfs: 1,
    };
    Ok((module, sizes))
}

/// Summed sizes of the NFs analyzed by [`frontend`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Sizes {
    instrs: usize,
    nodes: usize,
    nfs: usize,
}

impl Sizes {
    pub fn add(&mut self, other: Sizes) {
        self.instrs += other.instrs;
        self.nodes += other.nodes;
        self.nfs += other.nfs;
    }

    /// The frontend metrics: self time of each layer per operation, and
    /// the mean size of an analyzed NF.
    pub fn report(&self, r: &mut Report, spans: &SpanSet, ops: f64) {
        r.layer("lang.parse_us", spans.self_us("lang.parse") / ops);
        r.layer("lang.check_us", spans.self_us("lang.check") / ops);
        r.layer("cir.lower_us", spans.self_us("cir.lower") / ops);
        r.layer(
            "dataflow.extract_us",
            spans.self_us("dataflow.extract") / ops,
        );
        let nfs = self.nfs.max(1) as f64;
        r.layer("cir.instrs", self.instrs as f64 / nfs);
        r.layer("dataflow.nodes", self.nodes as f64 / nfs);
    }
}

/// Solver counters summed over solves.
#[derive(Debug, Default)]
pub struct IlpTally {
    sums: [u64; 5],
    solves: u64,
}

impl IlpTally {
    pub fn add(&mut self, s: &SolveStats) {
        let v = [
            s.nodes_explored,
            s.lp_solves,
            s.simplex_pivots,
            s.warm_start_hits,
            s.cell_warm_hits,
        ];
        for (acc, x) in self.sums.iter_mut().zip(v) {
            *acc += x;
        }
        self.solves += 1;
    }

    /// The `ilp.*` metrics, per solve.
    pub fn report(&self, r: &mut Report) {
        let names = [
            "ilp.nodes",
            "ilp.lp_solves",
            "ilp.pivots",
            "ilp.warm_start_hits",
            "ilp.cell_warm_hits",
        ];
        for (name, sum) in names.into_iter().zip(self.sums) {
            r.layer(name, sum as f64 / self.solves.max(1) as f64);
        }
    }
}
