//! # Clara — performance clarity for SmartNIC offloading
//!
//! Clara analyzes an **unported** network function in its original form
//! and predicts its performance when ported to a SmartNIC target,
//! without requiring the developer to port the program first
//! (Qiu, Kang, Liu, Chen — HotNets '20).
//!
//! This crate is the public façade over the full pipeline:
//!
//! ```text
//!  NFC source ──lang──► AST ──cir──► CIR + vcalls ──dataflow──► graph
//!                                                      │
//!  LNIC profile ──microbench──► measured parameters ───┤ ILP (map)
//!                                                      ▼
//!  workload profile ──────────────────────────► prediction (predict)
//! ```
//!
//! # Quickstart
//!
//! ```
//! use clara_core::{Clara, WorkloadProfile};
//!
//! // One-time per NIC: run the microbenchmark suite.
//! let nic = clara_core::profiles::netronome_agilio_cx40();
//! let clara = Clara::new(&nic);
//!
//! let source = r#"
//!     nf firewall {
//!         state conns: map<u64, u64>[65536];
//!         fn handle(pkt: packet) -> action {
//!             bpf.parse(pkt);
//!             let k: u64 = hash(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port);
//!             if (conns.lookup(k) == 0) {
//!                 if (pkt.is_syn) { conns.insert(k, 1); return forward; }
//!                 return drop;
//!             }
//!             return forward;
//!         }
//!     }
//! "#;
//!
//! let prediction = clara.predict(source, &WorkloadProfile::paper_default()).unwrap();
//! assert!(prediction.avg_latency_ns > 0.0);
//! println!("{}", clara.porting_hints(source, &WorkloadProfile::paper_default()).unwrap());
//! ```

use core::fmt;

pub use clara_cir::CirModule;
pub use clara_dataflow::DataflowGraph;
pub use clara_lnic::{AccelKind, Lnic};
pub use clara_map::{Mapping, MappingQuality, RunDeadline, SolveBudget, SolverConfig, UnitChoice};
pub use clara_microbench::{extract_parameters, NicParameters};
pub use clara_predict::{
    json_escape, predict_partial, predict_sliced, predict_with_sink, run_sweep,
    run_sweep_supervised, run_validation_sweep, validation_grid, CellOutcome, CellReport,
    CellResult, CellSummary, Checkpoint, ClassPrediction, ErrorSummary, HostParams, PartialPlan,
    PredictOptions, Prediction, RunClass, RunReport, SliceSpec, Sink, SimStats, SolveStats,
    SupervisedSweep, SupervisorConfig, SupervisorError, SweepScenario, TelemetryReport,
    ValidationCell, ValidationConfig, ValidationResult, ValidationSweep, MAX_PACKETS,
};
pub use clara_workload::{Arrival, SizeDist, Trace, TraceGenerator, WorkloadError, WorkloadProfile};

/// Built-in LNIC profiles (re-exported from `clara-lnic`).
pub mod profiles {
    pub use clara_lnic::profiles::*;
}

/// Simulation substrate (re-exported from `clara-nicsim`): the ground
/// truth used to validate predictions in this reproduction.
pub mod sim {
    pub use clara_nicsim::*;
}

/// The NF corpus used by the paper's evaluation (re-exported).
pub mod nfs {
    pub use clara_nfs::*;
}

/// The `clara serve` daemon (re-exported from `clara-serve`): sessions,
/// protocol, server, and client.
pub mod serve {
    pub use clara_serve::*;
}

/// The `clara` CLI's exit codes — one shared definition for the binary,
/// its `--help` text, the README table, and CI scripts. Codes are
/// stable: scripts may match on them.
pub mod exit_codes {
    /// Success.
    pub const OK: u8 = 0;
    /// Bad invocation: unknown command, flag, or flag value.
    pub const USAGE: u8 = 2;
    /// A file could not be read, written, or parsed.
    pub const IO: u8 = 3;
    /// The NF source failed to parse or type-check.
    pub const FRONTEND: u8 = 4;
    /// Lowering to CIR failed.
    pub const LOWER: u8 = 5;
    /// Mapping or prediction failed.
    pub const PREDICT: u8 = 6;
    /// The workload profile is malformed.
    pub const WORKLOAD: u8 = 7;
    /// A sweep/validation finished, but some cells failed.
    pub const SWEEP_PARTIAL: u8 = 8;
    /// A sweep/validation finished with every cell failed.
    pub const SWEEP_FAILED: u8 = 9;
    /// The `serve` daemon failed to start (e.g. the bind address is in
    /// use). Per-request serve failures are reply codes on the wire
    /// (`clara_serve::reply_codes`), not process exits; codes 0–9 there
    /// mirror this table one-for-one.
    pub const SERVE: u8 = 10;

    /// `(code, meaning)` rows, in code order.
    pub const TABLE: &[(u8, &str)] = &[
        (OK, "success"),
        (USAGE, "usage error (bad command, flag, or value)"),
        (IO, "file I/O or parameter-file parse error"),
        (FRONTEND, "NF frontend (parse/type) error"),
        (LOWER, "CIR lowering error"),
        (PREDICT, "mapping or prediction error"),
        (WORKLOAD, "malformed workload profile"),
        (SWEEP_PARTIAL, "sweep/validate finished with some cells failed"),
        (SWEEP_FAILED, "sweep/validate finished with every cell failed"),
        (SERVE, "serve daemon failed to start"),
    ];

    /// The table rendered for `--help` and docs, one `  code  meaning`
    /// line per row.
    pub fn table() -> String {
        TABLE.iter().map(|(code, meaning)| format!("  {code}  {meaning}\n")).collect()
    }
}

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum ClaraError {
    /// The NF source failed to parse or type-check.
    Frontend(clara_lang::LangError),
    /// Lowering to CIR failed.
    Lower(clara_cir::LowerError),
    /// Mapping or prediction failed.
    Predict(clara_predict::PredictError),
    /// The workload profile is malformed (NaN rate, zero flows, ...).
    Workload(clara_workload::WorkloadError),
}

impl fmt::Display for ClaraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaraError::Frontend(e) => write!(f, "frontend error: {e}"),
            ClaraError::Lower(e) => write!(f, "lowering error: {e}"),
            ClaraError::Predict(e) => write!(f, "prediction error: {e}"),
            ClaraError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl std::error::Error for ClaraError {}

impl From<clara_lang::LangError> for ClaraError {
    fn from(e: clara_lang::LangError) -> Self {
        ClaraError::Frontend(e)
    }
}
impl From<clara_cir::LowerError> for ClaraError {
    fn from(e: clara_cir::LowerError) -> Self {
        ClaraError::Lower(e)
    }
}
impl From<clara_predict::PredictError> for ClaraError {
    fn from(e: clara_predict::PredictError) -> Self {
        ClaraError::Predict(e)
    }
}
impl From<clara_workload::WorkloadError> for ClaraError {
    fn from(e: clara_workload::WorkloadError) -> Self {
        ClaraError::Workload(e)
    }
}

/// The result of analyzing an NF: its IR and dataflow graph.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The lowered module (CIR with vcalls).
    pub module: CirModule,
    /// The pattern-matched dataflow graph.
    pub graph: DataflowGraph,
}

/// Analyze an NF source without any NIC context (parse, check, lower,
/// extract the dataflow graph). Prediction additionally needs
/// [`NicParameters`]; use [`Clara`] for that.
pub fn analyze_source(source: &str) -> Result<Analysis, ClaraError> {
    let module = lower_source(source)?;
    let graph = clara_dataflow::extract(&module);
    Ok(Analysis { module, graph })
}

/// Parse, check and lower an NF source without extracting its dataflow
/// graph: all a prediction needs, since it extracts and weights its own.
pub fn lower_source(source: &str) -> Result<CirModule, ClaraError> {
    let ast = clara_lang::frontend(source)?;
    Ok(clara_cir::lower(&ast)?)
}

/// The Clara tool: NIC parameters plus the analysis/prediction pipeline.
#[derive(Debug, Clone)]
pub struct Clara {
    params: NicParameters,
}

impl Clara {
    /// Build Clara for a NIC by running the one-time microbenchmark
    /// extraction against it (on hardware this takes minutes; here it
    /// runs against the simulator substrate).
    pub fn new(nic: &Lnic) -> Self {
        Clara { params: extract_parameters(nic) }
    }

    /// Build Clara from previously extracted parameters.
    pub fn with_params(params: NicParameters) -> Self {
        Clara { params }
    }

    /// The measured parameter table.
    pub fn params(&self) -> &NicParameters {
        &self.params
    }

    /// Parse, check, lower, and extract the dataflow graph of an NF.
    pub fn analyze(&self, source: &str) -> Result<Analysis, ClaraError> {
        analyze_source(source)
    }

    /// Predict the performance of an unported NF under a workload.
    pub fn predict(
        &self,
        source: &str,
        workload: &WorkloadProfile,
    ) -> Result<Prediction, ClaraError> {
        workload.validate()?;
        let module = lower_source(source)?;
        Ok(clara_predict::predict(&module, &self.params, workload)?)
    }

    /// Predict from an existing analysis (avoids re-parsing).
    pub fn predict_module(
        &self,
        module: &CirModule,
        workload: &WorkloadProfile,
    ) -> Result<Prediction, ClaraError> {
        workload.validate()?;
        Ok(clara_predict::predict(module, &self.params, workload)?)
    }

    /// §6: "developers can benefit even further if Clara can generate
    /// concrete porting strategies for different NF components as
    /// offloading hints." A human-readable porting plan.
    pub fn porting_hints(
        &self,
        source: &str,
        workload: &WorkloadProfile,
    ) -> Result<String, ClaraError> {
        workload.validate()?;
        let module = lower_source(source)?;
        let prediction = clara_predict::predict(&module, &self.params, workload)?;
        let mut out = String::new();
        out.push_str(&format!(
            "Porting plan for `{}` on {} ({} kpps, {}B avg payload, {} flows):\n",
            module.name,
            self.params.nic_name,
            (workload.rate_pps / 1000.0).round(),
            workload.avg_payload.round(),
            workload.flows,
        ));
        for (node, unit) in prediction.graph.nodes.iter().zip(&prediction.mapping.node_unit) {
            out.push_str(&format!("  • {:<20} → {}\n", node.kind.to_string(), unit));
            if node.kind == clara_dataflow::NodeKind::Checksum && node.after_rewrite {
                out.push_str(
                    "      (computed after a header rewrite: the ingress checksum \
                     engine cannot serve it — consider an incremental update)\n",
                );
            }
        }
        for (state, &m) in module.states.iter().zip(&prediction.mapping.state_mem) {
            out.push_str(&format!(
                "  • state `{}` ({} B) → {}\n",
                state.name, state.size_bytes, self.params.mems[m].name
            ));
        }
        for class in &prediction.per_class {
            out.push_str(&format!(
                "  {:<8} {:>5.1}% of traffic → {:>8.0} cycles ({:.2} µs)\n",
                class.name,
                class.share * 100.0,
                class.latency_cycles,
                class.latency_cycles / self.params.freq_ghz / 1000.0,
            ));
        }
        out.push_str(&format!(
            "  predicted average: {:.0} cycles ({:.2} µs); sustainable throughput ≈ {:.2} Mpps (bottleneck: {})\n",
            prediction.avg_latency_cycles,
            prediction.avg_latency_ns / 1000.0,
            prediction.throughput_pps / 1e6,
            prediction.bottleneck,
        ));
        out.push_str(&format!(
            "  mapping confidence: {}\n",
            prediction.mapping.quality
        ));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn clara() -> &'static Clara {
        static C: OnceLock<Clara> = OnceLock::new();
        C.get_or_init(|| Clara::new(&profiles::netronome_agilio_cx40()))
    }

    const FW: &str = r#"nf firewall {
        state conns: map<u64, u64>[65536];
        fn handle(pkt: packet) -> action {
            bpf.parse(pkt);
            let k: u64 = hash(pkt.src_ip, pkt.dst_ip);
            if (conns.lookup(k) == 0) {
                if (pkt.is_syn) { conns.insert(k, 1); return forward; }
                return drop;
            }
            return forward;
        } }"#;

    #[test]
    fn analyze_produces_ir_and_graph() {
        let a = clara().analyze(FW).unwrap();
        assert_eq!(a.module.name, "firewall");
        assert!(!a.graph.nodes.is_empty());
    }

    #[test]
    fn frontend_errors_surface() {
        let err = clara().analyze("nf x { }").unwrap_err();
        assert!(matches!(err, ClaraError::Frontend(_)));
        assert!(err.to_string().contains("handle"));
    }

    #[test]
    fn predict_end_to_end() {
        let p = clara().predict(FW, &WorkloadProfile::paper_default()).unwrap();
        assert!(p.avg_latency_cycles > 0.0);
        assert!(p.throughput_pps > 60_000.0);
    }

    #[test]
    fn porting_hints_are_readable() {
        let hints = clara()
            .porting_hints(FW, &WorkloadProfile::paper_default())
            .unwrap();
        assert!(hints.contains("state `conns`"), "{hints}");
        assert!(hints.contains("predicted average"), "{hints}");
        assert!(hints.contains("table-lookup"), "{hints}");
        assert!(hints.contains("mapping confidence: optimal"), "{hints}");
    }

    #[test]
    fn malformed_workloads_are_rejected_before_prediction() {
        let mut wl = WorkloadProfile::paper_default();
        wl.rate_pps = f64::NAN;
        let err = clara().predict(FW, &wl).unwrap_err();
        assert!(matches!(err, ClaraError::Workload(_)), "{err}");
        assert!(err.to_string().contains("rate_pps"), "{err}");

        wl.rate_pps = 60_000.0;
        wl.flows = 0;
        let err = clara().porting_hints(FW, &wl).unwrap_err();
        assert!(matches!(err, ClaraError::Workload(_)), "{err}");
    }

    #[test]
    fn exit_code_table_is_complete_and_ordered() {
        let codes: Vec<u8> = exit_codes::TABLE.iter().map(|(c, _)| *c).collect();
        assert_eq!(codes, vec![0, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let table = exit_codes::table();
        assert_eq!(table.lines().count(), exit_codes::TABLE.len());
        assert!(table.contains("  8  sweep/validate finished with some cells failed"));
    }

    /// The daemon's wire reply codes for pipeline failures mirror the
    /// CLI's exit codes one-for-one, so clients can treat a daemon
    /// reply and a one-shot CLI exit identically.
    #[test]
    fn serve_reply_codes_mirror_exit_codes() {
        use serve::reply_codes as rc;
        for (exit, reply) in [
            (exit_codes::OK, rc::OK),
            (exit_codes::USAGE, rc::USAGE),
            (exit_codes::IO, rc::IO),
            (exit_codes::FRONTEND, rc::FRONTEND),
            (exit_codes::LOWER, rc::LOWER),
            (exit_codes::PREDICT, rc::PREDICT),
            (exit_codes::WORKLOAD, rc::WORKLOAD),
            (exit_codes::SWEEP_PARTIAL, rc::SWEEP_PARTIAL),
            (exit_codes::SWEEP_FAILED, rc::SWEEP_FAILED),
        ] {
            assert_eq!(exit, reply);
        }
        // Serve-layer degradations live above the exit-code range so
        // the two tables can never collide.
        let max_exit = exit_codes::TABLE.iter().map(|(c, _)| *c).max().unwrap();
        for (code, _) in rc::TABLE.iter().filter(|(c, _)| *c >= 20) {
            assert!(*code > max_exit);
        }
    }

    #[test]
    fn with_params_roundtrip() {
        let c2 = Clara::with_params(clara().params().clone());
        assert_eq!(c2.params().nic_name, "netronome-agilio-cx40");
    }
}
