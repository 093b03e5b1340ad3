//! Performance prediction (§3.5 of the Clara paper).
//!
//! Given a lowered NF ([`clara_cir::CirModule`]), measured NIC parameters
//! ([`clara_microbench::NicParameters`]), and a workload description
//! ([`clara_workload::WorkloadProfile`]), this crate produces the
//! performance profile the paper describes: per-packet-type latency
//! predictions, an average, an idealized throughput estimate, and an
//! energy estimate — plus the §3.5/§6 extensions (interference via LNIC
//! slicing, partial offloading across PCIe).
//!
//! The pipeline:
//!
//! 1. **Packet classes.** The workload is decomposed into classes (TCP
//!    SYN / established TCP / UDP), mirroring the paper's example output
//!    ("TCP SYN packets experience higher latency, but the following
//!    packets will hit the flow cache"). Each class is *simulated through
//!    the CIR interpreter* on representative packets to find how packets
//!    of that class traverse the NF — which blocks execute, how many loop
//!    iterations run.
//! 2. **Cache analysis.** Expected cache-hit ratios per (state, region)
//!    come from the workload's flow count and Zipf skew versus measured
//!    cache capacities (the hot-flow mass that fits is the hit ratio).
//! 3. **Mapping.** The ILP of `clara-map` picks units and placements.
//! 4. **Pricing.** Each class re-prices the mapping with its own payload
//!    size, adds payload-spill corrections and M/D/1-style queueing
//!    delays at accelerators and the thread pool, and the class mix
//!    yields the average.

pub mod cache;
pub mod checkpoint;
pub mod classes;
mod fanout;
pub mod interfere;
pub mod partial;
pub mod predictor;
pub mod queueing;
pub mod session;
pub mod supervisor;
pub mod sweep;
pub mod validate;

pub use cache::{fc_hit_ratio, state_hit_matrix};
pub use checkpoint::{scenario_hash, CellSummary, Checkpoint};
pub use classes::{enumerate_classes, PacketClass};
pub use interfere::{predict_sliced, SliceSpec};
pub use partial::{predict_partial, HostParams, PartialPlan};
pub use clara_map::{MappingQuality, RunDeadline, SolveBudget, SolverConfig};
pub use clara_telemetry::{json_escape, Sink, SimStats, SolveStats, TelemetryReport};
pub use fanout::panic_text;
pub use predictor::{
    predict, predict_with_options, predict_with_sink, ClassKey, ClassPrediction, PredictError,
    PredictOptions, Prediction,
};
pub use queueing::{accel_wait, pool_wait};
pub use session::{NfSession, SessionBuildError, SessionStats};
pub use supervisor::{
    run_sweep_supervised, CellOutcome, CellReport, CellResult, RunClass, RunReport,
    SupervisedSweep, SupervisorConfig, SupervisorError,
};
pub use sweep::{run_sweep, SweepScenario};
pub use validate::{
    run_validation_sweep, validation_grid, ErrorSummary, ValidationCell, ValidationConfig,
    ValidationResult, ValidationSweep, MAX_PACKETS,
};
