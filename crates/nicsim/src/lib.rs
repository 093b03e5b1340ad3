//! A cycle-cost, discrete-event SmartNIC simulator — Clara's ground-truth
//! execution substrate.
//!
//! The paper validates Clara's predictions against a physical Netronome
//! Agilio CX 40 GbE SmartNIC. This reproduction has no NIC, so this crate
//! implements a mechanistically faithful stand-in, parameterized by an
//! [`clara_lnic::Lnic`] profile:
//!
//! * **NPU islands** — general cores with N hardware threads each; an
//!   incoming packet is bound to a single thread and runs to completion.
//! * **Memory hierarchy** — LMEM / per-island CTM / IMEM / EMEM with the
//!   paper's latencies, a set-associative LRU cache in front of the EMEM,
//!   NUMA weights for remote-island CTM access, and bulk per-byte costs
//!   for payload streaming.
//! * **Packet residence** — packets ≤ 1 kB live in the CTM of their
//!   island; the tails of larger packets spill to EMEM (§3.2).
//! * **Accelerators** — checksum / crypto / flow-cache / LPM engines as
//!   single-server queues with base + per-byte service curves; contention
//!   produces head-of-line blocking.
//! * **Flow cache** — a hardware exact-match table in SRAM; hits bypass
//!   the software path, misses fall back to the table's backing memory
//!   and install the flow.
//! * **Switching hubs** — fixed ingress/egress traversal plus queueing
//!   when all threads are busy.
//!
//! A *ported NF* is expressed as a [`NicProgram`]: stages of micro-ops
//! with explicit table placements — exactly the decisions a human porter
//! makes (which memory holds the flow table, whether the checksum uses
//! the accelerator, whether the flow cache fronts the LPM table).
//!
//! # Example
//!
//! ```
//! use clara_lnic::profiles;
//! use clara_nicsim::{simulate, MicroOp, NicProgram, Stage, StageUnit};
//! use clara_workload::TraceGenerator;
//!
//! let nic = profiles::netronome_agilio_cx40();
//! let prog = NicProgram {
//!     name: "echo".into(),
//!     tables: vec![],
//!     stages: vec![Stage {
//!         name: "touch".into(),
//!         unit: StageUnit::Npu,
//!         ops: vec![MicroOp::ParseHeader, MicroOp::MetadataMod { count: 2 }],
//!     }],
//! };
//! let trace = TraceGenerator::new(1).packets(500).generate();
//! let result = simulate(&nic, &prog, &trace).unwrap();
//! assert_eq!(result.completed, 500);
//! assert!(result.avg_latency_cycles > 150.0); // at least the parse cost
//! ```

mod batch;
pub mod costcache;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod program;
pub mod rates;
pub mod watchdog;

pub use clara_lnic::AccelKind;
pub use clara_telemetry::{SimStats, StageTimeline};
pub use costcache::CostCache;
pub use engine::{
    simulate, simulate_configured, simulate_instrumented, simulate_streamed,
    simulate_streamed_instrumented, simulate_supervised, simulate_with_faults, SimConfig, SimError,
    SimInstruments, SimResult, SimScratch,
};
pub use fault::{FaultPlan, TRUNCATED_PAYLOAD_BYTES};
pub use memory::{Cache, MemorySim};
pub use program::{BytesSpec, MicroOp, NicProgram, Stage, StageUnit, TableCfg};
pub use rates::{simulate_rates, RateRun};
pub use watchdog::Watchdog;
