//! The Clara Intermediate Representation (CIR) — §3.3 of the paper.
//!
//! CIR is a small typed three-address bytecode organized into basic
//! blocks. The NFC frontend's AST is *lowered* here; user functions are
//! inlined (the checker guarantees acyclicity), short-circuit booleans
//! become control flow, and every framework/builtin call is substituted
//! with a **vcall** — a virtual call naming the NIC-relevant semantic
//! operation (`ParseHeader`, `ChecksumFull`, `TableLookup{state}`, ...)
//! that is bound to a SmartNIC component later in the analysis.
//!
//! The crate also provides:
//!
//! * [`mod@cfg`] — CFG analyses (successors/predecessors, reachability,
//!   dominators, natural-loop detection) used by the dataflow extraction.
//! * [`interp`] — a CIR interpreter that executes a function against a
//!   packet description and a state oracle, recording a *path profile*
//!   (block execution counts, vcall byte counts). This is Clara's
//!   "simulate the execution for the set of packets" path (§3.5). A
//!   function is decoded once into a [`DecodedFunction`] for repeated
//!   runs.
//!
//! # Example
//!
//! ```
//! use clara_cir::lower;
//!
//! let src = r#"
//!     nf demo {
//!         state t: map<u64, u64>[1024];
//!         fn handle(pkt: packet) -> action {
//!             let v: u64 = t.lookup(hash(pkt.src_ip));
//!             if (v == 0) { return drop; }
//!             return forward;
//!         }
//!     }
//! "#;
//! let module = lower(&clara_lang::frontend(src).unwrap()).unwrap();
//! assert_eq!(module.name, "demo");
//! assert!(module.handle.blocks.len() >= 3); // entry, drop arm, tail
//! ```

pub mod cfg;
pub mod interp;
pub mod ir;
pub mod lower;

pub use interp::{
    execute, DecodedFunction, HashState, InterpError, PacketInfo, PathProfile, RunBuffers,
    RunOutcome, StateOracle,
};
pub use ir::{
    BasicBlock, BlockId, CirFunction, CirModule, Instr, Op, Operand, PacketField, Reg, StateId,
    StateInfo, Terminator, VCall,
};
pub use lower::{lower, LowerError};
