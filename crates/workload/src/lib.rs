//! Workload profiles, trace generation, and pcap I/O for Clara.
//!
//! Clara's predictor consumes a *workload description* (§3.5 of the paper):
//! either a concrete packet trace (e.g. a pcap file) or an abstract profile
//! such as "80% TCP vs 20% UDP" or "10k concurrent TCP flows with 300-byte
//! average packet size". This crate provides both:
//!
//! * [`Trace`] — a concrete, timestamped sequence of packets, with
//!   statistics ([`TraceStats`]).
//! * [`TraceGenerator`] — synthesizes traces: flow counts, Zipf or uniform
//!   flow popularity, packet-size and protocol mixes, SYN-on-first-packet,
//!   constant-rate or Poisson arrivals.
//! * [`WorkloadProfile`] — the abstract form; it can be *derived from* a
//!   trace or *expanded into* one.
//! * [`pcap`] — a from-scratch reader/writer for the classic libpcap file
//!   format, round-tripping real wire bytes built by `clara-packet`.
//!
//! # Example
//!
//! ```
//! use clara_workload::{TraceGenerator, SizeDist, WorkloadProfile};
//!
//! let trace = TraceGenerator::new(42)
//!     .packets(1000)
//!     .flows(100)
//!     .rate_pps(60_000.0)
//!     .tcp_share(0.8)
//!     .sizes(SizeDist::Fixed(300))
//!     .generate();
//! assert_eq!(trace.len(), 1000);
//! let profile = WorkloadProfile::from_trace(&trace);
//! assert!((profile.tcp_share - 0.8).abs() < 0.1);
//! ```

pub mod cache;
pub mod gen;
pub mod pcap;
pub mod profile;
pub mod trace;
pub mod zipf;

pub use cache::{BodyKey, CachedStream, TraceBody};
pub use gen::{Arrival, SizeDist, TraceGenerator, TraceStream};
pub use profile::{WorkloadError, WorkloadProfile};
pub use trace::{Trace, TracePacket, TraceStats};
pub use zipf::Zipf;
