//! Observability primitives for the Clara pipeline.
//!
//! Clara's pitch is performance *clarity*, so its own pipeline must not
//! be a black box: when a prediction misses the simulator by 10% or a
//! sweep cell times out, the developer needs to see where cycles, solver
//! nodes, and wall-clock went. This crate provides the vocabulary every
//! other layer speaks:
//!
//! * [`Sink`] — a pluggable span/counter collector. The
//!   [`Sink::Disabled`] variant is a no-op whose cost is one enum-tag
//!   branch per call site; the hot paths (solver pivots, per-packet
//!   simulation) never pay for observability they did not ask for. The
//!   benchmark suite asserts the disabled sink leaves results and
//!   runtimes unchanged.
//! * [`SolveStats`] — what the branch-and-bound ILP solver did: nodes
//!   explored, LP solves, simplex pivots, warm-start hits/misses,
//!   relaxation-memo hits, and the incumbent-objective trajectory.
//!   Deterministic by construction (keyed on node counts, never on
//!   wall-clock), so identical solves report identical stats.
//! * [`SimStats`] — what the NIC simulator observed: per-island thread
//!   occupancy, per-memory-level access counts, EMEM cache hit rate,
//!   accelerator queue high-water marks and HOL-blocking stalls,
//!   switch-fabric transfers, and drops broken down by cause. Packet
//!   conservation (`injected == completed + drops`) is checkable via
//!   [`SimStats::conserved`].
//! * [`TelemetryReport`] — the aggregate of all of the above, written as
//!   a pretty JSON file through [`json`].
//! * [`StageTimeline`] / [`ChromeTrace`] — an opt-in per-packet stage
//!   timeline that exports Chrome trace-event JSON, viewable in Perfetto
//!   or `chrome://tracing`.
//! * [`Histogram`] — a lock-free log-linear latency histogram (atomic
//!   buckets, mergeable, nearest-rank quantiles, ≤ 6.25 % relative
//!   error) for tail-latency reporting from the serving layer.
//! * [`RateWindows`] — trailing-window rate gauges (req/s, shed/s over
//!   1 s / 10 s / 60 s) over an epoch ring of atomic counters.
//! * [`FlightRecorder`] — a fixed-capacity lock-free ring of structured
//!   events (admit/shed/dequeue/complete/panic/...) with monotonic
//!   sequence numbers, dumped as JSONL around faults and drains.
//! * [`json`] — the workspace's one JSON codec (reader, compact and
//!   pretty writers, exact `u64` integers). Every JSON Clara reads or
//!   writes goes through it; it lives here because this crate has no
//!   dependencies, so every other crate can reach it.
//!
//! Telemetry is strictly *read-only* with respect to results: nothing in
//! this crate feeds back into solver or simulator decisions, so an
//! instrumented run is bit-identical to an uninstrumented one (asserted
//! by tests and the benchmark harness across the workspace).

pub mod flight;
pub mod hist;
pub mod json;
pub mod rates;
pub mod report;
pub mod sink;
pub mod stats;
pub mod trace;

pub use flight::{EventKind, FlightEvent, FlightRecorder};
pub use hist::{HistSnapshot, HistSummary, Histogram};
pub use rates::RateWindows;
pub use report::TelemetryReport;
pub use sink::{MemorySink, Sink, SpanRecord};
pub use stats::{AccelStats, IslandStats, MemLevelStats, SimStats, SolveStats};
pub use trace::{ChromeTrace, StageSpan, StageTimeline, TraceEvent};
