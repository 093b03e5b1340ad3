//! `clara serve`: a fault-tolerant prediction daemon.
//!
//! Clara's one-shot CLI re-runs the whole pipeline — frontend,
//! lowering, class simulation, cache analysis — for every invocation,
//! even though everything except the final solve is reusable across
//! requests that differ only in offered rate. This crate turns the
//! pipeline into a long-lived daemon: clients submit `predict`,
//! `sweep`, and `validate` jobs over a length-prefixed JSON protocol,
//! and the server reuses per-(NF, target, workload-class) session
//! state ([`clara_predict::NfSession`]) across them.
//!
//! The interesting part is the failure envelope, not the happy path:
//!
//! * bounded queue + admission control (shed with `overloaded` and a
//!   retry hint; never block or balloon),
//! * per-request deadlines threaded cooperatively into the ILP solver
//!   and the simulator,
//! * panic-isolated workers that are respawned, with the poisoned
//!   request reported and its cache entries quarantined,
//! * idle/read timeouts and a max-frame cap so one stalled or hostile
//!   client cannot wedge the daemon,
//! * graceful drain on shutdown or SIGTERM: stop accepting, finish or
//!   deadline-out in-flight work, flush telemetry,
//! * a built-in chaos mode (`--chaos <seed>`) that injects worker
//!   panics, slow-downs, and truncated reply frames so all of the
//!   above actually runs in CI,
//! * a live-observability layer ([`obs::ServeObs`]): wait-free latency
//!   histograms and trailing-window rates in every `stats` reply, a
//!   flight recorder queryable via the `events` op and dumped as JSONL
//!   around worker panics and drains, and a Prometheus exposition via
//!   the `metrics` op or an optional `--metrics-addr` HTTP sidecar.
//!
//! Every degradation is a distinct structured reply code
//! ([`protocol::reply_codes`]) mirroring the CLI's exit codes.
//!
//! The crate takes no third-party dependency, like the rest of the
//! workspace: framing, the thread pool, and signal handling are
//! hand-rolled, and the wire's JSON is the workspace codec
//! (`clara_telemetry::json`), re-exported here as [`json`].

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod obs;
pub mod protocol;
pub mod server;
pub mod stats;

pub use clara_telemetry::json;

pub use chaos::{Chaos, ChaosConfig, JobChaos};
pub use client::{Client, ClientError};
pub use json::Value;
pub use obs::ServeObs;
pub use protocol::{
    parse_request, read_frame, reply_codes, write_frame, FrameError, Reply, Request, Source,
    DEFAULT_MAX_FRAME,
};
pub use server::{ServeConfig, ServeError, Server};
pub use stats::{ServeStats, StatsSnapshot};
