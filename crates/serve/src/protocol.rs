//! Wire protocol for the `clara serve` daemon.
//!
//! Framing is the simplest thing that is robust to partial reads: a
//! 4-byte big-endian length followed by that many bytes of UTF-8 JSON.
//! The length is validated against a cap *before* any allocation, so a
//! hostile header cannot balloon memory, and a connection that stalls
//! or closes mid-frame surfaces as a typed error instead of a hang or
//! a panic.
//!
//! Every reply is a JSON object with `ok` (bool) and `code` (number).
//! Codes `0..=9` mirror [`exit codes`](crate::reply_codes) of the CLI
//! pipeline one-for-one, so a client can treat a daemon reply and a CLI
//! exit identically. Codes `20..` are serve-layer degradations —
//! overload, deadline, worker panic, protocol violations, drain — which
//! have no one-shot equivalent.

use std::io::{self, Read, Write};

use crate::json::{self, ObjBuilder, Value};
use clara_workload::WorkloadProfile;

/// Default cap on a single frame (1 MiB). Requests are tiny; replies
/// carry at most a few thousand sweep cells.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Reply codes. `0..=9` mirror `clara_core::exit_codes` exactly (a
/// cross-crate test pins this); `20..` are serve-layer degradations.
pub mod reply_codes {
    /// Success.
    pub const OK: u8 = 0;
    /// Malformed request: unknown op, bad field, unknown NF/NIC.
    pub const USAGE: u8 = 2;
    /// I/O failure while handling the request.
    pub const IO: u8 = 3;
    /// Frontend (parse/type/borrow) failure in a submitted source.
    pub const FRONTEND: u8 = 4;
    /// Lowering failure in a submitted source.
    pub const LOWER: u8 = 5;
    /// Prediction failure (mapping infeasible, etc.).
    pub const PREDICT: u8 = 6;
    /// Workload validation failure.
    pub const WORKLOAD: u8 = 7;
    /// A sweep/validate job finished with some failed cells.
    pub const SWEEP_PARTIAL: u8 = 8;
    /// A sweep/validate job finished with every cell failed.
    pub const SWEEP_FAILED: u8 = 9;

    /// Admission control shed the request (queue full). The reply
    /// carries `retry_after_ms`.
    pub const OVERLOADED: u8 = 20;
    /// The per-request deadline expired before or during the job.
    pub const DEADLINE: u8 = 21;
    /// The worker thread panicked inside this request; the worker was
    /// respawned and the request's cache entries quarantined.
    pub const PANICKED: u8 = 22;
    /// Protocol violation: unparseable JSON, missing fields, garbage
    /// framing.
    pub const PROTOCOL: u8 = 23;
    /// The declared frame length exceeds the server's cap.
    pub const FRAME_TOO_LARGE: u8 = 24;
    /// The daemon is draining and admits no new work.
    pub const SHUTTING_DOWN: u8 = 25;

    /// Every serve-layer code with its wire name, for docs and tests.
    pub const TABLE: &[(u8, &str)] = &[
        (OK, "ok"),
        (USAGE, "usage"),
        (IO, "io"),
        (FRONTEND, "frontend"),
        (LOWER, "lower"),
        (PREDICT, "predict"),
        (WORKLOAD, "workload"),
        (SWEEP_PARTIAL, "sweep-partial"),
        (SWEEP_FAILED, "sweep-failed"),
        (OVERLOADED, "overloaded"),
        (DEADLINE, "deadline-exceeded"),
        (PANICKED, "worker-panicked"),
        (PROTOCOL, "protocol-error"),
        (FRAME_TOO_LARGE, "frame-too-large"),
        (SHUTTING_DOWN, "shutting-down"),
    ];

    /// The wire name for a code (`"unknown"` if unlisted).
    pub fn name(code: u8) -> &'static str {
        TABLE
            .iter()
            .find(|(c, _)| *c == code)
            .map(|(_, n)| *n)
            .unwrap_or("unknown")
    }
}

/// Why a frame read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed (or the stream ended) mid-frame.
    Truncated,
    /// The declared length exceeds the cap; nothing was allocated.
    TooLarge { declared: usize, max: usize },
    /// The read timed out (idle connection or stalled sender).
    TimedOut,
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds cap of {max}")
            }
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn classify(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        _ => FrameError::Io(e),
    }
}

/// Read one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// (the peer closed between frames); ending inside a frame is
/// [`FrameError::Truncated`]. The length is checked against `max`
/// before the body is allocated.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(classify(e)),
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut body = vec![0u8; declared];
    let mut filled = 0;
    while filled < declared {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(classify(e)),
        }
    }
    Ok(Some(body))
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// A parsed request, ready for dispatch.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe, answered inline by the connection thread.
    Ping,
    /// Server counter snapshot, answered inline.
    Stats,
    /// The last `limit` flight-recorder events, answered inline.
    Events { limit: usize },
    /// Prometheus text exposition of the metrics registry, answered
    /// inline (the same text the `--metrics-addr` sidecar serves).
    Metrics,
    /// Begin a graceful drain, answered inline.
    Shutdown,
    /// One prediction of `source` on `nic` under `workload`.
    Predict {
        source: Source,
        nic: String,
        workload: WorkloadProfile,
        deadline_ms: Option<u64>,
        /// Test hook mirroring `PredictOptions::inject_panic`: poison
        /// this one request to exercise the panic-isolation path.
        inject_panic: bool,
    },
    /// Predictions across a list of rates (same class, shared cache).
    Sweep {
        source: Source,
        nic: String,
        workload: WorkloadProfile,
        rates: Vec<f64>,
        deadline_ms: Option<u64>,
    },
    /// Predicted-vs-simulated validation for a corpus NF.
    Validate {
        nf: String,
        nic: String,
        workload: WorkloadProfile,
        rates: Vec<f64>,
        packets: usize,
        seed: u64,
        deadline_ms: Option<u64>,
    },
}

/// What to analyze: a corpus NF by name, or inline NFC source.
#[derive(Debug, Clone)]
pub enum Source {
    Corpus(String),
    Inline(String),
}

impl Source {
    /// Stable cache key text for the session map.
    pub fn cache_text(&self) -> &str {
        match self {
            Source::Corpus(name) => name,
            Source::Inline(text) => text,
        }
    }

    /// Short label for replies and logs.
    pub fn label(&self) -> String {
        match self {
            Source::Corpus(name) => name.clone(),
            Source::Inline(_) => "<inline>".to_string(),
        }
    }
}

impl Request {
    /// The request's own deadline, if it set one.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::Predict { deadline_ms, .. }
            | Request::Sweep { deadline_ms, .. }
            | Request::Validate { deadline_ms, .. } => *deadline_ms,
            _ => None,
        }
    }

    /// Whether this request is answered inline by the connection
    /// thread (no queue admission).
    pub fn is_inline(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::Stats
                | Request::Events { .. }
                | Request::Metrics
                | Request::Shutdown
        )
    }
}

/// A protocol-level parse failure: the reply code plus a message.
#[derive(Debug)]
pub struct ProtoError {
    pub code: u8,
    pub message: String,
}

impl ProtoError {
    fn new(code: u8, message: impl Into<String>) -> Self {
        ProtoError { code, message: message.into() }
    }
}

/// Parse a request frame. Unknown ops, missing fields, and invalid
/// workloads all map to distinct reply codes.
pub fn parse_request(bytes: &[u8]) -> Result<Request, ProtoError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ProtoError::new(reply_codes::PROTOCOL, "frame is not utf-8"))?;
    let value = json::parse(text)
        .map_err(|e| ProtoError::new(reply_codes::PROTOCOL, format!("bad json: {e}")))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError::new(reply_codes::PROTOCOL, "missing `op`"))?;

    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "events" => {
            let limit = value
                .get("limit")
                .and_then(Value::as_u64)
                .unwrap_or(64)
                .min(4_096) as usize;
            if limit == 0 {
                return Err(ProtoError::new(reply_codes::USAGE, "`limit` must be > 0"));
            }
            Ok(Request::Events { limit })
        }
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "predict" => {
            let source = parse_source(&value)?;
            Ok(Request::Predict {
                source,
                nic: nic_of(&value),
                workload: workload_of(&value)?,
                deadline_ms: value.get("deadline_ms").and_then(Value::as_u64),
                inject_panic: value
                    .get("inject_panic")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            })
        }
        "sweep" => {
            let source = parse_source(&value)?;
            let rates = rates_of(&value)?;
            Ok(Request::Sweep {
                source,
                nic: nic_of(&value),
                workload: workload_of(&value)?,
                rates,
                deadline_ms: value.get("deadline_ms").and_then(Value::as_u64),
            })
        }
        "validate" => {
            let nf = value
                .get("nf")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::new(reply_codes::USAGE, "validate needs `nf`"))?
                .to_string();
            let rates = rates_of(&value)?;
            let packets = value
                .get("packets")
                .and_then(Value::as_u64)
                .unwrap_or(2_000) as usize;
            if !(1..=clara_predict::MAX_PACKETS).contains(&packets) {
                return Err(ProtoError::new(
                    reply_codes::USAGE,
                    format!("`packets` must be in 1..={}", clara_predict::MAX_PACKETS),
                ));
            }
            Ok(Request::Validate {
                nf,
                nic: nic_of(&value),
                workload: workload_of(&value)?,
                rates,
                packets,
                seed: value.get("seed").and_then(Value::as_u64).unwrap_or(42),
                deadline_ms: value.get("deadline_ms").and_then(Value::as_u64),
            })
        }
        other => Err(ProtoError::new(
            reply_codes::USAGE,
            format!("unknown op `{other}`"),
        )),
    }
}

fn parse_source(value: &Value) -> Result<Source, ProtoError> {
    if let Some(nf) = value.get("nf").and_then(Value::as_str) {
        return Ok(Source::Corpus(nf.to_string()));
    }
    if let Some(src) = value.get("source").and_then(Value::as_str) {
        return Ok(Source::Inline(src.to_string()));
    }
    Err(ProtoError::new(
        reply_codes::USAGE,
        "need `nf` (corpus name) or `source` (inline NFC)",
    ))
}

fn nic_of(value: &Value) -> String {
    value
        .get("nic")
        .and_then(Value::as_str)
        .unwrap_or("netronome")
        .to_string()
}

fn rates_of(value: &Value) -> Result<Vec<f64>, ProtoError> {
    let rates: Vec<f64> = match value.get("rates") {
        Some(v) => v
            .as_arr()
            .ok_or_else(|| ProtoError::new(reply_codes::USAGE, "`rates` must be an array"))?
            .iter()
            .map(|r| {
                r.as_f64()
                    .filter(|x| *x > 0.0)
                    .ok_or_else(|| ProtoError::new(reply_codes::USAGE, "bad rate in `rates`"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![WorkloadProfile::paper_default().rate_pps],
    };
    if rates.is_empty() {
        return Err(ProtoError::new(reply_codes::USAGE, "`rates` is empty"));
    }
    if rates.len() > 10_000 {
        return Err(ProtoError::new(reply_codes::USAGE, "more than 10000 rates"));
    }
    Ok(rates)
}

/// Build a workload from the request's optional overrides of the paper
/// default, then validate it (reply code `workload` on failure, same
/// category the CLI exits with).
fn workload_of(value: &Value) -> Result<WorkloadProfile, ProtoError> {
    let mut wl = WorkloadProfile::paper_default();
    if let Some(v) = value.get("rate_pps").and_then(Value::as_f64) {
        wl.rate_pps = v;
    }
    if let Some(v) = value.get("flows").and_then(Value::as_u64) {
        wl.flows = v as usize;
    }
    if let Some(v) = value.get("payload").and_then(Value::as_f64) {
        wl.avg_payload = v;
        wl.max_payload = v.max(0.0) as usize;
    }
    if let Some(v) = value.get("max_payload").and_then(Value::as_u64) {
        wl.max_payload = v as usize;
    }
    if let Some(v) = value.get("tcp").and_then(Value::as_f64) {
        wl.tcp_share = v;
    }
    if let Some(v) = value.get("syn").and_then(Value::as_f64) {
        wl.syn_share = v;
    }
    if let Some(v) = value.get("zipf").and_then(Value::as_f64) {
        wl.zipf_alpha = v;
    }
    wl.validate()
        .map_err(|e| ProtoError::new(reply_codes::WORKLOAD, format!("bad workload: {e}")))?;
    Ok(wl)
}

/// A serialized reply plus its code (kept for counters and tests).
#[derive(Debug, Clone)]
pub struct Reply {
    pub code: u8,
    pub json: String,
}

impl Reply {
    /// A success reply from a prepared object body.
    pub fn ok(body: ObjBuilder) -> Reply {
        let value = body
            .bool("ok", true)
            .uint("code", u64::from(reply_codes::OK))
            .build();
        Reply { code: reply_codes::OK, json: value.to_json() }
    }

    /// A reply that carries a non-OK code but a full body (partial
    /// sweeps).
    pub fn degraded(code: u8, body: ObjBuilder) -> Reply {
        let value = body
            .bool("ok", code == reply_codes::OK)
            .uint("code", u64::from(code))
            .str("error", reply_codes::name(code))
            .build();
        Reply { code, json: value.to_json() }
    }

    /// An error reply: `{ok:false, code, error, detail}`.
    pub fn err(code: u8, detail: &str) -> Reply {
        Reply::err_with(code, detail, ObjBuilder::new())
    }

    /// An error reply with extra fields (e.g. `retry_after_ms`).
    pub fn err_with(code: u8, detail: &str, extra: ObjBuilder) -> Reply {
        let value = extra
            .bool("ok", false)
            .uint("code", u64::from(code))
            .str("error", reply_codes::name(code))
            .str("detail", detail)
            .build();
        Reply { code, json: value.to_json() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn frame_round_trip() {
        let body = br#"{"op":"ping"}"#;
        let wire = framed(body);
        let got = read_frame(&mut Cursor::new(&wire), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(got, body);
    }

    #[test]
    fn clean_eof_is_none_but_partial_is_truncated() {
        let wire = framed(b"hello");
        assert!(read_frame(&mut Cursor::new(&[] as &[u8]), 64).unwrap().is_none());
        for cut in 1..wire.len() {
            let err = read_frame(&mut Cursor::new(&wire[..cut]), 64);
            assert!(
                matches!(err, Err(FrameError::Truncated)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversize_header_rejected_before_allocation() {
        let mut wire = u32::MAX.to_be_bytes().to_vec();
        wire.extend_from_slice(b"xx");
        match read_frame(&mut Cursor::new(&wire), 1024) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn parse_request_maps_errors_to_codes() {
        let cases: &[(&[u8], u8)] = &[
            (b"\xff\xfe", reply_codes::PROTOCOL),
            (b"not json", reply_codes::PROTOCOL),
            (br#"{"no_op":1}"#, reply_codes::PROTOCOL),
            (br#"{"op":"launch-missiles"}"#, reply_codes::USAGE),
            (br#"{"op":"predict"}"#, reply_codes::USAGE),
            (br#"{"op":"predict","nf":"nat","tcp":1.5}"#, reply_codes::WORKLOAD),
            (br#"{"op":"predict","nf":"nat","flows":1000000000000,"zipf":0.5}"#, reply_codes::WORKLOAD),
            (br#"{"op":"predict","nf":"nat","payload":65496}"#, reply_codes::WORKLOAD),
            (br#"{"op":"sweep","nf":"nat","rates":[]}"#, reply_codes::USAGE),
            (br#"{"op":"validate","rates":[1.0]}"#, reply_codes::USAGE),
            (br#"{"op":"validate","nf":"nat","packets":0}"#, reply_codes::USAGE),
            (br#"{"op":"events","limit":0}"#, reply_codes::USAGE),
        ];
        for (bytes, want) in cases {
            match parse_request(bytes) {
                Err(e) => assert_eq!(e.code, *want, "{:?}", String::from_utf8_lossy(bytes)),
                Ok(r) => panic!("accepted {:?} as {r:?}", String::from_utf8_lossy(bytes)),
            }
        }
    }

    #[test]
    fn events_and_metrics_parse_as_inline_ops() {
        let req = parse_request(br#"{"op":"events"}"#).unwrap();
        assert!(matches!(req, Request::Events { limit: 64 }));
        assert!(req.is_inline());
        let req = parse_request(br#"{"op":"events","limit":999999}"#).unwrap();
        assert!(matches!(req, Request::Events { limit: 4_096 }));
        let req = parse_request(br#"{"op":"metrics"}"#).unwrap();
        assert!(matches!(req, Request::Metrics));
        assert!(req.is_inline());
    }

    #[test]
    fn predict_request_parses_with_overrides() {
        let req = parse_request(
            br#"{"op":"predict","nf":"nat","rate_pps":120000,"flows":500,"deadline_ms":250}"#,
        )
        .unwrap();
        match req {
            Request::Predict { source, workload, deadline_ms, .. } => {
                assert!(matches!(source, Source::Corpus(ref n) if n == "nat"));
                assert_eq!(workload.rate_pps, 120_000.0);
                assert_eq!(workload.flows, 500);
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reply_json_is_parseable_and_coded() {
        let r = Reply::err_with(
            reply_codes::OVERLOADED,
            "queue full",
            ObjBuilder::new().uint("retry_after_ms", 40),
        );
        let v = json::parse(&r.json).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_u64), Some(20));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(40));
    }

    #[test]
    fn reply_code_names_are_unique() {
        let mut names: Vec<&str> = reply_codes::TABLE.iter().map(|(_, n)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reply_codes::TABLE.len());
    }
}
