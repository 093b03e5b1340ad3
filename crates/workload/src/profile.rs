//! Abstract workload profiles (§3.5).
//!
//! A [`WorkloadProfile`] is the "10k concurrent TCP flows with 300-byte
//! average packet size" form of workload description. It is the interface
//! between traces and the analytical predictor: the predictor never walks
//! a concrete trace; it consumes the profile's rates, mixes, and skew.

use crate::gen::{SizeDist, TraceGenerator};
use crate::trace::Trace;

/// A rejected [`WorkloadProfile`] input.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// `rate_pps` is NaN, infinite, or not strictly positive.
    BadRate(f64),
    /// `flows` is zero.
    NoFlows,
    /// `flows` exceeds [`WorkloadProfile::MAX_FLOWS`].
    TooManyFlows(usize),
    /// A share field (`tcp_share` / `syn_share`) is NaN or outside [0, 1].
    BadShare {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `avg_payload` is NaN, negative, or exceeds `max_payload` or
    /// [`WorkloadProfile::MAX_PAYLOAD`].
    BadPayload(f64),
    /// `zipf_alpha` is NaN or negative.
    BadZipf(f64),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::BadRate(v) => {
                write!(f, "rate_pps must be a positive finite number, got {v}")
            }
            WorkloadError::NoFlows => write!(f, "a workload needs at least one flow"),
            WorkloadError::TooManyFlows(n) => write!(
                f,
                "flows must be at most {}, got {n}",
                WorkloadProfile::MAX_FLOWS
            ),
            WorkloadError::BadShare { field, value } => {
                write!(f, "{field} must be within [0, 1], got {value}")
            }
            WorkloadError::BadPayload(v) => write!(
                f,
                "avg_payload must be finite, non-negative, and at most max_payload and {}, got {v}",
                WorkloadProfile::MAX_PAYLOAD
            ),
            WorkloadError::BadZipf(v) => {
                write!(f, "zipf_alpha must be finite and non-negative, got {v}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// An abstract description of the target traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Number of concurrent flows.
    pub flows: usize,
    /// Fraction of packets that are TCP (the rest UDP).
    pub tcp_share: f64,
    /// Fraction of packets carrying the TCP SYN flag.
    pub syn_share: f64,
    /// Mean transport payload length in bytes.
    pub avg_payload: f64,
    /// Largest payload observed / expected, in bytes.
    pub max_payload: usize,
    /// Offered load in packets per second.
    pub rate_pps: f64,
    /// Zipf exponent of flow popularity (0 = uniform).
    pub zipf_alpha: f64,
}

impl WorkloadProfile {
    /// Largest flow count a profile may name. The skewed cache model
    /// fills a weight buffer of 8 bytes per flow (a skewed trace
    /// generator's table is as large), and a failed allocation aborts the
    /// process, so the bound is checked before any model runs: 2^24 flows
    /// is a 128 MiB buffer.
    pub const MAX_FLOWS: usize = 1 << 24;

    /// Largest mean payload, bytes: an IPv4 datagram less 40 header
    /// bytes. Class profiling holds a payload length in a `u16`.
    pub const MAX_PAYLOAD: f64 = 65_495.0;

    /// Build a validated profile. Prefer this over a struct literal for
    /// untrusted inputs (CLI flags, config files): it rejects NaN or
    /// negative rates, zero or too many flows, out-of-range shares and
    /// payloads up front, so garbage never reaches the predictor's
    /// arithmetic or its allocations.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flows: usize,
        tcp_share: f64,
        syn_share: f64,
        avg_payload: f64,
        max_payload: usize,
        rate_pps: f64,
        zipf_alpha: f64,
    ) -> Result<Self, WorkloadError> {
        let profile = WorkloadProfile {
            flows,
            tcp_share,
            syn_share,
            avg_payload,
            max_payload,
            rate_pps,
            zipf_alpha,
        };
        profile.validate()?;
        Ok(profile)
    }

    /// Check every field against the constraints [`Self::new`] enforces.
    /// Useful when fields were set directly on an existing profile.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !self.rate_pps.is_finite() || self.rate_pps <= 0.0 {
            return Err(WorkloadError::BadRate(self.rate_pps));
        }
        if self.flows == 0 {
            return Err(WorkloadError::NoFlows);
        }
        if self.flows > Self::MAX_FLOWS {
            return Err(WorkloadError::TooManyFlows(self.flows));
        }
        for (field, value) in [("tcp_share", self.tcp_share), ("syn_share", self.syn_share)] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(WorkloadError::BadShare { field, value });
            }
        }
        if !self.avg_payload.is_finite()
            || self.avg_payload < 0.0
            || self.avg_payload > self.max_payload as f64
            || self.avg_payload > Self::MAX_PAYLOAD
        {
            return Err(WorkloadError::BadPayload(self.avg_payload));
        }
        if !self.zipf_alpha.is_finite() || self.zipf_alpha < 0.0 {
            return Err(WorkloadError::BadZipf(self.zipf_alpha));
        }
        Ok(())
    }

    /// The paper's validation workload: 60 kpps, moderate flow count,
    /// all-TCP, 300-byte payloads.
    pub fn paper_default() -> Self {
        WorkloadProfile {
            flows: 1_000,
            tcp_share: 1.0,
            syn_share: 0.0,
            avg_payload: 300.0,
            max_payload: 300,
            rate_pps: 60_000.0,
            zipf_alpha: 0.0,
        }
    }

    /// Compact one-line description of the profile, for report context
    /// lines and telemetry headers.
    pub fn summary(&self) -> String {
        format!(
            "rate={}pps payload={}B flows={} tcp={:.2} syn={:.2} zipf={}",
            self.rate_pps, self.avg_payload, self.flows, self.tcp_share, self.syn_share,
            self.zipf_alpha,
        )
    }

    /// Derive a profile from a concrete trace.
    ///
    /// Flow skew is estimated by matching the observed fraction of traffic
    /// carried by the top 10% of flows against the Zipf family (a simple
    /// method-of-moments fit over a small grid of exponents).
    pub fn from_trace(trace: &Trace) -> Self {
        let stats = trace.stats();
        // Histogram of packets per flow.
        let mut counts: std::collections::HashMap<_, usize> = std::collections::HashMap::new();
        for p in trace.iter() {
            *counts.entry(p.spec.flow).or_insert(0) += 1;
        }
        let mut per_flow: Vec<usize> = counts.values().copied().collect();
        per_flow.sort_unstable_by(|a, b| b.cmp(a));
        let zipf_alpha = estimate_zipf(&per_flow, trace.len());

        WorkloadProfile {
            flows: stats.flows,
            tcp_share: stats.tcp_share,
            syn_share: stats.syn_share,
            avg_payload: stats.avg_payload,
            max_payload: stats.max_payload,
            rate_pps: stats.rate_pps,
            zipf_alpha,
        }
    }

    /// Expand this profile into a concrete trace of `packets` packets.
    pub fn to_trace(&self, packets: usize, seed: u64) -> Trace {
        self.to_trace_stream(packets, seed).collect()
    }

    /// Lazily expand this profile into a stream of `packets` packets:
    /// the iterator counterpart of [`Self::to_trace`], realizing the
    /// identical packet sequence without materializing it.
    pub fn to_trace_stream(&self, packets: usize, seed: u64) -> crate::gen::TraceStream {
        TraceGenerator::new(seed)
            .packets(packets)
            .flows(self.flows.max(1))
            .zipf(self.zipf_alpha)
            .rate_pps(self.rate_pps.max(1.0))
            .tcp_share(self.tcp_share.clamp(0.0, 1.0))
            .sizes(SizeDist::Fixed(self.payload_len()))
            .syn_on_first(self.syn_share > 0.0)
            .stream()
    }

    /// The payload every generated packet but a SYN carries:
    /// `avg_payload` rounded to whole bytes.
    pub fn payload_len(&self) -> usize {
        self.avg_payload.round() as usize
    }

    /// Expected wire bytes per packet (payload + IPv4/transport/Ethernet
    /// headers, weighted by the protocol mix).
    pub fn avg_wire_len(&self) -> f64 {
        let transport = self.tcp_share * 20.0 + (1.0 - self.tcp_share) * 8.0;
        self.avg_payload + transport + 20.0 + 14.0
    }

    /// Offered load in bits per second.
    pub fn offered_bps(&self) -> f64 {
        self.rate_pps * self.avg_wire_len() * 8.0
    }
}

/// Fit a Zipf exponent to a descending per-flow packet histogram by
/// matching the head mass (fraction of packets in the top 10% of flows).
fn estimate_zipf(per_flow_desc: &[usize], total: usize) -> f64 {
    if per_flow_desc.len() < 10 || total == 0 {
        return 0.0;
    }
    let head = per_flow_desc.len().div_ceil(10);
    let head_mass: f64 =
        per_flow_desc[..head].iter().sum::<usize>() as f64 / total as f64;
    // Grid search over candidate exponents.
    let n = per_flow_desc.len();
    let mut best = (f64::INFINITY, 0.0);
    for step in 0..=30 {
        let alpha = step as f64 * 0.1;
        let z = crate::zipf::Zipf::new(n, alpha);
        let model_mass = z.mass(head);
        let err = (model_mass - head_mass).abs();
        if err < best.0 {
            best = (err, alpha);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;

    #[test]
    fn paper_default_is_60kpps_tcp() {
        let p = WorkloadProfile::paper_default();
        assert_eq!(p.rate_pps, 60_000.0);
        assert_eq!(p.tcp_share, 1.0);
        assert_eq!(p.avg_payload, 300.0);
    }

    #[test]
    fn paper_default_validates() {
        assert_eq!(WorkloadProfile::paper_default().validate(), Ok(()));
        assert!(WorkloadProfile::new(1_000, 1.0, 0.0, 300.0, 300, 60_000.0, 0.0).is_ok());
    }

    #[test]
    fn summary_names_every_axis() {
        let s = WorkloadProfile::paper_default().summary();
        assert_eq!(s, "rate=60000pps payload=300B flows=1000 tcp=1.00 syn=0.00 zipf=0");
    }

    #[test]
    fn rejects_nan_rate() {
        let mut p = WorkloadProfile::paper_default();
        p.rate_pps = f64::NAN;
        assert!(matches!(p.validate(), Err(WorkloadError::BadRate(_))));
    }

    #[test]
    fn rejects_negative_or_zero_rate() {
        let mut p = WorkloadProfile::paper_default();
        p.rate_pps = -60_000.0;
        assert!(matches!(p.validate(), Err(WorkloadError::BadRate(_))));
        p.rate_pps = 0.0;
        assert!(matches!(p.validate(), Err(WorkloadError::BadRate(_))));
        p.rate_pps = f64::INFINITY;
        assert!(matches!(p.validate(), Err(WorkloadError::BadRate(_))));
    }

    #[test]
    fn rejects_zero_flows() {
        let mut p = WorkloadProfile::paper_default();
        p.flows = 0;
        assert_eq!(p.validate(), Err(WorkloadError::NoFlows));
    }

    #[test]
    fn flows_bounded_at_max_flows() {
        let max = WorkloadProfile::MAX_FLOWS;
        let mut p = WorkloadProfile::paper_default();
        p.flows = max;
        assert_eq!(p.validate(), Ok(()));
        p.flows = max + 1;
        assert_eq!(p.validate(), Err(WorkloadError::TooManyFlows(max + 1)));
        p.flows = 1_000_000_000_000;
        assert_eq!(p.validate(), Err(WorkloadError::TooManyFlows(1_000_000_000_000)));
    }

    #[test]
    fn payload_bounded_at_max_payload() {
        let max = WorkloadProfile::MAX_PAYLOAD;
        let mut p = WorkloadProfile::paper_default();
        p.avg_payload = max;
        p.max_payload = 70_000;
        assert_eq!(p.validate(), Ok(()));
        p.avg_payload = max + 1.0;
        assert_eq!(p.validate(), Err(WorkloadError::BadPayload(max + 1.0)));
    }

    #[test]
    fn rejects_out_of_range_shares() {
        let mut p = WorkloadProfile::paper_default();
        p.tcp_share = 1.5;
        assert!(matches!(
            p.validate(),
            Err(WorkloadError::BadShare { field: "tcp_share", .. })
        ));
        p.tcp_share = 1.0;
        p.syn_share = -0.1;
        assert!(matches!(
            p.validate(),
            Err(WorkloadError::BadShare { field: "syn_share", .. })
        ));
        p.syn_share = f64::NAN;
        assert!(matches!(p.validate(), Err(WorkloadError::BadShare { .. })));
    }

    #[test]
    fn rejects_bad_payload() {
        let mut p = WorkloadProfile::paper_default();
        p.avg_payload = -1.0;
        assert!(matches!(p.validate(), Err(WorkloadError::BadPayload(_))));
        p.avg_payload = 400.0; // exceeds max_payload of 300
        assert!(matches!(p.validate(), Err(WorkloadError::BadPayload(_))));
    }

    #[test]
    fn rejects_bad_zipf() {
        let mut p = WorkloadProfile::paper_default();
        p.zipf_alpha = -0.5;
        assert!(matches!(p.validate(), Err(WorkloadError::BadZipf(_))));
    }

    #[test]
    fn from_trace_recovers_basic_stats() {
        let trace = TraceGenerator::new(3)
            .packets(5000)
            .flows(200)
            .tcp_share(0.75)
            .rate_pps(50_000.0)
            .syn_on_first(false)
            .generate();
        let p = WorkloadProfile::from_trace(&trace);
        assert!((p.tcp_share - 0.75).abs() < 0.06, "tcp {}", p.tcp_share);
        assert!((p.rate_pps - 50_000.0).abs() / 50_000.0 < 0.02);
        assert!(p.flows <= 200 && p.flows > 150);
    }

    #[test]
    fn zipf_estimate_distinguishes_skew() {
        let uniform = TraceGenerator::new(5)
            .packets(20_000)
            .flows(500)
            .zipf(0.0)
            .syn_on_first(false)
            .generate();
        let skewed = TraceGenerator::new(5)
            .packets(20_000)
            .flows(500)
            .zipf(1.2)
            .syn_on_first(false)
            .generate();
        let pu = WorkloadProfile::from_trace(&uniform);
        let ps = WorkloadProfile::from_trace(&skewed);
        assert!(pu.zipf_alpha < 0.4, "uniform estimated as {}", pu.zipf_alpha);
        assert!(ps.zipf_alpha > 0.8, "skewed estimated as {}", ps.zipf_alpha);
    }

    #[test]
    fn roundtrip_profile_trace_profile() {
        let original = WorkloadProfile {
            flows: 300,
            tcp_share: 0.8,
            syn_share: 0.0,
            avg_payload: 256.0,
            max_payload: 256,
            rate_pps: 40_000.0,
            zipf_alpha: 0.0,
        };
        let trace = original.to_trace(10_000, 7);
        let recovered = WorkloadProfile::from_trace(&trace);
        assert!((recovered.tcp_share - 0.8).abs() < 0.05);
        assert!((recovered.avg_payload - 256.0).abs() < 16.0);
        assert!((recovered.rate_pps - 40_000.0).abs() / 40_000.0 < 0.02);
    }

    #[test]
    fn wire_length_accounts_for_headers() {
        let p = WorkloadProfile { tcp_share: 1.0, ..WorkloadProfile::paper_default() };
        assert!((p.avg_wire_len() - (300.0 + 20.0 + 20.0 + 14.0)).abs() < 1e-9);
        let p = WorkloadProfile { tcp_share: 0.0, ..p };
        assert!((p.avg_wire_len() - (300.0 + 8.0 + 20.0 + 14.0)).abs() < 1e-9);
    }

    #[test]
    fn offered_bps_scales_with_rate() {
        let p = WorkloadProfile::paper_default();
        assert!((p.offered_bps() - p.rate_pps * p.avg_wire_len() * 8.0).abs() < 1e-3);
    }
}
