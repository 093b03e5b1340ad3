//! Cross-rate and cross-payload trace-body sharing for sweep grids.
//!
//! Sweep grids vary offered rate and payload size as two of their axes,
//! and [`WorkloadProfile::to_trace_stream`] always spaces packets with
//! [`Arrival::Constant`] gaps and draws sizes from
//! [`SizeDist::Fixed`]. Neither consumes an RNG draw, so the random draw
//! sequence — and with it every flow choice, protocol, and SYN decision
//! — is a pure function of the profile's other fields plus
//! `(packets, seed)`. Two cells that differ only in `rate_pps` therefore
//! generate byte-identical packet *bodies*; only the timestamps differ,
//! and those are a cheap deterministic accumulation (`ts += 1e9/rate`
//! with the same `as u64` truncation and monotonicity clamp the
//! generator applies). Two cells that differ only in payload generate
//! bodies that differ only in `payload_len`: every packet but a SYN
//! carries the profile's payload, and a SYN carries none at any payload.
//!
//! [`TraceBody`] exploits both: it materializes the body (the
//! [`PacketSpec`] column, 24 bytes a packet) once, replays it per rate
//! with freshly computed timestamps, and [`TraceBody::relabel`]s it to
//! another payload by rewriting lengths alone. Profiles with equal
//! rate-independent [`BodyKey`]s share one body, and profiles with equal
//! [`BodyKey::family`] keys share one body up to relabelling; a caller
//! keeps bodies in its own map (a validation sweep holds one per family
//! for the sweep's length). The replayed stream is packet-for-packet
//! identical to `to_trace_stream`, and a relabelled body to the one
//! [`TraceBody::generate`] gives at that payload — the parity tests below
//! and the simulator's bit-identity checks pin both — so swapping a body
//! in can never change a result, only the time spent generating it. A
//! materialized body is also what lets the simulator share a body's
//! per-packet service work across its rates and payloads
//! (`clara_nicsim::simulate_rates`).
//!
//! [`Arrival::Constant`]: crate::gen::Arrival::Constant
//! [`SizeDist::Fixed`]: crate::gen::SizeDist::Fixed
//! [`WorkloadProfile::to_trace_stream`]: crate::profile::WorkloadProfile::to_trace_stream

use crate::profile::WorkloadProfile;
use crate::trace::TracePacket;
use clara_packet::{PacketSpec, TcpFlags};
use std::sync::Arc;

/// The rate-independent identity of a trace body: every input of
/// [`WorkloadProfile::to_trace_stream`] except `rate_pps`. Two profiles
/// with equal keys generate the same [`TraceBody`].
#[derive(Debug, PartialEq, Eq, Hash, Clone)]
pub struct BodyKey {
    packets: usize,
    seed: u64,
    flows: usize,
    tcp_share: u64,
    zipf_alpha: u64,
    /// `None` in a [`BodyKey::family`] key.
    avg_payload: Option<u64>,
    syn_on_first: bool,
}

impl BodyKey {
    /// The key of `profile.to_trace_stream(packets, seed)`'s body.
    pub fn of(profile: &WorkloadProfile, packets: usize, seed: u64) -> Self {
        BodyKey {
            packets,
            seed,
            flows: profile.flows.max(1),
            tcp_share: profile.tcp_share.clamp(0.0, 1.0).to_bits(),
            zipf_alpha: profile.zipf_alpha.to_bits(),
            avg_payload: Some(profile.avg_payload.round().to_bits()),
            syn_on_first: profile.syn_share > 0.0,
        }
    }

    /// The key of this body's family: every body that differs from it
    /// only in payload, each the [`TraceBody::relabel`] of any other.
    pub fn family(&self) -> Self {
        BodyKey { avg_payload: None, ..self.clone() }
    }
}

/// A generated trace body: the packets of
/// `profile.to_trace_stream(packets, seed)` without their timestamps,
/// shared behind an `Arc` (a clone copies no packet).
#[derive(Debug, Clone)]
pub struct TraceBody {
    specs: Arc<Vec<PacketSpec>>,
    /// The payload every packet but a SYN carries.
    payload: usize,
}

impl TraceBody {
    /// Generate the body of `profile.to_trace_stream(packets, seed)`;
    /// `profile.rate_pps` is not read.
    pub fn generate(profile: &WorkloadProfile, packets: usize, seed: u64) -> Self {
        TraceBody {
            specs: Arc::new(profile.to_trace_stream(packets, seed).map(|p| p.spec).collect()),
            payload: profile.payload_len(),
        }
    }

    /// The payload this body's packets carry
    /// ([`WorkloadProfile::payload_len`]); a SYN carries none.
    pub fn payload(&self) -> usize {
        self.payload
    }

    /// Whether a packet of a generated body carries the body's payload:
    /// every packet does but a SYN, which is empty at any payload.
    /// Relabelling rewrites exactly these packets' lengths.
    pub fn carries_payload(spec: &PacketSpec) -> bool {
        spec.tcp_flags != TcpFlags(TcpFlags::SYN)
    }

    /// This body at another payload: what [`TraceBody::generate`] gives
    /// for the same profile with a `payload_len` of `payload`, made
    /// by rewriting each carrying packet's length instead of drawing the
    /// flows again. A clone (no copy) when `payload` is this body's.
    pub fn relabel(&self, payload: usize) -> Self {
        if payload == self.payload {
            return self.clone();
        }
        let specs = self
            .specs
            .iter()
            .map(|spec| PacketSpec {
                payload_len: if Self::carries_payload(spec) { payload } else { 0 },
                ..spec.clone()
            })
            .collect();
        TraceBody { specs: Arc::new(specs), payload }
    }

    /// The packets, in arrival order.
    pub fn specs(&self) -> &[PacketSpec] {
        &self.specs
    }

    /// The packet stream `to_trace_stream` yields for this body's
    /// profile at `rate_pps`.
    pub fn stream(&self, rate_pps: f64) -> CachedStream {
        CachedStream {
            body: Arc::clone(&self.specs),
            next: 0,
            // Same gap the generator uses: `1e9 / rate_pps.max(1.0)`.
            mean_gap_ns: 1e9 / rate_pps.max(1.0),
            ts: 0.0,
            last_ts_ns: 0,
        }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the body has no packets.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// A replayed trace: a shared body column plus per-rate timestamps,
/// yielding exactly the sequence `to_trace_stream` would.
pub struct CachedStream {
    body: Arc<Vec<PacketSpec>>,
    next: usize,
    mean_gap_ns: f64,
    ts: f64,
    last_ts_ns: u64,
}

impl Iterator for CachedStream {
    type Item = TracePacket;

    fn next(&mut self) -> Option<TracePacket> {
        let spec = self.body.get(self.next)?.clone();
        self.next += 1;
        // The generator's clamp-then-advance order, bit for bit.
        let ts_ns = (self.ts as u64).max(self.last_ts_ns);
        self.last_ts_ns = ts_ns;
        self.ts += self.mean_gap_ns;
        Some(TracePacket { ts_ns, spec })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.body.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CachedStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(rate: f64, payload: f64, flows: usize) -> WorkloadProfile {
        WorkloadProfile {
            rate_pps: rate,
            avg_payload: payload,
            max_payload: payload as usize,
            flows,
            ..WorkloadProfile::paper_default()
        }
    }

    #[test]
    fn cached_stream_matches_generator_across_rates() {
        for (payload, flows) in [(100.0, 100), (1400.0, 10_000)] {
            // One body per rate-independent key, streamed at every rate.
            let first = profile(20_000.0, payload, flows);
            let body = TraceBody::generate(&first, 1500, 42);
            for rate in [20_000.0, 60_000.0, 200_000.0, 600_000.0] {
                let wl = profile(rate, payload, flows);
                assert_eq!(BodyKey::of(&wl, 1500, 42), BodyKey::of(&first, 1500, 42));
                let direct: Vec<TracePacket> = wl.to_trace_stream(1500, 42).collect();
                let cached: Vec<TracePacket> = body.stream(rate).collect();
                assert_eq!(direct, cached, "rate={rate} payload={payload}");
            }
        }
        // The two bodies differ, so they key apart.
        assert_ne!(
            BodyKey::of(&profile(20_000.0, 100.0, 100), 1500, 42),
            BodyKey::of(&profile(20_000.0, 1400.0, 10_000), 1500, 42)
        );
    }

    #[test]
    fn a_body_streams_every_rate_of_its_key() {
        let wl = profile(20_000.0, 300.0, 1_000);
        let body = TraceBody::generate(&wl, 800, 7);
        assert_eq!(body.len(), 800);
        for rate in [20_000.0, 600_000.0, 0.0] {
            let at_rate = WorkloadProfile { rate_pps: rate, ..wl.clone() };
            assert_eq!(BodyKey::of(&at_rate, 800, 7), BodyKey::of(&wl, 800, 7));
            let direct: Vec<TracePacket> = at_rate.to_trace_stream(800, 7).collect();
            assert_eq!(body.stream(rate).collect::<Vec<_>>(), direct, "rate={rate}");
        }
        assert_ne!(BodyKey::of(&wl, 800, 7), BodyKey::of(&wl, 801, 7));
    }

    #[test]
    fn syn_share_and_seed_key_the_body() {
        let wl = profile(60_000.0, 300.0, 1_000);
        let syn = WorkloadProfile { syn_share: 0.5, ..wl.clone() };
        let (key_a, key_b, key_c) =
            (BodyKey::of(&wl, 400, 1), BodyKey::of(&syn, 400, 1), BodyKey::of(&wl, 400, 2));
        assert_ne!(key_a, key_b);
        assert_ne!(key_a, key_c);
        assert_ne!(key_b, key_c);
        let rate = wl.rate_pps;
        let a: Vec<TracePacket> = TraceBody::generate(&wl, 400, 1).stream(rate).collect();
        let b: Vec<TracePacket> = TraceBody::generate(&syn, 400, 1).stream(rate).collect();
        let c: Vec<TracePacket> = TraceBody::generate(&wl, 400, 2).stream(rate).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, wl.to_trace_stream(400, 1).collect::<Vec<_>>());
        assert_eq!(b, syn.to_trace_stream(400, 1).collect::<Vec<_>>());
        assert_eq!(c, wl.to_trace_stream(400, 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_family_relabels_to_every_payload_of_its_key() {
        let wl =
            WorkloadProfile { syn_share: 0.5, tcp_share: 0.7, ..profile(60_000.0, 300.0, 500) };
        let body = TraceBody::generate(&wl, 900, 3);
        assert_eq!(body.payload(), 300);
        assert!(body.specs().iter().any(|s| !TraceBody::carries_payload(s)), "no SYN drawn");
        for payload in [300.0, 0.0, 64.0, 1400.4] {
            let other = WorkloadProfile { avg_payload: payload, ..wl.clone() };
            let key = BodyKey::of(&other, 900, 3);
            assert_eq!(key.family(), BodyKey::of(&wl, 900, 3).family());
            assert_eq!(key == BodyKey::of(&wl, 900, 3), payload == 300.0);
            let generated = TraceBody::generate(&other, 900, 3);
            let relabelled = body.relabel(payload.round() as usize);
            assert_eq!(relabelled.payload(), generated.payload());
            assert_eq!(relabelled.specs(), generated.specs(), "payload={payload}");
        }
        assert_ne!(BodyKey::of(&wl, 900, 3).family(), BodyKey::of(&wl, 900, 4).family());
    }

    #[test]
    fn exact_size_iterator_counts_down() {
        let wl = profile(60_000.0, 300.0, 100);
        let mut s = TraceBody::generate(&wl, 25, 9).stream(wl.rate_pps);
        assert_eq!(s.len(), 25);
        s.next();
        assert_eq!(s.len(), 24);
        assert_eq!(s.count(), 24);
    }
}
