//! Cross-rate trace-body sharing for sweep grids.
//!
//! Sweep grids vary offered rate as one axis, and [`WorkloadProfile::
//! to_trace_stream`] always spaces packets with [`Arrival::Constant`]
//! gaps. Under constant spacing the inter-arrival gap consumes no RNG
//! draws, so the random draw sequence — and with it every flow choice,
//! payload size, protocol, and SYN decision — is a pure function of the
//! *rate-independent* profile fields plus `(packets, seed)`. Two cells
//! that differ only in `rate_pps` therefore generate byte-identical
//! packet *bodies*; only the timestamps differ, and those are a cheap
//! deterministic accumulation (`ts += 1e9/rate` with the same `as u64`
//! truncation and monotonicity clamp the generator applies).
//!
//! [`TraceBody`] exploits that: it materializes the body (the
//! [`PacketSpec`] column, 24 bytes a packet) once and replays it per
//! rate with freshly computed timestamps, and [`TraceCache`] keeps one
//! body per unique rate-independent [`BodyKey`]. The replayed stream is
//! packet-for-packet identical to `to_trace_stream` — the parity test
//! below and the simulator's bit-identity checks both pin this — so
//! swapping a body in can never change a result, only the time spent
//! generating it. A materialized body is also what lets the simulator
//! share a body's per-packet service work across its rates
//! (`clara_nicsim::simulate_rates`).
//!
//! [`Arrival::Constant`]: crate::gen::Arrival::Constant
//! [`WorkloadProfile::to_trace_stream`]: crate::profile::WorkloadProfile::to_trace_stream

use crate::profile::WorkloadProfile;
use crate::trace::TracePacket;
use clara_packet::PacketSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
    avg_payload: u64,
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
            avg_payload: profile.avg_payload.round().to_bits(),
            syn_on_first: profile.syn_share > 0.0,
        }
    }
}

/// A generated trace body: the packets of
/// `profile.to_trace_stream(packets, seed)` without their timestamps,
/// shared behind an `Arc` (a clone copies no packet).
#[derive(Debug, Clone)]
pub struct TraceBody {
    specs: Arc<Vec<PacketSpec>>,
}

impl TraceBody {
    /// Generate the body of `profile.to_trace_stream(packets, seed)`;
    /// `profile.rate_pps` is not read.
    pub fn generate(profile: &WorkloadProfile, packets: usize, seed: u64) -> Self {
        TraceBody {
            specs: Arc::new(profile.to_trace_stream(packets, seed).map(|p| p.spec).collect()),
        }
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

/// A shareable cache of rate-independent trace bodies.
///
/// Thread-safe: sweep workers may share one cache behind a reference.
/// Values are deterministic functions of their key, so a racing double
/// computation inserts the same body twice — wasteful, never wrong.
#[derive(Default)]
pub struct TraceCache {
    bodies: Mutex<HashMap<BodyKey, TraceBody>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The body of `profile.to_trace_stream(packets, seed)`, generated
    /// on first use and shared afterwards.
    fn body(&self, profile: &WorkloadProfile, packets: usize, seed: u64) -> TraceBody {
        let key = BodyKey::of(profile, packets, seed);
        let cached = self.bodies.lock().unwrap().get(&key).cloned();
        match cached {
            Some(b) => b,
            None => {
                // Generate outside the lock: bodies are pure in the
                // key, so concurrent duplicates agree byte-for-byte.
                let b = TraceBody::generate(profile, packets, seed);
                self.bodies.lock().unwrap().entry(key).or_insert(b).clone()
            }
        }
    }

    /// A packet stream identical to
    /// `profile.to_trace_stream(packets, seed)`, generating the body on
    /// first use and replaying it (with per-rate timestamps) afterwards.
    pub fn stream(&self, profile: &WorkloadProfile, packets: usize, seed: u64) -> CachedStream {
        self.body(profile, packets, seed).stream(profile.rate_pps)
    }

    /// Number of distinct bodies currently cached.
    pub fn len(&self) -> usize {
        self.bodies.lock().unwrap().len()
    }

    /// Whether the cache holds no bodies yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let cache = TraceCache::new();
        for rate in [20_000.0, 60_000.0, 200_000.0, 600_000.0] {
            for (payload, flows) in [(100.0, 100), (1400.0, 10_000)] {
                let wl = profile(rate, payload, flows);
                let direct: Vec<TracePacket> = wl.to_trace_stream(1500, 42).collect();
                let cached: Vec<TracePacket> = cache.stream(&wl, 1500, 42).collect();
                assert_eq!(direct, cached, "rate={rate} payload={payload}");
            }
        }
        // Four rates × two bodies: the body column is shared per
        // rate-independent key, not per cell.
        assert_eq!(cache.len(), 2);
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
        let cache = TraceCache::new();
        let wl = profile(60_000.0, 300.0, 1_000);
        let syn = WorkloadProfile { syn_share: 0.5, ..wl.clone() };
        let a: Vec<TracePacket> = cache.stream(&wl, 400, 1).collect();
        let b: Vec<TracePacket> = cache.stream(&syn, 400, 1).collect();
        let c: Vec<TracePacket> = cache.stream(&wl, 400, 2).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(cache.len(), 3);
        assert_eq!(a, wl.to_trace_stream(400, 1).collect::<Vec<_>>());
        assert_eq!(b, syn.to_trace_stream(400, 1).collect::<Vec<_>>());
    }

    #[test]
    fn exact_size_iterator_counts_down() {
        let cache = TraceCache::new();
        let wl = profile(60_000.0, 300.0, 100);
        let mut s = cache.stream(&wl, 25, 9);
        assert_eq!(s.len(), 25);
        s.next();
        assert_eq!(s.len(), 24);
        assert_eq!(s.count(), 24);
    }
}
