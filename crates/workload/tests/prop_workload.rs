//! Property tests: pcap round-trips and generator invariants.

use clara_workload::pcap::{read_pcap, write_pcap};
use clara_workload::{SizeDist, TraceBody, TraceGenerator, WorkloadProfile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated trace survives the pcap round trip: same flows,
    /// sizes, flags, and microsecond-truncated timestamps.
    #[test]
    fn pcap_roundtrip(
        seed in any::<u64>(),
        packets in 1usize..300,
        flows in 1usize..100,
        tcp in 0.0f64..=1.0,
        payload in 0usize..1400,
    ) {
        let trace = TraceGenerator::new(seed)
            .packets(packets)
            .flows(flows)
            .tcp_share(tcp)
            .sizes(SizeDist::Fixed(payload))
            .generate();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let restored = read_pcap(&buf[..]).unwrap();
        prop_assert_eq!(restored.len(), trace.len());
        for (a, b) in trace.iter().zip(restored.iter()) {
            prop_assert_eq!(a.spec.flow, b.spec.flow);
            prop_assert_eq!(a.spec.payload_len, b.spec.payload_len);
            prop_assert_eq!(a.spec.tcp_flags.syn(), b.spec.tcp_flags.syn());
            prop_assert_eq!(a.ts_ns / 1000, b.ts_ns / 1000);
        }
    }

    /// Corrupting any single byte of a pcap never panics the reader.
    #[test]
    fn corrupted_pcap_never_panics(pos in 0usize..2000, byte in any::<u8>()) {
        let trace = TraceGenerator::new(9).packets(20).generate();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let pos = pos % buf.len();
        buf[pos] = byte;
        let _ = read_pcap(&buf[..]); // Ok or Err, never panic
    }

    /// Generator invariants: timestamps monotone, payload sizes within
    /// the distribution, flow count bounded.
    #[test]
    fn generator_invariants(
        seed in any::<u64>(),
        packets in 1usize..400,
        flows in 1usize..200,
        lo in 0usize..700,
        width in 0usize..700,
    ) {
        let trace = TraceGenerator::new(seed)
            .packets(packets)
            .flows(flows)
            .sizes(SizeDist::Uniform(lo, lo + width))
            .syn_on_first(false)
            .generate();
        prop_assert_eq!(trace.len(), packets);
        let mut prev = 0;
        for p in trace.iter() {
            prop_assert!(p.ts_ns >= prev);
            prev = p.ts_ns;
            prop_assert!((lo..=lo + width).contains(&p.spec.payload_len));
        }
        prop_assert!(trace.stats().flows <= flows);
    }

    /// Relabelling a body to another payload is generating it there: for
    /// mixed TCP/UDP flows with and without SYNs, skewed or uniform, the
    /// relabelled body's packets and payload equal a freshly generated
    /// body's, and its stream equals the generator's at any rate.
    #[test]
    fn relabelling_a_body_is_generating_it(
        seed in any::<u64>(),
        packets in 0usize..400,
        flows in 1usize..300,
        tcp_share in prop_oneof![Just(1.0f64), Just(0.0f64), 0.0f64..1.0],
        syn_share in prop_oneof![Just(0.0f64), 0.01f64..1.0],
        zipf_alpha in prop_oneof![Just(0.0f64), 0.1f64..1.5],
        payloads in (0usize..1500, 0usize..1500),
        rate in 1_000.0f64..2_000_000.0,
    ) {
        let at = |payload: usize| WorkloadProfile {
            flows,
            tcp_share,
            syn_share,
            zipf_alpha,
            avg_payload: payload as f64,
            max_payload: payload,
            rate_pps: rate,
        };
        let (from, to) = payloads;
        let relabelled = TraceBody::generate(&at(from), packets, seed).relabel(to);
        let generated = TraceBody::generate(&at(to), packets, seed);
        prop_assert_eq!(relabelled.payload(), to);
        prop_assert_eq!(relabelled.specs(), generated.specs());
        let streamed: Vec<_> = relabelled.stream(rate).collect();
        prop_assert_eq!(streamed, at(to).to_trace_stream(packets, seed).collect::<Vec<_>>());
    }

    /// Zipf mass is a monotone CDF for any (n, alpha).
    #[test]
    fn zipf_mass_is_cdf(n in 1usize..500, alpha in 0.0f64..3.0) {
        let z = clara_workload::Zipf::new(n, alpha);
        let mut prev = 0.0;
        for top in 0..=n {
            let m = z.mass(top);
            prop_assert!(m + 1e-12 >= prev);
            prop_assert!(m <= 1.0 + 1e-9);
            prev = m;
        }
        prop_assert!((z.mass(n) - 1.0).abs() < 1e-9);
    }
}
