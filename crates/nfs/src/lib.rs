//! The Clara NF corpus.
//!
//! Every network function the paper evaluates, in two forms:
//!
//! * **Unported source** — NFC programs (the DSL of `clara-lang`) using
//!   framework-style APIs, exactly what Clara analyzes.
//! * **Hand-ported programs** — [`clara_nicsim::NicProgram`]s encoding
//!   the decisions a human porter makes (accelerator use, memory
//!   placement, flow-cache use). These run on the simulator and provide
//!   the "Actual" curves of Figure 3 and the variant bars of Figure 1.
//!
//! The five NFs of Figure 1: NAT, DPI, stateful firewall (FW), LPM, and
//! heavy-hitter detection (HH) — plus the VNF chain of Figure 3b
//! (DPI + metering + header modifications + flow statistics).

pub mod dpi;
pub mod firewall;
pub mod heavy_hitter;
pub mod lpm;
pub mod nat;
pub mod vnf;

use clara_nicsim::NicProgram;
use clara_workload::WorkloadProfile;

/// One benchmarkable configuration of an NF: a ported program plus the
/// workload it is measured under.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Label, e.g. `"NAT/accel-cksum"`.
    pub label: String,
    /// The hand-ported program.
    pub program: NicProgram,
    /// The workload to drive it with.
    pub workload: WorkloadProfile,
}

/// All Figure-1 variants: each of the five NFs in its 2–4 configurations
/// (accelerator use, packet sizes, memory locations and flow
/// distributions, rule counts and flow-cache use, packet rates).
pub fn fig1_variants() -> Vec<(String, Vec<Variant>)> {
    vec![
        ("NAT".into(), nat::fig1_variants()),
        ("DPI".into(), dpi::fig1_variants()),
        ("FW".into(), firewall::fig1_variants()),
        ("LPM".into(), lpm::fig1_variants()),
        ("HH".into(), heavy_hitter::fig1_variants()),
    ]
}

pub(crate) fn paper_workload() -> WorkloadProfile {
    WorkloadProfile::paper_default()
}

/// Names accepted by [`by_name`], for error messages and `--help` text.
pub const CORPUS_NAMES: &[&str] = &["nat", "dpi", "dpi-imem", "firewall", "lpm", "hh", "vnf"];

/// Resolve a corpus NF by its CLI/protocol name into both forms a
/// validation needs: the unported source the predictor analyzes and the
/// hand-ported program the simulator executes. The single resolver
/// shared by `clara validate`/`clara profile` and the `clara serve`
/// daemon's `validate` jobs.
pub fn by_name(name: &str) -> Option<(String, NicProgram)> {
    Some(match name {
        "nat" => (nat::source(), nat::ported()),
        "dpi" => (dpi::source(65_536), dpi::ported(65_536, "emem")),
        // The automaton in uncached IMEM: every stage is signature-pure,
        // so this variant exercises the simulator's pure stage plan.
        "dpi-imem" => (dpi::source(65_536), dpi::ported(65_536, "imem")),
        "firewall" | "fw" => (firewall::source(65_536), firewall::ported(65_536, "emem")),
        "lpm" => (lpm::source(10_000), lpm::ported_flow_cache(10_000)),
        "hh" | "heavy-hitter" => (heavy_hitter::source(4_096), heavy_hitter::ported(4_096)),
        "vnf" => (vnf::source(vnf::AUTOMATON_ENTRIES, vnf::STAT_BUCKETS), vnf::ported()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lnic::profiles;

    /// Every NF source in the corpus passes the full frontend and lowers.
    #[test]
    fn all_sources_compile() {
        for (name, src) in [
            ("nat", nat::source()),
            ("dpi", dpi::source(4096)),
            ("fw", firewall::source(65_536)),
            ("lpm", lpm::source(10_000)),
            ("hh", heavy_hitter::source(4096)),
            ("vnf", vnf::source(4096, 1024)),
        ] {
            let program = clara_lang::frontend(&src)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            clara_cir::lower(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// Every ported variant validates and runs on the simulator.
    #[test]
    fn all_fig1_variants_simulate() {
        let nic = profiles::netronome_agilio_cx40();
        for (nf, variants) in fig1_variants() {
            assert!((2..=4).contains(&variants.len()), "{nf} has {} variants", variants.len());
            for v in variants {
                v.program
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", v.label));
                let trace = v.workload.to_trace(300, 42);
                let r = clara_nicsim::simulate(&nic, &v.program, &trace)
                    .unwrap_or_else(|e| panic!("{}: {e}", v.label));
                assert!(r.completed > 0, "{}", v.label);
                assert!(r.avg_latency_cycles > 0.0, "{}", v.label);
            }
        }
    }

    /// Figure 1's headline: across all NFs and variants, normalized
    /// latency spreads by an order of magnitude (paper: up to 13.8x).
    #[test]
    fn fig1_spread_is_large() {
        let nic = profiles::netronome_agilio_cx40();
        let mut worst_ratio: f64 = 1.0;
        for (_, variants) in fig1_variants() {
            let lat: Vec<f64> = variants
                .iter()
                .map(|v| {
                    let trace = v.workload.to_trace(600, 7);
                    clara_nicsim::simulate(&nic, &v.program, &trace)
                        .unwrap()
                        .avg_latency_cycles
                })
                .collect();
            let min = lat.iter().copied().fold(f64::INFINITY, f64::min);
            let max = lat.iter().copied().fold(0.0f64, f64::max);
            worst_ratio = worst_ratio.max(max / min);
        }
        assert!(worst_ratio > 8.0, "max variability only {worst_ratio:.1}x");
    }
}
