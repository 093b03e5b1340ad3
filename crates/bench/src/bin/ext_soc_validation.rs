//! §6 extension: "it would be interesting to consider a wider range of
//! SmartNICs in Clara" — the Figure-3-style prediction-vs-actual
//! discipline repeated on the SoC profile (ARM-style cores, conventional
//! cache hierarchy, run-to-completion).
//!
//! The ports differ from the Netronome ones exactly the way a real
//! porter's would: state goes to `l2-sram`/`dram`, there is no flow
//! cache or checksum engine, and checksums run in software on cores
//! with a much lower per-byte cost.

use clara_core::sim::{simulate, MicroOp, NicProgram, Stage, StageUnit, TableCfg};
use clara_core::{nfs, Clara, WorkloadProfile};

/// NAT hand-ported to the SoC: conn table in DRAM (1.5 MB exceeds the
/// 1 MB L2), software checksum.
fn nat_port_soc() -> NicProgram {
    NicProgram {
        name: "nat-soc".into(),
        tables: vec![TableCfg {
            name: "flow_table".into(),
            mem: "dram".into(),
            entry_bytes: 24,
            entries: nfs::nat::TABLE_ENTRIES,
            use_flow_cache: false,
        }],
        stages: vec![Stage {
            name: "translate".into(),
            unit: StageUnit::Npu,
            ops: vec![
                MicroOp::ParseHeader,
                MicroOp::Hash { count: 1 },
                MicroOp::TableLookup { table: 0 },
                MicroOp::MetadataMod { count: 3 },
                MicroOp::ChecksumSw,
            ],
        }],
    }
}

/// Firewall hand-ported to the SoC: small conn table in L2 SRAM.
fn fw_port_soc(entries: u64) -> NicProgram {
    NicProgram {
        name: "fw-soc".into(),
        tables: vec![TableCfg {
            name: "conns".into(),
            mem: "l2-sram".into(),
            entry_bytes: 24,
            entries,
            use_flow_cache: false,
        }],
        stages: vec![Stage {
            name: "conntrack".into(),
            unit: StageUnit::Npu,
            ops: vec![
                MicroOp::ParseHeader,
                MicroOp::Hash { count: 1 },
                MicroOp::TableLookup { table: 0 },
            ],
        }],
    }
}

fn steady(nic: &clara_core::Lnic, prog: &NicProgram, wl: &WorkloadProfile) -> f64 {
    let trace = wl.to_trace(3_000, 42);
    simulate(nic, prog, &trace).expect("port simulates").steady_latency_cycles
}

fn main() {
    let nic = clara_core::profiles::soc_armada();
    println!("extracting parameters for {} ...", nic.name);
    let clara = Clara::new(&nic);

    println!(
        "\n{:<28} {:>12} {:>12} {:>7}",
        "experiment", "predicted", "actual", "err"
    );
    let mut errs = Vec::new();

    // NAT payload sweep (the SoC has no checksum engine; Clara must
    // price the software path).
    let nat = clara.analyze(&nfs::nat::source()).expect("nat compiles").module;
    for payload in [200.0, 800.0, 1400.0] {
        let wl = WorkloadProfile {
            avg_payload: payload,
            max_payload: payload as usize,
            ..WorkloadProfile::paper_default()
        };
        let predicted = clara.predict_module(&nat, &wl).expect("predicts").avg_latency_cycles;
        let actual = steady(&nic, &nat_port_soc(), &wl);
        let err = (predicted - actual).abs() / actual;
        errs.push(err);
        println!(
            "{:<28} {:>9.0} cy {:>9.0} cy {:>6.1}%",
            format!("NAT @{payload}B"),
            predicted,
            actual,
            err * 100.0
        );
    }

    // Firewall flow-count sweep (cache behaviour of the DRAM-backed L2).
    let fw = clara.analyze(&nfs::firewall::source(16_384)).expect("fw compiles").module;
    for flows in [500usize, 8_000] {
        let wl = WorkloadProfile { flows, ..WorkloadProfile::paper_default() };
        let predicted = clara.predict_module(&fw, &wl).expect("predicts").avg_latency_cycles;
        let actual = steady(&nic, &fw_port_soc(16_384), &wl);
        let err = (predicted - actual).abs() / actual;
        errs.push(err);
        println!(
            "{:<28} {:>9.0} cy {:>9.0} cy {:>6.1}%",
            format!("FW @{flows} flows"),
            predicted,
            actual,
            err * 100.0
        );
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    println!("\nmean abs. error on {}: {:.1}%", nic.name, mean * 100.0);
    println!("(the same pipeline, parameters re-extracted for a different architecture)");
}
