//! Built-in LNIC profiles.
//!
//! * [`netronome_agilio_cx40`] — the paper's validation target. Parameter
//!   values are the ones §3.2 reports: per-NPU local memory of 4 kB at
//!   1–3 cycles, 256 kB CTM per island at 50 cycles, 4 MB IMEM at up to
//!   250 cycles, 8 GB EMEM at up to 500 cycles with a 3 MB cache, 8
//!   threads per NPU, ≈150-cycle header parsing, 2–5-cycle metadata
//!   modifications, and an ingress checksum accelerator that handles a
//!   1000-byte packet in ≈300 cycles (vs ≈1700 extra memory-access cycles
//!   when done on an NPU).
//! * [`soc_armada`] — an SoC-style NIC (Marvell/BlueField-like): fewer,
//!   faster ARM cores with FPUs and a conventional cache hierarchy.
//! * [`pipeline_asic`] — a pipelined match-action ASIC: very fast header
//!   processing in fixed stages, tiny per-stage SRAM, and prohibitive
//!   costs for payload-streaming work (§6's "run-to-completion vs
//!   pipelined" distinction).

use crate::cost::{AccelCost, CostModel};
use crate::model::{
    AccelKind, CacheParams, ComputeClass, ComputeUnit, EdgeKind, Lnic, MemKind, MemoryRegion,
    QueueDiscipline, SwitchingHub,
};

/// Number of NPU islands in the Netronome profile.
pub const NETRONOME_ISLANDS: usize = 6;
/// NPUs per island in the Netronome profile.
pub const NETRONOME_NPUS_PER_ISLAND: usize = 8;

/// The paper's validation target: Netronome Agilio CX 40 GbE.
pub fn netronome_agilio_cx40() -> Lnic {
    let mut nic = Lnic::new("netronome-agilio-cx40", 0.8);
    nic.nj_per_cycle = 0.45;

    let npu_cost = CostModel {
        alu: 1,
        mul: 5,
        div: 40,
        branch: 2,
        metadata_mod: 3,  // paper: 2-5 cycles
        hash: 20,
        parse_header: 150, // paper: ~150 cycles (CTM -> local memory copy)
        float_native: 0,   // no FPU
        float_emulation: 80,
        stream_per_byte: 0.25,
        accel: None,
    };

    // Memories. One logical local-memory region (4 kB per NPU, 1-3 cycles);
    // one CTM per island (256 kB, 50 cycles); IMEM and EMEM outside the
    // islands.
    let lmem = nic.add_memory(MemoryRegion {
        name: "lmem".into(),
        kind: MemKind::Local,
        capacity: 4 << 10,
        latency: 2,
        bulk_per_byte: 0.3,
        cache: None,
        island: None,
    });
    let mut ctms = Vec::new();
    for island in 0..NETRONOME_ISLANDS {
        ctms.push(nic.add_memory(MemoryRegion {
            name: format!("ctm{island}"),
            kind: MemKind::ClusterSram,
            capacity: 256 << 10,
            latency: 50,
            bulk_per_byte: 1.7, // paper: ~1700 extra cycles / 1000 B
            cache: None,
            island: Some(island),
        }));
    }
    let imem = nic.add_memory(MemoryRegion {
        name: "imem".into(),
        kind: MemKind::Internal,
        capacity: 4 << 20,
        latency: 250,
        bulk_per_byte: 2.5,
        cache: None,
        island: None,
    });
    let emem = nic.add_memory(MemoryRegion {
        name: "emem".into(),
        kind: MemKind::External,
        capacity: 8usize << 30,
        latency: 500,
        bulk_per_byte: 4.0,
        cache: Some(CacheParams {
            capacity: 3 << 20, // paper: 3 MB EMEM cache
            line: 64,
            ways: 8,
            hit_latency: 150,
        }),
        island: None,
    });
    // Flow-cache SRAM backing the hardware exact-match engine.
    let fc_sram = nic.add_memory(MemoryRegion {
        name: "flowcache-sram".into(),
        kind: MemKind::ClusterSram,
        capacity: 512 << 10,
        latency: 30,
        bulk_per_byte: 1.0,
        cache: None,
        island: None,
    });

    // NPUs: islands of 8, 8 threads each, in-order (stable parameters, §4).
    let mut npus = Vec::new();
    for island in 0..NETRONOME_ISLANDS {
        for i in 0..NETRONOME_NPUS_PER_ISLAND {
            let id = nic.add_unit(ComputeUnit {
                name: format!("npu{island}_{i}"),
                class: ComputeClass::GeneralCore,
                threads: 8,
                island: Some(island),
                cost: npu_cost.clone(),
                has_fpu: false,
                stage: 0,
            });
            npus.push((island, id));
        }
    }

    // Accelerators: ingress checksum, crypto, flow-cache engine, LPM engine.
    let cksum = nic.add_unit(ComputeUnit {
        name: "cksum-accel".into(),
        class: ComputeClass::Accelerator(AccelKind::Checksum),
        threads: 1,
        island: None,
        cost: CostModel {
            // 1000-byte packet in ~300 cycles with data at ingress.
            accel: Some(AccelCost { base: 60, per_byte: 0.24, queue_capacity: 64 }),
            ..npu_cost.clone()
        },
        has_fpu: false,
        stage: 0,
    });
    let crypto = nic.add_unit(ComputeUnit {
        name: "crypto-accel".into(),
        class: ComputeClass::Accelerator(AccelKind::Crypto),
        threads: 1,
        island: None,
        cost: CostModel {
            accel: Some(AccelCost { base: 200, per_byte: 1.0, queue_capacity: 32 }),
            ..npu_cost.clone()
        },
        has_fpu: false,
        stage: 0,
    });
    let flowcache = nic.add_unit(ComputeUnit {
        name: "flowcache-engine".into(),
        class: ComputeClass::Accelerator(AccelKind::FlowCache),
        threads: 1,
        island: None,
        cost: CostModel {
            accel: Some(AccelCost { base: 40, per_byte: 0.0, queue_capacity: 64 }),
            ..npu_cost.clone()
        },
        has_fpu: false,
        stage: 0,
    });
    let lpm_engine = nic.add_unit(ComputeUnit {
        name: "lpm-engine".into(),
        class: ComputeClass::Accelerator(AccelKind::Lpm),
        threads: 1,
        island: None,
        cost: CostModel {
            accel: Some(AccelCost { base: 45, per_byte: 0.0, queue_capacity: 64 }),
            ..npu_cost
        },
        has_fpu: false,
        stage: 0,
    });
    nic.connect_mem(flowcache, fc_sram, 0);

    // Memory buses with NUMA weights: local and own-island CTM are cheap;
    // remote CTMs pay a fabric crossing; IMEM/EMEM are uniformly remote.
    for &(island, npu) in &npus {
        nic.connect_mem(npu, lmem, 0);
        for (ci, &ctm) in ctms.iter().enumerate() {
            nic.connect_mem(npu, ctm, if ci == island { 0 } else { 60 });
        }
        nic.connect_mem(npu, imem, 0);
        nic.connect_mem(npu, emem, 0);
    }

    // Memory hierarchy: lmem -> ctm0 -> imem -> emem (eviction direction).
    nic.add_edge(EdgeKind::Hierarchy { from: lmem, to: ctms[0] });
    for &ctm in &ctms {
        nic.add_edge(EdgeKind::Hierarchy { from: ctm, to: imem });
    }
    nic.add_edge(EdgeKind::Hierarchy { from: imem, to: emem });

    // Distributed switch fabric: ingress traffic manager feeding islands,
    // egress hub draining them.
    let ingress = nic.add_hub(SwitchingHub {
        name: "ingress-tm".into(),
        latency: 50,
        queue_capacity: 512,
        discipline: QueueDiscipline::Fifo,
    });
    let egress = nic.add_hub(SwitchingHub {
        name: "egress-tm".into(),
        latency: 50,
        queue_capacity: 512,
        discipline: QueueDiscipline::Fifo,
    });
    for &(_, npu) in &npus {
        nic.add_edge(EdgeKind::HubLink { hub: ingress, unit: npu });
        nic.add_edge(EdgeKind::HubLink { hub: egress, unit: npu });
    }
    for accel in [cksum, crypto, flowcache, lpm_engine] {
        nic.add_edge(EdgeKind::HubLink { hub: ingress, unit: accel });
    }

    debug_assert!(nic.validate().is_ok());
    nic
}

/// An SoC-style SmartNIC: 8 ARM cores at 2 GHz with FPUs, L2 SRAM, DRAM
/// with a unified cache, and a crypto accelerator. Run-to-completion.
pub fn soc_armada() -> Lnic {
    let mut nic = Lnic::new("soc-armada", 2.0);
    nic.nj_per_cycle = 0.9;

    let core_cost = CostModel {
        alu: 1,
        mul: 3,
        div: 12,
        branch: 1,
        metadata_mod: 2,
        hash: 10,
        parse_header: 80,
        float_native: 2,
        float_emulation: 2, // has FPU; never emulates
        stream_per_byte: 0.12,
        accel: None,
    };

    let l2 = nic.add_memory(MemoryRegion {
        name: "l2-sram".into(),
        kind: MemKind::ClusterSram,
        capacity: 1 << 20,
        latency: 25,
        bulk_per_byte: 0.6,
        cache: None,
        island: Some(0),
    });
    let dram = nic.add_memory(MemoryRegion {
        name: "dram".into(),
        kind: MemKind::External,
        capacity: 4usize << 30,
        latency: 280,
        bulk_per_byte: 1.2,
        cache: Some(CacheParams { capacity: 1 << 20, line: 64, ways: 8, hit_latency: 60 }),
        island: None,
    });

    let mut cores = Vec::new();
    for i in 0..8 {
        let id = nic.add_unit(ComputeUnit {
            name: format!("arm{i}"),
            class: ComputeClass::GeneralCore,
            threads: 1,
            island: Some(0),
            cost: core_cost.clone(),
            has_fpu: true,
            stage: 0,
        });
        cores.push(id);
        nic.connect_mem(id, l2, 0);
        nic.connect_mem(id, dram, 0);
    }
    let crypto = nic.add_unit(ComputeUnit {
        name: "crypto-accel".into(),
        class: ComputeClass::Accelerator(AccelKind::Crypto),
        threads: 1,
        island: None,
        cost: CostModel {
            accel: Some(AccelCost { base: 150, per_byte: 0.8, queue_capacity: 32 }),
            ..core_cost
        },
        has_fpu: false,
        stage: 0,
    });
    nic.add_edge(EdgeKind::Hierarchy { from: l2, to: dram });

    let ingress = nic.add_hub(SwitchingHub {
        name: "nic-switch".into(),
        latency: 80,
        queue_capacity: 256,
        discipline: QueueDiscipline::Fifo,
    });
    for &c in &cores {
        nic.add_edge(EdgeKind::HubLink { hub: ingress, unit: c });
    }
    nic.add_edge(EdgeKind::HubLink { hub: ingress, unit: crypto });

    debug_assert!(nic.validate().is_ok());
    nic
}

/// A pipelined match-action ASIC: four header-engine stages plus a small
/// pool of auxiliary cores; per-stage SRAM only; payload streaming is
/// effectively unsupported (priced at 40 cycles/byte).
pub fn pipeline_asic() -> Lnic {
    let mut nic = Lnic::new("pipeline-asic", 1.2);
    nic.pipelined = true;
    nic.nj_per_cycle = 0.25;

    let stage_cost = CostModel {
        alu: 1,
        mul: 2,
        div: 60,
        branch: 1,
        metadata_mod: 1,
        hash: 4,
        parse_header: 30,
        float_native: 0,
        float_emulation: 200,
        stream_per_byte: 40.0, // no payload datapath
        accel: None,
    };

    let mut srams = Vec::new();
    let mut stages = Vec::new();
    for s in 0..4 {
        let sram = nic.add_memory(MemoryRegion {
            name: format!("stage{s}-sram"),
            kind: MemKind::ClusterSram,
            capacity: 3 << 20, // 3 MB match/action SRAM per stage
            latency: 20,
            bulk_per_byte: 0.5,
            cache: None,
            island: Some(s),
        });
        srams.push(sram);
        let unit = nic.add_unit(ComputeUnit {
            name: format!("stage{s}"),
            class: ComputeClass::HeaderEngine,
            threads: 4,
            island: Some(s),
            cost: stage_cost.clone(),
            has_fpu: false,
            stage: s,
        });
        stages.push(unit);
        nic.connect_mem(unit, sram, 0);
    }
    for w in stages.windows(2) {
        nic.add_edge(EdgeKind::Pipeline { from: w[0], to: w[1] });
    }
    // A small auxiliary core pool for the slow path.
    let aux = nic.add_unit(ComputeUnit {
        name: "aux-core".into(),
        class: ComputeClass::GeneralCore,
        threads: 4,
        island: None,
        cost: CostModel { stream_per_byte: 0.5, ..stage_cost },
        has_fpu: false,
        stage: 3,
    });
    let dram = nic.add_memory(MemoryRegion {
        name: "dram".into(),
        kind: MemKind::External,
        capacity: 2usize << 30,
        latency: 400,
        bulk_per_byte: 3.0,
        cache: None,
        island: None,
    });
    nic.connect_mem(aux, dram, 0);
    for (s, &sram) in srams.iter().enumerate() {
        nic.connect_mem(aux, sram, 40 + 10 * s as u64);
    }

    let tm = nic.add_hub(SwitchingHub {
        name: "traffic-manager".into(),
        latency: 20,
        queue_capacity: 1024,
        discipline: QueueDiscipline::WeightedRoundRobin,
    });
    nic.add_edge(EdgeKind::HubLink { hub: tm, unit: stages[0] });
    nic.add_edge(EdgeKind::HubLink { hub: tm, unit: aux });

    debug_assert!(nic.validate().is_ok());
    nic
}

/// All built-in profiles, for "which NIC fits my workload" sweeps.
pub fn all_profiles() -> Vec<Lnic> {
    vec![netronome_agilio_cx40(), soc_armada(), pipeline_asic()]
}

/// Look up a built-in profile by its CLI/protocol name (`netronome`,
/// `soc`, `asic`). The single resolver shared by the `clara` CLI and the
/// `clara serve` daemon, so the two can never accept different spellings.
pub fn by_name(name: &str) -> Option<Lnic> {
    match name {
        "netronome" => Some(netronome_agilio_cx40()),
        "soc" => Some(soc_armada()),
        "asic" => Some(pipeline_asic()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for nic in all_profiles() {
            nic.validate().unwrap_or_else(|e| panic!("{}: {e}", nic.name));
        }
    }

    #[test]
    fn netronome_matches_paper_parameters() {
        let nic = netronome_agilio_cx40();
        let npu = nic.unit_named("npu0_0").unwrap();
        let lmem = nic.memory_named("lmem").unwrap();
        let ctm0 = nic.memory_named("ctm0").unwrap();
        let imem = nic.memory_named("imem").unwrap();
        let emem = nic.memory_named("emem").unwrap();

        // §3.2: LMEM 4 kB at 1-3 cycles; CTM 256 kB at 50; IMEM 4 MB at
        // ≤250; EMEM 8 GB at ≤500 with 3 MB cache.
        assert_eq!(nic.memory(lmem).capacity, 4 << 10);
        assert!((1..=3).contains(&nic.access_latency(npu, lmem)));
        assert_eq!(nic.memory(ctm0).capacity, 256 << 10);
        assert_eq!(nic.access_latency(npu, ctm0), 50);
        assert_eq!(nic.memory(imem).capacity, 4 << 20);
        assert_eq!(nic.access_latency(npu, imem), 250);
        assert_eq!(nic.memory(emem).capacity, 8 << 30);
        assert_eq!(nic.access_latency(npu, emem), 500);
        assert_eq!(nic.memory(emem).cache.unwrap().capacity, 3 << 20);

        // 8 threads per NPU; packets bound to a single thread.
        assert_eq!(nic.unit(npu).threads, 8);
        // Header parsing ~150 cycles; metadata mods 2-5 cycles.
        assert_eq!(nic.unit(npu).cost.parse_header, 150);
        assert!((2..=5).contains(&nic.unit(npu).cost.metadata_mod));
    }

    #[test]
    fn netronome_checksum_example_holds() {
        // §2.1: 1000-byte checksum ≈300 cycles at the ingress accelerator;
        // on an NPU it needs ~1700 *extra* cycles for memory access.
        let nic = netronome_agilio_cx40();
        let accel = nic.accelerators(AccelKind::Checksum)[0];
        let accel_cycles = nic.unit(accel).cost.accel.unwrap().service_cycles(1000);
        assert!((250..=350).contains(&accel_cycles), "accel {accel_cycles}");

        let npu = nic.unit_named("npu0_0").unwrap();
        let ctm0 = nic.memory_named("ctm0").unwrap();
        let mem_extra = nic.access_latency(npu, ctm0) as f64
            + nic.memory(ctm0).bulk_per_byte * 1000.0;
        assert!(
            (1500.0..=2000.0).contains(&mem_extra),
            "NPU memory extra = {mem_extra}"
        );
    }

    #[test]
    fn netronome_remote_ctm_pays_numa_penalty() {
        let nic = netronome_agilio_cx40();
        let npu = nic.unit_named("npu0_0").unwrap();
        let own = nic.memory_named("ctm0").unwrap();
        let remote = nic.memory_named("ctm1").unwrap();
        assert!(nic.access_latency(npu, remote) > nic.access_latency(npu, own));
    }

    #[test]
    fn netronome_has_all_accelerators() {
        let nic = netronome_agilio_cx40();
        for kind in AccelKind::ALL {
            assert_eq!(nic.accelerators(kind).len(), 1, "missing {kind}");
        }
    }

    #[test]
    fn netronome_core_count() {
        let nic = netronome_agilio_cx40();
        let cores = nic.units_of_class(ComputeClass::GeneralCore);
        assert_eq!(cores.len(), NETRONOME_ISLANDS * NETRONOME_NPUS_PER_ISLAND);
        assert_eq!(nic.total_threads(), cores.len() * 8);
    }

    #[test]
    fn soc_has_fpu_and_fewer_cores() {
        let nic = soc_armada();
        let cores = nic.units_of_class(ComputeClass::GeneralCore);
        assert_eq!(cores.len(), 8);
        assert!(nic.unit(cores[0]).has_fpu);
        assert!(!nic.pipelined);
    }

    #[test]
    fn asic_is_pipelined_with_ordered_stages() {
        let nic = pipeline_asic();
        assert!(nic.pipelined);
        let stages = nic.units_of_class(ComputeClass::HeaderEngine);
        assert_eq!(stages.len(), 4);
        for (i, &s) in stages.iter().enumerate() {
            assert_eq!(nic.unit(s).stage, i);
        }
        // Payload streaming is effectively unsupported.
        assert!(nic.unit(stages[0]).cost.stream_per_byte > 10.0);
    }

    #[test]
    fn profiles_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            all_profiles().into_iter().map(|n| n.name).collect();
        assert_eq!(names.len(), 3);
    }
}
