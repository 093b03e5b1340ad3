//! The microbenchmark programs themselves, and the extraction driver.
//!
//! All measurements are *marginal*: the cost of an operation is the
//! latency difference between a program with `k` and `2k` instances of
//! it, which cancels fixed datapath overheads exactly the way hardware
//! microbenchmarks are built.

use crate::fit::{knee_of_curve, linear_fit};
use crate::params::{AccelEst, CacheEst, MemEst, NicParameters};
use clara_lnic::{AccelKind, Lnic, MemKind};
use clara_nicsim::{
    simulate_streamed, BytesSpec, FaultPlan, MicroOp, NicProgram, SimConfig, SimResult,
    SimScratch, Stage, StageUnit, TableCfg, Watchdog,
};
use clara_workload::{SizeDist, TraceGenerator};
use std::collections::HashMap;

/// Calibration rate: low enough that queueing never contaminates the
/// latency measurements.
const CAL_RATE_PPS: f64 = 10_000.0;

fn cal_trace(packets: usize, flows: usize, payload: usize, seed: u64) -> TraceGenerator {
    TraceGenerator::new(seed)
        .packets(packets)
        .flows(flows.max(1))
        .rate_pps(CAL_RATE_PPS)
        .sizes(SizeDist::Fixed(payload))
        .syn_on_first(false)
}

fn npu_prog(ops: Vec<MicroOp>, tables: Vec<TableCfg>) -> NicProgram {
    NicProgram {
        name: "microbench".into(),
        tables,
        stages: vec![Stage { name: "bench".into(), unit: StageUnit::Npu, ops }],
    }
}

/// The NIC under calibration plus the simulator arenas that every
/// calibration point reuses. Each point streams its trace from the
/// generator into the simulator, so no calibration trace (up to 1.5 M
/// packets) is ever materialized; results equal `simulate` on the
/// generated trace bit for bit.
struct Bench<'a> {
    nic: &'a Lnic,
    scratch: SimScratch,
}

impl<'a> Bench<'a> {
    fn new(nic: &'a Lnic) -> Self {
        Bench { nic, scratch: SimScratch::new() }
    }

    fn simulate(&mut self, prog: &NicProgram, trace: &TraceGenerator) -> SimResult {
        simulate_streamed(
            self.nic,
            prog,
            trace.stream(),
            &FaultPlan::none(),
            &Watchdog::default(),
            &SimConfig::default(),
            &mut self.scratch,
        )
        .expect("microbench program must be valid")
    }

    fn run(&mut self, prog: &NicProgram, trace: &TraceGenerator) -> f64 {
        self.simulate(prog, trace).avg_latency_cycles
    }

    /// Like [`Self::run`], but discards the first half of the trace as
    /// warmup — standard practice for cache-sensitive measurements.
    fn run_steady(&mut self, prog: &NicProgram, trace: &TraceGenerator) -> f64 {
        self.simulate(prog, trace).steady_latency_cycles
    }

    /// Marginal cost of `op` via the k vs 2k difference.
    fn marginal(&mut self, op: MicroOp, k: usize, trace: &TraceGenerator) -> f64 {
        let once = npu_prog(vec![op.clone(); k], vec![]);
        let twice = npu_prog(vec![op; 2 * k], vec![]);
        (self.run(&twice, trace) - self.run(&once, trace)) / k as f64
    }

    fn memory_latency_vs_working_set(
        &mut self,
        region: &str,
        entry_bytes: usize,
        working_sets: &[usize],
    ) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for &ws in working_sets {
            // The table is kept 8x sparser than the flow count so that hash
            // buckets rarely collide and the touched set really is ~ws bytes.
            let entries = ((ws / entry_bytes).max(8) as u64) * 8;
            let table = TableCfg {
                name: "bench".into(),
                mem: region.into(),
                entry_bytes,
                entries,
                use_flow_cache: false,
            };
            // The touched working set is one entry per flow, so flows must
            // scale with the target size, and packets must revisit each flow
            // several times or nothing is ever warm.
            let flows = (ws / entry_bytes).clamp(8, 600_000);
            let packets = (6 * flows).clamp(500, 1_500_000);
            let trace = cal_trace(packets, flows, 64, 11);
            let base = npu_prog(vec![], vec![table.clone()]);
            let with = npu_prog(vec![MicroOp::TableLookup { table: 0 }], vec![table]);
            let cost = self.run_steady(&with, &trace) - self.run_steady(&base, &trace);
            out.push((ws as f64, cost));
        }
        out
    }

    fn checksum_sw_curve(&mut self, payloads: &[usize]) -> Vec<(f64, f64)> {
        payloads
            .iter()
            .map(|&p| {
                let trace = cal_trace(300, 64, p, 13);
                let base = npu_prog(vec![], vec![]);
                let with = npu_prog(vec![MicroOp::ChecksumSw], vec![]);
                ((p + 40) as f64, self.run(&with, &trace) - self.run(&base, &trace))
            })
            .collect()
    }

    fn stream_curve(&mut self, payloads: &[usize]) -> Vec<(f64, f64)> {
        payloads
            .iter()
            .map(|&p| {
                let trace = cal_trace(300, 64, p, 17);
                let base = npu_prog(vec![], vec![]);
                let with = npu_prog(
                    vec![MicroOp::StreamPayload { table: None, loop_overhead: 0 }],
                    vec![],
                );
                (p as f64, self.run(&with, &trace) - self.run(&base, &trace))
            })
            .collect()
    }

    fn accel_service_curve(&mut self, kind: AccelKind, sizes: &[u64]) -> Vec<(f64, f64)> {
        sizes
            .iter()
            .map(|&n| {
                let trace = cal_trace(300, 64, 64, 19);
                let prog = NicProgram {
                    name: "accel-bench".into(),
                    tables: vec![],
                    stages: vec![Stage {
                        name: "accel".into(),
                        unit: StageUnit::Accel(kind),
                        ops: vec![MicroOp::AccelCall { bytes: BytesSpec::Fixed(n) }],
                    }],
                };
                let base = npu_prog(vec![], vec![]);
                (n as f64, self.run(&prog, &trace) - self.run(&base, &trace))
            })
            .collect()
    }

    fn linear_scan_curve(
        &mut self,
        region: &str,
        entry_bytes: usize,
        rules: &[u64],
    ) -> Vec<(f64, f64)> {
        rules
            .iter()
            .map(|&n| {
                let table = TableCfg {
                    name: "rules".into(),
                    mem: region.into(),
                    entry_bytes,
                    entries: n,
                    use_flow_cache: false,
                };
                let trace = cal_trace(200, 64, 64, 23);
                let base = npu_prog(vec![], vec![table.clone()]);
                let with = npu_prog(vec![MicroOp::LinearScan { table: 0 }], vec![table]);
                (n as f64, self.run(&with, &trace) - self.run(&base, &trace))
            })
            .collect()
    }

    /// Family 3 (flow cache): hit latency and capacity estimate.
    fn flow_cache_params(&mut self) -> (f64, f64) {
        if self.nic.accelerators(AccelKind::FlowCache).is_empty() {
            return (f64::INFINITY, 0.0);
        }
        let table = |entries: u64| TableCfg {
            name: "fc".into(),
            mem: "emem".into(),
            entry_bytes: 16,
            entries,
            use_flow_cache: true,
        };
        // Hit cost: tiny flow count, warm.
        let trace = cal_trace(2000, 8, 64, 29);
        let base = npu_prog(vec![], vec![table(1 << 16)]);
        let with = npu_prog(vec![MicroOp::TableLookup { table: 0 }], vec![table(1 << 16)]);
        let hit = self.run_steady(&with, &trace) - self.run_steady(&base, &trace);

        // Capacity: sweep concurrent flows until hits collapse.
        let mut curve = Vec::new();
        for flows in [1_000usize, 4_000, 8_000, 16_000, 24_000, 32_000, 48_000, 60_000] {
            let trace = cal_trace(3 * flows.min(20_000), flows, 64, 31);
            let with = npu_prog(vec![MicroOp::TableLookup { table: 0 }], vec![table(1 << 20)]);
            let base = npu_prog(vec![], vec![table(1 << 20)]);
            curve.push((flows as f64, self.run(&with, &trace) - self.run(&base, &trace)));
        }
        let capacity = knee_of_curve(&curve).unwrap_or(32_768.0);
        (hit, capacity)
    }
}

/// Family 5 (memory): mean lookup latency as the working set grows.
/// Returns `(working_set_bytes, marginal_cycles_per_lookup)` samples.
pub fn memory_latency_vs_working_set(
    nic: &Lnic,
    region: &str,
    entry_bytes: usize,
    working_sets: &[usize],
) -> Vec<(f64, f64)> {
    Bench::new(nic).memory_latency_vs_working_set(region, entry_bytes, working_sets)
}

/// Family 2 (checksum): software checksum latency vs payload size.
pub fn checksum_sw_curve(nic: &Lnic, payloads: &[usize]) -> Vec<(f64, f64)> {
    Bench::new(nic).checksum_sw_curve(payloads)
}

/// Payload streaming latency vs payload size (no side table).
pub fn stream_curve(nic: &Lnic, payloads: &[usize]) -> Vec<(f64, f64)> {
    Bench::new(nic).stream_curve(payloads)
}

/// Accelerator service latency vs request size.
pub fn accel_service_curve(nic: &Lnic, kind: AccelKind, sizes: &[u64]) -> Vec<(f64, f64)> {
    Bench::new(nic).accel_service_curve(kind, sizes)
}

/// Match/action linear-scan latency vs rule count in `region` (warm).
pub fn linear_scan_curve(nic: &Lnic, region: &str, entry_bytes: usize, rules: &[u64]) -> Vec<(f64, f64)> {
    Bench::new(nic).linear_scan_curve(region, entry_bytes, rules)
}

/// Run every family and assemble the parameter table.
pub fn extract_parameters(nic: &Lnic) -> NicParameters {
    let mut bench = Bench::new(nic);
    let std_trace = cal_trace(400, 64, 300, 1);

    // Fixed per-packet overhead (hub traversals): an empty program.
    let hub_overhead = bench.run(&npu_prog(vec![], vec![]), &std_trace);

    // Families 1, 4, 6: parse, metadata, hash, float.
    let parse_header = bench.marginal(MicroOp::ParseHeader, 4, &std_trace);
    let metadata_mod = bench.marginal(MicroOp::MetadataMod { count: 1 }, 32, &std_trace);
    let hash = bench.marginal(MicroOp::Hash { count: 1 }, 16, &std_trace);
    let float_op = bench.marginal(MicroOp::FloatOps { count: 1 }, 16, &std_trace);

    // Streaming slopes: resident vs spilled.
    let resident = bench.stream_curve(&[128, 256, 512, 768, 1000]);
    let (_, stream_per_byte_resident) = linear_fit(&resident);
    let spilled = bench.stream_curve(&[1100, 1200, 1300, 1400, 1500]);
    let (_, stream_per_byte_spilled) = linear_fit(&spilled);

    // Software checksum curve.
    let ck = bench.checksum_sw_curve(&[100, 300, 500, 700, 900]);
    let (ck_base, ck_slope) = linear_fit(&ck);

    // Memory regions.
    let mut mems = Vec::new();
    for m in nic.memories() {
        if m.kind == MemKind::Local {
            // Local memory holds registers/program state, not NF tables of
            // interest; measure a token small table anyway.
        }
        // 64-byte entries: one cache line per entry, so the touched set
        // equals flows x line.
        let entry_bytes = 64usize;
        let max_ws = m.capacity.min(32 << 20);
        let min_ws = (entry_bytes * 8).min(max_ws);
        // Log-spaced working sets up to the region (or 32 MB) cap.
        let mut sweep = Vec::new();
        let mut ws = min_ws.max(64 << 10);
        while ws <= max_ws && sweep.len() < 10 {
            sweep.push(ws);
            ws *= 2;
        }
        if sweep.is_empty() {
            sweep.push(min_ws.max(512));
        }
        let curve = bench.memory_latency_vs_working_set(&m.name, entry_bytes, &sweep);
        let floor = curve.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let ceil = curve.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let knee = knee_of_curve(&curve);
        // Hit latency from a dedicated warm run (tiny resident set, many
        // revisits) — the knee curve's floor is cold-start biased. The
        // half-latency point of an LRU cache under uniform access sits at
        // twice the capacity (hit ratio C/W puts the midpoint at W = 2C),
        // so the knee is halved when converting to a capacity estimate.
        let cache = knee.map(|knee_ws| {
            let warm = bench.memory_latency_vs_working_set(&m.name, entry_bytes, &[16 << 10]);
            CacheEst { capacity: knee_ws / 2.0, hit_latency: warm[0].1.min(floor) }
        });
        // Raw latency: the large-working-set plateau when a cache exists,
        // otherwise the flat level.
        let latency = if cache.is_some() { ceil } else { ceil.max(floor) };

        // Sequential streaming slope via linear scan.
        let scan_rules: Vec<u64> = {
            let max_rules = (max_ws / entry_bytes) as u64;
            [500u64, 1000, 2000, 4000]
                .into_iter()
                .map(|r| r.min(max_rules.max(8)))
                .collect()
        };
        let scan = bench.linear_scan_curve(&m.name, entry_bytes, &scan_rules);
        let (_, per_rule) = linear_fit(&scan);
        let bulk_per_byte = (per_rule / entry_bytes as f64).max(0.0);

        mems.push(MemEst {
            name: m.name.clone(),
            capacity: m.capacity,
            latency,
            bulk_per_byte,
            cache,
            placeable: m.kind != MemKind::Local && !m.name.contains("flowcache"),
            numa_extra: 0.0, // folded into the measured mean
        });
    }

    // Accelerators.
    let mut accels = HashMap::new();
    for kind in AccelKind::ALL {
        if nic.accelerators(kind).is_empty() {
            continue;
        }
        let curve = bench.accel_service_curve(kind, &[0, 256, 512, 1024, 1500]);
        let (base, per_byte) = linear_fit(&curve);
        accels.insert(kind, AccelEst { base: base.max(0.0), per_byte: per_byte.max(0.0) });
    }

    let (flow_cache_hit, flow_cache_entries) = bench.flow_cache_params();

    // Linear-scan cost per 16-byte rule in the slowest bulk region rules
    // typically live in (external memory), warm.
    let ext_region = nic
        .memories()
        .iter()
        .find(|m| m.kind == MemKind::External)
        .map(|m| m.name.clone());
    let linear_scan_per_entry = match &ext_region {
        Some(region) => {
            let scan = bench.linear_scan_curve(region, 16, &[1000, 4000, 8000, 16000]);
            linear_fit(&scan).1
        }
        None => 40.0,
    };

    // Databook values.
    let core = nic
        .units()
        .iter()
        .find(|u| u.class == clara_lnic::ComputeClass::GeneralCore)
        .expect("NIC has general cores");

    NicParameters {
        nic_name: nic.name.clone(),
        freq_ghz: nic.freq_ghz,
        total_threads: nic.total_threads(),
        has_fpu: core.has_fpu,
        pipelined: nic.pipelined,
        nj_per_cycle: nic.nj_per_cycle,
        parse_header,
        metadata_mod,
        hash,
        float_op,
        stream_per_byte_resident,
        stream_per_byte_spilled,
        hub_overhead,
        flow_cache_hit,
        flow_cache_entries,
        linear_scan_per_entry,
        checksum_sw: AccelEst { base: ck_base.max(0.0), per_byte: ck_slope.max(0.0) },
        alu: core.cost.alu as f64,
        mul: core.cost.mul as f64,
        div: core.cost.div as f64,
        branch: core.cost.branch as f64,
        mems,
        accels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lnic::profiles;

    // Extraction is moderately expensive; share one table across tests.
    fn params() -> &'static NicParameters {
        use std::sync::OnceLock;
        static PARAMS: OnceLock<NicParameters> = OnceLock::new();
        PARAMS.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    #[test]
    fn recovers_paper_compute_parameters() {
        let p = params();
        // §3.2: parse ≈150 cycles, metadata mods 2-5 cycles.
        assert!((p.parse_header - 150.0).abs() < 15.0, "parse {}", p.parse_header);
        assert!((2.0..=5.0).contains(&p.metadata_mod), "mods {}", p.metadata_mod);
        assert!((p.hash - 20.0).abs() < 5.0, "hash {}", p.hash);
        assert!((p.float_op - 80.0).abs() < 10.0, "float {}", p.float_op);
    }

    #[test]
    fn recovers_checksum_tradeoff() {
        let p = params();
        // §2.1: ingress checksum ~300 cycles for 1000 B; software path
        // needs ~1700 extra cycles of memory traffic.
        let accel = p.accels[&AccelKind::Checksum];
        let accel_1000 = accel.base + accel.per_byte * 1000.0;
        assert!((250.0..=350.0).contains(&accel_1000), "accel {accel_1000}");
        let sw_1000 = p.checksum_sw.base + p.checksum_sw.per_byte * 1040.0;
        assert!(
            sw_1000 > accel_1000 + 1200.0,
            "software {sw_1000} vs accel {accel_1000}"
        );
    }

    #[test]
    fn finds_emem_cache_knee() {
        let p = params();
        let emem = p.mem("emem").expect("emem measured");
        let cache = emem.cache.as_ref().expect("knee found");
        // True capacity 3 MB; knee estimation within a factor of ~2.
        assert!(
            (1.5e6..=8e6).contains(&cache.capacity),
            "capacity {}",
            cache.capacity
        );
        assert!((cache.hit_latency - 150.0).abs() < 40.0, "hit {}", cache.hit_latency);
        assert!((emem.latency - 500.0).abs() < 110.0, "raw {}", emem.latency);
    }

    #[test]
    fn uncached_regions_have_no_knee() {
        let p = params();
        let imem = p.mem("imem").expect("imem measured");
        assert!(imem.cache.is_none());
        assert!((imem.latency - 250.0).abs() < 40.0, "imem {}", imem.latency);
    }

    #[test]
    fn ctm_measures_include_numa_mean() {
        let p = params();
        let ctm = p.mem("ctm0").expect("ctm0 measured");
        // Raw CTM is 50 cycles; 5/6 of threads are remote (+60), so the
        // measured mean sits near 100.
        assert!(
            (60.0..=130.0).contains(&ctm.latency),
            "ctm mean {}",
            ctm.latency
        );
    }

    #[test]
    fn flow_cache_measured() {
        let p = params();
        assert!(
            (20.0..=80.0).contains(&p.flow_cache_hit),
            "hit {}",
            p.flow_cache_hit
        );
        // True capacity 512 KB / 16 B = 32768 entries.
        assert!(
            (12_000.0..=60_000.0).contains(&p.flow_cache_entries),
            "entries {}",
            p.flow_cache_entries
        );
    }

    #[test]
    fn stream_slopes_ordered() {
        let p = params();
        // Spilled bytes stream from EMEM and must cost more than CTM.
        assert!(
            p.stream_per_byte_spilled > p.stream_per_byte_resident + 1.0,
            "resident {} spilled {}",
            p.stream_per_byte_resident,
            p.stream_per_byte_spilled
        );
        // CTM residence: 0.25 compute + 1.7 bulk ≈ 1.95.
        assert!(
            (1.5..=2.5).contains(&p.stream_per_byte_resident),
            "resident {}",
            p.stream_per_byte_resident
        );
    }

    #[test]
    fn databook_fields_passed_through() {
        let p = params();
        assert_eq!(p.total_threads, 48 * 8);
        assert!(!p.has_fpu);
        assert!(!p.pipelined);
        assert_eq!(p.freq_ghz, 0.8);
        assert_eq!(p.alu, 1.0);
    }

    #[test]
    fn soc_profile_extracts_too() {
        let p = extract_parameters(&profiles::soc_armada());
        assert!(p.has_fpu);
        assert!(p.accels.contains_key(&AccelKind::Crypto));
        assert!(!p.accels.contains_key(&AccelKind::Checksum));
        assert!(p.parse_header < 100.0);
        assert!(p.flow_cache_hit.is_infinite()); // no flow cache engine
    }
}
