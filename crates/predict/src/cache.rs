//! Analytical cache-hit estimation from the workload's flow structure.
//!
//! "Flow distributions ... could result in different working set sizes,
//! which in turn cause different memory access patterns and cache
//! behaviors" (§2.1). The model: a state table keyed by flow touches one
//! entry per flow; a cache (or the flow-cache engine) retains the hottest
//! entries it can hold; the expected hit ratio is the probability mass of
//! those retained flows under the workload's popularity distribution
//! (Zipf with the profile's exponent; uniform when α = 0).

use clara_map::StateSpec;
use clara_microbench::NicParameters;
use clara_workload::{WorkloadProfile, Zipf};

/// Cache line size assumed for resident-entry accounting.
const LINE: f64 = 64.0;

/// Expected hit ratio when `state` is placed in `region` under
/// `workload`.
pub fn state_region_hit(
    state: &StateSpec,
    region: &clara_microbench::MemEst,
    workload: &WorkloadProfile,
) -> f64 {
    state_region_hit_shared(state, region, workload, &mut None)
}

/// [`state_region_hit`] with a caller-owned Zipf table. Building the
/// cumulative Zipf mass is O(flows) with a `powf` per rank — at 100k
/// flows it dwarfs everything else in the hit model — but it depends
/// only on `(flows, zipf_alpha)`, so one table serves every (state,
/// region) pair of a prediction. Lazily built, so skewed workloads that
/// fit in cache never pay for it; uniform workloads never pay at all
/// (at α = 0 [`Zipf`] is a closed form with no table).
fn state_region_hit_shared(
    state: &StateSpec,
    region: &clara_microbench::MemEst,
    workload: &WorkloadProfile,
    zipf: &mut Option<Zipf>,
) -> f64 {
    let Some(cache) = &region.cache else { return 0.0 };
    // Content-addressed state (LPM rule tables, DPI automata arrays):
    // accesses draw (approximately uniformly) from the table's lines.
    // Within one reuse epoch — every flow sending one packet — the set of
    // *distinct* lines touched follows the occupancy law
    // `touched = N·(1 − e^(−draws/N))`, and the cache retains
    // `min(C, touched)` of them, so the expected hit ratio is
    // `C / touched`. Per-packet draws are approximated by the payload
    // size (DPI automata are walked once per payload byte).
    if matches!(state.class, clara_map::StateClass::Lpm | clara_map::StateClass::Array) {
        let n_lines = (state.size_bytes as f64 / LINE).max(1.0);
        let c_lines = cache.capacity / LINE;
        let draws = workload.flows.max(1) as f64 * workload.avg_payload.max(1.0);
        let touched = n_lines * (1.0 - (-draws / n_lines).exp());
        return (c_lines / touched.max(1.0)).min(1.0);
    }
    // Flow-addressed state: one entry per flow; the cache retains the
    // hottest flows' entries.
    let entry_bytes = (state.size_bytes as f64 / state.entries.max(1) as f64).max(1.0);
    // One line caches floor(LINE / entry) entries when entries are small,
    // or an entry occupies several lines when large.
    let lines_per_entry = (entry_bytes / LINE).max(1.0);
    let resident_entries = (cache.capacity / (LINE * lines_per_entry)).max(0.0);
    let touched = workload.flows.max(1) as f64;
    if touched <= resident_entries {
        return 1.0;
    }
    zipf.get_or_insert_with(|| Zipf::new(workload.flows.max(1), workload.zipf_alpha.max(0.0)))
        .mass(resident_entries as usize)
}

/// Hit matrix `[state][region]` for the mapping ILP.
pub fn state_hit_matrix(
    states: &[StateSpec],
    params: &NicParameters,
    workload: &WorkloadProfile,
) -> Vec<Vec<f64>> {
    hit_model(states, params, workload).0
}

/// The full cache model for one prediction: the `[state][region]` hit
/// matrix plus the flow-cache engine hit ratio, sharing a single Zipf
/// table across every cell.
pub fn hit_model(
    states: &[StateSpec],
    params: &NicParameters,
    workload: &WorkloadProfile,
) -> (Vec<Vec<f64>>, f64) {
    let mut zipf = None;
    let matrix = states
        .iter()
        .map(|s| {
            params
                .mems
                .iter()
                .map(|m| state_region_hit_shared(s, m, workload, &mut zipf))
                .collect()
        })
        .collect();
    (matrix, fc_hit_shared(params, workload, &mut zipf))
}

/// Expected flow-cache engine hit ratio: the mass of flows that fit in
/// the engine's (estimated) entry capacity.
pub fn fc_hit_ratio(params: &NicParameters, workload: &WorkloadProfile) -> f64 {
    fc_hit_shared(params, workload, &mut None)
}

fn fc_hit_shared(
    params: &NicParameters,
    workload: &WorkloadProfile,
    zipf: &mut Option<Zipf>,
) -> f64 {
    if !params.flow_cache_entries.is_finite() || params.flow_cache_entries <= 0.0 {
        return 0.0;
    }
    let capacity = params.flow_cache_entries;
    let flows = workload.flows.max(1);
    if (flows as f64) <= capacity {
        return 1.0;
    }
    zipf.get_or_insert_with(|| Zipf::new(flows, workload.zipf_alpha.max(0.0)))
        .mass(capacity as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_map::StateClass;
    use clara_microbench::{CacheEst, MemEst};

    fn region(cache: Option<CacheEst>) -> MemEst {
        MemEst {
            name: "r".into(),
            capacity: 8 << 30,
            latency: 500.0,
            bulk_per_byte: 4.0,
            cache,
            placeable: true,
            numa_extra: 0.0,
        }
    }

    fn state(entries: u64, entry_bytes: u64) -> StateSpec {
        StateSpec {
            name: "s".into(),
            class: StateClass::ExactMatch,
            entries,
            size_bytes: (entries * entry_bytes) as usize,
        }
    }

    fn wl(flows: usize, alpha: f64) -> WorkloadProfile {
        WorkloadProfile {
            flows,
            tcp_share: 1.0,
            syn_share: 0.0,
            avg_payload: 300.0,
            max_payload: 300,
            rate_pps: 60_000.0,
            zipf_alpha: alpha,
        }
    }

    #[test]
    fn uncached_region_never_hits() {
        assert_eq!(state_region_hit(&state(1000, 16), &region(None), &wl(100, 0.0)), 0.0);
    }

    #[test]
    fn small_working_set_always_hits() {
        let r = region(Some(CacheEst { capacity: 3e6, hit_latency: 150.0 }));
        // 1000 flows x 1 line each = 64 kB << 3 MB.
        assert_eq!(state_region_hit(&state(100_000, 16), &r, &wl(1000, 0.0)), 1.0);
    }

    #[test]
    fn uniform_overflow_hits_proportionally() {
        let r = region(Some(CacheEst { capacity: 3.2e6, hit_latency: 150.0 }));
        // Resident: 3.2e6/64 = 50k entries; 100k uniform flows -> ~50%.
        let h = state_region_hit(&state(1 << 20, 16), &r, &wl(100_000, 0.0));
        assert!((h - 0.5).abs() < 0.02, "hit {h}");
    }

    #[test]
    fn zipf_skew_raises_hits() {
        let r = region(Some(CacheEst { capacity: 3.2e6, hit_latency: 150.0 }));
        let uniform = state_region_hit(&state(1 << 20, 16), &r, &wl(200_000, 0.0));
        let skewed = state_region_hit(&state(1 << 20, 16), &r, &wl(200_000, 1.2));
        assert!(skewed > uniform + 0.2, "uniform {uniform} skewed {skewed}");
    }

    #[test]
    fn big_entries_reduce_resident_count() {
        let r = region(Some(CacheEst { capacity: 3.2e6, hit_latency: 150.0 }));
        let small_entries = state_region_hit(&state(1 << 20, 16), &r, &wl(100_000, 0.0));
        let big_entries = state_region_hit(&state(1 << 20, 256), &r, &wl(100_000, 0.0));
        assert!(big_entries < small_entries, "small {small_entries} big {big_entries}");
    }

    #[test]
    fn fc_hit_depends_on_capacity_and_flows() {
        let mut p = fake_params(32_768.0);
        assert_eq!(fc_hit_ratio(&p, &wl(1000, 0.0)), 1.0);
        let h = fc_hit_ratio(&p, &wl(65_536, 0.0));
        assert!((h - 0.5).abs() < 0.02, "hit {h}");
        p.flow_cache_entries = f64::INFINITY;
        assert_eq!(fc_hit_ratio(&p, &wl(1000, 0.0)), 0.0);
    }

    fn fake_params(fc_entries: f64) -> NicParameters {
        NicParameters {
            nic_name: "t".into(),
            freq_ghz: 1.0,
            total_threads: 8,
            has_fpu: false,
            pipelined: false,
            nj_per_cycle: 0.5,
            parse_header: 150.0,
            metadata_mod: 3.0,
            hash: 20.0,
            float_op: 80.0,
            stream_per_byte_resident: 2.0,
            stream_per_byte_spilled: 4.0,
            hub_overhead: 100.0,
            flow_cache_hit: 44.0,
            flow_cache_entries: fc_entries,
            linear_scan_per_entry: 40.0,
            checksum_sw: clara_microbench::AccelEst { base: 50.0, per_byte: 2.0 },
            alu: 1.0,
            mul: 5.0,
            div: 40.0,
            branch: 2.0,
            mems: vec![],
            accels: Default::default(),
        }
    }
}
