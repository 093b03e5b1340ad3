//! Analytical cache-hit estimation from the workload's flow structure.
//!
//! "Flow distributions ... could result in different working set sizes,
//! which in turn cause different memory access patterns and cache
//! behaviors" (§2.1). The model: a state table keyed by flow touches one
//! entry per flow; a cache (or the flow-cache engine) retains the hottest
//! entries it can hold; the expected hit ratio is the probability mass of
//! those retained flows under the workload's popularity distribution
//! (Zipf with the profile's exponent; uniform when α = 0).
//!
//! Uniform masses are a closed form. A skewed mass needs the sum of every
//! flow's rank weight, one `powf` each: at 100,000 flows and more that
//! sum dwarfs the rest of a prediction. [`hit_model`] therefore first
//! plans every cell, collecting each `top` (resident entries) whose mass
//! it needs, and then computes all of them in one table-free pass: the
//! calling thread owns one weight buffer, the crate's fan-out executor
//! fills it in 8,192-rank blocks (each worker writes only the blocks it
//! claims and allocates nothing), and [`clara_workload::zipf::masses`]
//! sums it once in rank order. The masses equal
//! `Zipf::new(flows, α).mass(top)` bit for bit whatever the worker
//! count.

use crate::fanout::fan_out;
use clara_map::StateSpec;
use clara_microbench::{MemEst, NicParameters};
use clara_workload::{zipf, WorkloadProfile, Zipf};
use std::sync::Mutex;

/// Cache line size assumed for resident-entry accounting.
const LINE: f64 = 64.0;

/// Ranks per block of the skewed model's weight fill: a fixed size, so
/// the blocks and the sum do not depend on the worker count, and a
/// workload of at most one block runs inline.
const BLOCK: usize = 8192;

/// One cell of the cache model: a hit ratio known outright, or the Zipf
/// mass of the `top` hottest flows.
#[derive(Clone, Copy)]
enum Hit {
    Ratio(f64),
    Mass(usize),
}

/// Expected hit ratio when `state` is placed in `region` under
/// `workload`.
pub fn state_region_hit(state: &StateSpec, region: &MemEst, workload: &WorkloadProfile) -> f64 {
    resolve(&[plan_state_region(state, region, workload)], workload, 0)[0]
}

/// The cache-model plan of one (state, region) cell.
fn plan_state_region(state: &StateSpec, region: &MemEst, workload: &WorkloadProfile) -> Hit {
    let Some(cache) = &region.cache else { return Hit::Ratio(0.0) };
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
        return Hit::Ratio((c_lines / touched.max(1.0)).min(1.0));
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
        return Hit::Ratio(1.0);
    }
    Hit::Mass(resident_entries as usize)
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
/// matrix plus the flow-cache engine hit ratio, every skewed mass from
/// one weight pass fanned over the available cores.
pub fn hit_model(
    states: &[StateSpec],
    params: &NicParameters,
    workload: &WorkloadProfile,
) -> (Vec<Vec<f64>>, f64) {
    hit_model_reading(states, params, workload, true, 0)
}

/// [`hit_model`] for a prediction that reads the flow-cache engine hit
/// ratio only if `fc_read`, filling the weights on up to `threads`
/// workers ([`fan_out`]'s count: 0 is every available core, 1 inline).
/// When the ratio is not read — no node can be placed on the flow-cache
/// or LPM engine — it is left at 0, uncomputed, which spares a skewed
/// workload the O(flows) pass when no state needs it either.
pub(crate) fn hit_model_reading(
    states: &[StateSpec],
    params: &NicParameters,
    workload: &WorkloadProfile,
    fc_read: bool,
    threads: usize,
) -> (Vec<Vec<f64>>, f64) {
    let mut plans: Vec<Hit> = states
        .iter()
        .flat_map(|s| params.mems.iter().map(move |m| plan_state_region(s, m, workload)))
        .collect();
    plans.push(if fc_read { plan_fc(params, workload) } else { Hit::Ratio(0.0) });
    let mut hits = resolve(&plans, workload, threads).into_iter();
    let matrix = states.iter().map(|_| hits.by_ref().take(params.mems.len()).collect()).collect();
    (matrix, hits.next().expect("the flow-cache plan is last"))
}

/// Expected flow-cache engine hit ratio: the mass of flows that fit in
/// the engine's (estimated) entry capacity.
pub fn fc_hit_ratio(params: &NicParameters, workload: &WorkloadProfile) -> f64 {
    resolve(&[plan_fc(params, workload)], workload, 0)[0]
}

/// The cache-model plan of the flow-cache engine.
fn plan_fc(params: &NicParameters, workload: &WorkloadProfile) -> Hit {
    if !params.flow_cache_entries.is_finite() || params.flow_cache_entries <= 0.0 {
        return Hit::Ratio(0.0);
    }
    let capacity = params.flow_cache_entries;
    if (workload.flows.max(1) as f64) <= capacity {
        return Hit::Ratio(1.0);
    }
    Hit::Mass(capacity as usize)
}

/// Every plan's hit ratio, the masses from one pass over the workload's
/// flow popularity.
fn resolve(plans: &[Hit], workload: &WorkloadProfile, threads: usize) -> Vec<f64> {
    let tops: Vec<usize> = plans
        .iter()
        .filter_map(|h| match *h {
            Hit::Mass(top) => Some(top),
            Hit::Ratio(_) => None,
        })
        .collect();
    let alpha = workload.zipf_alpha.max(0.0);
    let mut masses = zipf_masses(workload.flows.max(1), alpha, &tops, threads).into_iter();
    plans
        .iter()
        .map(|h| match *h {
            Hit::Ratio(r) => r,
            Hit::Mass(_) => masses.next().expect("one mass per top"),
        })
        .collect()
}

/// `Zipf::new(n, alpha).mass(top)` for every `top`, bit for bit, without
/// the table: α = 0 is its closed form; otherwise the calling thread's
/// buffer of `n` rank weights is filled in [`BLOCK`]-rank blocks on up to
/// `threads` workers, each locking only the blocks it claims, and
/// summed once in rank order. Nothing is computed when `tops` is empty.
fn zipf_masses(n: usize, alpha: f64, tops: &[usize], threads: usize) -> Vec<f64> {
    if tops.is_empty() {
        return Vec::new();
    }
    if alpha == 0.0 {
        let uniform = Zipf::new(n, 0.0);
        return tops.iter().map(|&top| uniform.mass(top)).collect();
    }
    assert!(alpha.is_finite(), "invalid Zipf exponent");
    let mut weights = vec![0.0; n];
    let blocks: Vec<Mutex<&mut [f64]>> = weights.chunks_mut(BLOCK).map(Mutex::new).collect();
    fan_out(blocks.len(), threads, || (), |b, _| {
        let mut block = blocks[b].lock().expect("a block is claimed once, so never poisoned");
        for (j, w) in block.iter_mut().enumerate() {
            *w = zipf::rank_weight(b * BLOCK + j, alpha);
        }
    });
    drop(blocks);
    zipf::masses(&weights, tops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_map::StateClass;
    use clara_microbench::CacheEst;

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
    fn table_free_masses_equal_the_zipf_table() {
        for n in [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 100_000] {
            let mut tops = vec![0, 1, n - 1, n, n + 1, usize::MAX];
            for edge in (BLOCK..=n + 1).step_by(BLOCK) {
                tops.extend([edge - 1, edge, edge + 1]);
            }
            for alpha in [1e-9, 0.5, 1.0, 1.2, 3.0] {
                let table = Zipf::new(n, alpha);
                for workers in [1, 2, 3] {
                    let got = zipf_masses(n, alpha, &tops, workers);
                    for (&top, m) in tops.iter().zip(&got) {
                        assert_eq!(
                            m.to_bits(),
                            table.mass(top).to_bits(),
                            "n={n} alpha={alpha} top={top} workers={workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hit_model_matches_its_single_cell_forms() {
        let r = region(Some(CacheEst { capacity: 3.2e6, hit_latency: 150.0 }));
        let mut p = fake_params(32_768.0);
        p.mems = vec![region(None), r.clone()];
        let states = [state(1 << 20, 16), state(1 << 20, 256), state(100, 16)];
        for alpha in [0.0, 0.9] {
            let w = wl(200_000, alpha);
            let (matrix, fc) = hit_model(&states, &p, &w);
            for (s, row) in states.iter().zip(&matrix) {
                let want: Vec<u64> =
                    p.mems.iter().map(|m| state_region_hit(s, m, &w).to_bits()).collect();
                assert_eq!(row.iter().map(|h| h.to_bits()).collect::<Vec<_>>(), want);
            }
            assert_eq!(fc.to_bits(), fc_hit_ratio(&p, &w).to_bits());
            let (inline, unread) = hit_model_reading(&states, &p, &w, false, 1);
            assert_eq!((inline, unread), (matrix, 0.0));
        }
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
