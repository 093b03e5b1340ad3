//! Parallel prediction sweeps.
//!
//! Clara's workflow is exploratory: the developer asks "what happens at
//! 600 kpps with 1400-byte payloads?" over a whole grid of rates,
//! payload sizes, flow counts, and porting strategies (§2.3). Every
//! scenario is an independent pure function of its inputs, so a sweep
//! runs its scenarios on the `fanout.rs` executor.
//!
//! Sharing: scenarios of one workload class share one `Prepared` and one
//! ILP warm-start donor (`PrepShare`). The supervised sweep
//! ([`crate::supervisor`]) and the validation sweep ([`crate::validate`])
//! predict through the same share and `run_cell`, so all three make
//! identical sharing and seeding decisions.
//!
//! Determinism: results land in per-scenario slots, so the output order
//! equals the input order and is bit-identical to a sequential run
//! regardless of thread count or scheduling.
//!
//! Fault containment: each cell runs under `contain`, so one panicking
//! prediction becomes that cell's [`PredictError::Panicked`] instead of
//! unwinding the pool and aborting every sibling.

use crate::fanout::{contain, fan_out};
use crate::predictor::{
    predict_prepared_seeded, prepare, ClassKey, PredictError, PredictOptions, Prediction, Prepared,
};
use clara_cir::CirModule;
use clara_map::{IlpSeed, RunDeadline};
use clara_microbench::NicParameters;
use clara_workload::WorkloadProfile;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One cell of a sweep grid: an NF to predict under one workload and
/// strategy. Modules and parameter tables are borrowed — a 64-scenario
/// sweep over one NF shares a single lowered module.
#[derive(Debug, Clone)]
pub struct SweepScenario<'a> {
    /// Human-readable cell label (e.g. `rate=600k payload=1400`).
    pub label: String,
    /// The lowered NF.
    pub module: &'a CirModule,
    /// Measured NIC parameters.
    pub params: &'a NicParameters,
    /// Traffic for this cell.
    pub workload: WorkloadProfile,
    /// Porting strategy and solver knobs for this cell.
    pub options: PredictOptions,
}

/// The shared rate-independent inputs of a sweep: one prep group per
/// distinct (module address, parameters address, [`ClassKey`]), with a
/// lazily filled [`Prepared`] and a warm-start donor each.
///
/// Keys compare addresses, not contents. They exist only inside
/// [`PrepShare::build`], while every scenario — and so every module and
/// parameter table it borrows — is alive, so equal addresses are one
/// live object.
///
/// Warm starts follow a star topology: each group's *first* scenario (in
/// input order) is its seed donor, and every other cell of the group
/// seeds its branch-and-bound from the donor's solved mapping. The donor
/// itself always solves cold. The donor index is fixed by input order
/// and its seed is a pure function of the donor scenario's contents
/// (with the panic test hook stripped), computed on first demand under a
/// `OnceLock` — so seeding decisions are identical for every thread
/// schedule, and a masked-out (panicking) donor still yields the seed
/// its healthy twin would have. A donor cell whose solve cannot depend
/// on timing fills that `OnceLock` with its own seed, so the group's
/// donor is solved once instead of twice.
pub(crate) struct PrepShare {
    /// Scenario index → prep group.
    prep_of: Vec<usize>,
    preps: Vec<OnceLock<Prepared>>,
    /// Prep group → index of its first scenario (the donor).
    donor_of: Vec<usize>,
    /// Prep group → the donor's exported seed. `None` when the donor's
    /// prediction failed or panicked; siblings then solve cold.
    seeds: Vec<OnceLock<Option<IlpSeed>>>,
}

impl PrepShare {
    pub(crate) fn build(scenarios: &[SweepScenario<'_>]) -> Self {
        let mut prep_ids: HashMap<(usize, usize, ClassKey), usize> = HashMap::new();
        let mut prep_of = Vec::with_capacity(scenarios.len());
        let mut donor_of = Vec::new();
        for (i, sc) in scenarios.iter().enumerate() {
            let key = (
                sc.module as *const CirModule as usize,
                sc.params as *const NicParameters as usize,
                ClassKey::of(&sc.workload),
            );
            let n = prep_ids.len();
            let id = *prep_ids.entry(key).or_insert(n);
            if id == donor_of.len() {
                donor_of.push(i);
            }
            prep_of.push(id);
        }
        let groups = donor_of.len();
        PrepShare {
            prep_of,
            preps: (0..groups).map(|_| OnceLock::new()).collect(),
            donor_of,
            seeds: (0..groups).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The shared `Prepared` for scenario `i`, computing it on first use.
    ///
    /// A panic inside [`prepare`] leaves the `OnceLock` *empty* (not
    /// poisoned), so a retry of the same cell recomputes it cleanly.
    fn prepared(&self, scenarios: &[SweepScenario<'_>], i: usize) -> &Prepared {
        let sc = &scenarios[i];
        self.preps[self.prep_of[i]].get_or_init(|| prepare(sc.module, sc.params, &sc.workload, 0))
    }

    /// The cross-cell warm-start seed for scenario `i`: `None` for the
    /// donor itself (it solves cold), otherwise the donor's exported
    /// seed, computing the donor's prediction on first demand.
    ///
    /// The donor computation is contained and runs under its own
    /// options-derived deadline, so a panicking, failing, or
    /// deadline-bound donor costs the group its seed — every sibling
    /// then solves cold — but never a wrong or schedule-dependent
    /// result.
    fn seed_for(&self, scenarios: &[SweepScenario<'_>], i: usize) -> Option<IlpSeed> {
        let group = self.prep_of[i];
        let donor = self.donor_of[group];
        if donor == i {
            return None;
        }
        self.seeds[group]
            .get_or_init(|| {
                let sc = &scenarios[donor];
                let mut options = sc.options.clone();
                options.inject_panic = false;
                let deadline = RunDeadline::within_ms(options.deadline_ms);
                contain(|| {
                    let prepared = self.prepared(scenarios, donor);
                    predict_prepared_seeded(
                        sc.module,
                        sc.params,
                        &sc.workload,
                        &options,
                        prepared,
                        &deadline,
                        None,
                    )
                    .ok()
                    .and_then(|p| p.mapping.ilp_seed)
                })
                .unwrap_or(None)
            })
            .clone()
    }

    /// Offer donor cell `i`'s own prediction as its group's seed. It is
    /// the solve [`Self::seed_for`] would run — same scenario, same
    /// prepared inputs, no seed — only when nothing timed can have cut
    /// it short: no panic hook, no wall-clock deadline in the cell's
    /// options or on the cell, and no cancel token. Otherwise (a
    /// supervised cell, a cell with a deadline) `seed_for` solves the
    /// donor itself, as before.
    fn publish(
        &self,
        scenarios: &[SweepScenario<'_>],
        i: usize,
        deadline: &RunDeadline,
        prediction: &Result<Prediction, PredictError>,
    ) {
        let group = self.prep_of[i];
        let options = &scenarios[i].options;
        if self.donor_of[group] == i
            && !options.inject_panic
            && options.deadline_ms.is_none()
            && deadline.is_unlimited()
        {
            let seed = prediction.as_ref().ok().and_then(|p| p.mapping.ilp_seed.clone());
            // Another worker may have solved the donor first: same seed.
            let _ = self.seeds[group].set(seed);
        }
    }
}

/// Run scenario `i` under `deadline` with panics contained to the cell.
/// Plain and validation sweeps arm the deadline from the cell's own
/// `deadline_ms`; [`crate::supervisor`] combines its run-wide deadline
/// and cancel token with it.
pub(crate) fn run_cell(
    scenarios: &[SweepScenario<'_>],
    share: &PrepShare,
    i: usize,
    deadline: &RunDeadline,
) -> Result<Prediction, PredictError> {
    contain(|| {
        let sc = &scenarios[i];
        let prepared = share.prepared(scenarios, i);
        let seed = share.seed_for(scenarios, i);
        let prediction = predict_prepared_seeded(
            sc.module,
            sc.params,
            &sc.workload,
            &sc.options,
            prepared,
            deadline,
            seed.as_ref(),
        );
        share.publish(scenarios, i, deadline, &prediction);
        prediction
    })
    .unwrap_or_else(|payload| Err(PredictError::Panicked { cell: i, payload }))
}

/// Run every scenario and return predictions in input order.
///
/// The expensive rate-independent inputs (CIR interpreter class
/// profiles, Zipf cache model) are computed once per prep group and
/// shared — a 4×4×4 rate/payload/flows grid does the interpreter work 16
/// times, not 64. Because predictions are pure functions of those shared
/// inputs, sharing never changes a result.
///
/// `threads == 0` uses [`std::thread::available_parallelism`];
/// `threads <= 1` runs inline on the caller's thread (no pool, same
/// results). A cell that panics yields [`PredictError::Panicked`] for
/// that cell only; siblings complete normally.
pub fn run_sweep<'a>(
    scenarios: &[SweepScenario<'a>],
    threads: usize,
) -> Vec<Result<Prediction, PredictError>> {
    let share = PrepShare::build(scenarios);
    fan_out(scenarios.len(), threads, || (), |i, _| {
        let deadline = RunDeadline::within_ms(scenarios[i].options.deadline_ms);
        run_cell(scenarios, &share, i, &deadline)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_cir::lower;
    use clara_lang::frontend;
    use clara_lnic::profiles;
    use clara_microbench::extract_parameters;
    use proptest::prelude::*;
    use std::sync::OnceLock as Cell;

    fn params() -> &'static NicParameters {
        static P: Cell<NicParameters> = Cell::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    fn module() -> CirModule {
        let src = r#"nf nat {
            state flow_table: map<u64, u64>[65536];
            fn handle(pkt: packet) -> action {
                dpdk.parse_headers(pkt);
                let entry: u64 = flow_table.lookup(hash(pkt.src_ip, pkt.src_port));
                let ck: u16 = checksum(pkt);
                return forward;
            } }"#;
        lower(&frontend(src).unwrap()).unwrap()
    }

    fn grid<'a>(module: &'a CirModule, params: &'a NicParameters) -> Vec<SweepScenario<'a>> {
        let mut out = Vec::new();
        for rate in [20_000.0, 200_000.0] {
            for payload in [100.0, 1400.0] {
                out.push(SweepScenario {
                    label: format!("rate={rate} payload={payload}"),
                    module,
                    params,
                    workload: WorkloadProfile {
                        rate_pps: rate,
                        avg_payload: payload,
                        max_payload: payload as usize,
                        ..WorkloadProfile::paper_default()
                    },
                    options: PredictOptions::default(),
                });
            }
        }
        out
    }

    #[test]
    fn sweep_matches_sequential_predictions() {
        let m = module();
        let p = params();
        let scenarios = grid(&m, p);
        let seq = run_sweep(&scenarios, 1);
        let par = run_sweep(&scenarios, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            // Bit-identical, not merely close: same inputs, same code
            // path, slot-ordered output.
            assert_eq!(a.avg_latency_cycles.to_bits(), b.avg_latency_cycles.to_bits());
            assert_eq!(a.throughput_pps.to_bits(), b.throughput_pps.to_bits());
            assert_eq!(a.mapping.node_unit, b.mapping.node_unit);
        }
    }

    #[test]
    fn sweep_reports_per_cell_errors() {
        let m = module();
        let p = params();
        let mut scenarios = grid(&m, p);
        scenarios[1].options.pin_state = vec![("nope".into(), "emem".into())];
        let out = run_sweep(&scenarios, 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err(), "bad pin must fail only its own cell");
        assert!(out[2].is_ok());
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let m = module();
        let p = params();
        let mut scenarios = grid(&m, p);
        scenarios[2].options.inject_panic = true;
        for threads in [1, 4] {
            let out = run_sweep(&scenarios, threads);
            assert!(out[0].is_ok());
            assert!(out[1].is_ok());
            match &out[2] {
                Err(PredictError::Panicked { cell: 2, payload }) => {
                    assert!(payload.contains("injected panic"), "{payload}");
                }
                other => panic!("expected Panicked for cell 2, got {other:?}"),
            }
            assert!(out[3].is_ok());
        }
    }

    /// Sequential all-healthy reference results, as bit patterns of
    /// `(avg_latency_cycles, throughput_pps)`. Predictions are pure
    /// functions of scenario *contents*, so one cached baseline is valid
    /// for every freshly lowered copy of the same module.
    fn baseline_bits() -> &'static Vec<(u64, u64)> {
        static B: Cell<Vec<(u64, u64)>> = Cell::new();
        B.get_or_init(|| {
            let m = module();
            let p = params();
            run_sweep(&grid(&m, p), 1)
                .into_iter()
                .map(|r| {
                    let r = r.unwrap();
                    (r.avg_latency_cycles.to_bits(), r.throughput_pps.to_bits())
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Randomly injected panics never lose or reorder sibling
        /// results: every healthy cell stays bit-identical to its
        /// sequential all-healthy counterpart, and every panicking cell
        /// reports its own index.
        #[test]
        fn random_panic_masks_never_corrupt_siblings(mask in proptest::collection::vec(any::<bool>(), 4)) {
            let m = module();
            let p = params();
            let baseline = baseline_bits();

            let mut scenarios = grid(&m, p);
            for (sc, &panic_me) in scenarios.iter_mut().zip(&mask) {
                sc.options.inject_panic = panic_me;
            }
            let out = run_sweep(&scenarios, 4);
            prop_assert_eq!(out.len(), scenarios.len());
            for (i, res) in out.iter().enumerate() {
                if mask[i] {
                    match res {
                        Err(PredictError::Panicked { cell, .. }) => prop_assert_eq!(*cell, i),
                        other => return Err(TestCaseError::fail(format!(
                            "cell {i} should have panicked, got {other:?}"
                        ))),
                    }
                } else {
                    let got = res.as_ref().unwrap();
                    prop_assert_eq!(baseline[i].0, got.avg_latency_cycles.to_bits());
                    prop_assert_eq!(baseline[i].1, got.throughput_pps.to_bits());
                }
            }
        }
    }
}
