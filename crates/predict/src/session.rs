//! Reusable prediction sessions: the one-shot pipeline refactored into a
//! long-lived object that amortizes its expensive phases across requests.
//!
//! The one-shot path (`frontend → lower → prepare → solve`) re-does
//! everything per call. A server answering many requests for the same NF
//! wastes most of that: parsing/lowering depends only on the source, and
//! `prepare`'s class profiles + cache model depend only on the
//! workload's *rate-independent* fields. [`NfSession`] owns the lowered
//! module and NIC parameters once, and caches one `Prepared` per
//! [`ClassKey`] (the same workload-class key a sweep's prep groups use),
//! so repeated requests skip straight to the rate-dependent solve.
//!
//! Concurrency: every method takes `&self`; the cache is a mutex-held
//! map of `Arc<Prepared>` entries, and the lock is never held across a
//! `prepare` or a solve. Two threads racing on a cold key may both
//! compute it (benign: `prepare` is pure, first insert wins), which
//! keeps the hot hit path a single short lock.
//!
//! Fault containment: sessions are shared across panic-isolated workers,
//! so a panic mid-request must not leave torn state behind. Nothing in
//! the session is mutated during a prediction (the cache is only
//! touched before/after), but a panicking request's inputs are suspect —
//! [`NfSession::quarantine`] evicts the class entry the request used so
//! the next request on that key recomputes from scratch.
//!
//! Determinism: a session prediction is bit-identical to the one-shot
//! [`crate::predict_with_options`] path — `prepare` is a pure function
//! of `(module, params, workload-class)`, so replaying a cached
//! `Prepared` replays exactly the value the one-shot path would have
//! computed. (Cross-cell ILP warm starts are deliberately *not* used
//! here: a donated seed is only bit-identity-checked within one sweep,
//! and a serving cache must never make the same request return different
//! bits depending on what happened to be cached.)

use crate::predictor::{
    predict_prepared_limited, prepare, ClassKey, PredictError, PredictOptions, Prediction,
    Prepared,
};
use clara_cir::CirModule;
use clara_map::RunDeadline;
use clara_microbench::NicParameters;
use clara_nicsim::CostCache;
use clara_workload::WorkloadProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache effectiveness counters of one session (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Predictions served from a cached `Prepared`.
    pub prepared_hits: u64,
    /// Predictions that had to compute their `Prepared` first.
    pub prepared_misses: u64,
    /// Class entries evicted by [`NfSession::quarantine`].
    pub quarantined: u64,
    /// Simulator stage costs resolved from the session's shared
    /// [`CostCache`] (cross-request reuse; see `SimStats::memo_hits`).
    pub sim_memo_hits: u64,
    /// Simulator stage costs computed (then published) by requests over
    /// this session.
    pub sim_memo_misses: u64,
    /// Fingerprint views currently interned in the session's cost cache
    /// (drops to 0 after a quarantine purge).
    pub sim_cost_views: u64,
}

/// A long-lived prediction pipeline for one `(NF, target)` pair: the
/// lowered module and measured parameters held once, rate-independent
/// `Prepared` state cached per workload class.
#[derive(Debug)]
pub struct NfSession {
    module: CirModule,
    params: Arc<NicParameters>,
    preps: Mutex<HashMap<ClassKey, Arc<Prepared>>>,
    /// Shared simulator stage-cost cache for validate requests over this
    /// session: repeated requests for the same `(NF, NIC)` replay pure
    /// stage costs instead of re-costing. Keyed internally by post-fault
    /// run fingerprints, so sharing never changes simulated bits.
    sim_costs: Arc<CostCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
}

impl NfSession {
    /// Build a session by running the frontend and lowering once.
    /// Frontend/lowering failures surface as the same errors the
    /// one-shot path reports; no session is created for a bad source.
    pub fn from_source(
        source: &str,
        params: Arc<NicParameters>,
    ) -> Result<Self, SessionBuildError> {
        let ast = clara_lang::frontend(source).map_err(SessionBuildError::Frontend)?;
        let module = clara_cir::lower(&ast).map_err(SessionBuildError::Lower)?;
        Ok(NfSession::from_module(module, params))
    }

    /// Build a session around an already-lowered module.
    pub fn from_module(module: CirModule, params: Arc<NicParameters>) -> Self {
        NfSession {
            module,
            params,
            preps: Mutex::new(HashMap::new()),
            sim_costs: Arc::new(CostCache::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The session's lowered module.
    pub fn module(&self) -> &CirModule {
        &self.module
    }

    /// The session's NIC parameters.
    pub fn params(&self) -> &NicParameters {
        &self.params
    }

    /// The session's shared simulator cost cache. Pass it as
    /// `ValidationConfig::cost_cache` (or attach it to a `SimScratch`)
    /// so validate requests over this session reuse each other's pure
    /// stage costs.
    pub fn cost_cache(&self) -> &Arc<CostCache> {
        &self.sim_costs
    }

    /// Predict under `workload`, reusing the class's cached `Prepared`
    /// when one exists. Bit-identical to the one-shot
    /// [`crate::predict_with_options`] on the same inputs. The deadline
    /// is threaded cooperatively into the solver, so an expired or
    /// cancelled request stops mid-solve instead of running to
    /// completion.
    pub fn predict(
        &self,
        workload: &WorkloadProfile,
        options: &PredictOptions,
        deadline: &RunDeadline,
    ) -> Result<Prediction, PredictError> {
        let prepared = self.prepared(workload);
        predict_prepared_limited(&self.module, &self.params, workload, options, &prepared, deadline)
    }

    /// The cached (or freshly computed) rate-independent inputs for
    /// `workload`'s class.
    fn prepared(&self, workload: &WorkloadProfile) -> Arc<Prepared> {
        let key = ClassKey::of(workload);
        if let Some(p) = self.preps.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(p);
        }
        // Compute outside the lock: a slow prepare must not serialize
        // unrelated classes. A racing thread may duplicate the work;
        // `prepare` is pure, so whichever insert lands first is the
        // value everyone replays.
        self.misses.fetch_add(1, Ordering::Relaxed);
        // One thread: a session's callers (the daemon's workers) are the
        // parallelism, so a cold class spawns no threads of its own.
        let fresh = Arc::new(prepare(&self.module, &self.params, workload, 1));
        let mut map = self.preps.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(key).or_insert(fresh))
    }

    /// Evict the cache entry `workload`'s class used. Called when a
    /// request over this session panicked: the entry is very likely
    /// fine (predictions don't mutate it), but a poisoned request's
    /// inputs are suspect and recomputing one `Prepared` is cheap
    /// relative to serving a corrupted one forever.
    pub fn quarantine(&self, workload: &WorkloadProfile) {
        let evicted = self
            .preps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&ClassKey::of(workload))
            .is_some();
        if evicted {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        // The simulator cost cache is evicted wholesale: its views are
        // keyed by run fingerprint, not workload class, so there is no
        // per-class entry to target — and stage costs are cheap to
        // recompute relative to trusting state a panicking request may
        // have touched. Hit/miss history survives (it describes the
        // past, not the contents).
        self.sim_costs.purge();
    }

    /// Number of distinct workload classes currently cached.
    pub fn cached_classes(&self) -> usize {
        self.preps.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Snapshot of the session's cache counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            prepared_hits: self.hits.load(Ordering::Relaxed),
            prepared_misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            sim_memo_hits: self.sim_costs.hits(),
            sim_memo_misses: self.sim_costs.misses(),
            sim_cost_views: self.sim_costs.views() as u64,
        }
    }
}

/// Why a session could not be built (the request never reached the
/// predictor).
#[derive(Debug)]
pub enum SessionBuildError {
    /// The NF source failed to parse or type-check.
    Frontend(clara_lang::LangError),
    /// Lowering to CIR failed.
    Lower(clara_cir::LowerError),
}

impl core::fmt::Display for SessionBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionBuildError::Frontend(e) => write!(f, "frontend error: {e}"),
            SessionBuildError::Lower(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl std::error::Error for SessionBuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::predict_with_options;
    use clara_lnic::profiles;
    use clara_microbench::extract_parameters;
    use std::sync::OnceLock;

    const SRC: &str = r#"nf nat {
        state flow_table: map<u64, u64>[65536];
        fn handle(pkt: packet) -> action {
            dpdk.parse_headers(pkt);
            let entry: u64 = flow_table.lookup(hash(pkt.src_ip, pkt.src_port));
            let ck: u16 = checksum(pkt);
            return forward;
        } }"#;

    fn params() -> Arc<NicParameters> {
        static P: OnceLock<Arc<NicParameters>> = OnceLock::new();
        Arc::clone(
            P.get_or_init(|| Arc::new(extract_parameters(&profiles::netronome_agilio_cx40()))),
        )
    }

    #[test]
    fn session_predictions_bit_identical_to_one_shot() {
        let session = NfSession::from_source(SRC, params()).unwrap();
        for rate in [20_000.0, 60_000.0, 600_000.0] {
            let wl = WorkloadProfile { rate_pps: rate, ..WorkloadProfile::paper_default() };
            let fresh =
                predict_with_options(session.module(), &params(), &wl, PredictOptions::default())
                    .unwrap();
            let cached = session
                .predict(&wl, &PredictOptions::default(), &RunDeadline::none())
                .unwrap();
            assert_eq!(fresh.avg_latency_cycles.to_bits(), cached.avg_latency_cycles.to_bits());
            assert_eq!(fresh.throughput_pps.to_bits(), cached.throughput_pps.to_bits());
            assert_eq!(fresh.mapping.node_unit, cached.mapping.node_unit);
        }
        // Three rates, one class: one miss, two hits.
        let stats = session.stats();
        assert_eq!((stats.prepared_misses, stats.prepared_hits), (1, 2));
        assert_eq!(session.cached_classes(), 1);
    }

    #[test]
    fn distinct_classes_get_distinct_entries() {
        let session = NfSession::from_source(SRC, params()).unwrap();
        let a = WorkloadProfile::paper_default();
        let b = WorkloadProfile { flows: 50_000, ..a.clone() };
        let d = RunDeadline::none();
        session.predict(&a, &PredictOptions::default(), &d).unwrap();
        session.predict(&b, &PredictOptions::default(), &d).unwrap();
        assert_eq!(session.cached_classes(), 2);
    }

    #[test]
    fn quarantine_evicts_and_recomputes() {
        let session = NfSession::from_source(SRC, params()).unwrap();
        let wl = WorkloadProfile::paper_default();
        let d = RunDeadline::none();
        let before = session.predict(&wl, &PredictOptions::default(), &d).unwrap();
        session.quarantine(&wl);
        assert_eq!(session.cached_classes(), 0);
        assert_eq!(session.stats().quarantined, 1);
        // Quarantining an absent key is a no-op, not a double count.
        session.quarantine(&wl);
        assert_eq!(session.stats().quarantined, 1);
        let after = session.predict(&wl, &PredictOptions::default(), &d).unwrap();
        assert_eq!(before.avg_latency_cycles.to_bits(), after.avg_latency_cycles.to_bits());
    }

    #[test]
    fn quarantine_purges_sim_cost_cache() {
        use crate::validate::{run_validation_sweep, validation_grid, ValidationConfig};
        use clara_nicsim::{MicroOp, NicProgram, Stage, StageUnit, TableCfg};
        let session = NfSession::from_source(SRC, params()).unwrap();
        // Multi-stage program: the parse stage is Fixed and the checksum
        // stage PayloadPure, so validate runs intern views in the
        // session's cache.
        let program = NicProgram {
            name: "nat".into(),
            tables: vec![TableCfg {
                name: "flow_table".into(),
                mem: "emem".into(),
                entry_bytes: 16,
                entries: 65_536,
                use_flow_cache: true,
            }],
            stages: vec![
                Stage {
                    name: "parse".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::ParseHeader, MicroOp::Hash { count: 1 }],
                },
                Stage {
                    name: "lookup".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::TableLookup { table: 0 }],
                },
                Stage {
                    name: "checksum".into(),
                    unit: StageUnit::Npu,
                    ops: vec![MicroOp::ChecksumSw],
                },
            ],
        };
        let nic = profiles::netronome_agilio_cx40();
        let cfg = ValidationConfig {
            threads: 1,
            packets: 400,
            cost_cache: Some(Arc::clone(session.cost_cache())),
            ..ValidationConfig::default()
        };
        run_validation_sweep(
            session.module(),
            session.params(),
            &nic,
            &program,
            &validation_grid(1),
            &cfg,
        );
        let st = session.stats();
        assert!(st.sim_cost_views > 0, "validate runs must intern views: {st:?}");
        assert!(st.sim_memo_misses > 0, "first runs publish, not hit: {st:?}");
        session.quarantine(&WorkloadProfile::paper_default());
        let st = session.stats();
        assert_eq!(st.sim_cost_views, 0, "quarantine evicts the cost cache wholesale");
        assert!(st.sim_memo_misses > 0, "hit/miss history survives the purge");
    }

    #[test]
    fn expired_deadline_times_out() {
        let session = NfSession::from_source(SRC, params()).unwrap();
        let wl = WorkloadProfile::paper_default();
        let err = session
            .predict(&wl, &PredictOptions::default(), &RunDeadline::within_ms(Some(0)))
            .unwrap_err();
        assert!(matches!(err, PredictError::TimedOut), "{err}");
    }

    #[test]
    fn bad_source_never_builds_a_session() {
        let err = NfSession::from_source("nf broken {", params()).unwrap_err();
        assert!(matches!(err, SessionBuildError::Frontend(_)), "{err}");
    }
}
