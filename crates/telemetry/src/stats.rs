//! Counter bundles for the two compute-heavy layers: the ILP solver and
//! the NIC simulator.
//!
//! Both are plain data, deterministic for identical inputs (nothing here
//! is keyed on wall-clock), and mergeable so sweeps can aggregate
//! per-cell stats into one run-level view.

/// What one branch-and-bound ILP solve did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes popped from the frontier.
    pub nodes_explored: u64,
    /// LP relaxations solved (cold or warm).
    pub lp_solves: u64,
    /// Simplex pivots across all relaxations (primal + dual).
    pub simplex_pivots: u64,
    /// Warm-started relaxations whose warm basis was accepted.
    pub warm_start_hits: u64,
    /// Warm-started relaxations that fell back to a cold solve.
    pub warm_start_misses: u64,
    /// Relaxations answered from the bound-vector memo without any LP.
    pub memo_hits: u64,
    /// Cross-cell warm starts accepted: the solve was seeded with an
    /// adjacent sweep cell's incumbent (and root basis) and the seed
    /// passed feasibility verification.
    pub cell_warm_hits: u64,
    /// Cross-cell warm starts offered but rejected (seed infeasible or
    /// out of bounds for this cell): the solve ran cold.
    pub cell_warm_misses: u64,
    /// Incumbent improvements as `(nodes_explored_at_improvement,
    /// objective)` pairs — the solver's convergence curve, keyed on node
    /// count (not time) so identical solves record identical
    /// trajectories.
    pub incumbent_trajectory: Vec<(u64, f64)>,
    /// Whether branch-and-bound ran to completion.
    pub proven_optimal: bool,
}

impl SolveStats {
    /// Fold `other` into `self`: counters add, `proven_optimal` ANDs,
    /// and the (per-solve) trajectory is left untouched — a merged view
    /// has no single convergence curve.
    pub fn merge(&mut self, other: &SolveStats) {
        self.nodes_explored += other.nodes_explored;
        self.lp_solves += other.lp_solves;
        self.simplex_pivots += other.simplex_pivots;
        self.warm_start_hits += other.warm_start_hits;
        self.warm_start_misses += other.warm_start_misses;
        self.memo_hits += other.memo_hits;
        self.cell_warm_hits += other.cell_warm_hits;
        self.cell_warm_misses += other.cell_warm_misses;
        self.proven_optimal &= other.proven_optimal;
    }

    /// Compact one-line summary for per-cell report rows.
    pub fn summary(&self) -> String {
        format!(
            "ilp: nodes={} pivots={} warm={}/{} memo={} cell-warm={}/{}",
            self.nodes_explored,
            self.simplex_pivots,
            self.warm_start_hits,
            self.warm_start_hits + self.warm_start_misses,
            self.memo_hits,
            self.cell_warm_hits,
            self.cell_warm_hits + self.cell_warm_misses,
        )
    }
}

/// Occupancy of one NPU island's thread pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IslandStats {
    /// Island index.
    pub island: usize,
    /// Hardware threads the island contributes.
    pub threads: u64,
    /// Cycles those threads spent processing packets.
    pub busy_cycles: u64,
}

impl IslandStats {
    /// Busy fraction of the island over a run spanning `span_cycles`.
    pub fn occupancy(&self, span_cycles: u64) -> f64 {
        let capacity = self.threads.saturating_mul(span_cycles);
        if capacity == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / capacity as f64
        }
    }
}

/// Access count of one memory level.
///
/// Counts *computed* accesses: the simulator's batch kernels cost each
/// class of packets once and replay that cost without re-touching the
/// memory model, so batched runs legitimately report fewer accesses
/// than exact runs. EMEM *cache* statistics are exact in both modes
/// (cached regions are always simulated live).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemLevelStats {
    /// Region name (`lmem`, `ctm0`, `imem`, `emem`, ...).
    pub name: String,
    /// Accesses issued against the region.
    pub accesses: u64,
}

/// One accelerator's queueing behavior (single-server FIFO).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccelStats {
    /// Accelerator name (`checksum`, `crypto`, `flow-cache`, `lpm`).
    pub name: String,
    /// Calls serviced.
    pub calls: u64,
    /// Cycles the engine spent serving calls.
    pub busy_cycles: u64,
    /// Cycles callers spent head-of-line blocked behind earlier calls.
    pub hol_stall_cycles: u64,
    /// High-water mark of requests queued (including the one in
    /// service) at any call's arrival.
    pub queue_highwater: u64,
}

/// What one simulation run observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Packets offered to ingress.
    pub injected: u64,
    /// Packets that completed processing (truncated packets complete).
    pub completed: u64,
    /// Packets truncated by fault injection (processed, shorter).
    pub truncated: u64,
    /// Drops: ingress queue overflow.
    pub overflow_drops: u64,
    /// Drops: fault-injected packet corruption.
    pub fault_corrupt_drops: u64,
    /// Drops: a required offline accelerator (fault-injected outage).
    pub fault_accel_drops: u64,
    /// Runs aborted by the simulation watchdog (filled by the caller
    /// that observed the watchdog error; a tripped run reports no other
    /// counters).
    pub watchdog_trips: u64,
    /// Packets whose costs came from the batched struct-of-arrays
    /// kernel (equals `completed` when the batch path ran, 0 when the
    /// scalar loop did — a silent fallback is visible here).
    pub batch_packets: u64,
    /// Packets completed by the partial-run batch kernel (Live stages
    /// present; pure stages columnized, live ones replayed). Disjoint
    /// from `batch_packets` — a run takes one kernel or the other.
    pub batch_partial_packets: u64,
    /// Packets not simulated in full: a cell of a family that
    /// `clara-nicsim`'s `simulate_rates` replayed from a recorded service
    /// column, or handed the previous cell's equal result (equals
    /// `completed` for such a cell, 0 on every other path). Disjoint from
    /// both batch counters.
    pub replayed_packets: u64,
    /// Class stage costs the batch kernels resolved from a shared
    /// cross-run cost cache (`clara-nicsim`'s `CostCache`) without
    /// recomputation. Zero when no cache is attached or no kernel ran.
    pub memo_hits: u64,
    /// Class stage costs the batch kernels had to compute by the exact
    /// path this run (then published when a shared cache was attached).
    pub memo_misses: u64,
    /// Per-island thread occupancy.
    pub islands: Vec<IslandStats>,
    /// Per-memory-level access counts.
    pub mem_levels: Vec<MemLevelStats>,
    /// EMEM cache hits.
    pub emem_cache_hits: u64,
    /// EMEM cache misses.
    pub emem_cache_misses: u64,
    /// Per-accelerator queue stats.
    pub accels: Vec<AccelStats>,
    /// Transfers over the island switch fabric: accesses leaving an
    /// island (shared IMEM/EMEM traffic) plus accelerator calls.
    pub switch_transfers: u64,
    /// Makespan of the run in cycles (last completion).
    pub span_cycles: u64,
}

impl SimStats {
    /// Total drops across all causes.
    pub fn dropped_total(&self) -> u64 {
        self.overflow_drops + self.fault_corrupt_drops + self.fault_accel_drops
    }

    /// Packet conservation: every injected packet either completed or
    /// is accounted to exactly one drop cause, and the batch kernels and
    /// replays never claim more packets than actually completed (each
    /// covers whole runs, and a run takes at most one of them).
    pub fn conserved(&self) -> bool {
        self.injected == self.completed + self.dropped_total()
            && self.batch_packets + self.batch_partial_packets + self.replayed_packets
                <= self.completed
    }

    /// EMEM cache hit rate, or `None` when the cache saw no traffic.
    pub fn emem_hit_rate(&self) -> Option<f64> {
        let total = self.emem_cache_hits + self.emem_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.emem_cache_hits as f64 / total as f64)
        }
    }

    /// Fold `other` into `self`, matching islands / memory levels /
    /// accelerators by identity and summing everything else. The merged
    /// `span_cycles` adds (sequential-cell semantics: total simulated
    /// time across cells).
    pub fn merge(&mut self, other: &SimStats) {
        self.injected += other.injected;
        self.completed += other.completed;
        self.truncated += other.truncated;
        self.overflow_drops += other.overflow_drops;
        self.fault_corrupt_drops += other.fault_corrupt_drops;
        self.fault_accel_drops += other.fault_accel_drops;
        self.watchdog_trips += other.watchdog_trips;
        self.batch_packets += other.batch_packets;
        self.batch_partial_packets += other.batch_partial_packets;
        self.replayed_packets += other.replayed_packets;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.emem_cache_hits += other.emem_cache_hits;
        self.emem_cache_misses += other.emem_cache_misses;
        self.switch_transfers += other.switch_transfers;
        self.span_cycles += other.span_cycles;
        for is in &other.islands {
            match self.islands.iter_mut().find(|x| x.island == is.island) {
                Some(x) => {
                    x.busy_cycles += is.busy_cycles;
                    x.threads = x.threads.max(is.threads);
                }
                None => self.islands.push(is.clone()),
            }
        }
        for ml in &other.mem_levels {
            match self.mem_levels.iter_mut().find(|x| x.name == ml.name) {
                Some(x) => x.accesses += ml.accesses,
                None => self.mem_levels.push(ml.clone()),
            }
        }
        for ac in &other.accels {
            match self.accels.iter_mut().find(|x| x.name == ac.name) {
                Some(x) => {
                    x.calls += ac.calls;
                    x.busy_cycles += ac.busy_cycles;
                    x.hol_stall_cycles += ac.hol_stall_cycles;
                    x.queue_highwater = x.queue_highwater.max(ac.queue_highwater);
                }
                None => self.accels.push(ac.clone()),
            }
        }
    }

    /// Compact one-line summary for per-cell report rows.
    pub fn summary(&self) -> String {
        let drops = self.dropped_total();
        let mut s = match self.emem_hit_rate() {
            Some(rate) => format!(
                "sim: injected={} completed={} drops={} emem-hit={:.1}%",
                self.injected,
                self.completed,
                drops,
                rate * 100.0
            ),
            None => format!(
                "sim: injected={} completed={} drops={}",
                self.injected, self.completed, drops
            ),
        };
        if self.batch_packets > 0 {
            s += &format!(" batch={}", self.batch_packets);
        }
        if self.batch_partial_packets > 0 {
            s += &format!(" partial={}", self.batch_partial_packets);
        }
        if self.replayed_packets > 0 {
            s += &format!(" replayed={}", self.replayed_packets);
        }
        if self.memo_hits + self.memo_misses > 0 {
            s += &format!(" memo={}/{}", self.memo_hits, self.memo_hits + self.memo_misses);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_checks_add_up() {
        let s = SimStats {
            injected: 100,
            completed: 90,
            overflow_drops: 4,
            fault_corrupt_drops: 5,
            fault_accel_drops: 1,
            ..SimStats::default()
        };
        assert_eq!(s.dropped_total(), 10);
        assert!(s.conserved());
        let bad = SimStats { completed: 89, ..s };
        assert!(!bad.conserved());
    }

    #[test]
    fn partial_and_memo_counters_conserve_merge_and_summarize() {
        let mut a = SimStats {
            injected: 10,
            completed: 10,
            batch_partial_packets: 10,
            memo_hits: 3,
            memo_misses: 1,
            ..SimStats::default()
        };
        assert!(a.conserved());
        // Full and partial kernels are disjoint: together they can never
        // claim more packets than completed.
        let double = SimStats { batch_packets: 1, ..a.clone() };
        assert!(!double.conserved());
        let b = SimStats {
            injected: 5,
            completed: 5,
            batch_partial_packets: 5,
            memo_hits: 2,
            memo_misses: 0,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.batch_partial_packets, 15);
        assert_eq!((a.memo_hits, a.memo_misses), (5, 1));
        assert!(a.conserved());
        let s = a.summary();
        assert!(s.contains("partial=15"), "{s}");
        assert!(s.contains("memo=5/6"), "{s}");
    }

    #[test]
    fn emem_hit_rate_handles_empty_cache() {
        assert_eq!(SimStats::default().emem_hit_rate(), None);
        let s = SimStats { emem_cache_hits: 3, emem_cache_misses: 1, ..SimStats::default() };
        assert_eq!(s.emem_hit_rate(), Some(0.75));
    }

    #[test]
    fn sim_merge_sums_and_matches_by_identity() {
        let mut a = SimStats {
            injected: 10,
            completed: 10,
            islands: vec![IslandStats { island: 0, threads: 8, busy_cycles: 100 }],
            mem_levels: vec![MemLevelStats { name: "emem".into(), accesses: 5 }],
            accels: vec![AccelStats {
                name: "checksum".into(),
                calls: 2,
                busy_cycles: 40,
                hol_stall_cycles: 3,
                queue_highwater: 1,
            }],
            ..SimStats::default()
        };
        let b = SimStats {
            injected: 7,
            completed: 6,
            overflow_drops: 1,
            islands: vec![
                IslandStats { island: 0, threads: 8, busy_cycles: 50 },
                IslandStats { island: 1, threads: 8, busy_cycles: 25 },
            ],
            mem_levels: vec![MemLevelStats { name: "imem".into(), accesses: 2 }],
            accels: vec![AccelStats {
                name: "checksum".into(),
                calls: 1,
                busy_cycles: 20,
                hol_stall_cycles: 0,
                queue_highwater: 3,
            }],
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.injected, 17);
        assert!(a.conserved());
        assert_eq!(a.islands.len(), 2);
        assert_eq!(a.islands[0].busy_cycles, 150);
        assert_eq!(a.mem_levels.len(), 2);
        assert_eq!(a.accels[0].calls, 3);
        assert_eq!(a.accels[0].queue_highwater, 3);
    }

    #[test]
    fn solve_merge_sums_counters() {
        let mut a = SolveStats {
            nodes_explored: 5,
            simplex_pivots: 40,
            proven_optimal: true,
            incumbent_trajectory: vec![(1, 9.0)],
            ..SolveStats::default()
        };
        let b = SolveStats {
            nodes_explored: 3,
            simplex_pivots: 10,
            warm_start_hits: 2,
            proven_optimal: true,
            ..SolveStats::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes_explored, 8);
        assert_eq!(a.simplex_pivots, 50);
        assert_eq!(a.warm_start_hits, 2);
        assert!(a.proven_optimal);
        assert_eq!(a.incumbent_trajectory, vec![(1, 9.0)]);
    }

    #[test]
    fn island_occupancy_is_bounded() {
        let is = IslandStats { island: 0, threads: 4, busy_cycles: 100 };
        assert!((is.occupancy(50) - 0.5).abs() < 1e-12);
        assert_eq!(is.occupancy(0), 0.0);
    }
}
