//! Shared, concurrency-safe stage-cost caches.
//!
//! The batch kernels cost each (unit group, payload length) class once
//! per run, in a class table the next run clears: without sharing, every
//! sweep cell, every validate worker, and every `clara serve` request
//! re-pays the expensive classes (a 1400-byte DFA payload walk is ~1400
//! memory-model accesses *per payload length*). This module hoists those
//! class costs into a [`CostCache`] that outlives runs and is safe to
//! share across threads:
//!
//! - The cache is keyed by a **run fingerprint** — a compact token
//!   stream encoding every input a pure stage cost can read, *after*
//!   fault application (unit cost models and FPUs, post-fault raw
//!   latencies and bulk rates of every reachable region, cache presence
//!   per region, table geometry, program stages, per-stage fault
//!   stalls). Equal fingerprints imply equal pure costs for every
//!   `(stage, unit[, payload_len])` signature, so a view may be shared
//!   across sweep cells, fan-out workers, and serve sessions for the
//!   same `(NF, NIC, faults)`. The encoding is binary (`u64` tokens in
//!   a fixed traversal order, length-prefixed), not a formatted string:
//!   fingerprints are built once per run on the sweep hot path, and
//!   `fmt` machinery there costs more than the whole batched kernel.
//! - Each fingerprint interns one [`CostView`]: sharded read-mostly
//!   maps from hash-consed signatures (`stage` and `unit` packed into
//!   one word, payload length alongside) to the cost the exact scalar
//!   path computed. Lookups take a shard read lock; inserts are benign
//!   to race because every writer computes the identical value from the
//!   identical pure inputs — last write wins with the same bits.
//! - Hit/miss counters are atomics on the cache, bumped once per run
//!   (not per lookup) with that run's tallies; the same tallies land in
//!   `SimStats::{memo_hits, memo_misses}` for instrumented runs.
//!
//! Nothing here weakens the fidelity contract. The shared path only
//! *replays* costs that the exact `stage_cost` produced under the same
//! fingerprint. Without a cache, each run's class table is its only
//! reuse, and [`crate::SimConfig::exact`] (the scalar loop) reads
//! neither.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Shard count per view. Payload-pure signatures are sharded by payload
/// length, so concurrent sweep cells costing different packet sizes
/// rarely contend on one lock.
const SHARDS: usize = 8;

/// One fingerprint's cost tables.
///
/// Obtained from `CostCache::view`; the engine resolves a view once
/// per batched run, and the kernels consult it when a class first
/// appears.
pub struct CostView {
    shards: Vec<RwLock<ViewShard>>,
}

#[derive(Default)]
struct ViewShard {
    /// `(stage, unit)` signatures, packed `stage << 32 | unit`.
    fixed: HashMap<u64, u64>,
    /// `(stage, unit, payload_len)` signatures.
    payload: HashMap<(u64, u64), u64>,
}

#[inline]
fn pack(si: u32, unit: u32) -> u64 {
    (u64::from(si) << 32) | u64::from(unit)
}

impl CostView {
    fn new() -> Self {
        CostView { shards: (0..SHARDS).map(|_| RwLock::new(ViewShard::default())).collect() }
    }

    #[inline]
    fn shard_of(&self, key: u64) -> &RwLock<ViewShard> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Cost of a `Fixed` signature, if some run already computed it.
    pub(crate) fn get_fixed(&self, si: u32, unit: u32) -> Option<u64> {
        let key = pack(si, unit);
        self.shard_of(key).read().ok()?.fixed.get(&key).copied()
    }

    pub(crate) fn put_fixed(&self, si: u32, unit: u32, cost: u64) {
        let key = pack(si, unit);
        if let Ok(mut s) = self.shard_of(key).write() {
            s.fixed.insert(key, cost);
        }
    }

    /// Cost of a `PayloadPure` signature, if some run already computed it.
    pub(crate) fn get_payload(&self, si: u32, unit: u32, len: u64) -> Option<u64> {
        self.shard_of(len).read().ok()?.payload.get(&(pack(si, unit), len)).copied()
    }

    pub(crate) fn put_payload(&self, si: u32, unit: u32, len: u64, cost: u64) {
        if let Ok(mut s) = self.shard_of(len).write() {
            s.payload.insert((pack(si, unit), len), cost);
        }
    }

    /// Total signatures cached in this view (tests and stats).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().map(|s| s.fixed.len() + s.payload.len()).unwrap_or(0))
            .sum()
    }

    /// Whether the view holds no signatures yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shared stage-cost cache: fingerprints interned to [`CostView`]s,
/// plus cache-wide hit/miss atomics.
///
/// Create one per sweep (donated to every worker, like the ILP warm
/// starts) or one per serve session (shared across requests); attach it
/// to a [`crate::SimScratch`] with
/// [`crate::SimScratch::attach_cost_cache`].
#[derive(Default)]
pub struct CostCache {
    views: RwLock<HashMap<Vec<u64>, Arc<CostView>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CostCache {
    /// An empty cache.
    pub fn new() -> Self {
        CostCache::default()
    }

    /// Intern `fingerprint`, returning its view (creating it on first
    /// sight). Keys are the full fingerprint token stream, not its
    /// hash, so distinct run configurations can never alias a view.
    pub(crate) fn view(&self, fingerprint: &[u64]) -> Arc<CostView> {
        if let Ok(views) = self.views.read() {
            if let Some(v) = views.get(fingerprint) {
                return Arc::clone(v);
            }
        }
        let mut views = match self.views.write() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(
            views.entry(fingerprint.to_vec()).or_insert_with(|| Arc::new(CostView::new())),
        )
    }

    /// Fold one run's shared-layer resolution tallies into the cache-wide
    /// counters.
    pub(crate) fn record(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Shared-layer hits since creation: class stage costs a batch
    /// kernel found here instead of computing. A run resolves each class
    /// once, so this measures *cross-run* reuse.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Shared-layer misses since creation (signatures that had to be
    /// computed by the exact path before being published).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit rate over all shared-layer resolutions (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of interned fingerprint views.
    pub fn views(&self) -> usize {
        self.views.read().map(|v| v.len()).unwrap_or(0)
    }

    /// Total cached signatures across all views.
    pub fn len(&self) -> usize {
        self.views.read().map(|v| v.values().map(|view| view.len()).sum()).unwrap_or(0)
    }

    /// Whether no signatures are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every view (quarantine: a panicking run may have left a
    /// half-poisoned process; costs are cheap to recompute, so evict
    /// rather than trust). Hit/miss counters are preserved — they
    /// describe history, not contents.
    pub fn purge(&self) {
        if let Ok(mut views) = self.views.write() {
            views.clear();
        }
    }
}

impl fmt::Debug for CostCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CostCache")
            .field("views", &self.views())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_interning_and_purge() {
        let cache = CostCache::new();
        let a = cache.view(&[1, 2, 3]);
        let a2 = cache.view(&[1, 2, 3]);
        let b = cache.view(&[1, 2, 4]);
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.views(), 2);

        a.put_fixed(0, 3, 42);
        a.put_payload(1, 3, 700, 99);
        assert_eq!(a.get_fixed(0, 3), Some(42));
        assert_eq!(a.get_payload(1, 3, 700), Some(99));
        assert_eq!(a.get_payload(1, 3, 701), None);
        assert_eq!(cache.len(), 2);

        cache.record(5, 2);
        cache.purge();
        assert_eq!(cache.views(), 0);
        assert_eq!(cache.len(), 0);
        // Counters describe history and survive the purge.
        assert_eq!((cache.hits(), cache.misses()), (5, 2));
        assert!((cache.hit_rate() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_fingerprints_never_alias() {
        let cache = CostCache::new();
        cache.view(&[7]).put_fixed(0, 0, 1);
        assert_eq!(cache.view(&[8]).get_fixed(0, 0), None);
        // A prefix is a distinct key, not an alias.
        assert_eq!(cache.view(&[7, 0]).get_fixed(0, 0), None);
    }

    #[test]
    fn concurrent_inserts_agree() {
        let cache = Arc::new(CostCache::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    let v = cache.view(&[42]);
                    for len in 0..256u64 {
                        // Every writer computes the same pure value.
                        v.put_payload(0, 0, len, len * 3);
                    }
                });
            }
        });
        let v = cache.view(&[42]);
        for len in 0..256u64 {
            assert_eq!(v.get_payload(0, 0, len), Some(len * 3));
        }
        assert_eq!(cache.views(), 1);
    }
}
