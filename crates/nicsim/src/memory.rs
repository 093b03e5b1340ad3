//! Memory-system simulation: set-associative LRU caches and a region
//! allocator resolving accesses to cycle costs.
//!
//! Both keep their state in flat arrays that a run re-initialises in
//! place ([`Cache::reset`], [`MemorySim::reset`]): a
//! [`crate::SimScratch`] owns one memory model and the flow-cache fronts
//! of its tables, so a reused scratch allocates no cache storage per run.

use clara_lnic::{EdgeKind, Lnic, MemId, UnitId};

/// A set-associative cache with move-to-front LRU replacement.
///
/// Tags are full line addresses, held in one flat array of `sets × ways`
/// slots: set `s` owns `tags[s * ways..(s + 1) * ways]`, whose first
/// `fill[s]` slots are live, most recently used first. A hit moves its
/// tag to the front of the set; a miss shifts the live tags back one
/// slot (dropping the last, least recently used, one when the set is
/// full) and installs the new tag in front. Ways ≤ 16 in every profile,
/// so a set is at most two host cache lines of tags, and the shifts are
/// cheaper than timestamp LRU.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    /// Live tags per set; its length is the (power-of-two) set count.
    fill: Vec<u32>,
    line: usize,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache with `capacity` bytes, `line`-byte lines, and
    /// `ways` associativity. Set count is rounded up to a power of two.
    pub fn new(capacity: usize, line: usize, ways: usize) -> Self {
        let mut cache = Cache::unused();
        cache.reset(capacity, line, ways);
        cache
    }

    /// A cache with no sets and no storage: the placeholder for a region
    /// without one, never accessed until [`Cache::reset`] gives it a
    /// geometry.
    fn unused() -> Self {
        Cache { tags: Vec::new(), fill: Vec::new(), line: 1, ways: 1, hits: 0, misses: 0 }
    }

    /// Re-initialise in place to exactly [`Cache::new`]`(capacity, line,
    /// ways)`: every set empty, both counters zero. The buffers keep
    /// their storage, so a reset to the same geometry (or a smaller one)
    /// allocates nothing and rewrites only the per-set fill counts: tags
    /// past a set's fill count are never read.
    pub fn reset(&mut self, capacity: usize, line: usize, ways: usize) {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        let lines = (capacity / line).max(1);
        let sets = (lines / ways).max(1).next_power_of_two();
        let slots = sets * ways;
        if self.tags.capacity() < slots {
            // Fresh zeroed storage: untouched pages cost nothing until a
            // set first fills them.
            self.tags = vec![0; slots];
        } else {
            self.tags.resize(slots, 0);
        }
        self.fill.clear();
        self.fill.resize(sets, 0);
        self.line = line;
        self.ways = ways;
        self.hits = 0;
        self.misses = 0;
    }

    /// Access the line containing `addr`; returns true on hit. Misses
    /// install the line, evicting LRU.
    pub fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.line as u64;
        let set = (line_addr as usize) & (self.fill.len() - 1);
        let live = self.fill[set] as usize;
        let tags = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        if let Some(pos) = tags[..live].iter().position(|&t| t == line_addr) {
            // Move to front (MRU).
            tags.copy_within(0..pos, 1);
            tags[0] = line_addr;
            self.hits += 1;
            true
        } else {
            // Shift back one slot; a full set drops its LRU tag.
            let kept = live.min(self.ways - 1);
            tags.copy_within(0..kept, 1);
            tags[0] = line_addr;
            self.fill[set] = (kept + 1) as u32;
            self.misses += 1;
            false
        }
    }

    /// Line size in bytes.
    pub fn line(&self) -> usize {
        self.line
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Invalidate every line (hit/miss counters are preserved): what a
    /// hostile co-tenant's working set does to ours.
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// Hit ratio so far (0 if no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Simulated memory system over an LNIC: per-region caches, a bump
/// allocator for table placement, and access-cost resolution.
///
/// All topology lookups — which (unit, region) edge applies, which
/// region has a cache — are resolved to plain vector indices at
/// construction (and reset), so [`MemorySim::access`] is straight array
/// arithmetic.
/// The seed scanned the LNIC edge list (hundreds of edges on the
/// Netronome profile) on *every* access, which dominated whole-trace
/// simulations with per-byte payload loops.
///
/// A default `MemorySim` models no regions until [`MemorySim::reset`]
/// sizes it for an LNIC.
#[derive(Debug, Default)]
pub struct MemorySim {
    /// Cache storage per region, indexed by `MemId.0`. A region's cache
    /// is in use only while `cached` says so; the storage outlives
    /// [`MemorySim::disable_cache`] and [`MemorySim::reset`], so a
    /// reused memory model re-initialises it instead of allocating.
    caches: Vec<Cache>,
    /// Whether each region currently has a cache in front of it.
    cached: Vec<bool>,
    /// Cache hit latency per region (0 where there is no cache).
    hit_latency: Vec<u64>,
    /// Bump-allocation cursor per region.
    cursor: Vec<u64>,
    /// Raw access latency for every (unit, region) pair, unit-major:
    /// the region's base latency, plus the extra from the first
    /// matching `MemAccess` edge (same precedence as
    /// [`Lnic::try_access_latency`], which scans edges in order).
    raw: Vec<u64>,
    /// Bulk streaming cost per byte, per region.
    bulk_per_byte: Vec<f64>,
    /// Accesses issued per region (telemetry; never feeds back into
    /// costs).
    accesses: Vec<u64>,
    n_mems: usize,
}

impl MemorySim {
    /// Initialize caches and the latency matrix from the LNIC.
    pub fn new(nic: &Lnic) -> Self {
        let mut mem = MemorySim::default();
        mem.reset(nic);
        mem
    }

    /// Re-initialise in place to exactly [`MemorySim::new`]`(nic)`: cold
    /// caches with zeroed counters (and re-enabled where a fault had
    /// disabled them), empty allocators, no accesses. Every buffer keeps
    /// its storage, so resetting to the same LNIC allocates nothing.
    pub fn reset(&mut self, nic: &Lnic) {
        let n_mems = nic.memories().len();
        let n_units = nic.units().len();
        self.n_mems = n_mems;
        if self.caches.len() < n_mems {
            self.caches.resize_with(n_mems, Cache::unused);
        }
        self.cached.clear();
        self.hit_latency.clear();
        self.bulk_per_byte.clear();
        for (cache, m) in self.caches.iter_mut().zip(nic.memories()) {
            if let Some(c) = m.cache {
                cache.reset(c.capacity, c.line, c.ways);
            }
            self.cached.push(m.cache.is_some());
            self.hit_latency.push(m.cache.map_or(0, |c| c.hit_latency));
            self.bulk_per_byte.push(m.bulk_per_byte);
        }
        self.raw.clear();
        for _ in 0..n_units {
            self.raw.extend(nic.memories().iter().map(|m| m.latency));
        }
        // Edges in reverse, so the first matching edge writes last.
        for e in nic.edges().iter().rev() {
            if let EdgeKind::MemAccess { unit, mem, extra_latency } = e.kind {
                self.raw[unit.0 * n_mems + mem.0] = nic.memories()[mem.0].latency + extra_latency;
            }
        }
        self.cursor.clear();
        self.cursor.resize(n_mems, 0);
        self.accesses.clear();
        self.accesses.resize(n_mems, 0);
    }

    /// Allocate `bytes` in `region`, returning the base address.
    /// Addresses are region-local; regions never alias.
    pub fn alloc(&mut self, region: MemId, bytes: u64) -> u64 {
        let cur = &mut self.cursor[region.0];
        let base = *cur;
        *cur += bytes.max(1);
        base
    }

    /// Raw (uncached) latency from `unit` to `region`, edge extras
    /// included — the pre-resolved equivalent of
    /// `nic.try_access_latency(unit, region).unwrap_or(region.latency)`.
    #[inline]
    pub fn raw_latency(&self, unit: UnitId, region: MemId) -> u64 {
        self.raw[unit.0 * self.n_mems + region.0]
    }

    /// Bulk streaming cost per byte of `region`.
    #[inline]
    pub fn bulk_per_byte(&self, region: MemId) -> f64 {
        self.bulk_per_byte[region.0]
    }

    /// Cost in cycles of accessing `bytes` at `addr` in `region`, issued
    /// from `unit`. Walks cache lines where the region is cached; each
    /// line is an independent hit/miss.
    pub fn access(&mut self, unit: UnitId, region: MemId, addr: u64, bytes: u64) -> u64 {
        self.accesses[region.0] += 1;
        let raw = self.raw[unit.0 * self.n_mems + region.0];
        if !self.cached[region.0] {
            // One transaction covers up to a 64-byte burst; larger
            // transfers stream at the region's bulk rate.
            let extra = bytes.saturating_sub(64);
            return raw + (self.bulk_per_byte[region.0] * extra as f64).round() as u64;
        }
        let cache = &mut self.caches[region.0];
        let hit_lat = self.hit_latency[region.0];
        let line = cache.line() as u64;
        let first = addr / line;
        let last = (addr + bytes.max(1) - 1) / line;
        let mut total = 0;
        for l in first..=last {
            total += if cache.access(l * line) { hit_lat } else { raw };
        }
        total
    }

    /// Cache statistics of a region, if it has a cache.
    pub fn cache_stats(&self, region: MemId) -> Option<(u64, u64)> {
        self.cached[region.0].then(|| self.caches[region.0].stats())
    }

    /// Accesses issued against `region` so far. Counts *computed*
    /// accesses: the batch kernels cost each class once and replay it
    /// without re-touching the memory model, so batched runs report
    /// fewer accesses than [`crate::SimConfig::exact`] runs.
    pub fn access_count(&self, region: MemId) -> u64 {
        self.accesses[region.0]
    }

    /// Whether `region` currently has a cache in front of it. Accesses to
    /// uncached regions are history- and address-independent (raw latency
    /// plus the bulk rate), which is what lets the batch kernels cost
    /// them once per class.
    #[inline]
    pub fn has_cache(&self, region: MemId) -> bool {
        self.cached[region.0]
    }

    /// Remove `region`'s cache entirely (fault injection: a disabled
    /// cache controller). Accesses then pay the raw region latency, and
    /// the region reports no cache statistics; the next
    /// [`MemorySim::reset`] restores the cache, cold.
    pub fn disable_cache(&mut self, region: MemId) {
        self.cached[region.0] = false;
        self.hit_latency[region.0] = 0;
    }

    /// Flush `region`'s cache, if it has one (fault injection: thrash).
    pub fn flush_cache(&mut self, region: MemId) {
        if self.cached[region.0] {
            self.caches[region.0].flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lnic::profiles;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The per-set-`Vec` cache that preceded the flat tag array, kept as
    /// the LRU oracle: every set is its own move-to-front vector.
    struct VecCache {
        sets: Vec<Vec<u64>>,
        line: usize,
        ways: usize,
        hits: u64,
        misses: u64,
    }

    impl VecCache {
        fn new(capacity: usize, line: usize, ways: usize) -> Self {
            let lines = (capacity / line).max(1);
            let sets = (lines / ways).max(1).next_power_of_two();
            VecCache { sets: vec![Vec::with_capacity(ways); sets], line, ways, hits: 0, misses: 0 }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line_addr = addr / self.line as u64;
            let set = (line_addr as usize) & (self.sets.len() - 1);
            let set = &mut self.sets[set];
            if let Some(pos) = set.iter().position(|&t| t == line_addr) {
                let t = set.remove(pos);
                set.insert(0, t);
                self.hits += 1;
                true
            } else {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, line_addr);
                self.misses += 1;
                false
            }
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }
    }

    /// `(capacity, line, ways)`: arbitrary shapes, the flow cache's
    /// entry-granular shape (line 1, 4 ways), and direct-mapped caches.
    /// Capacities are arbitrary byte counts, so most set counts round up
    /// to a power of two.
    fn geometry() -> BoxedStrategy<(usize, usize, usize)> {
        prop_oneof![
            (1usize..20_000, 0u32..8, 1usize..17).prop_map(|(c, l, w)| (c, 1 << l, w)),
            (1usize..4_000).prop_map(|c| (c, 1, 4)),
            (1usize..20_000, 0u32..8).prop_map(|(c, l)| (c, 1 << l, 1)),
        ]
        .boxed()
    }

    /// A geometry and a stream of `(op, line slot, high bits)`: op 0
    /// flushes, anything else accesses. Slots span about twice the
    /// cache's lines (at most 1,032 slots, so large caches see repeats
    /// too), and the high bits give tags that share a set index but not
    /// a line, so streams mix hits, conflicts and evictions.
    #[allow(clippy::type_complexity)]
    fn case() -> BoxedStrategy<((usize, usize, usize), Vec<(u32, u64, u64)>)> {
        geometry()
            .prop_flat_map(|g| {
                let lines = (g.0 / g.1).clamp(1, 512) as u64;
                (Just(g), vec((0u32..48, 0..2 * lines + 8, 0u64..4), 1..800))
            })
            .boxed()
    }

    /// Replay `stream` on both caches, asserting equal hit/miss outcomes
    /// access by access and equal counters at the end.
    fn replay(
        flat: &mut Cache,
        oracle: &mut VecCache,
        line: usize,
        stream: &[(u32, u64, u64)],
    ) -> Result<(), TestCaseError> {
        for (i, &(op, slot, hi)) in stream.iter().enumerate() {
            if op == 0 {
                flat.flush();
                oracle.flush();
                continue;
            }
            let addr = slot * line as u64 + (hi * 13) % line as u64 + (hi << 62);
            prop_assert_eq!(flat.access(addr), oracle.access(addr), "access {} at {:#x}", i, addr);
        }
        prop_assert_eq!(flat.stats(), (oracle.hits, oracle.misses));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat cache is the per-set-`Vec` cache: the same hit or miss
        /// on every access and the same counters, across flushes and
        /// after an in-place reset to a second geometry.
        #[test]
        fn flat_cache_matches_the_per_set_vec_oracle(first in case(), second in case()) {
            let ((cap, line, ways), stream) = first;
            let mut flat = Cache::new(cap, line, ways);
            replay(&mut flat, &mut VecCache::new(cap, line, ways), line, &stream)?;
            let ((cap, line, ways), stream) = second;
            flat.reset(cap, line, ways);
            replay(&mut flat, &mut VecCache::new(cap, line, ways), line, &stream)?;
        }
    }

    #[test]
    fn reset_memory_sim_equals_a_fresh_one() {
        // A used memory model with a disabled cache, reset, answers every
        // access exactly as a fresh one does (and re-enables the cache).
        let nic = profiles::netronome_agilio_cx40();
        let npu = nic.unit_named("npu0_0").unwrap();
        let emem = nic.memory_named("emem").unwrap();
        let mut reused = MemorySim::new(&nic);
        reused.alloc(emem, 4096);
        reused.access(npu, emem, 0, 256);
        reused.disable_cache(emem);
        assert_eq!(reused.cache_stats(emem), None);
        reused.reset(&nic);
        let mut fresh = MemorySim::new(&nic);
        for (addr, bytes) in [(0, 8), (0, 8), (4096, 256), (64, 8)] {
            let a = reused.access(npu, emem, addr, bytes);
            assert_eq!(a, fresh.access(npu, emem, addr, bytes));
        }
        assert_eq!(reused.cache_stats(emem), fresh.cache_stats(emem));
        assert_eq!(reused.alloc(emem, 8), fresh.alloc(emem, 8));
        assert_eq!(reused.access_count(emem), fresh.access_count(emem));
    }

    #[test]
    fn cache_hits_after_install() {
        let mut c = Cache::new(1024, 64, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 sets x 2 ways of 64-byte lines (256 B total).
        let mut c = Cache::new(256, 64, 2);
        // Set 0 gets lines 0, 2, 4 (line_addr % 2 == 0).
        c.access(0);
        c.access(2 * 64);
        c.access(4 * 64); // evicts line 0
        assert!(!c.access(0), "line 0 should have been evicted");
        assert!(c.access(4 * 64));
    }

    #[test]
    fn working_set_behavior() {
        // A working set within capacity converges to ~100% hits; one that
        // is 2x capacity keeps missing.
        let mut small = Cache::new(4096, 64, 4);
        for _round in 0..4 {
            for i in 0..64u64 {
                small.access(i * 64);
            }
        }
        assert!(small.hit_ratio() > 0.7, "ratio {}", small.hit_ratio());

        let mut big = Cache::new(4096, 64, 4);
        for _round in 0..4 {
            for i in 0..128u64 {
                big.access(i * 64);
            }
        }
        assert!(big.hit_ratio() < 0.2, "ratio {}", big.hit_ratio());
    }

    #[test]
    fn memory_sim_uncached_region_flat_cost() {
        let nic = profiles::netronome_agilio_cx40();
        let mut mem = MemorySim::new(&nic);
        let npu = nic.unit_named("npu0_0").unwrap();
        let imem = nic.memory_named("imem").unwrap();
        assert_eq!(mem.access(npu, imem, 0, 8), 250);
        assert_eq!(mem.access(npu, imem, 0, 8), 250); // no cache: same
    }

    #[test]
    fn memory_sim_emem_cache_effect() {
        let nic = profiles::netronome_agilio_cx40();
        let mut mem = MemorySim::new(&nic);
        let npu = nic.unit_named("npu0_0").unwrap();
        let emem = nic.memory_named("emem").unwrap();
        let cold = mem.access(npu, emem, 4096, 8);
        let warm = mem.access(npu, emem, 4096, 8);
        assert_eq!(cold, 500);
        assert_eq!(warm, 150);
    }

    #[test]
    fn multi_line_access_sums_lines() {
        let nic = profiles::netronome_agilio_cx40();
        let mut mem = MemorySim::new(&nic);
        let npu = nic.unit_named("npu0_0").unwrap();
        let emem = nic.memory_named("emem").unwrap();
        // 256 bytes = 4 lines, all cold.
        assert_eq!(mem.access(npu, emem, 0, 256), 4 * 500);
        // Warm now.
        assert_eq!(mem.access(npu, emem, 0, 256), 4 * 150);
    }

    #[test]
    fn allocator_is_disjoint() {
        let nic = profiles::netronome_agilio_cx40();
        let mut mem = MemorySim::new(&nic);
        let emem = nic.memory_named("emem").unwrap();
        let a = mem.alloc(emem, 100);
        let b = mem.alloc(emem, 100);
        assert!(b >= a + 100);
    }

    #[test]
    fn remote_ctm_numa_cost() {
        let nic = profiles::netronome_agilio_cx40();
        let mut mem = MemorySim::new(&nic);
        let npu = nic.unit_named("npu0_0").unwrap();
        let own = nic.memory_named("ctm0").unwrap();
        let remote = nic.memory_named("ctm1").unwrap();
        assert!(mem.access(npu, remote, 0, 8) > mem.access(npu, own, 0, 8));
    }
}
