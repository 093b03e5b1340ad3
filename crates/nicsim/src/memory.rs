//! Memory-system simulation: set-associative LRU caches and a region
//! allocator resolving accesses to cycle costs.

use clara_lnic::{EdgeKind, Lnic, MemId, UnitId};

/// A set-associative cache with LRU replacement.
///
/// Tags are full line addresses; sets are small move-to-front vectors
/// (ways ≤ 16 in every profile), which is faster than timestamp LRU at
/// these sizes.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>,
    line: usize,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache with `capacity` bytes, `line`-byte lines, and
    /// `ways` associativity. Set count is rounded up to a power of two.
    pub fn new(capacity: usize, line: usize, ways: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        let lines = (capacity / line).max(1);
        let sets = (lines / ways).max(1).next_power_of_two();
        Cache {
            sets: vec![Vec::with_capacity(ways); sets],
            line,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Access the line containing `addr`; returns true on hit. Misses
    /// install the line, evicting LRU.
    pub fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.line as u64;
        let set = (line_addr as usize) & (self.sets.len() - 1);
        let set = &mut self.sets[set];
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            // Move to front (MRU).
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
        for set in &mut self.sets {
            set.clear();
        }
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
/// construction, so [`MemorySim::access`] is straight array arithmetic.
/// The seed scanned the LNIC edge list (hundreds of edges on the
/// Netronome profile) on *every* access, which dominated whole-trace
/// simulations with per-byte payload loops.
#[derive(Debug)]
pub struct MemorySim {
    /// Cache per region that declares one, indexed by `MemId.0`.
    caches: Vec<Option<Cache>>,
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
        let n_mems = nic.memories().len();
        let n_units = nic.units().len();
        let mut caches: Vec<Option<Cache>> = Vec::with_capacity(n_mems);
        let mut hit_latency = vec![0u64; n_mems];
        let mut bulk_per_byte = vec![0.0; n_mems];
        let mut raw = vec![0u64; n_units * n_mems];
        for (i, m) in nic.memories().iter().enumerate() {
            caches.push(m.cache.map(|c| Cache::new(c.capacity, c.line, c.ways)));
            if let Some(c) = m.cache {
                hit_latency[i] = c.hit_latency;
            }
            bulk_per_byte[i] = m.bulk_per_byte;
            for u in 0..n_units {
                raw[u * n_mems + i] = m.latency;
            }
        }
        let mut filled = vec![false; n_units * n_mems];
        for e in nic.edges() {
            if let EdgeKind::MemAccess { unit, mem, extra_latency } = e.kind {
                let slot = unit.0 * n_mems + mem.0;
                if !filled[slot] {
                    filled[slot] = true;
                    raw[slot] = nic.memories()[mem.0].latency + extra_latency;
                }
            }
        }
        MemorySim {
            caches,
            hit_latency,
            cursor: vec![0; n_mems],
            raw,
            bulk_per_byte,
            accesses: vec![0; n_mems],
            n_mems,
        }
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
        match &mut self.caches[region.0] {
            None => {
                // One transaction covers up to a 64-byte burst; larger
                // transfers stream at the region's bulk rate.
                let extra = bytes.saturating_sub(64);
                raw + (self.bulk_per_byte[region.0] * extra as f64).round() as u64
            }
            Some(cache) => {
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
        }
    }

    /// Cache statistics of a region, if it has a cache.
    pub fn cache_stats(&self, region: MemId) -> Option<(u64, u64)> {
        self.caches[region.0].as_ref().map(|c| c.stats())
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
        self.caches[region.0].is_some()
    }

    /// Remove `region`'s cache entirely (fault injection: a disabled
    /// cache controller). Accesses then pay the raw region latency.
    pub fn disable_cache(&mut self, region: MemId) {
        self.caches[region.0] = None;
        self.hit_latency[region.0] = 0;
    }

    /// Flush `region`'s cache, if it has one (fault injection: thrash).
    pub fn flush_cache(&mut self, region: MemId) {
        if let Some(c) = &mut self.caches[region.0] {
            c.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lnic::profiles;

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
