//! Access and miss statistics.

use crate::request::RegionLabel;

/// Per-region access/miss counters (drives the Fig. 2 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounters {
    /// Demand accesses that reached this cache.
    pub accesses: u64,
    /// Demand misses at this cache.
    pub misses: u64,
}

impl RegionCounters {
    /// Hits (accesses − misses).
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }
}

/// Statistics of a single cache level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Blocks evicted to make room for fills.
    pub evictions: u64,
    /// Always 0: every miss allocates, because no policy bypasses. Kept
    /// because the persisted record context and perfbench's `sim_digest`
    /// both carry it.
    pub bypasses: u64,
    /// Prefetch requests that reached this level (not counted in `accesses`).
    pub prefetch_accesses: u64,
    /// Prefetch requests that missed and triggered a fill at this level.
    pub prefetch_fills: u64,
    /// Writebacks of dirty victims received from the level above (not counted
    /// in `accesses`).
    pub writeback_accesses: u64,
    /// Writebacks that found their block resident at this level. Misses are
    /// forwarded towards memory without allocating.
    pub writeback_hits: u64,
    /// Per-region demand counters, indexed by [`RegionLabel::ALL`] order.
    region: [RegionCounters; RegionLabel::ALL.len()],
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a demand access and its outcome.
    #[inline]
    pub fn record(&mut self, region: RegionLabel, hit: bool) {
        self.accesses += 1;
        let idx = region.index();
        self.region[idx].accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.region[idx].misses += 1;
        }
    }

    /// Records a prefetch access and whether it filled (missed).
    pub fn record_prefetch(&mut self, filled: bool) {
        self.prefetch_accesses += 1;
        if filled {
            self.prefetch_fills += 1;
        }
    }

    /// Records a writeback received from the level above and whether it hit.
    pub fn record_writeback(&mut self, hit: bool) {
        self.writeback_accesses += 1;
        if hit {
            self.writeback_hits += 1;
        }
    }

    /// Per-region counters.
    pub fn region(&self, region: RegionLabel) -> RegionCounters {
        self.region[region.index()]
    }

    /// Overwrites one region's counters wholesale. Only the trace
    /// persistence decoder uses this — recorded statistics are reconstructed
    /// from disk, not re-accumulated — so it stays crate-private.
    pub(crate) fn set_region_counters(&mut self, region: RegionLabel, accesses: u64, misses: u64) {
        self.region[region.index()] = RegionCounters { accesses, misses };
    }

    /// Adds one batched run's per-region demand sums in a single step — the
    /// batched replay kernel's once-per-run statistics update, equivalent to
    /// the per-access [`CacheStats::record`] calls it replaces.
    #[inline]
    pub(crate) fn add_region_counters(&mut self, region: RegionLabel, accesses: u64, misses: u64) {
        let idx = region.index();
        self.region[idx].accesses += accesses;
        self.region[idx].misses += misses;
    }

    /// Demand miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Statistics of the full three-level hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache.
    pub l1: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Last-level cache.
    pub llc: CacheStats,
    /// Demand requests that had to go to main memory (== demand LLC misses).
    pub memory_accesses: u64,
}

impl HierarchyStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_totals_and_regions() {
        let mut s = CacheStats::new();
        s.record(RegionLabel::Property, false);
        s.record(RegionLabel::Property, true);
        s.record(RegionLabel::EdgeArray, false);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.region(RegionLabel::Property).accesses, 2);
        assert_eq!(s.region(RegionLabel::Property).misses, 1);
        assert_eq!(s.region(RegionLabel::Property).hits(), 1);
        assert_eq!(s.region(RegionLabel::EdgeArray).misses, 1);
        assert_eq!(s.region(RegionLabel::Frontier).accesses, 0);
    }

    #[test]
    fn ratios() {
        let mut s = CacheStats::new();
        for i in 0..10 {
            s.record(RegionLabel::Property, i % 2 == 0);
        }
        for _ in 0..10 {
            s.record(RegionLabel::Other, true);
        }
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = CacheStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
    }

    #[test]
    fn prefetch_counters_are_separate() {
        let mut s = CacheStats::new();
        s.record_prefetch(true);
        s.record_prefetch(false);
        assert_eq!(s.prefetch_accesses, 2);
        assert_eq!(s.prefetch_fills, 1);
        assert_eq!(s.accesses, 0, "prefetches are not demand accesses");
    }

    #[test]
    fn writeback_counters_are_separate() {
        let mut s = CacheStats::new();
        s.record_writeback(true);
        s.record_writeback(false);
        s.record_writeback(false);
        assert_eq!(s.writeback_accesses, 3);
        assert_eq!(s.writeback_hits, 1);
        assert_eq!(s.accesses, 0, "writebacks are not demand accesses");
        assert_eq!(s.miss_ratio(), 0.0);
    }
}
