//! Cache and hierarchy configuration.

/// Geometry of a single set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if `block_bytes` is not a power of
    /// two, or if the resulting number of sets is not a power of two.
    pub fn new(size_bytes: u64, ways: usize, block_bytes: u64) -> Self {
        assert!(
            size_bytes > 0 && ways > 0 && block_bytes > 0,
            "parameters must be non-zero"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let config = Self {
            size_bytes,
            ways,
            block_bytes,
        };
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(
            (sets as u64).is_power_of_two(),
            "number of sets ({sets}) must be a power of two"
        );
        config
    }

    /// Number of cache blocks.
    pub fn blocks(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.blocks() / self.ways
    }

    /// Set index of a block address.
    #[inline]
    pub fn set_of(&self, block: u64) -> usize {
        (block % self.sets() as u64) as usize
    }
}

/// Latencies (in cycles) used by the analytic timing model. Defaults follow
/// Table VI of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConfig {
    /// L1-D hit latency.
    pub l1_cycles: u64,
    /// L2 hit latency.
    pub l2_cycles: u64,
    /// LLC hit latency (bank access + NoC hops).
    pub llc_cycles: u64,
    /// Main-memory access latency.
    pub memory_cycles: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self {
            l1_cycles: 4,
            l2_cycles: 10,
            llc_cycles: 30,
            memory_cycles: 200,
        }
    }
}

/// Configuration of the simulated three-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Access latencies: the [`TimingModel`](crate::TimingModel) that prices
    /// a run's cycles — direct, replayed or loaded from a trace store — is
    /// built from these.
    pub latency: LatencyConfig,
    /// Enable the L1 stride prefetcher (Table VI: stride prefetchers with 16
    /// streams).
    pub prefetch: bool,
}

impl HierarchyConfig {
    /// The paper's simulated configuration (Table VI): 32 KiB 8-way L1-D,
    /// 256 KiB 8-way L2, 16 MiB 16-way LLC.
    pub fn paper_scale() -> Self {
        Self {
            l1: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(256 * 1024, 8, 64),
            llc: CacheConfig::new(16 * 1024 * 1024, 16, 64),
            latency: LatencyConfig::default(),
            prefetch: true,
        }
    }

    /// The reproduction's default scaled-down configuration, keeping the
    /// LLC : dataset footprint ratio of the paper (the hot-vertex working set
    /// does not fit in the LLC) while letting experiments finish quickly:
    /// 4 KiB L1-D, 16 KiB L2, 64 KiB 16-way LLC.
    pub fn scaled_default() -> Self {
        Self::scaled_with_llc(64 * 1024)
    }

    /// A scaled configuration with an explicit LLC capacity (used by the
    /// LLC-size sensitivity study of Table VII).
    ///
    /// # Panics
    ///
    /// Panics if `llc_bytes` is smaller than 32 KiB.
    pub fn scaled_with_llc(llc_bytes: u64) -> Self {
        assert!(llc_bytes >= 32 * 1024, "LLC must be at least 32 KiB");
        Self {
            l1: CacheConfig::new(4 * 1024, 8, 64),
            l2: CacheConfig::new(16 * 1024, 8, 64),
            llc: CacheConfig::new(llc_bytes, 16, 64),
            latency: LatencyConfig::default(),
            prefetch: true,
        }
    }

    /// Disables the L1 stride prefetcher.
    #[must_use]
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch = false;
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_calculations() {
        let c = CacheConfig::new(16 * 1024 * 1024, 16, 64);
        assert_eq!(c.blocks(), 262_144);
        assert_eq!(c.sets(), 16_384);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(16_384), 0);
        assert_eq!(c.set_of(16_385), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_panics() {
        let _ = CacheConfig::new(1024, 4, 48);
    }

    #[test]
    #[should_panic(expected = "must be a power of two")]
    fn non_power_of_two_sets_panics() {
        // 3 KiB / 64 B / 4 ways = 12 sets -> not a power of two.
        let _ = CacheConfig::new(3 * 1024, 4, 64);
    }

    #[test]
    fn paper_scale_matches_table_vi() {
        let h = HierarchyConfig::paper_scale();
        assert_eq!(h.l1.size_bytes, 32 * 1024);
        assert_eq!(h.l2.size_bytes, 256 * 1024);
        assert_eq!(h.llc.size_bytes, 16 * 1024 * 1024);
        assert_eq!(h.llc.ways, 16);
        assert_eq!(h.latency.memory_cycles, 200);
    }

    #[test]
    fn scaled_default_keeps_relative_sizes() {
        let h = HierarchyConfig::default();
        assert!(h.l1.size_bytes < h.l2.size_bytes);
        assert!(h.l2.size_bytes < h.llc.size_bytes);
        assert_eq!(h.llc.ways, 16);
        assert!(!h.without_prefetch().prefetch);
    }

    #[test]
    #[should_panic(expected = "at least 32 KiB")]
    fn tiny_llc_panics() {
        let _ = HierarchyConfig::scaled_with_llc(1024);
    }
}
