//! Belady's optimal replacement (OPT / MIN), applied offline to a recorded
//! LLC access trace (Sec. V-D of the paper).
//!
//! OPT requires perfect knowledge of the future: on every miss in a full set
//! it evicts the resident block whose next use is farthest away (or never).
//! It is therefore not a [`super::ReplacementPolicy`] — it is a trace
//! post-processor. The paper records up to two billion LLC accesses per
//! workload and reports the fraction of misses OPT eliminates relative to
//! LRU for several LLC sizes (Fig. 11, Table VII); the reproduction follows
//! the same methodology on its recorded traces.

use crate::addr::block_of;
use crate::config::CacheConfig;
use crate::request::AccessInfo;
use crate::trace::LlcTrace;
use std::collections::HashMap;

/// Result of an offline OPT simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptResult {
    /// Number of accesses in the trace.
    pub accesses: u64,
    /// Hits under OPT.
    pub hits: u64,
    /// Misses under OPT (compulsory + capacity/conflict that even OPT cannot
    /// avoid).
    pub misses: u64,
}

impl OptResult {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The backward pass: for each access (given in **reverse** stream order),
/// the index of the next access to the same block (`u64::MAX` when there is
/// none). `len` must equal the number of items `rev_blocks` yields.
fn next_use_table(len: usize, rev_blocks: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut next_use = vec![u64::MAX; len];
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    let mut i = len;
    for block in rev_blocks {
        i -= 1;
        if let Some(&later) = last_seen.get(&block) {
            next_use[i] = later as u64;
        }
        last_seen.insert(block, i);
    }
    debug_assert_eq!(i, 0, "rev_blocks must yield exactly len items");
    next_use
}

/// The forward pass over block addresses with a pre-computed next-use table.
fn optimal_misses_blocks(
    fwd_blocks: impl Iterator<Item = u64>,
    next_use: &[u64],
    config: &CacheConfig,
) -> OptResult {
    // Per-set resident blocks: block -> next use (as of its latest access).
    let mut resident: Vec<HashMap<u64, u64>> = vec![HashMap::new(); config.sets()];
    let mut hits = 0u64;
    let mut misses = 0u64;

    for (i, block) in fwd_blocks.enumerate() {
        let set = config.set_of(block);
        let set_map = &mut resident[set];
        if let std::collections::hash_map::Entry::Occupied(mut entry) = set_map.entry(block) {
            hits += 1;
            *entry.get_mut() = next_use[i];
            continue;
        }
        misses += 1;
        if set_map.len() >= config.ways {
            // Evict the resident block with the farthest next use. Ties are
            // broken by block address for determinism.
            let (&victim, _) = set_map
                .iter()
                .max_by_key(|&(&b, &next)| (next, b))
                .expect("set is non-empty when full");
            set_map.remove(&victim);
        }
        set_map.insert(block, next_use[i]);
    }

    OptResult {
        accesses: next_use.len() as u64,
        hits,
        misses,
    }
}

/// Simulates Belady's OPT over `trace` for a set-associative cache described
/// by `config` and returns the minimal achievable miss count.
///
/// The simulation is exact per set: the next-use of every access is
/// pre-computed with a backward pass, and on every replacement the resident
/// block with the farthest next use is evicted.
pub fn optimal_misses(trace: &[AccessInfo], config: &CacheConfig) -> OptResult {
    let next_use = next_use_table(
        trace.len(),
        trace
            .iter()
            .rev()
            .map(|info| block_of(info.addr, config.block_bytes)),
    );
    optimal_misses_blocks(
        trace
            .iter()
            .map(|info| block_of(info.addr, config.block_bytes)),
        &next_use,
        config,
    )
}

/// [`optimal_misses`] over the **demand** stream of a recorded trace,
/// consumed chunk-natively: both the backward next-use pass and the forward
/// replacement pass stream straight off the trace's 12-byte-per-record
/// chunked storage, so no `Vec<AccessInfo>` is ever materialized. Only the
/// 8-byte-per-demand next-use table is allocated — what keeps the Fig. 11 /
/// Table VII sweep out of 16-byte-per-access memory at paper scale.
pub fn optimal_misses_trace(trace: &LlcTrace, config: &CacheConfig) -> OptResult {
    let next_use = next_use_table(
        trace.demand_len(),
        trace
            .demand_accesses_rev()
            .map(|info| block_of(info.addr, config.block_bytes)),
    );
    optimal_misses_blocks(
        trace
            .demand_accesses()
            .map(|info| block_of(info.addr, config.block_bytes)),
        &next_use,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(addrs: &[u64]) -> Vec<AccessInfo> {
        addrs.iter().map(|&a| AccessInfo::read(a * 64)).collect()
    }

    fn tiny_cache(ways: usize) -> CacheConfig {
        // One set with `ways` ways.
        CacheConfig::new(64 * ways as u64, ways, 64)
    }

    #[test]
    fn opt_on_the_classic_belady_example() {
        // Reference stream with a 3-entry fully-associative cache.
        let trace = trace_of(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let result = optimal_misses(&trace, &tiny_cache(3));
        // Belady's MIN incurs 7 misses on this classical example.
        assert_eq!(result.misses, 7);
        assert_eq!(result.hits, 5);
        assert_eq!(result.accesses, 12);
    }

    #[test]
    fn opt_never_exceeds_lru_misses() {
        use crate::cache::SetAssocCache;
        use crate::policy::lru::Lru;
        // A pseudo-random but deterministic trace.
        let mut addrs = Vec::new();
        let mut x = 123u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            addrs.push((x >> 33) % 256);
        }
        let trace = trace_of(&addrs);
        let config = CacheConfig::new(64 * 64, 8, 64);
        let opt = optimal_misses(&trace, &config);
        let mut lru = SetAssocCache::new(
            "LLC",
            config,
            Box::new(Lru::new(config.sets(), config.ways)),
        );
        for info in &trace {
            lru.access(info);
        }
        assert!(opt.misses <= lru.stats().misses);
        // Compulsory misses are unavoidable even for OPT.
        let distinct: std::collections::HashSet<u64> = addrs.iter().copied().collect();
        assert!(opt.misses >= distinct.len() as u64);
    }

    #[test]
    fn opt_with_ample_capacity_only_takes_compulsory_misses() {
        let trace = trace_of(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        let result = optimal_misses(&trace, &tiny_cache(4));
        assert_eq!(result.misses, 3);
        assert_eq!(result.hits, 6);
    }

    #[test]
    fn empty_trace() {
        let result = optimal_misses(&[], &tiny_cache(2));
        assert_eq!(result.accesses, 0);
        assert_eq!(result.misses, 0);
        assert_eq!(result.miss_ratio(), 0.0);
        let chunked = optimal_misses_trace(&LlcTrace::new(), &tiny_cache(2));
        assert_eq!(chunked, result);
    }

    #[test]
    fn chunk_native_opt_matches_the_slice_version() {
        // A pseudo-random demand stream, interleaved with prefetch and
        // writeback events the demand-only OPT view must skip.
        let mut slice = Vec::new();
        let mut chunked = LlcTrace::new();
        let mut x = 99u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let info = AccessInfo::read(((x >> 33) % 2048) * 64);
            slice.push(info);
            chunked.push(&info);
            if i % 7 == 0 {
                chunked.push_prefetch(&AccessInfo::read(((x >> 20) % 4096) * 64));
            }
            if i % 11 == 0 {
                chunked.push_writeback(((x >> 40) % 1024) * 64);
            }
        }
        for config in [tiny_cache(4), CacheConfig::new(64 * 64, 8, 64)] {
            assert_eq!(
                optimal_misses_trace(&chunked, &config),
                optimal_misses(&slice, &config),
            );
        }
    }

    #[test]
    fn miss_ratio_is_fractional() {
        let trace = trace_of(&[1, 1, 1, 2]);
        let result = optimal_misses(&trace, &tiny_cache(1));
        assert!((result.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
