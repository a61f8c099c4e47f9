//! A single set-associative cache with a pluggable replacement policy.
//!
//! The per-access path is the hottest code in the simulator, so the cache is
//! laid out for it: valid and dirty flags live in packed per-set bitmask
//! words (one `u64` per set and flag, bit = way) instead of
//! per-block `Vec<bool>`s, the set index is a power-of-two mask instead of a
//! `%`, and the tag scan is fused over a byte column of 8-bit partial tags —
//! one exact 16-lane compare (the private `lanes` module) covers sixteen
//! ways, so a miss usually rejects the whole set without loading a single
//! full tag. The replacement policy is a statically-dispatched
//! [`PolicyDispatch`], so hit and fill notifications inline instead of
//! paying a virtual call.
//!
//! This is the LLC's cache (and the reference any cache model in the crate is
//! tested against). The L1 and L2 above it are always LRU and need none of
//! the per-way metadata a policy indexes, so [`crate::Hierarchy`] runs them
//! on the much smaller `lru_filter` instead.
//!
//! # Batched lookups
//!
//! Trace replay hands the cache whole **runs** of the recorded post-L2 stream
//! instead of one request at a time: [`SetAssocCache::replay_run`] takes the
//! raw address and metadata columns of a run — demand, prefetch and
//! writeback records freely interleaved — and walks them in one leaf
//! function per policy, the private `replay_columns`. That function *is* the
//! loop, in the binary and not only in the source: it is `#[inline(never)]`
//! so each policy's instance gets its own inlining budget, while everything
//! it runs per record — the metadata decode, the block / set / partial-tag
//! arithmetic (a shift, a mask and a multiply straight off the address), the
//! tag scan, the private `CacheCore::access_one` and through it every policy
//! hook — is forced or allowed inline, so a record costs no call. The policy
//! dispatch match runs once per run in replay (once per request on the
//! per-access path), the statistics are summed in a local and written back
//! once per run, and whether a record is classified into a reuse hint is the
//! policy's constant. (CI disassembles the release binary
//! and fails when a `replay_columns` instance calls `access_one`,
//! `find_way`, `classify`, a closure or a policy's victim search.) The run
//! path and the per-access path execute the *same* per-request mutation
//! sequence — both funnel through `CacheCore::access_one` — so their
//! decisions and statistics are bit-for-bit identical by construction.

use crate::addr::BlockAddr;
use crate::config::CacheConfig;
use crate::hint::RegionClassifier;
use crate::lanes::{self, LaneOps, Lanes, LANES};
use crate::policy::dispatch::for_each_policy;
use crate::policy::{PolicyDispatch, ReplacementPolicy};
use crate::request::{AccessInfo, RegionLabel};
use crate::stats::CacheStats;
use crate::trace::{decode_info, META_PREFETCH_BIT, META_WRITEBACK_BIT};

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// The block that was evicted to make room, if any.
    pub evicted: Option<BlockAddr>,
    /// Whether the evicted block was dirty (its writeback must be sent to the
    /// next level down).
    pub evicted_dirty: bool,
}

/// The geometry, tag storage and packed per-set metadata of a cache, split
/// from the policy and statistics so the run kernels can borrow the two
/// halves disjointly: `CacheCore` mutates blocks while the (monomorphized)
/// policy receives its notifications through a separate `&mut`.
struct CacheCore {
    ways: usize,
    /// `sets - 1`; sets is asserted to be a power of two by [`CacheConfig`].
    set_mask: u64,
    /// `log2(sets)`, used to derive the 8-bit partial tag.
    set_bits: u32,
    /// `log2(block_bytes)` for the block-address shift.
    block_shift: u32,
    /// All-ways-valid mask: `ways` low bits set.
    full_mask: u64,
    tags: Vec<BlockAddr>,
    /// 8-bit partial tags, one byte per way, `ways` per set, padded at the
    /// end so the last set's last 16-lane group stays in bounds. The low
    /// byte of the full tag: an exact lane compare over these prunes the
    /// full-tag comparisons to (almost always) at most one.
    ptags: Vec<u8>,
    /// Per-set valid bits (bit `w` = way `w`).
    valid: Vec<u64>,
    /// Per-set dirty bits.
    dirty: Vec<u64>,
}

/// What one access did to the core. The caller (per-access or run kernel)
/// turns this into statistics, so both paths account identically by
/// construction.
enum OneOutcome {
    Hit,
    Filled {
        /// The evicted block and whether it was dirty, if a victim was
        /// displaced.
        evicted: Option<(BlockAddr, bool)>,
    },
}

impl CacheCore {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let blocks = config.blocks();
        assert!(
            config.ways <= 64,
            "associativity {} exceeds the 64 ways supported by packed metadata",
            config.ways
        );
        let full_mask = if config.ways == 64 {
            u64::MAX
        } else {
            (1u64 << config.ways) - 1
        };
        Self {
            ways: config.ways,
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64).trailing_zeros(),
            block_shift: config.block_bytes.trailing_zeros(),
            full_mask,
            tags: vec![0; blocks],
            ptags: vec![0; lanes::column_len(sets, config.ways)],
            valid: vec![0; sets],
            dirty: vec![0; sets],
        }
    }

    /// The lookup coordinates of a byte address: block address, set index
    /// and the block's 8-bit partial tag (the low byte of its full tag) —
    /// two shifts and a mask.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (BlockAddr, usize, u8) {
        let block = addr >> self.block_shift;
        let set = (block & self.set_mask) as usize;
        (block, set, (block >> self.set_bits) as u8)
    }

    /// Fused tag scan over `set`: the lane compare over the partial tags
    /// nominates candidate ways (usually none on a miss, one on a hit); only
    /// candidates that are valid get their full tag compared. `partial` is
    /// the partial tag of `block` (see [`CacheCore::locate`]).
    #[inline(always)]
    fn find_way(&self, set: usize, block: BlockAddr, partial: u8) -> Option<usize> {
        let base = set * self.ways;
        let ptags = &self.ptags[base..][..self.ways.next_multiple_of(LANES)];
        let tags = &self.tags[base..][..self.ways];
        let mut candidates = Lanes::eq_mask(ptags, self.ways, partial) & self.valid[set];
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            if tags[way] == block {
                return Some(way);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// A dirty-victim writeback: a non-allocating probe that marks the
    /// resident copy dirty and never consults the policy. Returns `true` on
    /// a hit.
    #[inline(always)]
    fn writeback_one(&mut self, set: usize, block: BlockAddr, partial: u8) -> bool {
        match self.find_way(set, block, partial) {
            Some(way) => {
                self.dirty[set] |= 1u64 << way;
                true
            }
            None => false,
        }
    }

    /// The one per-request mutation sequence of the cache, shared verbatim by
    /// the per-access path and the run kernels (`P` is the concrete policy
    /// either way): lookup, hit bookkeeping, invalid-way-first fill, victim
    /// eviction with its pre-mutation metadata snapshot, and the policy
    /// notifications in their fixed order (`choose_victim` only when the set
    /// is full, `on_evict` before the overwrite, `on_fill` last).
    #[inline(always)]
    fn access_one<P: ReplacementPolicy>(
        &mut self,
        policy: &mut P,
        block: BlockAddr,
        set: usize,
        partial: u8,
        info: &AccessInfo,
    ) -> OneOutcome {
        // Hit path: fused valid-mask + tag scan.
        if let Some(way) = self.find_way(set, block, partial) {
            if info.is_write() {
                self.dirty[set] |= 1u64 << way;
            }
            policy.on_hit(set, way, info);
            return OneOutcome::Hit;
        }

        // Miss path: fill the lowest invalid way if one exists, otherwise ask
        // the policy for a victim.
        let valid = self.valid[set];
        let way = if valid != self.full_mask {
            (!valid).trailing_zeros() as usize
        } else {
            policy.choose_victim(set)
        };

        let bit = 1u64 << way;
        let idx = set * self.ways + way;
        let mut evicted = None;
        if valid & bit != 0 {
            evicted = Some((self.tags[idx], self.dirty[set] & bit != 0));
            policy.on_evict(set, way);
        }
        self.tags[idx] = block;
        self.ptags[idx] = partial;
        self.valid[set] |= bit;
        if info.is_write() {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        policy.on_fill(set, way, info);

        OneOutcome::Filled { evicted }
    }
}

/// Per-run statistic sums the run kernels defer. All counters are plain
/// sums, so folding them into [`CacheStats`] once per run produces exactly
/// the totals the per-access `CacheStats::record*` calls would have. Demand
/// accesses and misses are kept per region only; their totals are the sums.
#[derive(Default)]
struct BatchTotals {
    prefetch_accesses: u64,
    prefetch_fills: u64,
    writeback_accesses: u64,
    writeback_hits: u64,
    evictions: u64,
    region_accesses: [u64; RegionLabel::ALL.len()],
    region_misses: [u64; RegionLabel::ALL.len()],
}

impl BatchTotals {
    /// Accounts one demand (`prefetch == false`) or prefetch request. The
    /// two kinds interleave record by record in recorded streams, so the
    /// kind is folded in as a 0/1 addend instead of branched on.
    #[inline(always)]
    fn tally(&mut self, prefetch: bool, region: RegionLabel, outcome: &OneOutcome) {
        let (demand, prefetch) = (u64::from(!prefetch), u64::from(prefetch));
        let idx = region.index();
        self.region_accesses[idx] += demand;
        self.prefetch_accesses += prefetch;
        match outcome {
            OneOutcome::Hit => {}
            OneOutcome::Filled { evicted } => {
                self.evictions += u64::from(evicted.is_some());
                self.prefetch_fills += prefetch;
                self.region_misses[idx] += demand;
            }
        }
    }

    fn add_to(&self, stats: &mut CacheStats) {
        let accesses: u64 = self.region_accesses.iter().sum();
        let misses: u64 = self.region_misses.iter().sum();
        stats.evictions += self.evictions;
        stats.accesses += accesses;
        stats.hits += accesses - misses;
        stats.misses += misses;
        for (idx, &region) in RegionLabel::ALL.iter().enumerate() {
            if self.region_accesses[idx] != 0 {
                stats.add_region_counters(
                    region,
                    self.region_accesses[idx],
                    self.region_misses[idx],
                );
            }
        }
        stats.prefetch_accesses += self.prefetch_accesses;
        stats.prefetch_fills += self.prefetch_fills;
        stats.writeback_accesses += self.writeback_accesses;
        stats.writeback_hits += self.writeback_hits;
    }
}

/// The recorded-stream kernel: one in-order pass over the raw address and
/// metadata columns of a run, one instance per policy (see the
/// module docs for why it is a leaf the compiler may not merge into its
/// 10-arm caller). Demand and prefetch records share one `access_one` call
/// site — same placement, only the tally differs; writebacks are
/// non-allocating probes that never touch the policy, exactly like
/// [`SetAssocCache::writeback`]. The statistics live in a local for the
/// whole run and are returned once.
///
/// A request's reuse hint is `classifier`'s verdict on its address, worked
/// out only for a policy that [reads hints](ReplacementPolicy::reads_hints):
/// a constant in every concrete instance, so the instances of the policies
/// that ignore hints carry no classification at all.
#[inline(never)]
fn replay_columns<P: ReplacementPolicy>(
    core: &mut CacheCore,
    policy: &mut P,
    addrs: &[u64],
    meta: &[u32],
    classifier: &RegionClassifier,
) -> BatchTotals {
    let reads_hints = policy.reads_hints();
    let mut totals = BatchTotals::default();
    for (&addr, &word) in addrs.iter().zip(meta) {
        let (block, set, partial) = core.locate(addr);
        if word & META_WRITEBACK_BIT != 0 {
            totals.writeback_accesses += 1;
            totals.writeback_hits += u64::from(core.writeback_one(set, block, partial));
            continue;
        }
        let mut info = decode_info(addr, word);
        if reads_hints {
            info.hint = classifier.classify(addr);
        }
        let outcome = core.access_one(policy, block, set, partial, &info);
        totals.tally(word & META_PREFETCH_BIT != 0, info.region, &outcome);
    }
    totals
}

/// A set-associative cache.
///
/// The cache stores tags plus packed valid and dirty bitmasks; all
/// replacement state lives in the policy.
pub struct SetAssocCache {
    config: CacheConfig,
    core: CacheCore,
    policy: PolicyDispatch,
    stats: CacheStats,
}

impl std::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates a cache with the given geometry and replacement policy.
    ///
    /// Accepts a [`PolicyDispatch`] or any built-in policy value.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the packed per-set metadata
    /// uses one `u64` word per flag).
    pub fn new(config: CacheConfig, policy: impl Into<PolicyDispatch>) -> Self {
        Self {
            config,
            core: CacheCore::new(config),
            policy: policy.into(),
            stats: CacheStats::new(),
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Performs a demand access, updating replacement state and statistics.
    #[inline]
    pub fn access(&mut self, info: &AccessInfo) -> AccessOutcome {
        let outcome = self.access_inner(info);
        self.stats.record(info.region, outcome.hit);
        outcome
    }

    /// Performs a prefetch access: identical block placement behaviour, but
    /// accounted separately.
    pub fn prefetch(&mut self, info: &AccessInfo) -> AccessOutcome {
        let outcome = self.access_inner(info);
        self.stats.record_prefetch(!outcome.hit);
        outcome
    }

    fn access_inner(&mut self, info: &AccessInfo) -> AccessOutcome {
        let (block, set, partial) = self.core.locate(info.addr);
        let core = &mut self.core;
        let (hit, evicted) = match for_each_policy!(
            &mut self.policy,
            p => core.access_one(p, block, set, partial, info)
        ) {
            OneOutcome::Hit => (true, None),
            OneOutcome::Filled { evicted } => (false, evicted),
        };
        self.stats.evictions += u64::from(evicted.is_some());
        AccessOutcome {
            hit,
            evicted: evicted.map(|(block, _)| block),
            evicted_dirty: evicted.is_some_and(|(_, dirty)| dirty),
        }
    }

    /// Replays one run of a recorded post-L2 stream — demand,
    /// prefetch and writeback records freely interleaved — straight off its
    /// raw columns: `addrs[i]` is the byte address and `meta[i]` the packed
    /// metadata word of record `i`, as a [`crate::trace::LlcTrace`] stores
    /// them. Each request carries the reuse hint `classifier` gives its
    /// address (records carry none). Bit-identical to dispatching each
    /// hinted record through [`SetAssocCache::access`] /
    /// [`SetAssocCache::prefetch`] / [`SetAssocCache::writeback`] in order.
    ///
    /// # Panics
    ///
    /// Panics when the columns differ in length.
    pub fn replay_run(&mut self, addrs: &[u64], meta: &[u32], classifier: &RegionClassifier) {
        assert_eq!(addrs.len(), meta.len(), "index-aligned columns");
        let core = &mut self.core;
        let totals = for_each_policy!(
            &mut self.policy,
            p => replay_columns(core, p, addrs, meta, classifier)
        );
        totals.add_to(&mut self.stats);
    }

    /// Receives the writeback of a dirty victim evicted by the level above.
    ///
    /// Writebacks are non-allocating: a hit refreshes the resident copy (the
    /// block becomes dirty here), a miss is forwarded towards memory without
    /// disturbing the replacement policy. Returns `true` on a hit.
    pub fn writeback(&mut self, addr: u64) -> bool {
        let (block, set, partial) = self.core.locate(addr);
        let hit = self.core.writeback_one(set, block, partial);
        self.stats.record_writeback(hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::lru::Lru;
    use crate::policy::rrip::Srrip;
    use crate::request::RegionLabel;
    use crate::trace::encode_meta;

    fn lru_cache(size: u64, ways: usize) -> SetAssocCache {
        let config = CacheConfig::new(size, ways, 64);
        SetAssocCache::new(config, Lru::new(config.sets(), ways))
    }

    /// Number of valid blocks resident in `cache`.
    fn resident_blocks(cache: &SetAssocCache) -> usize {
        cache
            .core
            .valid
            .iter()
            .map(|v| v.count_ones() as usize)
            .sum()
    }

    /// The way holding `addr` in `cache`, looked up without updating any state.
    fn probe(cache: &SetAssocCache, addr: u64) -> Option<usize> {
        let (block, set, partial) = cache.core.locate(addr);
        cache.core.find_way(set, block, partial)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = lru_cache(4096, 4);
        assert!(!c.access(&AccessInfo::read(0x100)).hit);
        assert!(c.access(&AccessInfo::read(0x100)).hit);
        // Same block, different offset: still a hit.
        assert!(c.access(&AccessInfo::read(0x13F)).hit);
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // One set, two ways.
        let mut c = lru_cache(128, 2);
        c.access(&AccessInfo::read(0)); // block A
        c.access(&AccessInfo::read(128)); // block B (same set)
        c.access(&AccessInfo::read(0)); // touch A
        let outcome = c.access(&AccessInfo::read(256)); // block C evicts B
        assert_eq!(outcome.evicted, Some(2));
        assert!(c.access(&AccessInfo::read(0)).hit, "A must survive");
        assert!(!c.access(&AccessInfo::read(128)).hit, "B was evicted");
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = lru_cache(64 * 16, 4);
        for i in 0..64u64 {
            c.access(&AccessInfo::read(i * 64));
        }
        assert_eq!(resident_blocks(&c), 16);
        assert_eq!(c.stats().evictions, 48);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = lru_cache(4096, 4);
        c.access(&AccessInfo::read(0x200));
        let before = c.stats().clone();
        assert!(probe(&c, 0x200).is_some());
        assert!(probe(&c, 0x4000).is_none());
        assert_eq!(c.stats(), &before);
    }

    #[test]
    fn per_region_stats_are_recorded() {
        let mut c = lru_cache(4096, 4);
        let read = |addr, region| AccessInfo {
            region,
            ..AccessInfo::read(addr)
        };
        c.access(&read(0, RegionLabel::Property));
        c.access(&read(0, RegionLabel::Property));
        c.access(&read(0x1000, RegionLabel::EdgeArray));
        assert_eq!(c.stats().region(RegionLabel::Property).accesses, 2);
        assert_eq!(c.stats().region(RegionLabel::Property).misses, 1);
        assert_eq!(c.stats().region(RegionLabel::EdgeArray).misses, 1);
    }

    #[test]
    fn prefetch_is_not_a_demand_access() {
        let mut c = lru_cache(4096, 4);
        c.prefetch(&AccessInfo::read(0x300));
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_accesses, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
        // The prefetched block is resident: a demand access hits.
        assert!(c.access(&AccessInfo::read(0x300)).hit);
    }

    #[test]
    fn works_with_rrip_policy_too() {
        let config = CacheConfig::new(64 * 8, 4, 64);
        let mut c = SetAssocCache::new(config, Srrip::new(config.sets(), config.ways));
        // A small working set with reuse should mostly hit.
        for _ in 0..10 {
            for b in 0..4u64 {
                c.access(&AccessInfo::read(b * 64));
            }
        }
        assert!(c.stats().hits > 30);
        assert!(matches!(c.policy, PolicyDispatch::Srrip(_)));
    }

    #[test]
    fn write_marks_block_dirty_and_hits_later() {
        let mut c = lru_cache(4096, 4);
        c.access(&AccessInfo::write(0x80));
        assert!(c.access(&AccessInfo::read(0x80)).hit);
    }

    /// A mixed run: reads and writes, conflicting sets, several regions.
    fn mixed_run(len: usize) -> Vec<AccessInfo> {
        (0..len as u64)
            .map(|i| {
                let addr = (i * 64 * 7) % 8192 + (i % 3) * 64;
                let info = if i % 5 == 0 {
                    AccessInfo::write(addr)
                } else {
                    AccessInfo::read(addr)
                };
                AccessInfo {
                    site: (i % 11) as u16,
                    region: RegionLabel::ALL[(i % 5) as usize],
                    ..info
                }
            })
            .collect()
    }

    /// Demand, prefetch and writeback records densely interleaved — the
    /// shape recorded traces actually have — replayed off their encoded
    /// columns through `replay_run` must equal per-record scalar dispatch.
    fn assert_replay_run_matches_scalar_dispatch(make: impl Fn() -> SetAssocCache) {
        let run = mixed_run(600);
        let kind_bits: Vec<u32> = (0..run.len())
            .map(|i| match i % 4 {
                1 => META_PREFETCH_BIT,
                3 => META_WRITEBACK_BIT,
                _ => 0,
            })
            .collect();
        let addrs: Vec<u64> = run.iter().map(|info| info.addr).collect();
        let meta: Vec<u32> = run
            .iter()
            .zip(&kind_bits)
            .map(|(info, &kind)| match kind {
                META_WRITEBACK_BIT => kind,
                _ => encode_meta(info, kind),
            })
            .collect();
        let mut scalar = make();
        let mut scalar_misses = 0;
        for (info, &kind) in run.iter().zip(&kind_bits) {
            match kind {
                0 => scalar_misses += u64::from(!scalar.access(info).hit),
                META_PREFETCH_BIT => {
                    scalar.prefetch(info);
                }
                _ => {
                    scalar.writeback(info.addr);
                }
            }
        }
        let mut batched = make();
        // Uneven run boundaries: statistics must add up across runs.
        for (addrs, meta) in addrs.chunks(77).zip(meta.chunks(77)) {
            batched.replay_run(addrs, meta, &RegionClassifier::disabled());
        }
        assert_eq!(scalar.stats(), batched.stats());
        assert_eq!(batched.stats().misses, scalar_misses);
        assert_eq!(resident_blocks(&scalar), resident_blocks(&batched));
    }

    #[test]
    fn mixed_replay_batches_match_the_scalar_dispatch_exactly() {
        assert_replay_run_matches_scalar_dispatch(|| lru_cache(2048, 4));
        assert_replay_run_matches_scalar_dispatch(|| {
            let config = CacheConfig::new(2048, 8, 64);
            SetAssocCache::new(config, Srrip::new(config.sets(), config.ways))
        });
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let mut c = lru_cache(4096, 4);
        c.replay_run(&[], &[], &RegionClassifier::disabled());
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats(), &CacheStats::new());
    }

    #[test]
    fn partial_tag_collisions_fall_through_to_the_full_tag() {
        // One 32-way set: blocks 256 apart share their 8-bit partial tag, so
        // every lookup after the first has several candidates, in both
        // 16-lane groups, to reject.
        let mut c = lru_cache(64 * 32, 32);
        let addrs: Vec<u64> = (0..20).map(|i| (i * 256 + 7) * 64).collect();
        for &addr in &addrs {
            assert!(!c.access(&AccessInfo::read(addr)).hit);
        }
        for (way, &addr) in addrs.iter().enumerate() {
            assert_eq!(probe(&c, addr), Some(way));
            assert!(c.access(&AccessInfo::read(addr)).hit);
        }
        assert_eq!(probe(&c, (20 * 256 + 7) * 64), None);
    }

    #[test]
    fn sixty_four_way_associativity_is_supported() {
        let config = CacheConfig::new(64 * 64, 64, 64); // one 64-way set
        let mut c = SetAssocCache::new(config, Lru::new(config.sets(), config.ways));
        for b in 0..64u64 {
            c.access(&AccessInfo::read(b * 64));
        }
        assert_eq!(resident_blocks(&c), 64);
        assert_eq!(c.stats().evictions, 0);
        let outcome = c.access(&AccessInfo::read(64 * 64));
        assert_eq!(outcome.evicted, Some(0), "LRU block evicted once full");
    }
}
