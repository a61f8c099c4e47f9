//! A single set-associative cache with a pluggable replacement policy.
//!
//! The per-access path is the hottest code in the simulator, so the cache is
//! laid out for it: valid/dirty/"reused since fill" flags live in packed
//! per-set bitmask words (one `u64` per set and flag, bit = way) instead of
//! per-block `Vec<bool>`s, the set index is a power-of-two mask instead of a
//! `%`, and the tag scan is fused over packed 8-bit partial tags — one SWAR
//! word comparison covers eight ways, so a miss usually rejects the whole
//! set without loading a single full tag. The replacement policy is a
//! statically-dispatched [`PolicyDispatch`], so hit and fill notifications
//! inline instead of paying a virtual call.
//!
//! This is the LLC's cache (and the reference any cache model in the crate is
//! tested against). The L1 and L2 above it are always LRU and need none of
//! the per-way metadata a policy indexes, so [`crate::stage::UpperLevels`]
//! runs them on the much smaller `lru_filter` instead.
//!
//! # Batched lookups
//!
//! Trace replay drives the cache with whole **tiles** of requests at once
//! instead of one request at a time. [`SetAssocCache::replay_batch`] takes a
//! flush-free tile of the post-L2 stream — demand, prefetch and writeback
//! records freely interleaved, each tagged with a [`BatchOp`] — plus a
//! reusable [`BatchScratch`], precomputes the lookup columns (block address,
//! set index, broadcast partial-tag pattern) in tight vectorizable loops,
//! hoists the policy dispatch **out of the access loop** (the kernel is
//! monomorphized per policy, so every hook call inlines with no per-access
//! enum match), and defers all statistics to one flush per tile. Work is
//! tiled in fixed-size (`BATCH_TILE`) request groups so the precomputed columns stay
//! cache-resident. [`SetAssocCache::access_batch`] and
//! [`SetAssocCache::prefetch_batch`] are the uniform-kind entry points for
//! demand-only and prefetch-only runs (synthetic-trace replay). The batch
//! paths and the per-access path execute the *same* per-request mutation
//! sequence — all funnel through the private `CacheCore::access_one` — so
//! their decisions and statistics are bit-for-bit identical by construction.

use crate::addr::{block_of, BlockAddr};
use crate::config::CacheConfig;
use crate::policy::{PolicyDispatch, ReplacementPolicy};
use crate::request::{AccessInfo, RegionLabel};
use crate::stats::CacheStats;
use crate::swar::{broadcast, broadcast_column, eq_byte_lanes, first_lane};

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
    /// Whether the fill was bypassed (miss with no allocation).
    pub bypassed: bool,
}

impl AccessOutcome {
    /// Returns `true` if the access hit.
    pub fn is_hit(&self) -> bool {
        self.hit
    }
}

/// The geometry, tag storage and packed per-set metadata of a cache, split
/// from the policy and statistics so the batched kernel can borrow the two
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
    /// `u64` words of packed partial tags per set (`ways.div_ceil(8)`).
    ptag_words: usize,
    tags: Vec<BlockAddr>,
    /// Packed 8-bit partial tags, one byte per way, `ptag_words` words per
    /// set. The low byte of the full tag: a SWAR equality scan over these
    /// words prunes the full-tag comparisons to (almost always) at most one.
    ptags: Vec<u64>,
    /// Per-set valid bits (bit `w` = way `w`).
    valid: Vec<u64>,
    /// Per-set dirty bits.
    dirty: Vec<u64>,
    /// Per-set "hit since fill" bits.
    reused: Vec<u64>,
}

/// What one access did to the core. The caller (scalar or batched) turns
/// this into statistics, so both paths account identically by construction.
enum OneOutcome {
    Hit,
    Bypassed,
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
        let ptag_words = config.ways.div_ceil(8);
        Self {
            ways: config.ways,
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64).trailing_zeros(),
            block_shift: config.block_bytes.trailing_zeros(),
            full_mask,
            ptag_words,
            tags: vec![0; blocks],
            ptags: vec![0; sets * ptag_words],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            reused: vec![0; sets],
        }
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block & self.set_mask) as usize
    }

    /// The 8-bit partial tag of a block: the low byte of its full tag.
    #[inline]
    fn partial_of(&self, block: BlockAddr) -> u8 {
        (block >> self.set_bits) as u8
    }

    /// Fused tag scan over `set`: the SWAR pass over the packed partial tags
    /// nominates candidate ways (usually zero on a miss, one on a hit); only
    /// candidates that are valid get their full tag compared. `pattern` is
    /// the broadcast partial tag of `block` — precomputed column-wise by the
    /// batched path, computed inline by the scalar one.
    #[inline]
    fn find_way(&self, set: usize, block: BlockAddr, pattern: u64) -> Option<usize> {
        let valid = self.valid[set];
        let tags = &self.tags[set * self.ways..][..self.ways];
        let words = &self.ptags[set * self.ptag_words..][..self.ptag_words];
        for (word_index, &word) in words.iter().enumerate() {
            let mut lanes = eq_byte_lanes(word, pattern);
            while lanes != 0 {
                let way = word_index * 8 + first_lane(lanes);
                if way < self.ways && valid & (1u64 << way) != 0 && tags[way] == block {
                    return Some(way);
                }
                lanes &= lanes - 1;
            }
        }
        None
    }

    /// Hints the CPU to pull `set`'s metadata (valid mask, partial tags, the
    /// tag row) toward L1 ahead of its lookup. The batched kernels call this
    /// a fixed lookahead ahead of the access cursor: the precomputed set
    /// column tells them *future* lookup targets, which is the one structural
    /// advantage batching has over per-event dispatch — the dependent random
    /// loads of `find_way` can be overlapped instead of serialized.
    #[inline]
    #[allow(unused_variables)]
    fn prefetch_set(&self, set: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: prefetch is a pure hint with no program-visible memory
            // access; the offsets are in bounds for any valid set index.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(self.valid.as_ptr().add(set).cast());
                _mm_prefetch::<_MM_HINT_T0>(self.ptags.as_ptr().add(set * self.ptag_words).cast());
                _mm_prefetch::<_MM_HINT_T0>(self.tags.as_ptr().add(set * self.ways).cast());
            }
        }
    }

    /// Writes the partial tag of `block` into `way`'s byte lane.
    #[inline]
    fn store_partial(&mut self, set: usize, way: usize, block: BlockAddr) {
        let partial = self.partial_of(block);
        let word = &mut self.ptags[set * self.ptag_words + way / 8];
        let shift = (way % 8) * 8;
        *word = (*word & !(0xFFu64 << shift)) | (u64::from(partial) << shift);
    }

    /// The one per-request mutation sequence of the cache, shared verbatim by
    /// the scalar path (`P = PolicyDispatch`) and the batched kernel (`P` =
    /// each concrete policy): lookup, hit bookkeeping, bypass consultation,
    /// invalid-way-first fill, victim eviction with its pre-mutation metadata
    /// snapshot, and the policy notifications in their fixed order
    /// (`should_bypass` only on a miss, `choose_victim` only when the set is
    /// full, `on_evict` before the overwrite, `on_fill` last).
    #[inline]
    fn access_one<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        block: BlockAddr,
        set: usize,
        pattern: u64,
        info: &AccessInfo,
    ) -> OneOutcome {
        // Hit path: fused valid-mask + tag scan.
        if let Some(way) = self.find_way(set, block, pattern) {
            let bit = 1u64 << way;
            self.reused[set] |= bit;
            if info.is_write() {
                self.dirty[set] |= bit;
            }
            policy.on_hit(set, way, info);
            return OneOutcome::Hit;
        }

        // Miss path: maybe bypass.
        if policy.should_bypass(set, info) {
            return OneOutcome::Bypassed;
        }

        // Fill the lowest invalid way if one exists, otherwise ask the policy
        // for a victim.
        let valid = self.valid[set];
        let way = if valid != self.full_mask {
            (!valid).trailing_zeros() as usize
        } else {
            policy.choose_victim(set, info)
        };

        let bit = 1u64 << way;
        let idx = set * self.ways + way;
        let mut evicted = None;
        if valid & bit != 0 {
            evicted = Some((self.tags[idx], self.dirty[set] & bit != 0));
            policy.on_evict(set, way, self.tags[idx], self.reused[set] & bit != 0);
        }
        self.tags[idx] = block;
        self.store_partial(set, way, block);
        self.valid[set] |= bit;
        if info.is_write() {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        self.reused[set] &= !bit;
        policy.on_fill(set, way, info);

        OneOutcome::Filled { evicted }
    }
}

/// Reusable precomputed lookup columns for one batched run of accesses.
///
/// [`SetAssocCache::access_batch`] and [`SetAssocCache::prefetch_batch`] fill
/// the columns (block address, set index, broadcast partial-tag pattern) in
/// tight loops over the run before touching the cache, so the access kernel
/// itself performs no per-request address arithmetic. Allocate one scratch
/// per replay and reuse it across runs; the columns grow to the largest run
/// fed so far and are never shrunk.
#[derive(Debug, Default)]
pub struct BatchScratch {
    blocks: Vec<BlockAddr>,
    sets: Vec<u32>,
    patterns: Vec<u64>,
}

impl BatchScratch {
    /// Creates an empty scratch (columns allocate on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Precomputes the lookup columns for `infos`: three vectorizable passes
    /// (shift, mask, broadcast-multiply) with no branches.
    fn prepare(&mut self, core: &CacheCore, infos: &[AccessInfo]) {
        self.blocks.clear();
        self.sets.clear();
        self.patterns.clear();
        self.blocks
            .extend(infos.iter().map(|info| info.addr >> core.block_shift));
        self.sets.extend(
            self.blocks
                .iter()
                .map(|&block| (block & core.set_mask) as u32),
        );
        broadcast_column(
            self.blocks.iter().map(|&block| core.partial_of(block)),
            &mut self.patterns,
        );
    }

    /// Like [`BatchScratch::prepare`], but straight off a raw byte-address
    /// column (as stored in a trace chunk) — no decoded requests needed, so
    /// fused replay can columnize before any record is decoded.
    fn prepare_addrs(&mut self, core: &CacheCore, addrs: &[u64]) {
        self.blocks.clear();
        self.sets.clear();
        self.patterns.clear();
        self.blocks
            .extend(addrs.iter().map(|&addr| addr >> core.block_shift));
        self.sets.extend(
            self.blocks
                .iter()
                .map(|&block| (block & core.set_mask) as u32),
        );
        broadcast_column(
            self.blocks.iter().map(|&block| core.partial_of(block)),
            &mut self.patterns,
        );
    }
}

/// The request kind of one record in a mixed replay batch.
///
/// Replay tiles mix the three non-flush record kinds of the post-L2 stream
/// freely — demand and prefetch requests interleave densely in recorded
/// traces (the prefetcher issues into the demand stream), so splitting
/// batches at kind changes would degenerate to per-access dispatch. Only
/// flushes (whole-cache invalidation, policy reset) break a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BatchOp {
    /// A demand request: full demand accounting, misses reach memory.
    Demand = 0,
    /// A prefetch request: same placement, prefetch accounting.
    Prefetch = 1,
    /// A dirty-victim writeback: non-allocating, never consults the policy.
    Writeback = 2,
}

/// Batched work is processed in tiles of at most this many requests so the
/// decoded [`AccessInfo`] buffer and the [`BatchScratch`] columns stay
/// cache-resident (~45 KiB per tile) instead of thrashing the host LLC the
/// simulated accesses are also streaming through.
pub(crate) const BATCH_TILE: usize = 1024;

/// How far ahead of the access cursor the batched kernels issue
/// [`CacheCore::prefetch_set`] hints. Far enough to hide a memory round
/// trip at a few ns per simulated access, near enough that the warmed lines
/// are still resident when the cursor arrives.
const PREFETCH_LOOKAHEAD: usize = 16;

/// Per-tile statistic sums deferred by the batched kernels. All counters are
/// plain sums, so flushing them once per tile produces exactly the totals
/// the per-access `CacheStats::record*` calls would have.
#[derive(Default)]
struct BatchTotals {
    demand_accesses: u64,
    demand_misses: u64,
    prefetch_accesses: u64,
    prefetch_fills: u64,
    writeback_accesses: u64,
    writeback_hits: u64,
    evictions: u64,
    bypasses: u64,
    region_accesses: [u64; RegionLabel::ALL.len()],
    region_misses: [u64; RegionLabel::ALL.len()],
}

impl BatchTotals {
    #[inline]
    fn tally_demand(&mut self, info: &AccessInfo, outcome: &OneOutcome) {
        let idx = info.region.index();
        self.demand_accesses += 1;
        self.region_accesses[idx] += 1;
        match outcome {
            OneOutcome::Hit => {}
            OneOutcome::Bypassed => {
                self.demand_misses += 1;
                self.bypasses += 1;
                self.region_misses[idx] += 1;
            }
            OneOutcome::Filled { evicted } => {
                self.demand_misses += 1;
                if evicted.is_some() {
                    self.evictions += 1;
                }
                self.region_misses[idx] += 1;
            }
        }
    }

    #[inline]
    fn tally_prefetch(&mut self, outcome: &OneOutcome) {
        self.prefetch_accesses += 1;
        match outcome {
            OneOutcome::Hit => {}
            OneOutcome::Bypassed => self.bypasses += 1,
            OneOutcome::Filled { evicted } => {
                self.prefetch_fills += 1;
                if evicted.is_some() {
                    self.evictions += 1;
                }
            }
        }
    }

    fn flush(&self, stats: &mut CacheStats) {
        stats.bypasses += self.bypasses;
        stats.evictions += self.evictions;
        stats.accesses += self.demand_accesses;
        stats.hits += self.demand_accesses - self.demand_misses;
        stats.misses += self.demand_misses;
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

/// The monomorphized uniform-kind batched access kernel: one in-order pass
/// over the run against the precomputed columns. Accesses must stay in
/// order — a fill by request `i` changes what request `i + 1` sees in the
/// same set — so the win comes from the hoisted policy dispatch, the
/// columnized address arithmetic and the deferred statistics, not from
/// reordering lookups.
fn batch_kernel<const DEMAND: bool, P: ReplacementPolicy + ?Sized>(
    core: &mut CacheCore,
    policy: &mut P,
    infos: &[AccessInfo],
    scratch: &BatchScratch,
    totals: &mut BatchTotals,
) {
    let blocks = &scratch.blocks[..infos.len()];
    let sets = &scratch.sets[..infos.len()];
    let patterns = &scratch.patterns[..infos.len()];
    for (i, info) in infos.iter().enumerate() {
        if let Some(&ahead) = sets.get(i + PREFETCH_LOOKAHEAD) {
            core.prefetch_set(ahead as usize);
        }
        let outcome = core.access_one(policy, blocks[i], sets[i] as usize, patterns[i], info);
        if DEMAND {
            totals.tally_demand(info, &outcome);
        } else {
            totals.tally_prefetch(&outcome);
        }
    }
}

/// The monomorphized mixed replay kernel: like [`batch_kernel`], but each
/// request carries its own [`BatchOp`] so demand, prefetch and writeback
/// records replay in one pass without splitting the tile at kind changes.
/// Writebacks are non-allocating probes (hit ⇒ mark dirty) and never touch
/// the policy, exactly like [`SetAssocCache::writeback`].
///
/// Requests are produced on the fly by `decode(i)` and consumed in
/// registers, so a caller that decodes straight off a trace chunk's columns
/// never materializes an intermediate request buffer — the closure is
/// monomorphized into the loop alongside the policy.
fn replay_kernel<P, F>(
    core: &mut CacheCore,
    policy: &mut P,
    decode: &F,
    blocks: &[BlockAddr],
    sets: &[u32],
    patterns: &[u64],
    totals: &mut BatchTotals,
) where
    P: ReplacementPolicy + ?Sized,
    F: Fn(usize) -> (AccessInfo, BatchOp),
{
    let len = blocks.len();
    let sets = &sets[..len];
    let patterns = &patterns[..len];
    for i in 0..len {
        if let Some(&ahead) = sets.get(i + PREFETCH_LOOKAHEAD) {
            core.prefetch_set(ahead as usize);
        }
        let (info, op) = decode(i);
        let (block, set, pattern) = (blocks[i], sets[i] as usize, patterns[i]);
        match op {
            BatchOp::Demand => {
                let outcome = core.access_one(policy, block, set, pattern, &info);
                totals.tally_demand(&info, &outcome);
            }
            BatchOp::Prefetch => {
                let outcome = core.access_one(policy, block, set, pattern, &info);
                totals.tally_prefetch(&outcome);
            }
            BatchOp::Writeback => {
                totals.writeback_accesses += 1;
                if let Some(way) = core.find_way(set, block, pattern) {
                    core.dirty[set] |= 1u64 << way;
                    totals.writeback_hits += 1;
                }
            }
        }
    }
}

/// Expands `$body` once per [`PolicyDispatch`] variant with `$p` bound to the
/// concrete policy, hoisting the dispatch match out of whatever loop `$body`
/// contains. Unlike the forwarding methods on `PolicyDispatch` (which match
/// per call), one expansion of this macro matches once per *run*; the `Dyn`
/// escape hatch re-borrows the trait object so the same generic body serves
/// it through virtual calls.
macro_rules! for_each_policy {
    ($dispatch:expr, $p:ident => $body:expr) => {
        match $dispatch {
            PolicyDispatch::Lru($p) => $body,
            PolicyDispatch::Random($p) => $body,
            PolicyDispatch::Srrip($p) => $body,
            PolicyDispatch::Brrip($p) => $body,
            PolicyDispatch::Drrip($p) => $body,
            PolicyDispatch::ShipMem($p) => $body,
            PolicyDispatch::Hawkeye($p) => $body,
            PolicyDispatch::Leeway($p) => $body,
            PolicyDispatch::Pin($p) => $body,
            PolicyDispatch::Grasp($p) => $body,
            PolicyDispatch::Dyn(boxed) => {
                let $p = boxed.as_mut();
                $body
            }
        }
    };
}

/// A set-associative cache.
///
/// The cache stores tags plus packed valid/dirty/"saw a hit since fill"
/// bitmasks; all replacement state lives in the policy.
pub struct SetAssocCache {
    name: &'static str,
    config: CacheConfig,
    core: CacheCore,
    policy: PolicyDispatch,
    stats: CacheStats,
}

impl std::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates a cache with the given geometry and replacement policy.
    ///
    /// Accepts anything convertible into a [`PolicyDispatch`]: a concrete
    /// policy value, a `Box` of one (statically dispatched either way), or a
    /// `Box<dyn ReplacementPolicy>` for policies outside the built-in roster.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the packed per-set metadata
    /// uses one `u64` word per flag).
    pub fn new(name: &'static str, config: CacheConfig, policy: impl Into<PolicyDispatch>) -> Self {
        Self {
            name,
            config,
            core: CacheCore::new(config),
            policy: policy.into(),
            stats: CacheStats::new(),
        }
    }

    /// Cache name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Name of the replacement policy managing this cache.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Looks up a block without updating any state. Returns the way if present.
    pub fn probe(&self, addr: u64) -> Option<usize> {
        let block = block_of(addr, self.config.block_bytes);
        let pattern = broadcast(self.core.partial_of(block));
        self.core.find_way(self.core.set_of(block), block, pattern)
    }

    /// Performs a demand access, updating replacement state and statistics.
    #[inline]
    pub fn access(&mut self, info: &AccessInfo) -> AccessOutcome {
        let outcome = self.access_inner(info);
        self.stats.record(info.region, outcome.hit);
        outcome
    }

    /// Performs a prefetch access: identical block placement behaviour, but
    /// accounted separately and never bypassed by the policy.
    pub fn prefetch(&mut self, info: &AccessInfo) -> AccessOutcome {
        let outcome = self.access_inner(info);
        self.stats
            .record_prefetch(!outcome.hit && !outcome.bypassed);
        outcome
    }

    fn access_inner(&mut self, info: &AccessInfo) -> AccessOutcome {
        let block = info.addr >> self.core.block_shift;
        let set = self.core.set_of(block);
        let pattern = broadcast(self.core.partial_of(block));
        match self
            .core
            .access_one(&mut self.policy, block, set, pattern, info)
        {
            OneOutcome::Hit => AccessOutcome {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                bypassed: false,
            },
            OneOutcome::Bypassed => {
                self.stats.bypasses += 1;
                AccessOutcome {
                    hit: false,
                    evicted: None,
                    evicted_dirty: false,
                    bypassed: true,
                }
            }
            OneOutcome::Filled { evicted } => {
                if evicted.is_some() {
                    self.stats.evictions += 1;
                }
                let (evicted, evicted_dirty) = match evicted {
                    Some((block, dirty)) => (Some(block), dirty),
                    None => (None, false),
                };
                AccessOutcome {
                    hit: false,
                    evicted,
                    evicted_dirty,
                    bypassed: false,
                }
            }
        }
    }

    /// Performs a whole run of demand accesses in one batched pass (see the
    /// module docs): the lookup columns are precomputed into `scratch`, the
    /// policy dispatch is hoisted out of the access loop, and statistics are
    /// flushed once for the run. Bit-identical to calling
    /// [`SetAssocCache::access`] per element, in order. Returns the number
    /// of demand misses in the run.
    pub fn access_batch(&mut self, infos: &[AccessInfo], scratch: &mut BatchScratch) -> u64 {
        self.batch_inner::<true>(infos, scratch)
    }

    /// Batched counterpart of [`SetAssocCache::prefetch`]: identical block
    /// placement to [`SetAssocCache::access_batch`], accounted as prefetch
    /// traffic.
    pub fn prefetch_batch(&mut self, infos: &[AccessInfo], scratch: &mut BatchScratch) {
        self.batch_inner::<false>(infos, scratch);
    }

    fn batch_inner<const DEMAND: bool>(
        &mut self,
        infos: &[AccessInfo],
        scratch: &mut BatchScratch,
    ) -> u64 {
        let mut misses = 0;
        for start in (0..infos.len()).step_by(BATCH_TILE) {
            let tile = &infos[start..infos.len().min(start + BATCH_TILE)];
            scratch.prepare(&self.core, tile);
            let mut totals = BatchTotals::default();
            let core = &mut self.core;
            for_each_policy!(
                &mut self.policy,
                p => batch_kernel::<DEMAND, _>(core, p, tile, scratch, &mut totals)
            );
            totals.flush(&mut self.stats);
            misses += if DEMAND {
                totals.demand_misses
            } else {
                totals.prefetch_fills
            };
        }
        misses
    }

    /// Replays one flush-free tile of a recorded post-L2 stream — demand,
    /// prefetch and writeback records freely interleaved, each tagged with
    /// its [`BatchOp`] — through the mixed batched kernel. Bit-identical to
    /// dispatching each record through [`SetAssocCache::access`] /
    /// [`SetAssocCache::prefetch`] / [`SetAssocCache::writeback`] in order.
    /// Returns the number of demand misses (the requests that reach memory).
    ///
    /// # Panics
    ///
    /// Panics when `infos` and `ops` have different lengths.
    pub fn replay_batch(
        &mut self,
        infos: &[AccessInfo],
        ops: &[BatchOp],
        scratch: &mut BatchScratch,
    ) -> u64 {
        assert_eq!(infos.len(), ops.len(), "one BatchOp per request");
        let mut misses = 0;
        for start in (0..infos.len()).step_by(BATCH_TILE) {
            let end = infos.len().min(start + BATCH_TILE);
            let tile = &infos[start..end];
            let tile_ops = &ops[start..end];
            scratch.prepare(&self.core, tile);
            let mut totals = BatchTotals::default();
            let core = &mut self.core;
            let decode = |i: usize| (tile[i], tile_ops[i]);
            for_each_policy!(
                &mut self.policy,
                p => replay_kernel(
                    core,
                    p,
                    &decode,
                    &scratch.blocks,
                    &scratch.sets,
                    &scratch.patterns,
                    &mut totals
                )
            );
            totals.flush(&mut self.stats);
            misses += totals.demand_misses;
        }
        misses
    }

    /// Precomputes the lookup columns (block, set index, SWAR partial-tag
    /// pattern) for a whole run into `scratch` without replaying anything.
    /// The columns depend only on the cache *geometry*, so a policy fan-out
    /// can prepare them once on any same-geometry cache and replay them
    /// through every stage via [`SetAssocCache::replay_batch_prepared`].
    pub fn prepare_batch(&self, infos: &[AccessInfo], scratch: &mut BatchScratch) {
        scratch.prepare(&self.core, infos);
    }

    /// Like [`SetAssocCache::replay_batch`], but consumes lookup columns
    /// already prepared by [`SetAssocCache::prepare_batch`] — the column
    /// computation is paid once for a whole fan-out instead of once per
    /// policy stage.
    ///
    /// Only share scratches between same-geometry caches: the columns bake
    /// in the preparing cache's block size and set count, and a mismatch is
    /// not detectable here.
    ///
    /// # Panics
    ///
    /// Panics when `infos`, `ops` and the prepared columns disagree in
    /// length.
    pub fn replay_batch_prepared(
        &mut self,
        infos: &[AccessInfo],
        ops: &[BatchOp],
        scratch: &BatchScratch,
    ) -> u64 {
        assert_eq!(infos.len(), ops.len(), "one BatchOp per request");
        assert_eq!(
            infos.len(),
            scratch.blocks.len(),
            "scratch prepared for this run"
        );
        let mut misses = 0;
        for start in (0..infos.len()).step_by(BATCH_TILE) {
            let end = infos.len().min(start + BATCH_TILE);
            let tile = &infos[start..end];
            let tile_ops = &ops[start..end];
            let mut totals = BatchTotals::default();
            let core = &mut self.core;
            let decode = |i: usize| (tile[i], tile_ops[i]);
            for_each_policy!(
                &mut self.policy,
                p => replay_kernel(
                    core,
                    p,
                    &decode,
                    &scratch.blocks[start..end],
                    &scratch.sets[start..end],
                    &scratch.patterns[start..end],
                    &mut totals
                )
            );
            totals.flush(&mut self.stats);
            misses += totals.demand_misses;
        }
        misses
    }

    /// The fused variant of [`SetAssocCache::replay_batch`]: the lookup
    /// columns are precomputed straight off the raw byte-address column of a
    /// trace tile and each record is decoded **in registers** by `decode(i)`
    /// the moment the kernel consumes it — no intermediate request or op
    /// buffer is ever materialized. This is the primary replay entry point;
    /// the slice-based [`SetAssocCache::replay_batch`] is the same kernel
    /// fed from already-decoded buffers. Returns the number of demand
    /// misses.
    pub fn replay_batch_fused<F>(
        &mut self,
        addrs: &[u64],
        scratch: &mut BatchScratch,
        decode: F,
    ) -> u64
    where
        F: Fn(usize) -> (AccessInfo, BatchOp),
    {
        let mut misses = 0;
        for start in (0..addrs.len()).step_by(BATCH_TILE) {
            let end = addrs.len().min(start + BATCH_TILE);
            scratch.prepare_addrs(&self.core, &addrs[start..end]);
            let mut totals = BatchTotals::default();
            let core = &mut self.core;
            let tile_decode = |i: usize| decode(start + i);
            for_each_policy!(
                &mut self.policy,
                p => replay_kernel(
                    core,
                    p,
                    &tile_decode,
                    &scratch.blocks,
                    &scratch.sets,
                    &scratch.patterns,
                    &mut totals
                )
            );
            totals.flush(&mut self.stats);
            misses += totals.demand_misses;
        }
        misses
    }

    /// Receives the writeback of a dirty victim evicted by the level above.
    ///
    /// Writebacks are non-allocating: a hit refreshes the resident copy (the
    /// block becomes dirty here), a miss is forwarded towards memory without
    /// disturbing the replacement policy. Returns `true` on a hit.
    pub fn writeback(&mut self, addr: u64) -> bool {
        let block = addr >> self.core.block_shift;
        let set = self.core.set_of(block);
        let pattern = broadcast(self.core.partial_of(block));
        let hit = match self.core.find_way(set, block, pattern) {
            Some(way) => {
                self.core.dirty[set] |= 1u64 << way;
                true
            }
            None => false,
        };
        self.stats.record_writeback(hit);
        hit
    }

    /// Invalidates every block and resets the replacement policy to its
    /// just-constructed state (used between experiment phases). Statistics
    /// keep accumulating across flushes.
    pub fn flush(&mut self) {
        self.core.valid.fill(0);
        self.core.dirty.fill(0);
        self.core.reused.fill(0);
        self.policy.reset();
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.core
            .valid
            .iter()
            .map(|v| v.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::lru::Lru;
    use crate::policy::rrip::Srrip;
    use crate::policy::ReplacementPolicy;
    use crate::request::RegionLabel;

    fn lru_cache(size: u64, ways: usize) -> SetAssocCache {
        let config = CacheConfig::new(size, ways, 64);
        SetAssocCache::new("test", config, Box::new(Lru::new(config.sets(), ways)))
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = lru_cache(4096, 4);
        assert!(!c.access(&AccessInfo::read(0x100)).is_hit());
        assert!(c.access(&AccessInfo::read(0x100)).is_hit());
        // Same block, different offset: still a hit.
        assert!(c.access(&AccessInfo::read(0x13F)).is_hit());
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
        assert!(c.access(&AccessInfo::read(0)).is_hit(), "A must survive");
        assert!(!c.access(&AccessInfo::read(128)).is_hit(), "B was evicted");
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = lru_cache(64 * 16, 4);
        for i in 0..64u64 {
            c.access(&AccessInfo::read(i * 64));
        }
        assert_eq!(c.resident_blocks(), 16);
        assert_eq!(c.stats().evictions, 48);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = lru_cache(4096, 4);
        c.access(&AccessInfo::read(0x200));
        let before = c.stats().clone();
        assert!(c.probe(0x200).is_some());
        assert!(c.probe(0x4000).is_none());
        assert_eq!(c.stats(), &before);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = lru_cache(4096, 4);
        c.access(&AccessInfo::read(0x200));
        c.access(&AccessInfo::read(0x400));
        assert_eq!(c.resident_blocks(), 2);
        c.flush();
        assert_eq!(c.resident_blocks(), 0);
        assert!(!c.access(&AccessInfo::read(0x200)).is_hit());
    }

    #[test]
    fn flush_resets_replacement_state() {
        // After a flush the policy must not remember pre-flush recency: the
        // fill order alone decides the next victim.
        let mut c = lru_cache(128, 2);
        c.access(&AccessInfo::read(0)); // A
        c.access(&AccessInfo::read(128)); // B
        c.access(&AccessInfo::read(0)); // touch A
        c.flush();
        c.access(&AccessInfo::read(0)); // A again (fills way 0)
        c.access(&AccessInfo::read(128)); // B again (fills way 1)
                                          // With a stale LRU clock, way 1 (B) would be older than pre-flush A
                                          // stamps; with a proper reset, A is the LRU block now.
        let outcome = c.access(&AccessInfo::read(256));
        assert_eq!(outcome.evicted, Some(0), "A must be the victim after reset");
    }

    #[test]
    fn per_region_stats_are_recorded() {
        let mut c = lru_cache(4096, 4);
        c.access(&AccessInfo::read(0).with_region(RegionLabel::Property));
        c.access(&AccessInfo::read(0).with_region(RegionLabel::Property));
        c.access(&AccessInfo::read(0x1000).with_region(RegionLabel::EdgeArray));
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
        assert!(c.access(&AccessInfo::read(0x300)).is_hit());
    }

    #[test]
    fn works_with_rrip_policy_too() {
        let config = CacheConfig::new(64 * 8, 4, 64);
        let mut c = SetAssocCache::new(
            "llc",
            config,
            Box::new(Srrip::new(config.sets(), config.ways)),
        );
        // A small working set with reuse should mostly hit.
        for _ in 0..10 {
            for b in 0..4u64 {
                c.access(&AccessInfo::read(b * 64));
            }
        }
        assert!(c.stats().hits > 30);
        assert_eq!(c.policy_name(), "SRRIP");
    }

    #[test]
    fn works_with_dyn_policies() {
        // The trait object stays the extension point for external policies.
        #[derive(Debug)]
        struct EvictWayZero;

        impl ReplacementPolicy for EvictWayZero {
            fn name(&self) -> &'static str {
                "EvictWayZero"
            }

            fn choose_victim(&mut self, _set: usize, _info: &AccessInfo) -> usize {
                0
            }

            fn on_fill(&mut self, _set: usize, _way: usize, _info: &AccessInfo) {}

            fn on_hit(&mut self, _set: usize, _way: usize, _info: &AccessInfo) {}
        }

        let config = CacheConfig::new(128, 2, 64);
        let boxed: Box<dyn ReplacementPolicy> = Box::new(EvictWayZero);
        let mut c = SetAssocCache::new("llc", config, boxed);
        c.access(&AccessInfo::read(0)); // way 0
        c.access(&AccessInfo::read(128)); // way 1
        let outcome = c.access(&AccessInfo::read(256));
        assert_eq!(outcome.evicted, Some(0), "custom policy evicts way 0");
        assert_eq!(c.policy_name(), "EvictWayZero");
    }

    #[test]
    fn write_marks_block_dirty_and_hits_later() {
        let mut c = lru_cache(4096, 4);
        c.access(&AccessInfo::write(0x80));
        assert!(c.access(&AccessInfo::read(0x80)).is_hit());
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
                info.with_region(RegionLabel::ALL[(i % 5) as usize])
                    .with_site((i % 11) as u16)
            })
            .collect()
    }

    #[test]
    fn batched_demand_accesses_match_the_scalar_path_exactly() {
        let run = mixed_run(500);
        for make in [
            || -> SetAssocCache { lru_cache(2048, 4) },
            || -> SetAssocCache {
                let config = CacheConfig::new(2048, 8, 64);
                SetAssocCache::new("test", config, Srrip::new(config.sets(), config.ways))
            },
        ] {
            let mut scalar = make();
            for info in &run {
                scalar.access(info);
            }
            let mut batched = make();
            let mut scratch = BatchScratch::new();
            // Uneven run boundaries exercise scratch reuse across runs.
            let mut misses = 0;
            for window in run.chunks(77) {
                misses += batched.access_batch(window, &mut scratch);
            }
            assert_eq!(scalar.stats(), batched.stats());
            assert_eq!(misses, scalar.stats().misses);
            assert_eq!(scalar.resident_blocks(), batched.resident_blocks());
        }
    }

    #[test]
    fn batched_prefetches_match_the_scalar_path_exactly() {
        let run = mixed_run(300);
        let mut scalar = lru_cache(2048, 4);
        for info in &run {
            scalar.prefetch(info);
        }
        let mut batched = lru_cache(2048, 4);
        let mut scratch = BatchScratch::new();
        for window in run.chunks(64) {
            batched.prefetch_batch(window, &mut scratch);
        }
        assert_eq!(scalar.stats(), batched.stats());
        assert_eq!(scalar.resident_blocks(), batched.resident_blocks());
    }

    #[test]
    fn batched_accesses_drive_dyn_policies_through_the_escape_hatch() {
        #[derive(Debug)]
        struct EvictHighestWay(usize);

        impl ReplacementPolicy for EvictHighestWay {
            fn name(&self) -> &'static str {
                "EvictHighestWay"
            }

            fn choose_victim(&mut self, _set: usize, _info: &AccessInfo) -> usize {
                self.0 - 1
            }

            fn on_fill(&mut self, _set: usize, _way: usize, _info: &AccessInfo) {}

            fn on_hit(&mut self, _set: usize, _way: usize, _info: &AccessInfo) {}
        }

        let run = mixed_run(200);
        let config = CacheConfig::new(1024, 4, 64);
        let make = || {
            let boxed: Box<dyn ReplacementPolicy> = Box::new(EvictHighestWay(config.ways));
            SetAssocCache::new("test", config, boxed)
        };
        let mut scalar = make();
        for info in &run {
            scalar.access(info);
        }
        let mut batched = make();
        let mut scratch = BatchScratch::new();
        batched.access_batch(&run, &mut scratch);
        assert_eq!(scalar.stats(), batched.stats());
    }

    #[test]
    fn mixed_replay_batches_match_the_scalar_dispatch_exactly() {
        // Demand, prefetch and writeback records densely interleaved — the
        // shape recorded traces actually have — replayed through the mixed
        // kernel vs per-record scalar dispatch.
        let run = mixed_run(600);
        let ops: Vec<BatchOp> = (0..run.len())
            .map(|i| match i % 4 {
                1 => BatchOp::Prefetch,
                3 => BatchOp::Writeback,
                _ => BatchOp::Demand,
            })
            .collect();
        for make in [
            || -> SetAssocCache { lru_cache(2048, 4) },
            || -> SetAssocCache {
                let config = CacheConfig::new(2048, 8, 64);
                SetAssocCache::new("test", config, Srrip::new(config.sets(), config.ways))
            },
        ] {
            let mut scalar = make();
            let mut scalar_misses = 0;
            for (info, op) in run.iter().zip(&ops) {
                match op {
                    BatchOp::Demand => {
                        scalar_misses += u64::from(!scalar.access(info).is_hit());
                    }
                    BatchOp::Prefetch => {
                        scalar.prefetch(info);
                    }
                    BatchOp::Writeback => {
                        scalar.writeback(info.addr);
                    }
                }
            }
            let mut batched = make();
            let mut scratch = BatchScratch::new();
            let mut misses = 0;
            // Uneven tile boundaries exercise scratch reuse across tiles.
            for (infos, ops) in run.chunks(77).zip(ops.chunks(77)) {
                misses += batched.replay_batch(infos, ops, &mut scratch);
            }
            assert_eq!(scalar.stats(), batched.stats());
            assert_eq!(misses, scalar_misses);
            assert_eq!(scalar.resident_blocks(), batched.resident_blocks());
        }
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let mut c = lru_cache(4096, 4);
        let mut scratch = BatchScratch::new();
        assert_eq!(c.access_batch(&[], &mut scratch), 0);
        c.prefetch_batch(&[], &mut scratch);
        assert_eq!(c.replay_batch(&[], &[], &mut scratch), 0);
        assert_eq!(c.stats(), &CacheStats::new());
    }

    #[test]
    fn sixty_four_way_associativity_is_supported() {
        let config = CacheConfig::new(64 * 64, 64, 64); // one 64-way set
        let mut c = SetAssocCache::new("llc", config, Lru::new(config.sets(), config.ways));
        for b in 0..64u64 {
            c.access(&AccessInfo::read(b * 64));
        }
        assert_eq!(c.resident_blocks(), 64);
        assert_eq!(c.stats().evictions, 0);
        let outcome = c.access(&AccessInfo::read(64 * 64));
        assert_eq!(outcome.evicted, Some(0), "LRU block evicted once full");
    }
}
