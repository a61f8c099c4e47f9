//! The L1/L2 filter cache of [`crate::Hierarchy`]: a set-associative
//! LRU cache whose sets are kept **in recency order**.
//!
//! Everything above the LLC is LRU-managed and policy-independent
//! (Table VI), so the upper levels need none of what
//! [`crate::cache::SetAssocCache`] carries for the LLC — no pluggable policy,
//! no "reused since fill" bit, no per-way metadata a policy could index.
//! What is left fits one `u64` per block: a line is `block << 1 | dirty`, a
//! set is `ways` lines ordered MRU → LRU, and an empty way is the [`EMPTY`]
//! sentinel. A lookup is one pass over the set's slice that shifts lines
//! down as it scans, so a hit at position `p` (or a miss) has already moved
//! lines `0..p` down by one when the scan ends and only the new MRU line is
//! left to write; the line that falls off the end on a miss is the victim.
//! The MRU line is checked first: same-block runs and a prefetch to the
//! block just touched cost one compare.
//!
//! Equivalence to `SetAssocCache` + [`crate::policy::lru::Lru`] is by
//! construction — never-touched sentinels stay behind every touched line,
//! which is the invalid-way-first fill; the last line is the block of rank
//! `ways - 1`; `Lru` has no eviction hook — and is pinned bit-for-bit by
//! `tests::matches_set_assoc_lru`.

use crate::addr::{Address, BlockAddr};
use crate::config::CacheConfig;
use crate::request::AccessInfo;
use crate::stats::CacheStats;

/// An empty way. No resident line equals it: blocks are at least four bytes,
/// so `block << 1` stays below `1 << 63`.
const EMPTY: u64 = u64::MAX;

/// What one demand or prefetch lookup did to its set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lookup {
    /// Whether the block was resident.
    pub(crate) hit: bool,
    /// The line a miss pushed out ([`EMPTY`] on a hit or while the set
    /// still had a free way).
    evicted: u64,
}

impl Lookup {
    /// The evicted block and whether it was dirty, if a block was displaced.
    #[inline]
    pub(crate) fn victim(&self) -> Option<(BlockAddr, bool)> {
        (self.evicted != EMPTY).then_some((self.evicted >> 1, self.evicted & 1 != 0))
    }
}

/// A set-associative LRU cache with recency-ordered sets (see the module
/// docs). Statistics are accounted exactly as `SetAssocCache` accounts them.
#[derive(Debug)]
pub(crate) struct LruFilter {
    ways: usize,
    /// `sets - 1`; sets is asserted to be a power of two by [`CacheConfig`].
    set_mask: u64,
    /// `log2(block_bytes)`.
    block_shift: u32,
    /// `sets * ways` lines, each set MRU → LRU.
    lines: Vec<u64>,
    stats: CacheStats,
}

impl LruFilter {
    /// Creates an empty filter cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if blocks are smaller than four bytes: a line stores
    /// `block << 1 | dirty`, which must neither overflow nor reach [`EMPTY`].
    pub(crate) fn new(name: &str, config: CacheConfig) -> Self {
        assert!(
            config.block_bytes >= 4,
            "{name} block size ({}) must be at least 4 bytes",
            config.block_bytes
        );
        Self {
            ways: config.ways,
            set_mask: config.sets() as u64 - 1,
            block_shift: config.block_bytes.trailing_zeros(),
            lines: vec![EMPTY; config.blocks()],
            stats: CacheStats::new(),
        }
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Byte address of the first byte of `block`.
    #[inline]
    pub(crate) fn addr_of(&self, block: BlockAddr) -> Address {
        block << self.block_shift
    }

    #[inline]
    fn set_of(&mut self, block: BlockAddr) -> &mut [u64] {
        let start = (block & self.set_mask) as usize * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    /// Performs a demand access (or, when `PREFETCH`, a prefetch: identical
    /// placement, accounted as prefetch traffic), moving the block to the
    /// MRU position and filling it on a miss.
    #[inline]
    pub(crate) fn request<const PREFETCH: bool>(&mut self, info: &AccessInfo) -> Lookup {
        let block = info.addr >> self.block_shift;
        let key = block << 1;
        let dirty = u64::from(info.is_write());
        let set = self.set_of(block);
        let mut lookup = Lookup {
            hit: true,
            evicted: EMPTY,
        };
        let mut carry = set[0];
        if carry & !1 == key {
            set[0] = carry | dirty;
        } else {
            let mut found = key | dirty;
            lookup.hit = false;
            for line in &mut set[1..] {
                let current = std::mem::replace(line, carry);
                if current & !1 == key {
                    found |= current;
                    lookup.hit = true;
                    break;
                }
                carry = current;
            }
            set[0] = found;
            if !lookup.hit {
                lookup.evicted = carry;
            }
        }
        if PREFETCH {
            self.stats.record_prefetch(!lookup.hit);
        } else {
            self.stats.record(info.region, lookup.hit);
        }
        self.stats.evictions += u64::from(lookup.evicted != EMPTY);
        lookup
    }

    /// Receives the writeback of a dirty victim evicted by the level above:
    /// non-allocating, a hit marks the resident copy dirty without touching
    /// its recency. Returns `true` on a hit.
    #[inline]
    pub(crate) fn writeback(&mut self, addr: Address) -> bool {
        let block = addr >> self.block_shift;
        let key = block << 1;
        let resident = self
            .set_of(block)
            .iter_mut()
            .find(|line| **line & !1 == key);
        let hit = resident.map(|line| *line |= 1).is_some();
        self.stats.record_writeback(hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use crate::policy::lru::Lru;
    use crate::request::{AccessKind, RegionLabel};
    use proptest::prelude::*;

    /// One operation against a single cache level.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Demand(AccessInfo),
        Prefetch(AccessInfo),
        Writeback(Address),
    }

    /// Selector 0..6 demand (4..6 writes), 6..9 prefetch (8 a write — the
    /// filter must not assume prefetches are reads), 9..11 writeback. 96
    /// blocks of 64 bytes at 8-byte granularity: few enough that every
    /// geometry below sees hits at every position, conflict evictions and
    /// writeback hits.
    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..11, 0u64..(96 * 8), 0u8..5), 1..600).prop_map(|entries| {
            entries
                .into_iter()
                .map(|(sel, slot, region)| {
                    let info = AccessInfo {
                        addr: slot * 8,
                        kind: if matches!(sel, 4 | 5 | 8) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        region: RegionLabel::ALL[region as usize],
                        ..AccessInfo::read(0)
                    };
                    match sel {
                        0..=5 => Op::Demand(info),
                        6..=8 => Op::Prefetch(info),
                        _ => Op::Writeback(info.addr),
                    }
                })
                .collect()
        })
    }

    type Outcome = (bool, Option<(BlockAddr, bool)>);

    fn seen(lookup: Lookup) -> Outcome {
        (lookup.hit, lookup.victim())
    }

    fn reference(outcome: crate::cache::AccessOutcome) -> Outcome {
        let victim = outcome.evicted.map(|b| (b, outcome.evicted_dirty));
        (outcome.hit, victim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_set_assoc_lru(ops in arb_ops()) {
            // Way counts on both sides of each 16-lane group boundary.
            for ways in [1usize, 2, 3, 8, 15, 16, 17, 33, 64] {
                for sets in [1usize, 8, 32] {
                    let config = CacheConfig::new((sets * ways * 64) as u64, ways, 64);
                    let mut oracle = SetAssocCache::new(config, Lru::new(sets, ways));
                    let mut filter = LruFilter::new("filter", config);
                    for (step, op) in ops.iter().enumerate() {
                        // `(hit, victim block and its dirty bit)`, filter then oracle.
                        let (got, expected) = match op {
                            Op::Demand(info) => {
                                (seen(filter.request::<false>(info)), reference(oracle.access(info)))
                            }
                            Op::Prefetch(info) => {
                                (seen(filter.request::<true>(info)), reference(oracle.prefetch(info)))
                            }
                            Op::Writeback(addr) => {
                                ((filter.writeback(*addr), None), (oracle.writeback(*addr), None))
                            }
                        };
                        prop_assert_eq!(
                            got, expected,
                            "{} ways x {} sets, op {} {:?}", ways, sets, step, op
                        );
                    }
                    prop_assert_eq!(filter.stats(), oracle.stats(), "{} ways x {} sets", ways, sets);
                }
            }
        }
    }

    #[test]
    fn victim_addresses_round_trip_at_the_top_of_the_address_space() {
        // The largest block a 4-byte-block filter can see is one bit short
        // of the sentinel's: it must fill, hit and come back out intact.
        let mut filter = LruFilter::new("filter", CacheConfig::new(8, 2, 4));
        let top = AccessInfo::write(u64::MAX);
        assert!(!filter.request::<false>(&top).hit);
        assert!(filter.request::<false>(&top).hit);
        assert_eq!(filter.request::<false>(&AccessInfo::read(0)).victim(), None);
        let out = filter.request::<false>(&AccessInfo::read(4));
        assert_eq!(out.victim(), Some((u64::MAX >> 2, true)));
        assert_eq!(filter.addr_of(u64::MAX >> 2), !3);
    }
}
