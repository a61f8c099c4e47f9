//! Hawkeye cache replacement (Jain & Lin, ISCA'16).
//!
//! Hawkeye reconstructs what Belady's OPT *would have done* on past accesses
//! to a few sampled sets (the OPTgen structure) and uses those decisions to
//! train a predictor indexed by the PC of the load. Blocks loaded by a
//! "cache-friendly" PC are inserted at MRU and protected; blocks loaded by a
//! "cache-averse" PC are inserted at LRU and evicted first.
//!
//! In this reproduction the PC signature is the access-*site* identifier
//! (see [`crate::request::AccessSite`]). For graph analytics this faithfully
//! reproduces the failure mode the paper describes (Sec. V-A): the one site
//! that accesses the Property Array touches hot and cold vertices alike, so
//! OPTgen trains its counter towards "averse", and Hawkeye then treats *all*
//! property accesses — including the hot ones — as cache-averse, performing
//! worse than the RRIP baseline.
//!
//! Only every `sets / 64`-th set feeds OPTgen, and only those sets own a
//! window. The rule samples *every* set of an LLC with fewer than 128 sets
//! (the `Tiny` and `Small` scales), so there OPTgen runs on every access:
//! each window is a flat buffer whose previous-use lookup follows a short
//! same-fingerprint chain and whose interval passes run over one dense byte
//! column at a constant width. Split per hook over the five streams of the
//! `pipeline` benchmark at `Tiny` (one thread, 2-vCPU Xeon VM): with
//! OPTgen's training events precomputed (statistics identical), a Hawkeye
//! replay drops from 113 to 73 ns per record on the R-MAT graph and from 84
//! to 55 on the uniform one, where LRU runs 38 and 31. So OPTgen is ≈ 35 %
//! of Hawkeye's time on both; the rest is predictor lookups and training,
//! the loader column, the victim search and the friendly-ageing pass, on
//! top of the tag scan and statistics every policy pays.

use super::rrip::{RrpvArray, RRPV_MAX};
use super::{sample_interval, ReplacementPolicy};
use crate::addr::{block_of, BlockAddr};
use crate::request::{AccessInfo, AccessSite};
use crate::swar::{broadcast, spread_bits, LANE_HIGH};

/// Number of 3-bit counter states; counters ≥ `FRIENDLY_THRESHOLD` predict
/// cache-friendly behaviour.
const COUNTER_MAX: u8 = 7;
const FRIENDLY_THRESHOLD: u8 = 4;

/// `Hawkeye::window_of` value of a set that is not sampled.
const UNSAMPLED: u32 = u32::MAX;

/// One access in an OPTgen window.
#[derive(Debug, Clone, Copy, Default)]
struct WindowEntry {
    block: BlockAddr,
    /// The site that performed the access.
    site: AccessSite,
    /// Sequence-number distance back to the previous entry with the same
    /// block fingerprint; 0 when there is none within `u16` reach (which
    /// exceeds every window capacity).
    back: u16,
    /// Whether a later access to the same block was observed while the entry
    /// was inside the window (it started a usage interval).
    reused: bool,
}

/// OPTgen for a single sampled set: a sliding window of past accesses with an
/// occupancy vector that answers "would OPT have hit this access?".
///
/// The window is flat: the live entries are `entries[start..start + len]`,
/// appended at the end and retired from the front, and copied back to the
/// start of the buffer once per `capacity` accesses when they reach its end.
/// Every access gets a sequence number; `latest` maps a block fingerprint to
/// the sequence number of the newest entry carrying it and each entry links
/// back to the previous one, so finding a block's previous use walks only
/// the entries sharing its fingerprint (newest first) instead of the window.
/// Links are never unlinked: one that points before the oldest live sequence
/// number is stale.
#[derive(Debug, Clone)]
struct OptGen {
    entries: Vec<WindowEntry>,
    /// Per-entry: number of liveness intervals overlapping this position.
    /// Its own byte column so the interval check (`max < ways`) and the
    /// interval bump (`+= 1`) run over one dense slice; `capacity` longer
    /// than `entries` so a full-width pass from any live entry is in bounds.
    occupancy: Vec<u8>,
    /// Fingerprint → sequence number of the newest entry with it (0: none).
    latest: Vec<u64>,
    start: usize,
    len: usize,
    /// Sequence number of the next access; starts at 1.
    next_seq: u64,
    capacity: usize,
    ways: u8,
}

/// 8-bit block fingerprint (the top byte of a multiplicative hash, so every
/// block-address bit above the set index contributes).
#[inline]
fn fingerprint(block: BlockAddr) -> usize {
    (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// Largest window: 8x the 64 ways a set's friendly-block mask can hold.
const MAX_CAPACITY: usize = 512;

/// `MAX_CAPACITY` bytes of `0xFF`, then as many of zero, so that
/// `INSIDE[MAX_CAPACITY - span..]` starts with exactly `span` set bytes. The
/// two interval passes of [`OptGen::record`] always run `capacity` lanes with
/// the lanes past the interval masked off by this table: a constant trip
/// count and no per-lane compare, which is what lets them compile to a
/// handful of vector operations without a mispredicted loop exit.
static INSIDE: [u8; 2 * MAX_CAPACITY] = {
    let mut inside = [0; 2 * MAX_CAPACITY];
    let mut lane = 0;
    while lane < MAX_CAPACITY {
        inside[lane] = 0xFF;
        lane += 1;
    }
    inside
};

impl OptGen {
    fn new(ways: usize) -> Self {
        // The ISCA'16 design tracks 8x the associativity of usage
        // intervals per sampled set.
        let capacity = ways * 8;
        assert!(capacity <= MAX_CAPACITY, "at most 64 ways");
        Self {
            entries: vec![WindowEntry::default(); 2 * capacity],
            occupancy: vec![0; 3 * capacity],
            latest: vec![0; 256],
            start: 0,
            len: 0,
            next_seq: 1,
            capacity,
            ways: ways as u8,
        }
    }

    /// Buffer position of the most recent window entry for `block`.
    #[inline]
    fn previous_use(&self, block: BlockAddr) -> Option<usize> {
        let oldest = self.next_seq - self.len as u64;
        let mut seq = self.latest[fingerprint(block)];
        while seq >= oldest {
            let at = self.start + (seq - oldest) as usize;
            let entry = &self.entries[at];
            if entry.block == block {
                return Some(at);
            }
            if entry.back == 0 {
                break;
            }
            seq -= u64::from(entry.back);
        }
        None
    }

    /// Records an access to `block` by `site`. Returns up to two training
    /// events `(site, opt_friendly)`:
    ///
    /// * when the block has a previous access inside the window, the previous
    ///   site is trained with OPTgen's verdict (would OPT have hit?);
    /// * when the window overflows and the evicted entry never saw a reuse,
    ///   its site is trained negatively (the reuse interval, if any, exceeds
    ///   what OPT could exploit with this cache size).
    ///
    /// The events come back in a fixed-size buffer: `record` runs on every
    /// sampled fill and hit, so it must not allocate.
    fn record(&mut self, block: BlockAddr, site: AccessSite) -> TrainingEvents {
        let mut events = TrainingEvents::default();
        if let Some(prev) = self.previous_use(block) {
            // OPT would have kept the block over its usage interval iff no
            // position since the previous use is at full occupancy.
            let span = self.start + self.len - prev;
            let lanes = &mut self.occupancy[prev..prev + self.capacity];
            let inside = &INSIDE[MAX_CAPACITY - span..][..self.capacity];
            let max = lanes
                .iter()
                .zip(inside)
                .fold(0, |max, (&lane, &inside)| max.max(lane & inside));
            let fits = max < self.ways;
            if fits {
                for (lane, &inside) in lanes.iter_mut().zip(inside) {
                    // `0xFF` is -1: the interval's lanes gain one.
                    *lane = lane.wrapping_sub(inside);
                }
            }
            self.entries[prev].reused = true;
            events.push(self.entries[prev].site, fits);
        }
        if self.len == self.capacity {
            let oldest = self.entries[self.start];
            if !oldest.reused {
                events.push(oldest.site, false);
            }
            self.start += 1;
            self.len -= 1;
        }
        if self.start + self.len == self.entries.len() {
            let live = self.start..self.start + self.len;
            self.entries.copy_within(live.clone(), 0);
            self.occupancy.copy_within(live, 0);
            self.start = 0;
        }
        let at = self.start + self.len;
        let newest = &mut self.latest[fingerprint(block)];
        let back = u16::try_from(self.next_seq - *newest).unwrap_or(0);
        *newest = self.next_seq;
        self.entries[at] = WindowEntry {
            block,
            site,
            back,
            reused: false,
        };
        self.occupancy[at] = 0;
        self.len += 1;
        self.next_seq += 1;
        events
    }
}

/// Up to two `(site, opt_friendly)` training events, inline (no allocation).
#[derive(Debug, Clone, Copy, Default)]
struct TrainingEvents {
    events: [(AccessSite, bool); 2],
    len: u8,
}

impl TrainingEvents {
    fn push(&mut self, site: AccessSite, friendly: bool) {
        self.events[self.len as usize] = (site, friendly);
        self.len += 1;
    }

    fn iter(self) -> impl Iterator<Item = (AccessSite, bool)> {
        self.events.into_iter().take(self.len as usize)
    }

    #[cfg(test)]
    fn is_empty(self) -> bool {
        self.len == 0
    }

    #[cfg(test)]
    fn to_vec(self) -> Vec<(AccessSite, bool)> {
        self.iter().collect()
    }
}

/// The Hawkeye replacement policy.
#[derive(Debug, Clone)]
pub struct Hawkeye {
    rrpv: RrpvArray,
    ways: usize,
    /// Per set: the index of its OPTgen window in `optgen`, [`UNSAMPLED`]
    /// for the sets that do not train (precomputed so the per-access check
    /// is an indexed load, not a division).
    window_of: Vec<u32>,
    /// One OPTgen window per sampled set.
    optgen: Vec<OptGen>,
    block_bytes: u64,
    /// Site-indexed 3-bit predictor counters. `AccessSite` is 16-bit, so the
    /// "unlimited entries" methodology of the paper is a flat 64 Ki table —
    /// a direct indexed load instead of a hash lookup per access.
    predictor: Vec<u8>,
    /// Per-block: the site that loaded the block (for detraining on
    /// eviction).
    loader: Vec<AccessSite>,
    /// Per-set bitmask of blocks predicted friendly at fill/hit time: the
    /// ways the friendly-ageing pass ages.
    friendly: Vec<u64>,
}

impl Hawkeye {
    /// Creates a Hawkeye policy for a cache of `sets` × `ways` blocks of
    /// `block_bytes` bytes.
    pub fn new(sets: usize, ways: usize, block_bytes: u64) -> Self {
        let interval = sample_interval(sets);
        let window_of: Vec<u32> = (0..sets)
            .map(|set| match set % interval {
                0 => (set / interval) as u32,
                _ => UNSAMPLED,
            })
            .collect();
        let windows = sets.div_ceil(interval);
        Self {
            rrpv: RrpvArray::new(sets, ways),
            ways,
            window_of,
            optgen: vec![OptGen::new(ways); windows],
            block_bytes,
            predictor: vec![FRIENDLY_THRESHOLD; usize::from(u16::MAX) + 1],
            loader: vec![0; sets * ways],
            friendly: vec![0; sets],
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Predicted friendliness of a site.
    #[inline]
    fn predict_friendly(&self, site: AccessSite) -> bool {
        self.predictor[usize::from(site)] >= FRIENDLY_THRESHOLD
    }

    fn train(&mut self, site: AccessSite, friendly: bool) {
        let entry = &mut self.predictor[usize::from(site)];
        if friendly {
            *entry = (*entry + 1).min(COUNTER_MAX);
        } else {
            *entry = entry.saturating_sub(1);
        }
    }

    /// Feeds OPTgen on sampled sets and trains the predictor with its verdict.
    fn observe(&mut self, set: usize, info: &AccessInfo) {
        let Some(optgen) = self.optgen.get_mut(self.window_of[set] as usize) else {
            return;
        };
        let events = optgen.record(block_of(info.addr, self.block_bytes), info.site);
        for (site, friendly) in events.iter() {
            self.train(site, friendly);
        }
    }

    /// Ages every cache-friendly block of a set except `except_way` — called
    /// when a friendly block is inserted, mirroring Hawkeye's RRIP-style
    /// ageing that keeps relative order among friendly blocks: each one
    /// below `RRPV_MAX - 1` gains one.
    ///
    /// One SWAR pass over the set's RRPVs, eight per word, with no branch on
    /// the friendly bits. RRPVs are at most 7, so adding
    /// `0x80 - (RRPV_MAX - 1)` to every lane sets exactly the high bits of
    /// the lanes already at `RRPV_MAX - 1` or above, and nothing carries
    /// across lanes; the friendly bits, spread one per lane, pick which of
    /// the others gain one.
    fn age_friendly(&mut self, set: usize, except_way: usize) {
        let mut mask = self.friendly[set] & !(1u64 << except_way);
        let (words, tail) = self.rrpv.of_set_mut(set).as_chunks_mut::<8>();
        for word in words {
            let rrpvs = u64::from_le_bytes(*word);
            let below = !(rrpvs + broadcast(0x80 - (RRPV_MAX - 1))) & LANE_HIGH;
            *word = (rrpvs + ((below >> 7) & spread_bits(mask as u8))).to_le_bytes();
            mask >>= 8;
        }
        for (way, rrpv) in tail.iter_mut().enumerate() {
            *rrpv += u8::from(mask >> way & 1 != 0 && *rrpv < RRPV_MAX - 1);
        }
    }
}

impl ReplacementPolicy for Hawkeye {
    #[inline(always)]
    fn choose_victim(&mut self, set: usize) -> usize {
        // Prefer cache-averse blocks (RRPV == MAX); otherwise evict the oldest
        // friendly block and detrain the site that loaded it.
        if let Some(way) = self.rrpv.first_distant(set) {
            return way;
        }
        let victim = (0..self.ways)
            .max_by_key(|&w| self.rrpv.get(set, w))
            .expect("ways is non-zero");
        let loader = self.loader[self.idx(set, victim)];
        self.train(loader, false);
        victim
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.observe(set, info);
        let friendly = self.predict_friendly(info.site);
        let idx = self.idx(set, way);
        self.loader[idx] = info.site;
        let bit = 1u64 << way;
        if friendly {
            self.friendly[set] |= bit;
            self.rrpv.set(set, way, 0);
            self.age_friendly(set, way);
        } else {
            self.friendly[set] &= !bit;
            self.rrpv.set(set, way, RRPV_MAX);
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.observe(set, info);
        let friendly = self.predict_friendly(info.site);
        let bit = 1u64 << way;
        if friendly {
            self.friendly[set] |= bit;
            self.rrpv.set(set, way, 0);
        } else {
            self.friendly[set] &= !bit;
            // The paper highlights this behaviour: a hit to a block whose site
            // is predicted cache-averse *demotes* the block instead of
            // promoting it, hurting graph workloads.
            self.rrpv.set(set, way, RRPV_MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn req(addr: u64, site: AccessSite) -> AccessInfo {
        AccessInfo {
            site,
            ..AccessInfo::read(addr)
        }
    }

    /// The differential oracle: OPTgen as the paper describes it, every step
    /// a plain scan of one deque of `(block, site, occupancy, reused)`.
    struct OracleOptGen {
        window: VecDeque<(BlockAddr, AccessSite, usize, bool)>,
        ways: usize,
    }

    impl OracleOptGen {
        fn record(&mut self, block: BlockAddr, site: AccessSite) -> Vec<(AccessSite, bool)> {
            let mut events = Vec::new();
            if let Some(prev) = self.window.iter().rposition(|entry| entry.0 == block) {
                let fits = self.window.range(prev..).all(|entry| entry.2 < self.ways);
                if fits {
                    self.window.range_mut(prev..).for_each(|entry| entry.2 += 1);
                }
                self.window[prev].3 = true;
                events.push((self.window[prev].1, fits));
            }
            self.window.push_back((block, site, 0, false));
            if self.window.len() > self.ways * 8 {
                let (_, site, _, reused) = self.window.pop_front().expect("non-empty");
                if !reused {
                    events.push((site, false));
                }
            }
            events
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The flat window emits the oracle's training events, access for
        /// access, on streams long enough to slide the window several times
        /// (`2 * capacity` is 1024 at 64 ways).
        #[test]
        fn optgen_matches_the_oracle(
            stream in proptest::collection::vec((0u64..1 << 16, 0u16..6), 1100..2600)
        ) {
            for ways in [1usize, 2, 16, 64] {
                let mut optgen = OptGen::new(ways);
                let mut oracle = OracleOptGen { window: VecDeque::new(), ways };
                // Reuse distances on both sides of the window capacity, and
                // block addresses with high bits set.
                let distinct = ways as u64 * 6 + 3;
                for (step, &(raw, site)) in stream.iter().enumerate() {
                    let block = (raw % distinct) * 0x0001_0000_0100_0001;
                    prop_assert_eq!(
                        optgen.record(block, site).to_vec(),
                        oracle.record(block, site),
                        "ways {} step {}", ways, step
                    );
                }
            }
        }
    }

    /// The differential oracle for `age_friendly`: the per-bit walk it
    /// replaced.
    fn age_friendly_per_bit(rrpvs: &mut [u8], friendly: u64, except_way: usize) {
        let mut mask = friendly & !(1u64 << except_way);
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if rrpvs[way] < RRPV_MAX - 1 {
                rrpvs[way] += 1;
            }
            mask &= mask - 1;
        }
    }

    #[test]
    fn friendly_ageing_matches_the_per_bit_walk() {
        // Way counts on both sides of the eight-lane word, every RRPV and
        // random friendly masks; `except_way` is often the last way (63 at
        // 64 ways) and is friendly about half the time.
        let mut x = 5u64;
        for ways in [1, 2, 3, 7, 8, 11, 12, 16, 64] {
            let mut h = Hawkeye::new(2, ways, 64);
            let valid = u64::MAX >> (64 - ways);
            for step in 0..1000 {
                let set = step % 2;
                for way in 0..ways {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    h.rrpv.set(set, way, (x >> 40) as u8 % (RRPV_MAX + 1));
                }
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.friendly[set] = (x ^ (x >> 31)) & valid;
                let except_way = match step % 3 {
                    0 => ways - 1,
                    _ => (x >> 50) as usize % ways,
                };
                let mut oracle = [h.rrpv.of_set(0).to_vec(), h.rrpv.of_set(1).to_vec()];
                age_friendly_per_bit(&mut oracle[set], h.friendly[set], except_way);
                h.age_friendly(set, except_way);
                for (other, expected) in oracle.iter().enumerate() {
                    assert_eq!(h.rrpv.of_set(other), expected, "{ways} ways, step {step}");
                }
            }
        }
    }

    #[test]
    fn only_sampled_sets_hold_a_window() {
        // The paper's 16 MiB / 16-way LLC: every 256th set trains OPTgen.
        let h = Hawkeye::new(16_384, 16, 64);
        assert_eq!(h.optgen.len(), 64);
        let sampled: Vec<usize> = (0..16_384)
            .filter(|&s| h.window_of[s] != UNSAMPLED)
            .collect();
        assert_eq!(sampled.len(), 64);
        for (window, &set) in sampled.iter().enumerate() {
            assert_eq!(set, window * 256);
            assert_eq!(h.window_of[set] as usize, window);
        }
        // Below 128 sets every set is sampled.
        assert_eq!(Hawkeye::new(32, 16, 64).optgen.len(), 32);
        assert_eq!(Hawkeye::new(128, 16, 64).optgen.len(), 64);
    }

    #[test]
    fn optgen_tracks_blocks_of_the_configured_size() {
        // Both halves of one 128-byte block are the same block to OPTgen:
        // the second access is a reuse that fits, so the site trains up.
        let mut wide = Hawkeye::new(1, 4, 128);
        wide.observe(0, &req(0x1000, 3));
        wide.observe(0, &req(0x1040, 3));
        assert_eq!(wide.predictor[3], FRIENDLY_THRESHOLD + 1);
        // With 64-byte blocks they are two blocks, and nothing trains.
        let mut narrow = Hawkeye::new(1, 4, 64);
        narrow.observe(0, &req(0x1000, 3));
        narrow.observe(0, &req(0x1040, 3));
        assert_eq!(narrow.predictor[3], FRIENDLY_THRESHOLD);
        // 32-byte blocks no longer alias two blocks into one.
        let mut fine = Hawkeye::new(1, 4, 32);
        fine.observe(0, &req(0x1000, 3));
        fine.observe(0, &req(0x1020, 3));
        assert_eq!(fine.predictor[3], FRIENDLY_THRESHOLD);
    }

    #[test]
    fn optgen_detects_fitting_intervals() {
        let mut opt = OptGen::new(2);
        assert!(opt.record(1, 10).is_empty());
        assert!(opt.record(2, 11).is_empty());
        // Re-access of block 1: interval [access(1), now) has occupancy 0
        // everywhere, so OPT would hit.
        let events = opt.record(1, 12);
        assert_eq!(events.to_vec(), vec![(10, true)]);
    }

    #[test]
    fn optgen_detects_overflowing_intervals() {
        let mut opt = OptGen::new(1); // a 1-way "cache"
        opt.record(1, 1);
        opt.record(2, 2);
        let events = opt.record(2, 2);
        assert_eq!(
            events.to_vec(),
            vec![(2, true)],
            "back-to-back reuse fits in one way"
        );
        // Now block 1's interval overlaps block 2's occupied slot.
        let events = opt.record(1, 1);
        assert_eq!(
            events.to_vec(),
            vec![(1, false)],
            "interval does not fit: OPT would miss"
        );
    }

    #[test]
    fn optgen_window_overflow_trains_negative() {
        let mut opt = OptGen::new(1); // window capacity 8
        for i in 0..8u64 {
            assert!(opt.record(100 + i, 5).is_empty());
        }
        // The ninth access evicts the oldest never-reused entry.
        let events = opt.record(200, 6);
        assert_eq!(events.to_vec(), vec![(5, false)]);
    }

    #[test]
    fn friendly_sites_insert_at_mru_averse_at_lru() {
        let mut h = Hawkeye::new(64, 4, 64);
        // Manually bias the predictor.
        h.predictor[1] = COUNTER_MAX;
        h.predictor[2] = 0;
        h.on_fill(3, 0, &req(0x40, 1));
        assert_eq!(h.rrpv.get(3, 0), 0);
        h.on_fill(3, 1, &req(0x80, 2));
        assert_eq!(h.rrpv.get(3, 1), RRPV_MAX);
    }

    #[test]
    fn averse_hit_demotes_instead_of_promoting() {
        let mut h = Hawkeye::new(64, 4, 64);
        h.predictor[2] = 0;
        h.on_fill(3, 0, &req(0x40, 2));
        h.on_hit(3, 0, &req(0x40, 2));
        assert_eq!(h.rrpv.get(3, 0), RRPV_MAX);
    }

    #[test]
    fn victim_prefers_averse_blocks() {
        let mut h = Hawkeye::new(64, 2, 64);
        h.predictor[1] = COUNTER_MAX;
        h.predictor[2] = 0;
        h.on_fill(3, 0, &req(0x40, 1)); // friendly
        h.on_fill(3, 1, &req(0x80, 2)); // averse
        assert_eq!(h.choose_victim(3), 1);
    }

    #[test]
    fn evicting_a_friendly_block_detrains_its_loader() {
        let mut h = Hawkeye::new(64, 2, 64);
        h.predictor[1] = COUNTER_MAX;
        h.on_fill(3, 0, &req(0x40, 1));
        h.on_fill(3, 1, &req(0x80, 1));
        let before = h.predictor[1];
        let _ = h.choose_victim(3);
        assert_eq!(h.predictor[1], before - 1);
    }

    #[test]
    fn mixed_reuse_site_trains_towards_averse() {
        // One site touches many blocks, most of which are never reused within
        // the window — exactly the Property Array pattern. The counter should
        // fall below the friendly threshold.
        let mut h = Hawkeye::new(1, 4, 64); // every set sampled
        let site = 7;
        // A stream of single-use blocks with occasional reuse of block 0.
        for i in 0..200u64 {
            let addr = if i % 50 == 0 { 0 } else { (i + 1) * 64 };
            h.observe(0, &req(addr, site));
        }
        assert!(
            h.predictor[usize::from(site)] < FRIENDLY_THRESHOLD,
            "counter {} should predict cache-averse",
            h.predictor[usize::from(site)]
        );
    }
}
