//! Least-Recently-Used replacement.

use super::ReplacementPolicy;
use crate::lanes::{LaneOps, Lanes, LANES};
use crate::request::AccessInfo;
use crate::swar::{broadcast, LANE_HIGH};

/// True LRU, kept as a per-set recency permutation of byte ranks: every
/// block holds an 8-bit rank (0 = MRU, `ways - 1` = LRU) and a hit or fill
/// moves the block to rank 0, pushing the more-recent blocks down by one.
/// The push-down is a branch-free SWAR add — one compare/add pair covers
/// eight ways — and the victim scan is the exact lane compare the cache
/// uses for partial tags. Victims are identical to a timestamp
/// implementation: both realize the exact move-to-front order.
///
/// LRU is the reference point of the OPT study (Fig. 11 / Table VII reports
/// "% misses eliminated over LRU") and is also used for the L1 and L2 levels
/// of the hierarchy, as in commodity cores.
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    /// Rank bytes, `stride` per set. Lanes beyond `ways` hold `0xFF`, which
    /// the SWAR update never increments (no carry into neighbouring lanes)
    /// and the victim scan never matches.
    ranks: Vec<u8>,
    /// `ways` rounded up to whole 16-lane groups.
    stride: usize,
}

impl Lru {
    /// Creates an LRU policy for a cache of `sets` × `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 64 (ranks must stay below the byte lanes'
    /// sign bit for the SWAR compare).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "LRU supports at most 64 ways");
        let stride = ways.next_multiple_of(LANES);
        let identity = (0..stride).map(|lane| if lane < ways { lane as u8 } else { 0xFF });
        Self {
            ways,
            ranks: identity.cycle().take(sets * stride).collect(),
            stride,
        }
    }

    /// Current rank of a way (test/diagnostic helper).
    #[cfg(test)]
    fn rank(&self, set: usize, way: usize) -> u8 {
        self.ranks[set * self.stride + way]
    }

    /// Moves `way` to rank 0, incrementing every way that was more recent.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let ranks = &mut self.ranks[set * self.stride..][..self.stride];
        let old = ranks[way];
        if old == 0 {
            return; // already MRU: nothing moves
        }
        let threshold = broadcast(old);
        for lanes in ranks.as_chunks_mut::<8>().0 {
            // Per-lane `rank < old` for lanes below 0x80: the high bit of
            // `(lane | 0x80) - old` is clear exactly when lane < old.
            // Padding lanes (0xFF) always compare "not less" and never
            // increment, so no carry crosses lanes.
            let word = u64::from_le_bytes(*lanes);
            let ge_mask = (word | LANE_HIGH).wrapping_sub(threshold);
            *lanes = word.wrapping_add((!ge_mask & LANE_HIGH) >> 7).to_le_bytes();
        }
        // The touched lane itself was not below its own rank: clear it.
        ranks[way] = 0;
    }
}

impl ReplacementPolicy for Lru {
    #[inline(always)]
    fn choose_victim(&mut self, set: usize) -> usize {
        // Exactly one way of the set holds rank `ways - 1`: one exact lane
        // compare per sixteen ways, with no loop exit to mispredict.
        let ranks = &self.ranks[set * self.stride..][..self.stride];
        Lanes::eq_mask(ranks, self.ways, (self.ways - 1) as u8).trailing_zeros() as usize
    }

    fn on_fill(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.touch(set, way);
    }

    fn on_hit(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.touch(set, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_least_recently_touched() {
        let mut lru = Lru::new(1, 4);
        let info = AccessInfo::read(0);
        for way in 0..4 {
            lru.on_fill(0, way, &info);
        }
        // Touch ways 0, 2, 3 -> way 1 is the victim.
        lru.on_hit(0, 0, &info);
        lru.on_hit(0, 2, &info);
        lru.on_hit(0, 3, &info);
        assert_eq!(lru.choose_victim(0), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        let info = AccessInfo::read(0);
        lru.on_fill(0, 0, &info);
        lru.on_fill(0, 1, &info);
        lru.on_fill(1, 0, &info);
        lru.on_fill(1, 1, &info);
        lru.on_hit(0, 0, &info);
        lru.on_hit(1, 1, &info);
        assert_eq!(lru.choose_victim(0), 1);
        assert_eq!(lru.choose_victim(1), 0);
    }

    #[test]
    fn ranks_stay_a_permutation_under_random_touches() {
        for ways in [3, 8, 11, 16] {
            let mut lru = Lru::new(2, ways);
            let info = AccessInfo::read(0);
            let mut x = 9u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let set = ((x >> 20) & 1) as usize;
                let way = ((x >> 33) % ways as u64) as usize;
                lru.on_hit(set, way, &info);
                assert_eq!(lru.rank(set, way), 0, "touched way is MRU");
            }
            for set in 0..2 {
                let mut seen: Vec<u8> = (0..ways).map(|w| lru.rank(set, w)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..ways as u8).collect::<Vec<u8>>(), "{ways} ways");
            }
        }
    }

    #[test]
    fn matches_a_reference_timestamp_lru() {
        // Drive the SWAR implementation and a naive timestamp LRU with the
        // same touch stream; victims must agree at every step. Way counts
        // on both sides of the eight-lane word, up to the 64-way maximum.
        for ways in [1, 2, 3, 7, 8, 11, 12, 16, 64] {
            let mut lru = Lru::new(1, ways);
            let info = AccessInfo::read(0);
            let mut stamps = vec![0u64; ways];
            let mut clock = 0u64;
            for way in 0..ways {
                lru.on_fill(0, way, &info);
                clock += 1;
                stamps[way] = clock;
            }
            let mut x = 77u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let way = ((x >> 33) % ways as u64) as usize;
                lru.on_hit(0, way, &info);
                clock += 1;
                stamps[way] = clock;
                let expected = stamps
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map(|(w, _)| w)
                    .expect("non-empty");
                assert_eq!(lru.choose_victim(0), expected, "{ways} ways");
            }
        }
    }
}
