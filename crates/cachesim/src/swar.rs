//! SWAR (SIMD-within-a-register) helpers shared by the cache's fused
//! partial-tag scan and the policies' per-set searches: eight byte lanes per
//! `u64` word ([`broadcast`], [`eq_byte_lanes`], [`first_lane`],
//! [`spread_bits`]).

/// High bit of every byte lane.
pub(crate) const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte to all eight lanes of a `u64`.
#[inline]
pub(crate) fn broadcast(byte: u8) -> u64 {
    u64::from(byte) * 0x0101_0101_0101_0101
}

/// Flags byte lanes where `word` equals `pattern` (a broadcast byte) with
/// their high bit: standard zero-byte detection, which keeps a weaker
/// contract than "every equal lane". A word with no equal lane yields 0,
/// and the *lowest* flagged lane is an equal lane; but the borrow out of an
/// equal lane can also flag a lane above it that differs from `pattern` in
/// bit 0 alone (`[7, 6, ..]` against `broadcast(7)` flags lanes 0 and 1).
/// So callers take the lowest lane ([`first_lane`]) or re-check what it
/// names; none may take the highest lane or count the flags.
#[inline]
pub(crate) fn eq_byte_lanes(word: u64, pattern: u64) -> u64 {
    let x = word ^ pattern;
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & LANE_HIGH
}

/// One byte lane per bit of `bits`: lane `i` is 1 where bit `i` is set, 0
/// elsewhere. The multiply copies the low seven bits to shifts of 0, 7, 14,
/// … 49, so bit `i` lands alone at bit `8 i` and no two copies overlap (no
/// carries); bit 7's copy would collide with bit 0's, so it moves apart.
#[inline]
pub(crate) fn spread_bits(bits: u8) -> u64 {
    let low = (u64::from(bits & 0x7F) * 0x0002_0408_1020_4081) & 0x0101_0101_0101_0101;
    low | u64::from(bits >> 7) << 56
}

/// Index of the lowest matching byte lane in an [`eq_byte_lanes`] mask.
#[inline]
pub(crate) fn first_lane(lanes: u64) -> usize {
    (lanes.trailing_zeros() / 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_matching_lanes() {
        let word = u64::from_le_bytes([7, 3, 7, 0, 255, 7, 1, 2]);
        let lanes = eq_byte_lanes(word, broadcast(7));
        assert_ne!(lanes, 0);
        assert_eq!(first_lane(lanes), 0);
        let lanes = eq_byte_lanes(word, broadcast(255));
        assert_eq!(first_lane(lanes), 4);
        assert_eq!(eq_byte_lanes(word, broadcast(9)), 0);
    }

    #[test]
    fn only_the_lowest_flagged_lane_is_exact() {
        // Lane 1 (6 = 7 ^ 1) is flagged by the borrow out of lane 0's
        // match: taking the highest lane or a popcount would be wrong.
        let lanes = eq_byte_lanes(u64::from_le_bytes([7, 6, 0, 0, 0, 0, 0, 0]), broadcast(7));
        assert_eq!(lanes, 0x8080);
        assert_eq!(first_lane(lanes), 0);
        // Without an equal lane nothing is flagged, near misses or not.
        assert_eq!(eq_byte_lanes(broadcast(6), broadcast(7)), 0);
    }

    #[test]
    fn spread_bits_gives_each_bit_its_own_lane() {
        for bits in 0..=u8::MAX {
            let lanes = (0..8).map(|lane| u64::from(bits >> lane & 1) << (8 * lane));
            assert_eq!(spread_bits(bits), lanes.sum::<u64>(), "{bits:#010b}");
        }
    }
}
