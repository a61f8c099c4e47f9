//! SWAR (SIMD-within-a-register) helpers for the policies' in-place per-set
//! updates, LRU's rank push-down and Hawkeye's friendly ageing: eight byte
//! lanes per `u64` word ([`broadcast`], [`spread_bits`]). The scans that
//! only read a set use [`crate::lanes`].

/// High bit of every byte lane.
pub(crate) const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte to all eight lanes of a `u64`.
#[inline]
pub(crate) fn broadcast(byte: u8) -> u64 {
    u64::from(byte) * 0x0101_0101_0101_0101
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_bits_gives_each_bit_its_own_lane() {
        for bits in 0..=u8::MAX {
            let lanes = (0..8).map(|lane| u64::from(bits >> lane & 1) << (8 * lane));
            assert_eq!(spread_bits(bits), lanes.sum::<u64>(), "{bits:#010b}");
        }
    }
}
