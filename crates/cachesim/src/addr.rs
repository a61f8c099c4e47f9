//! Address arithmetic.

/// A byte address in the simulated (virtual) address space.
pub type Address = u64;

/// A cache-block address: the byte address shifted right by the block bits.
pub type BlockAddr = u64;

/// Default cache block (line) size in bytes, matching commodity processors
/// and Table VI of the paper.
pub const DEFAULT_BLOCK_BYTES: u64 = 64;

/// Returns the block address of `addr` for a block of `block_bytes` bytes.
///
/// # Panics
///
/// Panics if `block_bytes` is not a power of two.
#[inline]
pub fn block_of(addr: Address, block_bytes: u64) -> BlockAddr {
    debug_assert!(
        block_bytes.is_power_of_two(),
        "block size must be a power of two"
    );
    addr >> block_bytes.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_truncates_offset() {
        assert_eq!(block_of(0, 64), 0);
        assert_eq!(block_of(63, 64), 0);
        assert_eq!(block_of(64, 64), 1);
        assert_eq!(block_of(0x1040, 64), 0x41);
    }

    #[test]
    fn block_of_other_sizes() {
        assert_eq!(block_of(127, 128), 0);
        assert_eq!(block_of(128, 128), 1);
        assert_eq!(block_of(31, 32), 0);
        assert_eq!(block_of(32, 32), 1);
    }
}
