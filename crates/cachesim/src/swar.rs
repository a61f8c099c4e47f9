//! SWAR (SIMD-within-a-register) helpers shared by the cache's fused
//! partial-tag scan, the RRIP victim search and replay's flush splitting.
//!
//! The single-lane helpers ([`broadcast`], [`eq_byte_lanes`], [`first_lane`])
//! serve the per-access path; [`kind_run_len`] scans a whole metadata column
//! eight records per step.

/// Broadcasts a byte to all eight lanes of a `u64`.
#[inline]
pub(crate) fn broadcast(byte: u8) -> u64 {
    u64::from(byte) * 0x0101_0101_0101_0101
}

/// Returns a mask with the high bit of every byte lane where `word` equals
/// `pattern` (a broadcast byte). Standard zero-byte detection.
#[inline]
pub(crate) fn eq_byte_lanes(word: u64, pattern: u64) -> u64 {
    let x = word ^ pattern;
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080
}

/// Index of the lowest matching byte lane in an [`eq_byte_lanes`] mask.
#[inline]
pub(crate) fn first_lane(lanes: u64) -> usize {
    (lanes.trailing_zeros() / 8) as usize
}

/// Length of the prefix of `meta` whose masked kind bits equal `kind`
/// (`meta[i] & mask == kind`) — the run-splitting primitive of chunk
/// replay. Groups of eight records are rejected or accepted with one
/// OR-folded comparison (a wide op the compiler vectorizes), so scanning a
/// multi-thousand-record demand run costs a fraction of a per-record loop;
/// the mismatching tail is then located with a scalar scan.
#[inline]
pub(crate) fn kind_run_len(meta: &[u32], kind: u32, mask: u32) -> usize {
    let mut len = 0;
    for group in meta.chunks_exact(8) {
        let mismatch = group
            .iter()
            .fold(0u32, |acc, &word| acc | ((word & mask) ^ kind));
        if mismatch != 0 {
            break;
        }
        len += 8;
    }
    while len < meta.len() && meta[len] & mask == kind {
        len += 1;
    }
    len
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
    fn kind_run_len_handles_every_boundary() {
        const MASK: u32 = 0b11_0000;
        const A: u32 = 0b01_0000;
        const B: u32 = 0b10_0000;
        // Empty column, homogeneous column, break inside the first group,
        // break exactly on a group boundary, break in the scalar tail.
        assert_eq!(kind_run_len(&[], A, MASK), 0);
        assert_eq!(kind_run_len(&[A | 1; 20], A, MASK), 20);
        assert_eq!(kind_run_len(&[B, A, A], A, MASK), 0);
        let mut meta = vec![A; 8];
        meta.push(B);
        meta.extend([A; 3]);
        assert_eq!(kind_run_len(&meta, A, MASK), 8);
        let mut meta = vec![A; 11];
        meta[10] = B;
        assert_eq!(kind_run_len(&meta, A, MASK), 10);
        // Low bits outside the mask never break a run.
        let meta = [A, A | 0xF, A | (0xFFFF_FC0F & !MASK)];
        assert_eq!(kind_run_len(&meta, A, MASK), 3);
    }
}
