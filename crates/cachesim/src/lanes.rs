//! Byte-lane primitives for replay's per-set scans — the cache's partial-tag
//! scan, RRIP's distant-block search, LRU's victim and Leeway's dead-block
//! scan — over groups of sixteen lanes, one byte per way.
//!
//! On x86_64 ([`Sse2`]) each primitive is a few SSE2 instructions
//! (`pcmpeqb`, `pmaxub`, `pmovmskb`), which LLVM does not find in portable
//! byte loops. SSE2 is in the x86_64 baseline, so there is no target-feature
//! flag and no runtime detection; but calling a `core::arch` intrinsic is
//! `unsafe` even with its feature statically enabled, so each SSE2 primitive
//! wraps its intrinsic calls, and nothing else, in one `unsafe` block. Other
//! targets run the portable body, which tests pin to the SSE2 one.
//!
//! A mask has bit `i` set for lane `i`. A set's scan reads whole groups, so
//! every column scanned is padded for the last set's last group to stay in
//! bounds; bits at or past `ways` are never reported.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128i, _mm_cmpeq_epi8, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_max_epu8, _mm_movemask_epi8,
    _mm_srli_si128, _mm_storeu_si128,
};

/// Lanes per group.
pub(crate) const LANES: usize = 16;

/// Sixteen byte lanes.
pub(crate) type Group = [u8; LANES];

/// The length of a column of `ways` lanes per set over `sets` sets, padded
/// for the last set's last group to stay in bounds.
pub(crate) fn column_len(sets: usize, ways: usize) -> usize {
    sets * ways + ways.next_multiple_of(LANES) - ways
}

/// The body of the lane primitives this target runs.
#[cfg(target_arch = "x86_64")]
pub(crate) type Lanes = Sse2;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) type Lanes = Portable;

/// The lane primitives, implemented once per body. Comparisons yield a byte
/// mask: `0xFF` in every lane where they hold, `0x00` elsewhere.
pub(crate) trait LaneOps {
    /// Lanes where `a` equals `b`.
    fn eq(a: Group, b: Group) -> Group;
    /// Lanes where `a` is at least `b`, unsigned.
    fn ge(a: Group, b: Group) -> Group;
    /// The high bit of each lane, lane `i` at bit `i`.
    fn bits(mask: Group) -> u16;
    /// The largest lane.
    fn max(a: Group) -> u8;

    /// Lanes where `a` is greater than `b`, unsigned.
    #[inline(always)]
    fn gt(a: Group, b: Group) -> Group {
        Self::ge(b, a).map(|lane| !lane)
    }

    /// `a` where the mask `b` holds, 0 elsewhere.
    #[inline(always)]
    fn and(a: Group, b: Group) -> Group {
        core::array::from_fn(|i| a[i] & b[i])
    }

    /// Bit `w` set, for each `w < ways`, where `lanes[w] == byte` — exact,
    /// so callers may take any bit. `lanes` starts at the set's way 0 and
    /// holds at least `ways.next_multiple_of(LANES)` bytes.
    #[inline(always)]
    fn eq_mask(lanes: &[u8], ways: usize, byte: u8) -> u64 {
        debug_assert!((1..=64).contains(&ways));
        let groups = lanes.as_chunks::<LANES>().0;
        let eq = |group: Group| u64::from(Self::bits(Self::eq(group, [byte; LANES])));
        // The first group unconditionally: up to sixteen ways, the loop is
        // one predictable branch.
        let mut mask = eq(groups[0]);
        for (index, &group) in groups.iter().enumerate().take(ways.div_ceil(LANES)).skip(1) {
            mask |= eq(group) << (index * LANES);
        }
        mask & u64::MAX >> (64 - ways)
    }
}

/// The SSE2 body. Its intrinsics need SSE2 alone, which every x86_64 CPU
/// has.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Sse2;

#[cfg(target_arch = "x86_64")]
impl Sse2 {
    #[inline(always)]
    fn load(a: Group) -> __m128i {
        // SAFETY: SSE2 is in the x86_64 baseline; the load reads the 16 bytes
        // of `a`, and needs no alignment.
        unsafe { _mm_loadu_si128(a.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(a: __m128i) -> Group {
        let mut out = [0; LANES];
        // SAFETY: SSE2 is in the x86_64 baseline; the store writes the 16
        // bytes of `out`, and needs no alignment.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), a) };
        out
    }
}

#[cfg(target_arch = "x86_64")]
impl LaneOps for Sse2 {
    #[inline(always)]
    fn eq(a: Group, b: Group) -> Group {
        // SAFETY: SSE2 is in the x86_64 baseline.
        Self::store(unsafe { _mm_cmpeq_epi8(Self::load(a), Self::load(b)) })
    }

    #[inline(always)]
    fn ge(a: Group, b: Group) -> Group {
        let (a, b) = (Self::load(a), Self::load(b));
        // SAFETY: SSE2 is in the x86_64 baseline. `max(a, b) == a` is
        // `a >= b`, unsigned.
        Self::store(unsafe { _mm_cmpeq_epi8(_mm_max_epu8(a, b), a) })
    }

    #[inline(always)]
    fn bits(mask: Group) -> u16 {
        // SAFETY: SSE2 is in the x86_64 baseline.
        unsafe { _mm_movemask_epi8(Self::load(mask)) as u16 }
    }

    #[inline(always)]
    fn max(a: Group) -> u8 {
        let a = Self::load(a);
        // SAFETY: SSE2 is in the x86_64 baseline. Each step folds the upper
        // half of the lanes still in play onto the lower half; the zeros
        // shifted in never win.
        unsafe {
            let a = _mm_max_epu8(a, _mm_srli_si128::<8>(a));
            let a = _mm_max_epu8(a, _mm_srli_si128::<4>(a));
            let a = _mm_max_epu8(a, _mm_srli_si128::<2>(a));
            _mm_cvtsi128_si32(_mm_max_epu8(a, _mm_srli_si128::<1>(a))) as u8
        }
    }
}

/// The portable body.
#[cfg(any(test, not(target_arch = "x86_64")))]
pub(crate) struct Portable;

#[cfg(any(test, not(target_arch = "x86_64")))]
impl LaneOps for Portable {
    fn eq(a: Group, b: Group) -> Group {
        core::array::from_fn(|i| if a[i] == b[i] { 0xFF } else { 0 })
    }

    fn ge(a: Group, b: Group) -> Group {
        core::array::from_fn(|i| if a[i] >= b[i] { 0xFF } else { 0 })
    }

    fn bits(mask: Group) -> u16 {
        (0..LANES).fold(0, |bits, i| bits | u16::from(mask[i] >> 7) << i)
    }

    fn max(a: Group) -> u8 {
        a.into_iter().fold(0, u8::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Groups with the probed byte at one lane, at every position, beside
    /// lanes just below, just above and far from it — or with that lane
    /// one off the probe, so nothing matches there.
    fn groups() -> Vec<(Group, u8)> {
        let mut x = 5u64;
        let mut cases = Vec::new();
        for lane in 0..LANES {
            for probe in [0u8, 1, 6, 7, 0x7F, 0x80, 0xFE, 0xFF] {
                for _ in 0..4 {
                    let mut group = [0; LANES];
                    for (i, slot) in group.iter_mut().enumerate() {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let near = [probe.wrapping_sub(1), probe.wrapping_add(1), probe ^ 0x80];
                        *slot = match (x >> 33) % 4 {
                            _ if i == lane => probe,
                            0 => (x >> 41) as u8,
                            k => near[k as usize - 1],
                        };
                    }
                    cases.push((group, probe));
                    group[lane] = probe.wrapping_add(1);
                    cases.push((group, probe));
                }
            }
        }
        cases
    }

    #[test]
    fn the_sse2_body_matches_the_portable_body() {
        for (group, probe) in groups() {
            let other = group.map(|lane| lane.rotate_left(3));
            for b in [[probe; LANES], other] {
                assert_eq!(
                    Sse2::eq(group, b),
                    Portable::eq(group, b),
                    "{group:?} {b:?}"
                );
                assert_eq!(
                    Sse2::ge(group, b),
                    Portable::ge(group, b),
                    "{group:?} {b:?}"
                );
                assert_eq!(
                    Sse2::gt(group, b),
                    Portable::gt(group, b),
                    "{group:?} {b:?}"
                );
                assert_eq!(
                    Sse2::gt(b, group),
                    Portable::gt(b, group),
                    "{group:?} {b:?}"
                );
            }
            assert_eq!(Sse2::bits(group), Portable::bits(group), "{group:?}");
            assert_eq!(Sse2::max(group), Portable::max(group), "{group:?}");
        }
    }

    #[test]
    fn the_portable_body_is_exact() {
        for (group, probe) in groups() {
            let splat = [probe; LANES];
            let eq = Portable::bits(Portable::eq(group, splat));
            let ge = Portable::bits(Portable::ge(group, splat));
            let gt = Portable::bits(Portable::gt(group, splat));
            for (lane, &value) in group.iter().enumerate() {
                assert_eq!(eq >> lane & 1 != 0, value == probe, "{group:?} {probe}");
                assert_eq!(ge >> lane & 1 != 0, value >= probe, "{group:?} {probe}");
                assert_eq!(gt >> lane & 1 != 0, value > probe, "{group:?} {probe}");
            }
            assert_eq!(Some(Portable::max(group)), group.iter().copied().max());
        }
    }

    #[test]
    fn eq_mask_reports_every_match_below_ways_and_none_past_it() {
        // The byte sought at every way, at none and at each single way, with
        // the padding past `ways` always holding it.
        for ways in 1..=64usize {
            let check = |lanes: &[u8], expected: u64| {
                assert_eq!(
                    Sse2::eq_mask(lanes, ways, 9),
                    expected,
                    "{ways} ways, {lanes:?}"
                );
                assert_eq!(
                    Portable::eq_mask(lanes, ways, 9),
                    expected,
                    "{ways} ways, {lanes:?}"
                );
            };
            let mut lanes = vec![9u8; ways.next_multiple_of(LANES)];
            check(&lanes, u64::MAX >> (64 - ways));
            lanes[..ways].fill(3);
            check(&lanes, 0);
            for way in 0..ways {
                lanes[way] = 9;
                check(&lanes, 1 << way);
                lanes[way] = 3;
            }
        }
    }
}
