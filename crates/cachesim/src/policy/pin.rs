//! XMem-style pinning (PIN-X) adapted to graph analytics (Sec. IV-C / V-B).
//!
//! XMem (Vijaykumar et al., ISCA'18) lets software pin cache blocks so the
//! hardware never evicts them. The paper adapts it to graph analytics by
//! pinning blocks from the High Reuse Region (identified through the GRASP
//! interface) and explores four configurations, PIN-25/50/75/100, where X is
//! the percentage of LLC capacity reserved for pinned blocks. Pinned blocks
//! cannot be evicted; the unreserved capacity is managed by the base RRIP
//! scheme. The rigidity of pinning — pinned blocks stay even after their reuse
//! dries up — is what GRASP's flexible policies improve upon.

use super::rrip::{RrpvArray, RRPV_LONG, RRPV_MAX};
use super::ReplacementPolicy;
use crate::hint::ReuseHint;
use crate::request::AccessInfo;

/// The PIN-X policy: `reserved_fraction` of each set's ways may hold pinned
/// blocks from the High Reuse Region.
#[derive(Debug, Clone)]
pub struct PinX {
    rrpv: RrpvArray,
    ways: usize,
    /// Per-set pin bits (bit `w` = way `w`), so the victim search and the
    /// fill/evict bookkeeping are bit operations instead of `Vec<bool>`
    /// loads.
    pinned: Vec<u64>,
    reserved_ways: usize,
}

impl PinX {
    /// Creates a PIN-X policy reserving `percent`% of the ways of every set
    /// for pinned blocks.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is 0 or greater than 100.
    pub fn new(sets: usize, ways: usize, percent: u8) -> Self {
        assert!((1..=100).contains(&percent), "percent must be in 1..=100");
        assert!(ways <= 64, "PIN-X supports at most 64 ways");
        let reserved_ways = ((ways * percent as usize) / 100).max(1);
        Self {
            rrpv: RrpvArray::new(sets, ways),
            ways,
            pinned: vec![0; sets],
            reserved_ways,
        }
    }

    fn try_pin(&mut self, set: usize, way: usize) {
        let bit = 1u64 << way;
        let mask = self.pinned[set];
        if mask & bit == 0 && (mask.count_ones() as usize) < self.reserved_ways {
            self.pinned[set] = mask | bit;
        }
    }
}

impl ReplacementPolicy for PinX {
    #[inline(always)]
    fn choose_victim(&mut self, set: usize) -> usize {
        // Standard RRIP victim search restricted to unpinned ways. As in
        // `RrpvArray::find_victim`, the reference loop's repeated
        // scan-and-age passes collapse into one pass: ageing the unpinned
        // ways until one reaches `RRPV_MAX` adds exactly `RRPV_MAX - max`
        // to each, and the victim is the first unpinned way that held the
        // maximum.
        let full = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        let mut unpinned = !self.pinned[set] & full;
        if unpinned == 0 {
            // Every way is pinned (only possible with PIN-100): fall back
            // to evicting way 0 so forward progress is maintained. XMem
            // avoids this by bounding pin requests; the guard keeps the
            // simulator robust.
            return 0;
        }
        let mut best: Option<(u8, usize)> = None;
        let mut scan = unpinned;
        while scan != 0 {
            let way = scan.trailing_zeros() as usize;
            let value = self.rrpv.get(set, way);
            if value == RRPV_MAX {
                return way;
            }
            if best.is_none_or(|(max, _)| value > max) {
                best = Some((value, way));
            }
            scan &= scan - 1;
        }
        let (max, victim) = best.expect("at least one unpinned way");
        let delta = RRPV_MAX - max;
        while unpinned != 0 {
            let way = unpinned.trailing_zeros() as usize;
            let value = self.rrpv.get(set, way);
            self.rrpv.set(set, way, value + delta);
            unpinned &= unpinned - 1;
        }
        victim
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        // The way may have been vacated by an eviction that already cleared
        // the pin; make sure the bookkeeping is consistent.
        self.pinned[set] &= !(1u64 << way);
        if info.hint == ReuseHint::High {
            self.try_pin(set, way);
            self.rrpv.set(set, way, 0);
        } else {
            self.rrpv.set(set, way, RRPV_LONG);
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        if info.hint == ReuseHint::High {
            self.try_pin(set, way);
        }
        self.rrpv.set(set, way, 0);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        self.pinned[set] &= !(1u64 << way);
    }

    fn reads_hints(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RegionLabel;

    fn high(addr: u64) -> AccessInfo {
        AccessInfo {
            hint: ReuseHint::High,
            region: RegionLabel::Property,
            ..AccessInfo::read(addr)
        }
    }

    fn low(addr: u64) -> AccessInfo {
        AccessInfo::read(addr).with_hint(ReuseHint::Low)
    }

    #[test]
    fn reservation_percentages_map_to_ways() {
        assert_eq!(PinX::new(4, 16, 25).reserved_ways, 4);
        assert_eq!(PinX::new(4, 16, 50).reserved_ways, 8);
        assert_eq!(PinX::new(4, 16, 75).reserved_ways, 12);
        assert_eq!(PinX::new(4, 16, 100).reserved_ways, 16);
        // At least one way is always reserved.
        assert_eq!(PinX::new(4, 2, 25).reserved_ways, 1);
    }

    #[test]
    #[should_panic(expected = "percent must be in 1..=100")]
    fn zero_percent_panics() {
        let _ = PinX::new(4, 16, 0);
    }

    #[test]
    fn high_reuse_fills_are_pinned_up_to_the_quota() {
        let mut p = PinX::new(1, 4, 50); // 2 reserved ways
        p.on_fill(0, 0, &high(0));
        p.on_fill(0, 1, &high(64));
        p.on_fill(0, 2, &high(128));
        assert_eq!(p.pinned[0].count_ones(), 2, "quota limits pinning");
    }

    #[test]
    fn pinned_blocks_are_never_victims() {
        let mut p = PinX::new(1, 4, 50);
        p.on_fill(0, 0, &high(0));
        p.on_fill(0, 1, &high(64));
        p.on_fill(0, 2, &low(128));
        p.on_fill(0, 3, &low(192));
        for _ in 0..20 {
            let victim = p.choose_victim(0);
            assert!(
                victim == 2 || victim == 3,
                "victim {victim} must be unpinned"
            );
        }
    }

    #[test]
    fn eviction_releases_the_pin() {
        let mut p = PinX::new(1, 4, 25); // 1 reserved way
        p.on_fill(0, 0, &high(0));
        assert_eq!(p.pinned[0].count_ones(), 1);
        p.on_evict(0, 0);
        assert_eq!(p.pinned[0].count_ones(), 0);
        // The freed quota can be used again.
        p.on_fill(0, 1, &high(64));
        assert_eq!(p.pinned[0].count_ones(), 1);
    }

    #[test]
    fn pin_100_fully_pinned_set_still_makes_progress() {
        let mut p = PinX::new(1, 2, 100);
        p.on_fill(0, 0, &high(0));
        p.on_fill(0, 1, &high(64));
        assert_eq!(p.pinned[0].count_ones(), 2);
        // All ways pinned: the guard still returns some victim.
        let victim = p.choose_victim(0);
        assert!(victim < 2);
    }

    #[test]
    fn hits_can_pin_previously_unpinned_high_blocks() {
        let mut p = PinX::new(1, 4, 50);
        // Filled while quota was exhausted by other ways.
        p.on_fill(0, 0, &high(0));
        p.on_fill(0, 1, &high(64));
        p.on_fill(0, 2, &high(128));
        assert_eq!(p.pinned[0].count_ones(), 2);
        // Evict a pinned way, then a hit on way 2 grabs the quota.
        p.on_evict(0, 0);
        p.on_hit(0, 2, &high(128));
        assert_eq!(p.pinned[0].count_ones(), 2);
    }
}
