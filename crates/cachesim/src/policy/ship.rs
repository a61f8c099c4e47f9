//! SHiP-MEM: Signature-based Hit Predictor keyed by memory region
//! (Wu et al., MICRO'11; the SHiP-MEM variant evaluated in Sec. IV-C).
//!
//! SHiP associates every fill with a *signature* and learns, per signature,
//! whether blocks brought in under it tend to be re-referenced. The paper
//! evaluates the memory-region variant (16 KiB regions) because PC-based
//! signatures are meaningless for graph analytics: the same instruction
//! accesses hot and cold vertices alike. The predictor table (SHCT) is
//! unbounded, matching the paper's "unlimited entries" methodology that
//! assesses the scheme's maximum potential.

use super::rrip::{RrpvArray, RRPV_LONG, RRPV_MAX};
use super::ReplacementPolicy;
use crate::fast_hash::FxHashMap;
use crate::request::AccessInfo;

/// Size of the memory region that forms a signature (16 KiB as in the
/// original proposal and the paper).
pub const SHIP_REGION_BYTES: u64 = 16 * 1024;

/// Maximum value of the 3-bit SHCT counters.
const SHCT_MAX: u8 = 7;

/// Initial (weakly re-referenced) SHCT counter value.
const SHCT_INIT: u8 = 1;

/// SHiP-MEM replacement policy built on an SRRIP substrate.
#[derive(Debug, Clone)]
pub struct ShipMem {
    rrpv: RrpvArray,
    ways: usize,
    /// Signature Hit Counter Table: region id → 3-bit saturating counter.
    shct: FxHashMap<u64, u8>,
    /// Per-block bookkeeping: the signature that filled the block and whether
    /// it has been re-referenced (by a demand or a prefetch hit) since the
    /// fill.
    fill_signature: Vec<u64>,
    was_reused: Vec<bool>,
}

impl ShipMem {
    /// Creates a SHiP-MEM policy for a cache of `sets` × `ways` blocks.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            rrpv: RrpvArray::new(sets, ways),
            ways,
            shct: FxHashMap::default(),
            fill_signature: vec![0; sets * ways],
            was_reused: vec![false; sets * ways],
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Memory-region signature of an access.
    #[inline]
    fn signature(&self, info: &AccessInfo) -> u64 {
        info.addr / SHIP_REGION_BYTES
    }

    /// Counter value for a signature (initialised weakly re-referenced).
    fn counter(&self, signature: u64) -> u8 {
        *self.shct.get(&signature).unwrap_or(&SHCT_INIT)
    }

    fn train_positive(&mut self, signature: u64) {
        let entry = self.shct.entry(signature).or_insert(SHCT_INIT);
        *entry = (*entry + 1).min(SHCT_MAX);
    }

    fn train_negative(&mut self, signature: u64) {
        let entry = self.shct.entry(signature).or_insert(SHCT_INIT);
        *entry = entry.saturating_sub(1);
    }
}

impl ReplacementPolicy for ShipMem {
    #[inline(always)]
    fn choose_victim(&mut self, set: usize) -> usize {
        self.rrpv.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        let signature = self.signature(info);
        let idx = self.idx(set, way);
        self.fill_signature[idx] = signature;
        self.was_reused[idx] = false;
        // Predicted dead signatures insert at the distant position, everything
        // else at the SRRIP long position.
        let value = if self.counter(signature) == 0 {
            RRPV_MAX
        } else {
            RRPV_LONG
        };
        self.rrpv.set(set, way, value);
    }

    fn on_hit(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        let idx = self.idx(set, way);
        if !self.was_reused[idx] {
            self.was_reused[idx] = true;
            let signature = self.fill_signature[idx];
            self.train_positive(signature);
        }
        self.rrpv.set(set, way, 0);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let idx = self.idx(set, way);
        if !self.was_reused[idx] {
            let signature = self.fill_signature[idx];
            self.train_negative(signature);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(addr: u64) -> AccessInfo {
        AccessInfo::read(addr)
    }

    #[test]
    fn region_signature_granularity() {
        let p = ShipMem::new(4, 4);
        assert_eq!(
            p.signature(&req(0)),
            p.signature(&req(SHIP_REGION_BYTES - 1))
        );
        assert_ne!(p.signature(&req(0)), p.signature(&req(SHIP_REGION_BYTES)));
    }

    #[test]
    fn dead_regions_insert_distant_after_negative_training() {
        let mut p = ShipMem::new(4, 4);
        let info = req(0x100);
        // Fresh signature: inserts at the long position.
        p.on_fill(0, 0, &info);
        assert_eq!(p.rrpv.get(0, 0), RRPV_LONG);
        // Evict without reuse until the counter saturates at zero.
        p.on_evict(0, 0);
        p.on_fill(0, 0, &info);
        p.on_evict(0, 0);
        // Counter has hit zero: the next fill is distant.
        p.on_fill(0, 0, &info);
        assert_eq!(p.rrpv.get(0, 0), RRPV_MAX);
    }

    #[test]
    fn reused_regions_recover_long_insertion() {
        let mut p = ShipMem::new(4, 4);
        let info = req(0x40);
        // Drive the counter to zero.
        for _ in 0..3 {
            p.on_fill(0, 0, &info);
            p.on_evict(0, 0);
        }
        p.on_fill(0, 0, &info);
        assert_eq!(p.rrpv.get(0, 0), RRPV_MAX);
        // Hits train the counter back up.
        p.on_hit(0, 0, &info);
        p.on_fill(0, 1, &info);
        assert_eq!(p.rrpv.get(0, 1), RRPV_LONG);
    }

    #[test]
    fn hit_trains_positive_once_per_residency() {
        let mut p = ShipMem::new(4, 4);
        let info = req(0x40);
        p.on_fill(0, 0, &info);
        p.on_hit(0, 0, &info);
        p.on_hit(0, 0, &info);
        // Only one increment: counter is INIT + 1.
        assert_eq!(p.counter(p.signature(&info)), SHCT_INIT + 1);
    }

    #[test]
    fn a_block_hit_only_by_a_prefetch_is_not_trained_dead() {
        // The cache reports a prefetch hit through `on_hit`, like a demand
        // hit, so a block whose only hit was a prefetch counts as reused:
        // its eviction keeps the positive training and adds no negative.
        let mut p = ShipMem::new(4, 4);
        let info = req(0x40);
        p.on_fill(0, 0, &info);
        p.on_hit(0, 0, &info);
        p.on_evict(0, 0);
        assert_eq!(p.counter(p.signature(&info)), SHCT_INIT + 1);
        // Without the hit, the same eviction trains the region negative.
        p.on_fill(0, 0, &info);
        p.on_evict(0, 0);
        assert_eq!(p.counter(p.signature(&info)), SHCT_INIT);
    }

    #[test]
    fn table_grows_with_distinct_regions() {
        let mut p = ShipMem::new(4, 4);
        for r in 0..10u64 {
            let info = req(r * SHIP_REGION_BYTES);
            p.on_fill(0, 0, &info);
            p.on_hit(0, 0, &info);
        }
        assert_eq!(p.shct.len(), 10);
    }
}
