//! The staged view of the cache hierarchy: an upper-level filter stage
//! (L1 + L2 + stride prefetcher) feeding a last-level-cache stage through
//! the [`LlcSink`] interface.
//!
//! The split exists because everything above the LLC is **independent of the
//! LLC**, its replacement policy *and* its geometry: L1 and L2 are
//! LRU-managed, the prefetcher observes the demand stream at L1, and nothing
//! the LLC decides flows back upward. The post-L2 request stream — demand
//! fills, prefetch fills and dirty-victim writebacks — is therefore a pure
//! function of the application and the upper levels. GRASP's reuse hint is
//! not part of it: the hint depends on the LLC's capacity, so the
//! [`LlcStage`] classifies each request from the ABR bounds the application
//! programmed, at its own size. The record-once / replay-many experiment
//! pipeline exploits exactly this:
//!
//! ```text
//!             ┌──────────── UpperLevels ────────────┐
//!  app access │ L1-D (LRU) → L2 (LRU) → ABR bounds  │
//!             └──────────────┬──────────────────────┘
//!                            │ demand / prefetch / writeback   (LlcSink)
//!              ┌─────────────┴──────────────────────────────────┐
//!              │  LlcStage: RegionClassifier (ABRs, LLC size →  │   ← Hierarchy<LlcStage>: simulate now
//!              │            reuse hint) → LLC (policy X)        │
//!              │  LlcTrace                                      │   ← Hierarchy<LlcTrace>: record once,
//!              └────────────────────────────────────────────────┘     replay per policy and LLC geometry
//! ```
//!
//! L1 and L2 are the private `lru_filter` module's recency-ordered LRU sets, not
//! [`SetAssocCache`]s: the filter is where a recording spends its time — at
//! the scales campaigns run, 36–60 % of the demand accesses an application
//! issues miss L1 and 0.39–0.57 post-L2 records are emitted per demand
//! access (`record.pass_ratio` on the `pipeline` ledger), so there is no
//! "mostly L1 hits" fast path to lean on and what counts is the work per
//! lookup. [`UpperLevels::access`] is the one way in, for recording and for
//! direct simulation alike.
//!
//! [`crate::Hierarchy`] is the one composition of the two: the upper levels
//! with either sink. With an [`LlcStage`] it is the classic three-level
//! simulator; with an [`crate::trace::LlcTrace`] it is the one recorder, and
//! [`LlcTrace::replay`](crate::trace::LlcTrace::replay) drives a fresh
//! [`LlcStage`] from the recorded stream — through the *same*
//! code path, which is what makes replayed statistics bit-identical to direct
//! simulation.

use crate::addr::Address;
use crate::cache::SetAssocCache;
use crate::config::{CacheConfig, HierarchyConfig};
use crate::hint::{RegionClassifier, ReuseHint};
use crate::lru_filter::LruFilter;
use crate::policy::PolicyDispatch;
use crate::prefetch::StridePrefetcher;
use crate::request::{AccessInfo, AccessKind, AccessSite, RegionLabel};
use crate::stats::CacheStats;

/// Consumer of the post-L2 request stream produced by [`UpperLevels`].
///
/// Implemented by [`LlcStage`] (simulate the LLC now) and by
/// [`crate::trace::LlcTrace`] (record the stream for later replay).
pub trait LlcSink {
    /// A demand request that missed L1 and L2. Returns `true` when the
    /// request hits on chip (i.e. in the LLC); recorders return `false`.
    fn demand(&mut self, info: &AccessInfo) -> bool;

    /// A prefetch request that missed L1 and L2.
    fn prefetch(&mut self, info: &AccessInfo);

    /// The writeback of a dirty victim evicted from L2 (or evicted from L1
    /// and absent in L2).
    fn writeback(&mut self, addr: Address);

    /// The application programmed the Address Bound Registers with `bounds`.
    /// An LLC stage classifies by them; a recorder ignores the call, as the
    /// bounds reach a recording through
    /// [`UpperLevels::record_context`].
    fn program_abrs(&mut self, _bounds: &[(Address, Address)]) {}
}

/// The LLC-independent upper levels of the hierarchy: L1-D and L2 (both
/// LRU) and the L1 stride prefetcher. They also keep the ABR bounds the
/// application programmed, for the record context; the hint those bounds
/// yield is the LLC stage's business.
pub struct UpperLevels {
    config: HierarchyConfig,
    l1: LruFilter,
    l2: LruFilter,
    prefetcher: Option<StridePrefetcher>,
    abr_bounds: Vec<(Address, Address)>,
}

impl std::fmt::Debug for UpperLevels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpperLevels")
            .field("config", &self.config)
            .field("abr_bounds", &self.abr_bounds)
            .finish()
    }
}

impl UpperLevels {
    /// Creates the filter stage with the given configuration (its LLC
    /// geometry is not read).
    ///
    /// # Panics
    ///
    /// Panics if the L1 or L2 block size is below four bytes (their lines
    /// pack the block address and the dirty bit into one word).
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1: LruFilter::new("L1-D", config.l1),
            l2: LruFilter::new("L2", config.l2),
            prefetcher: config.prefetch.then(StridePrefetcher::default),
            abr_bounds: Vec::new(),
        }
    }

    /// Keeps the bounds the application programmed into the Address Bound
    /// Registers (the software side of GRASP's interface, Sec. III-A) for
    /// [`UpperLevels::record_context`]. Nothing above the LLC reads them.
    pub fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        self.abr_bounds = bounds.to_vec();
    }

    /// Snapshot of everything a recorded trace carries alongside the post-L2
    /// stream.
    pub fn record_context(&self) -> crate::trace::RecordContext {
        crate::trace::RecordContext {
            l1: self.l1.stats().clone(),
            l2: self.l2.stats().clone(),
            abr_bounds: self.abr_bounds.clone(),
        }
    }

    /// Performs one demand access, forwarding whatever escapes L2 — the
    /// demand request itself, at most one prefetch request, and any dirty
    /// victim writebacks — into `sink`. Returns `true` if the demand access
    /// hit somewhere on chip.
    pub fn access(
        &mut self,
        addr: Address,
        kind: AccessKind,
        site: AccessSite,
        region: RegionLabel,
        sink: &mut impl LlcSink,
    ) -> bool {
        let demand = AccessInfo {
            addr,
            kind,
            site,
            hint: ReuseHint::Default,
            region,
        };
        let on_chip = self.request::<false>(&demand, sink);

        // The prefetcher observes the demand stream at L1 and issues at most
        // one prefetch per access.
        if let Some(prefetcher) = self.prefetcher.as_mut() {
            if let Some(predicted) = prefetcher.observe(site, addr) {
                let prefetch = AccessInfo {
                    addr: predicted,
                    kind: AccessKind::Read,
                    ..demand
                };
                self.request::<true>(&prefetch, sink);
            }
        }
        on_chip
    }

    /// Drives one request (demand, or prefetch when `PREFETCH`) through both
    /// levels: L1 lookup; on a miss the request goes to L2 and, missing
    /// there too, to `sink`; then the dirty L1 victim is written
    /// back into L2 (and forwarded to `sink` when L2 does not hold the
    /// block), and the dirty L2 victim trails last. Returns `true` if the
    /// request hit somewhere on chip.
    #[inline]
    fn request<const PREFETCH: bool>(
        &mut self,
        info: &AccessInfo,
        sink: &mut impl LlcSink,
    ) -> bool {
        let l1 = self.l1.request::<PREFETCH>(info);
        if l1.hit {
            return true;
        }
        let l2 = self.l2.request::<PREFETCH>(info);
        let mut on_chip = l2.hit;
        if !l2.hit {
            if PREFETCH {
                sink.prefetch(info);
            } else {
                on_chip = sink.demand(info);
            }
        }
        if let Some((block, true)) = l1.victim() {
            let addr = self.l1.addr_of(block);
            if !self.l2.writeback(addr) {
                sink.writeback(addr);
            }
        }
        if let Some((block, true)) = l2.victim() {
            sink.writeback(self.l2.addr_of(block));
        }
        on_chip
    }
}

/// The LLC stage: GRASP's classification logic (Fig. 4) in front of a single
/// set-associative cache under the replacement policy being evaluated. Every
/// demand miss falls through to main memory, so the memory-access count of
/// [`crate::stats::HierarchyStats`] is the LLC's demand-miss count.
///
/// Both the direct simulation path (`Hierarchy<LlcStage>`) and trace replay
/// ([`crate::trace::LlcTrace::replay`]) drive this same type, which is what
/// guarantees bit-identical statistics between the two.
pub struct LlcStage {
    cache: SetAssocCache,
    classifier: RegionClassifier,
}

impl std::fmt::Debug for LlcStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlcStage")
            .field("cache", &self.cache)
            .finish()
    }
}

impl LlcStage {
    /// Creates the LLC stage with the given geometry and replacement policy,
    /// its ABRs unprogrammed (every request carries the Default hint).
    pub fn new(config: CacheConfig, policy: impl Into<PolicyDispatch>) -> Self {
        Self {
            cache: SetAssocCache::new("LLC", config, policy),
            classifier: RegionClassifier::disabled(),
        }
    }

    /// Programs the Address Bound Registers with the bounds of the
    /// application's Property Arrays: from here on every request is
    /// classified for this stage's LLC capacity.
    pub fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        self.classifier = RegionClassifier::new(bounds, self.cache.config().size_bytes);
    }

    /// Accumulated LLC statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// `info` with the reuse hint this stage's classifier gives its address.
    #[inline]
    fn hinted(&self, info: &AccessInfo) -> AccessInfo {
        info.with_hint(self.classifier.classify(info.addr))
    }

    /// Simulates one demand request; returns `true` on an LLC hit.
    #[inline]
    pub fn demand(&mut self, info: &AccessInfo) -> bool {
        self.cache.access(&self.hinted(info)).is_hit()
    }

    /// Simulates one prefetch request.
    #[inline]
    pub fn prefetch(&mut self, info: &AccessInfo) {
        self.cache.prefetch(&self.hinted(info));
    }

    /// Replays one run of a recorded post-L2 stream straight off its raw
    /// columns ([`SetAssocCache::replay_run`]) under this stage's
    /// classifier. Bit-identical to dispatching each record through
    /// [`LlcStage::demand`] / [`LlcStage::prefetch`] /
    /// [`LlcStage::writeback`] in order.
    #[inline]
    pub fn replay_run(&mut self, addrs: &[Address], meta: &[u32]) {
        self.cache.replay_run(addrs, meta, &self.classifier);
    }

    /// Receives the writeback of a dirty victim from the upper levels.
    #[inline]
    pub fn writeback(&mut self, addr: Address) {
        self.cache.writeback(addr);
    }

    /// Consumes the stage and returns the LLC statistics.
    pub fn into_stats(self) -> CacheStats {
        self.cache.stats().clone()
    }
}

impl LlcSink for LlcStage {
    fn demand(&mut self, info: &AccessInfo) -> bool {
        LlcStage::demand(self, info)
    }

    fn prefetch(&mut self, info: &AccessInfo) {
        LlcStage::prefetch(self, info);
    }

    fn writeback(&mut self, addr: Address) {
        LlcStage::writeback(self, addr);
    }

    fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        LlcStage::program_abrs(self, bounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::rrip::Drrip;

    /// A sink that counts what reaches it.
    #[derive(Default)]
    struct Counter {
        demands: usize,
        prefetches: usize,
        writebacks: usize,
    }

    impl LlcSink for Counter {
        fn demand(&mut self, _info: &AccessInfo) -> bool {
            self.demands += 1;
            false
        }

        fn prefetch(&mut self, _info: &AccessInfo) {
            self.prefetches += 1;
        }

        fn writeback(&mut self, _addr: Address) {
            self.writebacks += 1;
        }
    }

    fn upper() -> UpperLevels {
        UpperLevels::new(HierarchyConfig::scaled_default())
    }

    #[test]
    fn repeated_accesses_are_filtered() {
        let mut u = upper();
        let mut sink = Counter::default();
        for _ in 0..10 {
            u.access(0x40, AccessKind::Read, 1, RegionLabel::Property, &mut sink);
        }
        assert_eq!(sink.demands, 1, "only the first access escapes L1");
        assert_eq!(u.record_context().l1.accesses, 10);
        assert_eq!(u.record_context().l2.accesses, 1);
    }

    #[test]
    fn streaming_accesses_produce_prefetch_requests() {
        let mut u = upper();
        let mut sink = Counter::default();
        for i in 0..4096u64 {
            u.access(
                i * 64,
                AccessKind::Read,
                2,
                RegionLabel::EdgeArray,
                &mut sink,
            );
        }
        assert!(sink.prefetches > 0, "stride stream must trigger prefetches");
    }

    #[test]
    fn dirty_victims_are_written_back_post_l2() {
        let mut u = upper();
        let mut sink = Counter::default();
        // Write far more distinct blocks than L1 + L2 hold: dirty victims
        // must eventually spill past L2 into the sink.
        for i in 0..4096u64 {
            u.access(
                i * 64 * 17,
                AccessKind::Write,
                3,
                RegionLabel::Property,
                &mut sink,
            );
        }
        assert!(sink.writebacks > 0, "dirty evictions must reach the LLC");
        assert!(
            sink.writebacks <= 2 * (sink.demands + sink.prefetches),
            "at most two post-L2 writebacks per filled request (one per level)"
        );
    }

    #[test]
    fn clean_traffic_produces_no_writebacks() {
        let mut u = upper();
        let mut sink = Counter::default();
        for i in 0..4096u64 {
            u.access(
                i * 64 * 17,
                AccessKind::Read,
                3,
                RegionLabel::Property,
                &mut sink,
            );
        }
        assert_eq!(sink.writebacks, 0, "reads never dirty a block");
    }

    /// A stressy access mix: strided reads (train the prefetcher), scattered
    /// writes (dirty victims spill past L2), several sites and regions.
    fn record_mix(len: usize) -> Vec<AccessInfo> {
        (0..len as u64)
            .map(|i| {
                let (addr, kind) = match i % 3 {
                    0 => (i * 64, AccessKind::Read),
                    1 => ((i * 64 * 17) % (1 << 22), AccessKind::Write),
                    _ => ((i * i * 64) % (1 << 20), AccessKind::Read),
                };
                AccessInfo {
                    addr,
                    kind,
                    site: (i % 7) as AccessSite,
                    hint: ReuseHint::Default,
                    region: RegionLabel::ALL[(i % 5) as usize],
                }
            })
            .collect()
    }

    #[test]
    fn upper_levels_route_like_a_two_level_set_assoc_lru_reference() {
        // The oracle for the whole request path, not just one level: L1 and
        // L2 as `SetAssocCache` + `Lru`, the routing spelled out per request
        // (L1, then L2, the request escaping on an L2 miss, the dirty L1
        // victim probed into L2 before the dirty L2 victim escapes), the
        // prefetcher on.
        use crate::policy::lru::Lru;
        use crate::trace::LlcTrace;
        let config = HierarchyConfig::scaled_default();
        let level = |name, c: CacheConfig| SetAssocCache::new(name, c, Lru::new(c.sets(), c.ways));
        let mut l1 = level("L1-D", config.l1);
        let mut l2 = level("L2", config.l2);
        let mut prefetcher = StridePrefetcher::default();
        let mut expected = LlcTrace::new();
        // `record_mix` streams past L2; every other access instead rewrites
        // a 6 KiB ring (larger than L1, resident in L2), whose dirty L1
        // victims are the writebacks L2 absorbs.
        let mut mix = record_mix(6000);
        for (i, info) in mix.iter_mut().enumerate().step_by(2) {
            *info = AccessInfo::write(0x40_0000 + (i as u64 / 2 % 96) * 64).with_site(9);
        }
        for info in &mix {
            let mut requests = vec![(*info, false)];
            if let Some(addr) = prefetcher.observe(info.site, info.addr) {
                let prefetch = AccessInfo {
                    addr,
                    kind: AccessKind::Read,
                    ..*info
                };
                requests.push((prefetch, true));
            }
            for (request, is_prefetch) in requests {
                let out1 = if is_prefetch {
                    l1.prefetch(&request)
                } else {
                    l1.access(&request)
                };
                if out1.hit {
                    continue;
                }
                let out2 = if is_prefetch {
                    l2.prefetch(&request)
                } else {
                    l2.access(&request)
                };
                match (out2.hit, is_prefetch) {
                    (true, _) => {}
                    (false, false) => expected.push(&request),
                    (false, true) => expected.push_prefetch(&request),
                }
                let dirty_victim = |out: &crate::cache::AccessOutcome| {
                    out.evicted.filter(|_| out.evicted_dirty).map(|b| b * 64)
                };
                if let Some(addr) = dirty_victim(&out1) {
                    if !l2.writeback(addr) {
                        expected.push_writeback(addr);
                    }
                }
                if let Some(addr) = dirty_victim(&out2) {
                    expected.push_writeback(addr);
                }
            }
        }

        let mut upper = upper();
        let mut got = LlcTrace::new();
        for info in &mix {
            upper.access(info.addr, info.kind, info.site, info.region, &mut got);
        }
        assert_eq!(expected, got, "post-L2 record sequence");
        assert_eq!(l1.stats(), &upper.record_context().l1);
        assert_eq!(l2.stats(), &upper.record_context().l2);
        assert!(l2.stats().writeback_hits > 0 && l2.stats().prefetch_fills > 0);
    }

    #[test]
    #[should_panic(expected = "L2 block size (2) must be at least 4 bytes")]
    fn sub_word_upper_level_blocks_are_rejected() {
        let mut config = HierarchyConfig::scaled_default();
        config.l2 = CacheConfig::new(config.l2.size_bytes, config.l2.ways, 2);
        let _ = UpperLevels::new(config);
    }

    #[test]
    fn llc_stage_counts_memory_accesses() {
        let config = CacheConfig::new(64 * 256, 16, 64);
        let mut stage = LlcStage::new(config, Drrip::new(config.sets(), config.ways, 1));
        stage.demand(&AccessInfo::read(0x40));
        stage.demand(&AccessInfo::read(0x40));
        assert_eq!(stage.stats().accesses, 2);
        assert_eq!(stage.stats().misses, 1);
    }

    #[test]
    fn llc_stage_classifies_at_its_own_capacity() {
        let hint_at = |llc_bytes| {
            let config = CacheConfig::new(llc_bytes, 16, 64);
            let mut stage = LlcStage::new(config, Drrip::new(config.sets(), config.ways, 1));
            let info = AccessInfo::read(48 * 1024);
            assert_eq!(stage.hinted(&info).hint, ReuseHint::Default, "unprogrammed");
            stage.program_abrs(&[(0, 1 << 20)]);
            stage.hinted(&info).hint
        };
        assert_eq!(hint_at(32 * 1024), ReuseHint::Moderate);
        assert_eq!(hint_at(64 * 1024), ReuseHint::High);
    }
}
