//! The LLC side of the hierarchy: the [`LlcSink`] interface that receives
//! the post-L2 request stream, and [`LlcStage`], the sink that simulates the
//! LLC. [`crate::hierarchy`] describes how the two sides compose and why the
//! stream does not depend on the LLC.

use crate::addr::Address;
use crate::cache::SetAssocCache;
use crate::config::CacheConfig;
use crate::hint::RegionClassifier;
use crate::policy::PolicyDispatch;
use crate::request::AccessInfo;
use crate::stats::CacheStats;

/// Consumer of the post-L2 request stream of a [`crate::Hierarchy`].
///
/// Implemented by [`LlcStage`] (simulate the LLC now) and by
/// [`crate::trace::LlcTrace`] (record the stream for later replay).
pub trait LlcSink {
    /// A demand request that missed L1 and L2.
    fn demand(&mut self, info: &AccessInfo);

    /// A prefetch request that missed L1 and L2.
    fn prefetch(&mut self, info: &AccessInfo);

    /// The writeback of a dirty victim evicted from L2 (or evicted from L1
    /// and absent in L2).
    fn writeback(&mut self, addr: Address);

    /// The application programmed the Address Bound Registers with `bounds`.
    /// An LLC stage classifies by them; a recorder ignores the call, as the
    /// bounds reach a recording through its context
    /// ([`crate::Hierarchy::finish`]).
    fn program_abrs(&mut self, _bounds: &[(Address, Address)]) {}
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
            cache: SetAssocCache::new(config, policy),
            classifier: RegionClassifier::disabled(),
        }
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

    /// Replays one run of a recorded post-L2 stream straight off its raw
    /// columns ([`SetAssocCache::replay_run`]) under this stage's
    /// classifier. Bit-identical to dispatching each record through
    /// [`LlcSink::demand`] / [`LlcSink::prefetch`] / [`LlcSink::writeback`]
    /// in order.
    #[inline]
    pub fn replay_run(&mut self, addrs: &[Address], meta: &[u32]) {
        self.cache.replay_run(addrs, meta, &self.classifier);
    }

    /// Consumes the stage and returns the LLC statistics.
    pub fn into_stats(self) -> CacheStats {
        self.cache.stats().clone()
    }
}

impl LlcSink for LlcStage {
    #[inline]
    fn demand(&mut self, info: &AccessInfo) {
        self.cache.access(&self.hinted(info));
    }

    #[inline]
    fn prefetch(&mut self, info: &AccessInfo) {
        self.cache.prefetch(&self.hinted(info));
    }

    /// Receives the writeback of a dirty victim from the upper levels.
    #[inline]
    fn writeback(&mut self, addr: Address) {
        self.cache.writeback(addr);
    }

    /// Programs the Address Bound Registers with the bounds of the
    /// application's Property Arrays: from here on every request is
    /// classified for this stage's LLC capacity.
    fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        self.classifier = RegionClassifier::new(bounds, self.cache.config().size_bytes);
    }
}

#[cfg(test)]
mod tests {
    // The upper-level tests drive a whole `Hierarchy` and watch what reaches
    // its sink: the `LlcSink` contract is what they pin.
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::hint::ReuseHint;
    use crate::policy::rrip::Drrip;
    use crate::prefetch::StridePrefetcher;
    use crate::request::{AccessKind, AccessSite, RegionLabel};
    use crate::trace::{LlcTrace, RecordContext};
    use crate::Hierarchy;

    /// A sink that counts what reaches it.
    #[derive(Default)]
    struct Counter {
        demands: usize,
        prefetches: usize,
        writebacks: usize,
    }

    impl LlcSink for &mut Counter {
        fn demand(&mut self, _info: &AccessInfo) {
            self.demands += 1;
        }

        fn prefetch(&mut self, _info: &AccessInfo) {
            self.prefetches += 1;
        }

        fn writeback(&mut self, _addr: Address) {
            self.writebacks += 1;
        }
    }

    /// What reaches the sink of a hierarchy when `len` accesses of `kind`
    /// from `site` go to `addr(i)`.
    fn count(
        len: u64,
        kind: AccessKind,
        site: AccessSite,
        addr: impl Fn(u64) -> Address,
    ) -> Counter {
        let mut sink = Counter::default();
        let mut h = Hierarchy::new(HierarchyConfig::scaled_default(), &mut sink);
        for i in 0..len {
            h.access(addr(i), kind, site, RegionLabel::Property);
        }
        sink
    }

    #[test]
    fn repeated_accesses_are_filtered() {
        let mut h = Hierarchy::new(HierarchyConfig::scaled_default(), LlcTrace::new());
        for _ in 0..10 {
            h.access(0x40, AccessKind::Read, 1, RegionLabel::Property);
        }
        let trace = h.finish();
        assert_eq!(
            trace.demand_accesses().count(),
            1,
            "only the first access escapes L1"
        );
        assert_eq!(trace.context().l1.accesses, 10);
        assert_eq!(trace.context().l2.accesses, 1);
    }

    #[test]
    fn streaming_accesses_produce_prefetch_requests() {
        let sink = count(4096, AccessKind::Read, 2, |i| i * 64);
        assert!(sink.prefetches > 0, "stride stream must trigger prefetches");
    }

    #[test]
    fn dirty_victims_are_written_back_post_l2() {
        // Write far more distinct blocks than L1 + L2 hold: dirty victims
        // must eventually spill past L2 into the sink.
        let sink = count(4096, AccessKind::Write, 3, |i| i * 64 * 17);
        assert!(sink.writebacks > 0, "dirty evictions must reach the LLC");
        assert!(
            sink.writebacks <= 2 * (sink.demands + sink.prefetches),
            "at most two post-L2 writebacks per filled request (one per level)"
        );
    }

    #[test]
    fn clean_traffic_produces_no_writebacks() {
        let sink = count(4096, AccessKind::Read, 3, |i| i * 64 * 17);
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
        let config = HierarchyConfig::scaled_default();
        let level = |c: CacheConfig| SetAssocCache::new(c, Lru::new(c.sets(), c.ways));
        let mut l1 = level(config.l1);
        let mut l2 = level(config.l2);
        let mut prefetcher = StridePrefetcher::default();
        let mut expected = LlcTrace::new();
        // `record_mix` streams past L2; every other access instead rewrites
        // a 6 KiB ring (larger than L1, resident in L2), whose dirty L1
        // victims are the writebacks L2 absorbs.
        let mut mix = record_mix(6000);
        for (i, info) in mix.iter_mut().enumerate().step_by(2) {
            *info = AccessInfo {
                site: 9,
                ..AccessInfo::write(0x40_0000 + (i as u64 / 2 % 96) * 64)
            };
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

        let mut recorder = Hierarchy::new(config, LlcTrace::new());
        for info in &mix {
            recorder.access(info.addr, info.kind, info.site, info.region);
        }
        expected.set_context(RecordContext {
            l1: l1.stats().clone(),
            l2: l2.stats().clone(),
            abr_bounds: Vec::new(),
        });
        assert_eq!(
            expected,
            recorder.finish(),
            "post-L2 records and L1/L2 stats"
        );
        assert!(l2.stats().writeback_hits > 0 && l2.stats().prefetch_fills > 0);
    }

    #[test]
    #[should_panic(expected = "L2 block size (2) must be at least 4 bytes")]
    fn sub_word_upper_level_blocks_are_rejected() {
        let mut config = HierarchyConfig::scaled_default();
        config.l2 = CacheConfig::new(config.l2.size_bytes, config.l2.ways, 2);
        let _ = Hierarchy::new(config, LlcTrace::new());
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
