//! The simulated three-level cache hierarchy: L1-D → L2 → an LLC sink.
//!
//! The hierarchy is the reproduction's stand-in for the Sniper-simulated
//! memory system of Table VI. Everything above the LLC is **independent of
//! the LLC**, its replacement policy *and* its geometry: L1 and L2 are
//! LRU-managed, the prefetcher observes the demand stream at L1, and nothing
//! the LLC decides flows back upward. The post-L2 request stream — demand
//! fills, prefetch fills and dirty-victim writebacks — is therefore a pure
//! function of the application and the upper levels, and [`Hierarchy`]
//! hands it to whatever [`LlcSink`] takes the LLC's place. GRASP's reuse
//! hint is not part of the stream: it depends on the LLC's capacity, so the
//! [`LlcStage`] classifies each request from the ABR bounds the application
//! programmed, at its own size. The sink decides what the run is:
//!
//! ```text
//!             ┌──────────── Hierarchy<S> ───────────┐
//!  app access │ L1-D (LRU) → L2 (LRU) → ABR bounds  │
//!             └──────────────┬──────────────────────┘
//!                            │ demand / prefetch / writeback   (S: LlcSink)
//!              ┌─────────────┴──────────────────────────────────┐
//!              │  LlcStage: RegionClassifier (ABRs, LLC size →  │   ← Hierarchy<LlcStage>: simulate now
//!              │            reuse hint) → LLC (policy X)        │
//!              │  LlcTrace                                      │   ← Hierarchy<LlcTrace>: record once,
//!              └────────────────────────────────────────────────┘     replay per policy and LLC geometry
//! ```
//!
//! * `Hierarchy<LlcStage>` simulates the LLC now — GRASP's region
//!   classification (Fig. 4 of the paper) in front of whichever replacement
//!   policy the experiment is evaluating — and reports
//!   [`Hierarchy::stats`];
//! * `Hierarchy<LlcTrace>` is the one recorder of the post-L2 stream:
//!   [`Hierarchy::finish`] returns the [`LlcTrace`], whose
//!   [`replay`](LlcTrace::replay) drives a fresh [`LlcStage`] through the
//!   *same* code path and so reproduces the first kind's statistics
//!   bit-for-bit under any policy and LLC geometry.
//!
//! L1 and L2 are the private `lru_filter` module's recency-ordered LRU sets,
//! not [`SetAssocCache`](crate::SetAssocCache)s: the filter is where a
//! recording spends its time — at the scales campaigns run, 36–60 % of the
//! demand accesses an application issues miss L1 and 0.39–0.57 post-L2
//! records are emitted per demand access (`record.pass_ratio` on the
//! `pipeline` ledger), so there is no "mostly L1 hits" fast path to lean on
//! and what counts is the work per lookup. [`Hierarchy::access`] is the one
//! way in, for recording and for direct simulation alike.

use crate::addr::Address;
use crate::config::HierarchyConfig;
use crate::hint::ReuseHint;
use crate::lru_filter::LruFilter;
use crate::prefetch::StridePrefetcher;
use crate::request::{AccessInfo, AccessKind, AccessSite, RegionLabel};
use crate::stage::{LlcSink, LlcStage};
use crate::stats::HierarchyStats;
use crate::trace::{LlcTrace, RecordContext};

/// A three-level cache hierarchy: L1-D and L2 (both LRU) with an L1 stride
/// prefetcher, and `S` in the LLC's place. It also keeps the ABR bounds the
/// application programmed, for a recording's context.
#[derive(Debug)]
pub struct Hierarchy<S> {
    l1: LruFilter,
    l2: LruFilter,
    prefetcher: StridePrefetcher,
    abr_bounds: Vec<(Address, Address)>,
    llc: S,
}

impl<S: LlcSink> Hierarchy<S> {
    /// Creates a hierarchy with the given configuration and LLC sink (the
    /// configuration's LLC geometry is the sink's business). Its ABRs start
    /// unprogrammed, modelling a system without GRASP's interface (every
    /// request carries the Default hint) until [`Hierarchy::program_abrs`].
    ///
    /// # Panics
    ///
    /// Panics if the L1 or L2 block size is below four bytes (their lines
    /// pack the block address and the dirty bit into one word).
    pub fn new(config: HierarchyConfig, llc: S) -> Self {
        Self {
            l1: LruFilter::new("L1-D", config.l1),
            l2: LruFilter::new("L2", config.l2),
            prefetcher: StridePrefetcher::default(),
            abr_bounds: Vec::new(),
            llc,
        }
    }

    /// Programs the Address Bound Registers with the bounds of the
    /// application's Property Arrays: an LLC stage classifies requests with
    /// them, the upper levels keep them for a recording's context.
    ///
    /// This models the software side of GRASP's interface (Sec. III-A): the
    /// graph framework calls this once at application start-up, after it has
    /// allocated its Property Arrays.
    pub fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        self.abr_bounds = bounds.to_vec();
        self.llc.program_abrs(bounds);
    }

    /// Performs one demand memory access, forwarding whatever escapes L2 —
    /// the demand request itself, at most one prefetch request, and any
    /// dirty victim writebacks — into the LLC sink.
    #[inline]
    pub fn access(
        &mut self,
        addr: Address,
        kind: AccessKind,
        site: AccessSite,
        region: RegionLabel,
    ) {
        let demand = AccessInfo {
            addr,
            kind,
            site,
            hint: ReuseHint::Default,
            region,
        };
        self.request::<false>(&demand);

        // The prefetcher observes the demand stream at L1 and issues at most
        // one prefetch per access.
        if let Some(predicted) = self.prefetcher.observe(site, addr) {
            let prefetch = AccessInfo {
                addr: predicted,
                kind: AccessKind::Read,
                ..demand
            };
            self.request::<true>(&prefetch);
        }
    }

    /// Drives one request (demand, or prefetch when `PREFETCH`) through both
    /// levels: L1 lookup; on a miss the request goes to L2 and, missing
    /// there too, to the LLC sink; then the dirty L1 victim is written back
    /// into L2 (and forwarded to the sink when L2 does not hold the block),
    /// and the dirty L2 victim trails last.
    #[inline]
    fn request<const PREFETCH: bool>(&mut self, info: &AccessInfo) {
        let l1 = self.l1.request::<PREFETCH>(info);
        if l1.hit {
            return;
        }
        let l2 = self.l2.request::<PREFETCH>(info);
        if !l2.hit {
            if PREFETCH {
                self.llc.prefetch(info);
            } else {
                self.llc.demand(info);
            }
        }
        if let Some((block, true)) = l1.victim() {
            let addr = self.l1.addr_of(block);
            if !self.l2.writeback(addr) {
                self.llc.writeback(addr);
            }
        }
        if let Some((block, true)) = l2.victim() {
            self.llc.writeback(self.l2.addr_of(block));
        }
    }

    /// Everything a recorded trace carries alongside the post-L2 stream.
    fn record_context(&self) -> RecordContext {
        RecordContext {
            l1: self.l1.stats().clone(),
            l2: self.l2.stats().clone(),
            abr_bounds: self.abr_bounds.clone(),
        }
    }
}

impl Hierarchy<LlcStage> {
    /// Accumulated statistics of every level.
    pub fn stats(&self) -> HierarchyStats {
        self.record_context().stats_with(self.llc.stats().clone())
    }
}

impl Hierarchy<LlcTrace> {
    /// Finishes the recording: attaches the upper-level statistics and the
    /// programmed ABR bounds to the trace and returns it.
    pub fn finish(self) -> LlcTrace {
        let context = self.record_context();
        let mut trace = self.llc;
        trace.set_context(context);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hint::{RegionClassifier, ReuseHint};
    use crate::policy::grasp::Grasp;
    use crate::policy::rrip::Drrip;
    use crate::policy::PolicyDispatch;
    use crate::trace::TraceEvent;

    /// A hierarchy simulating an LLC of `config`'s geometry under DRRIP.
    fn simulating(config: HierarchyConfig) -> Hierarchy<LlcStage> {
        let llc = Drrip::new(config.llc.sets(), config.llc.ways, 1);
        Hierarchy::new(config, LlcStage::new(config.llc, llc))
    }

    fn hierarchy() -> Hierarchy<LlcStage> {
        simulating(HierarchyConfig::scaled_default())
    }

    fn read(h: &mut Hierarchy<LlcStage>, addr: u64, site: AccessSite, region: RegionLabel) {
        h.access(addr, AccessKind::Read, site, region);
    }

    /// Feeds `accesses` (site 1, Property) to a hierarchy simulating an LLC
    /// under `llc` and to one recording with an [`LlcTrace`] as its sink —
    /// the same type with the other sink — both with their ABRs programmed
    /// with `bounds`.
    fn simulate_and_record(
        llc: impl Into<PolicyDispatch>,
        bounds: &[(u64, u64)],
        accesses: &[(u64, AccessKind)],
    ) -> (Hierarchy<LlcStage>, LlcTrace) {
        let config = HierarchyConfig::scaled_default();
        let mut h = Hierarchy::new(config, LlcStage::new(config.llc, llc));
        let mut recorder = Hierarchy::new(config, LlcTrace::new());
        h.program_abrs(bounds);
        recorder.program_abrs(bounds);
        for &(addr, kind) in accesses {
            h.access(addr, kind, 1, RegionLabel::Property);
            recorder.access(addr, kind, 1, RegionLabel::Property);
        }
        (h, recorder.finish())
    }

    #[test]
    fn l1_filters_repeated_accesses() {
        let mut h = hierarchy();
        read(&mut h, 0x1000, 1, RegionLabel::Property);
        for _ in 0..9 {
            read(&mut h, 0x1000, 1, RegionLabel::Property);
        }
        let stats = h.stats();
        assert_eq!(stats.l1.accesses, 10);
        assert_eq!(stats.l1.misses, 1);
        // Only the single L1 miss reached L2 and the LLC.
        assert_eq!(stats.l2.accesses, 1);
        assert_eq!(stats.llc.accesses, 1);
        assert_eq!(stats.memory_accesses, 1);
    }

    #[test]
    fn spatial_locality_is_filtered_before_the_llc() {
        // Sequential 8-byte elements: 8 per 64-byte block, so the LLC sees at
        // most 1/8th of the accesses (fewer once the prefetcher kicks in).
        let mut h = hierarchy();
        for i in 0..4096u64 {
            read(&mut h, 0x10000 + i * 8, 2, RegionLabel::EdgeArray);
        }
        let stats = h.stats();
        assert_eq!(stats.l1.accesses, 4096);
        assert!(
            stats.llc.accesses <= 4096 / 8,
            "llc accesses {} should be spatially filtered",
            stats.llc.accesses
        );
    }

    #[test]
    fn classifier_attaches_hints_to_llc_requests() {
        // An address at the start of the property array is High-Reuse; one
        // far past the two LLC-sized regions is Low-Reuse — classified at the
        // LLC, from the bounds the recording carries.
        let accesses = [(0x0, AccessKind::Read), (0xF0000, AccessKind::Read)];
        let llc = HierarchyConfig::scaled_default().llc;
        let drrip = Drrip::new(llc.sets(), llc.ways, 1);
        let (h, trace) = simulate_and_record(drrip, &[(0x0, 0x100000)], &accesses);
        let demands: Vec<_> = trace.demand_accesses().collect();
        assert_eq!(demands.len() as u64, h.stats().llc.accesses);
        assert_eq!(demands.len(), 2);
        assert!(demands.iter().all(|info| info.hint == ReuseHint::Default));
        let classifier = RegionClassifier::new(&trace.context().abr_bounds, llc.size_bytes);
        assert_eq!(classifier.classify(demands[0].addr), ReuseHint::High);
        assert_eq!(classifier.classify(demands[1].addr), ReuseHint::Low);
    }

    #[test]
    fn memory_accesses_equal_llc_demand_misses() {
        let mut h = hierarchy();
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let addr = (x >> 20) % (8 * 1024 * 1024);
            read(&mut h, addr, 3, RegionLabel::Property);
        }
        let stats = h.stats();
        assert_eq!(stats.memory_accesses, stats.llc.misses);
        assert!(stats.llc.accesses > 0);
    }

    #[test]
    fn prefetcher_reduces_misses_on_streaming_patterns() {
        // 20 000 sequential 8-byte elements span 2 500 blocks: the stride
        // prefetcher fills ahead of the stream, so fewer than one demand
        // access per block reaches memory.
        let mut h = hierarchy();
        for i in 0..20_000u64 {
            read(&mut h, i * 8, 1, RegionLabel::EdgeArray);
        }
        let stats = h.stats();
        assert!(stats.llc.prefetch_fills > 0, "the prefetcher issues fills");
        assert!(
            stats.memory_accesses < 2_500,
            "prefetching must save demand memory accesses ({})",
            stats.memory_accesses
        );
    }

    #[test]
    fn dirty_victims_reach_the_llc_as_writebacks() {
        // Touch far more distinct blocks than L1 + L2 hold, writing each:
        // dirty victims must spill past L2.
        let accesses: Vec<_> = (0..8192u64)
            .map(|i| (i * 64 * 17, AccessKind::Write))
            .collect();
        let llc = HierarchyConfig::scaled_default().llc;
        let drrip = Drrip::new(llc.sets(), llc.ways, 1);
        let (h, trace) = simulate_and_record(drrip, &[], &accesses);
        let stats = h.stats();
        assert!(stats.llc.writeback_accesses > 0);
        // The recorded trace carries the same writebacks.
        let recorded = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Writeback(_)))
            .count() as u64;
        assert_eq!(recorded, stats.llc.writeback_accesses);
    }

    #[test]
    fn recorded_trace_replays_to_identical_hierarchy_stats() {
        let mut x = 3u64;
        let accesses: Vec<_> = (0..30_000u64)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                let addr = (x >> 24) % (4 * 1024 * 1024);
                if i % 3 == 0 {
                    (addr, AccessKind::Write)
                } else {
                    (addr, AccessKind::Read)
                }
            })
            .collect();
        // GRASP reads the hints the LLC stage derives from the bounds.
        let llc = HierarchyConfig::scaled_default().llc;
        let grasp = || Grasp::new(llc.sets(), llc.ways, 1);
        let (h, trace) = simulate_and_record(grasp(), &[(0, 1 << 20)], &accesses);
        let replayed = trace.replay(llc, grasp());
        assert_eq!(h.stats(), replayed, "replay must be bit-identical");
    }
}
