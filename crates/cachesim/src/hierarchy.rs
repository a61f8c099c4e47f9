//! The simulated three-level cache hierarchy (L1-D → L2 → LLC sink).
//!
//! The hierarchy is the reproduction's stand-in for the Sniper-simulated
//! memory system of Table VI: the LLC-independent upper levels
//! ([`UpperLevels`]: L1 + L2 + prefetcher) in front of an [`LlcSink`] that
//! receives everything escaping L2. The sink decides what the run is:
//!
//! * `Hierarchy<LlcStage>` simulates the LLC now — GRASP's region
//!   classification (Fig. 4 of the paper) in front of whichever replacement
//!   policy the experiment is evaluating — and reports
//!   [`Hierarchy::stats`];
//! * `Hierarchy<LlcTrace>` is the one recorder of the post-L2 stream:
//!   [`Hierarchy::finish`] returns the [`LlcTrace`], whose
//!   [`replay`](LlcTrace::replay) reproduces the first kind's statistics
//!   bit-for-bit under any policy and LLC geometry.

use crate::addr::Address;
use crate::config::HierarchyConfig;
use crate::request::{AccessKind, AccessSite, RegionLabel};
use crate::stage::{LlcSink, LlcStage, UpperLevels};
use crate::stats::HierarchyStats;
use crate::trace::LlcTrace;

/// A three-level cache hierarchy: L1-D and L2 with an L1 stride prefetcher,
/// and `S` in the LLC's place.
#[derive(Debug)]
pub struct Hierarchy<S> {
    upper: UpperLevels,
    llc: S,
}

impl<S: LlcSink> Hierarchy<S> {
    /// Creates a hierarchy with the given configuration and LLC sink. Its
    /// ABRs start unprogrammed, modelling a system without GRASP's interface
    /// (every request carries the Default hint) until
    /// [`Hierarchy::program_abrs`].
    pub fn new(config: HierarchyConfig, llc: S) -> Self {
        Self {
            upper: UpperLevels::new(config),
            llc,
        }
    }

    /// Programs the Address Bound Registers with the bounds of the
    /// application's Property Arrays, in both stages: an LLC stage
    /// classifies requests with them, the upper levels keep them for a
    /// recording's context.
    ///
    /// This models the software side of GRASP's interface (Sec. III-A): the
    /// graph framework calls this once at application start-up, after it has
    /// allocated its Property Arrays.
    pub fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        self.upper.program_abrs(bounds);
        self.llc.program_abrs(bounds);
    }

    /// Performs one demand memory access.
    ///
    /// Returns `true` if the access hit somewhere on chip (L1, L2 or, for an
    /// LLC stage, the LLC).
    #[inline]
    pub fn access(
        &mut self,
        addr: Address,
        kind: AccessKind,
        site: AccessSite,
        region: RegionLabel,
    ) -> bool {
        self.upper.access(addr, kind, site, region, &mut self.llc)
    }
}

impl Hierarchy<LlcStage> {
    /// Accumulated statistics of every level.
    pub fn stats(&self) -> HierarchyStats {
        self.upper
            .record_context()
            .stats_with(self.llc.stats().clone())
    }
}

impl Hierarchy<LlcTrace> {
    /// Finishes the recording: attaches the upper-level statistics and the
    /// programmed ABR bounds to the trace and returns it.
    pub fn finish(self) -> LlcTrace {
        let mut trace = self.llc;
        trace.set_context(self.upper.record_context());
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
        let demands = trace.demand_vec();
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
        let run = |prefetch: bool| -> u64 {
            let mut config = HierarchyConfig::scaled_default();
            config.prefetch = prefetch;
            let mut h = simulating(config);
            for i in 0..20_000u64 {
                read(&mut h, i * 8, 1, RegionLabel::EdgeArray);
            }
            // Misses seen by the core are L1 misses that also miss everywhere.
            h.stats().memory_accesses
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with <= without,
            "prefetching must not increase demand memory accesses ({with} vs {without})"
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
