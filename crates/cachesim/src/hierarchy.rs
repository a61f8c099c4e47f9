//! The simulated three-level cache hierarchy (L1-D → L2 → LLC).
//!
//! The hierarchy is the reproduction's stand-in for the Sniper-simulated
//! memory system of Table VI, composed from the two stages of
//! [`crate::stage`]: the policy-independent upper levels
//! ([`UpperLevels`]: L1 + L2 + prefetcher + GRASP's region classification,
//! exactly as in Fig. 4 of the paper) and the LLC stage ([`LlcStage`]) under
//! whichever replacement policy the experiment is evaluating. It only
//! simulates: the one recorder of the post-L2 stream is [`UpperLevels`]
//! feeding an [`LlcTrace`](crate::trace::LlcTrace), whose
//! [`replay`](crate::trace::LlcTrace::replay) reproduces this hierarchy's
//! statistics bit-for-bit.

use crate::config::HierarchyConfig;
use crate::hint::RegionClassifier;
use crate::policy::PolicyDispatch;
use crate::request::{AccessKind, AccessSite, RegionLabel};
use crate::stage::{LlcStage, UpperLevels};
use crate::stats::HierarchyStats;
use crate::timing::TimingModel;

/// A three-level cache hierarchy with an L1 stride prefetcher and GRASP's
/// address classification in front of the LLC.
pub struct Hierarchy {
    upper: UpperLevels,
    llc: LlcStage,
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("config", self.upper.config())
            .field("llc_policy", &self.llc.policy_name())
            .field("memory_accesses", &self.llc.memory_accesses())
            .finish()
    }
}

impl Hierarchy {
    /// Creates a hierarchy with the given configuration, LLC replacement
    /// policy and region classifier.
    ///
    /// Pass [`RegionClassifier::disabled`] to model a system without GRASP's
    /// interface (every request carries the Default hint).
    pub fn new(
        config: HierarchyConfig,
        llc_policy: impl Into<PolicyDispatch>,
        classifier: RegionClassifier,
    ) -> Self {
        Self {
            upper: UpperLevels::new(config, classifier),
            llc: LlcStage::new(config.llc, llc_policy),
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        self.upper.config()
    }

    /// Name of the LLC replacement policy.
    pub fn llc_policy_name(&self) -> &'static str {
        self.llc.policy_name()
    }

    /// The region classifier in use.
    pub fn classifier(&self) -> &RegionClassifier {
        self.upper.classifier()
    }

    /// Programs the Address Bound Registers with the bounds of the
    /// application's Property Arrays and rebuilds the region classifier.
    ///
    /// This models the software side of GRASP's interface (Sec. III-A): the
    /// graph framework calls this once at application start-up, after it has
    /// allocated its Property Arrays.
    pub fn program_abrs(&mut self, bounds: &[(u64, u64)]) {
        self.upper.program_abrs(bounds);
    }

    /// Performs one demand memory access.
    ///
    /// Returns `true` if the access hit somewhere on chip (L1, L2 or LLC).
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        site: AccessSite,
        region: RegionLabel,
    ) -> bool {
        self.upper.access(addr, kind, site, region, &mut self.llc)
    }

    /// Convenience wrapper for a read access.
    pub fn read(&mut self, addr: u64, site: AccessSite, region: RegionLabel) -> bool {
        self.access(addr, AccessKind::Read, site, region)
    }

    /// Convenience wrapper for a write access.
    pub fn write(&mut self, addr: u64, site: AccessSite, region: RegionLabel) -> bool {
        self.access(addr, AccessKind::Write, site, region)
    }

    /// Accumulated statistics of every level.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.upper.l1_stats().clone(),
            l2: self.upper.l2_stats().clone(),
            llc: self.llc.stats().clone(),
            memory_accesses: self.llc.memory_accesses(),
        }
    }

    /// Estimated execution cycles under `model`, given `instructions` of
    /// non-memory work.
    pub fn estimated_cycles(&self, model: &TimingModel, instructions: u64) -> f64 {
        model.cycles(&self.stats(), instructions)
    }

    /// Invalidates every cache level, resets every replacement policy and
    /// clears the prefetcher's stride training (used between warm-up and the
    /// region of interest). Without the policy/prefetcher resets, stale RRPV
    /// counters, predictor tables and trained strides from the warm-up phase
    /// would leak into the measured phase.
    pub fn flush(&mut self) {
        self.upper.flush();
        self.llc.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::hint::{AddressBoundRegisters, ReuseHint};
    use crate::policy::rrip::Drrip;
    use crate::trace::{LlcTrace, TraceEvent};

    fn hierarchy(classifier: RegionClassifier) -> Hierarchy {
        let config = HierarchyConfig::scaled_default();
        let llc = Box::new(Drrip::new(config.llc.sets(), config.llc.ways, 1));
        Hierarchy::new(config, llc, classifier)
    }

    /// Feeds `accesses` (site 1, Property) to a [`hierarchy`] and to the
    /// recorder — the same upper levels with an [`LlcTrace`] as their sink.
    fn simulate_and_record(
        classifier: RegionClassifier,
        accesses: &[(u64, AccessKind)],
    ) -> (Hierarchy, LlcTrace) {
        let mut h = hierarchy(classifier.clone());
        let mut upper = UpperLevels::new(*h.config(), classifier);
        let mut trace = LlcTrace::new();
        for &(addr, kind) in accesses {
            h.access(addr, kind, 1, RegionLabel::Property);
            upper.access(addr, kind, 1, RegionLabel::Property, &mut trace);
        }
        trace.set_context(upper.record_context());
        (h, trace)
    }

    #[test]
    fn l1_filters_repeated_accesses() {
        let mut h = hierarchy(RegionClassifier::disabled());
        h.read(0x1000, 1, RegionLabel::Property);
        for _ in 0..9 {
            h.read(0x1000, 1, RegionLabel::Property);
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
        let mut h = hierarchy(RegionClassifier::disabled());
        for i in 0..4096u64 {
            h.read(0x10000 + i * 8, 2, RegionLabel::EdgeArray);
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
        let mut abrs = AddressBoundRegisters::new();
        abrs.program(0x0, 0x100000);
        let config = HierarchyConfig::scaled_default();
        let classifier = RegionClassifier::new(abrs, config.llc.size_bytes);
        // An address at the start of the property array is High-Reuse; one
        // far past the two LLC-sized regions is Low-Reuse.
        let accesses = [(0x0, AccessKind::Read), (0xF0000, AccessKind::Read)];
        let (h, trace) = simulate_and_record(classifier, &accesses);
        let demands = trace.demand_vec();
        assert_eq!(demands.len() as u64, h.stats().llc.accesses);
        assert_eq!(demands.len(), 2);
        assert_eq!(demands[0].hint, ReuseHint::High);
        assert_eq!(demands[1].hint, ReuseHint::Low);
    }

    #[test]
    fn memory_accesses_equal_llc_demand_misses() {
        let mut h = hierarchy(RegionClassifier::disabled());
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let addr = (x >> 20) % (8 * 1024 * 1024);
            h.read(addr, 3, RegionLabel::Property);
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
            let llc = Box::new(Drrip::new(config.llc.sets(), config.llc.ways, 1));
            let mut h = Hierarchy::new(config, llc, RegionClassifier::disabled());
            for i in 0..20_000u64 {
                h.read(i * 8, 1, RegionLabel::EdgeArray);
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
    fn flush_clears_all_levels() {
        let mut h = hierarchy(RegionClassifier::disabled());
        h.read(0x40, 1, RegionLabel::Other);
        h.flush();
        // After a flush the same access misses all the way to memory again.
        let before = h.stats().memory_accesses;
        h.read(0x40, 1, RegionLabel::Other);
        assert_eq!(h.stats().memory_accesses, before + 1);
    }

    #[test]
    fn dirty_victims_reach_the_llc_as_writebacks() {
        // Touch far more distinct blocks than L1 + L2 hold, writing each:
        // dirty victims must spill past L2.
        let accesses: Vec<_> = (0..8192u64)
            .map(|i| (i * 64 * 17, AccessKind::Write))
            .collect();
        let (h, trace) = simulate_and_record(RegionClassifier::disabled(), &accesses);
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
        let (h, trace) = simulate_and_record(RegionClassifier::disabled(), &accesses);
        let config = *h.config();
        let llc = Box::new(Drrip::new(config.llc.sets(), config.llc.ways, 1));
        let replayed = trace.replay(config.llc, llc);
        assert_eq!(h.stats(), replayed, "replay must be bit-identical");
    }
}
