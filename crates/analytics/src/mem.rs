//! Memory models: where the applications' memory accesses go.

use grasp_cachesim::addr::Address;
use grasp_cachesim::request::{AccessKind, AccessSite, RegionLabel};
use grasp_cachesim::stage::LlcSink;
use grasp_cachesim::Hierarchy;

/// A sink for the memory accesses an application performs.
pub trait MemoryModel: std::fmt::Debug {
    /// Reports one memory access.
    fn touch(&mut self, addr: Address, kind: AccessKind, site: AccessSite, region: RegionLabel);

    /// Programs the GRASP Address Bound Registers with the application's
    /// Property Array bounds. The default implementation ignores the call
    /// (native execution has no simulated hardware).
    fn program_property_bounds(&mut self, _bounds: &[(Address, Address)]) {}
}

/// The no-op model used for native (wall-clock) runs: nothing is simulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeMemory;

impl MemoryModel for NativeMemory {
    #[inline]
    fn touch(
        &mut self,
        _addr: Address,
        _kind: AccessKind,
        _site: AccessSite,
        _region: RegionLabel,
    ) {
    }
}

/// The simulated models: every access runs through the upper levels of a
/// cache hierarchy into its LLC sink — an
/// [`LlcStage`](grasp_cachesim::LlcStage) to simulate the LLC now, or an
/// [`LlcTrace`](grasp_cachesim::LlcTrace) to record the post-L2 stream for
/// replay under each LLC policy of interest.
impl<S: LlcSink + std::fmt::Debug> MemoryModel for Hierarchy<S> {
    #[inline]
    fn touch(&mut self, addr: Address, kind: AccessKind, site: AccessSite, region: RegionLabel) {
        self.access(addr, kind, site, region);
    }

    fn program_property_bounds(&mut self, bounds: &[(Address, Address)]) {
        self.program_abrs(bounds);
    }
}

/// A model that logs every access it is told of, and the bounds it was
/// programmed with last, so tests pin which accesses an operation reports.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct AccessLog(
    pub(crate) Vec<(Address, AccessKind, AccessSite, RegionLabel)>,
    pub(crate) Vec<(Address, Address)>,
);

#[cfg(test)]
impl MemoryModel for AccessLog {
    fn touch(&mut self, addr: Address, kind: AccessKind, site: AccessSite, region: RegionLabel) {
        self.0.push((addr, kind, site, region));
    }

    fn program_property_bounds(&mut self, bounds: &[(Address, Address)]) {
        self.1 = bounds.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_cachesim::config::HierarchyConfig;
    use grasp_cachesim::hint::{RegionClassifier, ReuseHint};
    use grasp_cachesim::policy::rrip::Drrip;
    use grasp_cachesim::stage::LlcStage;
    use grasp_cachesim::trace::LlcTrace;

    /// The hint the LLC of `config` gives the trace's first demand request.
    fn first_hint(trace: &LlcTrace, config: &HierarchyConfig) -> ReuseHint {
        let classifier = RegionClassifier::new(&trace.context().abr_bounds, config.llc.size_bytes);
        let first = trace.demand_accesses().next().expect("a demand request");
        classifier.classify(first.addr)
    }

    /// Reports 100 reads of distinct blocks to `m`, its ABRs programmed with
    /// one 2 MiB Property Array at address 0. Block `i` is the `i`-th
    /// triangular number, so no two consecutive strides match and the stride
    /// prefetcher never trains: every block is a demand miss all the way
    /// down.
    fn touch_distinct_blocks(m: &mut impl MemoryModel) {
        m.program_property_bounds(&[(0, 1 << 21)]);
        for i in 0..100u64 {
            m.touch(
                i * (i + 1) / 2 * 64,
                AccessKind::Read,
                3,
                RegionLabel::Property,
            );
        }
    }

    #[test]
    fn traced_memory_drives_the_hierarchy() {
        let config = HierarchyConfig::scaled_default();
        let drrip = || Drrip::new(config.llc.sets(), config.llc.ways, 1);
        let mut m = Hierarchy::new(config, LlcStage::new(config.llc, drrip()));
        touch_distinct_blocks(&mut m);
        let stats = m.stats();
        assert_eq!(stats.l1.accesses, 100);
        assert_eq!(stats.llc.accesses, 100, "distinct blocks all reach the LLC");
        assert_eq!(stats.llc.misses, 100);
        // The recording model, fed the same accesses, replays to the same
        // statistics.
        let mut recorder = Hierarchy::new(config, LlcTrace::new());
        touch_distinct_blocks(&mut recorder);
        assert_eq!(recorder.finish().replay(config.llc, drrip()), stats);
    }

    #[test]
    fn programming_bounds_enables_classification() {
        let config = HierarchyConfig::scaled_default();
        let mut m = Hierarchy::new(config, LlcTrace::new());
        m.program_property_bounds(&[(0x8000_0000, 0x8000_0000 + (1 << 21))]);
        m.touch(0x8000_0000, AccessKind::Read, 1, RegionLabel::Property);
        let trace = m.finish();
        assert_eq!(first_hint(&trace, &config), ReuseHint::High);
        assert_eq!(
            &trace.context().abr_bounds,
            &[(0x8000_0000, 0x8000_0000 + (1 << 21))],
            "programmed bounds travel with the trace"
        );
    }

    #[test]
    fn recording_memory_captures_the_post_l2_stream() {
        let config = HierarchyConfig::scaled_default();
        let mut m = Hierarchy::new(config, LlcTrace::new());
        touch_distinct_blocks(&mut m);
        let trace = m.finish();
        assert_eq!(
            trace.demand_len(),
            100,
            "distinct blocks all escape the upper levels"
        );
        assert_eq!(trace.context().l1.accesses, 100);
        assert_eq!(first_hint(&trace, &config), ReuseHint::High);
        assert_eq!(&trace.context().abr_bounds, &[(0, 1 << 21)]);
    }
}
