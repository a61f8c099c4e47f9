//! Memory models: where the applications' memory accesses go.

use grasp_cachesim::addr::Address;
use grasp_cachesim::config::HierarchyConfig;
use grasp_cachesim::request::{AccessKind, AccessSite, RegionLabel};
use grasp_cachesim::stage::UpperLevels;
use grasp_cachesim::stats::HierarchyStats;
use grasp_cachesim::trace::LlcTrace;
use grasp_cachesim::Hierarchy;

/// A sink for the memory accesses an application performs.
pub trait MemoryModel: std::fmt::Debug {
    /// Reports one memory access.
    fn touch(&mut self, addr: Address, kind: AccessKind, site: AccessSite, region: RegionLabel);

    /// Programs the GRASP Address Bound Registers with the application's
    /// Property Array bounds. The default implementation ignores the call
    /// (native execution has no simulated hardware).
    fn program_property_bounds(&mut self, _bounds: &[(Address, Address)]) {}

    /// Number of accesses reported so far.
    fn access_count(&self) -> u64;
}

/// The no-op model used for native (wall-clock) runs: accesses are counted
/// but not simulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeMemory {
    accesses: u64,
}

impl NativeMemory {
    /// Creates a native (no-op) memory model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MemoryModel for NativeMemory {
    #[inline]
    fn touch(
        &mut self,
        _addr: Address,
        _kind: AccessKind,
        _site: AccessSite,
        _region: RegionLabel,
    ) {
        self.accesses += 1;
    }

    fn access_count(&self) -> u64 {
        self.accesses
    }
}

/// The traced model: every access is simulated through a cache hierarchy.
#[derive(Debug)]
pub struct TracedMemory {
    hierarchy: Hierarchy,
    accesses: u64,
}

impl TracedMemory {
    /// Wraps a cache hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        Self {
            hierarchy,
            accesses: 0,
        }
    }

    /// Borrow the underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Accumulated hierarchy statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.hierarchy.stats()
    }
}

impl MemoryModel for TracedMemory {
    #[inline]
    fn touch(&mut self, addr: Address, kind: AccessKind, site: AccessSite, region: RegionLabel) {
        self.accesses += 1;
        self.hierarchy.access(addr, kind, site, region);
    }

    fn program_property_bounds(&mut self, bounds: &[(Address, Address)]) {
        self.hierarchy.program_abrs(bounds);
    }

    fn access_count(&self) -> u64 {
        self.accesses
    }
}

/// The recording model of the record-once / replay-many pipeline: accesses
/// run through the policy-independent upper levels
/// ([`grasp_cachesim::stage::UpperLevels`]) only, and everything that escapes
/// L2 is buffered in an [`LlcTrace`] instead of being simulated. No LLC
/// exists during recording — the stream is replayed under each LLC policy of
/// interest.
#[derive(Debug)]
pub struct RecordingMemory {
    upper: UpperLevels,
    sink: LlcTrace,
    accesses: u64,
}

impl RecordingMemory {
    /// Creates a recording model for the given hierarchy configuration (its
    /// LLC geometry does not shape the recording).
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            upper: UpperLevels::new(config),
            sink: LlcTrace::new(),
            accesses: 0,
        }
    }

    /// Pre-sizes the trace for roughly `expected_records` post-L2 records.
    pub fn reserve_trace(&mut self, expected_records: usize) {
        self.sink.reserve(expected_records);
    }

    /// Finishes the recording: attaches the upper-level statistics and the
    /// programmed ABR bounds to the trace and returns it.
    pub fn finish(self) -> LlcTrace {
        let mut trace = self.sink;
        trace.set_context(self.upper.record_context());
        trace
    }
}

impl MemoryModel for RecordingMemory {
    #[inline]
    fn touch(&mut self, addr: Address, kind: AccessKind, site: AccessSite, region: RegionLabel) {
        self.accesses += 1;
        self.upper.access(addr, kind, site, region, &mut self.sink);
    }

    fn program_property_bounds(&mut self, bounds: &[(Address, Address)]) {
        self.upper.program_abrs(bounds);
    }

    fn access_count(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_cachesim::config::HierarchyConfig;
    use grasp_cachesim::hint::{RegionClassifier, ReuseHint};
    use grasp_cachesim::policy::rrip::Drrip;
    use grasp_cachesim::trace::LlcTrace;

    /// The hint the LLC of `config` gives the trace's first demand request.
    fn first_hint(trace: &LlcTrace, config: &HierarchyConfig) -> ReuseHint {
        let classifier = RegionClassifier::new(&trace.context().abr_bounds, config.llc.size_bytes);
        classifier.classify(trace.demand_vec()[0].addr)
    }

    #[test]
    fn native_memory_counts_accesses() {
        let mut m = NativeMemory::new();
        m.touch(0x10, AccessKind::Read, 1, RegionLabel::Property);
        m.touch(0x20, AccessKind::Write, 2, RegionLabel::Other);
        assert_eq!(m.access_count(), 2);
    }

    #[test]
    fn traced_memory_drives_the_hierarchy() {
        // Disable the prefetcher so every distinct block is a demand miss all
        // the way down.
        let config = HierarchyConfig::scaled_default().without_prefetch();
        let llc = Drrip::new(config.llc.sets(), config.llc.ways, 1);
        let hierarchy = Hierarchy::new(config, llc);
        let mut m = TracedMemory::new(hierarchy);
        for i in 0..100u64 {
            m.touch(i * 64, AccessKind::Read, 3, RegionLabel::Property);
        }
        assert_eq!(m.access_count(), 100);
        assert_eq!(m.stats().l1.accesses, 100);
        assert_eq!(
            m.stats().llc.accesses,
            100,
            "distinct blocks all reach the LLC"
        );
    }

    #[test]
    fn programming_bounds_enables_classification() {
        let config = HierarchyConfig::scaled_default();
        let mut m = RecordingMemory::new(config);
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
        let config = HierarchyConfig::scaled_default().without_prefetch();
        let mut m = RecordingMemory::new(config);
        m.program_property_bounds(&[(0, 1 << 21)]);
        for i in 0..100u64 {
            m.touch(i * 64, AccessKind::Read, 3, RegionLabel::Property);
        }
        assert_eq!(m.access_count(), 100);
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
