//! Analytic timing model.
//!
//! The paper reports application speed-up measured in a cycle-accurate
//! out-of-order core simulator. GRASP's benefit, however, comes entirely from
//! LLC miss reduction, so a latency-weighted analytic model is sufficient to
//! reproduce the *relative* performance of the competing schemes: each level
//! of the hierarchy charges its access latency, demand LLC misses charge the
//! DRAM latency (discounted by a memory-level-parallelism factor that stands
//! in for the out-of-order core's ability to overlap misses), and non-memory
//! work contributes a fixed number of cycles per instruction.
//!
//! Absolute cycle counts from this model are *not* meaningful; only ratios
//! between runs that differ in cache policy or data layout are used in the
//! experiment harness (speed-up % over a baseline, as in Figs. 6–10).

use crate::config::LatencyConfig;
use crate::stats::HierarchyStats;

/// Latency-weighted cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Per-level and memory latencies.
    pub latency: LatencyConfig,
    /// Cycles of non-memory work charged per instruction.
    pub cycles_per_instruction: f64,
    /// Effective memory-level parallelism: demand DRAM latency is divided by
    /// this factor to model overlapping of independent misses by an OoO core.
    pub memory_level_parallelism: f64,
}

impl TimingModel {
    /// Creates a timing model from a latency configuration with default core
    /// parameters (CPI 0.75 for a 4-wide OoO core, MLP 2.0).
    pub fn new(latency: LatencyConfig) -> Self {
        Self {
            latency,
            cycles_per_instruction: 0.75,
            memory_level_parallelism: 2.0,
        }
    }

    /// Estimated cycles for a run with the given hierarchy statistics and
    /// `instructions` of non-memory work.
    pub fn cycles(&self, stats: &HierarchyStats, instructions: u64) -> f64 {
        let lat = &self.latency;
        let l1_hits = stats.l1.hits as f64;
        let l2_hits = stats.l2.hits as f64;
        let llc_hits = stats.llc.hits as f64;
        let memory = stats.memory_accesses as f64;

        let compute = instructions as f64 * self.cycles_per_instruction;
        let l1_time = stats.l1.accesses as f64 * lat.l1_cycles as f64;
        let l2_time = (l2_hits + llc_hits + memory) * lat.l2_cycles as f64;
        let llc_time = (llc_hits + memory) * lat.llc_cycles as f64;
        let memory_time = memory * lat.memory_cycles as f64 / self.memory_level_parallelism;
        let _ = l1_hits;
        compute + l1_time + l2_time + llc_time + memory_time
    }

    /// Speed-up (in percent) of `candidate` relative to `baseline` cycles:
    /// positive when the candidate is faster.
    pub fn speedup_pct(baseline_cycles: f64, candidate_cycles: f64) -> f64 {
        (baseline_cycles / candidate_cycles - 1.0) * 100.0
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::new(LatencyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CacheStats, HierarchyStats};

    fn stats(l1_hits: u64, l2_hits: u64, llc_hits: u64, mem: u64) -> HierarchyStats {
        use crate::request::RegionLabel;
        let mut h = HierarchyStats::new();
        let fill = |s: &mut CacheStats, hits: u64, misses: u64| {
            for _ in 0..hits {
                s.record(RegionLabel::Other, true);
            }
            for _ in 0..misses {
                s.record(RegionLabel::Other, false);
            }
        };
        let total = l1_hits + l2_hits + llc_hits + mem;
        fill(&mut h.l1, l1_hits, total - l1_hits);
        fill(&mut h.l2, l2_hits, total - l1_hits - l2_hits);
        fill(&mut h.llc, llc_hits, mem);
        h.memory_accesses = mem;
        h
    }

    #[test]
    fn fewer_llc_misses_means_fewer_cycles() {
        let model = TimingModel::default();
        let worse = stats(1000, 100, 100, 300);
        let better = stats(1000, 100, 200, 200);
        assert!(model.cycles(&better, 10_000) < model.cycles(&worse, 10_000));
    }

    #[test]
    fn memory_latency_dominates_when_misses_dominate() {
        let model = TimingModel::default();
        let all_miss = stats(0, 0, 0, 1000);
        let all_l1 = stats(1000, 0, 0, 0);
        let ratio = model.cycles(&all_miss, 0) / model.cycles(&all_l1, 0);
        assert!(ratio > 10.0, "DRAM-bound run must be much slower ({ratio})");
    }

    #[test]
    fn speedup_sign_convention() {
        assert!(TimingModel::speedup_pct(110.0, 100.0) > 0.0);
        assert!(TimingModel::speedup_pct(100.0, 110.0) < 0.0);
        assert!((TimingModel::speedup_pct(100.0, 100.0)).abs() < 1e-12);
        assert!((TimingModel::speedup_pct(105.0, 100.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn instructions_add_compute_time() {
        let model = TimingModel::default();
        let s = stats(100, 0, 0, 0);
        assert!(model.cycles(&s, 1000) > model.cycles(&s, 0));
    }
}
