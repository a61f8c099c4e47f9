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

use crate::stats::HierarchyStats;

/// Table VI's latencies, in cycles: an L1-D hit, an L2 hit, an LLC hit (bank
/// access + NoC hops) and a main-memory access.
const L1_CYCLES: f64 = 4.0;
const L2_CYCLES: f64 = 10.0;
const LLC_CYCLES: f64 = 30.0;
const MEMORY_CYCLES: f64 = 200.0;

/// Cycles of non-memory work charged per instruction (a 4-wide OoO core).
const CYCLES_PER_INSTRUCTION: f64 = 0.75;

/// Effective memory-level parallelism: demand DRAM latency is divided by this
/// factor to model overlapping of independent misses by an OoO core.
const MEMORY_LEVEL_PARALLELISM: f64 = 2.0;

/// Estimated cycles for a run with the given hierarchy statistics and
/// `instructions` of non-memory work.
pub fn cycles(stats: &HierarchyStats, instructions: u64) -> f64 {
    let l2_hits = stats.l2.hits as f64;
    let llc_hits = stats.llc.hits as f64;
    let memory = stats.memory_accesses as f64;

    let compute = instructions as f64 * CYCLES_PER_INSTRUCTION;
    let l1_time = stats.l1.accesses as f64 * L1_CYCLES;
    let l2_time = (l2_hits + llc_hits + memory) * L2_CYCLES;
    let llc_time = (llc_hits + memory) * LLC_CYCLES;
    let memory_time = memory * MEMORY_CYCLES / MEMORY_LEVEL_PARALLELISM;
    compute + l1_time + l2_time + llc_time + memory_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CacheStats, HierarchyStats};

    fn stats(l1_hits: u64, l2_hits: u64, llc_hits: u64, mem: u64) -> HierarchyStats {
        use crate::request::RegionLabel;
        let mut h = HierarchyStats::default();
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
        let worse = stats(1000, 100, 100, 300);
        let better = stats(1000, 100, 200, 200);
        assert!(cycles(&better, 10_000) < cycles(&worse, 10_000));
    }

    #[test]
    fn memory_latency_dominates_when_misses_dominate() {
        let all_miss = stats(0, 0, 0, 1000);
        let all_l1 = stats(1000, 0, 0, 0);
        let ratio = cycles(&all_miss, 0) / cycles(&all_l1, 0);
        assert!(ratio > 10.0, "DRAM-bound run must be much slower ({ratio})");
    }

    /// The exact cycle bits of Table VI's model (4 / 10 / 30 / 200 cycles,
    /// CPI 0.75, MLP 2.0) on all-L1-hit, all-memory and mixed runs, at 0
    /// and 10 000 instructions: a run's price never moves.
    #[test]
    fn cycle_bits_are_pinned() {
        let price = cycles;
        let runs = [
            stats(1000, 0, 0, 0),
            stats(0, 0, 0, 1000),
            stats(1234, 567, 89, 321),
        ];
        let bits: Vec<u64> = runs
            .iter()
            .flat_map(|s| [0, 10_000].map(|instructions| price(s, instructions).to_bits()))
            .collect();
        let pinned = [
            0x40af_4000_0000_0000,
            0x40c6_7600_0000_0000,
            0x4101_9400_0000_0000,
            0x4102_7e60_0000_0000,
            0x40ee_c4c0_0000_0000,
            0x40f1_3720_0000_0000,
        ];
        assert_eq!(bits, pinned);
    }

    #[test]
    fn instructions_add_compute_time() {
        let s = stats(100, 0, 0, 0);
        assert!(cycles(&s, 1000) > cycles(&s, 0));
    }
}
