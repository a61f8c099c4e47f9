//! Correctness accounting: the attempted/failed tally, the simulation
//! digest, and bit-exact cell comparison.

use grasp_cachesim::trace::persist::Fnv64;
use grasp_cachesim::{CacheStats, RegionLabel};
use grasp_core::campaign::CampaignRun;
use grasp_core::experiment::RunResult;

/// Operations attempted and failed. An operation is a simulated cell, a
/// daemon request, or a correctness check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `n` operations that completed.
    pub fn completed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation that failed.
    pub fn failure(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.failure(what());
        }
    }
}

fn hash_cache(hasher: &mut Fnv64, stats: &CacheStats) {
    let mut word = |value: u64| hasher.update(&value.to_le_bytes());
    word(stats.accesses);
    word(stats.hits);
    word(stats.misses);
    word(stats.evictions);
    word(stats.bypasses);
    word(stats.prefetch_accesses);
    word(stats.prefetch_fills);
    word(stats.writeback_accesses);
    word(stats.writeback_hits);
    for region in RegionLabel::ALL {
        let counters = stats.region(region);
        word(counters.accesses);
        word(counters.misses);
    }
}

/// FNV-1a over every cell's coordinates, hierarchy statistics and cycle
/// bits, in grid order: the whole simulated outcome of a campaign in one
/// word. Must repeat exactly for a given seed.
pub fn sim_digest<'a>(runs: impl IntoIterator<Item = &'a CampaignRun>) -> u64 {
    let mut hasher = Fnv64::new();
    for run in runs {
        let cell = &run.cell;
        let coordinates = format!(
            "{}|{}|{}|{}|",
            cell.dataset.slug(),
            cell.technique.label(),
            cell.app.label(),
            grasp_core::spec::policy_wire(cell.policy)
        );
        hasher.update(coordinates.as_bytes());
        let stats = &run.result.stats;
        hash_cache(&mut hasher, &stats.l1);
        hash_cache(&mut hasher, &stats.l2);
        hash_cache(&mut hasher, &stats.llc);
        hasher.update(&stats.memory_accesses.to_le_bytes());
        hasher.update(&run.result.cycles.to_bits().to_le_bytes());
    }
    hasher.finish()
}

/// FNV-1a over the bit patterns of an application's output values — the
/// same fingerprint the daemon's `cell` frames carry as `values_fnv`.
pub fn values_fnv(values: &[f64]) -> String {
    let mut hasher = Fnv64::new();
    for value in values {
        hasher.update(&value.to_bits().to_le_bytes());
    }
    format!("{:016x}", hasher.finish())
}

/// Whether two results are the same simulation, to the bit: statistics,
/// cycles and application output.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.stats == b.stats
        && a.cycles.to_bits() == b.cycles.to_bits()
        && a.app.iterations == b.app.iterations
        && a.app.edges_processed == b.app.edges_processed
        && a.app.values.len() == b.app.values.len()
        && a.app
            .values
            .iter()
            .zip(&b.app.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_checks_and_failures() {
        let mut tally = Tally::default();
        tally.completed(10);
        tally.check(true, || unreachable!());
        tally.check(false, || "broken".to_owned());
        assert_eq!((tally.attempted, tally.failed), (12, 1));
        assert_eq!(tally.notes, ["broken"]);
    }

    #[test]
    fn values_fingerprint_matches_the_service_protocol() {
        // The constants `grasp_serve::protocol::values_fingerprint` pins.
        assert_eq!(values_fnv(&[]), "cbf29ce484222325");
        assert_ne!(values_fnv(&[1.0, 2.0]), values_fnv(&[2.0, 1.0]));
    }
}
