//! Random replacement (sanity baseline).

use super::{PolicyRng, ReplacementPolicy};
use crate::request::AccessInfo;

/// Evicts a uniformly random way. Useful as a sanity baseline in tests and
/// micro-benchmarks: any scheme that claims thrash resistance should beat it
/// on reuse-heavy traces.
#[derive(Debug, Clone)]
pub struct RandomReplacement {
    ways: usize,
    rng: PolicyRng,
}

impl RandomReplacement {
    /// Creates a random-replacement policy.
    pub fn new(_sets: usize, ways: usize, seed: u64) -> Self {
        Self {
            ways,
            rng: PolicyRng::new(seed),
        }
    }
}

impl ReplacementPolicy for RandomReplacement {
    fn choose_victim(&mut self, _set: usize) -> usize {
        self.rng.next_below(self.ways as u64) as usize
    }

    fn on_fill(&mut self, _set: usize, _way: usize, _info: &AccessInfo) {}

    fn on_hit(&mut self, _set: usize, _way: usize, _info: &AccessInfo) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_within_range_and_varied() {
        let mut p = RandomReplacement::new(4, 8, 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = p.choose_victim(0);
            assert!(v < 8);
            seen.insert(v);
        }
        assert!(seen.len() > 4, "random policy should spread victims");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = RandomReplacement::new(1, 4, 9);
        let mut b = RandomReplacement::new(1, 4, 9);
        for _ in 0..50 {
            assert_eq!(a.choose_victim(0), b.choose_victim(0));
        }
    }
}
