//! Replacement policies.
//!
//! Every policy evaluated in the paper is implemented behind the
//! [`ReplacementPolicy`] trait:
//!
//! | Module | Scheme | Paper role |
//! |---|---|---|
//! | [`lru`] | Least Recently Used | the classical baseline for Fig. 11 / Table VII |
//! | [`rrip`] | DRRIP (set-duels SRRIP and BRRIP insertion) | the paper's high-performance baseline, "RRIP" (Sec. IV-C) |
//! | [`ship`] | SHiP-MEM | history-based insertion keyed by memory region |
//! | [`hawkeye`] | Hawkeye | OPTgen-trained, PC(site)-indexed predictor |
//! | [`leeway`] | Leeway | live-distance dead-block prediction |
//! | [`pin`] | PIN-X (XMem-style) | rigid pinning of the High Reuse Region |
//! | [`grasp`] | GRASP | the paper's contribution, plus its ablations |
//! | [`opt`] | Belady's OPT | offline upper bound (Sec. V-D) |

pub mod dispatch;
pub mod grasp;
pub mod hawkeye;
pub mod leeway;
pub mod lru;
pub mod opt;
pub mod pin;
pub mod rrip;
pub mod ship;

use crate::request::AccessInfo;

pub use dispatch::PolicyDispatch;

/// A cache replacement policy driving one set-associative cache.
///
/// The cache owns tags and valid and dirty bits; the policy owns whatever
/// per-block or global metadata it needs (RRPV counters, predictor tables,
/// whether a block was hit since its fill, ...). Every miss allocates, and
/// the cache fills invalid ways without consulting the policy, so
/// [`ReplacementPolicy::choose_victim`] is only invoked when every way of
/// the set holds a valid block. A policy's state lives as long as its cache:
/// nothing ever invalidates the cache or resets the policy.
///
/// Per miss in a full set the cache calls `choose_victim`, then `on_evict`
/// for the chosen way, then `on_fill` for the incoming block; per hit it
/// calls `on_hit`. Demand and prefetch requests take the same hooks.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Chooses the victim way for a fill in `set` when all ways are valid.
    ///
    /// The built-in policies force their victim search inline
    /// (`#[inline(always)]`, down to `RrpvArray::find_victim`): left to the
    /// inliner, several stay out of line in replay's per-policy kernel,
    /// which CI rejects. Leeway's is the measured exception.
    fn choose_victim(&mut self, set: usize) -> usize;

    /// Notification that `way` in `set` was filled with the block of `info`.
    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo);

    /// Notification that the access `info` hit `way` in `set`.
    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo);

    /// Notification that the block in `way` of `set` is being evicted.
    fn on_evict(&mut self, _set: usize, _way: usize) {}

    /// Whether any hook reads [`AccessInfo::hint`]. Replay classifies a
    /// request only for policies that say so, so a policy that reads the
    /// hint must override this, or it sees
    /// [`ReuseHint::Default`](crate::hint::ReuseHint::Default) on every
    /// replayed request.
    fn reads_hints(&self) -> bool {
        false
    }
}

/// Every how-many-th set a sampling predictor (Hawkeye's OPTgen, Leeway's
/// training) learns from: roughly 64 sets of a large cache, every set of
/// one with fewer than 128 sets.
pub(crate) fn sample_interval(sets: usize) -> usize {
    (sets / 64).max(1)
}

/// A tiny deterministic pseudo-random generator for the BRRIP side of the
/// DRRIP duel (in DRRIP, GRASP and Leeway). Kept local to the crate so the
/// simulator has no dependency on the graph substrate and produces
/// bit-identical results across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PolicyRng {
    state: u64,
}

impl PolicyRng {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// xorshift64* step.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns `true` once every `denominator` calls on average.
    #[inline]
    pub(crate) fn one_in(&mut self, denominator: u64) -> bool {
        self.next_u64().is_multiple_of(denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_rng_is_deterministic() {
        let mut a = PolicyRng::new(1);
        let mut b = PolicyRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn one_in_rate_is_roughly_right() {
        let mut rng = PolicyRng::new(5);
        let trials = 64_000;
        let hits = (0..trials).filter(|_| rng.one_in(32)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 1.0 / 32.0).abs() < 0.01, "rate {rate}");
    }
}
