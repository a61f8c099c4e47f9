//! GRASP: graph-specialized LLC management (Sec. III of the paper).
//!
//! GRASP augments the insertion and hit-promotion policies of an RRIP-managed
//! LLC using the 2-bit reuse hint produced by the
//! [`crate::hint::RegionClassifier`]:
//!
//! | Reuse hint | Insertion | Hit promotion |
//! |---|---|---|
//! | High-Reuse | `RRPV = 0` (MRU) | `RRPV = 0` |
//! | Moderate-Reuse | `RRPV = 6` (near LRU) | `RRPV -= 1` |
//! | Low-Reuse | `RRPV = 7` (LRU) | `RRPV -= 1` |
//! | Default | DRRIP behaviour (6 or 7) | `RRPV = 0` |
//!
//! The eviction policy is unchanged from the baseline, which is what keeps
//! GRASP flexible: blocks from the High Reuse Region that stop being
//! referenced age out naturally and yield space to other blocks with observed
//! reuse (Sec. III-C).
//!
//! [`GraspMode`] exposes the ablations of Fig. 7 (RRIP+Hints, Insertion-Only,
//! full GRASP).

use super::rrip::{RrpvArray, SetDueling, RRPV_LONG, RRPV_MAX};
use super::{PolicyRng, ReplacementPolicy};
use crate::hint::ReuseHint;
use crate::request::AccessInfo;

/// Which subset of GRASP's features is active (the Fig. 7 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraspMode {
    /// `RRIP+Hints`: identical to DRRIP except that the insertion position is
    /// chosen by the hint instead of probabilistically — High-Reuse blocks are
    /// inserted near the LRU position (`RRPV = 6`), everything else at LRU
    /// (`RRPV = 7`). Hits promote to MRU as in RRIP.
    HintsOnly,
    /// GRASP's insertion policy (High → MRU, Moderate → 6, Low → 7) with the
    /// baseline RRIP hit promotion (always to MRU).
    InsertionOnly,
    /// Full GRASP: specialized insertion *and* gradual hit promotion.
    Full,
}

/// The GRASP replacement policy (DRRIP base + hint-specialized insertion and
/// hit promotion).
#[derive(Debug, Clone)]
pub struct Grasp {
    rrpv: RrpvArray,
    dueling: SetDueling,
    rng: PolicyRng,
    mode: GraspMode,
}

impl Grasp {
    /// Creates the full GRASP policy.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        Self::with_mode(sets, ways, seed, GraspMode::Full)
    }

    /// Creates a GRASP policy with an explicit ablation mode.
    pub fn with_mode(sets: usize, ways: usize, seed: u64, mode: GraspMode) -> Self {
        Self {
            rrpv: RrpvArray::new(sets, ways),
            dueling: SetDueling::new(sets),
            rng: PolicyRng::new(seed),
            mode,
        }
    }

    /// Insertion value of a fill with `hint` under the active mode; a
    /// Default-hinted fill takes DRRIP's in every mode.
    fn insertion_value(&mut self, set: usize, hint: ReuseHint) -> u8 {
        match self.mode {
            GraspMode::HintsOnly => match hint {
                // RRIP+Hints: High-Reuse blocks get the favourable of RRIP's
                // two insertion points, everything else the unfavourable one.
                ReuseHint::High => RRPV_LONG,
                ReuseHint::Moderate | ReuseHint::Low => RRPV_MAX,
                ReuseHint::Default => self.dueling.insertion(set, &mut self.rng),
            },
            GraspMode::InsertionOnly | GraspMode::Full => match hint {
                // Table II of the paper.
                ReuseHint::High => 0,
                ReuseHint::Moderate => RRPV_LONG,
                ReuseHint::Low => RRPV_MAX,
                ReuseHint::Default => self.dueling.insertion(set, &mut self.rng),
            },
        }
    }
}

impl ReplacementPolicy for Grasp {
    #[inline(always)]
    fn choose_victim(&mut self, set: usize) -> usize {
        // Eviction is unchanged from the base scheme (Sec. III-C): no hint is
        // consulted, so no per-block hint metadata is needed.
        self.rrpv.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.dueling.record_miss(set);
        let value = self.insertion_value(set, info.hint);
        self.rrpv.set(set, way, value);
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        match self.mode {
            // RRIP-style promotion straight to MRU.
            GraspMode::HintsOnly | GraspMode::InsertionOnly => self.rrpv.set(set, way, 0),
            GraspMode::Full => match info.hint {
                ReuseHint::High | ReuseHint::Default => self.rrpv.set(set, way, 0),
                // Gradual promotion towards MRU (Table II hit policy).
                ReuseHint::Moderate | ReuseHint::Low => self.rrpv.decrement(set, way),
            },
        }
    }

    fn reads_hints(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RegionLabel;

    fn req(hint: ReuseHint) -> AccessInfo {
        AccessInfo {
            hint,
            region: RegionLabel::Property,
            ..AccessInfo::read(0)
        }
    }

    #[test]
    fn full_grasp_insertion_follows_table_ii() {
        let mut g = Grasp::new(8, 4, 1);
        g.on_fill(2, 0, &req(ReuseHint::High));
        assert_eq!(g.rrpv.get(2, 0), 0);
        g.on_fill(2, 1, &req(ReuseHint::Moderate));
        assert_eq!(g.rrpv.get(2, 1), 6);
        g.on_fill(2, 2, &req(ReuseHint::Low));
        assert_eq!(g.rrpv.get(2, 2), 7);
        // Default falls back to DRRIP: either 6 or 7.
        g.on_fill(2, 3, &req(ReuseHint::Default));
        assert!(g.rrpv.get(2, 3) >= 6);
    }

    #[test]
    fn full_grasp_hit_promotion_is_gradual_for_cold_hints() {
        let mut g = Grasp::new(4, 4, 1);
        g.on_fill(0, 0, &req(ReuseHint::Low));
        assert_eq!(g.rrpv.get(0, 0), 7);
        g.on_hit(0, 0, &req(ReuseHint::Low));
        assert_eq!(g.rrpv.get(0, 0), 6, "gradual promotion decrements by one");
        g.on_hit(0, 0, &req(ReuseHint::Moderate));
        assert_eq!(g.rrpv.get(0, 0), 5);
        // High-hinted hits jump straight to MRU.
        g.on_hit(0, 0, &req(ReuseHint::High));
        assert_eq!(g.rrpv.get(0, 0), 0);
    }

    #[test]
    fn insertion_only_promotes_to_mru_on_hit() {
        let mut g = Grasp::with_mode(4, 4, 1, GraspMode::InsertionOnly);
        g.on_fill(0, 0, &req(ReuseHint::Low));
        g.on_hit(0, 0, &req(ReuseHint::Low));
        assert_eq!(g.rrpv.get(0, 0), 0);
        // Insertion still follows Table II.
        g.on_fill(0, 1, &req(ReuseHint::High));
        assert_eq!(g.rrpv.get(0, 1), 0);
    }

    #[test]
    fn hints_only_uses_rrip_insertion_points() {
        let mut g = Grasp::with_mode(4, 4, 1, GraspMode::HintsOnly);
        g.on_fill(0, 0, &req(ReuseHint::High));
        assert_eq!(
            g.rrpv.get(0, 0),
            RRPV_LONG,
            "High inserts near LRU, not at MRU"
        );
        g.on_fill(0, 1, &req(ReuseHint::Low));
        assert_eq!(g.rrpv.get(0, 1), RRPV_MAX);
        g.on_fill(0, 2, &req(ReuseHint::Moderate));
        assert_eq!(g.rrpv.get(0, 2), RRPV_MAX);
    }

    #[test]
    fn eviction_ignores_hints() {
        // A High-hinted block that has aged to RRPV_MAX is just as evictable
        // as any other block — that is GRASP's flexibility.
        let mut g = Grasp::new(1, 2, 1);
        g.on_fill(0, 0, &req(ReuseHint::High));
        g.on_fill(0, 1, &req(ReuseHint::Low));
        // Way 1 (Low, RRPV 7) is the victim right now.
        assert_eq!(g.choose_victim(0), 1);
        // find_victim ages way 0 while searching; once it saturates the High
        // block is evictable like any other.
        g.rrpv.set(0, 0, RRPV_MAX);
        g.rrpv.set(0, 1, 0);
        assert_eq!(g.choose_victim(0), 0);
    }

    #[test]
    fn default_hint_behaves_like_drrip() {
        let mut g = Grasp::new(64, 4, 1);
        // In an SRRIP leader set, Default inserts at RRPV_LONG.
        g.on_fill(0, 0, &req(ReuseHint::Default));
        assert_eq!(g.rrpv.get(0, 0), RRPV_LONG);
        // Default hits promote to MRU.
        g.on_hit(0, 0, &req(ReuseHint::Default));
        assert_eq!(g.rrpv.get(0, 0), 0);
    }
}
