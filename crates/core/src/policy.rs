//! The policy registry: every LLC management scheme of the evaluation.

use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::policy::grasp::{Grasp, GraspMode};
use grasp_cachesim::policy::hawkeye::Hawkeye;
use grasp_cachesim::policy::leeway::Leeway;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::policy::pin::PinX;
use grasp_cachesim::policy::random::RandomReplacement;
use grasp_cachesim::policy::rrip::{Brrip, Drrip, Srrip};
use grasp_cachesim::policy::ship::ShipMem;
use grasp_cachesim::policy::PolicyDispatch;

/// Seed used for the probabilistic components of the policies, fixed so every
/// experiment is reproducible.
const POLICY_SEED: u64 = 0xC0FFEE;

/// Every LLC management scheme evaluated in the paper (plus a couple of
/// sanity baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least Recently Used.
    Lru,
    /// Random replacement (sanity baseline).
    Random,
    /// Static RRIP.
    Srrip,
    /// Bimodal RRIP.
    Brrip,
    /// Dynamic RRIP — the paper's baseline, labelled "RRIP".
    Rrip,
    /// SHiP-MEM (memory-region signatures).
    ShipMem,
    /// Hawkeye (OPTgen-trained, site-indexed predictor).
    Hawkeye,
    /// Leeway (live-distance dead-block prediction).
    Leeway,
    /// XMem-style pinning reserving the given percentage of LLC capacity
    /// (PIN-25/50/75/100 in the paper).
    Pin(u8),
    /// The RRIP+Hints ablation of Fig. 7.
    GraspHintsOnly,
    /// The GRASP (Insertion-Only) ablation of Fig. 7.
    GraspInsertionOnly,
    /// Full GRASP.
    Grasp,
}

impl PolicyKind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Rrip => "RRIP",
            PolicyKind::ShipMem => "SHiP-MEM",
            PolicyKind::Hawkeye => "Hawkeye",
            PolicyKind::Leeway => "Leeway",
            PolicyKind::Pin(25) => "PIN-25",
            PolicyKind::Pin(50) => "PIN-50",
            PolicyKind::Pin(75) => "PIN-75",
            PolicyKind::Pin(100) => "PIN-100",
            PolicyKind::Pin(_) => "PIN-X",
            PolicyKind::GraspHintsOnly => "RRIP+Hints",
            PolicyKind::GraspInsertionOnly => "GRASP (Insertion-Only)",
            PolicyKind::Grasp => "GRASP",
        }
    }

    /// Parses a wire label back to the policy. Accepts every fixed
    /// [`PolicyKind::label`] plus `PIN-<percent>` for any pinning fraction
    /// in 1..=100 (the display label collapses unusual fractions to
    /// `PIN-X`, so [`CampaignSpec`] documents spell the number out).
    ///
    /// [`CampaignSpec`]: crate::spec::CampaignSpec
    pub fn from_label(label: &str) -> Option<Self> {
        if let Some(percent) = label.strip_prefix("PIN-") {
            let percent: u8 = percent.parse().ok()?;
            return (1..=100)
                .contains(&percent)
                .then_some(PolicyKind::Pin(percent));
        }
        let fixed = [
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Rrip,
            PolicyKind::ShipMem,
            PolicyKind::Hawkeye,
            PolicyKind::Leeway,
            PolicyKind::GraspHintsOnly,
            PolicyKind::GraspInsertionOnly,
            PolicyKind::Grasp,
        ];
        fixed.into_iter().find(|policy| policy.label() == label)
    }

    /// Instantiates the policy for an LLC with the given geometry, as a
    /// statically-dispatched [`PolicyDispatch`] (the simulation fast path).
    pub fn build_dispatch(self, config: &CacheConfig) -> PolicyDispatch {
        let sets = config.sets();
        let ways = config.ways;
        match self {
            PolicyKind::Lru => Lru::new(sets, ways).into(),
            PolicyKind::Random => RandomReplacement::new(sets, ways, POLICY_SEED).into(),
            PolicyKind::Srrip => Srrip::new(sets, ways).into(),
            PolicyKind::Brrip => Brrip::new(sets, ways, POLICY_SEED).into(),
            PolicyKind::Rrip => Drrip::new(sets, ways, POLICY_SEED).into(),
            PolicyKind::ShipMem => ShipMem::new(sets, ways).into(),
            PolicyKind::Hawkeye => Hawkeye::new(sets, ways, config.block_bytes).into(),
            PolicyKind::Leeway => Leeway::new(sets, ways).into(),
            PolicyKind::Pin(percent) => PinX::new(sets, ways, percent).into(),
            PolicyKind::GraspHintsOnly => {
                Grasp::with_mode(sets, ways, POLICY_SEED, GraspMode::HintsOnly).into()
            }
            PolicyKind::GraspInsertionOnly => {
                Grasp::with_mode(sets, ways, POLICY_SEED, GraspMode::InsertionOnly).into()
            }
            PolicyKind::Grasp => Grasp::new(sets, ways, POLICY_SEED).into(),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_builds() {
        let config = CacheConfig::new(64 * 1024, 16, 64);
        let all = [
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Rrip,
            PolicyKind::ShipMem,
            PolicyKind::Hawkeye,
            PolicyKind::Leeway,
            PolicyKind::Pin(25),
            PolicyKind::Pin(100),
            PolicyKind::GraspHintsOnly,
            PolicyKind::GraspInsertionOnly,
            PolicyKind::Grasp,
        ];
        for kind in all {
            let dispatch = kind.build_dispatch(&config);
            let variant_matches = match kind {
                PolicyKind::Lru => matches!(dispatch, PolicyDispatch::Lru(_)),
                PolicyKind::Random => matches!(dispatch, PolicyDispatch::Random(_)),
                PolicyKind::Srrip => matches!(dispatch, PolicyDispatch::Srrip(_)),
                PolicyKind::Brrip => matches!(dispatch, PolicyDispatch::Brrip(_)),
                PolicyKind::Rrip => matches!(dispatch, PolicyDispatch::Drrip(_)),
                PolicyKind::ShipMem => matches!(dispatch, PolicyDispatch::ShipMem(_)),
                PolicyKind::Hawkeye => matches!(dispatch, PolicyDispatch::Hawkeye(_)),
                PolicyKind::Leeway => matches!(dispatch, PolicyDispatch::Leeway(_)),
                PolicyKind::Pin(_) => matches!(dispatch, PolicyDispatch::Pin(_)),
                PolicyKind::GraspHintsOnly | PolicyKind::GraspInsertionOnly | PolicyKind::Grasp => {
                    matches!(dispatch, PolicyDispatch::Grasp(_))
                }
            };
            assert!(variant_matches, "{kind} built {dispatch:?}");
        }
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(PolicyKind::Rrip.label(), "RRIP");
        assert_eq!(PolicyKind::ShipMem.label(), "SHiP-MEM");
        assert_eq!(PolicyKind::Pin(75).label(), "PIN-75");
        assert_eq!(PolicyKind::Grasp.to_string(), "GRASP");
        assert_eq!(PolicyKind::GraspHintsOnly.label(), "RRIP+Hints");
        assert_eq!(
            PolicyKind::GraspInsertionOnly.label(),
            "GRASP (Insertion-Only)"
        );
        assert_eq!(PolicyKind::Pin(25).label(), "PIN-25");
        assert_eq!(PolicyKind::Pin(100).label(), "PIN-100");
        assert_eq!(PolicyKind::Pin(60).label(), "PIN-X");
    }

    #[test]
    fn hint_consumers_are_flagged() {
        let config = CacheConfig::new(64 * 1024, 16, 64);
        let reads_hints = |kind: PolicyKind| kind.build_dispatch(&config).reads_hints();
        assert!(reads_hints(PolicyKind::Grasp));
        assert!(reads_hints(PolicyKind::GraspHintsOnly));
        assert!(reads_hints(PolicyKind::Pin(50)));
        assert!(!reads_hints(PolicyKind::Rrip));
        assert!(!reads_hints(PolicyKind::Hawkeye));
    }
}
