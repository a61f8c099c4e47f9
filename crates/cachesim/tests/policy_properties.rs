//! Cross-policy property tests: every online policy must obey basic cache
//! invariants, and Belady's OPT must lower-bound all of them on arbitrary
//! traces.

use grasp_cachesim::cache::SetAssocCache;
use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::hint::ReuseHint;
use grasp_cachesim::policy::grasp::{Grasp, GraspMode};
use grasp_cachesim::policy::hawkeye::Hawkeye;
use grasp_cachesim::policy::leeway::Leeway;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::policy::opt::optimal_misses;
use grasp_cachesim::policy::pin::PinX;
use grasp_cachesim::policy::random::RandomReplacement;
use grasp_cachesim::policy::rrip::{Brrip, Drrip, Srrip};
use grasp_cachesim::policy::ship::ShipMem;
use grasp_cachesim::policy::PolicyDispatch;
use grasp_cachesim::request::{AccessInfo, RegionLabel};
use grasp_cachesim::trace::LlcTrace;
use proptest::prelude::*;

const HINTS: [ReuseHint; 4] = [
    ReuseHint::High,
    ReuseHint::Moderate,
    ReuseHint::Low,
    ReuseHint::Default,
];

fn config() -> CacheConfig {
    CacheConfig::new(64 * 64, 8, 64) // 64 blocks, 8 ways, 8 sets
}

/// Every online policy, each with the label the figures give it.
fn all_policies(cfg: &CacheConfig) -> Vec<(&'static str, PolicyDispatch)> {
    let sets = cfg.sets();
    let ways = cfg.ways;
    vec![
        ("LRU", Lru::new(sets, ways).into()),
        ("Random", RandomReplacement::new(sets, ways, 7).into()),
        ("SRRIP", Srrip::new(sets, ways).into()),
        ("BRRIP", Brrip::new(sets, ways, 7).into()),
        ("RRIP", Drrip::new(sets, ways, 7).into()),
        ("SHiP-MEM", ShipMem::new(sets, ways).into()),
        ("Hawkeye", Hawkeye::new(sets, ways, cfg.block_bytes).into()),
        ("Leeway", Leeway::new(sets, ways).into()),
        ("PIN-50", PinX::new(sets, ways, 50).into()),
        ("GRASP", Grasp::new(sets, ways, 7).into()),
        (
            "RRIP+Hints",
            Grasp::with_mode(sets, ways, 7, GraspMode::HintsOnly).into(),
        ),
        (
            "GRASP (Insertion-Only)",
            Grasp::with_mode(sets, ways, 7, GraspMode::InsertionOnly).into(),
        ),
    ]
}

/// An arbitrary access: block index, site, hint selector, write flag.
fn arb_trace() -> impl Strategy<Value = Vec<AccessInfo>> {
    proptest::collection::vec((0u64..256, 0u16..4, 0u8..4, proptest::bool::ANY), 1..600).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(blk, site, hint, write)| {
                    let base = if write {
                        AccessInfo::write(blk * 64)
                    } else {
                        AccessInfo::read(blk * 64)
                    };
                    AccessInfo {
                        site,
                        hint: HINTS[hint as usize],
                        region: RegionLabel::Property,
                        ..base
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `reads_hints` is what replay classifies by: a policy that says it
    /// ignores hints makes the same decisions whatever hint each access
    /// carries. GRASP (all modes) and PIN-X are the readers.
    #[test]
    fn policies_that_ignore_hints_are_indifferent_to_them(trace in arb_trace()) {
        let cfg = config();
        let mut readers = Vec::new();
        for ((name, hinted), (_, plain)) in all_policies(&cfg).into_iter().zip(all_policies(&cfg)) {
            if hinted.reads_hints() {
                readers.push(name);
                continue;
            }
            let mut hinted = SetAssocCache::new(cfg, hinted);
            let mut plain = SetAssocCache::new(cfg, plain);
            for info in &trace {
                let outcome = hinted.access(info);
                prop_assert_eq!(outcome, plain.access(&info.with_hint(ReuseHint::Default)), "{}", name);
            }
        }
        prop_assert_eq!(readers, ["PIN-50", "GRASP", "RRIP+Hints", "GRASP (Insertion-Only)"]);
    }

    /// Basic accounting invariants hold for every policy on any trace, and
    /// within one run the same block accessed back-to-back always hits.
    #[test]
    fn accounting_invariants(trace in arb_trace()) {
        let cfg = config();
        for (name, policy) in all_policies(&cfg) {
            let mut cache = SetAssocCache::new(cfg, policy);
            // The resident blocks, as the outcomes report them.
            let mut resident = std::collections::HashSet::new();
            for info in &trace {
                let block = info.addr / 64;
                let outcome = cache.access(info);
                // The cache hits exactly on the blocks it holds...
                prop_assert_eq!(outcome.hit, resident.contains(&block), "{}", name);
                if let Some(victim) = outcome.evicted {
                    prop_assert!(resident.remove(&victim), "{name}: evicted an absent block");
                }
                // ...and every miss allocates, so a block just accessed is
                // resident.
                resident.insert(block);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.accesses, trace.len() as u64, "{}", name);
            prop_assert_eq!(stats.hits + stats.misses, stats.accesses, "{}", name);
            prop_assert!(resident.len() <= cfg.blocks(), "{}", name);
            prop_assert!(stats.evictions <= stats.misses, "{}", name);
        }
    }

    /// OPT is a true lower bound for every online policy.
    #[test]
    fn opt_is_a_lower_bound(trace in arb_trace()) {
        let cfg = config();
        let mut recorded = LlcTrace::new();
        for info in &trace {
            recorded.push(info);
        }
        let opt = optimal_misses(&recorded, &cfg);
        for (name, policy) in all_policies(&cfg) {
            let mut cache = SetAssocCache::new(cfg, policy);
            for info in &trace {
                cache.access(info);
            }
            prop_assert!(
                opt.misses <= cache.stats().misses,
                "OPT ({}) must not exceed {} ({})",
                opt.misses,
                name,
                cache.stats().misses
            );
        }
    }

    /// Compulsory misses: no policy can miss fewer times than the number of
    /// distinct blocks in the trace.
    #[test]
    fn compulsory_misses_are_unavoidable(trace in arb_trace()) {
        let cfg = config();
        let distinct: std::collections::HashSet<u64> =
            trace.iter().map(|i| i.addr / 64).collect();
        for (name, policy) in all_policies(&cfg) {
            let mut cache = SetAssocCache::new(cfg, policy);
            for info in &trace {
                cache.access(info);
            }
            prop_assert!(cache.stats().misses >= distinct.len() as u64, "{}", name);
        }
    }
}

#[test]
fn grasp_protects_the_hot_working_set_under_thrashing() {
    // The core qualitative claim: with a hot working set that fits in the
    // cache and a cold stream that would thrash it, GRASP keeps the hot
    // blocks resident while LRU does not.
    let cfg = CacheConfig::new(64 * 128, 16, 64); // 128 blocks
    let hot_blocks: Vec<u64> = (0..96).collect();
    let mut trace = Vec::new();
    let mut cold_cursor = 1_000u64;
    for _round in 0..30 {
        for &b in &hot_blocks {
            trace.push(AccessInfo {
                hint: ReuseHint::High,
                region: RegionLabel::Property,
                ..AccessInfo::read(b * 64)
            });
        }
        for _ in 0..512 {
            trace.push(AccessInfo {
                hint: ReuseHint::Low,
                region: RegionLabel::Property,
                ..AccessInfo::read(cold_cursor * 64)
            });
            cold_cursor += 1;
        }
    }
    let run = |policy: PolicyDispatch| {
        let mut cache = SetAssocCache::new(cfg, policy);
        for info in &trace {
            cache.access(info);
        }
        cache.stats().clone()
    };
    let lru = run(Lru::new(cfg.sets(), cfg.ways).into());
    let rrip = run(Drrip::new(cfg.sets(), cfg.ways, 3).into());
    let grasp = run(Grasp::new(cfg.sets(), cfg.ways, 3).into());
    assert!(grasp.misses < lru.misses);
    assert!(grasp.misses <= rrip.misses);
    // GRASP should capture most of the hot reuse: hot accesses per round
    // after the first should overwhelmingly hit.
    let hot_accesses = 30 * hot_blocks.len() as u64;
    assert!(
        grasp.hits > hot_accesses * 7 / 10,
        "grasp hits {} of {} hot accesses",
        grasp.hits,
        hot_accesses
    );
}

#[test]
fn pinning_is_rigid_where_grasp_is_flexible() {
    // Phase 1: blocks A are hot (High hint). Phase 2: A stops being accessed
    // and a new working set B (Moderate/Low hints) becomes hot. PIN-100 keeps
    // A pinned and cannot adapt; GRASP lets A age out.
    let cfg = CacheConfig::new(64 * 64, 16, 64); // 64 blocks
    let mut trace = Vec::new();
    for _ in 0..20 {
        for b in 0..48u64 {
            trace.push(AccessInfo {
                hint: ReuseHint::High,
                region: RegionLabel::Property,
                ..AccessInfo::read(b * 64)
            });
        }
    }
    for _ in 0..40 {
        for b in 100..148u64 {
            trace.push(AccessInfo {
                hint: ReuseHint::Moderate,
                region: RegionLabel::Property,
                ..AccessInfo::read(b * 64)
            });
        }
    }
    let run = |policy: PolicyDispatch| {
        let mut cache = SetAssocCache::new(cfg, policy);
        for info in &trace {
            cache.access(info);
        }
        cache.stats().clone()
    };
    let pin100 = run(PinX::new(cfg.sets(), cfg.ways, 100).into());
    let grasp = run(Grasp::new(cfg.sets(), cfg.ways, 3).into());
    assert!(
        grasp.misses < pin100.misses,
        "grasp {} should adapt better than pin-100 {}",
        grasp.misses,
        pin100.misses
    );
}
