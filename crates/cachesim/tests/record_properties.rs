//! Property tests for the record path: `Hierarchy<LlcTrace>` against a
//! two-level `SetAssocCache` + `Lru` reference whose routing is spelled out
//! per request, over arbitrary read/write sequences. The recorded
//! traces must be identical (address and meta columns) and the upper-level
//! L1/L2 statistics carried in the record context must match exactly — the
//! whole trace store keys on recordings being deterministic, so any
//! divergence here would poison every store hit.

use grasp_cachesim::cache::{AccessOutcome, SetAssocCache};
use grasp_cachesim::config::{CacheConfig, HierarchyConfig};
use grasp_cachesim::hint::ReuseHint;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::prefetch::StridePrefetcher;
use grasp_cachesim::request::{AccessInfo, AccessKind, RegionLabel};
use grasp_cachesim::trace::{LlcTrace, RecordContext};
use grasp_cachesim::Hierarchy;
use proptest::prelude::*;

/// The ABR bounds both sides program: they travel in the record context,
/// and nothing about them reaches the recorded meta column.
const ABR_BOUNDS: [(u64, u64); 1] = [(0, 1 << 18)];

/// Arbitrary demand accesses issued to the upper levels: selector 4..7
/// writes, 0..4 reads. Addresses span 512 KB at 8-byte granularity so L1/L2
/// hits, misses and dirty evictions all occur, inside and outside the
/// programmed Property Array. Sites 0..4 each walk a stream of their own,
/// one block per access, so the stride prefetcher trains and its requests
/// reach the recorded stream too.
fn arb_events() -> impl Strategy<Value = Vec<AccessInfo>> {
    proptest::collection::vec((0u8..7, 0u64..(1 << 16), 0u16..32, 0u8..5), 1..800).prop_map(
        |entries| {
            let mut streams = [0u64; 4];
            entries
                .into_iter()
                .map(|(sel, slot, site, region)| AccessInfo {
                    addr: match streams.get_mut(usize::from(site)) {
                        Some(next) => {
                            *next += 1;
                            (u64::from(site) << 16) + *next * 64
                        }
                        None => slot * 8,
                    },
                    kind: if sel >= 4 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    site,
                    hint: ReuseHint::Default,
                    region: RegionLabel::ALL[region as usize],
                })
                .collect()
        },
    )
}

/// The path under test: every access through `Hierarchy::access` into a
/// recording sink, the context attached by `finish`.
fn record(events: &[AccessInfo], config: HierarchyConfig) -> LlcTrace {
    let mut recorder = Hierarchy::new(config, LlcTrace::new());
    recorder.program_abrs(&ABR_BOUNDS);
    for info in events {
        recorder.access(info.addr, info.kind, info.site, info.region);
    }
    recorder.finish()
}

/// The oracle: L1 and L2 as `SetAssocCache` + `Lru`, the routing written out
/// per request — L1, then L2, the request escaping (hint-free) on an L2
/// miss, the dirty L1 victim probed into L2 before the dirty L2 victim
/// escapes — and at most one prefetch request behind every demand access.
fn record_reference(events: &[AccessInfo], config: HierarchyConfig) -> LlcTrace {
    let level = |c: CacheConfig| SetAssocCache::new(c, Lru::new(c.sets(), c.ways));
    let mut l1 = level(config.l1);
    let mut l2 = level(config.l2);
    let mut prefetcher = StridePrefetcher::default();
    let dirty_victim = |out: &AccessOutcome, c: &CacheConfig| {
        out.evicted
            .filter(|_| out.evicted_dirty)
            .map(|block| block * c.block_bytes)
    };
    let mut trace = LlcTrace::new();
    for &info in events {
        let prefetch = prefetcher
            .observe(info.site, info.addr)
            .map(|addr| AccessInfo {
                addr,
                kind: AccessKind::Read,
                ..info
            });
        for (request, is_prefetch) in [(Some(info), false), (prefetch, true)] {
            let Some(request) = request else { continue };
            let out1 = if is_prefetch {
                l1.prefetch(&request)
            } else {
                l1.access(&request)
            };
            if out1.hit {
                continue;
            }
            let out2 = if is_prefetch {
                l2.prefetch(&request)
            } else {
                l2.access(&request)
            };
            match (out2.hit, is_prefetch) {
                (true, _) => {}
                (false, false) => trace.push(&request),
                (false, true) => trace.push_prefetch(&request),
            }
            if let Some(addr) = dirty_victim(&out1, &config.l1) {
                if !l2.writeback(addr) {
                    trace.push_writeback(addr);
                }
            }
            if let Some(addr) = dirty_victim(&out2, &config.l2) {
                trace.push_writeback(addr);
            }
        }
    }
    trace.set_context(RecordContext {
        l1: l1.stats().clone(),
        l2: l2.stats().clone(),
        abr_bounds: ABR_BOUNDS.to_vec(),
    });
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn upper_levels_record_what_the_two_level_lru_reference_records(events in arb_events()) {
        let config = HierarchyConfig::scaled_default();
        let recorded = record(&events, config);
        let reference = record_reference(&events, config);
        prop_assert_eq!(&recorded, &reference);
        prop_assert_eq!(recorded.context(), reference.context());
    }
}
