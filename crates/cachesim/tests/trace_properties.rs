//! Property tests for the canonical post-L2 trace: the chunked SoA storage
//! must round-trip arbitrary event sequences exactly (`push`/`get`/`iter`/
//! `to_vec` always agree), replay must be deterministic, and the chunk
//! replayer's column kernel must reproduce the per-event path bit-for-bit
//! for arbitrary event sequences — prefetches and writebacks included —
//! within a chunk and across a chunk boundary, with the reuse hints the replayed
//! LLC derives from the recorded ABR bounds, on power-of-two and odd
//! associativities.

use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::policy::grasp::Grasp;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::policy::rrip::Drrip;
use grasp_cachesim::policy::PolicyDispatch;
use grasp_cachesim::request::{AccessInfo, RegionLabel};
use grasp_cachesim::stats::HierarchyStats;
use grasp_cachesim::trace::{ChunkReplayer, LlcTrace, RecordContext, TraceEvent, CHUNK_RECORDS};
use proptest::prelude::*;

/// The Property Array every built trace records as programmed: the first
/// 16 KiB of the blocks the events touch, so at the 8 KiB LLC most
/// properties replay at, GRASP sees High, Moderate and Low hints.
const ABR_BOUNDS: [(u64, u64); 1] = [(0, 16 * 1024)];

/// An arbitrary event: selector (demand read / demand write / prefetch /
/// writeback), block index, site, region selector.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    arb_events_over(4096)
}

/// Events over the first `blocks` cache blocks. Few blocks make a stream
/// with reuse in a full cache, where *which* block a policy evicted shows in
/// the hit counts and not only in how many were evicted.
fn arb_events_over(blocks: u64) -> impl Strategy<Value = Vec<TraceEvent>> {
    let event = (0u8..4, 0..blocks, 0u16..32, 0u8..5);
    proptest::collection::vec(event, 1..800).prop_map(move |entries| {
        entries
            .into_iter()
            .map(|(kind, blk, site, region)| {
                let addr = blk * 64;
                let info = AccessInfo::read(addr)
                    .with_site(site)
                    .with_region(RegionLabel::ALL[region as usize]);
                match kind {
                    0 => TraceEvent::Demand(info),
                    1 => TraceEvent::Demand(AccessInfo {
                        kind: grasp_cachesim::AccessKind::Write,
                        ..info
                    }),
                    2 => TraceEvent::Prefetch(info),
                    _ => TraceEvent::Writeback(addr),
                }
            })
            .collect()
    })
}

fn build(events: &[TraceEvent]) -> LlcTrace {
    let mut trace = LlcTrace::new();
    for event in events {
        match event {
            TraceEvent::Demand(info) => trace.push(info),
            TraceEvent::Prefetch(info) => trace.push_prefetch(info),
            TraceEvent::Writeback(addr) => trace.push_writeback(*addr),
        }
    }
    with_bounds(trace, &ABR_BOUNDS)
}

/// `trace` as recorded by an application that programmed `bounds`.
fn with_bounds(mut trace: LlcTrace, bounds: &[(u64, u64)]) -> LlcTrace {
    trace.set_context(RecordContext {
        abr_bounds: bounds.to_vec(),
        ..RecordContext::default()
    });
    trace
}

proptest! {
    #[test]
    fn push_get_iter_and_to_vec_agree(events in arb_events()) {
        let trace = build(&events);
        prop_assert_eq!(trace.len(), events.len());
        let demand_count = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Demand(_)))
            .count();
        prop_assert_eq!(trace.demand_len(), demand_count);
        // get() agrees with the source events...
        for (i, expected) in events.iter().enumerate() {
            prop_assert_eq!(&trace.get(i), expected, "index {}", i);
        }
        // ...and with iter() / to_vec().
        let iterated: Vec<TraceEvent> = trace.iter().collect();
        prop_assert_eq!(&iterated, &events);
        prop_assert_eq!(&trace.to_vec(), &events);
        // The demand view is the demand subsequence, in order.
        let demands: Vec<AccessInfo> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Demand(info) => Some(*info),
                _ => None,
            })
            .collect();
        prop_assert_eq!(trace.demand_vec(), demands);
    }

    #[test]
    fn replay_is_deterministic_across_repeated_runs(events in arb_events()) {
        let trace = build(&events);
        let config = CacheConfig::new(64 * 128, 8, 64);
        let lru_a = trace.replay(config, Lru::new(config.sets(), config.ways));
        let lru_b = trace.replay(config, Lru::new(config.sets(), config.ways));
        prop_assert_eq!(&lru_a, &lru_b);
        let grasp_a = trace.replay(config, Grasp::new(config.sets(), config.ways, 7));
        let grasp_b = trace.replay(config, Grasp::new(config.sets(), config.ways, 7));
        prop_assert_eq!(&grasp_a, &grasp_b);
        // Internal consistency of the replayed hierarchy view.
        prop_assert_eq!(lru_a.llc.accesses as usize, trace.demand_len());
        prop_assert_eq!(lru_a.memory_accesses, lru_a.llc.misses);
    }

    #[test]
    fn batched_feed_is_bit_identical_to_per_event_feed(events in arb_events()) {
        // The batched chunk-native kernel against the per-event reference
        // path, over arbitrary event mixes: demand reads and writes, dirty
        // writebacks and prefetches, across several policies (hint-reading
        // GRASP included). These traces fit one chunk; the
        // boundary case is `feed_matches_feed_scalar_across_a_real_chunk_boundary`.
        let trace = build(&events);
        let config = CacheConfig::new(64 * 128, 8, 64);
        let lru = || Lru::new(config.sets(), config.ways);
        let grasp = || Grasp::new(config.sets(), config.ways, 7);
        let (batched, scalar) = feed_both_ways(&trace, config, lru);
        prop_assert_eq!(&batched, &scalar, "LRU");
        let (batched, scalar) = feed_both_ways(&trace, config, grasp);
        prop_assert_eq!(&batched, &scalar, "GRASP");
    }

    #[test]
    fn feed_matches_feed_scalar_on_one_eleven_way_set(events in arb_events_over(64)) {
        // An associativity that fills neither a partial-tag word nor a rank
        // word, and a single set: every record contends for the same 11
        // ways, and 64 blocks keep them full.
        let trace = build(&events);
        let config = CacheConfig::new(64 * 11, 11, 64);
        let lru = || Lru::new(config.sets(), config.ways);
        let rrip = || Drrip::new(config.sets(), config.ways, 1);
        let grasp = || Grasp::new(config.sets(), config.ways, 7);
        let (batched, scalar) = feed_both_ways(&trace, config, lru);
        prop_assert_eq!(&batched, &scalar, "LRU");
        let (batched, scalar) = feed_both_ways(&trace, config, rrip);
        prop_assert_eq!(&batched, &scalar, "RRIP");
        let (batched, scalar) = feed_both_ways(&trace, config, grasp);
        prop_assert_eq!(&batched, &scalar, "GRASP");
    }

    #[test]
    fn reclassifying_feed_is_bit_identical_to_per_event_feed(events in arb_events_over(384)) {
        // An LLC-size sweep replays one recording at every size, each
        // classifying the recorded bounds at its own: here at twice the
        // 8 KiB the other properties replay at, over a property array
        // covering 20 of the 24 KiB the events touch — so High, Moderate and
        // Low all occur, at extents no other size shares. The footprint is
        // 1.5x the cache, so a kernel that ignored the classifier would
        // evict other blocks *and* lose hits.
        let trace = with_bounds(build(&events), &[(0, 20 * 1024)]);
        let config = CacheConfig::new(2 * 64 * 128, 8, 64);
        let grasp = || Grasp::new(config.sets(), config.ways, 7);
        let (batched, scalar) = feed_both_ways(&trace, config, grasp);
        prop_assert_eq!(&batched, &scalar);
        // The public entry point is that same replayer.
        prop_assert_eq!(&batched, &trace.replay(config, grasp()));
    }

    #[test]
    fn batched_and_scalar_buffered_replays_agree(events in arb_events()) {
        let trace = build(&events);
        let config = CacheConfig::new(64 * 128, 8, 64);
        let batched = trace.replay(config, Drrip::new(config.sets(), config.ways, 1));
        let scalar = trace.replay_scalar(config, Drrip::new(config.sets(), config.ways, 1));
        prop_assert_eq!(&batched, &scalar);
    }

}

/// Replays `trace` chunk by chunk through the column kernel
/// ([`ChunkReplayer::feed`]) and through the per-event reference
/// ([`ChunkReplayer::feed_scalar`]), each on a fresh replayer programmed
/// from the trace's context.
fn feed_both_ways<P: Into<PolicyDispatch>>(
    trace: &LlcTrace,
    config: CacheConfig,
    policy: impl Fn() -> P,
) -> (HierarchyStats, HierarchyStats) {
    let replayer = || ChunkReplayer::new(config, policy(), trace.context());
    let (mut batched, mut scalar) = (replayer(), replayer());
    for chunk in trace.chunks() {
        batched.feed(chunk);
        scalar.feed_scalar(chunk);
    }
    (batched.finish(), scalar.finish())
}

/// A degenerate stretch: after a short warm-up the chunk is 100%
/// writebacks, so almost every record the kernel walks is a non-allocating
/// probe that never reaches the policy.
#[test]
fn all_writeback_chunks_replay_identically() {
    let mut events = Vec::new();
    // Warm some dirty blocks so the writebacks below have residents to hit.
    for blk in 0..64u64 {
        events.push(TraceEvent::Demand(AccessInfo::write(blk * 64)));
    }
    // A long stretch of pure writebacks, half of them to resident blocks.
    for blk in 0..512u64 {
        events.push(TraceEvent::Writeback((blk % 128) * 64));
    }
    let trace = build(&events);
    let config = CacheConfig::new(64 * 128, 8, 64);
    let (batched, scalar) = feed_both_ways(&trace, config, || Lru::new(config.sets(), config.ways));
    assert_eq!(batched, scalar);
    assert!(
        batched.llc.writeback_accesses >= 512,
        "writebacks all replayed"
    );
}

/// A trace that really spans two storage chunks: `CHUNK_RECORDS + 64` events
/// with a dense demand/prefetch run straddling record `CHUNK_RECORDS`, so
/// the batched kernel has to cut that run at the chunk edge and pick it up
/// again in a second chunk.
#[test]
fn feed_matches_feed_scalar_across_a_real_chunk_boundary() {
    let straddle = CHUNK_RECORDS - 40..CHUNK_RECORDS + 40;
    let events: Vec<TraceEvent> = (0..CHUNK_RECORDS + 64)
        .map(|i| {
            let addr = (i as u64).wrapping_mul(2_654_435_761) % 4096 * 64;
            let info = AccessInfo::read(addr)
                .with_site((i % 32) as u16)
                .with_region(RegionLabel::ALL[i % 5]);
            let kind = if straddle.contains(&i) {
                i % 2 * 5
            } else {
                i % 8
            };
            match kind {
                0..=3 => TraceEvent::Demand(info),
                4 => TraceEvent::Demand(AccessInfo {
                    kind: grasp_cachesim::AccessKind::Write,
                    ..info
                }),
                5 | 6 => TraceEvent::Prefetch(info),
                _ => TraceEvent::Writeback(addr),
            }
        })
        .collect();
    let trace = build(&events);
    assert_eq!(
        trace.chunks().count(),
        2,
        "the trace must cross a chunk edge"
    );
    let config = CacheConfig::new(64 * 128, 8, 64);
    let (batched, scalar) = feed_both_ways(&trace, config, || Lru::new(config.sets(), config.ways));
    assert_eq!(batched, scalar, "LRU");
    assert_eq!(batched.llc.accesses as usize, trace.demand_len());
    let grasp = || Grasp::new(config.sets(), config.ways, 7);
    let (unprogrammed, scalar) = feed_both_ways(&with_bounds(trace.clone(), &[]), config, grasp);
    assert_eq!(unprogrammed, scalar, "GRASP, unprogrammed");
    // Classified for a property array over the first half of the blocks:
    // still feed == feed_scalar, and not the statistics of the Default
    // hints — a replay that dropped the classifier on both paths would pass
    // the first assertion, not the second.
    let half = with_bounds(trace, &[(0, 2048 * 64)]);
    let (classified, scalar) = feed_both_ways(&half, config, grasp);
    assert_eq!(classified, scalar, "GRASP, classified");
    assert_ne!(
        classified.llc, unprogrammed.llc,
        "the classifier must matter"
    );
}
