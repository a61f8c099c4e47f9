//! Property tests for the on-disk trace format: persist → load → replay
//! must equal the in-memory trace for arbitrary event sequences (prefetches
//! and dirty writebacks included), and a damaged file — truncated anywhere, or
//! with any bit flipped, in the header, the context block or the compressed
//! frames — must surface a typed [`PersistError`], never a silently wrong
//! replay.

use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::policy::grasp::Grasp;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::request::{AccessInfo, RegionLabel};
use grasp_cachesim::trace::persist::PersistError;
use grasp_cachesim::trace::{LlcTrace, RecordContext, TraceEvent};
use proptest::prelude::*;

/// Arbitrary post-L2 event sequences: demand reads/writes, prefetches and
/// dirty writebacks, with varying sites and regions (the same shape
/// `trace_properties.rs` uses).
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u8..4, 0u64..4096, 0u16..32, 0u8..5), 1..600).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(kind, blk, site, region)| {
                let addr = blk * 64;
                let info = AccessInfo {
                    site,
                    region: RegionLabel::ALL[region as usize],
                    ..AccessInfo::read(addr)
                };
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

/// Builds a trace carrying a non-trivial recorded context, so the context
/// block round-trip is exercised alongside the records.
fn build(events: &[TraceEvent], abr_bounds: usize) -> LlcTrace {
    let mut trace = LlcTrace::new();
    for event in events {
        match event {
            TraceEvent::Demand(info) => trace.push(info),
            TraceEvent::Prefetch(info) => trace.push_prefetch(info),
            TraceEvent::Writeback(addr) => trace.push_writeback(*addr),
        }
    }
    let mut context = RecordContext::default();
    context.l1.record(RegionLabel::Property, false);
    context.l1.record(RegionLabel::EdgeArray, true);
    context.l2.record(RegionLabel::Property, false);
    context.abr_bounds = (0..abr_bounds)
        .map(|i| ((i as u64) << 12, ((i as u64) + 1) << 12))
        .collect();
    trace.set_context(context);
    trace
}

fn persist(trace: &LlcTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace
        .write_to(&mut bytes)
        .expect("in-memory write succeeds");
    bytes
}

proptest! {
    #[test]
    fn persist_load_replay_equals_the_in_memory_trace(
        // The vendored proptest! macro supports one binding: tuple up.
        case in (arb_events(), 0usize..4)
    ) {
        let (events, abr_bounds) = case;
        let trace = build(&events, abr_bounds);
        let bytes = persist(&trace);
        let loaded = LlcTrace::read_from(&mut bytes.as_slice()).expect("clean file loads");

        // Structural equality: records, counts, context.
        prop_assert_eq!(&loaded, &trace);
        prop_assert_eq!(loaded.len(), events.len());
        prop_assert_eq!(loaded.context(), trace.context());

        // Behavioural equality: the loaded trace replays bit-identically —
        // prefetches and writebacks touch their own counters, so every
        // replay path is exercised by the event mix.
        let config = CacheConfig::new(64 * 128, 8, 64);
        let original_lru = trace.replay(config, Lru::new(config.sets(), config.ways));
        let loaded_lru = loaded.replay(config, Lru::new(config.sets(), config.ways));
        prop_assert_eq!(&original_lru, &loaded_lru);
        let original_grasp = trace.replay(config, Grasp::new(config.sets(), config.ways, 7));
        let loaded_grasp = loaded.replay(config, Grasp::new(config.sets(), config.ways, 7));
        prop_assert_eq!(&original_grasp, &loaded_grasp);
    }

    #[test]
    fn truncation_at_any_length_is_a_typed_error(
        case in (arb_events(), 0usize..10_000)
    ) {
        let (events, cut_selector) = case;
        let trace = build(&events, 2);
        let bytes = persist(&trace);
        // Any strict prefix must fail to load — there is no length at which
        // a truncated file silently parses.
        let cut = cut_selector % bytes.len();
        match LlcTrace::read_from(&mut &bytes[..cut]) {
            Err(PersistError::Truncated { .. }) => {}
            Err(other) => prop_assert!(
                false,
                "cut at {} must be Truncated, got {:?}",
                cut,
                other
            ),
            Ok(_) => prop_assert!(false, "a {}-byte prefix must never load", cut),
        }
    }

    #[test]
    fn any_single_bit_flip_is_a_typed_error_never_a_wrong_replay(
        case in (arb_events(), 0usize..100_000, 0u8..8)
    ) {
        let (events, byte_selector, bit) = case;
        let trace = build(&events, 1);
        let mut bytes = persist(&trace);
        let index = byte_selector % bytes.len();
        bytes[index] ^= 1 << bit;
        // Every bit of the file is covered: magic/version/codec/geometry
        // flips hit their structural checks, flips inside a compressed frame
        // may derail a varint or the dictionary (also structural), and
        // everything else — counts, context, payload, the checksum field
        // itself — lands in ChecksumMismatch. Nothing may load successfully.
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(_) => {}
            Ok(loaded) => prop_assert!(
                false,
                "bit {} of byte {} flipped, yet the file loaded ({} events)",
                bit,
                index,
                loaded.len()
            ),
        }
    }

    #[test]
    fn persisted_bytes_are_deterministic(events in arb_events()) {
        // Byte-for-byte determinism is what lets CI cache the store across
        // pushes and lets `publish` skip nothing: same trace, same file.
        let trace = build(&events, 3);
        prop_assert_eq!(persist(&trace), persist(&trace));
    }

    #[test]
    fn delta_varint_never_inflates_pathologically(events in arb_events()) {
        // Even adversarial event mixes (random addresses, alternating kinds)
        // must stay within the frame-length plausibility bound the reader
        // enforces — otherwise valid files would be rejected as corrupt.
        let trace = build(&events, 1);
        let dv = persist(&trace);
        // Worst-case expansion is bounded: 10-byte address varints + the
        // dictionary + 2-byte indices vs the 12 bytes per record the columns
        // occupy in memory, plus the 4-byte frame prefix per chunk.
        let context_len = u32::from_le_bytes(dv[32..36].try_into().unwrap()) as usize;
        let raw = 48 + context_len + trace.len() * 12;
        prop_assert!(dv.len() <= raw * 2 + 64,
            "delta-varint exploded: {} vs raw {}", dv.len(), raw);
    }
}
