//! Property tests for the on-disk trace format, covering **both encodings
//! the reader accepts** — the v2 files the writer emits and the read-only v1
//! files older stores hold (built by `support/v1_fixture.rs`): persist →
//! load → replay must equal the in-memory trace for arbitrary event
//! sequences (flushes and dirty writebacks included), and a damaged file —
//! truncated anywhere, or with any bit flipped, in the raw pages or the
//! compressed frames — must surface a typed [`PersistError`], never a
//! silently wrong replay.

use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::hint::ReuseHint;
use grasp_cachesim::policy::grasp::Grasp;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::request::{AccessInfo, RegionLabel};
use grasp_cachesim::trace::persist::{Codec, Fnv64, PersistError};
use grasp_cachesim::trace::{LlcTrace, RecordContext, TraceEvent};
use proptest::prelude::*;

include!("support/v1_fixture.rs");

/// Arbitrary post-L2 event sequences: demand reads/writes, prefetches,
/// dirty writebacks and flush markers, with varying sites, hints and
/// regions (the same shape `trace_properties.rs` uses).
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u8..5, 0u64..4096, 0u16..32, 0u8..4, 0u8..5), 1..600).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(kind, blk, site, hint, region)| {
                    let addr = blk * 64;
                    let info = AccessInfo::read(addr)
                        .with_site(site)
                        .with_hint(ReuseHint::decode(hint))
                        .with_region(RegionLabel::ALL[region as usize]);
                    match kind {
                        0 => TraceEvent::Demand(info),
                        1 => TraceEvent::Demand(AccessInfo {
                            kind: grasp_cachesim::AccessKind::Write,
                            ..info
                        }),
                        2 => TraceEvent::Prefetch(info),
                        3 => TraceEvent::Writeback(addr),
                        _ => TraceEvent::Flush,
                    }
                })
                .collect()
        },
    )
}

fn codec_of(selector: u8) -> Codec {
    if selector.is_multiple_of(2) {
        Codec::Raw
    } else {
        Codec::DeltaVarint
    }
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
            TraceEvent::Flush => trace.push_flush(),
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

/// `trace` as a file in `codec`: written, or built by the v1 fixture.
fn persist(trace: &LlcTrace, codec: Codec) -> Vec<u8> {
    match codec {
        Codec::Raw => v1_trace_bytes(trace),
        Codec::DeltaVarint => {
            let mut bytes = Vec::new();
            trace
                .write_to(&mut bytes)
                .expect("in-memory write succeeds");
            bytes
        }
    }
}

proptest! {
    #[test]
    fn persist_load_replay_equals_the_in_memory_trace(
        // The vendored proptest! macro supports one binding: tuple up.
        case in (arb_events(), 0usize..4, 0u8..2)
    ) {
        let (events, abr_bounds, codec_selector) = case;
        let codec = codec_of(codec_selector);
        let trace = build(&events, abr_bounds);
        let bytes = persist(&trace, codec);
        let (loaded, read_codec) = LlcTrace::read_from_with_codec(&mut bytes.as_slice())
            .expect("clean file loads");

        // Structural equality: records, counts, context, chunk layout — and
        // the header reports the codec it was written with.
        prop_assert_eq!(read_codec, codec);
        prop_assert_eq!(&loaded, &trace);
        prop_assert_eq!(loaded.len(), events.len());
        prop_assert_eq!(loaded.context(), trace.context());

        // Behavioural equality: the loaded trace replays bit-identically —
        // flushes reset policy state and writebacks touch the writeback
        // counters, so both paths are exercised by the event mix.
        let config = CacheConfig::new(64 * 128, 8, 64);
        let original_lru = trace.replay(config, Lru::new(config.sets(), config.ways));
        let loaded_lru = loaded.replay(config, Lru::new(config.sets(), config.ways));
        prop_assert_eq!(&original_lru, &loaded_lru);
        let original_grasp = trace.replay(config, Grasp::new(config.sets(), config.ways, 7));
        let loaded_grasp = loaded.replay(config, Grasp::new(config.sets(), config.ways, 7));
        prop_assert_eq!(&original_grasp, &loaded_grasp);
    }

    #[test]
    fn codecs_agree_with_each_other(
        case in (arb_events(), 0usize..3)
    ) {
        // The codec is an encoding choice, never a semantic one: a raw file
        // and a compressed file of the same trace load to *equal* traces
        // (chunk layout included), which is what lets `recompress` migrate
        // a v1 store in place.
        let (events, abr_bounds) = case;
        let trace = build(&events, abr_bounds);
        let from_raw = LlcTrace::read_from(&mut persist(&trace, Codec::Raw).as_slice())
            .expect("raw loads");
        let from_dv = LlcTrace::read_from(&mut persist(&trace, Codec::DeltaVarint).as_slice())
            .expect("delta-varint loads");
        prop_assert_eq!(&from_raw, &from_dv);
        prop_assert_eq!(&from_raw, &trace);
    }

    #[test]
    fn truncation_at_any_length_is_a_typed_error(
        case in (arb_events(), 0usize..10_000, 0u8..2)
    ) {
        let (events, cut_selector, codec_selector) = case;
        let trace = build(&events, 2);
        let bytes = persist(&trace, codec_of(codec_selector));
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
        case in (arb_events(), 0usize..100_000, 0u8..8, 0u8..2)
    ) {
        let (events, byte_selector, bit, codec_selector) = case;
        let trace = build(&events, 1);
        let mut bytes = persist(&trace, codec_of(codec_selector));
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
    fn persisted_bytes_are_deterministic(
        case in (arb_events(), 0u8..2)
    ) {
        // Byte-for-byte determinism is what lets CI cache the store across
        // pushes and lets `publish` skip nothing: same trace, same file.
        let (events, codec_selector) = case;
        let codec = codec_of(codec_selector);
        let trace = build(&events, 3);
        prop_assert_eq!(persist(&trace, codec), persist(&trace, codec));
    }

    #[test]
    fn v1_files_still_load_byte_for_byte(events in arb_events()) {
        // The v1 format: version field 1, reserved word 0, 12 B/record SoA
        // pages. A build that ever stops reading it strands every pre-codec
        // store short of its `recompress`, so the shape is pinned as a
        // property over arbitrary traces, not just one golden file.
        let trace = build(&events, 2);
        let bytes = persist(&trace, Codec::Raw);
        prop_assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        prop_assert_eq!(u32::from_le_bytes(bytes[36..40].try_into().unwrap()), 0);
        let context_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        prop_assert_eq!(bytes.len(), 48 + context_len + trace.len() * 12);
        let (loaded, codec) = LlcTrace::read_from_with_codec(&mut bytes.as_slice())
            .expect("v1 file loads");
        prop_assert_eq!(codec, Codec::Raw);
        prop_assert_eq!(&loaded, &trace);
    }

    #[test]
    fn delta_varint_never_inflates_pathologically(events in arb_events()) {
        // Even adversarial event mixes (random addresses, alternating kinds)
        // must stay within the frame-length plausibility bound the reader
        // enforces — otherwise valid files would be rejected as corrupt.
        let trace = build(&events, 1);
        let raw = persist(&trace, Codec::Raw);
        let dv = persist(&trace, Codec::DeltaVarint);
        // Worst-case expansion is bounded: 10-byte address varints + the
        // dictionary + 2-byte indices vs 12 raw bytes per record, plus the
        // 4-byte frame prefix per chunk.
        prop_assert!(dv.len() <= raw.len() * 2 + 64,
            "delta-varint exploded: {} vs raw {}", dv.len(), raw.len());
    }
}
