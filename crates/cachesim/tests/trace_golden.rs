//! Golden pin for trace format v4: the bytes `LlcTrace::write_to` produces.
//!
//! Captured on commit `4b85468`, while the trace was still stored as
//! `Arc`-frozen chunk pages: the written length, the 48 header bytes and an
//! FNV-1a digest (computed here, independent of the format's own hashes) of
//! the whole file, for a trace of two full frames plus a 17-record tail that
//! mixes demand, prefetch and writeback records under an ABR-bounded context.
//! The round-trip tests would still pass if the writer and the reader changed
//! their framing together; this one would not. The values must not move
//! without a `TRACE_FORMAT_VERSION` bump — every warm store holds these
//! bytes — and must never be regenerated from the code under test.

use grasp_cachesim::request::{AccessInfo, AccessKind, RegionLabel};
use grasp_cachesim::trace::{LlcTrace, RecordContext, CHUNK_RECORDS};

const RECORDS: usize = 2 * CHUNK_RECORDS + 17;
const WRITTEN_LEN: usize = 445_857;
const HEADER_HEX: &str = "475253505452430004000000000001001100020000000000038f010000000000\
                          5401000001000000837bc2f1629e002e";
const FILE_FNV1A: u64 = 0x9b1a_e3dd_fa83_255f;

/// FNV-1a, 64-bit, byte at a time.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `RECORDS` records from a fixed xorshift stream: clustered addresses with
/// occasional far jumps, every region, writes, a few dozen sites, one
/// prefetch in seven and one writeback in eleven.
fn golden_trace() -> LlcTrace {
    let mut trace = LlcTrace::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut addr = 1u64 << 30;
    for i in 0..RECORDS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        addr = if state.is_multiple_of(16) {
            state & 0x0000_ffff_ffff_ffc0
        } else {
            addr.wrapping_add((state >> 8) % 9 * 64).wrapping_sub(256)
        };
        let mut info = AccessInfo {
            site: ((state >> 20) % 40) as u16,
            region: RegionLabel::ALL[(state >> 32) as usize % RegionLabel::ALL.len()],
            ..AccessInfo::read(addr)
        };
        if (state >> 40).is_multiple_of(5) {
            info.kind = AccessKind::Write;
        }
        match i % 77 {
            k if k % 7 == 3 => trace.push_prefetch(&info),
            k if k % 11 == 5 => trace.push_writeback(addr),
            _ => trace.push(&info),
        }
    }
    let mut context = RecordContext::default();
    for (i, region) in RegionLabel::ALL.into_iter().enumerate() {
        for hit in 0..=i {
            context.l1.record(region, hit % 2 == 0);
        }
        context.l2.record(region, i % 2 == 1);
    }
    context.abr_bounds = vec![
        (1 << 30, (1 << 30) + (1 << 20)),
        (1 << 34, (1 << 34) + 4096),
    ];
    trace.set_context(context);
    trace
}

#[test]
fn v4_bytes_are_pinned() {
    let trace = golden_trace();
    assert_eq!(trace.len(), RECORDS);
    let mut bytes = Vec::new();
    let written = trace.write_to(&mut bytes).expect("write succeeds");
    assert_eq!(written as usize, bytes.len());
    let header: String = bytes[..48].iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(bytes.len(), WRITTEN_LEN, "written length moved");
    assert_eq!(header, HEADER_HEX, "header bytes moved");
    assert_eq!(fnv1a(&bytes), FILE_FNV1A, "file bytes moved");
    // And the pinned bytes load back as the trace that wrote them.
    let loaded = LlcTrace::read_from(&mut bytes.as_slice()).expect("loads");
    assert_eq!(loaded, trace);
}
