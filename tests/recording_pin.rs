//! Pins what recording produces for each application under its traced
//! configuration: the application's output and the post-L2 stream, on one
//! fixed, seeded, DBG-reordered R-MAT graph at `Scale::Tiny`'s hierarchy.
//! The values were captured before the application settings became
//! constants; a moved value means a recorded stream moved with it.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::cachesim::TraceEvent;
use grasp_suite::core::datasets::Scale;
use grasp_suite::core::experiment::Experiment;
use grasp_suite::graph::generators::{GraphGenerator, Rmat};
use grasp_suite::reorder::TechniqueKind;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// One event as words: kind tag, address, then (for requests) write bit,
/// site and region.
fn event_words(event: TraceEvent) -> [u64; 5] {
    match event {
        TraceEvent::Demand(info) | TraceEvent::Prefetch(info) => [
            u64::from(matches!(event, TraceEvent::Prefetch(_))),
            info.addr,
            u64::from(info.is_write()),
            u64::from(info.site),
            info.region.index() as u64,
        ],
        TraceEvent::Writeback(addr) => [2, addr, 0, 0, 0],
    }
}

/// `(app, iterations, edges_processed, values digest, trace len,
/// demand len, events digest)`.
type Pin = (AppKind, usize, u64, u64, usize, usize, u64);

#[test]
fn traced_recordings_are_pinned() {
    let graph = Rmat::new(12, 8).generate(7);
    let observed: Vec<Pin> = AppKind::ALL
        .into_iter()
        .map(|app| {
            let experiment = Experiment::new(graph.clone(), app)
                .with_app_config(Experiment::traced_app_config(app))
                .with_hierarchy(Scale::Tiny.hierarchy())
                .with_reordering(TechniqueKind::Dbg);
            let recorded = experiment.record();
            let result = recorded.app();
            let trace = recorded.trace();
            (
                app,
                result.iterations,
                result.edges_processed,
                fnv1a(result.values.iter().map(|v| v.to_bits())),
                trace.len(),
                trace.demand_len(),
                fnv1a(trace.iter().flat_map(event_words)),
            )
        })
        .collect();
    let expected: [Pin; 5] = [
        (
            AppKind::Bc,
            5,
            59249,
            7056978622871204127,
            33505,
            24480,
            2352064072773980562,
        ),
        (
            AppKind::Sssp,
            5,
            28056,
            14291064744834335152,
            18544,
            11937,
            10786906246735137861,
        ),
        (
            AppKind::PageRank,
            3,
            86145,
            4428027864045423926,
            39668,
            24210,
            15771754471314315839,
        ),
        (
            AppKind::PageRankDelta,
            6,
            172290,
            5931295601211182406,
            177082,
            140820,
            14132566088091292203,
        ),
        (
            AppKind::Radii,
            4,
            114860,
            566802667687423600,
            72369,
            58011,
            9854358446092262915,
        ),
    ];
    assert_eq!(observed, expected);
}
