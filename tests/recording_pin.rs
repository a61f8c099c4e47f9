//! Pins what recording produces for each application under its traced
//! configuration: the application's output and the post-L2 stream, on one
//! fixed, seeded, DBG-reordered R-MAT graph at `Scale::Tiny`'s hierarchy,
//! under both property layouts. The merged rows were captured before the
//! application settings became constants; the separate rows, and PRD on a
//! binary in-tree (the one graph here whose frontier shrinks enough for PRD
//! to push sparsely), before the traversal engine modelled the structural
//! reads in one place. A moved value means a recorded stream moved with it.

use grasp_suite::analytics::apps::{AppConfig, AppKind};
use grasp_suite::analytics::PropertyLayout;
use grasp_suite::cachesim::TraceEvent;
use grasp_suite::core::datasets::Scale;
use grasp_suite::core::experiment::Experiment;
use grasp_suite::graph::generators::{GraphGenerator, Rmat};
use grasp_suite::graph::{Csr, EdgeList};
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

/// Records `experiment` at `Scale::Tiny`'s hierarchy and pins it.
fn pin(experiment: Experiment) -> Pin {
    let app = experiment.app();
    let recorded = experiment.with_hierarchy(Scale::Tiny.hierarchy()).record();
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
}

/// Every application's traced recording on the pin's DBG-reordered R-MAT
/// graph under `layout`.
fn rmat_pins(layout: PropertyLayout) -> Vec<Pin> {
    let graph = Rmat::new(12, 8).generate(7);
    AppKind::ALL
        .into_iter()
        .map(|app| {
            pin(Experiment::new(graph.clone(), app)
                .with_app_config(Experiment::traced_app_config(app).with_layout(layout))
                .with_reordering(TechniqueKind::Dbg))
        })
        .collect()
}

#[test]
fn traced_recordings_are_pinned() {
    let observed = rmat_pins(PropertyLayout::Merged);
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

#[test]
fn separate_layout_recordings_are_pinned() {
    let expected: [Pin; 5] = [
        (
            AppKind::Bc,
            5,
            59249,
            7056978622871204127,
            22285,
            14903,
            8047652189693942516,
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
            22819,
            11355,
            7787172691171918627,
        ),
        (
            AppKind::PageRankDelta,
            6,
            172290,
            5931295601211182406,
            117673,
            89946,
            16474245303769957929,
        ),
        (
            AppKind::Radii,
            4,
            114860,
            566802667687423600,
            54359,
            40534,
            14150147899460749424,
        ),
    ];
    assert_eq!(rmat_pins(PropertyLayout::Separate), expected);
}

/// PRD's sparse push arm: on a binary in-tree of 2^13 - 1 vertices (edge
/// `c -> (c - 1) / 2`) its frontier halves every round, so 6 dense rounds
/// (8 191 ... 255 active vertices) are followed by 4 sparse ones (127 ...
/// 15). On the R-MAT graph above its frontier never drops below the
/// `edges / 20` switch.
#[test]
fn pagerank_delta_push_rounds_are_pinned() {
    let n = (1u32 << 13) - 1;
    let mut edges = EdgeList::new(u64::from(n));
    for c in 1..n {
        edges.push(c, (c - 1) / 2).unwrap();
    }
    let tree = Csr::from_edge_list(&edges).unwrap();
    let config = AppConfig {
        max_iterations: 10,
        ..AppConfig::default()
    };
    let observed: Vec<Pin> = [PropertyLayout::Merged, PropertyLayout::Separate]
        .into_iter()
        .map(|layout| {
            pin(Experiment::new(tree.clone(), AppKind::PageRankDelta)
                .with_app_config(config.with_layout(layout)))
        })
        .collect();
    let expected: [Pin; 2] = [
        (
            AppKind::PageRankDelta,
            10,
            49372,
            16902679392344438048,
            34449,
            3058,
            713451135841935215,
        ),
        (
            AppKind::PageRankDelta,
            10,
            49372,
            16902679392344438048,
            25232,
            2058,
            11158107442954373573,
        ),
    ];
    assert_eq!(observed, expected);
}
