//! Property-based and typed-error tests for on-disk binary CSR ingestion.
//!
//! The central property: for any edge list — including self-loops, duplicate
//! edges and isolated vertices — ingesting to the on-disk format and reading
//! it back through the verified mmap view yields a graph indistinguishable
//! from `Csr::from_edge_list` on the original list.

use grasp_graph::ingest::{self, DiskCsrError, MappedCsr};
use grasp_graph::types::Direction;
use grasp_graph::{Csr, EdgeList, GraphView};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory unique to this process + test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "grasp-ingest-prop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Arbitrary small edge lists biased toward the tricky shapes: self-loops,
/// duplicate edges, and vertex counts larger than any endpoint (isolated
/// vertices at the top of the ID range).
fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (1u64..=48, 0u64..=8).prop_flat_map(|(n, spare)| {
        let edge = (0..n as u32, 0..n as u32, 1u32..=4);
        proptest::collection::vec(edge, 1..128).prop_map(move |pairs| {
            // `spare` extra vertices beyond the largest endpoint stay
            // isolated (degree 0 in both directions).
            let mut el = EdgeList::new(n + spare);
            for (s, d, w) in pairs {
                el.push_weighted(s, d, w).unwrap();
                if s == d {
                    // Duplicate some self-loops to stress duplicate handling.
                    el.push_weighted(s, d, w).unwrap();
                }
            }
            el
        })
    })
}

fn assert_views_equal(expected: &Csr, actual: &dyn GraphView) {
    assert_eq!(actual.vertex_count(), expected.vertex_count());
    assert_eq!(actual.edge_count(), expected.edge_count());
    for v in expected.vertices() {
        assert_eq!(actual.out_neighbors(v), expected.out_neighbors(v), "v={v}");
        assert_eq!(actual.in_neighbors(v), expected.in_neighbors(v), "v={v}");
        assert_eq!(actual.out_weights(v), expected.out_weights(v), "v={v}");
        assert_eq!(actual.in_weights(v), expected.in_weights(v), "v={v}");
        for dir in [Direction::Out, Direction::In] {
            assert_eq!(actual.degree(v, dir), expected.degree(v, dir), "v={v}");
            assert_eq!(actual.edge_offset(v, dir), expected.edge_offset(v, dir));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// edge list → binary CSR on disk → mmap view == in-memory CSR, for any
    /// input shape and any ingest thread count. Each list also runs with
    /// every weight set to 1, so the view serves its shared uniform-weight
    /// slice (random weights almost never make a list uniform).
    #[test]
    fn disk_round_trip_matches_in_memory(input in (arb_edge_list(), 1usize..=4)) {
        let (el, threads) = input;
        let mut unit = EdgeList::new(el.vertex_count());
        for e in el.iter() {
            unit.push(e.src, e.dst).unwrap();
        }
        for (el, uniform) in [(el, false), (unit, true)] {
            let expected = Csr::from_edge_list(&el).unwrap();
            let dir = scratch_dir("roundtrip");
            let report = ingest::ingest_edge_list(&el, &dir, threads).unwrap();
            prop_assert_eq!(report.vertex_count, expected.vertex_count() as u64);
            prop_assert_eq!(report.edge_count, expected.edge_count());
            if uniform {
                prop_assert_eq!(report.uniform_weight, Some(1));
            }

            // The verified mmap-backed view serves identical adjacency data.
            let mapped = MappedCsr::open(&dir).unwrap();
            mapped.verify().unwrap();
            assert_views_equal(&expected, &mapped);

            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The content hash identifies the graph: independent of ingest thread
    /// count, changed by any structural difference.
    #[test]
    fn content_hash_is_structural(el in arb_edge_list()) {
        let a = scratch_dir("hash-a");
        let b = scratch_dir("hash-b");
        let one = ingest::ingest_edge_list(&el, &a, 1).unwrap();
        let four = ingest::ingest_edge_list(&el, &b, 4).unwrap();
        prop_assert_eq!(one.content_hash, four.content_hash);

        // Appending one edge must change the hash.
        let mut more = el.clone();
        more.push(0, 0).unwrap();
        let c = scratch_dir("hash-c");
        let grown = ingest::ingest_edge_list(&more, &c, 2).unwrap();
        prop_assert!(one.content_hash != grown.content_hash);

        for dir in [a, b, c] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

fn sample_graph_dir(tag: &str) -> PathBuf {
    let mut el = EdgeList::new(6);
    for (s, d, w) in [(0, 1, 2), (1, 2, 3), (2, 0, 5), (3, 3, 1), (0, 1, 2)] {
        el.push_weighted(s, d, w).unwrap();
    }
    let dir = scratch_dir(tag);
    ingest::ingest_edge_list(&el, &dir, 2).unwrap();
    dir
}

#[test]
fn truncated_column_is_a_typed_error() {
    let dir = sample_graph_dir("truncate");
    let col = dir.join("out.targets");
    let len = std::fs::metadata(&col).unwrap().len();
    let bytes = std::fs::read(&col).unwrap();
    std::fs::write(&col, &bytes[..bytes.len() - 4]).unwrap();
    match MappedCsr::open(&dir) {
        Err(DiskCsrError::Truncated {
            file,
            expected,
            found,
        }) => {
            assert_eq!(file, "out.targets");
            assert_eq!(expected, len);
            assert_eq!(found, len - 4);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_header_is_a_typed_error() {
    let dir = sample_graph_dir("flip-header");
    let header = dir.join("graph.gcsr");
    let mut bytes = std::fs::read(&header).unwrap();
    bytes[20] ^= 0x01; // inside vertex_count — covered by the header checksum
    std::fs::write(&header, bytes).unwrap();
    match ingest::read_header(&dir) {
        Err(DiskCsrError::HeaderChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected HeaderChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_column_fails_verification_with_a_typed_error() {
    let dir = sample_graph_dir("flip-column");
    let col = dir.join("in.offsets");
    let mut bytes = std::fs::read(&col).unwrap();
    bytes[8] ^= 0x80;
    std::fs::write(&col, bytes).unwrap();
    // Sizes still match, so the mmap opens — but verification catches it.
    let mapped = MappedCsr::open(&dir).unwrap();
    match mapped.verify() {
        Err(DiskCsrError::ColumnChecksumMismatch {
            column,
            stored,
            computed,
        }) => {
            assert_eq!(column, "in.offsets");
            assert_ne!(stored, computed);
        }
        other => panic!("expected ColumnChecksumMismatch, got {other:?}"),
    }
    // Opening and verifying in one chain refuses it outright.
    assert!(MappedCsr::open(&dir).and_then(|m| m.verify()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_column_is_a_typed_error() {
    let dir = sample_graph_dir("missing");
    std::fs::remove_file(dir.join("in.targets")).unwrap();
    match MappedCsr::open(&dir) {
        Err(DiskCsrError::Truncated { file, found, .. }) => {
            assert_eq!(file, "in.targets");
            assert_eq!(found, 0);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
