//! Property-based tests for the graph substrate.

use grasp_graph::generators::{ChungLu, GraphGenerator, Rmat, Uniform};
use grasp_graph::{Csr, EdgeList, GraphView};
use proptest::prelude::*;

/// Strategy producing an arbitrary small edge list over 2..=64 vertices.
fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (2u64..=64).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..=16);
        proptest::collection::vec(edge, 0..256).prop_map(move |pairs| {
            let mut el = EdgeList::new(n);
            for (s, d, w) in pairs {
                el.push_weighted(s, d, w).unwrap();
            }
            el
        })
    })
}

proptest! {
    /// Degree sums always equal edge count in both directions.
    #[test]
    fn degree_sums_match_edge_count(el in arb_edge_list()) {
        if el.vertex_count() == 0 { return Ok(()); }
        let g = Csr::from_edge_list(&el).unwrap();
        let out_sum: u64 = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: u64 = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
        prop_assert_eq!(g.edge_count(), el.edge_count() as u64);
    }

    /// Every edge of the input appears in both the out- and in-adjacency.
    #[test]
    fn edges_appear_in_both_directions(el in arb_edge_list()) {
        if el.vertex_count() == 0 { return Ok(()); }
        let g = Csr::from_edge_list(&el).unwrap();
        for e in el.iter() {
            prop_assert!(g.out_neighbors(e.src).contains(&e.dst));
            prop_assert!(g.in_neighbors(e.dst).contains(&e.src));
        }
    }

    /// Transposition — building from the reversed edge list — swaps in/out
    /// degrees and adjacency.
    #[test]
    fn transpose_involution(el in arb_edge_list()) {
        if el.vertex_count() == 0 { return Ok(()); }
        let g = Csr::from_edge_list(&el).unwrap();
        let mut reversed = EdgeList::new(el.vertex_count());
        for e in el.iter() {
            reversed.push_weighted(e.dst, e.src, e.weight).unwrap();
        }
        let t = Csr::from_edge_list(&reversed).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(g.out_degree(v), t.in_degree(v));
            prop_assert_eq!(g.in_degree(v), t.out_degree(v));
            prop_assert_eq!(g.out_neighbors(v), t.in_neighbors(v));
            prop_assert_eq!(g.in_neighbors(v), t.out_neighbors(v));
        }
    }

    /// Text round trip through a file preserves edge endpoints and weights.
    #[test]
    fn text_io_round_trip(el in arb_edge_list()) {
        let path = std::env::temp_dir()
            .join(format!("grasp-csr-prop-text-{}.el", std::process::id()));
        grasp_graph::io::write_edge_list_file(&path, &el).unwrap();
        let parsed = grasp_graph::io::read_edge_list_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(parsed.edge_count(), el.edge_count());
        for (a, b) in parsed.iter().zip(el.iter()) {
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn generators_cover_the_requested_scale() {
    let cases: Vec<(Box<dyn GraphGenerator>, usize)> = vec![
        (Box::new(Rmat::new(9, 8)), 512),
        (Box::new(Uniform::new(300, 4)), 300),
        (Box::new(ChungLu::new(300, 4, 2.2)), 300),
    ];
    for (g, expected_vertices) in cases {
        let csr = g.generate(123);
        assert_eq!(csr.vertex_count(), expected_vertices, "{}", g.name());
        assert!(csr.edge_count() > 0);
    }
}

#[test]
fn skew_ordering_across_generators_matches_expectations() {
    // Skew (hot-edge coverage minus hot-vertex fraction) should be ordered:
    // R-MAT (high) > Chung-Lu gamma=2.2 (moderate) > uniform (none).
    use grasp_graph::degree::SkewReport;
    let rmat = Rmat::new(12, 16).generate(5);
    let cl = ChungLu::new(1 << 12, 16, 2.2).generate(5);
    let uni = Uniform::new(1 << 12, 16).generate(5);
    let skew = |r: SkewReport| r.edge_coverage_pct() - r.hot_vertices_pct();
    let s_rmat = skew(SkewReport::for_in_edges(&rmat));
    let s_cl = skew(SkewReport::for_in_edges(&cl));
    let s_uni = skew(SkewReport::for_in_edges(&uni));
    assert!(s_rmat > s_uni, "rmat {s_rmat} uni {s_uni}");
    assert!(s_cl > s_uni, "cl {s_cl} uni {s_uni}");
}

#[test]
fn in_and_out_skew_are_both_reported() {
    let g = Rmat::new(10, 8).generate(1);
    let in_edges = grasp_graph::SkewReport::for_in_edges(&g);
    let out_edges = grasp_graph::SkewReport::for_out_edges(&g);
    assert!(in_edges.to_string().starts_with("in edges:"), "{in_edges}");
    assert!(
        out_edges.to_string().starts_with("out edges:"),
        "{out_edges}"
    );
}
