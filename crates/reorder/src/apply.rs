//! Applying a permutation to a graph.
//!
//! [`relabel`] goes CSR → CSR, one direction at a time. Vertex `v`'s row
//! becomes row `perm(v)`, so the new offsets are the prefix sum of the
//! permuted degrees. The rows are then filled by a transposing scatter: for
//! every *new* target ID in ascending order, walk the old row of that vertex
//! in the opposite direction — the vertices whose rows it belongs to — and
//! append the target to each of their new rows. Every row receives its
//! targets in ascending order, so nothing is sorted, no edge list is built
//! in between, and each direction costs one sequential sweep plus one
//! scattered write per edge. A sorted row of distinct targets has one
//! possible order, so for simple graphs the result is, bit for bit, what
//! rebuilding from the relabelled edge list gives (property-tested against
//! that path for every technique).
//!
//! Parallel edges are the exception: where `u → v` occurs twice with
//! different weights, which weight comes first was decided by the builder's
//! unstable sort on the edge-list order, and a row-wise construction has no
//! way to reproduce that. The first row about to receive the same target
//! twice therefore abandons the direct path for the whole graph, and the
//! original implementation — every out-edge renamed into an `EdgeList`,
//! then `Csr::from_edge_list` — runs instead, so weighted multigraphs keep
//! the order they always had.

use crate::perm::Permutation;
use grasp_graph::types::{Direction, Edge, EdgeWeight, VertexId};
use grasp_graph::{Csr, EdgeList, GraphView};

/// Relabels every vertex of `graph` according to `perm` (old ID → new ID) and
/// rebuilds the CSR.
///
/// The resulting graph is isomorphic to the input: degrees, neighbour
/// multisets and edge weights are preserved under the relabelling.
///
/// # Panics
///
/// Panics if `perm.len() != graph.vertex_count()`, or if `graph` breaks the
/// [`GraphView`] invariants (the two directions must describe the same
/// edges).
pub fn relabel(graph: &dyn GraphView, perm: &Permutation) -> Csr {
    assert_eq!(
        perm.len(),
        graph.vertex_count(),
        "permutation length must match the vertex count"
    );
    let inverse = perm.inverse();
    let rows = |direction| relabel_rows(graph, perm, &inverse, direction);
    let Some(((out_offsets, out_targets, out_weights), (in_offsets, in_targets, in_weights))) =
        rows(Direction::Out).and_then(|out| Some((out, rows(Direction::In)?)))
    else {
        return relabel_via_edge_list(graph, perm);
    };
    Csr::from_raw_columns(
        graph.vertex_count(),
        graph.edge_count(),
        out_offsets,
        out_targets,
        out_weights,
        in_offsets,
        in_targets,
        in_weights,
    )
    .expect("permuted rows of a valid graph form a valid graph")
}

/// What `relabel` panics with when the in-rows and the out-rows of `graph`
/// are not the same edges (a [`GraphView`] invariant; a `MappedCsr` opened
/// over damaged columns without `verify` can break it).
const DIRECTIONS_DISAGREE: &str = "the graph's two directions describe different edges";

/// The `(offsets, targets, weights)` columns of one direction of the
/// relabelled graph, or `None` when a row holds the same target twice.
///
/// Row `perm(v)` of the result lists `perm(t)` for every `t` in row `v`.
/// Instead of mapping rows and sorting them, the new targets are visited in
/// ascending order: target `perm(t)` belongs to the rows of `t`'s
/// neighbours in the reverse direction, and appending it there as it comes
/// up leaves every row sorted, with equal targets adjacent.
fn relabel_rows(
    graph: &dyn GraphView,
    perm: &Permutation,
    inverse: &Permutation,
    direction: Direction,
) -> Option<(Vec<u64>, Vec<VertexId>, Vec<EdgeWeight>)> {
    let n = graph.vertex_count();
    let mut offsets = vec![0u64; n + 1];
    for old in graph.vertices() {
        offsets[perm.new_id(old) as usize + 1] = graph.degree(old, direction);
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let edge_total = offsets[n] as usize;
    let mut targets = vec![0 as VertexId; edge_total];
    let mut weights = vec![0 as EdgeWeight; edge_total];
    let mut cursor = offsets[..n].to_vec();
    for target in graph.vertices() {
        let old = inverse.new_id(target);
        let owners = graph.neighbors(old, direction.reversed());
        for (&owner, &weight) in owners.iter().zip(graph.weights(old, direction.reversed())) {
            let row = perm.new_id(owner) as usize;
            // The row's size came from one direction, its contents come
            // from the other: never write past what was sized.
            assert!(cursor[row] < offsets[row + 1], "{DIRECTIONS_DISAGREE}");
            let at = cursor[row] as usize;
            if at as u64 > offsets[row] && targets[at - 1] == target {
                return None;
            }
            targets[at] = target;
            weights[at] = weight;
            cursor[row] += 1;
        }
    }
    assert!(cursor[..] == offsets[1..], "{DIRECTIONS_DISAGREE}");
    Some((offsets, targets, weights))
}

/// Relabels by way of the edge list: every out-edge renamed and pushed in
/// row order, then the sequential builder. Defines the result for graphs
/// with parallel edges.
fn relabel_via_edge_list(graph: &dyn GraphView, perm: &Permutation) -> Csr {
    let mut edges =
        EdgeList::with_capacity(graph.vertex_count() as u64, graph.edge_count() as usize);
    for src in graph.vertices() {
        for (&dst, &weight) in graph.out_neighbors(src).iter().zip(graph.out_weights(src)) {
            edges
                .push_edge(Edge::weighted(perm.new_id(src), perm.new_id(dst), weight))
                .expect("permutation maps into the same vertex range");
        }
    }
    Csr::from_edge_list(&edges).expect("relabelled graph has the same non-zero vertex count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_graph::generators::{GraphGenerator, Rmat};
    use grasp_graph::types::Direction;

    #[test]
    fn relabel_preserves_structure() {
        let g = Rmat::new(8, 8).generate(4);
        let perm = crate::TechniqueKind::Sort.compute(&g, Direction::Out);
        let r = relabel(&g, &perm);
        assert_eq!(r.vertex_count(), g.vertex_count());
        assert_eq!(r.edge_count(), g.edge_count());
        // Degree multiset is preserved.
        let mut before: Vec<u64> = g.vertices().map(|v| g.out_degree(v)).collect();
        let mut after: Vec<u64> = r.vertices().map(|v| r.out_degree(v)).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // Every original edge maps to a relabelled edge.
        for (s, d, _) in g.edges() {
            assert!(r.has_edge(perm.new_id(s), perm.new_id(d)));
        }
    }

    #[test]
    fn relabel_with_identity_is_a_no_op() {
        let g = Rmat::new(7, 4).generate(2);
        let r = relabel(&g, &Permutation::identity(g.vertex_count()));
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), r.out_neighbors(v));
            assert_eq!(g.in_neighbors(v), r.in_neighbors(v));
        }
    }

    #[test]
    #[should_panic(expected = "permutation length must match")]
    fn relabel_length_mismatch_panics() {
        let g = Csr::from_edges([(0, 1)]).unwrap();
        let _ = relabel(&g, &Permutation::identity(5));
    }

    #[test]
    fn relabel_preserves_weights() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10).unwrap();
        el.push_weighted(1, 2, 20).unwrap();
        let g = Csr::from_edge_list(&el).unwrap();
        let perm = Permutation::from_new_ids(vec![2, 1, 0]).unwrap();
        let r = relabel(&g, &perm);
        // Old edge 0->1 weight 10 becomes 2->1.
        assert_eq!(r.out_neighbors(2), &[1]);
        assert_eq!(r.out_weights(2), &[10]);
        assert_eq!(r.out_weights(1), &[20]);
    }

    #[test]
    fn relabel_falls_back_on_parallel_edges() {
        // 0 -> 1 twice with different weights: the direct path must decline,
        // and `relabel` must give what the edge-list path gives.
        let mut el = EdgeList::new(4);
        for (s, d, w) in [(0, 1, 9), (2, 3, 1), (0, 1, 4), (3, 0, 2)] {
            el.push_weighted(s, d, w).unwrap();
        }
        let g = Csr::from_edge_list(&el).unwrap();
        let perm = Permutation::from_new_ids(vec![3, 0, 2, 1]).unwrap();
        let inverse = perm.inverse();
        assert!(relabel_rows(&g, &perm, &inverse, Direction::Out).is_none());
        assert!(relabel_rows(&g, &perm, &inverse, Direction::In).is_none());
        assert_eq!(relabel(&g, &perm), relabel_via_edge_list(&g, &perm));
    }

    #[test]
    #[should_panic(expected = "two directions describe different edges")]
    fn relabel_rejects_directions_that_disagree() {
        // Out-rows say 0 -> 1, 0 -> 2; in-rows say 0 -> 1, 2 -> 1. Row 2 is
        // sized for no out-edge and then handed one: without the check the
        // store lands past the end of the edge columns.
        let g = Csr::from_raw_columns(
            3,
            2,
            vec![0, 2, 2, 2],
            vec![1, 2],
            vec![1, 1],
            vec![0, 0, 2, 2],
            vec![0, 2],
            vec![1, 1],
        )
        .unwrap();
        let _ = relabel(&g, &Permutation::identity(3));
    }

    mod properties {
        use super::*;
        use crate::TechniqueKind;
        use grasp_graph::EdgeList;
        use proptest::prelude::*;

        /// Small edge lists biased toward the shapes that could tell the two
        /// paths apart: self-loops, weighted parallel edges, and vertex
        /// counts larger than any endpoint (isolated tail vertices). About
        /// half the lists are deduplicated so the direct path gets to finish.
        fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
            (1u64..=48, 0u64..=8, proptest::bool::ANY).prop_flat_map(|(n, spare, simple)| {
                let edge = (0..n as u32, 0..n as u32, 1u32..=4);
                proptest::collection::vec(edge, 1..128).prop_map(move |triples| {
                    let mut el = EdgeList::new(n + spare);
                    for (s, d, w) in triples {
                        el.push_weighted(s, d, w).unwrap();
                        if s == d && !simple {
                            el.push_weighted(s, d, w + 1).unwrap();
                        }
                    }
                    if simple {
                        el.sort_and_dedup();
                    }
                    el
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// For every technique's permutation, in both hotness
            /// directions: the direct path declines exactly when the graph
            /// has parallel edges, otherwise it produces the columns of the
            /// edge-list path, and `relabel` equals that path either way.
            #[test]
            fn direct_relabel_matches_the_edge_list_path(el in arb_edge_list()) {
                let g = Csr::from_edge_list(&el).unwrap();
                let has_parallel_edges = g
                    .vertices()
                    .any(|v| g.out_neighbors(v).windows(2).any(|pair| pair[0] == pair[1]));
                for kind in TechniqueKind::ALL {
                    for hotness in [Direction::Out, Direction::In] {
                        let perm = kind.compute(&g, hotness);
                        let inverse = perm.inverse();
                        let expected = relabel_via_edge_list(&g, &perm);
                        for direction in [Direction::Out, Direction::In] {
                            match relabel_rows(&g, &perm, &inverse, direction) {
                                None => prop_assert!(has_parallel_edges, "{} declined a simple graph", kind),
                                Some((offsets, targets, weights)) => {
                                    prop_assert!(!has_parallel_edges, "{} missed a parallel edge", kind);
                                    let (o, t, w) = expected.raw_columns(direction);
                                    prop_assert_eq!((&offsets[..], &targets[..], &weights[..]), (o, t, w));
                                }
                            }
                        }
                        prop_assert_eq!(relabel(&g, &perm), expected, "{} {:?}", kind, hotness);
                    }
                }
            }
        }
    }
}
