//! Full degree sort.
//!
//! Reorders vertices by sorting **all** of them in descending degree order.
//! Sort achieves perfect segregation of hot vertices but completely destroys
//! any community structure present in the original ordering, which is why the
//! paper finds it inferior to DBG on structure-rich graphs (Sec. V-C).
//!
//! The sort is stable: equal-degree vertices keep their original relative
//! order, which both preserves a little structure and keeps the result
//! deterministic.

use crate::perm::Permutation;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

pub(crate) fn compute(graph: &dyn GraphView, direction: Direction) -> Permutation {
    let mut order: Vec<VertexId> = graph.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v, direction)));
    Permutation::from_order(&order).expect("sorting a permutation yields a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_graph::generators::{GraphGenerator, Rmat};
    use grasp_graph::Csr;

    #[test]
    fn degrees_are_monotone_after_sort() {
        let g = Rmat::new(9, 8).generate(5);
        let perm = compute(&g, Direction::Out);
        let reordered = crate::apply::relabel(&g, &perm);
        let degrees: Vec<u64> = reordered
            .vertices()
            .map(|v| reordered.out_degree(v))
            .collect();
        for w in degrees.windows(2) {
            assert!(w[0] >= w[1], "degrees must be non-increasing");
        }
    }

    #[test]
    fn sort_is_stable_for_equal_degrees() {
        // A graph where vertices 1, 2, 3 all have degree 1: their relative
        // order must be preserved.
        let g = Csr::from_edges([(1, 0), (2, 0), (3, 0), (0, 1)]).unwrap();
        let perm = compute(&g, Direction::Out);
        // Vertex 0 has out-degree 1 too, so everything has degree 1 except
        // nothing; stable sort keeps 0,1,2,3 order.
        assert!(perm.is_identity());
    }

    #[test]
    fn direction_matters() {
        // Vertex 0 has high out-degree but zero in-degree.
        let g = Csr::from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)]).unwrap();
        let out_perm = compute(&g, Direction::Out);
        let in_perm = compute(&g, Direction::In);
        assert_eq!(out_perm.new_id(0), 0, "highest out-degree first");
        assert_ne!(in_perm.new_id(0), 0, "vertex 0 has no in-edges");
    }
}
