//! Hot-vertex threshold and hot-region geometry.
//!
//! The paper classifies a vertex as hot when its degree is at least the
//! average degree (Sec. II-A). After skew-aware reordering the hot vertices
//! occupy a prefix of the vertex ID space, which is what lets GRASP's
//! software side describe them to hardware with one Address Bound Register
//! pair.

use grasp_graph::types::Direction;
use grasp_graph::GraphView;

/// Geometry of the hot region of a (reordered) graph's Property Array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotRegion {
    hot_vertex_count: usize,
    prefix_covering_hot: usize,
}

impl HotRegion {
    /// Analyzes `graph` using the degree in `direction` for hotness: a vertex
    /// is hot when that degree is at least [`GraphView::average_degree`].
    ///
    /// `prefix_covering_hot` is the smallest prefix of the ID space that
    /// contains every hot vertex — equal to `hot_vertex_count` when the graph
    /// has been reordered by a segregating technique, potentially as large as
    /// the whole graph otherwise.
    pub fn analyze(graph: &dyn GraphView, direction: Direction) -> Self {
        let threshold = graph.average_degree();
        let mut hot_vertex_count = 0usize;
        let mut last_hot: Option<usize> = None;
        for v in graph.vertices() {
            if graph.degree(v, direction) as f64 >= threshold {
                hot_vertex_count += 1;
                last_hot = Some(v as usize);
            }
        }
        Self {
            hot_vertex_count,
            prefix_covering_hot: last_hot.map_or(0, |v| v + 1),
        }
    }

    /// Number of hot vertices.
    pub fn hot_vertex_count(&self) -> usize {
        self.hot_vertex_count
    }

    /// Length of the smallest ID prefix containing every hot vertex.
    pub fn prefix_covering_hot(&self) -> usize {
        self.prefix_covering_hot
    }

    /// How tightly the hot vertices are packed into the prefix: 1.0 means the
    /// prefix contains only hot vertices (perfect segregation), values near
    /// `hot_vertex_count / vertex_count` mean no segregation at all.
    pub fn packing_efficiency(&self) -> f64 {
        if self.prefix_covering_hot == 0 {
            1.0
        } else {
            self.hot_vertex_count as f64 / self.prefix_covering_hot as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply, csr_of, TechniqueKind};
    use grasp_graph::generators::{GraphGenerator, Rmat};
    use grasp_graph::Csr;

    #[test]
    fn threshold_is_average_degree() {
        // Every vertex has exactly the average degree, and the threshold is
        // inclusive, so every vertex is hot.
        let g = csr_of([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
        assert_eq!(HotRegion::analyze(&g, Direction::Out).hot_vertex_count(), 4);
    }

    #[test]
    fn packing_improves_after_reordering() {
        let g = Rmat::new(10, 8).generate(3);
        let before = HotRegion::analyze(&g, Direction::Out);
        let perm = TechniqueKind::Dbg.compute(&g, Direction::Out);
        let after = HotRegion::analyze(&apply::relabel(&g, &perm), Direction::Out);
        assert_eq!(before.hot_vertex_count(), after.hot_vertex_count());
        assert!(after.packing_efficiency() >= before.packing_efficiency());
        // After DBG the hot prefix is exactly the hot vertices.
        assert!((after.packing_efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(after.prefix_covering_hot(), after.hot_vertex_count());
    }

    #[test]
    fn graph_with_no_hot_vertices_possible() {
        // A single-edge graph over many vertices: average degree is tiny but
        // non-zero, vertex 0 is hot.
        let mut el = grasp_graph::EdgeList::new(100);
        el.push(0, 1).unwrap();
        let g = Csr::from_edge_list(&el).unwrap();
        let r = HotRegion::analyze(&g, Direction::Out);
        assert_eq!(r.hot_vertex_count(), 1);
        assert_eq!(r.prefix_covering_hot(), 1);
    }
}
