//! Degree skew analysis: the hot vertices and edge coverage of Table I.

use crate::types::Direction;
use crate::view::GraphView;

/// A Table I-style skew report for one direction of one dataset.
///
/// A vertex is **hot** when its degree is greater than or equal to the
/// average degree (Sec. II-A); the report gives the percentage of hot
/// vertices and the percentage of edges connected to them ("edge coverage").
///
/// ```
/// use grasp_graph::generators::{Rmat, GraphGenerator};
/// use grasp_graph::degree::SkewReport;
///
/// let g = Rmat::new(12, 16).generate(1);
/// let r = SkewReport::for_in_edges(&g);
/// // High-skew graphs: few hot vertices covering most edges.
/// assert!(r.hot_vertices_pct() < 50.0);
/// assert!(r.edge_coverage_pct() > 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewReport {
    pub(crate) direction: Direction,
    hot_vertices_pct: f64,
    edge_coverage_pct: f64,
    pub(crate) average_degree: f64,
    pub(crate) max_degree: u64,
}

impl SkewReport {
    /// Skew of the in-edge (pull) direction — rows #2/#3 of Table I.
    pub fn for_in_edges(graph: &dyn GraphView) -> Self {
        Self::new(graph, Direction::In)
    }

    /// Skew of the out-edge (push) direction — rows #4/#5 of Table I.
    pub fn for_out_edges(graph: &dyn GraphView) -> Self {
        Self::new(graph, Direction::Out)
    }

    /// One pass over the vertices, counting degrees in `direction`.
    fn new(graph: &dyn GraphView, direction: Direction) -> Self {
        let vertex_count = graph.vertex_count() as f64;
        let edge_count = graph.edge_count();
        let average_degree = edge_count as f64 / vertex_count;
        let (mut hot_vertices, mut hot_edges, mut max_degree) = (0usize, 0u64, 0u64);
        for v in graph.vertices() {
            let d = graph.degree(v, direction);
            max_degree = max_degree.max(d);
            if d as f64 >= average_degree {
                hot_vertices += 1;
                hot_edges += d;
            }
        }
        let coverage = if edge_count == 0 {
            0.0
        } else {
            hot_edges as f64 / edge_count as f64
        };
        Self {
            direction,
            hot_vertices_pct: hot_vertices as f64 / vertex_count * 100.0,
            edge_coverage_pct: coverage * 100.0,
            average_degree,
            max_degree,
        }
    }

    /// Percentage of vertices with degree ≥ average (lower = more skew).
    pub fn hot_vertices_pct(&self) -> f64 {
        self.hot_vertices_pct
    }

    /// Percentage of edges attached to hot vertices (higher = more skew).
    pub fn edge_coverage_pct(&self) -> f64 {
        self.edge_coverage_pct
    }
}

impl std::fmt::Display for SkewReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} edges: hot vertices {:.1}%, edge coverage {:.1}% (avg degree {:.1}, max {})",
            self.direction,
            self.hot_vertices_pct,
            self.edge_coverage_pct,
            self.average_degree,
            self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{csr_of, Csr};
    use crate::generators::{GraphGenerator, Rmat, Uniform};

    fn chain_graph() -> Csr {
        // 0 -> 1 -> 2 -> 3: every vertex has degree <= 1; average is 0.75 so
        // every vertex with an edge is "hot".
        csr_of([(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn chain_graph_stats() {
        let r = SkewReport::for_out_edges(&chain_graph());
        assert_eq!(r.max_degree, 1);
        assert_eq!(r.average_degree, 0.75);
        assert_eq!(r.hot_vertices_pct(), 75.0);
        assert_eq!(r.edge_coverage_pct(), 100.0);
    }

    #[test]
    fn star_graph_is_maximally_skewed() {
        // Vertex 0 points to everyone: one hot vertex covers all out-edges.
        let g = csr_of((1..100).map(|d| (0, d)));
        let r = SkewReport::for_out_edges(&g);
        assert_eq!(r.hot_vertices_pct(), 1.0);
        assert_eq!(r.edge_coverage_pct(), 100.0);
        assert!(r.edge_coverage_pct() - r.hot_vertices_pct() > 90.0);
    }

    #[test]
    fn skew_report_table1_shape_for_rmat_vs_uniform() {
        // This is the qualitative claim of Table I: for high-skew graphs a
        // small percentage of hot vertices covers a large percentage of edges,
        // whereas uniform graphs show neither property.
        let skew = Rmat::new(13, 16).generate(7);
        let flat = Uniform::new(1 << 13, 16).generate(7);
        let skew_in = SkewReport::for_in_edges(&skew);
        let flat_in = SkewReport::for_in_edges(&flat);
        assert!(skew_in.hot_vertices_pct() < 40.0);
        assert!(skew_in.edge_coverage_pct() > 60.0);
        assert!(flat_in.hot_vertices_pct() > 40.0);
        let gap = |r: SkewReport| r.edge_coverage_pct() - r.hot_vertices_pct();
        assert!(gap(skew_in) > gap(flat_in));
    }

    #[test]
    fn table1_fields_are_pinned_on_star_and_chain() {
        // Exact values, so a change to the float expressions behind Table I
        // shows here and not only in BENCH_table1.json's one decimal place.
        fn fields(r: SkewReport) -> (Direction, f64, f64, f64, u64) {
            (
                r.direction,
                r.hot_vertices_pct(),
                r.edge_coverage_pct(),
                r.average_degree,
                r.max_degree,
            )
        }
        let star = csr_of((1..100).map(|d| (0, d)));
        assert_eq!(
            fields(SkewReport::for_out_edges(&star)),
            (Direction::Out, 1.0, 100.0, 0.99, 99)
        );
        assert_eq!(
            fields(SkewReport::for_in_edges(&star)),
            (Direction::In, 99.0, 100.0, 0.99, 1)
        );
        let chain = chain_graph();
        assert_eq!(
            fields(SkewReport::for_out_edges(&chain)),
            (Direction::Out, 75.0, 100.0, 0.75, 1)
        );
        assert_eq!(
            fields(SkewReport::for_in_edges(&chain)),
            (Direction::In, 75.0, 100.0, 0.75, 1)
        );
    }

    #[test]
    fn display_contains_key_numbers() {
        let g = chain_graph();
        let r = SkewReport::for_out_edges(&g);
        let text = r.to_string();
        assert!(text.contains("out edges"));
        assert!(text.contains('%'));
    }
}
