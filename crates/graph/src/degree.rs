//! Degree statistics and skew analysis.
//!
//! The paper classifies a vertex as **hot** when its degree is greater than or
//! equal to the average degree (Sec. II-A); Table I reports, per dataset and
//! per direction, the percentage of hot vertices and the percentage of edges
//! connected to them ("edge coverage"). [`DegreeStats`] computes those numbers
//! for one direction and [`SkewReport`] packages them for the Table I
//! reproduction.

use crate::types::{Direction, VertexId};
use crate::view::GraphView;

/// Degree statistics of a graph in one direction.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    direction: Direction,
    vertex_count: usize,
    edge_count: u64,
    max_degree: u64,
    hot_vertices: usize,
    hot_edges: u64,
    histogram: Vec<(u64, usize)>,
}

impl DegreeStats {
    /// Computes statistics for the given direction.
    ///
    /// A vertex is hot when `degree >= average_degree` (the paper's
    /// definition); `hot_edges` counts edges attached to hot vertices in this
    /// direction.
    pub fn new(graph: &dyn GraphView, direction: Direction) -> Self {
        let vertex_count = graph.vertex_count();
        let edge_count = graph.edge_count();
        let avg = edge_count as f64 / vertex_count as f64;
        let mut max_degree = 0u64;
        let mut hot_vertices = 0usize;
        let mut hot_edges = 0u64;
        let mut hist = std::collections::BTreeMap::new();
        for v in graph.vertices() {
            let d = graph.degree(v, direction);
            max_degree = max_degree.max(d);
            if d as f64 >= avg {
                hot_vertices += 1;
                hot_edges += d;
            }
            *hist.entry(d).or_insert(0usize) += 1;
        }
        Self {
            direction,
            vertex_count,
            edge_count,
            max_degree,
            hot_vertices,
            hot_edges,
            histogram: hist.into_iter().collect(),
        }
    }

    /// Direction the statistics were computed for.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of vertices in the graph.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Average degree.
    pub fn average_degree(&self) -> f64 {
        self.edge_count as f64 / self.vertex_count as f64
    }

    /// Maximum degree in this direction.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Number of hot vertices (`degree >= average`).
    pub fn hot_vertex_count(&self) -> usize {
        self.hot_vertices
    }

    /// Fraction of vertices that are hot, in `[0, 1]`.
    pub fn hot_vertex_fraction(&self) -> f64 {
        self.hot_vertices as f64 / self.vertex_count as f64
    }

    /// Fraction of edges attached to hot vertices, in `[0, 1]`.
    pub fn hot_edge_coverage(&self) -> f64 {
        if self.edge_count == 0 {
            0.0
        } else {
            self.hot_edges as f64 / self.edge_count as f64
        }
    }

    /// Degree histogram as `(degree, vertex count)` pairs sorted by degree.
    pub fn histogram(&self) -> &[(u64, usize)] {
        &self.histogram
    }

    /// Returns the hot vertices (IDs with `degree >= average`) of `graph` in
    /// `direction`, in arbitrary order.
    pub fn hot_vertices(graph: &dyn GraphView, direction: Direction) -> Vec<VertexId> {
        let avg = graph.edge_count() as f64 / graph.vertex_count() as f64;
        graph
            .vertices()
            .filter(|&v| graph.degree(v, direction) as f64 >= avg)
            .collect()
    }
}

/// A Table I-style skew report for one direction of one dataset.
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
    direction: Direction,
    hot_vertices_pct: f64,
    edge_coverage_pct: f64,
    average_degree: f64,
    max_degree: u64,
}

impl SkewReport {
    /// Builds a report from already-computed statistics.
    pub fn from_stats(stats: &DegreeStats) -> Self {
        Self {
            direction: stats.direction(),
            hot_vertices_pct: stats.hot_vertex_fraction() * 100.0,
            edge_coverage_pct: stats.hot_edge_coverage() * 100.0,
            average_degree: stats.average_degree(),
            max_degree: stats.max_degree(),
        }
    }

    /// Skew of the in-edge (pull) direction — rows #2/#3 of Table I.
    pub fn for_in_edges(graph: &dyn GraphView) -> Self {
        Self::from_stats(&DegreeStats::new(graph, Direction::In))
    }

    /// Skew of the out-edge (push) direction — rows #4/#5 of Table I.
    pub fn for_out_edges(graph: &dyn GraphView) -> Self {
        Self::from_stats(&DegreeStats::new(graph, Direction::Out))
    }

    /// Direction this report describes.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Percentage of vertices with degree ≥ average (lower = more skew).
    pub fn hot_vertices_pct(&self) -> f64 {
        self.hot_vertices_pct
    }

    /// Percentage of edges attached to hot vertices (higher = more skew).
    pub fn edge_coverage_pct(&self) -> f64 {
        self.edge_coverage_pct
    }

    /// Average degree of the graph.
    pub fn average_degree(&self) -> f64 {
        self.average_degree
    }

    /// Maximum degree in this direction.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// A scalar skew index in `[0, 1]`: edge coverage minus hot-vertex
    /// fraction (both as fractions). Near 0 for uniform graphs, approaching 1
    /// for extremely skewed graphs.
    pub fn skew_index(&self) -> f64 {
        ((self.edge_coverage_pct - self.hot_vertices_pct) / 100.0).max(0.0)
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
    use crate::csr::Csr;
    use crate::generators::{GraphGenerator, Rmat, Uniform};

    fn chain_graph() -> Csr {
        // 0 -> 1 -> 2 -> 3: every vertex has degree <= 1; average is 0.75 so
        // every vertex with an edge is "hot".
        Csr::from_edges([(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn chain_graph_stats() {
        let g = chain_graph();
        let s = DegreeStats::new(&g, Direction::Out);
        assert_eq!(s.vertex_count(), 4);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.max_degree(), 1);
        assert_eq!(s.hot_vertex_count(), 3);
        assert!((s.hot_edge_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_graph_is_maximally_skewed() {
        // Vertex 0 points to everyone: one hot vertex covers all out-edges.
        let edges: Vec<(u32, u32)> = (1..100).map(|d| (0, d)).collect();
        let g = Csr::from_edges(edges).unwrap();
        let s = DegreeStats::new(&g, Direction::Out);
        assert_eq!(s.hot_vertex_count(), 1);
        assert!((s.hot_edge_coverage() - 1.0).abs() < 1e-12);
        let r = SkewReport::from_stats(&s);
        assert!(r.skew_index() > 0.9);
    }

    #[test]
    fn histogram_sums_to_vertex_count() {
        let g = Rmat::new(10, 8).generate(2);
        let s = DegreeStats::new(&g, Direction::In);
        let total: usize = s.histogram().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, g.vertex_count());
        // Histogram degrees are sorted ascending.
        for w in s.histogram().windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn hot_vertices_listing_matches_count() {
        let g = Rmat::new(10, 8).generate(2);
        let s = DegreeStats::new(&g, Direction::Out);
        let hot = DegreeStats::hot_vertices(&g, Direction::Out);
        assert_eq!(hot.len(), s.hot_vertex_count());
        let avg = s.average_degree();
        for v in hot {
            assert!(g.out_degree(v) as f64 >= avg);
        }
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
        assert!(skew_in.skew_index() > flat_in.skew_index());
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
