//! Uniform (Erdős–Rényi style) random graph generator.
//!
//! Stands in for the paper's `uni` dataset ("Uniform", generated with R-MAT
//! using equal quadrant probabilities): every edge endpoint is drawn uniformly
//! at random, so the degree distribution is binomial (no skew). This is the
//! adversarial no-skew input used in Fig. 9.

use super::GraphGenerator;
use crate::edgelist::EdgeList;
use crate::prng::Xoshiro256;
use crate::types::{Edge, VertexId};

/// Uniform random graph generator (`G(n, m)` model).
///
/// ```
/// use grasp_graph::generators::{Uniform, GraphGenerator};
/// let g = Uniform::new(1000, 10).generate(3);
/// assert_eq!(g.vertex_count(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uniform {
    vertices: u64,
    average_degree: u64,
}

impl Uniform {
    /// Creates a generator for `vertices` vertices and
    /// `vertices * average_degree` edge samples.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or exceeds `u32::MAX`, or if
    /// `average_degree` is zero.
    pub fn new(vertices: u64, average_degree: u64) -> Self {
        assert!(vertices > 0, "vertices must be non-zero");
        assert!(
            vertices <= u64::from(u32::MAX),
            "vertices must fit in a u32"
        );
        assert!(average_degree > 0, "average_degree must be non-zero");
        Self {
            vertices,
            average_degree,
        }
    }

    /// Number of edge samples.
    pub fn edge_count(&self) -> u64 {
        self.vertices * self.average_degree
    }
}

impl GraphGenerator for Uniform {
    fn edge_list(&self, seed: u64) -> EdgeList {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut edges = EdgeList::with_capacity(self.vertices, self.edge_count() as usize);
        for _ in 0..self.edge_count() {
            let src = rng.next_below(self.vertices) as VertexId;
            let dst = rng.next_below(self.vertices) as VertexId;
            edges.push_unchecked(Edge::new(src, dst));
        }
        edges
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::SkewReport;

    #[test]
    fn counts() {
        let u = Uniform::new(100, 5);
        assert_eq!(u.edge_count(), 500);
        assert_eq!(u.generate(1).vertex_count(), 100);
    }

    #[test]
    #[should_panic(expected = "vertices must be non-zero")]
    fn zero_vertices_panics() {
        let _ = Uniform::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "average_degree must be non-zero")]
    fn zero_degree_panics() {
        let _ = Uniform::new(10, 0);
    }

    #[test]
    fn degree_distribution_is_flat() {
        let g = Uniform::new(4096, 16).generate(9);
        let stats = SkewReport::for_out_edges(&g);
        // Binomial distribution: the max degree stays within a small factor of
        // the mean, and roughly half the vertices are above average.
        assert!(
            (stats.max_degree as f64) < 4.0 * stats.average_degree,
            "max {} avg {}",
            stats.max_degree,
            stats.average_degree
        );
        assert!(stats.hot_vertices_pct() > 30.0);
    }
}
