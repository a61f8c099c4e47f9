//! R-MAT (recursive matrix) / Kronecker graph generator.
//!
//! R-MAT (Chakrabarti, Zhan, Faloutsos 2004) recursively partitions the
//! adjacency matrix into quadrants and drops each edge into a quadrant with
//! probabilities `(a, b, c, d)`. With the Graph500/Kron parameters
//! `(0.57, 0.19, 0.19, 0.05)` it produces the heavy-tailed power-law degree
//! distributions characteristic of the paper's `tw`, `kr` and `sd` datasets.

use super::GraphGenerator;
use crate::edgelist::EdgeList;
use crate::prng::Xoshiro256;
use crate::types::{Edge, VertexId};

/// R-MAT generator configuration.
///
/// ```
/// use grasp_graph::generators::{Rmat, GraphGenerator};
/// let g = Rmat::new(10, 16).generate(7);
/// assert_eq!(g.vertex_count(), 1024);
/// assert!(g.edge_count() > 10_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rmat {
    scale: u32,
    edge_factor: u64,
    a: f64,
    b: f64,
    c: f64,
}

/// The per-level perturbation of the quadrant probabilities (standard
/// Graph500 "noise") that keeps the degree distribution from collapsing onto
/// exact powers of two.
const NOISE: f64 = 0.1;

impl Rmat {
    /// Creates an R-MAT generator for `2^scale` vertices and
    /// `edge_factor * 2^scale` edges with the standard Graph500 quadrant
    /// probabilities `(0.57, 0.19, 0.19, 0.05)`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 31, or if `edge_factor` is 0.
    pub fn new(scale: u32, edge_factor: u64) -> Self {
        Self::with_probabilities(scale, edge_factor, 0.57, 0.19, 0.19)
    }

    /// Creates an R-MAT generator with explicit quadrant probabilities
    /// `a`, `b`, `c` (the fourth is `1 - a - b - c`).
    ///
    /// Larger `a` increases skew; `a = b = c = 0.25` degenerates to a uniform
    /// random graph.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 31, if `edge_factor` is 0, or if
    /// the probabilities are negative or sum to more than 1.
    pub fn with_probabilities(scale: u32, edge_factor: u64, a: f64, b: f64, c: f64) -> Self {
        assert!((1..=31).contains(&scale), "scale must be in 1..=31");
        assert!(edge_factor >= 1, "edge_factor must be at least 1");
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0,
            "probabilities must be non-negative"
        );
        assert!(
            a + b + c <= 1.0 + 1e-9,
            "probabilities must sum to at most 1"
        );
        Self {
            scale,
            edge_factor,
            a,
            b,
            c,
        }
    }

    /// Number of vertices this generator produces (`2^scale`).
    pub fn vertex_count(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edge samples this generator draws.
    pub fn edge_count(&self) -> u64 {
        self.edge_factor * self.vertex_count()
    }

    fn sample_edge(&self, rng: &mut Xoshiro256) -> Edge {
        let mut src: u64 = 0;
        let mut dst: u64 = 0;
        for _ in 0..self.scale {
            let na = self.a * (1.0 + NOISE * (rng.next_f64() - 0.5));
            let nb = self.b * (1.0 + NOISE * (rng.next_f64() - 0.5));
            let nc = self.c * (1.0 + NOISE * (rng.next_f64() - 0.5));
            let nd = (1.0 - self.a - self.b - self.c) * (1.0 + NOISE * (rng.next_f64() - 0.5));
            let total = na + nb + nc + nd;
            let r = rng.next_f64() * total;
            src <<= 1;
            dst <<= 1;
            if r < na {
                // top-left quadrant: neither bit set
            } else if r < na + nb {
                dst |= 1;
            } else if r < na + nb + nc {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        Edge::new(src as VertexId, dst as VertexId)
    }
}

impl GraphGenerator for Rmat {
    fn edge_list(&self, seed: u64) -> EdgeList {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let n = self.vertex_count();
        let m = self.edge_count();
        let mut edges = EdgeList::with_capacity(n, m as usize);
        for _ in 0..m {
            edges.push_unchecked(self.sample_edge(&mut rng));
        }
        edges
    }

    fn name(&self) -> &'static str {
        "rmat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::SkewReport;

    #[test]
    fn vertex_and_edge_counts() {
        let r = Rmat::new(8, 16);
        assert_eq!(r.vertex_count(), 256);
        assert_eq!(r.edge_count(), 4096);
    }

    #[test]
    #[should_panic(expected = "scale must be in 1..=31")]
    fn zero_scale_panics() {
        let _ = Rmat::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "edge_factor must be at least 1")]
    fn zero_edge_factor_panics() {
        let _ = Rmat::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "probabilities must sum to at most 1")]
    fn invalid_probabilities_panic() {
        let _ = Rmat::with_probabilities(4, 4, 0.6, 0.3, 0.3);
    }

    #[test]
    fn produces_skewed_degree_distribution() {
        let g = Rmat::new(12, 16).generate(11);
        let stats = SkewReport::for_out_edges(&g);
        // In a power-law graph the maximum degree is far above the average.
        assert!(
            stats.max_degree as f64 > 10.0 * stats.average_degree,
            "max {} avg {}",
            stats.max_degree,
            stats.average_degree
        );
        // And the hot vertices (deg >= avg) should be a minority that covers
        // a large majority of edges (cf. Table I).
        let hot_pct = stats.hot_vertices_pct();
        let coverage = stats.edge_coverage_pct();
        assert!(hot_pct < 45.0, "hot vertices {hot_pct}%");
        assert!(coverage > 55.0, "coverage {coverage}%");
    }

    #[test]
    fn uniform_probabilities_reduce_skew() {
        let skewed = Rmat::new(11, 8).generate(5);
        let flat = Rmat::with_probabilities(11, 8, 0.25, 0.25, 0.25).generate(5);
        let s = SkewReport::for_out_edges(&skewed);
        let f = SkewReport::for_out_edges(&flat);
        assert!(s.max_degree > f.max_degree);
        assert!(s.hot_vertices_pct() < f.hot_vertices_pct());
    }
}
