//! Chung–Lu random graph generator with a configurable power-law exponent.
//!
//! The Chung–Lu model draws every edge endpoint from a fixed weight
//! distribution; with weights `w_i ∝ (i + 1)^(-1/(γ-1))` the expected degree
//! distribution follows a power law with exponent `γ`. The exponent lets us
//! tune how skewed a dataset is, which is how the reproduction builds
//! stand-ins for the *moderately* skewed datasets (`lj`, `pl`) and the
//! *low-skew* `fr` (Friendster) adversarial dataset without access to the real
//! graphs.

use super::GraphGenerator;
use crate::edgelist::EdgeList;
use crate::prng::Xoshiro256;
use crate::types::{Edge, VertexId};

/// Chung–Lu power-law generator.
///
/// ```
/// use grasp_graph::generators::{ChungLu, GraphGenerator};
/// // γ = 1.9: heavy skew. γ = 3.5: mild skew.
/// let heavy = ChungLu::new(2048, 16, 1.9).generate(1);
/// assert_eq!(heavy.vertex_count(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChungLu {
    vertices: u64,
    average_degree: u64,
    exponent: f64,
}

impl ChungLu {
    /// Creates a generator for `vertices` vertices, `vertices * average_degree`
    /// edge samples, and power-law exponent `exponent` (typical natural graphs
    /// have `exponent` in `1.8..=2.5`; larger values mean less skew).
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or exceeds `u32::MAX`, if `average_degree`
    /// is zero, or if `exponent <= 1`.
    pub fn new(vertices: u64, average_degree: u64, exponent: f64) -> Self {
        assert!(vertices > 0, "vertices must be non-zero");
        assert!(
            vertices <= u64::from(u32::MAX),
            "vertices must fit in a u32"
        );
        assert!(average_degree > 0, "average_degree must be non-zero");
        assert!(exponent > 1.0, "exponent must be greater than 1");
        Self {
            vertices,
            average_degree,
            exponent,
        }
    }

    /// Number of edge samples.
    pub fn edge_count(&self) -> u64 {
        self.vertices * self.average_degree
    }

    /// Builds the cumulative weight table used for endpoint sampling.
    fn cumulative_weights(&self) -> Vec<f64> {
        let n = self.vertices as usize;
        let alpha = 1.0 / (self.exponent - 1.0);
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            // Weight of vertex i: (i+1)^(-alpha). Vertex 0 is the heaviest.
            let w = ((i + 1) as f64).powf(-alpha);
            total += w;
            cumulative.push(total);
        }
        // Normalize to [0, 1] for binary-search sampling.
        for c in &mut cumulative {
            *c /= total;
        }
        cumulative
    }

    fn sample_vertex(cumulative: &[f64], rng: &mut Xoshiro256) -> VertexId {
        let r = rng.next_f64();
        // partition_point returns the first index whose cumulative weight is
        // >= r, i.e. inverse-CDF sampling.
        let idx = cumulative.partition_point(|&c| c < r);
        idx.min(cumulative.len() - 1) as VertexId
    }
}

impl GraphGenerator for ChungLu {
    fn edge_list(&self, seed: u64) -> EdgeList {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let cumulative = self.cumulative_weights();
        let mut edges = EdgeList::with_capacity(self.vertices, self.edge_count() as usize);
        let mut scramble = Xoshiro256::seed_from_u64(seed ^ 0xD1CE_D1CE_D1CE_D1CE);
        // Random relabelling so that hot vertices are *not* contiguous in the
        // ID space: real datasets do not arrive pre-sorted by degree, and the
        // whole point of skew-aware reordering is to create that contiguity.
        let mut relabel: Vec<VertexId> = (0..self.vertices as VertexId).collect();
        scramble.shuffle(&mut relabel);
        for _ in 0..self.edge_count() {
            let src = relabel[Self::sample_vertex(&cumulative, &mut rng) as usize];
            let dst = relabel[Self::sample_vertex(&cumulative, &mut rng) as usize];
            edges.push_unchecked(Edge::new(src, dst));
        }
        edges
    }

    fn name(&self) -> &'static str {
        "chung-lu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::SkewReport;
    use crate::GraphView;

    #[test]
    fn counts_and_accessors() {
        let g = ChungLu::new(100, 4, 2.2);
        assert_eq!(g.edge_count(), 400);
        assert_eq!(g.generate(1).vertex_count(), 100);
    }

    #[test]
    #[should_panic(expected = "exponent must be greater than 1")]
    fn invalid_exponent_panics() {
        let _ = ChungLu::new(10, 2, 1.0);
    }

    #[test]
    fn lower_exponent_means_more_skew() {
        let heavy = ChungLu::new(4096, 12, 1.9).generate(5);
        let mild = ChungLu::new(4096, 12, 3.5).generate(5);
        let h = SkewReport::for_out_edges(&heavy);
        let m = SkewReport::for_out_edges(&mild);
        assert!(
            h.hot_vertices_pct() < m.hot_vertices_pct(),
            "heavy {} mild {}",
            h.hot_vertices_pct(),
            m.hot_vertices_pct()
        );
        assert!(h.edge_coverage_pct() > m.edge_coverage_pct());
    }

    #[test]
    fn hot_vertices_are_scattered_in_id_space() {
        // The relabelling shuffle must prevent hot vertices from being the
        // lowest IDs (otherwise reordering would be a no-op).
        let g = ChungLu::new(2048, 16, 2.0).generate(9);
        let stats = SkewReport::for_out_edges(&g);
        let avg = stats.average_degree;
        let hot_in_first_decile = (0..205u32)
            .filter(|&v| g.out_degree(v) as f64 >= avg)
            .count();
        let hot_total = g
            .vertices()
            .filter(|&v| g.out_degree(v) as f64 >= avg)
            .count();
        // If hot vertices were contiguous at the front, the first decile would
        // contain almost all of them.
        assert!(
            (hot_in_first_decile as f64) < 0.5 * hot_total as f64,
            "{hot_in_first_decile} of {hot_total} hot vertices in the first decile"
        );
    }

    #[test]
    fn sample_vertex_prefers_heavy_vertices() {
        let gen = ChungLu::new(1000, 4, 2.0);
        let cum = gen.cumulative_weights();
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut first_decile = 0u32;
        let draws = 10_000;
        for _ in 0..draws {
            if ChungLu::sample_vertex(&cum, &mut rng) < 100 {
                first_decile += 1;
            }
        }
        // Under a power-law weighting the first 10% of (pre-shuffle) vertices
        // should receive far more than 10% of the samples.
        assert!(first_decile as f64 / draws as f64 > 0.3);
    }
}
