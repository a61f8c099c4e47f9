//! Object-safe graph trait shared by every graph backing.
//!
//! The analytics apps, reorder techniques and the experiment orchestration in
//! `grasp-core` consume graphs through [`GraphView`] rather than the concrete
//! [`crate::Csr`] type. That makes the *backing* of the adjacency data an
//! implementation detail: the in-memory [`crate::Csr`] and the mmap-backed
//! [`crate::ingest::MappedCsr`] both implement the trait and produce
//! bit-identical traversal behaviour. The trait is where `Csr` answers its
//! queries too: code holding a concrete `Csr` imports `GraphView` (only
//! four of the methods have inherent twins, for callers without it).
//!
//! The trait is deliberately object-safe (`&dyn GraphView`,
//! `Arc<dyn GraphView>`): every method returns a concrete type. A backing
//! answers each query once, for a [`Direction`] it is given, because a CSR
//! holds the same two arrays per direction (Sec. II-B of the paper); the
//! `out_*` / `in_*` spellings are provided methods layered on those.
//! Dynamic dispatch is not a performance concern here — the apps make O(V)
//! trait calls per iteration and then iterate the returned adjacency slices
//! without further calls.

use crate::types::{Direction, EdgeWeight, VertexId};

/// A read-only CSR-shaped graph: dense vertex IDs `0..vertex_count`, sorted
/// adjacency slices in both directions, parallel weight slices.
///
/// Implementations must uphold the CSR invariants the engine relies on, in
/// each direction `dir`:
///
/// * `neighbors(v, dir)` is sorted ascending,
/// * `weights(v, dir).len() == neighbors(v, dir).len() == degree(v, dir)`,
/// * `edge_offset(v + 1, dir) - edge_offset(v, dir) == degree(v, dir)`
///   wherever `v + 1 < vertex_count`, and the degree sums equal
///   `edge_count`.
pub trait GraphView: std::fmt::Debug + Send + Sync {
    /// Number of vertices.
    fn vertex_count(&self) -> usize;

    /// Number of directed edges.
    fn edge_count(&self) -> u64;

    /// Degree of `v` in the requested direction.
    fn degree(&self, v: VertexId, dir: Direction) -> u64;

    /// Neighbours of `v` in the requested direction, sorted ascending.
    fn neighbors(&self, v: VertexId, dir: Direction) -> &[VertexId];

    /// Weights parallel to [`GraphView::neighbors`].
    fn weights(&self, v: VertexId, dir: Direction) -> &[EdgeWeight];

    /// Offset of vertex `v`'s first edge in the edge array for `dir` (the
    /// value the *Vertex Array* holds in the CSR encoding).
    fn edge_offset(&self, v: VertexId, dir: Direction) -> u64;

    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> u64 {
        self.degree(v, Direction::Out)
    }

    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> u64 {
        self.degree(v, Direction::In)
    }

    /// Out-neighbours of `v` (vertices `v` points to), sorted ascending.
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.neighbors(v, Direction::Out)
    }

    /// In-neighbours of `v` (vertices pointing to `v`), sorted ascending.
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.neighbors(v, Direction::In)
    }

    /// Weights parallel to [`GraphView::out_neighbors`].
    fn out_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.weights(v, Direction::Out)
    }

    /// Weights parallel to [`GraphView::in_neighbors`].
    fn in_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.weights(v, Direction::In)
    }

    /// All vertex IDs as a range (object-safe: `Range<VertexId>` is concrete).
    fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.vertex_count() as VertexId
    }

    /// Average degree (`edges / vertices`).
    fn average_degree(&self) -> f64 {
        self.edge_count() as f64 / self.vertex_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{csr_of, Csr};

    fn paper_example() -> Csr {
        csr_of([
            (3, 0),
            (2, 1),
            (0, 2),
            (5, 2),
            (1, 3),
            (5, 3),
            (4, 3),
            (5, 4),
            (2, 5),
        ])
    }

    #[test]
    fn trait_is_object_safe_and_matches_inherent_methods() {
        let g = paper_example();
        let view: &dyn GraphView = &g;
        assert_eq!(view.vertex_count(), g.vertex_count());
        assert_eq!(view.edge_count(), g.edge_count());
        for v in view.vertices() {
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(view.out_weights(v), g.out_weights(v));
            assert_eq!(view.in_weights(v), g.in_weights(v));
            assert_eq!(view.out_degree(v), g.out_degree(v));
            assert_eq!(view.in_degree(v), g.in_degree(v));
            for dir in [Direction::Out, Direction::In] {
                assert_eq!(view.edge_offset(v, dir), g.edge_offset(v, dir));
                assert_eq!(view.neighbors(v, dir), g.neighbors(v, dir));
                assert_eq!(view.degree(v, dir), g.degree(v, dir));
                assert_eq!(view.weights(v, dir), g.weights(v, dir));
            }
        }
        assert!((view.average_degree() - g.average_degree()).abs() < 1e-12);
    }

    #[test]
    fn arc_coercion_works() {
        let g: std::sync::Arc<dyn GraphView> = std::sync::Arc::new(paper_example());
        assert_eq!(g.vertex_count(), 6);
    }
}
