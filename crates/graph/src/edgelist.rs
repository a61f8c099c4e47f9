//! Mutable edge-list staging container.
//!
//! Generators and I/O produce an [`EdgeList`]; the [`crate::Csr`] builder
//! consumes it. The edge list keeps track of the declared vertex count so that
//! isolated (degree-zero) vertices at the tail of the ID space are preserved —
//! power-law graphs have many of them and they matter for footprint
//! calculations.

use crate::types::{Edge, EdgeWeight, VertexId};
use crate::{GraphError, Result};

/// A list of directed edges together with a vertex count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    vertex_count: u64,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty edge list over `vertex_count` vertices.
    pub fn new(vertex_count: u64) -> Self {
        Self {
            vertex_count,
            edges: Vec::new(),
        }
    }

    /// Creates an edge list with pre-allocated capacity for `edge_capacity` edges.
    pub fn with_capacity(vertex_count: u64, edge_capacity: usize) -> Self {
        Self {
            vertex_count,
            edges: Vec::with_capacity(edge_capacity),
        }
    }

    /// Adopts `edges` as they are, without the per-edge bounds check of
    /// [`EdgeList::push_edge`]: the text parser derives `vertex_count` from
    /// the largest endpoint it saw, and the CSR builders check every
    /// endpoint again in any case.
    pub(crate) fn from_parts(vertex_count: u64, edges: Vec<Edge>) -> Self {
        Self {
            vertex_count,
            edges,
        }
    }

    /// Number of vertices (including isolated vertices).
    pub fn vertex_count(&self) -> u64 {
        self.vertex_count
    }

    /// Number of edges currently in the list.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Borrowed view of the edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an unweighted edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if either endpoint is outside
    /// the declared vertex range.
    pub fn push(&mut self, src: VertexId, dst: VertexId) -> Result<()> {
        self.push_edge(Edge::new(src, dst))
    }

    /// Adds a weighted edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if either endpoint is outside
    /// the declared vertex range.
    pub fn push_weighted(
        &mut self,
        src: VertexId,
        dst: VertexId,
        weight: EdgeWeight,
    ) -> Result<()> {
        self.push_edge(Edge::weighted(src, dst, weight))
    }

    /// Adds an [`Edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if either endpoint is outside
    /// the declared vertex range.
    pub fn push_edge(&mut self, edge: Edge) -> Result<()> {
        for v in [edge.src, edge.dst] {
            if u64::from(v) >= self.vertex_count {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: u64::from(v),
                    vertex_count: self.vertex_count,
                });
            }
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Adds an edge without bounds checking; used by generators that construct
    /// endpoints from the vertex count and therefore cannot go out of range.
    pub(crate) fn push_unchecked(&mut self, edge: Edge) {
        debug_assert!(u64::from(edge.src) < self.vertex_count);
        debug_assert!(u64::from(edge.dst) < self.vertex_count);
        self.edges.push(edge);
    }

    /// Removes self-loops (`src == dst`).
    pub fn remove_self_loops(&mut self) {
        self.edges.retain(|e| e.src != e.dst);
    }

    /// Sorts edges by `(src, dst)` and removes exact duplicates
    /// (keeping the first occurrence's weight).
    pub fn sort_and_dedup(&mut self) {
        self.edges.sort_unstable_by_key(|e| (e.src, e.dst));
        self.edges.dedup_by_key(|e| (e.src, e.dst));
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }
}

impl FromIterator<Edge> for EdgeList {
    /// Builds an edge list from an edge iterator; the vertex count is set to
    /// `max(endpoint) + 1`.
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        let edges: Vec<Edge> = iter.into_iter().collect();
        let vertex_count = edges
            .iter()
            .map(|e| u64::from(e.src.max(e.dst)) + 1)
            .max()
            .unwrap_or(0);
        Self {
            vertex_count,
            edges,
        }
    }
}

impl Extend<Edge> for EdgeList {
    fn extend<I: IntoIterator<Item = Edge>>(&mut self, iter: I) {
        for e in iter {
            let needed = u64::from(e.src.max(e.dst)) + 1;
            if needed > self.vertex_count {
                self.vertex_count = needed;
            }
            self.edges.push(e);
        }
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl IntoIterator for EdgeList {
    type Item = Edge;
    type IntoIter = std::vec::IntoIter<Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_respects_bounds() {
        let mut el = EdgeList::new(4);
        assert!(el.push(0, 3).is_ok());
        assert!(matches!(
            el.push(0, 4),
            Err(GraphError::VertexOutOfBounds { vertex: 4, .. })
        ));
        assert!(matches!(
            el.push(9, 1),
            Err(GraphError::VertexOutOfBounds { vertex: 9, .. })
        ));
        assert_eq!(el.edge_count(), 1);
    }

    #[test]
    fn sort_and_dedup_removes_duplicates() {
        let mut el = EdgeList::new(5);
        el.push(2, 1).unwrap();
        el.push(0, 1).unwrap();
        el.push(2, 1).unwrap();
        el.push(0, 1).unwrap();
        el.sort_and_dedup();
        assert_eq!(el.edge_count(), 2);
        assert_eq!(el.edges()[0], Edge::new(0, 1));
        assert_eq!(el.edges()[1], Edge::new(2, 1));
    }

    #[test]
    fn remove_self_loops() {
        let mut el = EdgeList::new(3);
        el.push(0, 0).unwrap();
        el.push(0, 1).unwrap();
        el.push(2, 2).unwrap();
        el.remove_self_loops();
        assert_eq!(el.edge_count(), 1);
    }

    #[test]
    fn from_iterator_derives_vertex_count() {
        let el: EdgeList = [Edge::new(0, 5), Edge::new(2, 3)].into_iter().collect();
        assert_eq!(el.vertex_count(), 6);
        assert_eq!(el.edge_count(), 2);
    }

    #[test]
    fn from_empty_iterator() {
        let el: EdgeList = std::iter::empty::<Edge>().collect();
        assert_eq!(el.vertex_count(), 0);
        assert_eq!(el.edge_count(), 0);
    }

    #[test]
    fn extend_grows_vertex_count() {
        let mut el = EdgeList::new(2);
        el.extend([Edge::new(0, 1), Edge::new(4, 2)]);
        assert_eq!(el.vertex_count(), 5);
        assert_eq!(el.edge_count(), 2);
    }

    #[test]
    fn weighted_edges_keep_weight() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 7).unwrap();
        assert_eq!(el.edges()[0].weight, 7);
    }

    #[test]
    fn into_iterator_yields_all_edges() {
        let mut el = EdgeList::new(3);
        el.push(0, 1).unwrap();
        el.push(1, 2).unwrap();
        let owned: Vec<Edge> = el.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        let borrowed: Vec<&Edge> = (&el).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }
}
