//! Compressed Sparse Row (CSR) graph representation.
//!
//! CSR encodes a graph with two arrays per direction (Sec. II-B of the
//! paper): the *Vertex Array* (called `offsets` here) stores, for every
//! vertex, the index of its first edge in the *Edge Array* (`targets`), which
//! stores neighbour IDs grouped by owning vertex. [`Csr`] keeps **both**
//! directions so that pull- and push-based computations, as well as
//! direction-switching frameworks, can be expressed without re-building the
//! graph.
//!
//! [`Csr`] answers graph queries through [`GraphView`]: its trait impl
//! holds the bodies, and only `vertex_count`, `edge_count`, `out_neighbors`
//! and `out_weights` are inherent as well (the trait's methods delegate to
//! them), for callers without the trait in scope.

use crate::edgelist::EdgeList;
use crate::types::{Direction, Edge, EdgeWeight, VertexId};
use crate::view::GraphView;
use crate::{GraphError, Result};

/// One direction (out- or in-edges) of a CSR graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CsrDirection {
    /// `offsets[v]..offsets[v+1]` is the slice of `targets` owned by `v`.
    pub offsets: Vec<u64>,
    /// Neighbour vertex IDs.
    pub targets: Vec<VertexId>,
    /// Edge weights, parallel to `targets`.
    pub weights: Vec<EdgeWeight>,
}

impl CsrDirection {
    /// One direction from a checked edge list: a stable counting sort by
    /// owner (every row receives its edges in list order), then each
    /// adjacency list sorted for deterministic traversal order and better
    /// binary-search behaviour.
    pub(crate) fn from_edges(vertex_count: usize, edges: &[Edge], use_src_as_owner: bool) -> Self {
        let mut offsets = vec![0u64; vertex_count + 1];
        for e in edges {
            let owner = if use_src_as_owner { e.src } else { e.dst };
            offsets[owner as usize + 1] += 1;
        }
        for v in 0..vertex_count {
            offsets[v + 1] += offsets[v];
        }
        let edge_total = offsets[vertex_count] as usize;
        let mut targets = vec![0 as VertexId; edge_total];
        let mut weights = vec![0 as EdgeWeight; edge_total];
        let mut cursor = offsets[..vertex_count].to_vec();
        for e in edges {
            let (owner, other) = if use_src_as_owner {
                (e.src, e.dst)
            } else {
                (e.dst, e.src)
            };
            let idx = cursor[owner as usize] as usize;
            targets[idx] = other;
            weights[idx] = e.weight;
            cursor[owner as usize] += 1;
        }
        let mut scratch = Vec::new();
        for v in 0..vertex_count {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            sort_adjacency(&mut targets[lo..hi], &mut weights[lo..hi], &mut scratch);
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    #[inline]
    fn neighbor_weights(&self, v: VertexId) -> &[EdgeWeight] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.weights[lo..hi]
    }
}

/// Sorts one adjacency list (parallel target/weight slices) by target.
///
/// This is the single canonical adjacency ordering used by every CSR builder
/// in the crate — [`Csr::from_edge_list`] and the parallel builder in
/// [`crate::ingest`] both funnel through it, which is what makes their
/// outputs bit-identical for the same scatter order.
///
/// A row whose targets already increase strictly is left alone: its keys are
/// unique, so every correct sort is the identity on it. Any other row goes
/// through `sort_unstable_by_key` on its pairs in their current order, which
/// fixes where equal targets (parallel edges) end up. `scratch` is the pair
/// buffer, kept by the caller across rows.
fn sort_adjacency(
    targets: &mut [VertexId],
    weights: &mut [EdgeWeight],
    scratch: &mut Vec<(VertexId, EdgeWeight)>,
) {
    if targets.windows(2).all(|pair| pair[0] < pair[1]) {
        return;
    }
    scratch.clear();
    scratch.extend(targets.iter().copied().zip(weights.iter().copied()));
    scratch.sort_unstable_by_key(|&(t, _)| t);
    for (k, &(t, w)) in scratch.iter().enumerate() {
        targets[k] = t;
        weights[k] = w;
    }
}

/// What every builder checks before it touches a row: a non-zero vertex
/// count that fits `usize`, and every endpoint inside it — reported for the
/// first offending edge in list order, `src` before `dst`.
pub(crate) fn checked_vertex_count(edges: &EdgeList) -> Result<usize> {
    let vertex_count = edges.vertex_count();
    if vertex_count == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let vertex_count_usize = usize::try_from(vertex_count)
        .map_err(|_| GraphError::Format("vertex count exceeds usize".into()))?;
    for e in edges.iter() {
        for v in [e.src, e.dst] {
            if u64::from(v) >= vertex_count {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: u64::from(v),
                    vertex_count,
                });
            }
        }
    }
    Ok(vertex_count_usize)
}

/// A directed graph in Compressed Sparse Row form, storing both out- and
/// in-edges.
///
/// ```
/// use grasp_graph::{Csr, EdgeList, GraphView};
///
/// let mut edges = EdgeList::new(6);
/// // The example graph of Fig. 1(a) in the paper.
/// for (s, d) in [(3, 0), (2, 1), (0, 2), (5, 2), (1, 3), (5, 3), (4, 3), (5, 4), (2, 5)] {
///     edges.push(s, d).unwrap();
/// }
/// let g = Csr::from_edge_list(&edges).unwrap();
/// assert_eq!(g.vertex_count(), 6);
/// assert_eq!(g.edge_count(), 9);
/// assert_eq!(g.in_degree(3), 3);
/// assert_eq!(g.out_degree(5), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Csr {
    vertex_count: usize,
    edge_count: u64,
    out: CsrDirection,
    inc: CsrDirection,
}

impl Csr {
    /// Builds a CSR graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if an edge endpoint exceeds
    /// the edge list's declared vertex count (only possible through
    /// unchecked construction paths) and [`GraphError::EmptyGraph`] if the
    /// vertex count is zero.
    pub fn from_edge_list(edges: &EdgeList) -> Result<Self> {
        let vertex_count = checked_vertex_count(edges)?;
        let out = CsrDirection::from_edges(vertex_count, edges.edges(), true);
        let inc = CsrDirection::from_edges(vertex_count, edges.edges(), false);
        Ok(Self::from_directions(vertex_count, out, inc))
    }

    /// Assembles a graph from two directions a builder in this crate has
    /// produced from the same checked edge list.
    pub(crate) fn from_directions(
        vertex_count: usize,
        out: CsrDirection,
        inc: CsrDirection,
    ) -> Self {
        debug_assert_eq!(out.targets.len(), inc.targets.len());
        Self {
            vertex_count,
            edge_count: out.targets.len() as u64,
            out,
            inc,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Out-neighbours of `v` (vertices `v` points to), sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Weights parallel to [`Csr::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.out.neighbor_weights(v)
    }

    /// Raw CSR column arrays for `dir`: `(offsets, targets, weights)`.
    ///
    /// `offsets` has `vertex_count + 1` entries; `targets` and `weights` have
    /// `edge_count` entries each. This is the exact layout the on-disk binary
    /// CSR ([`crate::ingest`]) persists per direction.
    pub fn raw_columns(&self, dir: Direction) -> (&[u64], &[VertexId], &[EdgeWeight]) {
        let d = match dir {
            Direction::Out => &self.out,
            Direction::In => &self.inc,
        };
        (&d.offsets, &d.targets, &d.weights)
    }

    /// Reassembles a CSR graph from raw column arrays (the inverse of
    /// [`Csr::raw_columns`]), validating the CSR invariants.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] for a zero vertex count and
    /// [`GraphError::Format`] when column lengths disagree, offsets are not
    /// monotone, do not start at 0 / end at `edge_count`, or a target is out
    /// of range.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_columns(
        vertex_count: usize,
        edge_count: u64,
        out_offsets: Vec<u64>,
        out_targets: Vec<VertexId>,
        out_weights: Vec<EdgeWeight>,
        in_offsets: Vec<u64>,
        in_targets: Vec<VertexId>,
        in_weights: Vec<EdgeWeight>,
    ) -> Result<Self> {
        if vertex_count == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let out = CsrDirection {
            offsets: out_offsets,
            targets: out_targets,
            weights: out_weights,
        };
        let inc = CsrDirection {
            offsets: in_offsets,
            targets: in_targets,
            weights: in_weights,
        };
        for (name, d) in [("out", &out), ("in", &inc)] {
            if d.offsets.len() != vertex_count + 1 {
                return Err(GraphError::Format(format!(
                    "{name} offsets column has {} entries, expected {}",
                    d.offsets.len(),
                    vertex_count + 1
                )));
            }
            if d.targets.len() as u64 != edge_count || d.weights.len() as u64 != edge_count {
                return Err(GraphError::Format(format!(
                    "{name} edge columns have {}/{} entries, expected {edge_count}",
                    d.targets.len(),
                    d.weights.len()
                )));
            }
            check_direction(name, &d.offsets, &d.targets)?;
        }
        Ok(Self {
            vertex_count,
            edge_count,
            out,
            inc,
        })
    }
}

/// The structural invariants of one CSR direction that every traversal
/// indexes by: `offsets` (one entry per vertex, plus one) rises from 0 to
/// `targets.len()` without decreasing, and every target names a vertex.
pub(crate) fn check_direction(name: &str, offsets: &[u64], targets: &[VertexId]) -> Result<()> {
    let (vertex_count, edge_count) = (offsets.len() - 1, targets.len() as u64);
    if offsets[0] != 0 || offsets[vertex_count] != edge_count {
        return Err(GraphError::Format(format!(
            "{name} offsets must span 0..={edge_count}"
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Format(format!(
            "{name} offsets are not monotone"
        )));
    }
    match targets.iter().find(|&&t| t as usize >= vertex_count) {
        Some(&bad) => Err(GraphError::VertexOutOfBounds {
            vertex: u64::from(bad),
            vertex_count: vertex_count as u64,
        }),
        None => Ok(()),
    }
}

impl GraphView for Csr {
    #[inline]
    fn vertex_count(&self) -> usize {
        Csr::vertex_count(self)
    }

    #[inline]
    fn edge_count(&self) -> u64 {
        Csr::edge_count(self)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> u64 {
        self.out.degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> u64 {
        self.inc.degree(v)
    }

    #[inline]
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        Csr::out_neighbors(self, v)
    }

    #[inline]
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inc.neighbors(v)
    }

    #[inline]
    fn out_weights(&self, v: VertexId) -> &[EdgeWeight] {
        Csr::out_weights(self, v)
    }

    #[inline]
    fn in_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.inc.neighbor_weights(v)
    }

    #[inline]
    fn out_edge_offset(&self, v: VertexId) -> u64 {
        self.out.offsets[v as usize]
    }

    #[inline]
    fn in_edge_offset(&self, v: VertexId) -> u64 {
        self.inc.offsets[v as usize]
    }
}

/// A test graph from `(src, dst)` pairs over `max(endpoint) + 1` vertices.
#[cfg(test)]
pub(crate) fn csr_of(pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Csr {
    Csr::from_edge_list(&pairs.into_iter().map(Edge::from).collect()).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example graph of Fig. 1(a): edges are (src -> dst).
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
    fn paper_example_degrees() {
        let g = paper_example();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 9);
        // In-degrees follow the Vertex Array of Fig. 1(b): 1,1,2,3,1,1.
        let in_degrees: Vec<u64> = g.vertices().map(|v| g.in_degree(v)).collect();
        assert_eq!(in_degrees, vec![1, 1, 2, 3, 1, 1]);
        // Out-degrees: vertex 5 is the hub with 3 out-edges.
        assert_eq!(g.out_degree(5), 3);
        assert_eq!(g.out_degree(2), 2);
    }

    #[test]
    fn in_neighbors_match_paper_edge_array() {
        let g = paper_example();
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.in_neighbors(1), &[2]);
        assert_eq!(g.in_neighbors(2), &[0, 5]);
        assert_eq!(g.in_neighbors(3), &[1, 4, 5]);
        assert_eq!(g.in_neighbors(4), &[5]);
        assert_eq!(g.in_neighbors(5), &[2]);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let el = EdgeList::new(0);
        assert!(matches!(
            Csr::from_edge_list(&el),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn isolated_vertices_are_preserved() {
        let mut el = EdgeList::new(10);
        el.push(0, 1).unwrap();
        let g = Csr::from_edge_list(&el).unwrap();
        assert_eq!(g.vertex_count(), 10);
        assert_eq!(g.out_degree(9), 0);
        assert_eq!(g.out_neighbors(9), &[] as &[VertexId]);
    }

    #[test]
    fn transpose_swaps_directions() {
        // The reversed edge list builds the transposed graph.
        let g = paper_example();
        let mut reversed = EdgeList::new(g.vertex_count() as u64);
        for src in g.vertices() {
            for (&dst, &weight) in g.out_neighbors(src).iter().zip(g.out_weights(src)) {
                reversed.push_weighted(dst, src, weight).unwrap();
            }
        }
        let t = Csr::from_edge_list(&reversed).unwrap();
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), t.in_neighbors(v));
            assert_eq!(g.in_neighbors(v), t.out_neighbors(v));
        }
        assert_eq!(g.edge_count(), t.edge_count());
    }

    #[test]
    fn edge_iterator_covers_every_edge() {
        let g = paper_example();
        let edges: Vec<(u32, u32, u32)> = g
            .vertices()
            .flat_map(|v| {
                let targets = g.out_neighbors(v).iter().zip(g.out_weights(v));
                targets.map(move |(&d, &w)| (v, d, w))
            })
            .collect();
        assert_eq!(edges.len() as u64, g.edge_count());
        assert!(edges.contains(&(5, 3, 1)));
        assert!(edges.contains(&(3, 0, 1)));
    }

    #[test]
    fn has_edge_uses_sorted_adjacency() {
        let g = paper_example();
        assert!(g.out_neighbors(5).windows(2).all(|w| w[0] <= w[1]));
        assert!(g.out_neighbors(5).contains(&2));
        assert!(g.out_neighbors(5).contains(&3));
        assert!(g.out_neighbors(5).contains(&4));
        assert!(!g.out_neighbors(5).contains(&0));
        assert!(!g.out_neighbors(0).contains(&5));
    }

    #[test]
    fn weights_round_trip() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10).unwrap();
        el.push_weighted(0, 2, 20).unwrap();
        el.push_weighted(1, 2, 30).unwrap();
        let g = Csr::from_edge_list(&el).unwrap();
        assert_eq!(g.out_weights(0), &[10, 20]);
        assert_eq!(g.in_weights(2), &[20, 30]);
    }

    #[test]
    fn average_degree() {
        let g = paper_example();
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degree_sum_equals_edge_count() {
        let g = paper_example();
        let out_sum: u64 = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: u64 = g.vertices().map(|v| g.in_degree(v)).sum();
        assert_eq!(out_sum, g.edge_count());
        assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn direction_selector_is_consistent() {
        let g = paper_example();
        for v in g.vertices() {
            assert_eq!(g.neighbors(v, Direction::Out), g.out_neighbors(v));
            assert_eq!(g.neighbors(v, Direction::In), g.in_neighbors(v));
            assert_eq!(g.degree(v, Direction::Out), g.out_degree(v));
            assert_eq!(g.degree(v, Direction::In), g.in_degree(v));
            assert_eq!(g.weights(v, Direction::Out), g.out_weights(v));
            assert_eq!(g.weights(v, Direction::In), g.in_weights(v));
        }
    }

    #[test]
    fn edge_offsets_are_monotone() {
        let g = paper_example();
        for dir in [Direction::Out, Direction::In] {
            let mut prev = 0;
            for v in g.vertices() {
                let off = g.edge_offset(v, dir);
                assert!(off >= prev);
                prev = off;
            }
        }
    }
}
