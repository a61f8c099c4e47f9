//! Compressed Sparse Row (CSR) graph representation.
//!
//! CSR encodes a graph with two arrays per direction (Sec. II-B of the
//! paper): the *Vertex Array* (called `offsets` here) stores, for every
//! vertex, the index of its first edge in the *Edge Array* (`targets`), which
//! stores neighbour IDs grouped by owning vertex. [`Csr`] keeps **both**
//! directions, as one two-element array of the same per-direction type, so
//! that pull- and push-based computations, as well as direction-switching
//! frameworks, can be expressed without re-building the graph.
//!
//! [`Csr`] answers graph queries through [`GraphView`]: its trait impl
//! answers each query once for the direction it is asked, and only
//! `vertex_count`, `edge_count`, `out_neighbors` and `out_weights` are
//! inherent as well, for callers without the trait in scope.

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
    pub(crate) fn from_edges(vertex_count: usize, edges: &[Edge], dir: Direction) -> Self {
        let use_src_as_owner = dir == Direction::Out;
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

    /// Where `v`'s edges sit in `targets` and `weights`.
    #[inline]
    fn edges(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
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
    /// The out- and in-edges, at their [`Direction::index`].
    directions: [CsrDirection; 2],
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
        let directions =
            Direction::BOTH.map(|dir| CsrDirection::from_edges(vertex_count, edges.edges(), dir));
        Ok(Self::from_directions(vertex_count, directions))
    }

    /// Assembles a graph from the two directions (out, then in) a builder in
    /// this crate has produced from the same checked edge list.
    pub(crate) fn from_directions(vertex_count: usize, directions: [CsrDirection; 2]) -> Self {
        debug_assert_eq!(directions[0].targets.len(), directions[1].targets.len());
        Self {
            vertex_count,
            edge_count: directions[0].targets.len() as u64,
            directions,
        }
    }

    #[inline]
    fn direction(&self, dir: Direction) -> &CsrDirection {
        &self.directions[dir.index()]
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
        self.neighbors(v, Direction::Out)
    }

    /// Weights parallel to [`Csr::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.weights(v, Direction::Out)
    }

    /// The raw column arrays of one direction: `(offsets, targets, weights)`.
    ///
    /// `offsets` has `vertex_count + 1` entries; `targets` and `weights` have
    /// `edge_count` entries each. This is the exact layout the on-disk binary
    /// CSR ([`crate::ingest`]) persists per direction.
    pub fn raw_columns(&self, dir: Direction) -> (&[u64], &[VertexId], &[EdgeWeight]) {
        let d = self.direction(dir);
        (&d.offsets, &d.targets, &d.weights)
    }

    /// Reassembles a CSR graph from one `(offsets, targets, weights)` per
    /// direction, out then in (the inverse of [`Csr::raw_columns`]),
    /// validating the CSR invariants of each.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] for a zero vertex count,
    /// [`GraphError::VertexOutOfBounds`] for a target out of range and
    /// [`GraphError::Format`] when column lengths disagree, or offsets are
    /// not monotone or do not start at 0 / end at `edge_count`.
    pub fn from_raw_columns(
        vertex_count: usize,
        edge_count: u64,
        columns: [(Vec<u64>, Vec<VertexId>, Vec<EdgeWeight>); 2],
    ) -> Result<Self> {
        if vertex_count == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let directions = columns.map(|(offsets, targets, weights)| CsrDirection {
            offsets,
            targets,
            weights,
        });
        for (dir, d) in Direction::BOTH.into_iter().zip(&directions) {
            if d.offsets.len() != vertex_count + 1 {
                return Err(GraphError::Format(format!(
                    "{dir} offsets column has {} entries, expected {}",
                    d.offsets.len(),
                    vertex_count + 1
                )));
            }
            if d.targets.len() as u64 != edge_count || d.weights.len() as u64 != edge_count {
                return Err(GraphError::Format(format!(
                    "{dir} edge columns have {}/{} entries, expected {edge_count}",
                    d.targets.len(),
                    d.weights.len()
                )));
            }
            check_direction(dir, &d.offsets, &d.targets)?;
        }
        Ok(Self {
            vertex_count,
            edge_count,
            directions,
        })
    }
}

/// The structural invariants of one CSR direction that every traversal
/// indexes by: `offsets` (one entry per vertex, plus one) rises from 0 to
/// `targets.len()` without decreasing, and every target names a vertex.
pub(crate) fn check_direction(dir: Direction, offsets: &[u64], targets: &[VertexId]) -> Result<()> {
    let (vertex_count, edge_count) = (offsets.len() - 1, targets.len() as u64);
    if offsets[0] != 0 || offsets[vertex_count] != edge_count {
        return Err(GraphError::Format(format!(
            "{dir} offsets must span 0..={edge_count}"
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Format(format!(
            "{dir} offsets are not monotone"
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
    fn degree(&self, v: VertexId, dir: Direction) -> u64 {
        let offsets = &self.direction(dir).offsets;
        offsets[v as usize + 1] - offsets[v as usize]
    }

    #[inline]
    fn neighbors(&self, v: VertexId, dir: Direction) -> &[VertexId] {
        let d = self.direction(dir);
        &d.targets[d.edges(v)]
    }

    #[inline]
    fn weights(&self, v: VertexId, dir: Direction) -> &[EdgeWeight] {
        let d = self.direction(dir);
        &d.weights[d.edges(v)]
    }

    #[inline]
    fn edge_offset(&self, v: VertexId, dir: Direction) -> u64 {
        self.direction(dir).offsets[v as usize]
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
    fn from_raw_columns_rejects_each_broken_invariant() {
        // Two vertices and the one edge 0 -> 1: (offsets, targets, weights)
        // out, then in. Each case breaks one invariant of that graph.
        type Columns = (Vec<u64>, Vec<VertexId>, Vec<EdgeWeight>);
        let good = || -> [Columns; 2] {
            [
                (vec![0, 1, 1], vec![1], vec![1]),
                (vec![0, 0, 1], vec![0], vec![1]),
            ]
        };
        let build =
            |vertex_count, columns: [Columns; 2]| Csr::from_raw_columns(vertex_count, 1, columns);
        assert_eq!(build(2, good()).unwrap(), csr_of([(0, 1)]));
        assert!(matches!(build(0, good()), Err(GraphError::EmptyGraph)));
        let broken = |edit: fn(&mut [Columns; 2])| {
            let mut columns = good();
            edit(&mut columns);
            build(2, columns).unwrap_err()
        };
        for (edit, message) in [
            (
                (|c| c[0].0.push(1)) as fn(&mut [Columns; 2]),
                "out offsets column has 4 entries, expected 3",
            ),
            (
                |c| c[1].1.push(0),
                "in edge columns have 2/1 entries, expected 1",
            ),
            (
                |c| c[0].2.clear(),
                "out edge columns have 1/0 entries, expected 1",
            ),
            (|c| c[1].0[2] = 0, "in offsets must span 0..=1"),
            (|c| c[0].0 = vec![0, 2, 1], "out offsets are not monotone"),
        ] {
            let error = broken(edit);
            assert!(
                matches!(&error, GraphError::Format(m) if m == message),
                "{error}"
            );
        }
        assert!(matches!(
            broken(|c| c[1].1[0] = 2),
            GraphError::VertexOutOfBounds {
                vertex: 2,
                vertex_count: 2
            }
        ));
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
