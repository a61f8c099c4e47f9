//! The traversal engine: what every application models about walking a
//! graph.
//!
//! Each application owns its round and vertex loops, but the structural
//! traffic of a traversal is modelled here and nowhere else: the Vertex
//! Array read of a visited vertex, the Edge Array read of every scanned
//! edge, the frontier read of a neighbour whose membership a pull checks,
//! and the frontier write that activates a vertex. The engine also counts
//! the scanned edges and holds Ligra's push/pull switch, so an application's
//! per-edge closure says only what that edge does to its Property Arrays.

use crate::apps::AppResult;
use crate::frontier::Frontier;
use crate::layout::ArrayHandle;
use crate::mem::MemoryModel;
use crate::props::{FieldId, PropertyLayout, PropertySet};
use crate::sites;
use crate::workspace::Workspace;
use grasp_cachesim::request::AccessKind::{Read, Write};
use grasp_cachesim::request::{AccessSite, RegionLabel};
use grasp_graph::types::{Direction, EdgeWeight, VertexId};
use grasp_graph::GraphView;

/// What a per-edge closure of [`Engine::scan`] returns: `()` to go on to the
/// next edge, or a `bool` that ends the scan after this edge when `true`.
pub trait Stop {
    /// Whether the scan ends after this edge.
    fn stop(self) -> bool;
}

impl Stop for () {
    fn stop(self) -> bool {
        false
    }
}

impl Stop for bool {
    fn stop(self) -> bool {
        self
    }
}

/// One application's traversal of `graph`: its structural arrays and
/// Property Arrays placed in a workspace, and the edges scanned so far.
#[derive(Debug)]
pub struct Engine<'a, M> {
    graph: &'a dyn GraphView,
    ws: &'a mut Workspace<M>,
    /// The Vertex Array (per-vertex offsets, 8 bytes each).
    vertex_array: ArrayHandle,
    /// The Edge Array (neighbour IDs, 4 bytes each, 8 with weights).
    edge_array: ArrayHandle,
    /// The frontier membership bitmap (8 bytes per vertex; see
    /// [`Engine::new`]).
    frontier: ArrayHandle,
    props: PropertySet,
    edges: u64,
}

impl<'a, M: MemoryModel> Engine<'a, M> {
    /// Places `graph`'s Vertex Array, Edge Array (8-byte elements when the
    /// application reads `weighted` edges) and frontier in `ws`, then one
    /// Property Array field per entry of `fields` (its bytes) laid out as
    /// `layout`, and programs the GRASP Address Bound Registers with the
    /// Property Arrays' bounds.
    ///
    /// The frontier is modelled with 8-byte elements rather than Ligra's
    /// 1-byte booleans: because the reproduction scales the vertex count down
    /// by ~1000x but keeps the cache-block size fixed, a byte-per-vertex
    /// frontier would suddenly fit in the scaled LLC, which never happens at
    /// paper scale (62 MB frontier vs a 16 MB LLC, ≈ 4 : 1). The 8-byte
    /// element gives frontier : LLC = 1 : 2 at `Scale::Tiny` (2^11 vertices,
    /// 16 KiB against 32 KiB) and 4 : 1 at `Scale::Small` (2^15, 256 KiB
    /// against 64 KiB). It also makes the frontier as large as one 8-byte
    /// property field (1 : 1), where the paper's 1-byte frontier and 8-byte
    /// property give 1 : 8.
    pub fn new(
        graph: &'a dyn GraphView,
        ws: &'a mut Workspace<M>,
        weighted: bool,
        fields: &[u64],
        layout: PropertyLayout,
    ) -> Self {
        let n = graph.vertex_count() as u64;
        let edge_bytes = if weighted { 8 } else { 4 };
        let vertex_array = ws.allocate(RegionLabel::VertexArray, n + 1, 8);
        let edge_array = ws.allocate(
            RegionLabel::EdgeArray,
            graph.edge_count().max(1),
            edge_bytes,
        );
        let frontier = ws.allocate(RegionLabel::Frontier, n, 8);
        let props = PropertySet::allocate(ws, n, fields, layout);
        props.program_abrs(ws);
        Self {
            graph,
            ws,
            vertex_array,
            edge_array,
            frontier,
            props,
            edges: 0,
        }
    }

    /// The application's result: its `values` after `iterations` rounds, and
    /// the edges this traversal scanned.
    pub fn finish(self, app: &'static str, values: Vec<f64>, iterations: usize) -> AppResult {
        let edges_processed = self.edges;
        AppResult {
            app,
            values,
            iterations,
            edges_processed,
        }
    }

    /// Models the Vertex Array read that starts processing `v`.
    #[inline]
    pub fn visit(&mut self, v: VertexId) {
        let v = u64::from(v);
        self.ws
            .touch(self.vertex_array, v, 0, Read, sites::VERTEX_ARRAY);
    }

    /// Scans `v`'s edges in direction `dir`: for each, models the Edge Array
    /// read, then the frontier read of the neighbour when `check` is set,
    /// counts the edge, and calls `edge` with the neighbour and the edge's
    /// weight. The scan ends early when `edge` returns `true`.
    #[inline]
    pub fn scan<R: Stop>(
        &mut self,
        v: VertexId,
        dir: Direction,
        check: bool,
        mut edge: impl FnMut(&mut Self, VertexId, EdgeWeight) -> R,
    ) {
        let graph = self.graph;
        let first = graph.edge_offset(v, dir);
        let neighbors = graph.neighbors(v, dir).iter().zip(graph.weights(v, dir));
        for (index, (&u, &weight)) in (first..).zip(neighbors) {
            self.ws
                .touch(self.edge_array, index, 0, Read, sites::EDGE_ARRAY);
            if check {
                self.ws
                    .touch(self.frontier, u64::from(u), 0, Read, sites::FRONTIER);
            }
            self.edges += 1;
            if edge(self, u, weight).stop() {
                break;
            }
        }
    }

    /// Activates `v` for the next round: models the frontier write and adds
    /// `v` to `next`. Re-activating a member models the store again (the
    /// program performs it) though membership dedups.
    #[inline]
    pub fn activate(&mut self, next: &mut Frontier, v: VertexId) {
        self.ws
            .touch(self.frontier, u64::from(v), 0, Write, sites::FRONTIER);
        next.add(v);
    }

    /// Ligra's direction switch: pull (`In`, dense) when the frontier's
    /// outgoing work exceeds `edges / 20`, otherwise push (`Out`, sparse).
    pub fn direction(&self, frontier: &Frontier) -> Direction {
        let work = frontier.out_degree_sum(self.graph) + frontier.len() as u64;
        if work > self.graph.edge_count() / 20 {
            Direction::In
        } else {
            Direction::Out
        }
    }

    /// Models a read of `field` of vertex `v`.
    #[inline]
    pub fn read(&mut self, field: FieldId, v: VertexId, site: AccessSite) {
        self.props.touch(self.ws, field, v, Read, site);
    }

    /// Models a write of `field` of vertex `v`.
    #[inline]
    pub fn write(&mut self, field: FieldId, v: VertexId, site: AccessSite) {
        self.props.touch(self.ws, field, v, Write, site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{AccessLog, NativeMemory};
    use grasp_cachesim::request::AccessKind;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    #[test]
    fn arrays_are_allocated_with_the_right_sizes() {
        let g = Rmat::new(8, 4).generate(1);
        let mut ws = Workspace::new(NativeMemory);
        let eng = Engine::new(&g, &mut ws, false, &[8], PropertyLayout::Merged);
        let (vertex, edge, frontier) = (eng.vertex_array, eng.edge_array, eng.frontier);
        let space = ws.address_space();
        assert_eq!(space.region(vertex).elements, g.vertex_count() as u64 + 1);
        assert_eq!(space.region(edge).elements, g.edge_count());
        assert_eq!(space.region(edge).element_bytes, 4);
        assert_eq!(space.region(frontier).element_bytes, 8);
    }

    #[test]
    fn weighted_edge_array_is_wider() {
        let g = Rmat::new(6, 4).generate(1);
        let mut ws = Workspace::new(NativeMemory);
        let edge = Engine::new(&g, &mut ws, true, &[8], PropertyLayout::Merged).edge_array;
        assert_eq!(ws.address_space().region(edge).element_bytes, 8);
    }

    #[test]
    fn structural_reads_are_reported() {
        let g = crate::csr_of([(0, 2), (1, 2), (2, 0), (2, 1)]);
        let mut ws = Workspace::new(AccessLog::default());
        let mut eng = Engine::new(&g, &mut ws, false, &[8], PropertyLayout::Merged);
        let (vertex, edge, frontier) = (eng.vertex_array, eng.edge_array, eng.frontier);
        eng.visit(2);
        // Vertex 2's in-edges sit at 2 and 3 of the in Edge Array, its
        // out-edges at 2 and 3 of the out one.
        let mut seen = Vec::new();
        eng.scan(2, Direction::In, true, |eng, u, _| {
            seen.push(u);
            eng.read(0, u, sites::PROPERTY_GATHER);
        });
        eng.scan(2, Direction::Out, false, |_, u, _| {
            seen.push(u);
            true
        });
        assert_eq!(seen, [0, 1, 0], "the second scan stops after one edge");
        assert_eq!(eng.edges, 3);
        let base = |h| ws.address_space().region(h).base;
        let (vertex, edge, frontier) = (base(vertex), base(edge), base(frontier));
        let (read, gather) = (AccessKind::Read, sites::PROPERTY_GATHER);
        let log = ws.into_memory();
        let property = log.1[0].0;
        assert_eq!(
            log.0,
            [
                (
                    vertex + 16,
                    read,
                    sites::VERTEX_ARRAY,
                    RegionLabel::VertexArray
                ),
                (edge + 8, read, sites::EDGE_ARRAY, RegionLabel::EdgeArray),
                (frontier, read, sites::FRONTIER, RegionLabel::Frontier),
                (property, read, gather, RegionLabel::Property),
                (edge + 12, read, sites::EDGE_ARRAY, RegionLabel::EdgeArray),
                (frontier + 8, read, sites::FRONTIER, RegionLabel::Frontier),
                (property + 8, read, gather, RegionLabel::Property),
                (edge + 8, read, sites::EDGE_ARRAY, RegionLabel::EdgeArray),
            ]
        );
    }

    #[test]
    fn activate_writes_the_bitmap_and_joins_the_frontier() {
        let g = Rmat::new(6, 4).generate(1);
        let mut ws = Workspace::new(AccessLog::default());
        let mut eng = Engine::new(&g, &mut ws, false, &[8], PropertyLayout::Merged);
        let frontier = eng.frontier;
        let mut next = Frontier::empty(g.vertex_count());
        eng.activate(&mut next, 3);
        eng.activate(&mut next, 3);
        let store = (
            ws.address_space().region(frontier).base + 24,
            AccessKind::Write,
            sites::FRONTIER,
            RegionLabel::Frontier,
        );
        // Re-activation models the store again (the program performs it)
        // even though membership dedups.
        assert_eq!(ws.into_memory().0, [store, store]);
        assert_eq!(next.len(), 1);
        assert!(next.contains(3));
    }

    #[test]
    fn direction_switching_follows_frontier_size() {
        let g = Rmat::new(10, 8).generate(3);
        let mut ws = Workspace::new(NativeMemory);
        let eng = Engine::new(&g, &mut ws, false, &[8], PropertyLayout::Merged);
        let small = Frontier::single(g.vertex_count(), 0);
        let large = Frontier::full(g.vertex_count());
        assert_eq!(eng.direction(&small), Direction::Out);
        assert_eq!(eng.direction(&large), Direction::In);
    }
}
