//! Engine helpers: CSR structural arrays and push/pull direction selection.
//!
//! The applications model every structural access themselves (they own the
//! traversal loops), but the bookkeeping they share lives here: allocating the
//! CSR Vertex/Edge arrays and the frontier bitmap in the simulated address
//! space, and Ligra's push/pull direction-switching heuristic.

use crate::frontier::Frontier;
use crate::layout::ArrayHandle;
use crate::mem::MemoryModel;
use crate::sites;
use crate::workspace::Workspace;
use grasp_cachesim::request::RegionLabel;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

/// Handles of the structural arrays of a CSR graph placed in the simulated
/// address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrArrays {
    /// The Vertex Array (per-vertex offsets, 8 bytes each).
    pub vertex_array: ArrayHandle,
    /// The Edge Array (neighbour IDs, 4 bytes each for unweighted graphs,
    /// 8 bytes when weights are carried).
    pub edge_array: ArrayHandle,
    /// The frontier membership bitmap (8 bytes per vertex; see
    /// [`CsrArrays::allocate`]).
    pub frontier_bitmap: ArrayHandle,
}

impl CsrArrays {
    /// Allocates the structural arrays for `graph`.
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
    pub fn allocate<M: MemoryModel>(
        ws: &mut Workspace<M>,
        graph: &dyn GraphView,
        weighted: bool,
    ) -> Self {
        let n = graph.vertex_count() as u64;
        let m = graph.edge_count();
        let edge_bytes = if weighted { 8 } else { 4 };
        Self {
            vertex_array: ws.allocate("vertex_array", RegionLabel::VertexArray, n + 1, 8),
            edge_array: ws.allocate("edge_array", RegionLabel::EdgeArray, m.max(1), edge_bytes),
            frontier_bitmap: ws.allocate("frontier", RegionLabel::Frontier, n, 8),
        }
    }

    /// Models the Vertex Array read for vertex `v` (the offset lookup at the
    /// start of processing a vertex).
    #[inline]
    pub fn read_vertex<M: MemoryModel>(&self, ws: &mut Workspace<M>, v: VertexId) {
        ws.read(self.vertex_array, u64::from(v), sites::VERTEX_ARRAY);
    }

    /// Models the Edge Array read for global edge index `edge_idx`.
    #[inline]
    pub fn read_edge<M: MemoryModel>(&self, ws: &mut Workspace<M>, edge_idx: u64) {
        ws.read(self.edge_array, edge_idx, sites::EDGE_ARRAY);
    }

    /// Models a frontier-bitmap read for vertex `v`.
    #[inline]
    pub fn read_frontier<M: MemoryModel>(&self, ws: &mut Workspace<M>, v: VertexId) {
        ws.read(self.frontier_bitmap, u64::from(v), sites::FRONTIER);
    }

    /// Models a frontier-bitmap write for vertex `v`.
    #[inline]
    pub fn write_frontier<M: MemoryModel>(&self, ws: &mut Workspace<M>, v: VertexId) {
        ws.write(self.frontier_bitmap, u64::from(v), sites::FRONTIER);
    }

    /// Activates `v` for the next round: models the frontier-bitmap write
    /// and records the membership in `next`. One call site for the
    /// (write, add) pair every application emits, so each app contributes
    /// the identical access sequence to the recording.
    #[inline]
    pub fn activate<M: MemoryModel>(
        &self,
        ws: &mut Workspace<M>,
        next: &mut Frontier,
        v: VertexId,
    ) {
        self.write_frontier(ws, v);
        next.add(v);
    }
}

/// Ligra's direction-switching heuristic: traverse in the pull (dense)
/// direction when the frontier's outgoing work exceeds `edges / 20`,
/// otherwise push (sparse).
pub fn choose_direction(graph: &dyn GraphView, frontier: &Frontier) -> Direction {
    let threshold = graph.edge_count() / 20;
    if frontier.out_degree_sum(graph) + frontier.len() as u64 > threshold {
        Direction::In // dense: every vertex pulls from its in-neighbours
    } else {
        Direction::Out // sparse: frontier vertices push to their out-neighbours
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
        let arrays = CsrArrays::allocate(&mut ws, &g, false);
        let space = ws.address_space();
        assert_eq!(
            space.region(arrays.vertex_array).elements,
            g.vertex_count() as u64 + 1
        );
        assert_eq!(space.region(arrays.edge_array).elements, g.edge_count());
        assert_eq!(space.region(arrays.edge_array).element_bytes, 4);
        assert_eq!(space.region(arrays.frontier_bitmap).element_bytes, 8);
    }

    #[test]
    fn weighted_edge_array_is_wider() {
        let g = Rmat::new(6, 4).generate(1);
        let mut ws = Workspace::new(NativeMemory);
        let arrays = CsrArrays::allocate(&mut ws, &g, true);
        assert_eq!(
            ws.address_space().region(arrays.edge_array).element_bytes,
            8
        );
    }

    #[test]
    fn structural_reads_are_reported() {
        let g = Rmat::new(6, 4).generate(1);
        let mut ws = Workspace::new(AccessLog::default());
        let arrays = CsrArrays::allocate(&mut ws, &g, false);
        arrays.read_vertex(&mut ws, 2);
        arrays.read_edge(&mut ws, 3);
        arrays.read_frontier(&mut ws, 4);
        arrays.write_frontier(&mut ws, 5);
        let base = |h| ws.address_space().region(h).base;
        let (vertex, edge, frontier) = (
            base(arrays.vertex_array),
            base(arrays.edge_array),
            base(arrays.frontier_bitmap),
        );
        let (read, write) = (AccessKind::Read, AccessKind::Write);
        assert_eq!(
            ws.into_memory().0,
            [
                (
                    vertex + 16,
                    read,
                    sites::VERTEX_ARRAY,
                    RegionLabel::VertexArray
                ),
                (edge + 12, read, sites::EDGE_ARRAY, RegionLabel::EdgeArray),
                (frontier + 32, read, sites::FRONTIER, RegionLabel::Frontier),
                (frontier + 40, write, sites::FRONTIER, RegionLabel::Frontier),
            ]
        );
    }

    #[test]
    fn activate_writes_the_bitmap_and_joins_the_frontier() {
        let g = Rmat::new(6, 4).generate(1);
        let mut ws = Workspace::new(AccessLog::default());
        let arrays = CsrArrays::allocate(&mut ws, &g, false);
        let mut next = Frontier::empty(g.vertex_count());
        arrays.activate(&mut ws, &mut next, 3);
        arrays.activate(&mut ws, &mut next, 3);
        let store = (
            ws.address_space().region(arrays.frontier_bitmap).base + 24,
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
        let small = Frontier::single(g.vertex_count(), 0);
        let large = Frontier::full(g.vertex_count());
        assert_eq!(choose_direction(&g, &small), Direction::Out);
        assert_eq!(choose_direction(&g, &large), Direction::In);
    }
}
