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
//!
//! The engine places the arrays too. It lays the Vertex Array, the Edge
//! Array, the frontier and the Property Array(s) out in a simulated virtual
//! address space, so the cache simulator sees a realistic address stream,
//! and programs the GRASP Address Bound Registers with the Property Arrays'
//! bounds, as the application's software does in the paper (Sec. III-A).

use crate::apps::AppResult;
use crate::frontier::Frontier;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_cachesim::addr::Address;
use grasp_cachesim::request::AccessKind::{self, Read, Write};
use grasp_cachesim::request::{AccessSite, RegionLabel};
use grasp_graph::types::{Direction, EdgeWeight, VertexId};
use grasp_graph::GraphView;

/// How multiple per-vertex fields are laid out in memory.
///
/// An application may keep several per-vertex quantities (e.g. PageRank
/// keeps the previous and the current rank). The paper's data-structure
/// optimization (Sec. IV-A, Table IV) *merges* such arrays so that all fields
/// of one vertex share a cache block; the Table IV experiment runs both
/// layouts to quantify the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PropertyLayout {
    /// One array per field (the original Ligra layout).
    Separate,
    /// A single array of structs: all fields of a vertex are adjacent
    /// (the optimized layout of Table IV).
    #[default]
    Merged,
}

/// Index of one property field: its position in the field sizes given to
/// [`Engine::new`].
pub type FieldId = usize;

/// Address of the first array placed. Chosen away from zero so address zero
/// never aliases with real data.
const HEAP_BASE: Address = 0x1000_0000;

/// Every array starts on a page of its own, so distinct arrays never share a
/// cache block.
const PAGE: u64 = 4096;

/// One placed array: where its element 0 starts, its element size, and the
/// region label every access to it carries.
#[derive(Debug, Clone, Copy)]
struct Array {
    base: Address,
    element_bytes: u64,
    label: RegionLabel,
}

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

/// One application's traversal of `graph`: where its structural arrays and
/// Property Arrays lie, the memory model every access goes to, and the edges
/// scanned so far.
#[derive(Debug)]
pub struct Engine<'a, M> {
    graph: &'a dyn GraphView,
    mem: &'a mut M,
    /// The Vertex Array (per-vertex offsets, 8 bytes each).
    vertex_array: Array,
    /// The Edge Array (neighbour IDs, 4 bytes each, 8 with weights).
    edge_array: Array,
    /// The frontier membership bitmap (8 bytes per vertex; see
    /// [`Engine::new`]).
    frontier: Array,
    /// Each property field's array and its byte offset within that array's
    /// element: merged fields share one array at running offsets, separate
    /// fields each have their own at offset 0.
    fields: Vec<(Array, u64)>,
    edges: u64,
}

impl<'a, M: MemoryModel> Engine<'a, M> {
    /// Places `graph`'s Vertex Array, Edge Array (8-byte elements when the
    /// application reads `weighted` edges) and frontier, then one Property
    /// Array field per entry of `fields` (its bytes) laid out as `layout`, and
    /// programs `mem`'s GRASP Address Bound Registers with the Property
    /// Arrays' bounds: one pair when merged, one per field when separate.
    /// The first array starts at `0x1000_0000` and each next one on the page
    /// after the last; an empty array still takes a page.
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
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty or any field size is zero.
    pub fn new(
        graph: &'a dyn GraphView,
        mem: &'a mut M,
        weighted: bool,
        fields: &[u64],
        layout: PropertyLayout,
    ) -> Self {
        assert!(
            !fields.is_empty(),
            "a property set needs at least one field"
        );
        assert!(!fields.contains(&0), "field sizes must be non-zero");
        let n = graph.vertex_count() as u64;
        let mut next_free = HEAP_BASE;
        let mut place = |label, elements: u64, element_bytes: u64| {
            let base = next_free;
            next_free += (elements * element_bytes).div_ceil(PAGE).max(1) * PAGE;
            Array {
                base,
                element_bytes,
                label,
            }
        };
        let vertex_array = place(RegionLabel::VertexArray, n + 1, 8);
        let edge_bytes = if weighted { 8 } else { 4 };
        let edge_array = place(
            RegionLabel::EdgeArray,
            graph.edge_count().max(1),
            edge_bytes,
        );
        let frontier = place(RegionLabel::Frontier, n, 8);
        let fields: Vec<(Array, u64)> = match layout {
            PropertyLayout::Merged => {
                let array = place(RegionLabel::Property, n, fields.iter().sum());
                let mut end = 0;
                fields
                    .iter()
                    .map(|&bytes| {
                        end += bytes;
                        (array, end - bytes)
                    })
                    .collect()
            }
            PropertyLayout::Separate => fields
                .iter()
                .map(|&bytes| (place(RegionLabel::Property, n, bytes), 0))
                .collect(),
        };
        let mut bounds: Vec<(Address, Address)> = fields
            .iter()
            .map(|(array, _)| (array.base, array.base + n * array.element_bytes))
            .collect();
        bounds.dedup();
        mem.program_property_bounds(&bounds);
        Self {
            graph,
            mem,
            vertex_array,
            edge_array,
            frontier,
            fields,
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
        self.touch(
            self.vertex_array,
            u64::from(v),
            0,
            Read,
            sites::VERTEX_ARRAY,
        );
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
            self.touch(self.edge_array, index, 0, Read, sites::EDGE_ARRAY);
            if check {
                self.touch(self.frontier, u64::from(u), 0, Read, sites::FRONTIER);
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
        self.touch(self.frontier, u64::from(v), 0, Write, sites::FRONTIER);
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
        let (array, offset) = self.fields[field];
        self.touch(array, u64::from(v), offset, Read, site);
    }

    /// Models a write of `field` of vertex `v`.
    #[inline]
    pub fn write(&mut self, field: FieldId, v: VertexId, site: AccessSite) {
        let (array, offset) = self.fields[field];
        self.touch(array, u64::from(v), offset, Write, site);
    }

    /// Models a `kind` access to the byte `offset` bytes into element `index`
    /// of `array`.
    #[inline]
    fn touch(&mut self, array: Array, index: u64, offset: u64, kind: AccessKind, site: AccessSite) {
        let addr = array.base + index * array.element_bytes + offset;
        self.mem.touch(addr, kind, site, array.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{AccessLog, NativeMemory};
    use grasp_graph::generators::{GraphGenerator, Rmat};

    /// Places `g`'s arrays with `fields` laid out as `layout` and returns
    /// each array's `(start, end)` in placement order: the structural three
    /// from their element counts, then the ABR list the engine programmed.
    fn spans(
        g: &dyn GraphView,
        weighted: bool,
        fields: &[u64],
        layout: PropertyLayout,
    ) -> Vec<(Address, Address)> {
        let mut mem = AccessLog::default();
        let eng = Engine::new(g, &mut mem, weighted, fields, layout);
        let (n, e) = (g.vertex_count() as u64, g.edge_count());
        let span =
            |array: Array, elements| (array.base, array.base + elements * array.element_bytes);
        let mut spans = vec![
            span(eng.vertex_array, n + 1),
            span(eng.edge_array, e),
            span(eng.frontier, n),
        ];
        spans.extend(mem.1);
        spans
    }

    #[test]
    fn arrays_are_allocated_with_the_right_sizes() {
        let g = Rmat::new(8, 4).generate(1);
        let (n, e) = (g.vertex_count() as u64, g.edge_count());
        let sizes: Vec<u64> = spans(&g, false, &[8], PropertyLayout::Merged)
            .iter()
            .map(|(start, end)| end - start)
            .collect();
        assert_eq!(sizes, [(n + 1) * 8, e * 4, n * 8, n * 8]);
    }

    #[test]
    fn weighted_edge_array_is_wider() {
        let g = Rmat::new(6, 4).generate(1);
        let mut mem = NativeMemory;
        let edge = Engine::new(&g, &mut mem, true, &[8], PropertyLayout::Merged).edge_array;
        assert_eq!(edge.element_bytes, 8);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let g = Rmat::new(8, 4).generate(1);
        for (layout, arrays) in [(PropertyLayout::Merged, 4), (PropertyLayout::Separate, 6)] {
            let spans = spans(&g, true, &[8, 4, 8], layout);
            assert_eq!(spans.len(), arrays, "{layout:?}");
            assert!(spans[0].0 >= HEAP_BASE);
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "{layout:?}: {pair:x?} overlap");
            }
        }
    }

    #[test]
    fn allocations_are_page_aligned() {
        // Two vertices and one edge: every array fits in a page, so each
        // starts on the page after the last, the empty ones too.
        let g = crate::csr_of([(0, 1)]);
        let starts: Vec<Address> = spans(&g, false, &[8, 8], PropertyLayout::Separate)
            .iter()
            .map(|&(start, _)| start)
            .collect();
        let pages: Vec<Address> = (0..5).map(|page| HEAP_BASE + page * PAGE).collect();
        assert_eq!(starts, pages);
        let g = Rmat::new(8, 4).generate(1);
        for (start, _) in spans(&g, true, &[8, 4, 8], PropertyLayout::Separate) {
            assert_eq!(start % PAGE, 0);
        }
    }

    #[test]
    fn addresses_are_contiguous_within_an_array() {
        let g = Rmat::new(7, 4).generate(1);
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8, 8], PropertyLayout::Separate);
        for v in [0, 1, 99] {
            eng.read(1, v, sites::PROPERTY_LOCAL);
        }
        let start = mem.1[1].0;
        let addrs: Vec<Address> = mem.0.iter().map(|access| access.0).collect();
        assert_eq!(addrs, [start, start + 8, start + 99 * 8]);
    }

    #[test]
    fn bounds_cover_exactly_the_array() {
        // Ten vertices: 8- and 16-byte fields cover 80 and 160 bytes apart,
        // 240 merged.
        let g = crate::csr_of([(0, 9)]);
        for (layout, sizes) in [
            (PropertyLayout::Merged, vec![240]),
            (PropertyLayout::Separate, vec![80, 160]),
        ] {
            let mut mem = AccessLog::default();
            Engine::new(&g, &mut mem, false, &[8, 16], layout);
            let covered: Vec<u64> = mem.1.iter().map(|(start, end)| end - start).collect();
            assert_eq!(covered, sizes, "{layout:?}");
        }
    }

    #[test]
    fn footprint_accumulates() {
        // Each array starts on the first page after the last one ends (an
        // empty array still takes one), so the footprint is the running sum
        // of the arrays' page-rounded sizes.
        let g = Rmat::new(8, 4).generate(1);
        let (n, e) = (g.vertex_count() as u64, g.edge_count());
        let spans = spans(&g, true, &[8, 4, 8], PropertyLayout::Separate);
        let sizes: Vec<u64> = spans.iter().map(|(start, end)| end - start).collect();
        assert_eq!(sizes, [(n + 1) * 8, e * 8, n * 8, n * 8, n * 4, n * 8]);
        let mut next_free = HEAP_BASE;
        for &(start, end) in &spans {
            assert_eq!(start, next_free);
            next_free += (end - start).div_ceil(PAGE).max(1) * PAGE;
        }
    }

    #[test]
    fn merged_layout_uses_one_region() {
        let g = Rmat::new(6, 4).generate(1);
        let fields = Engine::new(
            &g,
            &mut NativeMemory,
            false,
            &[8, 8],
            PropertyLayout::Merged,
        )
        .fields;
        let [(a, a_offset), (b, b_offset)] = fields[..] else {
            panic!("two fields")
        };
        assert_eq!((b.base, a_offset, b_offset), (a.base, 0, 8));
        assert_eq!(a.element_bytes, 16);
        assert_eq!(a.label, RegionLabel::Property);
    }

    #[test]
    fn separate_layout_uses_one_region_per_field() {
        let g = Rmat::new(6, 4).generate(1);
        let fields = Engine::new(
            &g,
            &mut NativeMemory,
            false,
            &[8, 8],
            PropertyLayout::Separate,
        )
        .fields;
        let [(a, a_offset), (b, b_offset)] = fields[..] else {
            panic!("two fields")
        };
        assert_ne!(a.base, b.base);
        for (array, offset) in [(a, a_offset), (b, b_offset)] {
            assert_eq!(offset, 0);
            assert_eq!(array.element_bytes, 8);
        }
    }

    #[test]
    fn merged_fields_of_a_vertex_share_a_cache_block() {
        let g = Rmat::new(6, 4).generate(1);
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8, 8], PropertyLayout::Merged);
        eng.read(0, 3, sites::PROPERTY_LOCAL);
        eng.read(1, 3, sites::PROPERTY_LOCAL);
        // Vertex 3, field 0 and field 1: 16 * 3 and 16 * 3 + 8 bytes in.
        let log = mem.0;
        assert_eq!(log[1].0, log[0].0 + 8);
        assert_eq!(log[0].0 / 64, log[1].0 / 64);
    }

    #[test]
    fn separate_fields_of_a_vertex_live_in_different_regions() {
        let g = Rmat::new(6, 4).generate(1);
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8, 8], PropertyLayout::Separate);
        let [(a, _), (b, _)] = eng.fields[..] else {
            panic!("two fields")
        };
        eng.read(0, 3, sites::PROPERTY_LOCAL);
        eng.read(1, 3, sites::PROPERTY_LOCAL);
        let n = g.vertex_count() as u64;
        let (a_end, b_end) = (a.base + n * 8, b.base + n * 8);
        assert!(a_end <= b.base);
        assert_eq!([mem.0[0].0, mem.0[1].0], [a.base + 24, b.base + 24]);
        assert_eq!(
            mem.1,
            [(a.base, a_end), (b.base, b_end)],
            "one ABR pair per field, in field order"
        );
    }

    #[test]
    fn reads_and_writes_are_reported() {
        let g = crate::csr_of([(0, 9)]);
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8, 4], PropertyLayout::Merged);
        eng.read(0, 3, 1);
        eng.write(1, 3, 2);
        // Merged elements are 12 bytes: field 1 sits 8 bytes in.
        let p = RegionLabel::Property;
        let base = mem.1[0].0;
        assert_eq!(
            mem.0,
            [
                (base + 36, AccessKind::Read, 1, p),
                (base + 44, AccessKind::Write, 2, p)
            ]
        );
        assert_eq!(
            mem.1,
            [(base, base + 120)],
            "one ABR pair for the merged array"
        );
    }

    #[test]
    fn reads_and_writes_are_counted() {
        let g = crate::csr_of([(0, 9)]);
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8, 4], PropertyLayout::Separate);
        let [(a, _), (b, _)] = eng.fields[..] else {
            panic!("two fields")
        };
        eng.read(0, 0, 1);
        eng.write(0, 1, 2);
        eng.read(1, 2, 3);
        eng.write(1, 3, 4);
        let p = RegionLabel::Property;
        assert_eq!(
            mem.0,
            [
                (a.base, AccessKind::Read, 1, p),
                (a.base + 8, AccessKind::Write, 2, p),
                (b.base + 8, AccessKind::Read, 3, p),
                (b.base + 12, AccessKind::Write, 4, p),
            ]
        );
    }

    #[test]
    fn memory_accessors_work() {
        // Fields of unequal sizes, weighted: the ABR list holds the Property
        // Arrays alone, in field order, and the accesses reach the model.
        let g = Rmat::new(6, 4).generate(1);
        let n = g.vertex_count() as u64;
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, true, &[4, 16, 8], PropertyLayout::Separate);
        let bounds: Vec<(Address, Address)> = eng
            .fields
            .iter()
            .map(|&(array, _)| (array.base, array.base + n * array.element_bytes))
            .collect();
        eng.read(2, 0, sites::PROPERTY_LOCAL);
        assert_eq!(mem.0.len(), 1);
        assert_eq!(mem.1, bounds, "bounds reach the model in order");
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_field_list_panics() {
        let g = crate::csr_of([(0, 1)]);
        Engine::new(&g, &mut NativeMemory, false, &[], PropertyLayout::Merged);
    }

    #[test]
    #[should_panic(expected = "field sizes must be non-zero")]
    fn zero_sized_field_panics() {
        let g = crate::csr_of([(0, 1)]);
        Engine::new(
            &g,
            &mut NativeMemory,
            false,
            &[8, 0],
            PropertyLayout::Separate,
        );
    }

    #[test]
    fn structural_reads_are_reported() {
        let g = crate::csr_of([(0, 2), (1, 2), (2, 0), (2, 1)]);
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8], PropertyLayout::Merged);
        let (vertex, edge, frontier) = (
            eng.vertex_array.base,
            eng.edge_array.base,
            eng.frontier.base,
        );
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
        let (read, gather) = (AccessKind::Read, sites::PROPERTY_GATHER);
        let property = mem.1[0].0;
        assert_eq!(
            mem.0,
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
        let mut mem = AccessLog::default();
        let mut eng = Engine::new(&g, &mut mem, false, &[8], PropertyLayout::Merged);
        let frontier = eng.frontier.base;
        let mut next = Frontier::empty(g.vertex_count());
        eng.activate(&mut next, 3);
        eng.activate(&mut next, 3);
        let store = (
            frontier + 24,
            AccessKind::Write,
            sites::FRONTIER,
            RegionLabel::Frontier,
        );
        // Re-activation models the store again (the program performs it)
        // even though membership dedups.
        assert_eq!(mem.0, [store, store]);
        assert_eq!(next.len(), 1);
        assert!(next.contains(3));
    }

    /// Where every array lands: the absolute address of the first access to
    /// the Vertex Array, the Edge Array, the frontier and each of three
    /// 8-byte fields of vertex 0, and the ABR list, under both layouts, with
    /// 4- and 8-byte edges. A ring of 1 000 vertices with three out-edges
    /// each spans several pages per array, so every page rounding shows.
    #[test]
    fn placement_is_pinned() {
        let g = crate::csr_of((0..1000).flat_map(|v| [1, 2, 500].map(|d| (v, (v + d) % 1000))));
        let (p, abr) = (RegionLabel::Property, |start: u64, bytes: u64| {
            (start, start + bytes)
        });
        let cases = [
            (
                false,
                PropertyLayout::Merged,
                [0x1000_0000, 0x1000_2000, 0x1000_5000],
                [0x1000_7000, 0x1000_7008, 0x1000_7010],
                vec![abr(0x1000_7000, 24_000)],
            ),
            (
                false,
                PropertyLayout::Separate,
                [0x1000_0000, 0x1000_2000, 0x1000_5000],
                [0x1000_7000, 0x1000_9000, 0x1000_B000],
                vec![
                    abr(0x1000_7000, 8000),
                    abr(0x1000_9000, 8000),
                    abr(0x1000_B000, 8000),
                ],
            ),
            (
                true,
                PropertyLayout::Merged,
                [0x1000_0000, 0x1000_2000, 0x1000_8000],
                [0x1000_A000, 0x1000_A008, 0x1000_A010],
                vec![abr(0x1000_A000, 24_000)],
            ),
            (
                true,
                PropertyLayout::Separate,
                [0x1000_0000, 0x1000_2000, 0x1000_8000],
                [0x1000_A000, 0x1000_C000, 0x1000_E000],
                vec![
                    abr(0x1000_A000, 8000),
                    abr(0x1000_C000, 8000),
                    abr(0x1000_E000, 8000),
                ],
            ),
        ];
        for (weighted, layout, [vertex, edge, frontier], fields, abrs) in cases {
            let mut log = AccessLog::default();
            let mut eng = Engine::new(&g, &mut log, weighted, &[8, 8, 8], layout);
            eng.visit(0);
            eng.scan(0, Direction::Out, false, |_, _, _| true);
            eng.activate(&mut Frontier::empty(1000), 0);
            for field in 0..3 {
                eng.read(field, 0, sites::PROPERTY_LOCAL);
            }
            let (read, local) = (AccessKind::Read, sites::PROPERTY_LOCAL);
            let mut want = vec![
                (vertex, read, sites::VERTEX_ARRAY, RegionLabel::VertexArray),
                (edge, read, sites::EDGE_ARRAY, RegionLabel::EdgeArray),
                (
                    frontier,
                    AccessKind::Write,
                    sites::FRONTIER,
                    RegionLabel::Frontier,
                ),
            ];
            want.extend(fields.map(|addr| (addr, read, local, p)));
            assert_eq!(log.0, want, "{weighted} {layout:?}");
            assert_eq!(log.1, abrs, "{weighted} {layout:?}");
        }
    }

    #[test]
    fn direction_switching_follows_frontier_size() {
        let g = Rmat::new(10, 8).generate(3);
        let mut mem = NativeMemory;
        let eng = Engine::new(&g, &mut mem, false, &[8], PropertyLayout::Merged);
        let small = Frontier::single(g.vertex_count(), 0);
        let large = Frontier::full(g.vertex_count());
        assert_eq!(eng.direction(&small), Direction::Out);
        assert_eq!(eng.direction(&large), Direction::In);
    }
}
