//! Property Arrays: per-vertex application state with a modelled memory
//! layout.
//!
//! An application may keep several per-vertex quantities (e.g. PageRank keeps
//! the previous and the current rank). The paper's data-structure optimization
//! (Sec. IV-A, Table IV) *merges* such arrays so that all fields of one vertex
//! share a cache block; [`PropertyLayout`] selects between the merged and the
//! separate layout so the Table IV experiment can quantify the difference.

use crate::layout::ArrayHandle;
use crate::mem::MemoryModel;
use crate::workspace::Workspace;
use grasp_cachesim::request::{AccessKind, AccessSite, RegionLabel};
use grasp_graph::VertexId;

/// How multiple per-vertex fields are laid out in memory.
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
/// [`Engine::new`](crate::engine::Engine::new).
pub type FieldId = usize;

/// A set of per-vertex property fields allocated in a workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PropertySet {
    /// Each field's array and its byte offset within that array's element:
    /// merged fields share one array at running offsets, separate fields
    /// each have their own at offset 0.
    fields: Vec<(ArrayHandle, u64)>,
}

impl PropertySet {
    /// Allocates a property set with the given per-field element sizes.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty or any field size is zero.
    pub(crate) fn allocate<M: MemoryModel>(
        ws: &mut Workspace<M>,
        vertex_count: u64,
        fields: &[u64],
        layout: PropertyLayout,
    ) -> Self {
        assert!(
            !fields.is_empty(),
            "a property set needs at least one field"
        );
        assert!(!fields.contains(&0), "field sizes must be non-zero");
        let fields = match layout {
            PropertyLayout::Merged => {
                let array = ws.allocate(RegionLabel::Property, vertex_count, fields.iter().sum());
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
                .map(|&bytes| (ws.allocate(RegionLabel::Property, vertex_count, bytes), 0))
                .collect(),
        };
        Self { fields }
    }

    /// Models a `kind` access to `field` of vertex `v`.
    #[inline]
    pub(crate) fn touch<M: MemoryModel>(
        &self,
        ws: &mut Workspace<M>,
        field: FieldId,
        v: VertexId,
        kind: AccessKind,
        site: AccessSite,
    ) {
        let (array, offset) = self.fields[field];
        ws.touch(array, u64::from(v), offset, kind, site);
    }

    /// Programs the GRASP Address Bound Registers with this set's bounds.
    pub(crate) fn program_abrs<M: MemoryModel>(&self, ws: &mut Workspace<M>) {
        let mut arrays: Vec<ArrayHandle> = self.fields.iter().map(|&(array, _)| array).collect();
        arrays.dedup();
        ws.program_property_bounds(&arrays);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{AccessLog, NativeMemory};

    #[test]
    fn merged_layout_uses_one_region() {
        let mut ws = Workspace::new(NativeMemory);
        let props = PropertySet::allocate(&mut ws, 100, &[8, 8], PropertyLayout::Merged);
        let array = props.fields[0].0;
        assert_eq!(props.fields, [(array, 0), (array, 8)]);
        let region = ws.address_space().region(array);
        assert_eq!(region.element_bytes, 16);
        assert_eq!(region.elements, 100);
    }

    #[test]
    fn separate_layout_uses_one_region_per_field() {
        let mut ws = Workspace::new(NativeMemory);
        let props = PropertySet::allocate(&mut ws, 100, &[8, 8], PropertyLayout::Separate);
        assert_eq!(props.fields.len(), 2);
        assert_ne!(props.fields[0].0, props.fields[1].0);
        for &(array, offset) in &props.fields {
            assert_eq!(offset, 0);
            assert_eq!(ws.address_space().region(array).element_bytes, 8);
        }
    }

    #[test]
    fn merged_fields_of_a_vertex_share_a_cache_block() {
        let mut ws = Workspace::new(AccessLog::default());
        let props = PropertySet::allocate(&mut ws, 64, &[8, 8], PropertyLayout::Merged);
        props.touch(&mut ws, 0, 3, AccessKind::Read, 1);
        props.touch(&mut ws, 1, 3, AccessKind::Read, 1);
        let log = ws.into_memory().0;
        // Vertex 3, field 0 and field 1: 16 * 3 and 16 * 3 + 8 bytes in.
        assert_eq!(log[1].0, log[0].0 + 8);
        assert_eq!(log[0].0 / 64, log[1].0 / 64);
    }

    #[test]
    fn separate_fields_of_a_vertex_live_in_different_regions() {
        let mut ws = Workspace::new(AccessLog::default());
        let props = PropertySet::allocate(&mut ws, 64, &[8, 8], PropertyLayout::Separate);
        props.program_abrs(&mut ws);
        let space = ws.address_space();
        let (a_start, a_end) = space.bounds(props.fields[0].0);
        let (b_start, b_end) = space.bounds(props.fields[1].0);
        assert!(a_end <= b_start || b_end <= a_start);
        assert_eq!(ws.into_memory().1, [(a_start, a_end), (b_start, b_end)]);
    }

    #[test]
    fn reads_and_writes_are_reported() {
        let mut ws = Workspace::new(AccessLog::default());
        let props = PropertySet::allocate(&mut ws, 10, &[8, 4], PropertyLayout::Merged);
        props.program_abrs(&mut ws);
        props.touch(&mut ws, 0, 3, AccessKind::Read, 1);
        props.touch(&mut ws, 1, 3, AccessKind::Write, 2);
        // Merged elements are 12 bytes: field 1 sits 8 bytes in.
        let (base, end) = ws.address_space().bounds(props.fields[0].0);
        let p = RegionLabel::Property;
        let log = ws.into_memory();
        assert_eq!(
            log.0,
            [
                (base + 36, AccessKind::Read, 1, p),
                (base + 44, AccessKind::Write, 2, p)
            ]
        );
        assert_eq!(log.1, [(base, end)], "one ABR pair for the merged array");
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_field_list_panics() {
        let mut ws = Workspace::new(NativeMemory);
        let _ = PropertySet::allocate(&mut ws, 10, &[], PropertyLayout::Merged);
    }
}
