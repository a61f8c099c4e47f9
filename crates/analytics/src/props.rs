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
use grasp_cachesim::request::{AccessSite, RegionLabel};

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

/// Identifier of one field within a [`PropertySet`].
pub type FieldId = usize;

/// A set of per-vertex property fields allocated in a workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertySet {
    layout: PropertyLayout,
    vertex_count: u64,
    field_bytes: Vec<u64>,
    field_offsets: Vec<u64>,
    /// Merged: exactly one handle. Separate: one handle per field.
    handles: Vec<ArrayHandle>,
}

impl PropertySet {
    /// Allocates a property set with the given per-field element sizes.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty or any field size is zero.
    pub fn allocate<M: MemoryModel>(
        ws: &mut Workspace<M>,
        name: &str,
        vertex_count: u64,
        fields: &[u64],
        layout: PropertyLayout,
    ) -> Self {
        assert!(
            !fields.is_empty(),
            "a property set needs at least one field"
        );
        assert!(
            fields.iter().all(|&b| b > 0),
            "field sizes must be non-zero"
        );
        let mut field_offsets = Vec::with_capacity(fields.len());
        let mut running = 0u64;
        for &bytes in fields {
            field_offsets.push(running);
            running += bytes;
        }
        let handles = match layout {
            PropertyLayout::Merged => {
                vec![ws.allocate(name, RegionLabel::Property, vertex_count, running)]
            }
            PropertyLayout::Separate => fields
                .iter()
                .enumerate()
                .map(|(i, &bytes)| {
                    ws.allocate(
                        &format!("{name}.{i}"),
                        RegionLabel::Property,
                        vertex_count,
                        bytes,
                    )
                })
                .collect(),
        };
        Self {
            layout,
            vertex_count,
            field_bytes: fields.to_vec(),
            field_offsets,
            handles,
        }
    }

    /// The layout this set was allocated with.
    pub fn layout(&self) -> PropertyLayout {
        self.layout
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.field_bytes.len()
    }

    /// Number of vertices covered.
    pub fn vertex_count(&self) -> u64 {
        self.vertex_count
    }

    /// The array handles backing this set (one for merged, one per field for
    /// separate). These are the arrays whose bounds get programmed into the
    /// Address Bound Registers.
    pub fn handles(&self) -> &[ArrayHandle] {
        &self.handles
    }

    /// Models a read of `field` for vertex `v`.
    #[inline]
    pub fn read<M: MemoryModel>(
        &self,
        ws: &mut Workspace<M>,
        field: FieldId,
        v: u64,
        site: AccessSite,
    ) {
        match self.layout {
            PropertyLayout::Merged => {
                ws.read_field(self.handles[0], v, self.field_offsets[field], site)
            }
            PropertyLayout::Separate => ws.read(self.handles[field], v, site),
        }
    }

    /// Models a write of `field` for vertex `v`.
    #[inline]
    pub fn write<M: MemoryModel>(
        &self,
        ws: &mut Workspace<M>,
        field: FieldId,
        v: u64,
        site: AccessSite,
    ) {
        match self.layout {
            PropertyLayout::Merged => {
                ws.write_field(self.handles[0], v, self.field_offsets[field], site)
            }
            PropertyLayout::Separate => ws.write(self.handles[field], v, site),
        }
    }

    /// Programs the GRASP Address Bound Registers with this set's bounds.
    pub fn program_abrs<M: MemoryModel>(&self, ws: &mut Workspace<M>) {
        ws.program_property_bounds(&self.handles.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NativeMemory;

    #[test]
    fn merged_layout_uses_one_region() {
        let mut ws = Workspace::new(NativeMemory::new());
        let props = PropertySet::allocate(&mut ws, "pr", 100, &[8, 8], PropertyLayout::Merged);
        assert_eq!(props.handles().len(), 1);
        assert_eq!(props.field_count(), 2);
        let region = ws.address_space().region(props.handles()[0]);
        assert_eq!(region.element_bytes, 16);
        assert_eq!(region.elements, 100);
    }

    #[test]
    fn separate_layout_uses_one_region_per_field() {
        let mut ws = Workspace::new(NativeMemory::new());
        let props = PropertySet::allocate(&mut ws, "pr", 100, &[8, 8], PropertyLayout::Separate);
        assert_eq!(props.handles().len(), 2);
        for &h in props.handles() {
            assert_eq!(ws.address_space().region(h).element_bytes, 8);
        }
    }

    #[test]
    fn merged_fields_of_a_vertex_share_a_cache_block() {
        let mut ws = Workspace::new(NativeMemory::new());
        let props = PropertySet::allocate(&mut ws, "x", 64, &[8, 8], PropertyLayout::Merged);
        let space = ws.address_space();
        let base = space.bounds(props.handles()[0]).0;
        // Vertex 3, field 0 and field 1: addresses 16*3 and 16*3+8 — same 64B block.
        let a = base + 3 * 16;
        let b = base + 3 * 16 + 8;
        assert_eq!(a / 64, b / 64);
    }

    #[test]
    fn separate_fields_of_a_vertex_live_in_different_regions() {
        let mut ws = Workspace::new(NativeMemory::new());
        let props = PropertySet::allocate(&mut ws, "x", 64, &[8, 8], PropertyLayout::Separate);
        let space = ws.address_space();
        let (a_start, a_end) = space.bounds(props.handles()[0]);
        let (b_start, b_end) = space.bounds(props.handles()[1]);
        assert!(a_end <= b_start || b_end <= a_start);
    }

    #[test]
    fn reads_and_writes_are_reported() {
        let mut ws = Workspace::new(NativeMemory::new());
        let props = PropertySet::allocate(&mut ws, "x", 10, &[8, 4], PropertyLayout::Merged);
        props.read(&mut ws, 0, 3, 1);
        props.write(&mut ws, 1, 3, 1);
        assert_eq!(ws.access_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_field_list_panics() {
        let mut ws = Workspace::new(NativeMemory::new());
        let _ = PropertySet::allocate(&mut ws, "bad", 10, &[], PropertyLayout::Merged);
    }
}
