//! The workspace: address space + memory model.

use crate::layout::{AddressSpace, ArrayHandle};
use crate::mem::MemoryModel;
use grasp_cachesim::addr::Address;
use grasp_cachesim::request::{AccessKind, AccessSite, RegionLabel};

/// Couples a simulated [`AddressSpace`] with a [`MemoryModel`]: an
/// application's [`Engine`](crate::engine::Engine) allocates its arrays here
/// and reports every element access, each reaching [`MemoryModel::touch`]
/// before the engine's call returns.
#[derive(Debug)]
pub struct Workspace<M> {
    space: AddressSpace,
    mem: M,
}

impl<M: MemoryModel> Workspace<M> {
    /// Creates an empty workspace over the given memory model.
    pub fn new(mem: M) -> Self {
        Self {
            space: AddressSpace::new(),
            mem,
        }
    }

    /// Allocates an array and returns its handle.
    pub(crate) fn allocate(
        &mut self,
        label: RegionLabel,
        elements: u64,
        element_bytes: u64,
    ) -> ArrayHandle {
        self.space.allocate(label, elements, element_bytes)
    }

    /// Consumes the workspace and returns the memory model.
    pub fn into_memory(self) -> M {
        self.mem
    }

    /// Programs the GRASP Address Bound Registers with the bounds of the
    /// given Property Arrays.
    pub(crate) fn program_property_bounds(&mut self, handles: &[ArrayHandle]) {
        let bounds: Vec<(Address, Address)> =
            handles.iter().map(|&h| self.space.bounds(h)).collect();
        self.mem.program_property_bounds(&bounds);
    }

    /// Models a `kind` access to the field `byte_offset` bytes into element
    /// `index` of `handle`.
    #[inline]
    pub(crate) fn touch(
        &mut self,
        handle: ArrayHandle,
        index: u64,
        byte_offset: u64,
        kind: AccessKind,
        site: AccessSite,
    ) {
        let region = self.space.region(handle);
        let addr = region.base + index * region.element_bytes + byte_offset;
        self.mem.touch(addr, kind, site, region.label);
    }
}

#[cfg(test)]
impl<M> Workspace<M> {
    /// The underlying address space (tests check where arrays landed).
    pub(crate) fn address_space(&self) -> &AddressSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessLog;

    #[test]
    fn reads_and_writes_are_counted() {
        let mut ws = Workspace::new(AccessLog::default());
        let a = ws.allocate(RegionLabel::Property, 16, 8);
        ws.touch(a, 0, 0, AccessKind::Read, 1);
        ws.touch(a, 1, 0, AccessKind::Write, 2);
        ws.touch(a, 2, 4, AccessKind::Read, 3);
        ws.touch(a, 3, 4, AccessKind::Write, 4);
        let base = ws.address_space().region(a).base;
        let p = RegionLabel::Property;
        assert_eq!(
            ws.into_memory().0,
            [
                (base, AccessKind::Read, 1, p),
                (base + 8, AccessKind::Write, 2, p),
                (base + 20, AccessKind::Read, 3, p),
                (base + 28, AccessKind::Write, 4, p),
            ]
        );
    }

    #[test]
    fn memory_accessors_work() {
        let mut ws = Workspace::new(AccessLog::default());
        let a = ws.allocate(RegionLabel::Property, 4, 8);
        let b = ws.allocate(RegionLabel::Property, 4, 8);
        ws.program_property_bounds(&[b, a]);
        ws.touch(a, 0, 0, AccessKind::Read, 1);
        let (a_bounds, b_bounds) = (ws.address_space().bounds(a), ws.address_space().bounds(b));
        let log = ws.into_memory();
        assert_eq!(log.0.len(), 1);
        assert_eq!(
            log.1,
            [b_bounds, a_bounds],
            "bounds reach the model in order"
        );
    }
}
