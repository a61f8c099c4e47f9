//! The workspace: address space + memory model.

use crate::layout::{AddressSpace, ArrayHandle};
use crate::mem::MemoryModel;
use grasp_cachesim::addr::Address;
use grasp_cachesim::request::{AccessKind, AccessSite, RegionLabel};

/// Couples a simulated [`AddressSpace`] with a [`MemoryModel`]: applications
/// allocate their arrays here and report every element access through the
/// `read_*`/`write_*` methods, each of which reaches
/// [`MemoryModel::touch`] before it returns.
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
    pub fn allocate(
        &mut self,
        name: &str,
        label: RegionLabel,
        elements: u64,
        element_bytes: u64,
    ) -> ArrayHandle {
        self.space.allocate(name, label, elements, element_bytes)
    }

    /// The underlying address space.
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// The underlying memory model.
    pub fn memory(&self) -> &M {
        &self.mem
    }

    /// Mutable access to the memory model.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// Consumes the workspace and returns the memory model.
    pub fn into_memory(self) -> M {
        self.mem
    }

    /// Programs the GRASP Address Bound Registers with the bounds of the
    /// given Property Arrays.
    pub fn program_property_bounds(&mut self, handles: &[ArrayHandle]) {
        let bounds: Vec<(Address, Address)> =
            handles.iter().map(|&h| self.space.bounds(h)).collect();
        self.mem.program_property_bounds(&bounds);
    }

    /// Models a read of element `index` of `handle`.
    #[inline]
    pub fn read(&mut self, handle: ArrayHandle, index: u64, site: AccessSite) {
        let region = self.space.region(handle);
        let addr = region.base + index * region.element_bytes;
        let label = region.label;
        self.mem.touch(addr, AccessKind::Read, site, label);
    }

    /// Models a write of element `index` of `handle`.
    #[inline]
    pub fn write(&mut self, handle: ArrayHandle, index: u64, site: AccessSite) {
        let region = self.space.region(handle);
        let addr = region.base + index * region.element_bytes;
        let label = region.label;
        self.mem.touch(addr, AccessKind::Write, site, label);
    }

    /// Models a read of a field at `byte_offset` within element `index`.
    #[inline]
    pub fn read_field(
        &mut self,
        handle: ArrayHandle,
        index: u64,
        byte_offset: u64,
        site: AccessSite,
    ) {
        let region = self.space.region(handle);
        let addr = region.base + index * region.element_bytes + byte_offset;
        let label = region.label;
        self.mem.touch(addr, AccessKind::Read, site, label);
    }

    /// Models a write of a field at `byte_offset` within element `index`.
    #[inline]
    pub fn write_field(
        &mut self,
        handle: ArrayHandle,
        index: u64,
        byte_offset: u64,
        site: AccessSite,
    ) {
        let region = self.space.region(handle);
        let addr = region.base + index * region.element_bytes + byte_offset;
        let label = region.label;
        self.mem.touch(addr, AccessKind::Write, site, label);
    }

    /// Total number of accesses issued so far.
    pub fn access_count(&self) -> u64 {
        self.mem.access_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NativeMemory;

    #[test]
    fn reads_and_writes_are_counted() {
        let mut ws = Workspace::new(NativeMemory::new());
        let a = ws.allocate("a", RegionLabel::Property, 16, 8);
        ws.read(a, 0, 1);
        ws.write(a, 1, 1);
        ws.read_field(a, 2, 4, 1);
        ws.write_field(a, 3, 4, 1);
        assert_eq!(ws.access_count(), 4);
        assert_eq!(ws.address_space().regions().len(), 1);
    }

    #[test]
    fn memory_accessors_work() {
        let mut ws = Workspace::new(NativeMemory::new());
        let a = ws.allocate("a", RegionLabel::Property, 4, 8);
        ws.read(a, 0, 1);
        assert_eq!(ws.memory().access_count(), 1);
        ws.memory_mut()
            .touch(0, AccessKind::Read, 0, RegionLabel::Other);
        assert_eq!(ws.into_memory().access_count(), 2);
    }
}
