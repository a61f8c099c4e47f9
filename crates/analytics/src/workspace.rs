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
        let a = ws.allocate("a", RegionLabel::Property, 16, 8);
        ws.read(a, 0, 1);
        ws.write(a, 1, 2);
        ws.read_field(a, 2, 4, 3);
        ws.write_field(a, 3, 4, 4);
        assert_eq!(ws.address_space().region(a).name, "a");
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
        let a = ws.allocate("a", RegionLabel::Property, 4, 8);
        let b = ws.allocate("b", RegionLabel::Property, 4, 8);
        ws.program_property_bounds(&[b, a]);
        ws.read(a, 0, 1);
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
