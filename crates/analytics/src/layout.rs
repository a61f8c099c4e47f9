//! Simulated virtual address-space layout.
//!
//! Every array an application works with — the CSR Vertex and Edge arrays,
//! Property Arrays, frontier bitmaps — is *placed* at a virtual address so
//! that the cache simulator sees a realistic address stream and GRASP's
//! Address Bound Registers can be programmed with real bounds.

use grasp_cachesim::addr::Address;
use grasp_cachesim::request::RegionLabel;

/// Handle to an array placed in the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayHandle(usize);

/// Metadata of one placed array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRegion {
    /// Region label attached to every access to this array.
    pub label: RegionLabel,
    /// Base virtual address.
    pub base: Address,
    /// Size of one element in bytes.
    pub element_bytes: u64,
    /// Number of elements.
    pub elements: u64,
}

/// Base address of the first allocation. Chosen away from zero so address
/// zero never aliases with real data.
const HEAP_BASE: Address = 0x1000_0000;

/// Alignment of every allocation (page-sized, so distinct arrays never share
/// a cache block).
const ALLOC_ALIGN: u64 = 4096;

/// A simple bump allocator over a simulated virtual address space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddressSpace {
    regions: Vec<ArrayRegion>,
    next_free: Address,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self {
            regions: Vec::new(),
            next_free: HEAP_BASE,
        }
    }

    /// Allocates an array of `elements` elements of `element_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `element_bytes` is zero.
    pub fn allocate(
        &mut self,
        label: RegionLabel,
        elements: u64,
        element_bytes: u64,
    ) -> ArrayHandle {
        assert!(element_bytes > 0, "element size must be non-zero");
        let base = self.next_free;
        let size = elements * element_bytes;
        let aligned = size.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.next_free += aligned.max(ALLOC_ALIGN);
        self.regions.push(ArrayRegion {
            label,
            base,
            element_bytes,
            elements,
        });
        ArrayHandle(self.regions.len() - 1)
    }

    /// Metadata of an allocated array.
    pub fn region(&self, handle: ArrayHandle) -> &ArrayRegion {
        &self.regions[handle.0]
    }

    /// `(start, end)` bounds of an array — what gets written into an ABR pair.
    pub fn bounds(&self, handle: ArrayHandle) -> (Address, Address) {
        let region = &self.regions[handle.0];
        (
            region.base,
            region.base + region.elements * region.element_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessLog;
    use crate::Workspace;
    use grasp_cachesim::request::AccessKind;

    #[test]
    fn allocations_do_not_overlap() {
        let mut space = AddressSpace::new();
        let a = space.allocate(RegionLabel::Property, 1000, 8);
        let b = space.allocate(RegionLabel::EdgeArray, 5000, 4);
        let (a_start, a_end) = space.bounds(a);
        let (b_start, b_end) = space.bounds(b);
        assert!(a_end <= b_start || b_end <= a_start, "regions overlap");
        assert!(a_start >= HEAP_BASE);
    }

    #[test]
    fn addresses_are_contiguous_within_an_array() {
        let mut ws = Workspace::new(AccessLog::default());
        let a = ws.allocate(RegionLabel::Property, 100, 8);
        for index in [0, 1, 99] {
            ws.touch(a, index, 0, AccessKind::Read, 0);
        }
        let start = ws.address_space().bounds(a).0;
        let addrs: Vec<Address> = ws.into_memory().0.iter().map(|access| access.0).collect();
        assert_eq!(addrs, [start, start + 8, start + 99 * 8]);
    }

    #[test]
    fn bounds_cover_exactly_the_array() {
        let mut space = AddressSpace::new();
        let a = space.allocate(RegionLabel::Property, 10, 16);
        let (start, end) = space.bounds(a);
        assert_eq!(end - start, 160);
    }

    #[test]
    fn footprint_accumulates() {
        let mut space = AddressSpace::new();
        let a = space.allocate(RegionLabel::Property, 10, 8);
        let b = space.allocate(RegionLabel::Frontier, 100, 1);
        let sizes = [a, b]
            .map(|h| space.bounds(h))
            .map(|(start, end)| end - start);
        assert_eq!(sizes, [80, 100]);
    }

    #[test]
    fn allocations_are_page_aligned() {
        let mut space = AddressSpace::new();
        let a = space.allocate(RegionLabel::Property, 3, 8);
        let b = space.allocate(RegionLabel::Property, 3, 8);
        assert_eq!(space.bounds(a).0 % ALLOC_ALIGN, 0);
        assert_eq!(space.bounds(b).0 % ALLOC_ALIGN, 0);
    }

    #[test]
    #[should_panic(expected = "element size must be non-zero")]
    fn zero_element_size_panics() {
        let mut space = AddressSpace::new();
        space.allocate(RegionLabel::Other, 10, 0);
    }
}
