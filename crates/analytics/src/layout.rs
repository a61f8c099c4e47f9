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
    /// Human-readable name ("rank", "edge_array", ...).
    pub name: String,
    /// Region label attached to every access to this array.
    pub label: RegionLabel,
    /// Base virtual address.
    pub base: Address,
    /// Size of one element in bytes.
    pub element_bytes: u64,
    /// Number of elements.
    pub elements: u64,
}

impl ArrayRegion {
    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.element_bytes * self.elements
    }

    /// End address (exclusive).
    pub fn end(&self) -> Address {
        self.base + self.size_bytes()
    }
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
        name: &str,
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
            name: name.to_owned(),
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

    /// All allocated regions in allocation order.
    pub fn regions(&self) -> &[ArrayRegion] {
        &self.regions
    }

    /// Address of element `index` of the array (optionally offset by
    /// `byte_offset` within the element).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` is out of bounds.
    #[inline]
    pub fn addr_of(&self, handle: ArrayHandle, index: u64) -> Address {
        let region = &self.regions[handle.0];
        debug_assert!(index < region.elements, "index {index} out of bounds");
        region.base + index * region.element_bytes
    }

    /// `(start, end)` bounds of an array — what gets written into an ABR pair.
    pub fn bounds(&self, handle: ArrayHandle) -> (Address, Address) {
        let region = &self.regions[handle.0];
        (region.base, region.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_do_not_overlap() {
        let mut space = AddressSpace::new();
        let a = space.allocate("a", RegionLabel::Property, 1000, 8);
        let b = space.allocate("b", RegionLabel::EdgeArray, 5000, 4);
        let (a_start, a_end) = space.bounds(a);
        let (b_start, b_end) = space.bounds(b);
        assert!(a_end <= b_start || b_end <= a_start, "regions overlap");
        assert!(a_start >= HEAP_BASE);
    }

    #[test]
    fn addresses_are_contiguous_within_an_array() {
        let mut space = AddressSpace::new();
        let a = space.allocate("ranks", RegionLabel::Property, 100, 8);
        assert_eq!(space.addr_of(a, 0) + 8, space.addr_of(a, 1));
        assert_eq!(space.addr_of(a, 99), space.bounds(a).0 + 99 * 8);
    }

    #[test]
    fn bounds_cover_exactly_the_array() {
        let mut space = AddressSpace::new();
        let a = space.allocate("x", RegionLabel::Property, 10, 16);
        let (start, end) = space.bounds(a);
        assert_eq!(end - start, 160);
        assert_eq!(space.region(a).size_bytes(), 160);
        assert_eq!(space.region(a).name, "x");
    }

    #[test]
    fn footprint_accumulates() {
        let mut space = AddressSpace::new();
        space.allocate("a", RegionLabel::Property, 10, 8);
        space.allocate("b", RegionLabel::Frontier, 100, 1);
        let sizes: Vec<u64> = space.regions().iter().map(|r| r.size_bytes()).collect();
        assert_eq!(sizes, [80, 100]);
    }

    #[test]
    fn allocations_are_page_aligned() {
        let mut space = AddressSpace::new();
        let a = space.allocate("a", RegionLabel::Property, 3, 8);
        let b = space.allocate("b", RegionLabel::Property, 3, 8);
        assert_eq!(space.bounds(a).0 % ALLOC_ALIGN, 0);
        assert_eq!(space.bounds(b).0 % ALLOC_ALIGN, 0);
    }

    #[test]
    #[should_panic(expected = "element size must be non-zero")]
    fn zero_element_size_panics() {
        let mut space = AddressSpace::new();
        space.allocate("bad", RegionLabel::Other, 10, 0);
    }
}
