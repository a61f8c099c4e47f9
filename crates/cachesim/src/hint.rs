//! GRASP's software–hardware interface: reuse hints, Address Bound Registers
//! and the region classification logic (Sec. III-A and III-B of the paper).

use crate::addr::Address;
use serde::{Deserialize, Serialize};

/// The 2-bit reuse hint GRASP forwards to the LLC with every cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReuseHint {
    /// The access falls in the High Reuse Region (the LLC-sized prefix of a
    /// Property Array holding the hottest vertices).
    High,
    /// The access falls in the Moderate Reuse Region (the next LLC-sized
    /// chunk of a Property Array).
    Moderate,
    /// Any other access made by a graph application with programmed ABRs
    /// (the long cold tail of the Property Array, Vertex/Edge arrays, ...).
    Low,
    /// The ABRs are not programmed (non-graph applications) — specialized
    /// management is disabled and the base policy behaviour applies.
    #[default]
    Default,
}

impl ReuseHint {
    /// Encodes the hint as the 2-bit value carried with an LLC request.
    pub fn encode(self) -> u8 {
        match self {
            ReuseHint::High => 0,
            ReuseHint::Moderate => 1,
            ReuseHint::Low => 2,
            ReuseHint::Default => 3,
        }
    }

    /// Decodes a 2-bit value into a hint.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 3`.
    pub fn decode(bits: u8) -> Self {
        match bits {
            0 => ReuseHint::High,
            1 => ReuseHint::Moderate,
            2 => ReuseHint::Low,
            3 => ReuseHint::Default,
            _ => panic!("reuse hint is a 2-bit value, got {bits}"),
        }
    }
}

impl std::fmt::Display for ReuseHint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReuseHint::High => "high-reuse",
            ReuseHint::Moderate => "moderate-reuse",
            ReuseHint::Low => "low-reuse",
            ReuseHint::Default => "default",
        };
        f.write_str(s)
    }
}

/// One pair of Address Bound Registers: the start and end virtual address of
/// a Property Array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundPair {
    /// Inclusive start address of the Property Array.
    pub start: Address,
    /// Exclusive end address of the Property Array.
    pub end: Address,
}

impl BoundPair {
    /// Creates a bound pair.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: Address, end: Address) -> Self {
        assert!(end >= start, "end must not precede start");
        Self { start, end }
    }

    /// Length of the bounded region in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Returns `true` if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns `true` if `addr` falls inside the region.
    #[inline]
    pub fn contains(&self, addr: Address) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// The architectural register file GRASP exposes to software: a small number
/// of [`BoundPair`]s, one per Property Array (Sec. III-A).
///
/// The registers are part of the application context; when no pair is
/// programmed, classification returns [`ReuseHint::Default`] for every
/// address, disabling specialized management.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressBoundRegisters {
    pairs: Vec<BoundPair>,
}

/// Maximum number of ABR pairs the hardware provides. The paper instruments
/// at most two Property Arrays per application; commodity implementations
/// would provision a handful of registers.
pub const MAX_ABR_PAIRS: usize = 8;

impl AddressBoundRegisters {
    /// Creates an empty (unprogrammed) register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Programs one ABR pair with the bounds of a Property Array.
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_ABR_PAIRS`] registers are already programmed.
    pub fn program(&mut self, start: Address, end: Address) {
        assert!(
            self.pairs.len() < MAX_ABR_PAIRS,
            "all {MAX_ABR_PAIRS} ABR pairs are in use"
        );
        self.pairs.push(BoundPair::new(start, end));
    }

    /// Clears every register (application teardown).
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// Returns `true` if at least one pair is programmed.
    pub fn is_programmed(&self) -> bool {
        !self.pairs.is_empty()
    }

    /// Number of programmed pairs.
    pub fn programmed_count(&self) -> usize {
        self.pairs.len()
    }

    /// The programmed pairs.
    pub fn pairs(&self) -> &[BoundPair] {
        &self.pairs
    }
}

/// The classification logic of GRASP (Sec. III-B): given the programmed ABRs
/// and the LLC capacity, labels every address as High-, Moderate-, Low-Reuse
/// or Default.
///
/// The LLC-sized region at the start of each Property Array is the High Reuse
/// Region; the next LLC-sized region is the Moderate Reuse Region; when `n`
/// Property Arrays are programmed, each array's regions are `LLC size / n`
/// bytes long.
///
/// ```
/// use grasp_cachesim::hint::{AddressBoundRegisters, RegionClassifier, ReuseHint};
///
/// let mut abrs = AddressBoundRegisters::new();
/// abrs.program(0x10000, 0x90000); // a 512 KiB property array
/// let classifier = RegionClassifier::new(abrs, 64 * 1024); // 64 KiB LLC
/// assert_eq!(classifier.classify(0x10000), ReuseHint::High);
/// assert_eq!(classifier.classify(0x20000), ReuseHint::Moderate);
/// assert_eq!(classifier.classify(0x40000), ReuseHint::Low);
/// assert_eq!(classifier.classify(0xF0000), ReuseHint::Low);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionClassifier {
    abrs: AddressBoundRegisters,
    llc_bytes: u64,
    high_regions: Vec<BoundPair>,
    moderate_regions: Vec<BoundPair>,
}

impl RegionClassifier {
    /// Builds the classifier from programmed ABRs and the LLC capacity in
    /// bytes.
    pub fn new(abrs: AddressBoundRegisters, llc_bytes: u64) -> Self {
        let count = abrs.programmed_count().max(1) as u64;
        let share = llc_bytes / count;
        let mut high_regions = Vec::new();
        let mut moderate_regions = Vec::new();
        for pair in abrs.pairs() {
            let high_end = (pair.start + share).min(pair.end);
            high_regions.push(BoundPair::new(pair.start, high_end));
            let moderate_end = (high_end + share).min(pair.end);
            moderate_regions.push(BoundPair::new(high_end, moderate_end));
        }
        Self {
            abrs,
            llc_bytes,
            high_regions,
            moderate_regions,
        }
    }

    /// A classifier with unprogrammed ABRs: every address maps to
    /// [`ReuseHint::Default`].
    pub fn disabled() -> Self {
        Self::new(AddressBoundRegisters::new(), 0)
    }

    /// LLC capacity the classifier was built for.
    pub fn llc_bytes(&self) -> u64 {
        self.llc_bytes
    }

    /// Returns `true` if specialized classification is active.
    pub fn is_enabled(&self) -> bool {
        self.abrs.is_programmed()
    }

    /// Bounds of the High Reuse Region of each programmed Property Array.
    pub fn high_regions(&self) -> &[BoundPair] {
        &self.high_regions
    }

    /// Bounds of the Moderate Reuse Region of each programmed Property Array.
    pub fn moderate_regions(&self) -> &[BoundPair] {
        &self.moderate_regions
    }

    /// Classifies an address into a reuse hint.
    #[inline]
    pub fn classify(&self, addr: Address) -> ReuseHint {
        if !self.is_enabled() {
            return ReuseHint::Default;
        }
        for region in &self.high_regions {
            if region.contains(addr) {
                return ReuseHint::High;
            }
        }
        for region in &self.moderate_regions {
            if region.contains(addr) {
                return ReuseHint::Moderate;
            }
        }
        ReuseHint::Low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_encode_decode_round_trip() {
        for hint in [
            ReuseHint::High,
            ReuseHint::Moderate,
            ReuseHint::Low,
            ReuseHint::Default,
        ] {
            assert_eq!(ReuseHint::decode(hint.encode()), hint);
            assert!(hint.encode() <= 3, "hint must fit in 2 bits");
        }
    }

    #[test]
    #[should_panic(expected = "2-bit value")]
    fn decode_rejects_wide_values() {
        let _ = ReuseHint::decode(4);
    }

    #[test]
    fn default_hint_is_default() {
        assert_eq!(ReuseHint::default(), ReuseHint::Default);
    }

    #[test]
    fn bound_pair_contains() {
        let p = BoundPair::new(100, 200);
        assert!(p.contains(100));
        assert!(p.contains(199));
        assert!(!p.contains(200));
        assert!(!p.contains(99));
        assert_eq!(p.len(), 100);
        assert!(!p.is_empty());
        assert!(BoundPair::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "end must not precede start")]
    fn inverted_bounds_panic() {
        let _ = BoundPair::new(10, 5);
    }

    #[test]
    fn unprogrammed_registers_disable_classification() {
        let c = RegionClassifier::disabled();
        assert!(!c.is_enabled());
        assert_eq!(c.classify(0), ReuseHint::Default);
        assert_eq!(c.classify(u64::MAX), ReuseHint::Default);
    }

    #[test]
    fn single_array_regions() {
        let mut abrs = AddressBoundRegisters::new();
        abrs.program(0x1000, 0x1000 + 1024 * 1024); // 1 MiB array
        let c = RegionClassifier::new(abrs, 64 * 1024);
        // First 64 KiB -> High.
        assert_eq!(c.classify(0x1000), ReuseHint::High);
        assert_eq!(c.classify(0x1000 + 64 * 1024 - 1), ReuseHint::High);
        // Next 64 KiB -> Moderate.
        assert_eq!(c.classify(0x1000 + 64 * 1024), ReuseHint::Moderate);
        assert_eq!(c.classify(0x1000 + 128 * 1024 - 1), ReuseHint::Moderate);
        // Rest of the array -> Low.
        assert_eq!(c.classify(0x1000 + 128 * 1024), ReuseHint::Low);
        // Outside the array (graph app, other data) -> Low.
        assert_eq!(c.classify(0), ReuseHint::Low);
    }

    #[test]
    fn two_arrays_split_the_llc_share() {
        let mut abrs = AddressBoundRegisters::new();
        abrs.program(0x0, 0x100000);
        abrs.program(0x400000, 0x500000);
        let c = RegionClassifier::new(abrs, 128 * 1024);
        // Each array's High region is 64 KiB.
        assert_eq!(c.classify(0x0), ReuseHint::High);
        assert_eq!(c.classify(64 * 1024 - 1), ReuseHint::High);
        assert_eq!(c.classify(64 * 1024), ReuseHint::Moderate);
        assert_eq!(c.classify(0x400000), ReuseHint::High);
        assert_eq!(c.classify(0x400000 + 64 * 1024), ReuseHint::Moderate);
        assert_eq!(c.classify(0x400000 + 128 * 1024), ReuseHint::Low);
    }

    #[test]
    fn small_arrays_clamp_regions_to_their_length() {
        let mut abrs = AddressBoundRegisters::new();
        abrs.program(0x0, 0x800); // 2 KiB array, much smaller than the LLC
        let c = RegionClassifier::new(abrs, 64 * 1024);
        assert_eq!(c.classify(0x0), ReuseHint::High);
        assert_eq!(c.classify(0x7FF), ReuseHint::High);
        // Addresses past the array are Low even though the "share" is larger.
        assert_eq!(c.classify(0x800), ReuseHint::Low);
        assert!(c.moderate_regions()[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "ABR pairs are in use")]
    fn programming_too_many_pairs_panics() {
        let mut abrs = AddressBoundRegisters::new();
        for i in 0..=MAX_ABR_PAIRS as u64 {
            abrs.program(i * 0x1000, i * 0x1000 + 0x100);
        }
    }

    #[test]
    fn clear_resets_registers() {
        let mut abrs = AddressBoundRegisters::new();
        abrs.program(0, 100);
        assert!(abrs.is_programmed());
        abrs.clear();
        assert!(!abrs.is_programmed());
        assert_eq!(abrs.programmed_count(), 0);
    }
}
