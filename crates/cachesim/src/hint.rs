//! GRASP's software–hardware interface: reuse hints, Address Bound Registers
//! and the region classification logic (Sec. III-A and III-B of the paper).
//!
//! The bounds an application programs into the ABRs are application state;
//! the hint they yield is a function of the *LLC capacity* as well (High is
//! the LLC-sized prefix of each Property Array, Moderate the next LLC-sized
//! chunk). So the classifier lives at the LLC: an
//! [`LlcStage`](crate::stage::LlcStage) builds it when its ABRs are
//! programmed ([`LlcSink::program_abrs`](crate::stage::LlcSink::program_abrs)),
//! at the stage's own size, and a recorded stream carries the bounds, never a
//! hint.

use crate::addr::Address;

/// The 2-bit reuse hint GRASP forwards to the LLC with every cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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

/// Maximum number of ABR pairs the hardware provides. The paper instruments
/// at most two Property Arrays per application; commodity implementations
/// would provision a handful of registers.
pub const MAX_ABR_PAIRS: usize = 8;

/// The Address Bound Registers as programmed — one `(start, end)` pair per
/// Property Array (Sec. III-A) — together with the classification logic of
/// GRASP (Sec. III-B) for one LLC capacity: labels every address as High-,
/// Moderate-, Low-Reuse or Default.
///
/// The LLC-sized region at the start of each Property Array is the High Reuse
/// Region; the next LLC-sized region is the Moderate Reuse Region; when `n`
/// Property Arrays are programmed, each array's regions are `LLC size / n`
/// bytes long. With no pair programmed, every address is
/// [`ReuseHint::Default`], disabling specialized management.
///
/// ```
/// use grasp_cachesim::hint::{RegionClassifier, ReuseHint};
///
/// // A 512 KiB property array in front of a 64 KiB LLC.
/// let classifier = RegionClassifier::new(&[(0x10000, 0x90000)], 64 * 1024);
/// assert_eq!(classifier.classify(0x10000), ReuseHint::High);
/// assert_eq!(classifier.classify(0x20000), ReuseHint::Moderate);
/// assert_eq!(classifier.classify(0x40000), ReuseHint::Low);
/// assert_eq!(classifier.classify(0xF0000), ReuseHint::Low);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionClassifier {
    /// Per programmed Property Array: its start, then the length of its High
    /// region and of its High and Moderate regions together.
    arrays: Vec<(Address, u64, u64)>,
    /// The hint of an address in no region, in a Moderate one only, in a
    /// High one.
    hints: [ReuseHint; 3],
}

impl RegionClassifier {
    /// Programs the ABRs with `bounds` (the half-open `[start, end)` of each
    /// Property Array) and builds the classifier for an LLC of `llc_bytes`.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_ABR_PAIRS`] pairs, or on a pair whose end
    /// precedes its start.
    pub fn new(bounds: &[(Address, Address)], llc_bytes: u64) -> Self {
        assert!(
            bounds.len() <= MAX_ABR_PAIRS,
            "{} ABR pairs programmed, the hardware has {MAX_ABR_PAIRS}",
            bounds.len()
        );
        let share = llc_bytes / bounds.len().max(1) as u64;
        let arrays = bounds
            .iter()
            .map(|&(start, end)| {
                assert!(end >= start, "end must not precede start");
                let len = end - start;
                let high = share.min(len);
                (start, high, high.saturating_add(share).min(len))
            })
            .collect();
        let hints = if bounds.is_empty() {
            [ReuseHint::Default; 3]
        } else {
            [ReuseHint::Low, ReuseHint::Moderate, ReuseHint::High]
        };
        Self { arrays, hints }
    }

    /// A classifier with unprogrammed ABRs: every address maps to
    /// [`ReuseHint::Default`].
    pub fn disabled() -> Self {
        Self::new(&[], 0)
    }

    /// Classifies an address into a reuse hint.
    #[inline]
    pub fn classify(&self, addr: Address) -> ReuseHint {
        // No early exit and no branch on the address: which region it falls
        // in is data, and a branch on it mispredicts in replay's loop. An
        // address below an array's start wraps to an offset past its end.
        let (mut high, mut moderate) = (false, false);
        for &(start, high_len, moderate_len) in &self.arrays {
            let offset = addr.wrapping_sub(start);
            high |= offset < high_len;
            moderate |= offset < moderate_len;
        }
        self.hints[usize::from(high) + usize::from(moderate)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hint_is_default() {
        assert_eq!(ReuseHint::default(), ReuseHint::Default);
    }

    #[test]
    fn bound_pair_contains() {
        // An ABR pair is half-open: its start is in the array, its end not.
        let c = RegionClassifier::new(&[(100, 200)], 1 << 20);
        assert_eq!(c.classify(100), ReuseHint::High);
        assert_eq!(c.classify(199), ReuseHint::High);
        assert_eq!(c.classify(200), ReuseHint::Low);
        assert_eq!(c.classify(99), ReuseHint::Low);
        let empty = RegionClassifier::new(&[(5, 5)], 1 << 20);
        assert_eq!(empty.classify(5), ReuseHint::Low);
    }

    #[test]
    #[should_panic(expected = "end must not precede start")]
    fn inverted_bounds_panic() {
        let _ = RegionClassifier::new(&[(10, 5)], 64);
    }

    #[test]
    fn unprogrammed_registers_disable_classification() {
        let c = RegionClassifier::disabled();
        assert_eq!(c.classify(0), ReuseHint::Default);
        assert_eq!(c.classify(u64::MAX), ReuseHint::Default);
    }

    #[test]
    fn single_array_regions() {
        // A 1 MiB array.
        let c = RegionClassifier::new(&[(0x1000, 0x1000 + 1024 * 1024)], 64 * 1024);
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
        let c = RegionClassifier::new(&[(0x0, 0x100000), (0x400000, 0x500000)], 128 * 1024);
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
        // A 2 KiB array, much smaller than the LLC.
        let c = RegionClassifier::new(&[(0x0, 0x800)], 64 * 1024);
        assert_eq!(c.classify(0x0), ReuseHint::High);
        assert_eq!(c.classify(0x7FF), ReuseHint::High);
        // Addresses past the array are Low even though the "share" is larger.
        assert_eq!(c.classify(0x800), ReuseHint::Low);
    }

    #[test]
    fn bounds_at_the_top_of_the_address_space_saturate() {
        // A trace's bounds come from a file: an array ending at u64::MAX
        // must neither overflow the region arithmetic nor panic.
        let c = RegionClassifier::new(&[(u64::MAX - 100, u64::MAX)], 64 * 1024);
        assert_eq!(c.classify(u64::MAX - 100), ReuseHint::High);
        assert_eq!(c.classify(u64::MAX - 1), ReuseHint::High);
        assert_eq!(c.classify(u64::MAX), ReuseHint::Low, "end is exclusive");
        assert_eq!(c.classify(0), ReuseHint::Low);
    }

    #[test]
    #[should_panic(expected = "ABR pairs programmed")]
    fn programming_too_many_pairs_panics() {
        let bounds: Vec<_> = (0..=MAX_ABR_PAIRS as u64)
            .map(|i| (i * 0x1000, i * 0x1000 + 0x100))
            .collect();
        let _ = RegionClassifier::new(&bounds, 64 * 1024);
    }
}
