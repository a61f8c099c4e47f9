//! Memory access requests.

use crate::addr::Address;
use crate::hint::ReuseHint;

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (write-allocate).
    Write,
}

/// Which logical data structure an access belongs to.
///
/// The labels mirror the data structures of a CSR-based graph framework
/// (Sec. II-B/II-C of the paper) and drive the Fig. 2 access/miss breakdown:
/// accesses to [`RegionLabel::Property`] are "within the Property Array",
/// everything else is "outside".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionLabel {
    /// Per-vertex Property Array elements (ranks, distances, ...).
    Property,
    /// The CSR Vertex Array (offsets).
    VertexArray,
    /// The CSR Edge Array (neighbour IDs / weights).
    EdgeArray,
    /// Frontier bitmaps / worklists.
    Frontier,
    /// Anything else (stack, bookkeeping, non-graph data).
    Other,
}

impl RegionLabel {
    /// All labels, in reporting order.
    pub const ALL: [RegionLabel; 5] = [
        RegionLabel::Property,
        RegionLabel::VertexArray,
        RegionLabel::EdgeArray,
        RegionLabel::Frontier,
        RegionLabel::Other,
    ];

    /// Index of this label in [`RegionLabel::ALL`] (declaration order), used
    /// for direct per-region counter indexing on the access hot path.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            RegionLabel::Property => "property",
            RegionLabel::VertexArray => "vertex",
            RegionLabel::EdgeArray => "edge",
            RegionLabel::Frontier => "frontier",
            RegionLabel::Other => "other",
        }
    }
}

impl std::fmt::Display for RegionLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of the code site performing an access.
///
/// This is the reproduction's stand-in for the program counter (PC) signature
/// used by history-based schemes (SHiP, Hawkeye, Leeway). Crucially — and this
/// is the paper's core argument against PC-based correlation — the *same*
/// site accesses both hot and cold vertices of the Property Array, so a
/// site-indexed predictor cannot separate them.
pub type AccessSite = u16;

/// A single memory access presented to the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessInfo {
    /// Byte address.
    pub addr: Address,
    /// Read or write.
    pub kind: AccessKind,
    /// Code-site identifier (PC proxy).
    pub site: AccessSite,
    /// GRASP reuse hint (2 bits), set by the LLC stage
    /// ([`crate::stage::LlcStage`]) from its classifier;
    /// [`ReuseHint::Default`] above the LLC, for non-graph data, or when the
    /// Address Bound Registers are not programmed.
    pub hint: ReuseHint,
    /// Logical data-structure label used for per-region statistics.
    pub region: RegionLabel,
}

impl AccessInfo {
    /// A plain read with no hint and no region label.
    pub fn read(addr: Address) -> Self {
        Self {
            addr,
            kind: AccessKind::Read,
            site: 0,
            hint: ReuseHint::Default,
            region: RegionLabel::Other,
        }
    }

    /// A plain write with no hint and no region label.
    pub fn write(addr: Address) -> Self {
        Self {
            kind: AccessKind::Write,
            ..Self::read(addr)
        }
    }

    /// Sets the reuse hint.
    #[must_use]
    pub fn with_hint(mut self, hint: ReuseHint) -> Self {
        self.hint = hint;
        self
    }

    /// Returns `true` for writes.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let a = AccessInfo::write(0x40).with_hint(ReuseHint::High);
        assert!(a.is_write());
        assert_eq!(a.site, 0);
        assert_eq!(a.hint, ReuseHint::High);
        assert_eq!(a.region, RegionLabel::Other);
    }

    #[test]
    fn read_defaults() {
        let a = AccessInfo::read(0);
        assert!(!a.is_write());
        assert_eq!(a.hint, ReuseHint::Default);
        assert_eq!(a.region, RegionLabel::Other);
    }

    #[test]
    fn region_labels_are_unique_and_displayable() {
        let labels: std::collections::HashSet<&str> =
            RegionLabel::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), RegionLabel::ALL.len());
        assert_eq!(RegionLabel::Property.to_string(), "property");
    }

    #[test]
    fn region_index_matches_declaration_order() {
        for (position, &label) in RegionLabel::ALL.iter().enumerate() {
            assert_eq!(label.index(), position, "{label}");
        }
    }
}
