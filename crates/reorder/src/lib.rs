//! # grasp-reorder — skew-aware vertex reordering
//!
//! GRASP (HPCA'20) relies on lightweight, skew-aware software reordering to
//! segregate hot vertices into a contiguous region at the start of the
//! Property Array (Sec. III of the paper). This crate implements the
//! reordering techniques evaluated by the paper:
//!
//! * [`Sort`] — full degree-descending sort.
//! * [`HubSort`] — sorts only the hot vertices, preserving the relative order
//!   of cold vertices (Zhang et al., "Making caches work for graph
//!   analytics").
//! * [`DegreeBasedGrouping`] (DBG) — coarse degree-based bucketing that keeps
//!   the original order within each bucket, preserving community structure
//!   (Faldu et al., IISWC'19).
//! * [`GorderLite`] — a bounded-work approximation of Gorder (Wei et al.,
//!   SIGMOD'16), the expensive structure-aware baseline.
//! * [`Identity`] — no reordering (the paper's "no reordering" baseline).
//!
//! Each technique produces a [`Permutation`] (old ID → new ID). Applying the
//! permutation with [`apply::relabel`] yields a graph in which vertex IDs are
//! ordered hottest-first, which is exactly the property GRASP's
//! Address Bound Registers exploit.
//!
//! ```
//! use grasp_graph::generators::{GraphGenerator, Rmat};
//! use grasp_reorder::{DegreeBasedGrouping, ReorderTechnique, apply};
//! use grasp_graph::types::Direction;
//!
//! let g = Rmat::new(10, 8).generate(1);
//! let dbg = DegreeBasedGrouping::default();
//! let perm = dbg.compute(&g, Direction::Out);
//! let reordered = apply::relabel(&g, &perm);
//! // After reordering, vertex 0 has one of the highest out-degrees.
//! assert!(reordered.out_degree(0) >= reordered.out_degree(reordered.vertex_count() as u32 - 1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apply;
pub mod cost;
pub mod dbg;
pub mod gorder;
pub mod hot;
pub mod hubsort;
pub mod identity;
pub mod perm;
pub mod sort;

pub use apply::relabel;
pub use cost::ReorderOutcome;
pub use dbg::DegreeBasedGrouping;
pub use gorder::GorderLite;
pub use hot::HotRegion;
pub use hubsort::HubSort;
pub use identity::Identity;
pub use perm::Permutation;
pub use sort::Sort;

use grasp_graph::types::Direction;
use grasp_graph::GraphView;

/// A vertex reordering technique.
///
/// `direction` selects which degree drives hotness: pull-based applications
/// reuse elements proportionally to their **out**-degree, push-based
/// applications to their **in**-degree (Sec. II-C of the paper).
pub trait ReorderTechnique: std::fmt::Debug {
    /// Computes a permutation (old vertex ID → new vertex ID) for `graph`.
    fn compute(&self, graph: &dyn GraphView, direction: Direction) -> Permutation;

    /// Short name used in reports ("Sort", "HubSort", "DBG", ...).
    fn name(&self) -> &'static str;

    /// Whether this technique guarantees that hot vertices end up in a
    /// contiguous region at the start of the ID space (required for GRASP's
    /// region classification to be meaningful).
    fn segregates_hot_vertices(&self) -> bool {
        true
    }
}

/// The set of techniques evaluated in the paper, in the order used by
/// Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechniqueKind {
    /// No reordering.
    Identity,
    /// Full degree sort.
    Sort,
    /// HubSort.
    HubSort,
    /// Degree-Based Grouping.
    Dbg,
    /// Gorder-lite followed by DBG (the paper's "Gorder(+DBG)" configuration).
    GorderDbg,
}

impl TechniqueKind {
    /// All technique kinds, in evaluation order.
    pub const ALL: [TechniqueKind; 5] = [
        TechniqueKind::Identity,
        TechniqueKind::Sort,
        TechniqueKind::HubSort,
        TechniqueKind::Dbg,
        TechniqueKind::GorderDbg,
    ];

    /// Instantiates the technique with default parameters.
    pub fn instantiate(self) -> Box<dyn ReorderTechnique> {
        match self {
            TechniqueKind::Identity => Box::new(Identity),
            TechniqueKind::Sort => Box::new(Sort),
            TechniqueKind::HubSort => Box::new(HubSort),
            TechniqueKind::Dbg => Box::new(DegreeBasedGrouping::default()),
            TechniqueKind::GorderDbg => Box::new(GorderLite::default().followed_by_dbg()),
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TechniqueKind::Identity => "Original",
            TechniqueKind::Sort => "Sort",
            TechniqueKind::HubSort => "HubSort",
            TechniqueKind::Dbg => "DBG",
            TechniqueKind::GorderDbg => "Gorder(+DBG)",
        }
    }

    /// Parses a display label ([`TechniqueKind::label`]) back to the kind.
    pub fn from_label(label: &str) -> Option<Self> {
        TechniqueKind::ALL
            .into_iter()
            .find(|technique| technique.label() == label)
    }
}

impl std::fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    #[test]
    fn all_kinds_instantiate_and_produce_valid_permutations() {
        let g = Rmat::new(8, 8).generate(3);
        for kind in TechniqueKind::ALL {
            let technique = kind.instantiate();
            let perm = technique.compute(&g, Direction::Out);
            assert!(perm.is_valid(), "{kind} produced an invalid permutation");
            assert_eq!(perm.len(), g.vertex_count());
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            TechniqueKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), TechniqueKind::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(TechniqueKind::Dbg.to_string(), "DBG");
        assert_eq!(TechniqueKind::GorderDbg.to_string(), "Gorder(+DBG)");
    }
}
