//! # grasp-reorder — skew-aware vertex reordering
//!
//! GRASP (HPCA'20) relies on lightweight, skew-aware software reordering to
//! segregate hot vertices into a contiguous region at the start of the
//! Property Array (Sec. III of the paper). [`TechniqueKind`] is the closed
//! roster of the techniques the paper evaluates, and
//! [`TechniqueKind::compute`] runs one:
//!
//! * `Sort` — full degree-descending sort.
//! * `HubSort` — sorts only the hot vertices, preserving the relative order
//!   of cold vertices (Zhang et al., "Making caches work for graph
//!   analytics").
//! * `Dbg` — Degree-Based Grouping: coarse degree-based bucketing that keeps
//!   the original order within each bucket, preserving community structure
//!   (Faldu et al., IISWC'19).
//! * `GorderDbg` — a bounded-work approximation of Gorder (Wei et al.,
//!   SIGMOD'16), the expensive structure-aware baseline, followed by DBG.
//! * `Identity` — no reordering (the paper's "no reordering" baseline).
//!
//! Each technique produces a [`Permutation`] (old ID → new ID). Applying the
//! permutation with [`apply::relabel`] yields a graph in which vertex IDs are
//! ordered hottest-first, which is exactly the property GRASP's
//! Address Bound Registers exploit.
//!
//! ```
//! use grasp_graph::generators::{GraphGenerator, Rmat};
//! use grasp_reorder::{apply, TechniqueKind};
//! use grasp_graph::types::Direction;
//!
//! let g = Rmat::new(10, 8).generate(1);
//! let perm = TechniqueKind::Dbg.compute(&g, Direction::Out);
//! let reordered = apply::relabel(&g, &perm);
//! // After reordering, vertex 0 has one of the highest out-degrees.
//! assert!(reordered.out_degree(0) >= reordered.out_degree(reordered.vertex_count() as u32 - 1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apply;
pub mod cost;
mod dbg;
mod gorder;
pub mod hot;
mod hubsort;
pub mod perm;
mod sort;

pub use apply::relabel;
pub use cost::ReorderOutcome;
pub use hot::HotRegion;
pub use perm::Permutation;

use grasp_graph::types::Direction;
use grasp_graph::GraphView;

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

    /// Computes this technique's permutation (old vertex ID → new vertex ID)
    /// for `graph`.
    ///
    /// `direction` selects which degree drives hotness: pull-based
    /// applications reuse elements proportionally to their **out**-degree,
    /// push-based applications to their **in**-degree (Sec. II-C of the
    /// paper).
    pub fn compute(self, graph: &dyn GraphView, direction: Direction) -> Permutation {
        match self {
            TechniqueKind::Identity => Permutation::identity(graph.vertex_count()),
            TechniqueKind::Sort => sort::compute(graph, direction),
            TechniqueKind::HubSort => hubsort::compute(graph, direction),
            TechniqueKind::Dbg => dbg::compute(graph, direction),
            TechniqueKind::GorderDbg => gorder::compute(graph, direction),
        }
    }

    // An identity kept for `perfbench/src/ledger.rs:114` and `:217`, its only
    // callers; goes when those lines do.
    #[doc(hidden)]
    #[must_use]
    pub fn instantiate(self) -> Self {
        self
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
    use grasp_graph::generators::{ChungLu, GraphGenerator, Rmat, Uniform};

    #[test]
    fn all_kinds_instantiate_and_produce_valid_permutations() {
        let g = Rmat::new(8, 8).generate(3);
        for kind in TechniqueKind::ALL {
            let perm = kind.compute(&g, Direction::Out);
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

    /// FNV-1a over every `new_id`, little-endian.
    fn digest(perm: &Permutation) -> u64 {
        perm.as_slice()
            .iter()
            .flat_map(|id| id.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Pins every technique's exact permutation, in both directions, on a
    /// skewed R-MAT, a Chung-Lu and a uniform graph. Trace-store keys name
    /// the technique, not its permutation: if a digest here moves,
    /// `RECORDING_CODE_VERSION` must be bumped in the same change.
    #[test]
    fn permutation_digests_are_pinned() {
        #[rustfmt::skip]
        const EXPECTED: [u64; 30] = [
            // R-MAT: Identity, Sort, HubSort, DBG, Gorder(+DBG), each Out then In.
            0xb132_ca6c_eb3d_4c25, 0xb132_ca6c_eb3d_4c25,
            0x9a9a_a06c_9f5c_bfa5, 0x88c4_00a3_2018_0ba9,
            0x2d22_9a63_4775_2d51, 0x2eae_0e8a_85b0_b475,
            0xc51d_6e73_9c7f_4445, 0x6f50_8570_287c_e151,
            0xf04d_c44b_b9ab_d33d, 0x2b12_8cda_3198_2f81,
            // Chung-Lu: Identity, Sort, HubSort, DBG, Gorder(+DBG), each Out then In.
            0xb132_ca6c_eb3d_4c25, 0xb132_ca6c_eb3d_4c25,
            0x6a5e_002e_b6e9_898d, 0x373a_93f0_8a11_a901,
            0x61bc_6344_8c9b_3875, 0xa2a5_9275_8aa5_741d,
            0x7348_47f3_7538_bfdd, 0x390f_a9bf_40b6_be21,
            0x7fdc_13c1_4b05_f355, 0xb1b3_7171_a96d_15c1,
            // Uniform: Identity, Sort, HubSort, DBG, Gorder(+DBG), each Out then In.
            0xb132_ca6c_eb3d_4c25, 0xb132_ca6c_eb3d_4c25,
            0x215e_3d2a_e6fd_de79, 0xbc63_0243_e623_9da9,
            0x7df4_e078_705e_1889, 0x3cfd_31f0_3359_5169,
            0x48b8_d91e_44af_a985, 0x0130_2732_6712_acc5,
            0xa94b_8a3e_c202_c259, 0x1db6_dc68_5bc3_8555,
        ];
        let graphs = [
            Rmat::new(10, 8).generate(1),
            ChungLu::new(1024, 8, 2.0).generate(2),
            Uniform::new(1024, 8).generate(3),
        ];
        let mut got = Vec::new();
        for g in &graphs {
            for kind in TechniqueKind::ALL {
                for direction in [Direction::Out, Direction::In] {
                    got.push(digest(&kind.compute(g, direction)));
                }
            }
        }
        let got: String = got.iter().map(|d| format!("{d:#018x},")).collect();
        let expected: String = EXPECTED.iter().map(|d| format!("{d:#018x},")).collect();
        assert_eq!(
            got, expected,
            "a permutation moved: bump RECORDING_CODE_VERSION"
        );
    }
}
