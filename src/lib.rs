//! # grasp-suite — umbrella crate for the GRASP (HPCA'20) reproduction
//!
//! This crate re-exports the individual workspace crates under one roof so
//! that examples and downstream users can depend on a single crate:
//!
//! * [`graph`] — graph substrate (CSR, generators, skew analysis).
//! * [`reorder`] — skew-aware vertex reordering (Sort, HubSort, DBG, Gorder).
//! * [`cachesim`] — cache-hierarchy simulator and replacement policies.
//! * [`analytics`] — Ligra-style vertex-centric applications with memory
//!   tracing.
//! * [`core`] — experiment orchestration: dataset catalog, policy registry,
//!   experiments, campaigns, the trace store and reporting. GRASP itself —
//!   the reuse hints and the replacement policy — lives at the LLC, in
//!   [`cachesim`].
//!
//! See the `examples/` directory for end-to-end walkthroughs,
//! `docs/architecture.md` for how the pieces fit, and the README's
//! "Regenerating the paper's figures" for how each table and figure of the
//! paper is regenerated.

pub use grasp_analytics as analytics;
pub use grasp_cachesim as cachesim;
pub use grasp_core as core;
pub use grasp_graph as graph;
pub use grasp_reorder as reorder;
