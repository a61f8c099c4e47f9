//! # grasp-analytics — a Ligra-style vertex-centric analytics framework
//!
//! This crate is the software substrate of the GRASP (HPCA'20) reproduction:
//! the equivalent of the Ligra framework and the five applications of
//! Table III (PageRank, PageRank-Delta, Betweenness Centrality, Single-Source
//! Shortest Paths and Radii estimation).
//!
//! Beyond producing correct analytical results, every application models its
//! memory behaviour: per-vertex state lives in *Property Arrays* placed at
//! simulated virtual addresses, and every access is reported to a
//! [`mem::MemoryModel`]. One traversal engine places an application's arrays
//! and models its structural accesses (Vertex Array, Edge Array, frontier);
//! each application models its property accesses. The models are:
//!
//! * [`mem::NativeMemory`] — a no-op, used when measuring real wall-clock
//!   runtimes (the Fig. 10a reordering study);
//! * a [`grasp_cachesim::Hierarchy`] with either LLC sink: with an
//!   [`LlcTrace`](grasp_cachesim::LlcTrace) it records the post-L2 stream
//!   that every simulated figure replays under each LLC policy; with an
//!   [`LlcStage`](grasp_cachesim::LlcStage) it simulates one policy
//!   directly, the oracle replay is checked against.
//!
//! The engine programs the GRASP Address Bound Registers with the bounds of
//! an application's Property Arrays right after placing them, exactly as
//! the instrumented Ligra applications do in the paper.
//!
//! ```
//! use grasp_analytics::apps::{AppKind, AppConfig};
//! use grasp_analytics::mem::NativeMemory;
//! use grasp_graph::generators::{GraphGenerator, Rmat};
//!
//! let graph = Rmat::new(8, 8).generate(1);
//! let mut mem = NativeMemory;
//! // PR damps by 0.85 and runs its whole iteration budget.
//! let config = AppConfig { max_iterations: 10, ..AppConfig::default() };
//! let result = AppKind::PageRank.run(&graph, &mut mem, &config);
//! assert_eq!(result.iterations, 10);
//! assert_eq!(result.values.len(), graph.vertex_count());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub(crate) mod engine;
pub(crate) mod frontier;
pub mod mem;

pub use engine::PropertyLayout;
pub use mem::{MemoryModel, NativeMemory};

/// A test graph from `(src, dst)` pairs over `max(endpoint) + 1` vertices.
#[cfg(test)]
pub(crate) fn csr_of(
    pairs: impl IntoIterator<Item = (grasp_graph::VertexId, grasp_graph::VertexId)>,
) -> grasp_graph::Csr {
    let edges = pairs.into_iter().map(grasp_graph::types::Edge::from);
    grasp_graph::Csr::from_edge_list(&edges.collect()).unwrap()
}

/// Access-site identifiers (the PC proxies carried with every access).
pub mod sites {
    use grasp_cachesim::request::AccessSite;

    /// Reads of the CSR Vertex Array (offsets).
    pub const VERTEX_ARRAY: AccessSite = 1;
    /// Reads of the CSR Edge Array (neighbour IDs / weights).
    pub const EDGE_ARRAY: AccessSite = 2;
    /// Reads of Property Array elements indexed by a *neighbour* vertex — the
    /// irregular accesses at the heart of the paper's analysis.
    pub const PROPERTY_GATHER: AccessSite = 3;
    /// Reads/writes of Property Array elements indexed by the *current*
    /// vertex (sequential).
    pub const PROPERTY_LOCAL: AccessSite = 4;
    /// Frontier bitmap reads and writes.
    pub const FRONTIER: AccessSite = 5;
}
