//! # grasp-graph — graph substrate for the GRASP reproduction
//!
//! This crate provides everything the GRASP (HPCA'20) reproduction needs to
//! *represent*, *generate* and *characterize* graphs:
//!
//! * [`Csr`] — a Compressed Sparse Row graph representation with optional
//!   edge weights, in-/out-edge views and transposition, mirroring the format
//!   used by shared-memory frameworks such as Ligra (Sec. II-B of the paper).
//! * [`EdgeList`] — a mutable edge-list staging container used by builders,
//!   generators and I/O.
//! * [`generators`] — synthetic graph generators standing in for the paper's
//!   datasets (Table V): R-MAT/Kronecker power-law graphs, uniform
//!   Erdős–Rényi graphs and Chung-Lu graphs with a configurable skew
//!   exponent.
//! * [`degree`] — degree statistics and the hot-vertex / edge-coverage skew
//!   analysis of Table I.
//! * [`io`] — plain-text edge-list load and save.
//! * [`prng`] — deterministic pseudo-random number generators (SplitMix64,
//!   Xoshiro256**) so every synthetic dataset and probabilistic policy in the
//!   workspace is exactly reproducible.
//!
//! ## Quick example
//!
//! ```
//! use grasp_graph::generators::{Rmat, GraphGenerator};
//! use grasp_graph::degree::SkewReport;
//!
//! // A small Twitter-like power-law graph.
//! let graph = Rmat::new(10, 16).generate(42);
//! assert_eq!(graph.vertex_count(), 1 << 10);
//!
//! // Hot vertices (degree >= average) cover the vast majority of edges.
//! let skew = SkewReport::for_out_edges(&graph);
//! assert!(skew.edge_coverage_pct() > 50.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csr;
pub mod degree;
pub mod edgelist;
pub mod generators;
pub mod ingest;
pub mod io;
pub mod prng;
pub mod types;
pub mod view;

pub use csr::Csr;
pub use degree::{DegreeStats, SkewReport};
pub use edgelist::EdgeList;
pub use ingest::{DiskCsrError, GraphStats, MappedCsr};
pub use types::{EdgeWeight, VertexId};
pub use view::GraphView;

/// Errors produced by the graph substrate.
#[derive(Debug)]
pub enum GraphError {
    /// An edge references a vertex that is outside of the declared vertex range.
    VertexOutOfBounds {
        /// The offending vertex identifier.
        vertex: u64,
        /// Number of vertices in the graph.
        vertex_count: u64,
    },
    /// The graph is empty but the operation requires at least one vertex.
    EmptyGraph,
    /// An I/O error occurred while reading or writing a graph.
    Io(std::io::Error),
    /// The on-disk representation is malformed.
    Format(String),
    /// A typed on-disk binary-CSR error (see [`ingest::DiskCsrError`]).
    DiskCsr(ingest::DiskCsrError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfBounds {
                vertex,
                vertex_count,
            } => write!(
                f,
                "vertex {vertex} is out of bounds for a graph with {vertex_count} vertices"
            ),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Format(msg) => write!(f, "malformed graph data: {msg}"),
            GraphError::DiskCsr(e) => write!(f, "binary CSR error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::DiskCsr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ingest::DiskCsrError> for GraphError {
    fn from(e: ingest::DiskCsrError) -> Self {
        GraphError::DiskCsr(e)
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Applies `work` to every item — the first on the calling thread, each
/// further one on a scoped thread of its own — and returns the results in
/// item order. A worker's panic resumes on the caller.
pub(crate) fn on_scoped_threads<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        let mut results = vec![work(first)];
        for worker in spawned {
            results.push(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::VertexOutOfBounds {
            vertex: 12,
            vertex_count: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("12"));
        assert!(msg.contains("10"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
