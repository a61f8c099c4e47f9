//! Reordering cost accounting.
//!
//! Fig. 10a of the paper reports the *net* speed-up of each reordering
//! technique: application speed-up **after accounting for the reordering
//! cost**. [`run`] runs one [`TechniqueKind`] and measures the wall-clock
//! time spent computing and applying the permutation so the bench harness
//! can charge it against the application runtime.

use crate::perm::Permutation;
use crate::TechniqueKind;
use grasp_graph::types::Direction;
use grasp_graph::{Csr, GraphView};
use std::time::{Duration, Instant};

/// The result of a timed reordering: the permutation, the relabelled graph
/// and the time it took to produce them.
#[derive(Debug, Clone)]
pub struct ReorderOutcome {
    /// Old-ID → new-ID mapping.
    pub permutation: Permutation,
    /// The relabelled graph.
    pub graph: Csr,
    /// Time spent computing the permutation.
    pub compute_time: Duration,
    /// Time spent rebuilding the CSR under the permutation.
    pub apply_time: Duration,
}

impl ReorderOutcome {
    /// Total reordering cost (compute + apply).
    pub fn total_time(&self) -> Duration {
        self.compute_time + self.apply_time
    }
}

/// Runs `technique` on `graph` and returns the outcome together with
/// wall-clock timings.
pub fn run(
    technique: TechniqueKind,
    graph: &dyn GraphView,
    direction: Direction,
) -> ReorderOutcome {
    let start = Instant::now();
    let permutation = technique.compute(graph, direction);
    let compute_time = start.elapsed();
    let start = Instant::now();
    let relabelled = crate::apply::relabel(graph, &permutation);
    let apply_time = start.elapsed();
    ReorderOutcome {
        permutation,
        graph: relabelled,
        compute_time,
        apply_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    #[test]
    fn timed_run_produces_consistent_outcome() {
        let g = Rmat::new(8, 8).generate(3);
        let outcome = run(TechniqueKind::Dbg, &g, Direction::Out);
        assert!(crate::is_bijection(&outcome.permutation));
        assert_eq!(outcome.graph.vertex_count(), g.vertex_count());
        assert_eq!(outcome.graph.edge_count(), g.edge_count());
        assert!(outcome.total_time() >= outcome.compute_time);
    }

    #[test]
    fn gorder_costs_more_than_dbg() {
        // Qualitative cost ordering that Fig. 10a depends on. Use a graph
        // large enough for the difference to dominate timer noise.
        let g = Rmat::new(12, 8).generate(3);
        let dbg = run(TechniqueKind::Dbg, &g, Direction::Out);
        let gorder = run(TechniqueKind::GorderDbg, &g, Direction::Out);
        assert!(
            gorder.compute_time > dbg.compute_time,
            "gorder {:?} should cost more than dbg {:?}",
            gorder.compute_time,
            dbg.compute_time
        );
    }
}
