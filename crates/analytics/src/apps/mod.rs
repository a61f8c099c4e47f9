//! The graph-analytic applications of Table III.
//!
//! | Application | Computation | Per-vertex properties |
//! |---|---|---|
//! | `pagerank` (PR) | iterative pull-based rank propagation | rank, next rank |
//! | `pagerank_delta` (PRD) | PR restricted to vertices with enough accumulated change | rank, delta, next delta |
//! | `bc` (BC) | forward BFS counting shortest paths + backward dependency accumulation | path counts, dependencies |
//! | `sssp` (SSSP) | Bellman-Ford from a root over a weighted graph (push-based) | distances |
//! | `radii` (Radii) | multiple simultaneous BFS via bit masks | visited masks, radii |
//!
//! An application runs on its memory model directly: it hands the model to
//! the crate's traversal engine, which places its structural and Property
//! Arrays in a simulated virtual address space, programs the model's GRASP
//! Address Bound Registers with the Property Arrays' bounds and models every
//! structural access. The application's own code models only its Property
//! Array traffic.

pub(crate) mod bc;
pub(crate) mod bfs;
pub(crate) mod pagerank;
pub(crate) mod pagerank_delta;
pub(crate) mod radii;
pub(crate) mod sssp;

use crate::mem::MemoryModel;
use crate::PropertyLayout;
use grasp_graph::types::VertexId;
use grasp_graph::GraphView;

/// The root vertex of BC and SSSP.
pub(crate) const ROOT: VertexId = 0;

/// The damping factor of PR and PRD.
pub(crate) const DAMPING: f64 = 0.85;

/// What a run may vary: the two settings the evaluation sets per run. The
/// rest of each application's parameters are fixed: BC and SSSP start at
/// vertex 0, Radii runs 8 simultaneous BFSs, PR and PRD damp by 0.85, PR
/// runs its whole iteration budget and PRD keeps a vertex active while its
/// change exceeds 1e-9 of its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppConfig {
    /// Maximum number of iterations (PR/PRD/Radii) or relaxation rounds
    /// (SSSP) to execute. BC's BFS always runs to its last level, so BC
    /// ignores it. The paper's simulated region of interest covers the
    /// dominant iterations only; the bench harness uses small values.
    pub max_iterations: usize,
    /// Property Array layout (merged vs separate; Table IV).
    pub layout: PropertyLayout,
}

impl Default for AppConfig {
    fn default() -> Self {
        Self {
            max_iterations: 20,
            layout: PropertyLayout::Merged,
        }
    }
}

impl AppConfig {
    /// Overrides the property layout.
    #[must_use]
    pub fn with_layout(mut self, layout: PropertyLayout) -> Self {
        self.layout = layout;
        self
    }
}

/// The output of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    /// Application name.
    pub app: &'static str,
    /// Primary per-vertex output (ranks, distances, dependency scores, radii).
    pub values: Vec<f64>,
    /// Number of iterations / rounds actually executed.
    pub iterations: usize,
    /// Number of edges traversed across all iterations.
    pub edges_processed: u64,
}

impl AppResult {
    /// A rough instruction-count estimate used by the timing model: graph
    /// kernels execute a handful of instructions per traversed edge.
    pub fn instruction_estimate(&self) -> u64 {
        self.edges_processed * 8 + self.values.len() as u64 * 4
    }
}

/// The five applications evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Betweenness Centrality.
    Bc,
    /// Single-Source Shortest Paths (Bellman-Ford).
    Sssp,
    /// PageRank.
    PageRank,
    /// PageRank-Delta.
    PageRankDelta,
    /// Radii estimation (multi-source BFS).
    Radii,
}

impl AppKind {
    /// All applications in the order used by the paper's figures
    /// (BC, SSSP, PR, PRD, Radii).
    pub const ALL: [AppKind; 5] = [
        AppKind::Bc,
        AppKind::Sssp,
        AppKind::PageRank,
        AppKind::PageRankDelta,
        AppKind::Radii,
    ];

    /// Short label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::Bc => "BC",
            AppKind::Sssp => "SSSP",
            AppKind::PageRank => "PR",
            AppKind::PageRankDelta => "PRD",
            AppKind::Radii => "Radii",
        }
    }

    /// Parses a display label ([`AppKind::label`]) back to the kind.
    pub fn from_label(label: &str) -> Option<Self> {
        AppKind::ALL.into_iter().find(|app| app.label() == label)
    }

    /// Which degree direction determines vertex hotness for this application:
    /// pull-based applications reuse elements proportionally to out-degree,
    /// push-based ones to in-degree (Sec. II-C).
    pub fn hotness_direction(self) -> grasp_graph::types::Direction {
        match self {
            // SSSP is push-based throughout; everything else is dominated by
            // pull iterations (Sec. IV-C).
            AppKind::Sssp => grasp_graph::types::Direction::In,
            _ => grasp_graph::types::Direction::Out,
        }
    }

    /// Runs the application on `graph`, reporting every memory access to
    /// `mem`.
    pub fn run<M: MemoryModel>(
        self,
        graph: &dyn GraphView,
        mem: &mut M,
        config: &AppConfig,
    ) -> AppResult {
        match self {
            AppKind::Bc => bc::run(graph, mem, config),
            AppKind::Sssp => sssp::run(graph, mem, config),
            AppKind::PageRank => pagerank::run(graph, mem, config),
            AppKind::PageRankDelta => pagerank_delta::run(graph, mem, config),
            AppKind::Radii => radii::run(graph, mem, config),
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessLog;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<&str> = AppKind::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["BC", "SSSP", "PR", "PRD", "Radii"]);
        assert_eq!(AppKind::PageRank.to_string(), "PR");
    }

    #[test]
    fn all_apps_run_on_a_small_graph() {
        let g = Rmat::new(7, 6).generate(5);
        let config = AppConfig {
            max_iterations: 5,
            ..AppConfig::default()
        };
        for app in AppKind::ALL {
            let mut mem = AccessLog::default();
            let result = app.run(&g, &mut mem, &config);
            assert_eq!(result.values.len(), g.vertex_count(), "{app}");
            assert!(result.iterations > 0, "{app}");
            assert!(result.edges_processed > 0, "{app}");
            assert!(!mem.0.is_empty(), "{app}");
            assert!(result.instruction_estimate() > result.edges_processed);
        }
    }

    #[test]
    fn config_builders() {
        let c = AppConfig {
            max_iterations: 3,
            ..AppConfig::default()
        }
        .with_layout(PropertyLayout::Separate);
        assert_eq!(c.max_iterations, 3);
        assert_eq!(c.layout, PropertyLayout::Separate);
    }

    #[test]
    fn weighted_and_direction_metadata() {
        assert_eq!(
            AppKind::Sssp.hotness_direction(),
            grasp_graph::types::Direction::In
        );
        assert_eq!(
            AppKind::PageRank.hotness_direction(),
            grasp_graph::types::Direction::Out
        );
    }
}
