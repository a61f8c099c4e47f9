//! The graph-analytic applications of Table III.
//!
//! | Application | Computation | Per-vertex properties |
//! |---|---|---|
//! | [`pagerank`] (PR) | iterative pull-based rank propagation | rank, next rank |
//! | [`pagerank_delta`] (PRD) | PR restricted to vertices with enough accumulated change | rank, delta, next delta |
//! | [`bc`] (BC) | forward BFS counting shortest paths + backward dependency accumulation | path counts, dependencies |
//! | [`sssp`] (SSSP) | Bellman-Ford from a root over a weighted graph (push-based) | distances |
//! | [`radii`] (Radii) | multiple simultaneous BFS via bit masks | visited masks, radii |
//!
//! Every application allocates its Property Arrays through
//! [`crate::props::PropertySet`], programs the GRASP Address Bound Registers
//! with their bounds, and reports every memory access it performs to the
//! workspace's memory model.

pub mod bc;
pub mod bfs;
pub mod pagerank;
pub mod pagerank_delta;
pub mod radii;
pub mod sssp;

use crate::mem::MemoryModel;
use crate::props::PropertyLayout;
use crate::workspace::Workspace;
use grasp_graph::types::VertexId;
use grasp_graph::GraphView;

/// Configuration shared by every application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppConfig {
    /// Maximum number of iterations (PR/PRD/Radii) or traversal rounds
    /// (BC/SSSP) to execute. The paper's simulated region of interest covers
    /// the dominant iterations only; the bench harness uses small values.
    pub max_iterations: usize,
    /// Root vertex for root-dependent applications (BC, SSSP).
    pub root: VertexId,
    /// Number of simultaneous BFS sources for Radii estimation.
    pub sample_roots: usize,
    /// PageRank damping factor.
    pub damping: f64,
    /// Convergence / activation threshold for PR and PRD.
    pub epsilon: f64,
    /// Property Array layout (merged vs separate; Table IV).
    pub layout: PropertyLayout,
}

impl Default for AppConfig {
    fn default() -> Self {
        Self {
            max_iterations: 20,
            root: 0,
            sample_roots: 8,
            damping: 0.85,
            epsilon: 1e-7,
            layout: PropertyLayout::Merged,
        }
    }
}

impl AppConfig {
    /// Overrides the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Overrides the root vertex.
    #[must_use]
    pub fn with_root(mut self, root: VertexId) -> Self {
        self.root = root;
        self
    }

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

    /// Runs the application on `graph`.
    pub fn run<M: MemoryModel>(
        self,
        graph: &dyn GraphView,
        ws: &mut Workspace<M>,
        config: &AppConfig,
    ) -> AppResult {
        match self {
            AppKind::Bc => bc::run(graph, ws, config),
            AppKind::Sssp => sssp::run(graph, ws, config),
            AppKind::PageRank => pagerank::run(graph, ws, config),
            AppKind::PageRankDelta => pagerank_delta::run(graph, ws, config),
            AppKind::Radii => radii::run(graph, ws, config),
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
    use crate::mem::NativeMemory;
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
        let config = AppConfig::default().with_max_iterations(5);
        for app in AppKind::ALL {
            let mut ws = Workspace::new(NativeMemory::new());
            let result = app.run(&g, &mut ws, &config);
            assert_eq!(result.values.len(), g.vertex_count(), "{app}");
            assert!(result.iterations > 0, "{app}");
            assert!(result.edges_processed > 0, "{app}");
            assert!(ws.access_count() > 0, "{app}");
            assert!(result.instruction_estimate() > result.edges_processed);
        }
    }

    #[test]
    fn config_builders() {
        let c = AppConfig::default()
            .with_max_iterations(3)
            .with_root(7)
            .with_layout(PropertyLayout::Separate);
        assert_eq!(c.max_iterations, 3);
        assert_eq!(c.root, 7);
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
