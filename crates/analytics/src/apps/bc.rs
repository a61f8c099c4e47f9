//! Betweenness Centrality (Brandes' algorithm with a BFS kernel).
//!
//! BC runs a forward BFS from the root counting the number of shortest paths
//! through every vertex, then a backward sweep over the BFS levels
//! accumulating dependencies. Both phases perform one irregular Property
//! Array access per traversed edge, matching the description in Table III.

use super::bfs;
use super::{AppConfig, AppResult, ROOT};
use crate::engine::Engine;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_graph::types::Direction;
use grasp_graph::GraphView;

/// Field index of the shortest-path counts.
const FIELD_NUM_PATHS: usize = 0;
/// Field index of the accumulated dependency scores.
const FIELD_DEPENDENCY: usize = 1;

/// Runs Betweenness Centrality from vertex 0 and returns the per-vertex
/// dependency scores. The forward BFS runs to its last level, whatever
/// `config.max_iterations` says.
pub fn run<M: MemoryModel>(graph: &dyn GraphView, mem: &mut M, config: &AppConfig) -> AppResult {
    let n = graph.vertex_count();
    let mut eng = Engine::new(graph, mem, false, &[8, 8], config.layout);

    // Phase 1: BFS to establish levels.
    let bfs::BfsOutput { level, levels } = bfs::run(graph, &mut eng, ROOT);

    // Phase 2: forward pass over levels accumulating shortest-path counts.
    let mut num_paths = vec![0.0f64; n];
    num_paths[ROOT as usize] = 1.0;
    for &v in levels.iter().skip(1).flatten() {
        eng.visit(v);
        let mut acc = 0.0;
        eng.scan(v, Direction::In, false, |eng, u, _| {
            eng.read(FIELD_NUM_PATHS, u, sites::PROPERTY_GATHER);
            if level[u as usize] != u32::MAX && level[u as usize] + 1 == level[v as usize] {
                acc += num_paths[u as usize];
            }
        });
        eng.write(FIELD_NUM_PATHS, v, sites::PROPERTY_LOCAL);
        num_paths[v as usize] = acc;
    }

    // Phase 3: backward pass accumulating dependencies.
    let mut dependency = vec![0.0f64; n];
    for &u in levels.iter().rev().flatten() {
        eng.visit(u);
        let mut acc = 0.0;
        eng.scan(u, Direction::Out, false, |eng, v, _| {
            eng.read(FIELD_DEPENDENCY, v, sites::PROPERTY_GATHER);
            if level[u as usize] != u32::MAX
                && level[v as usize] == level[u as usize] + 1
                && num_paths[v as usize] > 0.0
            {
                acc +=
                    num_paths[u as usize] / num_paths[v as usize] * (1.0 + dependency[v as usize]);
            }
        });
        eng.write(FIELD_DEPENDENCY, u, sites::PROPERTY_LOCAL);
        dependency[u as usize] = acc;
    }

    eng.finish("BC", dependency, levels.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_of;
    use crate::mem::NativeMemory;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    fn run_native(graph: &dyn GraphView) -> AppResult {
        run(
            graph,
            &mut NativeMemory,
            &AppConfig {
                max_iterations: 1000,
                ..AppConfig::default()
            },
        )
    }

    #[test]
    fn path_graph_has_maximal_centrality_in_the_middle() {
        // 0 -> 1 -> 2 -> 3 -> 4 (directed path). From root 0, vertex 1 lies on
        // the most downstream shortest paths.
        let g = csr_of([(0, 1), (1, 2), (2, 3), (3, 4)]);
        let result = run_native(&g);
        // Dependency of vertex k from a path source: number of downstream
        // vertices: dep(1)=3, dep(2)=2, dep(3)=1, dep(4)=0.
        assert!((result.values[1] - 3.0).abs() < 1e-9);
        assert!((result.values[2] - 2.0).abs() < 1e-9);
        assert!((result.values[3] - 1.0).abs() < 1e-9);
        assert!((result.values[4] - 0.0).abs() < 1e-9);
        assert!(
            (result.values[0] - 4.0).abs() < 1e-9,
            "root accumulates everything downstream"
        );
    }

    #[test]
    fn diamond_graph_splits_paths() {
        // 0 -> {1, 2} -> 3: two shortest paths to 3, each middle vertex gets
        // dependency 0.5.
        let g = csr_of([(0, 1), (0, 2), (1, 3), (2, 3)]);
        let result = run_native(&g);
        assert!((result.values[1] - 0.5).abs() < 1e-9);
        assert!((result.values[2] - 0.5).abs() < 1e-9);
        assert!((result.values[3] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_are_non_negative_and_finite() {
        let g = Rmat::new(8, 6).generate(7);
        let result = run_native(&g);
        assert!(result.values.iter().all(|&d| d.is_finite() && d >= 0.0));
        assert!(result.edges_processed > 0);
    }

    #[test]
    fn unreachable_vertices_have_zero_dependency() {
        let g = csr_of([(0, 1), (2, 3)]);
        let result = run_native(&g);
        assert_eq!(result.values[2], 0.0);
        assert_eq!(result.values[3], 0.0);
    }
}
