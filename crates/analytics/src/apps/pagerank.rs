//! PageRank (pull-based).
//!
//! Every iteration, each vertex pulls the rank contribution of its
//! in-neighbours: `rank'[v] = (1-d)/n + d * Σ rank[u] / out_degree(u)`.
//! Following the Ligra implementation used in the paper, the contribution
//! `rank[u] / out_degree(u)` is pre-divided at the end of each iteration so
//! the inner loop performs exactly one irregular Property Array read per edge
//! — the access pattern Fig. 1 analyses.

use super::{AppConfig, AppResult, DAMPING};
use crate::engine::Engine;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_graph::types::Direction;
use grasp_graph::GraphView;

/// Field index of the pre-divided contribution (`rank / out_degree`).
const FIELD_CONTRIB: usize = 0;
/// Field index of the rank being accumulated this iteration.
const FIELD_NEXT: usize = 1;

/// Runs PageRank and returns the per-vertex ranks.
pub fn run<M: MemoryModel>(graph: &dyn GraphView, mem: &mut M, config: &AppConfig) -> AppResult {
    let n = graph.vertex_count();
    let mut eng = Engine::new(graph, mem, false, &[8, 8], config.layout);

    let base = (1.0 - DAMPING) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    // Pre-divided contributions for the pull loop.
    let mut contrib: Vec<f64> = (0..n)
        .map(|v| rank[v] / graph.out_degree(v as u32).max(1) as f64)
        .collect();

    for _ in 0..config.max_iterations {
        for v in graph.vertices() {
            eng.visit(v);
            let mut acc = 0.0f64;
            eng.scan(v, Direction::In, false, |eng, u, _| {
                // The irregular gather: contribution of the in-neighbour.
                eng.read(FIELD_CONTRIB, u, sites::PROPERTY_GATHER);
                acc += contrib[u as usize];
            });
            eng.write(FIELD_NEXT, v, sites::PROPERTY_LOCAL);
            rank[v as usize] = base + DAMPING * acc;
        }
        // Refresh the pre-divided contributions (sequential pass).
        for v in graph.vertices() {
            eng.read(FIELD_NEXT, v, sites::PROPERTY_LOCAL);
            eng.write(FIELD_CONTRIB, v, sites::PROPERTY_LOCAL);
            let d = graph.out_degree(v).max(1) as f64;
            contrib[v as usize] = rank[v as usize] / d;
        }
    }

    eng.finish("PR", rank, config.max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_of;
    use crate::mem::{AccessLog, NativeMemory};
    use crate::PropertyLayout;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    fn run_native(graph: &dyn GraphView, config: &AppConfig) -> AppResult {
        run(graph, &mut NativeMemory, config)
    }

    /// Straightforward reference PageRank for validation.
    fn reference_pagerank(graph: &dyn GraphView, damping: f64, iterations: usize) -> Vec<f64> {
        let n = graph.vertex_count();
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..iterations {
            let mut next = vec![(1.0 - damping) / n as f64; n];
            for u in graph.vertices() {
                let d = graph.out_degree(u).max(1) as f64;
                let share = damping * rank[u as usize] / d;
                for &v in graph.out_neighbors(u) {
                    next[v as usize] += share;
                }
            }
            rank = next;
        }
        rank
    }

    #[test]
    fn matches_reference_implementation() {
        let g = Rmat::new(7, 6).generate(9);
        let config = AppConfig {
            max_iterations: 15,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        let reference = reference_pagerank(&g, DAMPING, 15);
        for (a, b) in result.values.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ranks_form_a_probability_like_distribution() {
        let g = Rmat::new(8, 8).generate(2);
        let result = run_native(&g, &AppConfig::default());
        let sum: f64 = result.values.iter().sum();
        // With dangling vertices the sum is <= 1 but must stay positive and
        // bounded.
        assert!(sum > 0.1 && sum <= 1.0 + 1e-6, "sum {sum}");
        assert!(result.values.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn high_in_degree_vertices_rank_higher() {
        // A star pointing at vertex 0 from everyone else.
        let edges: Vec<(u32, u32)> = (1..50).map(|s| (s, 0)).collect();
        let g = csr_of(edges);
        let result = run_native(&g, &AppConfig::default());
        let max = result
            .values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((result.values[0] - max).abs() < 1e-12);
    }

    #[test]
    fn layout_choice_does_not_change_results() {
        let g = Rmat::new(7, 6).generate(3);
        let merged = run_native(
            &g,
            &AppConfig::default().with_layout(PropertyLayout::Merged),
        );
        let separate = run_native(
            &g,
            &AppConfig::default().with_layout(PropertyLayout::Separate),
        );
        assert_eq!(merged.values, separate.values);
    }

    #[test]
    fn memory_accesses_scale_with_edges() {
        let g = Rmat::new(8, 8).generate(4);
        let mut mem = AccessLog::default();
        let config = AppConfig {
            max_iterations: 2,
            ..AppConfig::default()
        };
        let result = run(&g, &mut mem, &config);
        // At least one edge-array read and one gather per processed edge.
        let log = mem.0;
        let at = |site| log.iter().filter(|access| access.2 == site).count() as u64;
        assert!(at(sites::EDGE_ARRAY) >= result.edges_processed);
        assert!(at(sites::PROPERTY_GATHER) >= result.edges_processed);
    }
}
