//! Single-Source Shortest Paths (Bellman-Ford, push-based).
//!
//! SSSP propagates tentative distances from the root over the weighted
//! out-edges of the frontier. It is the one evaluated application that is
//! push-based throughout (Sec. IV-C), so vertex hotness follows the in-degree
//! distribution.

use super::{AppConfig, AppResult, ROOT};
use crate::engine::Engine;
use crate::frontier::Frontier;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_graph::types::Direction;
use grasp_graph::GraphView;

/// Field index of the tentative distances.
const FIELD_DIST: usize = 0;

/// Runs Bellman-Ford SSSP from vertex 0 and returns per-vertex distances
/// (`f64::INFINITY` for unreachable vertices).
pub fn run<M: MemoryModel>(graph: &dyn GraphView, mem: &mut M, config: &AppConfig) -> AppResult {
    let n = graph.vertex_count();
    let mut eng = Engine::new(graph, mem, true, &[8], config.layout);

    let mut dist = vec![u64::MAX; n];
    dist[ROOT as usize] = 0;
    let mut frontier = Frontier::single(n, ROOT);
    let mut next = Frontier::empty(n);
    // Bellman-Ford terminates after at most |V| - 1 relaxation rounds.
    let round_cap = config.max_iterations.max(1).min(n);
    let mut iterations = 0;
    while iterations < round_cap && !frontier.is_empty() {
        iterations += 1;
        next.clear();
        for &u in frontier.iter() {
            eng.visit(u);
            eng.read(FIELD_DIST, u, sites::PROPERTY_LOCAL);
            let du = dist[u as usize];
            eng.scan(u, Direction::Out, false, |eng, v, weight| {
                eng.read(FIELD_DIST, v, sites::PROPERTY_GATHER);
                let candidate = du.saturating_add(u64::from(weight));
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    eng.write(FIELD_DIST, v, sites::PROPERTY_GATHER);
                    eng.activate(&mut next, v);
                }
            });
        }
        std::mem::swap(&mut frontier, &mut next);
    }

    let values = dist
        .iter()
        .map(|&d| {
            if d == u64::MAX {
                f64::INFINITY
            } else {
                d as f64
            }
        })
        .collect();
    eng.finish("SSSP", values, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_of;
    use crate::mem::NativeMemory;
    use grasp_graph::generators::{GraphGenerator, Rmat};
    use grasp_graph::prng::Xoshiro256;
    use grasp_graph::{Csr, EdgeList};

    fn run_native(graph: &dyn GraphView, rounds: usize) -> AppResult {
        run(
            graph,
            &mut NativeMemory,
            &AppConfig {
                max_iterations: rounds,
                ..AppConfig::default()
            },
        )
    }

    /// Reference Dijkstra for validation.
    fn reference_sssp(graph: &dyn GraphView, root: u32) -> Vec<f64> {
        let n = graph.vertex_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[root as usize] = 0.0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, root)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if (d as f64) > dist[u as usize] {
                continue;
            }
            for (&v, &w) in graph.out_neighbors(u).iter().zip(graph.out_weights(u)) {
                let nd = d + u64::from(w);
                if (nd as f64) < dist[v as usize] {
                    dist[v as usize] = nd as f64;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn matches_dijkstra_on_a_small_weighted_graph() {
        let mut el = EdgeList::new(5);
        let edges = [
            (0, 1, 10),
            (0, 2, 3),
            (2, 1, 4),
            (1, 3, 2),
            (2, 3, 8),
            (3, 4, 7),
        ];
        for (s, d, w) in edges {
            el.push_weighted(s, d, w).unwrap();
        }
        let g = Csr::from_edge_list(&el).unwrap();
        let result = run_native(&g, 10);
        assert_eq!(result.values, vec![0.0, 7.0, 3.0, 9.0, 16.0]);
    }

    #[test]
    fn matches_dijkstra_on_random_weighted_graphs() {
        // Build a random weighted graph from an R-MAT skeleton.
        let skeleton = Rmat::new(8, 6).generate(3);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut edges = EdgeList::new(skeleton.vertex_count() as u64);
        for s in skeleton.vertices() {
            for &d in skeleton.out_neighbors(s) {
                edges
                    .push_weighted(s, d, 1 + rng.next_below(32) as u32)
                    .unwrap();
            }
        }
        let g = Csr::from_edge_list(&edges).unwrap();
        let ours = run_native(&g, g.vertex_count());
        let reference = reference_sssp(&g, 0);
        assert_eq!(ours.values, reference);
    }

    #[test]
    fn unreachable_vertices_are_infinite() {
        let g = csr_of([(0, 1), (2, 3)]);
        let result = run_native(&g, 10);
        assert!(result.values[2].is_infinite());
        assert!(result.values[3].is_infinite());
    }

    #[test]
    fn frontier_driven_execution_terminates_early() {
        let g = Rmat::new(8, 6).generate(2);
        let result = run_native(&g, g.vertex_count());
        assert!(result.iterations < g.vertex_count());
    }
}
