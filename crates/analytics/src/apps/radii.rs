//! Radii estimation via multiple simultaneous BFS (Magnien et al.).
//!
//! The radius of a vertex is estimated by running K breadth-first searches
//! from a small sample of source vertices *simultaneously*, encoding
//! reachability in a K-bit mask per vertex: whenever a vertex's mask changes
//! in an iteration, its radius estimate is updated to that iteration number.

use super::{AppConfig, AppResult};
use crate::engine::Engine;
use crate::frontier::Frontier;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

/// Field index of the current visited bit masks.
const FIELD_VISITED: usize = 0;
/// Field index of the next-iteration bit masks.
const FIELD_NEXT: usize = 1;
/// Field index of the radius estimates.
const FIELD_RADII: usize = 2;

/// Number of simultaneous BFS sources (bits of a visited mask).
const SAMPLE_ROOTS: usize = 8;

/// Runs Radii estimation and returns the per-vertex radius estimates
/// (`-1` for vertices never reached by any sampled BFS).
pub fn run<M: MemoryModel>(graph: &dyn GraphView, mem: &mut M, config: &AppConfig) -> AppResult {
    let n = graph.vertex_count();
    let mut eng = Engine::new(graph, mem, false, &[8, 8, 8], config.layout);

    let mut visited = vec![0u64; n];
    let mut radii = vec![-1.0f64; n];
    let mut frontier = Frontier::empty(n);
    // Deterministic, well-spread sample of source vertices.
    for k in 0..SAMPLE_ROOTS {
        let root = (k * n) / SAMPLE_ROOTS;
        visited[root] |= 1 << k;
        radii[root] = 0.0;
        frontier.add(root as VertexId);
    }

    let mut next = Frontier::empty(n);
    let mut iterations = 0;
    while iterations < config.max_iterations.max(1) && !frontier.is_empty() {
        iterations += 1;
        let mut next_visited = visited.clone();
        next.clear();
        // Dense pull iteration: every vertex ORs the masks of its in-neighbours
        // that changed in the previous round.
        for v in graph.vertices() {
            eng.visit(v);
            let mut mask = visited[v as usize];
            eng.scan(v, Direction::In, true, |eng, u, _| {
                if frontier.contains(u) {
                    eng.read(FIELD_VISITED, u, sites::PROPERTY_GATHER);
                    mask |= visited[u as usize];
                }
            });
            if mask != visited[v as usize] {
                eng.write(FIELD_NEXT, v, sites::PROPERTY_LOCAL);
                eng.write(FIELD_RADII, v, sites::PROPERTY_LOCAL);
                next_visited[v as usize] = mask;
                radii[v as usize] = iterations as f64;
                eng.activate(&mut next, v);
            }
        }
        visited = next_visited;
        std::mem::swap(&mut frontier, &mut next);
    }

    eng.finish("Radii", radii, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NativeMemory;
    use grasp_graph::generators::{GraphGenerator, Rmat};
    use grasp_graph::Csr;

    /// A ring of `n` vertices, each linked to both of its neighbours.
    fn ring(n: u32) -> Csr {
        crate::csr_of((0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + n - 1) % n)]))
    }

    fn run_native(graph: &dyn GraphView, config: &AppConfig) -> AppResult {
        run(graph, &mut NativeMemory, config)
    }

    #[test]
    fn roots_have_radius_zero_and_reached_vertices_positive() {
        let g = Rmat::new(8, 8).generate(3);
        let config = AppConfig {
            max_iterations: 50,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        // Radius estimates are -1 (never reached) or >= 0.
        assert!(result.values.iter().all(|&r| r >= -1.0));
        // At least the roots themselves have an estimate.
        assert!(result.values.iter().filter(|&&r| r >= 0.0).count() >= 1);
    }

    #[test]
    fn radius_estimate_is_bounded_by_bfs_eccentricity() {
        // On a ring lattice, distances are well understood: the radius
        // estimate of any vertex cannot exceed the iteration count and grows
        // with distance from the sampled roots.
        let g = ring(128);
        let config = AppConfig {
            max_iterations: 200,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        assert!(result.values.iter().all(|&r| r <= result.iterations as f64));
        // Every vertex of a connected ring is eventually reached.
        assert!(result.values.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn single_root_matches_bfs_levels() {
        let g = Rmat::new(7, 6).generate(11);
        let config = AppConfig {
            max_iterations: 100,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        // Each root's BFS reaches a vertex at that root's BFS level, so the
        // estimate of a reached vertex is the largest of those levels.
        let n = g.vertex_count();
        let mut expected = vec![-1.0; n];
        for k in 0..SAMPLE_ROOTS {
            let root = (k * n / SAMPLE_ROOTS) as u32;
            let mut level = vec![u32::MAX; n];
            level[root as usize] = 0;
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                for &v in g.out_neighbors(u) {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = level[u as usize] + 1;
                        queue.push_back(v);
                    }
                }
            }
            for v in 0..n {
                if level[v] != u32::MAX {
                    expected[v] = f64::max(expected[v], f64::from(level[v]));
                }
            }
        }
        assert_eq!(result.values, expected);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let g = ring(256);
        let config = AppConfig {
            max_iterations: 3,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        assert!(result.iterations <= 3);
    }
}
