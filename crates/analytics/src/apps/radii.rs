//! Radii estimation via multiple simultaneous BFS (Magnien et al.).
//!
//! The radius of a vertex is estimated by running K breadth-first searches
//! from a small sample of source vertices *simultaneously*, encoding
//! reachability in a K-bit mask per vertex: whenever a vertex's mask changes
//! in an iteration, its radius estimate is updated to that iteration number.

use super::{AppConfig, AppResult};
use crate::engine::CsrArrays;
use crate::frontier::Frontier;
use crate::mem::MemoryModel;
use crate::props::PropertySet;
use crate::sites;
use crate::workspace::Workspace;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

/// Field index of the current visited bit masks.
const FIELD_VISITED: usize = 0;
/// Field index of the next-iteration bit masks.
const FIELD_NEXT: usize = 1;
/// Field index of the radius estimates.
const FIELD_RADII: usize = 2;

/// Runs Radii estimation and returns the per-vertex radius estimates
/// (`-1` for vertices never reached by any sampled BFS).
pub fn run<M: MemoryModel>(
    graph: &dyn GraphView,
    ws: &mut Workspace<M>,
    config: &AppConfig,
) -> AppResult {
    let n = graph.vertex_count();
    let arrays = CsrArrays::allocate(ws, graph, false);
    let props = PropertySet::allocate(ws, "radii", n as u64, &[8, 8, 8], config.layout);
    props.program_abrs(ws);

    let sample = config.sample_roots.clamp(1, 64);
    // Deterministic, well-spread sample of source vertices.
    let roots: Vec<VertexId> = (0..sample)
        .map(|k| ((k * n) / sample) as VertexId)
        .collect();

    let mut visited = vec![0u64; n];
    let mut radii = vec![-1.0f64; n];
    let mut frontier = Frontier::empty(n);
    for (k, &root) in roots.iter().enumerate() {
        visited[root as usize] |= 1 << k;
        radii[root as usize] = 0.0;
        frontier.add(root);
    }

    let mut edges_processed = 0u64;
    let mut iterations = 0usize;

    let mut next = Frontier::empty(n);
    for round in 0..config.max_iterations.max(1) {
        if frontier.is_empty() {
            break;
        }
        iterations += 1;
        let mut next_visited = visited.clone();
        next.clear();
        // Dense pull iteration: every vertex ORs the masks of its in-neighbours
        // that changed in the previous round.
        for v in graph.vertices() {
            arrays.read_vertex(ws, v);
            let edge_base = graph.edge_offset(v, Direction::In);
            let mut mask = visited[v as usize];
            for (k, &u) in graph.in_neighbors(v).iter().enumerate() {
                arrays.read_edge(ws, edge_base + k as u64);
                arrays.read_frontier(ws, u);
                edges_processed += 1;
                if frontier.contains(u) {
                    props.read(ws, FIELD_VISITED, u64::from(u), sites::PROPERTY_GATHER);
                    mask |= visited[u as usize];
                }
            }
            if mask != visited[v as usize] {
                props.write(ws, FIELD_NEXT, u64::from(v), sites::PROPERTY_LOCAL);
                props.write(ws, FIELD_RADII, u64::from(v), sites::PROPERTY_LOCAL);
                next_visited[v as usize] = mask;
                radii[v as usize] = round as f64 + 1.0;
                arrays.activate(ws, &mut next, v);
            }
        }
        visited = next_visited;
        std::mem::swap(&mut frontier, &mut next);
    }

    AppResult {
        app: "Radii",
        values: radii,
        iterations,
        edges_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NativeMemory;
    use grasp_graph::generators::{GraphGenerator, Rmat};
    use grasp_graph::Csr;

    /// A ring of `n` vertices, each linked to both of its neighbours.
    fn ring(n: u32) -> Csr {
        Csr::from_edges((0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + n - 1) % n)])).unwrap()
    }

    fn run_native(graph: &dyn GraphView, config: &AppConfig) -> AppResult {
        let mut ws = Workspace::new(NativeMemory::new());
        run(graph, &mut ws, config)
    }

    #[test]
    fn roots_have_radius_zero_and_reached_vertices_positive() {
        let g = Rmat::new(8, 8).generate(3);
        let config = AppConfig::default().with_max_iterations(50);
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
            sample_roots: 4,
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
            sample_roots: 1,
            max_iterations: 100,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        // With one root (vertex 0) the radius estimate of a reached vertex is
        // its BFS level from vertex 0.
        let mut level = vec![u32::MAX; g.vertex_count()];
        level[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(u) = queue.pop_front() {
            for &v in g.out_neighbors(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = level[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        for v in 0..g.vertex_count() {
            if level[v] != u32::MAX {
                assert_eq!(result.values[v], level[v] as f64, "vertex {v}");
            } else {
                assert_eq!(result.values[v], -1.0, "vertex {v}");
            }
        }
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
