//! PageRank-Delta (pull-push hybrid).
//!
//! PageRank-Delta only processes vertices that have accumulated enough change
//! ("delta") in their rank since they last propagated it. The evaluation uses
//! the pull-push variant (Sec. IV-A): dense iterations pull deltas from active
//! in-neighbours; once the active set becomes small, the computation
//! effectively stops changing most ranks.

use super::{AppConfig, AppResult, DAMPING};
use crate::engine::Engine;
use crate::frontier::Frontier;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_graph::types::Direction;
use grasp_graph::GraphView;

/// Field index of the accumulated rank.
const FIELD_RANK: usize = 0;
/// Field index of the delta being propagated this iteration.
const FIELD_DELTA: usize = 1;
/// Field index of the delta accumulated for the next iteration.
const FIELD_NEXT_DELTA: usize = 2;

/// A vertex stays active while its new delta exceeds this share of its rank.
const ACTIVATION: f64 = 1e-9;

/// Runs PageRank-Delta and returns the per-vertex ranks.
pub fn run<M: MemoryModel>(graph: &dyn GraphView, mem: &mut M, config: &AppConfig) -> AppResult {
    let n = graph.vertex_count();
    let mut eng = Engine::new(graph, mem, false, &[8, 8, 8], config.layout);

    let mut rank = vec![(1.0 - DAMPING) / n as f64; n];
    // Initial delta: the base rank each vertex still has to propagate,
    // pre-divided by out-degree for the pull loop.
    let mut delta: Vec<f64> = (0..n)
        .map(|v| rank[v] / graph.out_degree(v as u32).max(1) as f64)
        .collect();
    let mut frontier = Frontier::full(n);
    let mut next_frontier = Frontier::empty(n);

    let mut iterations = 0;
    while iterations < config.max_iterations && !frontier.is_empty() {
        iterations += 1;
        let mut next_delta = vec![0.0f64; n];

        match eng.direction(&frontier) {
            Direction::In => {
                // Dense pull: every vertex scans its in-neighbours and picks up
                // deltas from the active ones.
                for v in graph.vertices() {
                    eng.visit(v);
                    let mut acc = 0.0f64;
                    eng.scan(v, Direction::In, true, |eng, u, _| {
                        if frontier.contains(u) {
                            eng.read(FIELD_DELTA, u, sites::PROPERTY_GATHER);
                            acc += delta[u as usize];
                        }
                    });
                    if acc != 0.0 {
                        eng.write(FIELD_NEXT_DELTA, v, sites::PROPERTY_LOCAL);
                        next_delta[v as usize] = DAMPING * acc;
                    }
                }
            }
            Direction::Out => {
                // Sparse push: active vertices push their delta to out-neighbours.
                for &u in frontier.iter() {
                    eng.visit(u);
                    eng.read(FIELD_DELTA, u, sites::PROPERTY_LOCAL);
                    eng.scan(u, Direction::Out, false, |eng, v, _| {
                        eng.read(FIELD_NEXT_DELTA, v, sites::PROPERTY_GATHER);
                        eng.write(FIELD_NEXT_DELTA, v, sites::PROPERTY_GATHER);
                        next_delta[v as usize] += DAMPING * delta[u as usize];
                    });
                }
            }
        }

        // Apply deltas, build the next frontier and pre-divide for the next
        // pull iteration.
        next_frontier.clear();
        for v in graph.vertices() {
            let nd = next_delta[v as usize];
            if nd.abs() > 0.0 {
                eng.read(FIELD_RANK, v, sites::PROPERTY_LOCAL);
                eng.write(FIELD_RANK, v, sites::PROPERTY_LOCAL);
                rank[v as usize] += nd;
            }
            if nd.abs() > ACTIVATION * rank[v as usize] {
                eng.activate(&mut next_frontier, v);
                eng.write(FIELD_DELTA, v, sites::PROPERTY_LOCAL);
            }
            delta[v as usize] = nd / graph.out_degree(v).max(1) as f64;
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
    }

    eng.finish("PRD", rank, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_of;
    use crate::mem::NativeMemory;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    fn run_native(graph: &dyn GraphView, config: &AppConfig) -> AppResult {
        run(graph, &mut NativeMemory, config)
    }

    #[test]
    fn ranks_stay_positive_and_bounded() {
        let g = Rmat::new(8, 8).generate(6);
        let result = run_native(
            &g,
            &AppConfig {
                max_iterations: 30,
                ..AppConfig::default()
            },
        );
        assert!(result.values.iter().all(|&r| r >= 0.0));
        let sum: f64 = result.values.iter().sum();
        assert!(sum > 0.1 && sum <= 1.0 + 1e-6, "sum {sum}");
    }

    #[test]
    fn agrees_with_pagerank_on_ordering() {
        // PRD approximates PR: the top-ranked vertex should match on a graph
        // with a clear hub.
        let edges: Vec<(u32, u32)> = (1..60).map(|s| (s, 0)).chain([(0, 1)]).collect();
        let g = csr_of(edges);
        let config = AppConfig {
            max_iterations: 50,
            ..AppConfig::default()
        };
        let prd = run_native(&g, &config);
        let pr = super::super::pagerank::run(&g, &mut NativeMemory, &config);
        let top_prd =
            (0..g.vertex_count()).max_by(|&a, &b| prd.values[a].total_cmp(&prd.values[b]));
        let top_pr = (0..g.vertex_count()).max_by(|&a, &b| pr.values[a].total_cmp(&pr.values[b]));
        assert_eq!(top_prd, top_pr);
        assert_eq!(top_pr, Some(0));
    }

    #[test]
    fn active_set_shrinks_until_convergence() {
        let g = Rmat::new(8, 8).generate(1);
        let config = AppConfig {
            max_iterations: 200,
            ..AppConfig::default()
        };
        let result = run_native(&g, &config);
        assert!(
            result.iterations < 200,
            "PRD should converge (ran {} iterations)",
            result.iterations
        );
    }

    #[test]
    fn processes_fewer_edges_than_pagerank_for_the_same_budget() {
        let g = Rmat::new(9, 8).generate(2);
        let config = AppConfig {
            max_iterations: 12,
            ..AppConfig::default()
        };
        let prd = run_native(&g, &config);
        let pr = super::super::pagerank::run(&g, &mut NativeMemory, &config);
        assert!(
            prd.edges_processed <= pr.edges_processed,
            "prd {} pr {}",
            prd.edges_processed,
            pr.edges_processed
        );
    }
}
