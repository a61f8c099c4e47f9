//! HubSort (Zhang et al., Big Data'17 — "frequency-based clustering").
//!
//! HubSort sorts **hot** vertices (degree ≥ average) in descending degree
//! order at the front of the ID space while preserving the original relative
//! order of cold vertices behind them. Compared to a full sort, HubSort
//! disturbs the structure of the cold majority far less, at the cost of
//! slightly less precise ordering among the hubs' tail.

use crate::perm::Permutation;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

pub(crate) fn compute(graph: &dyn GraphView, direction: Direction) -> Permutation {
    let threshold = graph.average_degree();
    let mut hot: Vec<VertexId> = Vec::new();
    let mut cold: Vec<VertexId> = Vec::new();
    for v in graph.vertices() {
        if graph.degree(v, direction) as f64 >= threshold {
            hot.push(v);
        } else {
            cold.push(v);
        }
    }
    // Hot vertices: descending degree (stable). Cold: original order.
    hot.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v, direction)));
    let order: Vec<VertexId> = hot.into_iter().chain(cold).collect();
    Permutation::from_order(&order).expect("hot/cold split covers every vertex exactly once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    #[test]
    fn hot_vertices_occupy_a_prefix() {
        let g = Rmat::new(9, 8).generate(5);
        let threshold = g.average_degree();
        let perm = compute(&g, Direction::Out);
        let hot_count = g
            .vertices()
            .filter(|&v| g.out_degree(v) as f64 >= threshold)
            .count();
        for v in g.vertices() {
            let is_hot = g.out_degree(v) as f64 >= threshold;
            let new_id = perm.new_id(v) as usize;
            if is_hot {
                assert!(new_id < hot_count, "hot vertex {v} placed at {new_id}");
            } else {
                assert!(new_id >= hot_count, "cold vertex {v} placed at {new_id}");
            }
        }
    }

    #[test]
    fn cold_vertices_keep_relative_order() {
        let g = Rmat::new(8, 8).generate(1);
        let threshold = g.average_degree();
        let perm = compute(&g, Direction::Out);
        let cold: Vec<u32> = g
            .vertices()
            .filter(|&v| (g.out_degree(v) as f64) < threshold)
            .collect();
        for pair in cold.windows(2) {
            assert!(
                perm.new_id(pair[0]) < perm.new_id(pair[1]),
                "cold order must be preserved"
            );
        }
    }

    #[test]
    fn hot_prefix_is_sorted_by_degree() {
        let g = Rmat::new(9, 8).generate(7);
        let perm = compute(&g, Direction::In);
        let reordered = crate::apply::relabel(&g, &perm);
        let threshold = g.average_degree();
        let hot_count = g
            .vertices()
            .filter(|&v| g.in_degree(v) as f64 >= threshold)
            .count();
        let degrees: Vec<u64> = (0..hot_count as u32)
            .map(|v| reordered.in_degree(v))
            .collect();
        for w in degrees.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
