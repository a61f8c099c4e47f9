//! Degree-Based Grouping (Faldu, Diamond, Grot — IISWC'19).
//!
//! DBG coarsely partitions vertices into a small number of groups whose
//! boundaries are geometric multiples of the average degree, places groups in
//! descending hotness order, and preserves the original relative order
//! **within** each group. Unlike Sort and HubSort, DBG does not sort at all,
//! so it largely preserves the community structure present in the original
//! vertex order — the reason the paper uses it as the default software
//! baseline.

use crate::perm::Permutation;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

/// Groups at or above the average degree. With [`COLD_GROUPS`], the
/// published configuration of 8 groups in all.
const HOT_GROUPS: usize = 4;
/// Groups below the average degree.
const COLD_GROUPS: usize = 4;

/// Assigns a group index to a degree; group 0 is the hottest. Group
/// boundaries are `avg * 2^k` for hot groups and `avg / 2^k` for cold ones.
fn group_of(degree: u64, avg: f64) -> usize {
    let d = degree as f64;
    if d >= avg {
        // Hot side: group k covers [avg * 2^(HOT_GROUPS-1-k), ...).
        // The hottest group (0) is unbounded above.
        for k in 0..HOT_GROUPS {
            let boundary = avg * (1u64 << (HOT_GROUPS - 1 - k)) as f64;
            if d >= boundary {
                return k;
            }
        }
        HOT_GROUPS - 1
    } else {
        // Cold side: group HOT_GROUPS + k covers degrees in
        // [avg / 2^(k+1), avg / 2^k); the last cold group catches the rest
        // (including degree 0).
        for k in 0..COLD_GROUPS {
            let boundary = avg / (1u64 << (k + 1)) as f64;
            if d >= boundary {
                return HOT_GROUPS + k;
            }
        }
        HOT_GROUPS + COLD_GROUPS - 1
    }
}

pub(crate) fn compute(graph: &dyn GraphView, direction: Direction) -> Permutation {
    let avg = graph.average_degree();
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); HOT_GROUPS + COLD_GROUPS];
    for v in graph.vertices() {
        buckets[group_of(graph.degree(v, direction), avg)].push(v);
    }
    let order: Vec<VertexId> = buckets.into_iter().flatten().collect();
    Permutation::from_order(&order).expect("every vertex lands in exactly one group")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    #[test]
    fn group_assignment_boundaries() {
        let avg = 10.0;
        // Hot side: >= 80 -> 0, >= 40 -> 1, >= 20 -> 2, >= 10 -> 3.
        assert_eq!(group_of(100, avg), 0);
        assert_eq!(group_of(80, avg), 0);
        assert_eq!(group_of(40, avg), 1);
        assert_eq!(group_of(25, avg), 2);
        assert_eq!(group_of(10, avg), 3);
        // Cold side: >= 5 -> 4, >= 2.5 -> 5, >= 1.25 -> 6, rest -> 7.
        assert_eq!(group_of(7, avg), 4);
        assert_eq!(group_of(3, avg), 5);
        assert_eq!(group_of(2, avg), 6);
        assert_eq!(group_of(1, avg), 7);
        assert_eq!(group_of(0, avg), 7);
    }

    #[test]
    fn groups_are_ordered_hot_to_cold() {
        let g = Rmat::new(9, 8).generate(2);
        let perm = compute(&g, Direction::Out);
        let reordered = crate::apply::relabel(&g, &perm);
        let avg = g.average_degree();
        let mut last_group = 0usize;
        for v in reordered.vertices() {
            let group = group_of(reordered.out_degree(v), avg);
            assert!(
                group >= last_group,
                "groups must be non-decreasing over new IDs"
            );
            last_group = group;
        }
    }

    #[test]
    fn order_within_group_is_preserved() {
        let g = Rmat::new(8, 8).generate(9);
        let avg = g.average_degree();
        let perm = compute(&g, Direction::Out);
        // For every pair of vertices in the same group, the original order
        // must be preserved.
        let mut per_group: std::collections::HashMap<usize, Vec<u32>> = Default::default();
        for v in g.vertices() {
            per_group
                .entry(group_of(g.out_degree(v), avg))
                .or_default()
                .push(v);
        }
        for members in per_group.values() {
            for pair in members.windows(2) {
                assert!(perm.new_id(pair[0]) < perm.new_id(pair[1]));
            }
        }
    }
}
