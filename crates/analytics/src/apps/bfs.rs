//! Breadth-first search kernel.
//!
//! BFS is not evaluated as a standalone application in the paper, but it is
//! the kernel inside Betweenness Centrality and Radii estimation, and a
//! convenient reference for correctness tests. The traversal uses Ligra-style
//! push/pull direction switching and models its memory accesses like the
//! other applications.

use crate::engine::Engine;
use crate::frontier::Frontier;
use crate::mem::MemoryModel;
use crate::sites;
use grasp_graph::types::{Direction, VertexId};
use grasp_graph::GraphView;

/// Field index of the BFS level (distance from the root).
const FIELD_LEVEL: usize = 0;

/// The output of a BFS traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsOutput {
    /// Distance (in hops) from the root, `u32::MAX` when unreachable.
    pub level: Vec<u32>,
    /// The frontier of every level, in order (level 0 is just the root).
    pub levels: Vec<Frontier>,
}

/// Runs BFS over the out-edges of `graph` from `root` to its last level,
/// modelling the memory accesses through `eng` with its field 0 as the
/// level.
pub fn run<M: MemoryModel>(
    graph: &dyn GraphView,
    eng: &mut Engine<'_, M>,
    root: VertexId,
) -> BfsOutput {
    let n = graph.vertex_count();
    let mut level = vec![u32::MAX; n];
    level[root as usize] = 0;
    let mut frontier = Frontier::single(n, root);
    let mut levels = vec![frontier.clone()];

    // Round-robin a single spare frontier instead of reallocating the
    // membership bitmap every round.
    let mut next = Frontier::empty(n);
    for round in 1.. {
        next.clear();
        match eng.direction(&frontier) {
            Direction::Out => {
                // Push: frontier vertices explore their out-neighbours.
                for &u in frontier.iter() {
                    eng.visit(u);
                    eng.scan(u, Direction::Out, false, |eng, v, _| {
                        eng.read(FIELD_LEVEL, v, sites::PROPERTY_GATHER);
                        if level[v as usize] == u32::MAX {
                            level[v as usize] = round;
                            eng.write(FIELD_LEVEL, v, sites::PROPERTY_GATHER);
                            eng.activate(&mut next, v);
                        }
                    });
                }
            }
            Direction::In => {
                // Pull: unvisited vertices look for a visited in-neighbour.
                for v in graph.vertices() {
                    if level[v as usize] != u32::MAX {
                        continue;
                    }
                    eng.visit(v);
                    eng.scan(v, Direction::In, true, |eng, u, _| {
                        eng.read(FIELD_LEVEL, u, sites::PROPERTY_GATHER);
                        let found = frontier.contains(u);
                        if found {
                            level[v as usize] = round;
                            eng.write(FIELD_LEVEL, v, sites::PROPERTY_LOCAL);
                            eng.activate(&mut next, v);
                        }
                        found
                    });
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
        levels.push(frontier.clone());
    }

    BfsOutput { level, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_of;
    use crate::mem::NativeMemory;
    use crate::PropertyLayout;
    use grasp_graph::generators::{GraphGenerator, Rmat};

    fn bfs_native(graph: &dyn GraphView, root: VertexId) -> BfsOutput {
        let mut mem = NativeMemory;
        let mut eng = Engine::new(graph, &mut mem, false, &[8], PropertyLayout::Merged);
        run(graph, &mut eng, root)
    }

    /// Reference BFS distances via a simple queue.
    fn reference_bfs(graph: &dyn GraphView, root: VertexId) -> Vec<u32> {
        let mut level = vec![u32::MAX; graph.vertex_count()];
        level[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in graph.out_neighbors(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = level[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        level
    }

    #[test]
    fn matches_reference_bfs_on_random_graphs() {
        for seed in [1, 2, 3] {
            let g = Rmat::new(8, 6).generate(seed);
            let ours = bfs_native(&g, 0);
            let reference = reference_bfs(&g, 0);
            assert_eq!(ours.level, reference, "seed {seed}");
        }
    }

    #[test]
    fn matches_reference_on_structured_graphs() {
        // A ring lattice (two neighbours on each side) with a long-range
        // chord out of every 37th vertex.
        let n = 300u32;
        let lattice = (0..n)
            .flat_map(|v| (1..=2).flat_map(move |o| [(v, (v + o) % n), (v, (v + n - o) % n)]));
        let chords = (0..n).step_by(37).map(|v| (v, (v * 11 + 150) % n));
        let g = csr_of(lattice.chain(chords));
        let ours = bfs_native(&g, 17);
        assert_eq!(ours.level, reference_bfs(&g, 17));
    }

    #[test]
    fn levels_partition_the_reachable_vertices() {
        let g = Rmat::new(8, 6).generate(4);
        let out = bfs_native(&g, 0);
        let mut seen = std::collections::HashSet::new();
        for (depth, frontier) in out.levels.iter().enumerate() {
            for &v in frontier {
                assert_eq!(out.level[v as usize], depth as u32);
                assert!(seen.insert(v), "vertex {v} appears in two levels");
            }
        }
        let reachable = out.level.iter().filter(|&&l| l != u32::MAX).count();
        assert_eq!(seen.len(), reachable);
    }

    #[test]
    fn unreachable_vertices_stay_at_max() {
        // Two disconnected edges: 0->1 and 2->3.
        let g = csr_of([(0, 1), (2, 3)]);
        let out = bfs_native(&g, 0);
        assert_eq!(out.level[0], 0);
        assert_eq!(out.level[1], 1);
        assert_eq!(out.level[2], u32::MAX);
        assert_eq!(out.level[3], u32::MAX);
    }
}
