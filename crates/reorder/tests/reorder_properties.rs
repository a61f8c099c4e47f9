//! Property-based and cross-technique tests for vertex reordering.

use grasp_graph::generators::{ChungLu, GraphGenerator, Rmat, Uniform};
use grasp_graph::types::Direction;
use grasp_graph::{Csr, GraphView};
use grasp_reorder::{apply, HotRegion, Permutation, TechniqueKind};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    // Random small graphs built from edge pairs over 2..=48 vertices.
    (2u32..=48).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..200).prop_map(move |pairs| {
            let mut el = grasp_graph::EdgeList::new(u64::from(n));
            for (s, d) in pairs {
                el.push(s, d).unwrap();
            }
            Csr::from_edge_list(&el).unwrap()
        })
    })
}

/// The identity permutation over `n` vertices: the order `0..n`.
fn identity(n: usize) -> Permutation {
    let order: Vec<u32> = (0..n as u32).collect();
    Permutation::from_order(&order).expect("0..n is a bijection")
}

/// Whether `perm` maps `0..len` one to one onto `0..len`.
fn is_bijection(perm: &Permutation) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    (0..n as u32).all(|old| {
        let new = perm.new_id(old) as usize;
        new < n && !std::mem::replace(&mut seen[new], true)
    })
}

proptest! {
    /// Every technique yields a bijection and preserves the degree multiset.
    #[test]
    fn techniques_preserve_degree_multiset(g in arb_graph()) {
        for kind in TechniqueKind::ALL {
            let perm = kind.compute(&g, Direction::Out);
            prop_assert!(is_bijection(&perm));
            let r = apply::relabel(&g, &perm);
            let mut before: Vec<u64> = g.vertices().map(|v| g.out_degree(v)).collect();
            let mut after: Vec<u64> = r.vertices().map(|v| r.out_degree(v)).collect();
            before.sort_unstable();
            after.sort_unstable();
            prop_assert_eq!(before, after, "technique {} changed the degree multiset", kind);
            prop_assert_eq!(g.edge_count(), r.edge_count());
        }
    }

    /// Relabelling preserves adjacency under the permutation.
    #[test]
    fn relabel_preserves_adjacency(g in arb_graph()) {
        let perm = TechniqueKind::Sort.compute(&g, Direction::In);
        let r = apply::relabel(&g, &perm);
        for s in g.vertices() {
            for &d in g.out_neighbors(s) {
                prop_assert!(r.out_neighbors(perm.new_id(s)).contains(&perm.new_id(d)));
            }
        }
    }

    /// Inverse composition gives back the identity.
    #[test]
    fn inverse_composition_is_identity(g in arb_graph()) {
        let perm = TechniqueKind::HubSort.compute(&g, Direction::Out);
        prop_assert_eq!(
            perm.then(&perm.inverse()),
            identity(g.vertex_count())
        );
    }
}

#[test]
fn segregating_techniques_build_a_hot_prefix() {
    let g = Rmat::new(11, 12).generate(21);
    for kind in [
        TechniqueKind::Sort,
        TechniqueKind::HubSort,
        TechniqueKind::Dbg,
    ] {
        let perm = kind.compute(&g, Direction::Out);
        let region = HotRegion::analyze(&apply::relabel(&g, &perm), Direction::Out);
        assert!(
            region.packing_efficiency() > 0.99,
            "{kind}: packing {}",
            region.packing_efficiency()
        );
    }
}

#[test]
fn identity_does_not_segregate_scrambled_graphs() {
    let g = ChungLu::new(4096, 12, 2.0).generate(4);
    let region = HotRegion::analyze(&g, Direction::Out);
    // Hot vertices are scattered, so the covering prefix is much larger than
    // the hot count.
    assert!(region.prefix_covering_hot() > 2 * region.hot_vertex_count());
}

#[test]
fn dbg_preserves_more_structure_than_sort() {
    // Structure proxy: how many original consecutive-ID pairs remain
    // consecutive after reordering. DBG should beat Sort on a graph with
    // locality in the original order: a ring lattice (out-degree 8) whose
    // vertices `v % 32 < 8` also get `v % 3 + 1` long-range chords. Those
    // runs are the hot vertices, with degrees 9–11 in one DBG group; Sort
    // splits every run by degree, DBG keeps it.
    let n = 2048u32;
    let lattice =
        (0..n).flat_map(|v| (1..=4).flat_map(move |o| [(v, (v + o) % n), (v, (v + n - o) % n)]));
    let chords = (0..n)
        .filter(|v| v % 32 < 8)
        .flat_map(|v| (0..=v % 3).map(move |j| (v, (v + n / 2 + 97 * j) % n)));
    let edges = lattice.chain(chords).map(grasp_graph::types::Edge::from);
    let g = Csr::from_edge_list(&edges.collect()).unwrap();
    let region = HotRegion::analyze(&g, Direction::Out);
    assert_eq!(
        region.hot_vertex_count(),
        n as usize / 4,
        "hot and cold vertices both occur"
    );
    let count_preserved = |perm: &Permutation| -> usize {
        (0..g.vertex_count() as u32 - 1)
            .filter(|&v| {
                let a = perm.new_id(v);
                let b = perm.new_id(v + 1);
                a.abs_diff(b) == 1
            })
            .count()
    };
    let sort_perm = TechniqueKind::Sort.compute(&g, Direction::Out);
    let dbg_perm = TechniqueKind::Dbg.compute(&g, Direction::Out);
    assert!(
        count_preserved(&dbg_perm) > count_preserved(&sort_perm),
        "DBG should preserve more adjacency of the original order than Sort"
    );
}

#[test]
fn uniform_graphs_have_many_hot_vertices() {
    // Sanity for the adversarial datasets: with no skew, roughly half the
    // vertices are hot, so no technique can shrink the hot working set.
    let g = Uniform::new(4096, 16).generate(8);
    let region = HotRegion::analyze(&g, Direction::Out);
    assert!(region.hot_vertex_count() > g.vertex_count() / 4);
}
