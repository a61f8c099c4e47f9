//! Synthetic graph generators.
//!
//! The GRASP paper evaluates on large real-world datasets (LiveJournal, PLD,
//! Twitter, Kron, SD1-ARC, Friendster, Uniform — Table V). Those datasets are
//! tens of gigabytes and are not available in this environment, so the
//! reproduction substitutes synthetic graphs that reproduce the property GRASP
//! exploits — the skewed power-law degree distribution (Table I) — at a
//! reduced scale:
//!
//! * [`Rmat`] — recursive-matrix (Kronecker) generator; with the standard
//!   `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)` parameters it produces Twitter-
//!   and Kron-like high-skew graphs.
//! * [`Uniform`] — Erdős–Rényi style uniform random graph; the `uni` no-skew
//!   adversarial dataset.
//! * [`ChungLu`] — configurable power-law exponent; used to produce the
//!   lower-skew `lj`/`pl`/`fr` stand-ins.
//!
//! All generators are deterministic given a seed.

mod chung_lu;
mod rmat;
mod uniform;

pub use chung_lu::ChungLu;
pub use rmat::Rmat;
pub use uniform::Uniform;

use crate::csr::Csr;
use crate::edgelist::EdgeList;

/// A synthetic graph generator.
///
/// Implementations are configured at construction time; [`generate`] is then
/// a pure function of the seed.
///
/// [`generate`]: GraphGenerator::generate
pub trait GraphGenerator: std::fmt::Debug {
    /// Produces the edge list for this generator with the given seed.
    fn edge_list(&self, seed: u64) -> EdgeList;

    /// Produces a CSR graph with the given seed.
    ///
    /// The default implementation builds the edge list, removes self-loops,
    /// deduplicates parallel edges and assembles the CSR.
    fn generate(&self, seed: u64) -> Csr {
        let mut edges = self.edge_list(seed);
        edges.remove_self_loops();
        edges.sort_and_dedup();
        Csr::from_edge_list(&edges).expect("generators always declare at least one vertex")
    }

    /// Human-readable generator name used in reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;

    #[test]
    fn all_generators_are_deterministic() {
        let gens: Vec<Box<dyn GraphGenerator>> = vec![
            Box::new(Rmat::new(8, 8)),
            Box::new(Uniform::new(256, 8)),
            Box::new(ChungLu::new(256, 8, 2.1)),
        ];
        for g in &gens {
            let a = g.generate(17);
            let b = g.generate(17);
            assert_eq!(
                a.edge_count(),
                b.edge_count(),
                "generator {} not deterministic",
                g.name()
            );
            for v in a.vertices() {
                assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let g = Rmat::new(8, 8);
        let a = g.generate(1);
        let b = g.generate(2);
        // Edge sets should differ in at least one adjacency list.
        let differs = a
            .vertices()
            .any(|v| a.out_neighbors(v) != b.out_neighbors(v));
        assert!(differs);
    }

    #[test]
    fn generated_graphs_have_no_self_loops_or_duplicates() {
        let gens: Vec<Box<dyn GraphGenerator>> = vec![
            Box::new(Rmat::new(9, 8)),
            Box::new(Uniform::new(512, 8)),
            Box::new(ChungLu::new(512, 8, 2.0)),
        ];
        for g in &gens {
            let csr = g.generate(3);
            for v in csr.vertices() {
                let ns = csr.out_neighbors(v);
                for w in ns.windows(2) {
                    assert!(
                        w[0] < w[1],
                        "duplicate or unsorted neighbour in {}",
                        g.name()
                    );
                }
                assert!(!ns.contains(&v), "self loop in {}", g.name());
            }
        }
    }
}
