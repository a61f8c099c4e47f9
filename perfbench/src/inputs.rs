//! Seed-generated inputs. The program under test only ever sees the edge-list
//! file written here; the in-memory copy stays with the harness for its
//! correctness oracle.

use grasp_core::datasets::Scale;
use grasp_graph::generators::{GraphGenerator, Rmat, Uniform};
use grasp_graph::{io, Csr, EdgeList};
use std::path::{Path, PathBuf};

/// Input sizes of one harness run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Hierarchy the library workloads simulate: for an ingested graph the
    /// campaign's scale only picks the LLC size class (`Tiny` = 32 KiB),
    /// the graph's size is `log2_vertices`.
    pub scale: Scale,
    /// log2 of the generated graphs' vertex count.
    pub log2_vertices: u32,
    /// Generated edges per vertex (before self-loop and duplicate removal).
    pub edge_factor: u64,
    /// Scale of the synthetic datasets the daemon generates.
    pub serve_scale: Scale,
    /// Timed repetitions every pass makes at least.
    pub min_reps: usize,
    /// Standalone calls per layer in the traced pass.
    pub ledger_reps: usize,
    /// How often set-up is repeated (the median is `setup_s`).
    pub setup_reps: usize,
    /// Rounds (datasets) per serve session.
    pub serve_rounds: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` reports numbers for: 2^14 vertices on a
    /// 32 KiB LLC keeps the repository's footprint : LLC ratio (its `Small`
    /// pairs 2^15 with 64 KiB) at half the run time.
    pub const FULL: Sizes = Sizes {
        scale: Scale::Tiny,
        log2_vertices: 14,
        edge_factor: 16,
        serve_scale: Scale::Tiny,
        min_reps: 5,
        ledger_reps: 3,
        setup_reps: 3,
        serve_rounds: 5,
    };

    /// Smoke-test sizes (`--quick`): everything runs, nothing is worth
    /// reading as a measurement.
    pub const QUICK: Sizes = Sizes {
        scale: Scale::Tiny,
        log2_vertices: 11,
        edge_factor: 16,
        serve_scale: Scale::Tiny,
        min_reps: 2,
        ledger_reps: 2,
        setup_reps: 1,
        serve_rounds: 2,
    };
}

/// The degree distribution of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// R-MAT with Graph500 parameters: a small hot region covers most edges.
    High,
    /// Uniform random: no hot region at all.
    None,
}

/// Generates the workload's graph from `seed`, cleaned the way
/// `GraphGenerator::generate` cleans it (no self-loops, no parallel edges),
/// so the ingested file and the in-memory oracle describe the same graph.
pub fn generate_edges(skew: Skew, sizes: &Sizes, seed: u64) -> EdgeList {
    let mut edges = match skew {
        Skew::High => Rmat::new(sizes.log2_vertices, sizes.edge_factor).edge_list(seed),
        Skew::None => Uniform::new(1 << sizes.log2_vertices, sizes.edge_factor).edge_list(seed),
    };
    edges.remove_self_loops();
    edges.sort_and_dedup();
    edges
}

/// Writes `edges` as a text edge list (the SNAP/KONECT shape real datasets
/// arrive in).
pub fn write_edge_file(edges: &EdgeList, path: &Path) {
    io::write_edge_list_file(path, edges)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Writes an already-built graph back out as a text edge list (the serve
/// workload's ledger ingests the same graph the daemon generates).
pub fn write_graph_as_edge_file(graph: &Csr, path: &Path) {
    let mut edges =
        EdgeList::with_capacity(graph.vertex_count() as u64, graph.edge_count() as usize);
    for src in 0..graph.vertex_count() as u32 {
        for (&dst, &weight) in graph.out_neighbors(src).iter().zip(graph.out_weights(src)) {
            edges
                .push_weighted(src, dst, weight)
                .expect("CSR edges are in range");
        }
    }
    write_edge_file(&edges, path);
}

/// A scratch directory under cargo's target directory, unique to this
/// process and removed when dropped.
#[derive(Debug)]
pub struct Workdir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Workdir {
    pub fn create(target: &Path) -> Self {
        let root = target
            .join("pipeline-bench")
            .join(format!("w{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", root.display()));
        Self {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    /// A fresh, not yet existing path (`<stem>-<n>`).
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{stem}-{n}"))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Removes a directory a repetition is done with (missing is fine).
pub fn discard(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}
