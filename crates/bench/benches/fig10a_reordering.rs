//! Fig. 10(a) — net speed-up of the software reordering techniques (Sort,
//! HubSort, DBG, Gorder) after accounting for their reordering cost, measured
//! natively (wall clock) rather than in the simulator.
//!
//! Paper reference: averaged over all application/dataset pairs, Sort +2.6%,
//! HubSort +0.6%, DBG +10.8%; Gorder loses badly (-85.4%) because its
//! reordering cost dwarfs the application runtime.
//!
//! The only bench without a committed `BENCH_*.json` dump: its table is
//! native wall-clock time on the host that runs it, not a deterministic
//! simulation, so no regenerated dump could reproduce a committed one.

use grasp_analytics::apps::{AppConfig, AppKind};
use grasp_bench::{banner, table_with_mean};
use grasp_core::compare::geometric_mean_speedup;
use grasp_core::datasets::{DatasetKind, Scale};
use grasp_core::experiment::Experiment;
use grasp_graph::Csr;
use grasp_reorder::cost;
use grasp_reorder::TechniqueKind::{Dbg, GorderDbg, HubSort, Sort};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Fig. 10(a): net speed-up of reordering techniques (native, wall clock)",
        scale,
    );
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        // Long enough for the reordering cost to amortize, as in the paper's
        // full-application measurements.
        let max_iterations = match app {
            AppKind::PageRank | AppKind::PageRankDelta => 20,
            AppKind::Radii => 16,
            AppKind::Bc | AppKind::Sssp => 256,
        };
        let config = AppConfig {
            max_iterations,
            ..AppConfig::default()
        };
        let native = |graph: &Csr| {
            let run = Experiment::new(graph.clone(), app)
                .with_app_config(config)
                .run_native();
            run.runtime
        };
        for kind in DatasetKind::HIGH_SKEW {
            let graph = kind.build(scale).graph;
            let baseline = native(&graph).as_secs_f64();
            let values = [Sort, HubSort, Dbg, GorderDbg].map(|technique| {
                let outcome = cost::run(technique, &graph, app.hotness_direction());
                let total = outcome.total_time() + native(&outcome.graph);
                (baseline / total.as_secs_f64() - 1.0) * 100.0
            });
            rows.push(([app.label(), kind.label()], values.to_vec()));
        }
    }
    let table = table_with_mean(
        "Fig. 10a — net speed-up (%) over the original ordering, including reordering cost",
        &["app", "dataset", "Sort", "HubSort", "DBG", "Gorder(+DBG)"],
        &rows,
        geometric_mean_speedup,
    );
    println!("{table}");
    println!("Paper averages: Sort +2.6, HubSort +0.6, DBG +10.8, Gorder -85.4.");
    println!("(Wall-clock numbers depend on the host; the qualitative ordering is what matters.)");
}
