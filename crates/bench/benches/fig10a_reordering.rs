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
use grasp_bench::{banner, dataset, harness_scale, pct};
use grasp_core::compare::geometric_mean_speedup;
use grasp_core::datasets::DatasetKind;
use grasp_core::experiment::Experiment;
use grasp_core::report::Table;
use grasp_reorder::cost::run_boxed;
use grasp_reorder::TechniqueKind;

/// Native app configuration: long enough for reordering cost amortization to
/// be meaningful, as in the paper's full-application measurements.
fn native_config(app: AppKind) -> AppConfig {
    let max_iterations = match app {
        AppKind::PageRank => 20,
        AppKind::PageRankDelta => 20,
        AppKind::Radii => 16,
        AppKind::Bc | AppKind::Sssp => 256,
    };
    AppConfig {
        max_iterations,
        epsilon: 0.0,
        ..AppConfig::default()
    }
}

fn main() {
    banner("Fig. 10(a): net speed-up of reordering techniques (native, wall clock)");
    let scale = harness_scale();
    let techniques = [
        TechniqueKind::Sort,
        TechniqueKind::HubSort,
        TechniqueKind::Dbg,
        TechniqueKind::GorderDbg,
    ];
    let mut table = Table::new(
        "Fig. 10a — net speed-up (%) over the original ordering, including reordering cost",
        &["app", "dataset", "Sort", "HubSort", "DBG", "Gorder(+DBG)"],
    );
    let mut per_technique: Vec<Vec<f64>> = vec![Vec::new(); techniques.len()];

    for app in AppKind::ALL {
        for kind in DatasetKind::HIGH_SKEW {
            let ds = dataset(kind, scale);
            let config = native_config(app);
            let baseline = Experiment::new(ds.graph.clone(), app)
                .with_app_config(config)
                .run_native();
            let mut cells = vec![app.label().to_owned(), kind.label().to_owned()];
            for (i, &kind_t) in techniques.iter().enumerate() {
                let technique = kind_t.instantiate();
                let outcome = run_boxed(technique.as_ref(), &ds.graph, app.hotness_direction());
                let run = Experiment::new(outcome.graph.clone(), app)
                    .with_app_config(config)
                    .run_native();
                let total = outcome.total_time() + run.runtime;
                let net = (baseline.runtime.as_secs_f64() / total.as_secs_f64() - 1.0) * 100.0;
                per_technique[i].push(net);
                cells.push(pct(net));
            }
            table.push_row(cells);
        }
    }
    let mut mean_row = vec!["GM".to_owned(), "all".to_owned()];
    for values in &per_technique {
        mean_row.push(pct(geometric_mean_speedup(values)));
    }
    table.push_row(mean_row);
    println!("{table}");
    println!("Paper averages: Sort +2.6, HubSort +0.6, DBG +10.8, Gorder -85.4.");
    println!("(Wall-clock numbers depend on the host; the qualitative ordering is what matters.)");
}
