//! Reordering study (native execution): measure the wall-clock benefit of
//! each skew-aware reordering technique — including its reordering cost — on
//! a real machine, mirroring the methodology of Fig. 10(a).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example reordering_study -- kr
//! ```

use grasp_suite::analytics::apps::{AppConfig, AppKind};
use grasp_suite::core::datasets::{DatasetKind, Scale};
use grasp_suite::core::experiment::Experiment;
use grasp_suite::core::report::Table;
use grasp_suite::reorder::{cost, TechniqueKind};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_kind = DatasetKind::ALL
        .into_iter()
        .find(|d| Some(d.label()) == args.get(1).map(String::as_str))
        .unwrap_or(DatasetKind::Kron);
    let scale = Scale::from_env();
    let app = AppKind::PageRank;
    println!("Native reordering study: {app} on {dataset_kind} ({scale:?} scale)");

    let dataset = dataset_kind.build(scale);
    let app_config = AppConfig {
        max_iterations: 20,
        epsilon: 0.0,
        ..AppConfig::default()
    };

    // Baseline: original vertex order.
    let baseline = Experiment::new(dataset.graph.clone(), app)
        .with_app_config(app_config)
        .run_native();
    println!(
        "  original order: {:.3} ms",
        baseline.runtime.as_secs_f64() * 1e3
    );

    let mut table = Table::new(
        "Net speed-up including reordering cost (cf. Fig. 10a)",
        &["technique", "reorder (ms)", "app (ms)", "net speed-up (%)"],
    );
    for kind in [
        TechniqueKind::Sort,
        TechniqueKind::HubSort,
        TechniqueKind::Dbg,
        TechniqueKind::GorderDbg,
    ] {
        let outcome = cost::run(kind, &dataset.graph, app.hotness_direction());
        let run = Experiment::new(outcome.graph.clone(), app)
            .with_app_config(app_config)
            .run_native();
        let total = outcome.total_time() + run.runtime;
        let net_speedup = (baseline.runtime.as_secs_f64() / total.as_secs_f64() - 1.0) * 100.0;
        table.push_row(vec![
            kind.label().to_owned(),
            format!("{:.3}", outcome.total_time().as_secs_f64() * 1e3),
            format!("{:.3}", run.runtime.as_secs_f64() * 1e3),
            format!("{net_speedup:.1}"),
        ]);
    }
    println!("{table}");
}
