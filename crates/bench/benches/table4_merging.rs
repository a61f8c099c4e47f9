//! Table IV — effect of merging the Property Arrays (the data-structure
//! optimization of Sec. IV-A) on SSSP, PR and PRD.
//!
//! Paper reference values: SSSP 3–8%, PR 40–52%, PRD 14–49% speed-up from
//! merging; BC and Radii have no merging opportunity.

use grasp_analytics::apps::AppKind;
use grasp_analytics::props::PropertyLayout;
use grasp_bench::{banner, dataset, dump_json, harness_scale, pct};
use grasp_core::compare::speedup_pct;
use grasp_core::datasets::DatasetKind;
use grasp_core::experiment::Experiment;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Table IV: speed-up from merging the Property Arrays");
    let scale = harness_scale();
    let mut table = Table::new(
        "Table IV — merged vs separate Property Arrays (paper: SSSP 3-8%, PR 40-52%, PRD 14-49%)",
        &[
            "app",
            "dataset",
            "separate misses",
            "merged misses",
            "speed-up (%)",
        ],
    );
    for app in [AppKind::Sssp, AppKind::PageRank, AppKind::PageRankDelta] {
        for kind in DatasetKind::HIGH_SKEW {
            let ds = dataset(kind, scale);
            let run_with = |layout: PropertyLayout| {
                let app_config = Experiment::traced_app_config(app).with_layout(layout);
                Experiment::new(ds.graph.clone(), app)
                    .with_hierarchy(scale.hierarchy())
                    .with_reordering(TechniqueKind::Dbg)
                    .with_app_config(app_config)
                    .run(PolicyKind::Rrip)
            };
            let separate = run_with(PropertyLayout::Separate);
            let merged = run_with(PropertyLayout::Merged);
            table.push_row(vec![
                app.label().to_owned(),
                kind.label().to_owned(),
                separate.llc_misses().to_string(),
                merged.llc_misses().to_string(),
                pct(speedup_pct(separate.cycles, merged.cycles)),
            ]);
        }
    }
    println!("{table}");
    println!("(BC and Radii keep a single hot Property Array and have no merging opportunity.)");
    dump_json("table4", &[&table]);
}
