//! Fig. 5 — LLC miss reduction of SHiP-MEM, Hawkeye, Leeway and GRASP over
//! the RRIP baseline, for the five applications over the five high-skew
//! datasets (all DBG-reordered).
//!
//! Runs as one parallel campaign (see [`grasp_core::campaign`]); statistics
//! are bit-identical to the former serial loop.
//!
//! Paper reference: GRASP eliminates 6.4% of LLC misses on average (max
//! 14.2%) and never increases misses; Leeway averages +1.1%; SHiP-MEM and
//! Hawkeye average -4.8% and -22.7% respectively.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dump_json, figure_campaign, harness_scale, pct};
use grasp_core::compare::{arithmetic_mean, miss_reduction_pct};
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 5: LLC misses eliminated over the RRIP baseline");
    let scale = harness_scale();
    let schemes = PolicyKind::FIG5_SCHEMES;
    let results = figure_campaign(scale, &DatasetKind::HIGH_SKEW, &AppKind::ALL, &schemes).run();

    let mut table = Table::new(
        "Fig. 5 — % LLC misses eliminated vs RRIP (positive is better)",
        &["app", "dataset", "SHiP-MEM", "Hawkeye", "Leeway", "GRASP"],
    );
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];

    for app in AppKind::ALL {
        for kind in DatasetKind::HIGH_SKEW {
            let baseline = results
                .get(kind, TechniqueKind::Dbg, app, PolicyKind::Rrip)
                .expect("baseline cell");
            let mut cells = vec![app.label().to_owned(), kind.label().to_owned()];
            for (i, &scheme) in schemes.iter().enumerate() {
                let run = results
                    .get(kind, TechniqueKind::Dbg, app, scheme)
                    .expect("scheme cell");
                let reduction = miss_reduction_pct(baseline.llc_misses(), run.llc_misses());
                per_scheme[i].push(reduction);
                cells.push(pct(reduction));
            }
            table.push_row(cells);
        }
    }
    let mut mean_row = vec!["GM".to_owned(), "all".to_owned()];
    for values in &per_scheme {
        mean_row.push(pct(arithmetic_mean(values)));
    }
    table.push_row(mean_row);
    println!("{table}");
    println!("Paper averages: SHiP-MEM -4.8, Hawkeye -22.7, Leeway +1.1, GRASP +6.4.");
    dump_json("fig5", &[&table]);
}
