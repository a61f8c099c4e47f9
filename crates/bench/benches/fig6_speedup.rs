//! Fig. 6 — speed-up of SHiP-MEM, Hawkeye, Leeway and GRASP over the RRIP
//! baseline (five applications × five high-skew datasets, DBG-reordered).
//!
//! The whole grid runs as one parallel [`grasp_core::campaign::Campaign`]:
//! every dataset is generated and DBG-reordered once, and the app × policy
//! fan-out saturates the available cores. Per-cell statistics are
//! bit-identical to the former serial loop.
//!
//! Paper reference: GRASP averages +5.2% (max 10.2%) and never causes a
//! slowdown; SHiP-MEM and Hawkeye average -5.5% and -16.2%; Leeway +0.9%.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dump_json, figure_campaign, harness_scale, pct};
use grasp_core::compare::{geometric_mean_speedup, speedup_pct};
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 6: speed-up over the RRIP baseline");
    let scale = harness_scale();
    let schemes = PolicyKind::FIG5_SCHEMES;
    let results = figure_campaign(scale, &DatasetKind::HIGH_SKEW, &AppKind::ALL, &schemes).run();

    let mut table = Table::new(
        "Fig. 6 — speed-up (%) vs RRIP under the analytic timing model",
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
                let speedup = speedup_pct(baseline.cycles, run.cycles);
                per_scheme[i].push(speedup);
                cells.push(pct(speedup));
            }
            table.push_row(cells);
        }
    }
    let mut mean_row = vec!["GM".to_owned(), "all".to_owned()];
    for values in &per_scheme {
        mean_row.push(pct(geometric_mean_speedup(values)));
    }
    table.push_row(mean_row);
    println!("{table}");
    println!("Paper GM: SHiP-MEM -5.5, Hawkeye -16.2, Leeway +0.9, GRASP +5.2.");
    dump_json("fig6", &[&table]);
}
