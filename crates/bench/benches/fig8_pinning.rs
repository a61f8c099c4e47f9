//! Fig. 8 — GRASP vs XMem-style pinning (PIN-25/50/75/100) on the high-skew
//! datasets, relative to the RRIP baseline. Runs as one parallel campaign.
//!
//! Paper reference: GRASP +5.2% average and outperforms every PIN
//! configuration on 24 of 25 datapoints; PIN-25/50/75/100 average
//! 0.4/1.1/2.0/2.5%.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dump_json, figure_campaign, harness_scale, pct};
use grasp_core::compare::{geometric_mean_speedup, speedup_pct};
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 8: GRASP vs pinning on high-skew datasets");
    let scale = harness_scale();
    let schemes = [
        PolicyKind::Pin(25),
        PolicyKind::Pin(50),
        PolicyKind::Pin(75),
        PolicyKind::Pin(100),
        PolicyKind::Grasp,
    ];
    let results = figure_campaign(scale, &DatasetKind::HIGH_SKEW, &AppKind::ALL, &schemes).run();

    let mut table = Table::new(
        "Fig. 8 — speed-up (%) over RRIP",
        &[
            "app", "dataset", "PIN-25", "PIN-50", "PIN-75", "PIN-100", "GRASP",
        ],
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
    println!("Paper GM: PIN-25 +0.4, PIN-50 +1.1, PIN-75 +2.0, PIN-100 +2.5, GRASP +5.2.");
    dump_json("fig8", &[&table]);
}
