//! Fig. 7 — contribution of GRASP's individual features: RRIP+Hints
//! (software hints steering RRIP's existing insertion points), GRASP
//! (Insertion-Only), and full GRASP (insertion + gradual hit promotion),
//! all relative to the RRIP baseline. Runs as one parallel campaign.
//!
//! Paper reference: RRIP+Hints +3.3%, Insertion-Only +5.0%, full GRASP +5.2%
//! average speed-up.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dump_json, figure_campaign, harness_scale, pct};
use grasp_core::compare::{geometric_mean_speedup, speedup_pct};
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 7: impact of GRASP features on performance");
    let scale = harness_scale();
    let ablations = PolicyKind::ABLATIONS;
    let results = figure_campaign(scale, &DatasetKind::HIGH_SKEW, &AppKind::ALL, &ablations).run();

    let mut table = Table::new(
        "Fig. 7 — speed-up (%) over RRIP for GRASP's ablations",
        &[
            "app",
            "dataset",
            "RRIP+Hints",
            "GRASP (Insertion-Only)",
            "GRASP (Hit-Promotion)",
        ],
    );
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); ablations.len()];

    for app in AppKind::ALL {
        for kind in DatasetKind::HIGH_SKEW {
            let baseline = results
                .get(kind, TechniqueKind::Dbg, app, PolicyKind::Rrip)
                .expect("baseline cell");
            let mut cells = vec![app.label().to_owned(), kind.label().to_owned()];
            for (i, &mode) in ablations.iter().enumerate() {
                let run = results
                    .get(kind, TechniqueKind::Dbg, app, mode)
                    .expect("ablation cell");
                let speedup = speedup_pct(baseline.cycles, run.cycles);
                per_mode[i].push(speedup);
                cells.push(pct(speedup));
            }
            table.push_row(cells);
        }
    }
    let mut mean_row = vec!["GM".to_owned(), "all".to_owned()];
    for values in &per_mode {
        mean_row.push(pct(geometric_mean_speedup(values)));
    }
    table.push_row(mean_row);
    println!("{table}");
    println!("Paper GM: RRIP+Hints +3.3, Insertion-Only +5.0, Hit-Promotion +5.2.");
    dump_json("fig7", &[&table]);
}
