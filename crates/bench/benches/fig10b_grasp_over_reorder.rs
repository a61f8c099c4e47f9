//! Fig. 10(b) — GRASP's speed-up over the RRIP baseline when applied on top
//! of each software reordering technique (Sort, HubSort, DBG, Gorder+DBG),
//! demonstrating that GRASP is not coupled to any one technique.
//!
//! This is the grid where the campaign runner pays off most: every dataset is
//! reordered once per technique (instead of once per app × technique ×
//! policy) and all cells run in parallel.
//!
//! Paper reference: GRASP averages +4.4%, +4.2%, +5.2% and +5.0% on top of
//! Sort, HubSort, DBG and Gorder respectively.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dump_json, harness_scale, pct};
use grasp_core::campaign::Campaign;
use grasp_core::compare::{geometric_mean_speedup, speedup_pct};
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 10(b): GRASP on top of different reordering techniques");
    let scale = harness_scale();
    let techniques = [
        TechniqueKind::Sort,
        TechniqueKind::HubSort,
        TechniqueKind::Dbg,
        TechniqueKind::GorderDbg,
    ];
    let results = Campaign::new(scale)
        .datasets(&DatasetKind::HIGH_SKEW)
        .techniques(&techniques)
        .apps(&AppKind::ALL)
        .policies(&[PolicyKind::Rrip, PolicyKind::Grasp])
        .run();

    let mut table = Table::new(
        "Fig. 10b — GRASP speed-up (%) over RRIP per reordering technique",
        &[
            "app",
            "dataset",
            "over Sort",
            "over HubSort",
            "over DBG",
            "over Gorder(+DBG)",
        ],
    );
    let mut per_technique: Vec<Vec<f64>> = vec![Vec::new(); techniques.len()];

    for app in AppKind::ALL {
        for kind in DatasetKind::HIGH_SKEW {
            let mut cells = vec![app.label().to_owned(), kind.label().to_owned()];
            for (i, &technique) in techniques.iter().enumerate() {
                let baseline = results
                    .get(kind, technique, app, PolicyKind::Rrip)
                    .expect("baseline cell");
                let grasp = results
                    .get(kind, technique, app, PolicyKind::Grasp)
                    .expect("grasp cell");
                let speedup = speedup_pct(baseline.cycles, grasp.cycles);
                per_technique[i].push(speedup);
                cells.push(pct(speedup));
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
    println!("Paper averages: +4.4 (Sort), +4.2 (HubSort), +5.2 (DBG), +5.0 (Gorder).");
    dump_json("fig10b", &[&table]);
}
