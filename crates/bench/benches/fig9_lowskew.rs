//! Fig. 9 — robustness on the adversarial low-skew (`fr`) and no-skew (`uni`)
//! datasets: PIN-75, PIN-100 and GRASP over the RRIP baseline. Runs as one
//! parallel campaign.
//!
//! Paper reference: GRASP provides a net speed-up on 9 of 10 datapoints (max
//! slowdown 0.1%), whereas PIN-75 and PIN-100 cause slowdowns on almost every
//! datapoint (up to 5.3% and 14.2%).

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dump_json, figure_campaign, harness_scale, pct};
use grasp_core::compare::{geometric_mean_speedup, speedup_pct};
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 9: robustness on low-/no-skew datasets");
    let scale = harness_scale();
    let schemes = [PolicyKind::Pin(75), PolicyKind::Pin(100), PolicyKind::Grasp];
    let results = figure_campaign(scale, &DatasetKind::ADVERSARIAL, &AppKind::ALL, &schemes).run();

    let mut table = Table::new(
        "Fig. 9 — speed-up (%) over RRIP on fr (low skew) and uni (no skew)",
        &["dataset", "app", "PIN-75", "PIN-100", "GRASP"],
    );
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];

    for kind in DatasetKind::ADVERSARIAL {
        for app in AppKind::ALL {
            let baseline = results
                .get(kind, TechniqueKind::Dbg, app, PolicyKind::Rrip)
                .expect("baseline cell");
            let mut cells = vec![kind.label().to_owned(), app.label().to_owned()];
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
    println!(
        "Paper: GRASP between -0.1% and +4.3%; PIN-75/PIN-100 slow down on almost all datapoints."
    );
    dump_json("fig9", &[&table]);
}
