//! Fig. 2 — classification of LLC accesses and misses as falling within or
//! outside the Property Array, for the `pl` and `tw` datasets across all five
//! applications (normalized to total LLC accesses).
//!
//! Paper reference: the Property Array accounts for 78–94% of LLC accesses and
//! a large fraction of LLC misses.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dataset, dump_json, experiment, harness_scale};
use grasp_cachesim::request::RegionLabel;
use grasp_core::datasets::DatasetKind;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

fn main() {
    banner("Fig. 2: LLC access/miss breakdown by data structure");
    let scale = harness_scale();
    let mut table = Table::new(
        "Fig. 2 — % of LLC accesses (paper: property accounts for 78-94% of accesses)",
        &[
            "dataset",
            "app",
            "accesses in property (%)",
            "accesses outside (%)",
            "misses in property (%)",
            "misses outside (%)",
        ],
    );
    for kind in [DatasetKind::Pld, DatasetKind::Twitter] {
        let ds = dataset(kind, scale);
        for app in AppKind::ALL {
            let exp = experiment(&ds, app, scale, TechniqueKind::Dbg);
            let run = exp.run(PolicyKind::Rrip);
            let llc = &run.stats.llc;
            let total = llc.accesses as f64;
            let prop = llc.region(RegionLabel::Property);
            let outside_accesses = llc.accesses - prop.accesses;
            let outside_misses = llc.misses - prop.misses;
            table.push_row(vec![
                kind.label().to_owned(),
                app.label().to_owned(),
                format!("{:.1}", prop.accesses as f64 / total * 100.0),
                format!("{:.1}", outside_accesses as f64 / total * 100.0),
                format!("{:.1}", prop.misses as f64 / total * 100.0),
                format!("{:.1}", outside_misses as f64 / total * 100.0),
            ]);
        }
    }
    println!("{table}");
    dump_json("fig2", &[&table]);
}
