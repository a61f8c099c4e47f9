//! Table I — skew of the evaluated datasets: percentage of hot vertices
//! (degree ≥ average) and the percentage of edges they cover, for in- and
//! out-edges.
//!
//! Paper reference values (Table I): hot vertices 9–26% covering 81–93% of
//! edges for the five high-skew datasets.

use grasp_bench::{banner, dataset, dump_json, harness_scale};
use grasp_core::datasets::DatasetKind;
use grasp_core::report::Table;

fn main() {
    banner("Table I: skew in the degree distribution");
    let scale = harness_scale();
    let mut table = Table::new(
        "Table I — hot vertices and edge coverage (paper: 9-26% hot, 81-93% coverage)",
        &[
            "dataset",
            "in hot vertices (%)",
            "in edge coverage (%)",
            "out hot vertices (%)",
            "out edge coverage (%)",
        ],
    );
    for kind in DatasetKind::ALL {
        let ds = dataset(kind, scale);
        let (in_skew, out_skew) = ds.skew();
        table.push_numeric_row(
            kind.label(),
            &[
                in_skew.hot_vertices_pct(),
                in_skew.edge_coverage_pct(),
                out_skew.hot_vertices_pct(),
                out_skew.edge_coverage_pct(),
            ],
        );
    }
    println!("{table}");
    println!("(fr and uni are the adversarial low-/no-skew datasets of Fig. 9.)");
    dump_json("table1", &[&table]);
}
