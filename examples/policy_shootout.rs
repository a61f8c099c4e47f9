//! Policy shoot-out: run one application over one dataset under every LLC
//! management scheme of the paper and print a ranking.
//!
//! Run with (choose dataset/app by arguments):
//!
//! ```text
//! cargo run --release --example policy_shootout -- tw PR
//! ```

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::core::campaign::Campaign;
use grasp_suite::core::compare::{miss_reduction_pct, speedup_pct};
use grasp_suite::core::datasets::{DatasetKind, Scale};
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::report::Table;
use grasp_suite::reorder::TechniqueKind;

fn parse_dataset(label: &str) -> DatasetKind {
    DatasetKind::ALL
        .into_iter()
        .find(|d| d.label() == label)
        .unwrap_or(DatasetKind::Twitter)
}

fn parse_app(label: &str) -> AppKind {
    AppKind::ALL
        .into_iter()
        .find(|a| a.label().eq_ignore_ascii_case(label))
        .unwrap_or(AppKind::PageRank)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_kind = parse_dataset(args.get(1).map(String::as_str).unwrap_or("tw"));
    let app = parse_app(args.get(2).map(String::as_str).unwrap_or("PR"));
    let scale = Scale::from_env();

    println!("Dataset {dataset_kind}, application {app}, scale {scale:?}");
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Rrip,
        PolicyKind::ShipMem,
        PolicyKind::Hawkeye,
        PolicyKind::Leeway,
        PolicyKind::Pin(75),
        PolicyKind::Pin(100),
        PolicyKind::GraspHintsOnly,
        PolicyKind::GraspInsertionOnly,
        PolicyKind::Grasp,
    ];
    // One campaign: the dataset is generated and DBG-reordered
    // once, the application executes once to record the post-L2 stream, and
    // every policy is evaluated by replaying that stream — bit-identical to
    // simulating each policy from scratch, at a fraction of the cost.
    let results = Campaign::new(scale)
        .datasets(&[dataset_kind])
        .apps(&[app])
        .policies(&policies)
        .run();

    let baseline = results
        .get(dataset_kind, TechniqueKind::Dbg, app, PolicyKind::Rrip)
        .expect("baseline cell");
    let mut table = Table::new(
        format!("{app} on {dataset_kind}: every policy vs the RRIP baseline"),
        &[
            "policy",
            "LLC misses",
            "misses eliminated (%)",
            "speed-up (%)",
        ],
    );
    for run in results.iter() {
        table.push_row(vec![
            run.cell.policy.label().to_owned(),
            run.result.llc_misses().to_string(),
            format!(
                "{:.1}",
                miss_reduction_pct(baseline.llc_misses(), run.result.llc_misses())
            ),
            format!("{:.1}", speedup_pct(baseline.cycles, run.result.cycles)),
        ]);
    }
    println!("{table}");
}
