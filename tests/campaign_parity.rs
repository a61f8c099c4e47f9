//! The parallel campaign runner must be a pure wall-clock optimization:
//! per-cell statistics bit-identical to the serial `Experiment::run` path,
//! and results delivered in deterministic grid order at any thread count.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::core::campaign::Campaign;
use grasp_suite::core::datasets::{DatasetId, DatasetKind, Scale};
use grasp_suite::core::experiment::Experiment;
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::{TraceStore, TraceStoreKey};
use grasp_suite::reorder::TechniqueKind;
use std::sync::Arc;

const SCALE: Scale = Scale::Tiny;

fn fig6_style_campaign() -> Campaign {
    Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter, DatasetKind::Kron])
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&[PolicyKind::Rrip, PolicyKind::Hawkeye, PolicyKind::Grasp])
}

#[test]
fn parallel_campaign_matches_serial_experiments_bit_for_bit() {
    let results = fig6_style_campaign().threads(4).run();
    assert_eq!(results.len(), 2 * 2 * 3);
    for run in results.iter() {
        let cell = run.cell;
        let DatasetId::Synthetic(kind) = cell.dataset else {
            panic!("synthetic axis");
        };
        let dataset = kind.build(SCALE);
        let serial = Experiment::new(dataset.graph, cell.app)
            .with_hierarchy(SCALE.hierarchy())
            .with_reordering(cell.technique)
            .run(cell.policy);
        assert_eq!(
            serial.stats, run.result.stats,
            "{}/{}/{}: parallel stats diverged from serial",
            cell.dataset, cell.app, cell.policy
        );
        assert_eq!(
            serial.app.values, run.result.app.values,
            "app output diverged"
        );
        assert!(
            (serial.cycles - run.result.cycles).abs() < 1e-9,
            "timing model diverged"
        );
    }
}

#[test]
fn results_are_deterministic_across_thread_counts() {
    let single = fig6_style_campaign().threads(1).run();
    let quad = fig6_style_campaign().threads(4).run();
    let many = fig6_style_campaign().threads(16).run();
    assert_eq!(single.len(), quad.len());
    assert_eq!(single.len(), many.len());
    for ((a, b), c) in single.iter().zip(quad.iter()).zip(many.iter()) {
        assert_eq!(a.cell, b.cell, "grid order must not depend on thread count");
        assert_eq!(a.cell, c.cell, "grid order must not depend on thread count");
        assert_eq!(a.result.stats, b.result.stats, "{:?}", a.cell);
        assert_eq!(a.result.stats, c.result.stats, "{:?}", a.cell);
    }
}

#[test]
fn campaign_cells_enumerate_the_grid_in_order() {
    let campaign = fig6_style_campaign();
    let cells = campaign.cells();
    assert_eq!(cells.len(), 12);
    // Datasets outermost, then techniques, apps, policies.
    assert_eq!(cells[0].dataset, DatasetKind::Twitter);
    assert_eq!(cells[0].app, AppKind::PageRank);
    assert_eq!(cells[0].policy, PolicyKind::Rrip);
    assert_eq!(cells[1].policy, PolicyKind::Hawkeye);
    assert_eq!(cells[3].app, AppKind::Sssp);
    assert_eq!(cells[6].dataset, DatasetKind::Kron);
    for cell in &cells {
        assert_eq!(cell.technique, TechniqueKind::Dbg);
    }
}

#[test]
fn recorded_traces_match_between_parallel_and_serial_runs() {
    let dir = std::env::temp_dir().join(format!("grasp-parity-traces-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter])
        .apps(&[AppKind::PageRank])
        .policies(&[PolicyKind::Rrip])
        .with_trace_store(Arc::clone(&store))
        .threads(4)
        .run();
    let dataset = DatasetKind::Twitter.build(SCALE);
    let serial = Experiment::new(dataset.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let key = TraceStoreKey::new(
        DatasetKind::Twitter,
        SCALE,
        TechniqueKind::Dbg,
        AppKind::PageRank,
        serial.hierarchy(),
        serial.app_config(),
    );
    let parallel = store.load(&key).expect("the campaign published its stream");
    assert_eq!(
        serial.record().trace(),
        &parallel.trace,
        "recorded LLC traces must be identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}
