//! End-to-end integration tests spanning every crate of the workspace:
//! dataset generation → reordering → application execution → cache
//! simulation → metric computation.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::cachesim::policy::opt::optimal_misses;
use grasp_suite::cachesim::request::RegionLabel;
use grasp_suite::core::compare::miss_reduction_pct;
use grasp_suite::core::datasets::{DatasetKind, Scale};
use grasp_suite::core::experiment::Experiment;
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::reorder::TechniqueKind;

const SCALE: Scale = Scale::Tiny;

#[test]
fn every_application_runs_under_every_headline_policy() {
    let ds = DatasetKind::Twitter.build(SCALE);
    for app in AppKind::ALL {
        let exp = Experiment::new(ds.graph.clone(), app)
            .with_hierarchy(SCALE.hierarchy())
            .with_reordering(TechniqueKind::Dbg);
        let baseline = exp.run(PolicyKind::Rrip);
        for policy in [
            PolicyKind::Lru,
            PolicyKind::ShipMem,
            PolicyKind::Hawkeye,
            PolicyKind::Leeway,
            PolicyKind::Pin(75),
            PolicyKind::Grasp,
        ] {
            let run = exp.run(policy);
            assert_eq!(
                run.app.values, baseline.app.values,
                "{app}/{policy}: cache policy must not change application results"
            );
            assert!(run.llc_accesses() > 0, "{app}/{policy}");
            assert!(run.cycles > 0.0, "{app}/{policy}");
        }
    }
}

#[test]
fn grasp_helps_on_skewed_datasets_and_stays_safe_on_uniform_ones() {
    // The headline claim of the paper at reproduction scale: positive miss
    // reduction on the skewed dataset, no meaningful degradation on the
    // uniform adversarial dataset.
    let skewed = DatasetKind::Kron.build(SCALE);
    let exp = Experiment::new(skewed.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let rrip = exp.run(PolicyKind::Rrip);
    let grasp = exp.run(PolicyKind::Grasp);
    let reduction = miss_reduction_pct(rrip.llc_misses(), grasp.llc_misses());
    assert!(
        reduction > -1.0,
        "GRASP must not lose to RRIP on a skewed dataset (got {reduction:.2}%)"
    );

    let uniform = DatasetKind::Uniform.build(SCALE);
    let exp = Experiment::new(uniform.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let rrip = exp.run(PolicyKind::Rrip);
    let grasp = exp.run(PolicyKind::Grasp);
    let reduction = miss_reduction_pct(rrip.llc_misses(), grasp.llc_misses());
    assert!(
        reduction > -5.0,
        "GRASP must stay robust on the uniform dataset (got {reduction:.2}%)"
    );
}

#[test]
fn reordering_reduces_misses_for_the_baseline() {
    // Skew-aware reordering alone (DBG) should not hurt, and usually helps,
    // LLC behaviour compared to the scrambled original order.
    let ds = DatasetKind::LiveJournal.build(SCALE);
    let original = Experiment::new(ds.graph.clone(), AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .run(PolicyKind::Rrip);
    let reordered = Experiment::new(ds.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg)
        .run(PolicyKind::Rrip);
    assert!(
        reordered.llc_misses() as f64 <= original.llc_misses() as f64 * 1.05,
        "DBG reordering should not increase misses materially: {} vs {}",
        reordered.llc_misses(),
        original.llc_misses()
    );
}

#[test]
fn recorded_traces_are_consistent_with_opt() {
    let ds = DatasetKind::Twitter.build(SCALE);
    let exp = Experiment::new(ds.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let recorded = exp.record();
    let run = recorded.replay(PolicyKind::Rrip);
    let trace = recorded.trace();
    assert_eq!(trace.demand_len() as u64, run.llc_accesses());
    // Belady's OPT on the demand stream can never miss more than the online
    // policy did.
    let opt = optimal_misses(trace, &SCALE.hierarchy().llc);
    assert!(opt.misses <= run.llc_misses());
    // The demand stream is dominated by Property Array accesses (Fig. 2's
    // claim).
    let property = trace
        .demand_accesses()
        .filter(|info| info.region == RegionLabel::Property)
        .count();
    assert!(
        property * 2 > trace.demand_len(),
        "property accesses should dominate the LLC trace ({property} of {})",
        trace.demand_len()
    );
}

#[test]
fn all_reordering_techniques_compose_with_all_apps() {
    let ds = DatasetKind::Pld.build(SCALE);
    for technique in TechniqueKind::ALL {
        let exp = Experiment::new(ds.graph.clone(), AppKind::Sssp)
            .with_hierarchy(SCALE.hierarchy())
            .with_reordering(technique);
        let run = exp.run(PolicyKind::Grasp);
        assert!(run.llc_accesses() > 0, "{technique}");
        // Vertex relabelling must preserve the reachable distance multiset.
        let mut finite: Vec<u64> = run
            .app
            .values
            .iter()
            .filter(|v| v.is_finite())
            .map(|&v| v as u64)
            .collect();
        finite.sort_unstable();
        assert!(!finite.is_empty(), "{technique}");
    }
}
