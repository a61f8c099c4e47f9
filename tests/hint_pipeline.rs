//! Integration tests for the GRASP software/hardware interface: the
//! application programs the Address Bound Registers, the recording carries
//! the bounds, the classifier at the LLC turns them into reuse hints, and
//! hint-consuming policies see them there.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::cachesim::hint::{RegionClassifier, ReuseHint};
use grasp_suite::core::datasets::{DatasetKind, Scale};
use grasp_suite::core::experiment::Experiment;
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::reorder::TechniqueKind;

const SCALE: Scale = Scale::Tiny;

fn hint_histogram(app: AppKind, reorder: TechniqueKind) -> (u64, u64, u64, u64) {
    let ds = DatasetKind::Kron.build(SCALE);
    let exp = Experiment::new(ds.graph, app)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(reorder);
    let recorded = exp.record();
    let trace = recorded.trace();
    let classifier = RegionClassifier::new(
        &trace.context().abr_bounds,
        SCALE.hierarchy().llc.size_bytes,
    );
    let mut counts = (0u64, 0u64, 0u64, 0u64);
    for info in trace.demand_accesses() {
        match classifier.classify(info.addr) {
            ReuseHint::High => counts.0 += 1,
            ReuseHint::Moderate => counts.1 += 1,
            ReuseHint::Low => counts.2 += 1,
            ReuseHint::Default => counts.3 += 1,
        }
    }
    counts
}

#[test]
fn abr_programming_produces_classified_llc_requests() {
    for app in [AppKind::PageRank, AppKind::Sssp, AppKind::Radii] {
        let (high, moderate, low, default) = hint_histogram(app, TechniqueKind::Dbg);
        assert!(high > 0, "{app}: no High-Reuse LLC requests");
        assert!(low > 0, "{app}: no Low-Reuse LLC requests");
        assert_eq!(
            default, 0,
            "{app}: once the ABRs are programmed nothing should be classified Default"
        );
        // The Moderate region only exists when the Property Array spans more
        // than one LLC capacity; at the Tiny test scale this is only
        // guaranteed for applications with three property fields (Radii).
        if app == AppKind::Radii {
            assert!(moderate > 0, "{app}: no Moderate-Reuse LLC requests");
        }
    }
}

#[test]
fn grasp_benefits_from_skew_aware_reordering() {
    // GRASP relies on a segregating reordering to make the High region
    // meaningful: combined with DBG it must do at least as well as when the
    // vertices keep their original (unsegregated) order.
    let ds = DatasetKind::Kron.build(SCALE);
    let original =
        Experiment::new(ds.graph, AppKind::PageRankDelta).with_hierarchy(SCALE.hierarchy());
    let misses = |exp: &Experiment| exp.run(PolicyKind::Grasp).llc_misses();
    let without = misses(&original);
    let with_dbg = misses(&original.clone().with_reordering(TechniqueKind::Dbg));
    assert!(
        with_dbg as f64 <= without as f64 * 1.05,
        "GRASP with DBG ({with_dbg}) should not lose to GRASP without reordering ({without})"
    );
}

#[test]
fn hint_consuming_policies_behave_identically_without_skew_aware_layout() {
    // Without reordering the High region holds arbitrary vertices, so
    // GRASP falls back to roughly baseline behaviour — the robustness
    // argument of Sec. V-B. Allow a generous tolerance; the point is that it
    // does not collapse.
    let ds = DatasetKind::Uniform.build(SCALE);
    let exp = Experiment::new(ds.graph, AppKind::PageRank).with_hierarchy(SCALE.hierarchy());
    let rrip = exp.run(PolicyKind::Rrip);
    let grasp = exp.run(PolicyKind::Grasp);
    let ratio = grasp.llc_misses() as f64 / rrip.llc_misses() as f64;
    assert!(
        ratio < 1.10,
        "GRASP must stay within 10% of RRIP even in the adversarial case (ratio {ratio:.3})"
    );
}
