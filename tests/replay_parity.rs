//! The record-once / replay-many pipeline must be a pure wall-clock
//! optimization: campaign results bit-identical to serial
//! `Experiment::run` across the full policy grid, and `LlcTrace::replay`
//! reproducing complete `HierarchyStats` — not just LLC miss counts.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::cachesim::config::{CacheConfig, HierarchyConfig};
use grasp_suite::cachesim::stats::CacheStats;
use grasp_suite::core::campaign::Campaign;
use grasp_suite::core::datasets::{DatasetId, DatasetKind, Scale};
use grasp_suite::core::experiment::{Experiment, RecordedRun};
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::{TraceStore, TraceStoreKey};
use grasp_suite::reorder::TechniqueKind;
use std::sync::Arc;

const SCALE: Scale = Scale::Tiny;

/// The full policy roster of the evaluation (paper schemes and GRASP's
/// ablations).
const FULL_GRID: [PolicyKind; 10] = [
    PolicyKind::Lru,
    PolicyKind::Rrip,
    PolicyKind::ShipMem,
    PolicyKind::Hawkeye,
    PolicyKind::Leeway,
    PolicyKind::Pin(50),
    PolicyKind::Pin(100),
    PolicyKind::GraspHintsOnly,
    PolicyKind::GraspInsertionOnly,
    PolicyKind::Grasp,
];

#[test]
fn replay_campaign_matches_serial_experiments_across_the_full_policy_grid() {
    let results = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter])
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&FULL_GRID)
        .threads(4)
        .run();
    assert_eq!(results.len(), 2 * FULL_GRID.len());
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
            "{}/{}/{}: replayed stats diverged from serial",
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
fn replay_and_direct_modes_agree_for_every_technique() {
    let policies = [PolicyKind::Rrip, PolicyKind::Hawkeye, PolicyKind::Grasp];
    let campaign = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Kron])
        .techniques(&[TechniqueKind::Dbg])
        .apps(&[AppKind::PageRankDelta])
        .policies(&policies)
        .threads(4);
    let replayed = campaign.run();
    let direct = campaign.run_direct();
    assert_eq!(replayed.len(), direct.len());
    for (a, b) in replayed.iter().zip(direct.iter()) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.result.stats, b.result.stats, "{:?}", a.cell);
    }
    // The control: the graph without reordering, which no campaign names.
    let original = Experiment::new(DatasetKind::Kron.build(SCALE).graph, AppKind::PageRankDelta)
        .with_hierarchy(SCALE.hierarchy());
    let recorded = original.record();
    for policy in policies {
        assert_eq!(
            recorded.replay(policy).stats,
            original.run(policy).stats,
            "{policy}"
        );
    }
}

#[test]
fn pipelined_campaign_matches_run_direct_across_the_full_policy_grid() {
    // The dependency-driven scheduler against the run-every-cell oracle,
    // for all 10 policies over a multi-stream grid: record-once /
    // replay-many and pipelining may only move wall-clock, never
    // statistics, app output or timing.
    let campaign = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter, DatasetKind::Kron])
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&FULL_GRID)
        .threads(4);
    let pipelined = campaign.run();
    let direct = campaign.run_direct();
    assert_eq!(pipelined.len(), 4 * FULL_GRID.len());
    assert_eq!(pipelined.len(), direct.len());
    for (a, b) in pipelined.iter().zip(direct.iter()) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(
            a.result.stats, b.result.stats,
            "{}/{}/{}: pipelined diverged from direct simulation",
            a.cell.dataset, a.cell.app, a.cell.policy
        );
        assert_eq!(a.result.app.values, b.result.app.values);
        assert!((a.result.cycles - b.result.cycles).abs() < 1e-9);
    }
}

#[test]
fn batched_scalar_fanout_and_direct_replays_agree_across_the_full_policy_grid() {
    // The batched chunk-native replay kernel against every other execution
    // path, for all 10 policies: batched replay (the default), the
    // per-event scalar reference, the shared-decode policy fan-out, and
    // direct simulation. Then the same for four policies under the paper's
    // Table VI geometry (32 KiB L1, 256 KiB L2, 16 MiB LLC), which the
    // scaled hierarchies never reach.
    let paper_row = [
        PolicyKind::Lru,
        PolicyKind::Rrip,
        PolicyKind::Hawkeye,
        PolicyKind::Grasp,
    ];
    let inputs: [(HierarchyConfig, &[PolicyKind]); 2] = [
        (SCALE.hierarchy(), &FULL_GRID),
        (HierarchyConfig::paper_scale(), &paper_row),
    ];
    let dataset = DatasetKind::Twitter.build(SCALE);
    for (hierarchy, policies) in inputs {
        let exp = Experiment::new(dataset.graph.clone(), AppKind::PageRank)
            .with_hierarchy(hierarchy)
            .with_reordering(TechniqueKind::Dbg);
        let recorded = exp.record();
        let llc = hierarchy.llc;
        let fanout = recorded.replay_fanout(policies);
        assert_eq!(fanout.len(), policies.len());
        for (&policy, fanout_run) in policies.iter().zip(&fanout) {
            let what = format!("{policy} at {} KiB LLC", llc.size_bytes / 1024);
            let batched = recorded.replay(policy);
            let scalar = recorded
                .trace()
                .replay_scalar(llc, policy.build_dispatch(&llc));
            let direct = exp.run(policy);
            assert_eq!(
                batched.stats, scalar,
                "{what}: batched replay diverged from the per-event path"
            );
            assert_eq!(
                batched.stats, fanout_run.stats,
                "{what}: batched replay diverged from the shared-decode fan-out"
            );
            assert_eq!(
                batched.stats, direct.stats,
                "{what}: batched replay diverged from direct simulation"
            );
            assert!((batched.cycles - fanout_run.cycles).abs() < 1e-12, "{what}");
        }
    }
}

#[test]
fn hierarchy_latencies_price_direct_replayed_and_loaded_runs_alike() {
    // Table VI's latencies price every run alike, whatever LLC it replays
    // into: under twice the scale's LLC, a replay, the stream the scale's
    // hierarchy published to the store loaded back there, and direct
    // simulation give equal statistics and equal cycle bits.
    let tiny = SCALE.hierarchy();
    let wide = HierarchyConfig {
        llc: CacheConfig::new(2 * tiny.llc.size_bytes, tiny.llc.ways, tiny.llc.block_bytes),
        ..tiny
    };
    let dir = std::env::temp_dir().join(format!("grasp-latency-itest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let default = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter])
        .apps(&[AppKind::PageRank])
        .policies(&[PolicyKind::Rrip, PolicyKind::Grasp])
        .with_trace_store(Arc::clone(&store))
        .run();
    let key = TraceStoreKey::new(
        DatasetKind::Twitter,
        SCALE,
        TechniqueKind::Dbg,
        AppKind::PageRank,
        &wide,
        &Experiment::traced_app_config(AppKind::PageRank),
    );
    let stored = store.load(&key).expect("the LLC does not fork the key");
    std::fs::remove_dir_all(&dir).ok();
    let loaded = RecordedRun::from_parts(stored.trace, stored.app, stored.instructions, wide.llc);
    let experiment = Experiment::new(DatasetKind::Twitter.build(SCALE).graph, AppKind::PageRank)
        .with_hierarchy(wide)
        .with_reordering(TechniqueKind::Dbg);
    let recorded = experiment.record();
    assert_eq!(default.len(), 2);
    for base in default.iter() {
        let policy = base.cell.policy;
        let run = recorded.replay(policy);
        assert_eq!(base.result.stats.l1, run.stats.l1, "{policy}: L1 moved");
        assert_eq!(base.result.stats.l2, run.stats.l2, "{policy}: L2 moved");
        assert_ne!(
            base.result.stats.llc, run.stats.llc,
            "{policy}: LLC ignored"
        );
        let direct = experiment.run(policy);
        assert_eq!(direct.stats, run.stats, "{policy}: direct");
        assert_eq!(
            direct.cycles.to_bits(),
            run.cycles.to_bits(),
            "{policy}: direct"
        );
        let stored = loaded.replay(policy);
        assert_eq!(
            stored.cycles.to_bits(),
            run.cycles.to_bits(),
            "{policy}: loaded"
        );
        assert_eq!(stored.stats, run.stats, "{policy}: loaded");
    }
}

#[test]
fn recorded_stream_replays_deterministically() {
    let dataset = DatasetKind::Twitter.build(SCALE);
    let exp = Experiment::new(dataset.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let recorded = exp.record();
    for policy in [PolicyKind::Rrip, PolicyKind::Grasp] {
        let a = recorded.replay(policy);
        let b = recorded.replay(policy);
        assert_eq!(a.stats, b.stats, "{policy}: replay must be deterministic");
        assert_eq!(a.cycles, b.cycles);
    }
}

#[test]
fn two_recordings_of_the_same_cell_are_identical() {
    let dataset = DatasetKind::Kron.build(SCALE);
    let exp = Experiment::new(dataset.graph, AppKind::Radii)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let a = exp.record();
    let b = exp.record();
    assert_eq!(a.trace(), b.trace(), "recording must be deterministic");
    assert_eq!(a.app().values, b.app().values);
}

#[test]
fn replayed_hierarchy_stats_carry_upper_levels_and_memory_traffic() {
    let dataset = DatasetKind::Twitter.build(SCALE);
    let exp = Experiment::new(dataset.graph, AppKind::PageRank)
        .with_hierarchy(SCALE.hierarchy())
        .with_reordering(TechniqueKind::Dbg);
    let direct = exp.run(PolicyKind::Grasp);
    let replayed = exp.record().replay(PolicyKind::Grasp);
    // Spot-check the pieces a shallow parity test could miss: L1/L2 stats,
    // per-region counters, prefetch and writeback counters, memory traffic.
    assert_eq!(direct.stats.l1, replayed.stats.l1);
    assert_eq!(direct.stats.l2, replayed.stats.l2);
    assert_eq!(
        direct.stats.llc.prefetch_accesses,
        replayed.stats.llc.prefetch_accesses
    );
    assert_eq!(
        direct.stats.llc.writeback_accesses,
        replayed.stats.llc.writeback_accesses
    );
    assert_eq!(direct.stats.memory_accesses, replayed.stats.memory_accesses);
    assert!(replayed.stats.llc.accesses > 0);
}

#[test]
fn sampling_policies_agree_across_replay_paths_when_only_some_sets_train() {
    // Hawkeye and Leeway train on every `sets / 64`-th set, which is every
    // set of the <= 64-set LLCs the other tests use. A 128-set LLC has
    // sampled and unsampled sets side by side: batched == scalar == direct
    // must hold there too.
    let hierarchy = HierarchyConfig::scaled_with_llc(128 * 1024);
    assert_eq!(hierarchy.llc.sets(), 128);
    let dataset = DatasetKind::Twitter.build(SCALE);
    let exp = Experiment::new(dataset.graph, AppKind::PageRankDelta)
        .with_hierarchy(hierarchy)
        .with_reordering(TechniqueKind::Dbg);
    let recorded = exp.record();
    let llc = hierarchy.llc;
    for policy in [PolicyKind::Hawkeye, PolicyKind::Leeway, PolicyKind::Rrip] {
        let batched = recorded.replay(policy);
        assert_eq!(
            batched.stats,
            recorded
                .trace()
                .replay_scalar(llc, policy.build_dispatch(&llc)),
            "{policy}: batched replay diverged from the per-event path"
        );
        assert_eq!(
            batched.stats,
            exp.run(policy).stats,
            "{policy}: batched replay diverged from direct simulation"
        );
    }
}

#[test]
fn llc_stats_are_pinned_across_the_full_policy_grid() {
    // Golden LLC statistics `(misses, evictions, bypasses, prefetch_fills,
    // writeback_hits)` of every policy on tw x DBG, replayed from the
    // recorded stream, captured on the commit before replay's inner loop
    // became one leaf kernel per policy (PR 17; the Hawkeye and Leeway rows
    // date from PR 12 and did not move). Every replay path funnels through
    // the same per-access routine, so their agreeing with each other cannot
    // catch an edit that breaks all of them; these can. A kernel change that
    // moves any of them changed a victim, a fill or a training event
    // somewhere.
    type Pin = (u64, u64, u64, u64, u64);
    // (policy, PageRank, PageRankDelta)
    #[rustfmt::skip]
    const PINNED: [(PolicyKind, Pin, Pin); 10] = [
        (PolicyKind::Lru, (4782, 12730, 0, 8460, 2429), (43624, 61661, 0, 18549, 9730)),
        (PolicyKind::Rrip, (2008, 9473, 0, 7977, 2322), (24733, 41149, 0, 16928, 5880)),
        (PolicyKind::ShipMem, (1694, 9027, 0, 7845, 2147), (22324, 38316, 0, 16504, 5038)),
        (PolicyKind::Hawkeye, (804, 8062, 0, 7770, 2694), (28245, 44814, 0, 17081, 5998)),
        (PolicyKind::Leeway, (934, 8218, 0, 7796, 2639), (23391, 39524, 0, 16645, 5335)),
        (PolicyKind::Pin(50), (1108, 8581, 0, 7985, 2743), (30257, 46861, 0, 17116, 7793)),
        (PolicyKind::Pin(100), (695, 7872, 0, 7689, 2654), (45052, 62621, 0, 18081, 5798)),
        (PolicyKind::GraspHintsOnly, (681, 7873, 0, 7704, 2711), (25760, 42099, 0, 16851, 5638)),
        (PolicyKind::GraspInsertionOnly, (757, 7976, 0, 7731, 2709), (40924, 57965, 0, 17553, 8236)),
        (PolicyKind::Grasp, (757, 7976, 0, 7731, 2709), (44136, 61087, 0, 17463, 7863)),
    ];
    // GRASP on the PageRankDelta stream replayed for an LLC twice the
    // recorded size, hints classified for it (the Table VII shape) — and
    // identical to simulating that hierarchy directly.
    const RECLASSIFIED: Pin = (2783, 16892, 0, 15133, 10043);
    let pin = |llc: &CacheStats| -> Pin {
        (
            llc.misses,
            llc.evictions,
            llc.bypasses,
            llc.prefetch_fills,
            llc.writeback_hits,
        )
    };
    let dataset = DatasetKind::Twitter.build(SCALE);
    assert!(PINNED.iter().map(|row| row.0).eq(FULL_GRID), "every policy");
    for app in [AppKind::PageRank, AppKind::PageRankDelta] {
        let exp = Experiment::new(dataset.graph.clone(), app)
            .with_hierarchy(SCALE.hierarchy())
            .with_reordering(TechniqueKind::Dbg);
        let recorded = exp.record();
        for (policy, page_rank, page_rank_delta) in PINNED {
            let llc = recorded.replay(policy).stats.llc;
            let pinned = match app {
                AppKind::PageRank => page_rank,
                _ => page_rank_delta,
            };
            assert_eq!(pin(&llc), pinned, "tw/{app}/{policy}");
            assert_eq!(exp.run(policy).stats.llc, llc, "tw/{app}/{policy}: direct");
        }
        if app == AppKind::PageRankDelta {
            let recorded_llc = SCALE.hierarchy().llc;
            let llc = CacheConfig::new(
                2 * recorded_llc.size_bytes,
                recorded_llc.ways,
                recorded_llc.block_bytes,
            );
            let stats = recorded
                .trace()
                .replay(llc, PolicyKind::Grasp.build_dispatch(&llc));
            assert_eq!(pin(&stats.llc), RECLASSIFIED, "tw/{app}/GRASP at 2x LLC");
            let direct = exp
                .clone()
                .with_hierarchy(HierarchyConfig {
                    llc,
                    ..SCALE.hierarchy()
                })
                .run(PolicyKind::Grasp);
            assert_eq!(direct.stats, stats, "tw/{app}/GRASP at 2x LLC: direct");
        }
    }
}

#[test]
fn twelve_way_llc_stats_are_pinned() {
    // Golden LLC statistics `(accesses, misses, evictions, prefetch_fills,
    // writeback_hits)` on tw x DBG x PageRank for a 48 KiB 12-way LLC (64
    // sets) under the `Tiny` L1 and L2, captured on the commit before the
    // per-set victim searches and Hawkeye's friendly ageing went
    // branch-free. Every other pin is 16-way, two whole eight-lane words
    // per set; twelve ways leave a four-way tail after one word.
    type Pin = (u64, u64, u64, u64, u64);
    const PINNED: [(PolicyKind, Pin); 6] = [
        (PolicyKind::Lru, (14124, 1811, 9203, 8160, 2576)),
        (PolicyKind::Rrip, (14124, 821, 7579, 7526, 2627)),
        (PolicyKind::ShipMem, (14124, 982, 7538, 7324, 2512)),
        (PolicyKind::Hawkeye, (14124, 460, 6912, 7220, 2768)),
        (PolicyKind::Leeway, (14124, 438, 7261, 7591, 2793)),
        (PolicyKind::Grasp, (14124, 424, 6867, 7211, 2795)),
    ];
    let hierarchy = HierarchyConfig {
        llc: CacheConfig::new(48 * 1024, 12, 64),
        ..SCALE.hierarchy()
    };
    assert_eq!(hierarchy.llc.sets(), 64);
    let dataset = DatasetKind::Twitter.build(SCALE);
    let recorded = Experiment::new(dataset.graph, AppKind::PageRank)
        .with_hierarchy(hierarchy)
        .with_reordering(TechniqueKind::Dbg)
        .record();
    for (policy, pinned) in PINNED {
        let llc = recorded.replay(policy).stats.llc;
        let pin = (
            llc.accesses,
            llc.misses,
            llc.evictions,
            llc.prefetch_fills,
            llc.writeback_hits,
        );
        assert_eq!(pin, pinned, "tw/PR/{policy} at 12 ways");
    }
}

#[test]
fn upper_level_streams_are_pinned() {
    // Golden L1/L2 statistics `(accesses, misses, evictions,
    // prefetch_accesses, prefetch_fills, writeback_accesses,
    // writeback_hits)`, stream lengths and FNV-1a of the persisted bytes,
    // captured on the commit before the upper levels moved from
    // `SetAssocCache` + `Lru` to the recency-ordered filter (PR 13). The
    // digests were re-pinned for format v3 (the bytes that commit's
    // recorder writes with its hint bits cleared and its version word set
    // to 3) and for v4: the v3 bytes with version word 4 and their XXH64
    // checksum, every other byte unchanged. The other record tests compare
    // two paths of the *current* implementation; this one fails when the
    // recorded stream itself moves — and a moved stream silently
    // invalidates every store recorded before it.
    type Level = (u64, u64, u64, u64, u64, u64, u64);
    const PINNED: [(AppKind, Level, Level, usize, usize, u64); 3] = [
        (
            AppKind::PageRank,
            (239646, 54645, 65615, 128481, 11034, 0, 0),
            (54645, 14124, 22727, 11034, 8859, 3218, 3215),
            25778,
            14124,
            0xfafc646d7d837192,
        ),
        (
            AppKind::PageRankDelta,
            (706123, 259674, 287241, 277393, 27631, 0, 0),
            (259674, 112650, 133985, 27631, 21591, 11192, 11180),
            144324,
            112650,
            0x7e9d3f174019bb9b,
        ),
        (
            AppKind::Radii,
            (404286, 133136, 147094, 170030, 14022, 0, 0),
            (133136, 51224, 62334, 14022, 11366, 3929, 3922),
            65590,
            51224,
            0x6881cc63174e937c,
        ),
    ];
    let level = |s: &CacheStats| -> Level {
        (
            s.accesses,
            s.misses,
            s.evictions,
            s.prefetch_accesses,
            s.prefetch_fills,
            s.writeback_accesses,
            s.writeback_hits,
        )
    };
    let dataset = DatasetKind::Twitter.build(SCALE);
    for (app, l1, l2, len, demand_len, fnv) in PINNED {
        let recorded = Experiment::new(dataset.graph.clone(), app)
            .with_hierarchy(SCALE.hierarchy())
            .with_reordering(TechniqueKind::Dbg)
            .record();
        let trace = recorded.trace();
        assert_eq!(level(&trace.context().l1), l1, "tw/{app}: L1");
        assert_eq!(level(&trace.context().l2), l2, "tw/{app}: L2");
        assert_eq!(trace.len(), len, "tw/{app}: records");
        assert_eq!(trace.demand_len(), demand_len, "tw/{app}: demand records");
        let mut bytes = Vec::new();
        trace
            .write_to(&mut bytes)
            .expect("in-memory persist cannot fail");
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(hash, fnv, "tw/{app}: persisted bytes");
    }
}
