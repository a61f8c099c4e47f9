//! Micro-benchmark of the record/replay pipeline: policy sweeps on one
//! (dataset, reordering, application) cell, comparing two ways to get them:
//!
//! 1. **direct** — re-execute the application and re-simulate L1/L2 for
//!    every policy;
//! 2. **replay** — record the post-L2 stream once ([`Experiment::record`]),
//!    then replay the finished buffer per policy.
//!
//! How well a whole *campaign* schedules those records and replays is not
//! measured here: `campaign.sched_efficiency` / `campaign.residual_s` on the
//! `pipeline` ledger (`perfbench/`) are the measure for that, with
//! repetitions and spread.
//!
//! The sweeps run under two hierarchies: the paper's Table VI geometry
//! (`paper`), where the 32 KiB L1 filters most traffic, and the
//! reproduction's scaled-down geometry (`scaled`), whose deliberately tiny
//! 4 KiB L1 passes an unusually large share of the stream through to the
//! LLC.
//!
//! A second section isolates the **replay kernel**: the same 8-policy
//! sweep over the already-recorded stream, per-event feed (decode one
//! event, dispatch it through the stage's per-event methods) vs the
//! chunk-native feed (flush splitting, each flush-free run handed as raw
//! columns to one inlined loop per policy, statistics folded in once per
//! run), asserted bit-identical. Acceptance bar: batched ≥ 1.5x.
//!
//! A third section exercises the **persistent trace store**: cold = record
//! the stream and persist it (plus the 8-policy fan-out), warm = load the
//! entry back — the record phase skipped entirely — and run the same
//! fan-out. Warm results are asserted bit-identical to both the cold record
//! and the direct path; the speed-up is reported (the warm pass saves the
//! whole application + L1/L2 simulation). Store entries are published with
//! the default codec (v2 delta+varint), so the entry-bytes column tracks the
//! compressed format.
//!
//! A fourth section measures **trace compression** (format v2): the
//! recorded stream is persisted delta+varint (v2) and its bytes/record
//! compared with the 12 B/record the retired raw format (v1) spent — the
//! ratio is fully deterministic — plus the encode/decode wall-clock (the
//! warm-path overhead the compression must not squander). The encoding is
//! asserted to load back equal to the in-memory trace.
//!
//! Acceptance bar, with bit-identical statistics asserted per cell: replay
//! ≥ 3x over direct on the paper-scale 8-policy sweep (reported, not
//! enforced, under `GRASP_BENCH_NO_SPEEDUP_BARS=1`, which CI's trajectory
//! job sets for shared runners).

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dataset, dump_json, harness_scale};
use grasp_cachesim::config::HierarchyConfig;
use grasp_cachesim::LlcTrace;
use grasp_core::datasets::DatasetKind;
use grasp_core::experiment::Experiment;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_core::trace_store::{TraceStore, TraceStoreKey};
use grasp_reorder::TechniqueKind;
use std::time::Instant;

/// Median wall time of three runs of `f` — single-shot fan-out timings on a
/// shared host swing far too much to compare two paths whose real gap is
/// tens of percent. No warm-up run: both sides of every comparison replay
/// the same buffered trace, so neither gets a cold-cache handicap.
fn median_time<F: FnMut()>(mut f: F) -> std::time::Duration {
    let mut times: Vec<_> = (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[1]
}

const SWEEP: [PolicyKind; 8] = [
    PolicyKind::Lru,
    PolicyKind::Srrip,
    PolicyKind::Rrip,
    PolicyKind::ShipMem,
    PolicyKind::Hawkeye,
    PolicyKind::Leeway,
    PolicyKind::Pin(75),
    PolicyKind::Grasp,
];

fn main() {
    banner("micro: direct vs record-once / replay-many policy sweeps on one cell");
    let scale = harness_scale();
    let ds = dataset(DatasetKind::Twitter, scale);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = Table::new(
        "Record-once / replay-many vs direct (8-policy sweep, one cell)",
        &[
            "hierarchy",
            "direct ms",
            "replay ms",
            "speed-up",
            "trace records",
        ],
    );
    let mut batched_table = Table::new(
        "Batched replay: chunk-native kernel vs per-event feed (8-policy fan-out)",
        &["hierarchy", "per-event ms", "batched ms", "speed-up"],
    );
    let mut store_table = Table::new(
        "Trace store: cold (record + persist) vs warm (load + replay, record skipped)",
        &["hierarchy", "cold ms", "warm ms", "speed-up", "entry bytes"],
    );
    let mut compression_table = Table::new(
        "Trace compression: raw (v1) vs delta+varint (v2)",
        &[
            "hierarchy",
            "raw B/rec",
            "v2 B/rec",
            "ratio",
            "encode ms",
            "decode ms",
        ],
    );
    let store_dir =
        std::env::temp_dir().join(format!("grasp-micro-replay-store-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let store = TraceStore::open(&store_dir).expect("bench trace store opens");
    let mut paper_speedup = 0.0;
    let mut paper_batched_speedup = 0.0;
    for (label, hierarchy) in [
        ("paper (Table VI)", HierarchyConfig::paper_scale()),
        ("scaled", scale.hierarchy()),
    ] {
        let exp = Experiment::new(ds.graph.clone(), AppKind::PageRank)
            .with_hierarchy(hierarchy)
            .with_reordering(TechniqueKind::Dbg);

        // Warm up allocators and the graph working set once.
        let _ = exp.run(PolicyKind::Lru);

        let started = Instant::now();
        let direct: Vec<_> = SWEEP.iter().map(|&p| exp.run(p)).collect();
        let direct_time = started.elapsed();

        let started = Instant::now();
        let recorded = exp.record();
        let replayed: Vec<_> = SWEEP.iter().map(|&p| recorded.replay(p)).collect();
        let replay_time = started.elapsed();

        for (a, b) in direct.iter().zip(&replayed) {
            assert_eq!(
                a.stats, b.stats,
                "{label}/{}: replay diverged from the direct path",
                a.policy
            );
        }

        let speedup = direct_time.as_secs_f64() / replay_time.as_secs_f64().max(1e-9);
        if label.starts_with("paper") {
            paper_speedup = speedup;
        }
        table.push_row(vec![
            label.into(),
            format!("{:.1}", direct_time.as_secs_f64() * 1e3),
            format!("{:.1}", replay_time.as_secs_f64() * 1e3),
            format!("{speedup:.2}x"),
            recorded.trace().len().to_string(),
        ]);

        // The replay-kernel comparison: the same 8-policy sweep over the
        // already-recorded stream, once through the per-event scalar path
        // (decode + dispatch per record) and once through the chunk-native
        // feed (flush splitting, each run's raw columns through one inlined
        // loop per policy). Record time is excluded: the kernel's job is
        // exactly the replay sweep. Both sides take the
        // median of three runs — single-shot fan-out timings swing by tens
        // of percent on a loaded host.
        let mut scalar_fanout = Vec::new();
        let scalar_time = median_time(|| {
            scalar_fanout = SWEEP.iter().map(|&p| recorded.replay_scalar(p)).collect();
        });

        let mut batched_fanout = Vec::new();
        let batched_time = median_time(|| {
            batched_fanout = recorded.replay_fanout(&SWEEP);
        });

        for (a, b) in scalar_fanout.iter().zip(&batched_fanout) {
            assert_eq!(
                a.stats, b.stats,
                "{label}/{}: batched replay diverged from the per-event path",
                a.policy
            );
        }

        let batched_speedup = scalar_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-9);
        if label.starts_with("paper") {
            paper_batched_speedup = batched_speedup;
        }
        batched_table.push_row(vec![
            label.into(),
            format!("{:.1}", scalar_time.as_secs_f64() * 1e3),
            format!("{:.1}", batched_time.as_secs_f64() * 1e3),
            format!("{batched_speedup:.2}x"),
        ]);

        // The trace-store comparison: cold = record the stream (application
        // + upper levels) + persist it + fan out the sweep; warm = load the
        // persisted entry — the record phase skipped entirely — and fan out
        // the same sweep. Keys fork on the hierarchy hash, so the paper and
        // scaled geometries land in separate entries.
        let key = TraceStoreKey::new(
            DatasetKind::Twitter,
            scale,
            TechniqueKind::Dbg,
            AppKind::PageRank,
            exp.hierarchy(),
            exp.app_config(),
        );
        let started = Instant::now();
        let cold_recorded = exp.record();
        let entry_bytes = store
            .publish(
                &key,
                cold_recorded.trace(),
                cold_recorded.app(),
                cold_recorded.instructions(),
            )
            .expect("bench store publish");
        let cold: Vec<_> = SWEEP.iter().map(|&p| cold_recorded.replay(p)).collect();
        let cold_time = started.elapsed();

        let started = Instant::now();
        let stored = store.load(&key).expect("warm store lookup must hit");
        let warm_recorded = exp.recorded_from_parts(stored.trace, stored.app, stored.instructions);
        let warm: Vec<_> = SWEEP.iter().map(|&p| warm_recorded.replay(p)).collect();
        let warm_time = started.elapsed();

        for ((a, b), c) in cold.iter().zip(&warm).zip(&direct) {
            assert_eq!(
                a.stats, b.stats,
                "{label}/{}: store-loaded replay diverged from the cold record",
                a.policy
            );
            assert_eq!(
                a.stats, c.stats,
                "{label}/{}: store pipeline diverged from the direct path",
                a.policy
            );
        }

        let store_speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
        store_table.push_row(vec![
            label.into(),
            format!("{:.1}", cold_time.as_secs_f64() * 1e3),
            format!("{:.1}", warm_time.as_secs_f64() * 1e3),
            format!("{store_speedup:.2}x"),
            entry_bytes.to_string(),
        ]);

        // The compression comparison: persist the recorded stream and
        // compare its bytes/record with the 12 B/record of the raw column
        // pages format v1 wrote, and time the encode and the decode (the
        // price the warm path pays for the smaller store).
        let trace = recorded.trace();
        let records = trace.len().max(1) as f64;
        let raw_bytes = 12.0 * records;
        let started = Instant::now();
        let mut v2_bytes = Vec::new();
        trace.write_to(&mut v2_bytes).expect("delta-varint encode");
        let encode_time = started.elapsed();
        let started = Instant::now();
        let v2_loaded = LlcTrace::read_from(&mut v2_bytes.as_slice()).expect("v2 decode");
        let decode_time = started.elapsed();
        assert_eq!(&v2_loaded, trace, "{label}: v2 roundtrip diverged");
        let ratio = raw_bytes / v2_bytes.len().max(1) as f64;
        compression_table.push_row(vec![
            label.into(),
            format!("{:.2}", raw_bytes / records),
            format!("{:.2}", v2_bytes.len() as f64 / records),
            format!("{ratio:.2}x"),
            format!("{:.1}", encode_time.as_secs_f64() * 1e3),
            format!("{:.1}", decode_time.as_secs_f64() * 1e3),
        ]);
        assert!(
            ratio >= 2.5,
            "{label}: v2 compression {ratio:.2}x fell below the 2.5x bar on the recorded stream"
        );
    }
    let store_stats = store.stats();
    assert_eq!(
        store_stats.hits, 2,
        "both hierarchies' warm passes must be served from the store"
    );
    std::fs::remove_dir_all(&store_dir).ok();
    println!("{table}");
    println!("{batched_table}");
    println!("{store_table}");
    println!("{compression_table}");
    println!("trace store traffic: {store_stats}");
    println!(
        "stats bit-identical across all {} policies on both hierarchies",
        SWEEP.len()
    );
    // GRASP_BENCH_NO_SPEEDUP_BARS demotes the speed-up bars to reports: CI's
    // bench-trajectory job sets it because shared runners make hard perf
    // asserts flaky, and that job's gate is the table diff, not the bars.
    let enforce_bars = std::env::var_os("GRASP_BENCH_NO_SPEEDUP_BARS").is_none();
    if enforce_bars {
        assert!(
            paper_speedup >= 3.0,
            "paper-scale pipeline speed-up {paper_speedup:.2}x fell below the 3x acceptance bar"
        );
    } else {
        println!("buffered-replay bar (>=3x) reported only: measured {paper_speedup:.2}x");
    }
    // The batched-kernel bar is enforced only on a multi-core box: single-core
    // shared runners (CI's trajectory box) time too noisily for a
    // hard perf assert, so the bar is enforced only where a dedicated
    // multi-core box makes the measurement stable.
    if enforce_bars && workers >= 4 {
        assert!(
            paper_batched_speedup >= 1.5,
            "paper-scale batched replay speed-up {paper_batched_speedup:.2}x fell below \
             the 1.5x acceptance bar over the per-event feed"
        );
    } else {
        println!(
            "batched-replay bar (>=1.5x vs per-event feed, measured \
             {paper_batched_speedup:.2}x) {}: needs >=4 hardware threads and enforcement \
             enabled ({workers} worker(s))",
            if enforce_bars {
                "skipped"
            } else {
                "reported only"
            }
        );
    }
    dump_json(
        "micro_replay",
        &[&table, &batched_table, &store_table, &compression_table],
    );
}
