//! The campaign scheduler must be a pure wall-clock optimization:
//! bit-identical to serial `Experiment::run` for arbitrary grids, worker
//! counts and trace-store configurations, always in deterministic grid
//! order — and actually barrier-free, which the scheduler event log proves
//! (replays of early streams finish before the last stream starts
//! recording). A worker that unwinds must take the whole run down with it
//! instead of leaving its siblings parked.
//!
//! CI runs this suite at several forced worker counts (oversubscribed on
//! the 1-core container) via `GRASP_SCHED_WORKERS`; the fixed tests honour
//! it, the property tests sweep worker counts themselves.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::core::campaign::{Campaign, SchedulerEvent};
use grasp_suite::core::datasets::{DatasetId, DatasetKind, Scale};
use grasp_suite::core::experiment::Experiment;
use grasp_suite::core::flight::FlightRegistry;
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::TraceStore;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

const SCALE: Scale = Scale::Tiny;

/// Roster the property tests draw datasets from (kept small: every case
/// regenerates and reorders its datasets).
const DATASETS: [DatasetKind; 3] = [
    DatasetKind::Twitter,
    DatasetKind::Kron,
    DatasetKind::Uniform,
];

/// Roster the property tests draw applications from.
const APPS: [AppKind; 3] = [AppKind::PageRank, AppKind::Sssp, AppKind::PageRankDelta];

/// Roster the property tests draw policy windows from (a slice of the full
/// 13-policy grid `tests/replay_parity.rs` pins; windows keep case cost
/// proportional to the drawn policy count).
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Lru,
    PolicyKind::Rrip,
    PolicyKind::ShipMem,
    PolicyKind::Hawkeye,
    PolicyKind::Pin(75),
    PolicyKind::Grasp,
];

/// The worker count CI forces via `GRASP_SCHED_WORKERS`, when set.
fn forced_workers() -> Option<usize> {
    std::env::var("GRASP_SCHED_WORKERS").ok()?.parse().ok()
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grasp-sched-itest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The serial reference: one independent `Experiment::run` per cell.
fn serial_reference(campaign: &Campaign) -> Vec<grasp_suite::core::experiment::RunResult> {
    campaign
        .cells()
        .iter()
        .map(|cell| {
            let DatasetId::Synthetic(kind) = cell.dataset else {
                panic!("synthetic axis");
            };
            let dataset = kind.build(SCALE);
            Experiment::new(dataset.graph, cell.app)
                .with_hierarchy(SCALE.hierarchy())
                .with_reordering(cell.technique)
                .run(cell.policy)
        })
        .collect()
}

/// Asserts one campaign run is bit-identical to the serial reference and in
/// deterministic grid order.
fn assert_matches_serial(campaign: &Campaign, what: &str) -> Result<(), TestCaseError> {
    let expected_cells = campaign.cells();
    let reference = serial_reference(campaign);
    let results = campaign.run();
    prop_assert_eq!(results.len(), expected_cells.len(), "{}: grid size", what);
    for ((run, cell), serial) in results.iter().zip(&expected_cells).zip(&reference) {
        prop_assert_eq!(&run.cell, cell, "{}: grid order", what);
        prop_assert_eq!(
            &run.result.stats,
            &serial.stats,
            "{}: {}/{}/{} diverged from serial",
            what,
            cell.dataset,
            cell.app,
            cell.policy
        );
        prop_assert_eq!(
            &run.result.app.values,
            &serial.app.values,
            "{}: app output diverged",
            what
        );
        prop_assert!(
            (run.result.cycles - serial.cycles).abs() < 1e-9,
            "{}: timing model diverged",
            what
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipelined_grids_match_serial_runs_for_any_worker_count(
        case in (
            (1usize..4, 1usize..4),      // dataset count, app count
            (0usize..6, 1usize..5),      // policy window offset, width
            1usize..9,                   // worker count
            proptest::bool::ANY,         // trace store attached?
        )
    ) {
        let ((n_datasets, n_apps), (policy_at, n_policies), workers, with_store) = case;
        let policy_at = policy_at.min(POLICIES.len() - 1);
        let policies = &POLICIES[policy_at..(policy_at + n_policies).min(POLICIES.len())];
        let mut campaign = Campaign::new(SCALE)
            .datasets(&DATASETS[..n_datasets])
            .apps(&APPS[..n_apps])
            .policies(policies)
            .threads(workers);
        let mut store_dir = None;
        if with_store {
            let dir = temp_store_dir(&format!("prop-{n_datasets}{n_apps}{policy_at}{n_policies}{workers}"));
            let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
            campaign = campaign.with_trace_store(store);
            store_dir = Some(dir);
        }
        // Cold run records (and publishes when a store is attached).
        assert_matches_serial(&campaign, "pipelined cold")?;
        if with_store {
            // Warm run: every obtain task is a store load, overlapping the
            // replays exactly like records do.
            assert_matches_serial(&campaign, "pipelined warm")?;
        }
        if let Some(dir) = store_dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The acceptance property of the scheduler: no record→replay barrier. On a
/// ≥ 8-stream grid with several workers, replays of early streams must
/// *finish* before the last stream's record *starts* — under a two-phase
/// plan every replay would necessarily follow every record.
#[test]
fn replays_finish_before_the_last_record_starts() {
    let workers = forced_workers().unwrap_or(4).max(2);
    let campaign = Campaign::new(SCALE)
        .datasets(&[
            DatasetKind::Twitter,
            DatasetKind::Kron,
            DatasetKind::Uniform,
            DatasetKind::LiveJournal,
        ])
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&[PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp])
        .threads(workers);
    // 4 datasets × 1 technique × 2 apps = 8 unique streams.
    let results = campaign.run();

    let events = results.scheduler_events();
    let last_record_started = events
        .iter()
        .rposition(|e| matches!(e, SchedulerEvent::RecordStarted { .. }))
        .expect("a storeless campaign records every stream");
    let first_replay_finished = events
        .iter()
        .position(|e| matches!(e, SchedulerEvent::ReplayFinished { .. }))
        .expect("every cell replays");
    assert!(
        first_replay_finished < last_record_started,
        "no overlap: first ReplayFinished at {first_replay_finished}, \
         last RecordStarted at {last_record_started} (workers = {workers}, \
         events = {events:?})"
    );
}

/// With one worker, and a grid in which no task kind occurs twice (one
/// dataset: each app records once, each (app, policy) replays once), the
/// schedule depends on work sizes alone — never on a measured time — so it
/// is deterministic, and it is pinned here as the scheduler produced it
/// before its cost model costed unmeasured kinds in measured units: every
/// record first (SSSP's 64-iteration budget, then PRD, then PR), then the
/// replays, longest stream first.
#[test]
fn one_worker_single_dataset_task_order_is_pinned() {
    let result = Campaign::new(SCALE)
        .datasets(&DATASETS[..1])
        .apps(&APPS)
        .policies(&POLICIES)
        .threads(1)
        .run();
    let started: Vec<String> = result
        .scheduler_events()
        .iter()
        .filter_map(|event| match event {
            SchedulerEvent::RecordStarted { stream } => Some(format!("R{stream}")),
            SchedulerEvent::ReplayStarted { cell } => Some(cell.to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(
        started.join(" "),
        "R1 R2 R0 12 13 14 15 16 17 5 0 1 2 3 4 6 11 10 9 8 7"
    );
}

/// Grid order must be identical across worker counts — the scheduler only
/// moves wall-clock, never results or their order.
#[test]
fn grid_order_is_deterministic_across_worker_counts() {
    let base = || {
        Campaign::new(SCALE)
            .datasets(&[DatasetKind::Twitter, DatasetKind::Kron])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp])
    };
    let reference: Vec<_> = base().threads(1).run().into_runs();
    for workers in [2, 3, forced_workers().unwrap_or(7)] {
        let runs: Vec<_> = base().threads(workers).run().into_runs();
        assert_eq!(runs.len(), reference.len());
        for (a, b) in runs.iter().zip(&reference) {
            assert_eq!(a.cell, b.cell, "workers = {workers}");
            assert_eq!(a.result.stats, b.result.stats, "workers = {workers}");
        }
    }
}

/// A warm store turns every obtain task into a `Load`: the event log shows
/// loads (with hits) instead of records, and results stay bit-identical.
#[test]
fn warm_store_schedules_loads_instead_of_records() {
    let dir = temp_store_dir("warm-loads");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let campaign = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter, DatasetKind::Kron])
        .apps(&[AppKind::PageRank])
        .policies(&[PolicyKind::Lru, PolicyKind::Grasp])
        .threads(forced_workers().unwrap_or(4))
        .with_trace_store(store);

    let cold = campaign.run();
    let cold_loads = cold
        .scheduler_events()
        .iter()
        .filter(|e| matches!(e, SchedulerEvent::LoadStarted { .. }))
        .count();
    assert_eq!(cold_loads, 0, "an empty store cannot plan loads");

    let warm = campaign.run();
    let warm_records = warm
        .scheduler_events()
        .iter()
        .filter(|e| matches!(e, SchedulerEvent::RecordStarted { .. }))
        .count();
    assert_eq!(warm_records, 0, "a warm store must plan loads only");
    let hits = warm
        .scheduler_events()
        .iter()
        .filter(|e| matches!(e, SchedulerEvent::LoadFinished { hit: true, .. }))
        .count();
    assert_eq!(hits, 2, "both streams load from the store");
    for (a, b) in cold.iter().zip(warm.iter()) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.result.stats, b.result.stats, "{:?}", a.cell);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that unwinds (here: out of the per-cell observer) must abort the
/// whole run — `AbortGuard` flags the state and wakes the siblings parked in
/// `Condvar::wait`, the scope join re-raises the panic — and must leave the
/// store and the single-flight registry usable.
///
/// The observer holds the first cell it sees until every other cell has been
/// delivered and only then panics, so the panic happens with nothing left to
/// run: every sibling is parked on the condvar with one cell outstanding,
/// and no later task completion will ever wake them.
#[test]
fn a_panicking_observer_propagates_instead_of_hanging() {
    let dir = temp_store_dir("abort");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let campaign = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter, DatasetKind::Kron])
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&[PolicyKind::Lru, PolicyKind::Grasp])
        .threads(4)
        .with_trace_store(Arc::clone(&store))
        .with_single_flight(Arc::new(FlightRegistry::new()));
    let others = campaign.cells().len() - 1; // 4 streams x 2 policies

    let (outcome, landed) = mpsc::channel();
    let doomed = campaign.clone();
    let helper = std::thread::spawn(move || {
        let delivered = (Mutex::new(0usize), Condvar::new());
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            doomed.run_with_observer(&|_, _| {
                let (count, changed) = &delivered;
                let mut count = count.lock().unwrap();
                *count += 1;
                if *count > 1 {
                    changed.notify_all();
                    return;
                }
                drop(changed.wait_while(count, |count| *count <= others).unwrap());
                // The last sibling still has to fold its result in and park;
                // the run aborts correctly either way, the pause only makes
                // sure the parked-sibling case is the one exercised.
                std::thread::sleep(Duration::from_millis(100));
                panic!("observer failure injected by the test");
            })
        }));
        outcome.send(run.is_err()).ok();
    });
    let panicked = landed
        .recv_timeout(Duration::from_secs(120))
        .expect("the aborted run hung: parked workers were never released");
    assert!(panicked, "the observer's panic must reach the caller");
    helper.join().expect("helper thread exits cleanly");

    // Same campaign, same store, same registry: every stream loads.
    let fresh = campaign.run();
    let direct = campaign.run_direct();
    assert_eq!(fresh.len(), direct.len());
    for (a, b) in fresh.iter().zip(direct.iter()) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.result.stats, b.result.stats, "{:?}", a.cell);
    }
    assert_eq!(store.stats().corrupt, 0);
    std::fs::remove_dir_all(&dir).ok();
}
