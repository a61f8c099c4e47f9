//! Acceptance test for real-graph ingestion: a campaign over an ingested
//! on-disk graph keys its streams by the graph's content hash — visible in
//! the trace store's entry file names, so a re-ingested (different) graph
//! can never be served a stale trace. (That the mmap view equals the decoded
//! graph is `crates/graph/tests/ingest_properties.rs`' business.)
//!
//! Graph prep is demand-driven: a stream the trace store serves never opens
//! (or reorders) its graph, a stream that has to record opens it on the
//! worker that records — and a hash the catalog never held is still a
//! caller-thread panic at plan time, warm store or not. The memo behind
//! that is a cross-worker hand-off, so CI also runs this suite at forced
//! worker counts (`GRASP_SCHED_WORKERS`, as `tests/scheduler_parity.rs`).

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::core::campaign::{Campaign, CampaignResult, SchedulerEvent};
use grasp_suite::core::datasets::{DatasetCatalog, DatasetId, GraphHash, Scale};
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::TraceStore;
use grasp_suite::graph::ingest;
use grasp_suite::graph::EdgeList;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SCALE: Scale = Scale::Tiny;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp];

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("grasp-ingested-itest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A deterministic skewed edge list, written to disk the way a user would
/// hand the harness a real graph snapshot.
fn ingest_sample_graph(dir: &Path) -> GraphHash {
    let n: u32 = 512;
    let mut el = EdgeList::new(n as u64);
    // A hub-heavy synthetic: every vertex points at a few low-ID hubs plus a
    // ring edge, giving the skew GRASP's classification needs.
    for v in 0..n {
        el.push(v, (v + 1) % n).unwrap();
        el.push(v, v % 7).unwrap();
        el.push(v, v % 3).unwrap();
    }
    let report = ingest::ingest_edge_list(&el, dir, 4).expect("ingest succeeds");
    GraphHash(report.content_hash)
}

/// The worker count CI forces via `GRASP_SCHED_WORKERS`, when set.
fn workers() -> usize {
    std::env::var("GRASP_SCHED_WORKERS")
        .ok()
        .and_then(|workers| workers.parse().ok())
        .unwrap_or(2)
}

fn campaign(catalog: DatasetCatalog, hash: GraphHash) -> Campaign {
    Campaign::new(SCALE)
        .catalog(catalog)
        .ingested_dataset(hash)
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&POLICIES)
        .threads(workers())
}

/// A graph ingested and catalogued, and a store a five-app campaign over it
/// has populated: the starting point of every warm-store test.
struct WarmStore {
    graph_dir: PathBuf,
    store_dir: PathBuf,
    store: Arc<TraceStore>,
    catalog: DatasetCatalog,
    hash: GraphHash,
}

impl WarmStore {
    /// Returns the fixture and the cold (recording) run that populated it.
    fn populate(tag: &str) -> (Self, CampaignResult) {
        let graph_dir = temp_dir(&format!("{tag}-graph"));
        let store_dir = temp_dir(&format!("{tag}-store"));
        let hash = ingest_sample_graph(&graph_dir);
        let store = Arc::new(TraceStore::open(&store_dir).expect("store opens"));
        let mut catalog = DatasetCatalog::new();
        catalog.register(&graph_dir).expect("registers");
        let warm = Self {
            graph_dir,
            store_dir,
            store,
            catalog,
            hash,
        };
        let cold = warm.sweep(warm.catalog.clone()).run();
        assert_eq!(finished_loads(&cold), (0, 0), "the populating run");
        (warm, cold)
    }

    /// All five applications (both hotness directions) against the store.
    fn sweep(&self, catalog: DatasetCatalog) -> Campaign {
        campaign(catalog, self.hash)
            .apps(&AppKind::ALL)
            .with_trace_store(Arc::clone(&self.store))
    }
}

impl Drop for WarmStore {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.graph_dir).ok();
        std::fs::remove_dir_all(&self.store_dir).ok();
    }
}

/// `LoadFinished` census of a run: (store hits, corrupt-entry fallbacks).
fn finished_loads(result: &CampaignResult) -> (usize, usize) {
    let count = |wanted: bool| {
        result
            .scheduler_events()
            .iter()
            .filter(|e| matches!(e, SchedulerEvent::LoadFinished { hit, .. } if *hit == wanted))
            .count()
    };
    (count(true), count(false))
}

fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: grid size");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.cell, y.cell, "{what}");
        assert_eq!(
            x.result.stats, y.result.stats,
            "{what}: {}/{}/{} diverged",
            x.cell.dataset, x.cell.app, x.cell.policy
        );
        assert_eq!(
            x.result.app.values, y.result.app.values,
            "{what}: app output diverged"
        );
        assert!(
            (x.result.cycles - y.result.cycles).abs() < 1e-12,
            "{what}: timing model diverged"
        );
    }
}

#[test]
fn content_hash_lands_in_trace_store_entry_names_and_store_hits_are_identical() {
    let graph_dir = temp_dir("store-graph");
    let store_dir = temp_dir("store");
    let hash = ingest_sample_graph(&graph_dir);
    let store = Arc::new(TraceStore::open(&store_dir).expect("store opens"));

    let catalog = || {
        let mut c = DatasetCatalog::new();
        c.register(&graph_dir).unwrap();
        c
    };

    // The cold run records and publishes every stream.
    let cold = campaign(catalog(), hash)
        .with_trace_store(Arc::clone(&store))
        .run();
    assert_eq!(cold.len(), 2 * POLICIES.len());
    for run in cold.iter() {
        assert_eq!(run.cell.dataset, DatasetId::Ingested(hash));
    }

    // The graph's content hash is the dataset coordinate of every entry
    // file name (`g<hash:016x>-<scale>-<technique>-<app>-<cfg>.v<N>.trace`).
    let slug = hash.slug();
    assert_eq!(slug, format!("g{:016x}", hash.0));
    let entries: Vec<String> = std::fs::read_dir(&store_dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".trace"))
        .collect();
    assert!(!entries.is_empty(), "cold run published no entries");
    for name in &entries {
        assert!(
            name.starts_with(&format!("{slug}-")),
            "entry '{name}' does not carry the graph's content hash '{slug}'"
        );
    }

    // The warm run — served from the store — is bit-identical to the cold
    // record.
    let warm = campaign(catalog(), hash)
        .with_trace_store(Arc::clone(&store))
        .run();
    assert_bit_identical(&cold, &warm, "warm store run");
    assert!(store.stats().hits > 0, "warm run should hit the store");

    std::fs::remove_dir_all(&graph_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn a_warm_campaign_never_opens_its_graph() {
    let (warm, cold) = WarmStore::populate("graphless");
    // The catalog still names the graph, but nothing on disk backs it: any
    // attempt to open (let alone reorder) it would abort the run.
    std::fs::remove_dir_all(&warm.graph_dir).expect("graph directory deletes");

    let rerun = warm.sweep(warm.catalog.clone()).run();
    assert_eq!(finished_loads(&rerun), (AppKind::ALL.len(), 0));
    assert_bit_identical(&cold, &rerun, "warm run without the .gcsr directory");
}

#[test]
fn a_corrupt_entry_opens_the_graph_on_demand_and_republishes() {
    let (warm, cold) = WarmStore::populate("on-demand");
    let entries = warm.store.entries().expect("entries list");
    let victim = entries
        .iter()
        .find(|entry| entry.file.contains("-sssp-"))
        .expect("the SSSP stream was published");
    let path = warm.store_dir.join(&victim.file);
    let bytes = std::fs::read(&path).expect("entry reads");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("entry truncates");

    let campaign = warm.sweep(warm.catalog.clone());
    let recovered = campaign.run();
    // Exactly the truncated stream fell back to recording — which is what
    // pulled the graph in; the other four were served graph-free.
    let sssp = AppKind::ALL
        .iter()
        .position(|&app| app == AppKind::Sssp)
        .expect("SSSP is on the axis");
    assert_eq!(finished_loads(&recovered), (AppKind::ALL.len() - 1, 1));
    assert!(recovered
        .scheduler_events()
        .contains(&SchedulerEvent::LoadFinished {
            stream: sssp,
            hit: false
        }));
    assert_bit_identical(
        &campaign.run_direct(),
        &recovered,
        "on-demand record vs oracle",
    );
    assert_bit_identical(&cold, &recovered, "on-demand record vs cold run");

    // The fallback republished the entry: the next run is all hits again.
    let rewarmed = warm.sweep(warm.catalog.clone()).run();
    assert_eq!(finished_loads(&rewarmed), (AppKind::ALL.len(), 0));
    assert_bit_identical(&cold, &rewarmed, "post-republish warm run");
}

#[test]
#[should_panic(expected = "cannot open ingested dataset")]
fn an_unregistered_hash_panics_on_the_caller_even_with_a_warm_store() {
    let (warm, _) = WarmStore::populate("unregistered");
    // Every stream of this grid is in the store, so no worker would ever
    // miss the graph — the plan must. (A worker abort would surface as the
    // scope's "a scoped thread panicked", not as this message.)
    let _ = warm.sweep(DatasetCatalog::new()).run();
}
