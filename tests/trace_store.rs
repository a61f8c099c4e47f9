//! The persistent trace store must be a pure cost optimization: a campaign
//! served from the store (record phase skipped) produces `HierarchyStats`
//! bit-identical to a fresh record across the full 10-policy parity grid,
//! and corruption is surfaced as a miss — never as silently wrong
//! statistics.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::cachesim::config::{CacheConfig, HierarchyConfig};
use grasp_suite::cachesim::trace::persist::{PersistError, StripeHash};
use grasp_suite::cachesim::trace::CHUNK_RECORDS;
use grasp_suite::core::campaign::{Campaign, CampaignResult};
use grasp_suite::core::datasets::{DatasetKind, Scale};
use grasp_suite::core::experiment::{Experiment, RecordedRun};
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::{StoreError, TraceStore, TraceStoreKey};
use grasp_suite::reorder::TechniqueKind;
use std::path::PathBuf;
use std::sync::Arc;

const SCALE: Scale = Scale::Tiny;

/// The full policy roster of the evaluation (paper schemes and GRASP's
/// ablations) — the same grid `tests/replay_parity.rs` pins.
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

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grasp-store-itest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn grid_campaign() -> Campaign {
    Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter])
        .apps(&[AppKind::PageRank])
        .policies(&FULL_GRID)
        .threads(4)
}

fn assert_bit_identical(fresh: &CampaignResult, stored: &CampaignResult, what: &str) {
    assert_eq!(fresh.len(), stored.len(), "{what}: grid size");
    for (a, b) in fresh.iter().zip(stored.iter()) {
        assert_eq!(a.cell, b.cell, "{what}");
        assert_eq!(
            a.result.stats, b.result.stats,
            "{what}: {}/{}/{} diverged from the fresh record",
            a.cell.dataset, a.cell.app, a.cell.policy
        );
        assert_eq!(
            a.result.app.values, b.result.app.values,
            "{what}: app output diverged"
        );
        assert!(
            (a.result.cycles - b.result.cycles).abs() < 1e-12,
            "{what}: timing model diverged"
        );
    }
}

#[test]
fn store_hit_campaign_is_bit_identical_across_the_full_policy_grid() {
    let dir = temp_store_dir("grid");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));

    // Baseline: no store involved at all.
    let fresh = grid_campaign().run();

    // Cold run: every stream misses, gets recorded, and is published.
    let cold = grid_campaign().with_trace_store(Arc::clone(&store)).run();
    assert_bit_identical(&fresh, &cold, "cold store run");
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "cold store cannot hit");
    assert_eq!(stats.misses, 1, "one unique stream misses once");
    assert!(stats.bytes_written > 0);

    // Warm run: the record phase is skipped.
    let warm = grid_campaign().with_trace_store(Arc::clone(&store)).run();
    assert_bit_identical(&fresh, &warm, "warm run");
    let stats = store.stats();
    assert_eq!(stats.hits, 1, "warm run must be served by the store");
    assert_eq!(stats.misses, 1, "warm runs must not re-record");
    assert!(stats.bytes_read > 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn probe_classifies_without_reading() {
    // The scheduler plans a stream's obtain task from `TraceStore::probe`:
    // a miss probes false, a published entry probes true — and probing
    // never moves the traffic counters (it is a plan, not a load).
    let dir = temp_store_dir("probe");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let campaign = grid_campaign().with_trace_store(Arc::clone(&store));
    let cold = campaign.run();
    assert_eq!(
        cold.scheduler_events()
            .iter()
            .filter(|e| matches!(
                e,
                grasp_suite::core::campaign::SchedulerEvent::LoadStarted { .. }
            ))
            .count(),
        0,
        "an empty store must classify obtains as records"
    );
    let before = store.stats();
    let warm = campaign.run();
    assert_eq!(
        warm.scheduler_events()
            .iter()
            .filter(|e| matches!(
                e,
                grasp_suite::core::campaign::SchedulerEvent::LoadFinished { hit: true, .. }
            ))
            .count(),
        1,
        "a published entry must classify as a load and hit"
    );
    assert_eq!(
        store.stats().hits,
        before.hits + 1,
        "the load itself still counts traffic"
    );
    assert_bit_identical(&cold, &warm, "probe-planned warm run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_reuse_spans_processes_via_a_fresh_handle() {
    // A second `TraceStore::open` of the same directory models a later
    // process (campaign run in a new CI job with a restored cache): it must
    // hit entries published by the first handle.
    let dir = temp_store_dir("fresh-handle");
    let first = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let fresh = grid_campaign().run();
    let _ = grid_campaign().with_trace_store(first).run();

    let second = Arc::new(TraceStore::open(&dir).expect("store reopens"));
    let warm = grid_campaign().with_trace_store(Arc::clone(&second)).run();
    assert_bit_identical(&fresh, &warm, "fresh-handle warm run");
    let stats = second.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_stream_grids_key_streams_independently() {
    let dir = temp_store_dir("multi");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let campaign = || {
        Campaign::new(SCALE)
            .datasets(&[DatasetKind::Twitter, DatasetKind::Kron])
            .apps(&[AppKind::PageRank, AppKind::Sssp])
            .policies(&[PolicyKind::Rrip, PolicyKind::Grasp])
            .threads(2)
    };
    let fresh = campaign().run();
    let cold = campaign().with_trace_store(Arc::clone(&store)).run();
    assert_bit_identical(&fresh, &cold, "multi-stream cold");
    assert_eq!(store.stats().misses, 4, "2 datasets x 2 apps = 4 streams");
    let warm = campaign().with_trace_store(Arc::clone(&store)).run();
    assert_bit_identical(&fresh, &warm, "multi-stream warm");
    assert_eq!(store.stats().hits, 4);
    assert_eq!(store.stats().misses, 4, "no re-records on the warm run");
    std::fs::remove_dir_all(&dir).ok();
}

/// The store key of the tw x DBG x `app` stream under `hierarchy`.
fn stream_key(app: AppKind, hierarchy: &HierarchyConfig) -> TraceStoreKey {
    TraceStoreKey::new(
        DatasetKind::Twitter,
        SCALE,
        TechniqueKind::Dbg,
        app,
        hierarchy,
        &Experiment::traced_app_config(app),
    )
}

/// The tw x DBG x `app` experiment under `hierarchy`.
fn experiment(app: AppKind, hierarchy: HierarchyConfig) -> Experiment {
    Experiment::new(DatasetKind::Twitter.build(SCALE).graph, app)
        .with_hierarchy(hierarchy)
        .with_reordering(TechniqueKind::Dbg)
}

#[test]
fn hierarchy_changes_never_reuse_a_stale_entry() {
    // Same grid coordinate, different L2: the config hash must fork the
    // key, so the store misses instead of serving the stream the scale's
    // hierarchy recorded, which is not the stream the bigger L2 passes on.
    let dir = temp_store_dir("config-fork");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let _ = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter])
        .apps(&[AppKind::PageRank])
        .policies(&[PolicyKind::Grasp])
        .with_trace_store(Arc::clone(&store))
        .run();
    assert_eq!(store.stats().misses, 1);

    let tiny = SCALE.hierarchy();
    let bigger = HierarchyConfig {
        l2: CacheConfig::new(2 * tiny.l2.size_bytes, tiny.l2.ways, tiny.l2.block_bytes),
        ..tiny
    };
    assert!(store.probe(&stream_key(AppKind::PageRank, &tiny)));
    assert!(
        store
            .load(&stream_key(AppKind::PageRank, &bigger))
            .is_none(),
        "a different hierarchy must never hit"
    );
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
    let stale = experiment(AppKind::PageRank, tiny).record();
    let fresh = experiment(AppKind::PageRank, bigger).record();
    assert!(stale.trace() != fresh.trace(), "the L2 shapes the stream");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_entry_serves_every_llc_geometry_and_latency() {
    // A stream is keyed by what shapes it — the LLC does not — so the
    // entry a campaign at the scale's hierarchy published serves twice the
    // LLC, and replayed there it equals that hierarchy's direct simulation,
    // cycle bits included.
    let dir = temp_store_dir("llc-sweep");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let apps = [AppKind::PageRank, AppKind::PageRankDelta];
    let policies = [PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp];
    let _ = Campaign::new(SCALE)
        .datasets(&[DatasetKind::Twitter])
        .apps(&apps)
        .policies(&policies)
        .threads(2)
        .with_trace_store(Arc::clone(&store))
        .run();
    assert_eq!(store.stats().misses, 2, "the populating pass records");
    let written = store.stats().bytes_written;

    let tiny = SCALE.hierarchy();
    let wide = HierarchyConfig {
        llc: CacheConfig::new(2 * tiny.llc.size_bytes, tiny.llc.ways, tiny.llc.block_bytes),
        ..tiny
    };
    for app in apps {
        let stored = store
            .load(&stream_key(app, &wide))
            .expect("the entry serves the new LLC");
        let served =
            RecordedRun::from_parts(stored.trace, stored.app, stored.instructions, wide.llc);
        let direct = experiment(app, wide);
        for policy in policies {
            let (a, b) = (direct.run(policy), served.replay(policy));
            assert_eq!(a.stats, b.stats, "{app}/{policy}: 2x LLC");
            assert_eq!(a.app.values, b.app.values, "{app}/{policy}");
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "{app}/{policy}");
        }
    }
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (2, 2), "both streams served");
    assert_eq!(
        stats.bytes_written, written,
        "nothing recorded at the new LLC"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Where an entry's persisted trace block starts: past the 24-byte entry
/// header and the metadata block whose length it declares.
fn trace_block_offset(entry: &[u8]) -> usize {
    24 + u32::from_le_bytes(entry[12..16].try_into().unwrap()) as usize
}

#[test]
fn leftovers_of_an_older_build_do_not_disturb_a_store() {
    // What a store last written before the v2 format (and before mtimes
    // were the LRU stamps) still holds: a `.v1.trace` file and an
    // `index.tsv`. The file is listed and reported, never looked up; the
    // campaign records and publishes beside it; `gc` drops the index.
    let dir = temp_store_dir("leftovers");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let fresh = grid_campaign().run();
    let campaign = || grid_campaign().with_trace_store(Arc::clone(&store));
    let _ = campaign().run();
    let entry = store.entries().expect("entries").remove(0);
    let mut bytes = std::fs::read(dir.join(&entry.file)).expect("read entry");
    let version_at = trace_block_offset(&bytes) + 8;
    bytes[version_at..version_at + 4].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(dir.join("foo.v1.trace"), &bytes).expect("write the v1 file");
    std::fs::remove_file(dir.join(&entry.file)).expect("remove the current entry");
    std::fs::write(dir.join("index.tsv"), "foo.v1.trace\t1\t1\n").expect("write the index");

    let listed = store.entries().expect("entries");
    assert_eq!(listed.len(), 1, "the index is not an entry");
    assert_eq!(listed[0].file, "foo.v1.trace");
    let verify = store.verify().expect("verify");
    assert!(matches!(
        verify.as_slice(),
        [(file, Err(StoreError::Trace(PersistError::UnsupportedVersion(1))))]
            if file == "foo.v1.trace"
    ));

    let rerun = campaign().run();
    assert_bit_identical(&fresh, &rerun, "run over a store of leftovers");
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a v1 file must not serve a lookup");
    assert_eq!(stats.misses, 2, "the populating pass and the re-record");
    assert_eq!(stats.corrupt, 0, "never looked up, so never misread");
    let files: Vec<String> = store
        .entries()
        .expect("entries")
        .into_iter()
        .map(|e| e.file)
        .collect();
    assert_eq!(files, [entry.file.as_str(), "foo.v1.trace"], "MRU first");

    let report = store.gc(u64::MAX).expect("gc");
    assert!(report.evicted.is_empty());
    assert!(!dir.join("index.tsv").exists(), "gc removes the old index");
    let warm = campaign().run();
    assert_bit_identical(&fresh, &warm, "warm run beside the v1 file");
    assert_eq!(store.stats().hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Populates a store, applies `damage` to the bytes of every entry, and
/// checks what a damaged store owes its campaigns: the damage is detected
/// and counted, the cells come from a fresh recording bit-identically, and
/// that recording overwrote the bad entry.
fn assert_recovers_from(tag: &str, damage: impl Fn(&mut Vec<u8>)) {
    let dir = temp_store_dir(tag);
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let campaign = || grid_campaign().with_trace_store(Arc::clone(&store));
    let fresh = grid_campaign().run();
    let _ = campaign().run();

    for entry in store.entries().expect("entries") {
        let path = dir.join(&entry.file);
        let mut bytes = std::fs::read(&path).expect("read entry");
        damage(&mut bytes);
        std::fs::write(&path, &bytes).expect("write damaged");
    }

    let recovered = campaign().run();
    assert_bit_identical(&fresh, &recovered, "damaged-entry recovery");
    let stats = store.stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.corrupt, 1, "the damaged entry must be detected");
    assert_eq!(stats.misses, 2);

    // The fresh recording overwrote the damaged entry: verify passes and
    // the next run hits again.
    assert!(store
        .verify()
        .expect("verify")
        .iter()
        .all(|(_, outcome)| outcome.is_ok()));
    let warm = campaign().run();
    assert_bit_identical(&fresh, &warm, "post-recovery warm run");
    assert_eq!(store.stats().hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_entries_fall_back_to_fresh_recording() {
    // A flipped byte under a stale checksum.
    assert_recovers_from("corrupt", |bytes| {
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0xFF;
    });
}

#[test]
fn forged_entries_with_recomputed_checksums_fall_back_to_fresh_recording() {
    // A metadata word no recorder writes (region index 7), in an entry whose
    // trace checksum was recomputed to match: nothing but the loader's own
    // validation of the word stands between this file and a replay worker.
    assert_recovers_from("forged", |bytes| {
        let at = trace_block_offset(bytes);
        let block = &mut bytes[at..]; // the persisted trace
        let records = u64::from_le_bytes(block[16..24].try_into().unwrap()) as usize;
        assert!(records <= CHUNK_RECORDS, "one chunk: one frame");
        let context_len = u32::from_le_bytes(block[32..36].try_into().unwrap()) as usize;
        // The frame: its u32 length, one address varint per record, the
        // dictionary length varint, then the dictionary's first word — whose
        // low byte holds the region bits.
        let mut pos = 48 + context_len + 4;
        for _ in 0..records + 1 {
            while block[pos] & 0x80 != 0 {
                pos += 1;
            }
            pos += 1;
        }
        block[pos] |= 0b111 << 3;
        block[40..48].fill(0);
        let checksum = StripeHash::digest(block);
        block[40..48].copy_from_slice(&checksum.to_le_bytes());
    });
}
