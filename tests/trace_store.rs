//! The persistent trace store must be a pure cost optimization: a campaign
//! served from the store (record phase skipped) produces `HierarchyStats`
//! bit-identical to a fresh record across the full 13-policy parity grid,
//! and corruption is surfaced as a miss — never as silently wrong
//! statistics.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::cachesim::trace::persist::Fnv64;
use grasp_suite::cachesim::trace::{LlcTrace, CHUNK_RECORDS};
use grasp_suite::core::campaign::{Campaign, CampaignResult};
use grasp_suite::core::datasets::{DatasetKind, Scale};
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::TraceStore;
use std::path::PathBuf;
use std::sync::Arc;

include!("../crates/cachesim/tests/support/v1_fixture.rs");

const SCALE: Scale = Scale::Tiny;

/// The full policy roster of the evaluation (paper schemes, ablations and
/// sanity baselines) — the same grid `tests/replay_parity.rs` pins.
const FULL_GRID: [PolicyKind; 13] = [
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Srrip,
    PolicyKind::Brrip,
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

#[test]
fn hierarchy_changes_never_reuse_a_stale_entry() {
    // Same grid coordinate, different LLC size: the config hash must fork
    // the key, so the second campaign records freshly instead of replaying
    // the wrong stream.
    let dir = temp_store_dir("config-fork");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let base = || {
        Campaign::new(SCALE)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Grasp])
    };
    let _ = base().with_trace_store(Arc::clone(&store)).run();
    assert_eq!(store.stats().misses, 1);

    let bigger = Scale::Small.hierarchy();
    let fresh = base().hierarchy(bigger).run();
    let stored = base()
        .hierarchy(bigger)
        .with_trace_store(Arc::clone(&store))
        .run();
    assert_bit_identical(&fresh, &stored, "changed-hierarchy run");
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a different hierarchy must never hit");
    assert_eq!(stats.misses, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Where an entry's persisted trace block starts: past the 24-byte entry
/// header and the metadata block whose length it declares.
fn trace_block_offset(entry: &[u8]) -> usize {
    24 + u32::from_le_bytes(entry[12..16].try_into().unwrap()) as usize
}

/// `entry` with its trace block re-encoded in format v1, as a store written
/// before the v2 format holds it.
fn entry_as_v1(entry: &[u8]) -> Vec<u8> {
    let (wrapper, block) = entry.split_at(trace_block_offset(entry));
    let trace = LlcTrace::read_from(&mut &block[..]).expect("entry decodes");
    [wrapper, &v1_trace_bytes(&trace)].concat()
}

/// Turns `store` into one written before the v2 format: every entry a v1
/// entry under its `.v1.trace` name.
fn downgrade_to_v1(store: &TraceStore) {
    for entry in store.entries().expect("entries") {
        let path = store.dir().join(&entry.file);
        let v1 = entry_as_v1(&std::fs::read(&path).expect("read entry"));
        let v1_name = entry.file.replace(".v2.trace", ".v1.trace");
        std::fs::write(store.dir().join(v1_name), v1).expect("write v1 entry");
        std::fs::remove_file(path).expect("remove v2 entry");
    }
}

#[test]
fn a_v1_only_store_is_cold_until_recompressed() {
    // A store populated before the v2 format holds raw `.v1.trace` entries.
    // Campaigns look up `.v2.trace` names only, so such a store is cold —
    // the stream is re-recorded, bit-identically — until `recompress`
    // migrates it; the re-record's v2 entry and the v1 original then name
    // the same stream and deduplicate to one.
    let dir = temp_store_dir("v1-only");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let fresh = grid_campaign().run();
    let campaign = || grid_campaign().with_trace_store(Arc::clone(&store));
    let _ = campaign().run();
    downgrade_to_v1(&store);

    let rerun = campaign().run();
    assert_bit_identical(&fresh, &rerun, "run over a v1-only store");
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a v1 entry must not serve a lookup");
    assert_eq!(stats.misses, 2, "the populating pass and the re-record");
    assert_eq!(stats.corrupt, 0);
    assert_eq!(store.entries().expect("entries").len(), 2);

    let report = store.recompress().expect("recompress");
    assert_eq!(report.converted.len(), 1);
    assert!(report.failed.is_empty());
    let entries = store.entries().expect("entries");
    assert_eq!(entries.len(), 1, "one stream, one entry");
    assert!(
        entries[0].file.ends_with(".v2.trace"),
        "{}",
        entries[0].file
    );
    let warm = campaign().run();
    assert_bit_identical(&fresh, &warm, "warm run after the migration");
    assert_eq!(store.stats().hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recompress_migration_shrinks_the_store_and_keeps_serving_hits() {
    let dir = temp_store_dir("recompress");
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let fresh = grid_campaign().run();
    let campaign = || grid_campaign().with_trace_store(Arc::clone(&store));

    // A store written before the v2 format, migrated in place.
    let _ = campaign().run();
    downgrade_to_v1(&store);
    let before: u64 = store
        .entries()
        .expect("entries")
        .iter()
        .map(|e| e.bytes)
        .sum();
    let report = store.recompress().expect("recompress");
    assert_eq!(report.converted.len(), 1);
    assert!(report.failed.is_empty());
    let after: u64 = store
        .entries()
        .expect("entries")
        .iter()
        .map(|e| e.bytes)
        .sum();
    assert!(
        after * 2 < before,
        "migration must at least halve the paper-workload store: {before} -> {after}"
    );
    let entries = store.entries().expect("entries");
    assert_eq!(entries.len(), 1);
    assert!(
        entries[0].file.ends_with(".v2.trace"),
        "{}",
        entries[0].file
    );
    assert!(store
        .verify()
        .expect("verify")
        .iter()
        .all(|(_, outcome)| outcome.is_ok()));

    // The migrated entry serves the campaign, bit-identically.
    let warm = campaign().run();
    assert_bit_identical(&fresh, &warm, "post-migration warm run");
    let stats = store.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(
        stats.misses, 1,
        "only the cold pass misses — migration must never cost a re-record"
    );
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
    // A v1 trace block, because its metadata page can be addressed directly
    // (the reader goes by the block's own header, whatever the file's name).
    assert_recovers_from("forged", |bytes| {
        *bytes = entry_as_v1(bytes);
        let at = trace_block_offset(bytes);
        let block = &mut bytes[at..]; // the persisted trace
        let records = u64::from_le_bytes(block[16..24].try_into().unwrap()) as usize;
        assert!(records <= CHUNK_RECORDS, "one chunk: one address page");
        let context_len = u32::from_le_bytes(block[32..36].try_into().unwrap()) as usize;
        let word_at = 48 + context_len + records * 8 + records / 2 * 4;
        block[word_at] |= 0b111 << 3;
        block[40..48].fill(0);
        let checksum = Fnv64::digest(block);
        block[40..48].copy_from_slice(&checksum.to_le_bytes());
    });
}
