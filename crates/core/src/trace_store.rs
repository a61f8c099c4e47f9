//! The persistent trace store: cross-run reuse of recorded post-L2 streams.
//!
//! A recorded trace is bit-identical run to run (fixed seeds end to end), so
//! re-recording it for every campaign wastes the full application +
//! upper-level simulation cost. The [`TraceStore`] is a directory of
//! persisted recordings keyed by everything that determines the stream:
//!
//! ```text
//! (dataset, scale, technique, app, hierarchy/app-config hash)
//!   └──► <dataset>-<scale>-<technique>-<app>-<confighash>.v<version>.trace
//! ```
//!
//! The `<version>` suffix is the trace format version of the entry's
//! encoding ([`Codec::format_version`]). Every publication is a
//! delta+varint `.v2.trace` entry, and `.v2.trace` is the only name a
//! campaign looks up. Raw `.v1.trace` entries — what stores written before
//! the v2 format hold — are read-only: `cargo xtask trace ls` / `verify` /
//! `gc` still list, check and evict them, and `cargo xtask trace recompress`
//! re-encodes each one to v2 in place (the codec changes only an entry's
//! *encoding*, never the recorded stream), after which it serves hits again.
//!
//! Each entry carries the recording run's **metadata** (application output,
//! instruction estimate) followed by the trace itself in the versioned
//! binary format of [`grasp_cachesim::trace::persist`], so a store hit
//! reconstructs a complete [`RecordedRun`](crate::experiment::RecordedRun) —
//! the campaign skips the record phase entirely and fans the loaded stream
//! out across policies, bit-identical to a fresh recording.
//!
//! Publication is **atomic**: entries are written to a temp file in the
//! store directory and `rename`d into place, so concurrent campaigns (or a
//! campaign racing `cargo xtask trace gc`) never observe half-written
//! entries. A human-readable `index.tsv` tracks per-entry sizes and
//! last-used timestamps (the LRU order `gc` evicts by); the index is
//! advisory — the `*.trace` files are the source of truth, and readers fall
//! back to filesystem metadata when the index is missing or stale.
//!
//! The store location comes from the spec's `store` field or the builder
//! ([`Campaign::with_trace_store`](crate::campaign::Campaign::with_trace_store)).

use crate::datasets::{DatasetId, Scale};
use grasp_analytics::apps::{AppConfig, AppKind, AppResult};
use grasp_analytics::props::PropertyLayout;
use grasp_cachesim::config::HierarchyConfig;
pub use grasp_cachesim::trace::persist::Codec;

use grasp_cachesim::trace::persist::{Fnv64, PersistError, TRACE_FORMAT_VERSION};
use grasp_cachesim::LlcTrace;
use grasp_reorder::TechniqueKind;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Magic bytes opening every store entry (the metadata wrapper around the
/// trace block).
pub const STORE_MAGIC: [u8; 8] = *b"GRSPSTO\0";

/// Version of the store entry layout (metadata framing). Orthogonal to the
/// trace format version, which is part of the entry *file name* so that a
/// trace-format bump naturally cold-starts the store.
pub const STORE_ENTRY_VERSION: u32 = 1;

/// Upper bound on a metadata block; anything larger is corruption, not data.
const MAX_META_LEN: u32 = 1 << 28;

/// Why a store entry could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The embedded trace block failed to decode.
    Trace(PersistError),
    /// The metadata wrapper is structurally invalid.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::Trace(err) => write!(f, "store entry trace block: {err}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store entry: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Trace(err) => Some(err),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

impl From<PersistError> for StoreError {
    fn from(err: PersistError) -> Self {
        StoreError::Trace(err)
    }
}

/// Version of the *recording code*: everything between the application and
/// the post-L2 stream — app kernels, graph generation/reordering, L1/L2/
/// prefetcher simulation, the region classifier. Folded into every store
/// key, so bumping it invalidates all persisted recordings at once. **Bump
/// this whenever a change can alter a recorded stream's contents**; the
/// trace *format* version (file layout) is tracked separately by
/// [`TRACE_FORMAT_VERSION`].
pub const RECORDING_CODE_VERSION: u32 = 1;

/// FNV-1a over the configuration words that determine a recorded stream —
/// stable across runs, platforms and (deliberately) pointer widths. Wraps
/// the persist format's [`Fnv64`] so the store and the format share one
/// hash primitive.
#[derive(Debug, Clone, Copy)]
struct ConfigHasher(Fnv64);

impl ConfigHasher {
    fn new() -> Self {
        let mut hasher = Self(Fnv64::new());
        hasher.word(u64::from(RECORDING_CODE_VERSION));
        hasher
    }

    fn word(&mut self, value: u64) {
        self.0.update(&value.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0.finish()
    }
}

fn hash_hierarchy(hasher: &mut ConfigHasher, hierarchy: &HierarchyConfig) {
    for cache in [&hierarchy.l1, &hierarchy.l2, &hierarchy.llc] {
        hasher.word(cache.size_bytes);
        hasher.word(cache.ways as u64);
        hasher.word(cache.block_bytes);
    }
    // Latencies only shape the timing model, not the recorded stream, but
    // folding them in keeps one key per *experiment configuration*, which is
    // the granularity campaigns reason about.
    hasher.word(hierarchy.latency.l1_cycles);
    hasher.word(hierarchy.latency.l2_cycles);
    hasher.word(hierarchy.latency.llc_cycles);
    hasher.word(hierarchy.latency.memory_cycles);
    hasher.word(u64::from(hierarchy.prefetch));
}

fn hash_app_config(hasher: &mut ConfigHasher, config: &AppConfig) {
    hasher.word(config.max_iterations as u64);
    hasher.word(u64::from(config.root));
    hasher.word(config.sample_roots as u64);
    hasher.word(config.damping.to_bits());
    hasher.word(config.epsilon.to_bits());
    hasher.word(match config.layout {
        PropertyLayout::Separate => 0,
        PropertyLayout::Merged => 1,
    });
}

/// Lowercases a display label and maps every non-alphanumeric run to a
/// single `_` (so "Gorder(+DBG)" becomes "gorder_dbg").
fn slugify(label: &str) -> String {
    let mut slug = String::with_capacity(label.len());
    let mut gap = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !slug.is_empty() {
                slug.push('_');
            }
            gap = false;
            slug.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    slug
}

/// The identity of one recorded stream: everything that determines its
/// contents, plus the [`Codec`] whose entry file the key names. The codec's
/// format version is folded into the file name, so a format bump cold-starts
/// the store instead of erroring on every entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceStoreKey {
    /// Dataset the stream was recorded over.
    pub dataset: DatasetId,
    /// Scale the dataset was generated at.
    pub scale: Scale,
    /// Reordering technique applied before recording.
    pub technique: TechniqueKind,
    /// Application that produced the stream.
    pub app: AppKind,
    /// Fingerprint of the hierarchy + application configuration.
    pub config_hash: u64,
    /// Codec of the entry file this key names (default:
    /// [`Codec::DeltaVarint`], the one publications are encoded with).
    pub codec: Codec,
}

impl TraceStoreKey {
    /// Builds the key for one campaign stream coordinate (with the default
    /// codec; see [`TraceStoreKey::with_codec`]).
    pub fn new(
        dataset: impl Into<DatasetId>,
        scale: Scale,
        technique: TechniqueKind,
        app: AppKind,
        hierarchy: &HierarchyConfig,
        app_config: &AppConfig,
    ) -> Self {
        let mut hasher = ConfigHasher::new();
        hash_hierarchy(&mut hasher, hierarchy);
        hash_app_config(&mut hasher, app_config);
        Self {
            dataset: dataset.into(),
            scale,
            technique,
            app,
            config_hash: hasher.finish(),
            codec: Codec::default(),
        }
    }

    /// Names the entry file of another codec — [`Codec::Raw`] addresses the
    /// `.v1.trace` entry of a store written before the v2 format.
    #[must_use]
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// The entry file name this key looks up and publishes to.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}-{}-{:016x}.v{}.trace",
            self.dataset.slug(),
            self.scale.slug(),
            slugify(self.technique.label()),
            slugify(self.app.label()),
            self.config_hash,
            self.codec.format_version(),
        )
    }
}

impl std::fmt::Display for TraceStoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.file_name())
    }
}

/// One reconstructed store entry: the recording run's outputs, ready to be
/// turned back into a `RecordedRun` without touching the application.
#[derive(Debug, Clone)]
pub struct StoredRecording {
    /// The persisted post-L2 stream (context included).
    pub trace: LlcTrace,
    /// The recording run's application output.
    pub app: AppResult,
    /// The recording run's instruction estimate (timing-model input).
    pub instructions: u64,
    /// The codec the entry's trace block was encoded with.
    pub codec: Codec,
}

/// Microseconds since the Unix epoch, strictly monotonic within this process
/// so that publications landing in the same clock instant still have a
/// defined LRU order.
fn now_unix_micros() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    LAST.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |last| {
        Some(now.max(last + 1))
    })
    .expect("fetch_update closure always returns Some")
}

/// Counters of one store handle's traffic (process-lifetime, shared across
/// campaign worker threads).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A snapshot of a store's hit/miss/byte traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Lookups that reconstructed a recording from disk (record phase
    /// skipped).
    pub hits: u64,
    /// Lookups that found no entry (a fresh recording was required).
    pub misses: u64,
    /// Lookups that found an entry but could not decode it (counted in
    /// `misses` as well — the caller records freshly and overwrites).
    pub corrupt: u64,
    /// Entry bytes read on hits.
    pub bytes_read: u64,
    /// Entry bytes written on publications.
    pub bytes_written: u64,
}

impl std::fmt::Display for TraceStoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es) ({} corrupt), {} B read, {} B written",
            self.hits, self.misses, self.corrupt, self.bytes_read, self.bytes_written
        )
    }
}

/// One entry of the store directory, as reported by [`TraceStore::entries`].
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Entry file name (also the key's string form).
    pub file: String,
    /// Entry size in bytes.
    pub bytes: u64,
    /// Unix timestamp (microseconds) of the last recorded use (publication
    /// or hit); falls back to the file's modification time when the index
    /// has no record.
    pub last_used: u64,
}

/// One entry's self-description, read from its headers by
/// [`TraceStore::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryInfo {
    /// Trace format version of the embedded trace block.
    pub trace_version: u32,
    /// Codec the trace block is encoded with.
    pub codec: Codec,
    /// Recorded events in the trace block.
    pub records: u64,
    /// The bytes this entry would occupy under [`Codec::Raw`] (12 B/record
    /// plus headers) — the denominator of the store's compression ratio.
    pub raw_bytes: u64,
}

/// The result of a [`TraceStore::recompress`] migration.
#[derive(Debug, Clone, Default)]
pub struct RecompressReport {
    /// Entries examined.
    pub examined: usize,
    /// File names re-encoded (their pre-migration names).
    pub converted: Vec<String>,
    /// Entries already in the target codec, left untouched.
    pub skipped: usize,
    /// Entries that could not be migrated: `(file, error)`, left in place.
    pub failed: Vec<(String, String)>,
    /// Total entry bytes before the migration (excluding failures).
    pub bytes_before: u64,
    /// Total entry bytes after the migration (excluding failures).
    pub bytes_after: u64,
}

/// Swaps the `.v<N>.trace` suffix of an entry file name for the format
/// version publications carry (`None` when the name has no such suffix).
fn retarget_file_name(file: &str) -> Option<String> {
    let base = file.strip_suffix(".trace")?;
    let (base, version) = base.rsplit_once(".v")?;
    version.parse::<u32>().ok()?;
    Some(format!("{base}.v{TRACE_FORMAT_VERSION}.trace"))
}

/// The result of a [`TraceStore::gc`] sweep.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Entries examined.
    pub examined: usize,
    /// File names evicted, least-recently-used first.
    pub evicted: Vec<String>,
    /// Bytes freed by the eviction.
    pub freed_bytes: u64,
    /// Bytes retained after the sweep.
    pub kept_bytes: u64,
}

/// A directory-backed store of persisted recordings. Cloning is not needed:
/// campaigns share one store behind an `Arc`.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    counters: Counters,
    /// Serializes index rewrites within this process. Cross-process index
    /// races are benign: the index is advisory and rebuilt from the entry
    /// files on read.
    index_lock: Mutex<()>,
}

const INDEX_FILE: &str = "index.tsv";

impl TraceStore {
    /// Opens (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            counters: Counters::default(),
            index_lock: Mutex::new(()),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of this handle's traffic counters.
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Whether `key`'s entry file exists, without reading or validating it.
    /// This is how a scheduler classifies a stream's obtain task up front —
    /// a probe hit plans a cheap `Load` task, a probe miss plans a full
    /// `Record` task — so loads and records can be cost-ordered and
    /// overlapped. Probing never touches the
    /// traffic counters, and a probe hit is only a *plan*: the load itself
    /// still falls back to recording when the entry turns out corrupt.
    pub fn probe(&self, key: &TraceStoreKey) -> bool {
        self.dir.join(key.file_name()).exists()
    }

    /// Looks `key` up, counting the outcome. A present, valid entry is a
    /// **hit** (the caller skips its record phase); a missing entry is a
    /// **miss**; an unreadable entry is a **corrupt miss** — the caller
    /// records freshly and the subsequent [`TraceStore::publish`] atomically
    /// replaces the bad file.
    ///
    /// This is a convenience wrapper over [`TraceStore::try_load`] that
    /// folds decode failures into `None` (after counting and logging them).
    /// Callers that must *distinguish* a corrupt entry from a missing one —
    /// the campaign service reports `store/corrupt` error frames rather
    /// than silently re-recording — should call [`TraceStore::try_load`]
    /// and inspect the [`StoreError`] themselves.
    pub fn load(&self, key: &TraceStoreKey) -> Option<StoredRecording> {
        match self.try_load(key) {
            Ok(Some(stored)) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(&key.file_name());
                Some(stored)
            }
            Ok(None) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(err) => {
                eprintln!(
                    "trace store: {}: {err} (recording freshly)",
                    key.file_name()
                );
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks `key` up without touching the traffic counters. `Ok(None)`
    /// means no entry exists; decode failures are returned, never masked.
    /// [`TraceStore::load`] is the counting wrapper over this.
    pub fn try_load(&self, key: &TraceStoreKey) -> Result<Option<StoredRecording>, StoreError> {
        let handle = match std::fs::File::open(self.dir.join(key.file_name())) {
            Ok(handle) => handle,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        let bytes = handle.metadata().map(|m| m.len()).unwrap_or(0);
        let mut reader = std::io::BufReader::new(handle);
        let stored = read_entry(&mut reader, Some(key.app))?;
        self.counters.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        Ok(Some(stored))
    }

    /// Atomically publishes a recording under `key` (write to a temp file in
    /// the store directory, then rename), v2-encoded like every publication —
    /// so under a key that names the default codec's file. Returns the entry
    /// size in bytes.
    pub fn publish(
        &self,
        key: &TraceStoreKey,
        trace: &LlcTrace,
        app: &AppResult,
        instructions: u64,
    ) -> Result<u64, StoreError> {
        debug_assert_eq!(key.codec, Codec::default(), "publications are v2");
        let written = self.write_entry_file(&key.file_name(), trace, app, instructions)?;
        self.counters
            .bytes_written
            .fetch_add(written, Ordering::Relaxed);
        self.record_in_index(&key.file_name(), written);
        Ok(written)
    }

    /// Writes one entry file atomically (temp + rename) and returns its
    /// size. Shared by [`TraceStore::publish`] and
    /// [`TraceStore::recompress`]; counters and index are the callers'
    /// business.
    fn write_entry_file(
        &self,
        file: &str,
        trace: &LlcTrace,
        app: &AppResult,
        instructions: u64,
    ) -> Result<u64, StoreError> {
        let final_path = self.dir.join(file);
        // Unique per process *and* per publication: two threads publishing
        // the same key concurrently (campaigns sharing one store) must never
        // interleave writes into one temp file.
        static PUBLICATION: AtomicU64 = AtomicU64::new(0);
        let tmp_path = self.dir.join(format!(
            ".{}.tmp.{}.{}",
            file,
            std::process::id(),
            PUBLICATION.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> Result<u64, StoreError> {
            let handle = std::fs::File::create(&tmp_path)?;
            let mut writer = std::io::BufWriter::new(handle);
            let written = write_entry(&mut writer, trace, app, instructions)?;
            writer.flush()?;
            drop(writer);
            std::fs::rename(&tmp_path, &final_path)?;
            Ok(written)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp_path).ok();
        }
        result
    }

    /// Lists the store's entries (directory scan merged with the index's
    /// last-used timestamps), most recently used first.
    pub fn entries(&self) -> std::io::Result<Vec<StoreEntry>> {
        let index = self.read_index();
        let mut entries = Vec::new();
        for item in std::fs::read_dir(&self.dir)? {
            let item = item?;
            let Ok(file) = item.file_name().into_string() else {
                continue;
            };
            if !file.ends_with(".trace") || file.starts_with('.') {
                continue;
            }
            let metadata = item.metadata()?;
            let fs_mtime = metadata
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0);
            // Only the last-used stamp comes from the index; sizes are
            // always statted so entries rewritten in place (recompress)
            // are credited at their true size, never a stale byte stamp.
            let last_used = index
                .iter()
                .find(|(name, _, _)| *name == file)
                .map(|&(_, used, _)| used)
                .unwrap_or(fs_mtime);
            entries.push(StoreEntry {
                file,
                bytes: metadata.len(),
                last_used,
            });
        }
        entries.sort_by(|a, b| b.last_used.cmp(&a.last_used).then(a.file.cmp(&b.file)));
        Ok(entries)
    }

    /// Checksum-verifies every entry. Returns `(file, result)` pairs; an
    /// empty error set means the store is fully intact.
    pub fn verify(&self) -> std::io::Result<Vec<(String, Result<(), StoreError>)>> {
        let mut report = Vec::new();
        for entry in self.entries()? {
            let path = self.dir.join(&entry.file);
            let outcome = (|| -> Result<(), StoreError> {
                let file = std::fs::File::open(&path)?;
                let mut reader = std::io::BufReader::new(file);
                read_entry(&mut reader, None)?;
                Ok(())
            })();
            report.push((entry.file, outcome));
        }
        Ok(report)
    }

    /// Evicts least-recently-used entries until the store holds at most
    /// `max_bytes` of entries. Corrupt or orphaned temp files are always
    /// removed.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcReport> {
        // Sweep stale temp files first (a crashed writer's leftovers).
        for item in std::fs::read_dir(&self.dir)? {
            let item = item?;
            if let Ok(name) = item.file_name().into_string() {
                if name.starts_with('.') && name.contains(".tmp.") {
                    std::fs::remove_file(item.path()).ok();
                }
            }
        }
        let mut entries = self.entries()?; // most recently used first
        let mut report = GcReport {
            examined: entries.len(),
            ..GcReport::default()
        };
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        // Evict from the LRU end until under budget. A victim already gone
        // (a concurrent gc or a manual deletion won the race) still counts
        // as freed — cross-process races stay benign, as the module doc
        // promises.
        while total > max_bytes {
            let Some(victim) = entries.pop() else {
                break;
            };
            if let Err(err) = std::fs::remove_file(self.dir.join(&victim.file)) {
                if err.kind() != std::io::ErrorKind::NotFound {
                    return Err(err);
                }
            }
            total -= victim.bytes;
            report.freed_bytes += victim.bytes;
            report.evicted.push(victim.file);
        }
        report.kept_bytes = total;
        self.rewrite_index(&entries);
        Ok(report)
    }

    /// Reads one entry's self-description — codec, trace format version,
    /// record count and the raw-equivalent size — from its headers alone
    /// (~130 bytes of I/O, no checksum pass). Advisory: `verify` is the
    /// integrity check.
    pub fn peek(&self, file: &str) -> Result<EntryInfo, StoreError> {
        let mut handle = std::fs::File::open(self.dir.join(file))?;
        let mut entry_header = [0u8; 24];
        handle
            .read_exact(&mut entry_header)
            .map_err(|err| truncated(err, "entry header"))?;
        if entry_header[0..8] != STORE_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "bad entry magic {:02x?}",
                &entry_header[0..8]
            )));
        }
        let meta_len = u32::from_le_bytes(entry_header[12..16].try_into().expect("4 bytes"));
        if meta_len > MAX_META_LEN {
            return Err(StoreError::Corrupt(format!(
                "metadata block of {meta_len} bytes is implausibly large"
            )));
        }
        handle.seek(std::io::SeekFrom::Current(i64::from(meta_len)))?;
        let mut trace_header = [0u8; 48];
        handle
            .read_exact(&mut trace_header)
            .map_err(|err| truncated(err, "trace header"))?;
        if trace_header[0..8] != grasp_cachesim::TRACE_MAGIC {
            return Err(StoreError::Corrupt(
                "entry does not embed a trace block".to_owned(),
            ));
        }
        let trace_version = u32::from_le_bytes(trace_header[8..12].try_into().expect("4 bytes"));
        let records = u64::from_le_bytes(trace_header[16..24].try_into().expect("8 bytes"));
        let context_len = u32::from_le_bytes(trace_header[32..36].try_into().expect("4 bytes"));
        let codec_field = u32::from_le_bytes(trace_header[36..40].try_into().expect("4 bytes"));
        // Mirror the loader's dispatch: v1 predates the codec field (its
        // reserved word must be 0 = raw); later versions name their codec.
        if trace_version == 1 && codec_field != 0 {
            return Err(StoreError::Corrupt(format!(
                "reserved trace header field is {codec_field}, expected 0"
            )));
        }
        let codec = Codec::from_code(codec_field)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown codec {codec_field}")))?;
        // What the same entry would occupy under Codec::Raw (12 B/record) —
        // the denominator of the store's compression ratio.
        let raw_bytes =
            24 + u64::from(meta_len) + 48 + u64::from(context_len) + records.saturating_mul(12);
        Ok(EntryInfo {
            trace_version,
            codec,
            records,
            raw_bytes,
        })
    }

    /// Re-encodes every entry to the format publications carry, in place:
    /// each v1 entry is fully decoded (checksums verified), re-written
    /// atomically (temp + rename) under its `.v2.trace` name, and the old
    /// file removed once the new one is in place. Entries already v2 are
    /// left untouched; undecodable entries are reported and kept (gc or a
    /// fresh recording deals with them). The migration path for a store
    /// written before the v2 format: `cargo xtask trace recompress`.
    pub fn recompress(&self) -> std::io::Result<RecompressReport> {
        let mut report = RecompressReport::default();
        for entry in self.entries()? {
            report.examined += 1;
            let outcome = (|| -> Result<Option<u64>, StoreError> {
                if self.peek(&entry.file)?.codec == Codec::default() {
                    return Ok(None); // already in the published encoding
                }
                let handle = std::fs::File::open(self.dir.join(&entry.file))?;
                let mut reader = std::io::BufReader::new(handle);
                let stored = read_entry(&mut reader, None)?;
                let new_file = retarget_file_name(&entry.file).ok_or_else(|| {
                    StoreError::Corrupt(format!(
                        "entry name {:?} has no .v<N>.trace suffix",
                        entry.file
                    ))
                })?;
                if new_file != entry.file && self.dir.join(&new_file).exists() {
                    // Both codecs' files exist for this key (a campaign has
                    // re-recorded the stream since the v1 entry was written).
                    // The key names one recorded stream, so the source file
                    // is redundant —
                    // deduplicate it instead of clobbering the existing
                    // target entry (which would also double its index row).
                    std::fs::remove_file(self.dir.join(&entry.file))?;
                    self.remove_from_index(&entry.file);
                    return Ok(Some(0));
                }
                let written = self.write_entry_file(
                    &new_file,
                    &stored.trace,
                    &stored.app,
                    stored.instructions,
                )?;
                if new_file != entry.file {
                    std::fs::remove_file(self.dir.join(&entry.file))?;
                    self.rename_in_index(&entry.file, &new_file);
                }
                Ok(Some(written))
            })();
            match outcome {
                Ok(Some(written)) => {
                    report.converted.push(entry.file);
                    report.bytes_before += entry.bytes;
                    report.bytes_after += written;
                }
                Ok(None) => {
                    report.skipped += 1;
                    report.bytes_before += entry.bytes;
                    report.bytes_after += entry.bytes;
                }
                Err(err) => report.failed.push((entry.file, err.to_string())),
            }
        }
        Ok(report)
    }

    // ---- index maintenance (advisory; best-effort) ----

    fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Index rows are `file \t last_used \t bytes`. The byte stamp is purely
    /// advisory — a human-readable size at last publication. **All
    /// accounting (`entries`, `gc`, `ls`) stats the files instead**: an
    /// in-place `recompress` (or any out-of-band rewrite) changes sizes
    /// without rewriting the index, and crediting stale stamps would make gc
    /// evict against phantom bytes. Rows written by the two-column pre-codec
    /// format parse with an unknown (zero) byte stamp.
    fn read_index(&self) -> Vec<(String, u64, u64)> {
        let Ok(text) = std::fs::read_to_string(self.index_path()) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| {
                let mut fields = line.split('\t');
                let file = fields.next()?.to_owned();
                let last_used = fields.next()?.parse().ok()?;
                let bytes = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
                Some((file, last_used, bytes))
            })
            .collect()
    }

    fn write_index(&self, entries: &[(String, u64, u64)]) {
        let mut text = String::new();
        for (file, last_used, bytes) in entries {
            text.push_str(file);
            text.push('\t');
            text.push_str(&last_used.to_string());
            text.push('\t');
            text.push_str(&bytes.to_string());
            text.push('\n');
        }
        let tmp = self
            .dir
            .join(format!(".{INDEX_FILE}.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, self.index_path()).is_err() {
            std::fs::remove_file(&tmp).ok();
        }
    }

    fn update_index_entry(&self, file: &str, bytes: Option<u64>) {
        let _guard = self.index_lock.lock().expect("index lock");
        let mut index = self.read_index();
        let now = now_unix_micros();
        match index.iter_mut().find(|(name, _, _)| name == file) {
            Some(entry) => {
                entry.1 = now;
                if let Some(bytes) = bytes {
                    entry.2 = bytes;
                }
            }
            None => index.push((file.to_owned(), now, bytes.unwrap_or(0))),
        }
        self.write_index(&index);
    }

    fn touch(&self, file: &str) {
        self.update_index_entry(file, None);
    }

    fn record_in_index(&self, file: &str, bytes: u64) {
        self.update_index_entry(file, Some(bytes));
    }

    /// Replaces `old` with `new` (recompress migration) under the lock,
    /// carrying the last-used stamp over so the migration does not promote
    /// the entry in LRU order. A stale row already holding the new name is
    /// dropped first — one file, one row.
    fn rename_in_index(&self, old: &str, new: &str) {
        let _guard = self.index_lock.lock().expect("index lock");
        let mut index = self.read_index();
        index.retain(|(name, _, _)| name != new);
        if let Some(entry) = index.iter_mut().find(|(name, _, _)| name == old) {
            entry.0 = new.to_owned();
            entry.2 = 0; // restated on the next publication; stat is truth
        }
        self.write_index(&index);
    }

    /// Drops `file`'s row (recompress deduplication) under the lock.
    fn remove_from_index(&self, file: &str) {
        let _guard = self.index_lock.lock().expect("index lock");
        let mut index = self.read_index();
        index.retain(|(name, _, _)| name != file);
        self.write_index(&index);
    }

    fn rewrite_index(&self, entries: &[StoreEntry]) {
        let _guard = self.index_lock.lock().expect("index lock");
        let index: Vec<(String, u64, u64)> = entries
            .iter()
            .map(|e| (e.file.clone(), e.last_used, e.bytes))
            .collect();
        self.write_index(&index);
    }
}

// ---- entry encoding ----

fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn encode_meta(app: &AppResult, instructions: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40 + app.app.len() + app.values.len() * 8);
    put_u32(&mut buf, app.app.len() as u32);
    buf.extend_from_slice(app.app.as_bytes());
    put_u64(&mut buf, app.iterations as u64);
    put_u64(&mut buf, app.edges_processed);
    put_u64(&mut buf, instructions);
    put_u64(&mut buf, app.values.len() as u64);
    for &value in &app.values {
        put_u64(&mut buf, value.to_bits());
    }
    buf
}

fn meta_checksum(bytes: &[u8]) -> u64 {
    Fnv64::digest(bytes)
}

fn write_entry(
    writer: &mut impl Write,
    trace: &LlcTrace,
    app: &AppResult,
    instructions: u64,
) -> Result<u64, StoreError> {
    let meta = encode_meta(app, instructions);
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&STORE_MAGIC);
    put_u32(&mut header, STORE_ENTRY_VERSION);
    put_u32(&mut header, meta.len() as u32);
    put_u64(&mut header, meta_checksum(&meta));
    writer.write_all(&header).map_err(StoreError::Io)?;
    writer.write_all(&meta).map_err(StoreError::Io)?;
    let trace_bytes = trace.write_to(writer)?;
    Ok(header.len() as u64 + meta.len() as u64 + trace_bytes)
}

struct MetaCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MetaCursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(StoreError::Corrupt(format!("metadata ends inside {what}"))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Reads one entry. When `expected_app` is given, the stored application
/// label must match it (and the result reuses the canonical static label);
/// verification passes `None` and accepts any known application.
fn read_entry(
    reader: &mut impl Read,
    expected_app: Option<AppKind>,
) -> Result<StoredRecording, StoreError> {
    let mut header = [0u8; 24];
    reader
        .read_exact(&mut header)
        .map_err(|err| truncated(err, "entry header"))?;
    if header[0..8] != STORE_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "bad entry magic {:02x?}",
            &header[0..8]
        )));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != STORE_ENTRY_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported entry version {version} (this build reads {STORE_ENTRY_VERSION})"
        )));
    }
    let meta_len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if meta_len > MAX_META_LEN {
        return Err(StoreError::Corrupt(format!(
            "metadata block of {meta_len} bytes is implausibly large"
        )));
    }
    let stored_checksum = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let mut meta = vec![0u8; meta_len as usize];
    reader
        .read_exact(&mut meta)
        .map_err(|err| truncated(err, "metadata block"))?;
    let computed = meta_checksum(&meta);
    if computed != stored_checksum {
        return Err(StoreError::Corrupt(format!(
            "metadata checksum mismatch: stored {stored_checksum:#018x}, computed {computed:#018x}"
        )));
    }

    let mut cursor = MetaCursor {
        bytes: &meta,
        pos: 0,
    };
    let app_len = cursor.u32("app label length")? as usize;
    let app_label = std::str::from_utf8(cursor.take(app_len, "app label")?)
        .map_err(|_| StoreError::Corrupt("app label is not UTF-8".to_owned()))?;
    let app_kind = AppKind::ALL
        .into_iter()
        .find(|kind| kind.label() == app_label)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown application {app_label:?}")))?;
    if let Some(expected) = expected_app {
        if app_kind != expected {
            return Err(StoreError::Corrupt(format!(
                "entry records {app_label:?} but the key names {:?}",
                expected.label()
            )));
        }
    }
    let iterations = cursor.u64("iterations")? as usize;
    let edges_processed = cursor.u64("edges processed")?;
    let instructions = cursor.u64("instruction estimate")?;
    let value_count = cursor.u64("value count")? as usize;
    if value_count > (meta.len() - cursor.pos) / 8 {
        return Err(StoreError::Corrupt(format!(
            "value count {value_count} exceeds the metadata block"
        )));
    }
    let mut values = Vec::with_capacity(value_count);
    for _ in 0..value_count {
        values.push(f64::from_bits(cursor.u64("value")?));
    }
    if cursor.pos != meta.len() {
        return Err(StoreError::Corrupt(
            "trailing bytes after the metadata block".to_owned(),
        ));
    }

    let (trace, codec) = LlcTrace::read_from_with_codec(reader)?;
    Ok(StoredRecording {
        trace,
        app: AppResult {
            app: app_kind.label(),
            values,
            iterations,
            edges_processed,
        },
        instructions,
        codec,
    })
}

fn truncated(err: std::io::Error, what: &str) -> StoreError {
    if err.kind() == std::io::ErrorKind::UnexpectedEof {
        StoreError::Corrupt(format!("entry truncated while reading {what}"))
    } else {
        StoreError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use grasp_cachesim::request::AccessInfo;

    fn temp_store(tag: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!(
            "grasp-trace-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        TraceStore::open(dir).expect("store opens")
    }

    fn sample_key(config_seed: u64) -> TraceStoreKey {
        let mut hierarchy = Scale::Tiny.hierarchy();
        hierarchy.latency.memory_cycles += config_seed; // vary the hash
        TraceStoreKey::new(
            DatasetKind::Twitter,
            Scale::Tiny,
            TechniqueKind::Dbg,
            AppKind::PageRank,
            &hierarchy,
            &AppConfig::default(),
        )
    }

    include!("../../cachesim/tests/support/v1_fixture.rs");

    /// Plants the entry a store written before the v2 format holds for
    /// `key`: the metadata wrapper around a v1 trace block, under the
    /// `.v1.trace` name. Returns its size.
    fn plant_v1_entry(
        store: &TraceStore,
        key: &TraceStoreKey,
        trace: &LlcTrace,
        app: &AppResult,
        instructions: u64,
    ) -> u64 {
        let mut bytes = Vec::new();
        write_entry(&mut bytes, trace, app, instructions).expect("in-memory write");
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        bytes.truncate(24 + meta_len);
        bytes.extend(v1_trace_bytes(trace));
        let file = key.with_codec(Codec::Raw).file_name();
        std::fs::write(store.dir().join(file), &bytes).expect("write v1 entry");
        bytes.len() as u64
    }

    fn sample_recording(events: u64) -> (LlcTrace, AppResult) {
        let mut trace = LlcTrace::new();
        for i in 0..events {
            trace.push(&AccessInfo::read(i * 64).with_site((i % 5) as u16));
            if i % 11 == 0 {
                trace.push_writeback(i * 64);
            }
        }
        let app = AppResult {
            app: AppKind::PageRank.label(),
            values: (0..16).map(|i| i as f64 / 7.0).collect(),
            iterations: 3,
            edges_processed: events * 2,
        };
        (trace, app)
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let store = temp_store("roundtrip");
        let key = sample_key(0);
        let (trace, app) = sample_recording(500);
        assert!(store.load(&key).is_none(), "empty store must miss");
        let written = store.publish(&key, &trace, &app, 12_345).expect("publish");
        assert!(written > 0);
        let stored = store.load(&key).expect("hit after publish");
        assert_eq!(stored.trace, trace);
        assert_eq!(stored.app, app);
        assert_eq!(stored.instructions, 12_345);
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.bytes_written, written);
        assert!(stats.bytes_read >= written);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn distinct_configs_get_distinct_entries() {
        let a = sample_key(0);
        let b = sample_key(7);
        assert_ne!(a.config_hash, b.config_hash);
        assert_ne!(a.file_name(), b.file_name());
        // Every axis of the key lands in the file name, and the version
        // suffix tracks the key's codec.
        let name = a.file_name();
        assert!(name.contains("tw-"), "{name}");
        assert!(name.contains("-tiny-"), "{name}");
        assert!(name.contains("-dbg-"), "{name}");
        assert!(name.contains("-pr-"), "{name}");
        assert!(name.ends_with(".v2.trace"), "{name}");
        let raw = a.with_codec(Codec::Raw).file_name();
        assert!(raw.ends_with(".v1.trace"), "{raw}");
        assert_eq!(
            raw.strip_suffix(".v1.trace"),
            name.strip_suffix(".v2.trace")
        );
    }

    #[test]
    fn retargeting_file_names_swaps_only_the_version_suffix() {
        assert_eq!(
            retarget_file_name("tw-tiny-dbg-pr-00ff.v1.trace").as_deref(),
            Some("tw-tiny-dbg-pr-00ff.v2.trace")
        );
        assert_eq!(
            retarget_file_name("tw-tiny-dbg-pr-00ff.v2.trace").as_deref(),
            Some("tw-tiny-dbg-pr-00ff.v2.trace")
        );
        // Dots in the base never confuse the suffix parse.
        assert_eq!(
            retarget_file_name("a.b.v9.trace").as_deref(),
            Some("a.b.v2.trace")
        );
        assert_eq!(retarget_file_name("no-suffix.trace"), None);
        assert_eq!(retarget_file_name("plain"), None);
    }

    #[test]
    fn v1_only_entries_are_invisible_until_recompressed() {
        // A store written before the v2 format: the campaign-side lookups
        // address `.v2.trace` names only, so the entry neither probes nor
        // loads — and one `recompress` later it serves the same key.
        let store = temp_store("v1-only");
        let (trace, app) = sample_recording(400);
        let key = sample_key(0);
        plant_v1_entry(&store, &key, &trace, &app, 7);
        assert!(!store.probe(&key));
        assert!(store.load(&key).is_none());
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().corrupt, 0, "missed, not misread");
        // The v1 name itself is still addressable (and readable).
        let raw_key = key.with_codec(Codec::Raw);
        assert!(store.probe(&raw_key));
        let stored = store.try_load(&raw_key).expect("v1 decodes").expect("hit");
        assert_eq!(stored.codec, Codec::Raw);

        let report = store.recompress().expect("recompress");
        assert_eq!(report.converted, vec![raw_key.file_name()]);
        assert!(store.probe(&key));
        let stored = store.load(&key).expect("hit after the migration");
        assert_eq!(stored.trace, trace);
        assert_eq!(stored.instructions, 7);
        assert_eq!(stored.codec, Codec::DeltaVarint);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn peek_reports_codec_records_and_raw_equivalent() {
        let store = temp_store("peek");
        let (trace, app) = sample_recording(500);
        let dv_key = sample_key(0);
        let dv_bytes = store.publish(&dv_key, &trace, &app, 1).expect("publish");
        let raw_key = sample_key(1).with_codec(Codec::Raw);
        let raw_bytes = plant_v1_entry(&store, &raw_key, &trace, &app, 1);

        let dv_info = store.peek(&dv_key.file_name()).expect("peek dv");
        assert_eq!(dv_info.codec, Codec::DeltaVarint);
        assert_eq!(dv_info.trace_version, 2);
        assert_eq!(dv_info.records, trace.len() as u64);
        let raw_info = store.peek(&raw_key.file_name()).expect("peek raw");
        assert_eq!(raw_info.codec, Codec::Raw);
        assert_eq!(raw_info.trace_version, 1);
        // The raw-equivalent size is exact: it equals the raw entry's true
        // size (same trace, same metadata), for both codecs' entries.
        assert_eq!(raw_info.raw_bytes, raw_bytes);
        assert_eq!(dv_info.raw_bytes, raw_bytes);
        assert!(
            dv_bytes < raw_bytes,
            "delta-varint must beat raw on the sample stream"
        );
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn recompress_migrates_entries_in_place() {
        let store = temp_store("recompress");
        let (trace, app) = sample_recording(2000);
        let key = sample_key(0);
        let raw_name = key.with_codec(Codec::Raw).file_name();
        let raw_size = plant_v1_entry(&store, &key, &trace, &app, 42);
        store
            .publish(&sample_key(1), &trace, &app, 43)
            .expect("publish");

        let report = store.recompress().expect("recompress");
        assert_eq!(report.examined, 2);
        assert_eq!(report.converted, vec![raw_name.clone()]);
        assert_eq!(report.skipped, 1, "the dv entry is already migrated");
        assert!(report.failed.is_empty());
        assert!(
            report.bytes_after < report.bytes_before,
            "migration must shrink the store ({} -> {})",
            report.bytes_before,
            report.bytes_after
        );

        // The raw file is gone, its v2 replacement loads bit-identically.
        assert!(!store.dir().join(raw_name).exists());
        let migrated = store.load(&key).expect("migrated entry hits");
        assert_eq!(migrated.trace, trace);
        assert_eq!(migrated.instructions, 42);
        assert_eq!(migrated.codec, Codec::DeltaVarint);
        let new_size = store
            .entries()
            .expect("entries")
            .iter()
            .find(|e| e.file == key.file_name())
            .expect("migrated entry listed")
            .bytes;
        assert!(new_size < raw_size);
        // Everything still checksum-verifies.
        assert!(store
            .verify()
            .expect("verify")
            .iter()
            .all(|(_, outcome)| outcome.is_ok()));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn recompress_deduplicates_when_both_codec_files_exist() {
        // A campaign re-recorded a stream the store still held a v1 entry
        // of: two files, one recorded stream. Migration must keep the
        // existing v2 entry (never clobber it) and drop the redundant
        // source, leaving one file and one index row.
        let store = temp_store("dedup");
        let (trace, app) = sample_recording(800);
        let key = sample_key(0);
        plant_v1_entry(&store, &key, &trace, &app, 1);
        let dv_size = store.publish(&key, &trace, &app, 1).expect("publish dv");
        assert_eq!(store.entries().expect("entries").len(), 2);

        let report = store.recompress().expect("recompress");
        assert_eq!(report.examined, 2);
        assert_eq!(report.converted.len(), 1, "the raw file is deduplicated");
        assert_eq!(report.skipped, 1);
        assert!(report.failed.is_empty());
        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, key.file_name());
        assert_eq!(entries[0].bytes, dv_size, "the survivor is untouched");
        let index = store.read_index();
        assert_eq!(
            index
                .iter()
                .filter(|(name, _, _)| *name == entries[0].file)
                .count(),
            1,
            "exactly one index row for the surviving entry"
        );
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_and_entries_credit_statted_sizes_never_index_stamps() {
        // An in-place recompress (or any out-of-band rewrite) changes entry
        // sizes without republishing; a gc that believed the index's byte
        // stamps would evict against phantom bytes. The index byte column is
        // advisory only — sizes must always come from a stat.
        let store = temp_store("stat-sizes");
        let (trace, app) = sample_recording(1500);
        let key = sample_key(0);
        let published = store.publish(&key, &trace, &app, 1).expect("publish");

        // Forge an index claiming the entry is enormous *and* stale-size it
        // the other way round too.
        let bogus = format!("{}\t{}\t{}\n", key.file_name(), 12345, u64::MAX);
        std::fs::write(store.dir().join(INDEX_FILE), bogus).expect("forge index");

        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].bytes, published,
            "sizes must be statted, not read from the index"
        );
        // A budget the real size fits comfortably: nothing may be evicted,
        // even though the forged index claims u64::MAX bytes.
        let report = store.gc(published + 10).expect("gc");
        assert!(report.evicted.is_empty(), "{report:?}");
        assert_eq!(report.kept_bytes, published);
        assert!(store.dir().join(key.file_name()).exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slugify("Gorder(+DBG)"), "gorder_dbg");
        assert_eq!(slugify("PRD"), "prd");
        assert_eq!(slugify("GRASP (Insertion-Only)"), "grasp_insertion_only");
        for technique in TechniqueKind::ALL {
            let slug = slugify(technique.label());
            assert!(
                slug.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{slug}"
            );
            assert!(!slug.is_empty());
        }
    }

    #[test]
    fn corrupt_entries_are_counted_and_overwritable() {
        let store = temp_store("corrupt");
        let key = sample_key(0);
        let (trace, app) = sample_recording(100);
        store.publish(&key, &trace, &app, 1).expect("publish");
        // Flip one byte near the end (inside the trace payload).
        let path = store.dir().join(key.file_name());
        let mut bytes = std::fs::read(&path).expect("read entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corrupted entry");
        // try_load surfaces the typed error (a checksum mismatch or, for a
        // compressed entry, a structural decode failure — never a silent
        // wrong trace); load treats it as a corrupt miss.
        assert!(matches!(store.try_load(&key), Err(StoreError::Trace(_))));
        assert!(store.load(&key).is_none());
        assert_eq!(store.stats().corrupt, 1);
        // Re-publishing atomically replaces the bad entry.
        store.publish(&key, &trace, &app, 1).expect("re-publish");
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn metadata_corruption_is_typed_not_silent() {
        let store = temp_store("meta-corrupt");
        let key = sample_key(0);
        let (trace, app) = sample_recording(50);
        store.publish(&key, &trace, &app, 1).expect("publish");
        let path = store.dir().join(key.file_name());
        let mut bytes = std::fs::read(&path).expect("read entry");
        bytes[30] ^= 0x10; // inside the metadata block
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(store.try_load(&key), Err(StoreError::Corrupt(_))));
        // Truncation inside the metadata block, and inside the trace block.
        for cut in [10, 40, bytes.len() - 3] {
            std::fs::write(&path, &bytes[..cut]).expect("write truncated");
            assert!(store.try_load(&key).is_err(), "cut at {cut}");
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn wrong_app_in_entry_is_rejected() {
        let store = temp_store("wrong-app");
        let key = sample_key(0);
        let (trace, mut app) = sample_recording(20);
        app.app = AppKind::Sssp.label();
        store.publish(&key, &trace, &app, 1).expect("publish");
        assert!(matches!(
            store.try_load(&key),
            Err(StoreError::Corrupt(msg)) if msg.contains("SSSP")
        ));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entries_verify_and_gc_evicts_lru() {
        let store = temp_store("gc");
        let (trace, app) = sample_recording(2000);
        let keys: Vec<TraceStoreKey> = (0..3).map(sample_key).collect();
        let mut sizes = Vec::new();
        for key in &keys {
            sizes.push(store.publish(key, &trace, &app, 1).expect("publish"));
        }
        // Touch entry 0 so it is the most recently used.
        assert!(store.load(&keys[0]).is_some());
        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].file, keys[0].file_name(), "MRU first");
        let verify = store.verify().expect("verify");
        assert!(verify.iter().all(|(_, outcome)| outcome.is_ok()));
        // Budget for one entry: the two least-recently-used are evicted.
        let report = store.gc(sizes[0] + 1).expect("gc");
        assert_eq!(report.examined, 3);
        assert_eq!(report.evicted.len(), 2);
        assert!(!report.evicted.contains(&keys[0].file_name()));
        assert_eq!(report.kept_bytes, sizes[0]);
        assert_eq!(store.entries().expect("entries").len(), 1);
        // gc(0) clears the store.
        let report = store.gc(0).expect("gc all");
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.kept_bytes, 0);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_sweeps_stale_temp_files() {
        let store = temp_store("tmp-sweep");
        std::fs::write(store.dir().join(".orphan.trace.tmp.999"), b"junk").expect("write");
        let report = store.gc(u64::MAX).expect("gc");
        assert_eq!(report.examined, 0);
        assert!(!store.dir().join(".orphan.trace.tmp.999").exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn index_survives_deletion() {
        let store = temp_store("index");
        let key = sample_key(0);
        let (trace, app) = sample_recording(30);
        store.publish(&key, &trace, &app, 1).expect("publish");
        std::fs::remove_file(store.dir().join(INDEX_FILE)).expect("drop index");
        // entries() falls back to filesystem metadata.
        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 1);
        assert!(entries[0].last_used > 0, "falls back to fs mtime");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn stats_display_reads_well() {
        let stats = TraceStoreStats {
            hits: 2,
            misses: 1,
            corrupt: 0,
            bytes_read: 10,
            bytes_written: 20,
        };
        let text = stats.to_string();
        assert!(text.contains("2 hit(s)"));
        assert!(text.contains("20 B written"));
    }
}
