//! The persistent trace store: cross-run reuse of recorded post-L2 streams.
//!
//! A recorded trace is bit-identical run to run (fixed seeds end to end), so
//! re-recording it for every campaign wastes the full application +
//! upper-level simulation cost. The [`TraceStore`] is a directory of
//! persisted recordings keyed by everything that determines the stream:
//!
//! ```text
//! (dataset, scale, technique, app, L1/L2 + app-config hash)
//!   └──► <dataset>-<scale>-<technique>-<app>-<confighash>.v<version>.trace
//! ```
//!
//! The LLC is not in the key: a stream carries no reuse hint and does not
//! depend on the LLC's geometry, so one entry serves every LLC a campaign
//! replays it into.
//!
//! The `<version>` suffix is [`TRACE_FORMAT_VERSION`], so a format bump
//! cold-starts the store instead of erroring on every entry: `.v4.trace` is
//! the only name a campaign publishes or looks up. A file of another version
//! left behind by an older build (`.v3.trace` … `.v1.trace`) is never looked
//! up; `cargo xtask trace ls` still lists it, `verify` reports it as an
//! unsupported version and `gc` evicts it in LRU order like any entry.
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
//! entries. The directory of entry files is all there is: an entry's
//! **modification time is its last-used stamp** — set at publication and
//! again on every hit — and that is the LRU order `gc` evicts by, the same
//! from every handle and every process. (Copy a store with `cp -p` or `tar`,
//! or the order restarts from the copy's timestamps.)
//!
//! The store location comes from the spec's `store` field or the builder
//! ([`Campaign::with_trace_store`](crate::campaign::Campaign::with_trace_store)).

use crate::datasets::{DatasetId, Scale};
use grasp_analytics::apps::{AppConfig, AppKind, AppResult};
use grasp_analytics::PropertyLayout;
use grasp_cachesim::config::HierarchyConfig;
pub use grasp_cachesim::trace::persist::TRACE_FORMAT_VERSION;

use grasp_cachesim::trace::persist::{Fnv64, PersistError, TraceHeader};
use grasp_cachesim::{Codec, LlcTrace};
use grasp_reorder::TechniqueKind;
use std::fs::File;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Magic bytes opening every store entry (the metadata wrapper around the
/// trace block).
pub const STORE_MAGIC: [u8; 8] = *b"GRSPSTO\0";

/// Version of the store entry layout (metadata framing). Orthogonal to the
/// trace format version, which is part of the entry *file name* so that a
/// trace-format bump naturally cold-starts the store.
pub const STORE_ENTRY_VERSION: u32 = 1;

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
/// prefetcher simulation. Folded into every store key, so bumping it
/// invalidates all persisted recordings at once. **Bump this whenever a
/// change can alter a recorded stream's contents**; the trace *format*
/// version (file layout) is tracked separately by [`TRACE_FORMAT_VERSION`].
/// (2: the key stopped naming the LLC and the latencies.)
pub const RECORDING_CODE_VERSION: u32 = 2;

/// FNV-1a over the configuration words that determine a recorded stream —
/// stable across runs, platforms and (deliberately) pointer widths. Wraps
/// [`Fnv64`], the trace layer's hash for keys and entry metadata.
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

/// The part of a hierarchy the post-L2 stream depends on: the upper levels
/// (the LLC classifies at replay). The closing `1` is the always-on L1
/// prefetcher's word from when it could be switched off: it keeps every key.
fn hash_hierarchy(hasher: &mut ConfigHasher, hierarchy: &HierarchyConfig) {
    for cache in [&hierarchy.l1, &hierarchy.l2] {
        hasher.word(cache.size_bytes);
        hasher.word(cache.ways as u64);
        hasher.word(cache.block_bytes);
    }
    hasher.word(1);
}

fn hash_app_config(hasher: &mut ConfigHasher, config: &AppConfig) {
    hasher.word(config.max_iterations as u64);
    // Once settings, now constants that keep every key: root, sample count, damping, threshold.
    for word in [0, 8, 0.85f64.to_bits(), 0.0f64.to_bits()] {
        hasher.word(word);
    }
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
/// contents.
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
    /// Fingerprint of the upper levels (L1, L2) + application configuration.
    pub config_hash: u64,
}

impl TraceStoreKey {
    /// Builds the key for one campaign stream coordinate. Of `hierarchy`,
    /// only the upper levels count.
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
        }
    }

    // An identity kept for `perfbench/src/ledger.rs:326`, its only caller;
    // goes when that line does.
    #[doc(hidden)]
    #[must_use]
    pub fn with_codec(self, _: Codec) -> Self {
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
            TRACE_FORMAT_VERSION,
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
}

/// A temp file this much older than now belongs to a writer that died: no
/// publication takes that long, and a live one's must never be swept.
const STALE_TEMP_AGE: Duration = Duration::from_secs(15 * 60);

/// Microseconds since the Unix epoch, strictly monotonic within this process
/// so that publications landing in the same clock instant still have a
/// defined LRU order.
fn now_unix_micros() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = unix_micros(SystemTime::now());
    let last = LAST
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |last| {
            Some(now.max(last + 1))
        })
        .expect("fetch_update closure always returns Some");
    now.max(last + 1) // what the closure just stored; `last` is the value before
}

/// Stamps `file` as used now — the store's LRU clock. Best-effort: a stamp
/// that cannot be written costs `gc` some eviction accuracy, nothing else.
fn stamp_used(file: &File) {
    file.set_modified(UNIX_EPOCH + Duration::from_micros(now_unix_micros()))
        .ok();
}

/// `time` as microseconds since the Unix epoch (0 for anything earlier).
fn unix_micros(time: SystemTime) -> u64 {
    time.duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
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
    /// Unix timestamp (microseconds) of the last use (publication or hit):
    /// the file's modification time.
    pub last_used: u64,
}

/// One entry's self-description, read from its headers by
/// [`TraceStore::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryInfo {
    /// Recorded events in the trace block.
    pub records: u64,
    /// The bytes this entry would occupy with its columns written out as
    /// they sit in memory (12 B/record plus headers) — the numerator of the
    /// store's compression ratio.
    pub raw_bytes: u64,
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
}

impl TraceStore {
    /// Opens (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            counters: Counters::default(),
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
    /// The counting wrapper over [`TraceStore::try_load`]: it folds decode
    /// failures into `None` after counting and logging them. Every
    /// campaign calls it, the service daemon's included, so a corrupt entry
    /// is re-recorded and replaced, never reported as an error. Only the
    /// `pipeline` benchmark, which must stop on a bad entry, calls
    /// [`TraceStore::try_load`] and inspects the [`StoreError`] itself.
    pub fn load(&self, key: &TraceStoreKey) -> Option<StoredRecording> {
        match self.read_keyed(key) {
            Ok(Some((stored, handle))) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                stamp_used(&handle);
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
        Ok(self.read_keyed(key)?.map(|(stored, _)| stored))
    }

    /// Reads `key`'s entry, returning it with the handle it was read from.
    fn read_keyed(
        &self,
        key: &TraceStoreKey,
    ) -> Result<Option<(StoredRecording, File)>, StoreError> {
        let handle = match File::open(self.dir.join(key.file_name())) {
            Ok(handle) => handle,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        let bytes = handle.metadata()?.len();
        let stored = read_entry(&mut std::io::BufReader::new(&handle), bytes, Some(key.app))?;
        self.counters.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        Ok(Some((stored, handle)))
    }

    /// Atomically publishes a recording under `key`: written to a temp file
    /// in the store directory, stamped as used now, then renamed into place.
    /// Returns the entry size in bytes.
    pub fn publish(
        &self,
        key: &TraceStoreKey,
        trace: &LlcTrace,
        app: &AppResult,
        instructions: u64,
    ) -> Result<u64, StoreError> {
        let file = key.file_name();
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
        let written = (|| -> Result<u64, StoreError> {
            let mut writer = std::io::BufWriter::new(File::create(&tmp_path)?);
            let written = write_entry(&mut writer, trace, app, instructions)?;
            let handle = writer.into_inner().map_err(|err| err.into_error())?;
            stamp_used(&handle);
            std::fs::rename(&tmp_path, self.dir.join(&file))?;
            Ok(written)
        })()
        .inspect_err(|_| {
            std::fs::remove_file(&tmp_path).ok();
        })?;
        self.counters
            .bytes_written
            .fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Lists the store's entries (one directory scan), most recently used
    /// first.
    pub fn entries(&self) -> std::io::Result<Vec<StoreEntry>> {
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
            entries.push(StoreEntry {
                file,
                bytes: metadata.len(),
                last_used: metadata.modified().map_or(0, unix_micros),
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
                let handle = File::open(&path)?;
                let bytes = handle.metadata()?.len();
                read_entry(&mut std::io::BufReader::new(handle), bytes, None)?;
                Ok(())
            })();
            report.push((entry.file, outcome));
        }
        Ok(report)
    }

    /// Evicts least-recently-used entries until the store holds at most
    /// `max_bytes` of entries. Temp files older than 15 minutes (a crashed
    /// writer's leftovers — a younger one may be a live writer's, about to
    /// be renamed) and the `index.tsv` older builds kept beside the entries
    /// are removed too.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcReport> {
        let now = SystemTime::now();
        for item in std::fs::read_dir(&self.dir)? {
            let item = item?;
            let Ok(name) = item.file_name().into_string() else {
                continue;
            };
            let stale_temp = name.starts_with('.')
                && name.contains(".tmp.")
                && item
                    .metadata()
                    .and_then(|m| m.modified())
                    .is_ok_and(|at| now.duration_since(at).is_ok_and(|age| age > STALE_TEMP_AGE));
            if stale_temp || name == "index.tsv" {
                std::fs::remove_file(item.path()).ok();
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
        Ok(report)
    }

    /// Reads one entry's self-description — record count and the
    /// raw-equivalent size — from its headers alone (~130 bytes of I/O, no
    /// checksum pass), refusing every entry or trace header the loader would
    /// refuse, with the loader's error. Advisory: `verify` is the integrity
    /// check.
    pub fn peek(&self, file: &str) -> Result<EntryInfo, StoreError> {
        let mut handle = File::open(self.dir.join(file))?;
        let bytes = handle.metadata()?.len();
        let (meta_len, _) = read_entry_header(&mut handle, bytes)?;
        handle.seek(std::io::SeekFrom::Current(i64::from(meta_len)))?;
        let header = TraceHeader::read(&mut handle)?;
        let records = header.records as u64;
        let raw_bytes = 24
            + u64::from(meta_len)
            + 48
            + u64::from(header.context_len)
            + records.saturating_mul(12);
        Ok(EntryInfo { records, raw_bytes })
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
    let meta_len = u32::try_from(meta.len()).map_err(|_| {
        StoreError::Corrupt(format!(
            "metadata block of {} bytes exceeds the entry header's 32-bit length",
            meta.len()
        ))
    })?;
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&STORE_MAGIC);
    put_u32(&mut header, STORE_ENTRY_VERSION);
    put_u32(&mut header, meta_len);
    put_u64(&mut header, meta_checksum(&meta));
    writer.write_all(&header).map_err(StoreError::Io)?;
    writer.write_all(&meta).map_err(StoreError::Io)?;
    let trace_bytes = trace.write_to(writer)?;
    Ok(header.len() as u64 + meta.len() as u64 + trace_bytes)
}

/// Reads and checks the 24-byte entry header of an `entry_len`-byte entry —
/// the magic, then the entry version, then that the metadata block fits the
/// entry — and returns the metadata block's length and stored checksum.
fn read_entry_header(reader: &mut impl Read, entry_len: u64) -> Result<(u32, u64), StoreError> {
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
    if u64::from(meta_len) > entry_len.saturating_sub(24) {
        let eof = std::io::ErrorKind::UnexpectedEof.into();
        return Err(truncated(eof, "metadata block"));
    }
    let checksum = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    Ok((meta_len, checksum))
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

/// Reads one `entry_len`-byte entry. When `expected_app` is given, the
/// stored application label must match it (and the result reuses the
/// canonical static label); verification passes `None` and accepts any
/// known application.
fn read_entry(
    reader: &mut impl Read,
    entry_len: u64,
    expected_app: Option<AppKind>,
) -> Result<StoredRecording, StoreError> {
    let (meta_len, stored_checksum) = read_entry_header(reader, entry_len)?;
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

    Ok(StoredRecording {
        trace: LlcTrace::read_from(reader)?,
        app: AppResult {
            app: app_kind.label(),
            values,
            iterations,
            edges_processed,
        },
        instructions,
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

    /// Entry names of the Tiny and Small hierarchies under every app's
    /// traced configuration: a moved name orphans every warm store.
    #[test]
    fn store_file_names_are_pinned() {
        let names: Vec<String> = [Scale::Tiny, Scale::Small]
            .into_iter()
            .flat_map(|scale| {
                AppKind::ALL.into_iter().map(move |app| {
                    let app_config = crate::experiment::Experiment::traced_app_config(app);
                    TraceStoreKey::new(
                        DatasetKind::Twitter,
                        scale,
                        TechniqueKind::Dbg,
                        app,
                        &scale.hierarchy(),
                        &app_config,
                    )
                    .file_name()
                })
            })
            .collect();
        let pinned = [
            "tw-tiny-dbg-bc-df5b3de965b596b3.v4.trace",
            "tw-tiny-dbg-sssp-df5b3de965b596b3.v4.trace",
            "tw-tiny-dbg-pr-be5578ee7c3124e8.v4.trace",
            "tw-tiny-dbg-prd-07d40b5ee4deb8dd.v4.trace",
            "tw-tiny-dbg-radii-d7baaa5d99e566e7.v4.trace",
            "tw-small-dbg-bc-df5b3de965b596b3.v4.trace",
            "tw-small-dbg-sssp-df5b3de965b596b3.v4.trace",
            "tw-small-dbg-pr-be5578ee7c3124e8.v4.trace",
            "tw-small-dbg-prd-07d40b5ee4deb8dd.v4.trace",
            "tw-small-dbg-radii-d7baaa5d99e566e7.v4.trace",
        ];
        assert_eq!(names, pinned);
    }

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
        let app_config = AppConfig {
            max_iterations: 1 + config_seed as usize, // vary the hash
            ..AppConfig::default()
        };
        TraceStoreKey::new(
            DatasetKind::Twitter,
            Scale::Tiny,
            TechniqueKind::Dbg,
            AppKind::PageRank,
            &Scale::Tiny.hierarchy(),
            &app_config,
        )
    }

    /// Plants what an older build left behind for `key`: its published
    /// entry copied to the `.v1.trace` name with the trace block's version
    /// word set to 1. Returns the file name.
    fn plant_v1_file(store: &TraceStore, key: &TraceStoreKey) -> String {
        let mut bytes = std::fs::read(store.dir().join(key.file_name())).expect("read entry");
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let version_at = 24 + meta_len + 8;
        bytes[version_at..version_at + 4].copy_from_slice(&1u32.to_le_bytes());
        let current = format!(".v{TRACE_FORMAT_VERSION}.trace");
        let file = key.file_name().replace(&current, ".v1.trace");
        std::fs::write(store.dir().join(&file), &bytes).expect("write v1 file");
        file
    }

    fn backdate(path: &Path, age: Duration) {
        let handle = File::options().write(true).open(path).expect("open");
        handle
            .set_modified(SystemTime::now() - age)
            .expect("set mtime");
    }

    fn sample_recording(events: u64) -> (LlcTrace, AppResult) {
        let mut trace = LlcTrace::new();
        for i in 0..events {
            trace.push(&AccessInfo {
                site: (i % 5) as u16,
                ..AccessInfo::read(i * 64)
            });
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
        // Every axis of the key lands in the file name, under the format
        // version's suffix.
        let name = a.file_name();
        assert!(name.contains("tw-"), "{name}");
        assert!(name.contains("-tiny-"), "{name}");
        assert!(name.contains("-dbg-"), "{name}");
        assert!(name.contains("-pr-"), "{name}");
        assert!(name.ends_with(".v4.trace"), "{name}");
    }

    #[test]
    fn with_codec_changes_nothing_about_a_key() {
        use std::hash::{BuildHasher, RandomState};
        let key = sample_key(0);
        let same = key.with_codec(Codec);
        assert_eq!(same, key);
        assert_eq!(same.file_name(), key.file_name());
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(same), hasher.hash_one(key));
    }

    #[test]
    fn files_of_another_version_are_listed_refused_and_evictable() {
        // What a store written by an older format holds: never looked up,
        // so the key misses (not "corrupt"); `ls` / `verify` / `gc` still
        // see the file.
        let store = temp_store("v1-file");
        let (trace, app) = sample_recording(400);
        let key = sample_key(0);
        store.publish(&key, &trace, &app, 7).expect("publish");
        let v1_file = plant_v1_file(&store, &key);
        std::fs::remove_file(store.dir().join(key.file_name())).expect("drop the current entry");
        assert!(!store.probe(&key));
        assert!(store.load(&key).is_none());
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().corrupt, 0, "missed, not misread");

        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, v1_file);
        assert!(matches!(
            store.peek(&v1_file),
            Err(StoreError::Trace(PersistError::UnsupportedVersion(1)))
        ));
        let verify = store.verify().expect("verify");
        assert!(matches!(
            verify.as_slice(),
            [(file, Err(StoreError::Trace(PersistError::UnsupportedVersion(1))))] if *file == v1_file
        ));
        assert_eq!(store.gc(0).expect("gc").evicted, vec![v1_file]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn peek_reports_codec_records_and_raw_equivalent() {
        let store = temp_store("peek");
        let (trace, app) = sample_recording(500);
        let key = sample_key(0);
        let written = store.publish(&key, &trace, &app, 1).expect("publish");
        let info = store.peek(&key.file_name()).expect("peek");
        assert_eq!(info.records, trace.len() as u64);
        // The raw-equivalent size is exact: the entry's own headers,
        // metadata and context block around 12 B per record.
        let path = store.dir().join(key.file_name());
        let mut bytes = std::fs::read(&path).expect("read entry");
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let trace_at = 24 + meta_len;
        let context_len = u32::from_le_bytes(
            bytes[trace_at + 32..trace_at + 36]
                .try_into()
                .expect("4 bytes"),
        );
        assert_eq!(
            info.raw_bytes,
            (trace_at + 48) as u64 + u64::from(context_len) + 12 * trace.len() as u64
        );
        assert!(
            written < info.raw_bytes,
            "delta-varint must beat raw on the sample stream"
        );
        // A codec word the loader would refuse, peek refuses too, with the
        // loader's error.
        bytes[trace_at + 36..trace_at + 40].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            store.peek(&key.file_name()),
            Err(StoreError::Trace(PersistError::Corrupt(msg))) if msg.contains("codec")
        ));
        assert!(matches!(
            store.verify().expect("verify").as_slice(),
            [(_, Err(StoreError::Trace(PersistError::Corrupt(msg))))] if msg.contains("codec")
        ));
        // So is a foreign entry version: peek refuses what verify refuses.
        bytes[8..12].copy_from_slice(&(STORE_ENTRY_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            store.peek(&key.file_name()),
            Err(StoreError::Corrupt(msg)) if msg.contains("unsupported entry version")
        ));
        assert!(matches!(
            store.verify().expect("verify").as_slice(),
            [(_, Err(StoreError::Corrupt(msg)))] if msg.contains("unsupported entry version")
        ));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_and_entries_credit_statted_sizes_never_index_stamps() {
        // The `index.tsv` an older build kept beside the entries is not
        // read any more: whatever it claims, sizes are statted and the
        // order is the mtimes' — and the first `gc` removes it.
        let store = temp_store("stat-sizes");
        let (trace, app) = sample_recording(1500);
        let keys = [sample_key(0), sample_key(1)];
        let published = store.publish(&keys[0], &trace, &app, 1).expect("publish");
        store.publish(&keys[1], &trace, &app, 1).expect("publish");
        // The older entry claimed enormous and freshly used, the newer one
        // ancient.
        let index = store.dir().join("index.tsv");
        let forged = format!(
            "{}\t{}\t{}\n{}\t1\t1\n",
            keys[0].file_name(),
            u64::MAX,
            u64::MAX,
            keys[1].file_name()
        );
        std::fs::write(&index, forged).expect("forge index");

        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 2, "the index is not an entry");
        assert_eq!(entries[0].file, keys[1].file_name(), "MRU by mtime");
        assert_eq!(entries[1].bytes, published, "sizes are statted");
        // A budget the real sizes fit: nothing may be evicted, whatever the
        // forged rows claim.
        let report = store.gc(2 * published).expect("gc");
        assert!(report.evicted.is_empty(), "{report:?}");
        assert_eq!(report.kept_bytes, 2 * published);
        assert!(!index.exists(), "gc removes the leftover index");
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
    fn a_metadata_length_past_the_end_of_the_entry_is_truncation() {
        // A header claiming a 4 GiB metadata block over a few bytes: the
        // bytes present bound the block, not a fixed cap, so no large block
        // is refused for its size and no huge buffer is allocated.
        let store = temp_store("meta-len");
        let key = sample_key(0);
        let mut bytes = STORE_MAGIC.to_vec();
        put_u32(&mut bytes, STORE_ENTRY_VERSION);
        put_u32(&mut bytes, u32::MAX);
        put_u64(&mut bytes, 0);
        bytes.extend_from_slice(&[0; 16]);
        std::fs::write(store.dir().join(key.file_name()), &bytes).expect("write");
        let truncation = |err: &StoreError| {
            matches!(err, StoreError::Corrupt(msg)
                if msg.contains("truncated") && msg.contains("metadata block"))
        };
        let loaded = store.try_load(&key);
        assert!(loaded.as_ref().is_err_and(truncation), "{:?}", loaded.err());
        assert!(store.peek(&key.file_name()).is_err_and(|e| truncation(&e)));
        let report = store.verify().expect("verify");
        assert!(matches!(report.as_slice(), [(_, Err(err))] if truncation(err)));
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
        // Publication order is LRU order, oldest last ...
        let order = |store: &TraceStore| -> Vec<String> {
            let entries = store.entries().expect("entries");
            entries.into_iter().map(|e| e.file).collect()
        };
        let name = |i: usize| keys[i].file_name();
        assert_eq!(order(&store), [name(2), name(1), name(0)]);
        // ... until a hit moves the oldest entry to the MRU end.
        assert!(store.load(&keys[0]).is_some());
        assert_eq!(order(&store), [name(0), name(2), name(1)]);
        // The order lives in the files' mtimes, so a second handle on the
        // directory (another process's view) sees the same one.
        let other = TraceStore::open(store.dir()).expect("second handle");
        assert_eq!(order(&other), order(&store));
        let verify = store.verify().expect("verify");
        assert!(verify.iter().all(|(_, outcome)| outcome.is_ok()));
        // Budget for one entry: the two least-recently-used are evicted,
        // least recent first.
        let report = other.gc(sizes[0] + 1).expect("gc");
        assert_eq!(report.examined, 3);
        assert_eq!(report.evicted, [name(1), name(2)]);
        assert_eq!(report.kept_bytes, sizes[0]);
        assert_eq!(store.entries().expect("entries").len(), 1);
        // gc(0) clears the store.
        let report = store.gc(0).expect("gc all");
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.kept_bytes, 0);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn stamps_keep_up_with_the_clock_and_never_repeat() {
        // Stamps are compared across processes now (they are mtimes), so
        // one may not lag the wall clock — not even a process's first.
        let wall = unix_micros(SystemTime::now());
        let first = now_unix_micros();
        let second = now_unix_micros();
        assert!(first >= wall, "{first} is behind the clock ({wall})");
        assert!(second > first);
    }

    #[test]
    fn gc_sweeps_stale_temp_files() {
        // A crashed writer's leftover: older than any publication takes.
        let store = temp_store("tmp-sweep");
        let orphan = store.dir().join(".orphan.v3.trace.tmp.999.0");
        std::fs::write(&orphan, b"junk").expect("write");
        backdate(&orphan, STALE_TEMP_AGE + Duration::from_secs(60));
        let report = store.gc(u64::MAX).expect("gc");
        assert_eq!(report.examined, 0);
        assert!(!orphan.exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_leaves_a_live_writers_temp_file_alone() {
        // A publication caught between its write and its rename — by the
        // daemon's end-of-campaign sweep, or a CLI `trace gc` — must find
        // its temp file still there.
        let store = temp_store("tmp-live");
        let key = sample_key(0);
        let (trace, app) = sample_recording(200);
        let tmp_path = store.dir().join(format!(".{}.tmp.1.0", key.file_name()));
        let mut writer = std::io::BufWriter::new(File::create(&tmp_path).expect("create"));
        write_entry(&mut writer, &trace, &app, 9).expect("write");
        drop(writer.into_inner().expect("flush"));

        let report = store.gc(0).expect("gc");
        assert_eq!(report.examined, 0, "a temp file is not an entry");
        assert!(tmp_path.exists(), "a fresh temp file survives even gc(0)");
        std::fs::rename(&tmp_path, store.dir().join(key.file_name()))
            .expect("the publication's rename still finds its file");
        assert_eq!(store.load(&key).expect("published").instructions, 9);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn publishers_racing_a_sweeper_all_land() {
        let store = temp_store("gc-race");
        let (trace, app) = sample_recording(3000);
        let keys: Vec<TraceStoreKey> = (0..8).map(sample_key).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let written: u64 = std::thread::scope(|scope| {
            let sweeper = scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    store.gc(u64::MAX).expect("gc");
                }
            });
            let publishers: Vec<_> = keys
                .iter()
                .map(|key| scope.spawn(|| store.publish(key, &trace, &app, 1).expect("publish")))
                .collect();
            // Stop the sweeper before looking at any outcome, so a failed
            // publication fails the test instead of hanging the scope.
            let outcomes: Vec<_> = publishers.into_iter().map(|p| p.join()).collect();
            done.store(true, Ordering::Release);
            sweeper.join().expect("sweeper");
            outcomes.into_iter().map(|o| o.expect("publisher")).sum()
        });
        assert_eq!(store.stats().bytes_written, written);
        assert_eq!(store.entries().expect("entries").len(), 8);
        for key in &keys {
            assert_eq!(store.load(key).expect("loadable").trace, trace);
        }
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
