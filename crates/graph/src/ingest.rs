//! Real-graph ingestion: edge lists → on-disk binary CSR → mmap-backed views.
//!
//! Synthetic generators cover the paper's *shape* of skew; real web/social
//! graphs are where GRASP's claims actually live. This module provides the
//! out-of-core path for them:
//!
//! 1. **Parallel CSR build** ([`build_csr_parallel`]) — check the endpoints
//!    once in list order, then build the two directions at the same time,
//!    each the sequential counting sort of [`Csr::from_edge_list`] on a
//!    thread of its own: private histogram and cursors, no atomics, nothing
//!    shared while a thread writes. It is the *same* code path as the
//!    sequential builder, so the result is bit-identical to it
//!    (property-tested) and everything downstream — traces, cache stats, app
//!    outputs — is independent of how the graph was built. Two is as wide
//!    as the build goes: splitting a direction over chunks of the list
//!    (per-chunk histograms, rows concatenated in chunk order) was written
//!    and measured slower than this at 4 and 8 threads on the two cores
//!    available, for one more copy of the edge columns, so it was left out
//!    until a wider machine says otherwise (ROADMAP item 5).
//!
//! 2. **On-disk binary CSR** ([`write_disk_csr`]) — a directory of
//!    little-endian column files (`out.offsets`, `out.targets`, optional
//!    `out.weights`, and the `in.*` triple) plus a self-describing
//!    checksummed header (`graph.gcsr`) in the style of the trace persist
//!    layer: magic, version, FNV-1a checksums per column, a FNV-1a **content
//!    hash** identifying the graph, and ingest-time degree-skew statistics
//!    ([`GraphStats`]: max/mean degree, Gini coefficient, hot-vertex edge
//!    mass at the paper's 90/10 threshold). Each column is walked once for
//!    both digests (two independent multiply chains cost what one costs)
//!    while a second thread converts it to bytes a block at a time and
//!    writes the file; no column is ever copied whole.
//!
//! 3. **mmap-backed view** ([`MappedCsr`]) — opens the column files with
//!    `mmap(2)` (no external crates; a buffered in-memory fallback covers
//!    non-Unix or big-endian hosts) and implements [`GraphView`], so apps,
//!    reorder techniques and campaigns consume it exactly like an in-memory
//!    [`Csr`], with bit-identical experiment results.
//!
//! Corruption is never silent: the header checksum covers every header
//! field, per-column checksums cover the payload, and structural validation
//! (monotone offsets, in-range targets) runs on [`verify_disk_csr`] /
//! [`MappedCsr::verify`]. Failures surface as typed [`DiskCsrError`] values.
//!
//! ```text
//! twitter.gcsr/
//! ├── graph.gcsr      192-byte checksummed header (layout below)
//! ├── out.offsets     (V+1) × u64 LE
//! ├── out.targets     E × u32 LE
//! ├── out.weights     E × u32 LE — omitted when weights are uniform
//! ├── in.offsets      (V+1) × u64 LE
//! ├── in.targets      E × u32 LE
//! └── in.weights      E × u32 LE — omitted when weights are uniform
//! ```

use crate::csr::{check_direction, checked_vertex_count, CsrDirection};
use crate::edgelist::EdgeList;
use crate::types::{Direction, EdgeWeight, VertexId};
use crate::view::GraphView;
use crate::{on_scoped_threads, Csr};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every binary-CSR header.
pub const GCSR_MAGIC: [u8; 8] = *b"GRSPCSR\0";

/// Newest version of the on-disk binary CSR format. Bump on layout changes.
pub const GCSR_FORMAT_VERSION: u32 = 1;

/// Name of the header file inside a `.gcsr` directory.
pub const HEADER_FILE: &str = "graph.gcsr";

/// Header flag bit: edge weights are uniform and the weight columns are
/// omitted (the common unweighted case — every weight is 1).
const FLAG_UNIFORM_WEIGHTS: u32 = 1;

/// Total header size in bytes.
const HEADER_LEN: usize = 192;

/// The column file names of a binary CSR directory, in header-table order.
pub const COLUMN_FILES: [&str; 6] = [
    "out.offsets",
    "out.targets",
    "out.weights",
    "in.offsets",
    "in.targets",
    "in.weights",
];

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv1a_of(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, bytes);
    h
}

/// Typed errors for the on-disk binary CSR format.
///
/// Every corruption mode has a distinct variant so tooling (and tests) can
/// tell "not a gcsr file" from "damaged gcsr file" from "I/O problem".
#[derive(Debug)]
pub enum DiskCsrError {
    /// The header does not start with [`GCSR_MAGIC`].
    BadMagic,
    /// The header names a format version this build cannot read.
    UnsupportedVersion(u32),
    /// A file is shorter (or longer) than the header says it should be.
    Truncated {
        /// Which file is the wrong size (header or a column file).
        file: &'static str,
        /// Expected size in bytes.
        expected: u64,
        /// Actual size in bytes.
        found: u64,
    },
    /// The header checksum does not match its contents.
    HeaderChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the header bytes.
        computed: u64,
    },
    /// A column file's contents do not match its checksum in the header.
    ColumnChecksumMismatch {
        /// Which column is damaged.
        column: &'static str,
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the column bytes.
        computed: u64,
    },
    /// The columns decode but violate a CSR structural invariant
    /// (non-monotone offsets, out-of-range target, ...).
    Corrupt(String),
    /// An I/O error occurred.
    Io(std::io::Error),
}

impl std::fmt::Display for DiskCsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskCsrError::BadMagic => write!(f, "not a binary CSR header (bad magic bytes)"),
            DiskCsrError::UnsupportedVersion(v) => write!(
                f,
                "unsupported binary CSR version {v} (this build reads versions \
                 1..={GCSR_FORMAT_VERSION})"
            ),
            DiskCsrError::Truncated {
                file,
                expected,
                found,
            } => write!(f, "{file}: expected {expected} bytes, found {found}"),
            DiskCsrError::HeaderChecksumMismatch { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            DiskCsrError::ColumnChecksumMismatch {
                column,
                stored,
                computed,
            } => write!(
                f,
                "column {column} checksum mismatch: stored {stored:#018x}, \
                 computed {computed:#018x}"
            ),
            DiskCsrError::Corrupt(msg) => write!(f, "corrupt binary CSR: {msg}"),
            DiskCsrError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DiskCsrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskCsrError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DiskCsrError {
    fn from(e: std::io::Error) -> Self {
        DiskCsrError::Io(e)
    }
}

/// Degree-skew statistics computed once at ingest time and stored in the
/// header, so `xtask graph info` never has to touch the columns.
///
/// These are the numbers GRASP's premise is built on: power-law graphs
/// concentrate edge mass on a tiny hot vertex set (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Largest out-degree of any vertex.
    pub max_out_degree: u64,
    /// Largest in-degree of any vertex.
    pub max_in_degree: u64,
    /// Mean degree (`edges / vertices`).
    pub mean_degree: f64,
    /// Gini coefficient of the out-degree distribution in `[0, 1]`
    /// (0 = perfectly regular, → 1 = all edges on one vertex).
    pub gini: f64,
    /// Fraction of out-edges owned by the hottest 10% of vertices — the
    /// paper's 90/10 skew threshold (skewed graphs score ≥ 0.9 here).
    pub hot10_edge_fraction: f64,
}

impl GraphStats {
    /// Computes the statistics from any graph backing.
    pub fn compute(graph: &dyn GraphView) -> Self {
        let n = graph.vertex_count();
        let m = graph.edge_count();
        let mut out_degrees: Vec<u64> = Vec::with_capacity(n);
        let mut max_in = 0u64;
        for v in graph.vertices() {
            out_degrees.push(graph.out_degree(v));
            max_in = max_in.max(graph.in_degree(v));
        }
        let max_out = out_degrees.iter().copied().max().unwrap_or(0);
        // Sort ascending once; both Gini and the hot-10% mass read off it.
        out_degrees.sort_unstable();
        let gini = if m == 0 {
            0.0
        } else {
            // G = (2 * Σ_{i=1..n} i·d_(i)) / (n · Σd) − (n + 1) / n,
            // with d_(i) sorted ascending and i 1-based.
            let weighted: f64 = out_degrees
                .iter()
                .enumerate()
                .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
                .sum();
            (2.0 * weighted) / (n as f64 * m as f64) - (n as f64 + 1.0) / n as f64
        };
        let hot10_edge_fraction = if m == 0 {
            0.0
        } else {
            let hot_count = n.div_ceil(10);
            let hot_mass: u64 = out_degrees.iter().rev().take(hot_count).sum();
            hot_mass as f64 / m as f64
        };
        Self {
            max_out_degree: max_out,
            max_in_degree: max_in,
            mean_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            gini,
            hot10_edge_fraction,
        }
    }
}

/// Byte length and FNV-1a checksum of one column file, as recorded in the
/// header's column table. Omitted columns record `(0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnMeta {
    /// Size of the column file in bytes.
    pub byte_len: u64,
    /// FNV-1a checksum over the column file's bytes.
    pub checksum: u64,
}

/// Decoded `graph.gcsr` header.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskCsrHeader {
    /// Format version (currently always [`GCSR_FORMAT_VERSION`]).
    pub version: u32,
    /// Number of vertices.
    pub vertex_count: u64,
    /// Number of directed edges.
    pub edge_count: u64,
    /// `Some(w)` when all edge weights equal `w` and the weight columns are
    /// omitted; `None` when explicit weight columns are present.
    pub uniform_weight: Option<EdgeWeight>,
    /// FNV-1a content hash identifying the graph (see [`write_disk_csr`]).
    pub content_hash: u64,
    /// Ingest-time degree-skew statistics.
    pub stats: GraphStats,
    /// Per-column byte lengths and checksums, in [`COLUMN_FILES`] order.
    pub columns: [ColumnMeta; 6],
}

impl DiskCsrHeader {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..8].copy_from_slice(&GCSR_MAGIC);
        buf[8..12].copy_from_slice(&self.version.to_le_bytes());
        let flags = if self.uniform_weight.is_some() {
            FLAG_UNIFORM_WEIGHTS
        } else {
            0
        };
        buf[12..16].copy_from_slice(&flags.to_le_bytes());
        buf[16..24].copy_from_slice(&self.vertex_count.to_le_bytes());
        buf[24..32].copy_from_slice(&self.edge_count.to_le_bytes());
        buf[32..36].copy_from_slice(&self.uniform_weight.unwrap_or(0).to_le_bytes());
        // buf[36..40] reserved, zero.
        buf[40..48].copy_from_slice(&self.content_hash.to_le_bytes());
        buf[48..56].copy_from_slice(&self.stats.max_out_degree.to_le_bytes());
        buf[56..64].copy_from_slice(&self.stats.max_in_degree.to_le_bytes());
        buf[64..72].copy_from_slice(&self.stats.mean_degree.to_le_bytes());
        buf[72..80].copy_from_slice(&self.stats.gini.to_le_bytes());
        buf[80..88].copy_from_slice(&self.stats.hot10_edge_fraction.to_le_bytes());
        let mut at = 88;
        for col in &self.columns {
            buf[at..at + 8].copy_from_slice(&col.byte_len.to_le_bytes());
            buf[at + 8..at + 16].copy_from_slice(&col.checksum.to_le_bytes());
            at += 16;
        }
        debug_assert_eq!(at, HEADER_LEN - 8);
        let checksum = fnv1a_of(&buf[0..HEADER_LEN - 8]);
        buf[HEADER_LEN - 8..].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8]) -> Result<Self, DiskCsrError> {
        if buf.len() != HEADER_LEN {
            return Err(DiskCsrError::Truncated {
                file: HEADER_FILE,
                expected: HEADER_LEN as u64,
                found: buf.len() as u64,
            });
        }
        if buf[0..8] != GCSR_MAGIC {
            return Err(DiskCsrError::BadMagic);
        }
        let stored = u64::from_le_bytes(buf[HEADER_LEN - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a_of(&buf[0..HEADER_LEN - 8]);
        if stored != computed {
            return Err(DiskCsrError::HeaderChecksumMismatch { stored, computed });
        }
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let f64_at = |at: usize| f64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version == 0 || version > GCSR_FORMAT_VERSION {
            return Err(DiskCsrError::UnsupportedVersion(version));
        }
        let flags = u32_at(12);
        let uniform_weight = if flags & FLAG_UNIFORM_WEIGHTS != 0 {
            Some(u32_at(32))
        } else {
            None
        };
        let mut columns = [ColumnMeta::default(); 6];
        for (i, col) in columns.iter_mut().enumerate() {
            col.byte_len = u64_at(88 + i * 16);
            col.checksum = u64_at(96 + i * 16);
        }
        Ok(Self {
            version,
            vertex_count: u64_at(16),
            edge_count: u64_at(24),
            uniform_weight,
            content_hash: u64_at(40),
            stats: GraphStats {
                max_out_degree: u64_at(48),
                max_in_degree: u64_at(56),
                mean_degree: f64_at(64),
                gini: f64_at(72),
                hot10_edge_fraction: f64_at(80),
            },
            columns,
        })
    }
}

/// Summary returned by the ingestion entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Directory the binary CSR was written to.
    pub path: PathBuf,
    /// Number of vertices.
    pub vertex_count: u64,
    /// Number of directed edges.
    pub edge_count: u64,
    /// FNV-1a content hash identifying the graph.
    pub content_hash: u64,
    /// `Some(w)` when the weight columns were omitted as uniform.
    pub uniform_weight: Option<EdgeWeight>,
    /// Degree-skew statistics computed during ingest.
    pub stats: GraphStats,
    /// Total bytes written (header + columns).
    pub bytes_written: u64,
}

/// Default ingest worker count: the available parallelism capped at 8. Only
/// the text parse uses more than two: the CSR build runs one thread per
/// direction and [`write_disk_csr`] one hashing and one writing thread.
pub fn default_ingest_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Builds a [`Csr`] from an edge list, on two threads when `threads >= 2`.
///
/// The endpoints are checked once, in list order. Then the two directions
/// are built at the same time — the out-direction on the caller's thread,
/// the in-direction on a second one — each by the sequential counting sort
/// [`Csr::from_edge_list`] runs. A direction is not split any further:
/// threads past the second are not used (see the module docs).
///
/// The output is **bit-identical** to [`Csr::from_edge_list`] for every
/// input (property-tested): it is the same code per direction, so the two
/// builders differ only in wall time.
///
/// # Errors
///
/// Exactly those of [`Csr::from_edge_list`]:
/// [`EmptyGraph`](crate::GraphError::EmptyGraph) for zero vertices,
/// [`VertexOutOfBounds`](crate::GraphError::VertexOutOfBounds) naming the
/// first stray endpoint in list order.
pub fn build_csr_parallel(edges: &EdgeList, threads: usize) -> crate::Result<Csr> {
    if threads <= 1 {
        return Csr::from_edge_list(edges);
    }
    let vertex_count = checked_vertex_count(edges)?;
    let list = edges.edges();
    let directions = on_scoped_threads(Direction::BOTH, |dir| {
        CsrDirection::from_edges(vertex_count, list, dir)
    });
    let directions = directions.try_into().expect("one result per direction");
    Ok(Csr::from_directions(vertex_count, directions))
}

/// A column word — `u32` or `u64`, little-endian on disk. Private, and
/// implemented for those two only: [`DiskColumn::as_slice`] relies on every
/// bit pattern being a valid word.
trait LeWord: Copy {
    /// `[u8; size_of::<Self>()]`.
    type Bytes: AsRef<[u8]> + IntoIterator<Item = u8>;

    /// The word's on-disk bytes.
    fn to_le(self) -> Self::Bytes;

    /// The word stored as `bytes` (`size_of::<Self>()` of them).
    #[cfg(not(all(unix, target_endian = "little")))]
    fn from_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_le_word {
    ($($word:ty),*) => {$(
        impl LeWord for $word {
            type Bytes = [u8; std::mem::size_of::<$word>()];

            fn to_le(self) -> Self::Bytes {
                self.to_le_bytes()
            }

            #[cfg(not(all(unix, target_endian = "little")))]
            fn from_le(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("one word"))
            }
        }
    )*};
}
impl_le_word!(u32, u64);

/// One column of a graph about to be written: a borrowed slice of either
/// width, so the writer thread and the hashing thread can both walk it.
#[derive(Clone, Copy)]
enum Column<'a> {
    U64(&'a [u64]),
    U32(&'a [u32]),
}

impl Column<'_> {
    /// Folds the column's little-endian bytes into the graph's
    /// `content_hash` and, in the same pass, into the column's own checksum.
    /// The two FNV-1a chains are independent, so they advance together at
    /// the latency of one; the bytes come straight out of the values and are
    /// never laid out in memory.
    fn fold_into(self, content_hash: &mut u64) -> ColumnMeta {
        fn fold<T: LeWord>(values: &[T], content_hash: &mut u64) -> ColumnMeta {
            let mut content = *content_hash;
            let mut checksum = FNV_OFFSET;
            for &value in values {
                for b in value.to_le() {
                    content = (content ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                    checksum = (checksum ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
            }
            *content_hash = content;
            ColumnMeta {
                byte_len: std::mem::size_of_val(values) as u64,
                checksum,
            }
        }
        match self {
            Column::U64(values) => fold(values, content_hash),
            Column::U32(values) => fold(values, content_hash),
        }
    }

    /// Writes the column's little-endian bytes to `path`, converting one
    /// block at a time: the column is never copied whole.
    fn write_to(self, path: &Path) -> std::io::Result<()> {
        /// Values converted per `write` call.
        const BLOCK_VALUES: usize = 8 * 1024;
        fn write<T: LeWord>(path: &Path, values: &[T]) -> std::io::Result<()> {
            let word = std::mem::size_of::<T>();
            let mut file = std::fs::File::create(path)?;
            let mut block = vec![0u8; BLOCK_VALUES.min(values.len()) * word];
            for chunk in values.chunks(BLOCK_VALUES) {
                let bytes = &mut block[..std::mem::size_of_val(chunk)];
                for (slot, &value) in bytes.chunks_exact_mut(word).zip(chunk) {
                    slot.copy_from_slice(value.to_le().as_ref());
                }
                file.write_all(bytes)?;
            }
            Ok(())
        }
        match self {
            Column::U64(values) => write(path, values),
            Column::U32(values) => write(path, values),
        }
    }
}

/// Writes `graph` as an on-disk binary CSR directory at `dir`.
///
/// The **content hash** stored in the header (and returned in the report) is
/// FNV-1a over `vertex_count`, `edge_count`, the uniform-weight flag/value
/// and every present column's little-endian bytes, in file order. Two
/// ingests of the same logical graph therefore produce the same hash — it is
/// what the dataset catalog and trace-store key use to identify the graph.
///
/// When every edge weight is the same value, the weight columns are omitted
/// and the value is recorded in the header instead (`uniform_weight`) — for
/// unweighted graphs this cuts the edge payload by a third.
///
/// The column files are written on a second thread while the caller's
/// hashes them; there is no thread argument, so this holds for
/// `ingest_file(.., 1)` too.
///
/// # Errors
///
/// Returns [`GraphError::Io`](crate::GraphError::Io) on filesystem failures.
pub fn write_disk_csr(graph: &Csr, dir: &Path) -> crate::Result<IngestReport> {
    std::fs::create_dir_all(dir)?;
    let out_weights = graph.raw_columns(Direction::Out).2;
    let uniform_weight = match out_weights.first() {
        None => Some(1),
        Some(&w) if out_weights.iter().all(|&x| x == w) => Some(w),
        Some(_) => None,
    };

    let mut content_hash = FNV_OFFSET;
    fnv1a(
        &mut content_hash,
        &(graph.vertex_count() as u64).to_le_bytes(),
    );
    fnv1a(&mut content_hash, &graph.edge_count().to_le_bytes());
    match uniform_weight {
        Some(w) => {
            fnv1a(&mut content_hash, &[1]);
            fnv1a(&mut content_hash, &w.to_le_bytes());
        }
        None => fnv1a(&mut content_hash, &[0]),
    }
    let explicit = uniform_weight.is_none();
    let columns: [Option<Column>; 6] = Direction::BOTH
        .map(|dir| {
            let (offsets, targets, weights) = graph.raw_columns(dir);
            let weights = explicit.then_some(Column::U32(weights));
            [
                Some(Column::U64(offsets)),
                Some(Column::U32(targets)),
                weights,
            ]
        })
        .as_flattened()
        .try_into()
        .expect("three columns per direction");
    // Hashing is one serial multiply chain over every byte and writing is
    // page-cache copies and syscalls: neither needs the other's output, so
    // the files are written on a second thread while this one hashes.
    let (columns, written) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> std::io::Result<()> {
            for (column, name) in columns.iter().zip(COLUMN_FILES) {
                let path = dir.join(name);
                match column {
                    Some(column) => column.write_to(&path)?,
                    // Stale weight columns from a previous non-uniform write
                    // would make the directory ambiguous; remove them.
                    None => match std::fs::remove_file(&path) {
                        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                        _ => {}
                    },
                }
            }
            Ok(())
        });
        let metas = columns
            .map(|column| column.map_or(ColumnMeta::default(), |c| c.fold_into(&mut content_hash)));
        let written = writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (metas, written)
    });
    written?;
    let bytes_written = HEADER_LEN as u64 + columns.iter().map(|c| c.byte_len).sum::<u64>();

    let stats = GraphStats::compute(graph);
    let header = DiskCsrHeader {
        version: GCSR_FORMAT_VERSION,
        vertex_count: graph.vertex_count() as u64,
        edge_count: graph.edge_count(),
        uniform_weight,
        content_hash,
        stats,
        columns,
    };
    // Header last, via tmp + rename: a crash mid-write leaves a directory
    // without a valid header, which open() rejects loudly, never a directory
    // that silently mixes old and new columns.
    let tmp = dir.join(format!("{HEADER_FILE}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&header.encode())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(HEADER_FILE))?;

    Ok(IngestReport {
        path: dir.to_path_buf(),
        vertex_count: graph.vertex_count() as u64,
        edge_count: graph.edge_count(),
        content_hash,
        uniform_weight,
        stats,
        bytes_written,
    })
}

/// Ingests an [`EdgeList`]: parallel CSR build + [`write_disk_csr`].
///
/// # Errors
///
/// Propagates build and I/O errors.
pub fn ingest_edge_list(
    edges: &EdgeList,
    dir: &Path,
    threads: usize,
) -> crate::Result<IngestReport> {
    let graph = build_csr_parallel(edges, threads)?;
    write_disk_csr(&graph, dir)
}

/// Ingests a text edge-list file (see [`crate::io`]) into an on-disk binary
/// CSR directory. `threads` covers the parse as well as the CSR build; a
/// count above eight per available core parses on one thread per core.
///
/// # Errors
///
/// Propagates parse, build and I/O errors.
pub fn ingest_file(src: &Path, dir: &Path, threads: usize) -> crate::Result<IngestReport> {
    let edges = crate::io::read_edge_list_file_on(src, threads)?;
    ingest_edge_list(&edges, dir, threads)
}

/// Reads and validates just the header of a binary CSR directory.
///
/// # Errors
///
/// Returns a typed [`DiskCsrError`] on any header problem.
pub fn read_header(dir: &Path) -> Result<DiskCsrHeader, DiskCsrError> {
    let bytes = std::fs::read(dir.join(HEADER_FILE))?;
    DiskCsrHeader::decode(&bytes)
}

// ---------------------------------------------------------------------------
// Column buffers: mmap on little-endian Unix, owned decode elsewhere.
// ---------------------------------------------------------------------------

#[cfg(all(unix, target_endian = "little"))]
mod mmap_sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only `mmap(2)` region over one column file. The base address is
/// page-aligned, and each column lives in its own file, so reinterpreting
/// the bytes as `u64`/`u32` slices is always correctly aligned.
#[cfg(all(unix, target_endian = "little"))]
struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

#[cfg(all(unix, target_endian = "little"))]
// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never written through,
// so sharing the pointer across threads is sound.
unsafe impl Send for MmapRegion {}
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Sync for MmapRegion {}

#[cfg(all(unix, target_endian = "little"))]
impl MmapRegion {
    fn map(file: &std::fs::File, len: usize) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        debug_assert!(len > 0, "zero-length mappings are invalid");
        // SAFETY: fd is a valid open file descriptor and len > 0; the result
        // is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == mmap_sys::map_failed() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr as *mut u8,
            len,
        })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live read-only mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped once.
        unsafe {
            mmap_sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// One on-disk column of `T` words: mmap-backed where possible, owned
/// (decoded) otherwise.
enum DiskColumn<T> {
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(MmapRegion),
    Owned(Vec<T>),
}

fn open_column(
    dir: &Path,
    index: usize,
    expected_len: u64,
) -> Result<Option<std::fs::File>, DiskCsrError> {
    let name = COLUMN_FILES[index];
    let path = dir.join(name);
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && expected_len == 0 => return Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(DiskCsrError::Truncated {
                file: name,
                expected: expected_len,
                found: 0,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let found = file.metadata()?.len();
    if found != expected_len {
        return Err(DiskCsrError::Truncated {
            file: name,
            expected: expected_len,
            found,
        });
    }
    if expected_len == 0 {
        return Ok(None);
    }
    Ok(Some(file))
}

impl<T: LeWord> DiskColumn<T> {
    fn open(dir: &Path, index: usize, expected_len: u64) -> Result<Self, DiskCsrError> {
        let Some(file) = open_column(dir, index, expected_len)? else {
            return Ok(Self::Owned(Vec::new()));
        };
        #[cfg(all(unix, target_endian = "little"))]
        {
            Ok(Self::Mapped(MmapRegion::map(&file, expected_len as usize)?))
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            let mut bytes = Vec::new();
            use std::io::Read;
            let mut file = file;
            file.read_to_end(&mut bytes)?;
            Ok(Self::Owned(
                bytes
                    .chunks_exact(std::mem::size_of::<T>())
                    .map(T::from_le)
                    .collect(),
            ))
        }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            // SAFETY: the mapping is page-aligned, its length is a multiple
            // of `size_of::<T>()` (validated against the header at open
            // time), and `T` is a `u32` or a `u64` (see `LeWord`), which on
            // this little-endian host is exactly what the file stores.
            Self::Mapped(m) => unsafe {
                std::slice::from_raw_parts(m.ptr as *const T, m.len / std::mem::size_of::<T>())
            },
            Self::Owned(v) => v,
        }
    }

    fn checksum(&self) -> u64 {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            Self::Mapped(m) => fnv1a_of(m.bytes()),
            Self::Owned(v) => {
                let mut h = FNV_OFFSET;
                for x in v {
                    fnv1a(&mut h, x.to_le().as_ref());
                }
                h
            }
        }
    }
}

/// An mmap-backed binary CSR graph: the out-of-core counterpart of [`Csr`].
///
/// Opening is cheap — the header is checksum-verified and every column file's
/// size is checked, but the column *contents* are only faulted in as the
/// computation touches them. Run [`MappedCsr::verify`] (or
/// [`verify_disk_csr`]) for a full checksum + structural pass.
///
/// Implements [`GraphView`], so it drops into every app, reorder technique
/// and campaign exactly like an in-memory CSR, with bit-identical results.
/// Like [`Csr`], it holds its two directions as one two-element array of one
/// per-direction type (the three column files of that direction), so each
/// query, check and checksum is written once.
pub struct MappedCsr {
    dir: PathBuf,
    header: DiskCsrHeader,
    vertex_count: usize,
    /// The out- and in-edge columns, at their [`Direction::index`].
    directions: [DiskDirection; 2],
    /// Shared weight slice served for every vertex when weights are uniform:
    /// `uniform_weights[..degree(v)]`. Sized to the maximum degree.
    uniform_weights: Vec<EdgeWeight>,
}

/// The column files of one direction of a `.gcsr` directory.
struct DiskDirection {
    offsets: DiskColumn<u64>,
    targets: DiskColumn<u32>,
    /// `None` when the header records uniform weights.
    weights: Option<DiskColumn<u32>>,
}

impl DiskDirection {
    /// Where `v`'s edges sit in the targets and weights columns.
    #[inline]
    fn edges(&self, v: VertexId) -> std::ops::Range<usize> {
        let offsets = self.offsets.as_slice();
        offsets[v as usize] as usize..offsets[v as usize + 1] as usize
    }
}

impl std::fmt::Debug for MappedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCsr")
            .field("dir", &self.dir)
            .field("vertex_count", &self.header.vertex_count)
            .field("edge_count", &self.header.edge_count)
            .field(
                "content_hash",
                &format_args!("{:#018x}", self.header.content_hash),
            )
            .finish_non_exhaustive()
    }
}

/// The byte lengths of one direction's offsets, targets and weights columns
/// (the same for both directions), checked against the header's table.
fn expected_column_lens(header: &DiskCsrHeader) -> Result<[u64; 3], DiskCsrError> {
    let (v, e) = (header.vertex_count, header.edge_count);
    let overflow = || DiskCsrError::Corrupt(format!("counts overflow: {v} vertices, {e} edges"));
    if v > u64::from(VertexId::MAX) + 1 {
        return Err(overflow());
    }
    let offsets_len = (v + 1).checked_mul(8).ok_or_else(overflow)?;
    let targets_len = e.checked_mul(4).ok_or_else(overflow)?;
    let weights_len = header.uniform_weight.map_or(targets_len, |_| 0);
    let expected = [offsets_len, targets_len, weights_len];
    for ((&want, col), name) in expected
        .iter()
        .cycle()
        .zip(&header.columns)
        .zip(COLUMN_FILES)
    {
        if col.byte_len != want {
            return Err(DiskCsrError::Corrupt(format!(
                "header column table disagrees with counts: {name} records {} bytes, \
                 counts imply {want}",
                col.byte_len
            )));
        }
    }
    Ok(expected)
}

impl MappedCsr {
    /// Opens a binary CSR directory written by [`write_disk_csr`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DiskCsrError`] when the header is missing, damaged
    /// or version-incompatible, or any column file has the wrong size.
    pub fn open(dir: &Path) -> Result<Self, DiskCsrError> {
        let header = read_header(dir)?;
        if header.vertex_count == 0 {
            return Err(DiskCsrError::Corrupt("zero vertex count".into()));
        }
        let vertex_count = usize::try_from(header.vertex_count)
            .map_err(|_| DiskCsrError::Corrupt("vertex count exceeds usize".into()))?;
        let lens = expected_column_lens(&header)?;
        let max_degree =
            usize::try_from(header.stats.max_out_degree.max(header.stats.max_in_degree))
                .map_err(|_| DiskCsrError::Corrupt("max degree exceeds usize".into()))?;
        if header.uniform_weight.is_some() && max_degree as u64 > header.edge_count {
            return Err(DiskCsrError::Corrupt(
                "header max degree exceeds edge count".into(),
            ));
        }
        let weighted = header.uniform_weight.is_none();
        // Columns open in file order, so the first bad file is the one named.
        let open = |first: usize| -> Result<DiskDirection, DiskCsrError> {
            Ok(DiskDirection {
                offsets: DiskColumn::open(dir, first, lens[0])?,
                targets: DiskColumn::open(dir, first + 1, lens[1])?,
                weights: weighted
                    .then(|| DiskColumn::open(dir, first + 2, lens[2]))
                    .transpose()?,
            })
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            vertex_count,
            directions: [open(0)?, open(3)?],
            // `check_structure` holds every degree to this column's length.
            uniform_weights: header
                .uniform_weight
                .map_or_else(Vec::new, |w| vec![w; max_degree]),
            header,
        })
    }

    /// Full integrity pass: every column checksum, then
    /// [`MappedCsr::check_structure`]. Reads every byte of every column.
    ///
    /// # Errors
    ///
    /// Returns the first typed [`DiskCsrError`] found.
    pub fn verify(&self) -> Result<(), DiskCsrError> {
        let checksums = self.directions.iter().flat_map(|d| {
            let weights = d.weights.as_ref().map_or(0, |c| c.checksum());
            [d.offsets.checksum(), d.targets.checksum(), weights]
        });
        for ((computed, meta), column) in checksums.zip(&self.header.columns).zip(COLUMN_FILES) {
            if meta.byte_len != 0 && meta.checksum != computed {
                return Err(DiskCsrError::ColumnChecksumMismatch {
                    column,
                    stored: meta.checksum,
                    computed,
                });
            }
        }
        self.check_structure()
    }

    /// The CSR structural invariants every traversal indexes by: offsets
    /// start at 0, end at the edge count and never decrease, every target
    /// is below the vertex count, and, when the weights are uniform, no
    /// degree exceeds the header's max degree (the uniform weight column is
    /// sized by it). Reads the offset and target columns but no checksum,
    /// so a flipped target that stays in range passes (only
    /// [`MappedCsr::verify`] catches that).
    ///
    /// # Errors
    ///
    /// [`DiskCsrError::Corrupt`] naming the first violation.
    pub fn check_structure(&self) -> Result<(), DiskCsrError> {
        let max_degree = self.uniform_weights.len() as u64;
        for (dir, d) in Direction::BOTH.into_iter().zip(&self.directions) {
            let offsets = d.offsets.as_slice();
            check_direction(dir, offsets, d.targets.as_slice())
                .map_err(|e| DiskCsrError::Corrupt(e.to_string()))?;
            if self.header.uniform_weight.is_some()
                && offsets.windows(2).any(|w| w[1] - w[0] > max_degree)
            {
                return Err(DiskCsrError::Corrupt(format!(
                    "an {dir} degree exceeds the header's max degree {max_degree}"
                )));
            }
        }
        Ok(())
    }

    #[inline]
    fn direction(&self, dir: Direction) -> &DiskDirection {
        &self.directions[dir.index()]
    }
}

impl GraphView for MappedCsr {
    fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    fn edge_count(&self) -> u64 {
        self.header.edge_count
    }

    fn degree(&self, v: VertexId, dir: Direction) -> u64 {
        let offsets = self.direction(dir).offsets.as_slice();
        offsets[v as usize + 1] - offsets[v as usize]
    }

    fn neighbors(&self, v: VertexId, dir: Direction) -> &[VertexId] {
        let d = self.direction(dir);
        &d.targets.as_slice()[d.edges(v)]
    }

    fn weights(&self, v: VertexId, dir: Direction) -> &[EdgeWeight] {
        let d = self.direction(dir);
        match &d.weights {
            Some(col) => &col.as_slice()[d.edges(v)],
            None => &self.uniform_weights[..self.degree(v, dir) as usize],
        }
    }

    fn edge_offset(&self, v: VertexId, dir: Direction) -> u64 {
        self.direction(dir).offsets.as_slice()[v as usize]
    }
}

/// Standalone full verification of a binary CSR directory: header checksum,
/// column sizes, column checksums, structural invariants.
///
/// # Errors
///
/// Returns the first typed [`DiskCsrError`] found.
pub fn verify_disk_csr(dir: &Path) -> Result<DiskCsrHeader, DiskCsrError> {
    let mapped = MappedCsr::open(dir)?;
    mapped.verify()?;
    Ok(mapped.header.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GraphGenerator, Rmat};
    use crate::types::Edge;
    use crate::GraphError;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grasp_ingest_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn skewed_edge_list() -> EdgeList {
        let mut el = EdgeList::new(64);
        // A hub-heavy little graph with self-loops and duplicate edges.
        for i in 0..64u32 {
            el.push(i % 8, (i * 7) % 64).unwrap();
            el.push(0, i).unwrap();
        }
        el.push(5, 5).unwrap();
        el.push(0, 1).unwrap();
        el.push(0, 1).unwrap();
        el
    }

    fn graphs_bit_identical(a: &dyn GraphView, b: &dyn GraphView) -> bool {
        if a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() {
            return false;
        }
        a.vertices().all(|v| {
            a.out_neighbors(v) == b.out_neighbors(v)
                && a.in_neighbors(v) == b.in_neighbors(v)
                && a.out_weights(v) == b.out_weights(v)
                && a.in_weights(v) == b.in_weights(v)
                && Direction::BOTH
                    .into_iter()
                    .all(|dir| a.edge_offset(v, dir) == b.edge_offset(v, dir))
        })
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let el = skewed_edge_list();
        let seq = Csr::from_edge_list(&el).unwrap();
        for threads in [2, 3, 8] {
            let par = build_csr_parallel(&el, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_handles_sparse_id_space() {
        // from_iter derives vertex_count = max endpoint + 1, leaving a large
        // tail of isolated vertices — both builders must agree.
        let sparse: EdgeList = [Edge::new(0, 1), Edge::new(9, 0), Edge::new(40, 40)]
            .into_iter()
            .collect();
        assert_eq!(
            build_csr_parallel(&sparse, 4).unwrap(),
            Csr::from_edge_list(&sparse).unwrap()
        );
    }

    #[test]
    fn empty_vertex_set_is_rejected() {
        let el = EdgeList::new(0);
        assert!(matches!(
            build_csr_parallel(&el, 4),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn bounds_error_is_the_first_offender_in_list_order() {
        // Two stray endpoints far apart in the list, the later one near the
        // end, where a builder that splits the list over racing workers
        // would reach it first.
        let mut list: Vec<Edge> = (0..64u32).map(|i| Edge::new(i % 8, (i * 5) % 8)).collect();
        list[9] = Edge::new(3, 77);
        list[56] = Edge::new(99, 2);
        let el = EdgeList::from_parts(8, list);
        let expected = Csr::from_edge_list(&el).unwrap_err().to_string();
        assert!(expected.contains("vertex 77"), "{expected}");
        for threads in 2..=8 {
            for _ in 0..50 {
                let err = build_csr_parallel(&el, threads).unwrap_err();
                assert!(matches!(
                    err,
                    GraphError::VertexOutOfBounds {
                        vertex: 77,
                        vertex_count: 8
                    }
                ));
                assert_eq!(err.to_string(), expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn round_trip_mapped_and_in_memory() {
        let dir = temp_dir("round_trip");
        let el = skewed_edge_list();
        let report = ingest_edge_list(&el, &dir, 4).unwrap();
        assert_eq!(report.uniform_weight, Some(1));

        let reference = Csr::from_edge_list(&el).unwrap();
        let mapped = MappedCsr::open(&dir).unwrap();
        assert!(graphs_bit_identical(&reference, &mapped));
        assert_eq!(read_header(&dir).unwrap().content_hash, report.content_hash);
        mapped.verify().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn weighted_graphs_keep_explicit_columns() {
        let dir = temp_dir("weighted");
        let mut el = EdgeList::new(8);
        for i in 0..8u32 {
            el.push_weighted(i, (i + 1) % 8, i + 1).unwrap();
        }
        let report = ingest_edge_list(&el, &dir, 2).unwrap();
        assert_eq!(report.uniform_weight, None);
        assert!(dir.join("out.weights").exists());

        let reference = Csr::from_edge_list(&el).unwrap();
        let mapped = MappedCsr::open(&dir).unwrap();
        assert!(graphs_bit_identical(&reference, &mapped));
        mapped.verify().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edgeless_graph_round_trips() {
        let dir = temp_dir("edgeless");
        let el = EdgeList::new(5);
        ingest_edge_list(&el, &dir, 2).unwrap();
        let mapped = MappedCsr::open(&dir).unwrap();
        assert_eq!(mapped.vertex_count(), 5);
        assert_eq!(mapped.edge_count(), 0);
        assert_eq!(mapped.out_neighbors(4), &[] as &[VertexId]);
        mapped.verify().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let dir_a = temp_dir("hash_a");
        let dir_b = temp_dir("hash_b");
        let el = skewed_edge_list();
        let a = ingest_edge_list(&el, &dir_a, 1).unwrap();
        let b = ingest_edge_list(&el, &dir_b, 8).unwrap();
        assert_eq!(
            a.content_hash, b.content_hash,
            "hash must not depend on threads"
        );

        let mut other = skewed_edge_list();
        other.push(63, 62).unwrap();
        let c = ingest_edge_list(&other, &dir_b, 4).unwrap();
        assert_ne!(a.content_hash, c.content_hash);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn stats_capture_skew() {
        let graph = Rmat::new(8, 8).generate(7);
        let stats = GraphStats::compute(&graph);
        assert!(stats.max_out_degree >= 1);
        assert!((stats.mean_degree - graph.average_degree()).abs() < 1e-12);
        assert!(
            stats.gini > 0.3,
            "R-MAT should be skewed, gini={}",
            stats.gini
        );
        assert!(stats.hot10_edge_fraction > 0.3);
        assert!(stats.hot10_edge_fraction <= 1.0);

        // A ring is perfectly regular: gini 0, hot-10% mass exactly 10%.
        let ring = crate::csr::csr_of((0..10u32).map(|v| (v, (v + 1) % 10)));
        let ring_stats = GraphStats::compute(&ring);
        assert!(ring_stats.gini.abs() < 1e-12);
        assert!((ring_stats.hot10_edge_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn truncated_column_is_typed() {
        let dir = temp_dir("truncated");
        ingest_edge_list(&skewed_edge_list(), &dir, 2).unwrap();
        let path = dir.join("out.targets");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            MappedCsr::open(&dir),
            Err(DiskCsrError::Truncated {
                file: "out.targets",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_column_is_typed() {
        let dir = temp_dir("missing");
        ingest_edge_list(&skewed_edge_list(), &dir, 2).unwrap();
        std::fs::remove_file(dir.join("in.offsets")).unwrap();
        assert!(matches!(
            MappedCsr::open(&dir),
            Err(DiskCsrError::Truncated {
                file: "in.offsets",
                found: 0,
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_header_is_typed() {
        let dir = temp_dir("hdr_flip");
        ingest_edge_list(&skewed_edge_list(), &dir, 2).unwrap();
        let path = dir.join(HEADER_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MappedCsr::open(&dir),
            Err(DiskCsrError::HeaderChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let dir = temp_dir("magic");
        ingest_edge_list(&skewed_edge_list(), &dir, 2).unwrap();
        let path = dir.join(HEADER_FILE);
        let good = std::fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(MappedCsr::open(&dir), Err(DiskCsrError::BadMagic)));

        // A future version with a correct checksum must be refused.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&(GCSR_FORMAT_VERSION + 1).to_le_bytes());
        let checksum = fnv1a_of(&future[0..HEADER_LEN - 8]);
        future[HEADER_LEN - 8..].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            MappedCsr::open(&dir),
            Err(DiskCsrError::UnsupportedVersion(v)) if v == GCSR_FORMAT_VERSION + 1
        ));

        // Counts whose column sizes overflow, checksum recomputed: a vertex
        // count past the id space (zero-length offset columns, which is
        // what `(u64::MAX + 1) * 8` wraps to), and an edge count whose
        // target column size does not fit a u64.
        let forge = |count_at: usize, zero_offsets: bool| {
            let mut forged = good.clone();
            forged[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            if zero_offsets {
                for len_at in [88, 88 + 3 * 16] {
                    forged[len_at..len_at + 8].fill(0);
                }
            }
            let checksum = fnv1a_of(&forged[0..HEADER_LEN - 8]);
            forged[HEADER_LEN - 8..].copy_from_slice(&checksum.to_le_bytes());
            forged
        };
        for forged in [forge(16, true), forge(24, false)] {
            std::fs::write(&path, &forged).unwrap();
            assert!(matches!(
                MappedCsr::open(&dir),
                Err(DiskCsrError::Corrupt(_))
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn understated_max_degree_fails_the_structural_check() {
        // A header whose max degree is below a real degree, checksum
        // recomputed (or left behind by a crash between the column writes
        // and the header rename): uniform weights are served as a prefix
        // of a column sized by it, so a weight read would panic.
        let dir = temp_dir("max_degree");
        ingest_edge_list(&skewed_edge_list(), &dir, 2).unwrap();
        MappedCsr::open(&dir).unwrap().check_structure().unwrap();
        let mut header = read_header(&dir).unwrap();
        assert!(header.uniform_weight.is_some());
        let lowered = header.stats.max_out_degree.max(header.stats.max_in_degree) - 1;
        header.stats.max_out_degree = lowered;
        header.stats.max_in_degree = lowered;
        std::fs::write(dir.join(HEADER_FILE), header.encode()).unwrap();
        let mapped = MappedCsr::open(&dir).unwrap();
        assert!(matches!(
            mapped.check_structure(),
            Err(DiskCsrError::Corrupt(msg)) if msg.contains("max degree")
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_column_fails_verify_and_load() {
        let dir = temp_dir("col_flip");
        ingest_edge_list(&skewed_edge_list(), &dir, 2).unwrap();
        let path = dir.join("in.targets");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mapped = MappedCsr::open(&dir).unwrap();
        // The flipped target stays in range: only the checksum sees it.
        assert!(mapped.check_structure().is_ok());
        assert!(matches!(
            mapped.verify(),
            Err(DiskCsrError::ColumnChecksumMismatch {
                column: "in.targets",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rmat_round_trip_through_files() {
        let dir = temp_dir("rmat");
        let graph = Rmat::new(9, 8).generate(3);
        let report = write_disk_csr(&graph, &dir).unwrap();
        assert_eq!(report.edge_count, graph.edge_count());

        let mapped = MappedCsr::open(&dir).unwrap();
        assert!(graphs_bit_identical(&graph, &mapped));
        mapped.verify().unwrap();
        // Skew stats in the header match a fresh computation.
        assert_eq!(
            read_header(&dir).unwrap().stats,
            GraphStats::compute(&graph)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_file_text_and_binary() {
        let dir = temp_dir("files");
        let el = skewed_edge_list();
        let txt = dir.join("edges.txt");
        crate::io::write_edge_list_file(&txt, &el).unwrap();
        let out_a = dir.join("a.gcsr");
        let a = ingest_file(&txt, &out_a, 2).unwrap();

        assert_eq!(a.edge_count, el.edge_count() as u64);
        let mapped = MappedCsr::open(&out_a).unwrap();
        mapped.verify().unwrap();
        assert!(graphs_bit_identical(
            &Csr::from_edge_list(&el).unwrap(),
            &mapped
        ));

        // An edge list in the retired `GRASPEL1` binary format (header, then
        // one `(src, dst, weight)` triple) is a typed error, and nothing is
        // written for it.
        let bin = dir.join("edges.bin");
        let mut bytes = b"GRASPEL1".to_vec();
        bytes.extend(2u64.to_le_bytes());
        bytes.extend(1u64.to_le_bytes());
        bytes.extend([0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]);
        std::fs::write(&bin, &bytes).unwrap();
        let out_b = dir.join("b.gcsr");
        assert!(matches!(
            ingest_file(&bin, &out_b, 2),
            Err(GraphError::Format(_))
        ));
        assert!(crate::io::read_edge_list_file(&bin).is_err());
        assert!(!out_b.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
