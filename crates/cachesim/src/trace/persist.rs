//! The versioned on-disk trace format: spill a recorded [`LlcTrace`] to a
//! byte stream and load it back bit-identically.
//!
//! A persisted trace is a self-describing binary file:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────────┐
//! │ header (48 bytes, little-endian)                                     │
//! │   0  magic          8 B   "GRSPTRC\0"                                │
//! │   8  version        u32   4 — the only version this build reads      │
//! │  12  chunk_records  u32   records per full chunk (CHUNK_RECORDS)     │
//! │  16  record_count   u64   total events                               │
//! │  24  demand_count   u64   demand events (≤ record_count)             │
//! │  32  context_len    u32   bytes of the context block                 │
//! │  36  codec          u32   1 — the delta-varint body below            │
//! │  40  checksum       u64   XXH64 over header (checksum zeroed),       │
//! │                           context block and chunk payload            │
//! ├──────────────────────────────────────────────────────────────────────┤
//! │ context block: RecordContext — L1 stats, L2 stats, ABR bounds        │
//! ├──────────────────────────────────────────────────────────────────────┤
//! │ chunk payload, in stream order, one frame per chunk (see below)      │
//! └──────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! # Body
//!
//! The body is encoded per chunk, per column, as **delta + varint** frames:
//! each chunk is a `u32` frame length followed by that many payload bytes,
//! holding
//! 1. the **address column** as zigzag-encoded wrapping deltas in LEB128
//!    varints (graph-analytics streams are heavily clustered, so most
//!    deltas fit 1–3 bytes; the delta state resets at every chunk
//!    boundary, keeping chunks independently decodable),
//! 2. the **metadata column** as a per-chunk dictionary (the distinct
//!    kind/flag/region/site words in first-occurrence order, LEB128)
//!    followed by one `⌈log₂ dict⌉`-bit index per record, bit-packed
//!    LSB-first (the column's cardinality is tiny — a handful of sites ×
//!    event kinds — so indices cost a fraction of a byte).
//!
//! Every frame holds [`CHUNK_RECORDS`] records, the last one the remainder,
//! and decodes as one unit straight onto the end of the trace's two columns —
//! no per-event materialization, no re-push through the recording path — so
//! the loaded trace compares equal (`==`) to the trace that was written and
//! replays exactly like a freshly recorded one.
//!
//! [`TraceHeader::read`] is the one decoder of the header, and it checks the
//! version first: any other version — the raw 12 B/record v1 layout, the
//! hint-carrying v2 words and the FNV-1a-checksummed v3 files of old stores
//! included — is [`PersistError::UnsupportedVersion`], and a codec word other
//! than 1 is [`PersistError::Corrupt`]. A metadata word carries no reuse hint
//! (the LLC that replays a trace derives it from the context's ABR bounds)
//! and sets none of its undefined bits (1–2 and 8–15), and the context holds
//! at most [`MAX_ABR_PAIRS`] bound pairs, none inverted.
//!
//! Corruption is never silent: the checksum covers the header (with the
//! checksum field zeroed), the context block and the chunk payload — frame
//! lengths included — so a truncated, bit-flipped or short-read file
//! surfaces as a typed [`PersistError`] — a successful load is byte-for-byte
//! the trace that was saved (property-tested in
//! `tests/persist_properties.rs`).
//!
//! # Speed
//!
//! Loading works a word at a time: the checksum is XXH64 ([`StripeHash`],
//! four lanes over 32-byte stripes, where v3's FNV-1a paid a multiply per
//! byte; v4 changed nothing else), a varint is decoded from one unaligned
//! 8-byte load, and metadata indices are unpacked from whole words into
//! reserved columns. The encoder stores varints and indices a word at a time.

use super::{count_demand_records, meta_is_valid, LlcTrace, RecordContext, CHUNK_RECORDS};
use crate::addr::Address;
use crate::hint::MAX_ABR_PAIRS;
use crate::request::RegionLabel;
use crate::stats::CacheStats;
use std::collections::HashMap;
use std::io::{Read, Write};

pub use super::hash::{Fnv64, StripeHash};

/// Magic bytes opening every persisted trace.
pub const TRACE_MAGIC: [u8; 8] = *b"GRSPTRC\0";

/// The version of the on-disk trace format: what writers emit and the only
/// one loaders read. Bump on any layout change (3: metadata words lost the
/// reuse hint; 4: the checksum became XXH64).
pub const TRACE_FORMAT_VERSION: u32 = 4;

const HEADER_LEN: usize = 48;
/// Header word 36: the body encoding. The delta-varint frames are the one
/// there is; the word stays so a future encoding is a new code, not a new
/// format version.
const BODY_CODEC: u32 = 1;
/// Upper bound on the context block (the ABR bound list is tiny in practice;
/// anything near this limit is corruption, not data).
const MAX_CONTEXT_LEN: u32 = 1 << 24;

/// The fields of a trace header that vary from trace to trace; magic,
/// version, chunk geometry and codec word are constants a reader checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Records in the trace.
    pub records: usize,
    /// Demand records among them.
    pub demand_records: usize,
    /// Bytes of the context block behind the header.
    pub context_len: u32,
    /// XXH64 over the header (this field zeroed), context block and chunk
    /// payload.
    pub checksum: u64,
}

impl TraceHeader {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&TRACE_MAGIC);
        header[8..12].copy_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(CHUNK_RECORDS as u32).to_le_bytes());
        header[16..24].copy_from_slice(&(self.records as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(self.demand_records as u64).to_le_bytes());
        header[32..36].copy_from_slice(&self.context_len.to_le_bytes());
        header[36..40].copy_from_slice(&BODY_CODEC.to_le_bytes());
        header[40..48].copy_from_slice(&self.checksum.to_le_bytes());
        header
    }

    /// Reads the 48-byte header at the front of `reader` — the one decoder
    /// of its fields — and checks, in this order, the magic, the version,
    /// the chunk geometry, the demand count against the record count, the
    /// context length and the codec word. [`LlcTrace::read_from`] and the
    /// trace store's entry listing both read a header through it.
    pub fn read(reader: &mut impl Read) -> Result<Self, PersistError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact(reader, &mut header, "header")?;
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let long = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));

        let magic: [u8; 8] = header[0..8].try_into().expect("8 bytes");
        if magic != TRACE_MAGIC {
            return Err(PersistError::BadMagic(magic));
        }
        let version = word(8);
        if version != TRACE_FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let chunk_records = word(12);
        if chunk_records as usize != CHUNK_RECORDS {
            return Err(PersistError::IncompatibleChunkSize {
                found: chunk_records,
                expected: CHUNK_RECORDS as u32,
            });
        }
        let (records, demand_records) = (long(16), long(24));
        if demand_records > records {
            return Err(PersistError::Corrupt(format!(
                "demand count {demand_records} exceeds record count {records}"
            )));
        }
        let records = usize::try_from(records)
            .map_err(|_| PersistError::Corrupt("record count exceeds usize".to_owned()))?;
        let context_len = word(32);
        if context_len > MAX_CONTEXT_LEN {
            return Err(PersistError::Corrupt(format!(
                "context block of {context_len} bytes is implausibly large"
            )));
        }
        let codec = word(36);
        if codec != BODY_CODEC {
            return Err(PersistError::Corrupt(format!(
                "unknown codec {codec} in a v{version} file"
            )));
        }
        Ok(Self {
            records,
            demand_records: demand_records as usize,
            context_len,
            checksum: long(40),
        })
    }
}

/// Why a persisted trace could not be read (or written).
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O failure (reading, writing, renaming).
    Io(std::io::Error),
    /// The file does not start with [`TRACE_MAGIC`] — not a trace file.
    BadMagic([u8; 8]),
    /// The file was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The file's frame size does not match this build's [`CHUNK_RECORDS`],
    /// so its frames cannot be told apart.
    IncompatibleChunkSize {
        /// Records per chunk recorded in the file.
        found: u32,
        /// Records per chunk this build expects.
        expected: u32,
    },
    /// The stream ended before the declared payload was read.
    Truncated {
        /// What was being read when the stream ran dry.
        while_reading: &'static str,
    },
    /// The checksum over header, context and payload did not match.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed over the bytes actually read.
        computed: u64,
    },
    /// A structurally invalid field (impossible counts, lengths, varints or
    /// dictionary indices).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "trace i/o error: {err}"),
            PersistError::BadMagic(found) => {
                write!(f, "not a trace file (magic {found:02x?})")
            }
            PersistError::UnsupportedVersion(found) => write!(
                f,
                "unsupported trace format version {found} (this build reads \
                 version {TRACE_FORMAT_VERSION})"
            ),
            PersistError::IncompatibleChunkSize { found, expected } => write!(
                f,
                "incompatible chunk size: file has {found} records/chunk, \
                 this build uses {expected}"
            ),
            PersistError::Truncated { while_reading } => {
                write!(f, "trace file truncated while reading {while_reading}")
            }
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        PersistError::Io(err)
    }
}

fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

// ---- varint / zigzag / bit-packing primitives of the delta-varint codec ----

/// Maps a wrapping delta to a small varint for small forward *and* backward
/// jumps: +1 → 2, −1 → 1, +64 → 128.
#[inline]
fn zigzag(delta: u64) -> u64 {
    let signed = delta as i64;
    ((signed << 1) ^ (signed >> 63)) as u64
}

#[inline]
fn unzigzag(encoded: u64) -> u64 {
    (encoded >> 1) ^ (encoded & 1).wrapping_neg()
}

/// Spreads the low 56 bits of `value` over eight bytes, 7-bit group `k` in
/// byte `k` with its continuation bit clear — the inverse of
/// [`gather_groups`].
#[inline(always)]
fn spread_groups(value: u64) -> u64 {
    let x = (value & 0x0000_0000_0fff_ffff) | ((value & 0x00ff_ffff_f000_0000) << 4);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1)
}

/// Compacts the 7-bit groups of the eight bytes of `word` (continuation bits
/// dropped) into one 56-bit value.
#[inline(always)]
fn gather_groups(word: u64) -> u64 {
    let x = word & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// Stores `value` as a LEB128 varint (1–10 bytes) at `out[*pos..]`,
/// advancing the cursor. A varint of up to 8 bytes is one 8-byte store, so
/// `out` must extend 8 bytes past the encoding's end; the bytes past the
/// varint are overwritten by the next store or cut off with the slack.
#[inline]
fn put_varint(out: &mut [u8], pos: &mut usize, mut value: u64) {
    let len = (u64::BITS - (value | 1).leading_zeros()).div_ceil(7) as usize;
    if len <= 8 {
        let continuation = 0x8080_8080_8080_8080 & ((1u64 << (8 * (len - 1))) - 1);
        let word = spread_groups(value) | continuation;
        out[*pos..*pos + 8].copy_from_slice(&word.to_le_bytes());
        *pos += len;
        return;
    }
    while value >= 0x80 {
        out[*pos] = value as u8 | 0x80;
        value >>= 7;
        *pos += 1;
    }
    out[*pos] = value as u8;
    *pos += 1;
}

/// Decodes one LEB128 varint from `bytes` at `*pos`, advancing the cursor,
/// from one unaligned 8-byte load: the terminator is the lowest clear
/// continuation bit. A varint longer than 8 bytes, or one starting in the
/// last < 8 bytes of `bytes`, takes [`get_varint_bytewise`].
#[inline(always)]
fn get_varint(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, PersistError> {
    if let Some(window) = bytes.get(*pos..*pos + 8) {
        let word = u64::from_le_bytes(window.try_into().expect("8 bytes"));
        let ends = !word & 0x8080_8080_8080_8080;
        if ends != 0 {
            *pos += (ends.trailing_zeros() / 8 + 1) as usize;
            // `ends ^ (ends - 1)` keeps the bytes up to the terminator.
            return Ok(gather_groups(word & (ends ^ (ends - 1))));
        }
    }
    get_varint_bytewise(bytes, pos, what)
}

/// The byte-at-a-time LEB128 decoder behind [`get_varint`]. Every malformed
/// shape — running off the buffer, or more than 64 bits of payload — is a
/// typed [`PersistError::Corrupt`], never a panic or a silently wrapped
/// value.
#[cold]
fn get_varint_bytewise(
    bytes: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<u64, PersistError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(PersistError::Corrupt(format!(
                "chunk payload ends inside {what}"
            )));
        };
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return Err(PersistError::Corrupt(format!("varint overflow in {what}")));
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(PersistError::Corrupt(format!("varint overflow in {what}")));
        }
    }
}

/// Bits needed to index a dictionary of `len` entries (0 for a single-entry
/// dictionary: the index stream is empty, every record is entry 0).
#[inline]
fn index_width(len: usize) -> u32 {
    debug_assert!(len >= 1);
    usize::BITS - (len - 1).leading_zeros()
}

/// A little-endian cursor over the in-memory context block.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
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
            None => Err(PersistError::Corrupt(format!(
                "context block ends inside {what}"
            ))),
        }
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, PersistError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, PersistError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_cache_stats(buf: &mut Vec<u8>, stats: &CacheStats) {
    put_u64(buf, stats.accesses);
    put_u64(buf, stats.hits);
    put_u64(buf, stats.misses);
    put_u64(buf, stats.evictions);
    put_u64(buf, stats.bypasses);
    put_u64(buf, stats.prefetch_accesses);
    put_u64(buf, stats.prefetch_fills);
    put_u64(buf, stats.writeback_accesses);
    put_u64(buf, stats.writeback_hits);
    for region in RegionLabel::ALL {
        let counters = stats.region(region);
        put_u64(buf, counters.accesses);
        put_u64(buf, counters.misses);
    }
}

fn decode_cache_stats(cursor: &mut Cursor<'_>) -> Result<CacheStats, PersistError> {
    let mut stats = CacheStats::new();
    stats.accesses = cursor.u64("cache stats")?;
    stats.hits = cursor.u64("cache stats")?;
    stats.misses = cursor.u64("cache stats")?;
    stats.evictions = cursor.u64("cache stats")?;
    stats.bypasses = cursor.u64("cache stats")?;
    stats.prefetch_accesses = cursor.u64("cache stats")?;
    stats.prefetch_fills = cursor.u64("cache stats")?;
    stats.writeback_accesses = cursor.u64("cache stats")?;
    stats.writeback_hits = cursor.u64("cache stats")?;
    for region in RegionLabel::ALL {
        let accesses = cursor.u64("region counters")?;
        let misses = cursor.u64("region counters")?;
        stats.set_region_counters(region, accesses, misses);
    }
    Ok(stats)
}

fn encode_context(context: &RecordContext) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 * 152 + 4 + context.abr_bounds.len() * 16);
    encode_cache_stats(&mut buf, &context.l1);
    encode_cache_stats(&mut buf, &context.l2);
    put_u32(&mut buf, context.abr_bounds.len() as u32);
    for &(lo, hi) in &context.abr_bounds {
        put_u64(&mut buf, lo);
        put_u64(&mut buf, hi);
    }
    buf
}

fn decode_context(bytes: &[u8]) -> Result<RecordContext, PersistError> {
    let mut cursor = Cursor::new(bytes);
    let l1 = decode_cache_stats(&mut cursor)?;
    let l2 = decode_cache_stats(&mut cursor)?;
    let bound_count = cursor.u32("ABR bound count")? as usize;
    // Every replay programs its LLC stage with these bounds, so what the
    // registers cannot hold is corruption, not data.
    if bound_count > MAX_ABR_PAIRS {
        return Err(PersistError::Corrupt(format!(
            "{bound_count} ABR bound pairs, the registers hold {MAX_ABR_PAIRS}"
        )));
    }
    let mut abr_bounds = Vec::with_capacity(bound_count);
    for _ in 0..bound_count {
        let lo = cursor.u64("ABR bound")?;
        let hi = cursor.u64("ABR bound")?;
        if lo > hi {
            return Err(PersistError::Corrupt(format!(
                "ABR bound pair ends before it starts: {lo:#x} > {hi:#x}"
            )));
        }
        abr_bounds.push((lo, hi));
    }
    if !cursor.finished() {
        return Err(PersistError::Corrupt(
            "trailing bytes after the context block".to_owned(),
        ));
    }
    Ok(RecordContext { l1, l2, abr_bounds })
}

/// The per-chunk metadata dictionary under construction: the distinct words
/// in first-occurrence order, and the word → index lookup the encoder makes
/// once per record. The column's cardinality is tiny (a handful of sites ×
/// event kinds) while its length is the chunk's, so a direct-mapped memo
/// answers nearly every lookup with one compare; the hash map behind it
/// keeps the worst case (every word distinct) linear. Lives across chunks to
/// reuse its allocations.
struct MetaDictionary {
    words: Vec<u32>,
    index_of: HashMap<u32, u32>,
    /// `(word, index)` of the last word that mapped to each slot;
    /// `MEMO_EMPTY` marks a slot no word of this chunk has used.
    memo: [(u32, u32); MEMO_SLOTS],
    /// Each record's dictionary index, in record order.
    indices: Vec<u32>,
}

const MEMO_SLOTS: usize = 256;
const MEMO_EMPTY: u32 = u32::MAX;

impl MetaDictionary {
    fn new() -> Self {
        Self {
            words: Vec::new(),
            index_of: HashMap::new(),
            memo: [(0, MEMO_EMPTY); MEMO_SLOTS],
            indices: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.words.clear();
        self.index_of.clear();
        self.memo = [(0, MEMO_EMPTY); MEMO_SLOTS];
        self.indices.clear();
    }

    /// The dictionary index of `word`, appending it on first occurrence.
    #[inline]
    fn index(&mut self, word: u32) -> u32 {
        // The site field (high half) and the kind/region bits (low
        // half) both vary, so fold them before taking the top bits.
        let slot = (word ^ (word >> 16)).wrapping_mul(0x9E37_79B1)
            >> (u32::BITS - MEMO_SLOTS.trailing_zeros());
        let memo = &mut self.memo[slot as usize];
        if memo.0 == word && memo.1 != MEMO_EMPTY {
            return memo.1;
        }
        let next = self.words.len() as u32;
        let index = *self.index_of.entry(word).or_insert_with(|| {
            self.words.push(word);
            next
        });
        *memo = (word, index);
        index
    }
}

/// Serializes one chunk — the two columns of up to [`CHUNK_RECORDS`] records —
/// as a delta+varint frame, length prefix included, into the front of
/// `frame` and returns the frame's length in bytes.
/// `frame` is sized once for the worst case plus one word of slack, so the
/// varint and index loops store whole words. `frame` and `dict` carry their
/// allocations across chunks.
fn encode_frame(
    addrs: &[Address],
    meta: &[u32],
    frame: &mut Vec<u8>,
    dict: &mut MetaDictionary,
) -> usize {
    frame.resize(4 + max_frame_len(addrs.len()) + 8, 0);
    let mut pos = 4; // after the frame length, patched below

    // Address column: zigzag wrapping deltas, LEB128. The previous-address
    // state starts at 0 in every chunk, so chunks decode independently.
    let mut prev: Address = 0;
    for &addr in addrs {
        put_varint(frame, &mut pos, zigzag(addr.wrapping_sub(prev)));
        prev = addr;
    }
    // Metadata column: dictionary of distinct words in first-occurrence
    // order, then one bit-packed dictionary index per record, LSB-first.
    dict.clear();
    for &word in meta {
        let index = dict.index(word);
        dict.indices.push(index);
    }
    put_varint(frame, &mut pos, dict.words.len() as u64);
    for &word in &dict.words {
        put_varint(frame, &mut pos, u64::from(word));
    }
    if dict.words.len() > 1 {
        let width = index_width(dict.words.len());
        // Store the pending bits after every index and advance past the
        // whole bytes; a partial byte is rewritten by the next store.
        let (mut acc, mut filled) = (0u64, 0u32);
        for &index in &dict.indices {
            acc |= u64::from(index) << filled;
            filled += width;
            frame[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
            pos += (filled / 8) as usize;
            acc >>= filled & !7;
            filled &= 7;
        }
        pos += usize::from(filled > 0);
    }
    frame[0..4].copy_from_slice(&((pos - 4) as u32).to_le_bytes());
    pos
}

/// Worst-case frame payload for `records` records: 10-byte address
/// varints, a full-cardinality dictionary (≤ 5 bytes/entry) and 16-bit
/// packed indices, plus the dictionary-length varint. Anything larger in a
/// frame header is corruption, not data.
fn max_frame_len(records: usize) -> usize {
    records * (10 + 5 + 2) + 10
}

/// Rejects a metadata word no writer of this format can have produced (see
/// [`meta_is_valid`]). Replay decodes words without looking back, so this is
/// the one place a forged word — in a file whose checksum was recomputed to
/// match — is stopped.
fn check_meta(word: u32) -> Result<u32, PersistError> {
    if meta_is_valid(word) {
        Ok(word)
    } else {
        Err(PersistError::Corrupt(format!(
            "metadata word {word:#010x} encodes no record (region, kind or undefined bits)"
        )))
    }
}

fn read_exact(
    reader: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), PersistError> {
    reader.read_exact(buf).map_err(|err| {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Truncated {
                while_reading: what,
            }
        } else {
            PersistError::Io(err)
        }
    })
}

/// Reads one delta+varint frame of `records` records — its length, then its
/// payload — folds both into `hasher`, appends the payload to `body` and
/// returns the payload's length. A frame length no encoding of `records`
/// records can have is corrupt before anything is allocated for it, so
/// nothing is allocated beyond the frame's own bytes.
fn read_chunk(
    reader: &mut impl Read,
    hasher: &mut StripeHash,
    records: usize,
    body: &mut Vec<u8>,
) -> Result<usize, PersistError> {
    let mut len_bytes = [0u8; 4];
    read_exact(reader, &mut len_bytes, "chunk frame length")?;
    hasher.update(&len_bytes);
    let frame_len = u32::from_le_bytes(len_bytes) as usize;
    if (frame_len == 0 && records > 0) || frame_len > max_frame_len(records) {
        return Err(PersistError::Corrupt(format!(
            "chunk frame of {frame_len} bytes is implausible for {records} records"
        )));
    }
    let start = body.len();
    body.resize(start + frame_len, 0);
    read_exact(reader, &mut body[start..], "chunk payload")?;
    hasher.update(&body[start..]);
    Ok(frame_len)
}

/// The eight bytes of `bytes` from `at` as a little-endian word, zero past
/// the end.
#[inline(always)]
fn load_word(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let mut word = [0u8; 8];
            word[..bytes.len() - at].copy_from_slice(&bytes[at..]);
            u64::from_le_bytes(word)
        }
    }
}

/// Decompresses one frame payload of `records` records onto the end of
/// `trace`'s columns, reserved first and then appended to. Every
/// structural defect — a malformed varint, a dictionary entry that encodes
/// no record, a dictionary index past the dictionary, leftover payload
/// bytes — is a typed error.
fn decode_frame(bytes: &[u8], records: usize, trace: &mut LlcTrace) -> Result<(), PersistError> {
    trace.addrs.reserve(records);
    let mut pos = 0usize;
    let mut prev: Address = 0;
    for _ in 0..records {
        prev = prev.wrapping_add(unzigzag(get_varint(bytes, &mut pos, "address delta")?));
        trace.addrs.push(prev);
    }
    let dict_len = get_varint(bytes, &mut pos, "metadata dictionary length")? as usize;
    if dict_len == 0 || dict_len > records {
        return Err(PersistError::Corrupt(format!(
            "metadata dictionary of {dict_len} entries is implausible for {records} records"
        )));
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let word = get_varint(bytes, &mut pos, "metadata dictionary entry")?;
        let word = u32::try_from(word).map_err(|_| {
            PersistError::Corrupt("metadata dictionary entry exceeds u32".to_owned())
        })?;
        dict.push(check_meta(word)?);
    }
    let width = index_width(dict_len) as usize;
    if width == 0 {
        trace.meta.resize(trace.addrs.len(), dict[0]);
    } else {
        let index_bytes = (records * width).div_ceil(8);
        let packed = bytes.get(pos..pos + index_bytes).ok_or_else(|| {
            PersistError::Corrupt("chunk payload ends inside metadata indices".to_owned())
        })?;
        pos += index_bytes;
        let mask = (1u64 << width) - 1;
        trace.meta.reserve(records);
        for i in 0..records {
            let bit = i * width;
            let index = ((load_word(packed, bit / 8) >> (bit % 8)) & mask) as usize;
            trace.meta.push(*dict.get(index).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "metadata index {index} exceeds the {dict_len}-entry dictionary"
                ))
            })?);
        }
    }
    if pos != bytes.len() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing byte(s) after the chunk payload",
            bytes.len() - pos
        )));
    }
    Ok(())
}

impl LlcTrace {
    /// Writes the trace (records and recorded context) to `writer` in the
    /// versioned binary format — v4, delta-varint frames — and returns the
    /// number of bytes written.
    ///
    /// The checksum lands in the header, so the payload is produced before
    /// the header can be emitted. Compressed frames are expensive to
    /// produce, so they are encoded **once** into a body buffer (the
    /// compressed size — several times smaller than the in-memory trace this
    /// method is called on), hashed frame by frame while in cache, and
    /// emitted from it.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<u64, PersistError> {
        let context = encode_context(&self.context);
        let context_len = u32::try_from(context.len()).map_err(|_| {
            PersistError::Corrupt("context block exceeds u32::MAX bytes".to_owned())
        })?;
        let mut header = TraceHeader {
            records: self.len(),
            demand_records: self.demand_len(),
            context_len,
            checksum: 0,
        };

        let mut hasher = StripeHash::new();
        hasher.update(&header.encode());
        hasher.update(&context);
        let mut body = Vec::new();
        let mut frame = Vec::new();
        let mut dict = MetaDictionary::new();
        let frames = self.addrs.chunks(CHUNK_RECORDS);
        for (addrs, meta) in frames.zip(self.meta.chunks(CHUNK_RECORDS)) {
            let len = encode_frame(addrs, meta, &mut frame, &mut dict);
            hasher.update(&frame[..len]);
            body.extend_from_slice(&frame[..len]);
        }
        header.checksum = hasher.finish();
        let header = header.encode();
        writer.write_all(&header)?;
        writer.write_all(&context)?;
        writer.write_all(&body)?;
        Ok((header.len() + context.len() + body.len()) as u64)
    }

    /// Reads a persisted trace. The compressed frames are read and checked
    /// first; then each is decoded straight onto the end of the trace's two
    /// columns, allocated once at their final size — no per-event
    /// materialization, no regrowth — and the loaded trace is `==` to the
    /// written one. Every structural problem (wrong magic, foreign version,
    /// codec or chunk geometry, truncation, malformed compression, bit flips
    /// anywhere in the file) surfaces as a typed [`PersistError`]; a trace
    /// is only returned when the checksum over everything read matches.
    ///
    /// Reads exactly the persisted bytes and no further, so a trace block
    /// can be embedded inside a larger stream (the trace store appends its
    /// own metadata around it).
    pub fn read_from(reader: &mut impl Read) -> Result<LlcTrace, PersistError> {
        let header = TraceHeader::read(reader)?;
        // Every byte of a header that passed the checks is one of its
        // fields or a checked constant, so this is the header as read.
        let mut hasher = StripeHash::new();
        hasher.update(
            &TraceHeader {
                checksum: 0,
                ..header
            }
            .encode(),
        );

        let mut context_bytes = vec![0u8; header.context_len as usize];
        read_exact(reader, &mut context_bytes, "context block")?;
        hasher.update(&context_bytes);
        let context = decode_context(&context_bytes)?;

        // Every frame is read and hashed before any is decoded, so the
        // columns are sized once, after the checksum has vouched for the
        // record count. Until then the count is attacker/corruption-
        // controlled and sizes nothing: the body grows with the bytes
        // actually read, and a corrupt count dies as `Truncated` at the
        // first short frame read instead of aborting in the allocator.
        let mut body = Vec::new();
        let mut frames = Vec::new();
        let mut left = header.records;
        while left > 0 {
            let records = left.min(CHUNK_RECORDS);
            let len = read_chunk(reader, &mut hasher, records, &mut body)?;
            frames.push((len, records));
            left -= records;
        }

        let computed = hasher.finish();
        if computed != header.checksum {
            return Err(PersistError::ChecksumMismatch {
                stored: header.checksum,
                computed,
            });
        }

        let mut trace = LlcTrace {
            demand_len: header.demand_records,
            context,
            ..LlcTrace::default()
        };
        // Every record takes at least a byte of the body, so even a count a
        // forged checksum vouches for sizes nothing past the bytes read.
        let capacity = header.records.min(body.len());
        trace.addrs.reserve_exact(capacity);
        trace.meta.reserve_exact(capacity);
        let mut rest = body.as_slice();
        for (len, records) in frames {
            let (frame, tail) = rest.split_at(len);
            decode_frame(frame, records, &mut trace)?;
            rest = tail;
        }
        // The header's demand count is covered by the checksum, but cross-check
        // it against the records so a *writer* bug can never produce a trace
        // whose demand view disagrees with its stream.
        let actual_demands = count_demand_records(&trace.meta);
        if actual_demands != trace.demand_len {
            return Err(PersistError::Corrupt(format!(
                "header demand count {} disagrees with the {} demand records in the stream",
                trace.demand_len, actual_demands
            )));
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::policy::lru::Lru;
    use crate::request::AccessInfo;

    /// A mixed stream: hot/cold demand reads and writes with varying sites
    /// and regions, plus periodic writebacks.
    fn sample_trace(events: usize) -> LlcTrace {
        let mut trace = LlcTrace::new();
        for i in 0..events {
            let block = if i % 3 == 0 { i % 64 } else { 512 + i } as u64;
            let mut info = AccessInfo {
                site: (i % 11) as u16,
                region: RegionLabel::ALL[i % RegionLabel::ALL.len()],
                ..AccessInfo::read(block * 64)
            };
            if i % 5 == 0 {
                info.kind = crate::request::AccessKind::Write;
            }
            if i % 7 == 0 {
                trace.push_prefetch(&info);
            } else {
                trace.push(&info);
            }
            if i % 13 == 0 {
                trace.push_writeback(info.addr);
            }
        }
        let mut context = RecordContext::default();
        context.l1.record(RegionLabel::Property, false);
        context.l1.record(RegionLabel::EdgeArray, true);
        context.l2.record(RegionLabel::Property, false);
        context.abr_bounds = vec![(64, 1 << 20), (1 << 21, 1 << 22)];
        trace.set_context(context);
        trace
    }

    fn write_to_vec(trace: &LlcTrace) -> Vec<u8> {
        let mut bytes = Vec::new();
        let written = trace.write_to(&mut bytes).expect("write succeeds");
        assert_eq!(written as usize, bytes.len());
        bytes
    }

    #[test]
    fn roundtrip_preserves_everything_including_chunk_layout() {
        for events in [0, 1, 5, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 3] {
            let trace = sample_trace(events);
            let bytes = write_to_vec(&trace);
            let loaded = LlcTrace::read_from(&mut bytes.as_slice()).expect("roundtrip");
            assert_eq!(loaded, trace, "{events} events");
            assert_eq!(loaded.len(), trace.len());
            assert_eq!(loaded.demand_len(), trace.demand_len());
            assert_eq!(loaded.context(), trace.context());
        }
    }

    #[test]
    fn delta_varint_compresses_the_sample_stream() {
        let trace = sample_trace(50_000);
        // What the in-memory columns would occupy written out as they are:
        // 12 B/record after the same header and context block.
        let raw = HEADER_LEN + encode_context(trace.context()).len() + 12 * trace.len();
        let compressed = write_to_vec(&trace);
        assert!(
            compressed.len() * 2 < raw,
            "delta+varint must at least halve the raw size: {} vs {raw}",
            compressed.len()
        );
    }

    #[test]
    fn loaded_trace_replays_bit_identically() {
        let trace = sample_trace(4000);
        let bytes = write_to_vec(&trace);
        let loaded = LlcTrace::read_from(&mut bytes.as_slice()).expect("roundtrip");
        let config = CacheConfig::new(64 * 128, 8, 64);
        let original = trace.replay(config, Lru::new(config.sets(), config.ways));
        let reloaded = loaded.replay(config, Lru::new(config.sets(), config.ways));
        assert_eq!(original, reloaded);
    }

    /// `value`'s varint bytes, as the byte-at-a-time LEB128 loop writes them.
    fn varint_bytes(mut value: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        while value >= 0x80 {
            bytes.push(value as u8 | 0x80);
            value >>= 7;
        }
        bytes.push(value as u8);
        bytes
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for value in [0u64, 1, 63, 64, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = [0u8; 18];
            let mut len = 0;
            put_varint(&mut buf, &mut len, value);
            assert_eq!(&buf[..len], varint_bytes(value), "{value:#x}");
            let mut pos = 0;
            assert_eq!(
                get_varint(&buf[..len], &mut pos, "test").expect("decodes"),
                value
            );
            assert_eq!(pos, len);
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        // Small deltas in either direction stay small after zigzag.
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(1u64.wrapping_neg()), 1);
        assert!(zigzag(64) < 256, "a one-block stride fits two bytes");
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        // Unterminated (all-continuation) stream.
        let mut pos = 0;
        assert!(matches!(
            get_varint(&[0x80, 0x80], &mut pos, "test"),
            Err(PersistError::Corrupt(_))
        ));
        // 11-byte varint: more than 64 bits of payload.
        let mut pos = 0;
        let overlong = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(
            get_varint(&overlong, &mut pos, "test"),
            Err(PersistError::Corrupt(_))
        ));
        // u64::MAX itself must decode (10 bytes, final byte 0x01).
        let buf = varint_bytes(u64::MAX);
        assert_eq!(buf.len(), 10);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos, "test").unwrap(), u64::MAX);
        // The same shapes with eight more bytes behind them (so the word
        // path would have room) fall back to the byte loop and fail alike.
        for bad in [&overlong[..], &[0xff; 11][..]] {
            let mut padded = bad.to_vec();
            padded.extend_from_slice(&[0u8; 8]);
            let mut pos = 0;
            assert!(matches!(
                get_varint(&padded, &mut pos, "test"),
                Err(PersistError::Corrupt(msg)) if msg.contains("overflow")
            ));
        }
    }

    /// Every varint length 1–10 at both ends of its range, decoded from the
    /// end of a buffer (the byte loop) and from inside one (the word path,
    /// up to 8 bytes), and written with one store: all agree with the byte
    /// loop.
    #[test]
    fn word_varints_match_the_byte_loop_at_every_length() {
        for len in 1..=10u32 {
            let low = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let high = 1u64.checked_shl(7 * len).map_or(u64::MAX, |v| v - 1);
            for value in [low, low + 1, high - 1, high] {
                let bytes = varint_bytes(value);
                assert_eq!(bytes.len(), len as usize, "{value:#x}");
                let mut stored = [0xAAu8; 18];
                let mut end = 0;
                put_varint(&mut stored, &mut end, value);
                assert_eq!(&stored[..end], bytes, "{value:#x}");
                for trailing in 0..=8 {
                    let mut buf = bytes.clone();
                    buf.resize(bytes.len() + trailing, 0x80);
                    let mut pos = 0;
                    assert_eq!(get_varint(&buf, &mut pos, "test").unwrap(), value);
                    assert_eq!(pos, bytes.len());
                }
            }
        }
    }

    #[test]
    fn index_width_matches_dictionary_sizes() {
        assert_eq!(index_width(1), 0);
        assert_eq!(index_width(2), 1);
        assert_eq!(index_width(3), 2);
        assert_eq!(index_width(4), 2);
        assert_eq!(index_width(5), 3);
        assert_eq!(index_width(16), 4);
        assert_eq!(index_width(17), 5);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = write_to_vec(&sample_trace(10));
        bytes[0] ^= 0xFF;
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(PersistError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn foreign_version_is_rejected() {
        let mut bytes = write_to_vec(&sample_trace(10));
        bytes[8..12].copy_from_slice(&(TRACE_FORMAT_VERSION + 1).to_le_bytes());
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(PersistError::UnsupportedVersion(v)) => {
                assert_eq!(v, TRACE_FORMAT_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Version 0 is equally foreign.
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            LlcTrace::read_from(&mut bytes.as_slice()),
            Err(PersistError::UnsupportedVersion(0))
        ));
        // So is the raw v1 layout old stores hold: its 48-byte header alone
        // (reserved word 0 where v2 names its codec) is refused by version,
        // before anything behind it is read.
        let mut v1_header = [0u8; HEADER_LEN];
        v1_header[0..8].copy_from_slice(&TRACE_MAGIC);
        v1_header[8..12].copy_from_slice(&1u32.to_le_bytes());
        v1_header[12..16].copy_from_slice(&(CHUNK_RECORDS as u32).to_le_bytes());
        assert!(matches!(
            LlcTrace::read_from(&mut v1_header.as_slice()),
            Err(PersistError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn unknown_codec_in_a_v2_file_is_rejected() {
        // 99 never named a codec; 0 named v1's raw pages.
        for code in [99u32, 0] {
            let mut bytes = write_to_vec(&sample_trace(10));
            bytes[36..40].copy_from_slice(&code.to_le_bytes());
            match LlcTrace::read_from(&mut bytes.as_slice()) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains("codec"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn foreign_chunk_geometry_is_rejected() {
        let mut bytes = write_to_vec(&sample_trace(10));
        bytes[12..16].copy_from_slice(&((CHUNK_RECORDS as u32) / 2).to_le_bytes());
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(PersistError::IncompatibleChunkSize { found, expected }) => {
                assert_eq!(found as usize, CHUNK_RECORDS / 2);
                assert_eq!(expected as usize, CHUNK_RECORDS);
            }
            other => panic!("expected IncompatibleChunkSize, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_boundary() {
        let bytes = write_to_vec(&sample_trace(200));
        // Header, context and payload truncations all surface as Truncated.
        for cut in [0, 10, HEADER_LEN - 1, HEADER_LEN + 4, bytes.len() - 1] {
            match LlcTrace::read_from(&mut &bytes[..cut]) {
                Err(PersistError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_bit_flip_is_a_typed_error() {
        let mut flipped = write_to_vec(&sample_trace(500));
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(
            LlcTrace::read_from(&mut flipped.as_slice()).is_err(),
            "a flipped payload byte must never load"
        );
    }

    #[test]
    fn header_count_tampering_cannot_pass_the_checksum() {
        // Shrinking the record count re-frames the payload; the checksum
        // (which covers the header) must catch it even though the framing
        // itself stays structurally valid.
        let mut tampered = write_to_vec(&sample_trace(CHUNK_RECORDS + 100));
        tampered[16..24].copy_from_slice(&(100u64).to_le_bytes());
        tampered[24..32].copy_from_slice(&(50u64).to_le_bytes());
        assert!(
            LlcTrace::read_from(&mut tampered.as_slice()).is_err(),
            "tampered counts must never load"
        );
    }

    #[test]
    fn absurd_record_count_is_truncation_not_an_allocator_abort() {
        // `record_count` is unvalidated until the checksum passes, so the
        // reader must never size an allocation from it: a corrupted count in
        // the exabyte range has to surface as a typed error.
        let mut bytes = write_to_vec(&sample_trace(100));
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes[24..32].copy_from_slice(&0u64.to_le_bytes());
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(PersistError::Truncated { .. }) | Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn absurd_frame_length_is_corrupt_not_an_allocator_abort() {
        // The frame length is also corruption-controlled: a frame
        // claiming more bytes than any valid encoding of its records must
        // die in the plausibility check, before any allocation.
        let trace = sample_trace(50);
        let mut bytes = write_to_vec(&trace);
        let context_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        let frame_at = HEADER_LEN + context_len;
        bytes[frame_at..frame_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("frame"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn trace_block_is_embeddable_in_a_larger_stream() {
        let trace = sample_trace(150);
        let mut bytes = write_to_vec(&trace);
        let trailer = b"store metadata lives here";
        bytes.extend_from_slice(trailer);
        let mut reader = bytes.as_slice();
        let loaded = LlcTrace::read_from(&mut reader).expect("embedded read");
        assert_eq!(loaded, trace);
        assert_eq!(reader, trailer, "reader must stop exactly after the trace");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = LlcTrace::new();
        let bytes = write_to_vec(&trace);
        assert_eq!(
            bytes.len(),
            HEADER_LEN + encode_context(trace.context()).len(),
            "an empty trace has no chunk frames at all"
        );
        let loaded = LlcTrace::read_from(&mut bytes.as_slice()).expect("roundtrip");
        assert_eq!(loaded, trace);
        assert!(loaded.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let err = PersistError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(err.to_string().contains("checksum"));
        assert!(PersistError::Truncated {
            while_reading: "header"
        }
        .to_string()
        .contains("header"));
        let io: PersistError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }

    /// Ensures the demand-count cross-check rejects internally inconsistent
    /// files even when the checksum is recomputed to match (a defence against
    /// writer bugs, not just bit rot).
    #[test]
    fn consistent_checksum_with_wrong_demand_count_is_still_rejected() {
        let mut trace = sample_trace(50);
        // Corrupt the in-memory counter, then persist: the file is
        // checksum-consistent but internally wrong.
        trace.demand_len += 1;
        let bytes = write_to_vec(&trace);
        match LlcTrace::read_from(&mut bytes.as_slice()) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("demand")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The writer checksums whatever it is handed, so persisting a trace
    /// that holds a forged word yields what an attacker (or a writer bug)
    /// would: a file that is wrong *and* checksum-consistent. Today's other
    /// corruption tests flip bytes under a stale checksum and never reach
    /// the metadata column.
    #[test]
    fn forged_metadata_words_are_corrupt_under_a_valid_checksum() {
        use super::super::{META_PREFETCH_BIT, META_WRITEBACK_BIT};
        let forged = [
            5 << 3, // a region index past RegionLabel::ALL ...
            6 << 3,
            7 << 3 | META_PREFETCH_BIT,
            META_PREFETCH_BIT | META_WRITEBACK_BIT, // ... two event kinds at once ...
            1 << 8, // ... the bits between the kinds and the site ...
            1 << 8 | META_WRITEBACK_BIT,
            1 << 9,
            1 << 15,
            1 << 1, // ... and the two a v2 word kept its hint in.
            2 << 1,
        ];
        for word in forged {
            let mut trace = LlcTrace::new();
            for i in 0..10u64 {
                if i == 6 {
                    trace.push_raw(i * 64, word);
                } else {
                    trace.push(&AccessInfo {
                        site: 3,
                        ..AccessInfo::read(i * 64)
                    });
                }
            }
            trace.demand_len = count_demand_records(&trace.meta);
            let bytes = write_to_vec(&trace);
            match LlcTrace::read_from(&mut bytes.as_slice()) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains("metadata word"), "{msg}"),
                other => panic!("{word:#x}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// A context whose ABR bounds no register file holds — too many pairs,
    /// or a pair that ends before it starts — is refused under a valid
    /// checksum: every replay programs its LLC stage with those bounds.
    #[test]
    fn unprogrammable_abr_bounds_are_corrupt_under_a_valid_checksum() {
        let nine: Vec<_> = (0..9u64).map(|i| (i << 20, (i << 20) + 64)).collect();
        for (bounds, what) in [
            (nine, "ABR bound pairs"),
            (vec![(0, 64), (128, 64)], "ends before"),
        ] {
            let mut trace = sample_trace(20);
            let mut context = trace.context().clone();
            context.abr_bounds = bounds;
            trace.set_context(context);
            let bytes = write_to_vec(&trace);
            match LlcTrace::read_from(&mut bytes.as_slice()) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        // Eight pairs, one ending at the top of the address space, load.
        let mut trace = sample_trace(20);
        let mut context = trace.context().clone();
        context.abr_bounds = (0..7u64).map(|i| (i << 20, (i << 20) + 64)).collect();
        context.abr_bounds.push((u64::MAX - 64, u64::MAX));
        trace.set_context(context);
        let loaded = LlcTrace::read_from(&mut write_to_vec(&trace).as_slice()).expect("loads");
        assert_eq!(loaded, trace);
        let config = CacheConfig::new(64 * 128, 8, 64);
        let grasp = crate::policy::grasp::Grasp::new(config.sets(), config.ways, 1);
        assert_eq!(
            loaded.replay(config, grasp).llc.accesses,
            trace.demand_len() as u64
        );
    }

    /// 300 bytes: nine whole 32-byte stripes and a 12-byte tail, so the
    /// lanes, the 8-byte and the 4-byte tail steps all run.
    fn stripe_input() -> Vec<u8> {
        (0..300u32).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn checksum_is_split_independent() {
        let mut one = Fnv64::new();
        one.update(b"hello world");
        let mut two = Fnv64::new();
        two.update(b"hello");
        two.update(b" world");
        assert_eq!(one.finish(), two.finish());

        // The format's checksum: every split offset of a multi-stripe
        // buffer, inside a stripe or on its edge, one byte at a time, and
        // every pair of offsets (three pieces, so the carry buffer fills
        // across calls) give the one-shot digest.
        let bytes = stripe_input();
        let whole = StripeHash::digest(&bytes);
        for split in 0..=bytes.len() {
            let mut hasher = StripeHash::new();
            hasher.update(&bytes[..split]);
            hasher.update(&bytes[split..]);
            assert_eq!(hasher.finish(), whole, "split at {split}");
        }
        let mut bytewise = StripeHash::new();
        bytes.chunks(1).for_each(|byte| bytewise.update(byte));
        assert_eq!(bytewise.finish(), whole);
        let bytes = &bytes[..100];
        let whole = StripeHash::digest(bytes);
        for first in 0..=bytes.len() {
            for second in first..=bytes.len() {
                let mut hasher = StripeHash::new();
                hasher.update(&bytes[..first]);
                hasher.update(&bytes[first..second]);
                hasher.update(&bytes[second..]);
                assert_eq!(hasher.finish(), whole, "split at {first} and {second}");
            }
        }
    }

    /// The checksum is XXH64 with seed 0: these are the reference digests.
    /// A change here makes every store entry fail its checksum, so it can
    /// only come with a format version bump.
    #[test]
    fn checksum_digests_are_pinned() {
        assert_eq!(StripeHash::digest(b""), 0xef46_db37_51d8_e999);
        assert_eq!(StripeHash::digest(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(StripeHash::digest(&stripe_input()), 0x2400_04db_ee0b_a6dc);
        // The key/metadata hash is unchanged too.
        assert_eq!(Fnv64::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::digest(b"abc"), 0xe71f_a219_0541_574b);
    }

    #[test]
    fn format_constants_are_stable() {
        // These are on-disk compatibility promises; changing them must be a
        // deliberate format bump, not a refactor side-effect.
        assert_eq!(TRACE_MAGIC, *b"GRSPTRC\0");
        assert_eq!(TRACE_FORMAT_VERSION, 4);
        assert_eq!(HEADER_LEN, 48);
    }

    /// What a v3 writer made of the same trace: the same bytes with version
    /// word 3 and an FNV-1a checksum. It is refused by version, before its
    /// checksum is looked at.
    #[test]
    fn a_v3_file_is_an_unsupported_version() {
        let mut bytes = write_to_vec(&sample_trace(CHUNK_RECORDS + 10));
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        bytes[40..48].fill(0);
        let fnv = Fnv64::digest(&bytes);
        bytes[40..48].copy_from_slice(&fnv.to_le_bytes());
        assert!(matches!(
            LlcTrace::read_from(&mut bytes.as_slice()),
            Err(PersistError::UnsupportedVersion(3))
        ));
    }

    /// Every single-bit flip anywhere in a small persisted trace — header,
    /// context, frame length, payload, the checksum field itself — is a
    /// typed error.
    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = write_to_vec(&sample_trace(40));
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(loaded) = LlcTrace::read_from(&mut flipped.as_slice()) {
                panic!("bit {bit} flipped, yet {} records loaded", loaded.len());
            }
        }
    }

    #[test]
    fn encode_matches_access_info_roundtrip() {
        // Sanity: persisted payload words are the in-memory encoding.
        let info = AccessInfo {
            site: 3,
            ..AccessInfo::read(0x1240)
        };
        let mut trace = LlcTrace::new();
        trace.push(&info);
        let bytes = write_to_vec(&trace);
        let loaded = LlcTrace::read_from(&mut bytes.as_slice()).expect("roundtrip");
        assert_eq!(loaded.iter().next(), trace.iter().next());
    }
}

#[cfg(test)]
mod hostile_frames {
    //! The word-at-a-time frame decoder against the byte-at-a-time one format
    //! v3 shipped, over generated frames and hostile mutations of them.

    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the bytes each thread allocates, so a test can bound what one
    /// decode allocates.
    struct CountingAllocator;

    thread_local! {
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    fn allocated() -> usize {
        ALLOCATED.with(Cell::get)
    }

    fn count(bytes: usize) {
        ALLOCATED.with(|total| total.set(total.get() + bytes));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`, so
    // the caller's obligations under `GlobalAlloc` are exactly `System`'s and
    // its guarantees are this allocator's. The counter is a const-initialised
    // thread-local `Cell` with no destructor: touching it never allocates,
    // never re-enters the allocator and cannot fail during thread teardown.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size.saturating_sub(layout.size()));
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    /// The two columns of one frame's records.
    #[derive(Debug, Default, PartialEq)]
    struct Chunk {
        addrs: Vec<Address>,
        meta: Vec<u32>,
    }

    /// The chunk decoder of format v3, kept as the oracle: the
    /// byte-at-a-time LEB128 loop, per-record pushes and a byte-fed index
    /// unpacker.
    fn oracle_read_chunk(
        reader: &mut impl Read,
        records: usize,
        buf: &mut Vec<u8>,
    ) -> Result<Chunk, PersistError> {
        let mut len_bytes = [0u8; 4];
        read_exact(reader, &mut len_bytes, "chunk frame length")?;
        let frame_len = u32::from_le_bytes(len_bytes) as usize;
        if (frame_len == 0 && records > 0) || frame_len > max_frame_len(records) {
            return Err(PersistError::Corrupt(format!(
                "chunk frame of {frame_len} bytes is implausible for {records} records"
            )));
        }
        buf.resize(frame_len, 0);
        let bytes = &mut buf[..frame_len];
        read_exact(reader, bytes, "chunk payload")?;

        let mut chunk = Chunk::default();
        chunk.addrs.reserve(records);
        chunk.meta.reserve(records);
        let mut pos = 0usize;
        let mut prev: Address = 0;
        for _ in 0..records {
            let delta = unzigzag(get_varint_bytewise(bytes, &mut pos, "address delta")?);
            prev = prev.wrapping_add(delta);
            chunk.addrs.push(prev);
        }
        let dict_len = get_varint_bytewise(bytes, &mut pos, "metadata dictionary length")? as usize;
        if dict_len == 0 || dict_len > records {
            return Err(PersistError::Corrupt(format!(
                "metadata dictionary of {dict_len} entries is implausible for {records} records"
            )));
        }
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let word = get_varint_bytewise(bytes, &mut pos, "metadata dictionary entry")?;
            let word = u32::try_from(word).map_err(|_| {
                PersistError::Corrupt("metadata dictionary entry exceeds u32".to_owned())
            })?;
            dict.push(check_meta(word)?);
        }
        let width = index_width(dict_len);
        if width == 0 {
            chunk.meta.resize(records, dict[0]);
        } else {
            let index_bytes = (records * width as usize).div_ceil(8);
            let end = pos
                .checked_add(index_bytes)
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| {
                    PersistError::Corrupt("chunk payload ends inside metadata indices".to_owned())
                })?;
            let packed = &bytes[pos..end];
            pos = end;
            let mut acc: u64 = 0;
            let mut filled: u32 = 0;
            let mut next_byte = 0usize;
            let mask = (1u64 << width) - 1;
            for _ in 0..records {
                while filled < width {
                    acc |= u64::from(packed[next_byte]) << filled;
                    next_byte += 1;
                    filled += 8;
                }
                let index = (acc & mask) as usize;
                acc >>= width;
                filled -= width;
                let &word = dict.get(index).ok_or_else(|| {
                    PersistError::Corrupt(format!(
                        "metadata index {index} exceeds the {dict_len}-entry dictionary"
                    ))
                })?;
                chunk.meta.push(word);
            }
        }
        if pos != frame_len {
            return Err(PersistError::Corrupt(format!(
                "{} trailing byte(s) after the chunk payload",
                frame_len - pos
            )));
        }
        Ok(chunk)
    }

    /// The xorshift stream a case derives its chunk and mutation from.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound.max(1) as u64) as usize
        }
    }

    /// A chunk of `records` records: addresses clustered, uniformly random
    /// (9- and 10-byte deltas) or both; one metadata word (the frame then
    /// ends in the dictionary's varints), a few, or many — now and then one
    /// no writer produces.
    fn generate_chunk(records: usize, addr_mode: u8, meta_mode: u8, rng: &mut Rng) -> Chunk {
        let mut chunk = Chunk::default();
        let mut addr = rng.next();
        for _ in 0..records {
            addr = match addr_mode {
                0 => addr
                    .wrapping_add(64 * (rng.below(9) as u64))
                    .wrapping_sub(256),
                1 => rng.next(),
                2 if rng.below(8) == 0 => rng.next(),
                2 => addr.wrapping_add(64),
                _ => addr,
            };
            let word = match meta_mode {
                0 => 3 << 16,
                1 => (rng.below(3) as u32) << 16 | (rng.below(2) as u32),
                2 => (rng.below(records) as u32) << 16 | (rng.below(5) as u32) << 3,
                _ if rng.below(64) == 0 => rng.next() as u32,
                _ => (rng.below(4) as u32) << 16,
            };
            chunk.addrs.push(addr);
            chunk.meta.push(word);
        }
        chunk
    }

    /// Byte offset of the `k`-th address varint in a frame (after its
    /// 4-byte length), and its length.
    fn address_varint(frame: &[u8], k: usize) -> (usize, usize) {
        let mut pos = 4;
        for _ in 0..k {
            get_varint_bytewise(frame, &mut pos, "test").expect("a generated frame");
        }
        let start = pos;
        get_varint_bytewise(frame, &mut pos, "test").expect("a generated frame");
        (start, pos - start)
    }

    fn set_frame_len(frame: &mut [u8]) {
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
    }

    /// Decodes `input` with both decoders, the word-at-a-time one into an
    /// empty trace: the same chunk or the same error variant, and the
    /// word-at-a-time decoder allocates no more than one chunk of `records`
    /// records (12 B each) and a dictionary no longer than it, plus an error
    /// message.
    fn agree(input: &[u8], records: usize) -> Result<Option<Chunk>, TestCaseError> {
        let mut buf = Vec::with_capacity(max_frame_len(records));
        let mut trace = LlcTrace::new();
        let before = allocated();
        let fast = read_chunk(&mut &input[..], &mut StripeHash::new(), records, &mut buf)
            .and_then(|_| decode_frame(&buf, records, &mut trace));
        let spent = allocated() - before;
        let fast = fast.map(|()| Chunk {
            addrs: trace.addrs,
            meta: trace.meta,
        });
        let oracle = oracle_read_chunk(&mut &input[..], records, &mut Vec::new());
        prop_assert!(
            spent <= 16 * records + 1024,
            "{} bytes allocated decoding {} records",
            spent,
            records
        );
        match (fast, oracle) {
            (Ok(fast), Ok(oracle)) => {
                prop_assert_eq!(&fast, &oracle);
                Ok(Some(fast))
            }
            (Err(fast), Err(oracle)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&fast),
                    std::mem::discriminant(&oracle),
                    "{} vs the oracle's {}",
                    fast,
                    oracle
                );
                Ok(None)
            }
            (fast, oracle) => {
                prop_assert!(false, "{:?} vs the oracle's {:?}", fast, oracle);
                Ok(None)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_decoder_matches_the_byte_loop_on_hostile_frames(
            case in (1usize..300, 0u8..4, 0u8..4, 0u8..9, 1u64..u64::MAX)
        ) {
            let (records, addr_mode, meta_mode, mutation, seed) = case;
            let mut rng = Rng(seed);
            let chunk = generate_chunk(records, addr_mode, meta_mode, &mut rng);
            let mut frame = Vec::new();
            let len = encode_frame(&chunk.addrs, &chunk.meta, &mut frame, &mut MetaDictionary::new());
            let mut frame = frame[..len].to_vec();
            let payload = len - 4;
            match mutation {
                // Untouched: a frame of valid words decodes to its chunk.
                0 => {
                    let valid = chunk.meta.iter().all(|&word| meta_is_valid(word));
                    let decoded = agree(&frame, records)?;
                    prop_assert_eq!(decoded.is_some(), valid);
                    if let Some(decoded) = decoded {
                        prop_assert_eq!(decoded, chunk);
                    }
                    return Ok(());
                }
                // One bit flipped anywhere, frame length included.
                1 => {
                    let bit = rng.below(len * 8);
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                // Truncated at every byte boundary.
                2 => {
                    for cut in 0..len {
                        agree(&frame[..cut], records)?;
                    }
                    return Ok(());
                }
                // A forged frame length, with stray bytes behind the frame.
                3 => {
                    let forged = [
                        0,
                        1,
                        payload - 1,
                        payload + 1,
                        max_frame_len(records),
                        max_frame_len(records) + 1,
                        u32::MAX as usize,
                        rng.below(2 * payload),
                    ][rng.below(8)];
                    frame[0..4].copy_from_slice(&(forged as u32).to_le_bytes());
                    frame.extend((0..rng.below(64)).map(|_| rng.next() as u8));
                }
                // An address varint replaced by one that overflows 64 bits
                // (ten bytes ending above 1, or eleven bytes).
                4 => {
                    let (start, old) = address_varint(&frame, rng.below(records));
                    let mut overflow = vec![0xff; 9 + rng.below(2)];
                    overflow.push(2 + rng.below(0x7e) as u8);
                    frame.splice(start..start + old, overflow);
                    set_frame_len(&mut frame);
                }
                // The payload cut short under a matching length: a varint or
                // the indices run off the end, often in the last 1–7 bytes.
                5 => {
                    frame.truncate(4 + rng.below(payload));
                    set_frame_len(&mut frame);
                }
                // Random payload bytes under a plausible length.
                6 => {
                    frame[4..].iter_mut().for_each(|byte| *byte = rng.next() as u8);
                }
                // One packed index (the frame's last bytes) set to all ones:
                // past the dictionary unless its size is a power of two.
                7 => {
                    let mut words = chunk.meta.clone();
                    words.sort_unstable();
                    words.dedup();
                    let width = index_width(words.len()) as usize;
                    let first_bit = 8 * (len - (records * width).div_ceil(8));
                    let index = rng.below(records);
                    for bit in first_bit + index * width..first_bit + (index + 1) * width {
                        frame[bit / 8] |= 1 << (bit % 8);
                    }
                }
                // A record count that disagrees with the frame (a forged
                // header count), up to a whole chunk.
                _ => {
                    let wrong = [records - 1, records + 1, CHUNK_RECORDS][rng.below(3)];
                    agree(&frame, wrong.max(1))?;
                    return Ok(());
                }
            }
            agree(&frame, records)?;
        }
    }
}
