//! The canonical post-L2 request stream: recording and replay.
//!
//! [`LlcTrace`] is the exchange format of the record-once / replay-many
//! experiment pipeline. One recording run captures everything the LLC will
//! ever see — demand requests, prefetch requests and dirty-victim writebacks,
//! in program order — together with the upper-level (L1/L2) statistics and
//! the programmed Address Bound Register bounds. No record carries a reuse
//! hint: the hint depends on the LLC's capacity, so every replay programs its
//! [`LlcStage`] with the recorded bounds and classifies at its own size.
//! Because the upper levels are independent of the LLC — its policy, its
//! geometry and its latency — a single recording can then be replayed under
//! any number of policies and LLC configurations, and [`LlcTrace::replay`]
//! reproduces the **full** [`HierarchyStats`] of a direct simulation
//! bit-for-bit.
//!
//! Two workflows use recorded traces:
//!
//! 1. **Campaigns** (`grasp-core`): record each (dataset, reordering,
//!    application) stream once, fan it out across the policy grid.
//! 2. **OPT comparison (Fig. 11 / Table VII).**
//!    [`crate::policy::opt::optimal_misses`] computes the minimum achievable
//!    misses on a trace's demand stream while the online policies replay the
//!    same stream ([`LlcTrace::replay_demand`]) at each LLC size of the
//!    sweep.
//!
//! # Layout
//!
//! Records are packed into a struct-of-arrays pair of a 64-bit address and a
//! 32-bit metadata word (kind, region, site — 12 bytes per record), and
//! the arrays are **chunked**: storage grows in fixed-size [`TraceChunk`]s of
//! [`CHUNK_RECORDS`] records instead of one contiguous allocation. Appending
//! never relocates more than one chunk, so a long recording costs neither the
//! 2× transient footprint nor the O(len) copy of `Vec` doubling — the trace
//! spills gracefully as it grows. Completed chunks are **frozen behind an
//! `Arc`**, which makes cloning a trace free of record copies.
//! [`LlcTrace::replay`] hands each chunk's two columns to one [`LlcStage`]
//! whole.

mod hash;
pub mod persist;

use crate::addr::Address;
use crate::config::CacheConfig;
use crate::hint::ReuseHint;
use crate::policy::PolicyDispatch;
use crate::request::{AccessInfo, AccessKind, RegionLabel};
use crate::stage::{LlcSink, LlcStage};
use crate::stats::{CacheStats, HierarchyStats};
use std::sync::Arc;

/// Records per storage chunk (a 64 Ki-record chunk is 768 KiB).
pub const CHUNK_RECORDS: usize = 1 << 16;
const CHUNK_SHIFT: u32 = CHUNK_RECORDS.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_RECORDS - 1;

const META_WRITE_BIT: u32 = 1;
const META_REGION_SHIFT: u32 = 3;
/// Event-kind bits (mutually exclusive; all clear = demand).
pub(crate) const META_PREFETCH_BIT: u32 = 1 << 6;
pub(crate) const META_WRITEBACK_BIT: u32 = 1 << 7;
const META_KIND_BITS: u32 = META_PREFETCH_BIT | META_WRITEBACK_BIT;
/// Never written: bits 1–2 (the reuse hint, up to format v2) and bits 8–15
/// (between the kind bits and the site field).
const META_UNDEFINED_BITS: u32 = 0xFF06;
const META_SITE_SHIFT: u32 = 16;

/// One event of the recorded post-L2 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A demand request that missed L1 and L2 (its hint is
    /// [`ReuseHint::Default`]: the LLC stage classifies).
    Demand(AccessInfo),
    /// A prefetch request that missed L1 and L2.
    Prefetch(AccessInfo),
    /// The writeback of a dirty victim evicted past L2.
    Writeback(Address),
}

pub(crate) fn encode_meta(info: &AccessInfo, kind_bit: u32) -> u32 {
    let mut meta = kind_bit;
    if info.is_write() {
        meta |= META_WRITE_BIT;
    }
    meta |= (info.region.index() as u32) << META_REGION_SHIFT;
    meta |= u32::from(info.site) << META_SITE_SHIFT;
    meta
}

/// Whether `meta` is a word [`encode_meta`] (or a writeback push)
/// can have produced: a region index that names a [`RegionLabel`], at most
/// one event-kind bit, no undefined bit. Everything that decodes a word
/// relies on it, so the loaders check it where bytes enter
/// ([`persist`]) — in-memory words are valid by construction.
pub(crate) fn meta_is_valid(meta: u32) -> bool {
    ((meta >> META_REGION_SHIFT) & 0b111) < RegionLabel::ALL.len() as u32
        && (meta & META_KIND_BITS).count_ones() <= 1
        && meta & META_UNDEFINED_BITS == 0
}

/// Decodes the request a demand or prefetch word describes. Total over all
/// words — the replay kernel inlines it per record and wants no panic site —
/// so the region indices no valid word carries (5–7, see [`meta_is_valid`])
/// read as [`RegionLabel::Other`].
#[inline(always)]
pub(crate) fn decode_info(addr: Address, meta: u32) -> AccessInfo {
    AccessInfo {
        addr,
        kind: if meta & META_WRITE_BIT != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        site: (meta >> META_SITE_SHIFT) as u16,
        hint: ReuseHint::Default,
        region: RegionLabel::ALL
            .get(((meta >> META_REGION_SHIFT) & 0b111) as usize)
            .copied()
            .unwrap_or(RegionLabel::Other),
    }
}

/// Decodes one record. The kind bits are tested in the order the replay
/// kernel tests them: writeback, then prefetch.
pub(crate) fn decode_event(addr: Address, meta: u32) -> TraceEvent {
    if meta & META_WRITEBACK_BIT != 0 {
        TraceEvent::Writeback(addr)
    } else if meta & META_PREFETCH_BIT != 0 {
        TraceEvent::Prefetch(decode_info(addr, meta))
    } else {
        TraceEvent::Demand(decode_info(addr, meta))
    }
}

/// Number of demand records in a metadata column: records with neither the
/// prefetch nor the writeback bit set — the predicate [`decode_event`]
/// applies per event, evaluated on the column without decoding anything.
#[inline]
pub(crate) fn count_demand_records(meta: &[u32]) -> usize {
    meta.iter().filter(|&&m| m & META_KIND_BITS == 0).count()
}

/// One fixed-capacity struct-of-arrays storage chunk of the post-L2 stream.
///
/// Chunks are the unit of sharing and of replay: a completed chunk is
/// frozen behind an `Arc` by the recording [`LlcTrace`] and replayed whole
/// ([`LlcTrace::replay`]). A frozen chunk is never mutated again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceChunk {
    addrs: Vec<Address>,
    meta: Vec<u32>,
}

impl TraceChunk {
    #[inline]
    fn push(&mut self, addr: Address, meta: u32) {
        self.addrs.push(addr);
        self.meta.push(meta);
    }

    fn get(&self, offset: usize) -> TraceEvent {
        decode_event(self.addrs[offset], self.meta[offset])
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Returns `true` when the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Decodes the chunk's events in record order.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.addrs
            .iter()
            .zip(&self.meta)
            .map(|(&addr, &meta)| decode_event(addr, meta))
    }

    /// Decodes the chunk's events in reverse record order (the backward pass
    /// of the chunk-native OPT simulation).
    pub fn events_rev(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.addrs
            .iter()
            .rev()
            .zip(self.meta.iter().rev())
            .map(|(&addr, &meta)| decode_event(addr, meta))
    }
}

/// Upper-level state recorded alongside the post-L2 stream: everything replay
/// needs to rebuild full hierarchy statistics (and, at the replayed LLC's
/// size, the classifier) without re-running the application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordContext {
    /// Final L1-D statistics of the recording run.
    pub l1: CacheStats,
    /// Final L2 statistics of the recording run.
    pub l2: CacheStats,
    /// The Address Bound Register bounds the application programmed (empty
    /// when the ABRs stayed unprogrammed).
    pub abr_bounds: Vec<(Address, Address)>,
}

impl RecordContext {
    /// The full hierarchy statistics of a run with these upper levels and
    /// an LLC that ended with `llc`: every demand LLC miss is a memory
    /// access. The one place a direct run and a replay assemble them.
    pub fn stats_with(&self, llc: CacheStats) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            memory_accesses: llc.misses,
            llc,
        }
    }
}

/// A compact, append-only record of the post-L2 request stream (see the
/// module docs for the role it plays in the record/replay pipeline).
///
/// Completed chunks are frozen behind `Arc`s, so cloning a trace shares the
/// bulk of the storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LlcTrace {
    frozen: Vec<Arc<TraceChunk>>,
    current: TraceChunk,
    len: usize,
    demand_len: usize,
    context: RecordContext,
}

impl LlcTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with chunk slots pre-reserved for `capacity`
    /// records.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut trace = Self::default();
        trace.reserve(capacity);
        trace
    }

    /// Pre-reserves storage for at least `additional` more records. Only
    /// bounded work is done eagerly: the chunk directory is sized and the
    /// current chunk is grown towards its fixed capacity; further chunks are
    /// allocated lazily as recording proceeds.
    pub fn reserve(&mut self, additional: usize) {
        let total_chunks = (self.len + additional).div_ceil(CHUNK_RECORDS);
        self.frozen
            .reserve(total_chunks.saturating_sub(self.frozen.len()));
        let want = additional.min(CHUNK_RECORDS - self.current.len());
        self.current.addrs.reserve(want);
        self.current.meta.reserve(want);
    }

    /// Estimated number of post-L2 records for a run over `edges` edges and
    /// `iterations` traced iterations.
    ///
    /// The edge stream dominates the access stream and the upper levels
    /// filter most of it, so a quarter of the touched edges pre-sizes the
    /// trace without reallocation in the common case. The cap bounds the
    /// eager commitment (~50 MB of records) when many recording runs share a
    /// machine — e.g. a recording campaign with one worker per core; the
    /// trace still grows past it chunk by chunk if needed.
    pub fn estimate_capacity(edges: u64, iterations: u64) -> usize {
        (edges * iterations.max(1) / 4).min(1 << 22) as usize
    }

    #[inline]
    fn push_raw(&mut self, addr: Address, meta: u32) {
        // A brand-new chunk (no capacity at all) is sized to its full fixed
        // extent up front; a chunk pre-sized by `reserve` keeps its bounded
        // reservation and grows normally if the estimate was short.
        if self.current.addrs.capacity() == 0 {
            self.current.addrs.reserve(CHUNK_RECORDS);
            self.current.meta.reserve(CHUNK_RECORDS);
        }
        self.current.push(addr, meta);
        self.len += 1;
        if self.current.len() == CHUNK_RECORDS {
            let full = std::mem::take(&mut self.current);
            self.frozen.push(Arc::new(full));
        }
    }

    /// Appends one demand record.
    #[inline]
    pub fn push(&mut self, info: &AccessInfo) {
        self.push_raw(info.addr, encode_meta(info, 0));
        self.demand_len += 1;
    }

    /// Appends one prefetch record.
    #[inline]
    pub fn push_prefetch(&mut self, info: &AccessInfo) {
        self.push_raw(info.addr, encode_meta(info, META_PREFETCH_BIT));
    }

    /// Appends one writeback record.
    #[inline]
    pub fn push_writeback(&mut self, addr: Address) {
        self.push_raw(addr, META_WRITEBACK_BIT);
    }

    /// Total number of recorded events (demand + prefetch + writeback).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of demand records (== the LLC's demand accesses).
    pub fn demand_len(&self) -> usize {
        self.demand_len
    }

    /// Upper-level statistics and ABR bounds recorded alongside the stream.
    pub fn context(&self) -> &RecordContext {
        &self.context
    }

    /// Attaches the recording run's upper-level context (called once, when
    /// recording finishes).
    pub fn set_context(&mut self, context: RecordContext) {
        self.context = context;
    }

    /// Decodes the event at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> TraceEvent {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let chunk_index = index >> CHUNK_SHIFT;
        let offset = index & CHUNK_MASK;
        if chunk_index < self.frozen.len() {
            self.frozen[chunk_index].get(offset)
        } else {
            self.current.get(offset)
        }
    }

    /// The trace's storage chunks in stream order (frozen chunks first, then
    /// the in-progress tail when non-empty) — the view chunk-native
    /// consumers like the streamed OPT simulation operate on.
    pub fn chunks(&self) -> impl Iterator<Item = &TraceChunk> {
        self.frozen
            .iter()
            .map(Arc::as_ref)
            .chain(std::iter::once(&self.current).filter(|chunk| !chunk.is_empty()))
    }

    /// Iterates over the decoded events in record order.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.chunks().flat_map(TraceChunk::events)
    }

    /// Iterates over the decoded events in reverse record order.
    pub fn iter_rev(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.current.events_rev().chain(
            self.frozen
                .iter()
                .rev()
                .flat_map(|chunk| chunk.events_rev()),
        )
    }

    /// Decodes the whole event stream into a `Vec`.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().collect()
    }

    /// Iterates over the demand requests only (the stream Belady's OPT and
    /// the legacy single-cache replay helpers operate on).
    pub fn demand_accesses(&self) -> impl Iterator<Item = AccessInfo> + '_ {
        self.iter().filter_map(|event| match event {
            TraceEvent::Demand(info) => Some(info),
            _ => None,
        })
    }

    /// Iterates over the demand requests in reverse stream order (the
    /// backward next-use pass of [`crate::policy::opt::optimal_misses`]
    /// runs directly on this view — no `Vec<AccessInfo>` materialization).
    pub fn demand_accesses_rev(&self) -> impl Iterator<Item = AccessInfo> + '_ {
        self.iter_rev().filter_map(|event| match event {
            TraceEvent::Demand(info) => Some(info),
            _ => None,
        })
    }

    /// Decodes the demand requests into a `Vec<AccessInfo>` (for consumers
    /// that need repeated random access; streaming consumers should prefer
    /// [`LlcTrace::demand_accesses`] / [`LlcTrace::demand_accesses_rev`]).
    pub fn demand_vec(&self) -> Vec<AccessInfo> {
        self.demand_accesses().collect()
    }

    /// Replays the recorded stream through a fresh [`LlcStage`] with the
    /// given policy, its ABRs programmed with the recorded bounds at
    /// `config`'s capacity, and returns the **full** hierarchy statistics of
    /// the run: the recorded L1/L2 stats plus the replayed LLC stats,
    /// bit-identical to having simulated the whole hierarchy directly with
    /// that LLC.
    ///
    /// Each chunk is one [`LlcStage::replay_run`] call: its two raw columns
    /// go, as they are, to the recorded-stream kernel of [`crate::cache`],
    /// one compiled loop per policy that decodes, classifies (for a policy
    /// that reads hints), looks up and accounts every record inline. Nothing
    /// is copied, tiled or buffered on the way, and kind changes do not split
    /// the chunk: demand and prefetch records interleave densely in recorded
    /// streams (median same-kind run length is 1 on the paper workloads).
    pub fn replay(&self, config: CacheConfig, policy: impl Into<PolicyDispatch>) -> HierarchyStats {
        self.replay_impl(config, policy, false)
    }

    /// Replays one decoded event at a time through the stage's per-event
    /// methods instead of the column kernel — the oracle
    /// [`LlcTrace::replay`] is pinned against bit-for-bit (parity and
    /// property tests).
    pub fn replay_scalar(
        &self,
        config: CacheConfig,
        policy: impl Into<PolicyDispatch>,
    ) -> HierarchyStats {
        self.replay_impl(config, policy, true)
    }

    fn replay_impl(
        &self,
        config: CacheConfig,
        policy: impl Into<PolicyDispatch>,
        scalar: bool,
    ) -> HierarchyStats {
        let mut stage = LlcStage::new(config, policy);
        stage.program_abrs(&self.context.abr_bounds);
        for chunk in self.chunks() {
            if !scalar {
                stage.replay_run(&chunk.addrs, &chunk.meta);
                continue;
            }
            for event in chunk.events() {
                match event {
                    TraceEvent::Demand(info) => {
                        stage.demand(&info);
                    }
                    TraceEvent::Prefetch(info) => stage.prefetch(&info),
                    TraceEvent::Writeback(addr) => stage.writeback(addr),
                }
            }
        }
        self.context.stats_with(stage.into_stats())
    }

    /// Replays the **demand** stream only through a standalone LLC,
    /// classifying at `config`'s capacity like every other replay — the
    /// online-policy side of the OPT comparison (Fig. 11 / Table VII), which
    /// must give every scheme the same stream Belady's bound is computed
    /// on. Each chunk's demand records are filtered into one reused pair of
    /// column windows and go through the stage's run kernel; no
    /// `AccessInfo` is materialized.
    pub fn replay_demand(
        &self,
        config: CacheConfig,
        policy: impl Into<PolicyDispatch>,
    ) -> CacheStats {
        let mut stage = LlcStage::new(config, policy);
        stage.program_abrs(&self.context.abr_bounds);
        let (mut addrs, mut meta) = (Vec::new(), Vec::new());
        for chunk in self.chunks() {
            addrs.clear();
            meta.clear();
            for (&addr, &word) in chunk.addrs.iter().zip(&chunk.meta) {
                if word & META_KIND_BITS == 0 {
                    addrs.push(addr);
                    meta.push(word);
                }
            }
            stage.replay_run(&addrs, &meta);
        }
        stage.into_stats()
    }
}

/// Recording sink: the trace consumes the post-L2 stream of a
/// [`crate::Hierarchy`] without simulating an LLC.
impl LlcSink for LlcTrace {
    fn demand(&mut self, info: &AccessInfo) {
        self.push(info);
    }

    fn prefetch(&mut self, info: &AccessInfo) {
        self.push_prefetch(info);
    }

    fn writeback(&mut self, addr: Address) {
        self.push_writeback(addr);
    }
}

impl FromIterator<AccessInfo> for LlcTrace {
    fn from_iter<I: IntoIterator<Item = AccessInfo>>(iter: I) -> Self {
        let mut trace = Self::new();
        for info in iter {
            trace.push(&info);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use crate::hint::RegionClassifier;
    use crate::policy::grasp::Grasp;
    use crate::policy::lru::Lru;
    use crate::policy::opt::optimal_misses;
    use crate::policy::rrip::Drrip;
    use crate::request::RegionLabel;

    /// A thrash-prone trace: a hot working set that fits in the cache plus a
    /// long stream of single-use blocks. The hot set is the one programmed
    /// Property Array, so every replay classifies it High and the cold
    /// stream Low.
    fn thrashy_trace(hot_blocks: u64, cold_blocks: u64, rounds: u64) -> LlcTrace {
        let mut trace = LlcTrace::new();
        for r in 0..rounds {
            let cold = (0..cold_blocks).map(|c| hot_blocks + r * cold_blocks + c);
            for block in (0..hot_blocks).chain(cold) {
                trace.push(
                    &AccessInfo::read(block * 64)
                        .with_region(RegionLabel::Property)
                        .with_site(1),
                );
            }
        }
        trace.set_context(RecordContext {
            abr_bounds: vec![(0, hot_blocks * 64)],
            ..RecordContext::default()
        });
        trace
    }

    fn llc_config() -> CacheConfig {
        CacheConfig::new(64 * 256, 16, 64) // 256 blocks, 16 ways
    }

    /// LLC statistics of a demand-only trace replayed under `policy`.
    fn replay(
        trace: &LlcTrace,
        config: CacheConfig,
        policy: impl Into<PolicyDispatch>,
    ) -> CacheStats {
        trace.replay(config, policy).llc
    }

    #[test]
    fn grasp_beats_lru_and_rrip_on_thrashy_traces() {
        let config = llc_config();
        // Hot set of 128 blocks (fits) + 512 cold blocks per round.
        let trace = thrashy_trace(128, 512, 20);
        let lru = replay(&trace, config, Lru::new(config.sets(), config.ways));
        let rrip = replay(&trace, config, Drrip::new(config.sets(), config.ways, 1));
        let grasp = replay(&trace, config, Grasp::new(config.sets(), config.ways, 1));
        assert!(
            grasp.misses < lru.misses,
            "grasp {} should beat lru {}",
            grasp.misses,
            lru.misses
        );
        assert!(
            grasp.misses <= rrip.misses,
            "grasp {} should not lose to rrip {}",
            grasp.misses,
            rrip.misses
        );
    }

    /// The misses-eliminated metric of Figs. 5 and 11 on a trace whose miss
    /// counts are known exactly: every set sees 40 distinct blocks a round
    /// against 16 ways, so LRU misses every access, while GRASP keeps the
    /// hot set resident after its first round and eliminates exactly the hot
    /// re-references.
    #[test]
    fn misses_eliminated_pct_math() {
        let (hot, cold, rounds) = (128, 512, 20);
        let config = llc_config();
        let trace = thrashy_trace(hot, cold, rounds);
        let lru = replay(&trace, config, Lru::new(config.sets(), config.ways));
        let grasp = replay(&trace, config, Grasp::new(config.sets(), config.ways, 1));
        assert_eq!(lru.misses, (hot + cold) * rounds);
        assert_eq!(lru.misses - grasp.misses, hot * (rounds - 1));
        // 2432 of 12800 misses eliminated.
        let pct = (lru.misses - grasp.misses) as f64 / lru.misses as f64 * 100.0;
        assert!((pct - 19.0).abs() < 1e-12, "{pct}");
    }

    #[test]
    fn opt_lower_bounds_every_online_policy() {
        let config = llc_config();
        let trace = thrashy_trace(64, 300, 10);
        let opt = optimal_misses(&trace, &config);
        for policy in [
            replay(&trace, config, Lru::new(config.sets(), config.ways)),
            replay(&trace, config, Drrip::new(config.sets(), config.ways, 1)),
            replay(&trace, config, Grasp::new(config.sets(), config.ways, 1)),
        ] {
            assert!(opt.misses <= policy.misses);
        }
    }

    #[test]
    fn llc_trace_round_trips_every_field() {
        let infos = [
            AccessInfo::read(0x1234)
                .with_site(77)
                .with_region(RegionLabel::EdgeArray),
            AccessInfo::write(u64::MAX - 63)
                .with_site(u16::MAX)
                .with_region(RegionLabel::Frontier),
            AccessInfo::read(0),
        ];
        let mut trace = LlcTrace::with_capacity(infos.len());
        for info in &infos {
            trace.push(info);
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.demand_len(), 3);
        for (i, expected) in infos.iter().enumerate() {
            assert_eq!(trace.get(i), TraceEvent::Demand(*expected));
        }
        assert_eq!(trace.demand_vec(), infos.to_vec());
        let rebuilt: LlcTrace = trace.demand_accesses().collect();
        assert_eq!(rebuilt, trace);
        // A hint is the LLC's to give: recording one drops it.
        let hinted: LlcTrace = infos.iter().map(|i| i.with_hint(ReuseHint::High)).collect();
        assert_eq!(hinted, trace);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let demand = AccessInfo::write(0x40)
            .with_site(9)
            .with_region(RegionLabel::Property);
        let prefetch = AccessInfo::read(0x80)
            .with_site(9)
            .with_region(RegionLabel::EdgeArray);
        let mut trace = LlcTrace::new();
        trace.push(&demand);
        trace.push_prefetch(&prefetch);
        trace.push_writeback(0xFFC0);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.demand_len(), 1);
        assert_eq!(
            trace.to_vec(),
            vec![
                TraceEvent::Demand(demand),
                TraceEvent::Prefetch(prefetch),
                TraceEvent::Writeback(0xFFC0),
            ]
        );
        assert_eq!(trace.demand_vec(), vec![demand]);
    }

    #[test]
    fn every_recordable_word_is_valid_and_decodes_to_itself() {
        for region in RegionLabel::ALL {
            for kind_bit in [0, META_PREFETCH_BIT] {
                let info = AccessInfo::write(0x40)
                    .with_site(u16::MAX)
                    .with_region(region);
                let word = encode_meta(&info, kind_bit);
                assert!(meta_is_valid(word), "{word:#x}");
                assert_eq!(decode_info(0x40, word), info);
            }
        }
        assert!(meta_is_valid(META_WRITEBACK_BIT));
        // What no push produces: the loaders refuse it, the decoder (which
        // the replay kernel inlines, panic-free) reads it as `Other`.
        let forged = 7 << META_REGION_SHIFT;
        assert!(!meta_is_valid(forged));
        assert_eq!(decode_info(0, forged).region, RegionLabel::Other);
        // Nor does any push write the two bits a v2 file kept its hint in.
        assert!(!meta_is_valid(1 << 1) && !meta_is_valid(1 << 2));
    }

    #[test]
    fn chunked_storage_preserves_order_across_boundaries() {
        let mut trace = LlcTrace::new();
        let total = CHUNK_RECORDS + CHUNK_RECORDS / 2;
        for i in 0..total {
            trace.push(&AccessInfo::read(i as u64 * 64).with_site((i % 7) as u16));
        }
        assert_eq!(trace.len(), total);
        // Spot-check around the chunk boundary plus random access deep in.
        for i in [
            0,
            CHUNK_RECORDS - 1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 1,
            total - 1,
        ] {
            match trace.get(i) {
                TraceEvent::Demand(info) => {
                    assert_eq!(info.addr, i as u64 * 64);
                    assert_eq!(info.site, (i % 7) as u16);
                }
                other => panic!("expected demand at {i}, got {other:?}"),
            }
        }
        assert_eq!(trace.iter().count(), total);
    }

    #[test]
    fn capacity_estimate_scales_and_caps() {
        assert_eq!(LlcTrace::estimate_capacity(1000, 4), 1000);
        // Zero iterations are clamped to one traced iteration.
        assert_eq!(LlcTrace::estimate_capacity(1000, 0), 250);
        assert_eq!(
            LlcTrace::estimate_capacity(u64::MAX / 8, 2),
            1 << 22,
            "estimate must stay capped for huge runs"
        );
    }

    #[test]
    fn trace_replay_reports_full_hierarchy_stats() {
        let mut trace = thrashy_trace(32, 128, 4);
        let mut context = RecordContext::default();
        context.l1.record(RegionLabel::Property, false);
        context.l2.record(RegionLabel::Property, false);
        trace.set_context(context);
        let config = llc_config();
        let stats = trace.replay(config, Lru::new(config.sets(), config.ways));
        assert_eq!(stats.l1.accesses, 1, "recorded upper stats are carried");
        assert_eq!(stats.llc.accesses as usize, trace.demand_len());
        assert_eq!(stats.memory_accesses, stats.llc.misses);
    }

    #[test]
    fn cloning_a_trace_shares_frozen_chunks() {
        let mut trace = LlcTrace::new();
        for i in 0..(CHUNK_RECORDS + 10) {
            trace.push(&AccessInfo::read(i as u64 * 64));
        }
        let clone = trace.clone();
        assert_eq!(clone, trace);
        assert!(
            Arc::ptr_eq(&trace.frozen[0], &clone.frozen[0]),
            "frozen chunks must be shared, not copied"
        );
    }

    #[test]
    fn chunk_native_demand_replay_matches_the_slice_version() {
        let demands = thrashy_trace(48, 256, 5).demand_vec();
        let mut trace = LlcTrace::new();
        for (i, info) in demands.iter().enumerate() {
            trace.push(info);
            if i % 9 == 0 {
                trace.push_writeback(info.addr); // must be skipped by the demand view
            }
        }
        trace.set_context(RecordContext {
            abr_bounds: vec![(0, 1 << 20)],
            ..RecordContext::default()
        });
        let config = llc_config();
        let classifier = RegionClassifier::new(&trace.context().abr_bounds, config.size_bytes);
        // The oracle: the demand slice, hinted and fed one access at a time.
        let mut scalar = SetAssocCache::new(config, Grasp::new(config.sets(), config.ways, 1));
        for info in &demands {
            scalar.access(&info.with_hint(classifier.classify(info.addr)));
        }
        let chunked = trace.replay_demand(config, Grasp::new(config.sets(), config.ways, 1));
        assert_eq!(scalar.stats(), &chunked);
    }

    #[test]
    fn reclassification_changes_hints_with_llc_size() {
        // One recording replayed for a small and a large LLC: more of the
        // property array is High-Reuse for the large one, and each replay
        // classifies at its own size.
        let bounds = [(0, 1024 * 1024)];
        let small = RegionClassifier::new(&bounds, 64 * 1024);
        let large = RegionClassifier::new(&bounds, 256 * 1024);
        let addr = 128 * 1024; // past the small High region, inside the large one
        assert_eq!(small.classify(addr), ReuseHint::Low);
        assert_eq!(large.classify(addr), ReuseHint::High);

        let mut trace: LlcTrace = (0..20_000u64)
            .map(|i| AccessInfo::read(i * i * 64 % (512 * 1024)))
            .collect();
        trace.set_context(RecordContext {
            abr_bounds: bounds.to_vec(),
            ..RecordContext::default()
        });
        let grasp = |config: CacheConfig| Grasp::new(config.sets(), config.ways, 1);
        let oracle = |config: CacheConfig, classifier: &RegionClassifier| {
            let mut cache = SetAssocCache::new(config, grasp(config));
            for info in trace.demand_accesses() {
                cache.access(&info.with_hint(classifier.classify(info.addr)));
            }
            cache.stats().clone()
        };
        let large_config = CacheConfig::new(256 * 1024, 16, 64);
        for (config, classifier) in [
            (CacheConfig::new(64 * 1024, 16, 64), &small),
            (large_config, &large),
        ] {
            assert_eq!(
                trace.replay(config, grasp(config)).llc,
                oracle(config, classifier)
            );
        }
        assert_ne!(
            oracle(large_config, &large),
            oracle(large_config, &small),
            "the replay LLC's classifier must matter"
        );
    }
}
