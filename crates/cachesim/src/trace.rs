//! The canonical post-L2 request stream: recording and replay.
//!
//! [`LlcTrace`] is the exchange format of the record-once / replay-many
//! experiment pipeline. One recording run captures everything the LLC will
//! ever see — demand requests, prefetch requests and dirty-victim writebacks,
//! in program order — together with the upper-level (L1/L2) statistics and
//! the programmed Address Bound Register bounds. No record carries a reuse
//! hint: the hint depends on the LLC's capacity, so every replay programs its
//! [`LlcStage`] with the recorded bounds and classifies at its own size.
//! Because the upper levels are independent of the LLC — its policy and its
//! geometry — a single recording can then be replayed under any number of
//! policies and LLC configurations, and [`LlcTrace::replay`] reproduces the
//! **full** [`HierarchyStats`] of a direct simulation bit-for-bit.
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
//! Records are packed into two columns that grow like a `Vec`: a 64-bit
//! address and a 32-bit metadata word (kind, region, site) — 12 bytes per
//! record. [`LlcTrace::replay`] hands both columns to one [`LlcStage`]
//! whole. [`CHUNK_RECORDS`] is the frame size of the on-disk format
//! ([`persist`]) and the window [`LlcTrace::replay_demand`] filters through.

mod hash;
pub mod persist;

use crate::addr::Address;
use crate::config::CacheConfig;
use crate::hint::ReuseHint;
use crate::policy::PolicyDispatch;
use crate::request::{AccessInfo, AccessKind, RegionLabel};
use crate::stage::{LlcSink, LlcStage};
use crate::stats::{CacheStats, HierarchyStats};

/// Records per frame of the on-disk format and per window of
/// [`LlcTrace::replay_demand`].
pub const CHUNK_RECORDS: usize = 1 << 16;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LlcTrace {
    addrs: Vec<Address>,
    meta: Vec<u32>,
    demand_len: usize,
    context: RecordContext,
}

impl LlcTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn push_raw(&mut self, addr: Address, meta: u32) {
        self.addrs.push(addr);
        self.meta.push(meta);
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
        self.addrs.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
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

    /// Iterates over the decoded events in record order (`.rev()` walks
    /// them backwards).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceEvent> + '_ {
        self.addrs
            .iter()
            .zip(&self.meta)
            .map(|(&addr, &meta)| decode_event(addr, meta))
    }

    /// Iterates over the demand requests only (the stream Belady's OPT
    /// operates on; its backward next-use pass runs on `.rev()`).
    pub fn demand_accesses(&self) -> impl DoubleEndedIterator<Item = AccessInfo> + '_ {
        self.iter().filter_map(|event| match event {
            TraceEvent::Demand(info) => Some(info),
            _ => None,
        })
    }

    /// Replays the recorded stream through a fresh [`LlcStage`] with the
    /// given policy, its ABRs programmed with the recorded bounds at
    /// `config`'s capacity, and returns the **full** hierarchy statistics of
    /// the run: the recorded L1/L2 stats plus the replayed LLC stats,
    /// bit-identical to having simulated the whole hierarchy directly with
    /// that LLC.
    ///
    /// The whole trace is one [`LlcStage::replay_run`] call: its two raw
    /// columns go, as they are, to the recorded-stream kernel of [`crate::cache`],
    /// one compiled loop per policy that decodes, classifies (for a policy
    /// that reads hints), looks up and accounts every record inline. Nothing
    /// is copied, tiled or buffered on the way, and kind changes do not split
    /// the run: demand and prefetch records interleave densely in recorded
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
        if scalar {
            for event in self.iter() {
                match event {
                    TraceEvent::Demand(info) => stage.demand(&info),
                    TraceEvent::Prefetch(info) => stage.prefetch(&info),
                    TraceEvent::Writeback(addr) => stage.writeback(addr),
                }
            }
        } else {
            stage.replay_run(&self.addrs, &self.meta);
        }
        self.context.stats_with(stage.into_stats())
    }

    /// Replays the **demand** stream only through a standalone LLC,
    /// classifying at `config`'s capacity like every other replay — the
    /// online-policy side of the OPT comparison (Fig. 11 / Table VII), which
    /// must give every scheme the same stream Belady's bound is computed
    /// on. The demand records of each [`CHUNK_RECORDS`] window are filtered
    /// into one reused pair of columns and go through the stage's run
    /// kernel; no `AccessInfo` is materialized.
    pub fn replay_demand(
        &self,
        config: CacheConfig,
        policy: impl Into<PolicyDispatch>,
    ) -> CacheStats {
        let mut stage = LlcStage::new(config, policy);
        stage.program_abrs(&self.context.abr_bounds);
        let (mut addrs, mut meta) = (Vec::new(), Vec::new());
        for (window, words) in self
            .addrs
            .chunks(CHUNK_RECORDS)
            .zip(self.meta.chunks(CHUNK_RECORDS))
        {
            addrs.clear();
            meta.clear();
            for (&addr, &word) in window.iter().zip(words) {
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
                trace.push(&AccessInfo {
                    site: 1,
                    region: RegionLabel::Property,
                    ..AccessInfo::read(block * 64)
                });
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
            AccessInfo {
                site: 77,
                region: RegionLabel::EdgeArray,
                ..AccessInfo::read(0x1234)
            },
            AccessInfo {
                site: u16::MAX,
                region: RegionLabel::Frontier,
                ..AccessInfo::write(u64::MAX - 63)
            },
            AccessInfo::read(0),
        ];
        let mut trace = LlcTrace::new();
        for info in &infos {
            trace.push(info);
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.demand_len(), 3);
        let events: Vec<_> = infos.iter().map(|&info| TraceEvent::Demand(info)).collect();
        assert_eq!(trace.iter().collect::<Vec<_>>(), events);
        assert_eq!(trace.demand_accesses().collect::<Vec<_>>(), infos);
        let mut rebuilt = LlcTrace::new();
        for info in trace.demand_accesses() {
            rebuilt.push(&info);
        }
        assert_eq!(rebuilt, trace);
        // A hint is the LLC's to give: recording one drops it.
        let mut hinted = LlcTrace::new();
        for info in &infos {
            hinted.push(&info.with_hint(ReuseHint::High));
        }
        assert_eq!(hinted, trace);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let demand = AccessInfo {
            site: 9,
            region: RegionLabel::Property,
            ..AccessInfo::write(0x40)
        };
        let prefetch = AccessInfo {
            site: 9,
            region: RegionLabel::EdgeArray,
            ..AccessInfo::read(0x80)
        };
        let mut trace = LlcTrace::new();
        trace.push(&demand);
        trace.push_prefetch(&prefetch);
        trace.push_writeback(0xFFC0);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.demand_len(), 1);
        let events = [
            TraceEvent::Demand(demand),
            TraceEvent::Prefetch(prefetch),
            TraceEvent::Writeback(0xFFC0),
        ];
        assert_eq!(trace.iter().collect::<Vec<_>>(), events);
        assert!(trace.iter().rev().eq(events.into_iter().rev()));
        assert_eq!(trace.demand_accesses().collect::<Vec<_>>(), [demand]);
    }

    #[test]
    fn every_recordable_word_is_valid_and_decodes_to_itself() {
        for region in RegionLabel::ALL {
            for kind_bit in [0, META_PREFETCH_BIT] {
                let info = AccessInfo {
                    site: u16::MAX,
                    region,
                    ..AccessInfo::write(0x40)
                };
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
            trace.push(&AccessInfo {
                site: (i % 7) as u16,
                ..AccessInfo::read(i as u64 * 64)
            });
        }
        assert_eq!(trace.len(), total);
        let events: Vec<_> = trace.iter().collect();
        assert_eq!(events.len(), total);
        // Spot-check around the frame boundary plus deep in.
        for i in [
            0,
            CHUNK_RECORDS - 1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 1,
            total - 1,
        ] {
            match events[i] {
                TraceEvent::Demand(info) => {
                    assert_eq!(info.addr, i as u64 * 64);
                    assert_eq!(info.site, (i % 7) as u16);
                }
                other => panic!("expected demand at {i}, got {other:?}"),
            }
        }
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
    fn chunk_native_demand_replay_matches_the_slice_version() {
        let demands: Vec<_> = thrashy_trace(48, 256, 5).demand_accesses().collect();
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

        let mut trace = LlcTrace::new();
        for i in 0..20_000u64 {
            trace.push(&AccessInfo::read(i * i * 64 % (512 * 1024)));
        }
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
