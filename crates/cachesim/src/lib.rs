//! # grasp-cachesim — a trace-driven cache-hierarchy simulator
//!
//! This crate is the hardware substrate of the GRASP (HPCA'20) reproduction.
//! The paper evaluates last-level-cache (LLC) management schemes inside the
//! Sniper microarchitectural simulator; this crate provides the pieces of that
//! infrastructure that GRASP's results actually depend on:
//!
//! * a set-associative cache model with pluggable replacement policies
//!   ([`cache::SetAssocCache`], [`policy::ReplacementPolicy`]),
//! * a three-level hierarchy (L1-D → L2 → LLC) with a stride prefetcher
//!   ([`hierarchy::Hierarchy`]) whose default geometry mirrors Table VI of the
//!   paper (scaled down together with the datasets); the LLC's place is
//!   taken by an [`LlcSink`]: an [`LlcStage`] simulates it now, an
//!   [`LlcTrace`] records the post-L2 stream once for replay under every
//!   policy and LLC geometry ([`stage`], [`trace`]),
//! * the replacement policies compared in the paper: LRU, RRIP (DRRIP,
//!   which duels SRRIP against BRRIP; [`policy::rrip`]), SHiP-MEM
//!   ([`policy::ship`]), Hawkeye ([`policy::hawkeye`]), Leeway
//!   ([`policy::leeway`]), XMem-style pinning ([`policy::pin`]), Belady's
//!   OPT ([`policy::opt`]) and GRASP itself ([`policy::grasp`]),
//! * GRASP's software–hardware interface: Address Bound Registers and the
//!   region classification logic that turns an address into a 2-bit reuse
//!   hint at the LLC ([`hint`]),
//! * per-region access/miss statistics ([`stats`]) used to reproduce Fig. 2,
//!   and an analytic timing model at Table VI's latencies ([`timing`]) used
//!   to convert miss counts into the speed-up numbers of Figs. 6–10.
//!
//! ## Quick example
//!
//! ```
//! use grasp_cachesim::config::CacheConfig;
//! use grasp_cachesim::cache::SetAssocCache;
//! use grasp_cachesim::policy::lru::Lru;
//! use grasp_cachesim::request::AccessInfo;
//!
//! let config = CacheConfig::new(32 * 1024, 8, 64);
//! let mut cache = SetAssocCache::new(config, Lru::new(config.sets(), config.ways));
//! let hit = cache.access(&AccessInfo::read(0x1000)).hit;
//! assert!(!hit, "first access is a compulsory miss");
//! let hit = cache.access(&AccessInfo::read(0x1000)).hit;
//! assert!(hit, "second access to the same block hits");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod fast_hash;
pub mod hierarchy;
pub mod hint;
mod lanes;
mod lru_filter;
pub mod policy;
pub mod prefetch;
pub mod request;
pub mod stage;
pub mod stats;
mod swar;
pub mod timing;
pub mod trace;

pub use addr::{block_of, Address, BlockAddr};
pub use cache::SetAssocCache;
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::Hierarchy;
pub use hint::{RegionClassifier, ReuseHint};
pub use policy::PolicyDispatch;
pub use request::{AccessInfo, AccessKind, RegionLabel};
pub use stage::{LlcSink, LlcStage};
pub use stats::{CacheStats, HierarchyStats};
pub use trace::persist::{PersistError, TRACE_FORMAT_VERSION};
pub use trace::{LlcTrace, TraceEvent};

// The argument of `TraceStoreKey::with_codec`, kept for
// `perfbench/src/ledger.rs:326`, its only user; goes when that line does.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Codec;
