//! # grasp-core — GRASP experiment orchestration
//!
//! This crate ties the reproduction together. It owns:
//!
//! * the **dataset catalog** ([`datasets`]) — synthetic stand-ins for the
//!   paper's seven datasets (Table V) at several scales,
//! * the **policy registry** ([`policy`]) — a name → simulator-policy factory
//!   covering every scheme of the evaluation, including GRASP's ablations and
//!   the PIN-X configurations,
//! * the **experiment runner** ([`experiment`]) — dataset × reordering ×
//!   application × LLC policy → hierarchy statistics and estimated cycles;
//!   [`experiment::Experiment::record`] captures the post-L2 stream once so
//!   any number of policies can be evaluated by replay,
//! * the **campaign runner** ([`campaign`]) — a whole figure's grid of
//!   experiments under a record-once / replay-many execution plan, with
//!   graphs built on demand (at most once, only when a stream has to be
//!   recorded) and the record/load/replay tasks drained barrier-free by a dependency-driven, cost-aware scheduler,
//!   results always in deterministic grid order,
//! * the **serializable campaign spec** ([`spec`]) — [`spec::CampaignSpec`]
//!   round-trips a campaign through hand-rolled JSON ([`json`]), shared by
//!   the library builder and the `grasp-serve` service wire protocol,
//! * the **single-flight registry** ([`flight`]) — deduplicates concurrent
//!   recordings of the same stream across campaigns sharing a registry,
//! * the **unified error type** ([`error`]) — one [`error::Error`] over the
//!   store/trace/graph/spec failure domains with stable machine-readable
//!   [`error::Error::kind`] strings (the service's error-frame vocabulary),
//! * **comparison helpers** ([`compare`]) — miss-reduction and speed-up
//!   percentages, geometric means,
//! * **report formatting** ([`report`]) — the plain-text tables printed by
//!   the bench harness.
//!
//! ```no_run
//! use grasp_core::datasets::{DatasetKind, Scale};
//! use grasp_core::experiment::Experiment;
//! use grasp_core::policy::PolicyKind;
//! use grasp_analytics::apps::AppKind;
//! use grasp_reorder::TechniqueKind;
//!
//! let dataset = DatasetKind::Twitter.build(Scale::Small);
//! let experiment = Experiment::new(dataset.graph, AppKind::PageRank)
//!     .with_reordering(TechniqueKind::Dbg);
//! let rrip = experiment.run(PolicyKind::Rrip);
//! let grasp = experiment.run(PolicyKind::Grasp);
//! assert!(grasp.llc_misses() <= rrip.llc_misses());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod compare;
pub mod datasets;
pub mod error;
pub mod experiment;
pub mod flight;
pub mod json;
pub mod policy;
pub mod report;
pub mod spec;
pub mod trace_store;

pub use campaign::{Campaign, CampaignCell, CampaignResult, CampaignRun, SchedulerEvent};
pub use compare::{geometric_mean_speedup, miss_reduction_pct, speedup_pct};
pub use datasets::{Dataset, DatasetCatalog, DatasetId, DatasetKind, GraphHash, Scale};
pub use error::Error;
pub use experiment::{Experiment, RecordedRun, RunResult};
pub use flight::{FlightRegistry, FlightStats};
pub use json::Json;
pub use policy::PolicyKind;
pub use report::Table;
pub use spec::CampaignSpec;
pub use trace_store::{TraceStore, TraceStoreKey, TraceStoreStats};
