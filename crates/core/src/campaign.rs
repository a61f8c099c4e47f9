//! Parallel experiment campaigns: a figure's full grid in one call.
//!
//! Every figure of the evaluation is a grid of dataset × reordering ×
//! application × LLC-policy simulations. The bench harness used to walk that
//! grid serially, rebuilding and re-reordering the dataset for every cell. A
//! [`Campaign`] expresses the whole grid declaratively and runs it on a
//! thread pool:
//!
//! * each dataset is **generated (or opened) at most once** and each
//!   (dataset, technique, traversal-direction) graph **reordered at most
//!   once**, shared via `Arc<Csr>` — *pulled* by the first worker whose
//!   record task needs it, never prepared by the plan: a campaign the trace
//!   store (or a sibling's in-flight recording) serves builds no graph,
//! * each (dataset, technique, application) cell is **executed once** — the
//!   application runs through the policy-independent upper levels and the
//!   post-L2 stream is recorded ([`Experiment::record`]) — and the policy
//!   axis is served by **replaying** the recorded stream, so an N-policy
//!   sweep pays the application and L1/L2 cost once instead of N times,
//! * there is **no barrier between phases**: a dependency-driven scheduler
//!   keeps one shared ready queue of typed tasks (`Record(stream)` /
//!   `Load(stream)` / `Replay(cell)`) where each replay cell becomes
//!   runnable the moment its stream's recording — or trace-store load —
//!   completes, so workers drain the replays of stream *N* while stream
//!   *N + 1* is still recording,
//! * placement is **cost-aware**: task costs are seeded from
//!   instruction/record counts and refined online from measured wall times
//!   within the run ([`SchedulerEvent`] logs the resulting interleaving),
//!   and the ready queues are drained longest-processing-time-first,
//! * every obtain and replay takes **one single-flight path**, through the
//!   [`FlightRegistry`] attached with [`Campaign::with_single_flight`] or a
//!   private one for the run: a cell the grid names twice is replayed once,
//!   like a cell an overlapping campaign is replaying, and
//! * results are collected **deterministically in grid order** regardless of
//!   thread count or scheduling.
//!
//! Per-cell statistics are bit-identical to running [`Experiment::run`]
//! serially, because the recorded stream is replayed through the same
//! LLC-stage code a full-hierarchy run simulates. [`Campaign::run_direct`]
//! — every cell through the full hierarchy, nothing recorded — is the
//! oracle `tests/replay_parity.rs` and `tests/scheduler_parity.rs` pin that
//! against.
//!
//! ```no_run
//! use grasp_core::campaign::Campaign;
//! use grasp_core::datasets::{DatasetKind, Scale};
//! use grasp_core::policy::PolicyKind;
//! use grasp_analytics::apps::AppKind;
//!
//! let results = Campaign::new(Scale::Small)
//!     .datasets(&DatasetKind::HIGH_SKEW)
//!     .apps(&AppKind::ALL)
//!     .policies(&[PolicyKind::Rrip, PolicyKind::Grasp])
//!     .run();
//! for run in results.iter() {
//!     println!("{} {} {}: {} LLC misses",
//!         run.cell.dataset, run.cell.app, run.cell.policy, run.result.llc_misses());
//! }
//! ```

use crate::datasets::{DatasetCatalog, DatasetId, DatasetKind, GraphHash, Scale};
use crate::error::Error;
use crate::experiment::{Experiment, RecordedRun, RunResult};
use crate::flight::{CellInterest, CellKey, Claim, FlightRegistry, FlightServed, Wake};
use crate::policy::PolicyKind;
use crate::spec::CampaignSpec;
use crate::trace_store::{TraceStore, TraceStoreKey};
use grasp_analytics::apps::AppKind;
use grasp_graph::types::Direction;
use grasp_graph::{Csr, GraphView};
use grasp_reorder::TechniqueKind;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// One entry of the scheduler's event log: what happened, in the order it
/// happened (entries are appended under the scheduler lock, so the log is a
/// true interleaving order, not a per-worker approximation).
///
/// `stream` indexes the campaign's unique (dataset, technique, app) streams
/// in first-seen grid order; `cell` indexes [`Campaign::cells`]. The log is
/// what makes pipelining *testable*: a barrier-free schedule shows
/// `ReplayFinished` entries before the last `RecordStarted`, which
/// `tests/scheduler_parity.rs` asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// A worker began recording a stream (application + upper levels).
    RecordStarted {
        /// Stream index in first-seen grid order.
        stream: usize,
    },
    /// A stream's recording completed; its replay cells are now runnable.
    ///
    /// When campaigns coordinate through a shared [`FlightRegistry`]
    /// ([`Campaign::with_single_flight`]), only the flight's leader —
    /// the one campaign that actually executed the recording — logs this;
    /// every deduplicated sibling logs [`SchedulerEvent::RecordDeduped`]
    /// instead, so counting `RecordFinished` entries across campaigns
    /// counts real recordings.
    RecordFinished {
        /// Stream index in first-seen grid order.
        stream: usize,
    },
    /// A planned recording completed **without recording anything**: the
    /// stream was served by another campaign's in-flight recording (or by a
    /// store entry published between the plan-time probe and the task
    /// running). The stream's replay cells are runnable, exactly as after
    /// [`SchedulerEvent::RecordFinished`].
    RecordDeduped {
        /// Stream index in first-seen grid order.
        stream: usize,
    },
    /// A worker began loading a stream from the trace store (the store
    /// probe saw an entry for its key).
    LoadStarted {
        /// Stream index in first-seen grid order.
        stream: usize,
    },
    /// A trace-store load completed. `hit` is `false` when the probed entry
    /// turned out corrupt and the worker fell back to recording (the
    /// fallback is part of the same task — its replays are runnable either
    /// way).
    LoadFinished {
        /// Stream index in first-seen grid order.
        stream: usize,
        /// Whether the store served the stream (vs. a corrupt-entry
        /// fallback recording).
        hit: bool,
    },
    /// A worker began replaying one cell's policy over its stream.
    ReplayStarted {
        /// Cell index in grid order.
        cell: usize,
    },
    /// One cell's replay completed (its result slot is filled).
    ///
    /// Like [`SchedulerEvent::RecordFinished`] this is an exact census:
    /// it counts replays **this campaign executed**. Among campaigns that
    /// overlap on a shared [`FlightRegistry`] the entries total one per
    /// unique (stream, policy) cell.
    ReplayFinished {
        /// Cell index in grid order.
        cell: usize,
    },
    /// One cell completed **without this campaign replaying it**: a
    /// campaign sharing the [`FlightRegistry`] replayed the same policy over
    /// the same stream while this one ran, or this campaign replayed it for
    /// a twin cell (a policy the grid names twice), and the cell took those
    /// statistics (its result slot is filled, over this campaign's own
    /// recording of the stream). No [`SchedulerEvent::ReplayStarted`]
    /// precedes it.
    ReplayShared {
        /// Cell index in grid order.
        cell: usize,
    },
    /// Every cell of a stream has completed, so the scheduler dropped its
    /// recorded stream (peak trace memory is bounded by the streams whose
    /// cells are still in flight, not the whole grid).
    StreamRetired {
        /// Stream index in first-seen grid order.
        stream: usize,
    },
}

/// Exponential-moving-average weight for online cost refinement: a repeat
/// measurement moves the estimate halfway — quick to adapt within a run,
/// yet one outlier (a descheduled worker) can't wreck the ordering.
const COST_EWMA_ALPHA: f64 = 0.5;

/// What a trace-store load is costed at, relative to recording the same
/// stream, until a load has been measured: loads are ordered among the
/// obtain tasks as cheap records (they unlock the same replays at a fraction
/// of the cost).
const LOAD_SEED_DISCOUNT: f64 = 1.0 / 16.0;

/// The scheduler's cost model: measured seconds per work unit
/// (instruction-proportional `(V + E) × iterations` for records and loads,
/// trace record count for replays), per task kind. A kind's first
/// measurement *is* its rate and later ones refine it through an EWMA; a
/// kind not measured yet is costed at the mean measured rate of its task
/// type, so the tasks a queue ranks always share a unit, and — before
/// anything is measured — at a seed of 1.0, which orders purely by work
/// size. Records and loads share the obtain queue, so an unmeasured load is
/// [`LOAD_SEED_DISCOUNT`] of what recording its stream would cost; replays
/// queue separately and never need a unit in common with either.
#[derive(Debug, Default)]
struct CostModel {
    /// Seconds per record work unit, per application.
    record_rate: HashMap<AppKind, f64>,
    /// Seconds per store-load work unit, per application.
    load_rate: HashMap<AppKind, f64>,
    /// Seconds per replayed trace record, per (application, policy).
    replay_rate: HashMap<(AppKind, PolicyKind), f64>,
}

impl CostModel {
    /// The rate `key` is costed at: measured, else the mean of what has been
    /// measured, else `seed`.
    fn rate<K: Eq + Hash>(rates: &HashMap<K, f64>, key: &K, seed: f64) -> f64 {
        match rates.get(key) {
            Some(&measured) => measured,
            None if rates.is_empty() => seed,
            None => rates.values().sum::<f64>() / rates.len() as f64,
        }
    }

    fn observe<K: Eq + Hash>(rates: &mut HashMap<K, f64>, key: K, measured: f64) {
        rates
            .entry(key)
            .and_modify(|rate| *rate += COST_EWMA_ALPHA * (measured - *rate))
            .or_insert(measured);
    }

    fn record_cost(&self, app: AppKind, work: f64) -> f64 {
        work * Self::rate(&self.record_rate, &app, 1.0)
    }

    fn load_cost(&self, app: AppKind, work: f64) -> f64 {
        let seed = LOAD_SEED_DISCOUNT * Self::rate(&self.record_rate, &app, 1.0);
        work * Self::rate(&self.load_rate, &app, seed)
    }

    fn replay_cost(&self, app: AppKind, policy: PolicyKind, records: f64) -> f64 {
        records * Self::rate(&self.replay_rate, &(app, policy), 1.0)
    }

    fn observe_record(&mut self, app: AppKind, work: f64, elapsed: f64) {
        Self::observe(&mut self.record_rate, app, elapsed / work.max(1.0));
    }

    fn observe_load(&mut self, app: AppKind, work: f64, elapsed: f64) {
        Self::observe(&mut self.load_rate, app, elapsed / work.max(1.0));
    }

    fn observe_replay(&mut self, app: AppKind, policy: PolicyKind, records: f64, elapsed: f64) {
        Self::observe(
            &mut self.replay_rate,
            (app, policy),
            elapsed / records.max(1.0),
        );
    }
}

/// One coordinate of a campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CampaignCell {
    /// Dataset the cell simulates.
    pub dataset: DatasetId,
    /// Reordering technique applied to the dataset.
    pub technique: TechniqueKind,
    /// Application driving the access stream.
    pub app: AppKind,
    /// LLC replacement policy under evaluation.
    pub policy: PolicyKind,
}

/// The completed simulation of one [`CampaignCell`].
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The grid coordinate.
    pub cell: CampaignCell,
    /// The simulation outcome (identical to a serial [`Experiment::run`]).
    pub result: RunResult,
}

/// One unique (dataset, technique, app) stream of a campaign grid: what the
/// trace store keys it by. It holds **no graph** — a stream that has to
/// record pulls one from the run's [`GraphMemo`].
#[derive(Debug, Clone)]
struct StreamJob {
    /// What the trace store and the flight registry know this stream by:
    /// the grid coordinate and scale plus the fingerprint of the scale's
    /// upper levels and the app's traced configuration.
    key: TraceStoreKey,
    /// Instruction-proportional work estimate for recording this stream:
    /// each iteration walks the vertex and edge arrays, so
    /// `(V + E) × max_iterations` tracks the recorded instruction count
    /// without executing — or building — anything (`V + E` is the `.gcsr`
    /// header's, or the generator's nominal size). Only the *relative* size
    /// matters — it seeds the scheduler's longest-processing-time-first
    /// ordering until measured wall times refine the rates.
    record_work: f64,
}

impl StreamJob {
    /// The stream's experiment over its prepared `graph`: its scale's
    /// hierarchy and the app's traced configuration.
    fn experiment(&self, graph: Arc<Csr>) -> Experiment {
        Experiment::shared(graph, self.key.app).with_hierarchy(self.key.scale.hierarchy())
    }
}

/// A build-at-most-once map: the first caller of a key runs `build`, its
/// concurrent callers block and share the value, distinct keys build
/// concurrently. A `build` that panics leaves the key empty and releases
/// the blocked callers (the next retries with its own closure), so an
/// unwinding worker never strands its siblings.
struct Memo<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self(Mutex::default())
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn get(&self, key: K, build: impl FnOnce() -> V) -> V {
        let mut map = self.0.lock().expect("never poisoned: builds run unlocked");
        let cell = Arc::clone(map.entry(key).or_default());
        drop(map);
        cell.get_or_init(build).clone()
    }
}

/// The graphs one run has prepared so far, **pulled by the tasks that need
/// them** ([`Campaign::prepared_graph`]): on whichever worker first records
/// a stream over one. A run that records nothing leaves this empty.
#[derive(Default)]
struct GraphMemo {
    base: Memo<DatasetId, Arc<dyn GraphView>>,
    reordered: Memo<(DatasetId, TechniqueKind, Direction), Arc<Csr>>,
}

/// A declarative dataset × technique × app × policy grid: a
/// [`CampaignSpec`], which the builder methods write, plus the runtime wiring
/// a spec cannot carry — the dataset catalog, the opened trace store and a
/// shared [`FlightRegistry`].
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) spec: CampaignSpec,
    catalog: DatasetCatalog,
    pub(crate) store: Option<Arc<TraceStore>>,
    flights: Option<Arc<FlightRegistry>>,
}

impl Campaign {
    /// Creates an empty campaign at the given scale.
    ///
    /// Defaults ([`CampaignSpec::new`]): the DBG reordering of the headline
    /// figures, the scale-appropriate hierarchy, and one worker per
    /// available CPU.
    pub fn new(scale: Scale) -> Self {
        Self {
            spec: CampaignSpec::new(scale),
            catalog: DatasetCatalog::new(),
            store: None,
            flights: None,
        }
    }

    /// Builds the campaign of a serializable [`CampaignSpec`]. A spec naming
    /// a trace store directory opens (creating if needed) that store; an
    /// unopenable path surfaces as [`Error::Store`].
    ///
    /// Specs carry no [`DatasetCatalog`], so a spec listing
    /// [`DatasetId::Ingested`] coordinates needs [`Campaign::catalog`]
    /// called on the result before the campaign can run.
    pub fn from_spec(spec: &CampaignSpec) -> Result<Self, Error> {
        let store = spec.store.as_deref().map(TraceStore::open).transpose()?;
        Ok(Self {
            spec: spec.clone(),
            catalog: DatasetCatalog::new(),
            store: store.map(Arc::new),
            flights: None,
        })
    }

    /// Sets the (synthetic) datasets of the grid.
    #[must_use]
    pub fn datasets(mut self, datasets: &[DatasetKind]) -> Self {
        self.spec.datasets = datasets.iter().map(|&kind| kind.into()).collect();
        self
    }

    /// Appends an ingested on-disk graph (by content hash) to the dataset
    /// axis. The hash must be registered in the campaign's
    /// [`DatasetCatalog`] (see [`Campaign::catalog`]) before the campaign
    /// runs.
    #[must_use]
    pub fn ingested_dataset(mut self, hash: GraphHash) -> Self {
        self.spec.datasets.push(DatasetId::Ingested(hash));
        self
    }

    /// Provides the catalog that resolves [`DatasetId::Ingested`]
    /// coordinates to on-disk graphs.
    #[must_use]
    pub fn catalog(mut self, catalog: DatasetCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Sets the reordering techniques of the grid (default: DBG only).
    #[must_use]
    pub fn techniques(mut self, techniques: &[TechniqueKind]) -> Self {
        self.spec.techniques = techniques.to_vec();
        self
    }

    /// Sets the applications of the grid.
    #[must_use]
    pub fn apps(mut self, apps: &[AppKind]) -> Self {
        self.spec.apps = apps.to_vec();
        self
    }

    /// Sets the LLC policies of the grid.
    #[must_use]
    pub fn policies(mut self, policies: &[PolicyKind]) -> Self {
        self.spec.policies = policies.to_vec();
        self
    }

    /// Attaches a persistent trace store. Streams whose recording is already
    /// in the store **skip the record phase entirely** — the persisted
    /// stream, application output and instruction estimate are loaded and
    /// fanned out across the policy grid exactly like a fresh recording
    /// (bit-identical results; pinned by `tests/trace_store.rs`). Streams
    /// the store misses are recorded as usual and atomically published for
    /// the next run. Corrupt entries count as misses and are overwritten.
    #[must_use]
    pub fn with_trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.spec.store = Some(store.dir().display().to_string());
        self.store = Some(store);
        self
    }

    /// Shares an in-flight registry with this campaign, so campaigns holding
    /// the same registry that **overlap in time** do each common piece of
    /// work once. The campaign service wires one registry across all client
    /// campaigns; library users can do the same across threads.
    ///
    /// * **Streams.** Concurrent campaigns never record the same
    ///   (dataset, technique, app, config) stream twice — the first to reach
    ///   a stream records it (or loads it from the store) and every
    ///   concurrent sibling attaches to that recording in memory. Every
    ///   campaign still runs one obtain task per stream; a deduplicated one
    ///   logs [`SchedulerEvent::RecordDeduped`] instead of
    ///   [`SchedulerEvent::RecordFinished`].
    /// * **Cells.** The campaign enlists its grid in the registry for the
    ///   duration of [`Campaign::run`]. The first worker, of any campaign,
    ///   to reach a (stream, policy) cell replays it; every other
    ///   enlisted campaign takes those statistics and assembles the cell's
    ///   [`RunResult`] over its own recording
    ///   ([`SchedulerEvent::ReplayShared`] instead of
    ///   [`SchedulerEvent::ReplayFinished`]) — bit-identical to replaying.
    ///   A worker that finds its cell being replayed elsewhere runs the
    ///   campaign's other tasks meanwhile and parks only when there are
    ///   none; a replay whose leader unwound is replayed by the first
    ///   follower to come back to it. Results are held only while a
    ///   campaign that enlisted the cell is running — nothing is cached.
    ///
    /// [`FlightRegistry::stats`] counts how each flight was served. Without
    /// one a campaign runs through a private registry of its own: it still
    /// replays a policy its grid names twice once, but shares nothing with
    /// other campaigns, and its workers never yield between tasks.
    #[must_use]
    pub fn with_single_flight(mut self, registry: Arc<FlightRegistry>) -> Self {
        self.flights = Some(registry);
        self
    }

    /// Sets the scheduler's worker-thread count ([`Campaign::run_direct`]
    /// runs on the caller and ignores it). `0` (the default) means one
    /// worker per available CPU; degenerate requests (zero, or absurdly
    /// many workers) are clamped at run time to `available_parallelism`,
    /// and every budget is capped at the campaign's cell count — a
    /// degenerate size never reaches the pool. Modest oversubscription (up
    /// to 8× the CPU count) is honoured as requested, so multi-worker
    /// scheduling stays exercisable on small machines.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = threads;
        self
    }

    /// The worker budget a run actually uses (see [`Campaign::threads`]).
    fn worker_budget(&self, jobs: usize) -> usize {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let sane_limit = available.saturating_mul(8);
        let requested = match self.spec.threads {
            0 => available,
            oversized if oversized > sane_limit => available,
            explicit => explicit,
        };
        requested.min(jobs.max(1)).max(1)
    }

    /// The grid coordinates in deterministic grid order: datasets outermost,
    /// then techniques, applications and policies. Delegates to
    /// [`CampaignSpec::cells`] — the grid has exactly one definition, shared
    /// by the library and the service wire format.
    pub fn cells(&self) -> Vec<CampaignCell> {
        self.spec.cells()
    }

    /// Runs the campaign and returns the results in grid order.
    pub fn run(&self) -> CampaignResult {
        self.run_with_observer(&|_, _| {})
    }

    /// The graph-free job of one (dataset, technique, app) coordinate.
    /// Panics on an ingested hash the catalog does not hold — here, on the
    /// planning thread, so a misnamed dataset fails the same way whether or
    /// not a warm store would have hidden it from the workers.
    fn stream_job(&self, dataset: DatasetId, technique: TechniqueKind, app: AppKind) -> StreamJob {
        let scale = self.spec.scale;
        let size = match dataset {
            DatasetId::Synthetic(kind) => scale.vertices() * (1 + kind.average_degree()),
            DatasetId::Ingested(hash) => {
                let entry = self
                    .catalog
                    .entry(hash)
                    .unwrap_or_else(|e| open_failed(dataset, &e));
                entry.vertex_count + entry.edge_count
            }
        };
        let app_config = Experiment::traced_app_config(app);
        StreamJob {
            key: TraceStoreKey::new(
                dataset,
                scale,
                technique,
                app,
                &scale.hierarchy(),
                &app_config,
            ),
            record_work: size as f64 * app_config.max_iterations.max(1) as f64,
        }
    }

    /// The reordered graph of one (dataset, technique, app) coordinate,
    /// built on the calling thread unless `graphs` already holds it.
    fn prepared_graph(&self, graphs: &GraphMemo, job: &StreamJob) -> Arc<Csr> {
        // Reorder once per (dataset, technique, hotness direction) — the
        // direction is a property of the application, but most applications
        // share one, so the permutation work collapses across the app axis.
        let direction = job.key.app.hotness_direction();
        let build = || {
            let source = graphs.base.get(job.key.dataset, || match job.key.dataset {
                DatasetId::Synthetic(kind) => Arc::new(kind.build(self.spec.scale).graph),
                DatasetId::Ingested(hash) => self
                    .catalog
                    .load(hash)
                    .unwrap_or_else(|e| open_failed(job.key.dataset, &e)),
            });
            let perm = job.key.technique.compute(&*source, direction);
            Arc::new(grasp_reorder::relabel(&*source, &perm))
        };
        graphs
            .reordered
            .get((job.key.dataset, job.key.technique, direction), build)
    }

    /// The parity oracle: every cell simulates the full hierarchy
    /// independently ([`Experiment::run`]), one after another on the
    /// calling thread — nothing is recorded, replayed, stored or
    /// deduplicated, the scheduler is not involved (the event log is empty)
    /// and [`Campaign::threads`] does not apply. Tests compare
    /// [`Campaign::run`] against this; it is not reachable from a
    /// [`CampaignSpec`].
    pub fn run_direct(&self) -> CampaignResult {
        let graphs = GraphMemo::default();
        let runs = self
            .cells()
            .into_iter()
            .map(|cell| {
                let job = self.stream_job(cell.dataset, cell.technique, cell.app);
                let experiment = job.experiment(self.prepared_graph(&graphs, &job));
                let result = experiment.run(cell.policy);
                CampaignRun { cell, result }
            })
            .collect();
        CampaignResult {
            runs,
            events: Vec::new(),
        }
    }

    /// Collects the unique (dataset, technique, app) streams of the grid in
    /// first-seen grid order, plus each cell's index into the stream list.
    /// Each stream carries its grid identity so the trace store can key it;
    /// no graph is generated, opened or reordered here.
    fn stream_plan(&self) -> (Vec<(CampaignCell, usize)>, Vec<StreamJob>) {
        let keys = self.spec.streams();
        let cells = self
            .cells()
            .into_iter()
            .map(|cell| {
                let key = (cell.dataset, cell.technique, cell.app);
                let index = keys.iter().position(|&k| k == key);
                (cell, index.expect("every cell's stream is listed"))
            })
            .collect();
        let streams = keys
            .into_iter()
            .map(|(dataset, technique, app)| self.stream_job(dataset, technique, app))
            .collect();
        (cells, streams)
    }

    /// Produces one stream's [`RecordedRun`]: loaded from the trace store
    /// when an entry exists (the record phase is skipped entirely, no graph
    /// is touched), recorded freshly over a graph pulled from `graphs` —
    /// and published back to the store — otherwise. The flag reports
    /// whether the store served the stream (a corrupt entry counts as a
    /// miss and is overwritten); `prep_s` receives the seconds spent on the
    /// graph, which are not record time.
    ///
    /// The scheduler runs this inside [`FlightRegistry::obtain`], so
    /// concurrent obtains of one key — from this campaign or a sibling
    /// sharing the registry — run it once and attach to its recording.
    fn obtain_local(
        &self,
        job: &StreamJob,
        graphs: &GraphMemo,
        prep_s: &mut f64,
    ) -> (RecordedRun, bool) {
        let store = self.store.as_deref();
        if let Some(stored) = store.and_then(|store| store.load(&job.key)) {
            let (trace, app, instructions) = (stored.trace, stored.app, stored.instructions);
            let recorded =
                RecordedRun::from_parts(trace, app, instructions, job.key.scale.hierarchy().llc);
            return (recorded, true);
        }
        let started = Instant::now();
        let graph = self.prepared_graph(graphs, job);
        *prep_s = started.elapsed().as_secs_f64();
        let recorded = job.experiment(graph).record();
        if let Some(store) = store {
            if let Err(err) = store.publish(
                &job.key,
                recorded.trace(),
                recorded.app(),
                recorded.instructions(),
            ) {
                // Publication failures cost future runs the reuse, never
                // this run its results.
                eprintln!("trace store: could not publish {}: {err}", job.key);
            }
        }
        (recorded, false)
    }

    /// Runs the campaign, invoking `observer` once per completed cell with
    /// the cell's grid index and its finished run. Results still come back
    /// in grid order; the *observer* sees cells in **completion order** —
    /// incrementally, from the worker that finished the cell, while the
    /// rest of the grid is still running (the campaign service streams its
    /// per-cell result frames from here).
    ///
    /// The run is a dependency-driven scheduler: one shared ready queue of
    /// typed tasks — `Record(stream)` / `Load(stream)` / `Replay(cell)` —
    /// drained by [`Campaign::threads`] workers with no phase barrier and no
    /// sequential stream loop. Each stream's replay cells become runnable
    /// the moment its obtain task completes, so workers drain replays of
    /// stream *N* while stream *N + 1* is still recording.
    ///
    /// Scheduling policy:
    ///
    /// * **Admission cap.** At most `⌈workers / 2⌉` obtain tasks run
    ///   concurrently once replays are available, so recorders can never
    ///   starve the replay tail (which is what re-creates the barrier).
    ///   The cap is work-conserving: a worker takes an obtain task beyond
    ///   the cap rather than idling when no replay is ready.
    /// * **LPT ordering.** Both queues pop
    ///   longest-processing-time-first, with costs from the `CostModel`:
    ///   expensive streams record early and expensive replays don't
    ///   straggle at the end of the run. Costs are evaluated at pop time,
    ///   so online rate refinements reorder the queues immediately.
    /// * **Retirement.** A stream's recording is dropped as soon as its
    ///   last cell completes, so peak trace memory is bounded by the
    ///   streams with in-flight cells, not the whole grid.
    ///
    /// Each cell's statistics are one [`RecordedRun::replay`] of its
    /// stream's recording, whichever worker runs it and whenever, so results
    /// never depend on scheduling; result slots are indexed by cell, so
    /// neither does grid order.
    pub fn run_with_observer(
        &self,
        observer: &(dyn Fn(usize, &CampaignRun) + Sync),
    ) -> CampaignResult {
        let (cells, streams) = self.stream_plan();
        let workers = self.worker_budget(cells.len());
        let graphs = GraphMemo::default();
        // A plan-time probe (see [`TraceStore::probe`]) classifies each obtain
        // as a cheap `Load` or a full `Record` for cost ordering and event
        // logging; a load still falls back to recording on a corrupt entry.
        let store = self.store.as_deref();
        let probed_load: Vec<bool> = streams
            .iter()
            .map(|job| store.is_some_and(|store| store.probe(&job.key)))
            .collect();
        let mut stream_cells: Vec<Vec<usize>> = vec![Vec::new(); streams.len()];
        for (index, &(_, stream)) in cells.iter().enumerate() {
            stream_cells[stream].push(index);
        }
        let total = cells.len();
        // Half the pool (rounded up) may record while replays are pending;
        // the rest keeps the replay tail draining. See the policy note
        // above.
        let obtain_cap = workers.div_ceil(2).max(1);
        let sched = Arc::new(Sched {
            state: Mutex::new(SchedState::new(&stream_cells)),
            ready: Condvar::new(),
        });
        // The grid is enlisted from here until this function returns or
        // unwinds: what any overlapping campaign (or a twin cell) replays,
        // this one does not.
        let registry = self.flights.clone().unwrap_or_default();
        let plan = SchedPlan {
            cells: &cells,
            streams: &streams,
            graphs: &graphs,
            probed_load: &probed_load,
            stream_cells: &stream_cells,
            obtain_cap,
            total,
            observer,
            registry: &registry,
            interest: registry.enlist_cells(cells.iter().map(|&(cell, stream)| CellKey {
                stream: streams[stream].key,
                policy: cell.policy,
            })),
            wake: sched.waker(),
            yields: self.flights.is_some(),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.scheduler_worker(&sched, &plan));
            }
        });
        let mut state = sched
            .state
            .lock()
            .expect("no worker panicked past the scope");
        let runs = std::mem::take(&mut state.results)
            .into_iter()
            .map(|slot| slot.expect("the scheduler fills every cell slot exactly once"))
            .collect();
        CampaignResult {
            runs,
            events: std::mem::take(&mut state.events),
        }
    }

    /// One worker of the scheduler: loop picking tasks under the lock,
    /// executing them unlocked, and folding results + measured rates back
    /// in. Exits when every cell is done (or a sibling aborted).
    fn scheduler_worker(&self, sched: &Sched, plan: &SchedPlan<'_>) {
        // On panic (unlocked task execution), wake and release the siblings
        // so the scope join can propagate instead of deadlocking on the
        // condvar.
        let _abort = AbortGuard { sched };
        let Sched { state, ready } = sched;
        // Between tasks, a worker of a campaign with siblings (an attached
        // registry: the daemon) offers its core to whoever is runnable. Tasks
        // never block, so with fewer cores than campaigns × workers a second
        // request's freshly spawned threads otherwise wait whole scheduler
        // slices while the first campaign runs through (`serve_overlap`
        // time-to-first-cell 6.1 ms vs 2.3 ms, same total wall-clock).
        let offer_core = || {
            if plan.yields {
                std::thread::yield_now();
            }
        };
        let mut guard = state.lock().expect("scheduler state never poisoned");
        loop {
            if guard.aborted || guard.done_cells == plan.total {
                break;
            }
            // A cell that was being replayed elsewhere when this campaign
            // reached it is the next task the moment that replay has
            // resolved: landed, it is a result for free; abandoned by an
            // unwinding leader, it is a replay again. The claim below tells
            // which.
            let resolved = guard
                .deferred
                .iter()
                .position(|&cell| !plan.interest.in_flight(cell));
            let mut next_cell = resolved.map(|at| guard.deferred.swap_remove(at));
            let take_obtain = next_cell.is_none()
                && !guard.obtain_queue.is_empty()
                && (guard.obtains_inflight < plan.obtain_cap || guard.replay_queue.is_empty());
            if take_obtain {
                let stream = {
                    let SchedState {
                        obtain_queue,
                        model,
                        ..
                    } = &mut *guard;
                    lpt_pop(obtain_queue, |stream| {
                        let app = plan.streams[stream].key.app;
                        let work = plan.streams[stream].record_work;
                        if plan.probed_load[stream] {
                            model.load_cost(app, work)
                        } else {
                            model.record_cost(app, work)
                        }
                    })
                };
                guard.obtains_inflight += 1;
                let as_load = plan.probed_load[stream];
                guard.events.push(if as_load {
                    SchedulerEvent::LoadStarted { stream }
                } else {
                    SchedulerEvent::RecordStarted { stream }
                });
                drop(guard);

                let job = &plan.streams[stream];
                let started = Instant::now();
                let mut prep_s = 0.0;
                let (recorded, served) = plan
                    .registry
                    .obtain(job.key, || self.obtain_local(job, plan.graphs, &mut prep_s));
                // Building (or waiting for) the graph is not record time:
                // the rates must not depend on which stream pulled it first.
                let elapsed = started.elapsed().as_secs_f64() - prep_s;

                offer_core();
                guard = state.lock().expect("scheduler state never poisoned");
                let (app, work) = (job.key.app, job.record_work);
                if as_load {
                    guard.model.observe_load(app, work, elapsed);
                    guard.events.push(SchedulerEvent::LoadFinished {
                        stream,
                        hit: served != FlightServed::Recorded,
                    });
                } else {
                    guard.model.observe_record(app, work, elapsed);
                    // A planned Record that was served without recording —
                    // another campaign's in-flight recording, or a store
                    // entry published since the plan-time probe — logs as
                    // deduplicated, so RecordFinished counts stay an exact
                    // census of recordings actually executed.
                    guard.events.push(if served == FlightServed::Recorded {
                        SchedulerEvent::RecordFinished { stream }
                    } else {
                        SchedulerEvent::RecordDeduped { stream }
                    });
                }
                guard.trace_records[stream] = recorded.trace().len() as f64;
                guard.recorded[stream] = Some(recorded);
                guard.obtains_inflight -= 1;
                guard
                    .replay_queue
                    .extend_from_slice(&plan.stream_cells[stream]);
                ready.notify_all();
                continue;
            }
            if next_cell.is_none() && !guard.replay_queue.is_empty() {
                let SchedState {
                    replay_queue,
                    model,
                    trace_records,
                    ..
                } = &mut *guard;
                next_cell = Some(lpt_pop(replay_queue, |index| {
                    let (cell, stream) = plan.cells[index];
                    model.replay_cost(cell.app, cell.policy, trace_records[stream])
                }));
            }
            if let Some(cell_index) = next_cell {
                let (cell, stream) = plan.cells[cell_index];
                // Either this worker leads the cell's replay or another
                // worker, of this campaign or an overlapping one, has landed
                // it already.
                let (lead, landed) = match plan.interest.claim(cell_index, &plan.wake) {
                    Claim::Lead(lead) => (Some(lead), None),
                    Claim::Landed(stats) => (None, Some(stats)),
                    Claim::InFlight => {
                        // Being replayed elsewhere, by a worker that now
                        // holds this campaign's waker: on with the rest.
                        guard.deferred.push(cell_index);
                        continue;
                    }
                };
                let recorded = Arc::clone(
                    guard.recorded[stream]
                        .as_ref()
                        .expect("replay tasks only queue after their stream is obtained"),
                );
                let replayed = landed.is_none();
                if replayed {
                    guard
                        .events
                        .push(SchedulerEvent::ReplayStarted { cell: cell_index });
                }
                drop(guard);

                let started = Instant::now();
                let stats = landed.unwrap_or_else(|| recorded.replay_stats(cell.policy));
                if let Some(lead) = lead {
                    plan.interest.land(lead, stats.clone());
                }
                let result = recorded.result(cell.policy, stats);
                let elapsed = started.elapsed().as_secs_f64();
                drop(recorded);
                let run = CampaignRun { cell, result };
                // Completion callbacks run unlocked, from the worker that
                // finished the cell — a slow observer (the service writing a
                // frame to a slow client) never stalls the scheduler.
                (plan.observer)(cell_index, &run);

                offer_core();
                guard = state.lock().expect("scheduler state never poisoned");
                guard.finish_cell(cell_index, stream, run, replayed.then_some(elapsed));
                ready.notify_all();
                continue;
            }
            // Nothing runnable: obtains are in flight, whose completion
            // refills the replay queue, or other workers are replaying this
            // campaign's remaining cells, whose landing rings `ready`
            // through the waker. Sleep until state changes.
            guard = ready.wait(guard).expect("scheduler state never poisoned");
        }
        drop(guard);
        ready.notify_all();
    }
}

/// A per-cell completion callback (see [`Campaign::run_with_observer`]):
/// called with the cell's grid index and its finished run, from whichever
/// worker finished it.
type CellObserver<'a> = &'a (dyn Fn(usize, &CampaignRun) + Sync);

/// The immutable plan the scheduler's workers share: the grid,
/// the task classification and the admission parameters. Splitting this
/// from [`SchedState`] keeps the mutable state (and the lock) minimal.
struct SchedPlan<'a> {
    /// Every cell with its stream index, in grid order.
    cells: &'a [(CampaignCell, usize)],
    /// The unique streams in first-seen grid order.
    streams: &'a [StreamJob],
    /// The run's demand-built graphs (see [`GraphMemo`]).
    graphs: &'a GraphMemo,
    /// Per-stream plan-time classification: `true` when the trace store
    /// probe saw an entry, making the obtain task a `Load`.
    probed_load: &'a [bool],
    /// Per-stream list of cell indices (the tasks an obtain unlocks).
    stream_cells: &'a [Vec<usize>],
    /// Maximum concurrent obtain tasks while replays are pending.
    obtain_cap: usize,
    /// Total cell count (the run is done when this many results landed).
    total: usize,
    /// Per-cell completion callback, invoked unlocked as each cell lands.
    observer: CellObserver<'a>,
    /// The registry the run's obtains go through: the attached one, or the
    /// run's own.
    registry: &'a FlightRegistry,
    /// The run's enlistment in its cells' replays, by cell index.
    interest: CellInterest<'a>,
    /// What a flight led elsewhere rings when it resolves.
    wake: Wake,
    /// Whether workers yield between tasks: only with an attached registry.
    yields: bool,
}

/// The scheduler's shared state and the condvar its idle workers park on.
/// Behind an `Arc` because the waker other campaigns ring holds it too.
struct Sched {
    state: Mutex<SchedState>,
    ready: Condvar,
}

impl Sched {
    /// A [`Wake`] that gets parked workers to look at the state again. It
    /// goes through the lock, so a worker that found a flight pending cannot
    /// miss the ring on its way to parking.
    fn waker(self: &Arc<Self>) -> Wake {
        let sched = Arc::clone(self);
        Arc::new(move || {
            drop(sched.state.lock());
            sched.ready.notify_all();
        })
    }
}

/// The mutable state of the scheduler, shared under one mutex.
struct SchedState {
    /// Stream indices whose obtain task has not been claimed yet.
    obtain_queue: Vec<usize>,
    /// Cell indices whose stream is obtained and whose replay has not been
    /// claimed yet.
    replay_queue: Vec<usize>,
    /// Cell indices being replayed elsewhere when a worker claimed them
    /// (another campaign, or a worker replaying the same policy for a twin
    /// cell): neither queued nor done until that replay resolves.
    deferred: Vec<usize>,
    /// Obtain tasks currently executing (admission-cap accounting).
    obtains_inflight: usize,
    /// Per-stream recording, present from obtain completion to retirement.
    recorded: Vec<Option<Arc<RecordedRun>>>,
    /// Per-stream trace record count (the replay cost driver), filled when
    /// the stream is obtained.
    trace_records: Vec<f64>,
    /// Per-stream count of cells still to finish; 0 retires the stream.
    remaining_cells: Vec<usize>,
    /// Per-cell result slots, indexed in grid order.
    results: Vec<Option<CampaignRun>>,
    /// Cells completed so far.
    done_cells: usize,
    /// The interleaving log (appended under the lock).
    events: Vec<SchedulerEvent>,
    /// Online-refined task cost rates.
    model: CostModel,
    /// Set when a worker panicked, so sleeping siblings exit instead of
    /// waiting for a notification that will never come.
    aborted: bool,
}

impl SchedState {
    /// The state before any task ran: every stream to obtain, no cell
    /// runnable. `stream_cells[s]` lists stream `s`'s cell indices.
    fn new(stream_cells: &[Vec<usize>]) -> Self {
        let streams = stream_cells.len();
        let total = stream_cells.iter().map(Vec::len).sum();
        Self {
            obtain_queue: (0..streams).collect(),
            replay_queue: Vec::new(),
            deferred: Vec::new(),
            obtains_inflight: 0,
            recorded: (0..streams).map(|_| None).collect(),
            trace_records: vec![0.0; streams],
            remaining_cells: stream_cells.iter().map(Vec::len).collect(),
            results: (0..total).map(|_| None).collect(),
            done_cells: 0,
            events: Vec::new(),
            model: CostModel::default(),
            aborted: false,
        }
    }

    /// Folds one finished cell in. `replay_s` is what this campaign spent
    /// replaying it — `None` for a cell served with another campaign's
    /// statistics, whose ≈ 0 s must never reach the cost model: it would
    /// drag down the (app, policy) rate the LPT order ranks real replays by.
    fn finish_cell(
        &mut self,
        cell_index: usize,
        stream: usize,
        run: CampaignRun,
        replay_s: Option<f64>,
    ) {
        self.events.push(match replay_s {
            Some(elapsed) => {
                let records = self.trace_records[stream];
                self.model
                    .observe_replay(run.cell.app, run.cell.policy, records, elapsed);
                SchedulerEvent::ReplayFinished { cell: cell_index }
            }
            None => SchedulerEvent::ReplayShared { cell: cell_index },
        });
        self.results[cell_index] = Some(run);
        self.done_cells += 1;
        self.remaining_cells[stream] -= 1;
        if self.remaining_cells[stream] == 0 {
            self.recorded[stream] = None;
            self.events.push(SchedulerEvent::StreamRetired { stream });
        }
    }
}

/// An ingested graph cannot be opened: an unregistered hash at plan time,
/// an unreadable directory when a record demands it.
fn open_failed(dataset: DatasetId, err: &dyn std::fmt::Display) -> ! {
    panic!("cannot open ingested dataset {dataset}: {err}")
}

/// Pops the highest-cost entry of `queue` (longest-processing-time-first).
/// Costs are evaluated at pop time so rate refinements take effect on
/// already-queued tasks.
fn lpt_pop(queue: &mut Vec<usize>, cost: impl Fn(usize) -> f64) -> usize {
    let mut best = 0;
    let mut best_cost = f64::NEG_INFINITY;
    for (position, &item) in queue.iter().enumerate() {
        let item_cost = cost(item);
        if item_cost > best_cost {
            best = position;
            best_cost = item_cost;
        }
    }
    queue.swap_remove(best)
}

/// Wakes and releases the scheduler's sibling workers when the owning
/// worker unwinds, so the thread-scope join propagates the panic instead of
/// deadlocking on workers parked in [`Condvar::wait`].
struct AbortGuard<'a> {
    sched: &'a Sched,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut guard) = self.sched.state.lock() {
                guard.aborted = true;
            }
            self.sched.ready.notify_all();
        }
    }
}

/// The results of a campaign, in deterministic grid order.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    runs: Vec<CampaignRun>,
    events: Vec<SchedulerEvent>,
}

impl CampaignResult {
    /// The scheduler's per-task event log, in true interleaving order
    /// (empty for [`Campaign::run_direct`], which has no scheduler).
    pub fn scheduler_events(&self) -> &[SchedulerEvent] {
        &self.events
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Returns `true` when the campaign had no cells.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates the results in grid order.
    pub fn iter(&self) -> impl Iterator<Item = &CampaignRun> {
        self.runs.iter()
    }

    /// Looks up one cell's result.
    pub fn get(
        &self,
        dataset: impl Into<DatasetId>,
        technique: TechniqueKind,
        app: AppKind,
        policy: PolicyKind,
    ) -> Option<&RunResult> {
        let cell = CampaignCell {
            dataset: dataset.into(),
            technique,
            app,
            policy,
        };
        self.runs
            .iter()
            .find(|run| run.cell == cell)
            .map(|run| &run.result)
    }

    /// Consumes the result set into its grid-ordered runs.
    pub fn into_runs(self) -> Vec<CampaignRun> {
        self.runs
    }
}

impl IntoIterator for CampaignResult {
    type Item = CampaignRun;
    type IntoIter = std::vec::IntoIter<CampaignRun>;

    fn into_iter(self) -> Self::IntoIter {
        self.runs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::Lead;
    use grasp_cachesim::stats::HierarchyStats;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn tiny_campaign() -> Campaign {
        Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Rrip, PolicyKind::Grasp])
    }

    #[test]
    fn results_arrive_in_grid_order() {
        let campaign = tiny_campaign().threads(4);
        let cells = campaign.cells();
        let results = campaign.run();
        assert_eq!(results.len(), cells.len());
        for (expected, run) in cells.iter().zip(results.iter()) {
            assert_eq!(expected, &run.cell);
        }
    }

    #[test]
    fn lookup_finds_cells() {
        let results = tiny_campaign().threads(2).run();
        let rrip = results
            .get(
                DatasetKind::Twitter,
                TechniqueKind::Dbg,
                AppKind::PageRank,
                PolicyKind::Rrip,
            )
            .expect("cell exists");
        assert!(rrip.llc_accesses() > 0);
        assert!(results
            .get(
                DatasetKind::Kron,
                TechniqueKind::Dbg,
                AppKind::PageRank,
                PolicyKind::Rrip,
            )
            .is_none());
    }

    #[test]
    fn empty_campaign_is_empty() {
        let results = Campaign::new(Scale::Tiny).run();
        assert!(results.is_empty());
        assert_eq!(results.len(), 0);
    }

    #[test]
    fn memo_builds_each_key_once_across_threads() {
        let memo: Memo<u32, Arc<u32>> = Memo::default();
        let builds = AtomicUsize::new(0);
        let threads = 6;
        let gate = std::sync::Barrier::new(threads);
        let values: Vec<Arc<u32>> = std::thread::scope(|scope| {
            let demands: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait(); // all demand the same key at once
                        memo.get(7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Hold the build open so the others pile up.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Arc::new(49)
                        })
                    })
                })
                .collect();
            demands.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per key");
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        // A second key builds on its own; the first is served from the memo.
        assert_eq!(*memo.get(8, || Arc::new(64)), 64);
        assert!(Arc::ptr_eq(
            &memo.get(7, || unreachable!("already built")),
            &values[0]
        ));
    }

    #[test]
    fn memo_build_that_panics_releases_its_waiters() {
        let memo: Memo<u32, u32> = Memo::default();
        let (building, built) = mpsc::channel();
        std::thread::scope(|scope| {
            let builder = scope.spawn(|| {
                memo.get(1, || {
                    building.send(()).expect("the waiter listens");
                    // Give the waiter time to park on this build.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("graph cannot be opened");
                })
            });
            built.recv().expect("the build started");
            // Parked behind the doomed build (or arriving just after it
            // unwound): either way this caller runs its own closure instead
            // of waiting forever on a value that will never land.
            assert_eq!(memo.get(1, || 11), 11);
            assert!(builder.join().is_err(), "the builder's panic propagates");
        });
        assert_eq!(memo.get(1, || unreachable!("the retry landed")), 11);
    }

    #[test]
    fn recording_campaign_prepares_each_graph_once_and_a_warm_one_none() {
        let dir = std::env::temp_dir().join(format!("grasp-campaign-memo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
        let campaign = Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&AppKind::ALL)
            .policies(&[PolicyKind::Rrip])
            .threads(3)
            .with_trace_store(store);
        let (_, streams) = campaign.stream_plan();
        let graphs = GraphMemo::default();
        let prepared: Vec<Arc<Csr>> = std::thread::scope(|scope| {
            let demands: Vec<_> = streams
                .iter()
                .map(|job| scope.spawn(|| campaign.prepared_graph(&graphs, job)))
                .collect();
            demands.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Five streams, two hotness directions, one base dataset.
        let prepared_counts = |graphs: &GraphMemo| {
            let base = graphs.base.0.lock().unwrap().len();
            (base, graphs.reordered.0.lock().unwrap().len())
        };
        assert_eq!(prepared_counts(&graphs), (1, 2));
        for (job, graph) in streams.iter().zip(&prepared) {
            let same_direction = streams
                .iter()
                .position(|other| {
                    other.key.app.hotness_direction() == job.key.app.hotness_direction()
                })
                .expect("the job itself");
            assert!(
                Arc::ptr_eq(graph, &prepared[same_direction]),
                "{}",
                job.key.app
            );
        }

        // Cold: every stream records. Warm: every obtain is a store hit and
        // `obtain_local` is handed a memo that must stay empty.
        campaign.run();
        let warm = GraphMemo::default();
        for job in &streams {
            let mut prep_s = 0.0;
            let (_, hit) = campaign.obtain_local(job, &warm, &mut prep_s);
            assert!(hit);
            assert_eq!(prep_s, 0.0);
        }
        assert_eq!(prepared_counts(&warm), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_and_direct_plans_agree_bit_for_bit() {
        // One worker: each recording is replayed by the thread that made it.
        let campaign = tiny_campaign().threads(1);
        assert_matches_direct(&campaign, &campaign.run());
    }

    #[test]
    fn pipelined_plan_agrees_with_direct_bit_for_bit() {
        let pipelined = tiny_campaign().threads(4).run();
        let direct = tiny_campaign().threads(4).run_direct();
        assert_eq!(pipelined.len(), direct.len());
        for (a, b) in pipelined.iter().zip(direct.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.result.stats, b.result.stats, "{:?}", a.cell);
            assert_eq!(a.result.app.values, b.result.app.values, "{:?}", a.cell);
            assert!((a.result.cycles - b.result.cycles).abs() < 1e-12);
        }
    }

    #[test]
    fn pipelined_event_log_covers_every_task() {
        let campaign = tiny_campaign().threads(3);
        let streams = campaign.stream_plan().1.len();
        let cells = campaign.cells().len();
        let results = campaign.run();
        let events = results.scheduler_events();
        let count =
            |matcher: fn(&SchedulerEvent) -> bool| events.iter().filter(|e| matcher(e)).count();
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::RecordStarted { .. })),
            streams
        );
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::RecordFinished { .. })),
            streams
        );
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::StreamRetired { .. })),
            streams
        );
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::ReplayStarted { .. })),
            cells
        );
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::ReplayFinished { .. })),
            cells
        );
        // No store attached: nothing may classify as a load.
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::LoadStarted { .. })),
            0
        );
        // The oracle has no scheduler, hence no log.
        assert!(tiny_campaign().run_direct().scheduler_events().is_empty());
    }

    #[test]
    fn duplicate_policies_assemble_correctly() {
        // Duplicate grid policies are distinct cells of the same stream,
        // each with its own result slot; the twin takes the first one's
        // replay, as a sibling campaign's would.
        let campaign = Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Rrip, PolicyKind::Rrip, PolicyKind::Grasp]);
        let results = campaign.threads(2).run();
        assert_eq!(results.len(), 3);
        let runs: Vec<_> = results.iter().collect();
        assert_eq!(runs[0].result.stats, runs[1].result.stats);
        let replayed = count_events(&results, |e| {
            matches!(e, SchedulerEvent::ReplayFinished { .. })
        });
        let shared = count_events(&results, |e| {
            matches!(e, SchedulerEvent::ReplayShared { .. })
        });
        assert_eq!((replayed, shared), (2, 1));
    }

    #[test]
    fn lpt_ranks_seen_and_unseen_tasks_in_one_unit() {
        // Dataset 1 measured record(BC) slow and record(PR) fast. On dataset
        // 2, at equal work, BC goes first and the never-measured SSSP — at
        // the mean of the two — ahead of PR, however many times either of
        // them was measured.
        let (slow, fast, unseen) = (AppKind::Bc, AppKind::PageRank, AppKind::Sssp);
        let mut model = CostModel::default();
        assert_eq!(model.record_cost(unseen, 100.0), 100.0, "seed: work alone");
        model.observe_record(slow, 1e6, 8e-3);
        for _ in 0..3 {
            model.observe_record(fast, 1e6, 2e-3);
        }
        assert_eq!(model.record_cost(slow, 1e6), 8e-3);
        assert_eq!(model.record_cost(fast, 1e6), 2e-3);
        assert_eq!(model.record_cost(unseen, 1e6), 5e-3);
        // An unmeasured load is a discount on recording the same stream,
        // until one load is measured for any application.
        assert_eq!(model.load_cost(slow, 1e6), 8e-3 / 16.0);
        model.observe_load(fast, 1e6, 1e-4);
        assert_eq!(model.load_cost(slow, 1e6), 1e-4);

        let apps = [fast, unseen, slow];
        let mut queue = vec![0, 1, 2];
        let order: Vec<AppKind> = (0..3)
            .map(|_| apps[lpt_pop(&mut queue, |task| model.record_cost(apps[task], 1e6))])
            .collect();
        assert_eq!(order, [slow, unseen, fast]);
    }

    #[test]
    fn degenerate_thread_counts_are_clamped() {
        // Zero resolves to available parallelism and absurd requests fall
        // back to it; every budget is capped at the cell count. Moderate
        // oversubscription is honoured (so multi-worker scheduling is
        // exercised even on single-CPU machines).
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let zero = tiny_campaign().threads(0);
        assert_eq!(zero.worker_budget(8), available.min(8));
        let oversized = tiny_campaign().threads(1_000_000);
        assert_eq!(oversized.worker_budget(2), available.min(2));
        assert_eq!(oversized.worker_budget(0), 1);
        assert_eq!(
            tiny_campaign().threads(4).worker_budget(8),
            4,
            "an explicit modest request must reach the pool as-is"
        );
        let runs = oversized.run();
        assert_eq!(runs.len(), 2);
        let zero_runs = tiny_campaign().threads(0).run();
        assert_eq!(zero_runs.len(), 2);
        for (a, b) in runs.iter().zip(zero_runs.iter()) {
            assert_eq!(a.result.stats, b.result.stats);
        }
    }

    #[test]
    fn spec_round_trips_through_campaign_and_json() {
        let campaign = tiny_campaign().threads(3);
        let spec = campaign.spec.clone();
        let rebuilt = Campaign::from_spec(&spec).expect("spec rebuilds");
        assert_eq!(rebuilt.spec, spec, "from_spec round-trip");
        assert_eq!(rebuilt.cells(), campaign.cells());
        let decoded = CampaignSpec::from_json(&spec.to_json()).expect("wire round-trip");
        assert_eq!(decoded, spec);

        let dir = std::env::temp_dir().join(format!("grasp-campaign-spec-{}", std::process::id()));
        let store = Arc::new(TraceStore::open(&dir).expect("temp store opens"));
        let stored = campaign.with_trace_store(Arc::clone(&store)).spec;
        assert_eq!(stored.store, Some(store.dir().display().to_string()));
        assert_eq!(
            CampaignSpec {
                store: None,
                ..stored
            },
            spec
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cells_delegate_to_the_spec_grid() {
        let campaign = tiny_campaign();
        assert_eq!(campaign.cells(), campaign.spec.cells());
    }

    #[test]
    fn observer_sees_every_cell_exactly_once_in_every_plan() {
        let campaign = tiny_campaign().threads(3);
        let cells = campaign.cells();
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let results = campaign.run_with_observer(&|index, run| {
            assert_eq!(cells[index], run.cell);
            seen.lock().unwrap().push(index);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..results.len()).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn shared_registry_collapses_concurrent_recordings() {
        let dir =
            std::env::temp_dir().join(format!("grasp-campaign-flight-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
        let registry = Arc::new(FlightRegistry::new());
        let campaign = Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank, AppKind::Sssp])
            .policies(&[PolicyKind::Rrip, PolicyKind::Grasp])
            .threads(2)
            .with_trace_store(Arc::clone(&store))
            .with_single_flight(Arc::clone(&registry));
        let streams = campaign.stream_plan().1.len();
        assert_eq!(streams, 2);

        let (a, b) = std::thread::scope(|scope| {
            let ca = campaign.clone();
            let cb = campaign.clone();
            let ha = scope.spawn(move || ca.run());
            let hb = scope.spawn(move || cb.run());
            (ha.join().unwrap(), hb.join().unwrap())
        });

        // The single-flight guarantee: each unique stream was recorded by
        // exactly one of the two campaigns, whichever interleaving occurred.
        assert_eq!(registry.stats().recorded as usize, streams);
        let events: Vec<&SchedulerEvent> = a
            .scheduler_events()
            .iter()
            .chain(b.scheduler_events())
            .collect();
        let count =
            |matcher: fn(&SchedulerEvent) -> bool| events.iter().filter(|e| matcher(e)).count();
        assert_eq!(
            count(|e| matches!(e, SchedulerEvent::RecordFinished { .. })),
            streams,
            "RecordFinished is an exact census of executed recordings"
        );
        // Every other obtain was deduplicated (in-flight attach or a store
        // entry published after the plan-time probe) or served as a load.
        assert_eq!(
            count(|e| matches!(
                e,
                SchedulerEvent::RecordFinished { .. }
                    | SchedulerEvent::RecordDeduped { .. }
                    | SchedulerEvent::LoadFinished { .. }
            )),
            2 * streams
        );
        // Shared recordings replay bit-identically to fresh ones.
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.cell, rb.cell);
            assert_eq!(ra.result.stats, rb.result.stats, "{:?}", ra.cell);
        }
        assert_eq!(store.stats().corrupt, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_matches_direct(campaign: &Campaign, result: &CampaignResult) {
        let direct = campaign.run_direct();
        assert_eq!(result.len(), direct.len());
        for (a, b) in result.iter().zip(direct.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.result.policy, b.result.policy, "{:?}", a.cell);
            assert_eq!(a.result.stats, b.result.stats, "{:?}", a.cell);
            assert_eq!(a.result.app.values, b.result.app.values, "{:?}", a.cell);
            assert_eq!(a.result.cycles.to_bits(), b.result.cycles.to_bits());
        }
    }

    fn count_events(result: &CampaignResult, matcher: fn(&SchedulerEvent) -> bool) -> usize {
        result
            .scheduler_events()
            .iter()
            .filter(|e| matcher(e))
            .count()
    }

    #[test]
    fn overlapping_campaigns_replay_each_common_cell_once() {
        let registry = Arc::new(FlightRegistry::new());
        let sweep = |policies: &[PolicyKind]| {
            Campaign::new(Scale::Tiny)
                .datasets(&[DatasetKind::Twitter])
                .apps(&[AppKind::PageRank, AppKind::Sssp])
                .policies(policies)
                .threads(2)
                .with_single_flight(Arc::clone(&registry))
        };
        let a = sweep(&[PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp]);
        let b = sweep(&[PolicyKind::Rrip, PolicyKind::Grasp, PolicyKind::Hawkeye]);
        // Force the overlap sharing is defined over: each campaign holds its
        // first finished cell until the other has one too, so neither
        // returns before both are enlisted.
        let both_running = std::sync::Barrier::new(2);
        let run = |campaign: &Campaign| {
            let first = std::sync::atomic::AtomicBool::new(true);
            campaign.run_with_observer(&|_, _| {
                if first.swap(false, Ordering::SeqCst) {
                    both_running.wait();
                }
            })
        };
        let (ra, rb) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| run(&a));
            let hb = scope.spawn(|| run(&b));
            (ha.join().unwrap(), hb.join().unwrap())
        });

        // Taking another campaign's statistics is bit-identical to replaying
        // — in particular it never takes another *policy's*.
        assert_matches_direct(&a, &ra);
        assert_matches_direct(&b, &rb);
        // 2 streams x {LRU, RRIP, GRASP, Hawkeye}: 8 unique cells among 12.
        let replayed = |r| count_events(r, |e| matches!(e, SchedulerEvent::ReplayFinished { .. }));
        let shared = |r| count_events(r, |e| matches!(e, SchedulerEvent::ReplayShared { .. }));
        let started = |r| count_events(r, |e| matches!(e, SchedulerEvent::ReplayStarted { .. }));
        assert_eq!(
            replayed(&ra) + replayed(&rb),
            8,
            "one replay per unique cell"
        );
        assert_eq!(shared(&ra) + shared(&rb), 4, "the rest are shared");
        assert_eq!(started(&ra) + started(&rb), 8);
        for result in [&ra, &rb] {
            assert_eq!(replayed(result) + shared(result), result.len());
        }
        let stats = registry.stats();
        assert_eq!((stats.cells_replayed, stats.cells_shared), (8, 4));
        assert_eq!(stats.cells_inflight, 0, "nothing outlives the campaigns");
    }

    /// Runs a one-worker, one-stream, three-policy campaign whose cell 0 is
    /// being replayed "elsewhere" — by the test, playing the overlapping
    /// campaign that got there first. Once the campaign has finished its
    /// other cells, `resolve` ends that replay (handed the true statistics,
    /// to land or not). Returns the campaign, its result and the order its
    /// cells finished in.
    fn run_with_cell_0_led_elsewhere(
        resolve: impl FnOnce(&CellInterest<'_>, Lead<'_, HierarchyStats>, HierarchyStats),
    ) -> (Campaign, CampaignResult, Vec<usize>) {
        const STRANDED: std::time::Duration = std::time::Duration::from_secs(60);
        let registry = Arc::new(FlightRegistry::new());
        let campaign = Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Rrip, PolicyKind::Grasp, PolicyKind::Lru])
            .threads(1)
            .with_single_flight(Arc::clone(&registry));
        let (cells, streams) = campaign.stream_plan();
        let elsewhere = registry.enlist_cells([CellKey {
            stream: streams[0].key,
            policy: cells[0].0.policy,
        }]);
        let unwatched: Wake = Arc::new(|| ());
        let Claim::Lead(lead) = elsewhere.claim(0, &unwatched) else {
            panic!("nobody else is enlisted yet");
        };
        let true_stats = campaign.run_direct().into_runs().remove(0).result.stats;

        // A detached thread, not a scope: if the campaign strands, the test
        // fails on the timeouts below instead of hanging on a join.
        let (finished, order) = mpsc::channel();
        let (returned, result) = mpsc::channel();
        let runner = campaign.clone();
        std::thread::spawn(move || {
            let finished = Mutex::new(finished);
            let result = runner.run_with_observer(&|index, _| {
                finished.lock().unwrap().send(index).ok();
            });
            returned.send(result).ok();
        });
        // The lone worker reaches cell 0 first (equal seed costs pop in grid
        // order). It must leave it and finish cells 1 and 2 — while the
        // replay it would otherwise wait for is still held here.
        let mut order_seen = vec![
            order
                .recv_timeout(STRANDED)
                .expect("no parking while runnable"),
            order
                .recv_timeout(STRANDED)
                .expect("no parking while runnable"),
        ];
        assert!(elsewhere.in_flight(0));
        resolve(&elsewhere, lead, true_stats);
        order_seen.push(order.recv_timeout(STRANDED).expect("cell 0 resolves"));
        let result = result.recv_timeout(STRANDED).expect("the campaign returns");
        drop(elsewhere);
        assert_eq!(registry.stats().cells_inflight, 0);
        (campaign, result, order_seen)
    }

    #[test]
    fn a_cell_replaying_elsewhere_is_collected_after_the_runnable_ones() {
        let (campaign, result, order) =
            run_with_cell_0_led_elsewhere(|elsewhere, lead, stats| elsewhere.land(lead, stats));
        assert_eq!(order[2], 0, "the shared cell lands last: {order:?}");
        assert_matches_direct(&campaign, &result);
        let events = result.scheduler_events();
        assert!(events.contains(&SchedulerEvent::ReplayShared { cell: 0 }));
        assert!(!events.contains(&SchedulerEvent::ReplayStarted { cell: 0 }));
        for cell in [1, 2] {
            assert!(events.contains(&SchedulerEvent::ReplayFinished { cell }));
        }
    }

    #[test]
    fn a_cell_abandoned_elsewhere_is_replayed_here() {
        // The leader unwinds instead of landing: its follower replays.
        let (campaign, result, order) = run_with_cell_0_led_elsewhere(|_, lead, _| drop(lead));
        assert_eq!(order[2], 0);
        assert_matches_direct(&campaign, &result);
        let replayed = count_events(&result, |e| {
            matches!(e, SchedulerEvent::ReplayFinished { .. })
        });
        assert_eq!(replayed, 3, "nothing was shared");
    }

    #[test]
    fn shared_cells_never_feed_the_replay_rates() {
        let mut runs = tiny_campaign().run().into_runs();
        let (second, first) = (runs.pop().unwrap(), runs.pop().unwrap());
        let mut state = SchedState::new(&[vec![0, 1]]);
        state.trace_records[0] = 1000.0;
        // A shared cell costs this campaign nothing, which says nothing
        // about what a replay costs.
        state.finish_cell(0, 0, first, None);
        assert!(state.model.replay_rate.is_empty());
        state.finish_cell(1, 0, second.clone(), Some(2.0));
        let key = (second.cell.app, second.cell.policy);
        // The first measurement replaces the seed: 2.0 s / 1000 records.
        assert_eq!(state.model.replay_rate[&key], 0.002);
        assert_eq!(state.done_cells, 2);
        assert_eq!(
            state.events,
            [
                SchedulerEvent::ReplayShared { cell: 0 },
                SchedulerEvent::ReplayFinished { cell: 1 },
                SchedulerEvent::StreamRetired { stream: 0 },
            ]
        );
    }
}
