//! The experiment runner: dataset × reordering × application × LLC policy.

use crate::policy::PolicyKind;
use grasp_analytics::apps::{AppConfig, AppKind, AppResult};
use grasp_analytics::mem::NativeMemory;
use grasp_cachesim::config::{CacheConfig, HierarchyConfig};
use grasp_cachesim::stats::HierarchyStats;
use grasp_cachesim::timing::cycles;
use grasp_cachesim::trace::LlcTrace;
use grasp_cachesim::{Hierarchy, LlcStage};
use grasp_graph::{Csr, GraphView};
use grasp_reorder::TechniqueKind;
use std::sync::Arc;
use std::time::Duration;

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which policy managed the LLC.
    pub policy: PolicyKind,
    /// Full hierarchy statistics.
    pub stats: HierarchyStats,
    /// Estimated execution cycles under the analytic timing model.
    pub cycles: f64,
    /// Application output (values, iterations, edges processed).
    pub app: AppResult,
}

impl RunResult {
    /// Demand LLC misses.
    pub fn llc_misses(&self) -> u64 {
        self.stats.llc.misses
    }

    /// Demand LLC accesses.
    pub fn llc_accesses(&self) -> u64 {
        self.stats.llc.accesses
    }
}

/// The outcome of one native (wall-clock) run, used by the reordering study
/// (Fig. 10a).
#[derive(Debug, Clone)]
pub struct NativeRunResult {
    /// Application output.
    pub app: AppResult,
    /// Wall-clock time of the application kernel (excluding graph loading and
    /// reordering).
    pub runtime: Duration,
}

/// The record of one (graph, application) execution: the application's
/// output plus the canonical post-L2 request stream, ready to be replayed
/// under any number of LLC policies.
///
/// Produced by [`Experiment::record`]. The trace is behind an [`Arc`], so
/// cloning a `RecordedRun` shares the stream instead of copying it; the
/// campaign scheduler shares one recording across its replay workers the
/// same way, behind an `Arc<RecordedRun>`.
#[derive(Debug, Clone)]
pub struct RecordedRun {
    trace: Arc<LlcTrace>,
    app: AppResult,
    instructions: u64,
    llc: CacheConfig,
}

impl RecordedRun {
    /// Reassembles a recording from a trace-store entry — the persisted
    /// stream, application output and instruction estimate — joined with the
    /// LLC to replay it into, whose geometry the stream does not depend on.
    /// Needs no graph: a stored stream replays without the dataset it was
    /// recorded over.
    pub fn from_parts(
        trace: LlcTrace,
        app: AppResult,
        instructions: u64,
        llc: CacheConfig,
    ) -> Self {
        Self {
            trace: Arc::new(trace),
            app,
            instructions,
            llc,
        }
    }

    /// The recorded post-L2 stream.
    pub fn trace(&self) -> &LlcTrace {
        &self.trace
    }

    /// The application output of the recording run (identical for every
    /// policy — the LLC cannot change program results).
    pub fn app(&self) -> &AppResult {
        &self.app
    }

    /// The recording run's instruction estimate (what the trace store
    /// persists alongside the stream so a loaded recording can drive the
    /// timing model).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Replays the stream under `policy` and returns a [`RunResult`]
    /// bit-identical to [`Experiment::run`] with the same policy.
    pub fn replay(&self, policy: PolicyKind) -> RunResult {
        self.result(policy, self.replay_stats(policy))
    }

    /// Replays the stream under every policy of a sweep, one policy after
    /// the other: element `i` is [`RecordedRun::replay`] with `policies[i]`.
    pub fn replay_fanout(&self, policies: &[PolicyKind]) -> Vec<RunResult> {
        policies.iter().map(|&policy| self.replay(policy)).collect()
    }

    /// The policy-dependent half of a replay: the hierarchy statistics of
    /// the stream under `policy` in this recording's LLC.
    /// [`RecordedRun::result`] turns them into a [`RunResult`] — on this
    /// recording or on any other recording of the same stream, which is how
    /// campaigns sharing a [`FlightRegistry`](crate::flight::FlightRegistry)
    /// replay a common cell once.
    pub(crate) fn replay_stats(&self, policy: PolicyKind) -> HierarchyStats {
        self.trace
            .replay(self.llc, policy.build_dispatch(&self.llc))
    }

    /// Assembles the [`RunResult`] of `policy` from its replay statistics:
    /// cycles under this recording's instruction estimate, and this
    /// recording's application output.
    pub(crate) fn result(&self, policy: PolicyKind, stats: HierarchyStats) -> RunResult {
        RunResult {
            policy,
            cycles: cycles(&stats, self.instructions),
            stats,
            app: self.app.clone(),
        }
    }
}

/// An experiment: a (possibly reordered) graph, an application, and the cache
/// configuration to evaluate LLC policies under.
///
/// The graph is held behind an `Arc<dyn GraphView>`, so cloning an
/// experiment — the way the [`crate::campaign`] runner fans one reordered
/// graph out across many policies and worker threads — shares the backing
/// instead of copying it, and the backing itself is interchangeable: an
/// in-memory [`Csr`], an mmap-backed [`grasp_graph::MappedCsr`], or anything
/// else implementing [`GraphView`] produces bit-identical results.
#[derive(Debug, Clone)]
pub struct Experiment {
    graph: Arc<dyn GraphView>,
    app: AppKind,
    app_config: AppConfig,
    hierarchy: HierarchyConfig,
}

impl Experiment {
    /// Creates an experiment over `graph` for `app` with default
    /// configuration (scaled hierarchy, traced iteration budget appropriate
    /// for the application).
    pub fn new(graph: Csr, app: AppKind) -> Self {
        Self::shared(Arc::new(graph), app)
    }

    /// Creates an experiment over an already-shared graph (no copy). Accepts
    /// any backing: `Arc<Csr>` and `Arc<MappedCsr>` both coerce.
    pub fn shared(graph: Arc<dyn GraphView>, app: AppKind) -> Self {
        let hierarchy = HierarchyConfig::scaled_default();
        Self {
            graph,
            app,
            app_config: Self::traced_app_config(app),
            hierarchy,
        }
    }

    /// The iteration budget used for simulator runs. The paper simulates the
    /// region of interest — the iterations that dominate execution — rather
    /// than whole executions; these budgets keep traced runs representative
    /// yet affordable. Everything else is each application's constant: BC
    /// and SSSP start at vertex 0, Radii samples 8 sources, PR and PRD damp
    /// by 0.85 and PRD activates above 1e-9 of a vertex's rank.
    pub fn traced_app_config(app: AppKind) -> AppConfig {
        let max_iterations = match app {
            AppKind::PageRank => 3,
            AppKind::PageRankDelta => 6,
            AppKind::Radii => 4,
            AppKind::Bc | AppKind::Sssp => 64,
        };
        AppConfig {
            max_iterations,
            ..AppConfig::default()
        }
    }

    /// Reorders the experiment's graph with `technique` (using the hotness
    /// direction appropriate for the application) and returns the updated
    /// experiment.
    #[must_use]
    pub fn with_reordering(mut self, technique: TechniqueKind) -> Self {
        let perm = technique.compute(&*self.graph, self.app.hotness_direction());
        self.graph = Arc::new(grasp_reorder::relabel(&*self.graph, &perm));
        self
    }

    /// Overrides the hierarchy configuration.
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Overrides the application configuration.
    #[must_use]
    pub fn with_app_config(mut self, config: AppConfig) -> Self {
        self.app_config = config;
        self
    }

    /// The application under experiment.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// The hierarchy configuration in use.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// The application configuration in use (part of a stream's trace-store
    /// identity).
    pub fn app_config(&self) -> &AppConfig {
        &self.app_config
    }

    /// Runs the application through the simulated hierarchy with `policy`
    /// managing the LLC.
    pub fn run(&self, policy: PolicyKind) -> RunResult {
        let llc = self.hierarchy.llc;
        // The ABRs start unprogrammed; the application programs them with its
        // Property Array bounds as part of start-up (Sec. III-A).
        let mut hierarchy = Hierarchy::new(
            self.hierarchy,
            LlcStage::new(llc, policy.build_dispatch(&llc)),
        );
        let app = self.app.run(&*self.graph, &mut hierarchy, &self.app_config);
        let stats = hierarchy.stats();
        RunResult {
            policy,
            cycles: cycles(&stats, app.instruction_estimate()),
            stats,
            app,
        }
    }

    /// Runs the application once through the upper levels only (L1 + L2 +
    /// prefetcher, no LLC) and captures the canonical post-L2 request
    /// stream — the record half of the record-once / replay-many pipeline.
    /// The stream does not depend on the LLC's geometry.
    /// The returned [`RecordedRun`] replays it under any LLC policy,
    /// producing [`RunResult`]s bit-identical to [`Experiment::run`] at a
    /// fraction of the cost.
    pub fn record(&self) -> RecordedRun {
        let mut hierarchy = Hierarchy::new(self.hierarchy, LlcTrace::new());
        let app = self.app.run(&*self.graph, &mut hierarchy, &self.app_config);
        let instructions = app.instruction_estimate();
        let trace = hierarchy.finish();
        RecordedRun {
            trace: Arc::new(trace),
            app,
            instructions,
            llc: self.hierarchy.llc,
        }
    }

    /// Runs the application natively (no cache simulation) and measures
    /// wall-clock time. Used by the Fig. 10a reordering study.
    pub fn run_native(&self) -> NativeRunResult {
        let start = std::time::Instant::now();
        let app = self
            .app
            .run(&*self.graph, &mut NativeMemory, &self.app_config);
        let runtime = start.elapsed();
        NativeRunResult { app, runtime }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetKind, Scale};

    fn small_experiment(app: AppKind) -> Experiment {
        let dataset = DatasetKind::Twitter.build(Scale::Tiny);
        Experiment::new(dataset.graph, app)
            .with_hierarchy(Scale::Tiny.hierarchy())
            .with_reordering(TechniqueKind::Dbg)
    }

    #[test]
    fn simulated_run_produces_consistent_statistics() {
        let exp = small_experiment(AppKind::PageRank);
        let result = exp.run(PolicyKind::Rrip);
        assert_eq!(result.policy, PolicyKind::Rrip);
        assert!(result.stats.l1.accesses > 0);
        assert!(result.llc_accesses() > 0);
        assert!(result.llc_misses() <= result.llc_accesses());
        assert_eq!(result.stats.memory_accesses, result.llc_misses());
        assert!(result.cycles > 0.0);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let exp = small_experiment(AppKind::PageRank);
        let a = exp.run(PolicyKind::Grasp);
        let b = exp.run(PolicyKind::Grasp);
        assert_eq!(a.llc_misses(), b.llc_misses());
        assert_eq!(a.stats.l1.accesses, b.stats.l1.accesses);
        assert!((a.cycles - b.cycles).abs() < 1e-9);
    }

    #[test]
    fn application_results_do_not_depend_on_the_cache_policy() {
        let exp = small_experiment(AppKind::Sssp);
        let a = exp.run(PolicyKind::Lru);
        let b = exp.run(PolicyKind::Grasp);
        assert_eq!(a.app.values, b.app.values);
    }

    #[test]
    fn trace_recording_captures_llc_accesses() {
        let exp = small_experiment(AppKind::PageRank);
        let result = exp.run(PolicyKind::Rrip);
        let recorded = exp.record();
        let trace = recorded.trace();
        assert_eq!(trace.demand_len() as u64, result.llc_accesses());
        assert!(
            trace.len() >= trace.demand_len(),
            "the stream also carries prefetches and writebacks"
        );
    }

    #[test]
    fn replay_matches_direct_execution_bit_for_bit() {
        let exp = small_experiment(AppKind::PageRank);
        let recorded = exp.record();
        for policy in [PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp] {
            let direct = exp.run(policy);
            let replayed = recorded.replay(policy);
            assert_eq!(direct.stats, replayed.stats, "{policy}");
            assert_eq!(direct.app.values, replayed.app.values, "{policy}");
            assert!((direct.cycles - replayed.cycles).abs() < 1e-12, "{policy}");
        }
    }

    #[test]
    fn the_recorded_stream_and_its_key_ignore_the_llc_and_the_latencies() {
        use crate::trace_store::TraceStoreKey;
        use grasp_cachesim::config::CacheConfig;
        let base = Scale::Tiny.hierarchy();
        let llc = base.llc;
        let mut bigger = base;
        bigger.llc = CacheConfig::new(2 * llc.size_bytes, llc.ways, llc.block_bytes);
        let mut narrower = base;
        narrower.llc = CacheConfig::new(llc.size_bytes, llc.ways / 2, llc.block_bytes);
        let exp = small_experiment(AppKind::PageRank);
        let key = |hierarchy: &HierarchyConfig| {
            TraceStoreKey::new(
                DatasetKind::Twitter,
                Scale::Tiny,
                TechniqueKind::Dbg,
                AppKind::PageRank,
                hierarchy,
                exp.app_config(),
            )
        };
        let reference = exp.clone().with_hierarchy(base).record();
        for hierarchy in [bigger, narrower] {
            let recorded = exp.clone().with_hierarchy(hierarchy).record();
            assert!(recorded.trace() == reference.trace(), "{hierarchy:?}");
            assert_eq!(key(&hierarchy), key(&base), "{hierarchy:?}");
        }
        // What does shape the stream still forks the key: each upper level.
        let grown = |cache: CacheConfig| {
            CacheConfig::new(2 * cache.size_bytes, cache.ways, cache.block_bytes)
        };
        let bigger_l1 = HierarchyConfig {
            l1: grown(base.l1),
            ..base
        };
        let bigger_l2 = HierarchyConfig {
            l2: grown(base.l2),
            ..base
        };
        for hierarchy in [bigger_l1, bigger_l2] {
            assert_ne!(key(&hierarchy), key(&base), "{hierarchy:?}");
        }
        assert_ne!(key(&bigger_l1), key(&bigger_l2));
    }

    #[test]
    fn from_parts_reassembles_a_replayable_run() {
        let exp = small_experiment(AppKind::PageRank);
        let recorded = exp.record();
        let reassembled = RecordedRun::from_parts(
            recorded.trace().clone(),
            recorded.app().clone(),
            recorded.instructions(),
            exp.hierarchy().llc,
        );
        for policy in [PolicyKind::Rrip, PolicyKind::Grasp] {
            let a = recorded.replay(policy);
            let b = reassembled.replay(policy);
            assert_eq!(a.stats, b.stats, "{policy}");
            assert_eq!(a.cycles, b.cycles, "{policy}");
            assert_eq!(a.app.values, b.app.values, "{policy}");
        }
    }

    #[test]
    fn native_run_returns_valid_output() {
        let exp = small_experiment(AppKind::PageRank);
        let native = exp.run_native();
        assert_eq!(native.app.values.len(), exp.graph.vertex_count());
        assert!(native.runtime.as_nanos() > 0);
    }

    #[test]
    fn grasp_does_not_lose_to_rrip_on_a_skewed_dataset() {
        // The headline qualitative result at tiny scale: GRASP's misses are
        // never (meaningfully) worse than RRIP's on a skewed, DBG-reordered
        // graph.
        let exp = small_experiment(AppKind::PageRank);
        let rrip = exp.run(PolicyKind::Rrip);
        let grasp = exp.run(PolicyKind::Grasp);
        assert!(
            grasp.llc_misses() as f64 <= rrip.llc_misses() as f64 * 1.02,
            "grasp {} rrip {}",
            grasp.llc_misses(),
            rrip.llc_misses()
        );
    }
}
