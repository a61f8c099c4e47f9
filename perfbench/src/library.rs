//! The three library workloads: a seed-generated edge list is ingested,
//! catalogued and swept by a `Campaign` with a `TraceStore`, exactly as a
//! user of the library would.
//!
//! * `cold_record_highskew` — every repetition ingests into a fresh `.gcsr`
//!   directory and records into a fresh store: record-dominated.
//! * `warm_sweep_highskew` / `warm_sweep_noskew` — set-up ingests once and
//!   pre-populates the store; every repetition is load + replay only.

use crate::check::{same_result, sim_digest, Tally};
use crate::host::normalise;
use crate::inputs::{discard, generate_edges, write_edge_file, Skew};
use crate::ledger::{experiment_on, reorder_all, reorder_for, StageCosts};
use crate::metrics::{sweep_policies, Report, APPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use grasp_analytics::apps::AppKind;
use grasp_core::campaign::{Campaign, CampaignResult, CampaignRun, SchedulerEvent};
use grasp_core::compare::{geometric_mean_speedup, speedup_pct};
use grasp_core::datasets::{DatasetCatalog, GraphHash};
use grasp_core::experiment::RunResult;
use grasp_core::policy::PolicyKind;
use grasp_core::trace_store::{TraceStore, TraceStoreStats};
use grasp_graph::{ingest, io, Csr};
use grasp_reorder::TechniqueKind;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One library workload.
#[derive(Debug, Clone, Copy)]
pub struct Library {
    pub name: &'static str,
    pub skew: Skew,
    /// Whether every repetition starts from an empty store (and re-ingests).
    pub cold: bool,
}

pub const COLD_RECORD_HIGHSKEW: Library = Library {
    name: "cold_record_highskew",
    skew: Skew::High,
    cold: true,
};
pub const WARM_SWEEP_HIGHSKEW: Library = Library {
    name: "warm_sweep_highskew",
    skew: Skew::High,
    cold: false,
};
pub const WARM_SWEEP_NOSKEW: Library = Library {
    name: "warm_sweep_noskew",
    skew: Skew::None,
    cold: false,
};

/// Recordings, deduplicated recordings and store loads of one campaign run,
/// counted from its scheduler event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    pub recorded: u64,
    pub deduped: u64,
    pub loads: u64,
}

impl std::ops::AddAssign for Census {
    fn add_assign(&mut self, other: Census) {
        self.recorded += other.recorded;
        self.deduped += other.deduped;
        self.loads += other.loads;
    }
}

impl Census {
    pub fn of(result: &CampaignResult) -> Census {
        let mut census = Census::default();
        for event in result.scheduler_events() {
            match event {
                SchedulerEvent::RecordFinished { .. } => census.recorded += 1,
                SchedulerEvent::RecordDeduped { .. } => census.deduped += 1,
                SchedulerEvent::LoadFinished { .. } => census.loads += 1,
                _ => {}
            }
        }
        census
    }
}

/// What set-up leaves behind for the repetitions.
pub struct Prepared {
    dir: PathBuf,
    pub edge_file: PathBuf,
    catalog: DatasetCatalog,
    hash: GraphHash,
    /// `Experiment::run(Grasp)` on PageRank, straight through the full
    /// hierarchy: the direct-path oracle for the campaign's (PR, GRASP) cell.
    oracle: RunResult,
    /// Warm workloads: the pre-populated store and the cells of the cold
    /// campaign that populated it.
    warm: Option<(Arc<TraceStore>, Vec<CampaignRun>)>,
}

/// One timed operation.
pub struct OpSample {
    pub wall_s: f64,
    pub ttfc_s: f64,
    pub cells: usize,
    pub sim_accesses: u64,
    pub traced: bool,
    pub census: Census,
    pub store: TraceStoreStats,
}

/// A store's traffic between two counter snapshots.
pub fn stats_delta(after: TraceStoreStats, before: TraceStoreStats) -> TraceStoreStats {
    TraceStoreStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        corrupt: after.corrupt - before.corrupt,
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_written: after.bytes_written - before.bytes_written,
    }
}

impl Library {
    /// The Fig. 5/6 pair for the record-dominated workload, the six-policy
    /// sweep for the replay-dominated ones.
    pub fn policies(&self) -> Vec<PolicyKind> {
        if self.cold {
            vec![PolicyKind::Rrip, PolicyKind::Grasp]
        } else {
            sweep_policies()
        }
    }

    fn campaign(&self, ctx: &Ctx, catalog: &DatasetCatalog, hash: GraphHash) -> Campaign {
        Campaign::new(ctx.sizes.scale)
            .catalog(catalog.clone())
            .ingested_dataset(hash)
            .techniques(&[TechniqueKind::Dbg])
            .apps(&AppKind::ALL)
            .policies(&self.policies())
            .threads(ctx.threads)
    }

    /// Untimed preparation: generate the graph from the seed, write the
    /// edge-list file, compute the direct-path oracle, ingest once (the
    /// expected content hash), and for warm workloads populate the store.
    pub fn setup(&self, ctx: &Ctx, tally: &mut Tally) -> Prepared {
        let dir = ctx.work.fresh("setup");
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        let edges = generate_edges(self.skew, &ctx.sizes, ctx.seed);
        let edge_file = dir.join("graph.el");
        write_edge_file(&edges, &edge_file);

        // The oracle reads the file back (the file, not the generator, is the
        // input) and takes the serial in-memory path: no parallel builder, no
        // on-disk CSR, no mmap, no campaign, no store.
        drop(edges);
        let parsed = io::read_edge_list_file(&edge_file).expect("generated edge list parses");
        let graph = Csr::from_edge_list(&parsed).expect("generated edge list builds");
        drop(parsed);
        let reordered = reorder_for(&graph, AppKind::PageRank.hotness_direction());
        let oracle =
            experiment_on(&reordered, AppKind::PageRank, ctx.sizes.scale).run(PolicyKind::Grasp);

        let gcsr = dir.join("gcsr");
        ingest::ingest_file(&edge_file, &gcsr, ctx.threads).expect("generated edge list ingests");
        let mut catalog = DatasetCatalog::new();
        let hash = catalog
            .register(&gcsr)
            .expect("fresh on-disk CSR registers");

        let warm = (!self.cold).then(|| {
            let store =
                Arc::new(TraceStore::open(dir.join("store")).expect("store directory opens"));
            let populate = self
                .campaign(ctx, &catalog, hash)
                .with_trace_store(Arc::clone(&store))
                .run();
            let census = Census::of(&populate);
            tally.check(
                census.recorded == APPS.len() as u64 && census.loads == 0,
                || format!("{}: populating run census {census:?}", self.name),
            );
            (store, populate.into_runs())
        });
        Prepared {
            dir,
            edge_file,
            catalog,
            hash,
            oracle,
            warm,
        }
    }

    /// One end-to-end operation, span-recorded when `traced`. Cold: `ingest_file` through `Campaign::run`
    /// returning, on fresh directories. Warm: `Campaign::run` against the
    /// populated store.
    fn operate(
        &self,
        ctx: &Ctx,
        prepared: &Prepared,
        tracer: &Tracer,
        rep: u32,
        traced: bool,
    ) -> (OpSample, CampaignResult) {
        let rep_dir = ctx.work.fresh("rep");
        tracer.set_recording(traced);
        let mut op = tracer.begin(None, rep, &format!("op.{}", self.name));
        let started = op.started_at();
        let parent = Some(op.id());

        let (campaign, store, before) = match &prepared.warm {
            None => {
                let gcsr = rep_dir.join("gcsr");
                let (report, _) = tracer.time(parent, rep, "op.ingest_file", || {
                    ingest::ingest_file(&prepared.edge_file, &gcsr, ctx.threads)
                        .expect("generated edge list ingests")
                });
                let mut catalog = DatasetCatalog::new();
                let hash = catalog
                    .register(&gcsr)
                    .expect("fresh on-disk CSR registers");
                assert_eq!(
                    (hash.0, hash),
                    (report.content_hash, prepared.hash),
                    "re-ingesting the same file changed the graph's content hash"
                );
                let store = Arc::new(
                    TraceStore::open(rep_dir.join("store")).expect("store directory opens"),
                );
                let campaign = self.campaign(ctx, &catalog, hash);
                (campaign, store, TraceStoreStats::default())
            }
            Some((store, _)) => (
                self.campaign(ctx, &prepared.catalog, prepared.hash),
                Arc::clone(store),
                store.stats(),
            ),
        };
        let campaign = campaign.with_trace_store(Arc::clone(&store));

        let first_cell = OnceLock::new();
        let (result, _) = tracer.time(parent, rep, "op.campaign_run", || {
            campaign.run_with_observer(&|_, _| {
                let now = Instant::now();
                first_cell.get_or_init(|| now);
                tracer.event(parent, rep, "op.cell", now);
            })
        });
        let sim_accesses = result.iter().map(|run| run.result.llc_accesses()).sum();
        op.count("cells", result.len() as u64);
        op.count("sim_accesses", sim_accesses);
        let wall_s = op.end();
        tracer.set_recording(false);

        let sample = OpSample {
            wall_s,
            ttfc_s: first_cell
                .get()
                .expect("a non-empty grid completes a first cell")
                .duration_since(started)
                .as_secs_f64(),
            cells: result.len(),
            sim_accesses,
            traced,
            census: Census::of(&result),
            store: stats_delta(store.stats(), before),
        };
        discard(&rep_dir);
        (sample, result)
    }

    /// Checks one repetition's cells: census, direct-path oracle, and
    /// bit-identity with the reference cells.
    fn check(
        &self,
        sample: &OpSample,
        result: &CampaignResult,
        prepared: &Prepared,
        reference: &[CampaignRun],
        tally: &mut Tally,
    ) {
        let name = self.name;
        let cells = APPS.len() * self.policies().len();
        tally.completed(sample.cells as u64);
        tally.check(sample.cells == cells, || {
            format!("{name}: {} cells, expected {cells}", sample.cells)
        });
        let streams = APPS.len() as u64;
        let expected = Census {
            recorded: if self.cold { streams } else { 0 },
            deduped: 0,
            loads: if self.cold { 0 } else { streams },
        };
        tally.check(sample.census == expected, || {
            format!("{name}: census {:?}, expected {expected:?}", sample.census)
        });
        let oracle_cell = result
            .iter()
            .find(|run| run.cell.app == AppKind::PageRank && run.cell.policy == PolicyKind::Grasp);
        tally.check(
            oracle_cell.is_some_and(|run| same_result(&run.result, &prepared.oracle)),
            || format!("{name}: campaign (PR, GRASP) cell differs from Experiment::run"),
        );
        let identical = result.len() == reference.len()
            && result
                .iter()
                .zip(reference)
                .all(|(a, b)| a.cell == b.cell && same_result(&a.result, &b.result));
        tally.check(identical, || {
            format!("{name}: cells differ from the reference run of the same grid")
        });
    }
}

/// What a pass over a library workload produced, before metrics are named.
pub struct Measured {
    pub prepared: Prepared,
    /// Raw seconds of every set-up.
    pub setup_s: Vec<f64>,
    /// The host-speed reference's timings, taken between set-ups and
    /// between operations.
    pub ref_s: Vec<f64>,
    pub samples: Vec<OpSample>,
    pub reference: Vec<CampaignRun>,
    pub digest: u64,
}

/// Set-up (repeated, last one kept), one discarded warm-up operation, then
/// timed operations. The untraced pass measures for `ctx.seconds` with
/// recording off; the traced pass spends half that on operations, sets up
/// once, and records spans on every other repetition.
pub fn run(
    workload: &Library,
    ctx: &Ctx,
    traced_pass: bool,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Measured {
    let (seconds, setup_reps, min_reps) = if traced_pass {
        (ctx.seconds / 2.0, 1, ctx.sizes.min_reps.next_multiple_of(2))
    } else {
        (ctx.seconds, ctx.sizes.setup_reps, ctx.sizes.min_reps)
    };
    let mut ref_s = vec![ctx.host.measure()];
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..setup_reps {
        if let Some(Prepared { dir, .. }) = prepared.take() {
            discard(&dir);
        }
        let started = Instant::now();
        prepared = Some(workload.setup(ctx, tally));
        setup_s.push(started.elapsed().as_secs_f64());
        ref_s.push(ctx.host.measure());
    }
    let prepared = prepared.expect("set-up runs at least once");

    // Warm-up, discarded as a timing; its cells are the reference every
    // timed repetition must reproduce (for warm workloads the reference is
    // the cold run that populated the store, so cold == warm is checked).
    let (_, warmup) = workload.operate(ctx, &prepared, tracer, 0, false);
    let reference = match &prepared.warm {
        Some((_, cold_cells)) => cold_cells.clone(),
        None => warmup.iter().cloned().collect(),
    };
    let digest = sim_digest(&reference);
    tally.check(sim_digest(warmup.iter()) == digest, || {
        format!(
            "{}: sim_digest of the warm-up differs from the reference",
            workload.name
        )
    });

    let mut samples: Vec<OpSample> = Vec::new();
    let started = Instant::now();
    while samples.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let rep = samples.len() as u32 + 1;
        let traced = traced_pass && rep % 2 == 1;
        let (sample, result) = workload.operate(ctx, &prepared, tracer, rep, traced);
        ref_s.push(ctx.host.measure());
        workload.check(&sample, &result, &prepared, &reference, tally);
        tally.check(sim_digest(result.iter()) == digest, || {
            format!("{}: sim_digest changed between repetitions", workload.name)
        });
        samples.push(sample);
    }
    Measured {
        prepared,
        setup_s,
        ref_s,
        samples,
        reference,
        digest,
    }
}

impl Measured {
    fn per_op(&self, f: impl Fn(&OpSample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    /// The five end-to-end metrics, in normalised seconds; returns the raw
    /// medians behind them.
    pub fn report_end_to_end(&self, report: &mut Report) -> Vec<(&'static str, f64)> {
        let ref_s = self.host_ref_s();
        let wall = |s: &OpSample| normalise(s.wall_s, ref_s);
        let setup: Vec<f64> = self.setup_s.iter().map(|&s| normalise(s, ref_s)).collect();
        report.put_samples("setup_s", &setup);
        report.put_samples("wall_norm_s", &self.per_op(wall));
        report.put_samples(
            "cells_per_norm_s",
            &self.per_op(|s| s.cells as f64 / wall(s)),
        );
        report.put_samples(
            "sim_accesses_per_norm_s",
            &self.per_op(|s| s.sim_accesses as f64 / wall(s)),
        );
        report.put_samples("ttfc_norm_s", &self.per_op(|s| normalise(s.ttfc_s, ref_s)));
        vec![
            ("setup_s", median(&self.setup_s)),
            ("wall_s", median(&self.per_op(|s| s.wall_s))),
            ("ttfc_s", median(&self.per_op(|s| s.ttfc_s))),
            ("host.ref_s", ref_s),
        ]
    }

    /// Median of the host-speed reference over the pass.
    pub fn host_ref_s(&self) -> f64 {
        median(&self.ref_s)
    }

    /// What the traced pass's `campaign.*`, `store.*` counters and `model.*`
    /// describe: this workload's own operation.
    pub fn campaign_facts(&self, workload: &Library) -> CampaignFacts<'_> {
        let last = self.samples.last().expect("at least one repetition");
        CampaignFacts {
            policies: workload.policies(),
            cold: workload.cold,
            wall_s: median(&self.per_op(|s| s.wall_s)),
            census: last.census,
            store: last.store,
            cells: self.reference.iter().collect(),
        }
    }

    /// `(span-recorded, wall_s)` of every operation.
    pub fn traced_walls(&self) -> impl Iterator<Item = (bool, f64)> + '_ {
        self.samples.iter().map(|s| (s.traced, s.wall_s))
    }

    /// Removes what set-up left behind.
    pub fn cleanup(&self) {
        discard(&self.prepared.dir);
    }
}

impl Prepared {
    /// What the campaign does serially before its first obtain task: open
    /// the catalogued graph and reorder it per hotness direction.
    pub fn graph_prep(&self) -> usize {
        let source = self
            .catalog
            .load(self.hash)
            .expect("registered graph opens");
        reorder_all(&*source)
    }
}

/// Median wall of the span-recorded operations against the others, in
/// percent.
pub fn trace_overhead_pct(walls: impl Iterator<Item = (bool, f64)>) -> f64 {
    let (traced, untraced): (Vec<_>, Vec<_>) = walls.partition(|&(traced, _)| traced);
    let wall = |side: Vec<(bool, f64)>| median(&side.iter().map(|&(_, s)| s).collect::<Vec<_>>());
    (wall(traced) / wall(untraced) - 1.0) * 100.0
}

/// The campaign a traced pass's `campaign.*`, `store.*` counters and
/// `model.*` describe: every app of `APPS` under `policies`, against a cold
/// or a warm store.
pub struct CampaignFacts<'a> {
    pub policies: Vec<PolicyKind>,
    pub cold: bool,
    /// Median wall-clock of the campaign (with ingest, when cold).
    pub wall_s: f64,
    pub census: Census,
    pub store: TraceStoreStats,
    pub cells: Vec<&'a CampaignRun>,
}

/// The stage table of a campaign: standalone stage costs against its
/// measured wall-clock.
#[derive(Debug, Clone)]
pub struct StageTable {
    pub ingest_s: f64,
    pub prep_s: f64,
    pub obtain_s: f64,
    pub replay_s: f64,
    pub threads: usize,
    pub wall_s: f64,
}

impl StageTable {
    /// What a perfect scheduler would need: the serial stages, plus the
    /// parallel ones spread evenly over the workers.
    pub fn ideal_s(&self) -> f64 {
        self.ingest_s + self.prep_s + (self.obtain_s + self.replay_s) / self.threads as f64
    }

    pub fn residual_s(&self) -> f64 {
        self.wall_s - self.ideal_s()
    }

    pub fn print(&self, workload: &str) {
        let t = self.threads as f64;
        println!("  stage table ({workload}; standalone medians, {t} workers)");
        println!("    ingest (serial)        {:>10.4} s", self.ingest_s);
        println!("    graph prep (serial)    {:>10.4} s", self.prep_s);
        println!("    obtain / workers       {:>10.4} s", self.obtain_s / t);
        println!("    replay / workers       {:>10.4} s", self.replay_s / t);
        println!("    residual               {:>10.4} s", self.residual_s());
        println!("    = wall_s               {:>10.4} s", self.wall_s);
    }
}

/// `campaign.*`, the `store.*` counters and `model.*` of a traced pass.
/// `graph_prep` is what the campaign does serially before its first obtain
/// task; it is timed here. Needs the ledger's `graph.*` in `report` already.
pub fn report_campaign(
    facts: &CampaignFacts,
    graph_prep: impl Fn() -> usize,
    costs: &StageCosts,
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
) -> StageTable {
    let prep_s: Vec<f64> = (0..ctx.sizes.ledger_reps)
        .map(|rep| {
            tracer
                .time(None, rep as u32, "campaign.graph_prep", &graph_prep)
                .1
        })
        .collect();
    let (obtain_s, replay_s) = costs.grid(&facts.policies, facts.cold);
    let ingest_s = if facts.cold {
        report.get("graph.parse_s")
            + report.get("graph.build_csr_s")
            + report.get("graph.write_disk_s")
    } else {
        0.0
    };
    let table = StageTable {
        ingest_s,
        prep_s: median(&prep_s),
        obtain_s,
        replay_s,
        threads: ctx.threads,
        wall_s: facts.wall_s,
    };
    report.put("campaign.graph_prep_s", table.prep_s);
    report.put("campaign.ideal_s", table.ideal_s());
    report.put("campaign.residual_s", table.residual_s());
    report.put("campaign.sched_efficiency", table.ideal_s() / table.wall_s);
    report.put("campaign.recorded", facts.census.recorded as f64);
    report.put("campaign.loads", facts.census.loads as f64);
    report.put("campaign.deduped", facts.census.deduped as f64);
    report.put("campaign.peak_rss_mib", crate::env::peak_rss_mib());

    report.put("store.hits", facts.store.hits as f64);
    report.put("store.misses", facts.store.misses as f64);
    report.put("store.corrupt", facts.store.corrupt as f64);
    report.put("store.bytes_written", facts.store.bytes_written as f64);
    report.put("store.bytes_read", facts.store.bytes_read as f64);

    // model.*: GRASP against RRIP, geomean over (dataset, app) — simulated,
    // under the analytic timing model.
    let mut log_miss_ratio = 0.0;
    let mut speedups = Vec::new();
    for rrip in facts
        .cells
        .iter()
        .filter(|run| run.cell.policy == PolicyKind::Rrip)
    {
        let grasp = facts
            .cells
            .iter()
            .find(|run| {
                run.cell.policy == PolicyKind::Grasp
                    && (run.cell.dataset, run.cell.app) == (rrip.cell.dataset, rrip.cell.app)
            })
            .expect("every grid pairs RRIP with GRASP");
        assert!(
            rrip.result.llc_misses() > 0,
            "an RRIP cell without LLC misses"
        );
        log_miss_ratio += (grasp.result.llc_misses() as f64 / rrip.result.llc_misses() as f64).ln();
        speedups.push(speedup_pct(rrip.result.cycles, grasp.result.cycles));
    }
    report.put(
        "model.grasp_miss_reduction_pct",
        (1.0 - (log_miss_ratio / speedups.len() as f64).exp()) * 100.0,
    );
    report.put("model.grasp_speedup_pct", geometric_mean_speedup(&speedups));
    table
}
