//! The per-layer ledger: every layer of the pipeline called on its own, from
//! outside, on the workload's own graph — a few repetitions each, every call
//! under a span. Produces the `graph.*` … `replay.*` and `spec.*` metrics
//! and the per-stage costs the campaign stage table is built from.

use crate::metrics::{sweep_policies, Report, APPS, POLICIES};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use grasp_analytics::apps::AppKind;
use grasp_cachesim::{Codec, LlcTrace};
use grasp_core::datasets::{DatasetId, GraphHash, Scale};
use grasp_core::experiment::{Experiment, RecordedRun};
use grasp_core::policy::PolicyKind;
use grasp_core::spec::CampaignSpec;
use grasp_core::trace_store::{TraceStore, TraceStoreKey};
use grasp_graph::ingest::{self, MappedCsr};
use grasp_graph::types::Direction;
use grasp_graph::{io, Csr, GraphView};
use grasp_reorder::TechniqueKind;
use std::path::Path;
use std::sync::Arc;

/// Probes and spec round trips take microseconds; they are timed in batches
/// of this many calls per span.
const MICRO_BATCH: usize = 200;

/// Median standalone cost of each campaign stage, per application (`APPS`
/// order) and per (application, policy) (`POLICIES` order).
#[derive(Debug, Clone)]
pub struct StageCosts {
    pub record_s: [f64; APPS.len()],
    pub publish_s: [f64; APPS.len()],
    pub load_s: [f64; APPS.len()],
    pub replay_s: [[f64; POLICIES.len()]; APPS.len()],
}

impl StageCosts {
    /// Σ obtain and Σ replay cost of the `APPS` × `policies` grid: obtaining
    /// a stream is record + publish against a cold store, a load against a
    /// warm one.
    pub fn grid(&self, policies: &[PolicyKind], cold: bool) -> (f64, f64) {
        let mut obtain = 0.0;
        let mut replay = 0.0;
        for a in 0..APPS.len() {
            obtain += if cold {
                self.record_s[a] + self.publish_s[a]
            } else {
                self.load_s[a]
            };
            for (p, (policy, _)) in POLICIES.iter().enumerate() {
                if policies.contains(policy) {
                    replay += self.replay_s[a][p];
                }
            }
        }
        (obtain, replay)
    }
}

/// Runs `f` `reps` times, each under a `name` span; returns the last value
/// and every duration.
fn repeated<T>(
    tracer: &Tracer,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut last = None;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (value, secs) = tracer.time(None, rep as u32, name, &mut f);
        last = Some(value);
        samples.push(secs);
    }
    (last.expect("at least one repetition"), samples)
}

/// Element-wise sum of per-repetition samples: repetition `i` of a layer is
/// the sum of repetition `i` of each of its parts.
fn add_samples(total: &mut Vec<f64>, part: &[f64]) {
    if total.is_empty() {
        total.extend_from_slice(part);
    } else {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
}

/// The hotness directions the applications of `APPS` reorder for.
fn hotness_directions() -> Vec<Direction> {
    let mut directions = Vec::new();
    for (app, _) in APPS {
        if !directions.contains(&app.hotness_direction()) {
            directions.push(app.hotness_direction());
        }
    }
    directions
}

/// Reorders `source` once per hotness direction, as a campaign over `APPS`
/// does before its first obtain task.
pub fn reorder_all(source: &dyn GraphView) -> usize {
    hotness_directions()
        .into_iter()
        .map(|direction| reorder_for(source, direction).vertex_count())
        .sum()
}

/// The DBG-reordered graph for one hotness direction, as the campaign
/// builds it.
pub fn reorder_for(source: &dyn GraphView, direction: Direction) -> Arc<Csr> {
    let perm = TechniqueKind::Dbg.instantiate().compute(source, direction);
    Arc::new(grasp_reorder::relabel(source, &perm))
}

/// The experiment the campaign builds for one stream.
pub fn experiment_on(graph: &Arc<Csr>, app: AppKind, scale: Scale) -> Experiment {
    Experiment::shared(Arc::<Csr>::clone(graph), app).with_hierarchy(scale.hierarchy())
}

/// What the layers hand each other while the ledger is measured.
struct Ledger<'a> {
    scale: Scale,
    ctx: &'a Ctx<'a>,
    tracer: &'a Tracer,
    report: &'a mut Report,
    costs: StageCosts,
}

/// Measures every layer on the graph in `edge_file` and fills in the
/// ledger's share of `report`.
pub fn measure(
    edge_file: &Path,
    scale: Scale,
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
) -> StageCosts {
    let mut ledger = Ledger {
        scale,
        ctx,
        tracer,
        report,
        costs: StageCosts {
            record_s: [0.0; APPS.len()],
            publish_s: [0.0; APPS.len()],
            load_s: [0.0; APPS.len()],
            replay_s: [[0.0; POLICIES.len()]; APPS.len()],
        },
    };
    let (mapped, content_hash) = ledger.graph(edge_file);
    let reordered = ledger.reorder(&mapped);
    let experiments: Vec<Experiment> = APPS
        .iter()
        .map(|(app, _)| {
            let graph = &reordered
                .iter()
                .find(|(direction, _)| *direction == app.hotness_direction())
                .expect("every hotness direction was reordered")
                .1;
            experiment_on(graph, *app, scale)
        })
        .collect();
    let recordings = ledger.record(&experiments);
    ledger.persist(&recordings);
    ledger.store(&experiments, &recordings, content_hash);
    ledger.replay(&recordings);
    ledger.costs
}

impl Ledger<'_> {
    fn repeated<T>(&self, name: &str, f: impl FnMut() -> T) -> (T, Vec<f64>) {
        repeated(self.tracer, name, self.ctx.sizes.ledger_reps, f)
    }

    /// `graph.*`: parse -> CSR -> on-disk CSR -> mmap -> verify. Returns the
    /// mapped graph and its content hash.
    fn graph(&mut self, edge_file: &Path) -> (MappedCsr, GraphHash) {
        let (edges, parse_s) = self.repeated("graph.parse", || {
            io::read_edge_list_file(edge_file).expect("generated edge list parses")
        });
        let (csr, build_s) = self.repeated("graph.build_csr", || {
            ingest::build_csr_parallel(&edges, self.ctx.threads)
                .expect("generated edge list builds")
        });
        drop(edges);
        let gcsr = self.ctx.work.fresh("ledger-gcsr");
        let (ingested, write_s) = self.repeated("graph.write_disk", || {
            ingest::write_disk_csr(&csr, &gcsr).expect("on-disk CSR writes")
        });
        drop(csr);
        let (mapped, open_s) = self.repeated("graph.open", || {
            MappedCsr::open(&gcsr).expect("fresh on-disk CSR opens")
        });
        let ((), verify_s) = self.repeated("graph.verify", || {
            mapped.verify().expect("fresh on-disk CSR verifies")
        });
        let report = &mut *self.report;
        report.put_samples("graph.parse_s", &parse_s);
        report.put_samples("graph.build_csr_s", &build_s);
        report.put_samples("graph.write_disk_s", &write_s);
        report.put_samples("graph.open_s", &open_s);
        report.put_samples("graph.verify_s", &verify_s);
        report.put("graph.edges", ingested.edge_count as f64);
        report.put("graph.gcsr_bytes", ingested.bytes_written as f64);
        report.put(
            "graph.ingest_edges_per_s",
            ingested.edge_count as f64 / (median(&parse_s) + median(&build_s) + median(&write_s)),
        );
        (mapped, GraphHash(ingested.content_hash))
    }

    /// `reorder.*`: one DBG permutation + relabel per hotness direction.
    fn reorder(&mut self, mapped: &MappedCsr) -> Vec<(Direction, Arc<Csr>)> {
        let dbg = TechniqueKind::Dbg.instantiate();
        let mut compute_s = Vec::new();
        let mut relabel_s = Vec::new();
        let mut reordered = Vec::new();
        for direction in hotness_directions() {
            let (perm, samples) =
                self.repeated("reorder.compute", || dbg.compute(mapped, direction));
            add_samples(&mut compute_s, &samples);
            let (graph, samples) =
                self.repeated("reorder.relabel", || grasp_reorder::relabel(mapped, &perm));
            add_samples(&mut relabel_s, &samples);
            reordered.push((direction, Arc::new(graph)));
        }
        self.report.put_samples("reorder.compute_s", &compute_s);
        self.report.put_samples("reorder.relabel_s", &relabel_s);
        self.report.put(
            "reorder.edges_per_s",
            (mapped.edge_count() as usize * reordered.len()) as f64
                / (median(&compute_s) + median(&relabel_s)),
        );
        reordered
    }

    /// `analytics.*` and `record.*`: each application natively, then through
    /// L1/L2 into a recorded post-L2 stream.
    fn record(&mut self, experiments: &[Experiment]) -> Vec<RecordedRun> {
        let mut recordings: Vec<RecordedRun> = Vec::new();
        let mut native_total = 0.0;
        for (a, (_, slug)) in APPS.iter().enumerate() {
            let (_, native_s) = self.repeated(&format!("analytics.native.{slug}"), || {
                experiments[a].run_native()
            });
            self.report
                .put_samples(&format!("analytics.native_s.{slug}"), &native_s);
            native_total += median(&native_s);
            let (recorded, record_s) =
                self.repeated(&format!("record.{slug}"), || experiments[a].record());
            self.report
                .put_samples(&format!("record.s.{slug}"), &record_s);
            self.costs.record_s[a] = median(&record_s);
            recordings.push(recorded);
        }
        let l1_accesses: u64 = recordings
            .iter()
            .map(|r| r.trace().context().l1.accesses)
            .sum();
        let records = total_records(&recordings);
        let report = &mut *self.report;
        report.put(
            "record.filter_self_s",
            self.costs.record_s.iter().sum::<f64>() - native_total,
        );
        report.put("record.l1_accesses", l1_accesses as f64);
        report.put("record.llc_records", records);
        report.put("record.pass_ratio", records / l1_accesses as f64);
        recordings
    }

    /// `persist.*`: the trace block's encode/decode, without the file system.
    fn persist(&mut self, recordings: &[RecordedRun]) {
        let mut encode_s = Vec::new();
        let mut decode_s = Vec::new();
        let mut encoded_bytes = 0;
        for recorded in recordings {
            let (buffer, samples) = self.repeated("persist.encode", || {
                let mut buffer = Vec::new();
                recorded
                    .trace()
                    .write_to(&mut buffer)
                    .expect("encoding into memory cannot fail");
                buffer
            });
            add_samples(&mut encode_s, &samples);
            encoded_bytes += buffer.len();
            let (decoded, samples) = self.repeated("persist.decode", || {
                LlcTrace::read_from(&mut &buffer[..]).expect("a fresh encoding decodes")
            });
            add_samples(&mut decode_s, &samples);
            assert!(
                decoded == *recorded.trace(),
                "trace changed across an encode/decode round trip"
            );
        }
        let records = total_records(recordings);
        let report = &mut *self.report;
        report.put_samples("persist.encode_s", &encode_s);
        report.put_samples("persist.decode_s", &decode_s);
        report.put("persist.bytes_per_record", encoded_bytes as f64 / records);
        report.put("persist.encode_records_per_s", records / median(&encode_s));
        report.put("persist.decode_records_per_s", records / median(&decode_s));
    }

    /// `store.*` timings: publish / probe / load of each stream's entry.
    fn store(&mut self, experiments: &[Experiment], recordings: &[RecordedRun], hash: GraphHash) {
        let store =
            TraceStore::open(self.ctx.work.fresh("ledger-store")).expect("store directory opens");
        let mut publish_s = Vec::new();
        let mut probe_s = Vec::new();
        let mut load_s = Vec::new();
        for (a, (app, _)) in APPS.iter().enumerate() {
            let (experiment, recorded) = (&experiments[a], &recordings[a]);
            let key = TraceStoreKey::new(
                DatasetId::Ingested(hash),
                self.scale,
                TechniqueKind::Dbg,
                *app,
                experiment.hierarchy(),
                experiment.app_config(),
            )
            .with_codec(Codec::default());
            let (_, samples) = self.repeated("store.publish", || {
                store
                    .publish(
                        &key,
                        recorded.trace(),
                        recorded.app(),
                        recorded.instructions(),
                    )
                    .expect("publish into a fresh store succeeds")
            });
            self.costs.publish_s[a] = median(&samples);
            add_samples(&mut publish_s, &samples);
            let (_, samples) = self.repeated("store.probe_batch", || {
                (0..MICRO_BATCH).all(|_| std::hint::black_box(store.probe(&key)))
            });
            let per_probe: Vec<f64> = samples.iter().map(|s| s / MICRO_BATCH as f64).collect();
            add_samples(&mut probe_s, &per_probe);
            let (loaded, samples) = self.repeated("store.load", || {
                store
                    .try_load(&key)
                    .expect("published entry decodes")
                    .expect("published entry exists")
            });
            self.costs.load_s[a] = median(&samples);
            add_samples(&mut load_s, &samples);
            assert!(
                loaded.trace == *recorded.trace(),
                "trace changed across a store round trip"
            );
        }
        self.report.put_samples("store.publish_s", &publish_s);
        self.report.put_samples("store.probe_s", &probe_s);
        self.report.put_samples("store.load_s", &load_s);
    }

    /// `replay.*`: each policy over each recorded stream, then the
    /// shared-decode fan-out of the whole sweep.
    fn replay(&mut self, recordings: &[RecordedRun]) {
        let mut single_sum_s = Vec::new();
        for (p, (policy, slug)) in POLICIES.iter().enumerate() {
            let mut policy_s = Vec::new();
            let mut accesses = 0;
            let mut misses = 0;
            for (a, recorded) in recordings.iter().enumerate() {
                let (result, samples) =
                    self.repeated(&format!("replay.{slug}"), || recorded.replay(*policy));
                self.costs.replay_s[a][p] = median(&samples);
                add_samples(&mut policy_s, &samples);
                accesses += result.llc_accesses();
                misses += result.llc_misses();
            }
            let per_access: Vec<f64> = policy_s.iter().map(|s| s * 1e9 / accesses as f64).collect();
            self.report
                .put_samples(&format!("replay.ns_per_access.{slug}"), &per_access);
            self.report
                .put(&format!("replay.llc_misses.{slug}"), misses as f64);
            add_samples(&mut single_sum_s, &policy_s);
        }
        let sweep = sweep_policies();
        let mut fanout_s = Vec::new();
        for recorded in recordings {
            let (_, samples) = self.repeated("replay.fanout", || recorded.replay_fanout(&sweep));
            add_samples(&mut fanout_s, &samples);
        }
        self.report.put_samples("replay.fanout_s", &fanout_s);
        self.report
            .put_samples("replay.single_sum_s", &single_sum_s);
        self.report.put(
            "replay.fanout_ratio",
            median(&fanout_s) / median(&single_sum_s),
        );
    }
}

fn total_records(recordings: &[RecordedRun]) -> f64 {
    recordings.iter().map(|r| r.trace().len()).sum::<usize>() as f64
}

/// `spec.*`: the JSON round trip of a campaign spec.
pub fn measure_spec(spec: &CampaignSpec, ctx: &Ctx, tracer: &Tracer, report: &mut Report) {
    let reps = ctx.sizes.ledger_reps;
    let text = spec.to_json();
    let (_, print_s) = repeated(tracer, "spec.print_batch", reps, || {
        (0..MICRO_BATCH)
            .map(|_| std::hint::black_box(spec).to_json().len())
            .sum::<usize>()
    });
    let (_, parse_s) = repeated(tracer, "spec.parse_batch", reps, || {
        (0..MICRO_BATCH).all(|_| {
            CampaignSpec::from_json(std::hint::black_box(&text)).expect("own spec parses") == *spec
        })
    });
    let per_call_us = |samples: &[f64]| -> Vec<f64> {
        samples
            .iter()
            .map(|s| s * 1e6 / MICRO_BATCH as f64)
            .collect()
    };
    report.put_samples("spec.print_us", &per_call_us(&print_s));
    report.put_samples("spec.parse_us", &per_call_us(&parse_s));
}
