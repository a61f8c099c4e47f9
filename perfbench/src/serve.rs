//! The `serve_overlap` workload and the `serve.*` layer metrics: the real
//! `xtask serve` daemon as a child process, spoken to over its Unix socket
//! with nothing but `std::os::unix::net::UnixStream` and `grasp_core::json`.
//!
//! Two closed-loop clients. A *round* takes one synthetic dataset through
//! three waves of the same spec: both clients submit it at the same instant
//! against a store that has never seen it (one leads each recording, the
//! other deduplicates), then twice more (store loads). A *session* is one
//! daemon with a fresh store serving one round per dataset.

use crate::check::{same_result, sim_digest, values_fnv, Tally};
use crate::host::normalise;
use crate::inputs::{discard, write_graph_as_edge_file};
use crate::library::{stats_delta, Census};
use crate::metrics::{sweep_policies, Report, APPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use grasp_analytics::apps::AppKind;
use grasp_core::campaign::{Campaign, CampaignRun};
use grasp_core::datasets::DatasetKind;
use grasp_core::json::{self, Json};
use grasp_core::spec::CampaignSpec;
use grasp_core::trace_store::{TraceStore, TraceStoreStats};
use grasp_graph::prng::Xoshiro256;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_overlap";

/// Closed-loop clients (and the daemon's `--max-campaigns`).
const CLIENTS: usize = 2;
/// Warm waves after a round's cold wave.
const WARM_WAVES: usize = 2;
/// The dataset of the discarded warm-up round: not one the timed rounds use.
const WARMUP_KIND: DatasetKind = DatasetKind::Friendster;

/// The spec both clients submit for `kind`.
pub fn round_spec(kind: DatasetKind, ctx: &Ctx) -> CampaignSpec {
    let mut spec = CampaignSpec::new(ctx.sizes.serve_scale);
    spec.datasets = vec![kind.into()];
    spec.apps = AppKind::ALL.to_vec();
    spec.policies = sweep_policies();
    spec.threads = ctx.threads;
    spec
}

/// The timed rounds' datasets: the high-skew kinds, order shuffled by seed.
pub fn round_order(ctx: &Ctx) -> Vec<DatasetKind> {
    let mut kinds = DatasetKind::HIGH_SKEW.to_vec();
    Xoshiro256::seed_from_u64(ctx.seed).shuffle(&mut kinds);
    kinds.truncate(ctx.sizes.serve_rounds);
    kinds
}

/// A running `xtask serve` child with its own socket and store directory.
pub struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers `ping`.
    pub fn spawn(xtask: &Path, ctx: &Ctx) -> Daemon {
        let dir = ctx.work.fresh("daemon");
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        let socket = dir.join("d.sock");
        let log = std::fs::File::create(dir.join("daemon.log")).expect("daemon log is writable");
        let child = Command::new(xtask)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store"))
            .args(["--store-budget", "256M"])
            .args(["--max-campaigns", &CLIENTS.to_string()])
            .args(["--queue-depth", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", xtask.display()));
        let mut daemon = Daemon { child, dir, socket };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !daemon.ping() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                panic!("the daemon exited during start-up: {status}");
            }
            assert!(Instant::now() < deadline, "the daemon never answered ping");
            std::thread::sleep(Duration::from_millis(1));
        }
        daemon
    }

    fn ping(&self) -> bool {
        simple_request(&self.socket, "ping").is_some_and(|frame| frame_type(&frame) == Some("pong"))
    }

    /// Asks the daemon to stop and waits for it to exit.
    pub fn shutdown(mut self, tally: &mut Tally) {
        let bye = simple_request(&self.socket, "shutdown");
        let exited = self.child.wait();
        tally.check(
            bye.is_some_and(|frame| frame_type(&frame) == Some("bye"))
                && exited.is_ok_and(|status| status.success()),
            || "serve: the daemon did not shut down cleanly".to_owned(),
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only still running when a panic skipped `shutdown`.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
            self.child.wait().ok();
        }
        discard(&self.dir);
    }
}

fn frame_type(frame: &Json) -> Option<&str> {
    frame.get("type").and_then(Json::as_str)
}

/// Sends a `{"type": kind}` request and returns the single response frame.
fn simple_request(socket: &Path, kind: &str) -> Option<Json> {
    let mut stream = UnixStream::connect(socket).ok()?;
    let request = Json::object([("type", Json::string(kind))]);
    stream.write_all(format!("{request}\n").as_bytes()).ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    json::parse(line.trim_end()).ok()
}

/// One `run` request as seen from the client.
#[derive(Debug, Default)]
struct Reply {
    wall_s: f64,
    accept_s: Option<f64>,
    ttfc_s: Option<f64>,
    cells: Vec<Json>,
    cell_bytes: usize,
    done: Option<Json>,
    /// An error frame's kind, or a transport failure.
    error: Option<String>,
}

/// Submits `request_line` and reads frames until the terminal one,
/// stamping each as it arrives.
fn run_request(socket: &Path, request_line: &str, tracer: &Tracer, rep: u32, name: &str) -> Reply {
    let mut reply = Reply::default();
    let mut span = tracer.begin(None, rep, name);
    let parent = Some(span.id());
    let sent = span.started_at();
    let outcome = (|| -> std::io::Result<()> {
        let mut stream = UnixStream::connect(socket)?;
        stream.write_all(request_line.as_bytes())?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other(
                    "connection closed before a terminal frame",
                ));
            }
            let now = Instant::now();
            let frame = json::parse(line.trim_end()).map_err(std::io::Error::other)?;
            match frame_type(&frame) {
                Some("accepted") => {
                    reply.accept_s = Some(now.duration_since(sent).as_secs_f64());
                    tracer.event(parent, rep, "serve.accepted", now);
                }
                Some("cell") => {
                    reply
                        .ttfc_s
                        .get_or_insert(now.duration_since(sent).as_secs_f64());
                    tracer.event(parent, rep, "serve.cell", now);
                    reply.cell_bytes += line.len();
                    reply.cells.push(frame);
                }
                Some("done") => {
                    reply.done = Some(frame);
                    return Ok(());
                }
                Some("error") => {
                    let kind = frame.get("kind").and_then(Json::as_str).unwrap_or("?");
                    reply.error = Some(kind.to_owned());
                    return Ok(());
                }
                other => {
                    return Err(std::io::Error::other(format!("unexpected frame {other:?}")));
                }
            }
        }
    })();
    if let Err(err) = outcome {
        reply.error = Some(format!("transport: {err}"));
    }
    span.count("cells", reply.cells.len() as u64);
    span.count("cell_bytes", reply.cell_bytes as u64);
    reply.wall_s = span.end();
    reply
}

/// What a `cell` frame must say, per grid index.
struct ExpectedCell {
    llc_accesses: u64,
    llc_misses: u64,
    cycles_bits: String,
    values_fnv: String,
}

/// The in-process oracle for one round: `Campaign::from_spec(spec).run()`.
pub struct Oracle {
    pub kind: DatasetKind,
    pub request_line: String,
    pub cells: Vec<CampaignRun>,
    expected: Vec<ExpectedCell>,
}

impl Oracle {
    pub fn compute(kind: DatasetKind, ctx: &Ctx) -> Oracle {
        let spec = round_spec(kind, ctx);
        let cells = Campaign::from_spec(&spec)
            .expect("the round spec is valid")
            .run()
            .into_runs();
        let expected = cells
            .iter()
            .map(|run| ExpectedCell {
                llc_accesses: run.result.llc_accesses(),
                llc_misses: run.result.llc_misses(),
                cycles_bits: format!("{:016x}", run.result.cycles.to_bits()),
                values_fnv: values_fnv(&run.result.app.values),
            })
            .collect();
        let request = Json::object([("type", Json::string("run")), ("spec", spec.to_value())]);
        Oracle {
            kind,
            request_line: format!("{request}\n"),
            cells,
            expected,
        }
    }

    fn sim_accesses(&self) -> u64 {
        self.expected.iter().map(|cell| cell.llc_accesses).sum()
    }

    /// Whether a reply's cell frames are exactly this oracle's cells.
    fn matches(&self, reply: &Reply) -> bool {
        let mut seen = vec![false; self.expected.len()];
        reply.cells.len() == self.expected.len()
            && reply.cells.iter().all(|frame| {
                let field = |key: &str| frame.get(key).and_then(Json::as_u64);
                let text = |key: &str| frame.get(key).and_then(Json::as_str);
                let Some(index) = field("index").map(|i| i as usize) else {
                    return false;
                };
                let Some(expected) = self.expected.get(index) else {
                    return false;
                };
                !std::mem::replace(&mut seen[index], true)
                    && field("llc_accesses") == Some(expected.llc_accesses)
                    && field("llc_misses") == Some(expected.llc_misses)
                    && text("cycles_bits") == Some(&expected.cycles_bits)
                    && text("values_fnv") == Some(&expected.values_fnv)
            })
    }
}

fn census_of(reply: &Reply) -> Census {
    let field = |key: &str| {
        reply
            .done
            .as_ref()
            .and_then(|done| done.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Census {
        recorded: field("recorded"),
        deduped: field("deduped"),
        loads: field("loads"),
    }
}

/// One request's timings.
#[derive(Debug, Clone, Copy)]
struct RequestSample {
    wall_s: f64,
    accept_s: f64,
    ttfc_s: f64,
    cold: bool,
    traced: bool,
    /// Index of the round's dataset in the session's order.
    kind_index: usize,
}

/// One round's totals.
#[derive(Debug, Clone, Copy)]
struct RoundSample {
    /// Σ of the three waves' wall-clocks (first send to last `done`).
    wall_s: f64,
    cells: u64,
    sim_accesses: u64,
}

/// Everything the rounds of a pass produced.
#[derive(Debug, Default)]
pub struct ServeSamples {
    requests: Vec<RequestSample>,
    rounds: Vec<RoundSample>,
    census: Census,
    overloaded: u64,
    cell_bytes: usize,
    cell_frames: usize,
    /// The host-speed reference's timings, taken between rounds.
    ref_s: Vec<f64>,
}

impl ServeSamples {
    /// `(span-recorded, wall_s)` of every request.
    pub fn traced_walls(&self) -> impl Iterator<Item = (bool, f64)> + '_ {
        self.requests.iter().map(|r| (r.traced, r.wall_s))
    }

    /// Median of the host-speed reference over the pass.
    pub fn host_ref_s(&self) -> f64 {
        median(&self.ref_s)
    }

    fn per_request(&self, f: impl Fn(&RequestSample) -> f64) -> Vec<f64> {
        self.requests.iter().map(f).collect()
    }

    fn per_round(&self, f: impl Fn(&RoundSample) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }
}

/// What set-up leaves behind: the oracles and a daemon that answers ping.
pub struct Prepared {
    oracles: Vec<Oracle>,
    warmup: Oracle,
    daemon: Daemon,
}

/// The in-process reference of a round's spec against a warm store: what
/// the library alone needs for the work a warm request asks of the daemon.
pub struct Reference {
    pub wall_s: f64,
    pub census: Census,
    pub store: TraceStoreStats,
}

/// What every step of a serve pass needs.
pub struct Harness<'a> {
    pub xtask: &'a Path,
    pub ctx: &'a Ctx<'a>,
    pub tracer: &'a Tracer,
    pub tally: &'a mut Tally,
}

impl Harness<'_> {
    /// Both clients submit the same request at the same instant.
    fn wave(&self, daemon: &Daemon, oracle: &Oracle, rep: u32, name: &str) -> (Vec<Reply>, f64) {
        let barrier = Barrier::new(CLIENTS);
        let started = Instant::now();
        let replies = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        run_request(&daemon.socket, &oracle.request_line, self.tracer, rep, name)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().expect("client thread does not panic"))
                .collect()
        });
        (replies, started.elapsed().as_secs_f64())
    }

    /// One round: the cold wave and the warm waves of one dataset, checked
    /// against its oracle. `traced` turns span recording on for the round.
    fn round(
        &mut self,
        daemon: &Daemon,
        oracle: &Oracle,
        kind_index: usize,
        rep: u32,
        traced: bool,
        samples: &mut ServeSamples,
    ) {
        let kind = oracle.kind;
        let streams = APPS.len() as u64;
        let mut round_wall = 0.0;
        let mut round_cells = 0;
        self.tracer.set_recording(traced);
        for wave_index in 0..=WARM_WAVES {
            let cold = wave_index == 0;
            let name = if cold {
                "serve.request.cold"
            } else {
                "serve.request.warm"
            };
            let (replies, wave_wall) = self.wave(daemon, oracle, rep, name);
            round_wall += wave_wall;
            let mut wave_census = Census::default();
            for reply in &replies {
                if let Some(error) = &reply.error {
                    samples.overloaded += u64::from(error == "service/overloaded");
                    self.tally
                        .failure(format!("serve {kind}: request failed: {error}"));
                    continue;
                }
                self.tally.completed(1 + reply.cells.len() as u64);
                self.tally.check(oracle.matches(reply), || {
                    format!("serve {kind}: cell frames differ from Campaign::from_spec(spec).run()")
                });
                let census = census_of(reply);
                wave_census += census;
                if !cold {
                    self.tally
                        .check(census.recorded == 0 && census.loads == streams, || {
                            format!("serve {kind}: warm request census {census:?}")
                        });
                }
                round_cells += reply.cells.len() as u64;
                samples.cell_bytes += reply.cell_bytes;
                samples.cell_frames += reply.cells.len();
                samples.requests.push(RequestSample {
                    wall_s: reply.wall_s,
                    accept_s: reply.accept_s.unwrap_or(reply.wall_s),
                    ttfc_s: reply.ttfc_s.unwrap_or(reply.wall_s),
                    cold,
                    traced,
                    kind_index,
                });
            }
            if cold {
                // Exactly one recording per stream fleet-wide; the other
                // client deduplicates in flight or, if it planned after
                // publication, loads from the store.
                let served = wave_census.recorded + wave_census.deduped + wave_census.loads;
                self.tally.check(
                    wave_census.recorded == streams && served == CLIENTS as u64 * streams,
                    || format!("serve {kind}: cold wave census {wave_census:?}"),
                );
            }
            samples.census += wave_census;
        }
        self.tracer.set_recording(false);
        samples.rounds.push(RoundSample {
            wall_s: round_wall,
            cells: round_cells,
            sim_accesses: (1 + WARM_WAVES) as u64 * CLIENTS as u64 * oracle.sim_accesses(),
        });
    }

    /// Untimed preparation: the in-process oracle of every round (and of the
    /// warm-up round), and the daemon spawned until `ping` answers.
    fn setup(&self, kinds: &[DatasetKind]) -> Prepared {
        let oracle = |&kind| Oracle::compute(kind, self.ctx);
        Prepared {
            oracles: kinds.iter().map(oracle).collect(),
            warmup: oracle(&WARMUP_KIND),
            daemon: Daemon::spawn(self.xtask, self.ctx),
        }
    }

    /// Runs sessions for `seconds` (at least `min_sessions`): each is a
    /// discarded warm-up round, then one timed round per oracle, then a
    /// daemon shutdown; the next session gets a fresh daemon and store.
    /// With `alternate_tracing` every other session records spans.
    fn sessions(
        &mut self,
        prepared: Prepared,
        seconds: f64,
        min_sessions: usize,
        alternate_tracing: bool,
    ) -> (ServeSamples, Vec<Oracle>) {
        let Prepared {
            oracles,
            warmup,
            daemon,
        } = prepared;
        let mut daemon = Some(daemon);
        let mut samples = ServeSamples::default();
        let started = Instant::now();
        let mut session = 0;
        while session < min_sessions || started.elapsed().as_secs_f64() < seconds {
            let daemon = daemon
                .take()
                .unwrap_or_else(|| Daemon::spawn(self.xtask, self.ctx));
            self.round(&daemon, &warmup, 0, 0, false, &mut ServeSamples::default());
            let traced = alternate_tracing && session % 2 == 0;
            // The host-speed reference runs between the timed rounds.
            samples.ref_s.push(self.ctx.host.measure());
            for (index, oracle) in oracles.iter().enumerate() {
                let rep = (session * oracles.len() + index) as u32 + 1;
                self.round(&daemon, oracle, index, rep, traced, &mut samples);
                samples.ref_s.push(self.ctx.host.measure());
            }
            daemon.shutdown(self.tally);
            session += 1;
        }
        (samples, oracles)
    }

    /// The untraced pass of `serve_overlap`: set-up (repeated, last one
    /// kept), then sessions; reports the end-to-end metrics in normalised
    /// seconds and returns the simulation digest and the raw medians.
    pub fn run_end_to_end(&mut self, report: &mut Report) -> (u64, Vec<(&'static str, f64)>) {
        let kinds = round_order(self.ctx);
        let mut setup_s = Vec::new();
        let mut prepared = None;
        for _ in 0..self.ctx.sizes.setup_reps {
            if let Some(Prepared { daemon, .. }) = prepared.take() {
                daemon.shutdown(self.tally);
            }
            let started = Instant::now();
            prepared = Some(self.setup(&kinds));
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let prepared = prepared.expect("set-up runs at least once");
        let (samples, oracles) = self.sessions(prepared, self.ctx.seconds, 1, false);

        let ref_s = samples.host_ref_s();
        let seconds = |raw: f64| normalise(raw, ref_s);
        let normalised_setup: Vec<f64> = setup_s.iter().map(|&s| seconds(s)).collect();
        report.put_samples("setup_s", &normalised_setup);
        report.put_samples("wall_norm_s", &samples.per_request(|r| seconds(r.wall_s)));
        report.put_samples("ttfc_norm_s", &samples.per_request(|r| seconds(r.ttfc_s)));
        report.put_samples(
            "cells_per_norm_s",
            &samples.per_round(|r| r.cells as f64 / seconds(r.wall_s)),
        );
        report.put_samples(
            "sim_accesses_per_norm_s",
            &samples.per_round(|r| r.sim_accesses as f64 / seconds(r.wall_s)),
        );
        let raw = vec![
            ("setup_s", median(&setup_s)),
            ("wall_s", median(&samples.per_request(|r| r.wall_s))),
            ("ttfc_s", median(&samples.per_request(|r| r.ttfc_s))),
            ("host.ref_s", ref_s),
        ];
        (digest(&oracles), raw)
    }

    /// Times `Campaign::from_spec(spec).run()` in-process against a store
    /// its own cold run populated.
    fn reference(&mut self, oracle: &Oracle) -> Reference {
        let dir = self.ctx.work.fresh("reference-store");
        let store = Arc::new(TraceStore::open(&dir).expect("store directory opens"));
        let campaign = Campaign::from_spec(&round_spec(oracle.kind, self.ctx))
            .expect("the round spec is valid")
            .with_trace_store(Arc::clone(&store));
        campaign.run();
        let mut walls = Vec::new();
        let mut last = None;
        for rep in 0..self.ctx.sizes.ledger_reps {
            let before = store.stats();
            let (result, secs) =
                self.tracer
                    .time(None, rep as u32, "serve.library_reference", || {
                        campaign.run()
                    });
            walls.push(secs);
            let identical = result.len() == oracle.cells.len()
                && result
                    .iter()
                    .zip(&oracle.cells)
                    .all(|(a, b)| a.cell == b.cell && same_result(&a.result, &b.result));
            self.tally.check(identical, || {
                format!(
                    "serve {}: warm library run differs from the cold one",
                    oracle.kind
                )
            });
            last = Some((Census::of(&result), stats_delta(store.stats(), before)));
        }
        discard(&dir);
        let (census, store) = last.expect("at least one reference repetition");
        Reference {
            wall_s: median(&walls),
            census,
            store,
        }
    }

    /// The `serve.*` metrics of a traced pass: `session_count` sessions over
    /// `kinds` (alternately span-recorded), pings, and the in-process
    /// reference of the first kind.
    pub fn measure_layers(
        &mut self,
        kinds: &[DatasetKind],
        session_count: usize,
        report: &mut Report,
    ) -> (Reference, Vec<Oracle>, ServeSamples) {
        let prepared = self.setup(kinds);
        self.tracer.set_recording(true);
        let mut ping_s = Vec::new();
        for rep in 0..20 {
            let (answered, secs) = self
                .tracer
                .time(None, rep, "serve.ping", || prepared.daemon.ping());
            self.tally
                .check(answered, || "serve: ping unanswered".to_owned());
            ping_s.push(secs);
        }
        let (samples, oracles) = self.sessions(prepared, 0.0, session_count, true);
        self.tracer.set_recording(true);
        let reference = self.reference(&oracles[0]);

        let pick = |cold: bool, f: &dyn Fn(&RequestSample) -> f64| -> Vec<f64> {
            samples
                .requests
                .iter()
                .filter(|r| r.cold == cold)
                .map(f)
                .collect()
        };
        report.put_samples("serve.ping_rtt_s", &ping_s);
        report.put_samples("serve.accept_s", &samples.per_request(|r| r.accept_s));
        report.put_samples("serve.cold_wall_s", &pick(true, &|r| r.wall_s));
        report.put_samples("serve.warm_wall_s", &pick(false, &|r| r.wall_s));
        report.put_samples("serve.cold_ttfc_s", &pick(true, &|r| r.ttfc_s));
        report.put_samples("serve.warm_ttfc_s", &pick(false, &|r| r.ttfc_s));
        report.put("serve.recorded", samples.census.recorded as f64);
        report.put("serve.deduped", samples.census.deduped as f64);
        report.put("serve.loads", samples.census.loads as f64);
        report.put("serve.overloaded", samples.overloaded as f64);
        report.put(
            "serve.frame_bytes_per_cell",
            samples.cell_bytes as f64 / samples.cell_frames as f64,
        );
        // Warm requests of the reference's own dataset only: the ratio
        // compares like with like.
        let like: Vec<f64> = samples
            .requests
            .iter()
            .filter(|r| r.kind_index == 0 && !r.cold)
            .map(|r| r.wall_s)
            .collect();
        report.put("serve.vs_library_ratio", median(&like) / reference.wall_s);
        (reference, oracles, samples)
    }
}

/// The simulation digest of a serve pass: its oracles' cells, in dataset
/// label order (so the seed's shuffle does not change it).
pub fn digest(oracles: &[Oracle]) -> u64 {
    let mut ordered: Vec<&Oracle> = oracles.iter().collect();
    ordered.sort_by_key(|oracle| oracle.kind.label());
    sim_digest(ordered.into_iter().flat_map(|oracle| oracle.cells.iter()))
}

/// The ledger's graph on `serve_overlap`: the dataset the daemon generates
/// for `kind`, written back out as an edge list.
pub fn ledger_edge_file(kind: DatasetKind, ctx: &Ctx) -> PathBuf {
    let path = ctx.work.fresh("serve-ledger").with_extension("el");
    write_graph_as_edge_file(&kind.generate(ctx.sizes.serve_scale), &path);
    path
}
