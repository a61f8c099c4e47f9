//! `pipeline` — the end-to-end + per-layer benchmark of the repository's one
//! pipeline: ingest graph → reorder → run app & record the post-L2 stream →
//! persist → replay under N LLC policies → schedule grids → serve them.
//!
//! ```text
//! pipeline [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!          [--quick] [--out <file>] [--trace-out <file>]
//! pipeline compare <a.json> <b.json>
//! ```
//!
//! Without `--workload` / `--trace` every workload runs both passes: the
//! untraced pass produces the end-to-end metrics, the traced pass the
//! per-layer ones. Each pass ends with one JSON result line
//! (`correct` / `attempted` / `failed` / `metrics`); the full numbers, with
//! quartiles and hardware metadata, go to `--out`. See `README.md` beside
//! this package for what each workload and metric is for.

mod check;
mod compare;
mod env;
mod host;
mod inputs;
mod ledger;
mod library;
mod metrics;
mod serve;
mod stats;
mod trace;

use check::Tally;
use grasp_core::datasets::DatasetKind;
use grasp_core::json::Json;
use inputs::{Sizes, Workdir};
use library::{Library, StageTable};
use metrics::Report;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Worker threads per campaign, pinned so a run on a bigger box measures
/// the same schedule (the reference box has two hardware threads).
const THREADS: usize = 2;

const LIBRARY_WORKLOADS: [Library; 3] = [
    library::COLD_RECORD_HIGHSKEW,
    library::WARM_SWEEP_HIGHSKEW,
    library::WARM_SWEEP_NOSKEW,
];

/// What every pass needs to know about the run it is part of.
pub struct Ctx<'a> {
    pub sizes: Sizes,
    pub seed: u64,
    /// Measuring time of one pass.
    pub seconds: f64,
    pub threads: usize,
    pub work: &'a Workdir,
    /// The host-speed reference end-to-end timings are normalised by.
    pub host: &'a host::Reference,
    /// Cargo's target directory, relative to the repository root.
    pub target: &'a Path,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pipeline [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         \x20               [--quick] [--out <file>] [--trace-out <file>]\n\
         \x20      pipeline compare <a.json> <b.json>\n\
         workloads: cold_record_highskew warm_sweep_highskew warm_sweep_noskew serve_overlap"
    );
    ExitCode::from(2)
}

fn parse_args(raw: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = iter.next()?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = Some(value.parse().ok().filter(|s| *s >= 0.0)?),
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(args)
}

/// One (workload, pass) and everything it produced.
struct Pass {
    workload: &'static str,
    traced: bool,
    report: Report,
    tally: Tally,
    digest: u64,
    /// Untraced pass: the raw-seconds medians behind the normalised metrics.
    raw: Vec<(&'static str, f64)>,
    stages: Option<StageTable>,
    tracer: Tracer,
}

impl Pass {
    fn new(workload: &'static str, traced: bool) -> Pass {
        Pass {
            workload,
            traced,
            report: Report::new(if traced {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            }),
            tally: Tally::default(),
            digest: 0,
            raw: Vec::new(),
            stages: None,
            tracer: Tracer::new(workload, false),
        }
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The human-readable table.
    fn print(&self) {
        println!();
        println!(
            "{} — {} pass: {} operations attempted, {} failed (failure_share {}), sim_digest {:016x}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
            self.digest,
        );
        for note in &self.tally.notes {
            println!("  FAILED: {note}");
        }
        println!(
            "  {:<34} {:>6} {:>16} {:>4} {:>14} {:>14} {:>7} {:>14} {:>14}",
            "metric", "unit", "median", "n", "q1", "q3", "iqr %", "min", "max"
        );
        for (def, m) in self.report.rows() {
            match m.summary {
                Some(s) => println!(
                    "  {:<34} {:>6} {:>16.6} {:>4} {:>14.6} {:>14.6} {:>7.2} {:>14.6} {:>14.6}",
                    def.name,
                    m.unit,
                    m.value,
                    s.n,
                    s.q1,
                    s.q3,
                    s.relative_spread() * 100.0,
                    s.min,
                    s.max
                ),
                None => println!("  {:<34} {:>6} {:>16.6}", def.name, m.unit, m.value),
            }
        }
        if !self.raw.is_empty() {
            println!("  raw (not normalised) medians");
            for (name, seconds) in &self.raw {
                println!("    {name:<34} {seconds:>12.6} s");
            }
        }
        if let Some(stages) = &self.stages {
            stages.print(self.workload);
        }
        if self.traced {
            println!("  self time per span (median)");
            for (name, secs) in self.tracer.self_times() {
                println!("    {name:<34} {secs:>12.6} s");
            }
        }
    }

    /// The driver-facing result object.
    fn result_line(&self) -> Json {
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::integer(self.tally.attempted.max(1))),
            ("failed", Json::integer(self.tally.failed)),
            ("metrics", self.report.to_result_metrics()),
        ])
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("workload", Json::string(self.workload)),
            ("trace", Json::integer(u64::from(self.traced))),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::integer(self.tally.attempted)),
            ("failed", Json::integer(self.tally.failed)),
            (
                "failure_share",
                Json::Number(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            ),
            ("sim_digest", Json::string(format!("{:016x}", self.digest))),
            (
                "raw",
                Json::Object(
                    self.raw
                        .iter()
                        .map(|&(name, seconds)| (name.to_owned(), Json::Number(seconds)))
                        .collect(),
                ),
            ),
            ("metrics", self.report.to_detailed()),
        ])
    }
}

fn library_pass(workload: &Library, traced: bool, ctx: &Ctx) -> Result<Pass, String> {
    let mut pass = Pass::new(workload.name, traced);
    let Pass {
        report,
        tally,
        tracer,
        ..
    } = &mut pass;
    if !traced {
        let measured = library::run(workload, ctx, false, tracer, tally);
        pass.raw = measured.report_end_to_end(report);
        measured.cleanup();
        pass.digest = measured.digest;
        return Ok(pass);
    }

    // Half the pass's time goes to the end-to-end operations (alternately
    // span-recorded and not), the rest to the standalone layer calls.
    let xtask = env::build_xtask(ctx.target)?;
    env::reset_peak_rss();
    let measured = library::run(workload, ctx, true, tracer, tally);
    tracer.set_recording(true);
    let costs = ledger::measure(
        &measured.prepared.edge_file,
        ctx.sizes.scale,
        ctx,
        tracer,
        report,
    );
    let stages = library::report_campaign(
        &measured.campaign_facts(workload),
        || measured.prepared.graph_prep(),
        &costs,
        ctx,
        tracer,
        report,
    );
    report.put(
        "trace.overhead_pct",
        library::trace_overhead_pct(measured.traced_walls()),
    );
    report.put("host.ref_s", measured.host_ref_s());
    // `spec.*` and `serve.*` on a library workload: a one-round probe of the
    // daemon, so every traced pass reports the whole ledger.
    let probe_kind = DatasetKind::Twitter;
    ledger::measure_spec(&serve::round_spec(probe_kind, ctx), ctx, tracer, report);
    serve::Harness {
        xtask: &xtask,
        ctx,
        tracer,
        tally,
    }
    .measure_layers(&[probe_kind], 1, report);
    measured.cleanup();
    pass.digest = measured.digest;
    pass.stages = Some(stages);
    Ok(pass)
}

fn serve_pass(traced: bool, ctx: &Ctx) -> Result<Pass, String> {
    let xtask = env::build_xtask(ctx.target)?;
    let mut pass = Pass::new(serve::NAME, traced);
    let Pass {
        report,
        tally,
        tracer,
        ..
    } = &mut pass;
    let mut harness = serve::Harness {
        xtask: &xtask,
        ctx,
        tracer,
        tally,
    };
    if !traced {
        (pass.digest, pass.raw) = harness.run_end_to_end(report);
        return Ok(pass);
    }

    env::reset_peak_rss();
    let kinds = serve::round_order(ctx);
    // Two sessions: one span-recorded, one not.
    let (reference, oracles, samples) = harness.measure_layers(&kinds, 2, report);
    tracer.set_recording(true);
    // The ledger's graph is the first round's dataset, and `campaign.*`
    // describes the in-process reference campaign of that round's spec.
    let edge_file = serve::ledger_edge_file(kinds[0], ctx);
    let costs = ledger::measure(&edge_file, ctx.sizes.serve_scale, ctx, tracer, report);
    ledger::measure_spec(&serve::round_spec(kinds[0], ctx), ctx, tracer, report);
    let facts = library::CampaignFacts {
        policies: metrics::sweep_policies(),
        cold: false,
        wall_s: reference.wall_s,
        census: reference.census,
        store: reference.store,
        cells: oracles.iter().flat_map(|oracle| &oracle.cells).collect(),
    };
    let scale = ctx.sizes.serve_scale;
    let stages = library::report_campaign(
        &facts,
        || ledger::reorder_all(&kinds[0].generate(scale)),
        &costs,
        ctx,
        tracer,
        report,
    );
    report.put(
        "trace.overhead_pct",
        library::trace_overhead_pct(samples.traced_walls()),
    );
    report.put("host.ref_s", samples.host_ref_s());
    pass.digest = serve::digest(&oracles);
    pass.stages = Some(stages);
    Ok(pass)
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let root = env::repo_root();
    if raw.first().map(String::as_str) == Some("compare") {
        return compare::run(&raw[1..], &root.join("BENCHMARK.json"));
    }
    let Some(args) = parse_args(&raw) else {
        return usage();
    };
    let known = LIBRARY_WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain([serve::NAME])
        .collect::<Vec<_>>();
    if let Some(name) = &args.workload {
        if !known.contains(&name.as_str()) {
            eprintln!("unknown workload {name:?}");
            return usage();
        }
    }

    // Everything below is relative to the repository root; resolve what the
    // caller gave relative to its own directory first.
    let absolute = |path: PathBuf| std::path::absolute(path).expect("current directory exists");
    let target = env::target_dir(&root);
    let out = args.out.map(absolute);
    let trace_out = args.trace_out.map(absolute);
    if let Err(err) = std::env::set_current_dir(&root) {
        eprintln!("cannot enter {}: {err}", root.display());
        return ExitCode::from(2);
    }
    let out = out.unwrap_or_else(|| target.join("bench").join("pipeline.json"));
    let trace_out = trace_out.unwrap_or_else(|| target.join("bench").join("pipeline.trace.ndjson"));

    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let seconds = args.seconds.unwrap_or(if args.quick { 0.0 } else { 10.0 });
    let work = Workdir::create(&target);
    let host = host::Reference::new(THREADS);
    let ctx = Ctx {
        sizes,
        seed: args.seed,
        seconds,
        threads: THREADS,
        work: &work,
        host: &host,
        target: &target,
    };
    let meta = env::Meta::collect(
        THREADS,
        args.seed,
        if args.quick { "quick" } else { "full" },
        seconds,
        sizes.min_reps,
    );
    meta.print();

    let passes: Vec<bool> = match args.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    if passes.contains(&true) {
        std::fs::remove_file(&trace_out).ok();
    }
    let mut done: Vec<Pass> = Vec::new();
    for name in known {
        if args
            .workload
            .as_deref()
            .is_some_and(|wanted| wanted != name)
        {
            continue;
        }
        for &traced in &passes {
            let outcome = match LIBRARY_WORKLOADS.iter().find(|w| w.name == name) {
                Some(workload) => library_pass(workload, traced, &ctx),
                None => serve_pass(traced, &ctx),
            };
            let pass = match outcome {
                Ok(pass) => pass,
                Err(err) => {
                    eprintln!("{name}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            pass.print();
            if traced {
                match trace::append_ndjson(&trace_out, &pass.tracer) {
                    Ok(spans) => println!("  {spans} spans appended to {}", trace_out.display()),
                    Err(err) => eprintln!("cannot write {}: {err}", trace_out.display()),
                }
            }
            done.push(pass);
        }
    }

    let document = Json::object([
        ("meta", meta.to_json()),
        (
            "runs",
            Json::Array(done.iter().map(Pass::to_json).collect()),
        ),
    ]);
    match write_file(&out, &format!("{document}\n")) {
        Ok(()) => println!("\nresults written to {}", out.display()),
        Err(err) => eprintln!("cannot write {}: {err}", out.display()),
    }
    for pass in &done {
        println!("{}", pass.result_line());
    }
    std::io::stdout().flush().ok();
    if done.iter().all(Pass::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
