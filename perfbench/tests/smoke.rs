//! Smoke test of the `pipeline` harness in `--quick` mode: every metric
//! `BENCHMARK.json` names is printed exactly once per workload and pass with
//! its unit, nothing fails, and the simulation digest is a function of the
//! seed. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use grasp_core::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "cold_record_highskew",
    "warm_sweep_highskew",
    "warm_sweep_noskew",
    "serve_overlap",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits below the repository root")
        .to_path_buf()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("test scratch directory is writable");
    dir.join(name)
}

fn pipeline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args(args)
        .output()
        .expect("the pipeline binary runs")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

/// `name -> unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(benchmark: &Json, list: &str) -> BTreeMap<String, String> {
    benchmark
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|metric| {
            let field = |key: &str| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {key}: {metric}"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs every workload and both passes at `seed`; returns the `--out`
/// document and the result lines the run printed.
fn quick_run(seed: &str, tag: &str) -> (Json, Vec<Json>) {
    let out = scratch(&format!("{tag}.json"));
    let trace_out = scratch(&format!("{tag}.ndjson"));
    let output = pipeline(&[
        "--quick",
        "--seed",
        seed,
        "--out",
        out.to_str().unwrap(),
        "--trace-out",
        trace_out.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "pipeline --quick --seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result_lines = stdout
        .lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| json::parse(line).expect("result lines are JSON"))
        .collect();
    let spans = std::fs::read_to_string(&trace_out).expect("the traced passes write spans");
    assert!(spans.lines().count() > 100, "suspiciously few spans");
    for line in spans.lines() {
        let span = json::parse(line).expect("span lines are JSON");
        for key in [
            "id", "parent", "workload", "rep", "name", "start_ns", "end_ns",
        ] {
            assert!(span.get(key).is_some(), "span without {key}: {line}");
        }
    }
    (load(&out), result_lines)
}

fn digests(document: &Json) -> BTreeMap<(String, u64), String> {
    document
        .get("runs")
        .and_then(Json::as_array)
        .expect("runs")
        .iter()
        .map(|run| {
            let text = |key: &str| run.get(key).and_then(Json::as_str).expect(key).to_owned();
            let trace = run.get("trace").and_then(Json::as_u64).expect("trace");
            ((text("workload"), trace), text("sim_digest"))
        })
        .collect()
}

#[test]
fn quick_mode_prints_every_declared_metric_and_digests_follow_the_seed() {
    let benchmark = load(&repo_root().join("BENCHMARK.json"));
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    let declared_workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    let (first, result_lines) = quick_run("1", "seed1-a");
    for key in [
        "available_parallelism",
        "pinned_threads",
        "cpu_model",
        "rustc",
        "git_commit",
        "seed",
        "scale",
        "min_repetitions",
    ] {
        assert!(
            first.get("meta").and_then(|meta| meta.get(key)).is_some(),
            "metadata without {key}"
        );
    }

    // One run per (workload, pass), each with exactly the declared metrics.
    let runs = first.get("runs").and_then(Json::as_array).expect("runs");
    assert_eq!(runs.len(), 2 * WORKLOADS.len());
    assert_eq!(result_lines.len(), runs.len());
    for (run, line) in runs.iter().zip(&result_lines) {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        let traced = run.get("trace").and_then(Json::as_u64).expect("trace") == 1;
        let expected = if traced { &per_layer } else { &end_to_end };
        assert_eq!(
            run.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert_eq!(
            run.get("failure_share").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{workload}");

        // The result line carries exactly the contract's keys.
        let keys: Vec<&str> = line
            .as_object()
            .expect("result object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(
            line.get("attempted")
                .and_then(Json::as_u64)
                .expect("attempted")
                >= 1
        );

        for metrics in [run.get("metrics"), line.get("metrics")] {
            let metrics = metrics.and_then(Json::as_object).expect("metrics object");
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, metric)| {
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "bad metric name {name:?}"
                    );
                    assert!(
                        metric.get("value").and_then(Json::as_f64).is_some(),
                        "{workload}: {name} has no numeric value"
                    );
                    let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(&printed, expected, "{workload} (trace {traced})");
        }
    }

    // Same seed, same simulation; another seed, another graph. The daemon's
    // synthetic datasets do not depend on the seed, only their order does.
    let (again, _) = quick_run("1", "seed1-b");
    let (other, _) = quick_run("2", "seed2");
    let (first, again, other) = (digests(&first), digests(&again), digests(&other));
    assert_eq!(first, again, "sim_digest must repeat for a seed");
    for ((workload, trace), digest) in &first {
        if workload != "serve_overlap" {
            assert_ne!(
                digest,
                &other[&(workload.clone(), *trace)],
                "{workload}: sim_digest must change with the seed"
            );
        }
    }

    // Two runs of one commit and seed: every exact metric matches to the bit.
    let compared = pipeline(&[
        "compare",
        scratch("seed1-a.json").to_str().unwrap(),
        scratch("seed1-b.json").to_str().unwrap(),
    ]);
    let report = String::from_utf8_lossy(&compared.stdout);
    assert!(!report.contains("differs (exact)"), "{report}");
    assert!(report.contains("wall_norm_s"), "{report}");
}

#[test]
fn the_serve_workload_fails_loudly_without_a_daemon_binary() {
    // A cargo that cannot build stands in for a missing `xtask`.
    let output = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args(["--quick", "--workload", "serve_overlap", "--trace", "0"])
        .args(["--out", scratch("no-daemon.json").to_str().unwrap()])
        .env("CARGO", "false")
        .output()
        .expect("the pipeline binary runs");
    assert!(!output.status.success(), "must not skip the workload");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("xtask daemon"), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !stdout.lines().any(|line| line.starts_with('{')),
        "no result may be printed without a daemon"
    );
}

#[test]
fn unknown_arguments_are_refused() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let output = pipeline(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
    }
}
