//! Repository automation tasks (`cargo xtask <task>`).
//!
//! * `bench-diff` — the CI bench-trajectory gate (below).
//! * `trace` — hygiene and CI exercise for the persistent trace store
//!   (`ls [--json]` / `verify` / `gc --max-bytes` / `exercise`; see
//!   [`trace`]).
//! * `graph` — ingest/inspect on-disk binary CSR graphs
//!   (`ingest --out` / `info` / `verify`; see [`graph`]).
//! * `serve` / `client` — the campaign service daemon and its
//!   command-line client (`grasp-serve` over a Unix socket; see
//!   [`service`]).
//!
//! `bench-diff` compares freshly dumped `BENCH_<figure>.json` files against
//! the committed baselines and fails when any **table content** changed —
//! titles, headers, or row cells, no column exempt: the dumps hold
//! simulation results only. Speed is gated by the `pipeline` ledger
//! (`perfbench/`), not here.
//!
//! Simulation tables are fully deterministic (fixed seeds end to end), so a
//! changed cell means a behaviour change that must be acknowledged by
//! re-committing the baseline, not noise.

mod graph;
mod service;
mod trace;

use grasp_core::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-diff") => bench_diff(&args[1..]),
        Some("trace") => trace::run(&args[1..]),
        Some("graph") => graph::run(&args[1..]),
        Some("serve") => service::serve(&args[1..]),
        Some("client") => service::client(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <bench-diff|trace|graph|serve|client> [options]");
            eprintln!();
            eprintln!("bench-diff   compare fresh BENCH_*.json dumps against committed baselines");
            eprintln!(
                "             options: [--baseline <dir>] [--fresh <dir>] \
                 (defaults: baseline = repo root, fresh = target/bench-fresh)"
            );
            eprintln!();
            eprintln!("{}", trace::usage());
            eprintln!();
            eprintln!("{}", graph::usage());
            eprintln!();
            eprintln!("{}", service::usage());
            ExitCode::from(2)
        }
    }
}

fn bench_diff(args: &[String]) -> ExitCode {
    let mut baseline = PathBuf::from(".");
    let mut fresh = PathBuf::from("target/bench-fresh");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => baseline = expect_path(iter.next(), "--baseline"),
            "--fresh" => fresh = expect_path(iter.next(), "--fresh"),
            other => {
                eprintln!("bench-diff: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let baselines = match list_bench_files(&baseline) {
        Ok(files) if !files.is_empty() => files,
        Ok(_) => {
            eprintln!(
                "bench-diff: no BENCH_*.json baselines in {}",
                baseline.display()
            );
            return ExitCode::from(2);
        }
        Err(err) => {
            eprintln!("bench-diff: cannot read {}: {err}", baseline.display());
            return ExitCode::from(2);
        }
    };

    let mut failures = Vec::new();
    for name in &baselines {
        let base_path = baseline.join(name);
        let fresh_path = fresh.join(name);
        match diff_figure(&base_path, &fresh_path) {
            Ok(()) => println!("{name}: tables identical"),
            Err(problems) => {
                for problem in &problems {
                    eprintln!("{name}: {problem}");
                }
                failures.push(name.clone());
            }
        }
    }

    // A fresh dump with no committed baseline is a new figure escaping the
    // gate entirely — fail so its baseline gets committed alongside it. An
    // unreadable fresh directory must fail too: swallowing the error here
    // would let a mis-pointed --fresh pass the whole gate silently.
    match list_bench_files(&fresh) {
        Ok(fresh_files) => {
            for name in fresh_files {
                if !baselines.contains(&name) {
                    eprintln!(
                        "{name}: fresh dump has no committed baseline in {} — regenerate with \
                         GRASP_BENCH_JSON_DIR pointed at the repo root and commit the file so \
                         the figure is gated",
                        baseline.display()
                    );
                    failures.push(name);
                }
            }
        }
        Err(err) => {
            eprintln!(
                "bench-diff: cannot read fresh dump directory {}: {err}",
                fresh.display()
            );
            return ExitCode::from(2);
        }
    }
    if failures.is_empty() {
        println!(
            "bench trajectory OK: {} figure(s), tables unchanged",
            baselines.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench trajectory FAILED for: {}", failures.join(", "));
        ExitCode::FAILURE
    }
}

fn expect_path(value: Option<&String>, flag: &str) -> PathBuf {
    match value {
        Some(v) => PathBuf::from(v),
        None => {
            eprintln!("bench-diff: {flag} needs a directory argument");
            std::process::exit(2);
        }
    }
}

fn list_bench_files(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    Ok(names)
}

/// Compares one figure's fresh dump against its baseline; the error is the
/// list of violations.
fn diff_figure(base_path: &Path, fresh_path: &Path) -> Result<(), Vec<String>> {
    let base = load(base_path).map_err(|e| vec![e])?;
    let fresh = load(fresh_path).map_err(|e| {
        vec![format!(
            "missing fresh dump {} ({e}); run the figure bench with GRASP_BENCH_JSON_DIR set",
            fresh_path.display()
        )]
    })?;

    let mut problems = Vec::new();
    diff_tables(&base, &fresh, &mut problems);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn diff_tables(base: &Json, fresh: &Json, problems: &mut Vec<String>) {
    let empty = Vec::new();
    let base_tables = base
        .get("tables")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let fresh_tables = fresh
        .get("tables")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    if base_tables.len() != fresh_tables.len() {
        problems.push(format!(
            "table count changed: {} vs baseline {}",
            fresh_tables.len(),
            base_tables.len()
        ));
        return;
    }
    for (t, (bt, ft)) in base_tables.iter().zip(fresh_tables).enumerate() {
        let title = bt.get("title").and_then(Json::as_str).unwrap_or("?");
        if ft.get("title").and_then(Json::as_str) != Some(title) {
            problems.push(format!("table {t} title changed (baseline: {title:?})"));
            continue;
        }
        let base_headers = string_rows(bt.get("headers"));
        let fresh_headers = string_rows(ft.get("headers"));
        if base_headers != fresh_headers {
            problems.push(format!("table {title:?}: headers changed"));
            continue;
        }
        let base_rows = rows_of(bt);
        let fresh_rows = rows_of(ft);
        if base_rows.len() != fresh_rows.len() {
            problems.push(format!(
                "table {title:?}: row count changed ({} vs baseline {})",
                fresh_rows.len(),
                base_rows.len()
            ));
            continue;
        }
        for (r, (brow, frow)) in base_rows.iter().zip(&fresh_rows).enumerate() {
            if brow.len() != frow.len() {
                problems.push(format!(
                    "table {title:?} row {r}: cell count changed ({} vs baseline {})",
                    frow.len(),
                    brow.len()
                ));
                continue;
            }
            for (c, (bcell, fcell)) in brow.iter().zip(frow).enumerate() {
                if bcell != fcell {
                    let header = base_headers.get(c).map(String::as_str).unwrap_or("");
                    problems.push(format!(
                        "table {title:?} row {r} column {header:?}: {fcell:?} vs baseline {bcell:?}"
                    ));
                }
            }
        }
    }
}

fn string_rows(value: Option<&Json>) -> Vec<String> {
    value
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

fn rows_of(table: &Json) -> Vec<Vec<String>> {
    table
        .get("rows")
        .and_then(Json::as_array)
        .map(|rows| rows.iter().map(|row| string_rows(Some(row))).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cell: &str, timing: &str) -> Json {
        json::parse(&format!(
            r#"{{"figure":"f","tables":[{{"title":"t","headers":["app","GRASP","direct ms","speed-up"],"rows":[["PR","{cell}","{timing}","9.99x"]]}}]}}"#
        ))
        .expect("valid test doc")
    }

    fn problems(base: &Json, fresh: &Json) -> Vec<String> {
        let mut out = Vec::new();
        diff_tables(base, fresh, &mut out);
        out
    }

    #[test]
    fn identical_dumps_pass() {
        let base = doc("+7.5", "12.3");
        assert!(problems(&base, &base).is_empty());
    }

    #[test]
    fn members_beside_the_tables_are_ignored() {
        // Dumps written while `wall_ms` and host metadata were embedded
        // still diff clean against the ones written since.
        let base = json::parse(
            r#"{"figure":"f","wall_ms":1000,"hardware_threads":2,"tables":[{"title":"t","headers":["app","GRASP","direct ms","speed-up"],"rows":[["PR","+7.5","12.3","9.99x"]]}]}"#,
        )
        .expect("valid test doc");
        assert!(problems(&base, &doc("+7.5", "12.3")).is_empty());
    }

    #[test]
    fn any_result_cell_change_fails() {
        let base = doc("+7.5", "12.3");
        let fresh = doc("+7.4", "12.3");
        let found = problems(&base, &fresh);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("GRASP"), "{found:?}");
        // No column is exempt, whatever its header says.
        let found = problems(&base, &doc("+7.5", "99.9"));
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("direct ms"), "{found:?}");
    }

    #[test]
    fn truncated_rows_fail_instead_of_passing_silently() {
        let base = doc("+7.5", "12.3");
        let fresh = json::parse(
            r#"{"figure":"f","tables":[{"title":"t","headers":["app","GRASP","direct ms","speed-up"],"rows":[["PR"]]}]}"#,
        )
        .expect("valid test doc");
        let found = problems(&base, &fresh);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("cell count"), "{found:?}");
    }
}
