//! `cargo xtask graph` — ingest and inspect on-disk binary CSR graphs
//! (`grasp_graph::ingest`).
//!
//! Subcommands:
//!
//! * `ingest <edge-list> --out <dir> [--threads <N>]` — parse a text edge
//!   list (`src dst [weight]` per line, whatever the file's extension),
//!   build the CSR in parallel and write the checksummed `.gcsr` directory. Prints
//!   how long it took (wall seconds, edges per second), the content hash
//!   and the ingest-time skew statistics; the hash is what
//!   a campaign registers in its `DatasetCatalog` and what shows up in
//!   trace-store entry file names (`g<hash:016x>-…`).
//! * `info <dir>` — decode the header (validating its checksum) and print
//!   the graph's dimensions, weight encoding and skew statistics.
//! * `verify <dir>` — re-checksum the header and every column file and
//!   validate CSR structure; non-zero exit on any corruption.
//!
//! Thread count defaults to the available parallelism (capped at 8). A
//! `--threads` above eight per available core parses on one thread per core.

use grasp_graph::ingest::{self, default_ingest_threads, GraphStats, IngestReport};
use std::path::PathBuf;
use std::process::ExitCode;

pub fn usage() -> &'static str {
    "usage: cargo xtask graph <ingest|info|verify> [options]\n\
     \n\
     ingest <edge-list> --out <dir> [--threads <N>]\n\
     \u{20}            build an on-disk binary CSR from a text edge list\n\
     info <dir>   print a binary CSR directory's header (dims, hash, skew)\n\
     verify <dir> checksum-verify the header, every column and the CSR shape"
}

/// Parsed `graph` invocation (kept separate from execution for testing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphArgs {
    pub command: String,
    pub input: PathBuf,
    pub out: Option<PathBuf>,
    pub threads: Option<usize>,
}

/// Parses `<subcommand> <path> [--out dir] [--threads N]`.
pub fn parse_args(args: &[String]) -> Result<GraphArgs, String> {
    let mut iter = args.iter();
    let command = iter
        .next()
        .ok_or_else(|| "missing graph subcommand".to_owned())?
        .clone();
    if !matches!(command.as_str(), "ingest" | "info" | "verify") {
        return Err(format!("unknown graph subcommand '{command}'"));
    }
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                let value = iter.next().ok_or_else(|| "--out needs a path".to_owned())?;
                out = Some(PathBuf::from(value));
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--threads needs a count".to_owned())?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --threads '{value}'"))?;
                threads = Some(n.max(1));
            }
            other if !other.starts_with("--") && input.is_none() => {
                input = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let input = input.ok_or_else(|| format!("graph {command} needs a path argument"))?;
    if command == "ingest" && out.is_none() {
        return Err("graph ingest needs --out <dir>".to_owned());
    }
    Ok(GraphArgs {
        command,
        input,
        out,
        threads,
    })
}

pub fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match parsed.command.as_str() {
        "ingest" => run_ingest(&parsed),
        "info" => run_info(&parsed),
        "verify" => run_verify(&parsed),
        _ => unreachable!("parse_args rejects unknown subcommands"),
    }
}

fn run_ingest(args: &GraphArgs) -> ExitCode {
    let out = args.out.as_ref().expect("parse_args enforces --out");
    let threads = args.threads.unwrap_or_else(default_ingest_threads);
    let started = std::time::Instant::now();
    match ingest::ingest_file(&args.input, out, threads) {
        Ok(report) => {
            print_report(&report, threads, started.elapsed().as_secs_f64());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("graph ingest failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_info(args: &GraphArgs) -> ExitCode {
    match ingest::read_header(&args.input) {
        Ok(header) => {
            println!("binary CSR {}", args.input.display());
            println!("  format version  v{}", header.version);
            println!("  vertices        {}", header.vertex_count);
            println!("  edges           {}", header.edge_count);
            println!("  content hash    g{:016x}", header.content_hash);
            match header.uniform_weight {
                Some(w) => println!("  weights         uniform ({w}, columns omitted)"),
                None => println!("  weights         explicit columns"),
            }
            print_stats(&header.stats);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("graph info failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_verify(args: &GraphArgs) -> ExitCode {
    match ingest::verify_disk_csr(&args.input) {
        Ok(header) => {
            println!(
                "ok: {} ({} vertices, {} edges, hash g{:016x})",
                args.input.display(),
                header.vertex_count,
                header.edge_count,
                header.content_hash
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("graph verify failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn print_report(report: &IngestReport, threads: usize, wall_s: f64) {
    println!("ingested {} ({threads} threads)", report.path.display());
    println!(
        "  wall            {wall_s:.4} s ({:.3} M edges/s: read, parse, build, write)",
        report.edge_count as f64 / wall_s / 1e6
    );
    println!("  vertices        {}", report.vertex_count);
    println!("  edges           {}", report.edge_count);
    println!("  content hash    g{:016x}", report.content_hash);
    match report.uniform_weight {
        Some(w) => println!("  weights         uniform ({w}, columns omitted)"),
        None => println!("  weights         explicit columns"),
    }
    println!("  bytes written   {}", report.bytes_written);
    print_stats(&report.stats);
}

fn print_stats(stats: &GraphStats) {
    println!("  max out-degree  {}", stats.max_out_degree);
    println!("  max in-degree   {}", stats.max_in_degree);
    println!("  mean degree     {:.2}", stats.mean_degree);
    println!("  degree gini     {:.3}", stats.gini);
    println!(
        "  hot-10% mass    {:.1}% of out-edges",
        stats.hot10_edge_fraction * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_ingest_with_options() {
        let parsed = parse_args(&strings(&[
            "ingest",
            "edges.txt",
            "--out",
            "g.gcsr",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(parsed.command, "ingest");
        assert_eq!(parsed.input, PathBuf::from("edges.txt"));
        assert_eq!(parsed.out, Some(PathBuf::from("g.gcsr")));
        assert_eq!(parsed.threads, Some(4));
    }

    #[test]
    fn ingest_requires_out() {
        let err = parse_args(&strings(&["ingest", "edges.txt"])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn info_and_verify_take_a_path() {
        for cmd in ["info", "verify"] {
            let parsed = parse_args(&strings(&[cmd, "g.gcsr"])).unwrap();
            assert_eq!(parsed.command, cmd);
            assert_eq!(parsed.input, PathBuf::from("g.gcsr"));
            assert!(parse_args(&strings(&[cmd])).is_err());
        }
    }

    #[test]
    fn rejects_unknown_subcommand_and_stray_flags() {
        assert!(parse_args(&strings(&["frobnicate", "x"])).is_err());
        assert!(parse_args(&strings(&["info", "a", "--bogus"])).is_err());
        assert!(parse_args(&strings(&["ingest", "a", "--threads", "x"])).is_err());
    }

    #[test]
    fn threads_clamp_to_at_least_one() {
        let parsed =
            parse_args(&strings(&["ingest", "e", "--out", "o", "--threads", "0"])).unwrap();
        assert_eq!(parsed.threads, Some(1));
    }

    #[test]
    fn end_to_end_ingest_info_verify() {
        let dir = std::env::temp_dir().join(format!(
            "grasp-xtask-graph-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("edges.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 0\n2 3\n").unwrap();
        let out = dir.join("g.gcsr");
        let code = run(&strings(&[
            "ingest",
            edges.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--threads",
            "2",
        ]));
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(
            run(&strings(&["info", out.to_str().unwrap()])),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&strings(&["verify", out.to_str().unwrap()])),
            ExitCode::SUCCESS
        );
        // Corrupt a column: verify must fail.
        let col = out.join("out.targets");
        let mut bytes = std::fs::read(&col).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&col, bytes).unwrap();
        assert_eq!(
            run(&strings(&["verify", out.to_str().unwrap()])),
            ExitCode::FAILURE
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
