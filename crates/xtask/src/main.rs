//! Repository automation tasks (`cargo xtask <task>`).
//!
//! * `trace` — hygiene and CI exercise for the persistent trace store
//!   (`ls [--json]` / `verify` / `gc --max-bytes` / `exercise`; see
//!   [`trace`]).
//! * `graph` — ingest/inspect on-disk binary CSR graphs
//!   (`ingest --out` / `info` / `verify`; see [`graph`]).
//! * `serve` / `client` — the campaign service daemon and its
//!   command-line client (`grasp-serve` over a Unix socket; see
//!   [`service`]).
//!
//! The figure tables are gated without a task: a `BENCH_<figure>.json` dump
//! holds deterministic simulation tables only, so CI's bench-trajectory step
//! `cmp`s each fresh dump against the committed file byte for byte.

mod graph;
mod service;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => trace::run(&args[1..]),
        Some("graph") => graph::run(&args[1..]),
        Some("serve") => service::serve(&args[1..]),
        Some("client") => service::client(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <trace|graph|serve|client> [options]");
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
