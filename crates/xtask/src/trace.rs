//! `cargo xtask trace` — hygiene and CI exercise for the persistent trace
//! store (`grasp_core::trace_store`).
//!
//! Subcommands:
//!
//! * `ls [--json]` — list entries by size, most recently used first (an
//!   entry's modification time is its last use); `--json` emits a
//!   machine-readable summary with total store bytes, the raw-equivalent
//!   bytes and the resulting compression ratio (the CI store-budget gate's
//!   input).
//! * `verify` — checksum-verify every entry; non-zero exit on any corruption.
//! * `gc --max-bytes <N[K|M|G]>` — evict least-recently-used entries until
//!   the store fits the budget; temp files a crashed writer left behind are
//!   swept too.
//! * `exercise` — the CI `trace-store` job's gate: run a small campaign grid
//!   against the store twice, assert both runs are bit-identical to a fresh
//!   record, and assert the warm pass is served from the store (one hit per
//!   stream, no re-records).
//!
//! The store directory comes from `--store <dir>`.

use grasp_analytics::apps::AppKind;
use grasp_core::campaign::{Campaign, CampaignResult};
use grasp_core::datasets::{DatasetKind, Scale};
use grasp_core::policy::PolicyKind;
use grasp_core::trace_store::{EntryInfo, StoreEntry, TraceStore, TRACE_FORMAT_VERSION};
use std::process::ExitCode;
use std::sync::Arc;

pub fn usage() -> &'static str {
    "usage: cargo xtask trace <ls|verify|gc|exercise> --store <dir>\n\
     \u{20}                      [--max-bytes <N[K|M|G]>] [--json]\n\
     \n\
     ls          list store entries, most recently used first (--json for the\n\
     \u{20}            machine-readable summary incl. compression ratio)\n\
     verify      checksum-verify every entry (exit 1 on corruption)\n\
     gc          evict LRU entries until the store fits --max-bytes\n\
     exercise    record a small grid, reload it, assert bit-identical stats"
}

/// Parsed `trace` invocation (kept separate from execution for testing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArgs {
    pub command: String,
    pub store: Option<String>,
    pub max_bytes: Option<u64>,
    pub json: bool,
}

/// Parses `<subcommand> [--store dir] [--max-bytes N] [--json]`.
pub fn parse_args(args: &[String]) -> Result<TraceArgs, String> {
    let mut iter = args.iter();
    let command = iter
        .next()
        .ok_or_else(|| "missing subcommand (ls, verify, gc, exercise)".to_owned())?
        .clone();
    let mut parsed = TraceArgs {
        command,
        store: None,
        max_bytes: None,
        json: false,
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--store" => {
                parsed.store = Some(
                    iter.next()
                        .ok_or_else(|| "--store needs a directory argument".to_owned())?
                        .clone(),
                );
            }
            "--max-bytes" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| "--max-bytes needs a size argument".to_owned())?;
                parsed.max_bytes = Some(parse_size(raw)?);
            }
            "--json" => parsed.json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Parses a byte size with an optional K/M/G suffix (powers of 1024).
pub fn parse_size(raw: &str) -> Result<u64, String> {
    let raw = raw.trim();
    let (digits, multiplier) = match raw.chars().last() {
        Some('K') | Some('k') => (&raw[..raw.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&raw[..raw.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&raw[..raw.len() - 1], 1u64 << 30),
        _ => (raw, 1),
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("invalid size {raw:?} (expected e.g. 1048576, 512K, 64M, 1G)"))?;
    value
        .checked_mul(multiplier)
        .ok_or_else(|| format!("size {raw:?} overflows"))
}

/// Formats a byte count for humans (binary units, one decimal).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

fn open_store(arg: &Option<String>) -> Result<TraceStore, String> {
    let dir = arg
        .as_ref()
        .ok_or_else(|| "no store directory: pass --store <dir>".to_owned())?;
    TraceStore::open(dir).map_err(|err| format!("cannot open trace store {dir}: {err}"))
}

pub fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("trace: {err}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let store = match open_store(&parsed.store) {
        Ok(store) => store,
        Err(err) => {
            eprintln!("trace: {err}");
            return ExitCode::from(2);
        }
    };
    match parsed.command.as_str() {
        "ls" => ls(&store, parsed.json),
        "verify" => verify(&store),
        "gc" => match parsed.max_bytes {
            Some(max_bytes) => gc(&store, max_bytes),
            None => {
                eprintln!("trace gc: --max-bytes is required");
                ExitCode::from(2)
            }
        },
        "exercise" => exercise(store),
        other => {
            eprintln!("trace: unknown subcommand {other}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

/// JSON string escaping for file names and paths (names are ASCII slugs,
/// paths may hold anything); delegates to the workspace's one escaping
/// implementation in `grasp_core::json`.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    grasp_core::json::escape_into(&mut out, raw);
    out
}

/// The store summary `ls` prints and the CI gate parses: per-entry stats
/// plus totals and the raw-equivalent compression ratio.
struct StoreSummary {
    rows: Vec<(StoreEntry, Option<EntryInfo>)>,
    total_bytes: u64,
    /// Raw-equivalent bytes of every entry whose headers parsed.
    raw_bytes: u64,
    /// Actual bytes of those same entries (the ratio's denominator).
    described_bytes: u64,
}

impl StoreSummary {
    fn collect(store: &TraceStore) -> std::io::Result<StoreSummary> {
        let entries = store.entries()?;
        let mut summary = StoreSummary {
            rows: Vec::with_capacity(entries.len()),
            total_bytes: 0,
            raw_bytes: 0,
            described_bytes: 0,
        };
        for entry in entries {
            let info = store.peek(&entry.file).ok();
            summary.total_bytes += entry.bytes;
            if let Some(info) = &info {
                summary.raw_bytes += info.raw_bytes;
                summary.described_bytes += entry.bytes;
            }
            summary.rows.push((entry, info));
        }
        Ok(summary)
    }

    /// Raw-equivalent size over actual size (1.0 for an empty store): how
    /// many times smaller the store is than the same corpus at the
    /// 12 B/record its columns occupy in memory.
    fn compression_ratio(&self) -> f64 {
        if self.described_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.described_bytes as f64
        }
    }
}

fn ls(store: &TraceStore, json: bool) -> ExitCode {
    let summary = match StoreSummary::collect(store) {
        Ok(summary) => summary,
        Err(err) => {
            eprintln!("trace ls: cannot read {}: {err}", store.dir().display());
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", ls_json(store, &summary));
        return ExitCode::SUCCESS;
    }
    for (entry, _) in &summary.rows {
        println!("{:>10}  {}", human_bytes(entry.bytes), entry.file);
    }
    println!(
        "{} entr{} in {} ({}; raw-equivalent {}, {:.2}x compression)",
        summary.rows.len(),
        if summary.rows.len() == 1 { "y" } else { "ies" },
        store.dir().display(),
        human_bytes(summary.total_bytes),
        human_bytes(summary.raw_bytes),
        summary.compression_ratio()
    );
    ExitCode::SUCCESS
}

/// The `ls --json` document (see the module docs).
fn ls_json(store: &TraceStore, summary: &StoreSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"store\":\"{}\",\"entries\":[",
        json_escape(&store.dir().display().to_string())
    ));
    for (i, (entry, info)) in summary.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"bytes\":{}",
            json_escape(&entry.file),
            entry.bytes
        ));
        // An entry whose headers parse is in the one format there is
        // (`peek` refuses every other): its version is a constant.
        match info {
            Some(info) => out.push_str(&format!(
                ",\"trace_version\":{TRACE_FORMAT_VERSION},\"records\":{},\"raw_bytes\":{}}}",
                info.records, info.raw_bytes
            )),
            None => out.push('}'),
        }
    }
    out.push_str(&format!(
        "],\"total_bytes\":{},\"raw_bytes\":{},\"compression_ratio\":{:.3}}}",
        summary.total_bytes,
        summary.raw_bytes,
        summary.compression_ratio()
    ));
    out
}

fn verify(store: &TraceStore) -> ExitCode {
    let report = match store.verify() {
        Ok(report) => report,
        Err(err) => {
            eprintln!("trace verify: cannot read {}: {err}", store.dir().display());
            return ExitCode::FAILURE;
        }
    };
    let mut bad = 0usize;
    for (file, outcome) in &report {
        match outcome {
            Ok(()) => println!("OK    {file}"),
            Err(err) => {
                bad += 1;
                eprintln!("BAD   {file}: {err}");
            }
        }
    }
    if bad == 0 {
        println!(
            "{} entr{} verified",
            report.len(),
            if report.len() == 1 { "y" } else { "ies" }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{bad} of {} entr{} failed verification",
            report.len(),
            if report.len() == 1 { "y" } else { "ies" }
        );
        ExitCode::FAILURE
    }
}

fn gc(store: &TraceStore, max_bytes: u64) -> ExitCode {
    match store.gc(max_bytes) {
        Ok(report) => {
            for file in &report.evicted {
                println!("evicted {file}");
            }
            println!(
                "gc: {} of {} entr{} evicted, {} freed, {} kept (budget {})",
                report.evicted.len(),
                report.examined,
                if report.examined == 1 { "y" } else { "ies" },
                human_bytes(report.freed_bytes),
                human_bytes(report.kept_bytes),
                human_bytes(max_bytes)
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("trace gc: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The grid the CI exercise records: one dataset, two applications, the full
/// policy roster of the evaluation — two unique streams, 20 cells, Tiny
/// scale so the cold pass stays fast on shared runners.
const EXERCISE_GRID: [PolicyKind; 10] = [
    PolicyKind::Lru,
    PolicyKind::Rrip,
    PolicyKind::ShipMem,
    PolicyKind::Hawkeye,
    PolicyKind::Leeway,
    PolicyKind::Pin(50),
    PolicyKind::Pin(100),
    PolicyKind::GraspHintsOnly,
    PolicyKind::GraspInsertionOnly,
    PolicyKind::Grasp,
];

fn exercise_campaign() -> Campaign {
    Campaign::new(Scale::Tiny)
        .datasets(&[DatasetKind::Twitter])
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&EXERCISE_GRID)
}

fn diff_results(fresh: &CampaignResult, candidate: &CampaignResult, what: &str) -> usize {
    if fresh.len() != candidate.len() {
        eprintln!(
            "{what}: {} cells vs {} in the fresh record",
            candidate.len(),
            fresh.len()
        );
        return 1;
    }
    let mut mismatches = 0usize;
    for (a, b) in fresh.iter().zip(candidate.iter()) {
        if a.cell != b.cell
            || a.result.stats != b.result.stats
            || a.result.app.values != b.result.app.values
            || (a.result.cycles - b.result.cycles).abs() >= 1e-9
        {
            mismatches += 1;
            eprintln!(
                "{what}: {}/{}/{} diverged from the fresh record",
                a.cell.dataset, a.cell.app, a.cell.policy
            );
        }
    }
    mismatches
}

/// The CI gate: a store-served campaign must be bit-identical to a fresh
/// record, and the warm pass must actually skip the record phase.
fn exercise(store: TraceStore) -> ExitCode {
    let store = Arc::new(store);
    let streams = 2u64; // datasets × apps of the exercise grid

    println!("trace exercise: fresh record (no store) ...");
    let fresh = exercise_campaign().run();

    println!(
        "trace exercise: pass 1 against {} (populates on a cold cache) ...",
        store.dir().display()
    );
    let first = exercise_campaign()
        .with_trace_store(Arc::clone(&store))
        .run();
    let after_first = store.stats();
    println!("trace exercise: store after pass 1: {after_first}");

    println!("trace exercise: pass 2 (must be served by the store) ...");
    let second = exercise_campaign()
        .with_trace_store(Arc::clone(&store))
        .run();

    let stats = store.stats();
    println!("trace exercise: store after both passes: {stats}");

    let mut failures = diff_results(&fresh, &first, "pass 1");
    failures += diff_results(&fresh, &second, "pass 2");

    // Pass 2 must hit every stream; only pass 1 may record (and only on a
    // cold cache — on a warm actions/cache even pass 1 is pure hits, which
    // is the record-skip CI asserts every push).
    if stats.hits < streams {
        eprintln!(
            "trace exercise: expected at least {streams} store hits, got {} — \
             the record phase was not skipped",
            stats.hits
        );
        failures += 1;
    }
    if stats.misses > streams {
        eprintln!(
            "trace exercise: {} misses for {streams} unique streams — the warm pass re-recorded",
            stats.misses
        );
        failures += 1;
    }
    if stats.corrupt > 0 {
        eprintln!(
            "trace exercise: {} corrupt entr(ies) encountered",
            stats.corrupt
        );
        failures += 1;
    }

    if failures == 0 {
        println!(
            "trace exercise OK: {} cells x 2 store-served passes bit-identical to the fresh \
             record, {} hit(s), record phase skipped on the warm pass",
            fresh.len(),
            stats.hits
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("trace exercise FAILED ({failures} problem(s))");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_size_accepts_suffixes() {
        assert_eq!(parse_size("1024"), Ok(1024));
        assert_eq!(parse_size("512K"), Ok(512 << 10));
        assert_eq!(parse_size("64M"), Ok(64 << 20));
        assert_eq!(parse_size("2g"), Ok(2 << 30));
        assert!(parse_size("nope").is_err());
        assert!(parse_size("").is_err());
        assert!(parse_size("99999999999999999999G").is_err());
    }

    #[test]
    fn parse_args_extracts_flags() {
        let parsed = parse_args(&args(&["gc", "--store", "/tmp/s", "--max-bytes", "64M"]))
            .expect("valid args");
        assert_eq!(parsed.command, "gc");
        assert_eq!(parsed.store.as_deref(), Some("/tmp/s"));
        assert_eq!(parsed.max_bytes, Some(64 << 20));
        assert!(!parsed.json);

        let parsed = parse_args(&args(&["ls"])).expect("bare subcommand");
        assert_eq!(parsed.command, "ls");
        assert_eq!(parsed.store, None);
        assert_eq!(parsed.max_bytes, None);

        let parsed = parse_args(&args(&["ls", "--json"])).expect("json flag");
        assert!(parsed.json);
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["ls", "--store"])).is_err());
        assert!(parse_args(&args(&["gc", "--max-bytes"])).is_err());
        assert!(parse_args(&args(&["ls", "--what"])).is_err());
        assert!(parse_args(&args(&["gc", "--codec", "raw"])).is_err());
    }

    #[test]
    fn json_escaping_covers_the_awkward_characters() {
        assert_eq!(json_escape("plain-name.v2.trace"), "plain-name.v2.trace");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(17), "17 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
        assert_eq!(human_bytes(5 << 30), "5.0 GiB");
    }

    #[test]
    fn ls_verify_gc_run_against_a_real_store() {
        // Plumbing smoke test: an empty store lists (text and JSON),
        // verifies and gcs cleanly through the command functions, and the
        // JSON summary of an empty store reports a neutral 1.0 ratio.
        let dir =
            std::env::temp_dir().join(format!("grasp-xtask-trace-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
        assert_eq!(ls(&store, false), ExitCode::SUCCESS);
        assert_eq!(ls(&store, true), ExitCode::SUCCESS);
        assert_eq!(verify(&store), ExitCode::SUCCESS);
        assert_eq!(gc(&store, 0), ExitCode::SUCCESS);
        let summary = StoreSummary::collect(&store).expect("summary");
        assert_eq!(summary.total_bytes, 0);
        assert!((summary.compression_ratio() - 1.0).abs() < 1e-12);
        // A published entry is listed with the format version it is in.
        Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Lru])
            .with_trace_store(Arc::clone(&store))
            .run();
        let summary = StoreSummary::collect(&store).expect("summary");
        assert_eq!(summary.rows.len(), 1);
        let json = ls_json(&store, &summary);
        let version = format!("\"trace_version\":{TRACE_FORMAT_VERSION},");
        assert!(json.contains(&version), "{json}");
        assert_eq!(verify(&store), ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatch_detection_counts_divergent_cells() {
        // diff_results is the exercise gate's core; a result set must always
        // be identical to itself.
        let results = Campaign::new(Scale::Tiny)
            .datasets(&[DatasetKind::Twitter])
            .apps(&[AppKind::PageRank])
            .policies(&[PolicyKind::Lru])
            .run();
        assert_eq!(diff_results(&results, &results, "self"), 0);
    }
}
