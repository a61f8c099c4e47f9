//! `pipeline compare <a.json> <b.json>`: is run B a regression against
//! run A?
//!
//! Per (end-to-end metric, workload): `regressed` when B's median is worse
//! than A's by more than the bound `BENCHMARK.json` fixes; `unresolved`
//! when either side's own spread (IQR ÷ median of its repetitions) is wider
//! than that bound — unless every repetition of one side beats every
//! repetition of the other; `ok` otherwise. Simulated and counted metrics
//! (`sim_digest`, every `exact` per-layer metric) must match to the bit.

use crate::metrics::Better;
use grasp_core::json::{self, Json};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's repetitions of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    fn from_metric(metric: &Json) -> Option<Side> {
        let field = |key: &str| metric.get(key).and_then(Json::as_f64);
        let value = field("value")?;
        // A metric without a summary was measured once.
        Some(Side {
            min: field("min").unwrap_or(value),
            q1: field("q1").unwrap_or(value),
            median: field("median").unwrap_or(value),
            q3: field("q3").unwrap_or(value),
            max: field("max").unwrap_or(value),
        })
    }
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
pub fn worse_by(a: &Side, b: &Side, better: Better) -> f64 {
    match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    }
}

pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let disjoint = b.max < a.min || b.min > a.max;
    if a.spread().max(b.spread()) > bound && !disjoint {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// A gated end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Json::as_str);
            let better = match metric.get("better").and_then(Json::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = metric.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    better,
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {metric}")),
            }
        })
        .collect()
}

fn runs_of(doc: &Json) -> &[Json] {
    doc.get("runs")
        .and_then(Json::as_array)
        .map_or(&[], Vec::as_slice)
}

fn find_run<'a>(doc: &'a Json, workload: &str, trace: u64) -> Option<&'a Json> {
    runs_of(doc).iter().find(|run| {
        run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_u64) == Some(trace)
    })
}

/// Compares two `--out` files; prints one line per pairing. Exit code 1 on
/// any `regressed` pairing or exact mismatch, 2 on unusable input.
pub fn run(args: &[String], benchmark_path: &Path) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: pipeline compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    let loaded = load(&benchmark_path.to_string_lossy())
        .and_then(|benchmark| bounds(&benchmark))
        .and_then(|bounds| Ok((load(a_path)?, load(b_path)?, bounds)));
    let (a, b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(err) => {
            eprintln!("compare: {err}");
            return ExitCode::from(2);
        }
    };

    let mut regressed = 0;
    let mut compared = 0;
    for run_a in runs_of(&a) {
        let (Some(workload), Some(trace)) = (
            run_a.get("workload").and_then(Json::as_str),
            run_a.get("trace").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let Some(run_b) = find_run(&b, workload, trace) else {
            println!("{workload} (trace {trace}): missing from {b_path}");
            continue;
        };
        if run_a.get("sim_digest") != run_b.get("sim_digest") {
            println!("{workload:<24} {:<34} differs (exact)", "sim_digest");
            regressed += 1;
        }
        let (Some(metrics_a), Some(metrics_b)) = (
            run_a.get("metrics").and_then(Json::as_object),
            run_b.get("metrics").and_then(Json::as_object),
        ) else {
            continue;
        };
        for (name, metric_a) in metrics_a {
            let Some(metric_b) = metrics_b.get(name) else {
                continue;
            };
            if metric_a.get("exact").and_then(Json::as_bool) == Some(true) {
                let bits = |m: &Json| m.get("value").and_then(Json::as_f64).map(f64::to_bits);
                compared += 1;
                if bits(metric_a) != bits(metric_b) {
                    println!("{workload:<24} {name:<34} differs (exact)");
                    regressed += 1;
                }
                continue;
            }
            let Some(Bound { better, bound, .. }) = bounds.iter().find(|b| &b.name == name) else {
                continue;
            };
            let (Some(side_a), Some(side_b)) =
                (Side::from_metric(metric_a), Side::from_metric(metric_b))
            else {
                continue;
            };
            let verdict = judge(&side_a, &side_b, *better, *bound);
            compared += 1;
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<24} {name:<20} {:<10} a {:.6} [{:.6}, {:.6}]  b {:.6} [{:.6}, {:.6}]  {:+.1}% worse, bound {:.0}%",
                verdict.label(),
                side_a.median,
                side_a.q1,
                side_a.q3,
                side_b.median,
                side_b.q1,
                side_b.q3,
                worse_by(&side_a, &side_b, *better) * 100.0,
                bound * 100.0,
            );
        }
    }
    if compared == 0 {
        eprintln!("compare: the two files share no (workload, pass) to compare");
        return ExitCode::from(2);
    }
    if regressed > 0 {
        println!("{regressed} regressed");
        ExitCode::FAILURE
    } else {
        println!("no regression among {compared} comparisons");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            min: median * 0.99,
            q1: median * 0.995,
            median,
            q3: median * 1.005,
            max: median * 1.01,
        }
    }

    fn wide(median: f64) -> Side {
        Side {
            min: median * 0.7,
            q1: median * 0.85,
            median,
            q3: median * 1.15,
            max: median * 1.3,
        }
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        assert_eq!(
            judge(&tight(1.0), &tight(1.05), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight(1.0), &tight(0.5), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight(100.0), &tight(95.0), Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_is_regressed() {
        assert_eq!(
            judge(&tight(1.0), &tight(1.2), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(80.0), Better::Higher, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_are_disjoint() {
        assert_eq!(
            judge(&wide(1.0), &tight(1.05), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B is slower than every run of A: resolved, regressed.
        assert_eq!(
            judge(&wide(1.0), &wide(2.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Every run of B is faster than every run of A: resolved, fine.
        assert_eq!(
            judge(&wide(2.0), &wide(1.0), Better::Lower, 0.10),
            Verdict::Ok
        );
    }
}
