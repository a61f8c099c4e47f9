//! Shared helpers for the benchmark harness.
//!
//! Every bench target (`cargo bench -p grasp-bench --bench <name>`) regenerates
//! one table or figure of the GRASP (HPCA'20) evaluation and prints it as a
//! plain-text table. The harness respects the `GRASP_SCALE` environment
//! variable (`tiny` / `small` / `medium` / `large`, default `small`) so the
//! same code can be run quickly for smoke tests or at larger scales for
//! higher-fidelity shapes.

use grasp_analytics::apps::AppKind;
use grasp_core::datasets::{Dataset, DatasetKind, Scale};
use grasp_core::experiment::Experiment;
use grasp_core::policy::PolicyKind;
use grasp_reorder::TechniqueKind;

/// The scale the harness runs at (from `GRASP_SCALE`).
pub fn harness_scale() -> Scale {
    Scale::from_env()
}

/// Builds a dataset at the harness scale.
pub fn dataset(kind: DatasetKind, scale: Scale) -> Dataset {
    kind.build(scale)
}

/// Builds the standard experiment used throughout the evaluation: the dataset
/// reordered with the given technique, the application's traced iteration
/// budget, and the hierarchy paired with the scale.
pub fn experiment(
    dataset: &Dataset,
    app: AppKind,
    scale: Scale,
    reorder: TechniqueKind,
) -> Experiment {
    Experiment::new(dataset.graph.clone(), app)
        .with_hierarchy(scale.hierarchy())
        .with_reordering(reorder)
}

/// Builds the standard figure campaign: the given datasets × applications
/// grid, DBG-reordered, with the RRIP baseline prepended to `schemes` so
/// every figure can normalize against it. Runs on all available cores;
/// results come back in deterministic grid order.
pub fn figure_campaign(
    scale: Scale,
    datasets: &[DatasetKind],
    apps: &[AppKind],
    schemes: &[PolicyKind],
) -> grasp_core::campaign::Campaign {
    let mut policies = vec![PolicyKind::Rrip];
    policies.extend(schemes.iter().copied().filter(|&p| p != PolicyKind::Rrip));
    grasp_core::campaign::Campaign::new(scale)
        .datasets(datasets)
        .apps(apps)
        .techniques(&[TechniqueKind::Dbg])
        .policies(&policies)
}

/// Runs `policy` and the RRIP baseline for one dataset/app pair and returns
/// `(baseline, candidate)`.
pub fn run_against_rrip(
    dataset: &Dataset,
    app: AppKind,
    scale: Scale,
    policy: PolicyKind,
) -> (
    grasp_core::experiment::RunResult,
    grasp_core::experiment::RunResult,
) {
    let exp = experiment(dataset, app, scale, TechniqueKind::Dbg);
    (exp.run(PolicyKind::Rrip), exp.run(policy))
}

/// A synthetic LLC trace mixing a hot working set (hinted High-Reuse, every
/// third access) with a cold miss stream (hinted Low-Reuse), the way the
/// analytics layer would hint them: the input of the seed-parity test.
pub fn synthetic_mixed_trace(len: usize) -> Vec<grasp_cachesim::AccessInfo> {
    use grasp_cachesim::hint::ReuseHint;
    use grasp_cachesim::request::RegionLabel;
    use grasp_cachesim::AccessInfo;
    let mut trace = Vec::with_capacity(len);
    let mut x = 0x12345678u64;
    for i in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (addr, hint) = if i % 3 == 0 {
            ((x >> 33) % 512 * 64, ReuseHint::High)
        } else {
            (((x >> 20) % 65_536 + 1024) * 64, ReuseHint::Low)
        };
        trace.push(
            AccessInfo::read(addr)
                .with_hint(hint)
                .with_site(1)
                .with_region(RegionLabel::Property),
        );
    }
    trace
}

/// Writes a figure's tables as machine-readable JSON to
/// `BENCH_<figure>.json` (in `GRASP_BENCH_JSON_DIR`, default the current
/// directory), so per-figure results can be tracked across PRs. A dump is a
/// pure function of the tables: regenerating a figure rewrites the committed
/// file byte for byte. Failures are reported but never abort a bench run.
pub fn dump_json(figure: &str, tables: &[&grasp_core::report::Table]) {
    let dir = std::env::var("GRASP_BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{figure}.json"));
    let json = grasp_core::report::to_json(figure, tables);
    match std::fs::write(&path, json) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

/// Prints the standard harness banner (scale, datasets, applications).
pub fn banner(what: &str) {
    let scale = harness_scale();
    println!();
    println!("GRASP reproduction harness — {what}");
    println!(
        "scale: {:?} ({} vertices per dataset, {} KiB LLC); set GRASP_SCALE=medium|large for more fidelity",
        scale,
        scale.vertices(),
        scale.llc_bytes() / 1024
    );
    println!();
}

/// Formats a signed percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{value:+.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_helper_builds_and_runs() {
        let scale = Scale::Tiny;
        let ds = dataset(DatasetKind::LiveJournal, scale);
        let (rrip, grasp) = run_against_rrip(&ds, AppKind::PageRank, scale, PolicyKind::Grasp);
        assert!(rrip.llc_accesses() > 0);
        assert!(grasp.llc_accesses() > 0);
    }

    /// What the seed repository's simulator — its dyn-dispatch
    /// `SetAssocCache` under its own policy implementations, kept in this
    /// crate as a frozen copy until it was deleted — produced on
    /// `synthetic_mixed_trace(30_000)` through a 64 KiB 16-way cache: per
    /// policy, `[hits, misses, evictions, bypasses]` and the FNV-1a digest
    /// of the per-access `AccessOutcome` sequence (`[hit, evicted.is_some(),
    /// evicted_dirty, bypassed]` as bytes, then the evicted block, or 0,
    /// little-endian). Captured from the frozen copy, never regenerated from
    /// the code under test.
    #[rustfmt::skip]
    const SEED_GOLDENS: [(PolicyKind, [u64; 4], u64); 12] = [
        (PolicyKind::Lru,                [5389, 24611, 23587, 0], 0xa7ddb1654b3f95c4),
        (PolicyKind::Random,             [4766, 25234, 24210, 0], 0xe5355e50ea2fa4e9),
        (PolicyKind::Srrip,              [8684, 21316, 20292, 0], 0x453028de87d0ebcd),
        (PolicyKind::Brrip,              [7372, 22628, 21604, 0], 0x3ce9b40e9e1f6704),
        (PolicyKind::Rrip,               [8023, 21977, 20953, 0], 0x16da2cf1e50e672b),
        (PolicyKind::ShipMem,            [9517, 20483, 19459, 0], 0x8505612b35661e08),
        (PolicyKind::Hawkeye,            [3440, 26560, 25536, 0], 0x206434ca70e30c1c),
        (PolicyKind::Leeway,             [9044, 20956, 19932, 0], 0xc6a2207d2e98a7b3),
        (PolicyKind::Pin(75),            [9659, 20341, 19317, 0], 0x1d2a2a82ba053ff8),
        (PolicyKind::GraspHintsOnly,     [9648, 20352, 19328, 0], 0xb0cab2386edad965),
        (PolicyKind::GraspInsertionOnly, [9648, 20352, 19328, 0], 0xb0cab2386edad965),
        (PolicyKind::Grasp,              [9648, 20352, 19328, 0], 0xb0cab2386edad965),
    ];

    #[test]
    fn fast_path_matches_the_frozen_seed_for_every_policy() {
        use grasp_cachesim::request::RegionLabel;
        use grasp_cachesim::stats::RegionCounters;
        use grasp_cachesim::trace::persist::Fnv64;
        use grasp_cachesim::{CacheConfig, SetAssocCache};
        let config = CacheConfig::new(64 * 1024, 16, 64);
        let trace = synthetic_mixed_trace(30_000);
        for (policy, [hits, misses, evictions, bypasses], outcomes) in SEED_GOLDENS {
            let mut fast = SetAssocCache::new("LLC", config, policy.build_dispatch(&config));
            let mut digest = Fnv64::new();
            for info in &trace {
                let outcome = fast.access(info);
                digest.update(&[
                    outcome.hit as u8,
                    outcome.evicted.is_some() as u8,
                    outcome.evicted_dirty as u8,
                    outcome.bypassed as u8,
                ]);
                digest.update(&outcome.evicted.unwrap_or(0).to_le_bytes());
            }
            assert_eq!(digest.finish(), outcomes, "{policy}: outcome diverged");
            let stats = fast.stats();
            assert_eq!(
                [stats.hits, stats.misses, stats.evictions, stats.bypasses],
                [hits, misses, evictions, bypasses],
                "{policy}: stats diverged"
            );
            assert_eq!(stats.accesses, trace.len() as u64, "{policy}");
            let property = RegionCounters {
                accesses: stats.accesses,
                misses,
            };
            assert_eq!(stats.region(RegionLabel::Property), property, "{policy}");
            let other_traffic = stats.prefetch_accesses + stats.writeback_accesses;
            assert_eq!(other_traffic, 0, "{policy}: a demand-only trace");
        }
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct(4.25), "+4.2");
        assert_eq!(pct(-3.0), "-3.0");
    }
}
