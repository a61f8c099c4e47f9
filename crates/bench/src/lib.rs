//! Regenerates the tables and figures of the GRASP (HPCA'20) evaluation.
//! `cargo bench -p grasp-bench --bench figures` runs [`regenerate`]: three
//! campaigns, every gated `BENCH_<figure>.json`. Figs. 5–9 and 10(b) are
//! one `Projection` each; Fig. 2 reads the high-skew campaign's RRIP
//! cells; Tables I and IV and Fig. 11 / Table VII are their own functions.
//! Each figure prints the paper's reference values under its table.
//! `--bench fig10a_reordering` times reordering natively and dumps nothing.

use grasp_analytics::apps::AppKind;
use grasp_analytics::props::PropertyLayout;
use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::policy::opt::optimal_misses;
use grasp_cachesim::request::RegionLabel;
use grasp_core::campaign::{Campaign, CampaignResult};
use grasp_core::compare::{arithmetic_mean, geometric_mean_speedup};
use grasp_core::compare::{miss_reduction_pct, speedup_pct};
use grasp_core::datasets::{DatasetKind, Scale};
use grasp_core::experiment::{Experiment, RunResult};
use grasp_core::policy::PolicyKind::{self, Grasp, GraspHintsOnly, GraspInsertionOnly};
use grasp_core::policy::PolicyKind::{Hawkeye, Leeway, Pin, Rrip, ShipMem};
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind::{self, Dbg, GorderDbg, HubSort, Sort};
use std::sync::Arc;

/// The schemes compared in Figs. 5 and 6 (history-based prior work and
/// GRASP), beside the RRIP baseline.
const FIG5_SCHEMES: [PolicyKind; 4] = [ShipMem, Hawkeye, Leeway, Grasp];

/// The GRASP ablation sequence of Fig. 7.
const ABLATIONS: [PolicyKind; 3] = [GraspHintsOnly, GraspInsertionOnly, Grasp];

/// Prints the standard harness banner (what runs, at which scale).
pub fn banner(what: &str, scale: Scale) {
    let (vertices, llc_kib) = (scale.vertices(), scale.llc_bytes() / 1024);
    println!("\nGRASP reproduction harness — {what}");
    println!(
        "scale: {scale:?} ({vertices} vertices per dataset, {llc_kib} KiB LLC); \
         set GRASP_SCALE=medium|large for more fidelity\n"
    );
}

/// Formats a signed percentage with one decimal.
fn pct(value: f64) -> String {
    format!("{value:+.1}")
}

/// A table of percentages: each row is two label cells and one value per
/// remaining header, and a last `GM` / `all` row holds `mean` of each value
/// column.
pub fn table_with_mean(
    title: impl Into<String>,
    headers: &[&str],
    rows: &[([&str; 2], Vec<f64>)],
    mean: fn(&[f64]) -> f64,
) -> Table {
    let mut table = Table::new(title, headers);
    let mut columns = vec![Vec::new(); headers.len() - 2];
    for (labels, values) in rows {
        for (column, &value) in columns.iter_mut().zip(values) {
            column.push(value);
        }
        let cells = labels.iter().map(|label| label.to_string());
        table.push_row(cells.chain(values.iter().map(|&v| pct(v))).collect());
    }
    let cells = ["GM", "all"].map(String::from).into_iter();
    table.push_row(cells.chain(columns.iter().map(|c| pct(mean(c)))).collect());
    table
}

/// A figure read off a campaign grid: for each (app, dataset) row and each
/// (technique, policy) column, `metric` of that cell against the RRIP cell
/// at the same (dataset, technique, app); then a row of each column's
/// `mean`.
struct Projection {
    title: &'static str,
    /// The value columns' headers, technique-major.
    headers: &'static [&'static str],
    metric: fn(&RunResult, &RunResult) -> f64,
    mean: fn(&[f64]) -> f64,
    datasets: &'static [DatasetKind],
    /// One block of rows per dataset (Fig. 9) instead of one per app.
    dataset_major: bool,
    techniques: &'static [TechniqueKind],
    policies: &'static [PolicyKind],
    paper: &'static str,
}

const FIG5: Projection = Projection {
    title: "Fig. 5 — % LLC misses eliminated vs RRIP (positive is better)",
    headers: &["SHiP-MEM", "Hawkeye", "Leeway", "GRASP"],
    metric: |rrip, run| miss_reduction_pct(rrip.llc_misses(), run.llc_misses()),
    mean: arithmetic_mean,
    datasets: &DatasetKind::HIGH_SKEW,
    dataset_major: false,
    techniques: &[Dbg],
    policies: &FIG5_SCHEMES,
    paper: "Paper averages: SHiP-MEM -4.8, Hawkeye -22.7, Leeway +1.1, GRASP +6.4 \
            (max +14.2, never negative).",
};

const FIG6: Projection = Projection {
    title: "Fig. 6 — speed-up (%) vs RRIP under the analytic timing model",
    metric: |rrip, run| speedup_pct(rrip.cycles, run.cycles),
    mean: geometric_mean_speedup,
    paper: "Paper GM: SHiP-MEM -5.5, Hawkeye -16.2, Leeway +0.9, GRASP +5.2 \
            (max +10.2, never a slowdown).",
    ..FIG5
};

const FIG7: Projection = Projection {
    title: "Fig. 7 — speed-up (%) over RRIP for GRASP's ablations",
    headers: &[
        "RRIP+Hints",
        "GRASP (Insertion-Only)",
        "GRASP (Hit-Promotion)",
    ],
    policies: &ABLATIONS,
    paper: "Paper GM: RRIP+Hints +3.3, Insertion-Only +5.0, Hit-Promotion +5.2.",
    ..FIG6
};

const FIG8: Projection = Projection {
    title: "Fig. 8 — speed-up (%) over RRIP",
    headers: &["PIN-25", "PIN-50", "PIN-75", "PIN-100", "GRASP"],
    policies: &[Pin(25), Pin(50), Pin(75), Pin(100), Grasp],
    paper: "Paper GM: PIN-25 +0.4, PIN-50 +1.1, PIN-75 +2.0, PIN-100 +2.5, GRASP +5.2; \
            GRASP beats every PIN configuration on 24 of 25 datapoints.",
    ..FIG6
};

const FIG9: Projection = Projection {
    title: "Fig. 9 — speed-up (%) over RRIP on fr (low skew) and uni (no skew)",
    headers: &["PIN-75", "PIN-100", "GRASP"],
    datasets: &DatasetKind::ADVERSARIAL,
    dataset_major: true,
    policies: &[Pin(75), Pin(100), Grasp],
    paper: "Paper: GRASP between -0.1% and +4.3%, a speed-up on 9 of 10 datapoints; \
            PIN-75/PIN-100 slow down on almost all datapoints, by up to 5.3% / 14.2%.",
    ..FIG6
};

const FIG10B: Projection = Projection {
    title: "Fig. 10b — GRASP speed-up (%) over RRIP per reordering technique",
    headers: &["over Sort", "over HubSort", "over DBG", "over Gorder(+DBG)"],
    techniques: &[Sort, HubSort, Dbg, GorderDbg],
    policies: &[Grasp],
    paper: "Paper averages: +4.4 (Sort), +4.2 (HubSort), +5.2 (DBG), +5.0 (Gorder).",
    ..FIG6
};

impl Projection {
    /// Builds the figure's table from `grid`, the campaign that ran its
    /// cells, and prints it with the paper's values.
    fn project(&self, grid: &CampaignResult) -> Vec<Table> {
        let mut rows = Vec::new();
        for app in AppKind::ALL {
            for &kind in self.datasets {
                let cell = |technique, policy| {
                    grid.get(kind, technique, app, policy)
                        .expect("the campaign runs every cell its figures read")
                };
                let columns = self
                    .techniques
                    .iter()
                    .flat_map(|&t| self.policies.iter().map(move |&p| (t, p)));
                let values = columns.map(|(t, p)| (self.metric)(cell(t, Rrip), cell(t, p)));
                rows.push(([app.label(), kind.label()], values.collect()));
            }
        }
        let mut headers = vec!["app", "dataset"];
        if self.dataset_major {
            // One block of rows per dataset, each in app order (the sort is stable).
            rows.sort_by_key(|(labels, _)| {
                self.datasets.iter().position(|d| d.label() == labels[1])
            });
            rows.iter_mut().for_each(|(labels, _)| labels.reverse());
            headers.reverse();
        }
        headers.extend(self.headers);
        let table = table_with_mean(self.title, &headers, &rows, self.mean);
        println!("{table}\n{}", self.paper);
        vec![table]
    }
}

/// The campaign that serves `figures`, which share their datasets and
/// techniques: every app, under RRIP and each policy any of them plots.
fn campaign(scale: Scale, figures: &[&Projection]) -> CampaignResult {
    let mut policies = vec![Rrip];
    for &policy in figures.iter().flat_map(|figure| figure.policies) {
        if !policies.contains(&policy) {
            policies.push(policy);
        }
    }
    Campaign::new(scale)
        .datasets(figures[0].datasets)
        .techniques(figures[0].techniques)
        .apps(&AppKind::ALL)
        .policies(&policies)
        .run()
}

/// The three campaigns the projected figures and Fig. 2 read.
struct Grids {
    scale: Scale,
    high_skew: CampaignResult,
    reordered: CampaignResult,
    adversarial: CampaignResult,
}

/// What builds — and prints — one dump's tables.
type Build = fn(&Grids) -> Vec<Table>;

/// Every gated dump in the order [`regenerate`] writes them: its name
/// (`BENCH_<name>.json`) and how its tables are built.
const FIGURES: [(&str, Build); 10] = [
    ("table1", |grids| table1(grids.scale)),
    ("table4", |grids| table4(grids.scale)),
    ("fig2", |grids| fig2(&grids.high_skew)),
    ("fig5", |grids| FIG5.project(&grids.high_skew)),
    ("fig6", |grids| FIG6.project(&grids.high_skew)),
    ("fig7", |grids| FIG7.project(&grids.high_skew)),
    ("fig8", |grids| FIG8.project(&grids.high_skew)),
    ("fig9", |grids| FIG9.project(&grids.adversarial)),
    ("fig10b", |grids| FIG10B.project(&grids.reordered)),
    ("fig11_table7", |grids| fig11_table7(grids.scale)),
];

/// The workspace root, where the committed `BENCH_*.json` dumps live.
const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Runs the three campaigns, prints every gated figure and writes each to
/// `BENCH_<name>.json` in `GRASP_BENCH_JSON_DIR` (default: the workspace
/// root, so a run rewrites the committed dumps in place). A dump is a pure
/// function of its tables, so an unchanged figure rewrites its file byte for
/// byte. Exits non-zero when a dump cannot be written.
pub fn regenerate(scale: Scale) {
    let dir = std::env::var("GRASP_BENCH_JSON_DIR").unwrap_or_else(|_| WORKSPACE_ROOT.into());
    let grids = Grids {
        scale,
        high_skew: campaign(scale, &[&FIG5, &FIG6, &FIG7, &FIG8]),
        reordered: campaign(scale, &[&FIG10B]),
        adversarial: campaign(scale, &[&FIG9]),
    };
    for (name, build) in FIGURES {
        let tables = build(&grids);
        let json = grasp_core::report::to_json(name, &tables.iter().collect::<Vec<_>>());
        let path = format!("{dir}/BENCH_{name}.json");
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        }
        println!("results written to {path}\n");
    }
}

/// Table I: the % of hot vertices (degree ≥ average) and of the edges they
/// cover, for in- and out-edges, on every dataset.
fn table1(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Table I — hot vertices and edge coverage (paper: 9-26% hot, 81-93% coverage)",
        &[
            "dataset",
            "in hot vertices (%)",
            "in edge coverage (%)",
            "out hot vertices (%)",
            "out edge coverage (%)",
        ],
    );
    for kind in DatasetKind::ALL {
        let skews = <[_; 2]>::from(kind.build(scale).skew());
        let values = skews.map(|s| [s.hot_vertices_pct(), s.edge_coverage_pct()]);
        table.push_numeric_row(kind.label(), values.as_flattened());
    }
    println!("{table}");
    println!("Paper: 9-26% hot vertices cover 81-93% of edges on the five high-skew datasets.");
    println!("(fr and uni are the adversarial low-/no-skew datasets of Fig. 9.)");
    vec![table]
}

/// Each app of `apps` on each high-skew dataset, DBG-reordered in the
/// scale's hierarchy and labelled (app, dataset): Table IV's and Fig. 11's
/// workloads, which `Campaign` cannot run. Built one at a time, as consumed.
fn high_skew_experiments(
    scale: Scale,
    apps: &[AppKind],
) -> impl Iterator<Item = ([&'static str; 2], Experiment)> + '_ {
    let graphs = DatasetKind::HIGH_SKEW.map(|kind| Arc::new(kind.build(scale).graph));
    apps.iter().flat_map(move |&app| {
        let datasets = DatasetKind::HIGH_SKEW.into_iter().zip(graphs.clone());
        datasets.map(move |(kind, graph)| {
            let experiment = Experiment::shared(graph, app)
                .with_hierarchy(scale.hierarchy())
                .with_reordering(Dbg);
            ([app.label(), kind.label()], experiment)
        })
    })
}

/// Table IV: the speed-up from merging the Property Arrays (Sec. IV-A) on
/// the apps that have several, under RRIP on the high-skew datasets.
fn table4(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Table IV — merged vs separate Property Arrays (paper: SSSP 3-8%, PR 40-52%, PRD 14-49%)",
        &[
            "app",
            "dataset",
            "separate misses",
            "merged misses",
            "speed-up (%)",
        ],
    );
    let apps = [AppKind::Sssp, AppKind::PageRank, AppKind::PageRankDelta];
    for ([app, dataset], experiment) in high_skew_experiments(scale, &apps) {
        let run_with = |layout| {
            let config = Experiment::traced_app_config(experiment.app()).with_layout(layout);
            experiment.clone().with_app_config(config).run(Rrip)
        };
        let separate = run_with(PropertyLayout::Separate);
        let merged = run_with(PropertyLayout::Merged);
        let speedup = pct(speedup_pct(separate.cycles, merged.cycles));
        let mut row = vec![app.to_owned(), dataset.to_owned()];
        row.extend([separate, merged].map(|run| run.llc_misses().to_string()));
        row.push(speedup);
        table.push_row(row);
    }
    println!("{table}");
    println!("(BC and Radii keep a single hot Property Array and have no merging opportunity.)");
    vec![table]
}

/// Fig. 2: LLC accesses and misses inside and outside the Property Array,
/// as % of LLC accesses, under RRIP on pl and tw.
fn fig2(high_skew: &CampaignResult) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 2 — % of LLC accesses (paper: property accounts for 78-94% of accesses)",
        &[
            "dataset",
            "app",
            "accesses in property (%)",
            "accesses outside (%)",
            "misses in property (%)",
            "misses outside (%)",
        ],
    );
    for kind in [DatasetKind::Pld, DatasetKind::Twitter] {
        for app in AppKind::ALL {
            let run = high_skew.get(kind, Dbg, app, Rrip).expect("an RRIP cell");
            let llc = &run.stats.llc;
            let inside = llc.region(RegionLabel::Property);
            let outside = [llc.accesses - inside.accesses, llc.misses - inside.misses];
            let counts = [inside.accesses, outside[0], inside.misses, outside[1]];
            let shares = counts.map(|n| format!("{:.1}", n as f64 / llc.accesses as f64 * 100.0));
            let labels = [kind.label(), app.label()].map(String::from);
            table.push_row(labels.into_iter().chain(shares).collect());
        }
    }
    println!("{table}");
    println!("Paper: the Property Array takes 78-94% of LLC accesses and many of its misses.");
    vec![table]
}

/// Fig. 11 and Table VII: the % of LRU's misses RRIP, GRASP and Belady's
/// OPT eliminate on each high-skew workload's recorded post-L2 stream, at
/// the scale's LLC (Fig. 11) and averaged over a sweep of LLC sizes, the
/// scaled analogue of the paper's 1–32 MB (Table VII).
///
/// Every scheme replays the **demand** stream: OPT cannot model
/// prefetches, so giving them to the online policies alone would break its
/// bound. Each replay classifies the recorded ABR bounds at its own LLC
/// size, and the online policies and OPT alike consume the trace's chunks
/// directly — no per-access vector is materialized, which is what keeps a
/// paper-scale sweep RAM-feasible.
fn fig11_table7(scale: Scale) -> Vec<Table> {
    let default_llc = scale.llc_bytes();
    let sweep = [1, 2, 4, 8, 16].map(|halves| default_llc * halves / 2);
    let sizes: Vec<u64> = sweep
        .into_iter()
        .filter(|&bytes| bytes >= 32 * 1024)
        .collect();
    // Per LLC size, one row per workload; each stream is recorded, replayed
    // at every size and dropped before the next is recorded.
    let mut rows = vec![Vec::new(); sizes.len()];
    for (labels, experiment) in high_skew_experiments(scale, &AppKind::ALL) {
        let recorded = experiment.record();
        let trace = recorded.trace();
        for (rows, &llc_bytes) in rows.iter_mut().zip(&sizes) {
            let config = CacheConfig::new(llc_bytes, 16, 64);
            let misses = |policy: PolicyKind| {
                let dispatch = policy.build_dispatch(&config);
                trace.replay_demand(config, dispatch).misses
            };
            let lru = misses(PolicyKind::Lru);
            let opt = optimal_misses(trace, &config).misses;
            let schemes = [misses(Rrip), misses(Grasp), opt];
            rows.push((labels, schemes.map(|m| miss_reduction_pct(lru, m)).to_vec()));
        }
    }
    let mut table7 = Table::new(
        "Table VII — average % misses eliminated over LRU vs LLC size",
        &["LLC size (KiB)", "RRIP", "GRASP", "OPT"],
    );
    let mut fig11 = None;
    for (rows, llc_bytes) in rows.iter().zip(sizes) {
        let kib = llc_bytes / 1024;
        let title = format!("Fig. 11 — % misses eliminated over LRU ({kib} KiB LLC)");
        let headers = ["app", "dataset", "RRIP", "GRASP", "OPT"];
        let table = table_with_mean(title, &headers, rows, arithmetic_mean);
        let mut row = vec![kib.to_string()];
        row.extend_from_slice(&table.rows().last().expect("a mean row")[2..]);
        table7.push_row(row);
        if llc_bytes == default_llc {
            fig11 = Some(table);
        }
    }
    let fig11 = fig11.expect("the sweep includes the scale's LLC");
    println!("{fig11}\nPaper (16 MB): RRIP 15.2, GRASP 19.7, OPT 34.3.");
    println!("{table7}\nPaper (1->32 MB): RRIP ~16% flat, GRASP 15.4->21.2%, OPT 27.5->34.5%.");
    vec![fig11, table7]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A synthetic LLC trace mixing a hot working set (hinted High-Reuse, every
    /// third access) with a cold miss stream (hinted Low-Reuse), the way the
    /// analytics layer would hint them: the input of the seed-parity test.
    fn synthetic_mixed_trace(len: usize) -> Vec<grasp_cachesim::AccessInfo> {
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
            trace.push(AccessInfo {
                site: 1,
                hint,
                region: RegionLabel::Property,
                ..AccessInfo::read(addr)
            });
        }
        trace
    }

    /// What the seed repository's simulator — its dyn-dispatch
    /// `SetAssocCache` under its own policy implementations, kept in this
    /// crate as a frozen copy until it was deleted — produced on
    /// `synthetic_mixed_trace(30_000)` through a 64 KiB 16-way cache: per
    /// policy, `[hits, misses, evictions, bypasses]` and the FNV-1a digest
    /// of the per-access `AccessOutcome` sequence (`[hit, evicted.is_some(),
    /// evicted_dirty, 0]` as bytes — the last byte was the seed's bypass
    /// flag, which no policy ever set — then the evicted block, or 0,
    /// little-endian). Captured from the frozen copy, never regenerated from
    /// the code under test.
    #[rustfmt::skip]
    const SEED_GOLDENS: [(PolicyKind, [u64; 4], u64); 9] = [
        (PolicyKind::Lru,                [5389, 24611, 23587, 0], 0xa7ddb1654b3f95c4),
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
            let mut fast = SetAssocCache::new(config, policy.build_dispatch(&config));
            let mut digest = Fnv64::new();
            for info in &trace {
                let outcome = fast.access(info);
                digest.update(&[
                    outcome.hit as u8,
                    outcome.evicted.is_some() as u8,
                    outcome.evicted_dirty as u8,
                    0,
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

    #[test]
    fn figure_groups_have_the_expected_members() {
        assert_eq!(FIG5_SCHEMES.len(), 4);
        assert_eq!(ABLATIONS.len(), 3);
        assert!(FIG5_SCHEMES.contains(&PolicyKind::Grasp));
    }

    #[test]
    fn every_figure_has_a_committed_dump_and_every_dump_a_figure() {
        let committed: BTreeSet<String> = std::fs::read_dir(WORKSPACE_ROOT)
            .expect("the workspace root is readable")
            .map(|entry| entry.expect("a directory entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        let driven: BTreeSet<String> = FIGURES
            .iter()
            .map(|(name, _)| format!("BENCH_{name}.json"))
            .collect();
        assert_eq!(driven, committed);
    }
}
