//! Fig. 11 and Table VII — GRASP vs Belady's optimal replacement (OPT).
//!
//! Each workload's post-L2 stream is captured once (`Experiment::record`).
//! Online policies (LRU, RRIP, GRASP) and Belady's MIN then replay the same
//! **demand** stream — OPT cannot model prefetches, so giving them only to
//! the online policies would break its lower bound — for several LLC sizes,
//! each replay classifying the Address Bound Register bounds that travel
//! with the trace at its own LLC size. The figure reports the percentage of
//! misses each scheme eliminates relative to LRU; Table VII repeats the
//! average over a sweep of LLC sizes.
//!
//! Every replay is **chunk-native**: the online policies stream the demand
//! view straight off the recorded trace's 12-byte-per-record storage
//! ([`LlcTrace::replay_demand`]), and Belady's OPT consumes the chunks
//! directly ([`optimal_misses_trace`]) — no 16-byte-per-access
//! `Vec<AccessInfo>` is ever materialized, which is what keeps the
//! paper-scale (billions of accesses) sweep RAM-feasible.
//!
//! Paper reference (16 MB LLC): RRIP eliminates 15.2%, GRASP 19.7%, OPT 34.3%
//! of LRU's misses; the gap between GRASP and OPT is the remaining headroom.

use grasp_analytics::apps::AppKind;
use grasp_bench::{banner, dataset, dump_json, experiment, harness_scale, pct};
use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::policy::opt::optimal_misses_trace;
use grasp_cachesim::trace::misses_eliminated_pct;
use grasp_core::compare::arithmetic_mean;
use grasp_core::datasets::DatasetKind;
use grasp_core::experiment::RecordedRun;
use grasp_core::policy::PolicyKind;
use grasp_core::report::Table;
use grasp_reorder::TechniqueKind;

/// One recorded workload: the chunked post-L2 trace every scheme (online and
/// OPT) replays the demand view of, with the recorded ABR bounds every
/// replay classifies from travelling inside the trace.
struct Recording {
    app: AppKind,
    dataset: DatasetKind,
    recorded: RecordedRun,
}

fn replay_all(recording: &Recording, llc_bytes: u64) -> (u64, u64, u64, u64) {
    let config = CacheConfig::new(llc_bytes, 16, 64);
    let trace = recording.recorded.trace();
    let mut misses = [0u64; 3];
    for (slot, policy) in [PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp]
        .into_iter()
        .enumerate()
    {
        misses[slot] = trace
            .replay_demand(config, policy.build_dispatch(&config))
            .misses;
    }
    let opt = optimal_misses_trace(trace, &config);
    (misses[0], misses[1], misses[2], opt.misses)
}

fn main() {
    banner("Fig. 11 / Table VII: GRASP vs Belady's OPT");
    let scale = harness_scale();

    // Record one post-L2 stream per (app, dataset) pair: each application
    // runs exactly once.
    let datasets = DatasetKind::HIGH_SKEW.map(|kind| dataset(kind, scale));
    let mut workloads: Vec<Recording> = Vec::new();
    for app in AppKind::ALL {
        for (kind, built) in DatasetKind::HIGH_SKEW.into_iter().zip(&datasets) {
            workloads.push(Recording {
                app,
                dataset: kind,
                recorded: experiment(built, app, scale, TechniqueKind::Dbg).record(),
            });
        }
    }

    // Fig. 11: per-workload miss elimination over LRU at the default LLC size.
    let default_llc = scale.llc_bytes();
    let mut fig11 = Table::new(
        format!(
            "Fig. 11 — % misses eliminated over LRU ({} KiB LLC)",
            default_llc / 1024
        ),
        &["app", "dataset", "RRIP", "GRASP", "OPT"],
    );
    let mut rrip_all = Vec::new();
    let mut grasp_all = Vec::new();
    let mut opt_all = Vec::new();
    for recording in &workloads {
        let (lru, rrip, grasp, opt) = replay_all(recording, default_llc);
        let r = misses_eliminated_pct(lru, rrip);
        let g = misses_eliminated_pct(lru, grasp);
        let o = misses_eliminated_pct(lru, opt);
        rrip_all.push(r);
        grasp_all.push(g);
        opt_all.push(o);
        fig11.push_row(vec![
            recording.app.label().to_owned(),
            recording.dataset.label().to_owned(),
            pct(r),
            pct(g),
            pct(o),
        ]);
    }
    fig11.push_row(vec![
        "GM".to_owned(),
        "all".to_owned(),
        pct(arithmetic_mean(&rrip_all)),
        pct(arithmetic_mean(&grasp_all)),
        pct(arithmetic_mean(&opt_all)),
    ]);
    println!("{fig11}");
    println!("Paper (16 MB): RRIP 15.2, GRASP 19.7, OPT 34.3.");

    // Table VII: LLC-size sweep (scaled analogue of the paper's 1–32 MB).
    let mut table7 = Table::new(
        "Table VII — average % misses eliminated over LRU vs LLC size",
        &["LLC size (KiB)", "RRIP", "GRASP", "OPT"],
    );
    for llc_bytes in [
        default_llc / 2,
        default_llc,
        default_llc * 2,
        default_llc * 4,
        default_llc * 8,
    ] {
        if llc_bytes < 32 * 1024 {
            continue;
        }
        let mut rrip_avg = Vec::new();
        let mut grasp_avg = Vec::new();
        let mut opt_avg = Vec::new();
        for recording in &workloads {
            let (lru, rrip, grasp, opt) = replay_all(recording, llc_bytes);
            rrip_avg.push(misses_eliminated_pct(lru, rrip));
            grasp_avg.push(misses_eliminated_pct(lru, grasp));
            opt_avg.push(misses_eliminated_pct(lru, opt));
        }
        table7.push_row(vec![
            (llc_bytes / 1024).to_string(),
            pct(arithmetic_mean(&rrip_avg)),
            pct(arithmetic_mean(&grasp_avg)),
            pct(arithmetic_mean(&opt_avg)),
        ]);
    }
    println!("{table7}");
    println!("Paper (1->32 MB): RRIP ~16% flat, GRASP 15.4% -> 21.2%, OPT 27.5% -> 34.5%.");
    dump_json("fig11_table7", &[&fig11, &table7]);
}
