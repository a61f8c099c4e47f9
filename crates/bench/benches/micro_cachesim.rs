//! Micro-benchmarks for the cache simulator: raw demand-access throughput of
//! each replacement policy on `SetAssocCache` (static `PolicyDispatch`,
//! packed bitmask metadata), per access and through the run kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grasp_bench::synthetic_mixed_trace;
use grasp_cachesim::cache::SetAssocCache;
use grasp_cachesim::config::CacheConfig;
use grasp_core::policy::PolicyKind;
use std::hint::black_box;
use std::time::Instant;

const POLICIES: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Rrip,
    PolicyKind::ShipMem,
    PolicyKind::Hawkeye,
    PolicyKind::Leeway,
    PolicyKind::Pin(75),
    PolicyKind::Grasp,
];

fn bench_policies(c: &mut Criterion) {
    let config = CacheConfig::new(256 * 1024, 16, 64);
    let trace = synthetic_mixed_trace(100_000);
    let mut group = c.benchmark_group("llc_access_throughput");
    group.sample_size(10);
    for policy in POLICIES {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.label()),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut cache =
                        SetAssocCache::new("LLC", config, policy.build_dispatch(&config));
                    for info in trace {
                        black_box(cache.access(info));
                    }
                    cache.stats().misses
                });
            },
        );
    }
    group.finish();
}

/// Median time of `samples` runs of `f`.
fn median_time<F: FnMut()>(samples: usize, mut f: F) -> std::time::Duration {
    f(); // warm-up
    let mut times: Vec<_> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Per-access `access` loop vs the run kernel (`access_batch`) on the same
/// trace: the raw Macc/s gain from one inlined loop per policy — hoisted
/// policy dispatch, deferred statistics — with stats asserted bit-identical.
fn bench_batched_kernel(_c: &mut Criterion) {
    let config = CacheConfig::new(256 * 1024, 16, 64);
    let trace = synthetic_mixed_trace(100_000);
    let samples = 10;
    let batch = 4096;

    println!("per-access demand loop vs batched lookup kernel (batch = {batch} accesses):");
    println!(
        "{:<10} {:>16} {:>15} {:>9}",
        "policy", "scalar Macc/s", "batch Macc/s", "speed-up"
    );
    let mut scalar_total = std::time::Duration::ZERO;
    let mut batch_total = std::time::Duration::ZERO;
    for policy in POLICIES {
        let scalar_stats = {
            let mut cache = SetAssocCache::new("LLC", config, policy.build_dispatch(&config));
            for info in &trace {
                cache.access(info);
            }
            cache.stats().clone()
        };
        let scalar_time = median_time(samples, || {
            let mut cache = SetAssocCache::new("LLC", config, policy.build_dispatch(&config));
            for info in &trace {
                black_box(cache.access(info));
            }
            black_box(cache.stats().misses);
        });
        let batch_time = median_time(samples, || {
            let mut cache = SetAssocCache::new("LLC", config, policy.build_dispatch(&config));
            for window in trace.chunks(batch) {
                black_box(cache.access_batch(window));
            }
            assert_eq!(
                cache.stats(),
                &scalar_stats,
                "{}: batched kernel diverged from per-access loop",
                policy.label()
            );
        });
        let to_rate = |d: std::time::Duration| trace.len() as f64 / d.as_secs_f64() / 1e6;
        scalar_total += scalar_time;
        batch_total += batch_time;
        println!(
            "{:<10} {:>16.1} {:>15.1} {:>8.2}x",
            policy.label(),
            to_rate(scalar_time),
            to_rate(batch_time),
            scalar_time.as_secs_f64() / batch_time.as_secs_f64()
        );
    }
    let aggregate = scalar_total.as_secs_f64() / batch_total.as_secs_f64();
    println!("aggregate batched-kernel speed-up over per-access loop: {aggregate:.2}x");
}

criterion_group!(benches, bench_policies, bench_batched_kernel);
criterion_main!(benches);
