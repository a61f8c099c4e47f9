//! Micro-benchmarks for the cache simulator: raw demand-access throughput of
//! each replacement policy on `SetAssocCache` (static `PolicyDispatch`,
//! packed bitmask metadata), one access at a time. `micro_replay`'s
//! `feed` / `feed_scalar` table is the run kernel against this path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grasp_bench::synthetic_mixed_trace;
use grasp_cachesim::cache::SetAssocCache;
use grasp_cachesim::config::CacheConfig;
use grasp_core::policy::PolicyKind;
use std::hint::black_box;

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

criterion_group!(benches, bench_policies);
criterion_main!(benches);
