//! Per-access cost of the cache kernel under every paper policy.
//!
//! This measures `Cache::access` itself — the tag lookup over a set's
//! valid prefix and the fill or eviction behind it — on an LLC-shaped
//! geometry. `cache_policies` compares policies at the uncore level; this
//! bench isolates the array kernel. Two legs per policy:
//!
//! * `cache_kernel/<policy>` — a warm cache and a mixed
//!   hit/miss/eviction reference stream;
//! * `cache_kernel/cold_fill/<policy>` — the regime the study runs: every
//!   simulation starts from a fresh uncore, so nearly every LLC access is
//!   a miss that fills an empty way. Each iteration builds a fresh cache
//!   and streams distinct lines into half its capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mps_uncore::{AccessType, Cache, PolicyKind};
use std::hint::black_box;

/// LLC-shaped geometry (the capacity-scaled Table II LLC: 512 sets × 16).
const SETS: usize = 512;
const WAYS: usize = 16;
/// Footprint of ~1.5× the cache so the stream mixes hits, misses,
/// evictions and dirty writebacks.
const FOOTPRINT: u64 = (SETS * WAYS) as u64 * 3 / 2;
/// Distinct lines per cold-fill iteration: half the capacity. The stream
/// is all cold misses and never evicts: the odd multiplier below maps
/// every run of `SETS` consecutive indices onto each set once, so each
/// set ends half full.
const COLD_LINES: u64 = (SETS * WAYS) as u64 / 2;

fn cache_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_kernel");
    for policy in PolicyKind::PAPER_POLICIES {
        group.bench_with_input(BenchmarkId::from_parameter(policy), &policy, |bench, &p| {
            let mut cache = Cache::new(SETS, WAYS, p);
            let mut i = 0u64;
            bench.iter(|| {
                let mut hits = 0u64;
                for _ in 0..4_096u64 {
                    // Strided walk with reuse: coprime stride covers
                    // every line of the oversized footprint.
                    let line = (i * 7) % FOOTPRINT;
                    let kind = if i.is_multiple_of(3) {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    };
                    hits += u64::from(cache.access(line, kind).is_hit());
                    i += 1;
                }
                black_box(hits)
            })
        });
    }
    for policy in PolicyKind::PAPER_POLICIES {
        let id = BenchmarkId::new("cold_fill", policy);
        group.bench_with_input(id, &policy, |bench, &p| {
            bench.iter(|| {
                let mut cache = Cache::new(SETS, WAYS, p);
                let mut misses = 0u64;
                for i in 0..COLD_LINES {
                    // An odd multiplier scatters the distinct lines over
                    // the sets, like unrelated physical addresses.
                    let line = i.wrapping_mul(0x9E37_79B9);
                    let kind = if i.is_multiple_of(3) {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    };
                    misses += u64::from(!cache.access(line, kind).is_hit());
                }
                black_box(misses)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = cache_kernel
}
criterion_main!(benches);
