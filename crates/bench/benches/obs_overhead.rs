//! Measures the cost of `mps-obs` instrumentation against an
//! uninstrumented baseline.
//!
//! Benches over the same synthetic "hot loop" (a splitmix64 mix per
//! iteration, so the loop body is not optimized away):
//!
//! * `baseline`         — the bare loop, no instrumentation calls at all;
//! * `counters`         — the loop plus two `Counter::add` calls per
//!   iteration, the density of the simulator core-step loop;
//! * `counters+span`    — the same, wrapped in one span per batch; with
//!   no sink or tap installed the span is inert, so this must track
//!   `counters`;
//! * `counters+span/tap` — the same with the span tap installed and
//!   drained each iteration, pricing a recorded span;
//! * `estimator`        — the loop plus one `Estimator::record` per
//!   iteration (a Welford moments update under a short mutex hold — the
//!   priciest primitive, priced here so convergence probes stay honest).
//!
//! With the `obs` feature off (`cargo bench --no-default-features`) all
//! legs must be indistinguishable — the calls compile to nothing. With it
//! on, `counters` stays within a few relaxed atomic operations of the
//! baseline, and `estimator` within a mutex+FP update.
//!
//! A reference snapshot of both feature configurations (MPS_BENCH_FAST,
//! dev container) lives in `benches/results/obs_overhead.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

const ITERS: u64 = 10_000;

#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");

    group.bench_function("baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(mix(i));
            }
            black_box(acc)
        })
    });

    let instructions = mps_obs::counter("bench.overhead.instructions");
    let misses = mps_obs::counter("bench.overhead.misses");

    group.bench_function("counters", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(mix(i));
                instructions.incr();
                misses.add(acc & 1);
            }
            black_box(acc)
        })
    });

    group.bench_function("counters+span", |b| {
        b.iter(|| {
            let span = mps_obs::span("bench.overhead.batch");
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(mix(i));
                instructions.incr();
                misses.add(acc & 1);
            }
            span.finish();
            black_box(acc)
        })
    });

    mps_obs::install_span_tap();
    group.bench_function("counters+span/tap", |b| {
        b.iter(|| {
            let span = mps_obs::span("bench.overhead.batch");
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(mix(i));
                instructions.incr();
                misses.add(acc & 1);
            }
            span.finish();
            black_box(mps_obs::drain_span_tap());
            black_box(acc)
        })
    });
    mps_obs::remove_span_tap();

    let spread = mps_obs::estimator("bench.overhead.spread");
    group.bench_function("estimator", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(mix(i));
                spread.record((acc & 0xFFFF) as f64);
            }
            black_box(acc)
        })
    });

    group.finish();
    println!(
        "obs feature: {}",
        if mps_obs::enabled() {
            "enabled"
        } else {
            "disabled (all legs must match)"
        }
    );
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
