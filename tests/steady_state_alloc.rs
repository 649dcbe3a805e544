//! Allocation-free steady-state checks for the hot kernels.
//!
//! The hot loops — synthetic µop generation, SoA cursor replay, the
//! cache kernel, the detailed simulator's tick loop and the resample loop
//! behind every confidence figure — preallocate everything up front; any
//! per-µop, per-access, per-cycle or per-draw heap allocation is a
//! performance regression that no correctness test would catch. This
//! binary installs the counting allocator from `mps_obs::alloc` and pins
//! the property. The first three kernel checks are `debug_assert`-based
//! and require the `obs` feature; in release or `--no-default-features`
//! runs they execute the kernels but assert nothing. The tick-loop and
//! resample checks compare two counts, so they also hold in release
//! builds; without `obs` both counts are zero.

use mps_harness::runner::experiment_uncore;
use mps_metrics::ThroughputMetric;
use mps_obs::alloc::{assert_alloc_free, count_allocations, CountingAllocator};
use mps_sampling::{
    empirical_confidence_seeded, BalancedRandomSampling, BenchmarkStratification, ClusterSampling,
    PairData, Population, RandomSampling, Sampler, WorkloadStratification,
};
use mps_sim_cpu::{Core, CoreConfig, UncoreBackend};
use mps_stats::rng::Rng;
use mps_uncore::{AccessType, Cache, PolicyKind, Uncore};
use mps_workloads::{benchmark_by_name, TraceBuffer, TraceSource};
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::system();

/// The allocation counter is process-global, but libtest runs the tests
/// in this binary on concurrent threads — another test's construction
/// phase allocating inside this test's counted region is a spurious
/// failure. Each test holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// [`assert_alloc_free`] with tolerance for harness noise the lock above
/// cannot exclude: libtest's own threads (spawning, output capture,
/// timers) may allocate concurrently with a counted window. The kernels
/// are deterministic, so a genuinely regressed kernel allocates in
/// *every* window; a clean kernel gets a quiet window within a few
/// tries, and only the final attempt asserts.
fn assert_alloc_free_settled<R>(what: &str, mut f: impl FnMut() -> R) -> R {
    for _ in 0..3 {
        let (r, n) = count_allocations(&mut f);
        if n == 0 {
            return r;
        }
    }
    assert_alloc_free(what, f)
}

/// Asserts that `count` reports as many allocations at size `large` as
/// at size `small`: set-up may allocate, anything that grows with the
/// size may not. As in [`assert_alloc_free_settled`], a noisy window is
/// retried.
fn assert_allocations_flat(what: &str, small: u64, large: u64, mut count: impl FnMut(u64) -> u64) {
    let (mut a, mut b) = (count(small), count(large));
    for _ in 0..3 {
        if a == b {
            return;
        }
        (a, b) = (count(small), count(large));
    }
    assert_eq!(
        a, b,
        "{what}: {small} made {a} allocations, {large} made {b}"
    );
}

#[test]
fn synthetic_generation_is_alloc_free() {
    let _guard = SERIAL.lock().unwrap();
    let bench = benchmark_by_name("gcc").unwrap();
    let mut trace = bench.trace();
    // Warm up: lazily-built state (none expected) settles here.
    for _ in 0..1_000 {
        let _ = trace.next_uop();
    }
    assert_alloc_free_settled("synthetic µop generation", || {
        let mut sum = 0u64;
        for _ in 0..10_000 {
            sum = sum.wrapping_add(trace.next_uop().addr);
        }
        sum
    });
}

#[test]
fn cursor_replay_is_alloc_free() {
    let _guard = SERIAL.lock().unwrap();
    let bench = benchmark_by_name("soplex").unwrap();
    let buf = Arc::new(TraceBuffer::capture(&mut bench.trace(), 2_000));
    let mut cursor = buf.cursor();
    assert_alloc_free_settled("SoA cursor replay", || {
        let mut sum = 0u64;
        for _ in 0..10_000 {
            sum = sum.wrapping_add(cursor.next_uop().pc);
        }
        sum
    });
}

#[test]
fn cache_kernel_is_alloc_free() {
    let _guard = SERIAL.lock().unwrap();
    for policy in PolicyKind::PAPER_POLICIES {
        let mut cache = Cache::new(64, 8, policy);
        assert_alloc_free_settled("cache access kernel", || {
            let mut hits = 0u64;
            for i in 0..50_000u64 {
                // Mixed reuse + streaming so hits, misses, evictions and
                // writebacks all exercise the packed-metadata paths.
                let line = (i * 7) % 1_024;
                let write = i % 3 == 0;
                let kind = if write {
                    AccessType::Write
                } else {
                    AccessType::Read
                };
                if cache.access(line, kind).is_hit() {
                    hits += 1;
                }
            }
            hits
        });
    }
}

#[test]
fn detailed_tick_loop_does_not_allocate_per_cycle() {
    let _guard = SERIAL.lock().unwrap();
    for policy in [PolicyKind::Lru, PolicyKind::Drrip] {
        for names in [["cactusADM", "mcf"], ["gcc", "mcf"]] {
            // Ticks every core on every cycle, as `MulticoreSim::run`
            // would without its clock skip, and counts only the loop.
            // `run` itself is not counted: its obs span allocates per
            // distinct counter the run moved, and a longer run moves more
            // (gcc+mcf starts merging MSHRs between 4000 and 8000).
            let run = |n: u64| {
                // The experiments' capacity-scaled LLC evicts dirty lines
                // within these lengths, so the write buffer fills.
                let mut uncore = UncoreBackend(Uncore::new(experiment_uncore(2, policy), 2));
                let mut cores: Vec<Core> = names
                    .iter()
                    .enumerate()
                    .map(|(id, b)| {
                        let trace = Box::new(benchmark_by_name(b).unwrap().trace());
                        Core::new(CoreConfig::ispass2013(), id, trace, n)
                    })
                    .collect();
                count_allocations(|| {
                    let mut cycle = 0;
                    while !cores.iter().all(Core::done) {
                        for core in &mut cores {
                            core.tick(cycle, &mut uncore);
                        }
                        cycle += 1;
                    }
                })
                .1
            };
            let what = format!("{policy} {names:?}, instructions per thread");
            assert_allocations_flat(&what, 2_000, 8_000, run);
        }
    }
}

#[test]
fn resampling_does_not_allocate_per_draw() {
    let _guard = SERIAL.lock().unwrap();
    let pop = Population::full(10, 3); // 220 workloads
    let n = pop.len();
    let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 0.05).collect();
    let t_x: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.1 * (i as f64 * 0.91).cos())
        .collect();
    let t_y: Vec<f64> = t_x.iter().zip(&d).map(|(x, d)| x + d).collect();
    let data = PairData::new(ThroughputMetric::IpcThroughput, t_x, t_y);
    let samplers: Vec<(&str, Box<dyn Sampler>)> = vec![
        ("random", Box::new(RandomSampling)),
        ("bal-random", Box::new(BalancedRandomSampling)),
        (
            "bench-strata",
            Box::new(BenchmarkStratification::new(vec![
                0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
            ])),
        ),
        (
            "workload-strata",
            Box::new(WorkloadStratification::build(&d, 0.004, 10)),
        ),
        (
            "cluster",
            Box::new(ClusterSampling::from_scalar(&d, 6, &mut Rng::new(1))),
        ),
    ];
    // The second size draws with replacement inside every stratum.
    for (name, sampler) in &samplers {
        for w in [20, n + 10] {
            let run = |samples: u64| {
                count_allocations(|| {
                    let samples = samples as usize;
                    empirical_confidence_seeded(sampler.as_ref(), &pop, &data, w, samples, 7, 1)
                })
                .1
            };
            // Registers the obs counters and span names once.
            run(10);
            // Per-call set-up (the plan, the verdict vector, the first
            // draw's buffers) is allowed; anything per draw is not.
            assert_allocations_flat(&format!("{name} w={w}, resamples"), 100, 1_000, run);
        }
    }
}
