//! Sampler throughput: rank/unrank, the draw methods, and the resample
//! loop that turns draws into a degree of confidence.

use criterion::{criterion_group, criterion_main, Criterion};
use mps_metrics::ThroughputMetric;
use mps_sampling::{
    empirical_confidence_seeded, BalancedRandomSampling, BenchmarkStratification, ClusterSampling,
    PairData, Population, RandomSampling, Sampler, WorkloadSpace, WorkloadStratification,
};
use mps_stats::rng::Rng;
use std::hint::black_box;

fn rank_unrank(c: &mut Criterion) {
    let space = WorkloadSpace::new(22, 4);
    let n = space.population_size();
    c.bench_function("unrank_rank_4core", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let r = rng.below_u128(n);
            let w = space.unrank(r);
            black_box(space.rank(&w))
        })
    });
}

fn draws(c: &mut Criterion) {
    let pop = Population::full(22, 4);
    let mut rng = Rng::new(2);
    let d: Vec<f64> = (0..pop.len()).map(|_| rng.next_gaussian() * 0.01).collect();
    let bench_strata = BenchmarkStratification::new(
        mps_workloads::suite()
            .iter()
            .map(|b| b.nominal_class.index())
            .collect(),
    );
    let workload_strata = WorkloadStratification::with_defaults(&d);
    let balanced = BalancedRandomSampling;
    let samplers: Vec<(&str, &dyn Sampler)> = vec![
        ("random", &RandomSampling),
        ("bal_random", &balanced),
        ("bench_strata", &bench_strata),
        ("workload_strata", &workload_strata),
    ];
    let mut group = c.benchmark_group("draw_w50");
    for (name, s) in samplers {
        group.bench_function(name, |b| {
            let mut rng = Rng::new(3);
            b.iter(|| black_box(s.draw(&pop, 50, &mut rng).len()))
        });
    }
    group.finish();
}

/// One confidence cell as the study benchmark's grids run it: 300
/// resamples of 50 workloads on one thread, over the 4-core population's
/// 100-workload sample. Balanced random sampling needs a full population,
/// so it runs on the complete 2-core one (253 workloads).
fn resample(c: &mut Criterion) {
    let mut rng = Rng::new(5);
    let pop = Population::subsampled(22, 4, 100, &mut rng);
    let full_2core = Population::full(22, 2);
    let pair = |n: usize, rng: &mut Rng| {
        let t_x: Vec<f64> = (0..n).map(|_| 1.0 + 0.2 * rng.next_gaussian()).collect();
        let t_y: Vec<f64> = t_x
            .iter()
            .map(|&x| x + 0.01 + 0.02 * rng.next_gaussian())
            .collect();
        PairData::new(ThroughputMetric::IpcThroughput, t_x, t_y)
    };
    let data = pair(pop.len(), &mut rng);
    let data_2core = pair(full_2core.len(), &mut rng);
    let bench_strata = BenchmarkStratification::new(
        mps_workloads::suite()
            .iter()
            .map(|b| b.nominal_class.index())
            .collect(),
    );
    let workload_strata = WorkloadStratification::with_defaults(&data.differences());
    let cluster = ClusterSampling::from_scalar(&data.differences(), 8, &mut rng);
    let cases: Vec<(&str, &dyn Sampler, &Population, &PairData)> = vec![
        ("random", &RandomSampling, &pop, &data),
        (
            "bal_random_2core",
            &BalancedRandomSampling,
            &full_2core,
            &data_2core,
        ),
        ("bench_strata", &bench_strata, &pop, &data),
        ("workload_strata", &workload_strata, &pop, &data),
        ("cluster", &cluster, &pop, &data),
    ];
    let mut group = c.benchmark_group("resample_300_w50");
    for (name, s, pop, data) in cases {
        group.bench_function(name, |b| {
            let mut base = 0u64;
            b.iter(|| {
                base += 1;
                black_box(empirical_confidence_seeded(s, pop, data, 50, 300, base, 1))
            })
        });
    }
    group.finish();
}

fn strata_build(c: &mut Criterion) {
    let mut rng = Rng::new(4);
    let d: Vec<f64> = (0..12_650).map(|_| rng.next_gaussian() * 0.02).collect();
    c.bench_function("workload_strata_build_12650", |b| {
        b.iter(|| black_box(WorkloadStratification::with_defaults(&d).num_strata()))
    });
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = rank_unrank, draws, resample, strata_build
}
criterion_main!(benches);
