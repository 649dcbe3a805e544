//! Table III analog: detailed-simulator vs BADCO simulation speed.
//!
//! Criterion reports time per simulated workload; instructions/second (the
//! paper's MIPS) is `trace_len × cores / time`. The `mps-harness table3`
//! binary prints the full Table III; this bench tracks regressions.
//!
//! `sweep16_2core` is the kernel floor for event-horizon skipping: 16
//! two-core combinations from the **stall-dominated region** of the study
//! grid, CPI-matched self-pairs of the suite's two most memory-bound
//! benchmarks (mcf at ~51 cycles/µop solo, astar at ~24), each one
//! `MulticoreSim::run` call over shared memoized `TraceBuffer`s. The long
//! memory-stall gaps between µop events become single clock jumps there,
//! so the skip's win scales with stall share. Pairs must be CPI-matched:
//! under the paper's restart rule a fast benchmark paired with a slow one
//! re-runs cache-warm at near-peak IPC, pinning the event horizon at
//! `now + 1` (see `docs/performance.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use mps_badco::BadcoMulticoreSim;
use mps_bench::{bench_models, bench_pair, bench_trace_buffers, bench_uncore};
use mps_sim_cpu::{CoreConfig, MulticoreSim};
use mps_uncore::{PolicyKind, Uncore};
use mps_workloads::{suite, TraceBuffer, TraceSource};
use std::hint::black_box;
use std::sync::Arc;

const TRACE_LEN: u64 = 2_000;

fn detailed_speed(c: &mut Criterion) {
    // Memoized SoA buffers outside the timed region, cursors inside —
    // exactly how `StudyContext::detailed_run` feeds the simulator.
    let bufs = bench_trace_buffers(TRACE_LEN);
    c.bench_function("detailed_sim_2core_2k_instr", |bench| {
        bench.iter(|| {
            let uncore = Uncore::new(bench_uncore(2, PolicyKind::Lru), 2);
            let traces: Vec<Box<dyn TraceSource>> = bufs
                .iter()
                .map(|b| Box::new(b.cursor()) as Box<dyn TraceSource>)
                .collect();
            let r = MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces).run(TRACE_LEN);
            black_box(r.total_cycles)
        })
    });
}

/// The stall-dominated 2-core combinations: 13 mcf self-pairs and 3
/// astar self-pairs (every 5th slot), interleaved.
fn sweep16_combos() -> Vec<usize> {
    let idx = |name: &str| {
        suite()
            .iter()
            .position(|s| s.name() == name)
            .unwrap_or_else(|| panic!("{name} not in suite"))
    };
    let (mcf, astar) = (idx("mcf"), idx("astar"));
    (0..16)
        .map(|i| if i % 5 == 4 { astar } else { mcf })
        .collect()
}

fn sweep16_speed(c: &mut Criterion) {
    let bufs: Vec<Arc<TraceBuffer>> = suite()
        .iter()
        .map(|s| Arc::new(TraceBuffer::capture(&mut s.trace(), TRACE_LEN)))
        .collect();
    let combos = sweep16_combos();
    c.bench_function("sweep16_2core", |bench| {
        bench.iter(|| {
            let cycles: u64 = combos
                .iter()
                .map(|&b| {
                    let uncore = Uncore::new(bench_uncore(2, PolicyKind::Lru), 2);
                    let traces: Vec<Box<dyn TraceSource>> =
                        vec![Box::new(bufs[b].cursor()), Box::new(bufs[b].cursor())];
                    MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces)
                        .run(TRACE_LEN)
                        .total_cycles
                })
                .sum();
            black_box(cycles)
        })
    });
}

fn badco_speed(c: &mut Criterion) {
    let models = bench_models(TRACE_LEN);
    c.bench_function("badco_sim_2core_2k_instr", |bench| {
        bench.iter(|| {
            let uncore = Uncore::new(bench_uncore(2, PolicyKind::Lru), 2);
            let bound: Vec<_> = models.iter().map(Arc::clone).collect();
            let r = BadcoMulticoreSim::new(uncore, bound).run();
            black_box(r.total_cycles)
        })
    });
}

fn badco_model_build(c: &mut Criterion) {
    let (a, _) = bench_pair();
    c.bench_function("badco_model_build_2k_instr", |bench| {
        bench.iter(|| {
            let timing = mps_badco::BadcoTiming::from_uncore(&bench_uncore(2, PolicyKind::Lru));
            let m = mps_badco::BadcoModel::build(
                a.name(),
                &CoreConfig::ispass2013(),
                &a.trace(),
                TRACE_LEN,
                timing,
            );
            black_box(m.nodes().len())
        })
    });
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = detailed_speed, sweep16_speed, badco_speed, badco_model_build
}
criterion_main!(benches);
