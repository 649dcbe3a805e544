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
//!
//! `restart_mix_2core` is the kernel floor for the opposite regime, the
//! one most of the study's detailed µops now run in: 8 fixed 2-core
//! pairs of a fast and a slow benchmark (povray+mcf, gcc+libquantum,
//! ...). Under the restart rule the fast thread replays its slice,
//! cache-warm and near peak IPC, until the slow one finishes, so most
//! simulated µops are restarted ones and the event horizon sits at
//! `now + 1`. What it measures is the core's cost per µop. The leg prints
//! its µops per run and their restarted share before timing.
//!
//! `badco_table_2core` is the kernel floor for the BADCO layer as the
//! study drives it: the whole 253-workload 2-core population under DRRIP,
//! one `BadcoMulticoreSim::run` per workload over one shared model set
//! trained at trace length 1000, which is what one Figure 3 BADCO table
//! costs.
//!
//! `badco_derive_22` is the kernel floor for BADCO model derivation apart
//! from the detailed training runs: `BadcoModel::from_recordings` for all
//! 22 benchmarks over ideal/pessimal recordings made once, outside the
//! timed region, from `TraceBuffer` cursors at trace length 1000 and the
//! 2-core timing, which is the study's own training traffic.

use criterion::{criterion_group, criterion_main, Criterion};
use mps_badco::{BadcoModel, BadcoMulticoreSim, BadcoTiming};
use mps_bench::{bench_models, bench_pair, bench_trace_buffers, bench_uncore};
use mps_sampling::Population;
use mps_sim_cpu::{record_run, CoreConfig, FixedLatencyBackend, MulticoreSim, RunRecording};
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

/// The fast/slow pairs of `restart_mix_2core`.
const RESTART_MIX: [(&str, &str); 8] = [
    ("povray", "mcf"),
    ("gcc", "libquantum"),
    ("hmmer", "omnetpp"),
    ("namd", "soplex"),
    ("h264ref", "bwaves"),
    ("sjeng", "leslie3d"),
    ("calculix", "astar"),
    ("perlbench", "cactusADM"),
];

fn restart_mix_speed(c: &mut Criterion) {
    let buf = |name: &str| {
        let spec =
            mps_workloads::benchmark_by_name(name).unwrap_or_else(|| panic!("{name} not in suite"));
        Arc::new(TraceBuffer::capture(&mut spec.trace(), TRACE_LEN))
    };
    let pairs: Vec<[Arc<TraceBuffer>; 2]> = RESTART_MIX
        .iter()
        .map(|&(fast, slow)| [buf(fast), buf(slow)])
        .collect();
    // Committed µops over all pairs; each thread's first TRACE_LEN are
    // measured and the rest are restarts.
    let run = || -> u64 {
        pairs
            .iter()
            .map(|pair| {
                let uncore = Uncore::new(bench_uncore(2, PolicyKind::Lru), 2);
                let traces: Vec<Box<dyn TraceSource>> = pair
                    .iter()
                    .map(|b| Box::new(b.cursor()) as Box<dyn TraceSource>)
                    .collect();
                MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces)
                    .run(TRACE_LEN)
                    .instructions
            })
            .sum()
    };
    let uops = run();
    let restarted = uops - 2 * TRACE_LEN * pairs.len() as u64;
    println!(
        "restart_mix_2core: {uops} µops per run, {restarted} restarted ({:.1} %)",
        100.0 * restarted as f64 / uops as f64
    );
    c.bench_function("restart_mix_2core", |bench| bench.iter(|| black_box(run())));
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

fn badco_table_speed(c: &mut Criterion) {
    const TABLE_LEN: u64 = 1_000;
    let timing = BadcoTiming::from_uncore(&bench_uncore(2, PolicyKind::Lru));
    let models: Vec<Arc<BadcoModel>> = suite()
        .iter()
        .map(|s| {
            let core = CoreConfig::ispass2013();
            Arc::new(BadcoModel::build(
                s.name(),
                &core,
                &s.trace(),
                TABLE_LEN,
                timing,
            ))
        })
        .collect();
    let pop = Population::full(models.len(), 2);
    c.bench_function("badco_table_2core", |bench| {
        bench.iter(|| {
            let cycles: u64 = pop
                .workloads()
                .iter()
                .map(|w| {
                    let uncore = Uncore::new(bench_uncore(2, PolicyKind::Drrip), 2);
                    let bound = w
                        .benchmarks()
                        .iter()
                        .map(|&b| Arc::clone(&models[b as usize]))
                        .collect();
                    BadcoMulticoreSim::new(uncore, bound).run().total_cycles
                })
                .sum();
            black_box(cycles)
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
            black_box(m.node_count())
        })
    });
}

fn badco_derive(c: &mut Criterion) {
    const DERIVE_LEN: u64 = 1_000;
    let timing = BadcoTiming::from_uncore(&bench_uncore(2, PolicyKind::Lru));
    let record = |buf: &Arc<TraceBuffer>, latency: u64| -> RunRecording {
        let mut backend = FixedLatencyBackend::new(latency);
        let trace = Box::new(buf.cursor());
        record_run(CoreConfig::ispass2013(), trace, DERIVE_LEN, &mut backend).0
    };
    let inputs: Vec<(String, Arc<TraceBuffer>, RunRecording, RunRecording)> = suite()
        .iter()
        .map(|s| {
            let buf = Arc::new(TraceBuffer::capture(&mut s.trace(), DERIVE_LEN));
            let hit = record(&buf, timing.hit_latency);
            let miss = record(&buf, timing.miss_latency);
            (s.name().to_owned(), buf, hit, miss)
        })
        .collect();
    c.bench_function("badco_derive_22", |bench| {
        bench.iter(|| {
            let nodes: usize = inputs
                .iter()
                .map(|(name, buf, hit, miss)| {
                    BadcoModel::from_recordings(
                        name,
                        &mut buf.cursor(),
                        DERIVE_LEN,
                        hit,
                        miss,
                        timing,
                    )
                    .node_count()
                })
                .sum();
            black_box(nodes)
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
    targets = detailed_speed, sweep16_speed, restart_mix_speed, badco_speed, badco_table_speed,
        badco_model_build, badco_derive
}
criterion_main!(benches);
