//! Captured traces — the `TraceBuffer` cursors every `StudyContext` run
//! replays (the EIO analogue) — must be perfect substitutes for their
//! generators across the whole stack.

use mps::sim_cpu::{CoreConfig, MulticoreSim};
use mps::uncore::{PolicyKind, Uncore, UncoreConfig};
use mps::workloads::{benchmark_by_name, TraceBuffer, TraceCursor, TraceSource};
use std::sync::Arc;

const N: u64 = 2_000;

fn cfg() -> UncoreConfig {
    UncoreConfig::ispass2013_scaled(2, PolicyKind::Drrip, 16)
}

/// Captures the first `n` µops of `source` and returns a replay cursor.
fn replay(source: &mut dyn TraceSource, n: u64) -> TraceCursor {
    Arc::new(TraceBuffer::capture(source, n)).cursor()
}

#[test]
fn replayed_trace_reproduces_detailed_simulation_exactly() {
    let bench = benchmark_by_name("soplex").unwrap();
    let replay = replay(&mut bench.trace(), N);

    let run = |trace: Box<dyn TraceSource>| {
        let sim = MulticoreSim::new(CoreConfig::ispass2013(), Uncore::new(cfg(), 1), vec![trace]);
        let r = sim.run(N);
        (r.finish_cycles.clone(), r.uncore_stats, r.core_stats[0])
    };

    let from_generator = run(Box::new(bench.trace()));
    let from_buffer = run(Box::new(replay));
    assert_eq!(
        from_generator, from_buffer,
        "a captured trace must be simulation-equivalent to its generator"
    );
}

#[test]
fn replayed_trace_builds_identical_badco_models() {
    use mps::badco::{BadcoModel, BadcoTiming};
    let bench = benchmark_by_name("gcc").unwrap();
    let replay = replay(&mut bench.trace(), N);

    let timing = BadcoTiming::from_uncore(&cfg());
    let from_generator =
        BadcoModel::build("gcc", &CoreConfig::ispass2013(), &bench.trace(), N, timing);
    let from_buffer = BadcoModel::build("gcc", &CoreConfig::ispass2013(), &replay, N, timing);
    assert_eq!(from_generator, from_buffer);
}

#[test]
fn capture_of_a_capture_is_stable() {
    let bench = benchmark_by_name("mcf").unwrap();
    let first = TraceBuffer::capture(&mut bench.trace(), 500);
    let second = TraceBuffer::capture(&mut replay(&mut bench.trace(), 500), 500);
    assert_eq!(first, second, "re-capturing must give an equal buffer");
}
