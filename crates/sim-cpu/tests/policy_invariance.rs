//! The premise of sharing table rows across replacement policies: a run
//! whose LLC never chooses a victim takes the same trajectory under every
//! policy. `Cache::access` consults the policy's state only to choose a
//! victim, so such a run must give equal results, every field but
//! `wall_seconds`, under all eight `PolicyKind`s.

use mps_sim_cpu::{CoreConfig, CoreStats, MulticoreSim, SimResult};
use mps_uncore::{PolicyKind, Uncore, UncoreConfig, UncoreStats};
use mps_workloads::{benchmark_by_name, TraceSource};

/// Instructions per thread, the study bench's trace length.
const N: u64 = 1_000;

/// 2- and 4-core mixes: light and streaming ones whose LLC only fills at
/// this length, and ones whose LLC evicts, where the policies disagree.
const MIXES: &[&[&str]] = &[
    &["povray", "gromacs"],
    &["gcc", "bzip2"],
    &["mcf", "libquantum"],
    &["soplex", "soplex"],
    &["povray", "gromacs", "namd", "hmmer"],
    &["omnetpp", "omnetpp", "soplex", "soplex"],
];

/// Every result field but `wall_seconds`, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct Fields {
    ipc: Vec<u64>,
    finish_cycles: Vec<u64>,
    total_cycles: u64,
    instructions: u64,
    core_stats: Vec<CoreStats>,
    llc_misses_per_core: Vec<u64>,
    llc_prefetches_per_core: Vec<u64>,
    midpoint_traffic: Vec<(u64, u64)>,
    finish_traffic: Vec<(u64, u64)>,
    uncore_stats: UncoreStats,
}

fn fields(r: SimResult) -> Fields {
    let SimResult {
        ipc,
        finish_cycles,
        total_cycles,
        instructions,
        core_stats,
        llc_misses_per_core,
        llc_prefetches_per_core,
        midpoint_traffic,
        finish_traffic,
        uncore_stats,
        wall_seconds: _,
    } = r;
    Fields {
        ipc: ipc.iter().map(|x| x.to_bits()).collect(),
        finish_cycles,
        total_cycles,
        instructions,
        core_stats,
        llc_misses_per_core,
        llc_prefetches_per_core,
        midpoint_traffic,
        finish_traffic,
        uncore_stats,
    }
}

/// One run of `mix` on the capacity-scaled Table II uncore the
/// experiments use.
fn run(mix: &[&str], policy: PolicyKind) -> Fields {
    let cores = mix.len();
    let cfg = UncoreConfig::ispass2013_scaled(cores, policy, 16);
    let traces: Vec<Box<dyn TraceSource>> = mix
        .iter()
        .map(|n| Box::new(benchmark_by_name(n).expect("suite benchmark").trace()) as _)
        .collect();
    fields(MulticoreSim::new(CoreConfig::ispass2013(), Uncore::new(cfg, cores), traces).run(N))
}

#[test]
fn eviction_free_runs_are_policy_invariant() {
    let (mut free, mut evicting, mut disagreeing) = (0, 0, 0);
    for mix in MIXES {
        let runs: Vec<(PolicyKind, Fields)> =
            PolicyKind::ALL.iter().map(|&p| (p, run(mix, p))).collect();
        if runs.iter().any(|(_, r)| r != &runs[0].1) {
            disagreeing += 1;
        }
        for (p, r) in &runs {
            if r.uncore_stats.llc_evictions > 0 {
                evicting += 1;
                continue;
            }
            free += 1;
            for (q, other) in &runs {
                assert_eq!(r, other, "{mix:?}: {p} evicted nothing, but {q} differs");
            }
        }
    }
    assert!(evicting > 0, "no mix evicts: the check is vacuous");
    assert!(free > 0, "every mix evicts: the check is vacuous");
    assert!(disagreeing > 0, "no mix tells the policies apart");
}
