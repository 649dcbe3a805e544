//! The premise of sharing table rows across replacement policies: a run
//! whose LLC never chooses a victim takes the same trajectory under every
//! policy. `Cache::access` consults the policy's state only to choose a
//! victim, so such a run must give equal results, every field but
//! `wall_seconds`, under all eight `PolicyKind`s.

use mps_badco::{BadcoModel, BadcoMulticoreSim, BadcoSimResult, BadcoTiming};
use mps_sim_cpu::CoreConfig;
use mps_uncore::{PolicyKind, Uncore, UncoreConfig, UncoreStats};
use mps_workloads::benchmark_by_name;
use std::sync::Arc;

/// µops per model, the study bench's trace length.
const N: u64 = 1_000;

/// 2- and 4-core mixes: light and streaming ones whose LLC only fills at
/// this length, and ones whose LLC evicts, where the policies disagree.
const MIXES: &[&[&str]] = &[
    &["povray", "gromacs"],
    &["gcc", "bzip2"],
    &["mcf", "libquantum"],
    &["soplex", "soplex"],
    &["leslie3d", "bwaves"],
    &["povray", "gromacs", "namd", "hmmer"],
    &["mcf", "soplex", "libquantum", "bwaves"],
    &["omnetpp", "omnetpp", "soplex", "soplex"],
];

/// Every result field but `wall_seconds`, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct Fields {
    ipc: Vec<u64>,
    finish_cycles: Vec<u64>,
    total_cycles: u64,
    instructions: u64,
    uncore_stats: UncoreStats,
    llc_misses_per_core: Vec<u64>,
}

fn fields(r: BadcoSimResult) -> Fields {
    let BadcoSimResult {
        ipc,
        finish_cycles,
        total_cycles,
        instructions,
        uncore_stats,
        llc_misses_per_core,
        wall_seconds: _,
    } = r;
    Fields {
        ipc: ipc.iter().map(|x| x.to_bits()).collect(),
        finish_cycles,
        total_cycles,
        instructions,
        uncore_stats,
        llc_misses_per_core,
    }
}

/// The capacity-scaled Table II uncore the experiments use.
fn scaled(cores: usize, policy: PolicyKind) -> UncoreConfig {
    UncoreConfig::ispass2013_scaled(cores, policy, 16)
}

fn model(name: &str, cores: usize) -> Arc<BadcoModel> {
    let timing = BadcoTiming::from_uncore(&scaled(cores, PolicyKind::Lru));
    let trace = benchmark_by_name(name).expect("suite benchmark").trace();
    Arc::new(BadcoModel::build(
        name,
        &CoreConfig::ispass2013(),
        &trace,
        N,
        timing,
    ))
}

#[test]
fn eviction_free_runs_are_policy_invariant() {
    let (mut free, mut evicting, mut disagreeing) = (0, 0, 0);
    for mix in MIXES {
        let cores = mix.len();
        let models: Vec<Arc<BadcoModel>> = mix.iter().map(|n| model(n, cores)).collect();
        let runs: Vec<(PolicyKind, Fields)> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                let uncore = Uncore::new(scaled(cores, p), cores);
                (
                    p,
                    fields(BadcoMulticoreSim::new(uncore, models.clone()).run()),
                )
            })
            .collect();
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
