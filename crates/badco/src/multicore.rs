//! Multiprogram BADCO simulation.
//!
//! One BADCO machine per core, all plugged into the shared
//! [`mps_uncore::Uncore`]. Machines are advanced in *time order* with
//! round-robin tie-breaking on the core index — the event-driven
//! equivalent of the paper's "round robin arbitration to decide which
//! BADCO machine can access the uncore". IPC is taken over each thread's
//! first `N` µops, as in the detailed simulator, but the two simulators
//! end a thread differently. A BADCO machine runs one pass over its model:
//! once it has committed its `N` µops, [`BadcoMulticoreSim::run`] steps it
//! no more, so it stops contending for the uncore while slower threads
//! finish alone. The detailed simulator restarts a finished thread and
//! keeps it running until every thread has committed `N` µops.

use crate::machine::BadcoMachine;
use crate::model::BadcoModel;
use mps_uncore::{Uncore, UncoreStats};
use std::sync::Arc;
use std::time::Instant;

/// Machine steps after which [`BadcoMulticoreSim::run`] declares a
/// deadlock: every step executes one node, so no real run comes near it.
const STEP_GUARD: u64 = 1_000_000_000;

/// Outcome of a multicore BADCO run.
#[derive(Debug, Clone)]
pub struct BadcoSimResult {
    /// Per-core IPC over each thread's first `N` µops.
    pub ipc: Vec<f64>,
    /// Per-core finish cycle of the measured slice.
    pub finish_cycles: Vec<u64>,
    /// Cycle at which the last thread finished.
    pub total_cycles: u64,
    /// µops committed across cores. A machine is not stepped once it has
    /// committed its `N` µops, so no restarted pass is counted: this is
    /// the sum of the targets, where the detailed simulator's count also
    /// holds the restarts of threads that finished early.
    pub instructions: u64,
    /// Aggregate uncore statistics.
    pub uncore_stats: UncoreStats,
    /// Per-core LLC demand misses.
    pub llc_misses_per_core: Vec<u64>,
    /// Wall-clock seconds of simulation.
    pub wall_seconds: f64,
}

impl BadcoSimResult {
    /// Simulation speed in million instructions per second (Table III).
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.wall_seconds / 1e6
    }

    /// Per-core CPI.
    pub fn cpi(&self) -> Vec<f64> {
        self.ipc.iter().map(|&x| 1.0 / x).collect()
    }
}

/// K BADCO machines on the shared uncore.
pub struct BadcoMulticoreSim {
    uncore: Uncore,
    machines: Vec<BadcoMachine>,
}

impl std::fmt::Debug for BadcoMulticoreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BadcoMulticoreSim")
            .field("cores", &self.machines.len())
            .finish_non_exhaustive()
    }
}

impl BadcoMulticoreSim {
    /// Binds one model per core. Each thread's measurement target is its
    /// model's full µop count.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or its length differs from the
    /// uncore's core count.
    pub fn new(uncore: Uncore, models: Vec<Arc<BadcoModel>>) -> Self {
        assert!(!models.is_empty(), "need at least one core");
        assert_eq!(
            models.len(),
            uncore.cores(),
            "one model per uncore port required"
        );
        let machines = models
            .into_iter()
            .enumerate()
            .map(|(core, m)| {
                let target = m.uops_total();
                BadcoMachine::new(m, core, target)
            })
            .collect();
        BadcoMulticoreSim { uncore, machines }
    }

    /// Runs the workload to completion.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds a generous step guard (deadlock).
    pub fn run(mut self) -> BadcoSimResult {
        let span = mps_obs::span("sim.badco.run");
        let start = Instant::now();
        let uncore_before = self.uncore.stats();
        let k = self.machines.len();
        let mut steps: u64 = 0;
        // Advance the earliest machine first; ties resolve round-robin by
        // core index (the arbitration rule).
        while !self.machines.iter().all(BadcoMachine::done) {
            let next = self
                .machines
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.done())
                .min_by_key(|(c, m)| (m.next_event_time(), *c))
                .map(|(c, _)| c)
                .expect("at least one unfinished machine");
            self.machines[next].step(&mut self.uncore);
            steps += 1;
            assert!(steps < STEP_GUARD, "BADCO simulation deadlocked");
        }
        let finish_cycles: Vec<u64> = self
            .machines
            .iter()
            .map(|m| m.finish_cycle().expect("all machines done"))
            .collect();
        let ipc: Vec<f64> = self
            .machines
            .iter()
            .zip(&finish_cycles)
            .map(|(m, &f)| {
                let n = m.committed().min(m.target());
                n as f64 / f.max(1) as f64
            })
            .collect();
        let instructions: u64 = self.machines.iter().map(BadcoMachine::committed).sum();
        flush_obs(steps, instructions, &uncore_before, &self.uncore.stats());
        self.uncore.flush_obs();
        span.finish();
        BadcoSimResult {
            ipc,
            total_cycles: finish_cycles.iter().copied().max().unwrap_or(0),
            finish_cycles,
            instructions,
            uncore_stats: self.uncore.stats(),
            llc_misses_per_core: (0..k).map(|c| self.uncore.core_misses(c)).collect(),
            wall_seconds: start.elapsed().as_secs_f64().max(1e-9),
        }
    }
}

/// Flushes one finished BADCO run into the process-global `sim.badco.*`
/// observability counters. The uncore may be handed in pre-warmed, so
/// cache figures are deltas over this run, not the uncore's lifetime.
fn flush_obs(steps: u64, instructions: u64, before: &UncoreStats, after: &UncoreStats) {
    mps_obs::counter("sim.badco.runs").incr();
    mps_obs::counter("sim.badco.machine_steps").add(steps);
    mps_obs::counter("sim.badco.instructions").add(instructions);
    mps_obs::counter("sim.badco.cache_accesses").add(after.requests - before.requests);
    mps_obs::counter("sim.badco.cache_misses").add(after.llc_misses - before.llc_misses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BadcoModel, BadcoTiming};
    use mps_sim_cpu::CoreConfig;
    use mps_uncore::{PolicyKind, UncoreConfig};
    use mps_workloads::benchmark_by_name;

    fn model(name: &str, n: u64, cores: usize) -> Arc<BadcoModel> {
        let bench = benchmark_by_name(name).unwrap();
        let timing = BadcoTiming::from_uncore(&UncoreConfig::ispass2013(cores, PolicyKind::Lru));
        Arc::new(BadcoModel::build(
            name,
            &CoreConfig::ispass2013(),
            &bench.trace(),
            n,
            timing,
        ))
    }

    fn run_two(policy: PolicyKind, a: &str, b: &str, n: u64) -> BadcoSimResult {
        let uncore = Uncore::new(UncoreConfig::ispass2013(2, policy), 2);
        BadcoMulticoreSim::new(uncore, vec![model(a, n, 2), model(b, n, 2)]).run()
    }

    #[test]
    fn two_core_run_completes_with_sane_ipcs() {
        let r = run_two(PolicyKind::Lru, "gcc", "soplex", 2_000);
        assert_eq!(r.ipc.len(), 2);
        for &ipc in &r.ipc {
            assert!(ipc > 0.005 && ipc < 4.0, "ipc={ipc}");
        }
        assert!(r.instructions >= 4_000);
        assert!(r.mips() > 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let a = run_two(PolicyKind::Drrip, "bzip2", "mcf", 1_500);
        let b = run_two(PolicyKind::Drrip, "bzip2", "mcf", 1_500);
        assert_eq!(a.finish_cycles, b.finish_cycles);
    }

    #[test]
    fn contention_hurts_compared_to_solo() {
        let n = 2_000;
        let solo = {
            let uncore = Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), 1);
            BadcoMulticoreSim::new(uncore, vec![model("omnetpp", n, 2)]).run()
        };
        let duo = run_two(PolicyKind::Lru, "omnetpp", "libquantum", n);
        assert!(
            duo.ipc[0] <= solo.ipc[0] * 1.02,
            "sharing cannot help omnetpp: {} vs {}",
            duo.ipc[0],
            solo.ipc[0]
        );
    }

    #[test]
    fn policies_produce_different_timings() {
        // A short slice only touches ~1700 distinct lines; shrink the LLC
        // so those lines genuinely compete for capacity.
        let run = |policy| {
            let cfg = UncoreConfig {
                llc_size: 64 << 10,
                ..UncoreConfig::ispass2013(2, policy)
            };
            let uncore = Uncore::new(cfg, 2);
            BadcoMulticoreSim::new(
                uncore,
                vec![model("omnetpp", 3_000, 2), model("soplex", 3_000, 2)],
            )
            .run()
        };
        let lru = run(PolicyKind::Lru);
        let rnd = run(PolicyKind::Random);
        assert_ne!(lru.finish_cycles, rnd.finish_cycles);
    }
}
