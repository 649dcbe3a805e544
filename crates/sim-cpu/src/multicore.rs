//! Multiprogram multicore simulation driver.
//!
//! Implements the paper's measurement protocol (Section IV-A): each core
//! runs a separate thread; when a thread finishes its slice of `N`
//! instructions before the others it is restarted, as many times as
//! necessary until every thread has executed at least `N` instructions;
//! the IPC of each thread is measured over its first `N` committed
//! instructions. Cores are ticked round-robin each cycle, which together
//! with the uncore's single request port realizes the round-robin
//! arbitration the paper describes.

use crate::backend::{MemoryBackend, UncoreBackend};
use crate::config::CoreConfig;
use crate::core::{Core, CoreStats};
use crate::record::RunRecording;
use mps_uncore::{Uncore, UncoreStats};
use mps_workloads::TraceSource;
use std::time::Instant;

/// Outcome of a multicore run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-core IPC over each thread's first `N` committed instructions.
    pub ipc: Vec<f64>,
    /// Per-core cycle at which the measured slice completed.
    pub finish_cycles: Vec<u64>,
    /// Total cycles simulated (until the slowest thread finished).
    pub total_cycles: u64,
    /// Total instructions committed across cores, including restarts.
    pub instructions: u64,
    /// Per-core pipeline statistics.
    pub core_stats: Vec<CoreStats>,
    /// Per-core LLC demand misses (whole run, for MPKI shape checks).
    pub llc_misses_per_core: Vec<u64>,
    /// Per-core prefetch lines fetched from memory (whole run).
    pub llc_prefetches_per_core: Vec<u64>,
    /// Per-core (misses+prefetches, instructions) snapshot taken when the
    /// thread crossed the midpoint of its measured slice — the start of
    /// the steady-state MPKI window.
    pub midpoint_traffic: Vec<(u64, u64)>,
    /// Per-core (misses+prefetches, instructions) at slice completion.
    pub finish_traffic: Vec<(u64, u64)>,
    /// Aggregate uncore statistics.
    pub uncore_stats: UncoreStats,
    /// Wall-clock simulation time in seconds.
    pub wall_seconds: f64,
}

impl SimResult {
    /// Simulation speed in million instructions per second (Table III).
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.wall_seconds / 1e6
    }

    /// Per-core CPI (1/IPC).
    pub fn cpi(&self) -> Vec<f64> {
        self.ipc.iter().map(|&x| 1.0 / x).collect()
    }

    /// Memory-traffic MPKI for one core over the whole run: LLC demand
    /// misses plus prefetch fills per kilo-instruction. Prefetch fills are
    /// included because the prefetchers convert would-be demand misses into
    /// prefetch traffic without changing the benchmark's memory intensity
    /// (the quantity the paper's Table IV classifies).
    pub fn llc_mpki(&self, core: usize) -> f64 {
        let instr = self.core_stats[core].committed;
        (self.llc_misses_per_core[core] + self.llc_prefetches_per_core[core]) as f64
            / (instr as f64 / 1000.0)
    }

    /// Steady-state MPKI: memory traffic per kilo-instruction over the
    /// *second half* of the measured slice, excluding the cold-start
    /// transient. This is the reproduction's analogue of the paper's
    /// "skip the first 40 billion instructions" and is the quantity
    /// compared against the Table IV classes.
    pub fn steady_mpki(&self, core: usize) -> f64 {
        let (t0, i0) = self.midpoint_traffic[core];
        let (t1, i1) = self.finish_traffic[core];
        let instr = i1.saturating_sub(i0);
        if instr == 0 {
            return 0.0;
        }
        (t1.saturating_sub(t0)) as f64 / (instr as f64 / 1000.0)
    }
}

/// Detailed multicore simulation: K cores on the shared uncore.
pub struct MulticoreSim {
    cfg: CoreConfig,
    uncore: UncoreBackend,
    traces: Vec<Box<dyn TraceSource>>,
}

impl std::fmt::Debug for MulticoreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulticoreSim")
            .field("cores", &self.traces.len())
            .finish_non_exhaustive()
    }
}

impl MulticoreSim {
    /// Binds one trace per core to the given uncore.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or its length differs from the number of
    /// cores the uncore was built for.
    pub fn new(cfg: CoreConfig, uncore: Uncore, traces: Vec<Box<dyn TraceSource>>) -> Self {
        assert!(!traces.is_empty(), "need at least one core");
        assert_eq!(
            traces.len(),
            uncore.cores(),
            "one trace per uncore port required"
        );
        MulticoreSim {
            cfg,
            uncore: UncoreBackend(uncore),
            traces,
        }
    }

    /// Runs the multiprogram workload with `n` instructions per thread and
    /// returns the measured result.
    ///
    /// Cores tick round-robin, but only on cycles where something can
    /// happen: after every executed cycle the clock jumps to the minimum
    /// [`Core::next_event_bound`] over all cores, and a core whose own
    /// bound is still in the future sits the executed cycle out. Ticking
    /// every core on every cycle gives the same result, because the
    /// skipped ticks change no state and make no uncore request; the
    /// equivalence tests below check every [`SimResult`] field against
    /// such an ungated run.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the simulation fails to make forward
    /// progress (a deadlock guard at `n × 10_000` cycles).
    pub fn run(mut self, n: u64) -> SimResult {
        assert!(n > 0, "need a positive instruction count");
        let span = mps_obs::span("sim.detailed.run");
        let start = Instant::now();
        let mut cores = self.cores(n);
        let mut slices = Slices::new(cores.len());
        let guard = n.saturating_mul(10_000);
        // Cached per-core event bounds. A core's state only changes when it
        // ticks, so a bound computed after its last tick stays a valid "no
        // state change strictly before this cycle" promise until it next
        // ticks. `0` = "must tick at the next executed cycle".
        let mut core_bound = vec![0u64; cores.len()];
        let (mut now, mut executed, mut ticks) = (0u64, 0u64, 0u64);
        let cycles = loop {
            for (core, &bound) in cores.iter_mut().zip(&core_bound) {
                if bound <= now {
                    core.tick(now, &mut self.uncore);
                    ticks += 1;
                }
            }
            executed += 1;
            // Snapshot checks only need the cores that ticked: committed
            // counts and per-core traffic move only on the owning core's
            // own tick, so a gated-out core cannot cross a threshold.
            for (c, core) in cores.iter().enumerate() {
                if core_bound[c] <= now {
                    slices.observe(c, core, &self.uncore.0, n);
                }
            }
            if cores.iter().all(Core::done) {
                break now + 1;
            }
            // Event-horizon skip. Done cores still tick (the restart rule
            // keeps them perturbing the shared uncore), so they bound the
            // jump too. Only cores that ticked refresh their bound.
            let mut next = u64::MAX;
            for (core, bound) in cores.iter_mut().zip(&mut core_bound) {
                if *bound <= now {
                    *bound = core.next_event_bound(now);
                }
                next = next.min(*bound);
            }
            assert!(next > now, "event bound must advance the clock");
            now = next;
            assert!(
                now < guard,
                "simulation deadlock: no progress by cycle {now}"
            );
        };
        // The `batch.` prefix stays because the study bench derives its
        // skip ratio from these two names.
        mps_obs::counter("sim.detailed.core_ticks").add(ticks);
        mps_obs::counter("batch.cycles_executed").add(executed);
        mps_obs::counter("batch.cycles_skipped").add(cycles - executed);
        let result = self.result(n, &cores, slices, cycles, start);
        span.finish();
        result
    }

    /// The reference the skip is checked against: every core ticks on
    /// every cycle.
    #[cfg(test)]
    fn run_ungated(mut self, n: u64) -> SimResult {
        let start = Instant::now();
        let mut cores = self.cores(n);
        let mut slices = Slices::new(cores.len());
        let mut cycle = 0;
        while !cores.iter().all(Core::done) {
            for core in &mut cores {
                core.tick(cycle, &mut self.uncore);
            }
            for (c, core) in cores.iter().enumerate() {
                slices.observe(c, core, &self.uncore.0, n);
            }
            cycle += 1;
            assert!(cycle < n.saturating_mul(10_000), "simulation deadlock");
        }
        self.result(n, &cores, slices, cycle, start)
    }

    /// One core per trace, each running `n`-instruction slices.
    fn cores(&mut self, n: u64) -> Vec<Core> {
        self.traces
            .drain(..)
            .enumerate()
            .map(|(id, t)| Core::new(self.cfg.clone(), id, t, n))
            .collect()
    }

    /// Assembles the measured result of a finished run and flushes its
    /// statistics into the observability counters.
    fn result(
        mut self,
        n: u64,
        cores: &[Core],
        slices: Slices,
        total_cycles: u64,
        start: Instant,
    ) -> SimResult {
        self.uncore.0.flush_obs();
        let uncore = &self.uncore.0;
        let k = cores.len();
        let finish_cycles: Vec<u64> = cores
            .iter()
            .map(|c| c.finish_cycle().expect("all cores done"))
            .collect();
        let ipc: Vec<f64> = finish_cycles
            .iter()
            .map(|&f| n as f64 / (f.max(1)) as f64)
            .collect();
        let instructions = cores.iter().map(Core::committed).sum();
        flush_obs(instructions, total_cycles, cores, &uncore.stats());
        SimResult {
            ipc,
            finish_cycles,
            total_cycles,
            instructions,
            core_stats: cores.iter().map(Core::stats).collect(),
            llc_misses_per_core: (0..k).map(|c| uncore.core_misses(c)).collect(),
            llc_prefetches_per_core: (0..k).map(|c| uncore.core_prefetches(c)).collect(),
            midpoint_traffic: slices
                .midpoint
                .into_iter()
                .map(|m| m.expect("midpoint reached before finish"))
                .collect(),
            finish_traffic: slices
                .finish
                .into_iter()
                .map(|f| f.expect("all cores finished"))
                .collect(),
            uncore_stats: uncore.stats(),
            wall_seconds: start.elapsed().as_secs_f64().max(1e-9),
        }
    }
}

/// Per-core (misses + prefetches, committed) snapshots taken when each
/// thread crosses the midpoint and the end of its measured slice.
struct Slices {
    midpoint: Vec<Option<(u64, u64)>>,
    finish: Vec<Option<(u64, u64)>>,
}

impl Slices {
    fn new(k: usize) -> Self {
        Slices {
            midpoint: vec![None; k],
            finish: vec![None; k],
        }
    }

    /// Takes core `c`'s snapshots the first cycle each threshold is met.
    fn observe(&mut self, c: usize, core: &Core, uncore: &Uncore, n: u64) {
        let traffic = uncore.core_misses(c) + uncore.core_prefetches(c);
        if self.midpoint[c].is_none() && core.committed() >= n / 2 {
            self.midpoint[c] = Some((traffic, core.committed()));
        }
        if self.finish[c].is_none() && core.done() {
            self.finish[c] = Some((traffic, core.committed()));
        }
    }
}

/// Flushes one finished run's pipeline and uncore statistics into the
/// process-global `sim.detailed.*` observability counters. Counters are
/// bumped once per run (not per event), so the hot loop stays clean.
fn flush_obs(instructions: u64, cycles: u64, cores: &[Core], uncore: &UncoreStats) {
    mps_obs::counter("sim.detailed.runs").incr();
    mps_obs::counter("sim.detailed.instructions").add(instructions);
    mps_obs::counter("sim.detailed.cycles").add(cycles);
    let sum = |f: fn(&CoreStats) -> u64| cores.iter().map(|c| f(&c.stats())).sum::<u64>();
    mps_obs::counter("sim.detailed.branches").add(sum(|s| s.branches));
    mps_obs::counter("sim.detailed.branch_mispredicts").add(sum(|s| s.mispredicts));
    mps_obs::counter("sim.detailed.tlb_misses").add(sum(|s| s.dtlb_misses + s.itlb_misses));
    mps_obs::counter("sim.detailed.cache_accesses")
        .add(sum(|s| s.dl1_accesses + s.il1_accesses) + uncore.requests);
    mps_obs::counter("sim.detailed.cache_misses")
        .add(sum(|s| s.dl1_misses + s.il1_misses) + uncore.llc_misses);
}

/// Runs one benchmark alone on core 0 of the given backend, recording
/// commit times and backend requests — one BADCO training run.
///
/// Like [`MulticoreSim::run`], the core ticks only at its
/// [`Core::next_event_bound`]: the cycles in between change no state and
/// make no backend request, so every commit cycle, request and statistic
/// is the one a tick on every cycle records.
///
/// Returns the recording and the core statistics.
///
/// # Panics
///
/// Panics on deadlock (guard at `n × 10_000` cycles).
pub fn record_run<B: MemoryBackend>(
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    n: u64,
    backend: &mut B,
) -> (RunRecording, CoreStats) {
    let _span = mps_obs::span("sim.detailed.record_run");
    let mut core = Core::new(cfg, 0, trace, n);
    core.enable_recording();
    let guard = n.saturating_mul(10_000);
    let mut now = 0u64;
    loop {
        core.tick(now, backend);
        if core.done() {
            break;
        }
        now = core.next_event_bound(now);
        assert!(now < guard, "recording run deadlocked");
    }
    let mut rec = core.take_recording().expect("recording was enabled");
    // Trim to exactly the measured slice.
    rec.commit_cycles.truncate(n as usize);
    rec.requests.retain(|r| r.uop_index < n);
    (rec, core.stats())
}

/// Stable validation entry point: runs one multiprogram workload for `n`
/// instructions per thread and returns only the per-core IPC vector.
///
/// `mps-harness validate` and the differential BADCO-vs-detailed tests
/// call the detailed simulator exclusively through this function, so the
/// validation suite keeps compiling and measuring the same quantity even
/// when [`MulticoreSim`]'s richer result surface evolves. Its contract —
/// the paper's Section IV-A protocol, IPC over each thread's first `n`
/// committed instructions — is pinned by `docs/validation.md`; behavior
/// changes here require re-baselining the validation report.
///
/// # Panics
///
/// As [`MulticoreSim::new`] and [`MulticoreSim::run`]: empty or
/// mismatched trace lists, `n == 0`, or a deadlocked simulation.
pub fn validation_ipcs(
    cfg: CoreConfig,
    uncore: Uncore,
    traces: Vec<Box<dyn TraceSource>>,
    n: u64,
) -> Vec<f64> {
    MulticoreSim::new(cfg, uncore, traces).run(n).ipc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_uncore::{PolicyKind, UncoreConfig};
    use mps_workloads::suite;

    fn sim(policy: PolicyKind, names: &[&str]) -> MulticoreSim {
        let cores = names.len();
        let uncore = Uncore::new(UncoreConfig::ispass2013(cores.max(2), policy), cores);
        let traces: Vec<Box<dyn mps_workloads::TraceSource>> = names
            .iter()
            .map(|n| {
                Box::new(mps_workloads::benchmark_by_name(n).unwrap().trace())
                    as Box<dyn mps_workloads::TraceSource>
            })
            .collect();
        MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces)
    }

    /// Runs `names` on the gated driver and on the ungated reference and
    /// asserts every [`SimResult`] field but `wall_seconds` is equal.
    fn assert_skip_is_exact(policy: PolicyKind, names: &[&str], n: u64) {
        let got = sim(policy, names).run(n);
        let want = sim(policy, names).run_ungated(n);
        let tag = format!("{policy} {names:?}");
        assert_eq!(got.ipc, want.ipc, "{tag}: ipc");
        assert_eq!(got.finish_cycles, want.finish_cycles, "{tag}: finish");
        assert_eq!(got.total_cycles, want.total_cycles, "{tag}: total_cycles");
        assert_eq!(got.instructions, want.instructions, "{tag}: instructions");
        assert_eq!(got.core_stats, want.core_stats, "{tag}: core_stats");
        assert_eq!(
            got.llc_misses_per_core, want.llc_misses_per_core,
            "{tag}: misses"
        );
        assert_eq!(
            got.llc_prefetches_per_core, want.llc_prefetches_per_core,
            "{tag}: prefetches"
        );
        assert_eq!(
            got.midpoint_traffic, want.midpoint_traffic,
            "{tag}: midpoint"
        );
        assert_eq!(got.finish_traffic, want.finish_traffic, "{tag}: finish tr");
        assert_eq!(got.uncore_stats, want.uncore_stats, "{tag}: uncore");
    }

    #[test]
    fn skipping_run_matches_ungated_reference() {
        assert_skip_is_exact(PolicyKind::Lru, &["gcc", "mcf"], 1_500);
    }

    #[test]
    fn skipping_matches_ungated_reference_under_drrip() {
        // Mixed 2-core and 1-core machines under a policy with global
        // state (DRRIP's PSEL).
        for names in [
            &["mcf", "libquantum"][..],
            &["povray"],
            &["gcc", "soplex"],
            &["bwaves", "milc"],
        ] {
            assert_skip_is_exact(PolicyKind::Drrip, names, 1_200);
        }
    }

    #[test]
    fn every_suite_benchmark_skips_exactly_single_core() {
        for b in suite() {
            assert_skip_is_exact(PolicyKind::Lru, &[b.name()], 1_000);
        }
    }

    #[test]
    fn single_core_run_produces_sane_ipc() {
        let r = sim(PolicyKind::Lru, &["povray"]).run(3_000);
        assert_eq!(r.ipc.len(), 1);
        assert!(r.ipc[0] > 0.05 && r.ipc[0] < 4.0, "ipc={}", r.ipc[0]);
        assert!(r.instructions >= 3_000);
        assert!(r.mips() > 0.0);
    }

    #[test]
    fn two_core_contention_slows_threads_down() {
        let solo = sim(PolicyKind::Lru, &["mcf"]).run(2_000).ipc[0];
        let duo = sim(PolicyKind::Lru, &["mcf", "libquantum"]).run(2_000);
        assert!(
            duo.ipc[0] <= solo * 1.05,
            "sharing cannot speed mcf up: solo={solo} duo={}",
            duo.ipc[0]
        );
    }

    #[test]
    fn early_finisher_is_restarted() {
        // povray (fast) + mcf (slow): povray restarts while mcf finishes.
        let r = sim(PolicyKind::Lru, &["povray", "mcf"]).run(2_000);
        assert!(
            r.core_stats[0].committed > 2_000,
            "fast thread should have restarted: {}",
            r.core_stats[0].committed
        );
        assert!(r.finish_cycles[0] < r.finish_cycles[1]);
    }

    #[test]
    fn deterministic_multicore_replay() {
        let a = sim(PolicyKind::Drrip, &["gcc", "soplex"]).run(1_500);
        let b = sim(PolicyKind::Drrip, &["gcc", "soplex"]).run(1_500);
        assert_eq!(a.finish_cycles, b.finish_cycles);
        assert_eq!(a.ipc, b.ipc);
    }

    #[test]
    fn policies_change_timing_under_capacity_pressure() {
        // A tiny LLC and a cyclic working set larger than it: LRU thrashes,
        // RANDOM retains a fraction — finish cycles must differ.
        let run = |policy| {
            let cfg = UncoreConfig {
                stream_prefetch: false,
                llc_size: 64 << 10,
                ..UncoreConfig::tiny_for_tests(policy)
            };
            let uncore = Uncore::new(cfg, 1);
            let params = mps_workloads::SynthParams {
                footprint: 96 << 10, // 1.5× the 64 kB test LLC, 3× the L1D
                hot_bytes: 0,
                hot_fraction: 0.0,
                load_frac: 0.4,
                store_frac: 0.0,
                branch_frac: 0.0,
                longlat_frac: 0.0,
                pattern: mps_workloads::AccessPattern::Sequential { stride: 64 },
                ..mps_workloads::SynthParams::default()
            };
            let traces: Vec<Box<dyn mps_workloads::TraceSource>> =
                vec![Box::new(mps_workloads::SyntheticTrace::new(params))];
            MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces).run(6_000)
        };
        let lru = run(PolicyKind::Lru);
        let rnd = run(PolicyKind::Random);
        assert_ne!(lru.finish_cycles, rnd.finish_cycles);
        // Cyclic reuse beyond capacity is RANDOM's best case vs LRU.
        assert!(
            rnd.uncore_stats.llc_hits > lru.uncore_stats.llc_hits,
            "RND should retain some of the cyclic set: {} vs {}",
            rnd.uncore_stats.llc_hits,
            lru.uncore_stats.llc_hits
        );
    }

    #[test]
    fn memory_bound_thread_has_higher_mpki_than_compute_bound() {
        // Steady-state MPKI (second half of the slice) excludes the cold
        // warm-up transient, which dominates short runs.
        let hi = sim(PolicyKind::Lru, &["libquantum"]).run(16_000);
        let lo = sim(PolicyKind::Lru, &["povray"]).run(16_000);
        assert!(
            hi.steady_mpki(0) > 3.0 * lo.steady_mpki(0).max(0.5),
            "libquantum {} vs povray {}",
            hi.steady_mpki(0),
            lo.steady_mpki(0)
        );
    }

    #[test]
    fn record_run_is_deterministic_and_trimmed() {
        use crate::backend::FixedLatencyBackend;
        let bench = suite().into_iter().find(|b| b.name() == "gcc").unwrap();
        let mut b1 = FixedLatencyBackend::ideal(6);
        let (r1, _) = record_run(
            CoreConfig::ispass2013(),
            Box::new(bench.trace()),
            2_000,
            &mut b1,
        );
        let mut b2 = FixedLatencyBackend::ideal(6);
        let (r2, _) = record_run(
            CoreConfig::ispass2013(),
            Box::new(bench.trace()),
            2_000,
            &mut b2,
        );
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 2_000);
        assert!(r1.requests.iter().all(|r| r.uop_index < 2_000));
    }

    /// The reference `record_run` is checked against: the core ticks on
    /// every cycle.
    fn record_run_ungated<B: MemoryBackend>(
        trace: Box<dyn TraceSource>,
        n: u64,
        backend: &mut B,
    ) -> (RunRecording, CoreStats) {
        let mut core = Core::new(CoreConfig::ispass2013(), 0, trace, n);
        core.enable_recording();
        let mut cycle = 0u64;
        while !core.done() {
            core.tick(cycle, backend);
            cycle += 1;
            assert!(cycle < n.saturating_mul(10_000), "recording run deadlocked");
        }
        let mut rec = core.take_recording().expect("recording was enabled");
        rec.commit_cycles.truncate(n as usize);
        rec.requests.retain(|r| r.uop_index < n);
        (rec, core.stats())
    }

    #[test]
    fn record_run_matches_ungated_reference() {
        use crate::backend::FixedLatencyBackend;
        for b in suite() {
            for backend in [
                FixedLatencyBackend::ideal(6),
                FixedLatencyBackend::pessimal(6, 30, 200),
            ] {
                let tag = format!("{} at latency {}", b.name(), backend.latency());
                let (mut gated, mut ungated) = (backend.clone(), backend);
                let (got, got_stats) = record_run(
                    CoreConfig::ispass2013(),
                    Box::new(b.trace()),
                    1_000,
                    &mut gated,
                );
                let (want, want_stats) =
                    record_run_ungated(Box::new(b.trace()), 1_000, &mut ungated);
                assert_eq!(got.commit_cycles, want.commit_cycles, "{tag}: commits");
                assert_eq!(got.requests, want.requests, "{tag}: requests");
                assert_eq!(got_stats, want_stats, "{tag}: stats");
                assert_eq!(gated.requests(), ungated.requests(), "{tag}: backend");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one trace per uncore port")]
    fn mismatched_core_count_panics() {
        let uncore = Uncore::new(UncoreConfig::ispass2013(4, PolicyKind::Lru), 4);
        let traces: Vec<Box<dyn mps_workloads::TraceSource>> = vec![Box::new(suite()[0].trace())];
        MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces);
    }
}
