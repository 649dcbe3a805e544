//! The benchmark's workloads and the operation each one times: a fresh
//! study context that builds every artifact of the workload, each checked
//! for shape and digested.

use crate::{calib, heap};
use mps_harness::experiments::accuracy::CpiPoint;
use mps_harness::experiments::confidence::fig6_pairs;
use mps_harness::experiments::{self, ConfidenceCurves, CpiAccuracyReport, Fig3Report};
use mps_harness::export::CsvExport;
use mps_harness::validate::{self, ValidateOptions, ValidationReport};
use mps_harness::{Scale, StudyContext};
use mps_metrics::ThroughputMetric::WeightedSpeedup as WSU;
use mps_store::StoreStats;
use mps_uncore::PolicyKind;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// The seed of the workloads whose cost depends on their random draw.
pub const FIXED_SEED: u64 = 0xC0FFEE;

/// A paper artifact the benchmark builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    Fig2,
    Fig3,
    Fig6,
    Validate,
}

impl Artifact {
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Fig2 => "fig2",
            Artifact::Fig3 => "fig3",
            Artifact::Fig6 => "fig6",
            Artifact::Validate => "validate",
        }
    }
}

/// The shared inputs of a workload's artifacts: what a set-up repetition
/// builds on a fresh context, after the trace buffers of every benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Core counts whose BADCO models are trained.
    pub models: &'static [usize],
    pub badco_refs: &'static [usize],
    pub detailed_refs: &'static [usize],
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub artifacts: &'static [Artifact],
    /// Whether the operation reads a store filled during set-up rather
    /// than writing a fresh one.
    pub warm: bool,
    /// The sizing, given the run's `--seed`.
    pub scale: fn(u64) -> Scale,
    pub inputs: Inputs,
}

/// The grid workloads: the 2-core population is complete and the 4-core
/// sample has 100 workloads, so the draw barely moves the work, and the
/// run's seed becomes the scale's.
fn grid_scale(seed: u64) -> Scale {
    Scale {
        trace_len: 1_000,
        pop_4core: 100,
        pop_8core: 30,
        confidence_samples: 300,
        seed,
        ..Scale::small()
    }
}

/// validate's few random workloads are priced by their slowest thread:
/// over seeds 1–6 one build took 0.61–1.60 s. The seed stays fixed.
fn validate_scale(_seed: u64) -> Scale {
    Scale {
        trace_len: 1_000,
        seed: FIXED_SEED,
        ..Scale::small()
    }
}

/// Figure 2 over 12 random workloads: with the seed free its cost moved
/// 0.57–1.17 s and its 2-core CPI error 6.4–12.6%. The seed stays fixed.
fn fig2_scale(_seed: u64) -> Scale {
    Scale {
        trace_len: 1_000,
        accuracy_workloads: 12,
        seed: FIXED_SEED,
        ..Scale::small()
    }
}

const GRID_INPUTS: Inputs = Inputs {
    models: &[2, 4],
    badco_refs: &[2, 4],
    detailed_refs: &[],
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "badco-grid",
        artifacts: &[Artifact::Fig3, Artifact::Fig6],
        warm: false,
        scale: grid_scale,
        inputs: GRID_INPUTS,
    },
    Workload {
        name: "detailed-grid",
        artifacts: &[Artifact::Validate],
        warm: false,
        scale: validate_scale,
        inputs: Inputs {
            models: &[2, 4],
            badco_refs: &[2, 4],
            detailed_refs: &[2, 4],
        },
    },
    Workload {
        name: "scalar-accuracy",
        artifacts: &[Artifact::Fig2],
        warm: false,
        scale: fig2_scale,
        inputs: Inputs {
            models: &[2, 4],
            badco_refs: &[],
            detailed_refs: &[],
        },
    },
    // badco-grid's artifacts over a store that one cold badco-grid
    // operation filled: same digests, but every table is a store read.
    Workload {
        name: "warm-store",
        artifacts: &[Artifact::Fig3, Artifact::Fig6],
        warm: true,
        scale: grid_scale,
        inputs: GRID_INPUTS,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeds tried per run seed before [`scale_for`] gives up.
const DRAWS: u64 = 64;

/// The workload's scale for the run's `seed`.
///
/// fig3's model confidence is 0/0, so NaN, when DIP and DRRIP give the same
/// throughput on every workload of a sampled population. At `tl` 1000 only
/// about 3% of 4-core workloads evict enough from the LLC to tell the two
/// apart, and about one 100-workload draw in ten holds none of them. Such a
/// draw has no Figure 3, so a workload that builds it takes the first of
/// `seed`, `seed ^ φ`, `seed ^ 2φ`, … whose sampled populations separate
/// the pair. The same seed always resolves to the same scale.
pub fn scale_for(wl: &Workload, seed: u64) -> Result<Scale, String> {
    if !wl.artifacts.contains(&Artifact::Fig3) {
        return Ok((wl.scale)(seed));
    }
    for k in 0..DRAWS {
        let scale = (wl.scale)(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if fig3_defined(&scale)? {
            return Ok(scale);
        }
    }
    Err(format!(
        "{}: no seed of {DRAWS} drawn from {seed:x} separates DIP and DRRIP",
        wl.name
    ))
}

/// Whether some workload of every sampled population fig3 reads tells DIP
/// and DRRIP apart. The complete populations do not depend on the seed.
fn fig3_defined(scale: &Scale) -> Result<bool, String> {
    let ctx = context(scale, None)?;
    for &cores in fig3_cores(scale) {
        if ctx.population(cores).map_err(|e| e.to_string())?.is_full() {
            continue;
        }
        let data = ctx
            .badco_pair_data(cores, PolicyKind::Dip, PolicyKind::Drrip, WSU)
            .map_err(|e| e.to_string())?;
        if data.differences().iter().all(|&d| d == 0.0) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The core counts fig3 evaluates: it adds 8 cores once the 8-core sample
/// reaches 100.
fn fig3_cores(scale: &Scale) -> &'static [usize] {
    if scale.pop_8core >= 100 {
        &[2, 4, 8]
    } else {
        &[2, 4]
    }
}

/// The BADCO tables the grid artifacts read, in build order.
pub fn tables(artifacts: &[Artifact], scale: &Scale) -> Vec<(usize, PolicyKind)> {
    let mut out = Vec::new();
    let mut add = |t| {
        if !out.contains(&t) {
            out.push(t);
        }
    };
    for a in artifacts {
        match a {
            Artifact::Fig3 => {
                for &c in fig3_cores(scale) {
                    add((c, PolicyKind::Dip));
                    add((c, PolicyKind::Drrip));
                }
            }
            Artifact::Fig6 => {
                for (x, y) in fig6_pairs() {
                    add((4, x));
                    add((4, y));
                }
            }
            Artifact::Fig2 | Artifact::Validate => {}
        }
    }
    out
}

/// A built artifact.
#[derive(Debug, Clone)]
pub enum Report {
    Fig2(CpiAccuracyReport),
    Fig3(Fig3Report),
    Fig6(ConfidenceCurves),
    Validate(Box<ValidationReport>),
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn check_confidence(artifact: &str, c: f64) -> Result<(), String> {
    check(c.is_finite() && (0.0..=1.0).contains(&c), || {
        format!("{artifact}: confidence {c} outside [0, 1]")
    })
}

/// FNV-1a over a report's text and CSV renderings. The validation
/// report's `timing:` line is wall-clock and left out, as it is from its
/// CSV and JSONL.
pub fn digest(text: &str, csv: &str) -> u64 {
    let stable: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("timing:"))
        .flat_map(|l| [l, "\n"])
        .collect();
    mps_store::fnv1a64(format!("{stable}\u{0}{csv}").as_bytes())
}

impl Report {
    pub fn digest(&self) -> u64 {
        match self {
            Report::Fig2(r) => digest(&r.to_string(), &r.csv()),
            Report::Fig3(r) => digest(&r.to_string(), &r.csv()),
            Report::Fig6(r) => digest(&r.to_string(), &r.csv()),
            Report::Validate(r) => digest(&r.to_string(), &r.csv()),
        }
    }

    /// Fails a report whose shape is wrong for `scale`.
    pub fn check(&self, scale: &Scale) -> Result<(), String> {
        match self {
            Report::Fig2(r) => {
                check(r.core_counts() == [2, 4], || {
                    format!("fig2: core counts {:?}, want [2, 4]", r.core_counts())
                })?;
                for p in &r.points {
                    let ok = [p.detailed_cpi, p.badco_cpi]
                        .iter()
                        .all(|c| c.is_finite() && *c > 0.0);
                    check(ok, || format!("fig2: CPI of {} not positive", p.benchmark))?;
                }
                Ok(())
            }
            Report::Fig3(r) => {
                let want = r.cores.len() * scale.sample_sizes.len();
                check(r.points.len() == want, || {
                    format!("fig3: {} points, want {want}", r.points.len())
                })?;
                for &(_, _, model, exp) in &r.points {
                    check_confidence("fig3", model)?;
                    check_confidence("fig3", exp)?;
                }
                Ok(())
            }
            Report::Fig6(r) => {
                check(r.panels.len() == 4, || {
                    format!("fig6: {} panels, want 4", r.panels.len())
                })?;
                for p in &r.panels {
                    for &(_, _, c) in &p.series {
                        check_confidence("fig6", c)?;
                    }
                }
                Ok(())
            }
            Report::Validate(r) => {
                let shape: Vec<usize> = r.groups.iter().map(|g| g.rows.len()).collect();
                check(shape == [6; 4], || {
                    format!("validate: rows per group {shape:?}, want 4 groups of 6")
                })
            }
        }
    }

    /// BADCO's error as the report measures it, in percent.
    pub fn accuracy(&self) -> Vec<(&'static str, f64)> {
        match self {
            Report::Fig2(r) => vec![
                ("cpi_err_2c_pct", r.mean_error(2) * 100.0),
                ("cpi_err_4c_pct", r.mean_error(4) * 100.0),
            ],
            Report::Validate(r) => vec![("ipc_err_pct", r.summary.ipc_err.mean_abs * 100.0)],
            Report::Fig3(_) | Report::Fig6(_) => Vec::new(),
        }
    }
}

fn harness_err(artifact: Artifact) -> impl Fn(mps_harness::Error) -> String {
    move |e| format!("{}: {e}", artifact.name())
}

/// Builds `artifact` on `ctx` and checks its shape.
pub fn build(ctx: &StudyContext, artifact: Artifact) -> Result<Report, String> {
    let err = harness_err(artifact);
    let report = match artifact {
        Artifact::Fig2 => Report::Fig2(experiments::fig2(ctx).map_err(err)?),
        Artifact::Fig3 => Report::Fig3(experiments::fig3(ctx).map_err(err)?),
        Artifact::Fig6 => Report::Fig6(experiments::fig6(ctx).map_err(err)?),
        Artifact::Validate => Report::Validate(Box::new(
            validate::run(ctx, &ValidateOptions::default()).map_err(err)?,
        )),
    };
    report.check(&ctx.scale)?;
    Ok(report)
}

/// Runs `f` with panics caught, so that a failing operation is counted
/// rather than ending the run.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("{what}: panicked: {msg}"))
    })
}

/// A study context with the benchmark's settings: one worker, on the
/// store rooted at `store` when one is given.
pub fn context(scale: &Scale, store: Option<&Path>) -> Result<StudyContext, String> {
    let b = StudyContext::builder().scale(scale.clone()).jobs(1);
    match store {
        Some(dir) => b
            .store(dir)
            .build()
            .map_err(|e| format!("open store {}: {e}", dir.display())),
        None => b.build().map_err(|e| format!("open context: {e}")),
    }
}

/// Figure 2's workloads, recovered from its points: each workload's
/// `cores` threads are consecutive points.
pub fn fig2_mixes(
    ctx: &StudyContext,
    r: &CpiAccuracyReport,
) -> Result<Vec<(usize, mps_sampling::Workload)>, String> {
    let mut mixes = Vec::new();
    let mut i = 0;
    while i < r.points.len() {
        let cores = r.points[i].cores;
        let points = r
            .points
            .get(i..i + cores)
            .ok_or("fig2: truncated workload")?;
        let benches = points
            .iter()
            .map(|p| {
                ctx.suite()
                    .iter()
                    .position(|b| b.name() == p.benchmark)
                    .map(|b| b as u16)
                    .ok_or_else(|| format!("fig2: unknown benchmark {}", p.benchmark))
            })
            .collect::<Result<Vec<u16>, String>>()?;
        mixes.push((cores, mps_sampling::Workload::new(benches)));
        i += cores;
    }
    Ok(mixes)
}

/// Figure 2's report from per-workload IPCs of both simulators, in the
/// order of `mixes` and of each workload's threads.
pub fn fig2_report(
    ctx: &StudyContext,
    mixes: &[(usize, mps_sampling::Workload)],
    detailed: &[Vec<f64>],
    badco: &[Vec<f64>],
) -> CpiAccuracyReport {
    let mut points = Vec::new();
    for (((cores, w), det), bad) in mixes.iter().zip(detailed).zip(badco) {
        for (k, &b) in w.benchmarks().iter().enumerate() {
            points.push(CpiPoint {
                cores: *cores,
                benchmark: ctx.suite()[b as usize].name().to_owned(),
                detailed_cpi: 1.0 / det[k],
                badco_cpi: 1.0 / bad[k],
            });
        }
    }
    CpiAccuracyReport { points }
}

pub type Counters = BTreeMap<String, u64>;

pub fn counters() -> Counters {
    mps_obs::counters_snapshot().into_iter().collect()
}

/// Growth of every counter from `before` to `after`.
pub fn growth(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

pub fn count(c: &Counters, name: &str) -> u64 {
    c.get(name).copied().unwrap_or(0)
}

/// The counters whose growth is an operation's exact amount of work. Every
/// operation must repeat the warm-up operation's counts, so that a cache
/// kept across operations in the process, which a CLI user building one
/// artifact per process would never see, cannot count as a speed-up.
pub const WORK: [&str; 6] = [
    "badco.model.builds",
    "sim.badco.runs",
    "sim.detailed.runs",
    "sim.detailed.cycles",
    "estimate.workloads_evaluated",
    "workloads.synth.uops",
];

/// The first three of [`WORK`]: simulator runs, training included.
const SIMULATIONS: usize = 3;

pub type Work = [u64; WORK.len()];

pub fn work(c: &Counters) -> Work {
    WORK.map(|name| count(c, name))
}

/// One timed unit: an operation or a set-up repetition.
#[derive(Debug)]
pub struct Timed {
    /// CPU seconds, uncalibrated.
    pub secs: f64,
    pub wall_s: f64,
    /// One report per artifact of the workload (none for set-up).
    pub result: Result<Vec<Report>, String>,
    /// Counter growth over the unit.
    pub counters: Counters,
    pub work: Work,
    /// Context artifact rebuilds (`cache_stats().misses()`).
    pub rebuilds: u64,
    pub store: StoreStats,
    /// Peak live heap above the unit's start, in MiB.
    pub peak_heap_mb: f64,
}

/// An error when a unit on a warm store ran a simulator or missed the
/// store: the store should serve every input.
pub fn warm_check(work: &Work, store: &StoreStats) -> Result<(), String> {
    let sims: u64 = work[..SIMULATIONS].iter().sum();
    check(sims == 0 && store.misses == 0, || {
        format!(
            "warm store ran {sims} simulations and missed {} artifacts",
            store.misses
        )
    })
}

/// Times `f` on a fresh context over `store`.
fn timed(
    scale: &Scale,
    store: &Path,
    f: impl FnOnce(&StudyContext) -> Result<Vec<Report>, String>,
) -> Timed {
    let heap0 = heap::reset_peak();
    let before = counters();
    let cpu0 = calib::cpu_seconds();
    let t0 = Instant::now();
    let (result, rebuilds, store_stats) = match context(scale, Some(store)) {
        Ok(ctx) => {
            let result = guarded("op", || f(&ctx));
            let stats = ctx.store_stats().unwrap_or_default();
            (result, ctx.cache_stats().misses(), stats)
        }
        Err(e) => (Err(e), 0, StoreStats::default()),
    };
    let secs = calib::cpu_seconds() - cpu0;
    let wall_s = t0.elapsed().as_secs_f64();
    let counters = growth(&before, &counters());
    Timed {
        secs,
        wall_s,
        result,
        work: work(&counters),
        counters,
        rebuilds,
        store: store_stats,
        peak_heap_mb: heap::peak().saturating_sub(heap0) as f64 / (1 << 20) as f64,
    }
}

/// The operation: a fresh context over `store` builds every artifact of
/// the workload.
pub fn op(wl: &Workload, scale: &Scale, store: &Path) -> Timed {
    timed(scale, store, |ctx| {
        wl.artifacts
            .iter()
            .map(|&a| guarded(a.name(), || build(ctx, a)))
            .collect()
    })
}

/// A set-up repetition: a fresh context over `store` until it holds the
/// shared inputs the operation reads.
pub fn setup(wl: &Workload, scale: &Scale, store: &Path) -> Timed {
    timed(scale, store, |ctx| {
        build_inputs(ctx, &wl.inputs)?;
        Ok(Vec::new())
    })
}

pub fn capture(ctx: &StudyContext) -> Result<(), String> {
    for b in 0..ctx.suite().len() {
        ctx.trace_buffer(b).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn train(ctx: &StudyContext, inputs: &Inputs) -> Result<(), String> {
    for &c in inputs.models {
        ctx.models(c).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn badco_refs(ctx: &StudyContext, inputs: &Inputs) -> Result<(), String> {
    for &c in inputs.badco_refs {
        ctx.badco_reference_ipcs(c).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn detailed_refs(ctx: &StudyContext, inputs: &Inputs) -> Result<(), String> {
    for &c in inputs.detailed_refs {
        ctx.detailed_reference_ipcs(c).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn build_inputs(ctx: &StudyContext, inputs: &Inputs) -> Result<(), String> {
    capture(ctx)?;
    train(ctx, inputs)?;
    badco_refs(ctx, inputs)?;
    detailed_refs(ctx, inputs)
}

/// Total size in bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Held by every test that simulates: the counters an operation's work is
/// checked against are process-global, and tests run on parallel threads.
#[cfg(test)]
pub fn simulating() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed whose 4-core draw ties DIP and DRRIP on all 100 workloads.
    const TIED: u64 = 0x2080366525;

    #[test]
    fn a_tied_draw_resolves_to_a_defined_figure_3() {
        let _lock = simulating();
        let wl = workload("badco-grid").unwrap();
        assert!(!fig3_defined(&(wl.scale)(TIED)).unwrap());
        let scale = scale_for(wl, TIED).unwrap();
        assert_ne!(scale.seed, TIED);
        assert_eq!(scale_for(wl, TIED).unwrap().seed, scale.seed);
        let ctx = context(&scale, None).unwrap();
        build(&ctx, Artifact::Fig3).unwrap();
    }

    #[test]
    fn a_separating_seed_is_kept() {
        let _lock = simulating();
        let wl = workload("badco-grid").unwrap();
        assert_eq!(scale_for(wl, 1).unwrap().seed, 1);
        let fixed = workload("scalar-accuracy").unwrap();
        assert_eq!(scale_for(fixed, TIED).unwrap().seed, FIXED_SEED);
    }
}
