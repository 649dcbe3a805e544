//! The traced operation: one operation split into the layers that produce
//! it. It calls each layer's public `StudyContext` functions in dependency
//! order (capture, training, references, tables, then the artifact calls
//! with warm inputs) and times each call from outside, inside a
//! `bench.<layer>` span under one `bench.op` root.

use crate::calib;
use crate::study::{self, count, growth, Counters, Report, Work, Workload};
use mps_harness::validate::ValidationReport;
use mps_harness::{Scale, StudyContext};
use mps_store::StoreStats;
use mps_uncore::PolicyKind;
use std::collections::BTreeMap;
use std::path::Path;

/// Seconds and counter growth of one layer, summed over its stages.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub secs: f64,
    pub counters: Counters,
}

pub type Layers = BTreeMap<&'static str, Layer>;

/// One traced operation.
#[derive(Debug)]
pub struct Traced {
    /// CPU seconds of the `bench.op` root, uncalibrated.
    pub secs: f64,
    /// The operation's stages by layer.
    pub stages: Layers,
    /// validate's cells replayed after the operation, by layer.
    pub replay: Layers,
    /// Counter growth over the operation (the replay excluded).
    pub counters: Counters,
    pub work: Work,
    pub store: StoreStats,
    /// One report per artifact; an error when a stage or the replay failed.
    pub result: Result<Vec<Report>, String>,
}

impl Traced {
    /// Seconds of `layer` over the operation and the replay.
    pub fn secs(&self, layer: &str) -> f64 {
        [&self.stages, &self.replay]
            .iter()
            .filter_map(|l| l.get(layer))
            .fold(0.0, |sum, l| sum + l.secs)
    }

    /// Growth of `counter` within the stages of `layers`, replay included.
    pub fn count_in(&self, layers: &[&str], counter: &str) -> u64 {
        [&self.stages, &self.replay]
            .iter()
            .flat_map(|l| layers.iter().filter_map(|name| l.get(name)))
            .map(|l| count(&l.counters, counter))
            .sum()
    }

    /// Seconds the operation spent inside any stage.
    pub fn attributed_s(&self) -> f64 {
        self.stages.values().fold(0.0, |sum, l| sum + l.secs)
    }
}

/// Times `f` as a stage of the layer its span `bench.<layer>` names,
/// adding its seconds and counter growth to `layers`.
fn stage<T>(
    layers: &mut Layers,
    span: &'static str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let layer = span
        .strip_prefix("bench.")
        .expect("stage spans are named bench.<layer>");
    let before = study::counters();
    let s = mps_obs::span(span);
    let t0 = calib::cpu_seconds();
    let out = f();
    let secs = calib::cpu_seconds() - t0;
    s.finish();
    let entry = layers.entry(layer).or_default();
    entry.secs += secs;
    for (name, d) in growth(&before, &study::counters()) {
        *entry.counters.entry(name).or_insert(0) += d;
    }
    out.map_err(|e| format!("{layer}: {e}"))
}

fn err(e: mps_harness::Error) -> String {
    e.to_string()
}

fn tables(ctx: &StudyContext, tables: &[(usize, PolicyKind)]) -> Result<(), String> {
    for &(c, p) in tables {
        ctx.badco_table(c, p).map_err(err)?;
    }
    Ok(())
}

/// The operation's stages up to its artifacts' reports. `reference`
/// holds the warm-up operation's reports: fig2's workloads come from it.
fn staged(
    wl: &Workload,
    ctx: &StudyContext,
    reference: &[Report],
    layers: &mut Layers,
) -> Result<Vec<Report>, String> {
    let inputs = &wl.inputs;
    let tabs = study::tables(wl.artifacts, &ctx.scale);
    if wl.warm {
        stage(layers, "bench.store.load", || {
            study::capture(ctx)?;
            study::train(ctx, inputs)?;
            study::badco_refs(ctx, inputs)?;
            study::detailed_refs(ctx, inputs)?;
            tables(ctx, &tabs)
        })?;
    } else {
        stage(layers, "bench.workloads.capture", || study::capture(ctx))?;
        stage(layers, "bench.badco.train", || study::train(ctx, inputs))?;
        stage(layers, "bench.badco.sim", || {
            study::badco_refs(ctx, inputs)?;
            tables(ctx, &tabs)
        })?;
        if !inputs.detailed_refs.is_empty() {
            stage(layers, "bench.sim_cpu.batched", || {
                study::detailed_refs(ctx, inputs)
            })?;
        }
    }
    let mut reports = Vec::new();
    for (&a, reference) in wl.artifacts.iter().zip(reference) {
        let report = match reference {
            Report::Fig3(_) | Report::Fig6(_) => {
                stage(layers, "bench.sampling.resample", || study::build(ctx, a))?
            }
            Report::Validate(_) => {
                stage(layers, "bench.harness.validate", || study::build(ctx, a))?
            }
            // fig2 interleaves the two simulators per workload; the traced
            // operation runs each simulator over all of them in its own
            // stage and rebuilds the report from the IPCs.
            Report::Fig2(r) => {
                let mixes = study::fig2_mixes(ctx, r)?;
                let detailed = stage(layers, "bench.sim_cpu.scalar", || {
                    mixes
                        .iter()
                        .map(|(c, w)| {
                            Ok(ctx.detailed_run(*c, PolicyKind::Lru, w).map_err(err)?.ipc)
                        })
                        .collect::<Result<Vec<_>, String>>()
                })?;
                let badco = stage(layers, "bench.badco.sim", || {
                    mixes
                        .iter()
                        .map(|(c, w)| ctx.badco_run(*c, PolicyKind::Lru, w).map_err(err))
                        .collect::<Result<Vec<_>, String>>()
                })?;
                let report = Report::Fig2(study::fig2_report(ctx, &mixes, &detailed, &badco));
                report.check(&ctx.scale)?;
                report
            }
        };
        reports.push(report);
    }
    Ok(reports)
}

/// Replays validate's cells once: the detailed side through one batched
/// call per (cores, policy) group, the BADCO side cell by cell. Both must
/// reproduce the report's IPCs.
fn replay_validate(
    ctx: &StudyContext,
    r: &ValidationReport,
    layers: &mut Layers,
) -> Result<(), String> {
    for g in &r.groups {
        let workloads: Vec<mps_sampling::Workload> = g
            .rows
            .iter()
            .map(|row| mps_sampling::Workload::new(row.benchmarks.clone()))
            .collect();
        let detailed = stage(layers, "bench.sim_cpu.batched", || {
            ctx.validation_detailed_ipcs_batch(g.cores, g.policy, &workloads)
                .map_err(err)
        })?;
        let models = ctx.models(g.cores).map_err(err)?;
        let badco: Vec<Vec<f64>> = stage(layers, "bench.badco.sim", || {
            Ok(workloads
                .iter()
                .map(|w| StudyContext::badco_run_with(&models, g.cores, g.policy, w))
                .collect())
        })?;
        for ((row, det), bad) in g.rows.iter().zip(&detailed).zip(&badco) {
            if &row.detailed_ipc != det || &row.badco_ipc != bad {
                return Err(format!(
                    "validate replay: {} {} {} IPCs differ from the report's",
                    g.cores, g.policy, row.name
                ));
            }
        }
    }
    Ok(())
}

/// Runs one traced operation of `wl` on a fresh context over `store`.
pub fn traced_op(wl: &Workload, scale: &Scale, store: &Path, reference: &[Report]) -> Traced {
    let mut stages = Layers::new();
    let mut replay = Layers::new();
    let before = study::counters();
    let root = mps_obs::span("bench.op");
    let t0 = calib::cpu_seconds();
    let built = study::guarded("traced op", || {
        let ctx = study::context(scale, Some(store))?;
        let reports = staged(wl, &ctx, reference, &mut stages)?;
        Ok((ctx, reports))
    });
    let secs = calib::cpu_seconds() - t0;
    root.finish();
    let counters = growth(&before, &study::counters());

    let mut store_stats = StoreStats::default();
    let result = built.and_then(|(ctx, reports)| {
        store_stats = ctx.store_stats().unwrap_or_default();
        for r in &reports {
            if let Report::Validate(v) = r {
                let _root = mps_obs::span("bench.replay");
                study::guarded("validate replay", || replay_validate(&ctx, v, &mut replay))?;
                let cycles = |l: &Layers, layer| {
                    l.get(layer)
                        .map_or(0, |l: &Layer| count(&l.counters, "sim.detailed.cycles"))
                };
                let (ran, replayed) = (
                    cycles(&stages, "harness.validate"),
                    cycles(&replay, "sim_cpu.batched"),
                );
                if ran != replayed {
                    return Err(format!(
                        "validate replay: {replayed} detailed cycles, the cells ran {ran}"
                    ));
                }
            }
        }
        Ok(reports)
    });
    Traced {
        secs,
        stages,
        replay,
        work: study::work(&counters),
        counters,
        store: store_stats,
        result,
    }
}
