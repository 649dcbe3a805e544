//! Model validation: the BADCO-vs-detailed error-bound sweep behind
//! `mps-harness validate`.
//!
//! The paper's methodology rests on the approximate (BADCO) simulator
//! tracking the detailed one closely enough that sample-selection
//! conclusions transfer. Approximate models drift silently as a codebase
//! evolves, so this module sweeps a seeded grid of workload combinations
//! through *both* simulators and summarizes the disagreement three ways:
//!
//! * per-thread relative IPC error (signed and absolute) — the Figure 2
//!   accuracy quantity,
//! * throughput-rank inversions (Kendall tau between the two models'
//!   workload orderings per `(cores, policy)` cell) — the paper's
//!   selection decisions depend on ranks, not raw IPC,
//! * the same IPC errors broken down per MPKI stratum, since model error
//!   concentrates in memory-intensive benchmarks.
//!
//! The resulting [`ValidationReport`] renders as text, CSV and a
//! schema-versioned JSONL record; all three are **byte-deterministic**
//! for a given [`crate::Scale`] and [`ValidateOptions`] — independent of
//! `--jobs` — except the informational `timing:` line of the text form.
//!
//! CI gates on **drift against a pinned baseline report**, not on
//! absolute error: the simulators are deterministic, so an unmodified
//! model reproduces its checked-in baseline exactly, and any growth in
//! error is a code change showing through. [`FailOn`] parses thresholds
//! like `mean-abs-err=5%,rank-inversions=3` (≤ 5 % relative growth of
//! the mean absolute IPC error, ≤ 3 new rank inversions) the same way
//! `trace diff --fail-on-regress` gates counter growth. See
//! `docs/validation.md` for the methodology and the re-baselining
//! procedure.

use crate::dist::{self, CellDesc, DistCell, ValSide};
use crate::runner::{experiment_uncore, StudyContext};
use mps_badco::BadcoModel;
use mps_sampling::{Workload, WorkloadSpace};
use mps_stats::error_bounds::{kendall, relative_errors, ErrorStats, RankAgreement};
use mps_store::Error;
use mps_uncore::PolicyKind;
use mps_workloads::MpkiClass;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Schema of the JSONL validation report. Bump when a field changes
/// meaning; readers reject reports from the future instead of misreading
/// them.
pub const VALIDATE_SCHEMA: u32 = 1;

/// Seed stream tag for the validation grid's workload draws (distinct
/// from every experiment stream). `pub(crate)` so distributed workers
/// re-derive the same workloads from a cell descriptor (see
/// [`crate::dist`]).
pub(crate) const VALIDATE_STREAM: u64 = 0x5641_4C31;

/// Sizing and perturbation knobs of one validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateOptions {
    /// Core counts to sweep (Table II defines 2, 4 and 8).
    pub core_counts: Vec<usize>,
    /// Replacement policies to sweep per core count.
    pub policies: Vec<PolicyKind>,
    /// Seeded random workloads per `(cores, policy)` cell.
    pub workloads_per_group: usize,
    /// Coefficient perturbation applied to every BADCO model via
    /// [`BadcoModel::perturbed`]; `1.0` (the default) validates the
    /// unmodified model. Any other value exists solely to prove the
    /// drift gate fires — see `docs/validation.md`.
    pub perturb: f64,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            core_counts: vec![2, 4],
            policies: vec![PolicyKind::Lru, PolicyKind::Drrip],
            workloads_per_group: 6,
            perturb: 1.0,
        }
    }
}

impl ValidateOptions {
    /// Canonical fingerprint of the sweep's *grid* knobs, mixed into the
    /// report spec so a baseline only ever gates a sweep of the same
    /// shape. `perturb` is deliberately **excluded**: a perturbed model
    /// must masquerade as the real one so the drift gate catches it
    /// against the honest baseline (the factor is still recorded in the
    /// report header and kept out of shared cell journal entries, whose
    /// descriptor carries it).
    pub fn spec_string(&self) -> String {
        let cores: Vec<String> = self.core_counts.iter().map(|c| c.to_string()).collect();
        let pols: Vec<String> = self.policies.iter().map(|p| p.to_string()).collect();
        format!(
            "cores={};policies={};w={}",
            cores.join("-"),
            pols.join("-"),
            self.workloads_per_group,
        )
    }

    fn check(&self) -> Result<(), Error> {
        if self.core_counts.is_empty() || self.policies.is_empty() || self.workloads_per_group == 0
        {
            return Err(Error::InvalidInput(
                "validation sweep needs at least one core count, policy and workload".to_owned(),
            ));
        }
        for &c in &self.core_counts {
            if !matches!(c, 1 | 2 | 4 | 8) {
                return Err(Error::InvalidInput(format!(
                    "Table II defines 1-, 2-, 4- and 8-core uncores (got {c})"
                )));
            }
        }
        if !(self.perturb.is_finite() && self.perturb > 0.0) {
            return Err(Error::InvalidInput(format!(
                "perturbation factor must be finite and positive (got {})",
                self.perturb
            )));
        }
        Ok(())
    }
}

/// One validated workload: paired per-thread IPCs and the derived
/// weighted-speedup throughputs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadValidation {
    /// Benchmark names joined with `+` (e.g. `gcc+mcf`).
    pub name: String,
    /// Suite indices of the co-scheduled benchmarks.
    pub benchmarks: Vec<u16>,
    /// Per-thread IPCs from the detailed simulator.
    pub detailed_ipc: Vec<f64>,
    /// Per-thread IPCs from BADCO.
    pub badco_ipc: Vec<f64>,
    /// Weighted speedup under the detailed model (detailed references).
    pub detailed_throughput: f64,
    /// Weighted speedup under BADCO (BADCO references) — model-matched,
    /// as everywhere else in the reproduction.
    pub badco_throughput: f64,
}

impl WorkloadValidation {
    /// Signed per-thread relative IPC errors (BADCO vs detailed).
    pub fn thread_errors(&self) -> Vec<f64> {
        relative_errors(&self.badco_ipc, &self.detailed_ipc)
    }

    /// Signed relative throughput error.
    pub fn throughput_error(&self) -> f64 {
        (self.badco_throughput - self.detailed_throughput) / self.detailed_throughput
    }
}

/// Error statistics of one `(cores, policy)` grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupValidation {
    /// Core count of the cell.
    pub cores: usize,
    /// Replacement policy of the cell.
    pub policy: PolicyKind,
    /// Canonical uncore fingerprint the cell simulated against.
    pub uncore_spec: String,
    /// Per-workload rows, in draw order.
    pub rows: Vec<WorkloadValidation>,
    /// Per-thread IPC error summary over every row.
    pub ipc_err: ErrorStats,
    /// Per-workload throughput error summary.
    pub throughput_err: ErrorStats,
    /// Ordering agreement between the two models' throughput rankings.
    pub rank: RankAgreement,
}

/// Whole-sweep aggregates — the quantities [`FailOn`] gates on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ValidationSummary {
    /// Pooled per-thread IPC error over every group.
    pub ipc_err: ErrorStats,
    /// Pooled per-workload throughput error over every group.
    pub throughput_err: ErrorStats,
    /// Rank inversions (discordant pairs) summed over groups.
    pub rank_inversions: usize,
    /// Mean Kendall tau over groups.
    pub mean_tau: f64,
    /// Workloads validated.
    pub workloads: usize,
    /// Threads (per-workload cores) validated.
    pub threads: usize,
}

/// The complete result of one validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Full artifact spec (scale + suite + sweep knobs) — baselines only
    /// compare against reports with an identical spec.
    pub spec: String,
    /// The sweep's sizing/perturbation knobs.
    pub opts: ValidateOptions,
    /// One entry per `(cores, policy)` cell, in sweep order.
    pub groups: Vec<GroupValidation>,
    /// Pooled per-thread IPC error per MPKI stratum, indexed like
    /// [`MpkiClass::ALL`].
    pub strata: [ErrorStats; 3],
    /// Whole-sweep aggregates.
    pub summary: ValidationSummary,
    /// Wall-clock of the sweep — informational only: printed on the text
    /// report's `timing:` line, excluded from CSV and JSONL so those
    /// artifacts stay byte-deterministic.
    pub wall_ms: u128,
}

/// The spec under which validation reports are keyed.
fn sweep_spec(ctx: &StudyContext, opts: &ValidateOptions) -> String {
    ctx.artifact_spec(&format!("validate;{}", opts.spec_string()))
}

/// Runs the validation sweep. Deterministic for a given context scale and
/// options. With a store, each cell side is a store record keyed by its
/// full descriptor — core count, policy, the policy's position in the
/// sweep (its seed stream), workload index, perturbation factor and side —
/// so any sweep on the same store reuses exactly the sides it shares.
///
/// # Errors
///
/// Invalid options, or any failure of the underlying model/trace
/// accessors.
pub fn run(ctx: &StudyContext, opts: &ValidateOptions) -> Result<ValidationReport, Error> {
    opts.check()?;
    let t0 = Instant::now();
    let span = mps_obs::span("validate.run");
    mps_obs::counter("validate.runs").incr();

    // With a coordinator attached, warm the store's shared artifacts
    // (models, reference IPCs) through the workers first — every process
    // then loads the same bytes instead of re-simulating.
    let mut refs: Vec<dist::PrefetchKind> = Vec::new();
    for &cores in &opts.core_counts {
        let kind = dist::PrefetchKind::Refs { cores };
        if !refs.contains(&kind) {
            refs.push(kind);
        }
    }
    dist::prefetch(ctx, "validate", &refs)?;

    // Draw every cell's workloads up front from per-(cores, policy) seed
    // streams: the grid contents are fixed before any parallelism starts.
    let suite = ctx.suite();
    let mut cells: Vec<Cell> = Vec::new();
    for &cores in &opts.core_counts {
        let space = WorkloadSpace::new(suite.len(), cores);
        for (p_idx, &policy) in opts.policies.iter().enumerate() {
            let mut rng = ctx.rng(VALIDATE_STREAM ^ ((cores as u64) << 20) ^ (p_idx as u64));
            for widx in 0..opts.workloads_per_group {
                cells.push(Cell {
                    cores,
                    policy,
                    p_idx,
                    widx,
                    workload: space.random_workload(&mut rng),
                });
            }
        }
    }

    // In process, look up every cell's BADCO side first: a core count's
    // model set is needed only if one of its BADCO sides is not stored.
    // (A coordinator looks its cells up itself, and may fall back to
    // evaluating any of them here.)
    let local = ctx.coordinator().is_none();
    let badco_stored: Vec<Option<Vec<f64>>> = cells
        .iter()
        .map(|cell| {
            let desc = cell.desc(opts.perturb, ValSide::Badco);
            local
                .then(|| ctx.replayed_cell("validate", &desc))
                .flatten()
        })
        .collect();

    // Prefetch shared artifacts through the validated accessors so the
    // parallel cells below cannot fail, and apply the perturbation once
    // per core count (never into the context's model cache). The
    // reference IPCs are fetched whatever the store holds: the
    // aggregation below reads them.
    let mut per_cores: Vec<(usize, PerCores)> = Vec::new();
    for &cores in &opts.core_counts {
        if per_cores.iter().any(|(c, _)| *c == cores) {
            continue;
        }
        let needs_models = !local
            || cells
                .iter()
                .zip(&badco_stored)
                .any(|(cell, stored)| cell.cores == cores && stored.is_none());
        let models = if !needs_models {
            None
        } else if opts.perturb == 1.0 {
            Some(ctx.models(cores)?)
        } else {
            Some(
                ctx.models(cores)?
                    .iter()
                    .map(|m| Arc::new(m.perturbed(opts.perturb)))
                    .collect(),
            )
        };
        per_cores.push((
            cores,
            PerCores {
                models,
                detailed_refs: ctx.detailed_reference_ipcs(cores)?,
                badco_refs: ctx.badco_reference_ipcs(cores)?,
            },
        ));
    }

    let results: IpcPairs = if !local {
        validate_distributed(ctx, opts, &cells, &per_cores)?
    } else {
        let pairs = mps_par::par_map_indexed(ctx.jobs(), &cells, |i, cell| {
            let detailed = ctx.grid_cell(
                "validate",
                &cell.desc(opts.perturb, ValSide::Detailed),
                || cell.evaluate(ctx, ValSide::Detailed, &per_cores),
            );
            detailed.and_then(|det| {
                let bad = match &badco_stored[i] {
                    Some(values) => values.clone(),
                    None => {
                        let desc = cell.desc(opts.perturb, ValSide::Badco);
                        ctx.fresh_cell("validate", &desc, || {
                            cell.evaluate(ctx, ValSide::Badco, &per_cores)
                        })?
                    }
                };
                Ok((det, bad))
            })
        });
        pairs.into_iter().collect::<Result<_, _>>()?
    };

    // Merge in cell order (index-ordered by construction) and aggregate —
    // all statistics and estimator recordings happen here, on one thread,
    // in draw order, which is what keeps the report and the ledger's
    // estimators byte-stable across --jobs.
    let mut groups: Vec<GroupValidation> = Vec::new();
    let mut stratum_errs: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (cell, (det, bad)) in cells.iter().zip(&results) {
        let pc = &per_cores
            .iter()
            .find(|(c, _)| *c == cell.cores)
            .expect("prefetched above")
            .1;
        let need_new = groups
            .last()
            .is_none_or(|g| g.cores != cell.cores || g.policy != cell.policy);
        if need_new {
            groups.push(GroupValidation {
                cores: cell.cores,
                policy: cell.policy,
                uncore_spec: experiment_uncore(cell.cores, cell.policy).spec_string(),
                rows: Vec::new(),
                ipc_err: ErrorStats::default(),
                throughput_err: ErrorStats::default(),
                rank: RankAgreement::default(),
            });
        }
        let wsu = |ipcs: &[f64], refs: &[f64]| -> f64 {
            cell.workload
                .benchmarks()
                .iter()
                .zip(ipcs)
                .map(|(&b, ipc)| ipc / refs[b as usize])
                .sum()
        };
        let row = WorkloadValidation {
            name: cell
                .workload
                .benchmarks()
                .iter()
                .map(|&b| suite[b as usize].name())
                .collect::<Vec<_>>()
                .join("+"),
            benchmarks: cell.workload.benchmarks().to_vec(),
            detailed_ipc: det.clone(),
            badco_ipc: bad.clone(),
            detailed_throughput: wsu(det, &pc.detailed_refs),
            badco_throughput: wsu(bad, &pc.badco_refs),
        };
        for (err, &b) in row.thread_errors().iter().zip(&row.benchmarks) {
            stratum_errs[suite[b as usize].nominal_class.index()].push(*err);
        }
        groups.last_mut().expect("pushed above").rows.push(row);
    }

    for g in &mut groups {
        let thread_errs: Vec<f64> = g.rows.iter().flat_map(|r| r.thread_errors()).collect();
        let thr_errs: Vec<f64> = g.rows.iter().map(|r| r.throughput_error()).collect();
        let det_thr: Vec<f64> = g.rows.iter().map(|r| r.detailed_throughput).collect();
        let bad_thr: Vec<f64> = g.rows.iter().map(|r| r.badco_throughput).collect();
        g.ipc_err = ErrorStats::of(&thread_errs);
        g.throughput_err = ErrorStats::of(&thr_errs);
        g.rank = kendall(&det_thr, &bad_thr);
        mps_obs::estimator("validate.ipc.err").record_many(&thread_errs);
        let abs: Vec<f64> = thread_errs.iter().map(|e| e.abs()).collect();
        mps_obs::estimator("validate.ipc.abs_err").record_many(&abs);
        let thr_abs: Vec<f64> = thr_errs.iter().map(|e| e.abs()).collect();
        mps_obs::estimator("validate.thr.abs_err").record_many(&thr_abs);
        mps_obs::event(
            "validate.group.done",
            &[
                ("cores", g.cores.to_string()),
                ("policy", g.policy.to_string()),
                ("mean_abs_err", format!("{}", g.ipc_err.mean_abs)),
                ("inversions", g.rank.discordant.to_string()),
            ],
        );
    }

    let summary = ValidationSummary {
        ipc_err: ErrorStats::pooled(groups.iter().map(|g| &g.ipc_err)),
        throughput_err: ErrorStats::pooled(groups.iter().map(|g| &g.throughput_err)),
        rank_inversions: groups.iter().map(|g| g.rank.discordant).sum(),
        mean_tau: groups.iter().map(|g| g.rank.tau()).sum::<f64>() / groups.len() as f64,
        workloads: groups.iter().map(|g| g.rows.len()).sum(),
        threads: groups.iter().map(|g| g.rows.len() * g.cores).sum(),
    };
    let strata = stratum_errs.map(|errs| ErrorStats::of(&errs));
    span.finish();
    Ok(ValidationReport {
        spec: sweep_spec(ctx, opts),
        opts: opts.clone(),
        groups,
        strata,
        summary,
        wall_ms: t0.elapsed().as_millis(),
    })
}

struct PerCores {
    /// `None` when the store holds every BADCO side of the core count.
    models: Option<Vec<Arc<BadcoModel>>>,
    detailed_refs: Vec<f64>,
    badco_refs: Vec<f64>,
}

struct Cell {
    cores: usize,
    policy: PolicyKind,
    /// Index of `policy` in the sweep's policy list — names the seed
    /// stream the workload was drawn from, so a distributed worker can
    /// re-derive `workload` from `(cores, p_idx, widx)` alone.
    p_idx: usize,
    widx: usize,
    workload: Workload,
}

impl Cell {
    /// The descriptor of one side of this cell: what keys its store
    /// record and what a distributed worker evaluates it from.
    fn desc(&self, perturb: f64, side: ValSide) -> CellDesc {
        CellDesc::Validate {
            cores: self.cores,
            policy: self.policy,
            p_idx: self.p_idx,
            widx: self.widx,
            perturb,
            side,
        }
    }

    /// The per-thread IPCs of one side, computed in this process.
    fn evaluate(
        &self,
        ctx: &StudyContext,
        side: ValSide,
        per_cores: &[(usize, PerCores)],
    ) -> Result<Vec<f64>, Error> {
        Ok(match side {
            ValSide::Detailed => {
                ctx.validation_detailed_ipcs(self.cores, self.policy, &self.workload)?
            }
            ValSide::Badco => {
                let models = &per_cores
                    .iter()
                    .find(|(c, _)| *c == self.cores)
                    .expect("prefetched by the sweep")
                    .1
                    .models
                    .as_deref()
                    .expect("fetched for every core count with a BADCO side to compute");
                StudyContext::badco_run_with(models, self.cores, self.policy, &self.workload)
            }
        })
    }
}

/// One cell's per-thread IPCs from both simulators: `(detailed, badco)`.
type IpcPairs = Vec<(Vec<f64>, Vec<f64>)>;

/// Distributed evaluation of the validation grid: each `Cell` becomes
/// two [`DistCell`]s (detailed side, BADCO side) with the descriptors the
/// in-process path records under, so single-process, distributed and
/// rerun sweeps all produce byte-identical reports.
fn validate_distributed(
    ctx: &StudyContext,
    opts: &ValidateOptions,
    cells: &[Cell],
    per_cores: &[(usize, PerCores)],
) -> Result<IpcPairs, Error> {
    let mut dcells = Vec::with_capacity(cells.len() * 2);
    for cell in cells {
        for (model, side) in [("det", ValSide::Detailed), ("badco", ValSide::Badco)] {
            dcells.push(DistCell {
                id: format!(
                    "perturb={};c={};p={};w={};m={model}",
                    opts.perturb, cell.cores, cell.policy, cell.widx
                ),
                desc: cell.desc(opts.perturb, side),
            });
        }
    }
    let values = dist::run_grid(ctx, "validate", &dcells, &|i, dc| {
        let CellDesc::Validate { side, .. } = dc.desc else {
            unreachable!("validate grid contains only validate cells");
        };
        cells[i / 2].evaluate(ctx, side, per_cores)
    })?;
    Ok(values
        .chunks(2)
        .map(|pair| (pair[0].clone(), pair[1].clone()))
        .collect())
}

fn pct(x: f64) -> f64 {
    x * 100.0
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "VALIDATION: BADCO vs detailed simulator (schema {VALIDATE_SCHEMA})"
        )?;
        writeln!(f, "  spec: {}", self.spec)?;
        let s = &self.summary;
        writeln!(
            f,
            "  grid: {} groups x {} workloads ({} threads); perturb x{}",
            self.groups.len(),
            self.opts.workloads_per_group,
            s.threads,
            self.opts.perturb
        )?;
        writeln!(
            f,
            "  {:>5} {:>6} {:>3} {:>9} {:>8} {:>8} {:>8} {:>6} {:>4}",
            "cores", "policy", "wl", "mean|e|%", "max|e|%", "bias%", "thr|e|%", "tau", "inv"
        )?;
        for g in &self.groups {
            writeln!(
                f,
                "  {:>5} {:>6} {:>3} {:>9.2} {:>8.2} {:>+8.2} {:>8.2} {:>6.2} {:>4}",
                g.cores,
                g.policy.to_string(),
                g.rows.len(),
                pct(g.ipc_err.mean_abs),
                pct(g.ipc_err.max_abs),
                pct(g.ipc_err.mean_signed),
                pct(g.throughput_err.mean_abs),
                g.rank.tau(),
                g.rank.discordant
            )?;
        }
        writeln!(f, "  per-MPKI-stratum per-thread IPC error:")?;
        for (class, st) in MpkiClass::ALL.iter().zip(&self.strata) {
            writeln!(
                f,
                "  {:>8} n={:<3} mean|e|={:.2}% max|e|={:.2}% bias={:+.2}%",
                class.to_string(),
                st.n,
                pct(st.mean_abs),
                pct(st.max_abs),
                pct(st.mean_signed)
            )?;
        }
        writeln!(
            f,
            "  summary: mean-abs-err={:.2}% max-abs-err={:.2}% bias={:+.2}% thr-err={:.2}% \
             rank-inversions={} tau={:.2} ({} workloads, {} threads)",
            pct(s.ipc_err.mean_abs),
            pct(s.ipc_err.max_abs),
            pct(s.ipc_err.mean_signed),
            pct(s.throughput_err.mean_abs),
            s.rank_inversions,
            s.mean_tau,
            s.workloads,
            s.threads
        )?;
        writeln!(
            f,
            "  timing: wall {} ms (informational; excluded from CSV/JSONL)",
            self.wall_ms
        )
    }
}

impl crate::export::CsvExport for ValidationReport {
    fn csv(&self) -> String {
        let mut out = String::from(
            "cores,policy,workload,detailed_throughput,badco_throughput,\
             throughput_rel_err,mean_abs_thread_err\n",
        );
        for g in &self.groups {
            for r in &g.rows {
                let errs = r.thread_errors();
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}\n",
                    g.cores,
                    g.policy,
                    r.name,
                    r.detailed_throughput,
                    r.badco_throughput,
                    r.throughput_error(),
                    ErrorStats::of(&errs).mean_abs,
                ));
            }
        }
        out
    }
}

/// Joins floats with spaces using the exact shortest-round-trip `Display`
/// form, so JSONL readers recover the bit-identical values.
fn join_f64s(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl ValidationReport {
    /// The schema-versioned JSONL rendering: a header line, one line per
    /// workload, one per group, one per stratum and one summary line, all
    /// in the obs event encoding (so `mps-harness trace`-grade tooling
    /// parses validation reports too). Byte-deterministic — wall-clock is
    /// deliberately excluded.
    pub fn to_jsonl(&self) -> String {
        let ev = mps_obs::jsonl::encode_event;
        let mut out = String::new();
        out.push_str(&ev(
            "validate.header",
            &[
                ("schema", VALIDATE_SCHEMA.to_string()),
                ("spec", self.spec.clone()),
                ("kernel_rev", mps_store::KERNEL_REV.to_string()),
                ("perturb", format!("{}", self.opts.perturb)),
            ],
        ));
        out.push('\n');
        for g in &self.groups {
            for r in &g.rows {
                out.push_str(&ev(
                    "validate.workload",
                    &[
                        ("cores", g.cores.to_string()),
                        ("policy", g.policy.to_string()),
                        ("workload", r.name.clone()),
                        ("detailed_ipc", join_f64s(&r.detailed_ipc)),
                        ("badco_ipc", join_f64s(&r.badco_ipc)),
                        ("detailed_thr", format!("{}", r.detailed_throughput)),
                        ("badco_thr", format!("{}", r.badco_throughput)),
                    ],
                ));
                out.push('\n');
            }
            out.push_str(&ev(
                "validate.group",
                &[
                    ("cores", g.cores.to_string()),
                    ("policy", g.policy.to_string()),
                    ("uncore", g.uncore_spec.clone()),
                    ("workloads", g.rows.len().to_string()),
                    ("mean_abs_err", format!("{}", g.ipc_err.mean_abs)),
                    ("max_abs_err", format!("{}", g.ipc_err.max_abs)),
                    ("mean_err", format!("{}", g.ipc_err.mean_signed)),
                    ("rms_err", format!("{}", g.ipc_err.rms)),
                    ("thr_mean_abs_err", format!("{}", g.throughput_err.mean_abs)),
                    ("tau", format!("{}", g.rank.tau())),
                    ("inversions", g.rank.discordant.to_string()),
                    ("pairs", g.rank.pairs.to_string()),
                ],
            ));
            out.push('\n');
        }
        for (class, st) in MpkiClass::ALL.iter().zip(&self.strata) {
            out.push_str(&ev(
                "validate.stratum",
                &[
                    ("class", class.to_string()),
                    ("n", st.n.to_string()),
                    ("mean_abs_err", format!("{}", st.mean_abs)),
                    ("max_abs_err", format!("{}", st.max_abs)),
                    ("mean_err", format!("{}", st.mean_signed)),
                ],
            ));
            out.push('\n');
        }
        let s = &self.summary;
        out.push_str(&ev(
            "validate.summary",
            &[
                ("schema", VALIDATE_SCHEMA.to_string()),
                ("mean_abs_err", format!("{}", s.ipc_err.mean_abs)),
                ("max_abs_err", format!("{}", s.ipc_err.max_abs)),
                ("mean_err", format!("{}", s.ipc_err.mean_signed)),
                ("rms_err", format!("{}", s.ipc_err.rms)),
                ("thr_mean_abs_err", format!("{}", s.throughput_err.mean_abs)),
                ("rank_inversions", s.rank_inversions.to_string()),
                ("mean_tau", format!("{}", s.mean_tau)),
                ("workloads", s.workloads.to_string()),
                ("threads", s.threads.to_string()),
            ],
        ));
        out.push('\n');
        out
    }
}

/// The baseline a drift gate compares against: the spec and summary
/// parsed back out of a previously emitted JSONL report.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Spec of the baselined sweep (must match the current one exactly).
    pub spec: String,
    /// Summary statistics of the baselined sweep.
    pub mean_abs_err: f64,
    /// Largest absolute per-thread error of the baselined sweep.
    pub max_abs_err: f64,
    /// Total rank inversions of the baselined sweep.
    pub rank_inversions: usize,
}

impl Baseline {
    /// Extracts the baseline from a JSONL validation report.
    ///
    /// # Errors
    ///
    /// A description of what is missing or malformed — including reports
    /// written by a *newer* [`VALIDATE_SCHEMA`], which must be rejected
    /// rather than misread.
    pub fn parse(report: &str) -> Result<Baseline, String> {
        let mut spec = None;
        let mut summary = None;
        for line in report.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(mps_obs::jsonl::Record::Event { name, fields }) = mps_obs::jsonl::parse(line)
            else {
                continue; // torn or foreign line: the named events decide
            };
            let schema: u32 = fields
                .get("schema")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            match name.as_str() {
                "validate.header" => {
                    if schema > VALIDATE_SCHEMA {
                        return Err(format!(
                            "baseline written by future validate schema {schema} \
                             (this build reads <= {VALIDATE_SCHEMA})"
                        ));
                    }
                    spec = fields.get("spec").cloned();
                }
                "validate.summary" => {
                    let f = |k: &str| -> Result<f64, String> {
                        fields
                            .get(k)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| format!("summary field '{k}' missing or non-numeric"))
                    };
                    summary = Some((
                        f("mean_abs_err")?,
                        f("max_abs_err")?,
                        f("rank_inversions")? as usize,
                    ));
                }
                _ => {}
            }
        }
        let spec = spec.ok_or("no validate.header line in baseline")?;
        let (mean_abs_err, max_abs_err, rank_inversions) =
            summary.ok_or("no validate.summary line in baseline")?;
        Ok(Baseline {
            spec,
            mean_abs_err,
            max_abs_err,
            rank_inversions,
        })
    }

    /// The baseline shipped in the binary for the given spec, if any.
    /// Today that is the `--scale test` default-options sweep (the one CI
    /// gates on); `--baseline FILE` overrides for anything else.
    pub fn embedded(spec: &str) -> Option<Baseline> {
        const EMBEDDED: &[&str] = &[include_str!("../baselines/validate-test.jsonl")];
        EMBEDDED
            .iter()
            .filter_map(|text| Baseline::parse(text).ok())
            .find(|b| b.spec == spec)
    }
}

/// Parsed `--fail-on` drift thresholds.
///
/// Percent-suffixed keys bound the *relative growth* of that error
/// statistic over the baseline (`mean-abs-err=5%`: the mean absolute IPC
/// error may exceed the baseline's by at most 5 % of the baseline value);
/// `rank-inversions=N` bounds the absolute increase in discordant pairs.
/// Shrinking error never fails.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FailOn {
    /// Allowed relative growth of the pooled mean absolute IPC error.
    pub mean_abs_err: Option<f64>,
    /// Allowed relative growth of the largest absolute IPC error.
    pub max_abs_err: Option<f64>,
    /// Allowed increase in total rank inversions.
    pub rank_inversions: Option<usize>,
}

impl FailOn {
    /// Parses `key=value[,key=value...]` with keys `mean-abs-err`,
    /// `max-abs-err` (percent values) and `rank-inversions` (a count).
    ///
    /// # Errors
    ///
    /// A usage message naming the offending entry.
    pub fn parse(s: &str) -> Result<FailOn, String> {
        let mut out = FailOn::default();
        for entry in s.split(',').filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("'{entry}' is not key=value"))?;
            let pct = |v: &str| -> Result<f64, String> {
                v.strip_suffix('%')
                    .unwrap_or(v)
                    .parse::<f64>()
                    .ok()
                    .filter(|p| *p >= 0.0)
                    .map(|p| p / 100.0)
                    .ok_or_else(|| format!("'{value}' is not a percentage in '{entry}'"))
            };
            match key {
                "mean-abs-err" => out.mean_abs_err = Some(pct(value)?),
                "max-abs-err" => out.max_abs_err = Some(pct(value)?),
                "rank-inversions" => {
                    out.rank_inversions = Some(
                        value
                            .parse()
                            .map_err(|_| format!("'{value}' is not a count in '{entry}'"))?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown threshold '{other}' (use mean-abs-err, max-abs-err, \
                         rank-inversions)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Every threshold the report breaches against the baseline, as
    /// human-readable verdicts; empty means the gate passes.
    ///
    /// A spec mismatch is reported as a breach of its own kind — gating
    /// against a baseline from a different sweep would be meaningless.
    pub fn breaches(&self, report: &ValidationReport, baseline: &Baseline) -> Vec<String> {
        let mut out = Vec::new();
        if report.spec != baseline.spec {
            out.push(format!(
                "baseline spec mismatch: report is '{}' but baseline is '{}' \
                 (re-baseline per docs/validation.md)",
                report.spec, baseline.spec
            ));
            return out;
        }
        let s = &report.summary;
        let rel = |cur: f64, base: f64, allowed: f64, what: &str| -> Option<String> {
            let limit = base * (1.0 + allowed);
            (cur > limit).then(|| {
                format!(
                    "{what} drifted: {:.3}% vs baseline {:.3}% (allowed +{}%: {:.3}%)",
                    pct(cur),
                    pct(base),
                    pct(allowed),
                    pct(limit)
                )
            })
        };
        if let Some(allowed) = self.mean_abs_err {
            out.extend(rel(
                s.ipc_err.mean_abs,
                baseline.mean_abs_err,
                allowed,
                "mean-abs-err",
            ));
        }
        if let Some(allowed) = self.max_abs_err {
            out.extend(rel(
                s.ipc_err.max_abs,
                baseline.max_abs_err,
                allowed,
                "max-abs-err",
            ));
        }
        if let Some(allowed) = self.rank_inversions {
            let limit = baseline.rank_inversions + allowed;
            if s.rank_inversions > limit {
                out.push(format!(
                    "rank-inversions drifted: {} vs baseline {} (allowed +{allowed})",
                    s.rank_inversions, baseline.rank_inversions
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(mean_abs: f64, max_abs: f64, inversions: usize) -> ValidationReport {
        ValidationReport {
            spec: "spec-a".to_owned(),
            opts: ValidateOptions::default(),
            groups: Vec::new(),
            strata: [ErrorStats::default(); 3],
            summary: ValidationSummary {
                ipc_err: ErrorStats {
                    n: 10,
                    mean_abs,
                    max_abs,
                    ..ErrorStats::default()
                },
                rank_inversions: inversions,
                ..ValidationSummary::default()
            },
            wall_ms: 0,
        }
    }

    fn baseline() -> Baseline {
        Baseline {
            spec: "spec-a".to_owned(),
            mean_abs_err: 0.10,
            max_abs_err: 0.30,
            rank_inversions: 6,
        }
    }

    #[test]
    fn fail_on_parses_the_documented_form() {
        let f = FailOn::parse("mean-abs-err=5%,rank-inversions=3").unwrap();
        assert_eq!(f.mean_abs_err, Some(0.05));
        assert_eq!(f.rank_inversions, Some(3));
        assert_eq!(f.max_abs_err, None);
        assert!(FailOn::parse("mean-abs-err=five").is_err());
        assert!(FailOn::parse("bogus=1").is_err());
        assert!(FailOn::parse("mean-abs-err").is_err());
    }

    #[test]
    fn identical_run_passes_every_gate() {
        let f = FailOn::parse("mean-abs-err=5%,max-abs-err=5%,rank-inversions=0").unwrap();
        let rep = report_with(0.10, 0.30, 6);
        assert!(f.breaches(&rep, &baseline()).is_empty());
    }

    #[test]
    fn relative_growth_beyond_allowance_breaches() {
        let f = FailOn::parse("mean-abs-err=5%").unwrap();
        // 10% -> 10.4%: inside the 5% relative allowance.
        assert!(f
            .breaches(&report_with(0.104, 0.3, 6), &baseline())
            .is_empty());
        // 10% -> 12%: 20% relative growth, breach.
        let b = f.breaches(&report_with(0.12, 0.3, 6), &baseline());
        assert_eq!(b.len(), 1);
        assert!(b[0].contains("mean-abs-err drifted"), "{}", b[0]);
    }

    #[test]
    fn inversion_growth_is_gated_absolutely() {
        let f = FailOn::parse("rank-inversions=3").unwrap();
        assert!(f
            .breaches(&report_with(0.1, 0.3, 9), &baseline())
            .is_empty());
        assert_eq!(f.breaches(&report_with(0.1, 0.3, 10), &baseline()).len(), 1);
    }

    #[test]
    fn improvement_never_fails() {
        let f = FailOn::parse("mean-abs-err=0%,max-abs-err=0%,rank-inversions=0").unwrap();
        assert!(f
            .breaches(&report_with(0.05, 0.2, 2), &baseline())
            .is_empty());
    }

    #[test]
    fn spec_mismatch_is_its_own_breach() {
        let f = FailOn::parse("mean-abs-err=5%").unwrap();
        let mut rep = report_with(0.1, 0.3, 6);
        rep.spec = "spec-b".to_owned();
        let b = f.breaches(&rep, &baseline());
        assert_eq!(b.len(), 1);
        assert!(b[0].contains("spec mismatch"));
    }

    #[test]
    fn baseline_round_trips_through_jsonl() {
        let rep = report_with(0.1234, 0.456, 7);
        let parsed = Baseline::parse(&rep.to_jsonl()).unwrap();
        assert_eq!(parsed.spec, "spec-a");
        assert_eq!(parsed.mean_abs_err, 0.1234, "bit-exact round trip");
        assert_eq!(parsed.max_abs_err, 0.456);
        assert_eq!(parsed.rank_inversions, 7);
    }

    #[test]
    fn future_schema_baseline_is_rejected() {
        let text = report_with(0.1, 0.3, 6).to_jsonl().replace(
            &format!("\"schema\":\"{VALIDATE_SCHEMA}\""),
            &format!("\"schema\":\"{}\"", VALIDATE_SCHEMA + 1),
        );
        let err = Baseline::parse(&text).unwrap_err();
        assert!(err.contains("future validate schema"), "{err}");
    }

    #[test]
    fn garbage_baseline_is_an_error_not_a_panic() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("not json at all\n").is_err());
    }

    #[test]
    fn options_are_validated() {
        let ctx = StudyContext::new(crate::Scale::test());
        let bad = ValidateOptions {
            core_counts: vec![3],
            ..ValidateOptions::default()
        };
        assert!(run(&ctx, &bad).is_err());
        let bad = ValidateOptions {
            perturb: f64::NAN,
            ..ValidateOptions::default()
        };
        assert!(run(&ctx, &bad).is_err());
        let bad = ValidateOptions {
            workloads_per_group: 0,
            ..ValidateOptions::default()
        };
        assert!(run(&ctx, &bad).is_err());
    }

    #[test]
    fn spec_string_covers_grid_knobs_but_not_perturbation() {
        let base = ValidateOptions::default().spec_string();
        let wider = ValidateOptions {
            workloads_per_group: 9,
            ..ValidateOptions::default()
        }
        .spec_string();
        assert_ne!(base, wider, "grid shape must show in the spec");
        assert!(base.contains("w=6"));
        // A perturbed model must masquerade as the real one so the drift
        // gate can catch it against the honest baseline.
        let perturbed = ValidateOptions {
            perturb: 0.5,
            ..ValidateOptions::default()
        }
        .spec_string();
        assert_eq!(base, perturbed);
    }
}
