//! `mps-harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! mps-harness [run] <experiment...> [--scale test|small|full] [--out DIR]
//!                   [--jobs N] [--store DIR] [--no-store]
//!                   [--timeout SECS] [--retries N] [--trace FILE]
//! mps-harness trace <FILE> [--folded] [--worker ID]
//! mps-harness trace diff <BASELINE> <CONTENDER> [--fail-on-regress PCT] [--json] [--worker ID]
//! mps-harness runs list|show <N|last> [--ledger FILE] [--store DIR]
//! mps-harness report [--ledger FILE] [--store DIR] [--out FILE]
//! mps-harness validate [--scale test|small|full] [--jobs N] [--store DIR]
//!                      [--no-store] [--out DIR] [--trace FILE]
//!                      [--fail-on THRESHOLDS] [--baseline FILE]
//!                      [--write-baseline FILE] [--perturb FACTOR]
//!
//! experiments:
//!   table1 table2 table3 table4
//!   fig1 fig2 fig3 fig4 fig5 fig6 fig7
//!   overhead   — the §VII-A CPU-hours example
//!   guideline  — §VII decisions for every policy pair
//!   ablation   — stratification parameter / allocation / clustering sweep
//!   dw         — d(w) distribution histograms (the stratification input)
//!   all        — every experiment, in paper order
//!
//! --out DIR writes each report as DIR/<name>.txt plus DIR/<name>.csv
//! where the report has tabular data.
//! --jobs N sets the worker-thread count for parallel simulation grids.
//! N = 0 means "auto": the MPS_JOBS environment variable, else all
//! available cores (the same default as omitting the flag). Results are
//! bit-identical for every N.
//! --store DIR (or MPS_STORE=DIR) persists expensive artifacts — BADCO
//! models, populations, throughput tables, traces, rendered reports — so
//! reruns and other processes load instead of recompute. Every completed
//! experiment-grid cell is a store record too, so rerunning a killed run
//! on the same store serves its finished cells from the store and
//! finishes bit-identically to an uninterrupted run.
//! --no-store ignores --store and MPS_STORE and runs fully in memory.
//! --timeout SECS bounds each experiment's wall-clock; --retries N
//! re-attempts an experiment that panicked. A failing experiment is
//! reported and skipped; the exit code is nonzero if any failed.
//! --trace FILE (run and validate) streams structured JSONL span/event
//! records to FILE; spans are recorded only while it is installed. It
//! needs the `obs` feature (on by default). Every MPS_HEARTBEAT_SECS
//! seconds (default 5, 0 = off) a run reports its grid-cell progress: a
//! `heartbeat` trace event, and a progress line when stderr is a
//! terminal.
//!
//! The `trace` subcommand analyzes a JSONL file offline: a span-tree
//! summary with inclusive/exclusive times (or folded flamegraph stacks
//! with --folded), and `trace diff` compares two runs, flagging span
//! wall-time and counter-total regressions beyond PCT percent growth
//! (default 10). With --fail-on-regress, regressions exit with code 3
//! for CI gating; `par.*` scheduling counters are reported but never
//! gate (they legitimately vary with --jobs). --json emits the diff as
//! machine-readable JSON instead of the table.
//!
//! The `validate` subcommand sweeps a seeded grid of workload
//! combinations through both the detailed simulator and BADCO, reports
//! per-thread IPC error, throughput-rank inversions and per-MPKI-stratum
//! error, and emits a schema-versioned JSONL report. --fail-on gates the
//! report's *drift against a pinned baseline* (`mean-abs-err=5%` allows
//! 5 % relative growth of the mean absolute IPC error;
//! `rank-inversions=3` allows 3 new inversions); breaches exit with code
//! 4 for CI, mirroring `trace diff --fail-on-regress`. The baseline is
//! `--baseline FILE`, else the one embedded for the default test-scale
//! sweep; --write-baseline FILE records a new baseline after an
//! intentional model change (see docs/validation.md). --perturb FACTOR
//! (or MPS_VALIDATE_PERTURB) scales the BADCO model coefficients to
//! prove the gate fires; --out DIR writes validate.txt/.csv/.jsonl.
//!
//! Every completed run with a store appends one record to the store's
//! run ledger (`ledger.jsonl`): config hash, kernel revision, scale,
//! per-experiment durations, store hit ratio and the final convergence
//! summary. `runs list` tabulates past runs, `runs show N` (or `last`)
//! dumps one record's fields, and `report` renders the whole ledger into
//! a self-contained HTML dashboard (inline SVG, no scripts, byte-
//! deterministic for a given ledger). The ledger is found via --ledger
//! FILE, or <store>/ledger.jsonl from --store/MPS_STORE.
//!
//! Experiment grids can be sharded across worker *processes*:
//! `--workers N` spawns N local workers, `--dist-addr HOST:PORT` also
//! accepts remote `mps-harness worker --connect HOST:PORT` processes,
//! and `--lease-ttl SECS` tunes dead-worker detection. Artifacts are
//! byte-identical to a single-process run; see docs/distributed.md.
//! ```

use mps_harness::experiments as exp;
use mps_harness::export::{Artifact, CsvExport};
use mps_harness::{run_isolated, Error, Scale, StudyContext};
use mps_store::ArtifactKey;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Loads and summarizes one JSONL trace file. `worker` restricts span
/// records to one fleet member: an id matches its worker-tagged spans,
/// the literal `local` matches untagged (coordinator-recorded) spans.
/// Events always pass through.
fn load_trace(path: &str, worker: Option<&str>) -> Result<mps_obs::analyze::TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut records = mps_obs::jsonl::parse_all(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(want) = worker {
        records.retain(|r| match r {
            mps_obs::jsonl::Record::Span { worker, .. } => match worker {
                Some(w) => w == want,
                None => want == "local",
            },
            mps_obs::jsonl::Record::Event { .. } => true,
        });
    }
    Ok(mps_obs::analyze::summarize(&records))
}

const TRACE_USAGE: &str = "usage: mps-harness trace <FILE> [--folded] [--worker ID]\n\
                           \x20      mps-harness trace diff <BASELINE> <CONTENDER> [--fail-on-regress PCT] [--json] [--worker ID]";

/// The `trace diff` regression threshold, in percent, when
/// `--fail-on-regress` gives none or is absent.
const DEFAULT_REGRESS_PCT: f64 = 10.0;

/// A parsed `trace` or `trace diff` command line.
#[derive(Debug, Default)]
struct TraceArgs {
    files: Vec<String>,
    folded: bool,
    json: bool,
    /// `--fail-on-regress` and its PCT ([`DEFAULT_REGRESS_PCT`] when the
    /// flag is bare).
    fail_on_regress: Option<f64>,
    worker: Option<String>,
}

/// Parses the arguments after `trace` (`diff` says they followed
/// `trace diff`): `--worker` for both, `--folded` for a summary, `--json`
/// and `--fail-on-regress` for a diff, and one trace file (two for a
/// diff).
fn parse_trace(args: &[String], diff: bool) -> Result<TraceArgs, CliError> {
    let mut t = TraceArgs::default();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--worker" => t.worker = Some(flag_value(flag, args.next(), "a worker id", |_| true)?),
            "--folded" if !diff => t.folded = true,
            "--json" if diff => t.json = true,
            "--fail-on-regress" if diff => {
                // PCT is optional: a bare flag keeps the default.
                t.fail_on_regress = Some(match args.next_if(|v| v.parse::<f64>().is_ok()) {
                    None => DEFAULT_REGRESS_PCT,
                    pct => flag_value(flag, pct, "a finite non-negative PCT", |p: &f64| {
                        p.is_finite() && *p >= 0.0
                    })?,
                });
            }
            _ if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown trace flag '{flag}'")))
            }
            file => t.files.push(file.to_owned()),
        }
    }
    match (diff, t.files.len()) {
        (false, 1) | (true, 2) => Ok(t),
        (false, _) => Err(CliError::Usage("trace needs one trace file".to_owned())),
        (true, _) => Err(CliError::Usage(
            "trace diff needs exactly two trace files".to_owned(),
        )),
    }
}

/// The `trace` subcommand: offline analysis of `--trace` output. Returns
/// the process exit code (0 ok, 2 usage, 1 unreadable input, 3 when
/// `--fail-on-regress` found regressions).
fn trace_cli(args: &[String]) -> i32 {
    let diff = args.first().is_some_and(|a| a == "diff");
    let t = match parse_trace(&args[usize::from(diff)..], diff) {
        Ok(t) => t,
        Err(e) => return e.report(TRACE_USAGE),
    };
    let mut summaries = Vec::with_capacity(t.files.len());
    for file in &t.files {
        match load_trace(file, t.worker.as_deref()) {
            Ok(s) => summaries.push(s),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    let (before, after) = match summaries.as_slice() {
        [s] => {
            print!("{}", if t.folded { s.folded() } else { s.render() });
            return 0;
        }
        [before, after] => (before, after),
        _ => unreachable!("parse_trace checks the file count"),
    };
    let d = mps_obs::analyze::diff(
        before,
        after,
        t.fail_on_regress.unwrap_or(DEFAULT_REGRESS_PCT),
    );
    if t.json {
        println!("{}", d.to_json());
    } else {
        print!("{}", d.render());
    }
    if t.fail_on_regress.is_some() && !d.regressions().is_empty() {
        eprintln!(
            "trace diff: failing on {} regression(s)",
            d.regressions().len()
        );
        return 3;
    }
    0
}

/// Resolves the run-ledger path from `--ledger FILE`, else `--store DIR`
/// or `MPS_STORE` joined with `ledger.jsonl`. Consumes those flags from
/// `args`, leaving the rest for the caller.
fn resolve_ledger(args: &mut Vec<String>) -> Result<mps_store::Ledger, String> {
    let mut ledger: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = std::env::var_os("MPS_STORE").map(PathBuf::from);
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ledger" => {
                i += 1;
                match args.get(i) {
                    Some(f) if !f.is_empty() => ledger = Some(PathBuf::from(f)),
                    _ => return Err("--ledger needs a file path".to_owned()),
                }
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(d) if !d.is_empty() => store = Some(PathBuf::from(d)),
                    _ => return Err("--store needs a directory".to_owned()),
                }
            }
            other => rest.push(other.to_owned()),
        }
        i += 1;
    }
    *args = rest;
    let path = ledger
        .or_else(|| store.map(|d| d.join("ledger.jsonl")))
        .ok_or("no ledger: pass --ledger FILE, or --store DIR / MPS_STORE".to_owned())?;
    Ok(mps_store::Ledger::at_path(path))
}

/// The `runs` subcommand: list or inspect the run ledger. Returns the
/// process exit code.
fn runs_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: mps-harness runs list|show <N|last> [--ledger FILE] [--store DIR]";
    let mut args = args.to_vec();
    let ledger = match resolve_ledger(&mut args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let records = match ledger.read_all() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:>4} {:>9} {:>5} {:>9} {:>6} {:>5}  experiments",
                "run", "wall s", "jobs", "hitratio", "fails", "conv"
            );
            for (i, r) in records.iter().enumerate() {
                let conv = r
                    .fields
                    .keys()
                    .filter(|k| k.starts_with("conv.") && k.ends_with(".cv"))
                    .count();
                println!(
                    "{:>4} {:>9} {:>5} {:>9} {:>6} {:>5}  {}",
                    i + 1,
                    r.f64("wall_ms")
                        .map_or_else(|| "-".to_owned(), |ms| format!("{:.1}", ms / 1000.0)),
                    r.get("jobs").unwrap_or("-"),
                    r.f64("store.hit_ratio")
                        .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}")),
                    r.get("failures").unwrap_or("0"),
                    conv,
                    r.get("experiments").unwrap_or("-"),
                );
            }
            println!("{} run(s) in {}", records.len(), ledger.path().display());
            0
        }
        Some("show") => {
            let which = args.get(1).map(String::as_str).unwrap_or("last");
            let idx = if which == "last" {
                records.len().checked_sub(1)
            } else {
                which.parse::<usize>().ok().and_then(|n| n.checked_sub(1))
            };
            let Some(rec) = idx.and_then(|i| records.get(i)) else {
                eprintln!(
                    "no run '{which}' in {} ({} recorded)\n{USAGE}",
                    ledger.path().display(),
                    records.len()
                );
                return if records.is_empty() { 1 } else { 2 };
            };
            for (k, v) in &rec.fields {
                println!("{k} = {v}");
            }
            0
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

/// The `report` subcommand: render the ledger as a self-contained HTML
/// dashboard. Returns the process exit code.
fn report_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: mps-harness report [--ledger FILE] [--store DIR] [--out FILE]";
    let mut args = args.to_vec();
    let ledger = match resolve_ledger(&mut args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let mut out = PathBuf::from("report.html");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(f) if !f.is_empty() => out = PathBuf::from(f),
                    _ => {
                        eprintln!("--out needs a file path\n{USAGE}");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!("unknown report argument '{other}'\n{USAGE}");
                return 2;
            }
        }
        i += 1;
    }
    let records = match ledger.read_all() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let html = mps_harness::report_html::render_dashboard(&records);
    if let Err(e) = std::fs::write(&out, html) {
        eprintln!("error: write {}: {e}", out.display());
        return 1;
    }
    eprintln!(
        "report: {} run(s) from {} -> {}",
        records.len(),
        ledger.path().display(),
        out.display()
    );
    0
}

/// The options `run` and `validate` share: everything that configures the
/// study context. Parsed by [`parse_options`]; [`Options::open`] turns
/// them into the context.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    scale: Scale,
    /// `None` means auto (no flag, or `--jobs 0`): `MPS_JOBS`, else every
    /// available core.
    jobs: Option<usize>,
    store: Option<PathBuf>,
    out: Option<PathBuf>,
    workers: usize,
    dist_addr: Option<String>,
    lease_ttl: Option<Duration>,
    /// `--trace FILE`: the JSONL sink for span and event records.
    trace: Option<String>,
}

/// The environment variables the shared options fall back to.
#[derive(Debug, Clone, Default)]
struct Env {
    /// `MPS_STORE`.
    store: Option<PathBuf>,
}

impl Env {
    fn read() -> Env {
        Env {
            store: std::env::var_os("MPS_STORE").map(PathBuf::from),
        }
    }
}

/// Why a command line was not run.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A malformed command line: print the message and the usage, exit 2.
    Usage(String),
}

impl CliError {
    /// Reports the error on stderr; returns the process exit code.
    fn report(&self, usage: &str) -> i32 {
        match self {
            CliError::Help => {
                eprintln!("{usage}");
                0
            }
            CliError::Usage(msg) => {
                eprintln!("{msg}\n{usage}");
                2
            }
        }
    }
}

/// The value of `flag`, parsed as a `T` that passes `ok`; a usage error
/// naming the flag and `what` it needs when the value is missing, empty
/// or malformed.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<&String>,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    match value.filter(|v| !v.is_empty()) {
        Some(v) => v
            .parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs {what} (got '{v}')"))),
        None => Err(CliError::Usage(format!("{flag} needs {what}"))),
    }
}

/// A subcommand's own arguments, in command-line order: each flag with
/// the value that followed it (for the flags the subcommand declared as
/// taking one), every other argument with none.
type OwnArgs = Vec<(String, Option<String>)>;

/// Parses the options `run` and `validate` share out of `args`, starting
/// from `scale` and the environment's defaults. `valued` names the
/// subcommand's own flags that take a value, so their values pass through
/// untouched; those flags and every other argument come back as
/// [`OwnArgs`]. `--no-store` beats both `--store` and `MPS_STORE`,
/// wherever it appears.
fn parse_options(
    args: &[String],
    scale: Scale,
    valued: &[&str],
    env: Env,
) -> Result<(Options, OwnArgs), CliError> {
    let mut o = Options {
        scale,
        jobs: None,
        store: env.store,
        out: None,
        workers: 0,
        dist_addr: None,
        lease_ttl: None,
        trace: None,
    };
    let mut no_store = false;
    let mut own = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--scale" => {
                let name: String = flag_value(flag, args.next(), "test|small|full", |_| true)?;
                o.scale = Scale::parse(&name).ok_or_else(|| {
                    CliError::Usage(format!("--scale needs test|small|full (got '{name}')"))
                })?;
            }
            "--jobs" => {
                let n = flag_value(
                    flag,
                    args.next(),
                    "a non-negative integer, 0 = auto",
                    |_| true,
                )?;
                o.jobs = (n > 0).then_some(n);
            }
            "--store" => o.store = Some(flag_value(flag, args.next(), "a directory", |_| true)?),
            "--no-store" => no_store = true,
            "--out" => o.out = Some(flag_value(flag, args.next(), "a directory", |_| true)?),
            "--workers" => {
                o.workers = flag_value(flag, args.next(), "a non-negative integer", |_| true)?;
            }
            "--dist-addr" => {
                o.dist_addr = Some(flag_value(
                    flag,
                    args.next(),
                    "HOST:PORT (port 0 = ephemeral)",
                    |_| true,
                )?);
            }
            "--lease-ttl" => {
                let secs = flag_value(flag, args.next(), "a positive number of seconds", |&s| {
                    s > 0
                })?;
                o.lease_ttl = Some(Duration::from_secs(secs));
            }
            "--trace" => o.trace = Some(flag_value(flag, args.next(), "a file path", |_| true)?),
            "--help" | "-h" => return Err(CliError::Help),
            _ if valued.contains(&flag) => own.push((arg.clone(), args.next().cloned())),
            _ => own.push((arg.clone(), None)),
        }
    }
    if no_store {
        o.store = None;
    }
    Ok((o, own))
}

impl Options {
    /// Installs the `--trace` sink, if one was asked for. Returns false,
    /// having said why on stderr, when the file cannot be opened.
    fn start_trace(&self) -> bool {
        let Some(file) = &self.trace else {
            return true;
        };
        if !mps_obs::enabled() {
            eprintln!("note: built without the `obs` feature; --trace will record nothing");
        }
        if let Err(e) = mps_obs::set_sink_path(file) {
            eprintln!("cannot open trace file {file}: {e}");
            return false;
        }
        true
    }

    /// Builds the study context these options describe (`extra` adds a
    /// subcommand's own builder settings).
    fn open(
        &self,
        extra: impl FnOnce(mps_harness::StudyBuilder) -> mps_harness::StudyBuilder,
    ) -> Result<StudyContext, Error> {
        let mut builder = StudyContext::builder()
            .scale(self.scale.clone())
            .jobs(mps_par::resolve_jobs(self.jobs))
            .workers(self.workers);
        if let Some(dir) = &self.store {
            builder = builder.store(dir);
        }
        if let Some(addr) = &self.dist_addr {
            builder = builder.dist_addr(addr.clone());
        }
        if let Some(ttl) = self.lease_ttl {
            builder = builder.lease_ttl(ttl);
        }
        extra(builder).build()
    }
}

const VALIDATE_USAGE: &str = "usage: mps-harness validate [--scale test|small|full] [--jobs N] \
                              [--store DIR] [--no-store] [--out DIR] [--trace FILE] \
                              [--workers N] [--dist-addr HOST:PORT] [--lease-ttl SECS] \
                              [--fail-on mean-abs-err=PCT%,max-abs-err=PCT%,rank-inversions=N] \
                              [--baseline FILE] [--write-baseline FILE] [--perturb FACTOR]";

/// A parsed `validate` command line.
#[derive(Debug)]
struct ValidateArgs {
    opts: Options,
    fail_on: Option<mps_harness::FailOn>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    /// `--perturb`; `MPS_VALIDATE_PERTURB` applies when absent.
    perturb: Option<f64>,
}

/// Parses a `validate` command line. Validation defaults to the fast
/// deterministic test scale: it is a model-consistency gate, not a
/// paper-scale experiment.
fn parse_validate(args: &[String], env: Env) -> Result<ValidateArgs, CliError> {
    let valued = ["--fail-on", "--baseline", "--write-baseline", "--perturb"];
    let (opts, own) = parse_options(args, Scale::test(), &valued, env)?;
    let mut v = ValidateArgs {
        opts,
        fail_on: None,
        baseline: None,
        write_baseline: None,
        perturb: None,
    };
    for (flag, value) in own {
        let value = value.as_ref();
        match flag.as_str() {
            "--fail-on" => {
                let spec: String = flag_value(&flag, value, "thresholds", |_| true)?;
                let gate = mps_harness::FailOn::parse(&spec)
                    .map_err(|e| CliError::Usage(format!("--fail-on: {e}")))?;
                v.fail_on = Some(gate);
            }
            "--baseline" => v.baseline = Some(flag_value(&flag, value, "a file path", |_| true)?),
            "--write-baseline" => {
                v.write_baseline = Some(flag_value(&flag, value, "a file path", |_| true)?);
            }
            "--perturb" => {
                v.perturb = Some(flag_value(
                    &flag,
                    value,
                    "a finite positive factor",
                    |f: &f64| f.is_finite() && *f > 0.0,
                )?);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown validate argument '{other}'"
                )))
            }
        }
    }
    Ok(v)
}

/// The `validate` subcommand: the BADCO-vs-detailed error-bound sweep
/// with optional baseline-drift gating. Returns the process exit code
/// (0 ok, 1 error, 2 usage, 4 when `--fail-on` thresholds are breached).
fn validate_cli(args: &[String]) -> i32 {
    let ValidateArgs {
        opts: cli,
        fail_on,
        baseline: baseline_file,
        write_baseline,
        perturb,
    } = match parse_validate(args, Env::read()) {
        Ok(v) => v,
        Err(e) => return e.report(VALIDATE_USAGE),
    };
    if !cli.start_trace() {
        return 1;
    }
    let ctx = match cli.open(|b| b) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let perturb = perturb.or_else(|| {
        std::env::var("MPS_VALIDATE_PERTURB")
            .ok()
            .and_then(|v| v.parse().ok())
    });
    let opts = mps_harness::ValidateOptions {
        perturb: perturb.unwrap_or(1.0),
        ..mps_harness::ValidateOptions::default()
    };
    let t0 = Instant::now();
    let report = match mps_harness::validate::run(&ctx, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: validate failed: {e}");
            return 1;
        }
    };
    print!("{report}");
    let jsonl = report.to_jsonl();

    if let Some(dir) = &cli.out {
        let write = |name: &str, body: &str| -> Result<(), String> {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(name), body))
                .map_err(|e| format!("write {}: {e}", dir.join(name).display()))
        };
        let res = write("validate.txt", &report.to_string())
            .and_then(|()| write("validate.csv", &report.csv()))
            .and_then(|()| write("validate.jsonl", &jsonl));
        if let Err(e) = res {
            eprintln!("error: {e}");
            return 1;
        }
    }
    if let Some(file) = &write_baseline {
        if let Err(e) = std::fs::write(file, &jsonl) {
            eprintln!("error: write baseline {}: {e}", file.display());
            return 1;
        }
        eprintln!("validate: baseline written to {}", file.display());
    }

    // One durable ledger record per sweep, like experiment runs.
    if let Some(s) = ctx.store() {
        let ledger = mps_store::Ledger::in_store(s);
        let mut rec = mps_store::RunRecord::new();
        rec.set("wall_ms", t0.elapsed().as_millis().to_string());
        rec.set("schema", mps_store::SCHEMA.to_string());
        rec.set("kernel_rev", mps_store::KERNEL_REV.to_string());
        rec.set("jobs", ctx.jobs().to_string());
        rec.set("scale", cli.scale.spec_string());
        rec.set("experiments", "validate".to_owned());
        rec.set(
            "validate.mean_abs_err",
            format!("{}", report.summary.ipc_err.mean_abs),
        );
        rec.set(
            "validate.max_abs_err",
            format!("{}", report.summary.ipc_err.max_abs),
        );
        rec.set(
            "validate.rank_inversions",
            report.summary.rank_inversions.to_string(),
        );
        rec.set("validate.perturb", format!("{}", opts.perturb));
        if let Some(stats) = ctx.store_stats() {
            rec.set("store.hits", stats.hits.to_string());
            rec.set("store.misses", stats.misses.to_string());
            rec.set("store.puts", stats.puts.to_string());
            if stats.hits + stats.misses > 0 {
                rec.set(
                    "store.hit_ratio",
                    format!(
                        "{:.3}",
                        stats.hits as f64 / (stats.hits + stats.misses) as f64
                    ),
                );
            }
        }
        for e in mps_obs::estimators_snapshot() {
            let c = &e.stats;
            if c.count == 0 {
                continue;
            }
            rec.set(&format!("conv.{}.n", e.name), c.count.to_string());
            rec.set(&format!("conv.{}.cv", e.name), format!("{}", c.cv));
            rec.set(
                &format!("conv.{}.confidence", e.name),
                format!("{}", c.confidence),
            );
        }
        record_provenance(&mut rec, &ctx);
        if let Err(e) = ledger.append(&rec) {
            eprintln!("warning: could not append run ledger: {e}");
        }
    }

    let Some(gate) = fail_on else { return 0 };
    let baseline = match &baseline_file {
        Some(file) => match std::fs::read_to_string(file) {
            Ok(text) => match mps_harness::Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: baseline {}: {e}", file.display());
                    return 2;
                }
            },
            Err(e) => {
                eprintln!("error: read baseline {}: {e}", file.display());
                return 2;
            }
        },
        None => match mps_harness::Baseline::embedded(&report.spec) {
            Some(b) => b,
            None => {
                eprintln!(
                    "error: no embedded baseline for spec '{}'; pass --baseline FILE \
                     (generate one with --write-baseline, see docs/validation.md)",
                    report.spec
                );
                return 2;
            }
        },
    };
    let breaches = gate.breaches(&report, &baseline);
    if breaches.is_empty() {
        eprintln!("validate: within baseline drift thresholds");
        return 0;
    }
    eprintln!("validate: failing on {} drift breach(es):", breaches.len());
    for b in &breaches {
        eprintln!("  {b}");
    }
    4
}

/// Appends distributed-run provenance to a ledger record: shard counts,
/// lease steals/requeues, and per-(grid, worker) cell/renewal counts, so
/// `runs show` attributes every remotely computed cell to the worker
/// process that produced it.
fn record_provenance(rec: &mut mps_store::RunRecord, ctx: &StudyContext) {
    let Some(coordinator) = ctx.coordinator() else {
        return;
    };
    let prov = coordinator.provenance();
    rec.set("dist.cells.remote", prov.cells_remote.to_string());
    rec.set("dist.cells.local", prov.cells_local.to_string());
    rec.set("dist.cells.requeued", prov.requeued.to_string());
    rec.set("dist.leases.stolen", prov.leases_stolen.to_string());
    let workers: std::collections::BTreeSet<&str> = prov
        .per_worker
        .keys()
        .map(|(_, worker)| worker.as_str())
        .collect();
    rec.set("dist.workers", workers.len().to_string());
    for ((grid, worker), (cells, renewals, wall_us)) in &prov.per_worker {
        rec.set(&format!("dist.{grid}.{worker}.cells"), cells.to_string());
        rec.set(
            &format!("dist.{grid}.{worker}.renewals"),
            renewals.to_string(),
        );
        rec.set(
            &format!("dist.{grid}.{worker}.wall_us"),
            wall_us.to_string(),
        );
    }
}

/// The `worker` subcommand: join a coordinator as a distributed grid
/// worker. Normally spawned by the coordinator itself (`--workers N`);
/// run by hand only to attach extra machines to `--dist-addr`.
fn worker_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: mps-harness worker --connect HOST:PORT [--id NAME]";
    let mut connect: Option<String> = None;
    let mut id: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Option<&str> {
            args.get(i).map(String::as_str).filter(|v| !v.is_empty())
        };
        match args[i].as_str() {
            "--connect" => {
                i += 1;
                match need(i) {
                    Some(a) => connect = Some(a.to_owned()),
                    None => {
                        eprintln!("--connect needs HOST:PORT\n{USAGE}");
                        return 2;
                    }
                }
            }
            "--id" => {
                i += 1;
                match need(i) {
                    Some(n) => id = Some(n.to_owned()),
                    None => {
                        eprintln!("--id needs a name\n{USAGE}");
                        return 2;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("unknown worker argument '{other}'\n{USAGE}");
                return 2;
            }
        }
        i += 1;
    }
    let Some(connect) = connect else {
        eprintln!("worker needs --connect HOST:PORT\n{USAGE}");
        return 2;
    };
    match mps_harness::dist::worker_main(&connect, id) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: worker failed: {e}");
            1
        }
    }
}

const RUN_USAGE: &str = "usage: mps-harness [run] <table1..table4|fig1..fig7|overhead|guideline|ablation|dw|all> \
     [--scale test|small|full] [--out DIR] [--jobs N] [--store DIR] \
     [--no-store] [--timeout SECS] [--retries N] [--workers N] [--dist-addr HOST:PORT] \
     [--lease-ttl SECS] [--trace FILE]\n\
     \x20      mps-harness trace <FILE> [--folded] [--worker ID]\n\
     \x20      mps-harness trace diff <BASELINE> <CONTENDER> [--fail-on-regress PCT] [--json] [--worker ID]\n\
     \x20      mps-harness runs list|show <N|last> [--ledger FILE] [--store DIR]\n\
     \x20      mps-harness report [--ledger FILE] [--store DIR] [--out FILE]\n\
     \x20      mps-harness validate [--fail-on mean-abs-err=5%,rank-inversions=3] \
     [--baseline FILE] [--write-baseline FILE] [--perturb FACTOR] [--trace FILE] \
     (see validate --help)\n\
     \x20      mps-harness worker --connect HOST:PORT [--id NAME]\n\
     MPS_HEARTBEAT_SECS tunes progress heartbeats (0 = off)\n\
     --jobs 0 (or omitting the flag) means auto: MPS_JOBS, else all available cores\n\
     --store DIR (or MPS_STORE=DIR) persists artifacts and grid cells, so a rerun \
     of a killed run recomputes only what it lacks; --no-store overrides MPS_STORE\n\
     --workers N shards grids across N local worker processes (requires --store); \
     --dist-addr also accepts remote `worker --connect` processes; artifacts stay \
     byte-identical to a single-process run (see docs/distributed.md)";

/// Every experiment `run` knows, in paper order (what `all` runs). The
/// names are static so each can also name the experiment's span.
const EXPERIMENTS: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "overhead",
    "guideline",
    "ablation",
    "dw",
];

/// A parsed `run` command line.
#[derive(Debug)]
struct RunArgs {
    opts: Options,
    experiments: Vec<&'static str>,
    timeout: Option<Duration>,
    retries: u32,
}

/// Parses a `run` command line (the `run` word itself is optional).
/// Naming no experiment means `all`.
fn parse_run(args: &[String], env: Env) -> Result<RunArgs, CliError> {
    let valued = ["--timeout", "--retries"];
    let (opts, own) = parse_options(args, Scale::small(), &valued, env)?;
    let mut r = RunArgs {
        opts,
        experiments: Vec::new(),
        timeout: None,
        retries: 0,
    };
    let (mut all, mut named) = (false, false);
    for (arg, value) in own {
        let value = value.as_ref();
        named |= !arg.starts_with('-') && arg != "run";
        match arg.as_str() {
            "--timeout" => {
                let secs = flag_value(&arg, value, "a positive number of seconds", |&s| s > 0)?;
                r.timeout = Some(Duration::from_secs(secs));
            }
            "--retries" => r.retries = flag_value(&arg, value, "a non-negative integer", |_| true)?,
            "run" => {}
            "all" => all = true,
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown argument '{flag}'")))
            }
            name => match EXPERIMENTS.iter().find(|e| **e == name) {
                Some(&e) => r.experiments.push(e),
                None => return Err(CliError::Usage(format!("unknown experiment '{name}'"))),
            },
        }
    }
    if all || !named {
        r.experiments = EXPERIMENTS.to_vec();
    }
    Ok(r)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("trace") => trace_cli(&args[1..]),
        Some("validate") => validate_cli(&args[1..]),
        Some("runs") => runs_cli(&args[1..]),
        Some("report") => report_cli(&args[1..]),
        Some("worker") => worker_cli(&args[1..]),
        _ => run_cli(&args),
    };
    // `exit` skips destructors: write out whatever the sink still buffers.
    mps_obs::flush();
    std::process::exit(code);
}

/// The `run` subcommand (also the bare form): regenerate experiments.
/// Returns the process exit code (0 ok, 1 when an experiment failed or an
/// output could not be written, 2 usage).
fn run_cli(args: &[String]) -> i32 {
    let RunArgs {
        opts: cli,
        experiments: selected,
        timeout,
        retries,
    } = match parse_run(args, Env::read()) {
        Ok(r) => r,
        Err(e) => return e.report(RUN_USAGE),
    };
    if !cli.start_trace() {
        return 1;
    }
    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir:?}: {e}");
            return 1;
        }
    }
    let ctx = match cli.open(|b| b.timeout(timeout).retries(retries)) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let heartbeat_secs = std::env::var("MPS_HEARTBEAT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5);
    if heartbeat_secs > 0 {
        mps_harness::heartbeat::start(Duration::from_secs(heartbeat_secs));
    }
    let scale = &cli.scale;
    mps_obs::event(
        "harness.start",
        &[
            ("trace_len", scale.trace_len.to_string()),
            ("pop_4core", scale.pop_4core.to_string()),
            ("confidence_samples", scale.confidence_samples.to_string()),
            ("jobs", ctx.jobs().to_string()),
            ("store", cli.store.is_some().to_string()),
        ],
    );
    let opts = ctx.isolate_options();
    // Table III speeds feed `overhead`; behind a Mutex because the
    // isolated experiment closures are shared with a worker thread.
    let speeds: Mutex<Option<exp::SpeedReport>> = Mutex::new(None);
    let mut failures: Vec<(&'static str, Error)> = Vec::new();
    let run_t0 = Instant::now();
    let mut durations: Vec<(&'static str, u128)> = Vec::new();
    for name in selected.iter().copied() {
        let t0 = Instant::now();
        let span = mps_obs::span(name);
        mps_obs::event("harness.experiment.start", &[("name", name.to_string())]);

        // Rendered-report cache: a warm store serves the whole report
        // without touching the simulators. Table III is wall-clock speed
        // measurement — always re-measured — and `overhead` derives from
        // it, so neither is served from cache.
        let report_key = ArtifactKey::new("report", ctx.artifact_spec(&format!("exp={name}")));
        let cacheable = !matches!(name, "table3" | "overhead");
        let cached: Option<Artifact> = match (cacheable, ctx.store()) {
            (true, Some(s)) => s.get(&report_key).and_then(|bytes| {
                Artifact::from_bytes(&bytes)
                    .map_err(|e| s.quarantine_key(&report_key, &e))
                    .ok()
            }),
            _ => None,
        };

        let result: Result<(String, Option<String>), Error> = match cached {
            Some(a) => Ok((a.text, (!a.csv.is_empty()).then_some(a.csv))),
            None => run_isolated(name, opts, || match name {
                "table1" => Ok((exp::table1(), None)),
                "table2" => Ok((exp::table2(), None)),
                "table3" => {
                    let r = exp::table3(&ctx)?;
                    let pair = (r.to_string(), Some(r.csv()));
                    *speeds.lock().unwrap() = Some(r);
                    Ok(pair)
                }
                "table4" => {
                    let r = exp::table4(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig1" => {
                    let r = exp::fig1();
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig2" => {
                    let r = exp::fig2(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig3" => {
                    let r = exp::fig3(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig4" => {
                    let r = exp::fig4(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig5" => {
                    let r = exp::fig5(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig6" => {
                    let r = exp::fig6(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "fig7" => {
                    let r = exp::fig7(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "dw" => Ok((exp::dw(&ctx)?.to_string(), None)),
                "guideline" => {
                    let r = exp::guideline(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "ablation" => {
                    let r = exp::ablation(&ctx)?;
                    Ok((r.to_string(), Some(r.csv())))
                }
                "overhead" => {
                    let s = {
                        let cached = speeds.lock().unwrap().clone();
                        match cached {
                            Some(s) => s,
                            None => {
                                let s = exp::table3(&ctx)?;
                                *speeds.lock().unwrap() = Some(s.clone());
                                s
                            }
                        }
                    };
                    Ok((exp::overhead(&ctx, &s).to_string(), None))
                }
                _ => unreachable!("validated above"),
            })
            .inspect(|(text, csv)| {
                if cacheable {
                    if let Some(s) = ctx.store() {
                        let a = Artifact {
                            name: name.to_owned(),
                            text: text.clone(),
                            csv: csv.clone().unwrap_or_default(),
                        };
                        if let Err(e) = s.put(&report_key, &a.to_bytes()) {
                            eprintln!("warning: could not persist report {name}: {e}");
                        }
                    }
                }
            }),
        };

        let (text, csv) = match result {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: {name} failed: {e}");
                mps_obs::event(
                    "harness.experiment.failed",
                    &[("name", name.to_string()), ("error", e.to_string())],
                );
                failures.push((name, e));
                durations.push((name, t0.elapsed().as_millis()));
                span.finish();
                continue;
            }
        };
        print!("{text}");
        if let Some(dir) = &cli.out {
            if let Err(e) = std::fs::write(dir.join(format!("{name}.txt")), &text) {
                eprintln!("write failed: {e}");
                return 1;
            }
            if let Some(c) = csv {
                if let Err(e) = std::fs::write(dir.join(format!("{name}.csv")), c) {
                    eprintln!("write failed: {e}");
                    return 1;
                }
            }
        }
        span.finish();
        durations.push((name, t0.elapsed().as_millis()));
        mps_obs::event(
            "harness.experiment.done",
            &[
                ("name", name.to_string()),
                ("wall_ms", t0.elapsed().as_millis().to_string()),
            ],
        );
        println!();
    }

    // Terminate the `\r` progress line (with a final summary) before any
    // closing stderr output lands mid-line.
    mps_harness::heartbeat::finish();
    if let Some(stats) = ctx.store_stats() {
        eprintln!(
            "store: {} hits, {} misses, {} puts, {} corrupt, {} evicted",
            stats.hits, stats.misses, stats.puts, stats.corrupt, stats.evicted
        );
        // The same summary as a structured record, so trace consumers
        // don't have to scrape stderr.
        mps_obs::event(
            "store.summary",
            &[
                ("hits", stats.hits.to_string()),
                ("misses", stats.misses.to_string()),
                ("puts", stats.puts.to_string()),
                ("corrupt", stats.corrupt.to_string()),
                ("evicted", stats.evicted.to_string()),
            ],
        );
    }
    // One durable ledger record per completed run (stores only: the
    // ledger lives at the store root).
    if let Some(s) = ctx.store() {
        let ledger = mps_store::Ledger::in_store(s);
        let mut rec = mps_store::RunRecord::new();
        rec.set(
            "started_at_unix",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| {
                    d.as_secs().saturating_sub(run_t0.elapsed().as_secs())
                })
                .to_string(),
        );
        rec.set("wall_ms", run_t0.elapsed().as_millis().to_string());
        rec.set("schema", mps_store::SCHEMA.to_string());
        rec.set("kernel_rev", mps_store::KERNEL_REV.to_string());
        rec.set("jobs", ctx.jobs().to_string());
        rec.set("scale", scale.spec_string());
        rec.set(
            "config_hash",
            ArtifactKey::new("run", ctx.artifact_spec("run")).hash_hex(),
        );
        rec.set("experiments", selected.join(","));
        rec.set("failures", failures.len().to_string());
        for (name, ms) in &durations {
            rec.set(&format!("exp.{name}.ms"), ms.to_string());
        }
        if let Some(stats) = ctx.store_stats() {
            rec.set("store.hits", stats.hits.to_string());
            rec.set("store.misses", stats.misses.to_string());
            rec.set("store.puts", stats.puts.to_string());
            if stats.hits + stats.misses > 0 {
                rec.set(
                    "store.hit_ratio",
                    format!(
                        "{:.3}",
                        stats.hits as f64 / (stats.hits + stats.misses) as f64
                    ),
                );
            }
        }
        for e in mps_obs::estimators_snapshot() {
            let c = &e.stats;
            if c.count == 0 {
                continue;
            }
            rec.set(&format!("conv.{}.n", e.name), c.count.to_string());
            rec.set(&format!("conv.{}.cv", e.name), format!("{}", c.cv));
            if c.required_w != usize::MAX {
                rec.set(
                    &format!("conv.{}.required_w", e.name),
                    c.required_w.to_string(),
                );
            }
            rec.set(
                &format!("conv.{}.confidence", e.name),
                format!("{}", c.confidence),
            );
        }
        record_provenance(&mut rec, &ctx);
        match ledger.append(&rec) {
            Ok(()) => eprintln!("ledger: run recorded in {}", ledger.path().display()),
            Err(e) => eprintln!("warning: could not append run ledger: {e}"),
        }
    }
    if !failures.is_empty() {
        eprintln!("{} experiment(s) failed:", failures.len());
        for (name, e) in &failures {
            eprintln!("  {name}: {e}");
        }
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn run(line: &str) -> Result<RunArgs, CliError> {
        parse_run(&args(line), Env::default())
    }

    fn validate(line: &str) -> Result<ValidateArgs, CliError> {
        parse_validate(&args(line), Env::default())
    }

    fn usage_error(r: Result<impl std::fmt::Debug, CliError>) -> String {
        match r {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn shared_flags_parse_the_same_under_run_and_validate() {
        let shared = "--scale full --jobs 3 --store st --out o --workers 2 \
                      --dist-addr 0.0.0.0:7000 --lease-ttl 9 --trace t.jsonl";
        let want = Options {
            scale: Scale::full(),
            jobs: Some(3),
            store: Some(PathBuf::from("st")),
            out: Some(PathBuf::from("o")),
            workers: 2,
            dist_addr: Some("0.0.0.0:7000".to_owned()),
            lease_ttl: Some(Duration::from_secs(9)),
            trace: Some("t.jsonl".to_owned()),
        };
        assert_eq!(run(&format!("fig3 {shared}")).unwrap().opts, want);
        assert_eq!(validate(shared).unwrap().opts, want);
        // Each flag alone, too.
        for (flag, value) in [
            ("--scale", "test"),
            ("--jobs", "0"),
            ("--store", "d"),
            ("--no-store", ""),
            ("--out", "d"),
            ("--workers", "4"),
            ("--dist-addr", "h:1"),
            ("--lease-ttl", "1"),
            ("--trace", "t.jsonl"),
        ] {
            let line = format!("{flag} {value}");
            assert_eq!(
                run(&format!("fig3 {line}")).unwrap().opts,
                validate(&format!("--scale small {line}")).unwrap().opts,
                "{flag}"
            );
        }
    }

    #[test]
    fn missing_or_malformed_values_name_the_flag() {
        for flag in [
            "--scale",
            "--jobs",
            "--store",
            "--out",
            "--workers",
            "--dist-addr",
            "--lease-ttl",
            "--trace",
        ] {
            assert!(usage_error(run(&format!("fig3 {flag}"))).starts_with(flag));
            assert!(usage_error(validate(flag)).starts_with(flag));
        }
        for (flag, bad) in [
            ("--scale", "huge"),
            ("--jobs", "-1"),
            ("--workers", "two"),
            ("--lease-ttl", "0"),
        ] {
            let line = format!("{flag} {bad}");
            let msg = usage_error(run(&line));
            assert!(msg.starts_with(flag) && msg.contains(bad), "{msg}");
            assert_eq!(usage_error(validate(&line)), msg);
        }
        for (line, flag) in [("--timeout 0", "--timeout"), ("--retries", "--retries")] {
            assert!(usage_error(run(line)).starts_with(flag), "{line}");
        }
        for (line, flag) in [
            ("--perturb -1", "--perturb"),
            ("--fail-on", "--fail-on"),
            ("--baseline", "--baseline"),
        ] {
            assert!(usage_error(validate(line)).starts_with(flag), "{line}");
        }
        assert_eq!(CliError::Usage("x".to_owned()).report("usage"), 2);
        assert_eq!(CliError::Help.report("usage"), 0);
    }

    #[test]
    fn no_store_beats_store_flag_and_environment() {
        let env = || Env {
            store: Some(PathBuf::from("from-env")),
        };
        for line in ["--no-store --store d", "--store d --no-store", "--no-store"] {
            assert_eq!(parse_run(&args(line), env()).unwrap().opts.store, None);
            assert_eq!(parse_validate(&args(line), env()).unwrap().opts.store, None);
        }
        let from_env = parse_validate(&[], env()).unwrap().opts.store;
        assert_eq!(from_env, Some(PathBuf::from("from-env")));
        let flag = parse_run(&args("--store d"), env()).unwrap().opts.store;
        assert_eq!(flag, Some(PathBuf::from("d")));
    }

    #[test]
    fn subcommands_keep_their_default_scales() {
        assert_eq!(run("fig3").unwrap().opts.scale, Scale::small());
        assert_eq!(validate("").unwrap().opts.scale, Scale::test());
    }

    #[test]
    fn resume_is_an_unknown_argument() {
        assert!(usage_error(run("fig3 --resume")).contains("'--resume'"));
        assert!(usage_error(validate("--resume")).contains("'--resume'"));
    }

    #[test]
    fn run_selects_experiments_and_its_own_flags() {
        let r = run("run fig3 fig6 --timeout 5 --retries 2 --trace t.jsonl").unwrap();
        assert_eq!(r.experiments, ["fig3", "fig6"]);
        assert_eq!(r.timeout, Some(Duration::from_secs(5)));
        assert_eq!((r.retries, r.opts.trace.as_deref()), (2, Some("t.jsonl")));
        // A flag's value is never read as another flag.
        assert_eq!(
            run("fig1 --retries --jobs").map(|r| r.retries),
            Err(CliError::Usage(
                "--retries needs a non-negative integer (got '--jobs')".to_owned()
            ))
        );
        assert_eq!(
            run("fig1 --trace --jobs").unwrap().opts.trace.as_deref(),
            Some("--jobs")
        );
        assert_eq!(run("").unwrap().experiments, EXPERIMENTS);
        assert!(usage_error(run("fig9")).contains("unknown experiment 'fig9'"));
        assert_eq!(run("fig3 --help").unwrap_err(), CliError::Help);
    }

    #[test]
    fn metrics_addr_is_an_unknown_argument() {
        let msg = usage_error(run("fig3 --metrics-addr 127.0.0.1:0"));
        assert!(msg.contains("unknown argument '--metrics-addr'"), "{msg}");
        let msg = usage_error(validate("--metrics-addr 127.0.0.1:0"));
        assert!(
            msg.contains("unknown validate argument '--metrics-addr'"),
            "{msg}"
        );
        assert!(!RUN_USAGE.contains("metrics") && !VALIDATE_USAGE.contains("metrics"));
    }

    #[test]
    fn profile_is_gone() {
        let msg = usage_error(run("profile"));
        assert!(msg.contains("unknown experiment 'profile'"), "{msg}");
        let msg = usage_error(run("fig3 --profile"));
        assert!(msg.contains("unknown argument '--profile'"), "{msg}");
        assert!(!RUN_USAGE.contains("profile"));
    }

    fn trace(line: &str) -> Result<TraceArgs, CliError> {
        let a = args(line);
        let diff = a.first().is_some_and(|a| a == "diff");
        parse_trace(&a[usize::from(diff)..], diff)
    }

    #[test]
    fn trace_flags_parse_in_one_loop() {
        let t = trace("t.jsonl --folded --worker w1").unwrap();
        assert_eq!(t.files, ["t.jsonl"]);
        assert!(t.folded && !t.json && t.fail_on_regress.is_none());
        assert_eq!(t.worker.as_deref(), Some("w1"));
        let d = trace("diff a b --json --worker local").unwrap();
        assert_eq!(d.files, ["a", "b"]);
        assert!(d.json && !d.folded);
        assert_eq!(d.worker.as_deref(), Some("local"));
        for line in ["--worker", "t.jsonl --worker", "diff a b --worker"] {
            assert!(usage_error(trace(line)).starts_with("--worker"), "{line}");
        }
        assert!(usage_error(trace("t.jsonl --json")).contains("'--json'"));
        assert!(usage_error(trace("diff a b --folded")).contains("'--folded'"));
        assert!(usage_error(trace("a b")).contains("one trace file"));
        assert!(usage_error(trace("diff a")).contains("two trace files"));
    }

    #[test]
    fn fail_on_regress_takes_a_finite_non_negative_pct() {
        let pct = |line: &str| trace(line).map(|t| t.fail_on_regress);
        assert_eq!(pct("diff a b --fail-on-regress"), Ok(Some(10.0)));
        assert_eq!(pct("diff a b --fail-on-regress --json"), Ok(Some(10.0)));
        assert_eq!(pct("diff --fail-on-regress a b"), Ok(Some(10.0)));
        assert_eq!(pct("diff a b --fail-on-regress 5"), Ok(Some(5.0)));
        assert_eq!(pct("diff a b --fail-on-regress 0"), Ok(Some(0.0)));
        assert_eq!(pct("diff a b"), Ok(None));
        for bad in ["nan", "NaN", "inf", "-inf", "-5"] {
            let msg = usage_error(pct(&format!("diff a b --fail-on-regress {bad}")));
            assert!(
                msg.starts_with("--fail-on-regress") && msg.contains(bad),
                "{msg}"
            );
            assert_eq!(CliError::Usage(msg).report(TRACE_USAGE), 2);
        }
    }
}
