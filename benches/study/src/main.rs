//! `study-bench`: calibrated seconds per cold paper-artifact build on four
//! workloads, a traced operation that splits one build into layers, and
//! BADCO's error beside the timings.
//!
//! ```text
//! study-bench --workload NAME|all [--seed HEX] [--seconds S] [--trace 0|1]
//!             [--trace-file FILE]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `README.md`
//! beside this crate gives the protocol, the workloads and the metrics.

mod calib;
mod heap;
mod layers;
mod stats;
mod study;

use layers::Traced;
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use study::{count, Artifact, Report, Timed, Work, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage: study-bench --workload NAME|all [--seed HEX] [--seconds S] \
                     [--trace 0|1] [--trace-file FILE]";

/// Operations timed even when `--seconds` has passed.
const MIN_OPS: usize = 5;
/// Traced operations run even when `--seconds` has passed.
const MIN_TRACED: usize = 5;
/// A calibration sample this far above the run's 5th percentile counts as
/// taken while the host was slow.
const SLOW: f64 = 1.25;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: study::FIXED_SEED,
        seconds: 25.0,
        trace: false,
        trace_file: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                let hex = v.strip_prefix("0x").unwrap_or(v);
                out.seed = u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("--seed wants a hexadecimal number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds wants a non-negative number, got {v:?}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--trace-file" => out.trace_file = Some(value()?.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.workload != "all" && study::workload(&out.workload).is_none() {
        let names: Vec<&str> = study::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload wants one of {} or all, got {:?}",
            names.join(", "),
            out.workload
        ));
    }
    if out.trace_file.is_some() && !out.trace {
        return Err("--trace-file needs --trace 1".to_owned());
    }
    Ok(out)
}

/// A directory removed again when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty store directory under this one.
    fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `.work` itself goes once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Units attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// What every operation must reproduce: the warm-up operation's reports'
/// digests and its work counts.
struct Reference {
    reports: Vec<Report>,
    digests: Vec<u64>,
    work: Work,
}

impl Reference {
    fn check(&self, wl: &Workload, reports: &[Report], work: &Work) -> Result<(), String> {
        for ((a, r), want) in wl.artifacts.iter().zip(reports).zip(&self.digests) {
            let got = r.digest();
            if got != *want {
                return Err(format!(
                    "{}: digest {got:016x} differs from {want:016x}",
                    a.name()
                ));
            }
        }
        if *work != self.work {
            return Err(format!(
                "work {work:?} differs from the warm-up operation's {:?}",
                self.work
            ));
        }
        Ok(())
    }
}

/// Checks a unit's reports, work and store traffic. Set-up repetitions
/// build no report, so only their warm-store traffic is checked.
fn verify(
    wl: &Workload,
    result: &Result<Vec<Report>, String>,
    work: &Work,
    store: &mps_store::StoreStats,
    reference: Option<&Reference>,
) -> Result<(), String> {
    let reports = result.as_ref().map_err(String::clone)?;
    if wl.warm {
        study::warm_check(work, store)?;
    }
    if reports.is_empty() {
        return Ok(());
    }
    reference
        .ok_or("no reference: the warm-up operation failed")?
        .check(wl, reports, work)
}

/// A measured unit: its raw and calibrated seconds and the mean of the
/// two kernel samples around it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    raw: f64,
    calibrated: f64,
    calib: f64,
}

/// The kernel samples of a run, taken between its units.
struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    fn start() -> Calibration {
        Calibration {
            samples: vec![calib::sample()],
        }
    }

    /// Samples the kernel after a unit that took `secs`.
    fn after(&mut self, secs: f64) -> Sample {
        let before = *self.samples.last().expect("started with a sample");
        let after = calib::sample();
        self.samples.push(after);
        Sample {
            raw: secs,
            calibrated: calib::calibrate(secs, before, after),
            calib: (before + after) / 2.0,
        }
    }

    /// Share of `values` above [`SLOW`] times the run's 5th percentile.
    fn slow_share(&self, values: &[f64]) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        let p5 = s[(s.len() - 1) / 20];
        values.iter().filter(|&&v| v > SLOW * p5).count() as f64 / values.len().max(1) as f64
    }
}

/// Everything one run measured.
struct Run {
    /// The sizing the seed resolved to.
    scale: mps_harness::Scale,
    tally: Tally,
    cal: Calibration,
    setup: Vec<Sample>,
    ops: Vec<Sample>,
    peak_heap_mb: Vec<f64>,
    /// CPU seconds over wall seconds of each operation.
    cpu_share: Vec<f64>,
    /// The last timed operation, for its exact counts.
    last_op: Option<Timed>,
    traced: Vec<(Traced, Sample)>,
    accuracy: Vec<(&'static str, f64)>,
    digests: Vec<(&'static str, u64)>,
    /// Store size after a cold operation (the filled store when warm).
    store_bytes: u64,
}

fn measures_accuracy(wl: &Workload) -> bool {
    wl.artifacts
        .iter()
        .any(|a| matches!(a, Artifact::Fig2 | Artifact::Validate))
}

/// BADCO's error from the artifacts of `workloads` that measure it. A
/// workload that builds one reports its warm-up operation's; the others
/// build it once, untimed, at the scale of the workload that owns it.
fn accuracy(
    wl: &Workload,
    workloads: &[Workload],
    seed: u64,
    reference: Option<&Reference>,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for owner in workloads.iter().filter(|w| measures_accuracy(w)) {
        if owner.name == wl.name {
            // A failed warm-up operation is counted already.
            if let Some(r) = reference {
                out.extend(r.reports.iter().flat_map(Report::accuracy));
            }
            continue;
        }
        let built = study::guarded("accuracy", || {
            let ctx = study::context(&study::scale_for(owner, seed)?, None)?;
            owner
                .artifacts
                .iter()
                .map(|&a| study::build(&ctx, a))
                .collect::<Result<Vec<_>, _>>()
        });
        if let Ok(reports) = &built {
            out.extend(reports.iter().flat_map(Report::accuracy));
        }
        tally.record(&format!("{} accuracy", owner.name), built.map(drop));
    }
    out
}

/// How one run measures.
struct Plan<'a> {
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_file: Option<&'a str>,
    /// Every workload, for the accuracy artifacts `wl` does not build.
    workloads: &'a [Workload],
}

fn run(wl: &Workload, plan: &Plan) -> Result<Run, String> {
    let (seed, seconds, traced) = (plan.seed, plan.seconds, plan.traced);
    let work = WorkDir::new(wl.name)?;
    let scale = study::scale_for(wl, seed)?;
    let mut tally = Tally::default();

    // The warm workload's store is filled once, by a cold operation.
    let filled = work.0.join("filled");
    if wl.warm {
        let cold = Workload { warm: false, ..*wl };
        let fill = study::op(&cold, &scale, &filled);
        tally.record("fill", fill.result.map(drop));
    }
    let store = |name: &str| {
        if wl.warm {
            filled.clone()
        } else {
            work.fresh(name)
        }
    };

    // The untimed warm-up operation sets the reference.
    let warm_store = store("op");
    let warm = study::op(wl, &scale, &warm_store);
    let store_bytes = study::dir_bytes(&warm_store);
    let reference = match warm.result {
        Ok(reports) => {
            let verdict = if wl.warm {
                study::warm_check(&warm.work, &warm.store)
            } else {
                Ok(())
            };
            let ok = verdict.is_ok();
            tally.record("warm-up", verdict);
            ok.then(|| Reference {
                digests: reports.iter().map(Report::digest).collect(),
                reports,
                work: warm.work,
            })
        }
        Err(e) => {
            tally.record("warm-up", Err(e));
            None
        }
    };
    let accuracy = accuracy(wl, plan.workloads, seed, reference.as_ref(), &mut tally);
    let digests = reference.as_ref().map_or(Vec::new(), |r| {
        wl.artifacts
            .iter()
            .map(|a| a.name())
            .zip(r.digests.iter().copied())
            .collect()
    });

    let mut r = Run {
        scale: scale.clone(),
        tally,
        cal: Calibration::start(),
        setup: Vec::new(),
        ops: Vec::new(),
        peak_heap_mb: Vec::new(),
        cpu_share: Vec::new(),
        last_op: None,
        traced: Vec::new(),
        accuracy,
        digests,
        store_bytes,
    };
    // With tracing, timed operations fill the first half of the window and
    // traced operations the second, so that the trace file holds only the
    // traced ones and the set-up repetitions between them.
    let window = Duration::from_secs_f64(seconds);
    let timed_window = if traced { window / 2 } else { window };
    let t0 = Instant::now();
    let mut tracing = false;
    loop {
        if !tracing && t0.elapsed() >= timed_window && r.ops.len() >= MIN_OPS {
            if !traced {
                break;
            }
            if reference.is_none() {
                let e = "no reference: the warm-up operation failed";
                r.tally.record("traced op", Err(e.to_owned()));
                break;
            }
            if let Some(path) = plan.trace_file {
                mps_obs::set_sink_path(path).map_err(|e| format!("open trace file {path}: {e}"))?;
            }
            tracing = true;
        }
        if tracing && t0.elapsed() >= window && r.traced.len() >= MIN_TRACED {
            break;
        }
        // Set-up repetitions alternate with the operations, so that both
        // sample the same stretch of the host's speed, and every operation,
        // traced or not, follows the same sequence of work.
        let span = tracing.then(|| mps_obs::span("bench.setup"));
        let s = study::setup(wl, &scale, &store("setup"));
        drop(span);
        r.setup.push(r.cal.after(s.secs));
        let v = verify(wl, &s.result, &s.work, &s.store, reference.as_ref());
        r.tally.record("set-up", v);

        match (&reference, tracing) {
            (Some(reference), true) => {
                let t = layers::traced_op(wl, &scale, &store("traced"), &reference.reports);
                let sample = r.cal.after(t.secs);
                let v = verify(wl, &t.result, &t.work, &t.store, Some(reference));
                r.tally.record("traced op", v);
                r.traced.push((t, sample));
            }
            _ => {
                let op = study::op(wl, &scale, &store("op"));
                r.ops.push(r.cal.after(op.secs));
                r.peak_heap_mb.push(op.peak_heap_mb);
                r.cpu_share.push(op.secs / op.wall_s);
                let v = verify(wl, &op.result, &op.work, &op.store, reference.as_ref());
                r.tally.record("op", v);
                r.last_op = Some(op);
            }
        }
    }
    mps_obs::flush();
    Ok(r)
}

/// A named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn calibrated(v: &[Sample]) -> Vec<f64> {
    v.iter().map(|s| s.calibrated).collect()
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let acc = |name| {
        r.accuracy
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    vec![
        ("artifact_s", median(&calibrated(&r.ops)), "s"),
        ("setup_s", median(&calibrated(&r.setup)), "s"),
        ("peak_heap_mb", median(&r.peak_heap_mb), "MiB"),
        ("ipc_err_pct", acc("ipc_err_pct"), "%"),
        ("cpi_err_2c_pct", acc("cpi_err_2c_pct"), "%"),
        ("cpi_err_4c_pct", acc("cpi_err_4c_pct"), "%"),
    ]
}

/// One traced operation's metrics, its seconds calibrated like an
/// operation's by the kernel samples around it.
fn traced_metrics(t: &Traced, s: &Sample, artifact_s: f64) -> Vec<Metric> {
    let f = ratio(s.calibrated, s.raw);
    let secs = |layer: &str| t.secs(layer) * f;
    let total = |name: &str| count(&t.counters, name) as f64;
    let detailed = ["sim_cpu.batched", "sim_cpu.scalar"];
    let detailed_s = secs(detailed[0]) + secs(detailed[1]);
    let (skipped, executed) = (
        total("batch.cycles_skipped"),
        total("batch.cycles_executed"),
    );
    let in_layer = |layer: &str, counter: &str| t.count_in(&[layer], counter) as f64;
    vec![
        ("workloads.capture_s", secs("workloads.capture"), "s"),
        ("badco.train_s", secs("badco.train"), "s"),
        ("badco.sim_s", secs("badco.sim"), "s"),
        (
            "badco.minst_per_s",
            ratio(
                in_layer("badco.sim", "sim.badco.instructions") / 1e6,
                secs("badco.sim"),
            ),
            "Minst/s",
        ),
        ("badco.runs", total("sim.badco.runs"), "count"),
        ("sim_cpu.batched_s", secs("sim_cpu.batched"), "s"),
        ("sim_cpu.scalar_s", secs("sim_cpu.scalar"), "s"),
        (
            "sim_cpu.ns_per_cycle",
            ratio(
                detailed_s * 1e9,
                t.count_in(&detailed, "sim.detailed.cycles") as f64,
            ),
            "ns",
        ),
        (
            "sim_cpu.ticks_per_cycle",
            ratio(
                total("sim.detailed.core_ticks"),
                total("sim.detailed.cycles"),
            ),
            "ratio",
        ),
        (
            "sim_cpu.skip_ratio",
            ratio(skipped, skipped + executed),
            "ratio",
        ),
        ("sim_cpu.cycles", total("sim.detailed.cycles"), "count"),
        ("uncore.llc_accesses", total("uncore.llc.accesses"), "count"),
        ("uncore.llc_misses", total("uncore.llc.misses"), "count"),
        ("sampling.resample_s", secs("sampling.resample"), "s"),
        (
            "sampling.workloads_per_s",
            ratio(
                in_layer("sampling.resample", "estimate.workloads_evaluated"),
                secs("sampling.resample"),
            ),
            "1/s",
        ),
        ("store.load_s", secs("store.load"), "s"),
        ("harness.validate_s", secs("harness.validate"), "s"),
        (
            "obs.trace_overhead_pct",
            ratio(s.calibrated - artifact_s, artifact_s) * 100.0,
            "%",
        ),
        (
            "obs.unattributed_pct",
            ratio(t.secs - t.attributed_s(), t.secs) * 100.0,
            "%",
        ),
    ]
}

/// The per-layer metrics: each traced-operation metric's median over the
/// traced operations, then one timed operation's exact store and context
/// counts, then the host's calibration. Returned with the traced
/// operations' median calibrated stage total, which is printed, not
/// reported.
fn per_layer(r: &Run, artifact_s: f64) -> (Vec<Metric>, f64) {
    let each: Vec<Vec<Metric>> = r
        .traced
        .iter()
        .map(|(t, s)| traced_metrics(t, s, artifact_s))
        .collect();
    let mut m: Vec<Metric> = each.first().map_or(Vec::new(), |first| {
        first
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                let values: Vec<f64> = each.iter().map(|e| e[i].1).collect();
                (name, median(&values), unit)
            })
            .collect()
    });
    let stages: Vec<f64> = r
        .traced
        .iter()
        .map(|(t, s)| t.attributed_s() * ratio(s.calibrated, s.raw))
        .collect();
    if let Some(op) = &r.last_op {
        m.extend([
            ("store.puts", op.store.puts as f64, "count"),
            ("store.hits", op.store.hits as f64, "count"),
            ("store.misses", op.store.misses as f64, "count"),
            (
                "store.ckpt_records",
                count(&op.counters, "store.ckpt.recorded") as f64,
                "count",
            ),
            ("harness.ctx_rebuilds", op.rebuilds as f64, "count"),
        ]);
    }
    m.extend([
        ("store.bytes", r.store_bytes as f64, "B"),
        ("host.calib_ms", median(&r.cal.samples) * 1e3, "ms"),
        ("host.slow_share", r.cal.slow_share(&r.cal.samples), "ratio"),
    ]);
    (m, median(&stages))
}

/// Renders the final result line.
fn result_json(t: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        body.join(", ")
    )
}

/// Prints one timing: the calibrated samples' summary, the raw median and
/// the calibration behind it.
fn print_timing(name: &str, samples: &[Sample], cal: &Calibration) {
    let means: Vec<f64> = samples.iter().map(|s| s.calib).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.raw).collect();
    println!(
        "  {name:<12} {}; raw median {:.4}; calibration median {:.2} ms, slow share {:.2}",
        Summary::of(&calibrated(samples)),
        median(&raw),
        median(&means) * 1e3,
        cal.slow_share(&means),
    );
}

/// Runs one workload and prints its report; returns the result line.
fn run_workload(wl: &Workload, args: &Args) -> Result<String, String> {
    let ctx = study::context(&(wl.scale)(args.seed), None)?;
    println!(
        "study-bench workload={} seed={:x} jobs={} batch={} nproc={}",
        wl.name,
        args.seed,
        ctx.jobs(),
        ctx.batch(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    drop(ctx);
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        trace_file: args.trace_file.as_deref(),
        workloads: &study::WORKLOADS,
    };
    let r = run(wl, &plan)?;
    println!("  scale: {}", r.scale.spec_string());
    println!(
        "  host: kernel median {:.2} ms over {} samples against C_REF {:.2} ms",
        median(&r.cal.samples) * 1e3,
        r.cal.samples.len(),
        calib::C_REF * 1e3,
    );
    print_timing("artifact_s", &r.ops, &r.cal);
    print_timing("setup_s", &r.setup, &r.cal);
    println!("  peak_heap_mb {}", Summary::of(&r.peak_heap_mb));
    println!("  cpu/wall     {}", Summary::of(&r.cpu_share));
    let e2e = end_to_end(&r);
    let accuracy: Vec<String> = e2e[3..]
        .iter()
        .map(|(n, v, _)| format!("{n}={v:.2}"))
        .collect();
    println!("  accuracy: {}", accuracy.join(" "));
    if let Some(op) = &r.last_op {
        let work: Vec<String> = study::WORK
            .iter()
            .zip(op.work)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!("  work per op: {}", work.join(" "));
    }
    for (name, d) in &r.digests {
        println!("  digest {name:<9} {d:016x}");
    }
    println!(
        "  fail_ratio {} ({} of {} units)",
        ratio(r.tally.failed as f64, r.tally.attempted as f64),
        r.tally.failed,
        r.tally.attempted
    );
    for e in &r.tally.errors {
        println!("  FAILED {e}");
    }
    let metrics = if args.trace {
        let artifact_s = e2e[0].1;
        let (m, stages_s) = per_layer(&r, artifact_s);
        for (name, value, unit) in &m {
            println!("  {name:<26} {value:>16.4} {unit}");
        }
        let share = ratio(stages_s, artifact_s);
        println!(
            "  coverage: stages {stages_s:.4} s against artifact_s {artifact_s:.4} s \
             ({:+.1}%): {}",
            (share - 1.0) * 100.0,
            if (share - 1.0).abs() <= 0.10 {
                "within 10%"
            } else {
                "OUTSIDE 10%"
            }
        );
        m
    } else {
        e2e
    };
    Ok(result_json(&r.tally, &metrics))
}

/// `--workload all`: one child process per workload, so that no counter,
/// cache or heap state of one reaches another. Each child's
/// report is printed as it is; the final line sums their unit counts.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut total = Tally::default();
    for wl in &study::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", wl.name])
            .args(["--seed", &format!("{:x}", args.seed)])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(f) = &args.trace_file {
            cmd.args(["--trace-file", &format!("{f}.{}", wl.name)]);
        }
        let out = cmd.output().map_err(|e| format!("run {}: {e}", wl.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            return Err(format!("{} exited with {}", wl.name, out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        total.attempted += field("attempted");
        total.failed += field("failed");
    }
    Ok(result_json(&total, &[]))
}

fn main() -> ExitCode {
    // Settings from the environment would change what is measured: every
    // context here has one worker, the default batch and no sink or store
    // beyond the benchmark's own.
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MPS_"))
        .collect();
    for k in &cleared {
        std::env::remove_var(k);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("study-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !cleared.is_empty() {
        println!("study-bench: cleared {}", cleared.join(" "));
    }
    let result = match study::workload(&args.workload) {
        Some(wl) => run_workload(wl, &args),
        None => run_all(&args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("study-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    /// The `"name"` values of one section of `BENCHMARK.json`, sorted.
    fn declared(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let mut names: Vec<String> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect();
        names.sort();
        names
    }

    fn names(m: &[Metric]) -> Vec<String> {
        let mut n: Vec<String> = m.iter().map(|(n, _, _)| n.to_string()).collect();
        n.sort();
        n
    }

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload badco-grid --seed 17 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload, "badco-grid");
        assert_eq!(a.seed, 0x17);
        assert_eq!(a.seconds, 15.0);
        assert!(a.trace);
        assert_eq!(
            args("--workload all --seed 0xc0ffee").unwrap().seed,
            0xC0FFEE
        );
        let a = args("--workload warm-store --trace 1 --trace-file t.jsonl").unwrap();
        assert_eq!(a.trace_file.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope").is_err());
        assert!(args("--workload warm-store --trace 2").is_err());
        assert!(args("--workload warm-store --seed xyz").is_err());
        assert!(args("--workload warm-store --seconds -1").is_err());
        assert!(args("--workload warm-store --seconds").is_err());
        assert!(args("--workload warm-store --trace-file t.jsonl").is_err());
        assert!(args("--bogus 1").is_err());
    }

    /// Small enough for a debug build; every artifact keeps its shape.
    fn smoke_scale(seed: u64) -> mps_harness::Scale {
        mps_harness::Scale {
            trace_len: 1_000,
            pop_4core: 30,
            pop_8core: 10,
            confidence_samples: 20,
            detailed_sample: 4,
            accuracy_workloads: 2,
            sample_sizes: vec![5, 10],
            seed,
        }
    }

    #[test]
    fn every_workload_runs_clean_and_emits_the_declared_metrics() {
        let _lock = study::simulating();
        let t0 = Instant::now();
        let workloads = study::WORKLOADS.map(|wl| Workload {
            scale: smoke_scale,
            ..wl
        });
        let plan = Plan {
            seed: study::FIXED_SEED,
            seconds: 0.0,
            traced: true,
            trace_file: None,
            workloads: &workloads,
        };
        for wl in &workloads {
            let r = run(wl, &plan).expect("run completes");
            assert_eq!(r.tally.failed, 0, "{}: {:?}", wl.name, r.tally.errors);
            assert_eq!(r.ops.len(), MIN_OPS, "{}", wl.name);
            assert_eq!(r.traced.len(), MIN_TRACED, "{}", wl.name);
            let e2e = end_to_end(&r);
            for (name, value, _) in &e2e {
                assert!(*value > 0.0, "{}: {name} = {value}", wl.name);
            }
            assert_eq!(names(&e2e), declared("end_to_end"), "{}", wl.name);
            let (layer, stages_s) = per_layer(&r, e2e[0].1);
            assert!(stages_s > 0.0, "{}", wl.name);
            assert_eq!(names(&layer), declared("per_layer"), "{}", wl.name);
            let get = |name| layer.iter().find(|m| m.0 == name).expect("emitted").1;
            if wl.warm {
                assert_eq!(get("badco.runs"), 0.0);
                assert_eq!(get("store.misses"), 0.0);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        assert!(secs < 60.0, "smoke run took {secs:.1} s");
    }
}
