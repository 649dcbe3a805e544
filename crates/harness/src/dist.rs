//! Distributed grid execution: a coordinator that shards experiment-grid
//! cells across worker *processes*, locally spawned (`--workers N`) or
//! attached over TCP (`mps-harness worker --connect HOST:PORT`).
//!
//! # Architecture
//!
//! The unit of distribution is the **grid cell** — the same unit the
//! store records (one entry per completed cell in its grid's cell
//! journal, keyed by the descriptor). An experiment enumerates its cells
//! up front as [`DistCell`] descriptors (each carrying its pre-drawn RNG
//! base, so the value is a pure function of the descriptor), then calls
//! [`run_grid`] with a [`CellInputs`] memo.
//!
//! One evaluator computes every cell, in every process: `eval_cell`
//! reads the descriptor and the inputs it names (pair data, population
//! and sampler of a confidence source; the model set of a validation
//! core count) from a [`CellInputs`], which builds each of them once.
//! Every cell found in its grid's cell journal is served from there;
//! the rest are computed and appended:
//!
//! * without a coordinator, the missed cells' inputs are resolved
//!   serially (so model training and table builds use the whole pool),
//!   then the cells evaluate in parallel across `--jobs`, one thread
//!   each;
//! * with a coordinator, one dispatcher thread per connected worker pops
//!   cell indices off a shared [`mps_par::CellQueue`] and round-trips
//!   them over TCP. The worker's stream is the only record of who
//!   computes a cell: while a task is in flight the worker sends a
//!   `dist.renew` every quarter of the silence timeout. A worker that
//!   dies closes its stream (EOF) and one that stalls falls silent for the
//!   whole timeout; either way the coordinator requeues its in-flight
//!   cell. Any cells still unassigned when every worker is gone are
//!   computed by the coordinator itself, through the same evaluator, so a
//!   run *always* completes. A duplicate evaluation by a stalled worker
//!   is benign: cells are pure and only the coordinator records them. A
//!   worker keeps one [`CellInputs`] per connection.
//!
//! The coordinator alone reads and appends to cell journals and performs
//! the same index-ordered merge as the local path, so artifacts are
//! byte-identical for any worker count and any `--jobs`. The
//! content-addressed store is the shared result exchange: workers warm it
//! with the expensive artifacts (BADCO tables, detailed tables,
//! references) via [`prefetch`] tasks, and both sides load the same
//! bytes back. Remote workers must therefore see the same store
//! directory (shared filesystem) as the coordinator.
//!
//! # Wire protocol
//!
//! Line-delimited JSON over one TCP stream per worker, reusing the obs
//! event encoding (`mps_obs::jsonl`):
//!
//! ```text
//! worker → coordinator   dist.hello    {id, pid}
//! coordinator → worker   dist.config   {tl,…,seed, store, jobs, trace}
//! coordinator → worker   dist.task     {id, kind, …descriptor fields}
//! worker → coordinator   dist.renew    {id}              (liveness heartbeat)
//! worker → coordinator   span records  {…, worker-untagged} (traced runs only)
//! worker → coordinator   dist.done     {id, values}
//! worker → coordinator   dist.fail     {id, error}
//! coordinator → worker   dist.shutdown {}
//! ```
//!
//! Values travel as space-joined `f64` bit patterns in hex, so results
//! round-trip bit-exactly. See `docs/distributed.md` for the failure
//! model.
//!
//! # Span shipping
//!
//! When the coordinator records a trace (a JSONL sink is installed when
//! it starts), `dist.config` says so with `trace=1`, and each worker
//! buffers its finished spans in the `mps-obs` span tap. Every heartbeat
//! tick, and once more right before every `dist.done`, the worker writes
//! the spans finished since into its stream. The coordinator re-emits
//! them into its own trace, tagged with the worker id and with span ids
//! namespaced by a worker-id hash, so the fleet's trace parses as one
//! tree. Shipping is fire-and-forget: a failed write loses spans, never
//! a cell. Without a trace (`trace=0`) workers record no spans at all.
//! Artifacts are byte-identical either way.

use crate::runner::StudyContext;
use crate::scale::Scale;
use mps_badco::BadcoModel;
use mps_metrics::ThroughputMetric;
use mps_obs::jsonl::{encode_event, encode_span_tagged, parse as parse_jsonl, Record};
use mps_sampling::{
    empirical_confidence_seeded, BalancedRandomSampling, BenchmarkStratification, PairData,
    Population, RandomSampling, Sampler, WorkloadStratification,
};
use mps_store::{Error, Store};
use mps_uncore::PolicyKind;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long the coordinator waits on a worker's stream mid-task before
/// it counts the worker dead and requeues the cell. A busy worker sends
/// `dist.renew` every quarter of it, so a healthy one cannot plausibly
/// miss it; a killed one closes its stream and is noticed at once.
const WORKER_SILENCE: Duration = Duration::from_secs(30);

/// How long `run_grid` waits for the first worker to connect before
/// falling back to local evaluation. Once a worker has attached, a grid
/// whose workers are all dead computes its cells at once.
const WORKER_WAIT: Duration = Duration::from_secs(10);

/// Test hook: a worker exits abruptly, mid-task, just before reporting
/// its N-th completed cell. Mirrors the cell-record
/// `MPS_ABORT_AFTER_CELLS` fault-injection hook.
const EXIT_AFTER_ENV: &str = "MPS_DIST_EXIT_AFTER_CELLS";

// ---------------------------------------------------------------------
// Cell descriptors
// ---------------------------------------------------------------------

/// Which pair data a confidence cell resamples. The tag fully determines
/// outcome data, strata source and population, so a worker can rebuild
/// the inputs from its own store-backed context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfSource {
    /// Figure 3: BADCO DIP-vs-DRRIP under WSU at `cores`.
    Fig3 {
        /// Core count of the panel.
        cores: usize,
    },
    /// Figure 6: BADCO pair `fig6_pairs()[pair]` under IPCT at 4 cores.
    Fig6 {
        /// Panel index into [`crate::experiments::confidence::fig6_pairs`].
        pair: usize,
    },
    /// Figure 7: detailed LRU-vs-DIP outcomes over the full 2-core
    /// population, strata from the BADCO differences.
    Fig7,
}

/// Validation cell side: which simulator produced the per-thread IPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValSide {
    /// Detailed simulator.
    Detailed,
    /// BADCO (with the sweep's perturbation applied).
    Badco,
}

/// A store-warming task: computes (and therefore persists) one expensive
/// shared artifact on whichever worker claims it, so the grid cells that
/// follow find it in the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// The BADCO population throughput table for `(cores, policy)`.
    Table {
        /// Core count.
        cores: usize,
        /// Replacement policy.
        policy: PolicyKind,
    },
    /// The detailed-simulator table over the full population.
    DetailedTable {
        /// Core count.
        cores: usize,
        /// Replacement policy.
        policy: PolicyKind,
    },
    /// Models plus BADCO/detailed reference IPCs for `cores`.
    Refs {
        /// Core count.
        cores: usize,
    },
}

impl PrefetchKind {
    fn cores(&self) -> usize {
        match *self {
            PrefetchKind::Table { cores, .. }
            | PrefetchKind::DetailedTable { cores, .. }
            | PrefetchKind::Refs { cores } => cores,
        }
    }

    fn tag(&self) -> String {
        match *self {
            PrefetchKind::Table { cores, policy } => format!("table;c{cores};{policy}"),
            PrefetchKind::DetailedTable { cores, policy } => format!("dtable;c{cores};{policy}"),
            PrefetchKind::Refs { cores } => format!("refs;c{cores}"),
        }
    }
}

/// Wire-serializable description of one distributable cell evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CellDesc {
    /// One empirical-confidence resampling cell (figures 3/6/7).
    Confidence {
        /// Pair-data source.
        source: ConfSource,
        /// Sampling method name (`random`, `bal-random`, `bench-strata`,
        /// `workload-strata`).
        method: String,
        /// Sample size `W`.
        w: usize,
        /// Resamples.
        samples: usize,
        /// Pre-drawn RNG base — the cell's entire entropy.
        base: u64,
    },
    /// One validation-sweep cell side (per-thread IPCs of one workload).
    Validate {
        /// Core count.
        cores: usize,
        /// Replacement policy.
        policy: PolicyKind,
        /// Index of the policy in the sweep's policy list (seed stream).
        p_idx: usize,
        /// Workload index within the `(cores, policy)` group.
        widx: usize,
        /// BADCO coefficient perturbation factor.
        perturb: f64,
        /// Which simulator to run.
        side: ValSide,
    },
    /// A store-warming task; evaluates to zero values.
    Prefetch {
        /// What to warm.
        what: PrefetchKind,
    },
}

impl CellDesc {
    /// How many values the cell evaluates to: one confidence, one IPC per
    /// validated thread, nothing for a prefetch.
    pub fn value_count(&self) -> usize {
        match self {
            CellDesc::Confidence { .. } => 1,
            CellDesc::Validate { cores, .. } => *cores,
            CellDesc::Prefetch { .. } => 0,
        }
    }

    /// Encodes the descriptor as `dist.task` event fields.
    pub(crate) fn fields(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        self.for_each_field(&mut |k, v| out.push((k, v.to_string())));
        out
    }

    /// Calls `f` with each `dist.task` field of the descriptor in wire
    /// order, formatting nothing: [`CellDesc::fields`] collects them, the
    /// cell journal hashes them into the cell's key.
    pub(crate) fn for_each_field(&self, f: &mut dyn FnMut(&'static str, &dyn fmt::Display)) {
        match self {
            CellDesc::Confidence {
                source,
                method,
                w,
                samples,
                base,
            } => {
                f("kind", &"conf");
                match source {
                    ConfSource::Fig3 { cores } => {
                        f("src", &"fig3");
                        f("cores", cores);
                    }
                    ConfSource::Fig6 { pair } => {
                        f("src", &"fig6");
                        f("pair", pair);
                    }
                    ConfSource::Fig7 => f("src", &"fig7"),
                }
                f("method", method);
                f("w", w);
                f("samples", samples);
                f("base", &format_args!("{base:016x}"));
            }
            CellDesc::Validate {
                cores,
                policy,
                p_idx,
                widx,
                perturb,
                side,
            } => {
                f("kind", &"val");
                f("cores", cores);
                f("policy", &policy.short_name());
                f("pidx", p_idx);
                f("widx", widx);
                f("perturb", &format_args!("{:016x}", perturb.to_bits()));
                let side = match side {
                    ValSide::Detailed => "det",
                    ValSide::Badco => "badco",
                };
                f("side", &side);
            }
            CellDesc::Prefetch { what } => {
                f("kind", &"pre");
                match what {
                    PrefetchKind::Table { cores, policy } => {
                        f("what", &"table");
                        f("cores", cores);
                        f("policy", &policy.short_name());
                    }
                    PrefetchKind::DetailedTable { cores, policy } => {
                        f("what", &"dtable");
                        f("cores", cores);
                        f("policy", &policy.short_name());
                    }
                    PrefetchKind::Refs { cores } => {
                        f("what", &"refs");
                        f("cores", cores);
                    }
                }
            }
        }
    }

    /// Decodes a descriptor from `dist.task` event fields.
    fn from_fields(f: &BTreeMap<String, String>) -> Result<CellDesc, String> {
        let get = |k: &str| f.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let num = |k: &str| -> Result<usize, String> {
            get(k)?.parse().map_err(|_| format!("bad number in '{k}'"))
        };
        let policy = |k: &str| -> Result<PolicyKind, String> {
            let name = get(k)?;
            PolicyKind::from_short_name(name).ok_or_else(|| format!("unknown policy '{name}'"))
        };
        match get("kind")?.as_str() {
            "conf" => {
                let source = match get("src")?.as_str() {
                    "fig3" => ConfSource::Fig3 {
                        cores: num("cores")?,
                    },
                    "fig6" => ConfSource::Fig6 { pair: num("pair")? },
                    "fig7" => ConfSource::Fig7,
                    other => return Err(format!("unknown conf source '{other}'")),
                };
                Ok(CellDesc::Confidence {
                    source,
                    method: get("method")?.clone(),
                    w: num("w")?,
                    samples: num("samples")?,
                    base: u64::from_str_radix(get("base")?, 16)
                        .map_err(|_| "bad base".to_owned())?,
                })
            }
            "val" => Ok(CellDesc::Validate {
                cores: num("cores")?,
                policy: policy("policy")?,
                p_idx: num("pidx")?,
                widx: num("widx")?,
                perturb: f64::from_bits(
                    u64::from_str_radix(get("perturb")?, 16)
                        .map_err(|_| "bad perturb".to_owned())?,
                ),
                side: match get("side")?.as_str() {
                    "det" => ValSide::Detailed,
                    "badco" => ValSide::Badco,
                    other => return Err(format!("unknown side '{other}'")),
                },
            }),
            "pre" => {
                let what = match get("what")?.as_str() {
                    "table" => PrefetchKind::Table {
                        cores: num("cores")?,
                        policy: policy("policy")?,
                    },
                    "dtable" => PrefetchKind::DetailedTable {
                        cores: num("cores")?,
                        policy: policy("policy")?,
                    },
                    "refs" => PrefetchKind::Refs {
                        cores: num("cores")?,
                    },
                    other => return Err(format!("unknown prefetch '{other}'")),
                };
                Ok(CellDesc::Prefetch { what })
            }
            other => Err(format!("unknown cell kind '{other}'")),
        }
    }
}

/// One distributable cell: a wire id and the evaluation descriptor
/// (which also keys the cell's store record).
#[derive(Debug, Clone, PartialEq)]
pub struct DistCell {
    /// Wire identity; unique within its grid.
    pub id: String,
    /// How to evaluate the cell anywhere.
    pub desc: CellDesc,
}

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

fn join_values(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_values(s: &str) -> Option<Vec<f64>> {
    s.split_whitespace()
        .map(|t| u64::from_str_radix(t, 16).ok().map(f64::from_bits))
        .collect()
}

fn scale_fields(s: &Scale) -> Vec<(&'static str, String)> {
    let sizes: Vec<String> = s.sample_sizes.iter().map(|n| n.to_string()).collect();
    vec![
        ("tl", s.trace_len.to_string()),
        ("p4", s.pop_4core.to_string()),
        ("p8", s.pop_8core.to_string()),
        ("cs", s.confidence_samples.to_string()),
        ("ds", s.detailed_sample.to_string()),
        ("aw", s.accuracy_workloads.to_string()),
        ("ws", sizes.join("-")),
        ("seed", format!("{:x}", s.seed)),
    ]
}

fn scale_from_fields(f: &BTreeMap<String, String>) -> Option<Scale> {
    Some(Scale {
        trace_len: f.get("tl")?.parse().ok()?,
        pop_4core: f.get("p4")?.parse().ok()?,
        pop_8core: f.get("p8")?.parse().ok()?,
        confidence_samples: f.get("cs")?.parse().ok()?,
        detailed_sample: f.get("ds")?.parse().ok()?,
        accuracy_workloads: f.get("aw")?.parse().ok()?,
        sample_sizes: f
            .get("ws")?
            .split('-')
            .map(|t| t.parse().ok())
            .collect::<Option<Vec<usize>>>()?,
        seed: u64::from_str_radix(f.get("seed")?, 16).ok()?,
    })
}

fn send_line(stream: &mut TcpStream, name: &str, fields: &[(&str, String)]) -> std::io::Result<()> {
    let mut line = encode_event(name, fields);
    line.push('\n');
    stream.write_all(line.as_bytes())
}

// ---------------------------------------------------------------------
// The run_grid seam
// ---------------------------------------------------------------------

/// Evaluates a grid of cells and returns their values **in cell order**
/// (one `Vec<f64>` per cell, [`CellDesc::value_count`] values each).
///
/// Every cell recorded in the grid's journal is served from there.
/// Without a coordinator, the missed cells' inputs are then resolved
/// through `inputs`, one cell after another, and the cells evaluate in
/// parallel across `ctx.jobs()`, each on one thread and appended to the
/// journal when done; prefetch cells are skipped (the local path warms
/// its caches lazily anyway). With a coordinator the cells are sharded
/// across the connected workers; see the module docs for the failure
/// model. Either way the returned vector is index-ordered, which is what
/// keeps artifacts byte-identical for any worker count.
///
/// # Errors
///
/// An input that cannot be built (an unknown sampling method, say).
pub fn run_grid(
    ctx: &StudyContext,
    grid: &'static str,
    cells: &[DistCell],
    inputs: &CellInputs,
) -> Result<Vec<Vec<f64>>, Error> {
    if let Some(co) = ctx.coordinator() {
        return co.run_grid(ctx, grid, cells, inputs);
    }
    let mut out: Vec<Option<Vec<f64>>> = cells
        .iter()
        .map(|cell| match cell.desc {
            CellDesc::Prefetch { .. } => Some(Vec::new()),
            _ => ctx.replayed_cell(grid, &cell.desc),
        })
        .collect();
    let misses: Vec<usize> = (0..cells.len()).filter(|&i| out[i].is_none()).collect();
    for &i in &misses {
        inputs.resolve(ctx, &cells[i].desc)?;
    }
    let fresh = mps_par::par_map_indexed(ctx.jobs(), &misses, |_, &i| {
        let desc = &cells[i].desc;
        ctx.fresh_cell(grid, desc, || eval_cell(ctx, inputs, desc, 1))
    });
    for (&i, values) in misses.iter().zip(fresh) {
        out[i] = Some(values?);
    }
    Ok(out.into_iter().flatten().collect())
}

/// Warms the shared store with expensive artifacts through the workers.
/// A no-op without a coordinator (the local path builds lazily); errors
/// only if the local fallback itself cannot build an artifact.
pub fn prefetch(
    ctx: &StudyContext,
    grid: &'static str,
    kinds: &[PrefetchKind],
) -> Result<(), Error> {
    if ctx.coordinator().is_none() || kinds.is_empty() {
        return Ok(());
    }
    // Every kind needs its core count's traces and models. The first kind
    // of each core count runs in a round of its own, so those are built
    // once and stored before any other cell of that count asks for them.
    let (mut first, mut rest) = (Vec::new(), Vec::new());
    for k in kinds {
        if first.iter().any(|f: &PrefetchKind| f.cores() == k.cores()) {
            rest.push(*k);
        } else {
            first.push(*k);
        }
    }
    for round in [first, rest] {
        let cells: Vec<DistCell> = round
            .iter()
            .map(|k| DistCell {
                id: format!("prefetch;{}", k.tag()),
                desc: CellDesc::Prefetch { what: *k },
            })
            .collect();
        run_grid(ctx, grid, &cells, &CellInputs::default())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Distribution knobs, carried by the builder.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Local worker processes to spawn (0 = rely on remote attach).
    pub workers: usize,
    /// Listen address (`127.0.0.1:0` default; bind a routable address to
    /// accept `mps-harness worker --connect` from other machines).
    pub addr: String,
    /// Whether `addr` was chosen explicitly (then the coordinator waits
    /// for remote workers even with `workers == 0`).
    pub explicit_addr: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            workers: 0,
            addr: "127.0.0.1:0".to_owned(),
            explicit_addr: false,
        }
    }
}

/// Aggregated worker attribution of one run, written into the run
/// ledger (`dist.worker.<id>.cells` etc.) so `runs show` can say which
/// process computed which cells.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// `(grid, worker id)` → (cells computed, `dist.renew` lines read
    /// while they ran, coordinator-observed wall time summed over the
    /// cells, µs).
    pub per_worker: BTreeMap<(String, String), (u64, u64, u64)>,
    /// Cells computed by remote/spawned workers.
    pub cells_remote: u64,
    /// Cells computed by the coordinator fallback.
    pub cells_local: u64,
    /// Cells re-issued after a worker died or stalled.
    pub requeued: u64,
}

struct WorkerConn {
    id: String,
    writer: Mutex<TcpStream>,
    reader: Mutex<BufReader<TcpStream>>,
    alive: AtomicBool,
}

struct WorkerPool {
    conns: Mutex<Vec<Arc<WorkerConn>>>,
    stop: AtomicBool,
}

impl WorkerPool {
    fn live(&self) -> Vec<Arc<WorkerConn>> {
        lock(&self.conns)
            .iter()
            .filter(|w| w.alive.load(Ordering::Acquire))
            .cloned()
            .collect()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// The coordinator: owns the listener, the spawned worker processes and
/// the per-run provenance. Created by
/// [`StudyBuilder::workers`](crate::StudyBuilder::workers); dropped with
/// the context (sending `dist.shutdown` and reaping children).
pub struct Coordinator {
    addr: SocketAddr,
    pool: Arc<WorkerPool>,
    children: Mutex<Vec<Child>>,
    prov: Mutex<Provenance>,
    expect_workers: bool,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.addr)
            .field("workers_live", &self.pool.live().len())
            .finish_non_exhaustive()
    }
}

/// Resolves the worker executable: `MPS_WORKER_CMD` wins; otherwise the
/// current executable if it *is* `mps-harness`; otherwise a sibling
/// `mps-harness` next to (or one directory above) the current executable
/// — which finds `target/<profile>/mps-harness` from a test binary in
/// `target/<profile>/deps/`.
fn worker_command() -> Option<PathBuf> {
    if let Some(cmd) = std::env::var_os("MPS_WORKER_CMD") {
        return Some(PathBuf::from(cmd));
    }
    let exe = std::env::current_exe().ok()?;
    let bin = format!("mps-harness{}", std::env::consts::EXE_SUFFIX);
    if exe.file_name().map(|n| n.to_string_lossy().into_owned()) == Some(bin.clone()) {
        return Some(exe);
    }
    let parent = exe.parent()?;
    for dir in [Some(parent), parent.parent()].into_iter().flatten() {
        let candidate = dir.join(&bin);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

impl Coordinator {
    /// Binds the listener, spawns the requested local workers, and
    /// starts the accept thread that handshakes each connection.
    ///
    /// # Errors
    ///
    /// No store on the context (the store *is* the result exchange), a
    /// bind failure, an unresolvable worker executable, or a spawn
    /// failure.
    pub(crate) fn start(ctx: &StudyContext, opts: &DistOptions) -> Result<Arc<Self>, Error> {
        let store = ctx.store().cloned().ok_or_else(|| {
            Error::InvalidInput(
                "distributed execution needs an artifact store (--store DIR): \
                     the store is the coordinator/worker result exchange"
                    .to_owned(),
            )
        })?;
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| Error::Io(format!("bind coordinator on {}: {e}", opts.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("coordinator local addr: {e}")))?;

        // Split the thread budget across local workers; remote workers
        // override with their own --jobs.
        let worker_jobs = (ctx.jobs() / opts.workers.max(1)).max(1);
        let mut config: Vec<(&str, String)> = scale_fields(&ctx.scale);
        config.push(("store", store.root().display().to_string()));
        config.push(("jobs", worker_jobs.to_string()));
        config.push(("trace", u8::from(mps_obs::sink_installed()).to_string()));
        let mut config_line = encode_event("dist.config", &config);
        config_line.push('\n');

        let pool = Arc::new(WorkerPool {
            conns: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let accept_pool = Arc::clone(&pool);
        std::thread::Builder::new()
            .name("mps-dist-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_pool.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Some(conn) = handshake(stream, &config_line) {
                        mps_obs::counter("dist.workers.attached").incr();
                        lock(&accept_pool.conns).push(Arc::new(conn));
                        crate::heartbeat::set_live_workers(accept_pool.live().len());
                    }
                }
            })
            .map_err(|e| Error::Io(format!("spawn accept thread: {e}")))?;

        let mut children = Vec::new();
        if opts.workers > 0 {
            let cmd = worker_command().ok_or_else(|| {
                Error::InvalidInput(
                    "cannot locate the mps-harness executable to spawn workers \
                     (set MPS_WORKER_CMD to its path)"
                        .to_owned(),
                )
            })?;
            for i in 0..opts.workers {
                let child = Command::new(&cmd)
                    .args(["worker", "--connect", &addr.to_string(), "--id"])
                    .arg(format!("w{i}"))
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| Error::Io(format!("spawn worker {}: {e}", cmd.display())))?;
                mps_obs::counter("dist.workers.spawned").incr();
                children.push(child);
            }
        }

        Ok(Arc::new(Coordinator {
            addr,
            pool,
            children: Mutex::new(children),
            prov: Mutex::new(Provenance::default()),
            expect_workers: opts.workers > 0 || opts.explicit_addr,
        }))
    }

    /// The address workers connect to (`mps-harness worker --connect`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the worker attribution collected so far.
    pub fn provenance(&self) -> Provenance {
        lock(&self.prov).clone()
    }

    fn run_grid(
        &self,
        ctx: &StudyContext,
        grid: &'static str,
        cells: &[DistCell],
        inputs: &CellInputs,
    ) -> Result<Vec<Vec<f64>>, Error> {
        let results: Vec<Mutex<Option<Vec<f64>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let queue = mps_par::CellQueue::new();
        for (i, cell) in cells.iter().enumerate() {
            let recorded = match cell.desc {
                CellDesc::Prefetch { .. } => None,
                _ => ctx.replayed_cell(grid, &cell.desc),
            };
            if let Some(values) = recorded {
                *lock(&results[i]) = Some(values);
            } else {
                queue.push(i);
            }
        }
        // Cells a worker *reported* failing (as opposed to dying): they
        // go straight to the local fallback rather than bouncing between
        // workers.
        let local_only: Mutex<Vec<usize>> = Mutex::new(Vec::new());

        // Wait for a worker only while none has ever attached: once every
        // attached worker is dead, the leftovers are computed at once.
        if !queue.is_empty() && self.expect_workers {
            let deadline = Instant::now() + WORKER_WAIT;
            while lock(&self.pool.conns).is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let workers = self.pool.live();
        std::thread::scope(|s| {
            for w in &workers {
                let queue = &queue;
                let results = &results;
                let local_only = &local_only;
                s.spawn(move || {
                    self.dispatch_loop(ctx, w, grid, cells, queue, results, local_only);
                });
            }
        });

        // Whatever is left — no workers, dead workers, or reported
        // failures — is computed here, so the run always completes.
        let mut leftovers = lock(&local_only).split_off(0);
        while let Some(i) = queue.pop() {
            leftovers.push(i);
        }
        for i in leftovers {
            let cell = &cells[i];
            let started = Instant::now();
            let eval = || eval_cell(ctx, inputs, &cell.desc, ctx.jobs());
            let values = match cell.desc {
                CellDesc::Prefetch { .. } => eval()?,
                _ => ctx.fresh_cell(grid, &cell.desc, eval)?,
            };
            mps_obs::counter("dist.cells.local").incr();
            let mut prov = lock(&self.prov);
            prov.cells_local += 1;
            let entry = prov
                .per_worker
                .entry((grid.to_owned(), "coordinator".to_owned()))
                .or_default();
            entry.0 += 1;
            entry.2 += started.elapsed().as_micros() as u64;
            *lock(&results[i]) = Some(values);
        }

        let mut out = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            match lock(&results[i]).take() {
                Some(v) => out.push(v),
                None => {
                    return Err(Error::Io(format!(
                        "distributed {grid} cell '{}' was never computed",
                        cell.id
                    )))
                }
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch_loop(
        &self,
        ctx: &StudyContext,
        w: &Arc<WorkerConn>,
        grid: &'static str,
        cells: &[DistCell],
        queue: &mps_par::CellQueue,
        results: &[Mutex<Option<Vec<f64>>>],
        local_only: &Mutex<Vec<usize>>,
    ) {
        while let Some(i) = queue.pop() {
            let cell = &cells[i];
            let started = Instant::now();
            match self.exchange(w, cell) {
                Ok(done) => {
                    mps_obs::counter("dist.cells.remote").incr();
                    crate::heartbeat::cell_finished(started.elapsed());
                    ctx.record_cell(grid, &cell.desc, &done.values);
                    let mut prov = lock(&self.prov);
                    prov.cells_remote += 1;
                    let entry = prov
                        .per_worker
                        .entry((grid.to_owned(), w.id.clone()))
                        .or_default();
                    entry.0 += 1;
                    entry.1 += done.renewals;
                    entry.2 += started.elapsed().as_micros() as u64;
                    drop(prov);
                    *lock(&results[i]) = Some(done.values);
                }
                Err(TaskError::Reported(err)) => {
                    eprintln!("dist: worker {} failed cell '{}': {err}", w.id, cell.id);
                    lock(local_only).push(i);
                }
                Err(TaskError::Dead(err)) => {
                    eprintln!(
                        "dist: worker {} lost mid-cell '{}' ({err}); re-issuing",
                        w.id, cell.id
                    );
                    w.alive.store(false, Ordering::Release);
                    mps_obs::counter("dist.workers.lost").incr();
                    mps_obs::counter("dist.cells.requeued").incr();
                    crate::heartbeat::set_live_workers(self.pool.live().len());
                    lock(&self.prov).requeued += 1;
                    queue.requeue(i);
                    break;
                }
            }
        }
    }

    /// One task round trip. Every line resets the silence clock; the
    /// cell's `dist.renew` lines are counted into its [`TaskDone`].
    fn exchange(&self, w: &WorkerConn, cell: &DistCell) -> Result<TaskDone, TaskError> {
        {
            let mut fields: Vec<(&str, String)> = vec![("id", cell.id.clone())];
            fields.extend(cell.desc.fields());
            let mut writer = lock(&w.writer);
            send_line(&mut writer, "dist.task", &fields)
                .map_err(|e| TaskError::Dead(format!("send: {e}")))?;
        }
        let mut reader = lock(&w.reader);
        // The worker renews every quarter of the timeout while the task
        // runs, so a whole timeout of silence means it is gone.
        let _ = reader.get_ref().set_read_timeout(Some(WORKER_SILENCE));
        let mut renewals = 0;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Err(TaskError::Dead("connection closed".to_owned())),
                Err(e) => return Err(TaskError::Dead(format!("read: {e}"))),
                Ok(_) => {}
            }
            let (name, fields) = match parse_jsonl(line.trim_end()) {
                Ok(Record::Event { name, fields }) => (name, fields),
                Ok(Record::Span {
                    id,
                    parent,
                    name,
                    start_us,
                    dur_us,
                    counters,
                    ..
                }) => {
                    // A shipped worker span: re-emit it into the
                    // coordinator's sink, worker-tagged.
                    ship_span(&w.id, id, parent, &name, start_us, dur_us, &counters);
                    continue;
                }
                Err(_) => continue,
            };
            match name.as_str() {
                "dist.renew" if fields.get("id") == Some(&cell.id) => {
                    mps_obs::counter("dist.renewals").incr();
                    renewals += 1;
                }
                "dist.done" if fields.get("id") == Some(&cell.id) => {
                    let values = fields
                        .get("values")
                        .and_then(|v| parse_values(v))
                        .ok_or_else(|| TaskError::Dead("garbled dist.done".to_owned()))?;
                    if values.len() != cell.desc.value_count() {
                        return Err(TaskError::Reported(format!(
                            "worker returned {} values, expected {}",
                            values.len(),
                            cell.desc.value_count()
                        )));
                    }
                    return Ok(TaskDone { values, renewals });
                }
                "dist.fail" if fields.get("id") == Some(&cell.id) => {
                    return Err(TaskError::Reported(
                        fields
                            .get("error")
                            .cloned()
                            .unwrap_or_else(|| "unspecified".to_owned()),
                    ));
                }
                _ => continue, // stray renew/done from a previous task
            }
        }
    }
}

struct TaskDone {
    values: Vec<f64>,
    /// The `dist.renew` lines read while the cell ran.
    renewals: u64,
}

enum TaskError {
    /// The worker reported a failure but is still alive.
    Reported(String),
    /// The connection died or timed out; the worker is gone.
    Dead(String),
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.pool.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // nudge the accept loop
        for w in lock(&self.pool.conns).drain(..) {
            let mut writer = lock(&w.writer);
            let _ = send_line(&mut writer, "dist.shutdown", &[]);
        }
        crate::heartbeat::set_live_workers(0);
        for child in lock(&self.children).iter_mut() {
            // Workers exit on shutdown (or on EOF when the socket drops);
            // give them a moment, then make sure.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

fn handshake(stream: TcpStream, config_line: &str) -> Option<WorkerConn> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let Ok(Record::Event { name, fields }) = parse_jsonl(line.trim_end()) else {
        return None; // a stray connection or the shutdown nudge, not a worker
    };
    if name != "dist.hello" {
        return None;
    }
    let id = fields
        .get("id")
        .cloned()
        .unwrap_or_else(|| format!("pid{}", fields.get("pid").cloned().unwrap_or_default()));
    writer.write_all(config_line.as_bytes()).ok()?;
    Some(WorkerConn {
        id,
        writer: Mutex::new(writer),
        reader: Mutex::new(reader),
        alive: AtomicBool::new(true),
    })
}

// ---------------------------------------------------------------------
// Span shipping
// ---------------------------------------------------------------------

/// A 16-bit FNV-1a hash of the worker id, never zero — the id-space
/// namespace for shipped spans. Each worker process numbers its spans
/// from its own process-local counter, so two workers' ids collide;
/// folding the namespace into the top 16 bits keeps every worker's
/// parent links intact while separating fleets of up to 2⁴⁸ spans each.
fn worker_namespace(worker: &str) -> u64 {
    match mps_store::fnv1a64(worker.as_bytes()) & 0xFFFF {
        0 => 1,
        h16 => h16,
    }
}

/// Re-emits one shipped worker span into the coordinator's JSONL sink,
/// tagged with the worker id and with span/parent ids moved into the
/// worker's namespace (see [`worker_namespace`]), so `mps-harness trace`
/// aggregates the whole fleet's spans as one tree. A no-op without a
/// sink (and compiled out entirely without the `obs` feature).
fn ship_span(
    worker: &str,
    id: u64,
    parent: Option<u64>,
    name: &str,
    start_us: u64,
    dur_us: u64,
    counters: &BTreeMap<String, u64>,
) {
    let ns = worker_namespace(worker);
    let tag = |v: u64| (ns << 48) | (v & 0x0000_FFFF_FFFF_FFFF);
    let line = encode_span_tagged(
        Some(worker),
        tag(id),
        parent.map(tag),
        name,
        start_us,
        dur_us,
        counters,
    );
    mps_obs::sink_line(&line);
    mps_obs::counter("dist.spans.shipped").incr();
}

/// Writes the spans this worker finished since the previous call to the
/// coordinator in one socket write, so they never interleave with a
/// `dist.renew` or `dist.done` line. Nothing to write unless the span tap
/// is installed (the coordinator records a trace). `gate` orders the
/// heartbeat thread's calls with the task loop's: spans one call drained
/// are on the wire before the other call returns, so a cell's spans
/// precede its `dist.done`. A failed write loses the spans, nothing else.
fn ship_spans(gate: &Mutex<()>, writer: &mut TcpStream) {
    let _held = lock(gate);
    let spans = mps_obs::drain_span_tap();
    if spans.is_empty() {
        return;
    }
    let mut chunk = spans.join("\n");
    chunk.push('\n');
    let _ = writer.write_all(chunk.as_bytes());
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Entry point of `mps-harness worker --connect HOST:PORT`.
///
/// # Errors
///
/// Connection or handshake failures; a malformed config line.
pub fn worker_main(connect: &str, id: Option<String>) -> Result<(), Error> {
    let stream = TcpStream::connect(connect)
        .map_err(|e| Error::Io(format!("connect to coordinator {connect}: {e}")))?;
    worker_loop(stream, id)
}

/// Runs the worker protocol over an established stream until the
/// coordinator sends `dist.shutdown` or the connection drops. Exposed
/// (rather than private to `worker_main`) so tests can drive a worker
/// in-process over a socket pair.
///
/// # Errors
///
/// Handshake or config failures; mid-run I/O errors are clean exits
/// (the coordinator re-issues any in-flight cell).
pub fn worker_loop(stream: TcpStream, id: Option<String>) -> Result<(), Error> {
    let id = id.unwrap_or_else(|| format!("pid{}", std::process::id()));
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| Error::Io(format!("clone stream: {e}")))?;
    send_line(
        &mut writer,
        "dist.hello",
        &[("id", id.clone()), ("pid", std::process::id().to_string())],
    )
    .map_err(|e| Error::Io(format!("send hello: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| Error::Io(format!("read config: {e}")))?;
    let Ok(Record::Event { name, fields }) = parse_jsonl(line.trim_end()) else {
        return Err(Error::InvalidInput("garbled dist.config".to_owned()));
    };
    if name != "dist.config" {
        return Err(Error::InvalidInput(format!(
            "expected dist.config, got {name}"
        )));
    }
    let scale = scale_from_fields(&fields)
        .ok_or_else(|| Error::InvalidInput("dist.config is missing scale knobs".to_owned()))?;
    let store_path = fields
        .get("store")
        .ok_or_else(|| Error::InvalidInput("dist.config has no store path".to_owned()))?;
    let jobs: usize = fields.get("jobs").and_then(|j| j.parse().ok()).unwrap_or(1);
    let store = Arc::new(Store::open(store_path)?);
    let ctx = StudyContext::assemble(scale, jobs, Some(store));
    if fields.get("trace").is_some_and(|t| t == "1") {
        mps_obs::install_span_tap();
    }

    // Heartbeat: send `dist.renew` for the in-flight task every quarter
    // of the coordinator's silence timeout, and ship finished spans on
    // every tick, task or not.
    let current: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let ship_gate = Arc::new(Mutex::new(()));
    let hb_current = Arc::clone(&current);
    let hb_gate = Arc::clone(&ship_gate);
    let hb_writer = writer
        .try_clone()
        .map_err(|e| Error::Io(format!("clone stream: {e}")))?;
    std::thread::Builder::new()
        .name("mps-dist-heartbeat".to_owned())
        .spawn(move || {
            let mut hb_writer = hb_writer;
            loop {
                std::thread::sleep(WORKER_SILENCE / 4);
                let in_flight = lock(&hb_current).clone();
                if let Some(task_id) = in_flight {
                    if send_line(&mut hb_writer, "dist.renew", &[("id", task_id)]).is_err() {
                        return; // coordinator gone; main loop sees EOF too
                    }
                }
                ship_spans(&hb_gate, &mut hb_writer);
            }
        })
        .map_err(|e| Error::Io(format!("spawn heartbeat thread: {e}")))?;

    let exit_after: Option<u64> = std::env::var(EXIT_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let mut completed = 0u64;
    let inputs = CellInputs::default();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // coordinator vanished: clean exit
            Err(e) => return Err(Error::Io(format!("read task: {e}"))),
            Ok(_) => {}
        }
        let Ok(Record::Event { name, fields }) = parse_jsonl(line.trim_end()) else {
            continue;
        };
        match name.as_str() {
            "dist.shutdown" => return Ok(()),
            "dist.task" => {}
            _ => continue,
        }
        let Some(task_id) = fields.get("id").cloned() else {
            continue;
        };
        *lock(&current) = Some(task_id.clone());
        let result = CellDesc::from_fields(&fields).and_then(|desc| {
            eval_cell(&ctx, &inputs, &desc, ctx.jobs()).map_err(|e| e.to_string())
        });
        if result.is_ok() {
            completed += 1;
            if exit_after == Some(completed) {
                // Fault injection: vanish mid-task, exactly like a
                // SIGKILL.
                std::process::exit(86);
            }
        }
        *lock(&current) = None;
        match result {
            Ok(values) => {
                // Ship the cell's spans before its result, while the
                // coordinator still reads this stream.
                ship_spans(&ship_gate, &mut writer);
                let done = [("id", task_id), ("values", join_values(&values))];
                if send_line(&mut writer, "dist.done", &done).is_err() {
                    return Ok(()); // coordinator gone
                }
            }
            Err(err) => {
                let _ = send_line(&mut writer, "dist.fail", &[("id", task_id), ("error", err)]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cell evaluation
// ---------------------------------------------------------------------

/// The inputs of a grid's cells beyond their descriptors, each built once
/// and shared by every cell that reads it: per confidence source its
/// population, pair data and samplers, and per `(cores, perturb)` the
/// BADCO model set a validation cell runs. [`run_grid`] resolves a grid's
/// missed cells through one value before evaluating any of them, so the
/// builds run one at a time with the whole pool; a worker keeps one per
/// connection.
#[derive(Debug, Default)]
pub struct CellInputs {
    conf: Mutex<HashMap<ConfSource, Arc<ConfInputs>>>,
    models: Mutex<HashMap<(usize, u64), ModelSet>>,
}

/// One BADCO model per suite benchmark.
type ModelSet = Arc<[Arc<BadcoModel>]>;

/// What every cell of one confidence source resamples.
#[derive(Debug)]
pub(crate) struct ConfInputs {
    /// The population the cells draw from.
    pub(crate) pop: Population,
    /// The pair data whose sign the cells estimate.
    pub(crate) data: PairData,
    /// The BADCO differences Figure 7's workload strata are cut from;
    /// every other source cuts them from its pair data's own.
    strata_diffs: Option<Vec<f64>>,
    bench_strata: OnceLock<BenchmarkStratification>,
    workload_strata: OnceLock<WorkloadStratification>,
}

impl CellInputs {
    /// The inputs of confidence source `source`, built on first request.
    pub(crate) fn conf(
        &self,
        ctx: &StudyContext,
        source: ConfSource,
    ) -> Result<Arc<ConfInputs>, Error> {
        let mut conf = lock(&self.conf);
        if let Some(inputs) = conf.get(&source) {
            return Ok(Arc::clone(inputs));
        }
        let inputs = Arc::new(ConfInputs::build(ctx, source)?);
        conf.insert(source, Arc::clone(&inputs));
        Ok(inputs)
    }

    /// The BADCO model set of `cores` with every model's coefficients
    /// scaled by `perturb` (the context's own set when it is 1), built on
    /// first request and never written into the context's model cache.
    fn models(&self, ctx: &StudyContext, cores: usize, perturb: f64) -> Result<ModelSet, Error> {
        let mut memo = lock(&self.models);
        if let Some(models) = memo.get(&(cores, perturb.to_bits())) {
            return Ok(Arc::clone(models));
        }
        let models = ctx.models(cores)?;
        let models: ModelSet = if perturb == 1.0 {
            models.into()
        } else {
            models
                .iter()
                .map(|m| Arc::new(m.perturbed(perturb)))
                .collect()
        };
        memo.insert((cores, perturb.to_bits()), Arc::clone(&models));
        Ok(models)
    }

    /// Builds whatever evaluating `desc` reads, so that evaluating it
    /// only looks its inputs up.
    fn resolve(&self, ctx: &StudyContext, desc: &CellDesc) -> Result<(), Error> {
        match desc {
            CellDesc::Confidence { source, method, .. } => {
                self.conf(ctx, *source)?.sampler(ctx, method)?;
            }
            CellDesc::Validate {
                cores,
                perturb,
                side: ValSide::Badco,
                ..
            } => {
                self.models(ctx, *cores, *perturb)?;
            }
            CellDesc::Validate { .. } | CellDesc::Prefetch { .. } => {}
        }
        Ok(())
    }
}

impl ConfInputs {
    fn build(ctx: &StudyContext, source: ConfSource) -> Result<ConfInputs, Error> {
        let (pop, data, strata_diffs) = match source {
            ConfSource::Fig3 { cores } => {
                let data = ctx.badco_pair_data(
                    cores,
                    PolicyKind::Dip,
                    PolicyKind::Drrip,
                    ThroughputMetric::WeightedSpeedup,
                )?;
                (ctx.population(cores)?, data, None)
            }
            ConfSource::Fig6 { pair } => {
                let pairs = crate::experiments::confidence::fig6_pairs();
                let &(x, y) = pairs.get(pair).ok_or_else(|| {
                    Error::InvalidInput(format!("fig6 pair index {pair} out of range"))
                })?;
                let data = ctx.badco_pair_data(4, x, y, ThroughputMetric::IpcThroughput)?;
                (ctx.population(4)?, data, None)
            }
            ConfSource::Fig7 => {
                let metric = ThroughputMetric::IpcThroughput;
                let (x, y) = (PolicyKind::Lru, PolicyKind::Dip);
                let pop = ctx.population(2)?;
                let workloads = pop.workloads().to_vec();
                let tx = ctx.detailed_table(2, x, &workloads)?.throughputs(metric);
                let ty = ctx.detailed_table(2, y, &workloads)?.throughputs(metric);
                let diffs = ctx.badco_pair_data(2, x, y, metric)?.differences();
                (pop, PairData::new(metric, tx, ty), Some(diffs))
            }
        };
        Ok(ConfInputs {
            pop,
            data,
            strata_diffs,
            bench_strata: OnceLock::new(),
            workload_strata: OnceLock::new(),
        })
    }

    /// The sampler named `method`, a stratified one built on first use.
    fn sampler(&self, ctx: &StudyContext, method: &str) -> Result<&dyn Sampler, Error> {
        Ok(match method {
            "random" => &RandomSampling,
            "bal-random" => &BalancedRandomSampling,
            "bench-strata" => self.bench_strata.get_or_init(|| {
                let classes = ctx.suite().iter().map(|b| b.nominal_class.index());
                BenchmarkStratification::new(classes.collect())
            }),
            "workload-strata" => self.workload_strata.get_or_init(|| {
                let own;
                let diffs = match &self.strata_diffs {
                    Some(badco) => badco,
                    None => {
                        own = self.data.differences();
                        &own
                    }
                };
                WorkloadStratification::with_defaults(diffs)
            }),
            other => {
                return Err(Error::InvalidInput(format!(
                    "unknown sampling method '{other}'"
                )))
            }
        })
    }
}

fn eval_prefetch(ctx: &StudyContext, what: &PrefetchKind) -> Result<(), Error> {
    match *what {
        PrefetchKind::Table { cores, policy } => {
            ctx.badco_table(cores, policy)?;
        }
        PrefetchKind::DetailedTable { cores, policy } => {
            let pop = ctx.population(cores)?;
            let workloads = pop.workloads().to_vec();
            ctx.detailed_table(cores, policy, &workloads)?;
        }
        PrefetchKind::Refs { cores } => {
            ctx.models(cores)?;
            ctx.detailed_reference_ipcs(cores)?;
            ctx.badco_reference_ipcs(cores)?;
        }
    }
    Ok(())
}

/// Evaluates one cell descriptor against a (store-backed) context, with
/// up to `jobs` threads inside the cell: the one evaluator of every grid
/// cell, in process, on the coordinator and on workers. Pure: the same
/// descriptor yields bit-identical values on any process and for any
/// `jobs`.
fn eval_cell(
    ctx: &StudyContext,
    inputs: &CellInputs,
    desc: &CellDesc,
    jobs: usize,
) -> Result<Vec<f64>, Error> {
    match desc {
        CellDesc::Confidence {
            source,
            method,
            w,
            samples,
            base,
        } => {
            let conf = inputs.conf(ctx, *source)?;
            Ok(vec![empirical_confidence_seeded(
                conf.sampler(ctx, method)?,
                &conf.pop,
                &conf.data,
                *w,
                *samples,
                *base,
                jobs,
            )])
        }
        CellDesc::Validate {
            cores,
            policy,
            p_idx,
            widx,
            perturb,
            side,
        } => {
            let workload = crate::validate::group_workloads(ctx, *cores, *p_idx)
                .nth(*widx)
                .expect("the workload stream is endless");
            match side {
                ValSide::Detailed => ctx.validation_detailed_ipcs(*cores, *policy, &workload),
                ValSide::Badco => {
                    let models = inputs.models(ctx, *cores, *perturb)?;
                    Ok(StudyContext::badco_run_with(
                        &models, *cores, *policy, &workload,
                    ))
                }
            }
        }
        CellDesc::Prefetch { what } => {
            eval_prefetch(ctx, what)?;
            Ok(Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(desc: CellDesc) {
        let fields: Vec<(&str, String)> = desc.fields();
        let map: BTreeMap<String, String> =
            fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        assert_eq!(CellDesc::from_fields(&map), Ok(desc));
    }

    #[test]
    fn descriptors_round_trip_through_wire_fields() {
        round_trip(CellDesc::Confidence {
            source: ConfSource::Fig3 { cores: 8 },
            method: "random".to_owned(),
            w: 40,
            samples: 150,
            base: 0xDEAD_BEEF_0BAD_F00D,
        });
        round_trip(CellDesc::Confidence {
            source: ConfSource::Fig6 { pair: 3 },
            method: "workload-strata".to_owned(),
            w: 5,
            samples: 1,
            base: 0,
        });
        round_trip(CellDesc::Confidence {
            source: ConfSource::Fig7,
            method: "bal-random".to_owned(),
            w: 10,
            samples: 100,
            base: u64::MAX,
        });
        round_trip(CellDesc::Validate {
            cores: 4,
            policy: PolicyKind::Drrip,
            p_idx: 1,
            widx: 5,
            perturb: 0.5,
            side: ValSide::Badco,
        });
        round_trip(CellDesc::Validate {
            cores: 2,
            policy: PolicyKind::Lru,
            p_idx: 0,
            widx: 0,
            perturb: 1.0,
            side: ValSide::Detailed,
        });
        round_trip(CellDesc::Prefetch {
            what: PrefetchKind::Table {
                cores: 4,
                policy: PolicyKind::Dip,
            },
        });
        round_trip(CellDesc::Prefetch {
            what: PrefetchKind::DetailedTable {
                cores: 2,
                policy: PolicyKind::Lru,
            },
        });
        round_trip(CellDesc::Prefetch {
            what: PrefetchKind::Refs { cores: 8 },
        });
    }

    #[test]
    fn descriptors_survive_the_jsonl_event_encoding() {
        let desc = CellDesc::Validate {
            cores: 4,
            policy: PolicyKind::Brrip,
            p_idx: 2,
            widx: 3,
            perturb: 0.75,
            side: ValSide::Detailed,
        };
        let mut fields: Vec<(&str, String)> = vec![("id", "x;y".to_owned())];
        fields.extend(desc.fields());
        let line = encode_event("dist.task", &fields);
        let Ok(Record::Event { name, fields }) = parse_jsonl(&line) else {
            panic!("event must parse");
        };
        assert_eq!(name, "dist.task");
        assert_eq!(CellDesc::from_fields(&fields), Ok(desc));
    }

    #[test]
    fn malformed_descriptors_are_errors_not_panics() {
        let empty = BTreeMap::new();
        assert!(CellDesc::from_fields(&empty).is_err());
        let mut bad = BTreeMap::new();
        bad.insert("kind".to_owned(), "conf".to_owned());
        bad.insert("src".to_owned(), "fig9".to_owned());
        assert!(CellDesc::from_fields(&bad).is_err());
        let mut bad_policy = BTreeMap::new();
        bad_policy.insert("kind".to_owned(), "val".to_owned());
        bad_policy.insert("cores".to_owned(), "4".to_owned());
        bad_policy.insert("policy".to_owned(), "MRU".to_owned());
        assert!(CellDesc::from_fields(&bad_policy).is_err());
    }

    #[test]
    fn every_policy_short_name_parses_back() {
        for policy in PolicyKind::ALL {
            round_trip(CellDesc::Validate {
                cores: 2,
                policy,
                p_idx: 0,
                widx: 0,
                perturb: 1.0,
                side: ValSide::Badco,
            });
        }
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        let vals = [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, -1e300];
        let joined = join_values(&vals);
        let back = parse_values(&joined).expect("parse");
        assert_eq!(back.len(), vals.len());
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact");
        }
        assert_eq!(parse_values(""), Some(Vec::new()), "empty value list");
        assert_eq!(parse_values("xyz"), None);
    }

    #[test]
    fn scale_round_trips_through_config_fields() {
        for scale in [Scale::test(), Scale::small(), Scale::full()] {
            let fields: BTreeMap<String, String> = scale_fields(&scale)
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect();
            assert_eq!(scale_from_fields(&fields), Some(scale));
        }
    }

    #[test]
    fn worker_command_is_only_ever_a_harness_binary() {
        // Under cargo test the current exe is a test binary, so the
        // resolver must either find a sibling mps-harness or nothing —
        // never hand back the test binary itself.
        if std::env::var_os("MPS_WORKER_CMD").is_none() {
            if let Some(cmd) = worker_command() {
                let name = cmd.file_name().unwrap().to_string_lossy().into_owned();
                assert!(name.starts_with("mps-harness"), "resolved {name}");
            }
        }
    }
}
