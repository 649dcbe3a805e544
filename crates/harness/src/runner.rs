//! Shared experiment machinery: model building, population simulation and
//! result caching — in memory *and* across processes.
//!
//! Since the parallel-runner rework, [`StudyContext`] uses interior
//! mutability throughout: every accessor takes `&self`, the artifact
//! caches are keyed [`OnceLock`]s (so a concurrent first access builds an
//! artifact exactly once and everyone else blocks on — then shares — the
//! same value), and the expensive builds fan their independent cells out
//! over an [`mps_par`] work-stealing pool sized by [`StudyContext::jobs`].
//! Results are merged in input-index order, so every artifact is
//! bit-identical regardless of the worker count (asserted end to end by
//! `tests/thread_invariance.rs`).
//!
//! Since the durable-runs rework, a context built through
//! [`StudyBuilder`](crate::StudyBuilder) with a store path additionally
//! persists every expensive artifact — populations, BADCO models,
//! reference IPCs, per-policy throughput tables, trace buffers — through
//! an [`mps_store::Store`], so they are *transparently loaded-or-computed
//! across processes*: a second run (or the rerun of a killed one) hits
//! the store instead of re-simulating. Every completed experiment-grid
//! cell is appended to its grid's cell journal in the store as well (see
//! `StudyContext::grid_cell`), so a rerun recomputes only the cells it
//! lacks. A poisoned artifact file or journal entry degrades to a
//! recompute (the store quarantines it), never to a wrong result. The
//! public accessors return `Result<_, mps::Error>`; the panicking
//! `*_or_panic` shims of the transition release are gone (API v1).
//!
//! Since the distributed rework, a context built with
//! [`StudyBuilder::workers`](crate::StudyBuilder::workers) additionally
//! carries a [`Coordinator`](crate::dist::Coordinator) that shards
//! experiment-grid cells across worker processes; see [`crate::dist`].

use crate::dist::CellDesc;
use crate::scale::Scale;
use mps_badco::{BadcoModel, BadcoMulticoreSim, BadcoSimResult, BadcoTiming};
use mps_metrics::{PerfTable, ThroughputMetric, WorkloadPerf};
use mps_sampling::{PairData, Population, Workload};
use mps_sim_cpu::{CoreConfig, MulticoreSim, SimResult};
use mps_stats::rng::Rng;
use mps_store::{ArtifactKey, CellJournal, Error, Store};
use mps_uncore::{PolicyKind, Uncore, UncoreConfig};
use mps_workloads::{suite, BenchmarkSpec, TraceBuffer, TraceCursor, TraceSource};

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A grid cell's key within its journal: the FNV-1a64 of every field of
/// its descriptor — the fields a worker evaluates it from — so together
/// with the journal's own key it covers every input of the value.
fn cell_key(desc: &CellDesc) -> u64 {
    let fields: Vec<String> = desc
        .fields()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    mps_store::fnv1a64(fields.join(";").as_bytes())
}

/// LLC capacity divisor used by all experiments (see
/// [`UncoreConfig::ispass2013_scaled`]): reproduction traces are 10³–10⁴×
/// shorter than the paper's 100 M instructions, so cache capacity scales
/// down with them to preserve working-set-to-cache ratios.
pub const CAPACITY_SCALE: u64 = 16;

/// The capacity-scaled Table II uncore used throughout the experiments.
pub fn experiment_uncore(cores: usize, policy: PolicyKind) -> UncoreConfig {
    UncoreConfig::ispass2013_scaled(cores, policy, CAPACITY_SCALE)
}

/// Hit/rebuild statistics for the [`StudyContext`] memoized artifacts.
///
/// A *hit* returns a cached artifact; a *miss* triggers the (expensive)
/// rebuild — or, on a store-backed context, a disk load. Accounting is
/// atomic-consistent under concurrency: when several threads race on the
/// first access to a key, exactly one miss is recorded (the thread that
/// built) and every other thread records a hit, so `hits + misses` always
/// equals the number of accesses. The same figures are mirrored into the
/// `ctx.*` observability counters so they appear in `--trace` files; disk-level traffic is accounted separately under
/// `store.*` (see [`StudyContext::store_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StudyCacheStats {
    /// BADCO model-set cache hits (keyed by core count).
    pub model_hits: u64,
    /// BADCO model-set rebuilds.
    pub model_misses: u64,
    /// Population-table cache hits (keyed by core count).
    pub population_hits: u64,
    /// Population-table rebuilds.
    pub population_misses: u64,
    /// BADCO per-policy throughput-table cache hits.
    pub table_hits: u64,
    /// BADCO per-policy throughput-table rebuilds.
    pub table_misses: u64,
    /// BADCO single-thread reference-IPC cache hits.
    pub badco_ref_hits: u64,
    /// BADCO single-thread reference-IPC rebuilds.
    pub badco_ref_misses: u64,
    /// Detailed-simulator reference-IPC cache hits.
    pub detailed_ref_hits: u64,
    /// Detailed-simulator reference-IPC rebuilds.
    pub detailed_ref_misses: u64,
    /// Per-benchmark SoA trace-buffer cache hits.
    pub trace_hits: u64,
    /// Per-benchmark SoA trace-buffer captures (one per benchmark used).
    pub trace_misses: u64,
}

impl StudyCacheStats {
    /// Total hits across all artifact kinds.
    pub fn hits(&self) -> u64 {
        self.model_hits
            + self.population_hits
            + self.table_hits
            + self.badco_ref_hits
            + self.detailed_ref_hits
            + self.trace_hits
    }

    /// Total rebuilds across all artifact kinds.
    pub fn misses(&self) -> u64 {
        self.model_misses
            + self.population_misses
            + self.table_misses
            + self.badco_ref_misses
            + self.detailed_ref_misses
            + self.trace_misses
    }
}

/// One keyed artifact cache: build-once semantics per key with exact
/// hit/miss accounting under concurrent access.
///
/// The map guards only the *cells* (cheap to lock); each cell is an
/// [`OnceLock`], so a rebuild runs outside the map lock and concurrent
/// first-accessors of the same key block on the winning builder instead
/// of duplicating its work.
struct ArtifactCache<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_counter: mps_obs::Counter,
    miss_counter: mps_obs::Counter,
    build_span: &'static str,
}

impl<K: Eq + Hash, V: Clone> ArtifactCache<K, V> {
    fn new(hit_name: &'static str, miss_name: &'static str, build_span: &'static str) -> Self {
        ArtifactCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_counter: mps_obs::counter(hit_name),
            miss_counter: mps_obs::counter(miss_name),
            build_span,
        }
    }

    /// Returns the artifact for `key`, building it with `build` on the
    /// first access. Exactly one caller per key ever runs `build`; that
    /// caller records the miss, all others record hits.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let cell = {
            let mut map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        let mut built = false;
        let v = cell
            .get_or_init(|| {
                built = true;
                let _span = mps_obs::span(self.build_span);
                build()
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.miss_counter.incr();
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.incr();
        }
        v
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The simulator a table row was measured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RowSim {
    Badco,
    Detailed,
}

/// What a shared table row depends on besides the policy: the simulator,
/// the core count (which picks the BADCO model set and the uncore) and
/// the workload. The trace length, suite and core configuration are fixed
/// per context.
type RowKey = (RowSim, usize, Workload);

/// Table rows whose run never asked the LLC's replacement policy for a
/// victim, keyed by [`RowKey`].
///
/// The LLC consults its policy's state only to choose a victim, so such a
/// run takes the same trajectory under every policy (DESIGN.md §7): its
/// row is every policy's row, and a table of any policy reuses it instead
/// of simulating the workload again. Rows whose run evicted are never
/// recorded. Two workers that miss the same key concurrently both
/// simulate it and record equal rows.
struct InvariantRows {
    map: Mutex<HashMap<RowKey, Vec<f64>>>,
    hit_counter: mps_obs::Counter,
    record_counter: mps_obs::Counter,
}

impl InvariantRows {
    fn new() -> Self {
        InvariantRows {
            map: Mutex::new(HashMap::new()),
            hit_counter: mps_obs::counter("ctx.invariant_rows.hits"),
            record_counter: mps_obs::counter("ctx.invariant_rows.records"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<RowKey, Vec<f64>>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The row of `w` on `cores` cores: the recorded one, else the IPCs
    /// `run` simulates, recorded when the run's LLC evictions (the second
    /// value `run` returns) are zero.
    fn row(
        &self,
        sim: RowSim,
        cores: usize,
        w: &Workload,
        run: impl FnOnce() -> (Vec<f64>, u64),
    ) -> Vec<f64> {
        let key = (sim, cores, w.clone());
        if let Some(row) = self.lock().get(&key) {
            self.hit_counter.incr();
            return row.clone();
        }
        let (row, evictions) = run();
        if evictions == 0 && self.lock().insert(key, row.clone()).is_none() {
            self.record_counter.incr();
        }
        row
    }
}

/// Caches everything the experiments share: benchmark suite, BADCO models,
/// per-policy population throughput tables and reference IPCs.
///
/// All accessors take `&self` and the context is `Sync`, so a single
/// instance can be shared across threads; internally the expensive builds
/// run on an [`mps_par`] pool of [`StudyContext::jobs`] workers.
///
/// The documented way to construct one is
/// [`StudyContext::builder`]:
///
/// ```no_run
/// use mps_harness::{Scale, StudyContext};
///
/// let ctx = StudyContext::builder()
///     .scale(Scale::small())
///     .jobs(4)
///     .store("run-store")
///     .build()?;
/// # Ok::<(), mps_store::Error>(())
/// ```
pub struct StudyContext {
    /// The scaling preset in effect.
    pub scale: Scale,
    jobs: usize,
    store: Option<Arc<Store>>,
    /// Wall-clock budget and retry count for isolated experiment runs
    /// (`--timeout` / `--retries`), carried by the builder.
    pub(crate) timeout: Option<std::time::Duration>,
    pub(crate) retries: u32,
    /// The distributed-execution coordinator, set once by the builder
    /// after assembly when `--workers`/`--dist-addr` asked for one.
    pub(crate) dist: OnceLock<Arc<crate::dist::Coordinator>>,
    suite: Vec<BenchmarkSpec>,
    /// FNV-1a of the suite's comma-joined names: the `suite=` field of
    /// every artifact spec, fixed because the suite is.
    suite_hash: u64,
    models: ArtifactCache<usize, Vec<Arc<BadcoModel>>>,
    populations: ArtifactCache<usize, Population>,
    badco_tables: ArtifactCache<(usize, PolicyKind), Arc<PerfTable>>,
    badco_refs: ArtifactCache<usize, Vec<f64>>,
    detailed_refs: ArtifactCache<usize, Vec<f64>>,
    /// Per-benchmark SoA trace buffers (`scale.trace_len` µops each),
    /// keyed by suite index. Every consumer of a benchmark's µop stream —
    /// BADCO training, reference runs, detailed workload runs — replays
    /// the one memoized buffer through a cheap [`TraceCursor`] instead of
    /// re-running the synthetic generator µop by µop.
    traces: ArtifactCache<usize, Arc<TraceBuffer>>,
    /// Rows every policy's table shares (see [`InvariantRows`]).
    invariant_rows: InvariantRows,
    /// Open cell journals by grid name.
    journals: Mutex<HashMap<String, Arc<CellJournal>>>,
}

impl std::fmt::Debug for StudyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyContext")
            .field("scale", &self.scale)
            .field("jobs", &self.jobs)
            .field("store", &self.store.as_ref().map(|s| s.root().to_owned()))
            .finish_non_exhaustive()
    }
}

impl StudyContext {
    /// Starts building a context — the documented entry point. See
    /// [`StudyBuilder`](crate::StudyBuilder).
    pub fn builder() -> crate::StudyBuilder {
        crate::StudyBuilder::new()
    }

    /// Creates a fresh in-memory-only context at the given scale, with
    /// the worker count resolved from the environment (`MPS_JOBS`, else
    /// the machine's available parallelism). Anything beyond that —
    /// explicit jobs, a store, distribution — goes through
    /// [`StudyContext::builder`].
    pub fn new(scale: Scale) -> Self {
        Self::assemble(scale, mps_par::default_jobs(), None)
    }

    pub(crate) fn assemble(scale: Scale, jobs: usize, store: Option<Arc<Store>>) -> Self {
        let suite = suite();
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        let suite_hash = mps_store::fnv1a64(names.join(",").as_bytes());
        StudyContext {
            scale,
            jobs: jobs.max(1),
            store,
            timeout: None,
            retries: 0,
            dist: OnceLock::new(),
            suite,
            suite_hash,
            models: ArtifactCache::new("ctx.models.hits", "ctx.models.misses", "ctx.models.build"),
            populations: ArtifactCache::new(
                "ctx.population.hits",
                "ctx.population.misses",
                "ctx.population.build",
            ),
            badco_tables: ArtifactCache::new(
                "ctx.badco_table.hits",
                "ctx.badco_table.misses",
                "ctx.badco_table.build",
            ),
            badco_refs: ArtifactCache::new(
                "ctx.badco_refs.hits",
                "ctx.badco_refs.misses",
                "ctx.badco_refs.build",
            ),
            detailed_refs: ArtifactCache::new(
                "ctx.detailed_refs.hits",
                "ctx.detailed_refs.misses",
                "ctx.detailed_refs.build",
            ),
            traces: ArtifactCache::new("ctx.traces.hits", "ctx.traces.misses", "ctx.traces.build"),
            invariant_rows: InvariantRows::new(),
            journals: Mutex::new(HashMap::new()),
        }
    }

    /// Worker threads used for parallel artifact builds and resampling.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Always `1`: every detailed simulation runs one workload. Kept
    /// because the study bench prints it on its report line.
    pub fn batch(&self) -> usize {
        1
    }

    /// The artifact store backing this context, if one was configured.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The distributed-execution coordinator, if the builder started one
    /// (`--workers` / `--dist-addr`). Experiment grids route their cells
    /// through it via [`crate::dist::run_grid`].
    pub fn coordinator(&self) -> Option<&Arc<crate::dist::Coordinator>> {
        self.dist.get()
    }

    /// The isolation budget carried from the builder
    /// (`--timeout` / `--retries`), for [`crate::run_isolated`].
    pub fn isolate_options(&self) -> crate::IsolateOptions {
        crate::IsolateOptions {
            timeout: self.timeout,
            retries: self.retries,
        }
    }

    /// Disk-level hit/miss/corruption counters, if a store is attached.
    pub fn store_stats(&self) -> Option<mps_store::StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Hit/rebuild statistics of the context's artifact caches so far.
    pub fn cache_stats(&self) -> StudyCacheStats {
        StudyCacheStats {
            model_hits: self.models.hits(),
            model_misses: self.models.misses(),
            population_hits: self.populations.hits(),
            population_misses: self.populations.misses(),
            table_hits: self.badco_tables.hits(),
            table_misses: self.badco_tables.misses(),
            badco_ref_hits: self.badco_refs.hits(),
            badco_ref_misses: self.badco_refs.misses(),
            detailed_ref_hits: self.detailed_refs.hits(),
            detailed_ref_misses: self.detailed_refs.misses(),
            trace_hits: self.traces.hits(),
            trace_misses: self.traces.misses(),
        }
    }

    /// Canonical input-spec string for this context's artifacts: every
    /// knob an artifact's value depends on, so equal specs mean reusable
    /// results. The kernel code revision rides in the store header (see
    /// [`mps_store::KERNEL_REV`]), not in the spec.
    pub fn artifact_spec(&self, extra: &str) -> String {
        format!(
            "{};suite={:016x};cap={CAPACITY_SCALE};{extra}",
            self.scale.spec_string(),
            self.suite_hash
        )
    }

    /// Loads `kind` from the store (if configured) or computes and
    /// persists it. Disk problems — missing, truncated, bit-flipped or
    /// undecodable artifacts — degrade to a recompute; they never produce
    /// an error or a wrong value.
    fn load_or_compute<V>(
        &self,
        kind: &'static str,
        extra_spec: &str,
        decode: impl Fn(&[u8]) -> Result<V, Error>,
        encode: impl Fn(&V) -> Vec<u8>,
        compute: impl FnOnce() -> V,
    ) -> V {
        let Some(store) = self.store.as_deref() else {
            return compute();
        };
        let key = ArtifactKey::new(kind, self.artifact_spec(extra_spec));
        // A record that passes the store's integrity checks but fails
        // `decode` is quarantined, so it is recomputed.
        let stored = store.get(&key).and_then(|bytes| {
            let _span = mps_obs::span("store.decode");
            decode(&bytes)
                .map_err(|e| store.quarantine_key(&key, &e))
                .ok()
        });
        if let Some(v) = stored {
            return v;
        }
        let v = compute();
        // A failed write (a full disk, say) is a warning, never an error:
        // it must not kill a running study.
        if let Err(e) = store.put(&key, &encode(&v)) {
            eprintln!("warning: could not persist {kind}: {e}");
        }
        v
    }

    /// The cell journal of `grid`: kind `journal`, keyed by this context's
    /// artifact spec and the grid, and read on its first lookup.
    fn journal(&self, grid: &str) -> Option<Arc<CellJournal>> {
        let store = self.store.as_deref()?;
        let mut journals = self
            .journals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(journal) = journals.get(grid) {
            return Some(Arc::clone(journal));
        }
        let key = ArtifactKey::new("journal", self.artifact_spec(&format!("grid={grid}")));
        let journal = Arc::new(store.journal(&key));
        journals.insert(grid.to_owned(), Arc::clone(&journal));
        Some(journal)
    }

    /// The recorded values of the grid cell `desc` of `grid`, if its
    /// journal holds them.
    pub(crate) fn recorded_cell(&self, grid: &str, desc: &CellDesc) -> Option<Vec<f64>> {
        self.journal(grid)?.get(cell_key(desc), desc.value_count())
    }

    /// Records a computed grid cell in its grid's journal (a no-op
    /// without a store). The `MPS_ABORT_AFTER_CELLS=<n>` environment
    /// variable aborts the process right after the n-th synced cell entry
    /// — the hook the kill-and-rerun tests use to stop a grid at a known
    /// point. A failed append (a full disk, say) is a warning, never an
    /// error: it must not kill a running study.
    pub(crate) fn record_cell(&self, grid: &str, desc: &CellDesc, values: &[f64]) {
        let Some(journal) = self.journal(grid) else {
            return;
        };
        if let Err(e) = journal.append(cell_key(desc), values) {
            eprintln!("warning: could not persist a {grid} cell: {e}");
            return;
        }
        static RECORDED: AtomicU64 = AtomicU64::new(0);
        static LIMIT: OnceLock<Option<u64>> = OnceLock::new();
        let limit = LIMIT.get_or_init(|| {
            std::env::var("MPS_ABORT_AFTER_CELLS")
                .ok()
                .and_then(|v| v.parse().ok())
        });
        if let Some(limit) = *limit {
            if RECORDED.fetch_add(1, Ordering::SeqCst) + 1 >= limit {
                eprintln!("MPS_ABORT_AFTER_CELLS={limit}: simulating a killed run");
                std::process::abort();
            }
        }
    }

    /// The values of one grid cell: served from its grid's journal when
    /// recorded there, else computed with `compute` and recorded. This is
    /// the single persistence path of every cell evaluated in this
    /// process, so the rerun of a killed grid is an ordinary cache hit
    /// for each cell the killed run completed.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub(crate) fn grid_cell(
        &self,
        grid: &str,
        desc: &CellDesc,
        compute: impl FnOnce() -> Result<Vec<f64>, Error>,
    ) -> Result<Vec<f64>, Error> {
        match self.replayed_cell(grid, desc) {
            Some(values) => Ok(values),
            None => self.fresh_cell(grid, desc, compute),
        }
    }

    /// The first half of [`Self::grid_cell`]: the recorded values of the
    /// cell `desc` of `grid`, counted as a replayed cell, if the journal
    /// holds them.
    pub(crate) fn replayed_cell(&self, grid: &str, desc: &CellDesc) -> Option<Vec<f64>> {
        let values = self.recorded_cell(grid, desc)?;
        crate::heartbeat::cell_replayed();
        Some(values)
    }

    /// The second half of [`Self::grid_cell`], after the journal missed:
    /// computes the cell with `compute` and records it.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub(crate) fn fresh_cell(
        &self,
        grid: &str,
        desc: &CellDesc,
        compute: impl FnOnce() -> Result<Vec<f64>, Error>,
    ) -> Result<Vec<f64>, Error> {
        let started = std::time::Instant::now();
        let values = compute()?;
        debug_assert_eq!(values.len(), desc.value_count(), "cell value count");
        crate::heartbeat::cell_finished(started.elapsed());
        self.record_cell(grid, desc, &values);
        Ok(values)
    }

    fn check_bench(&self, bench: usize) -> Result<(), Error> {
        if bench >= self.suite.len() {
            return Err(Error::InvalidInput(format!(
                "benchmark index {bench} out of range (suite has {})",
                self.suite.len()
            )));
        }
        Ok(())
    }

    /// Rejects a core count no model set or reference run is built for.
    fn check_cores(cores: usize) -> Result<(), Error> {
        if cores == 0 || cores > 64 {
            return Err(Error::InvalidInput(format!(
                "implausible core count {cores}"
            )));
        }
        Ok(())
    }

    fn check_workload(&self, w: &Workload) -> Result<(), Error> {
        for &b in w.benchmarks() {
            self.check_bench(b as usize)?;
        }
        Ok(())
    }

    /// The memoized SoA trace buffer of suite benchmark `bench`, captured
    /// on first use (or loaded from the store). The buffer holds exactly
    /// `scale.trace_len` µops — the detailed core's thread-restart period
    /// and BADCO's training slice — so a cycling [`TraceCursor`] over it
    /// is stream-identical to the benchmark's generator under the restart
    /// rule.
    pub fn trace_buffer(&self, bench: usize) -> Result<Arc<TraceBuffer>, Error> {
        self.check_bench(bench)?;
        Ok(self.cached_trace(bench))
    }

    /// [`Self::trace_buffer`] of a suite index the caller has validated.
    fn cached_trace(&self, bench: usize) -> Arc<TraceBuffer> {
        self.traces.get_or_build(bench, || {
            let name = self.suite[bench].name().to_owned();
            self.load_or_compute(
                "trace",
                &format!("bench={name}"),
                crate::persist::decode_trace,
                |v| crate::persist::encode_trace(v),
                || {
                    let mut source = self.suite[bench].trace();
                    Arc::new(TraceBuffer::capture(&mut source, self.scale.trace_len))
                },
            )
        })
    }

    /// A fresh replay cursor (positioned at µop 0) over
    /// [`Self::trace_buffer`].
    pub fn trace_cursor(&self, bench: usize) -> Result<TraceCursor, Error> {
        Ok(self.trace_buffer(bench)?.cursor())
    }

    /// The 22-benchmark suite.
    pub fn suite(&self) -> &[BenchmarkSpec] {
        &self.suite
    }

    /// The five paper policies.
    pub fn policies(&self) -> [PolicyKind; 5] {
        PolicyKind::PAPER_POLICIES
    }

    /// All 10 unordered policy pairs `(X, Y)` in paper order
    /// (LRU>RND, LRU>FIFO, ..., DIP>DRRIP).
    pub fn policy_pairs(&self) -> Vec<(PolicyKind, PolicyKind)> {
        let p = PolicyKind::PAPER_POLICIES;
        let mut pairs = Vec::new();
        for i in 0..p.len() {
            for j in (i + 1)..p.len() {
                pairs.push((p[i], p[j]));
            }
        }
        pairs
    }

    /// The workload population table for a core count (full for 2 cores,
    /// scale-sized subsamples for 4 and 8).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for core counts other than 2, 4 and 8.
    pub fn population(&self, cores: usize) -> Result<Population, Error> {
        if !matches!(cores, 2 | 4 | 8) {
            return Err(Error::InvalidInput(format!(
                "populations are defined for 2, 4 and 8 cores (got {cores})"
            )));
        }
        Ok(self.populations.get_or_build(cores, || {
            self.load_or_compute(
                "population",
                &format!("cores={cores}"),
                crate::persist::decode_population,
                crate::persist::encode_population,
                || {
                    let scale = &self.scale;
                    let b = 22;
                    let mut rng = Rng::new(scale.seed ^ (cores as u64) << 8);
                    match cores {
                        2 => Population::full(b, 2),
                        4 => {
                            if scale.pop_4core_is_full() {
                                Population::full(b, 4)
                            } else {
                                Population::subsampled(b, 4, scale.pop_4core, &mut rng)
                            }
                        }
                        _ => Population::subsampled(b, 8, scale.pop_8core, &mut rng),
                    }
                },
            )
        }))
    }

    /// BADCO models for every benchmark, trained with the Table II timing
    /// of the given core count. The per-benchmark ideal/pessimal training
    /// runs are independent, so they fan out over the worker pool.
    pub fn models(&self, cores: usize) -> Result<Vec<Arc<BadcoModel>>, Error> {
        Self::check_cores(cores)?;
        // Training replays every suite benchmark's trace buffer, and the
        // suite check is the only way fetching one can fail.
        self.check_bench(0)?;
        Ok(self.cached_models(cores))
    }

    /// [`Self::models`] for a core count the caller has validated.
    fn cached_models(&self, cores: usize) -> Vec<Arc<BadcoModel>> {
        self.models.get_or_build(cores, || {
            self.load_or_compute(
                "badco-models",
                &format!("cores={cores}"),
                crate::persist::decode_models,
                |v| crate::persist::encode_models(v),
                || {
                    let timing =
                        BadcoTiming::from_uncore(&experiment_uncore(cores, PolicyKind::Lru));
                    let trace_len = self.scale.trace_len;
                    mps_par::par_map_indexed(self.jobs, &self.suite, |i, b| {
                        Arc::new(BadcoModel::build(
                            b.name(),
                            &CoreConfig::ispass2013(),
                            &self.cached_trace(i).cursor(),
                            trace_len,
                            timing,
                        ))
                    })
                },
            )
        })
    }

    /// Single-thread reference IPCs (benchmark alone on the reference
    /// machine, LRU uncore) measured with BADCO.
    pub fn badco_reference_ipcs(&self, cores: usize) -> Result<Vec<f64>, Error> {
        Self::check_cores(cores)?;
        self.check_bench(0)?;
        Ok(self.cached_badco_refs(cores))
    }

    /// [`Self::badco_reference_ipcs`] for a core count the caller has
    /// validated. The models are fetched only when the reference IPCs
    /// are neither cached nor stored.
    fn cached_badco_refs(&self, cores: usize) -> Vec<f64> {
        self.badco_refs.get_or_build(cores, || {
            self.load_or_compute(
                "badco-refs",
                &format!("cores={cores}"),
                crate::persist::decode_f64s,
                |v| crate::persist::encode_f64s(v),
                || {
                    let models = self.cached_models(cores);
                    mps_par::par_map_indexed(self.jobs, &models, |_, m| {
                        let uncore = Uncore::new(experiment_uncore(cores, PolicyKind::Lru), 1);
                        let r = BadcoMulticoreSim::new(uncore, vec![Arc::clone(m)]).run();
                        r.ipc[0]
                    })
                },
            )
        })
    }

    /// Single-thread reference IPCs measured with the detailed simulator.
    pub fn detailed_reference_ipcs(&self, cores: usize) -> Result<Vec<f64>, Error> {
        Self::check_cores(cores)?;
        self.check_bench(0)?;
        Ok(self.cached_detailed_refs(cores))
    }

    /// [`Self::detailed_reference_ipcs`] for a core count the caller has
    /// validated.
    fn cached_detailed_refs(&self, cores: usize) -> Vec<f64> {
        self.detailed_refs.get_or_build(cores, || {
            self.load_or_compute(
                "detailed-refs",
                &format!("cores={cores}"),
                crate::persist::decode_f64s,
                |v| crate::persist::encode_f64s(v),
                || {
                    let trace_len = self.scale.trace_len;
                    let ucfg = experiment_uncore(cores, PolicyKind::Lru);
                    mps_par::par_map_indexed(self.jobs, &self.suite, |i, _| {
                        let traces: Vec<Box<dyn TraceSource>> =
                            vec![Box::new(self.cached_trace(i).cursor())];
                        let uncore = Uncore::new(ucfg.clone(), 1);
                        MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces)
                            .run(trace_len)
                            .ipc[0]
                    })
                },
            )
        })
    }

    /// Runs one workload under one policy with BADCO; returns per-core IPC.
    pub fn badco_run(
        &self,
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Result<Vec<f64>, Error> {
        self.check_workload(w)?;
        let models = self.models(cores)?;
        Ok(Self::badco_run_with(&models, cores, policy, w))
    }

    /// [`Self::badco_run`] against an already-fetched model set, so a
    /// parallel caller fetches the models once instead of taking the
    /// cache lock from every worker. Public because the validation sweep
    /// substitutes deliberately perturbed model sets here (see
    /// [`crate::validate`]).
    pub fn badco_run_with(
        models: &[Arc<BadcoModel>],
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Vec<f64> {
        Self::badco_sim(models, cores, policy, w).ipc
    }

    /// The full result of [`Self::badco_run_with`]'s run.
    fn badco_sim(
        models: &[Arc<BadcoModel>],
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> BadcoSimResult {
        let uncore = Uncore::new(experiment_uncore(cores, policy), w.cores());
        let bound: Vec<Arc<BadcoModel>> = w
            .benchmarks()
            .iter()
            .map(|&b| Arc::clone(&models[b as usize]))
            .collect();
        BadcoMulticoreSim::new(uncore, bound).run()
    }

    /// Runs one workload through the *stable validation entry point* of
    /// the detailed simulator ([`mps_sim_cpu::validation_ipcs`]) and
    /// returns only the per-core IPCs. `mps-harness validate` measures
    /// the detailed side exclusively through this method, so the
    /// validation suite is insulated from changes to
    /// [`Self::detailed_run`]'s richer result surface.
    pub fn validation_detailed_ipcs(
        &self,
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Result<Vec<f64>, Error> {
        self.check_workload(w)?;
        let uncore = Uncore::new(experiment_uncore(cores, policy), w.cores());
        Ok(mps_sim_cpu::validation_ipcs(
            CoreConfig::ispass2013(),
            uncore,
            self.detailed_traces(w),
            self.scale.trace_len,
        ))
    }

    /// [`Self::validation_detailed_ipcs`] over many workloads, in order.
    /// Kept for the study bench, which replays validate's cells through
    /// it one (cores, policy) group at a time.
    pub fn validation_detailed_ipcs_batch(
        &self,
        cores: usize,
        policy: PolicyKind,
        workloads: &[Workload],
    ) -> Result<Vec<Vec<f64>>, Error> {
        workloads
            .iter()
            .map(|w| self.validation_detailed_ipcs(cores, policy, w))
            .collect()
    }

    /// Runs one workload under one policy with the detailed simulator.
    pub fn detailed_run(
        &self,
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Result<SimResult, Error> {
        self.check_workload(w)?;
        Ok(self.detailed_sim(cores, policy, w))
    }

    /// [`Self::detailed_run`] of a workload the caller has validated.
    fn detailed_sim(&self, cores: usize, policy: PolicyKind, w: &Workload) -> SimResult {
        let uncore = Uncore::new(experiment_uncore(cores, policy), w.cores());
        let traces = self.detailed_traces(w);
        MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces).run(self.scale.trace_len)
    }

    /// One cursor over the memoized trace buffer per benchmark of `w`.
    fn detailed_traces(&self, w: &Workload) -> Vec<Box<dyn TraceSource>> {
        w.benchmarks()
            .iter()
            .map(|&b| Box::new(self.cached_trace(b as usize).cursor()) as Box<dyn TraceSource>)
            .collect()
    }

    /// The BADCO per-workload performance table of one policy over the
    /// whole population for `cores` — the expensive artifact behind
    /// Figures 3–7, computed once, cached and (when a store is attached)
    /// persisted across processes. Each `(policy, workload)` cell is an
    /// independent simulation, so the grid fans out over the worker pool;
    /// rows are merged in population order, keeping the table
    /// bit-identical for every `jobs` value. A row another policy's table
    /// already simulated without an LLC eviction is reused, not rerun:
    /// such a run is the same under every policy (DESIGN.md §7).
    ///
    /// The models and reference IPCs the table is built from are fetched
    /// only when the table is neither cached nor stored, so a warm store
    /// serves the table without decoding them.
    pub fn badco_table(&self, cores: usize, policy: PolicyKind) -> Result<Arc<PerfTable>, Error> {
        // Validate everything the build below reads, so it cannot fail:
        // the population (fetched here, as the artifact reads it anyway)
        // admits only core counts the models accept too.
        let pop = self.population(cores)?;
        self.check_bench(0)?;
        Ok(self.badco_tables.get_or_build((cores, policy), || {
            self.load_or_compute(
                "perf-table",
                &format!("cores={cores};policy={policy:?}"),
                |b| crate::persist::decode_perf_table(b).map(Arc::new),
                |v| crate::persist::encode_perf_table(v),
                || {
                    let refs = self.cached_badco_refs(cores);
                    let models = self.cached_models(cores);
                    let workloads: Vec<Workload> = pop.workloads().to_vec();
                    let rows = mps_par::par_map_indexed(self.jobs, &workloads, |_, w| {
                        self.invariant_rows.row(RowSim::Badco, cores, w, || {
                            let r = Self::badco_sim(&models, cores, policy, w);
                            (r.ipc, r.uncore_stats.llc_evictions)
                        })
                    });
                    let mut table = PerfTable::new(refs);
                    for (w, ipcs) in workloads.iter().zip(rows) {
                        table.push(WorkloadPerf::new(
                            w.benchmarks().iter().map(|&b| b as usize).collect(),
                            ipcs,
                        ));
                    }
                    Arc::new(table)
                },
            )
        }))
    }

    /// Detailed-simulator performance table over a list of workloads,
    /// one independent simulation per workload, fanned out and sharing
    /// eviction-free rows across policies like [`Self::badco_table`].
    /// Persisted under a key that hashes the workload list, so e.g.
    /// Figure 7's full-population detailed pass is simulated once per
    /// store lifetime. The detailed reference IPCs are fetched only when
    /// the table is not stored.
    pub fn detailed_table(
        &self,
        cores: usize,
        policy: PolicyKind,
        workloads: &[Workload],
    ) -> Result<PerfTable, Error> {
        for w in workloads {
            self.check_workload(w)?;
        }
        Self::check_cores(cores)?;
        self.check_bench(0)?;
        let wl_hash = {
            let mut bytes = Vec::with_capacity(workloads.len() * 4);
            for w in workloads {
                for &b in w.benchmarks() {
                    bytes.push(b as u8);
                }
                bytes.push(0xFF);
            }
            mps_store::fnv1a64(&bytes)
        };
        Ok(self.load_or_compute(
            "detailed-table",
            &format!("cores={cores};policy={policy:?};wl={wl_hash:016x}"),
            crate::persist::decode_perf_table,
            crate::persist::encode_perf_table,
            || {
                let refs = self.cached_detailed_refs(cores);
                let rows = mps_par::par_map_indexed(self.jobs, workloads, |_, w| {
                    self.invariant_rows.row(RowSim::Detailed, cores, w, || {
                        let r = self.detailed_sim(cores, policy, w);
                        (r.ipc, r.uncore_stats.llc_evictions)
                    })
                });
                let mut table = PerfTable::new(refs);
                for (w, ipc) in workloads.iter().zip(rows) {
                    table.push(WorkloadPerf::new(
                        w.benchmarks().iter().map(|&b| b as usize).collect(),
                        ipc,
                    ));
                }
                table
            },
        ))
    }

    /// Pair data (per-workload throughputs of X and Y) under a metric from
    /// the cached BADCO population tables.
    pub fn badco_pair_data(
        &self,
        cores: usize,
        x: PolicyKind,
        y: PolicyKind,
        metric: ThroughputMetric,
    ) -> Result<PairData, Error> {
        let tx = self.badco_table(cores, x)?.throughputs(metric);
        let ty = self.badco_table(cores, y)?.throughputs(metric);
        Ok(PairData::new(metric, tx, ty))
    }

    /// A fresh deterministic RNG stream for an experiment.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(
            self.scale
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(stream),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyBuilder;

    fn ctx() -> StudyContext {
        StudyContext::new(Scale::test())
    }

    #[test]
    fn populations_have_scale_sizes() {
        let c = ctx();
        assert_eq!(c.population(2).unwrap().len(), 253);
        assert_eq!(c.population(4).unwrap().len(), Scale::test().pop_4core);
        assert_eq!(c.population(8).unwrap().len(), Scale::test().pop_8core);
    }

    #[test]
    fn invalid_inputs_error_instead_of_panicking() {
        let c = ctx();
        assert!(matches!(c.population(3), Err(Error::InvalidInput(_))));
        assert!(matches!(c.models(0), Err(Error::InvalidInput(_))));
        assert!(matches!(c.trace_buffer(22), Err(Error::InvalidInput(_))));
        let w = Workload::new(vec![21, 22]);
        assert!(matches!(
            c.detailed_run(2, PolicyKind::Lru, &w),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn policy_pairs_are_ten() {
        let c = ctx();
        let pairs = c.policy_pairs();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], (PolicyKind::Lru, PolicyKind::Random));
        assert_eq!(pairs[9], (PolicyKind::Dip, PolicyKind::Drrip));
    }

    #[test]
    fn models_cover_suite_and_cache() {
        let c = ctx();
        let m = c.models(2).unwrap();
        assert_eq!(m.len(), 22);
        let again = c.models(2).unwrap();
        assert!(Arc::ptr_eq(&m[0], &again[0]), "models must be cached");
    }

    #[test]
    fn badco_table_is_cached_and_aligned() {
        let c = ctx();
        // Shrink further for test speed: 2-core population is 253.
        let t1 = c.badco_table(2, PolicyKind::Lru).unwrap();
        let t2 = c.badco_table(2, PolicyKind::Lru).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.len(), c.population(2).unwrap().len());
    }

    #[test]
    fn pair_data_has_population_length() {
        let c = ctx();
        let d = c
            .badco_pair_data(
                2,
                PolicyKind::Lru,
                PolicyKind::Random,
                ThroughputMetric::WeightedSpeedup,
            )
            .unwrap();
        assert_eq!(d.len(), 253);
    }

    #[test]
    fn reference_ipcs_are_positive() {
        let c = ctx();
        for ipc in c.badco_reference_ipcs(2).unwrap() {
            assert!(ipc > 0.0 && ipc < 4.0);
        }
    }

    #[test]
    fn tables_are_jobs_invariant() {
        // The same table built with 1 and 4 workers must be bit-identical.
        let t1 = StudyBuilder::new()
            .scale(Scale::test())
            .jobs(1)
            .build()
            .unwrap()
            .badco_table(2, PolicyKind::Drrip)
            .unwrap()
            .throughputs(ThroughputMetric::IpcThroughput);
        let t4 = StudyBuilder::new()
            .scale(Scale::test())
            .jobs(4)
            .build()
            .unwrap()
            .badco_table(2, PolicyKind::Drrip)
            .unwrap()
            .throughputs(ThroughputMetric::IpcThroughput);
        assert_eq!(t1, t4);
    }

    #[test]
    fn cell_values_round_trip_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("mps-cell-bits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            StudyBuilder::new()
                .scale(Scale::test())
                .jobs(1)
                .store(&dir)
                .build()
                .unwrap()
        };
        let desc = |widx| CellDesc::Validate {
            cores: 4,
            policy: PolicyKind::Drrip,
            p_idx: 1,
            widx,
            perturb: 1.0,
            side: crate::dist::ValSide::Badco,
        };
        let values = [f64::NAN, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let recorded = |c: &StudyContext, grid, widx| c.recorded_cell(grid, &desc(widx));
        let c = open();
        assert_eq!(recorded(&c, "validate", 0), None);
        c.record_cell("validate", &desc(0), &values);
        // Another context on the same store reads the record back exactly,
        // and only under the descriptor it was recorded for.
        let c = open();
        let got = recorded(&c, "validate", 0).expect("recorded");
        assert_eq!(bits(&got), bits(&values));
        assert_eq!(recorded(&c, "validate", 1), None);
        assert_eq!(recorded(&c, "fig3", 0), None);
        // A recorded cell with the wrong value count is poison.
        c.record_cell("validate", &desc(2), &values[..3]);
        assert_eq!(recorded(&c, "validate", 2), None);
        assert_eq!(c.store_stats().unwrap().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_first_access_builds_once() {
        // Eight threads race on the same cold artifact: the cache must
        // rebuild exactly once and account exactly one miss, with every
        // other access a hit (hits + misses == accesses).
        let c = StudyBuilder::new()
            .scale(Scale::test())
            .jobs(2)
            .build()
            .unwrap();
        let threads = 8;
        let tables: Vec<Arc<PerfTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| c.badco_table(2, PolicyKind::Fifo).unwrap()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect()
        });
        for t in &tables[1..] {
            assert!(
                Arc::ptr_eq(&tables[0], t),
                "all threads must share one build"
            );
        }
        let stats = c.cache_stats();
        assert_eq!(stats.table_misses, 1, "exactly one rebuild: {stats:?}");
        assert_eq!(
            stats.table_hits,
            threads as u64 - 1,
            "every other access is a hit: {stats:?}"
        );
    }

    #[test]
    fn store_round_trips_artifacts_across_contexts() {
        let dir = std::env::temp_dir().join(format!(
            "mps-runner-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            crate::StudyBuilder::new()
                .scale(Scale::test())
                .jobs(1)
                .store(&dir)
                .build()
                .unwrap()
        };
        let cold = build();
        let t_cold = cold.badco_table(2, PolicyKind::Lru).unwrap();
        let refs_cold = cold.detailed_reference_ipcs(2).unwrap();
        let stats = cold.store_stats().unwrap();
        assert!(
            stats.puts >= 2,
            "cold run must persist artifacts: {stats:?}"
        );

        let warm = build();
        let t_warm = warm.badco_table(2, PolicyKind::Lru).unwrap();
        let refs_warm = warm.detailed_reference_ipcs(2).unwrap();
        assert_eq!(*t_warm, *t_cold, "loaded table must be bit-identical");
        assert_eq!(refs_warm, refs_cold);
        let stats = warm.store_stats().unwrap();
        assert!(stats.hits >= 2, "warm run must hit the store: {stats:?}");
    }

    #[test]
    fn different_scales_do_not_share_artifacts() {
        let a = StudyContext::new(Scale::test()).artifact_spec("cores=2");
        let b = StudyContext::new(Scale::small()).artifact_spec("cores=2");
        assert_ne!(a, b);
    }
}
