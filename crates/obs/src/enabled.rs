//! The real instrumentation backend, compiled when the `obs` feature is on.
//!
//! All state lives in one process-global [`Registry`] behind a `OnceLock`.
//! Counters are leaked `AtomicU64`s so handles are `Copy + 'static` and a
//! hot-loop update is a single relaxed `fetch_add`; everything slower
//! (name lookup, span bookkeeping, the sink) takes a mutex and is meant
//! for construction time and span boundaries only.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::estimator::EstimatorSnapshot;
use crate::jsonl;
use mps_stats::estimator::Convergence;
use mps_stats::Moments;

/// A handle to a named process-global monotonic counter.
///
/// Obtain one with [`counter`] once (it takes a lock) and then update it
/// freely from hot code: [`Counter::add`] is one relaxed atomic add.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A handle to a named process-global streaming estimator: a Welford
/// mean/variance accumulation whose snapshot carries the paper's §VII
/// convergence diagnostics (running `cv`, 95% CI half-width, achieved
/// confidence, required `W = 8·cv²`).
///
/// Obtain one with [`estimator`] once (it takes a lock); each
/// [`Estimator::record`] then takes a short per-estimator mutex — cheap
/// for per-resample and per-cell observation rates, not meant for
/// per-µop hot loops (use a [`Counter`] there).
#[derive(Debug, Clone, Copy)]
pub struct Estimator {
    name: &'static str,
    cell: &'static Mutex<Moments>,
}

impl Estimator {
    /// Adds one observation to the accumulation.
    #[inline]
    pub fn record(self, x: f64) {
        lock(self.cell).push(x);
    }

    /// Adds a batch of observations under one lock acquisition.
    pub fn record_many(self, xs: &[f64]) {
        let mut m = lock(self.cell);
        for &x in xs {
            m.push(x);
        }
    }

    /// Observations accumulated so far.
    pub fn count(self) -> u64 {
        lock(self.cell).count()
    }

    /// The derived §VII convergence statistics at this instant.
    pub fn convergence(self) -> Convergence {
        Convergence::of(&lock(self.cell))
    }

    /// Materializes this estimator's named snapshot.
    pub fn snapshot(self) -> EstimatorSnapshot {
        EstimatorSnapshot::new(self.name, self.convergence())
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static AtomicU64>>,
    estimators: Mutex<BTreeMap<&'static str, &'static Mutex<Moments>>>,
    sink: Mutex<Option<BufWriter<File>>>,
    /// Bounded buffer of encoded span lines for a distributed worker to
    /// ship (`None` = tap not installed). See [`install_span_tap`].
    span_tap: Mutex<Option<Vec<String>>>,
    epoch: Instant,
    next_span_id: AtomicU64,
}

/// Upper bound on buffered span lines in the tap: a worker that never
/// drains (coordinator gone silent) must not grow without bound —
/// shipped spans are lossy by contract, artifacts are not.
const SPAN_TAP_CAP: usize = 4096;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        estimators: Mutex::new(BTreeMap::new()),
        sink: Mutex::new(None),
        span_tap: Mutex::new(None),
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(1),
    })
}

/// Locks ignoring poisoning: a panicking test must not wedge the global
/// registry for every later test in the same process.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Returns the counter registered under `name`, creating it at zero on
/// first use. Takes a lock — call once and keep the `Copy` handle.
pub fn counter(name: &'static str) -> Counter {
    let mut map = lock(&registry().counters);
    let cell = map
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
    Counter { cell }
}

/// Returns the estimator registered under `name`, creating it empty on
/// first use. Takes a lock — call once and keep the `Copy` handle.
pub fn estimator(name: &'static str) -> Estimator {
    let mut map = lock(&registry().estimators);
    let cell = map
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Mutex::new(Moments::new()))));
    Estimator { name, cell }
}

/// An open timed region. Finish it explicitly with [`Span::finish`] or let
/// it drop; either way, if a sink or the span tap is installed, one JSONL
/// record with its duration and counter deltas is written to each.
///
/// A span opened while neither is installed is inert: it takes no id, no
/// counter snapshot and no stack entry, and closing it does nothing.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    start_us: u64,
    entry_counters: BTreeMap<&'static str, u64>,
}

/// Opens a span named `name`, nested under the innermost recorded span
/// already open on this thread. Inert when neither a sink nor the span
/// tap is installed.
pub fn span(name: &'static str) -> Span {
    let reg = registry();
    if lock(&reg.sink).is_none() && lock(&reg.span_tap).is_none() {
        return Span { inner: None };
    }
    let id = reg.next_span_id.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let entry_counters = lock(&reg.counters)
        .iter()
        .map(|(&k, v)| (k, v.load(Ordering::Relaxed)))
        .collect();
    let now = Instant::now();
    Span {
        inner: Some(SpanInner {
            name,
            id,
            parent,
            start: now,
            start_us: now.duration_since(reg.epoch).as_micros() as u64,
            entry_counters,
        }),
    }
}

impl Span {
    /// Closes the span.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur = inner.start.elapsed();
        let reg = registry();

        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Out-of-order drops (e.g. a parent finished first by hand)
            // just remove this id wherever it sits.
            if let Some(pos) = s.iter().rposition(|&id| id == inner.id) {
                s.remove(pos);
            }
        });

        let mut deltas: BTreeMap<String, u64> = BTreeMap::new();
        for (&name, cell) in lock(&reg.counters).iter() {
            let before = inner.entry_counters.get(name).copied().unwrap_or(0);
            let delta = cell.load(Ordering::Relaxed).saturating_sub(before);
            if delta > 0 {
                deltas.insert(name.to_string(), delta);
            }
        }

        // The sink or tap may have been removed since the span opened.
        let mut sink = lock(&reg.sink);
        let mut tap = lock(&reg.span_tap);
        if sink.is_none() && tap.is_none() {
            return;
        }
        let line = jsonl::encode_span(
            inner.id,
            inner.parent,
            inner.name,
            inner.start_us,
            dur.as_micros() as u64,
            &deltas,
        );
        if let Some(w) = sink.as_mut() {
            let _ = writeln!(w, "{line}");
        }
        if let Some(buf) = tap.as_mut() {
            // Over the cap the oldest spans win: they are the big
            // top-level spans a fleet trace actually needs.
            if buf.len() < SPAN_TAP_CAP {
                buf.push(line);
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Records a point-in-time event with string fields to the sink, if one is
/// installed. A no-op (beyond the sink check) otherwise.
pub fn event(name: &str, fields: &[(&str, String)]) {
    let mut sink = lock(&registry().sink);
    if let Some(w) = sink.as_mut() {
        let line = jsonl::encode_event(name, fields);
        let _ = writeln!(w, "{line}");
    }
}

/// Whether a JSONL sink is installed: the run is recording a trace.
pub fn sink_installed() -> bool {
    lock(&registry().sink).is_some()
}

/// Installs a JSONL sink writing (truncating) to `path`.
///
/// # Errors
///
/// Propagates the error from creating the file.
pub fn set_sink_path(path: &str) -> io::Result<()> {
    let file = File::create(path)?;
    *lock(&registry().sink) = Some(BufWriter::new(file));
    Ok(())
}

/// Flushes the sink, if one is installed.
pub fn flush() {
    if let Some(w) = lock(&registry().sink).as_mut() {
        let _ = w.flush();
    }
}

/// Appends one pre-encoded JSONL line to the sink, if one is installed.
/// The distributed coordinator uses this to re-emit worker-shipped span
/// records (already worker-tagged and id-namespaced) into its own trace
/// file; the line's content is the caller's responsibility.
pub fn sink_line(line: &str) {
    if let Some(w) = lock(&registry().sink).as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

/// Starts capturing every finished span as an encoded JSONL line in a
/// bounded in-memory buffer (independent of the file sink), so a
/// distributed worker can ship its spans to the coordinator. Installing
/// twice clears the buffer. Capped at a few thousand lines — once full,
/// further spans are dropped until [`drain_span_tap`] runs (shipping is
/// fire-and-forget by contract).
pub fn install_span_tap() {
    *lock(&registry().span_tap) = Some(Vec::new());
}

/// Takes every span line captured since the last drain (empty when the
/// tap is not installed). The tap stays installed.
pub fn drain_span_tap() -> Vec<String> {
    match lock(&registry().span_tap).as_mut() {
        Some(buf) => std::mem::take(buf),
        None => Vec::new(),
    }
}

/// Stops span capture and discards anything not yet drained.
pub fn remove_span_tap() {
    *lock(&registry().span_tap) = None;
}

/// Resets all observable state: counters back to zero, estimators
/// emptied, the sink flushed and removed, the span tap removed.
/// Registered handles stay valid. Intended for tests comparing two runs
/// in one process.
pub fn reset() {
    let reg = registry();
    for cell in lock(&reg.counters).values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in lock(&reg.estimators).values() {
        *lock(cell) = Moments::new();
    }
    if let Some(mut w) = lock(&reg.sink).take() {
        let _ = w.flush();
    }
    *lock(&reg.span_tap) = None;
    reg.next_span_id.store(1, Ordering::Relaxed);
}

/// All counters and their current values, **sorted by name**.
///
/// The sorted order is a documented contract (golden tests and trace
/// consumers rely on it being deterministic across runs and thread
/// counts), enforced by an explicit sort rather than inherited
/// from the registry's storage choice.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = lock(&registry().counters)
        .iter()
        .map(|(&k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Materialized snapshots of every registered estimator, sorted by name
/// (the same explicit-sort contract as the other snapshot functions).
pub fn estimators_snapshot() -> Vec<EstimatorSnapshot> {
    let mut out: Vec<EstimatorSnapshot> = lock(&registry().estimators)
        .iter()
        .map(|(&name, cell)| EstimatorSnapshot::new(name, Convergence::of(&lock(cell))))
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and the test harness is
    /// multithreaded, so every test here serializes on one lock (a
    /// [`reset`] from one test must not zero another's counters
    /// mid-assert) and uses its own names.
    fn guard() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        lock(&GATE)
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = guard();
        reset();
        let c = counter("test.enabled.counter");
        c.add(5);
        c.incr();
        assert_eq!(c.get(), 6);
        assert!(counters_snapshot().contains(&("test.enabled.counter".to_string(), 6)));
        reset();
        assert_eq!(c.get(), 0, "reset zeroes but keeps handles valid");
    }

    #[test]
    fn spans_aggregate_deltas_and_nesting() {
        let _g = guard();
        reset();
        install_span_tap();
        let c = counter("test.enabled.span_delta");
        let outer = span("test.outer");
        {
            let inner = span("test.inner");
            c.add(3);
            inner.finish();
        }
        c.add(4);
        outer.finish();

        let records = jsonl::parse_all(&drain_span_tap().join("\n")).expect("tap lines parse");
        reset();
        let spans: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                jsonl::Record::Span {
                    id,
                    parent,
                    name,
                    counters,
                    ..
                } => Some((*id, *parent, name.as_str(), counters)),
                jsonl::Record::Event { .. } => None,
            })
            .collect();
        let calls = |name: &str| spans.iter().filter(|s| s.2 == name).count();
        assert_eq!((calls("test.outer"), calls("test.inner")), (1, 1));
        let of = |name: &str| spans.iter().find(|s| s.2 == name).unwrap();
        let (outer, inner) = (of("test.outer"), of("test.inner"));
        assert_eq!(inner.1, Some(outer.0), "inner nests under outer");
        assert_eq!(inner.3["test.enabled.span_delta"], 3);
        assert_eq!(
            outer.3["test.enabled.span_delta"], 7,
            "outer sees inner's work"
        );
    }

    #[test]
    fn estimators_accumulate_snapshot_and_reset() {
        let _g = guard();
        reset();
        let e = estimator("test.enabled.estimator");
        e.record_many(&[2.0, 4.0, 4.0, 4.0]);
        e.record(5.0);
        for x in [5.0, 7.0, 9.0] {
            e.record(x);
        }
        assert_eq!(e.count(), 8);
        let c = e.convergence();
        assert!((c.mean - 5.0).abs() < 1e-12);
        assert!((c.cv - 0.4).abs() < 1e-12);
        assert_eq!(c.required_w, 2, "⌈8·0.4²⌉");
        let snaps = estimators_snapshot();
        let s = snaps
            .iter()
            .find(|s| s.name == "test.enabled.estimator")
            .expect("registered");
        assert_eq!(s.stats, c, "snapshot equals the handle's convergence");
        assert!(
            snaps.windows(2).all(|w| w[0].name <= w[1].name),
            "estimators sorted"
        );
        reset();
        assert_eq!(e.count(), 0, "reset empties but keeps handles valid");
        assert!(e.convergence().mean.is_nan());
    }

    #[test]
    fn snapshots_are_sorted_regardless_of_registration_order() {
        let _g = guard();
        reset();
        // Deliberately register in reverse lexicographic order, from
        // several threads, to pin the sorted-output contract.
        std::thread::scope(|s| {
            for name in ["test.sort.zz", "test.sort.mm", "test.sort.aa"] {
                s.spawn(move || counter(name).incr());
            }
        });
        let c = counters_snapshot();
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0), "counters sorted");
    }

    #[test]
    fn span_tap_captures_encoded_spans_without_a_sink() {
        let _g = guard();
        reset();
        install_span_tap();
        span("test.tap.one").finish();
        span("test.tap.two").finish();
        let lines = drain_span_tap();
        assert_eq!(lines.len(), 2);
        let recs: Vec<_> = lines
            .iter()
            .map(|l| jsonl::parse(l).expect("tap lines parse"))
            .collect();
        assert_eq!(recs[0].name(), "test.tap.one");
        assert_eq!(recs[1].name(), "test.tap.two");
        assert!(drain_span_tap().is_empty(), "drain empties the buffer");
        span("test.tap.three").finish();
        assert_eq!(drain_span_tap().len(), 1, "tap stays installed");
        remove_span_tap();
        span("test.tap.four").finish();
        assert!(drain_span_tap().is_empty(), "removed tap captures nothing");
        reset();
    }

    #[test]
    fn sink_records_parse_back() {
        let _g = guard();
        reset();
        let path = std::env::temp_dir().join("mps_obs_enabled_sink_test.jsonl");
        let path_str = path.to_str().expect("temp path is utf-8");
        set_sink_path(path_str).expect("sink opens");
        let c = counter("test.enabled.sink");
        let s = span("test.sink.span");
        c.add(2);
        s.finish();
        event("test.sink.event", &[("k", "v".to_string())]);
        reset(); // flushes and closes the sink

        let body = std::fs::read_to_string(&path).expect("sink file readable");
        let records = jsonl::parse_all(&body).expect("sink output parses");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name(), "test.sink.span");
        assert_eq!(records[1].name(), "test.sink.event");
        let _ = std::fs::remove_file(&path);
    }
}
