//! Periodic run progress: grid-cell accounting plus a background
//! heartbeat that reports it while a long study runs.
//!
//! The experiment grids (figures 3, 6, 7) call [`grid_add_total`] when
//! they learn how many cells a figure will evaluate, then
//! [`cell_finished`] / [`cell_replayed`] per cell. The distributed
//! coordinator reports its live worker count through
//! [`set_live_workers`], and convergence probes their last running `cv`
//! through [`set_cv`]. The accounting is a handful of plain atomics
//! here; only `grid.cells.replayed` is also an `mps-obs` counter.
//!
//! [`start`] spawns one detached thread that, every period:
//!
//! * appends a `heartbeat` event to the JSONL sink (fields: `cells_done`,
//!   `cells_total`, `replayed`, `eta_s`, `cv` — the last running
//!   coefficient of variation any convergence probe reported — and
//!   `workers`), and
//! * when stderr is a terminal, rewrites a single `\r`-anchored progress
//!   line (never a growing scroll; nothing at all when piped to a file).
//!
//! The ETA is `remaining cells × mean computed-cell latency`, divided by
//! the live worker lanes (one without workers): cells run sequentially
//! at the grid level (the worker pool parallelizes *inside* a cell), and
//! under `--workers N` each live worker is one lane. It is absent until
//! the first cell is computed.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The run's progress accounting; [`PROGRESS`] is the process-wide one.
struct Progress {
    done: AtomicU64,
    total: AtomicU64,
    replayed: AtomicU64,
    /// Sum and count of computed-cell latencies, in µs: their exact
    /// mean drives the ETA.
    latency_sum_us: AtomicU64,
    latency_cells: AtomicU64,
    live_workers: AtomicU64,
    /// The last finite running `cv` a convergence probe reported, in
    /// permille.
    cv_permille: AtomicU64,
}

static PROGRESS: Progress = Progress::new();

impl Progress {
    const fn new() -> Self {
        Progress {
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            latency_cells: AtomicU64::new(0),
            live_workers: AtomicU64::new(0),
            cv_permille: AtomicU64::new(0),
        }
    }

    fn cell_finished(&self, took: Duration) {
        let us = u64::try_from(took.as_micros()).unwrap_or(u64::MAX);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_cells.fetch_add(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    fn cell_replayed(&self) {
        self.replayed.fetch_add(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// One progress snapshot: `(done, total, replayed, eta_seconds,
    /// workers)`. `workers` is the live distributed worker count (0 =
    /// single-process). Under `--workers N` cells complete concurrently —
    /// the coordinator's dispatch threads record each remote cell through
    /// [`cell_finished`] — so the ETA divides by the lanes actually
    /// running.
    fn snapshot(&self) -> (u64, u64, u64, Option<f64>, u64) {
        let done = self.done.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let workers = self.live_workers.load(Ordering::Relaxed);
        let computed = self.latency_cells.load(Ordering::Relaxed);
        let eta = (computed > 0 && total > done).then(|| {
            let mean_us = self.latency_sum_us.load(Ordering::Relaxed) as f64 / computed as f64;
            (total - done) as f64 * mean_us / 1e6 / workers.max(1) as f64
        });
        let replayed = self.replayed.load(Ordering::Relaxed);
        (done, total, replayed, eta, workers)
    }
}

/// Adds `n` cells to the run-wide expected total (figures call this as
/// soon as a grid's size is known; totals accumulate across figures).
pub fn grid_add_total(n: u64) {
    PROGRESS.total.fetch_add(n, Ordering::Relaxed);
}

/// Marks one cell computed, recording its latency.
pub fn cell_finished(took: Duration) {
    PROGRESS.cell_finished(took);
}

/// Marks one cell served from the store (its record was written by an
/// earlier run): done, but not counted into the latency mean.
pub fn cell_replayed() {
    mps_obs::counter("grid.cells.replayed").incr();
    PROGRESS.cell_replayed();
}

/// Sets the live distributed worker count (0 = single-process).
pub fn set_live_workers(n: usize) {
    PROGRESS.live_workers.store(n as u64, Ordering::Relaxed);
}

/// Records a convergence probe's latest running coefficient of
/// variation; non-finite values are ignored.
pub fn set_cv(cv: f64) {
    if cv.is_finite() {
        let permille = (cv.abs() * 1000.0) as u64;
        PROGRESS.cv_permille.store(permille, Ordering::Relaxed);
    }
}

static STARTED: AtomicBool = AtomicBool::new(false);
static STOP: AtomicBool = AtomicBool::new(false);
/// Set once any `\r`-anchored TTY line has been written, so [`finish`]
/// knows whether a terminating newline is owed.
static WROTE_TTY: AtomicBool = AtomicBool::new(false);
static THREAD: Mutex<Option<JoinHandle<()>>> = Mutex::new(None);

/// Starts the heartbeat thread (idempotent; a no-op when instrumentation
/// is compiled out, since there would be nothing to report). [`finish`]
/// joins it at the end of the run; an abandoned thread still dies with
/// the process.
pub fn start(period: Duration) {
    if !mps_obs::enabled() || STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    STOP.store(false, Ordering::SeqCst);
    let handle = std::thread::Builder::new()
        .name("mps-heartbeat".to_owned())
        .spawn(move || loop {
            // Park until the period is up; finish() unparks the thread,
            // so it sees the stop flag at once.
            let due = Instant::now() + period;
            loop {
                if STOP.load(Ordering::SeqCst) {
                    return;
                }
                let left = due.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::park_timeout(left);
            }
            beat();
        });
    if let Ok(h) = handle {
        *lock_thread() = Some(h);
    }
}

/// Stops the heartbeat thread and, when any `\r`-anchored progress line
/// was written, terminates it with a final summary and a newline so the
/// shell prompt does not land mid-line. Idempotent; a no-op when the
/// heartbeat never started (e.g. `MPS_HEARTBEAT_SECS=0`).
pub fn finish() {
    if !STARTED.load(Ordering::SeqCst) {
        return;
    }
    STOP.store(true, Ordering::SeqCst);
    if let Some(h) = lock_thread().take() {
        h.thread().unpark();
        let _ = h.join();
    }
    STARTED.store(false, Ordering::SeqCst);
    if WROTE_TTY.swap(false, Ordering::SeqCst) {
        let (done, total, replayed, _, _) = PROGRESS.snapshot();
        let _ = writeln!(
            std::io::stderr().lock(),
            "\rmps: {done}/{total} cells done, {replayed} replayed.                    "
        );
    }
}

fn lock_thread() -> std::sync::MutexGuard<'static, Option<JoinHandle<()>>> {
    match THREAD.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Emits one heartbeat now (the thread's body; separate for tests).
pub fn beat() {
    let (done, total, replayed, eta, workers) = PROGRESS.snapshot();
    if total == 0 {
        return; // nothing grid-shaped is running yet
    }
    let eta_s = eta.map_or_else(|| "-".to_owned(), |e| format!("{e:.0}"));
    let cv = PROGRESS.cv_permille.load(Ordering::Relaxed);
    let cv_s = if cv > 0 {
        format!("{:.2}", cv as f64 / 1000.0)
    } else {
        "-".to_owned()
    };
    mps_obs::event(
        "heartbeat",
        &[
            ("cells_done", done.to_string()),
            ("cells_total", total.to_string()),
            ("replayed", replayed.to_string()),
            ("eta_s", eta_s.clone()),
            ("cv", cv_s.clone()),
            ("workers", workers.to_string()),
        ],
    );
    let err = std::io::stderr();
    if err.is_terminal() {
        // One rewritten line, not a scroll; trailing spaces wipe leftovers.
        let workers_s = if workers > 0 {
            format!(", {workers} workers")
        } else {
            String::new()
        };
        let _ = write!(
            err.lock(),
            "\rmps: {done}/{total} cells done, {replayed} replayed, eta {eta_s}s, cv {cv_s}{workers_s}   "
        );
        WROTE_TTY.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_gives_the_exact_eta() {
        // A private instance: grids run by other tests in this binary
        // feed the process-wide one concurrently.
        let p = Progress::new();
        p.total.fetch_add(10, Ordering::Relaxed);
        p.cell_finished(Duration::from_micros(1500));
        p.cell_finished(Duration::from_micros(2500));
        p.cell_replayed();
        let (done, total, replayed, eta, workers) = p.snapshot();
        assert_eq!((done, total, replayed), (3, 10, 1));
        assert_eq!(workers, 0, "single-process run has no live workers");
        // 7 cells left at the 2,000 µs mean.
        let eta = eta.expect("two computed cells give an ETA");
        assert!((eta - 0.014).abs() < 1e-12, "eta {eta}");
        // With two live workers the same backlog drains twice as fast.
        p.live_workers.store(2, Ordering::Relaxed);
        let (_, _, _, dist_eta, workers) = p.snapshot();
        assert_eq!(workers, 2);
        let dist_eta = dist_eta.expect("eta still present");
        assert!((dist_eta - 0.007).abs() < 1e-12, "eta {dist_eta}");
        beat(); // exercises the event path; sinkless runs just aggregate
    }

    /// Serializes the tests that start and stop the process-wide thread.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn start_and_finish_join_cleanly() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        // Valid in both feature configs: start() is inert without obs and
        // finish() must be a clean no-op either way.
        finish(); // never started: no-op
        start(Duration::from_secs(3600));
        start(Duration::from_secs(3600)); // idempotent
        finish(); // stops promptly despite the hour-long period
        finish(); // idempotent
        if mps_obs::enabled() {
            // A second start/finish cycle works after a join.
            start(Duration::from_secs(3600));
            finish();
        }
    }

    #[test]
    fn finish_wakes_a_parked_thread_at_once() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        start(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(10));
        let t = Instant::now();
        finish();
        let took = t.elapsed();
        assert!(took < Duration::from_millis(50), "finish took {took:?}");
    }
}
