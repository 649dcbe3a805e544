//! Periodic run progress: grid-cell accounting plus a background
//! heartbeat that reports it while a long study runs.
//!
//! The experiment grids (figures 3, 6, 7) call [`grid_add_total`] when
//! they learn how many cells a figure will evaluate, then
//! [`cell_finished`] / [`cell_replayed`] per cell. The accounting lives
//! in ordinary `mps-obs` gauges, counters and the
//! `grid.cell.latency_us` histogram, so it shows up in `/metrics` and
//! the profile report for free; with the `obs` feature off everything
//! here is inert.
//!
//! [`start`] spawns one detached thread that, every period:
//!
//! * appends a `heartbeat` event to the JSONL sink (fields: `cells_done`,
//!   `cells_total`, `replayed`, `eta_s`, `cv` — the last running
//!   coefficient of variation any convergence probe reported), and
//! * when stderr is a terminal, rewrites a single `\r`-anchored progress
//!   line (never a growing scroll; nothing at all when piped to a file).
//!
//! The ETA is `remaining cells × mean cell latency` from the
//! `grid.cell.latency_us` histogram — cells run sequentially at the grid
//! level (the worker pool parallelizes *inside* a cell), so no jobs
//! division is needed. It is absent until the first cell completes.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

/// Name of the per-cell latency histogram (shared with `/metrics`).
pub const CELL_LATENCY_HIST: &str = "grid.cell.latency_us";

/// Adds `n` cells to the run-wide expected total (figures call this as
/// soon as a grid's size is known; totals accumulate across figures).
pub fn grid_add_total(n: u64) {
    mps_obs::gauge("grid.cells.total").add(n as i64);
}

/// Marks one cell computed, recording its latency.
pub fn cell_finished(took: Duration) {
    mps_obs::histogram(CELL_LATENCY_HIST).record_duration(took);
    mps_obs::gauge("grid.cells.done").add(1);
}

/// Marks one cell served from the store (its record was written by an
/// earlier run): done, but not counted into the latency histogram.
pub fn cell_replayed() {
    mps_obs::counter("grid.cells.replayed").incr();
    mps_obs::gauge("grid.cells.done").add(1);
}

/// One progress snapshot: `(done, total, replayed, eta_seconds, workers)`.
/// `workers` is the live distributed worker count (0 = single-process).
/// Under `--workers N` cells complete concurrently — the coordinator's
/// dispatch threads record each remote cell into the same done gauge and
/// latency histogram — so the ETA divides by the lanes actually running.
fn snapshot() -> (i64, i64, u64, Option<f64>, i64) {
    let done = mps_obs::gauge("grid.cells.done").get();
    let total = mps_obs::gauge("grid.cells.total").get();
    let replayed = mps_obs::counter("grid.cells.replayed").get();
    let workers = mps_obs::gauge("dist.workers.live").get().max(0);
    let lanes = workers.max(1) as f64;
    let eta = mps_obs::histograms_snapshot()
        .into_iter()
        .find(|h| h.name == CELL_LATENCY_HIST)
        .filter(|h| h.count() > 0 && total > done)
        .map(|h| (total - done) as f64 * h.approx_mean() / 1e6 / lanes);
    (done, total, replayed, eta, workers)
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
            // Sleep in short slices so finish() never waits a full period
            // for the thread to notice the stop flag.
            let mut left = period;
            while !STOP.load(Ordering::SeqCst) && left > Duration::ZERO {
                let slice = left.min(Duration::from_millis(100));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
            if STOP.load(Ordering::SeqCst) {
                return;
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
        let _ = h.join();
    }
    STARTED.store(false, Ordering::SeqCst);
    if WROTE_TTY.swap(false, Ordering::SeqCst) {
        let (done, total, replayed, _, _) = snapshot();
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
    let (done, total, replayed, eta, workers) = snapshot();
    if total == 0 {
        return; // nothing grid-shaped is running yet
    }
    let eta_s = eta.map_or_else(|| "-".to_owned(), |e| format!("{e:.0}"));
    let cv = mps_obs::gauge("convergence.cv_permille").get();
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
    fn accounting_flows_into_obs() {
        if !mps_obs::enabled() {
            return; // inert without the feature: nothing to assert
        }
        mps_obs::reset();
        grid_add_total(10);
        cell_finished(Duration::from_micros(1500));
        cell_finished(Duration::from_micros(2500));
        cell_replayed();
        let (done, total, replayed, eta, workers) = snapshot();
        assert_eq!(done, 3);
        assert_eq!(total, 10);
        assert_eq!(replayed, 1);
        assert_eq!(workers, 0, "single-process run has no live workers");
        let eta = eta.expect("two recorded latencies give an ETA");
        assert!(eta > 0.0, "eta {eta}");
        // With two live workers the same backlog drains twice as fast.
        mps_obs::gauge("dist.workers.live").set(2);
        let (_, _, _, dist_eta, workers) = snapshot();
        assert_eq!(workers, 2);
        let dist_eta = dist_eta.expect("eta still present");
        assert!(
            (dist_eta - eta / 2.0).abs() < 1e-9,
            "{dist_eta} vs {}",
            eta / 2.0
        );
        mps_obs::gauge("dist.workers.live").set(0);
        beat(); // exercises the event path; sinkless runs just aggregate
    }

    #[test]
    fn start_and_finish_join_cleanly() {
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
}
