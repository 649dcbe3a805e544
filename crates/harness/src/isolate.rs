//! Fault-isolated experiment execution: panics become [`Error`]s, hung
//! experiments time out, and transient failures get a bounded retry.
//!
//! One failing experiment must not take down a multi-experiment study:
//! `mps-harness all` runs every experiment through [`run_isolated`], so a
//! panic or hang in one figure is reported (and exits nonzero at the end)
//! while the remaining figures still run — and, with a store attached,
//! everything already computed stays reusable by the rerun.

use mps_store::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Retry/timeout policy for [`run_isolated`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolateOptions {
    /// Wall-clock budget per attempt; `None` waits forever.
    pub timeout: Option<Duration>,
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `work` on a dedicated thread, catching panics and enforcing the
/// per-attempt timeout, with up to `opts.retries` repeat attempts.
///
/// `work` must be `Fn` (not `FnOnce`) so a failed attempt can be retried;
/// experiments are pure functions of a `StudyContext`, so reruns are safe
/// and — thanks to the deterministic seeding — identical.
///
/// # Errors
///
/// [`Error::WorkerPanic`] when every attempt panicked,
/// [`Error::Timeout`] when every attempt exceeded the budget (the
/// runaway worker thread is detached, not killed — its result is
/// discarded), or the last inner error when `work` itself fails.
pub fn run_isolated<T, F>(what: &str, opts: IsolateOptions, work: F) -> Result<T>
where
    T: Send + 'static,
    F: Fn() -> Result<T> + Send + Sync,
{
    let mut last_err: Option<Error> = None;
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            mps_obs::counter("isolate.retry").incr();
            mps_obs::event(
                "isolate.retry",
                &[("what", what.to_owned()), ("attempt", attempt.to_string())],
            );
        }
        let outcome = std::thread::scope(|s| -> Result<T> {
            let (tx, rx) = mpsc::channel();
            let work = &work;
            let worker = std::thread::Builder::new()
                .name(format!("isolate-{what}"))
                .spawn_scoped(s, move || {
                    let result =
                        catch_unwind(AssertUnwindSafe(work)).map_err(|p| Error::WorkerPanic {
                            what: what.to_owned(),
                            detail: panic_message(p),
                        });
                    // The receiver may have timed out and gone away.
                    let _ = tx.send(result);
                })
                .map_err(|e| Error::Io(format!("spawning isolate worker: {e}")))?;
            match opts.timeout {
                None => {
                    let r = rx.recv().map_err(|_| Error::Interrupted {
                        what: what.to_owned(),
                    })?;
                    let _ = worker.join();
                    r?
                }
                Some(budget) => match rx.recv_timeout(budget) {
                    Ok(r) => {
                        let _ = worker.join();
                        r?
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // The worker is still running; a scoped thread
                        // must be joined, so wait for it but report the
                        // timeout. (Experiments poll nothing external, so
                        // a hang here means a simulator bug — the join
                        // keeps memory safety, the error keeps honesty.)
                        let r = Err(Error::Timeout {
                            what: what.to_owned(),
                            // Whole-second budgets (the CLI flag) report
                            // exactly; sub-second ones round up.
                            secs: budget.as_secs_f64().ceil() as u64,
                        });
                        let _ = worker.join();
                        r
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        let _ = worker.join();
                        Err(Error::Interrupted {
                            what: what.to_owned(),
                        })
                    }
                },
            }
        });
        match outcome {
            Ok(v) => return Ok(v),
            Err(e) => {
                if matches!(e, Error::Timeout { .. }) {
                    mps_obs::counter("isolate.timeout").incr();
                }
                let retryable = matches!(e, Error::WorkerPanic { .. } | Error::Io(_));
                last_err = Some(e);
                if !retryable {
                    break;
                }
            }
        }
    }
    Err(last_err.expect("loop ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn success_passes_value_through() {
        let v = run_isolated("ok", IsolateOptions::default(), || Ok(41 + 1)).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn panic_becomes_worker_panic_error() {
        let err = run_isolated("boom", IsolateOptions::default(), || -> Result<()> {
            panic!("exploded at cell 7")
        })
        .unwrap_err();
        match err {
            Error::WorkerPanic { what, detail } => {
                assert_eq!(what, "boom");
                assert!(detail.contains("exploded at cell 7"), "{detail}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn panics_are_retried_to_success() {
        let attempts = AtomicU32::new(0);
        let v = run_isolated(
            "flaky",
            IsolateOptions {
                timeout: None,
                retries: 2,
            },
            || {
                if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                Ok(7)
            },
        )
        .unwrap();
        assert_eq!(v, 7);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn domain_errors_are_not_retried() {
        let attempts = AtomicU32::new(0);
        let err = run_isolated(
            "invalid",
            IsolateOptions {
                timeout: None,
                retries: 5,
            },
            || -> Result<()> {
                attempts.fetch_add(1, Ordering::SeqCst);
                Err(Error::InvalidInput("bad cores".to_owned()))
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)), "{err}");
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "no retry on bad input");
    }

    #[test]
    fn slow_work_times_out() {
        let err = run_isolated(
            "sleepy",
            IsolateOptions {
                timeout: Some(Duration::from_millis(20)),
                retries: 0,
            },
            || {
                std::thread::sleep(Duration::from_millis(100));
                Ok(())
            },
        )
        .unwrap_err();
        match err {
            Error::Timeout { what, secs } => {
                assert_eq!(what, "sleepy");
                assert!(secs > 0);
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
