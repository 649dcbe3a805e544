//! Concurrency tests for the observability layer: many threads hammering
//! the same counter, nested spans finishing on worker threads, and the
//! JSONL sink receiving interleaved writers — exactly the load profile the
//! `mps-par` work-stealing pool puts on this crate.
//!
//! The registry is process-global, so (like `mps-harness`'s obs tests)
//! every test takes one static mutex and starts from `reset()`.

use std::sync::{Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(feature = "obs")]
mod enabled {
    use super::guard;
    use mps_obs::jsonl::Record;

    const THREADS: usize = 8;

    fn counter_value(name: &str) -> u64 {
        mps_obs::counters_snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    /// Relaxed atomic adds from 8 threads must still sum exactly: counter
    /// totals are commutative, which is what makes them jobs-invariant.
    #[test]
    fn counter_total_is_exact_under_contention() {
        let _g = guard();
        mps_obs::reset();
        let c = mps_obs::counter("conc.test.adds");
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Mix incr and add so both paths see contention.
                        if (i ^ t as u64) & 1 == 0 {
                            c.incr();
                        } else {
                            c.add(1);
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(counter_value("conc.test.adds"), THREADS as u64 * PER_THREAD);
    }

    /// Nested spans finishing concurrently on every thread keep exact call
    /// counts; counter deltas are *window* diffs of process-global
    /// counters, so with overlapping threads a span may also observe
    /// increments made concurrently elsewhere — never fewer than its own.
    #[test]
    fn nested_spans_aggregate_exactly_across_threads() {
        let _g = guard();
        mps_obs::reset();
        mps_obs::install_span_tap();
        let c = mps_obs::counter("conc.test.work");
        const INNER_PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let outer = mps_obs::span("conc.outer");
                    for _ in 0..INNER_PER_THREAD {
                        let inner = mps_obs::span("conc.inner");
                        c.incr();
                        inner.finish();
                    }
                    outer.finish();
                });
            }
        });
        let lines = mps_obs::drain_span_tap();
        mps_obs::reset();
        let records = mps_obs::jsonl::parse_all(&lines.join("\n")).expect("tap lines parse");
        // (calls, summed conc.test.work delta) over the records named `want`.
        let of = |want: &str| {
            records
                .iter()
                .fold((0u64, 0u64), |(calls, delta), r| match r {
                    Record::Span { name, counters, .. } if name == want => (
                        calls + 1,
                        delta + counters.get("conc.test.work").copied().unwrap_or(0),
                    ),
                    _ => (calls, delta),
                })
        };
        let (outer_calls, outer_delta) = of("conc.outer");
        let (inner_calls, inner_delta) = of("conc.inner");
        assert_eq!(outer_calls, THREADS as u64);
        assert_eq!(inner_calls, THREADS as u64 * INNER_PER_THREAD);
        // Every increment happened inside one inner and one outer span on
        // its own thread, so the summed deltas can never undercount
        // the true total. They *can* overcount: deltas diff the shared
        // global counter at span start/finish, so a span whose window
        // overlaps other threads' work observes those increments too —
        // bounded by every span seeing the whole test's traffic. (This is
        // exactly why the trace analyzer sums counters over non-contained
        // root spans only.)
        let total = THREADS as u64 * INNER_PER_THREAD;
        assert!(
            inner_delta >= total,
            "undercounted: {inner_delta} < {total}"
        );
        assert!(
            inner_delta <= inner_calls * total,
            "impossible overlap: {inner_delta}"
        );
        assert!(
            outer_delta >= total,
            "undercounted: {outer_delta} < {total}"
        );
        assert!(
            outer_delta <= outer_calls * total,
            "impossible overlap: {outer_delta}"
        );
    }

    /// Eight threads writing events and spans through the shared sink must
    /// produce a well-formed JSONL file: every line parses (no torn or
    /// interleaved writes) and every record sent is present.
    #[test]
    fn jsonl_sink_has_no_torn_lines_under_contention() {
        let _g = guard();
        mps_obs::reset();
        let path = std::env::temp_dir().join(format!("mps-obs-conc-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        mps_obs::set_sink_path(path.to_str().unwrap()).unwrap();
        const EVENTS_PER_THREAD: usize = 200;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..EVENTS_PER_THREAD {
                        mps_obs::event(
                            "conc.evt",
                            &[
                                ("thread", t.to_string()),
                                ("seq", i.to_string()),
                                // A value needing escapes, to stress encode+parse.
                                ("payload", format!("a\"b\\c\n{i}")),
                            ],
                        );
                    }
                    let sp = mps_obs::span("conc.sink.span");
                    sp.finish();
                });
            }
        });
        // reset() flushes and drops the sink so the file is complete.
        mps_obs::reset();
        let body = std::fs::read_to_string(&path).unwrap();
        let records = mps_obs::jsonl::parse_all(&body).expect("every line well-formed");
        let events = records
            .iter()
            .filter(|r| matches!(r, Record::Event { name, .. } if name == "conc.evt"))
            .count();
        let spans = records
            .iter()
            .filter(|r| matches!(r, Record::Span { name, .. } if name == "conc.sink.span"))
            .count();
        assert_eq!(events, THREADS * EVENTS_PER_THREAD, "lost or torn events");
        assert_eq!(spans, THREADS, "lost or torn span records");
        // Per-thread sequence numbers must all be present exactly once.
        for t in 0..THREADS {
            let mut seen = [false; EVENTS_PER_THREAD];
            for r in &records {
                if let Record::Event { name, fields } = r {
                    if name == "conc.evt"
                        && fields.get("thread").map(String::as_str) == Some(&t.to_string())
                    {
                        let seq: usize = fields["seq"].parse().unwrap();
                        assert!(!seen[seq], "duplicate event thread={t} seq={seq}");
                        seen[seq] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&b| b), "missing events for thread {t}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// With the feature off the API must stay callable from many threads and
/// observe nothing (zero-sized no-ops).
#[cfg(not(feature = "obs"))]
#[test]
fn noop_api_is_thread_safe_and_observes_nothing() {
    let _g = guard();
    let c = mps_obs::counter("noop.conc");
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                for _ in 0..1000 {
                    c.incr();
                    let sp = mps_obs::span("noop.span");
                    sp.finish();
                }
            });
        }
    });
    assert_eq!(c.get(), 0);
    assert!(mps_obs::counters_snapshot().is_empty());
    mps_obs::install_span_tap();
    assert!(mps_obs::drain_span_tap().is_empty());
}
