//! The disabled backend, compiled when the `obs` feature is off.
//!
//! Every item mirrors the enabled API exactly so call sites need no
//! `cfg`s, but all types are zero-sized and all functions are empty
//! `#[inline]` bodies the optimizer erases entirely — the `obs_overhead`
//! criterion bench in `mps-bench` checks this stays true.

use crate::estimator::EstimatorSnapshot;
use mps_stats::estimator::Convergence;
use mps_stats::Moments;
use std::io;
use std::time::Duration;

use crate::hist::HistogramSnapshot;

/// Disabled counter handle: zero-sized, every call a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Counter;

impl Counter {
    /// Does nothing.
    #[inline(always)]
    pub fn add(self, _n: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn incr(self) {}

    /// Always zero.
    #[inline(always)]
    pub fn get(self) -> u64 {
        0
    }
}

/// Disabled gauge handle: zero-sized, every call a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Gauge;

impl Gauge {
    /// Does nothing.
    #[inline(always)]
    pub fn set(self, _v: i64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn add(self, _n: i64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn sub(self, _n: i64) {}

    /// Always zero.
    #[inline(always)]
    pub fn get(self) -> i64 {
        0
    }
}

/// Disabled histogram handle: zero-sized, every call a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Histogram;

impl Histogram {
    /// Does nothing.
    #[inline(always)]
    pub fn record(self, _value: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn record_duration(self, _d: Duration) {}

    /// Always all-zero buckets.
    #[inline(always)]
    pub fn snapshot_counts(self) -> [u64; crate::hist::BUCKETS] {
        [0; crate::hist::BUCKETS]
    }
}

/// Disabled estimator handle: zero-sized, every call a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Estimator;

impl Estimator {
    /// Does nothing.
    #[inline(always)]
    pub fn record(self, _x: f64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn record_many(self, _xs: &[f64]) {}

    /// Always zero.
    #[inline(always)]
    pub fn count(self) -> u64 {
        0
    }

    /// Always the empty-moments summary (NaN statistics, `required_w`
    /// saturated).
    #[inline(always)]
    pub fn convergence(self) -> Convergence {
        Convergence::of(&Moments::new())
    }

    /// An empty-named, empty-stats snapshot (never aggregated).
    #[inline(always)]
    pub fn snapshot(self) -> EstimatorSnapshot {
        EstimatorSnapshot::new("", self.convergence())
    }
}

/// Disabled span handle: zero-sized, finishing it measures nothing.
#[derive(Debug)]
pub struct Span;

impl Span {
    /// Does nothing.
    #[inline(always)]
    pub fn finish(self) {}
}

/// Returns the zero-sized disabled counter handle.
#[inline(always)]
pub fn counter(_name: &'static str) -> Counter {
    Counter
}

/// Returns the zero-sized disabled gauge handle.
#[inline(always)]
pub fn gauge(_name: &'static str) -> Gauge {
    Gauge
}

/// Returns the zero-sized disabled histogram handle.
#[inline(always)]
pub fn histogram(_name: &'static str) -> Histogram {
    Histogram
}

/// Returns the zero-sized disabled estimator handle.
#[inline(always)]
pub fn estimator(_name: &'static str) -> Estimator {
    Estimator
}

/// Does nothing.
#[inline(always)]
pub fn set_meta(_key: &'static str, _value: impl Into<String>) {}

/// Always empty.
#[inline(always)]
pub fn meta_snapshot() -> Vec<(String, String)> {
    Vec::new()
}

/// Returns the zero-sized disabled span handle.
#[inline(always)]
pub fn span(_name: &'static str) -> Span {
    Span
}

/// Does nothing.
#[inline(always)]
pub fn event(_name: &str, _fields: &[(&str, String)]) {}

/// Does nothing; always succeeds.
///
/// # Errors
///
/// Never returns an error when instrumentation is disabled.
#[inline(always)]
pub fn set_sink_path(_path: &str) -> io::Result<()> {
    Ok(())
}

/// Does nothing.
#[inline(always)]
pub fn flush() {}

/// Does nothing.
#[inline(always)]
pub fn reset() {}

/// Always empty.
#[inline(always)]
pub fn counters_snapshot() -> Vec<(String, u64)> {
    Vec::new()
}

/// Always empty.
#[inline(always)]
pub fn gauges_snapshot() -> Vec<(String, i64)> {
    Vec::new()
}

/// Always empty.
#[inline(always)]
pub fn histograms_snapshot() -> Vec<HistogramSnapshot> {
    Vec::new()
}

/// Always empty.
#[inline(always)]
pub fn estimators_snapshot() -> Vec<EstimatorSnapshot> {
    Vec::new()
}

/// Always empty.
#[inline(always)]
pub fn estimators_moments() -> Vec<(String, Moments)> {
    Vec::new()
}

/// Always an empty capture: nothing is collected without `obs`.
#[inline(always)]
pub fn telemetry_snapshot() -> crate::federation::InstrumentSnapshot {
    crate::federation::InstrumentSnapshot::default()
}

/// Does nothing: there is no sink without `obs`.
#[inline(always)]
pub fn sink_line(_line: &str) {}

/// Does nothing: spans are never produced without `obs`.
#[inline(always)]
pub fn install_span_tap() {}

/// Always empty.
#[inline(always)]
pub fn drain_span_tap() -> Vec<String> {
    Vec::new()
}

/// Does nothing.
#[inline(always)]
pub fn remove_span_tap() {}

/// Always unsupported: the exposition server needs the `obs` feature.
///
/// # Errors
///
/// Always returns [`io::ErrorKind::Unsupported`] so callers can print a
/// clear note instead of silently serving an empty page.
pub fn serve_metrics(_addr: &str) -> io::Result<std::net::SocketAddr> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "mps-obs built without the `obs` feature: no metrics to serve",
    ))
}

/// Always empty: nothing is collected without the `obs` feature.
#[inline(always)]
pub fn render_metrics() -> String {
    String::new()
}

/// Does nothing: no exposition server can be running without `obs`.
#[inline(always)]
pub fn shutdown_metrics() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_is_inert() {
        let c = counter("noop");
        c.add(7);
        c.incr();
        assert_eq!(c.get(), 0);
        let g = gauge("noop");
        g.set(9);
        g.add(1);
        g.sub(2);
        assert_eq!(g.get(), 0);
        let h = histogram("noop");
        h.record(123);
        h.record_duration(Duration::from_millis(5));
        assert_eq!(h.snapshot_counts(), [0; crate::hist::BUCKETS]);
        set_meta("noop", "v");
        span("noop").finish();
        event("noop", &[("k", "v".to_string())]);
        assert!(set_sink_path("/definitely/not/writable/ever").is_ok());
        flush();
        reset();
        assert!(counters_snapshot().is_empty());
        assert!(gauges_snapshot().is_empty());
        assert!(histograms_snapshot().is_empty());
        assert!(meta_snapshot().is_empty());
        let e = estimator("noop");
        e.record(1.0);
        e.record_many(&[2.0, 3.0]);
        assert_eq!(e.count(), 0);
        assert!(e.convergence().mean.is_nan());
        assert!(e.snapshot().name.is_empty());
        assert!(estimators_snapshot().is_empty());
        assert!(estimators_moments().is_empty());
        let t = telemetry_snapshot();
        assert!(t.counters.is_empty() && t.gauges.is_empty());
        assert!(t.hists.is_empty() && t.estimators.is_empty());
        sink_line("{\"type\":\"event\",\"name\":\"x\",\"fields\":{}}");
        install_span_tap();
        assert!(drain_span_tap().is_empty());
        remove_span_tap();
        assert!(serve_metrics("127.0.0.1:0").is_err());
        assert!(render_metrics().is_empty());
        shutdown_metrics();
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Gauge>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        assert_eq!(std::mem::size_of::<Span>(), 0);
        assert_eq!(std::mem::size_of::<Estimator>(), 0);
    }
}
