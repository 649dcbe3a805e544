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

    /// Always NaN, the empty-moments `cv`.
    #[inline(always)]
    pub fn cv(self) -> f64 {
        f64::NAN
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

/// Returns the zero-sized disabled estimator handle.
#[inline(always)]
pub fn estimator(_name: &'static str) -> Estimator {
    Estimator
}

/// Returns the zero-sized disabled span handle.
#[inline(always)]
pub fn span(_name: &'static str) -> Span {
    Span
}

/// Does nothing.
#[inline(always)]
pub fn event(_name: &str, _fields: &[(&str, String)]) {}

/// Always false: there is no sink without `obs`.
#[inline(always)]
pub fn sink_installed() -> bool {
    false
}

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
pub fn estimators_snapshot() -> Vec<EstimatorSnapshot> {
    Vec::new()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_is_inert() {
        let c = counter("noop");
        c.add(7);
        c.incr();
        assert_eq!(c.get(), 0);
        span("noop").finish();
        event("noop", &[("k", "v".to_string())]);
        assert!(set_sink_path("/definitely/not/writable/ever").is_ok());
        assert!(!sink_installed());
        flush();
        reset();
        assert!(counters_snapshot().is_empty());
        let e = estimator("noop");
        e.record(1.0);
        e.record_many(&[2.0, 3.0]);
        assert_eq!(e.count(), 0);
        assert!(e.convergence().mean.is_nan());
        assert!(e.snapshot().name.is_empty());
        assert!(estimators_snapshot().is_empty());
        sink_line("{\"type\":\"event\",\"name\":\"x\",\"fields\":{}}");
        install_span_tap();
        assert!(drain_span_tap().is_empty());
        remove_span_tap();
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Span>(), 0);
        assert_eq!(std::mem::size_of::<Estimator>(), 0);
    }
}
