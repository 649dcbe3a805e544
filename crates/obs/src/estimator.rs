//! Shared pieces of the streaming `Estimator` instrument.
//!
//! An estimator is a named process-global Welford accumulation whose
//! snapshot carries the paper's §VII convergence diagnostics (running
//! `cv`, 95% CI half-width, achieved confidence, required `W = 8·cv²`).
//! The live handle lives in the `enabled`/`noop` backends; this module
//! holds the snapshot type, which is feature-independent so both
//! backends and the run ledger share one definition.

use mps_stats::estimator::Convergence;

/// Materialized state of one registered estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorSnapshot {
    /// Estimator name (dotted workspace form, e.g. `convergence.fig3.c2`).
    pub name: String,
    /// The derived §VII statistics at snapshot time.
    pub stats: Convergence,
}

impl EstimatorSnapshot {
    /// Packages a snapshot from a name and a moments-derived summary.
    pub fn new(name: impl Into<String>, stats: Convergence) -> Self {
        EstimatorSnapshot {
            name: name.into(),
            stats,
        }
    }
}
