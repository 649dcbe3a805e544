//! Convergence diagnostics for the resampling experiments.
//!
//! The paper's §VII guideline rests on the coefficient of variation `cv`
//! of the per-workload throughput difference `d(w)`: from it follow the
//! required random-sample size `W = 8·cv²` (equation (8)) and the degree
//! of confidence `Pr(D≥0) = ½[1+erf((1/cv)·√(W/2))]` (equation (5)). A
//! [`ConvergenceProbe`] wraps one `mps-obs` estimator per experiment
//! panel, feeds it the pair's differences once, and — per evaluated grid
//! cell — emits a `convergence` JSONL event carrying the running
//! diagnostics alongside the cell's sampler and sample size, so the
//! trace and the run ledger's `conv.*` fields report the same numbers.
//! With the `obs` feature off everything here is
//! inert and the probe costs nothing.

use mps_stats::confidence::{degree_of_confidence, required_sample_size};
use std::collections::HashMap;
use std::sync::Mutex;

/// Interns a dynamically composed name, returning a `'static` reference
/// the `mps-obs` registry can key on. Memoized: the same string leaks at
/// most once per process, and the estimator grid is small (one entry per
/// experiment panel), so the table stays tiny.
pub fn intern(name: String) -> &'static str {
    static TABLE: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut guard = match TABLE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let table = guard.get_or_insert_with(HashMap::new);
    if let Some(&s) = table.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    table.insert(name, leaked);
    leaked
}

/// Streaming §VII diagnostics for one experiment panel (one policy pair
/// or one figure series).
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceProbe {
    experiment: &'static str,
    label: &'static str,
    est: mps_obs::Estimator,
}

impl ConvergenceProbe {
    /// Creates (or re-attaches to) the estimator
    /// `convergence.{experiment}.{label}` and feeds it the per-workload
    /// differences `d(w)` — only when the estimator is still empty, so
    /// repeated runs in one process (tests, cached experiment replays)
    /// stay idempotent.
    pub fn new(experiment: &'static str, label: &str, differences: &[f64]) -> Self {
        let label = intern(label.to_owned());
        let est = mps_obs::estimator(intern(format!("convergence.{experiment}.{label}")));
        if est.count() == 0 {
            est.record_many(differences);
        }
        ConvergenceProbe {
            experiment,
            label,
            est,
        }
    }

    /// The underlying estimator handle (for tests and the ledger).
    pub fn estimator(&self) -> mps_obs::Estimator {
        self.est
    }

    /// Reports one evaluated grid cell: emits a `convergence` JSONL event
    /// with the running diagnostics evaluated *at the cell's sample size
    /// `w`* (that is what equation (5) asks: the confidence an architect
    /// gets from drawing `w` workloads given the observed `cv`), and
    /// refreshes the running `cv` the heartbeat line shows; without a
    /// trace sink only the latter. `samples` is
    /// the number of Monte-Carlo resamples the cell averaged over —
    /// context, not part of the formulas.
    pub fn cell(&self, sampler: &str, w: usize, samples: usize) {
        if !mps_obs::enabled() {
            return;
        }
        // Without a sink the event would be dropped: skip building it.
        if !mps_obs::sink_installed() {
            crate::heartbeat::set_cv(self.est.cv());
            return;
        }
        let c = self.est.convergence();
        let confidence = degree_of_confidence(c.cv, w);
        let required_w = required_sample_size(c.cv);
        mps_obs::event(
            "convergence",
            &[
                ("experiment", self.experiment.to_owned()),
                ("label", self.label.to_owned()),
                ("sampler", sampler.to_owned()),
                ("w", w.to_string()),
                ("required_w", required_w.to_string()),
                ("samples", samples.to_string()),
                ("n", c.count.to_string()),
                ("mean", format!("{}", c.mean)),
                ("cv", format!("{}", c.cv)),
                ("confidence", format!("{confidence}")),
            ],
        );
        crate::heartbeat::set_cv(c.cv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_memoized_and_stable() {
        let a = intern("test.convergence.intern".to_owned());
        let b = intern("test.convergence.intern".to_owned());
        assert!(std::ptr::eq(a, b), "same allocation for the same name");
        assert_eq!(a, "test.convergence.intern");
    }

    #[test]
    fn probe_feeds_differences_once() {
        if !mps_obs::enabled() {
            return; // inert without the feature: nothing to assert
        }
        let diffs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]; // cv = 0.4
        let p = ConvergenceProbe::new("testprobe", "p0", &diffs);
        assert_eq!(p.estimator().count(), 8);
        // Re-creating the probe (a repeated experiment in one process)
        // must not double-count the stream.
        let p2 = ConvergenceProbe::new("testprobe", "p0", &diffs);
        assert_eq!(p2.estimator().count(), 8);
        let c = p2.estimator().convergence();
        assert!((c.cv - 0.4).abs() < 1e-12);
        assert_eq!(c.required_w, 2);
        p2.cell("random", 8, 100); // exercises the event path
    }
}
