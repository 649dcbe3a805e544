//! Speedup accuracy — the paper's open problem (§VIII).
//!
//! > "To our knowledge, the problem of defining workload samples that
//! > provide accurate speedups with high probability is still open."
//!
//! The confidence machinery elsewhere in this crate answers *"which
//! machine wins?"*. This module tackles the quantitative question: *how
//! accurate is the speedup `T_Y / T_X` estimated from a W-workload
//! sample?* With an approximate simulator the full-population throughput
//! tables are available, so the sampling distribution of the speedup
//! estimator can simply be measured by resampling (a parametric bootstrap
//! over the known population), yielding
//!
//! * [`speedup_interval`] — an empirical central interval for the
//!   W-sample speedup estimate, and
//! * [`sample_size_for_speedup_accuracy`] — the smallest `W` such that
//!   the estimate is within ±ε of the population speedup with the
//!   requested probability.

use crate::estimate::{sample_throughput_pair, PairData};
use crate::sampler::{DrawBuf, Sampler};
use crate::space::Population;
use mps_stats::rng::Rng;

/// Empirical sampling distribution summary of the W-sample speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupInterval {
    /// Population ("true") speedup `T_Y / T_X` over the whole table.
    pub population_speedup: f64,
    /// Sample size the interval describes.
    pub w: usize,
    /// Central-interval coverage (e.g. 0.95).
    pub coverage: f64,
    /// Lower quantile of the W-sample speedup estimates.
    pub low: f64,
    /// Upper quantile of the W-sample speedup estimates.
    pub high: f64,
    /// Mean of the estimates (bias check against `population_speedup`).
    pub mean: f64,
}

impl SpeedupInterval {
    /// Half-width of the interval relative to the population speedup.
    pub fn relative_half_width(&self) -> f64 {
        ((self.high - self.low) / 2.0) / self.population_speedup
    }

    /// Largest relative deviation of either interval end from the
    /// population speedup.
    pub fn worst_relative_error(&self) -> f64 {
        let lo = (self.low / self.population_speedup - 1.0).abs();
        let hi = (self.high / self.population_speedup - 1.0).abs();
        lo.max(hi)
    }
}

/// The population speedup `T_Y / T_X` over the full data table.
pub fn population_speedup(data: &PairData) -> f64 {
    let mean = data.metric().mean();
    mean.of(data.t_y()) / mean.of(data.t_x())
}

/// Measures the sampling distribution of the W-sample speedup estimator
/// under the given sampling method, returning its central
/// `coverage`-interval.
///
/// # Panics
///
/// Panics if `resamples` < 10 or `coverage` is not in (0, 1).
pub fn speedup_interval(
    sampler: &dyn Sampler,
    pop: &Population,
    data: &PairData,
    w: usize,
    coverage: f64,
    resamples: usize,
    rng: &mut Rng,
) -> SpeedupInterval {
    assert!(resamples >= 10, "need at least 10 resamples");
    assert!(
        (0.0..1.0).contains(&coverage) && coverage > 0.0,
        "coverage must be in (0,1), got {coverage}"
    );
    assert_eq!(pop.len(), data.len(), "population and data must be aligned");
    let plan = sampler.plan(pop, w);
    let mut buf = DrawBuf::default();
    let mut estimates: Vec<f64> = (0..resamples)
        .map(|_| {
            let (tx, ty) = sample_throughput_pair(data, plan.draw_into(rng, &mut buf));
            ty / tx
        })
        .collect();
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let alpha = (1.0 - coverage) / 2.0;
    let lo_idx = ((resamples as f64) * alpha).floor() as usize;
    let hi_idx = (((resamples as f64) * (1.0 - alpha)).ceil() as usize).min(resamples) - 1;
    let mean = estimates.iter().sum::<f64>() / resamples as f64;
    SpeedupInterval {
        population_speedup: population_speedup(data),
        w,
        coverage,
        low: estimates[lo_idx],
        high: estimates[hi_idx],
        mean,
    }
}

/// Finds the smallest sample size `W` (by doubling + bisection) whose
/// W-sample speedup estimate stays within `±rel_err` of the population
/// speedup with probability at least `coverage`.
///
/// Returns `None` if even `max_w` workloads do not reach the accuracy.
///
/// # Example
///
/// ```
/// use mps_sampling::{sample_size_for_speedup_accuracy, PairData, Population, RandomSampling};
/// use mps_metrics::ThroughputMetric;
/// use mps_stats::rng::Rng;
///
/// let pop = Population::full(3, 2);
/// let t_x = vec![1.0, 0.9, 1.1, 0.95, 1.05, 1.0];
/// let t_y = vec![1.1, 1.0, 1.2, 1.05, 1.15, 1.1];
/// let data = PairData::new(ThroughputMetric::WeightedSpeedup, t_x, t_y);
/// let mut rng = Rng::new(1);
/// let w = sample_size_for_speedup_accuracy(
///     &RandomSampling, &pop, &data, 0.05, 0.9, 64, 200, &mut rng);
/// assert!(w.is_some());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn sample_size_for_speedup_accuracy(
    sampler: &dyn Sampler,
    pop: &Population,
    data: &PairData,
    rel_err: f64,
    coverage: f64,
    max_w: usize,
    resamples: usize,
    rng: &mut Rng,
) -> Option<usize> {
    assert!(rel_err > 0.0, "need a positive error tolerance");
    let accurate = |w: usize, rng: &mut Rng| {
        let iv = speedup_interval(sampler, pop, data, w, coverage, resamples, rng);
        iv.worst_relative_error() <= rel_err
    };
    // Exponential search for an upper bound.
    let mut hi = 1usize;
    while hi <= max_w {
        if accurate(hi, rng) {
            break;
        }
        hi *= 2;
    }
    if hi > max_w {
        if accurate(max_w, rng) {
            hi = max_w;
        } else {
            return None;
        }
    }
    // Bisection down to the smallest accurate W.
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if accurate(mid, rng) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::RandomSampling;
    use mps_metrics::ThroughputMetric;

    fn toy(n: usize, ratio: f64, noise: f64) -> PairData {
        let mut rng = Rng::new(11);
        let t_x: Vec<f64> = (0..n).map(|_| 1.0 + 0.1 * rng.next_gaussian()).collect();
        let t_y: Vec<f64> = t_x
            .iter()
            .map(|&x| x * ratio * (1.0 + noise * rng.next_gaussian()))
            .collect();
        PairData::new(ThroughputMetric::WeightedSpeedup, t_x, t_y)
    }

    #[test]
    fn population_speedup_is_ratio_of_means() {
        let data = PairData::new(
            ThroughputMetric::WeightedSpeedup,
            vec![1.0, 2.0],
            vec![2.0, 4.0],
        );
        assert!((population_speedup(&data) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interval_contains_population_speedup() {
        let pop = Population::full(8, 2); // 36
        let data = toy(pop.len(), 1.05, 0.02);
        let mut rng = Rng::new(12);
        let iv = speedup_interval(&RandomSampling, &pop, &data, 10, 0.95, 500, &mut rng);
        assert!(
            iv.low <= iv.population_speedup && iv.population_speedup <= iv.high,
            "{iv:?}"
        );
        assert!(iv.low <= iv.mean && iv.mean <= iv.high);
    }

    #[test]
    fn interval_shrinks_with_sample_size() {
        let pop = Population::full(10, 2); // 55
        let data = toy(pop.len(), 1.1, 0.05);
        let mut rng = Rng::new(13);
        let small = speedup_interval(&RandomSampling, &pop, &data, 5, 0.9, 800, &mut rng);
        let large = speedup_interval(&RandomSampling, &pop, &data, 40, 0.9, 800, &mut rng);
        assert!(
            large.relative_half_width() < small.relative_half_width(),
            "small {} vs large {}",
            small.relative_half_width(),
            large.relative_half_width()
        );
    }

    #[test]
    fn required_sample_size_grows_with_tightness() {
        let pop = Population::full(10, 2);
        let data = toy(pop.len(), 1.08, 0.06);
        let mut rng = Rng::new(14);
        let loose = sample_size_for_speedup_accuracy(
            &RandomSampling,
            &pop,
            &data,
            0.10,
            0.9,
            512,
            300,
            &mut rng,
        )
        .expect("loose tolerance reachable");
        let tight = sample_size_for_speedup_accuracy(
            &RandomSampling,
            &pop,
            &data,
            0.01,
            0.9,
            512,
            300,
            &mut rng,
        );
        // A tight tolerance may be unreachable (None) — that is also fine.
        if let Some(t) = tight {
            assert!(t >= loose, "tight {t} vs loose {loose}");
        }
        assert!(loose >= 1);
    }

    #[test]
    fn impossible_accuracy_returns_none() {
        let pop = Population::full(10, 2);
        let data = toy(pop.len(), 1.02, 0.5); // extremely noisy
        let mut rng = Rng::new(15);
        let w = sample_size_for_speedup_accuracy(
            &RandomSampling,
            &pop,
            &data,
            1e-6,
            0.99,
            64,
            100,
            &mut rng,
        );
        assert_eq!(w, None);
    }

    #[test]
    #[should_panic(expected = "coverage must be in")]
    fn bad_coverage_panics() {
        let pop = Population::full(3, 2);
        let data = toy(pop.len(), 1.0, 0.1);
        speedup_interval(&RandomSampling, &pop, &data, 5, 1.5, 100, &mut Rng::new(0));
    }
}
