//! Throughput estimation over drawn samples and degrees of confidence.
//!
//! A study compares machines X and Y: for each sampled workload we have
//! per-workload throughputs `t_X(w)` and `t_Y(w)` (computed by
//! `mps-metrics` from simulated IPCs). This module evaluates
//!
//! * the per-sample throughput `T` — plain (equation (2)) or stratified
//!   (equation (9)),
//! * whether a drawn sample concludes "Y wins",
//! * the **empirical degree of confidence**: the fraction of many
//!   independently drawn samples that conclude Y wins (how the paper
//!   evaluates every sampling method, Figures 3, 6, 7),
//! * the **analytical** degree of confidence for random sampling
//!   (equation (5)) from the `cv` of `d(w)`.

use crate::sampler::{DrawBuf, DrawnSample, Sampler};
use crate::space::Population;
use mps_metrics::{pair_comparison, PairComparison, ThroughputMetric};
use mps_stats::rng::Rng;
use mps_stats::{Mean, WeightedMean};

/// Per-workload throughputs of a microarchitecture pair over a population,
/// under one metric. Index-aligned with the [`Population`] table.
#[derive(Debug, Clone, PartialEq)]
pub struct PairData {
    metric: ThroughputMetric,
    t_x: Vec<f64>,
    t_y: Vec<f64>,
}

impl PairData {
    /// Bundles the two aligned throughput vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or lengths differ.
    pub fn new(metric: ThroughputMetric, t_x: Vec<f64>, t_y: Vec<f64>) -> Self {
        assert!(!t_x.is_empty(), "need at least one workload");
        assert_eq!(t_x.len(), t_y.len(), "t_x and t_y must be aligned");
        PairData { metric, t_x, t_y }
    }

    /// The metric the throughputs were computed under.
    pub fn metric(&self) -> ThroughputMetric {
        self.metric
    }

    /// Number of workloads covered.
    pub fn len(&self) -> usize {
        self.t_x.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.t_x.is_empty()
    }

    /// Baseline per-workload throughputs.
    pub fn t_x(&self) -> &[f64] {
        &self.t_x
    }

    /// Contender per-workload throughputs.
    pub fn t_y(&self) -> &[f64] {
        &self.t_y
    }

    /// The per-workload differences `d(w)` (equations (4)/(7)).
    pub fn differences(&self) -> Vec<f64> {
        self.t_x
            .iter()
            .zip(&self.t_y)
            .map(|(&x, &y)| mps_metrics::workload_difference(self.metric, x, y))
            .collect()
    }

    /// Full-population comparison statistics (µ, σ, cv, 1/cv of `d(w)`).
    pub fn comparison(&self) -> PairComparison {
        pair_comparison(self.metric, &self.t_x, &self.t_y)
    }
}

/// Evaluates the sample throughput of both machines over a drawn sample:
/// `(T_X, T_Y)` via equation (2) for plain samples and equation (9) for
/// stratified ones.
///
/// # Panics
///
/// Panics if the sample is empty or indexes outside the data.
pub fn sample_throughput_pair(data: &PairData, sample: &DrawnSample) -> (f64, f64) {
    assert!(!sample.is_empty(), "cannot evaluate an empty sample");
    let mean = data.metric.mean();
    match sample {
        DrawnSample::Plain(indices) => {
            let tx = mean.of_iter(indices.iter().map(|&i| data.t_x[i]));
            let ty = mean.of_iter(indices.iter().map(|&i| data.t_y[i]));
            (tx, ty)
        }
        DrawnSample::Stratified(strata) => {
            let stratified = |t: &[f64]| {
                let mut acc = WeightedMean::new(mean);
                for (weight, indices) in strata {
                    if *weight > 0.0 && !indices.is_empty() {
                        acc.push(mean.of_iter(indices.iter().map(|&i| t[i])), *weight);
                    }
                }
                acc.value()
            };
            (stratified(&data.t_x), stratified(&data.t_y))
        }
    }
}

/// Does this drawn sample conclude that Y outperforms X?
pub fn sample_decides_y_wins(data: &PairData, sample: &DrawnSample) -> bool {
    let (tx, ty) = sample_throughput_pair(data, sample);
    ty > tx
}

/// Empirical degree of confidence: draws `samples` independent samples of
/// size `w` with the given method and returns the fraction concluding
/// "Y wins" (the paper's experimental protocol: 1000 samples for Figure 3,
/// 10000 for Figure 6, 100 Zesto samples for Figure 7).
///
/// Equivalent to [`empirical_confidence_jobs`] with one worker; the
/// result is identical for every worker count.
///
/// # Panics
///
/// Panics if `samples` is zero, or the data and population disagree in
/// size.
pub fn empirical_confidence(
    sampler: &dyn Sampler,
    pop: &Population,
    data: &PairData,
    w: usize,
    samples: usize,
    rng: &mut Rng,
) -> f64 {
    empirical_confidence_jobs(sampler, pop, data, w, samples, rng, 1)
}

/// [`empirical_confidence`] with the resample loop fanned out over up to
/// `jobs` worker threads.
///
/// Each of the `samples` resamples derives its own generator from one
/// draw off the caller's stream and the *sample index* — never from
/// execution order — so the returned confidence is bit-identical for
/// every `jobs` value (including the sequential `jobs = 1` path), and the
/// caller's stream advances by exactly one draw regardless of `samples`.
///
/// # Panics
///
/// Panics if `samples` is zero, or the data and population disagree in
/// size.
pub fn empirical_confidence_jobs(
    sampler: &dyn Sampler,
    pop: &Population,
    data: &PairData,
    w: usize,
    samples: usize,
    rng: &mut Rng,
    jobs: usize,
) -> f64 {
    let base = rng.next_u64();
    empirical_confidence_seeded(sampler, pop, data, w, samples, base, jobs)
}

/// [`empirical_confidence_jobs`] with the single base draw made explicit.
///
/// The caller supplies the `base` value that would otherwise be drawn
/// from the stream. This is the checkpoint/resume entry point: an
/// experiment grid can advance its RNG stream past an already-completed
/// cell (one `next_u64` per cell) and skip the evaluation entirely,
/// while a cell that *is* evaluated — in the original run or a resumed
/// one — sees exactly the same `base` and therefore produces a
/// bit-identical confidence.
///
/// # Panics
///
/// Panics if `samples` is zero, or the data and population disagree in
/// size.
pub fn empirical_confidence_seeded(
    sampler: &dyn Sampler,
    pop: &Population,
    data: &PairData,
    w: usize,
    samples: usize,
    base: u64,
    jobs: usize,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    assert_eq!(
        pop.len(),
        data.len(),
        "population table and throughput data must be aligned"
    );
    let _span = mps_obs::span("estimate.empirical_confidence");
    let draws = mps_obs::counter("sampling.draws");
    let evaluated = mps_obs::counter("estimate.workloads_evaluated");
    // The plan is fixed for the whole cell; each worker draws into its own
    // reused buffer, so the steady-state loop does not allocate.
    let plan = sampler.plan(pop, w);
    let verdicts = mps_par::par_map_range_with(jobs, samples, DrawBuf::default, |buf, i| {
        // Weyl-sequence offset per sample index: decorrelated seeds whose
        // derivation is independent of which worker runs the sample.
        let mut sample_rng =
            Rng::new(base.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let s = plan.draw_into(&mut sample_rng, buf);
        draws.incr();
        evaluated.add(s.len() as u64);
        sample_decides_y_wins(data, s)
    });
    let wins = verdicts.iter().filter(|&&v| v).count();
    wins as f64 / samples as f64
}

/// Analytical degree of confidence for simple random sampling
/// (equation (5)), using the `cv` of `d(w)` over the whole data table.
pub fn analytic_confidence(data: &PairData, w: usize) -> f64 {
    mps_obs::counter("estimate.analytic_evals").incr();
    let cmp = data.comparison();
    mps_stats::confidence::degree_of_confidence_inv_cv(cmp.inv_cv, w)
}

/// Mean helper re-export used by harness code.
pub fn metric_mean(metric: ThroughputMetric) -> Mean {
    metric.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{BalancedRandomSampling, RandomSampling, WorkloadStratification};

    fn toy_data(n: usize, gap: f64, noise: f64) -> PairData {
        let mut rng = Rng::new(42);
        let t_x: Vec<f64> = (0..n).map(|_| 1.0 + 0.2 * rng.next_gaussian()).collect();
        let t_y: Vec<f64> = t_x
            .iter()
            .map(|&x| x + gap + noise * rng.next_gaussian())
            .collect();
        PairData::new(ThroughputMetric::WeightedSpeedup, t_x, t_y)
    }

    #[test]
    fn plain_sample_throughput_matches_manual_mean() {
        let data = PairData::new(
            ThroughputMetric::IpcThroughput,
            vec![1.0, 2.0, 3.0],
            vec![2.0, 3.0, 4.0],
        );
        let s = DrawnSample::Plain(vec![0, 2]);
        let (tx, ty) = sample_throughput_pair(&data, &s);
        assert!((tx - 2.0).abs() < 1e-12);
        assert!((ty - 3.0).abs() < 1e-12);
        assert!(sample_decides_y_wins(&data, &s));
    }

    #[test]
    fn stratified_sample_uses_weights() {
        let data = PairData::new(
            ThroughputMetric::IpcThroughput,
            vec![1.0, 10.0],
            vec![2.0, 1.0],
        );
        // Stratum 0 (weight .9) says Y wins; stratum 1 (weight .1) says X.
        let s = DrawnSample::Stratified(vec![(0.9, vec![0]), (0.1, vec![1])]);
        let (tx, ty) = sample_throughput_pair(&data, &s);
        assert!((tx - (0.9 + 1.0)).abs() < 1e-12); // 0.9*1 + 0.1*10
        assert!((ty - (1.8 + 0.1)).abs() < 1e-12);
        assert!(sample_decides_y_wins(&data, &s));
    }

    #[test]
    fn harmonic_metric_uses_weighted_harmonic() {
        let data = PairData::new(
            ThroughputMetric::HarmonicSpeedup,
            vec![2.0, 4.0],
            vec![2.0, 4.0],
        );
        let s = DrawnSample::Stratified(vec![(0.5, vec![0]), (0.5, vec![1])]);
        let (tx, _) = sample_throughput_pair(&data, &s);
        assert!((tx - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_confidence_tracks_effect_size() {
        let pop = Population::full(6, 2); // 21 workloads... need n matching
        let n = pop.len();
        // Clear win: high confidence even with few workloads.
        let clear = toy_data(n, 0.2, 0.02);
        let mut rng = Rng::new(1);
        let c = empirical_confidence(&RandomSampling, &pop, &clear, 5, 400, &mut rng);
        assert!(c > 0.95, "clear effect: {c}");
        // No effect: confidence near 0.5.
        let null = toy_data(n, 0.0, 0.1);
        let c = empirical_confidence(&RandomSampling, &pop, &null, 5, 400, &mut rng);
        assert!((0.2..=0.8).contains(&c), "null effect: {c}");
    }

    #[test]
    fn empirical_confidence_grows_with_sample_size() {
        let pop = Population::full(8, 2); // 36
        let data = toy_data(pop.len(), 0.05, 0.15);
        let mut rng = Rng::new(2);
        let c_small = empirical_confidence(&RandomSampling, &pop, &data, 3, 600, &mut rng);
        let c_large = empirical_confidence(&RandomSampling, &pop, &data, 30, 600, &mut rng);
        assert!(c_large > c_small, "small={c_small} large={c_large}");
    }

    #[test]
    fn analytic_matches_empirical_for_random_sampling() {
        // The validation of Figure 3, in miniature.
        let pop = Population::full(12, 2); // 78 workloads
        let data = toy_data(pop.len(), 0.06, 0.12);
        let mut rng = Rng::new(3);
        for w in [5, 15, 40] {
            let analytic = analytic_confidence(&data, w);
            let empirical = empirical_confidence(&RandomSampling, &pop, &data, w, 3000, &mut rng);
            assert!(
                (analytic - empirical).abs() < 0.06,
                "w={w}: analytic={analytic} empirical={empirical}"
            );
        }
    }

    #[test]
    fn workload_stratification_beats_random_at_equal_size() {
        // Construct a heterogeneous population: Y wins on 80% of
        // workloads by a small margin, loses on 20% by a large one —
        // exactly the situation stratification is built for (§VI-B).
        let n = 1000;
        let mut rng = Rng::new(4);
        let mut t_x = Vec::with_capacity(n);
        let mut t_y = Vec::with_capacity(n);
        for i in 0..n {
            let x = 1.0 + 0.05 * rng.next_gaussian();
            let d = if i % 5 == 0 {
                -0.10 + 0.005 * rng.next_gaussian()
            } else {
                0.04 + 0.005 * rng.next_gaussian()
            };
            t_x.push(x);
            t_y.push(x + d);
        }
        let data = PairData::new(ThroughputMetric::WeightedSpeedup, t_x, t_y);
        // True population verdict: mean d = 0.8*0.04 - 0.2*0.10 = +0.012.
        assert!(data.comparison().y_wins_on_average());

        let pop = Population::subsampled(50, 3, n, &mut rng);
        let ws = WorkloadStratification::build(&data.differences(), 0.01, 20);
        let w = 12;
        let c_random = empirical_confidence(&RandomSampling, &pop, &data, w, 2000, &mut rng);
        let c_strata = empirical_confidence(&ws, &pop, &data, w, 2000, &mut rng);
        assert!(
            c_strata > c_random + 0.05,
            "strata={c_strata} random={c_random}"
        );
        assert!(c_strata > 0.9, "strata={c_strata}");
    }

    #[test]
    fn balanced_random_is_consistent_with_random_on_full_population() {
        let pop = Population::full(6, 2);
        let data = toy_data(pop.len(), 0.08, 0.08);
        let mut rng = Rng::new(5);
        let c_bal = empirical_confidence(&BalancedRandomSampling, &pop, &data, 9, 1500, &mut rng);
        let c_rnd = empirical_confidence(&RandomSampling, &pop, &data, 9, 1500, &mut rng);
        // Both should agree on the direction with decent confidence.
        assert!(c_bal > 0.6 && c_rnd > 0.6, "bal={c_bal} rnd={c_rnd}");
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn mismatched_population_and_data_panic() {
        let pop = Population::full(6, 2);
        let data = toy_data(pop.len() + 1, 0.1, 0.1);
        empirical_confidence(&RandomSampling, &pop, &data, 5, 10, &mut Rng::new(6));
    }

    #[test]
    #[should_panic(expected = "cannot evaluate an empty sample")]
    fn empty_sample_panics() {
        let data = toy_data(5, 0.1, 0.1);
        sample_throughput_pair(&data, &DrawnSample::Plain(vec![]));
    }

    #[test]
    fn differences_match_metric_orientation() {
        let data = PairData::new(
            ThroughputMetric::HarmonicSpeedup,
            vec![1.0, 2.0],
            vec![1.25, 1.0],
        );
        let d = data.differences();
        assert!((d[0] - 0.2).abs() < 1e-12); // 1/1 − 1/1.25
        assert!(d[1] < 0.0);
    }
}
