//! The four sampling methods the paper compares (Sections III and VI).
//!
//! All samplers draw *indices into a [`Population`] table*. Plain samples
//! are evaluated with the ordinary sample throughput (equation (2));
//! stratified samples carry per-stratum weights `Nh/N` and are evaluated
//! with the weighted estimator (equation (9)).

use crate::allocation::{allocate, strata_sigmas, Allocation};
use crate::space::{Population, Workload};
use mps_stats::moments::Moments;
use mps_stats::rng::Rng;
use std::borrow::Cow;

/// A drawn sample: either a flat list of population indices or a
/// stratified sample with per-stratum weights.
#[derive(Debug, Clone, PartialEq)]
pub enum DrawnSample {
    /// Equally weighted workloads (simple/balanced random).
    Plain(Vec<usize>),
    /// `(weight, indices)` per stratum; weights sum to ~1.
    Stratified(Vec<(f64, Vec<usize>)>),
}

impl DrawnSample {
    /// Total number of workloads in the sample.
    pub fn len(&self) -> usize {
        match self {
            DrawnSample::Plain(v) => v.len(),
            DrawnSample::Stratified(s) => s.iter().map(|(_, v)| v.len()).sum(),
        }
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all indices regardless of structure.
    pub fn indices(&self) -> Vec<usize> {
        match self {
            DrawnSample::Plain(v) => v.clone(),
            DrawnSample::Stratified(s) => s.iter().flat_map(|(_, v)| v.clone()).collect(),
        }
    }
}

impl Default for DrawnSample {
    fn default() -> Self {
        DrawnSample::Plain(Vec::new())
    }
}

/// A workload sampling method.
///
/// A method only describes *what* to draw: [`Sampler::plan`] turns it
/// into a [`DrawPlan`] for one population and sample size, and the plan
/// performs every draw. `Sync` is a supertrait so samplers can be shared
/// by the parallel resample loop ([`crate::empirical_confidence_jobs`]);
/// every method is plain immutable data, all draw state lives in the
/// caller's [`Rng`].
pub trait Sampler: std::fmt::Debug + Sync {
    /// Method name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Computes everything about a `w`-workload draw from `pop` that does
    /// not depend on the RNG: stratum members, weights and allocation.
    fn plan<'a>(&'a self, pop: &'a Population, w: usize) -> DrawPlan<'a>;

    /// Draws a sample of `w` workloads from the population.
    fn draw(&self, pop: &Population, w: usize, rng: &mut Rng) -> DrawnSample {
        self.plan(pop, w).draw(rng)
    }
}

/// A sampler's draw, prepared for one population and sample size.
///
/// Resample loops build the plan once and call [`DrawPlan::draw_into`]
/// per resample; the plan is the only draw implementation, so a plan's
/// draws are exactly the [`Sampler::draw`] results for the same RNG.
#[derive(Debug)]
pub struct DrawPlan<'a>(PlanKind<'a>);

#[derive(Debug)]
enum PlanKind<'a> {
    /// `w` i.i.d. uniform indices into `0..len`.
    Uniform { len: usize, w: usize },
    /// A pool holding every benchmark `base` times plus a random
    /// remainder, shuffled and cut into `cores`-sized workloads.
    Balanced {
        pop: &'a Population,
        base_pool: Vec<u16>,
        benchmarks: usize,
        remainder: usize,
        cores: usize,
    },
    /// The strata that receive draws, in stratum order.
    Stratified(Vec<PlannedStratum<'a>>),
}

#[derive(Debug)]
struct PlannedStratum<'a> {
    /// `Nh/N`.
    weight: f64,
    members: Cow<'a, [usize]>,
    /// Draws allocated to this stratum (always positive).
    n: usize,
}

/// Reusable buffers for [`DrawPlan::draw_into`]: once they have grown to
/// a plan's sizes, further draws allocate nothing.
#[derive(Debug, Default)]
pub struct DrawBuf {
    sample: DrawnSample,
    pool: Vec<u16>,
    picks: Vec<usize>,
}

impl<'a> DrawPlan<'a> {
    fn new(w: usize, kind: PlanKind<'a>) -> Self {
        assert!(w > 0, "sample size must be positive");
        DrawPlan(kind)
    }

    /// `w` independent uniform draws from a population of `len`
    /// workloads (with replacement).
    pub fn uniform(len: usize, w: usize) -> Self {
        Self::new(w, PlanKind::Uniform { len, w })
    }

    /// Balanced random draws (see [`BalancedRandomSampling`]).
    ///
    /// # Panics
    ///
    /// Panics if `pop` is not the full population.
    pub fn balanced(pop: &'a Population, w: usize) -> Self {
        assert!(
            pop.is_full(),
            "balanced random sampling needs the full population table"
        );
        let benchmarks = pop.space().benchmarks();
        let cores = pop.space().cores();
        let slots = w * cores;
        let base = slots / benchmarks;
        let base_pool = (0..benchmarks as u16)
            .flat_map(|bench| std::iter::repeat_n(bench, base))
            .collect();
        let kind = PlanKind::Balanced {
            pop,
            base_pool,
            benchmarks,
            remainder: slots % benchmarks,
            cores,
        };
        Self::new(w, kind)
    }

    /// Stratified draws: `w` draws split over `strata` by `allocation`
    /// (`sigmas` as for [`allocate`]), each stratum weighted `Nh/N`.
    /// Strata allocated no draws are left out of every sample.
    pub fn stratified(
        strata: impl IntoIterator<Item = Cow<'a, [usize]>>,
        allocation: Allocation,
        sigmas: Option<&[f64]>,
        w: usize,
    ) -> Self {
        let strata: Vec<Cow<'a, [usize]>> = strata.into_iter().collect();
        let sizes: Vec<usize> = strata.iter().map(|m| m.len()).collect();
        let total: usize = sizes.iter().sum();
        let alloc = allocate(allocation, &sizes, sigmas, w);
        let planned = strata
            .into_iter()
            .zip(alloc)
            .filter(|&(_, n)| n > 0)
            .map(|(members, n)| PlannedStratum {
                weight: members.len() as f64 / total as f64,
                members,
                n,
            })
            .collect();
        Self::new(w, PlanKind::Stratified(planned))
    }

    /// Draws one sample into a fresh buffer.
    pub fn draw(&self, rng: &mut Rng) -> DrawnSample {
        let mut buf = DrawBuf::default();
        self.draw_into(rng, &mut buf);
        buf.sample
    }

    /// Draws one sample into `buf`, reusing its allocations, and returns
    /// it. Without replacement, the picks within a stratum are in the
    /// stratum's member order.
    pub fn draw_into<'b>(&self, rng: &mut Rng, buf: &'b mut DrawBuf) -> &'b DrawnSample {
        let DrawBuf {
            sample,
            pool,
            picks,
        } = buf;
        match &self.0 {
            PlanKind::Uniform { len, w } => {
                let out = plain(sample);
                out.extend((0..*w).map(|_| rng.index(*len)));
            }
            PlanKind::Balanced {
                pop,
                base_pool,
                benchmarks,
                remainder,
                cores,
            } => {
                pool.clear();
                pool.extend_from_slice(base_pool);
                rng.sample_indices_into(*benchmarks, *remainder, picks);
                pool.extend(picks.iter().map(|&bench| bench as u16));
                rng.shuffle(pool);
                let out = plain(sample);
                out.extend(pool.chunks_mut(*cores).map(|workload| {
                    workload.sort_unstable();
                    pop.workloads()
                        .binary_search_by(|w| w.benchmarks().cmp(workload))
                        .expect("full population contains all workloads")
                }));
            }
            PlanKind::Stratified(strata) => {
                let out = stratified(sample, strata.len());
                for (s, (weight, picked)) in strata.iter().zip(out) {
                    *weight = s.weight;
                    let members = &s.members;
                    if s.n <= members.len() {
                        rng.sample_indices_into(members.len(), s.n, picked);
                        for i in picked.iter_mut() {
                            *i = members[*i];
                        }
                    } else {
                        picked.clear();
                        picked.extend((0..s.n).map(|_| members[rng.index(members.len())]));
                    }
                }
            }
        }
        sample
    }
}

/// `sample` as an empty plain list, keeping its allocation.
fn plain(sample: &mut DrawnSample) -> &mut Vec<usize> {
    if !matches!(sample, DrawnSample::Plain(_)) {
        *sample = DrawnSample::Plain(Vec::new());
    }
    let DrawnSample::Plain(out) = sample else {
        unreachable!("just made plain")
    };
    out.clear();
    out
}

/// `sample` as exactly `strata` stratum slots, keeping their allocations.
fn stratified(sample: &mut DrawnSample, strata: usize) -> &mut [(f64, Vec<usize>)] {
    if !matches!(sample, DrawnSample::Stratified(_)) {
        *sample = DrawnSample::Stratified(Vec::new());
    }
    let DrawnSample::Stratified(out) = sample else {
        unreachable!("just made stratified")
    };
    out.resize_with(strata, Default::default);
    out
}

/// Simple random sampling: `w` i.i.d. uniform draws (with replacement —
/// "the same workload might be selected multiple times (though unlikely in
/// a small sample)", §VI-A).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSampling;

impl Sampler for RandomSampling {
    fn name(&self) -> &'static str {
        "random"
    }

    fn plan<'a>(&'a self, pop: &'a Population, w: usize) -> DrawPlan<'a> {
        DrawPlan::uniform(pop.len(), w)
    }
}

/// Balanced random sampling (§VI-A): every benchmark occurs the same
/// number of times across the whole sample (up to a remainder when
/// `w × K` is not a multiple of `B`).
///
/// The construction builds a balanced pool of benchmark slots, shuffles
/// it, and chops it into workloads — each workload is an arbitrary
/// multiset, so this sampler requires a **full** population table to map
/// workloads back to indices (the paper hits the same restriction: its
/// footnote explains balanced sampling was only applied where the full
/// population was available).
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedRandomSampling;

impl Sampler for BalancedRandomSampling {
    fn name(&self) -> &'static str {
        "bal-random"
    }

    fn plan<'a>(&'a self, pop: &'a Population, w: usize) -> DrawPlan<'a> {
        DrawPlan::balanced(pop, w)
    }
}

/// Benchmark stratification (§VI-B-1): formalizes the common practice of
/// defining workloads from benchmark classes.
///
/// Given a class per benchmark (e.g. the MPKI classes of Table IV), the
/// strata are the distinct class-occurrence tuples `(c1, …, cM)` with
/// `Σci = K`: all workloads with the same per-class composition form one
/// stratum (for 3 classes and 4 cores: 15 strata). Sampling is stratified
/// with proportional allocation and the estimator uses weights `Nh/N`.
#[derive(Debug, Clone)]
pub struct BenchmarkStratification {
    /// `classes[bench]` = class index of that benchmark.
    classes: Vec<usize>,
}

impl BenchmarkStratification {
    /// Creates the stratification from per-benchmark class indices.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn new(classes: Vec<usize>) -> Self {
        assert!(!classes.is_empty(), "need per-benchmark classes");
        BenchmarkStratification { classes }
    }

    /// The class-count tuple ("workload type") of a workload.
    fn stratum_key(&self, w: &Workload) -> Vec<u32> {
        let m = self.classes.iter().max().copied().unwrap_or(0) + 1;
        let mut key = vec![0u32; m];
        for &x in w.benchmarks() {
            key[self.classes[x as usize]] += 1;
        }
        key
    }

    /// Groups population indices into strata, returning `(key, members)`.
    pub fn strata_of(&self, pop: &Population) -> Vec<(Vec<u32>, Vec<usize>)> {
        let mut map: std::collections::BTreeMap<Vec<u32>, Vec<usize>> = Default::default();
        for (i, w) in pop.workloads().iter().enumerate() {
            map.entry(self.stratum_key(w)).or_default().push(i);
        }
        map.into_iter().collect()
    }
}

impl Sampler for BenchmarkStratification {
    fn name(&self) -> &'static str {
        "bench-strata"
    }

    fn plan<'a>(&'a self, pop: &'a Population, w: usize) -> DrawPlan<'a> {
        let strata = self.strata_of(pop).into_iter().map(|(_, m)| Cow::Owned(m));
        DrawPlan::stratified(strata, Allocation::Proportional, None, w)
    }
}

/// Workload stratification (§VI-B-2) — the paper's headline method.
///
/// Using per-workload values `d(w)` measured with the *fast approximate
/// simulator* on a large population sample, workloads are sorted by
/// `d(w)` and greedily cut into strata: a new stratum starts once the
/// current one has at least `min_size` (`W_T`) members **and** its standard
/// deviation exceeds `sd_threshold` (`T_SD`). The resulting strata are
/// internally homogeneous, so tiny per-stratum samples estimate the
/// population precisely.
///
/// A stratification is valid only for one microarchitecture pair and one
/// metric (the `d(w)` it was built from).
#[derive(Debug, Clone)]
pub struct WorkloadStratification {
    /// Per-stratum population indices (contiguous runs of the d-sorted order).
    strata: Vec<Vec<usize>>,
    /// Within-stratum standard deviations of the `d` values.
    sigmas: Vec<f64>,
    population: usize,
    allocation: Allocation,
}

impl WorkloadStratification {
    /// Paper defaults: `T_SD = 0.001`, `W_T = 50` (Figure 6).
    pub const DEFAULT_SD_THRESHOLD: f64 = 0.001;
    /// Paper default minimum stratum size.
    pub const DEFAULT_MIN_SIZE: usize = 50;

    /// Builds strata from the per-workload differences `d` (aligned with
    /// the population table the sampler will be used with).
    ///
    /// # Panics
    ///
    /// Panics if `d` is empty, contains NaN, or `min_size` is zero.
    pub fn build(d: &[f64], sd_threshold: f64, min_size: usize) -> Self {
        assert!(!d.is_empty(), "need per-workload differences");
        assert!(min_size > 0, "minimum stratum size must be positive");
        assert!(d.iter().all(|x| !x.is_nan()), "d(w) must not contain NaN");
        let mut order: Vec<usize> = (0..d.len()).collect();
        order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("no NaN"));

        let mut strata: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut moments = Moments::new();
        for &i in &order {
            // Close the stratum when it is big enough AND too spread out
            // to absorb the next workload (paper step 4).
            if current.len() >= min_size && moments.population_std() > sd_threshold {
                strata.push(std::mem::take(&mut current));
                moments = Moments::new();
            }
            current.push(i);
            moments.push(d[i]);
        }
        if !current.is_empty() {
            strata.push(current);
        }
        let sigmas = strata_sigmas(&strata, d);
        WorkloadStratification {
            strata,
            sigmas,
            population: d.len(),
            allocation: Allocation::Proportional,
        }
    }

    /// Switches the per-stratum draw allocation rule (the paper uses
    /// proportional; Neyman is the Cochran-optimal extension).
    pub fn with_allocation(mut self, allocation: Allocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// The allocation rule in effect.
    pub fn allocation(&self) -> Allocation {
        self.allocation
    }

    /// Within-stratum standard deviations of the build-time `d` values.
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// Builds with the paper's default `T_SD`/`W_T`.
    pub fn with_defaults(d: &[f64]) -> Self {
        Self::build(d, Self::DEFAULT_SD_THRESHOLD, Self::DEFAULT_MIN_SIZE)
    }

    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Per-stratum sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.strata.iter().map(Vec::len).collect()
    }
}

impl Sampler for WorkloadStratification {
    fn name(&self) -> &'static str {
        "workload-strata"
    }

    fn plan<'a>(&'a self, pop: &'a Population, w: usize) -> DrawPlan<'a> {
        assert_eq!(
            pop.len(),
            self.population,
            "stratification was built for a different population"
        );
        let strata = self.strata.iter().map(|m| Cow::Borrowed(m.as_slice()));
        DrawPlan::stratified(strata, self.allocation, Some(&self.sigmas), w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_4core() -> Population {
        Population::full(6, 4) // 126 workloads
    }

    #[test]
    fn random_sampling_draws_w_indices() {
        let pop = pop_4core();
        let mut rng = Rng::new(1);
        let s = RandomSampling.draw(&pop, 30, &mut rng);
        assert_eq!(s.len(), 30);
        match s {
            DrawnSample::Plain(v) => assert!(v.iter().all(|&i| i < pop.len())),
            _ => panic!("random sampling must be plain"),
        }
    }

    #[test]
    fn balanced_sampling_equalizes_occurrences() {
        let pop = Population::full(6, 3);
        let mut rng = Rng::new(2);
        // w × k = 12 × 3 = 36 slots over 6 benchmarks: exactly 6 each.
        let s = BalancedRandomSampling.draw(&pop, 12, &mut rng);
        assert_eq!(s.len(), 12);
        let mut occ = vec![0u32; 6];
        for i in s.indices() {
            for &x in pop.workloads()[i].benchmarks() {
                occ[x as usize] += 1;
            }
        }
        assert!(occ.iter().all(|&c| c == 6), "{occ:?}");
    }

    #[test]
    fn balanced_sampling_with_remainder_is_near_equal() {
        let pop = Population::full(5, 2);
        let mut rng = Rng::new(3);
        // 7 × 2 = 14 slots over 5 benchmarks: counts 2 or 3.
        let s = BalancedRandomSampling.draw(&pop, 7, &mut rng);
        let mut occ = vec![0u32; 5];
        for i in s.indices() {
            for &x in pop.workloads()[i].benchmarks() {
                occ[x as usize] += 1;
            }
        }
        assert!(occ.iter().all(|&c| c == 2 || c == 3), "{occ:?}");
        assert_eq!(occ.iter().sum::<u32>(), 14);
    }

    #[test]
    #[should_panic(expected = "full population")]
    fn balanced_sampling_rejects_partial_population() {
        let mut rng = Rng::new(4);
        let pop = Population::subsampled(8, 3, 20, &mut rng);
        BalancedRandomSampling.draw(&pop, 5, &mut rng);
    }

    #[test]
    fn benchmark_strata_partition_the_population() {
        let pop = pop_4core();
        // 2 classes: benchmarks 0-2 class 0, benchmarks 3-5 class 1.
        let strat = BenchmarkStratification::new(vec![0, 0, 0, 1, 1, 1]);
        let strata = strat.strata_of(&pop);
        // Class tuples (c0, c1) with c0+c1=4: 5 strata.
        assert_eq!(strata.len(), 5);
        let mut seen = vec![false; pop.len()];
        for (_, members) in &strata {
            for &i in members {
                assert!(!seen[i], "index {i} in two strata");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partition must cover population");
    }

    #[test]
    fn benchmark_strata_sizes_match_formula() {
        // Paper: Nh = Π multiset(bi, ci). For b0=3, b1=3, K=4:
        // stratum (4,0): multiset(3,4)=15; (3,1): multiset(3,3)*3=30;
        // (2,2): 6*6=36; (1,3): 30; (0,4): 15. Total 126 ✓.
        let pop = pop_4core();
        let strat = BenchmarkStratification::new(vec![0, 0, 0, 1, 1, 1]);
        let sizes: Vec<usize> = strat.strata_of(&pop).iter().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, vec![15, 30, 36, 30, 15]);
    }

    #[test]
    fn benchmark_stratified_draw_weights_sum_to_one() {
        let pop = pop_4core();
        let strat = BenchmarkStratification::new(vec![0, 1, 2, 0, 1, 2]);
        let mut rng = Rng::new(5);
        let s = strat.draw(&pop, 30, &mut rng);
        assert_eq!(s.len(), 30);
        match s {
            DrawnSample::Stratified(strata) => {
                let total: f64 = strata.iter().map(|(w, _)| w).sum();
                assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
                for (_, members) in &strata {
                    assert!(!members.is_empty());
                }
            }
            _ => panic!("must be stratified"),
        }
    }

    #[test]
    fn workload_strata_partition_and_order() {
        let d: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin()).collect();
        let ws = WorkloadStratification::build(&d, 0.05, 20);
        assert!(ws.num_strata() > 1);
        let sizes = ws.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 500);
        assert!(sizes.iter().all(|&s| s >= 20), "{sizes:?}");
        // Strata are contiguous in d-sorted order: max(d of stratum h) ≤
        // min(d of stratum h+1).
        let maxmin: Vec<(f64, f64)> = ws
            .strata
            .iter()
            .map(|m| {
                let vals: Vec<f64> = m.iter().map(|&i| d[i]).collect();
                (
                    vals.iter().cloned().fold(f64::INFINITY, f64::min),
                    vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                )
            })
            .collect();
        for pair in maxmin.windows(2) {
            assert!(pair[0].1 <= pair[1].0 + 1e-12);
        }
    }

    #[test]
    fn homogeneous_d_yields_single_stratum() {
        let d = vec![0.5; 300];
        let ws = WorkloadStratification::with_defaults(&d);
        assert_eq!(ws.num_strata(), 1);
    }

    #[test]
    fn tight_threshold_yields_many_strata() {
        let d: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let loose = WorkloadStratification::build(&d, 0.2, 10).num_strata();
        let tight = WorkloadStratification::build(&d, 0.001, 10).num_strata();
        assert!(tight > loose, "tight={tight} loose={loose}");
    }

    #[test]
    fn workload_stratified_draw_covers_strata() {
        let pop = pop_4core();
        let d: Vec<f64> = (0..pop.len()).map(|i| (i as f64 * 0.31).sin()).collect();
        let ws = WorkloadStratification::build(&d, 0.1, 10);
        let mut rng = Rng::new(6);
        let w = ws.num_strata() + 5;
        let s = ws.draw(&pop, w, &mut rng);
        assert_eq!(s.len(), w);
        match s {
            DrawnSample::Stratified(strata) => {
                assert_eq!(strata.len(), ws.num_strata());
            }
            _ => panic!("must be stratified"),
        }
    }

    #[test]
    fn draw_fewer_than_strata_uses_largest() {
        let pop = pop_4core();
        let d: Vec<f64> = (0..pop.len()).map(|i| i as f64).collect();
        let ws = WorkloadStratification::build(&d, 0.5, 10);
        assert!(ws.num_strata() > 3);
        let mut rng = Rng::new(7);
        let s = ws.draw(&pop, 2, &mut rng);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different population")]
    fn stratification_population_mismatch_panics() {
        let pop = pop_4core();
        let ws = WorkloadStratification::with_defaults(&[0.0; 10]);
        ws.draw(&pop, 5, &mut Rng::new(8));
    }

    #[test]
    fn paper_strata_counts_shape() {
        // §VI-B-2: for 4 cores / WSU, DRRIP-FIFO yields 34 strata,
        // DRRIP-LRU 15, FIFO-RND 17 with defaults — i.e. tens of strata
        // from a 12650-workload population. Check the same order of
        // magnitude arises from a comparable synthetic d distribution.
        let mut rng = Rng::new(9);
        let d: Vec<f64> = (0..12650).map(|_| rng.next_gaussian() * 0.02).collect();
        let ws = WorkloadStratification::with_defaults(&d);
        assert!(
            (5..200).contains(&ws.num_strata()),
            "strata = {}",
            ws.num_strata()
        );
    }
}
