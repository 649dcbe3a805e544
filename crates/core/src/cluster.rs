//! Cluster-analysis-based workload selection.
//!
//! The paper's related work (§II-B) cites two automatic alternatives to
//! manual classification:
//!
//! * Van Biesbrouck, Eeckhout & Calder apply **cluster analysis directly
//!   on workloads** using microarchitecture-independent profiles;
//! * Vandierendonck & Seznec use cluster analysis to define **benchmark
//!   classes** automatically.
//!
//! This module provides both, on top of a small self-contained k-means
//! (k-means++ seeding, Lloyd iterations): [`ClusterSampling`] groups
//! workloads by feature vectors and samples cluster-proportionally (a
//! [`Sampler`] like the paper's own methods), and
//! [`benchmark_classes_from_features`] clusters benchmarks into classes
//! usable with [`crate::BenchmarkStratification`].

use crate::allocation::Allocation;
use crate::sampler::{DrawPlan, Sampler};
use crate::space::Population;
use mps_stats::rng::Rng;
use std::borrow::Cow;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index of each input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's k-means with k-means++ seeding.
///
/// Deterministic for a given RNG state. `k` is clamped to the number of
/// points.
///
/// # Panics
///
/// Panics if `points` is empty, dimensions are inconsistent, any value is
/// NaN, or `k` is zero.
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iters: usize, rng: &mut Rng) -> KMeansResult {
    let _span = mps_obs::span("sampling.kmeans");
    mps_obs::counter("sampling.kmeans_points").add(points.len() as u64);
    assert!(!points.is_empty(), "need at least one point");
    assert!(k > 0, "need at least one cluster");
    let dim = points[0].len();
    for p in points {
        assert_eq!(p.len(), dim, "inconsistent dimensions");
        assert!(p.iter().all(|x| !x.is_nan()), "NaN feature");
    }
    let k = k.min(points.len());

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.index(points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick any.
            rng.index(points.len())
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, centroids.last().expect("just pushed")));
        }
    }

    // Lloyd iterations.
    let mut assignments = vec![0usize; points.len()];
    for _ in 0..max_iters {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    sq_dist(p, &centroids[a])
                        .partial_cmp(&sq_dist(p, &centroids[b]))
                        .expect("no NaN")
                })
                .expect("k >= 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, &x) in sums[assignments[i]].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count > 0 {
                for (cc, &s) in c.iter_mut().zip(sum) {
                    *cc = s / count as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let inertia = points
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| sq_dist(p, &centroids[a]))
        .sum();
    KMeansResult {
        assignments,
        centroids,
        inertia,
    }
}

/// Workload selection by clustering (Van Biesbrouck et al., the automatic
/// alternative the paper's related work describes): cluster workloads by
/// feature vectors, then sample each cluster proportionally and estimate
/// with cluster weights — structurally a stratification whose strata come
/// from k-means instead of the `d(w)` sort.
#[derive(Debug, Clone)]
pub struct ClusterSampling {
    clusters: Vec<Vec<usize>>,
    population: usize,
}

impl ClusterSampling {
    /// Clusters `features[i]` (one vector per population workload) into
    /// `k` groups.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or `k` is zero.
    pub fn build(features: &[Vec<f64>], k: usize, rng: &mut Rng) -> Self {
        let result = kmeans(features, k, 50, rng);
        let n_clusters = result.centroids.len();
        let mut clusters = vec![Vec::new(); n_clusters];
        for (i, &a) in result.assignments.iter().enumerate() {
            clusters[a].push(i);
        }
        clusters.retain(|c| !c.is_empty());
        ClusterSampling {
            clusters,
            population: features.len(),
        }
    }

    /// Convenience: clusters scalar per-workload values (e.g. approximate
    /// `d(w)`).
    pub fn from_scalar(values: &[f64], k: usize, rng: &mut Rng) -> Self {
        let features: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        Self::build(&features, k, rng)
    }

    /// Number of (non-empty) clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Per-cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Vec::len).collect()
    }
}

impl Sampler for ClusterSampling {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn plan<'a>(&'a self, pop: &'a Population, w: usize) -> DrawPlan<'a> {
        assert_eq!(
            pop.len(),
            self.population,
            "clustering was built for a different population"
        );
        let clusters = self.clusters.iter().map(|c| Cow::Borrowed(c.as_slice()));
        DrawPlan::stratified(clusters, Allocation::Proportional, None, w)
    }
}

/// Clusters benchmarks into `m` classes from per-benchmark feature vectors
/// (e.g. solo IPC, MPKI, branch misprediction rate) — the automatic
/// benchmark classification of Vandierendonck & Seznec. The result feeds
/// [`crate::BenchmarkStratification`].
///
/// Features are z-normalized per dimension before clustering so that
/// differently-scaled characteristics weigh equally.
pub fn benchmark_classes_from_features(
    features: &[Vec<f64>],
    m: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    assert!(!features.is_empty(), "need at least one benchmark");
    let dim = features[0].len();
    // z-normalize.
    let mut normalized = features.to_vec();
    for d in 0..dim {
        let m0: mps_stats::Moments = features.iter().map(|f| f[d]).collect();
        let (mean, std) = (m0.mean(), m0.population_std().max(1e-12));
        for f in &mut normalized {
            f[d] = (f[d] - mean) / std;
        }
    }
    kmeans(&normalized, m, 100, rng).assignments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::DrawnSample;

    fn three_blobs() -> Vec<Vec<f64>> {
        let mut rng = Rng::new(5);
        let mut pts = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for _ in 0..30 {
                pts.push(vec![
                    cx + 0.5 * rng.next_gaussian(),
                    cy + 0.5 * rng.next_gaussian(),
                ]);
            }
        }
        pts
    }

    #[test]
    fn kmeans_separates_well_separated_blobs() {
        let pts = three_blobs();
        let mut rng = Rng::new(1);
        let r = kmeans(&pts, 3, 100, &mut rng);
        assert_eq!(r.centroids.len(), 3);
        // Points within a blob share an assignment.
        for blob in 0..3 {
            let first = r.assignments[blob * 30];
            for i in 0..30 {
                assert_eq!(r.assignments[blob * 30 + i], first, "blob {blob}");
            }
        }
        // And the blobs are in distinct clusters.
        let set: std::collections::BTreeSet<_> =
            [r.assignments[0], r.assignments[30], r.assignments[60]]
                .into_iter()
                .collect();
        assert_eq!(set.len(), 3);
        assert!(r.inertia < 100.0, "inertia {}", r.inertia);
    }

    #[test]
    fn kmeans_k_clamped_to_points() {
        let pts = vec![vec![1.0], vec![2.0]];
        let mut rng = Rng::new(2);
        let r = kmeans(&pts, 10, 10, &mut rng);
        assert!(r.centroids.len() <= 2);
    }

    #[test]
    fn kmeans_identical_points_degenerate() {
        let pts = vec![vec![3.0, 3.0]; 20];
        let mut rng = Rng::new(3);
        let r = kmeans(&pts, 4, 10, &mut rng);
        assert!(r.inertia < 1e-18);
        assert!(r.assignments.iter().all(|&a| a == r.assignments[0]));
    }

    #[test]
    fn kmeans_is_deterministic_given_seed() {
        let pts = three_blobs();
        let a = kmeans(&pts, 3, 100, &mut Rng::new(7));
        let b = kmeans(&pts, 3, 100, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "NaN feature")]
    fn kmeans_rejects_nan() {
        kmeans(&[vec![f64::NAN]], 1, 5, &mut Rng::new(0));
    }

    #[test]
    fn cluster_sampling_partitions_and_draws() {
        let pop = Population::full(6, 3); // 56 workloads
        let mut rng = Rng::new(4);
        let d: Vec<f64> = (0..pop.len()).map(|i| (i as f64 * 0.7).sin()).collect();
        let cs = ClusterSampling::from_scalar(&d, 5, &mut rng);
        assert!(cs.num_clusters() >= 2);
        assert_eq!(cs.sizes().iter().sum::<usize>(), pop.len());
        let s = cs.draw(&pop, 12, &mut rng);
        assert_eq!(s.len(), 12);
        match s {
            DrawnSample::Stratified(groups) => {
                let total: f64 = groups.iter().map(|(w, _)| w).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
            _ => panic!("cluster sampling must stratify"),
        }
    }

    #[test]
    #[should_panic(expected = "different population")]
    fn cluster_sampling_population_mismatch_panics() {
        let pop = Population::full(6, 3);
        let mut rng = Rng::new(5);
        let cs = ClusterSampling::from_scalar(&[0.0; 10], 2, &mut rng);
        cs.draw(&pop, 5, &mut rng);
    }

    #[test]
    fn benchmark_classes_cluster_by_intensity() {
        // Synthetic benchmark features: (ipc, mpki) in three obvious bands.
        let features = vec![
            vec![2.0, 0.1],
            vec![1.9, 0.2],
            vec![1.8, 0.3], // compute-bound
            vec![1.0, 20.0],
            vec![0.9, 22.0], // medium
            vec![0.2, 55.0],
            vec![0.1, 60.0], // memory-bound
        ];
        // k-means is a local-search heuristic: accept any seed that finds
        // the obvious 3-way split, but it must do so for most seeds.
        let good = (0..10)
            .filter(|&seed| {
                let mut rng = Rng::new(seed);
                let c = benchmark_classes_from_features(&features, 3, &mut rng);
                c[0] == c[1]
                    && c[0] == c[2]
                    && c[3] == c[4]
                    && c[5] == c[6]
                    && c[0] != c[3]
                    && c[3] != c[5]
            })
            .count();
        assert!(good >= 6, "only {good}/10 seeds find the natural split");
    }
}
