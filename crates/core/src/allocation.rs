//! Sample allocation across strata.
//!
//! The paper's stratified samplers allocate draws *proportionally* to
//! stratum sizes (`Wh ∝ Nh`). Classical sampling theory (Cochran, the
//! paper's reference \[15\]) also defines **Neyman allocation**,
//! `Wh ∝ Nh·σh`, which is variance-optimal when the within-stratum
//! standard deviations `σh` are known — and with an approximate simulator
//! they *are* known. This module makes the allocation rule a pluggable
//! strategy; the workload-stratified sampler accepts either.

use mps_stats::Moments;

/// How a stratified sampler splits `w` draws across strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Allocation {
    /// `Wh ∝ Nh` — the paper's choice (needs only stratum sizes).
    #[default]
    Proportional,
    /// `Wh ∝ Nh·σh` — Cochran's variance-optimal rule (needs the
    /// within-stratum standard deviations, available from the approximate
    /// simulation that built the strata).
    Neyman,
}

/// Computes per-stratum draw counts for `w` total draws.
///
/// `sizes[h]` is the stratum population size; `sigmas[h]` its
/// within-stratum standard deviation (used by Neyman only; pass `None`
/// for proportional). Guarantees:
///
/// * the counts sum to exactly `w`,
/// * every non-empty stratum gets at least one draw when `w` allows,
/// * no stratum is allocated more draws than members while any other
///   stratum has room.
///
/// # Panics
///
/// Panics if all strata are empty, or Neyman allocation is requested
/// without sigmas, or the arrays disagree in length.
pub fn allocate(
    allocation: Allocation,
    sizes: &[usize],
    sigmas: Option<&[f64]>,
    w: usize,
) -> Vec<usize> {
    let total: usize = sizes.iter().sum();
    assert!(total > 0, "strata must cover at least one workload");
    let weights: Vec<f64> = match allocation {
        Allocation::Proportional => sizes.iter().map(|&n| n as f64).collect(),
        Allocation::Neyman => {
            let sigmas = sigmas.expect("Neyman allocation needs per-stratum sigmas");
            assert_eq!(sigmas.len(), sizes.len(), "one sigma per stratum required");
            sizes
                .iter()
                .zip(sigmas)
                .map(|(&n, &s)| {
                    assert!(s >= 0.0 && !s.is_nan(), "sigma must be non-negative");
                    // A zero-variance stratum still needs one sample to
                    // contribute its mean; give it a tiny weight.
                    n as f64 * s.max(1e-12)
                })
                .collect()
        }
    };
    allocate_by_weight(sizes, &weights, w)
}

/// Deficit-greedy allocation toward ideal shares `w·weight/Σweights`.
fn allocate_by_weight(sizes: &[usize], weights: &[f64], w: usize) -> Vec<usize> {
    let live: Vec<usize> = (0..sizes.len()).filter(|&h| sizes[h] > 0).collect();
    let mut alloc = vec![0usize; sizes.len()];
    if w < live.len() {
        let mut by_weight = live.clone();
        by_weight.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &h in by_weight.iter().take(w) {
            alloc[h] = 1;
        }
        return alloc;
    }
    for &h in &live {
        alloc[h] = 1;
    }
    let weight_sum: f64 = live.iter().map(|&h| weights[h]).sum();
    let ideal = |h: usize| w as f64 * weights[h] / weight_sum.max(f64::MIN_POSITIVE);
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
    for _ in live.len()..w {
        let deficit = |h: usize, alloc: &[usize]| ideal(h) - alloc[h] as f64;
        let pick = live
            .iter()
            .copied()
            .filter(|&h| alloc[h] < sizes[h])
            .max_by(|&a, &b| cmp(&deficit(a, &alloc), &deficit(b, &alloc)))
            .or_else(|| {
                live.iter()
                    .copied()
                    .max_by(|&a, &b| cmp(&deficit(a, &alloc), &deficit(b, &alloc)))
            })
            .expect("at least one live stratum");
        alloc[pick] += 1;
    }
    alloc
}

/// Convenience: per-stratum standard deviations of `d` values grouped by
/// the given strata (population σ).
pub fn strata_sigmas(strata: &[Vec<usize>], d: &[f64]) -> Vec<f64> {
    strata
        .iter()
        .map(|members| {
            let m: Moments = members.iter().map(|&i| d[i]).collect();
            if m.count() == 0 {
                0.0
            } else {
                m.population_std()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_matches_shares() {
        let a = allocate(Allocation::Proportional, &[50, 30, 20], None, 10);
        assert_eq!(a, vec![5, 3, 2]);
    }

    #[test]
    fn neyman_shifts_draws_to_noisy_strata() {
        // Equal sizes, very different sigmas: the noisy stratum gets most
        // of the budget.
        let a = allocate(Allocation::Neyman, &[100, 100], Some(&[0.001, 0.1]), 20);
        assert_eq!(a.iter().sum::<usize>(), 20);
        assert!(a[1] > 3 * a[0], "{a:?}");
    }

    #[test]
    fn neyman_with_equal_sigmas_is_proportional() {
        let p = allocate(Allocation::Proportional, &[60, 40], None, 10);
        let n = allocate(Allocation::Neyman, &[60, 40], Some(&[0.5, 0.5]), 10);
        assert_eq!(p, n);
    }

    #[test]
    fn zero_sigma_stratum_still_sampled_once() {
        let a = allocate(Allocation::Neyman, &[100, 100], Some(&[0.0, 1.0]), 10);
        assert_eq!(a.iter().sum::<usize>(), 10);
        assert!(a[0] >= 1);
    }

    #[test]
    fn totals_and_caps_respected() {
        let a = allocate(Allocation::Proportional, &[2, 2, 96], None, 50);
        assert_eq!(a.iter().sum::<usize>(), 50);
        assert!(a[0] <= 2 && a[1] <= 2);
        let a = allocate(Allocation::Neyman, &[1, 1, 98], Some(&[5.0, 5.0, 0.01]), 30);
        assert_eq!(a.iter().sum::<usize>(), 30);
        assert!(a[0] <= 1 && a[1] <= 1);
    }

    #[test]
    fn fewer_draws_than_strata_picks_heaviest() {
        let a = allocate(Allocation::Neyman, &[10, 10, 10], Some(&[0.1, 5.0, 1.0]), 2);
        assert_eq!(a.iter().sum::<usize>(), 2);
        assert_eq!(a[1], 1);
        assert_eq!(a[2], 1);
        assert_eq!(a[0], 0);
    }

    #[test]
    #[should_panic(expected = "needs per-stratum sigmas")]
    fn neyman_without_sigmas_panics() {
        allocate(Allocation::Neyman, &[10], None, 5);
    }

    #[test]
    fn strata_sigmas_computes_groupwise() {
        let d = [1.0, 1.0, 5.0, 9.0];
        let strata = vec![vec![0, 1], vec![2, 3]];
        let s = strata_sigmas(&strata, &d);
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 2.0).abs() < 1e-12);
    }
}
