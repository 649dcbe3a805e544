//! Order statistics over a run's samples.

/// Median, quartiles and tail of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest whole percentile with at least ten samples above it,
    /// and its value; `None` with ten samples or fewer.
    pub tail: Option<(u32, f64)>,
}

/// The median of `v`; 0 for an empty set.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default exclusive method), so that the spreads this
/// benchmark prints are the ones a reader recomputes from its result lines.
/// A single sample is both quartiles; an empty set gives zeros.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (4 * j) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The highest whole percentile `p` whose nearest-rank value has at least
/// ten samples above it, with that value.
pub fn tail(v: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return None;
    }
    // Nearest rank: the p-th percentile is the ceil(p·n/100)-th sample,
    // which leaves n − ceil(p·n/100) samples above it.
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, s[rank - 1]))
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles(v);
        Summary {
            n: v.len(),
            median: median(v),
            q1,
            q3,
            tail: tail(v),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} q1 {:.4} q3 {:.4} n={}",
            self.median, self.q1, self.q3, self.n
        )?;
        match self.tail {
            Some((p, v)) => write!(f, " p{p} {v:.4}"),
            None => write!(f, " (no percentile with 10 above)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond two samples.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: p9 is the 1st sample, with 10 above.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v), Some((9, 1.0)));
        // 100 samples: p90 is the 90th, with 10 above.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        // 40 samples: p75 is the 30th, with 10 above.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75, 30.0)));
    }
}
