//! Small deterministic PRNG (xoshiro256**, seeded via SplitMix64).
//!
//! Every experiment in this reproduction must be exactly reproducible from a
//! seed — the paper relies on reproducible simulation ("we assume that
//! simulations are reproducible, so that traces represent exactly the same
//! sequence of dynamic µops"). Rather than depending on the `rand` crate's
//! stability guarantees across versions, the whole workspace draws its
//! randomness from this self-contained generator.

/// xoshiro256** generator (Blackman & Vigna), seeded with SplitMix64.
///
/// # Example
///
/// ```
/// use mps_stats::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = split_mix64(&mut sm);
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng { s }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Used to give each (benchmark, core, experiment) its own stream so
    /// that changing one component does not perturb the others.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let a = self.next_u64();
        Rng::new(a ^ stream.wrapping_mul(0xA24BAED4963EE407))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` without modulo bias (Lemire).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform u128 in `[0, bound)` (for ranking into huge populations).
    pub fn below_u128(&mut self, bound: u128) -> u128 {
        assert!(bound > 0, "below_u128(0) is meaningless");
        if bound <= u64::MAX as u128 {
            return self.below(bound as u64) as u128;
        }
        // Rejection sampling on 128-bit values.
        let zone = u128::MAX - (u128::MAX % bound);
        loop {
            let hi = (self.next_u64() as u128) << 64;
            let v = hi | self.next_u64() as u128;
            if v < zone {
                return v % bound;
            }
        }
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Normally distributed value (Box–Muller, one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 0.0 {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly chooses one element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }

    /// Samples `n` distinct indices from `0..len`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn sample_indices(&mut self, len: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        self.sample_indices_into(len, n, &mut out);
        out
    }

    /// [`Rng::sample_indices`] into a caller-owned buffer, which is cleared
    /// first: a resample loop reuses one allocation for every draw.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn sample_indices_into(&mut self, len: usize, n: usize, out: &mut Vec<usize>) {
        assert!(n <= len, "cannot sample {n} distinct from {len}");
        out.clear();
        // Floyd's algorithm: n draws, unbiased. `out` stays sorted: `j`
        // exceeds every earlier pick, so a collision appends it at the end.
        // Inserting `t` shifts the tail, O(n²) moves at worst — a few
        // microseconds at the hundreds of workloads a sample holds.
        for j in (len - n)..len {
            let t = self.index(j + 1);
            match out.binary_search(&t) {
                Ok(_) => out.push(j),
                Err(pos) => out.insert(pos, t),
            }
        }
    }
}

fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(4);
        let mean: f64 = (0..100_000).map(|_| r.next_f64()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::new(5);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as i64 - 10_000).abs() < 600, "bucket {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn below_u128_small_matches_range() {
        let mut r = Rng::new(6);
        for _ in 0..1000 {
            assert!(r.below_u128(253) < 253);
        }
        let huge = (1u128 << 90) + 12345;
        for _ in 0..100 {
            assert!(r.below_u128(huge) < huge);
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::new(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn choose_none_on_empty() {
        let mut r = Rng::new(10);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::new(11);
        for _ in 0..100 {
            let s = r.sample_indices(20, 8);
            assert_eq!(s.len(), 8);
            let set: std::collections::BTreeSet<_> = s.iter().collect();
            assert_eq!(set.len(), 8);
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_and_empty() {
        let mut r = Rng::new(12);
        let all = r.sample_indices(5, 5);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert!(r.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::new(13);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
