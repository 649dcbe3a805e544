//! Golden draws: every sampler's output at fixed seeds, pinned bit for bit.
//!
//! The confidence figures are shares of resamples, so a change in which
//! indices a sampler picks — or in how many RNG calls a draw makes —
//! silently moves every artifact. `golden/draws.txt` holds the rendered
//! index lists, stratum weights (shortest round-trip `f64`), the RNG
//! word that follows each draw, and a few resample-loop results, all
//! captured from a known-good build. On a mismatch the actual rendering is
//! written next to the test binary's scratch directory so the diff can be
//! inspected; the golden file is only ever replaced by hand.

use mps_sampling::{
    empirical_confidence_seeded, speedup_interval, Allocation, BalancedRandomSampling,
    BenchmarkStratification, ClusterSampling, DrawnSample, PairData, Population, RandomSampling,
    Sampler, WorkloadStratification,
};
use mps_stats::rng::Rng;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/draws.txt");

/// 8 benchmarks on 3 cores: 120 workloads, small enough to pin whole
/// index lists at `w = N`.
fn population() -> Population {
    Population::full(8, 3)
}

/// A smooth per-workload difference with several distinct levels, so the
/// workload stratification and the clustering both produce many strata.
fn differences(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37).sin() * 0.05).collect()
}

fn samplers(pop: &Population) -> Vec<(&'static str, Box<dyn Sampler>)> {
    let d = differences(pop.len());
    // Three classes over 8 benchmarks on 3 cores: 10 class-count strata,
    // so `w = 1` is below the stratum count.
    let bench = BenchmarkStratification::new(vec![0, 0, 1, 1, 1, 2, 2, 2]);
    let workload = WorkloadStratification::build(&d, 0.004, 6);
    let neyman = WorkloadStratification::build(&d, 0.004, 6).with_allocation(Allocation::Neyman);
    let cluster = ClusterSampling::from_scalar(&d, 6, &mut Rng::new(0xC1));
    vec![
        ("random", Box::new(RandomSampling)),
        ("bal-random", Box::new(BalancedRandomSampling)),
        ("bench-strata", Box::new(bench)),
        ("workload-strata", Box::new(workload)),
        ("workload-strata-neyman", Box::new(neyman)),
        ("cluster", Box::new(cluster)),
    ]
}

fn render_sample(out: &mut String, s: &DrawnSample) {
    match s {
        DrawnSample::Plain(v) => {
            let _ = write!(out, "plain {v:?}");
        }
        DrawnSample::Stratified(strata) => {
            out.push_str("strata");
            for (weight, members) in strata {
                let _ = write!(out, " {weight:?}:{members:?}");
            }
        }
    }
}

fn render() -> String {
    let pop = population();
    let n = pop.len();
    let data = PairData::new(
        mps_metrics::ThroughputMetric::IpcThroughput,
        (0..n)
            .map(|i| 1.0 + 0.1 * (i as f64 * 0.91).cos())
            .collect(),
        (0..n)
            .map(|i| 1.0 + 0.1 * (i as f64 * 0.91).cos() + differences(n)[i])
            .collect(),
    );
    let mut out = String::new();
    // `n + 30` forces draws with replacement inside every stratum.
    let sizes = [1, 10, 50, n, n + 30];
    for (name, sampler) in samplers(&pop) {
        for &w in &sizes {
            for seed in [7u64, 0xC0FFEE] {
                let mut rng = Rng::new(seed);
                let s = sampler.draw(&pop, w, &mut rng);
                let _ = write!(
                    out,
                    "{name} w={w} seed={seed:x} next={:016x} ",
                    rng.next_u64()
                );
                render_sample(&mut out, &s);
                out.push('\n');
            }
        }
        for w in [10, 50] {
            let c = empirical_confidence_seeded(sampler.as_ref(), &pop, &data, w, 200, 0xBA5E, 1);
            let iv = speedup_interval(sampler.as_ref(), &pop, &data, w, 0.9, 50, &mut Rng::new(3));
            let _ = writeln!(
                out,
                "{name} w={w} confidence={c:?} speedup=[{:?} {:?} mean {:?}]",
                iv.low, iv.high, iv.mean
            );
        }
    }
    out
}

#[test]
fn draws_match_the_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("draws.actual.txt");
        std::fs::write(&path, &actual).expect("write the actual rendering");
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "draws differ from golden/draws.txt at line {} (actual rendering in {})",
            first + 1,
            path.display()
        );
    }
}

/// Floyd's algorithm over a `BTreeSet`: the reference `sample_indices`
/// must keep matching in output and in RNG consumption.
fn floyd_reference(rng: &mut Rng, len: usize, n: usize) -> Vec<usize> {
    let mut chosen = BTreeSet::new();
    for j in (len - n)..len {
        let t = rng.index(j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

// Lengths up to 5,000 span many bitset words. `edge` forces `n` to 0, 1,
// `len − 1` and `len` in an eighth of the cases each; the other half
// pick `n` uniformly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sample_indices_matches_btreeset_floyd(
        len in 0usize..5_000,
        edge in 0u8..8,
        pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = match edge {
            0 => 0,
            1 => len.min(1),
            2 => len.saturating_sub(1),
            3 => len,
            _ => (pick % (len as u64 + 1)) as usize,
        };
        let mut fast = Rng::new(seed);
        let mut reference = fast.clone();
        let got = fast.sample_indices(len, n);
        let want = floyd_reference(&mut reference, len, n);
        prop_assert_eq!(got, want);
        prop_assert_eq!(fast, reference);
    }
}
