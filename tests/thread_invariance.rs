//! Thread-invariance: the whole pipeline is bit-identical for every
//! `--jobs` value.
//!
//! This is the end-to-end proof behind the `mps-par` determinism contract
//! (see `crates/par`): experiment grids fan out over a work-stealing pool,
//! yet every derived artifact — report text, CSV export, even the cache
//! accounting — must not depend on the worker count or on how the steals
//! interleaved. A single run at `jobs = 1` is the reference; runs at 2 and
//! 8 workers (more workers than some grids have items) must reproduce it
//! byte for byte. The worker-process leg, which spawns `mps-harness`
//! binaries, is `crates/harness/tests/dist_invariance.rs`.

use mps::harness::experiments as exp;
use mps::harness::export::CsvExport;
use mps::harness::{Scale, StudyCacheStats, StudyContext};

/// Smaller even than `Scale::test()`: this suite runs every experiment
/// three times, so it trims every knob that does not change which parallel
/// code paths execute.
fn mini() -> Scale {
    Scale {
        trace_len: 1_000,
        pop_4core: 24,
        pop_8core: 12,
        confidence_samples: 60,
        detailed_sample: 4,
        accuracy_workloads: 2,
        sample_sizes: vec![4, 8],
        seed: 0xC0FFEE,
    }
}

/// The artifacts one `(fig3, table4)` grid produces under `--out`:
/// `(name, contents)` pairs plus the context's cache accounting.
fn run_grid(jobs: usize) -> (Vec<(&'static str, String)>, StudyCacheStats) {
    let ctx = StudyContext::builder()
        .scale(mini())
        .jobs(jobs)
        .build()
        .unwrap();
    assert_eq!(ctx.jobs(), jobs);
    let fig3 = exp::fig3(&ctx).unwrap();
    let table4 = exp::table4(&ctx).unwrap();
    let files = vec![
        ("fig3.txt", fig3.to_string()),
        ("fig3.csv", fig3.csv()),
        ("table4.txt", table4.to_string()),
        ("table4.csv", table4.csv()),
    ];
    (files, ctx.cache_stats())
}

#[test]
fn fig3_and_table4_artifacts_are_jobs_invariant() {
    let base = std::env::temp_dir().join(format!("mps-invariance-{}", std::process::id()));
    let (ref_files, ref_stats) = run_grid(1);
    // Write the reference artifacts the way `mps-harness --out DIR` does,
    // so the comparison below is over file bytes, not just strings.
    let ref_dir = base.join("jobs1");
    std::fs::create_dir_all(&ref_dir).unwrap();
    for (name, contents) in &ref_files {
        std::fs::write(ref_dir.join(name), contents).unwrap();
    }
    for jobs in [2usize, 8] {
        let (files, stats) = run_grid(jobs);
        assert_eq!(stats, ref_stats, "cache accounting differs at jobs={jobs}");
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, contents) in &files {
            std::fs::write(dir.join(name), contents).unwrap();
        }
        for (name, _) in &files {
            let got = std::fs::read(dir.join(name)).unwrap();
            let want = std::fs::read(ref_dir.join(name)).unwrap();
            assert_eq!(got, want, "{name} differs between jobs=1 and jobs={jobs}");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn validation_report_is_jobs_invariant() {
    // The validation sweep fans detailed+BADCO cells over the worker pool
    // and merges group statistics afterwards; its canonical renderings
    // (JSONL and CSV — the artifacts CI compares across MPS_JOBS values)
    // must come out byte-identical for every worker count.
    let opts = mps::harness::ValidateOptions {
        core_counts: vec![2, 4],
        policies: vec![mps::uncore::PolicyKind::Lru],
        workloads_per_group: 3,
        perturb: 1.0,
    };
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        mps::harness::validate::run(&ctx, &opts).unwrap()
    };
    for jobs in [2usize, 8] {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(jobs)
            .build()
            .unwrap();
        let run = mps::harness::validate::run(&ctx, &opts).unwrap();
        assert_eq!(
            run.to_jsonl(),
            reference.to_jsonl(),
            "validation JSONL differs at jobs={jobs}"
        );
        assert_eq!(
            run.csv(),
            reference.csv(),
            "validation CSV differs at jobs={jobs}"
        );
    }
}

#[test]
fn detailed_kernel_artifacts_are_jobs_invariant() {
    // fig3/fig6/fig7 exercise the population + throughput-table + detailed
    // confidence loops, and the validation sweep covers the remaining
    // detailed path; every detailed cell runs the event-skipping
    // `MulticoreSim::run`, and all must reproduce the jobs=1 rendering
    // exactly, whatever worker count schedules the cells.
    let opts = mps::harness::ValidateOptions {
        core_counts: vec![2],
        policies: vec![mps::uncore::PolicyKind::Lru],
        workloads_per_group: 3,
        perturb: 1.0,
    };
    let artifacts = |jobs: usize| -> Vec<(&'static str, String)> {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(jobs)
            .build()
            .unwrap();
        let validate = mps::harness::validate::run(&ctx, &opts).unwrap();
        vec![
            ("fig3.csv", exp::fig3(&ctx).unwrap().csv()),
            ("fig6.csv", exp::fig6(&ctx).unwrap().csv()),
            ("fig7.csv", exp::fig7(&ctx).unwrap().csv()),
            ("validate.jsonl", validate.to_jsonl()),
            ("validate.csv", validate.csv()),
        ]
    };
    let reference = artifacts(1);
    let run = artifacts(4);
    for ((name, want), (_, got)) in reference.iter().zip(&run) {
        assert_eq!(got, want, "{name} differs between jobs=1 and jobs=4");
    }
}

#[test]
fn resampling_confidence_is_jobs_invariant() {
    // fig7 leans hardest on the parallel resampler (empirical_confidence
    // across methods × sample sizes), so its curves are the sharpest
    // single check that per-sample RNG streams derive from the sample
    // index and not from scheduling order.
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        exp::fig7(&ctx).unwrap()
    };
    for jobs in [2usize, 8] {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(jobs)
            .build()
            .unwrap();
        let run = exp::fig7(&ctx).unwrap();
        assert_eq!(
            run.csv(),
            reference.csv(),
            "fig7 confidence curves differ at jobs={jobs}"
        );
    }
}
