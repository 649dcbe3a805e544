//! Worker-process invariance: distributed grids reproduce the
//! single-process artifacts byte for byte.
//!
//! The thread-level counterpart lives in the workspace's
//! `tests/thread_invariance.rs`. This leg spawns `mps-harness worker`
//! processes, so it lives in the crate that owns the binary and can name
//! it with `CARGO_BIN_EXE_mps-harness`. It is the only test in this file:
//! it sets process-global environment variables.

use mps_harness::export::CsvExport;
use mps_harness::{experiments as exp, Scale, StudyContext};

/// The invariance suite's trimmed scale: every parallel code path runs,
/// with as little simulation as possible.
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

#[test]
fn artifacts_are_worker_process_invariant() {
    // The distributed coordinator shards the same grids across
    // worker *processes*, claiming cells through store leases and merging
    // results in index order. The contract is the same as for threads:
    // any worker count × any jobs split must reproduce the
    // single-process rendering byte for byte. The reference deliberately
    // runs without a store so the comparison also re-proves that a
    // store-backed distributed run equals a storeless in-memory one.
    let opts = mps_harness::ValidateOptions {
        core_counts: vec![2],
        policies: vec![mps_uncore::PolicyKind::Lru],
        workloads_per_group: 3,
        perturb: 1.0,
    };
    let artifacts = |ctx: &StudyContext| -> Vec<(&'static str, String)> {
        let validate = mps_harness::validate::run(ctx, &opts).unwrap();
        vec![
            ("fig3.csv", exp::fig3(ctx).unwrap().csv()),
            ("fig6.csv", exp::fig6(ctx).unwrap().csv()),
            ("fig7.csv", exp::fig7(ctx).unwrap().csv()),
            ("validate.jsonl", validate.to_jsonl()),
            ("validate.csv", validate.csv()),
        ]
    };
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        artifacts(&ctx)
    };
    // The worker processes are this crate's own binary. Cargo builds it
    // for this test target, so point the coordinator at it explicitly
    // rather than relying on a sibling lookup in the target directory.
    std::env::set_var("MPS_WORKER_CMD", env!("CARGO_BIN_EXE_mps-harness"));
    let base = std::env::temp_dir().join(format!("mps-dist-invariance-{}", std::process::id()));
    for workers in [1usize, 2, 4] {
        for jobs in [1usize, 4] {
            let dir = base.join(format!("w{workers}j{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let ctx = StudyContext::builder()
                .scale(mini())
                .jobs(jobs)
                .workers(workers)
                .store(&dir)
                .build()
                .unwrap();
            assert!(
                ctx.coordinator().is_some(),
                "workers={workers} should start a coordinator"
            );
            let run = artifacts(&ctx);
            for ((name, want), (_, got)) in reference.iter().zip(&run) {
                assert_eq!(
                    got, want,
                    "{name} differs between single-process and workers={workers}/jobs={jobs}"
                );
            }
            // Distributed runs must actually distribute: at least one cell
            // computed by a worker process, none re-issued in a clean run.
            let prov = ctx.coordinator().unwrap().provenance();
            assert!(
                prov.cells_remote > 0,
                "workers={workers}/jobs={jobs}: no cell was computed remotely"
            );
            drop(ctx); // shuts the coordinator and its workers down
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
