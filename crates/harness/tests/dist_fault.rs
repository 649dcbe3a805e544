//! Dead-worker fault injection for the distributed coordinator.
//!
//! `MPS_DIST_EXIT_AFTER_CELLS=N` makes every worker process call
//! `exit(86)` right after its N-th cell evaluation — *before* reporting
//! the result, exactly the state a SIGKILL leaves behind. The coordinator
//! must notice the closed connection, re-queue the in-flight cell, and
//! finish the grid at once with byte-identical artifacts. This file holds
//! exactly one test: the env var is process-global and must not leak into
//! sibling tests.

use mps_harness::export::CsvExport;
use mps_harness::{experiments as exp, Scale, StudyContext};
use std::time::{Duration, Instant};

/// The coordinator's grace period for a first worker to attach. Once the
/// workers have attached and died, no grid may wait it out again.
const WORKER_WAIT: Duration = Duration::from_secs(10);

/// Trimmed like the invariance suite's `mini()`: the point is the
/// failure path, not simulation volume.
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
fn killed_workers_cells_are_requeued_and_recovered() {
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        exp::fig3(&ctx).unwrap().csv()
    };

    // Every spawned worker dies mid-task after its first cell.
    std::env::set_var("MPS_DIST_EXIT_AFTER_CELLS", "1");
    let dir = std::env::temp_dir().join(format!("mps-dist-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = StudyContext::builder()
        .scale(mini())
        .jobs(2)
        .workers(2)
        .store(&dir)
        .build()
        .unwrap();
    let started = Instant::now();
    let fig3 = exp::fig3(&ctx).unwrap().csv();
    let took = started.elapsed();
    std::env::remove_var("MPS_DIST_EXIT_AFTER_CELLS");

    assert_eq!(
        fig3, reference,
        "fig3 after worker deaths differs from the single-process run"
    );
    let prov = ctx.coordinator().unwrap().provenance();
    assert!(
        prov.requeued > 0,
        "worker deaths should re-queue in-flight cells (provenance: {prov:?})"
    );
    assert_eq!(
        prov.cells_remote, 0,
        "workers die before reporting, so no cell can be counted remote"
    );
    assert!(
        prov.cells_local > 0,
        "the coordinator should finish the grid locally"
    );
    assert!(
        took < WORKER_WAIT,
        "recovery took {took:?}: a grid waited for workers that had all died"
    );
    assert!(
        !dir.join("leases").exists(),
        "a distributed run must leave no leases/ directory in the store"
    );
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}
