//! End-to-end drift-gate demonstration: an artificially perturbed BADCO
//! model must breach the `--fail-on` thresholds against the honest
//! baseline, while the unmodified model reproduces the baseline exactly
//! (the simulators are deterministic) and passes.

use mps_harness::export::CsvExport;
use mps_harness::{Baseline, FailOn, Scale, StudyContext, ValidateOptions};
use mps_sampling::Workload;
use mps_uncore::PolicyKind;

/// Trimmed scale: the gate semantics do not depend on grid size, only on
/// paired sweeps sharing one grid.
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

fn opts(perturb: f64) -> ValidateOptions {
    ValidateOptions {
        core_counts: vec![2],
        policies: vec![PolicyKind::Lru, PolicyKind::Drrip],
        workloads_per_group: 4,
        perturb,
    }
}

#[test]
fn perturbed_model_breaches_gate_and_honest_model_passes() {
    let gate = FailOn::parse("mean-abs-err=5%,rank-inversions=3").unwrap();

    // Baseline sweep with the unmodified model.
    let ctx = StudyContext::new(mini());
    let honest = mps_harness::validate::run(&ctx, &opts(1.0)).unwrap();
    let baseline = Baseline::parse(&honest.to_jsonl()).unwrap();

    // A fresh context (cold caches) with the same scale reproduces the
    // baseline bit-exactly, so zero drift: the gate passes.
    let rerun_ctx = StudyContext::new(mini());
    let rerun = mps_harness::validate::run(&rerun_ctx, &opts(1.0)).unwrap();
    assert_eq!(
        rerun.to_jsonl(),
        honest.to_jsonl(),
        "deterministic sweeps must reproduce the baseline byte for byte"
    );
    assert!(
        gate.breaches(&rerun, &baseline).is_empty(),
        "unmodified model must pass its own baseline"
    );

    // Halving every model coefficient (weights and stall factors) is a
    // gross model change; mean absolute error must drift past the 5 %
    // relative allowance.
    let perturbed = mps_harness::validate::run(&ctx, &opts(0.5)).unwrap();
    assert!(
        perturbed.summary.ipc_err.mean_abs > honest.summary.ipc_err.mean_abs,
        "perturbation must increase model error (honest {} vs perturbed {})",
        honest.summary.ipc_err.mean_abs,
        perturbed.summary.ipc_err.mean_abs
    );
    let breaches = gate.breaches(&perturbed, &baseline);
    assert!(
        !breaches.is_empty(),
        "perturbed model must breach the drift gate (honest mean-abs-err {}, \
         perturbed {})",
        honest.summary.ipc_err.mean_abs,
        perturbed.summary.ipc_err.mean_abs
    );
    assert!(
        breaches.iter().any(|b| b.contains("drifted")),
        "breach should name the drifted statistic: {breaches:?}"
    );

    // The perturbed report shares the honest spec (that is what lets the
    // gate compare them) but declares its factor in the header.
    assert_eq!(perturbed.spec, honest.spec);
    assert!(perturbed.to_jsonl().contains("\"perturb\":\"0.5\""));
}

/// The study bench replays validate's cells one (cores, policy) group at
/// a time through `validation_detailed_ipcs_batch`; it must return exactly
/// what per-workload `validation_detailed_ipcs` calls return, in order.
#[test]
fn group_entry_point_matches_per_workload_runs() {
    let ctx = StudyContext::new(mini());
    let report = mps_harness::validate::run(&ctx, &opts(1.0)).unwrap();
    for g in &report.groups {
        let workloads: Vec<Workload> = g
            .rows
            .iter()
            .map(|row| Workload::new(row.benchmarks.clone()))
            .collect();
        let grouped = ctx
            .validation_detailed_ipcs_batch(g.cores, g.policy, &workloads)
            .unwrap();
        assert_eq!(grouped.len(), workloads.len());
        for ((w, got), row) in workloads.iter().zip(&grouped).zip(&g.rows) {
            let want = ctx.validation_detailed_ipcs(g.cores, g.policy, w).unwrap();
            assert_eq!(got, &want, "{} {} {}", g.cores, g.policy, row.name);
            assert_eq!(got, &row.detailed_ipc, "report row {}", row.name);
        }
    }
    assert!(ctx
        .validation_detailed_ipcs_batch(2, PolicyKind::Lru, &[])
        .unwrap()
        .is_empty());
}

/// A validate cell's workload is drawn from the stream of its policy's
/// position in the sweep, so a sweep with the policies reversed draws
/// other workloads for the same policy. Cell records are keyed by the
/// full descriptor (position included): two such sweeps sharing a store
/// must each report exactly what they report on a fresh store.
#[test]
fn reversed_policy_sweeps_share_a_store_safely() {
    let dir = std::env::temp_dir().join(format!("mps-validate-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = |policies: Vec<PolicyKind>, store: Option<&std::path::Path>| {
        let mut b = StudyContext::builder().scale(mini()).jobs(2);
        if let Some(dir) = store {
            b = b.store(dir);
        }
        let opts = ValidateOptions {
            policies,
            ..opts(1.0)
        };
        mps_harness::validate::run(&b.build().unwrap(), &opts)
            .unwrap()
            .csv()
    };
    let forward = vec![PolicyKind::Lru, PolicyKind::Drrip];
    let reversed = vec![PolicyKind::Drrip, PolicyKind::Lru];
    let fresh_forward = sweep(forward.clone(), None);
    let fresh_reversed = sweep(reversed.clone(), None);
    assert_ne!(fresh_forward, fresh_reversed, "the order changes the draws");
    assert_eq!(sweep(forward, Some(&dir)), fresh_forward);
    assert_eq!(sweep(reversed, Some(&dir)), fresh_reversed);
    let _ = std::fs::remove_dir_all(&dir);
}
