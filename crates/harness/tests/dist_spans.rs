//! Worker span shipping for the distributed coordinator.
//!
//! A traced distributed run must put each worker's spans into the
//! coordinator's trace, worker-tagged and id-namespaced so that every
//! shipped span's parent resolves inside its own worker's namespace. An
//! untraced run must ship nothing: workers record no spans at all. In
//! both legs the artifacts are byte-identical to a single-process run.
//! This file holds exactly one test: the trace sink and the counters it
//! reads are process-global.

use mps_harness::export::CsvExport;
use mps_harness::{experiments as exp, Scale, StudyContext};
use mps_obs::jsonl::Record;

/// Trimmed like the invariance suite's `mini()`: the point is the
/// shipping path, not simulation volume.
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

/// fig3 rendered as text and CSV, from a fresh 2-worker run on `dir`.
fn run_fig3(dir: &std::path::Path) -> (String, String, mps_harness::dist::Provenance) {
    let _ = std::fs::remove_dir_all(dir);
    let ctx = StudyContext::builder()
        .scale(mini())
        .jobs(2)
        .workers(2)
        .store(dir)
        .build()
        .unwrap();
    let report = exp::fig3(&ctx).unwrap();
    let prov = ctx.coordinator().unwrap().provenance();
    drop(ctx); // shuts the coordinator and its workers down
    let _ = std::fs::remove_dir_all(dir);
    (report.to_string(), report.csv(), prov)
}

#[test]
fn traced_runs_ship_worker_spans_and_untraced_runs_ship_none() {
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        let report = exp::fig3(&ctx).unwrap();
        (report.to_string(), report.csv())
    };
    std::env::set_var("MPS_WORKER_CMD", env!("CARGO_BIN_EXE_mps-harness"));
    let base = std::env::temp_dir().join(format!("mps-dist-spans-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();

    // Leg 1: the coordinator records a trace, so workers ship spans.
    let trace = base.join("trace.jsonl");
    mps_obs::reset();
    mps_obs::set_sink_path(trace.to_str().unwrap()).unwrap();
    let (text, csv, prov) = run_fig3(&base.join("traced"));
    let shipped = mps_obs::counter("dist.spans.shipped").get();
    mps_obs::reset(); // flushes and closes the sink
    assert_eq!(
        (text, csv),
        reference,
        "traced 2-worker fig3 differs from the single-process run"
    );
    assert!(prov.cells_remote > 0, "no cell was computed remotely");
    if mps_obs::enabled() {
        let body = std::fs::read_to_string(&trace).unwrap();
        let records = mps_obs::jsonl::parse_all(&body).expect("the trace parses");
        let mut per_worker: std::collections::BTreeMap<String, Vec<Record>> = Default::default();
        for r in &records {
            if let Record::Span {
                worker: Some(w),
                id,
                parent,
                ..
            } = r
            {
                if let Some(p) = parent {
                    assert_eq!(p >> 48, id >> 48, "{w}: parent outside the namespace");
                }
                per_worker.entry(w.clone()).or_default().push(r.clone());
            }
        }
        let tagged: usize = per_worker.values().map(Vec::len).sum();
        assert!(tagged > 0, "the trace holds no worker-tagged span");
        assert_eq!(shipped, tagged as u64, "every shipped span is in the trace");
        // Within one worker's spans, a parent that does not resolve
        // promotes its child to a root: the roots must be exactly the
        // spans that had no parent to begin with.
        for (w, spans) in &per_worker {
            let parentless = spans
                .iter()
                .filter(|r| matches!(r, Record::Span { parent: None, .. }))
                .count() as u64;
            let summary = mps_obs::analyze::summarize(spans);
            let roots: u64 = summary.roots.iter().map(|n| n.calls).sum();
            assert_eq!(roots, parentless, "{w}: a shipped span's parent is missing");
        }
    }

    // Leg 2: no trace, so workers record and ship nothing.
    let (text, csv, prov) = run_fig3(&base.join("untraced"));
    assert_eq!(
        (text, csv),
        reference,
        "untraced 2-worker fig3 differs from the single-process run"
    );
    assert!(prov.cells_remote > 0, "no cell was computed remotely");
    assert_eq!(
        mps_obs::counter("dist.spans.shipped").get(),
        0,
        "an untraced run shipped spans"
    );
    let _ = std::fs::remove_dir_all(&base);
}
