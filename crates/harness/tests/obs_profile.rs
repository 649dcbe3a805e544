//! Integration tests for the observability layer across the pipeline:
//! span records of a traced pipeline, StudyContext cache accounting,
//! counter determinism across identical runs, and the JSONL trace
//! round-trip.
//!
//! The obs counters are process-global, so every test here takes one
//! static mutex and starts with `mps_obs::reset()`; the suite stays
//! correct under the default multithreaded test runner.

use mps_harness::{Scale, StudyContext};
use mps_uncore::PolicyKind;
use std::sync::{Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(feature = "obs")]
mod enabled {
    use super::*;
    use mps_metrics::ThroughputMetric;
    use mps_obs::jsonl::Record;
    use mps_sampling::{
        analytic_confidence, empirical_confidence_jobs, PairData, RandomSampling,
        WorkloadStratification,
    };
    use mps_workloads::TraceSource;

    /// Reads one global counter by name (0 when absent).
    fn counter_value(name: &str) -> u64 {
        mps_obs::counters_snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    /// Parses span-tap lines back into records.
    fn records(lines: &[String]) -> Vec<Record> {
        mps_obs::jsonl::parse_all(&lines.join("\n")).expect("tap lines parse")
    }

    /// Drives every stage a study uses — trace synthesis, model building,
    /// population enumeration, BADCO and detailed runs, throughput tables,
    /// stratification and estimation — with the span tap installed.
    #[test]
    fn traced_pipeline_records_both_backends_and_cache_stats() {
        let _g = guard();
        mps_obs::reset();
        mps_obs::install_span_tap();
        let mut lines = Vec::new();
        let ctx = StudyContext::new(Scale::test());
        let cores = 2;

        let n = ctx.scale.trace_len;
        for spec in ctx.suite().to_vec() {
            let mut t = spec.trace();
            for _ in 0..n {
                std::hint::black_box(t.next_uop());
            }
        }
        ctx.models(cores).unwrap();
        let pop = ctx.population(cores).unwrap();
        let picks: Vec<_> = pop.workloads().iter().take(2).cloned().collect();
        for w in &picks {
            ctx.badco_run(cores, PolicyKind::Lru, w).unwrap();
        }
        for w in &picks {
            ctx.detailed_run(cores, PolicyKind::Lru, w).unwrap();
        }
        lines.extend(mps_obs::drain_span_tap());
        let tx = ctx.badco_table(cores, PolicyKind::Lru).unwrap();
        let ty = ctx.badco_table(cores, PolicyKind::Random).unwrap();
        let data = PairData::new(
            ThroughputMetric::WeightedSpeedup,
            tx.throughputs(ThroughputMetric::WeightedSpeedup),
            ty.throughputs(ThroughputMetric::WeightedSpeedup),
        );
        lines.extend(mps_obs::drain_span_tap());
        let strat = WorkloadStratification::build(
            &data.differences(),
            WorkloadStratification::DEFAULT_SD_THRESHOLD,
            WorkloadStratification::DEFAULT_MIN_SIZE.min(pop.len().max(1)),
        );
        let samples = ctx.scale.confidence_samples.min(200);
        let mut rng = ctx.rng(97);
        let jobs = ctx.jobs();
        let _ =
            empirical_confidence_jobs(&RandomSampling, &pop, &data, 10, samples, &mut rng, jobs);
        let _ = empirical_confidence_jobs(&strat, &pop, &data, 10, samples, &mut rng, jobs);
        let _ = analytic_confidence(&data, 10);
        lines.extend(mps_obs::drain_span_tap());

        // Both simulator backends must have simulated instructions and
        // touched the memory hierarchy.
        for c in [
            "sim.badco.instructions",
            "sim.badco.cache_accesses",
            "sim.badco.cache_misses",
            "sim.detailed.instructions",
            "sim.detailed.cache_accesses",
            "sim.detailed.cache_misses",
            "workloads.synth.uops",
            "uncore.llc.accesses",
        ] {
            assert!(counter_value(c) > 0, "counter {c} must be nonzero");
        }

        // StudyContext cache accounting: the pipeline builds each artifact
        // once and reuses it afterwards.
        let cache = ctx.cache_stats();
        assert_eq!(cache.model_misses, 1, "{cache:?}");
        assert!(cache.model_hits > 0, "{cache:?}");
        assert_eq!(cache.population_misses, 1, "{cache:?}");
        assert!(cache.population_hits >= 1, "{cache:?}");
        assert_eq!(cache.table_misses, 2, "LRU + RND tables: {cache:?}");
        assert_eq!(
            cache.trace_misses, 22,
            "one SoA capture per benchmark: {cache:?}"
        );
        assert!(cache.trace_hits > 0, "{cache:?}");
        assert_eq!(
            cache.hits(),
            cache.model_hits
                + cache.population_hits
                + cache.table_hits
                + cache.badco_ref_hits
                + cache.detailed_ref_hits
                + cache.trace_hits
        );

        // The cache figures are mirrored into obs counters.
        assert_eq!(counter_value("ctx.models.misses"), cache.model_misses);
        assert_eq!(counter_value("ctx.models.hits"), cache.model_hits);
        assert_eq!(counter_value("ctx.badco_table.misses"), cache.table_misses);
        assert_eq!(counter_value("ctx.traces.misses"), cache.trace_misses);

        // And the records show both simulator backends at work.
        let summary = mps_obs::analyze::summarize(&records(&lines));
        mps_obs::reset();
        for name in ["sim.badco.run", "sim.detailed.run"] {
            let calls = summary.by_name.get(name).map_or(0, |&(calls, _, _)| calls);
            assert!(calls > 0, "{name} must be recorded: {:?}", summary.by_name);
        }
    }

    #[test]
    fn a_span_opened_unrecorded_stays_unrecorded() {
        let _g = guard();
        mps_obs::reset();
        let c = mps_obs::counter("test.inert.work");
        let outer = mps_obs::span("test.inert.outer");
        c.add(5);
        mps_obs::install_span_tap();
        let inner = mps_obs::span("test.inert.inner");
        c.add(2);
        inner.finish();
        outer.finish();
        let recs = records(&mps_obs::drain_span_tap());
        assert_eq!(c.get(), 7, "counters count without a sink or tap");
        mps_obs::reset();
        let [Record::Span { name, parent, .. }] = recs.as_slice() else {
            panic!("only the span opened under the tap is recorded: {recs:?}");
        };
        assert_eq!(name, "test.inert.inner");
        assert_eq!(*parent, None, "an inert span is nobody's parent");
    }

    #[test]
    fn identical_runs_produce_identical_counters() {
        let _g = guard();
        let run = || {
            mps_obs::reset();
            let ctx = StudyContext::new(Scale::test());
            let w = ctx.population(2).unwrap().workloads()[0].clone();
            let _ = ctx.detailed_run(2, PolicyKind::Lru, &w).unwrap();
            let _ = ctx.badco_run(2, PolicyKind::Lru, &w).unwrap();
            (
                counter_value("sim.detailed.instructions"),
                counter_value("sim.detailed.cache_misses"),
                counter_value("sim.badco.instructions"),
                counter_value("sim.badco.cache_misses"),
                counter_value("uncore.llc.accesses"),
                counter_value("uncore.llc.evictions"),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give identical event counts");
        assert!(a.0 > 0 && a.2 > 0, "both backends must have run: {a:?}");
    }

    #[test]
    fn llc_writeback_counter_matches_memory_writes() {
        let _g = guard();
        mps_obs::reset();
        // A small LLC with stream prefetching on: a sequential store
        // stream trains the prefetcher, whose fills then evict dirty lines
        // just as demand misses do.
        let cfg = mps_uncore::UncoreConfig {
            llc_size: 16 << 10,
            llc_ways: 4,
            ..mps_uncore::UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        assert!(cfg.stream_prefetch);
        let mut u = mps_uncore::Uncore::new(cfg, 1);
        let before = counter_value("uncore.llc.writebacks");
        let mut t = 0;
        for i in 0..4_096u64 {
            t = u.access(0, i * 64, true, t);
        }
        u.flush_obs();
        let (_, writes) = u.memory_traffic();
        assert!(writes > 0, "the stream must evict dirty lines");
        assert_eq!(counter_value("uncore.llc.writebacks") - before, writes);
    }

    #[test]
    fn trace_sink_round_trips_through_the_parser() {
        let _g = guard();
        mps_obs::reset();
        let path = std::env::temp_dir().join("mps_obs_profile_trace.jsonl");
        let path_str = path.to_str().expect("temp path is utf-8");
        mps_obs::set_sink_path(path_str).expect("sink opens");

        let ctx = StudyContext::new(Scale::test());
        let w = ctx.population(2).unwrap().workloads()[0].clone();
        let outer = mps_obs::span("test.outer");
        let _ = ctx.badco_run(2, PolicyKind::Lru, &w).unwrap();
        outer.finish();
        mps_obs::reset(); // flushes and closes the sink

        let body = std::fs::read_to_string(&path).expect("trace file readable");
        let records = mps_obs::jsonl::parse_all(&body).expect("every line parses");
        let _ = std::fs::remove_file(&path);

        let spans: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                mps_obs::jsonl::Record::Span {
                    id,
                    parent,
                    name,
                    counters,
                    ..
                } => Some((*id, *parent, name.clone(), counters.clone())),
                mps_obs::jsonl::Record::Event { .. } => None,
            })
            .collect();
        assert!(!spans.is_empty(), "the run must emit span records");

        // The model builds and the BADCO run nest under test.outer, and the
        // outer span's deltas include the simulated instructions.
        let outer = spans
            .iter()
            .find(|(_, _, name, _)| name == "test.outer")
            .expect("outer span recorded");
        assert_eq!(outer.1, None, "outer span has no parent");
        assert!(
            outer.3.get("sim.badco.instructions").copied().unwrap_or(0) > 0,
            "outer span must see the run's instruction delta: {:?}",
            outer.3
        );
        let child = spans
            .iter()
            .find(|(_, _, name, _)| name == "sim.badco.run")
            .expect("badco run span recorded");
        assert!(child.1.is_some(), "sim.badco.run must have a parent span");
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::*;

    #[test]
    fn instrumentation_is_compiled_out() {
        let _g = guard();
        assert!(!mps_obs::enabled());
        let ctx = StudyContext::new(Scale::test());
        let w = ctx.population(2).unwrap().workloads()[0].clone();
        let _ = ctx.badco_run(2, PolicyKind::Lru, &w).unwrap();
        assert!(mps_obs::counters_snapshot().is_empty());
        // Cache accounting is plain struct state and works regardless.
        assert_eq!(ctx.cache_stats().model_misses, 1);
    }
}
