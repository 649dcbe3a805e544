//! Integration tests for the observability layer across the pipeline:
//! profile report contents, StudyContext cache accounting, counter
//! determinism across identical runs, and the JSONL trace round-trip.
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
    use mps_harness::experiments as exp;

    /// Reads one global counter by name (0 when absent).
    fn counter_value(name: &str) -> u64 {
        mps_obs::counters_snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    #[test]
    fn profile_pipeline_reports_both_backends_and_cache_stats() {
        let _g = guard();
        mps_obs::reset();
        let ctx = StudyContext::new(Scale::test());
        let report = exp::profile(&ctx).unwrap();

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
        assert_eq!(report.cache, cache, "report must carry the same stats");
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

        // And the rendered report mentions every section.
        let text = report.to_string();
        for needle in [
            "phase.trace_gen",
            "phase.model_build",
            "phase.sim.badco",
            "phase.sim.detailed",
            "phase.sampling",
            "phase.estimation",
            "-- simulator speed --",
            "-- study-context caches (hits / rebuilds) --",
            "sim.badco.instructions",
        ] {
            assert!(
                text.contains(needle),
                "report must contain {needle:?}:\n{text}"
            );
        }
        assert!(
            report.mips.0 > 0.0 && report.mips.1 > 0.0,
            "{:?}",
            report.mips
        );
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
        assert!(mps_obs::span_stats().is_empty());
        assert!(mps_obs::profile_report().contains("disabled"));
        // Cache accounting is plain struct state and works regardless.
        assert_eq!(ctx.cache_stats().model_misses, 1);
    }
}
