//! What a warm build reads: a store filled by one cold fig3 + fig6 serves
//! both figures byte-identically to a fresh context, and the BADCO
//! models and reference IPCs behind the stored tables matter only when a
//! table itself is missing. Likewise a warm fig7 reads no detailed
//! reference IPCs, and a warm validate decodes no BADCO model.

use mps_harness::export::CsvExport;
use mps_harness::{experiments, validate, Error, Scale, StudyContext, ValidateOptions};
use mps_uncore::PolicyKind;
use std::path::{Path, PathBuf};

/// A scratch store directory removed on drop (best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mps-warm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn context(store: &Path) -> StudyContext {
    StudyContext::builder()
        .scale(Scale::test())
        .jobs(2)
        .store(store)
        .build()
        .expect("opening the store")
}

/// fig3 and fig6, each rendered as text and CSV.
type Rendered = [(String, String); 2];

fn render(ctx: &StudyContext) -> Rendered {
    let f3 = experiments::fig3(ctx).expect("fig3");
    let f6 = experiments::fig6(ctx).expect("fig6");
    [(f3.to_string(), f3.csv()), (f6.to_string(), f6.csv())]
}

/// Fills a fresh store with one cold fig3 + fig6 and returns what it
/// rendered.
fn filled(tmp: &TempDir) -> Rendered {
    render(&context(&tmp.0))
}

/// The store's record files of `kind`.
fn records(store: &Path, kind: &str) -> Vec<PathBuf> {
    let prefix = format!("{kind}-");
    std::fs::read_dir(store.join("artifacts"))
        .expect("artifacts dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

/// Deletes the store's records of `kind`; how many there were.
fn delete_records(store: &Path, kind: &str) -> usize {
    let files = records(store, kind);
    for f in &files {
        std::fs::remove_file(f).expect("removing a record");
    }
    files.len()
}

#[test]
fn warm_context_renders_identical_figures() {
    let tmp = TempDir::new("identical");
    let cold = filled(&tmp);
    let warm = context(&tmp.0);
    assert_eq!(render(&warm), cold);
    let stats = warm.store_stats().expect("store attached");
    assert_eq!(stats.puts, 0, "a warm build writes nothing: {stats:?}");
    assert_eq!(stats.misses, 0, "a warm build misses nothing: {stats:?}");
    // It reads the records it renders and nothing behind them.
    let cells: usize = records(&tmp.0, "journal")
        .iter()
        .map(|j| {
            mps_store::read_journal(j)
                .expect("a readable journal")
                .len()
        })
        .sum();
    let rendered: usize = ["population", "perf-table"]
        .iter()
        .map(|kind| records(&tmp.0, kind).len())
        .sum::<usize>()
        + cells;
    assert_eq!(stats.hits, rendered as u64, "{stats:?}");
    let cache = warm.cache_stats();
    assert_eq!((cache.model_hits, cache.model_misses), (0, 0), "{cache:?}");
    assert_eq!(cache.badco_ref_misses, 0, "{cache:?}");
    assert_eq!(cache.trace_misses, 0, "{cache:?}");
}

#[test]
fn stored_tables_outlive_their_inputs() {
    let tmp = TempDir::new("no-inputs");
    let cold = filled(&tmp);
    assert_eq!(delete_records(&tmp.0, "badco-models"), 2);
    assert_eq!(delete_records(&tmp.0, "badco-refs"), 2);
    assert_eq!(render(&context(&tmp.0)), cold);
}

#[test]
fn deleted_tables_rebuild_identically() {
    let tmp = TempDir::new("no-tables");
    let cold = filled(&tmp);
    assert_eq!(delete_records(&tmp.0, "perf-table"), 7);
    let ctx = context(&tmp.0);
    assert_eq!(render(&ctx), cold);
    let stats = ctx.store_stats().expect("store attached");
    assert_eq!(stats.puts, 7, "only the tables are rebuilt: {stats:?}");
}

#[test]
fn warm_fig7_reads_no_detailed_reference() {
    let tmp = TempDir::new("fig7");
    let render = |ctx: &StudyContext| {
        let f7 = experiments::fig7(ctx).expect("fig7");
        (f7.to_string(), f7.csv())
    };
    let cold = render(&context(&tmp.0));
    let warm = context(&tmp.0);
    assert_eq!(render(&warm), cold);
    let cache = warm.cache_stats();
    assert_eq!(cache.detailed_ref_misses, 0, "{cache:?}");
    assert_eq!(cache.trace_misses, 0, "{cache:?}");
}

#[test]
fn warm_validate_reads_no_badco_model() {
    let tmp = TempDir::new("validate");
    let run = |ctx: &StudyContext| {
        let mut report = validate::run(ctx, &ValidateOptions::default()).expect("validate");
        report.wall_ms = 0;
        (report.to_string(), report.csv())
    };
    let cold = run(&context(&tmp.0));
    let warm = context(&tmp.0);
    assert_eq!(run(&warm), cold);
    let cache = warm.cache_stats();
    assert_eq!((cache.model_hits, cache.model_misses), (0, 0), "{cache:?}");
    let stats = warm.store_stats().expect("store attached");
    assert_eq!(stats.puts, 0, "a warm validate writes nothing: {stats:?}");
}

#[test]
fn invalid_inputs_fail_before_touching_the_store() {
    let tmp = TempDir::new("invalid");
    let ctx = context(&tmp.0);
    let before = (ctx.store_stats(), ctx.cache_stats());
    assert!(matches!(
        ctx.badco_table(3, PolicyKind::Lru),
        Err(Error::InvalidInput(_))
    ));
    assert!(matches!(
        ctx.badco_reference_ipcs(0),
        Err(Error::InvalidInput(_))
    ));
    assert!(matches!(ctx.models(0), Err(Error::InvalidInput(_))));
    assert_eq!((ctx.store_stats(), ctx.cache_stats()), before);
}
