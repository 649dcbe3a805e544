//! Grid cells in cell journals: one journal per grid and no per-cell
//! file, a poisoned cell entry is quarantined and recomputed without
//! changing the artifact, and journals never serve a study with another
//! spec.

use mps_harness::export::CsvExport;
use mps_harness::{experiments, Scale, StudyContext};
use std::path::{Path, PathBuf};

/// A scratch store directory removed on drop (best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mps-cells-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn context(scale: Scale, store: &Path) -> StudyContext {
    StudyContext::builder()
        .scale(scale)
        .jobs(2)
        .store(store)
        .build()
        .expect("opening the store")
}

/// Figure 3 rendered as text and CSV.
fn fig3(ctx: &StudyContext) -> (String, String) {
    let r = experiments::fig3(ctx).expect("fig3");
    (r.to_string(), r.csv())
}

/// The store's cell journal files, sorted.
fn journals(store: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store.join("artifacts"))
        .expect("artifacts dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("journal-"))
        })
        .collect();
    files.sort();
    files
}

/// The store's recorded grid cells: the valid entries of its journals.
fn cell_records(store: &Path) -> usize {
    journals(store)
        .iter()
        .map(|j| {
            mps_store::read_journal(j)
                .expect("a readable journal")
                .len()
        })
        .sum()
}

#[test]
fn cold_figures_keep_one_journal_per_grid() {
    let tmp = TempDir::new("journals");
    let render = |ctx: &StudyContext| {
        let f3 = experiments::fig3(ctx).expect("fig3");
        let f6 = experiments::fig6(ctx).expect("fig6");
        [(f3.to_string(), f3.csv()), (f6.to_string(), f6.csv())]
    };
    let cold = render(&context(Scale::test(), &tmp.0));
    let names: Vec<String> = std::fs::read_dir(tmp.0.join("artifacts"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.starts_with("cell-")),
        "no per-cell record files: {names:?}"
    );
    assert_eq!(
        journals(&tmp.0).len(),
        2,
        "one journal each for fig3 and fig6"
    );
    assert!(cell_records(&tmp.0) > 0);
    assert_eq!(render(&context(Scale::test(), &tmp.0)), cold);
}

#[test]
fn poisoned_cell_records_are_quarantined_and_recomputed() {
    // Cut the last entry short: a torn tail.
    let truncate = |bytes: &mut Vec<u8>, _: &mps_store::JournalEntry| {
        bytes.truncate(bytes.len() - 9);
    };
    // Flip one bit inside the first entry's payload.
    let flip = |bytes: &mut Vec<u8>, first: &mps_store::JournalEntry| {
        bytes[first.payload.start] ^= 0x10;
    };
    for (name, poison) in [
        (
            "truncated",
            &truncate as &dyn Fn(&mut Vec<u8>, &mps_store::JournalEntry),
        ),
        ("bit-flipped", &flip),
    ] {
        let tmp = TempDir::new(name);
        let first = fig3(&context(Scale::test(), &tmp.0));
        let records = cell_records(&tmp.0);
        assert!(records > 0, "fig3 records its cells");
        let journal = &journals(&tmp.0)[0];
        let entries = mps_store::read_journal(journal).unwrap();
        let mut bytes = std::fs::read(journal).unwrap();
        poison(&mut bytes, &entries[0]);
        std::fs::write(journal, bytes).unwrap();

        let ctx = context(Scale::test(), &tmp.0);
        assert_eq!(
            fig3(&ctx),
            first,
            "a {name} cell record must not change the artifact"
        );
        let stats = ctx.store_stats().unwrap();
        assert_eq!(stats.corrupt, 1, "the {name} record is quarantined");
        assert_eq!(stats.puts, 1, "only the {name} cell is recomputed");
        assert_eq!(cell_records(&tmp.0), records);
        assert!(
            std::fs::read_dir(tmp.0.join("quarantine"))
                .unwrap()
                .next()
                .is_some(),
            "the {name} record is kept in quarantine"
        );
    }
}

#[test]
fn records_never_serve_another_seed() {
    let tmp = TempDir::new("seed");
    let scale = Scale::test();
    fig3(&context(scale.clone(), &tmp.0));
    let filled = cell_records(&tmp.0);

    let other = Scale {
        seed: scale.seed ^ 1,
        ..scale
    };
    let ctx = context(other, &tmp.0);
    fig3(&ctx);
    let stats = ctx.store_stats().unwrap();
    assert_eq!(stats.hits, 0, "a store filled at another seed has no hits");
    assert_eq!(cell_records(&tmp.0), 2 * filled);
}
