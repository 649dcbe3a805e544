//! Grid cells as store records: a poisoned cell record is quarantined and
//! recomputed without changing the artifact, and records never serve a
//! study with another spec.

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

/// The store's grid-cell record files, sorted.
fn cell_records(store: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store.join("artifacts"))
        .expect("artifacts dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("cell-"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn poisoned_cell_records_are_quarantined_and_recomputed() {
    let truncate = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() - 9);
    // Flip one bit inside the payload (the 16-byte footer follows it).
    let flip = |bytes: &mut Vec<u8>| {
        let at = bytes.len() - 20;
        bytes[at] ^= 0x10;
    };
    for (name, poison) in [
        ("truncated", &truncate as &dyn Fn(&mut Vec<u8>)),
        ("bit-flipped", &flip),
    ] {
        let tmp = TempDir::new(name);
        let first = fig3(&context(Scale::test(), &tmp.0));
        let records = cell_records(&tmp.0);
        assert!(!records.is_empty(), "fig3 records its cells");
        let mut bytes = std::fs::read(&records[0]).unwrap();
        poison(&mut bytes);
        std::fs::write(&records[0], bytes).unwrap();

        let ctx = context(Scale::test(), &tmp.0);
        assert_eq!(
            fig3(&ctx),
            first,
            "a {name} cell record must not change the artifact"
        );
        let stats = ctx.store_stats().unwrap();
        assert_eq!(stats.corrupt, 1, "the {name} record is quarantined");
        assert_eq!(stats.puts, 1, "only the {name} cell is recomputed");
        assert_eq!(cell_records(&tmp.0).len(), records.len());
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
    let filled = cell_records(&tmp.0).len();

    let other = Scale {
        seed: scale.seed ^ 1,
        ..scale
    };
    let ctx = context(other, &tmp.0);
    fig3(&ctx);
    let stats = ctx.store_stats().unwrap();
    assert_eq!(stats.hits, 0, "a store filled at another seed has no hits");
    assert_eq!(cell_records(&tmp.0).len(), 2 * filled);
}
