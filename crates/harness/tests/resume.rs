//! End-to-end durability tests against the real `mps-harness` binary:
//! a run killed mid-grid (via the `MPS_ABORT_AFTER_CELLS` test hook,
//! which calls `abort()` right after a synced cell-journal append) must,
//! when simply rerun on the same store, produce output byte-identical to
//! an uninterrupted run — at both `--jobs 1` and `--jobs 4` — while
//! recomputing only the cells the killed run did not record; and a warm
//! store must serve reruns from hits instead of recomputing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory removed on drop (best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mps-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating scratch dir");
        TempDir(dir)
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn harness(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mps-harness"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    // Keep the child insulated from ambient configuration.
    cmd.env_remove("MPS_STORE").env_remove("MPS_JOBS");
    cmd.output().expect("spawning mps-harness")
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The binary's trailing `store: N hits, M misses, P puts, ...` stderr
/// summary, as `(hits, misses, puts)`.
fn store_summary(output: &Output) -> (u64, u64, u64) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("store: "))
        .unwrap_or_else(|| panic!("no store summary in stderr:\n{stderr}"));
    let n: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    match n[..] {
        [hits, misses, puts, ..] => (hits, misses, puts),
        _ => panic!("unparseable store summary: {line}"),
    }
}

fn store_hits(output: &Output) -> u64 {
    store_summary(output).0
}

/// The store's recorded grid cells: the valid entries of its journals.
fn cell_records(store: &Path) -> usize {
    std::fs::read_dir(store.join("artifacts"))
        .map(|d| {
            d.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("journal-"))
                .map(|e| mps_store::read_journal(&e.path()).map_or(0, |j| j.len()))
                .sum()
        })
        .unwrap_or(0)
}

fn kill_and_rerun_is_byte_identical(jobs: &str) {
    let tmp = TempDir::new(&format!("fig3-j{jobs}"));
    let store = tmp.path("store");
    let (reference, interrupted) = (tmp.path("ref"), tmp.path("int"));
    let common = ["fig3", "--scale", "test", "--jobs", jobs];

    // Uninterrupted reference, no store involved at all.
    let out = harness(
        &[&common[..], &["--out", reference.to_str().unwrap()]].concat(),
        &[],
    );
    assert!(out.status.success(), "reference run failed: {out:?}");

    // The same study, killed right after its second cell record...
    let args = [
        &common[..],
        &[
            "--store",
            store.to_str().unwrap(),
            "--out",
            interrupted.to_str().unwrap(),
        ],
    ]
    .concat();
    let out = harness(&args, &[("MPS_ABORT_AFTER_CELLS", "2")]);
    assert!(
        !out.status.success(),
        "abort hook should have killed the run: {out:?}"
    );
    assert_eq!(cell_records(&store), 2, "the killed run recorded two cells");

    // ...then rerun plainly: the two recorded cells are store hits, and
    // the only puts are the missing cells plus the rendered report.
    let out = harness(&args, &[]);
    assert!(out.status.success(), "rerun failed: {out:?}");
    let cells = cell_records(&store);
    assert!(cells > 2, "the rerun recorded the remaining cells");
    let (hits, misses, puts) = store_summary(&out);
    let missing = cells as u64 - 2;
    assert_eq!(
        puts,
        missing + 1,
        "rerun must put only the {missing} missing cells and the report"
    );
    assert_eq!(
        misses, puts,
        "every miss is a recomputed, recorded artifact"
    );
    assert!(hits >= 2, "the recorded cells must be served as hits");

    for file in ["fig3.txt", "fig3.csv"] {
        assert_eq!(
            read(&reference.join(file)),
            read(&interrupted.join(file)),
            "{file} differs between uninterrupted and killed-then-rerun runs at --jobs {jobs}"
        );
    }
}

#[test]
fn killed_run_reruns_byte_identically_jobs_1() {
    kill_and_rerun_is_byte_identical("1");
}

#[test]
fn killed_run_reruns_byte_identically_jobs_4() {
    kill_and_rerun_is_byte_identical("4");
}

#[test]
fn resume_flag_is_an_unknown_argument() {
    for args in [&["fig3", "--resume"][..], &["validate", "--resume"]] {
        let out = harness(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("'--resume'"),
            "{args:?} must name the unknown argument: {out:?}"
        );
    }
}

#[test]
fn warm_store_serves_tables_from_hits() {
    let tmp = TempDir::new("warm");
    let store = tmp.path("store");
    let (cold_out, warm_out) = (tmp.path("cold"), tmp.path("warm"));
    let args = |out: &Path| {
        vec![
            "table1".to_owned(),
            "table2".to_owned(),
            "table4".to_owned(),
            "--scale".to_owned(),
            "test".to_owned(),
            "--jobs".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            store.to_str().unwrap().to_owned(),
            "--out".to_owned(),
            out.to_str().unwrap().to_owned(),
        ]
    };

    let cold_args = args(&cold_out);
    let cold = harness(
        &cold_args.iter().map(String::as_str).collect::<Vec<_>>(),
        &[],
    );
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    assert_eq!(store_hits(&cold), 0, "a fresh store cannot have hits");

    let warm_args = args(&warm_out);
    let warm = harness(
        &warm_args.iter().map(String::as_str).collect::<Vec<_>>(),
        &[],
    );
    assert!(warm.status.success(), "warm run failed: {warm:?}");
    assert!(
        store_hits(&warm) >= 1,
        "warm rerun should hit the store: {}",
        String::from_utf8_lossy(&warm.stderr)
    );

    // Serving from the store must not change the rendered outputs.
    for file in ["table1.txt", "table2.txt", "table4.txt", "table4.csv"] {
        assert_eq!(
            read(&cold_out.join(file)),
            read(&warm_out.join(file)),
            "{file} differs between cold and warm store runs"
        );
    }
}

#[test]
fn no_store_flag_disables_persistence() {
    let tmp = TempDir::new("nostore");
    let out_dir = tmp.path("out");
    // MPS_STORE is stripped by `harness()`, so pass the store via flag and
    // then override it with --no-store: nothing may be written.
    let store = tmp.path("store");
    let out = harness(
        &[
            "table1",
            "--scale",
            "test",
            "--store",
            store.to_str().unwrap(),
            "--no-store",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[],
    );
    assert!(out.status.success(), "--no-store run failed: {out:?}");
    assert!(
        !store.exists(),
        "--no-store must win over --store, but the store dir was created"
    );
    assert!(out_dir.join("table1.txt").exists());
}
