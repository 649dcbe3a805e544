//! Store I/O floors: what persisting and replaying a grid's cells costs,
//! and what one large record costs, on the host's filesystem.
//!
//! * `cell_journal_120` — 120 one-value cells (fig3 + fig6's grid at the
//!   study bench's scale) appended to a fresh store's cell journal, each
//!   synced, then all 120 read back through a fresh store handle. The
//!   store directory's creation and removal are inside the timing.
//! * `artifact_put_30k` — one 30 kB record (the size of a trace buffer at
//!   the study bench's scale) put atomically: temp file, fsync, rename.

use criterion::{criterion_group, criterion_main, Criterion};
use mps_store::{ArtifactKey, Store};
use std::hint::black_box;
use std::path::PathBuf;

/// A scratch directory unique to this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mps-store-io-{tag}-{}", std::process::id()))
}

fn cell_journal(c: &mut Criterion) {
    let dir = scratch("journal");
    let key = ArtifactKey::new("journal", "grid=bench");
    c.bench_function("cell_journal_120", |b| {
        b.iter(|| {
            let store = Store::open(&dir).expect("opening a scratch store");
            let journal = store.journal(&key);
            for cell in 0..120u64 {
                journal
                    .append(
                        mps_store::fnv1a64(&cell.to_le_bytes()),
                        &[cell as f64 / 7.0],
                    )
                    .expect("appending a cell");
            }
            let replay = Store::open(&dir).expect("reopening the store");
            let journal = replay.journal(&key);
            let sum: f64 = (0..120u64)
                .filter_map(|cell| journal.get(mps_store::fnv1a64(&cell.to_le_bytes()), 1))
                .map(|v| v[0])
                .sum();
            assert_eq!(replay.stats().hits, 120, "every cell replays");
            let _ = std::fs::remove_dir_all(&dir);
            black_box(sum)
        })
    });
}

fn artifact_put(c: &mut Criterion) {
    let dir = scratch("put");
    let store = Store::open(&dir).expect("opening a scratch store");
    let key = ArtifactKey::new("trace", "bench=mcf");
    let payload = vec![0x5au8; 30_000];
    c.bench_function("artifact_put_30k", |b| {
        b.iter(|| {
            store
                .put(&key, black_box(&payload))
                .expect("putting a record")
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = cell_journal, artifact_put
}
criterion_main!(benches);
