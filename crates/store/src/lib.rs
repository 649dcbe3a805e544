//! `mps-store` — durable artifacts for long-running studies.
//!
//! The paper's workflow (a large approximate-simulation pass feeding a
//! detailed-simulation phase) is exactly the kind of restartable batch
//! job that must survive crashes: this crate provides the persistence
//! layer everything above it builds on.
//!
//! * [`Store`] — a content-addressed, schema-versioned on-disk artifact
//!   store with atomic write-then-rename, checksum + truncation
//!   detection, quarantine of poisoned files and capacity-cap eviction.
//!   Hits, misses, puts, corruptions and evictions are mirrored into the
//!   `store.*` observability counters.
//! * [`CellJournal`] — one append-only, checksummed file per (study spec,
//!   grid) holding every completed experiment-grid cell, each entry
//!   `sync_data`'d before it counts, so a killed grid rerun on the same
//!   store recomputes only the cells it lacks. [`read_journal`] lists a
//!   journal file's valid entries.
//! * [`Ledger`] — an append-only, schema-versioned run ledger: one
//!   [`RunRecord`] per harness invocation (config hash, durations, store
//!   hit ratio, convergence summary), read back by `mps-harness runs`
//!   and rendered by `mps-harness report`.
//! * [`Enc`]/[`Dec`] — the offline-friendly binary codec artifacts are
//!   serialized with (exact `f64` bit patterns, bounds-checked reads).
//! * [`Error`] — the workspace-wide durable-run error enum, re-exported
//!   by the `mps` facade as `mps::Error`.
//!
//! See `docs/durability.md` for the store layout, keying scheme, cell
//! journals and the failure matrix.

mod codec;
mod error;
mod journal;
mod ledger;
#[allow(clippy::module_inception)]
mod store;

pub use codec::{fnv1a64, payload_checksum, Dec, Enc, Fnv1a64};
pub use error::{Error, Result};
pub use journal::{read_journal, CellJournal, JournalEntry};
pub use ledger::{Ledger, RunRecord, LEDGER_SCHEMA};
pub use store::{ArtifactKey, Store, StoreStats, KERNEL_REV, MIN_SCHEMA, SCHEMA};
