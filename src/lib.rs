//! Facade crate for the multicore-throughput workload-sampling workspace.
//!
//! Re-exports every subsystem under one roof so examples and downstream
//! users can write `use mps::sampling::...` instead of depending on each
//! crate individually.
//!
//! This workspace is a from-scratch Rust reproduction of
//! *"Selecting Benchmark Combinations for the Evaluation of Multicore
//! Throughput"* (Velásquez, Michaud, Seznec — ISPASS 2013). See the
//! repository `README.md`, `DESIGN.md` and `EXPERIMENTS.md` for the full
//! inventory.
//!
//! # Quickstart
//!
//! ```
//! use mps::sampling::WorkloadSpace;
//! use mps::stats::required_sample_size;
//!
//! // 22 benchmarks on 4 cores: the paper's 12650-workload population.
//! let space = WorkloadSpace::new(22, 4);
//! assert_eq!(space.population_size(), 12650);
//!
//! // LRU-vs-FIFO-sized effects (cv ≈ 1) need only 8 random workloads.
//! assert_eq!(required_sample_size(1.0), 8);
//! ```
//!
//! # Durable studies
//!
//! A [`prelude::StudyBuilder`] study with an artifact store survives
//! kills and reruns: every artifact and every completed grid cell is a
//! store record, so a rerun recomputes only what it lacks (see
//! `docs/durability.md`):
//!
//! ```no_run
//! use mps::prelude::*;
//!
//! let ctx = StudyContext::builder()
//!     .scale(Scale::test())
//!     .store("study-store")
//!     .build()?;
//! let table = ctx.badco_table(2, PolicyKind::Lru)?; // loaded-or-computed
//! # let _ = table;
//! # Ok::<(), mps::Error>(())
//! ```
//!
//! Add `.workers(N)` to shard experiment grids across worker processes
//! with byte-identical artifacts (see `docs/distributed.md`).

// API v1: the deprecated surface (CLI aliases, panicking accessor shims)
// was removed; keep anything re-deprecated from slipping through silently.
#![deny(deprecated)]

pub use mps_badco as badco;
pub use mps_harness as harness;
pub use mps_metrics as metrics;
pub use mps_par as par;
pub use mps_sampling as sampling;
pub use mps_sim_cpu as sim_cpu;
pub use mps_stats as stats;
pub use mps_store as store;
pub use mps_uncore as uncore;
pub use mps_workloads as workloads;

pub use mps_store::Error;

/// The common vocabulary for running studies: one `use mps::prelude::*`
/// pulls in the builder API, the scaling presets, the store types and the
/// enums experiments are parameterized over.
pub mod prelude {
    pub use mps_harness::{Scale, StudyBuilder, StudyCacheStats, StudyContext};
    pub use mps_metrics::ThroughputMetric;
    pub use mps_sampling::{PairData, Population, Workload};
    pub use mps_store::{ArtifactKey, Error, Store, StoreStats};
    pub use mps_uncore::PolicyKind;
}
