//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Artifact | Paper content | Module |
//! |----------|---------------|--------|
//! | Table I   | core configuration | [`experiments::tables`] |
//! | Table II  | uncore configurations | [`experiments::tables`] |
//! | Table III | detailed vs BADCO simulation speed | [`experiments::accuracy`] |
//! | Table IV  | benchmark MPKI classification | [`experiments::tables`] |
//! | Figure 1  | analytic confidence curve | [`experiments::confidence`] |
//! | Figure 2  | detailed vs BADCO CPI scatter | [`experiments::accuracy`] |
//! | Figure 3  | confidence vs sample size: model vs experiment | [`experiments::confidence`] |
//! | Figure 4  | 1/cv per policy pair × metric (sample vs population) | [`experiments::cv`] |
//! | Figure 5  | 1/cv on the full population, 3 metrics | [`experiments::cv`] |
//! | Figure 6  | confidence of 4 sampling methods | [`experiments::confidence`] |
//! | Figure 7  | actual (detailed-sim) confidence | [`experiments::confidence`] |
//! | §VII-A    | CPU-hours overhead example | [`mod@experiments::overhead`] |
//!
//! Everything is driven by a [`Scale`]: the paper's setup (100 M
//! instructions, full 12650-workload 4-core population) is reproduced in
//! miniature by default so each experiment finishes in seconds-to-minutes
//! on one CPU, with `--scale full` restoring paper-sized runs. A
//! [`StudyContext`] caches the expensive artifacts (BADCO models,
//! per-policy population throughput tables) across experiments.
//!
//! Experiment grids can additionally be sharded across worker
//! *processes* — locally spawned or attached over TCP — via [`dist`];
//! see `docs/distributed.md`.

// API v1: retired surface (deprecated aliases, panicking accessor shims)
// must not creep back in.
#![deny(deprecated)]

pub mod builder;
pub mod convergence;
pub mod dist;
pub mod experiments;
pub mod export;
pub mod heartbeat;
pub mod isolate;
pub mod persist;
pub mod plot;
pub mod report_html;
pub mod runner;
pub mod scale;
pub mod validate;

pub use builder::StudyBuilder;
pub use dist::{Coordinator, DistOptions, Provenance};
pub use isolate::{run_isolated, IsolateOptions};
pub use mps_store::Error;
pub use runner::{StudyCacheStats, StudyContext};
pub use scale::Scale;
pub use validate::{Baseline, FailOn, ValidateOptions, ValidationReport};
