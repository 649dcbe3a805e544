//! Multiprogram throughput metrics (paper Section II-D).
//!
//! Throughput is "the quantity of work done per unit of time". For a
//! workload `w` of `K` threads, all the usual metrics are instances of one
//! formula (paper equation (1), after Michaud's *Demystifying multicore
//! throughput metrics*):
//!
//! ```text
//! t(w) = X-mean_{k ∈ [1,K]}  IPC_wk / IPCref[b_wk]
//! ```
//!
//! and the sample throughput is the same `X-mean` across workloads
//! (equation (2)). The three metrics the paper evaluates:
//!
//! | metric | `X-mean` | `IPCref[b]` |
//! |--------|----------|-------------|
//! | IPC throughput (IPCT) | arithmetic | 1 |
//! | weighted speedup (WSU) | arithmetic | single-thread IPC |
//! | harmonic mean of speedups (HSU) | harmonic | single-thread IPC |
//!
//! plus the geometric-mean-of-speedups variant from footnote 3.
//!
//! The crate also implements the per-workload difference `d(w)` on which the
//! whole sampling theory rests (equations (4) and (7)): for arithmetic-mean
//! metrics `d(w) = t_Y(w) − t_X(w)`; for the harmonic mean the CLT applies
//! to the *reciprocal* throughput, `d(w) = 1/t_X(w) − 1/t_Y(w)`; for the
//! geometric mean it applies to the logarithm, `d(w) = ln t_Y − ln t_X`.
//! All three are oriented so that `d(w) > 0` means Y beats X on `w`.

pub mod difference;
pub mod metric;
pub mod table;

pub use difference::{pair_comparison, workload_difference, PairComparison};
pub use metric::{
    per_workload_throughput, sample_throughput, stratified_throughput, ThroughputMetric,
};
pub use table::{PerfTable, WorkloadPerf};
