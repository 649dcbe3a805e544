//! Workload sampling for multicore throughput evaluation — the primary
//! contribution of *"Selecting Benchmark Combinations for the Evaluation of
//! Multicore Throughput"* (Velásquez, Michaud, Seznec — ISPASS 2013).
//!
//! Given `B` single-thread benchmarks and `K` identical cores, the
//! population of multiprogrammed workloads (size-`K` multisets of
//! benchmarks) has `N = C(B+K−1, K)` members — far too many to simulate in
//! detail. This crate implements everything the paper proposes for picking
//! a *representative* sample:
//!
//! * [`space`] — the workload population: enumeration, exact uniform
//!   sampling via multiset rank/unrank, and [`Population`] tables,
//! * [`sampler`] — the four sampling methods compared in the paper:
//!   simple random, **balanced random** (every benchmark occurs equally
//!   often), **benchmark stratification** (strata from per-benchmark
//!   classes) and **workload stratification** (strata cut from the
//!   distribution of the approximate per-workload difference `d(w)`),
//! * [`estimate`] — per-sample throughput estimators (equations (2) and
//!   (9)), the empirical degree of confidence, and the analytical model
//!   (equation (5)),
//! * [`guideline`] — the practical §VII decision procedure and the
//!   CPU-hours overhead model of §VII-A.
//!
//! # Example: how many random workloads do I need?
//!
//! ```
//! use mps_sampling::{Population, PairData, analytic_confidence};
//! use mps_metrics::ThroughputMetric;
//!
//! // A toy 3-benchmark, 2-core study: per-workload throughputs of two
//! // machines measured with a fast approximate simulator.
//! let pop = Population::full(3, 2);
//! let t_x = vec![1.00, 0.80, 0.90, 0.70, 0.60, 0.50];
//! let t_y = vec![1.05, 0.88, 0.92, 0.76, 0.61, 0.58];
//! let data = PairData::new(ThroughputMetric::IpcThroughput, t_x, t_y);
//!
//! // Y wins everywhere: few workloads needed.
//! assert!(data.comparison().required_sample_size() < 20);
//! assert!(analytic_confidence(&data, 10) > 0.9);
//! # let _ = pop;
//! ```

pub mod allocation;
pub mod cluster;
pub mod estimate;
pub mod guideline;
pub mod sampler;
pub mod space;
pub mod speedup;

pub use allocation::{allocate, Allocation};
pub use cluster::{benchmark_classes_from_features, kmeans, ClusterSampling, KMeansResult};
pub use estimate::{
    analytic_confidence, empirical_confidence, empirical_confidence_jobs,
    empirical_confidence_seeded, sample_decides_y_wins, sample_throughput_pair, PairData,
};
pub use guideline::{recommend, OverheadModel, Recommendation};
pub use sampler::{
    BalancedRandomSampling, BenchmarkStratification, DrawBuf, DrawPlan, DrawnSample,
    RandomSampling, Sampler, WorkloadStratification,
};
pub use space::{Population, Workload, WorkloadSpace};
pub use speedup::{
    population_speedup, sample_size_for_speedup_accuracy, speedup_interval, SpeedupInterval,
};
