//! Statistics substrate for the multicore-throughput sampling study.
//!
//! This crate gathers every piece of numerical machinery the ISPASS 2013
//! methodology needs, with no simulator dependencies:
//!
//! * [`erf()`]/[`erfc`] — the error function used by the random-sampling
//!   confidence model (paper equation (5)),
//! * [`moments`] — streaming (Welford) and slice-based moments, including the
//!   coefficient of variation `cv = σ/µ` that drives the sample-size rule,
//! * [`confidence`] — the analytical degree-of-confidence model and the
//!   `W = 8·cv²` sample-size rule (paper equations (5) and (8)),
//! * [`error_bounds`] — relative-error summaries ([`ErrorStats`]) and
//!   Kendall rank agreement ([`RankAgreement`]) for the BADCO-vs-detailed
//!   model-validation gate (`mps-harness validate`),
//! * [`estimator`] — streaming convergence diagnostics ([`Convergence`]):
//!   running cv, 95% CI half-width, achieved confidence and required `W`
//!   as a pure function of a [`Moments`] snapshot,
//! * [`means`] — arithmetic / harmonic / geometric and their weighted
//!   variants (paper equations (2) and (9)),
//! * [`combinatorics`] — binomial and multiset coefficients used to count
//!   workload populations (`N = C(B+K-1, K)`),
//! * [`rng`] — small deterministic RNG utilities (SplitMix64 / xoshiro256**)
//!   so the whole reproduction is seed-stable without external crates.
//!
//! # Example
//!
//! ```
//! use mps_stats::confidence::{degree_of_confidence, required_sample_size};
//!
//! // LRU vs FIFO in the paper has cv ≈ 1: eight workloads are enough.
//! let w = required_sample_size(1.0);
//! assert_eq!(w, 8);
//! let conf = degree_of_confidence(1.0, w);
//! assert!(conf > 0.97);
//! ```

pub mod combinatorics;
pub mod confidence;
pub mod erf;
pub mod error_bounds;
pub mod estimator;
pub mod histogram;
pub mod means;
pub mod moments;
pub mod quantile;
pub mod rng;

pub use combinatorics::{binomial, multiset_coefficient};
pub use confidence::{degree_of_confidence, required_sample_size};
pub use erf::{erf, erfc, inverse_erf};
pub use error_bounds::{kendall, relative_errors, ErrorStats, RankAgreement};
pub use estimator::Convergence;
pub use histogram::Histogram;
pub use means::{Mean, WeightedMean};
pub use moments::{Moments, SliceStats};
pub use quantile::{bootstrap_interval, central_interval, median, quantile, Interval};
