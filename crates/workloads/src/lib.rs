//! Synthetic single-thread benchmark suite.
//!
//! The paper builds workloads from 22 SPEC CPU2006 benchmarks, replayed as
//! reproducible 100M-instruction traces. SPEC binaries and traces are not
//! redistributable, so this crate substitutes **deterministic synthetic
//! µop-trace generators**, one per benchmark, calibrated so that their
//! memory intensity (LLC misses per kilo-instruction, MPKI) falls in the
//! same class the paper's Table IV assigns to the eponymous SPEC benchmark:
//!
//! | MPKI class | threshold | benchmarks |
//! |------------|-----------|------------|
//! | Low    | MPKI < 1  | povray, gromacs, milc*, calculix, namd, dealII, perlbench, gobmk, h264ref, hmmer, sjeng |
//! | Medium | MPKI < 5  | bzip2, gcc, astar, zeusmp, cactusADM |
//! | High   | MPKI ≥ 5  | libquantum, omnetpp, leslie3d, bwaves, mcf, soplex |
//!
//! (*the paper's own table lists milc as Low.)
//!
//! What matters for reproducing the paper is not any single benchmark's
//! microarchitectural fingerprint but the *heterogeneity of the population*:
//! benchmarks must span compute-bound to memory-bound behaviour so that
//! benchmark combinations produce a wide, non-trivial distribution of
//! per-workload throughput differences `d(w)`. The generators therefore
//! vary footprint, access pattern (sequential, strided, random, pointer
//! chase), instruction mix, branch predictability, and dependence density.
//!
//! Determinism: every generator is seeded and [`TraceSource::reset`]
//! restores it exactly — the synthetic analogue of the paper's
//! "simulations are reproducible, so traces represent exactly the same
//! sequence of dynamic µops". [`TraceBuffer`] captures a generator's
//! first µops in memory and [`TraceCursor`] replays them (the EIO-trace
//! analogue); every study replays traces this way.

pub mod analyze;
pub mod classify;
pub mod soa;
pub mod suite;
pub mod synth;
pub mod uop;

pub use analyze::TraceProfile;
pub use classify::MpkiClass;
pub use soa::{TraceBuffer, TraceColumns, TraceCursor};
pub use suite::{benchmark_by_name, suite, BenchmarkSpec};
pub use synth::{AccessPattern, SynthParams, SyntheticTrace};
pub use uop::{Reg, TraceSource, Uop, UopKind};
