//! Detailed cycle-level out-of-order multicore simulator.
//!
//! This crate is the reproduction's stand-in for **Zesto**, the detailed
//! simulator of the paper: a cycle-level model of a 4-wide out-of-order
//! core (paper Table I) with
//!
//! * a TAGE branch predictor ([`branch`]),
//! * L1 instruction/data caches and TLBs with next-line and IP-stride
//!   prefetchers,
//! * ROB / reservation-station / load-queue / store-queue resource limits,
//! * per-class functional-unit latencies and an unpipelined divider,
//! * branch-misprediction frontend redirect stalls,
//!
//! driven by the µop traces of `mps-workloads` and backed by any
//! [`MemoryBackend`] — normally the shared [`mps_uncore::Uncore`], or the
//! fixed-latency backends used to train BADCO models.
//!
//! The multicore driver ([`multicore`]) implements the paper's
//! multiprogram-simulation rule: all threads run until every thread has
//! committed its first `N` instructions, threads that finish early are
//! restarted, and IPC is measured over each thread's first `N` commits.
//!
//! # Example: single benchmark on one core
//!
//! ```
//! use mps_sim_cpu::{CoreConfig, MulticoreSim};
//! use mps_uncore::{PolicyKind, Uncore, UncoreConfig};
//! use mps_workloads::suite;
//!
//! let bench = &suite()[0]; // povray
//! let uncore = Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), 1);
//! let mut sim = MulticoreSim::new(CoreConfig::ispass2013(), uncore,
//!                                 vec![Box::new(bench.trace())]);
//! let result = sim.run(5_000);
//! assert!(result.ipc[0] > 0.1 && result.ipc[0] < 4.0);
//! ```

pub mod backend;
pub mod branch;
pub mod config;
pub mod core;
pub mod multicore;
pub mod record;
pub mod tlb;

pub use backend::{FixedLatencyBackend, MemoryBackend, UncoreBackend};
pub use branch::Tage;
pub use config::CoreConfig;
pub use core::{Core, CoreStats};
pub use multicore::{record_run, validation_ipcs, MulticoreSim, SimResult};
pub use record::{ReqEvent, RunRecording};
pub use tlb::Tlb;
