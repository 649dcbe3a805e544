//! The shared uncore model (paper Table II).
//!
//! The paper's case study compares five shared last-level-cache (LLC)
//! replacement policies — LRU, RANDOM, FIFO, DIP and DRRIP — on 2-, 4- and
//! 8-core CMPs. Crucially, the detailed simulator (Zesto) and the fast
//! approximate simulator (BADCO) share the *same* uncore model; only the
//! core model is approximated. This crate is that shared uncore:
//!
//! * [`cache`] — a set-associative, write-back cache with pluggable
//!   replacement and per-core statistics,
//! * [`replacement`] — the five paper policies plus their building blocks
//!   (BIP, SRRIP, BRRIP) implemented with set dueling,
//! * [`prefetch`] — next-line, IP-stride and stream prefetchers (Tables I
//!   and II list all three),
//! * [`memory`] — a front-side-bus + DRAM latency/bandwidth model,
//! * [`uncore`] — the composite: LLC + MSHRs + write buffer + per-core
//!   stream prefetchers behind a single-ported, round-robin-arbitrated
//!   interface,
//! * [`config`] — Table II configurations for 2/4/8 cores.
//!
//! # Example
//!
//! ```
//! use mps_uncore::{PolicyKind, Uncore, UncoreConfig};
//!
//! let cfg = UncoreConfig::ispass2013(4, PolicyKind::Lru);
//! let mut uncore = Uncore::new(cfg, 4);
//! // Core 2 loads address 0x1000 at cycle 100: a cold miss goes to DRAM.
//! let done = uncore.access(2, 0x1000, false, 100);
//! assert!(done > 100 + 200); // at least the DRAM latency later
//! // Re-access the same line: now an LLC hit.
//! let done2 = uncore.access(2, 0x1000, false, done);
//! assert_eq!(done2, done + 6);  // 2MB LLC has 6-cycle latency
//! ```

pub mod cache;
pub mod config;
pub mod memory;
pub mod prefetch;
pub mod replacement;
pub mod uncore;

pub use cache::{AccessOutcome, AccessType, Cache, CacheStats};
pub use config::UncoreConfig;
pub use memory::{MemoryConfig, MemoryModel};
pub use prefetch::{IpStridePrefetcher, NextLinePrefetcher, StreamPrefetcher};
pub use replacement::{Policy, PolicyKind, ReplacementPolicy};
pub use uncore::{Uncore, UncoreStats};
