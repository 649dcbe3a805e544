//! Memory backends: what sits behind a core's L1 caches.
//!
//! The detailed core is generic over its memory system so the same core
//! model can run
//!
//! * against the real shared [`Uncore`] (multiprogram experiments),
//! * against an **ideal** fixed-latency backend where every L1 miss "hits"
//!   (as if the LLC were infinite), and
//! * against a **pessimal** fixed-latency backend where every L1 miss pays
//!   the full memory latency,
//!
//! the latter two being the paper's BADCO model-building runs ("BADCO uses
//! two traces to build a core model").

use mps_uncore::Uncore;

/// Memory system interface seen by a core's L1 caches.
pub trait MemoryBackend {
    /// Demand request (L1 miss or writeback-allocate) from `core` for byte
    /// address `addr` at cycle `now`; returns the data-ready cycle.
    fn demand(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64;

    /// Best-effort prefetch hint. Returns the cycle the line will be
    /// available, or `None` if the prefetch was dropped — the L1 must then
    /// NOT pretend to have the line.
    fn prefetch(&mut self, core: usize, addr: u64, now: u64) -> Option<u64>;
}

/// The real shared uncore.
///
/// A newtype (rather than implementing the trait on `Uncore` directly)
/// keeps `mps-uncore` independent of this crate's trait.
#[derive(Debug)]
pub struct UncoreBackend(pub Uncore);

impl MemoryBackend for UncoreBackend {
    fn demand(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        self.0.access(core, addr, write, now)
    }

    fn prefetch(&mut self, core: usize, addr: u64, now: u64) -> Option<u64> {
        self.0.prefetch(core, addr, now)
    }
}

/// A backend that answers every request after a fixed latency, with no
/// capacity, bandwidth or contention effects.
#[derive(Debug, Clone)]
pub struct FixedLatencyBackend {
    latency: u64,
    requests: u64,
}

impl FixedLatencyBackend {
    /// All requests complete `latency` cycles after issue.
    pub fn new(latency: u64) -> Self {
        FixedLatencyBackend {
            latency,
            requests: 0,
        }
    }

    /// An "every miss hits the LLC" backend (BADCO's optimistic training
    /// run), using the given LLC hit latency.
    pub fn ideal(llc_latency: u64) -> Self {
        Self::new(llc_latency)
    }

    /// An "every miss goes to DRAM" backend (BADCO's pessimistic training
    /// run): LLC latency + bus + DRAM.
    pub fn pessimal(llc_latency: u64, bus: u64, dram: u64) -> Self {
        Self::new(llc_latency + bus + dram)
    }

    /// Demand requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The fixed latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn demand(&mut self, _core: usize, _addr: u64, _write: bool, now: u64) -> u64 {
        self.requests += 1;
        now + self.latency
    }

    fn prefetch(&mut self, _core: usize, _addr: u64, now: u64) -> Option<u64> {
        // Unlimited bandwidth: prefetches always land on time.
        Some(now + self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_uncore::{PolicyKind, UncoreConfig};

    #[test]
    fn fixed_latency_is_fixed() {
        let mut b = FixedLatencyBackend::new(17);
        assert_eq!(b.demand(0, 0x1000, false, 100), 117);
        assert_eq!(b.demand(3, 0x9999, true, 200), 217);
        assert_eq!(b.requests(), 2);
    }

    #[test]
    fn ideal_and_pessimal_presets() {
        assert_eq!(FixedLatencyBackend::ideal(6).latency(), 6);
        assert_eq!(FixedLatencyBackend::pessimal(6, 30, 200).latency(), 236);
    }

    #[test]
    fn uncore_backend_delegates() {
        let u = Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), 1);
        let mut b = UncoreBackend(u);
        let done = b.demand(0, 0x1000, false, 0);
        assert!(done >= 235);
        let pf = b.prefetch(0, 0x2000, done);
        assert!(pf.is_some());
        assert!(b.0.stats().prefetches >= 1);
    }
}
