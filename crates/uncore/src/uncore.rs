//! The composite shared uncore.
//!
//! This is the component both simulators plug their cores into (the paper's
//! BADCO machines are connected "to a detailed uncore simulator ... Our
//! uncore simulator was extracted from Zesto"). It owns:
//!
//! * the shared LLC with the replacement policy under study,
//! * the MSHR file (16 entries; concurrent misses to the same line merge),
//! * the FSB/DRAM bandwidth queue,
//! * per-core stream prefetchers trained on LLC demand misses,
//! * a single arbitrated port: one request per cycle, so simultaneous
//!   requests from different cores serialize (the multicore drivers call
//!   cores round-robin each cycle, matching the paper's arbitration).
//!
//! Timing is modelled with completion times rather than per-cycle events:
//! an access returns the core cycle at which its data is available. This
//! keeps the model deterministic and fast while preserving latency,
//! bandwidth and capacity contention between cores.
//!
//! Threads in a multiprogrammed workload are independent processes; the
//! uncore gives each core a disjoint physical address space by tagging
//! addresses with the core index (the paper's BADCO "allocates a new
//! physical page" per virtual page — distinct per thread).

use crate::cache::{AccessOutcome, AccessType, Cache, CacheStats};
use crate::config::UncoreConfig;
use crate::memory::MemoryModel;
use crate::prefetch::StreamPrefetcher;

/// Aggregate uncore statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UncoreStats {
    /// Demand requests seen (all cores).
    pub requests: u64,
    /// Requests that hit the LLC.
    pub llc_hits: u64,
    /// Requests that missed and went to memory.
    pub llc_misses: u64,
    /// Misses merged into an in-flight MSHR.
    pub mshr_merges: u64,
    /// Cycles requests spent waiting because all MSHRs were busy.
    pub mshr_stall_cycles: u64,
    /// Cycles requests spent waiting because the write buffer was full.
    pub wb_stall_cycles: u64,
    /// Prefetch lines requested from memory.
    pub prefetches: u64,
}

/// Process-global observability counters for uncore events, resolved once
/// per [`Uncore`] so the per-access cost is one relaxed atomic add (zero
/// with the `obs` feature off).
#[derive(Debug, Clone, Copy)]
struct ObsCounters {
    accesses: mps_obs::Counter,
    hits: mps_obs::Counter,
    misses: mps_obs::Counter,
    mshr_merges: mps_obs::Counter,
    prefetches: mps_obs::Counter,
    evictions: mps_obs::Counter,
    writebacks: mps_obs::Counter,
}

impl ObsCounters {
    fn new() -> Self {
        ObsCounters {
            accesses: mps_obs::counter("uncore.llc.accesses"),
            hits: mps_obs::counter("uncore.llc.hits"),
            misses: mps_obs::counter("uncore.llc.misses"),
            mshr_merges: mps_obs::counter("uncore.mshr.merges"),
            prefetches: mps_obs::counter("uncore.prefetches"),
            evictions: mps_obs::counter("uncore.llc.evictions"),
            writebacks: mps_obs::counter("uncore.llc.writebacks"),
        }
    }
}

/// The shared uncore. See the module docs.
#[derive(Debug)]
pub struct Uncore {
    cfg: UncoreConfig,
    llc: Cache,
    /// Cores attached.
    cores: usize,
    /// FSB/DRAM bandwidth queue (stateful: it carries the bus-free cycle
    /// between accesses).
    mem: MemoryModel,
    /// In-flight demand misses: `(physical line, completion cycle)` pairs.
    ///
    /// Bounded by `cfg.mshrs` (16 in the paper's Table II), so a linear
    /// scan beats a tree: the whole file fits in two cache lines and the
    /// steady state performs no allocation. Order is never observed —
    /// lookups are by line and retirement is by completion time.
    pending: Vec<(u64, u64)>,
    /// Single request port: next cycle a new request can be accepted.
    port_free: u64,
    /// Bus-departure times of in-flight writebacks (the write buffer).
    wb_pending: Vec<u64>,
    prefetchers: Vec<StreamPrefetcher>,
    stats: UncoreStats,
    /// Per-core demand misses (for MPKI accounting).
    core_misses: Vec<u64>,
    /// Per-core demand accesses.
    core_accesses: Vec<u64>,
    /// Per-core prefetch lines fetched from memory on the core's behalf.
    core_prefetches: Vec<u64>,
    obs: ObsCounters,
}

impl Uncore {
    /// Builds the uncore for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: UncoreConfig, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Uncore {
            llc: Cache::new(cfg.llc_sets(), cfg.llc_ways, cfg.policy),
            cores,
            mem: MemoryModel::new(cfg.memory),
            pending: Vec::with_capacity(cfg.mshrs),
            port_free: 0,
            wb_pending: Vec::with_capacity(cfg.write_buffer + 1),
            prefetchers: (0..cores).map(|_| StreamPrefetcher::new(8, 2)).collect(),
            stats: UncoreStats::default(),
            core_misses: vec![0; cores],
            core_accesses: vec![0; cores],
            core_prefetches: vec![0; cores],
            obs: ObsCounters::new(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UncoreConfig {
        &self.cfg
    }

    /// Number of cores attached.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Retires MSHRs whose miss has completed by `now`.
    fn drain(&mut self, now: u64) {
        self.pending.retain(|&(_, done)| done > now);
    }

    /// Completion cycle of the in-flight miss covering `line`, if any.
    #[inline]
    fn pending_done(&self, line: u64) -> Option<u64> {
        self.pending
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done)
    }

    /// Translates a core-local byte address to a global physical line
    /// number. Each core gets a disjoint 1 TB window.
    #[inline]
    fn phys_line(&self, core: usize, addr: u64) -> u64 {
        debug_assert!(core < self.cores, "core {core} out of range");
        ((core as u64) << 40 | (addr & ((1 << 40) - 1))) / self.cfg.line_bytes
    }

    /// Issues a demand access from `core` for byte address `addr` at core
    /// cycle `now`; returns the cycle the data is available.
    ///
    /// `write` distinguishes stores/writebacks from loads (timing is
    /// identical; dirtiness and traffic accounting differ).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (debug builds).
    pub fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        let line = self.phys_line(core, addr);
        self.stats.requests += 1;
        self.core_accesses[core] += 1;
        self.obs.accesses.incr();

        // Port arbitration: one request enters per cycle.
        let start = now.max(self.port_free);
        self.port_free = start + 1;
        // LLC array access.
        let t_hit = start + self.cfg.llc_latency;
        self.drain(start);

        // MSHR merge: a miss to an in-flight line piggybacks on it.
        if let Some(done) = self.pending_done(line) {
            self.stats.mshr_merges += 1;
            self.obs.mshr_merges.incr();
            return done.max(t_hit);
        }

        let kind = if write {
            AccessType::Write
        } else {
            AccessType::Read
        };
        let evictions_before = self.llc.stats().evictions;
        match self.llc.access(line, kind) {
            AccessOutcome::Hit => {
                self.stats.llc_hits += 1;
                self.obs.hits.incr();
                t_hit
            }
            AccessOutcome::Miss { writeback } => {
                self.stats.llc_misses += 1;
                self.core_misses[core] += 1;
                self.obs.misses.incr();

                // MSHR occupancy: wait until one frees if all are busy.
                let mut issue = t_hit;
                if self.pending.len() >= self.cfg.mshrs {
                    let earliest = self
                        .pending
                        .iter()
                        .map(|&(_, done)| done)
                        .min()
                        .expect("pending non-empty when full");
                    if earliest > issue {
                        self.stats.mshr_stall_cycles += earliest - issue;
                        issue = earliest;
                    }
                    self.drain(issue);
                }

                if writeback.is_some() {
                    self.obs.writebacks.incr();
                    // Dirty victim: its writeback occupies a write-buffer
                    // entry until the bus carries it out; a full buffer
                    // stalls the miss (Table II: 8 entries).
                    self.wb_pending.retain(|&t| t > issue);
                    if self.wb_pending.len() >= self.cfg.write_buffer {
                        let earliest = *self.wb_pending.iter().min().expect("non-empty when full");
                        self.stats.wb_stall_cycles += earliest.saturating_sub(issue);
                        issue = issue.max(earliest);
                        self.wb_pending.retain(|&t| t > issue);
                    }
                }
                let done = self.mem.read_line(issue);
                if writeback.is_some() {
                    // Dirty victim: consumes bus bandwidth behind the read.
                    let freed = self.mem.write_line(issue);
                    self.wb_pending.push(freed);
                }
                self.pending.push((line, done));

                // Train the core's stream prefetcher on the demand miss.
                if self.cfg.stream_prefetch {
                    let suggestions = self.prefetchers[core].on_miss(line);
                    for pf_line in suggestions.into_iter().flatten() {
                        if !self.llc.probe(pf_line) && self.pending_done(pf_line).is_none() {
                            self.stats.prefetches += 1;
                            self.core_prefetches[core] += 1;
                            self.obs.prefetches.incr();
                            // Prefetch fills consume memory bandwidth but
                            // nobody waits on them.
                            let pf_done = self.mem.read_line(issue);
                            if let AccessOutcome::Miss { writeback: Some(_) } =
                                self.llc.access(pf_line, AccessType::Prefetch)
                            {
                                self.mem.write_line(pf_done);
                            }
                        }
                    }
                }
                self.obs
                    .evictions
                    .add(self.llc.stats().evictions - evictions_before);
                done
            }
        }
    }

    /// Issues a prefetch fill from a core's L1 prefetchers.
    ///
    /// Returns the cycle at which the line will be available, or `None`
    /// when the prefetch is dropped (all MSHRs busy) — prefetches are
    /// best-effort and never contend with demand misses for MSHRs. A line
    /// already resident (or already in flight) is "available" at its hit
    /// latency (resp. existing completion) without new traffic.
    pub fn prefetch(&mut self, core: usize, addr: u64, now: u64) -> Option<u64> {
        let line = self.phys_line(core, addr);
        self.drain(now);
        if self.llc.probe(line) {
            return Some(now + self.cfg.llc_latency);
        }
        if let Some(done) = self.pending_done(line) {
            return Some(done);
        }
        if self.pending.len() >= self.cfg.mshrs {
            return None;
        }
        self.stats.prefetches += 1;
        self.core_prefetches[core] += 1;
        self.obs.prefetches.incr();
        let done = self.mem.read_line(now);
        let evictions_before = self.llc.stats().evictions;
        if let AccessOutcome::Miss { writeback: Some(_) } =
            self.llc.access(line, AccessType::Prefetch)
        {
            self.obs.writebacks.incr();
            let freed = self.mem.write_line(done);
            // Drop departed writebacks so the buffer stays within its
            // preallocation. Timing-neutral: every later demand issues at
            // or after `now` and drops the same entries before it looks.
            self.wb_pending.retain(|&t| t > now);
            self.wb_pending.push(freed);
        }
        self.obs
            .evictions
            .add(self.llc.stats().evictions - evictions_before);
        self.pending.push((line, done));
        Some(done)
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Aggregate uncore statistics.
    pub fn stats(&self) -> UncoreStats {
        self.stats
    }

    /// Demand misses suffered by one core (for MPKI).
    pub fn core_misses(&self, core: usize) -> u64 {
        self.core_misses[core]
    }

    /// Demand accesses issued by one core.
    pub fn core_accesses(&self, core: usize) -> u64 {
        self.core_accesses[core]
    }

    /// Prefetch lines fetched from memory on behalf of one core.
    ///
    /// Memory-intensity (MPKI) accounting adds these to demand misses:
    /// prefetchers convert would-be demand misses into prefetch traffic,
    /// but the benchmark's pressure on memory is the same.
    pub fn core_prefetches(&self, core: usize) -> u64 {
        self.core_prefetches[core]
    }

    /// (reads, writes) that reached memory.
    pub fn memory_traffic(&self) -> (u64, u64) {
        self.mem.traffic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicyKind;

    fn uncore(cores: usize) -> Uncore {
        Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), cores)
    }

    #[test]
    fn cold_miss_pays_memory_latency() {
        let mut u = uncore(2);
        let done = u.access(0, 0x1000, false, 0);
        // port(0) + LLC 5 + bus 30 + DRAM 200
        assert_eq!(done, 235);
        assert_eq!(u.stats().llc_misses, 1);
    }

    #[test]
    fn hit_pays_llc_latency_only() {
        let mut u = uncore(2);
        let miss_done = u.access(0, 0x1000, false, 0);
        let hit_done = u.access(0, 0x1000, false, miss_done);
        assert_eq!(hit_done, miss_done + 5);
        assert_eq!(u.stats().llc_hits, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut u = uncore(2);
        let d = u.access(0, 0x1000, false, 0);
        let d2 = u.access(0, 0x1008, false, d); // same 64-byte line
        assert_eq!(d2, d + 5);
    }

    #[test]
    fn cores_have_disjoint_address_spaces() {
        let mut u = uncore(2);
        let d0 = u.access(0, 0x1000, false, 0);
        // Core 1 touching the same virtual address must miss.
        let d1 = u.access(1, 0x1000, false, d0);
        assert!(d1 > d0 + 5, "expected a miss, got hit timing");
        assert_eq!(u.stats().llc_misses, 2);
    }

    #[test]
    fn mshr_merges_concurrent_misses_to_one_line() {
        let mut u = uncore(2);
        let d0 = u.access(0, 0x2000, false, 0);
        // Before d0 completes, another access to the same line merges.
        let d1 = u.access(0, 0x2008, false, 10);
        assert_eq!(d0, d1);
        assert_eq!(u.stats().mshr_merges, 1);
        assert_eq!(u.stats().llc_misses, 1);
    }

    #[test]
    fn port_serializes_simultaneous_requests() {
        let mut u = uncore(2);
        let a = u.access(0, 0x10_0000, false, 50);
        let b = u.access(1, 0x20_0000, false, 50);
        // Both miss; the second one's bus slot queues behind the first.
        assert!(b > a, "a={a} b={b}");
    }

    #[test]
    fn mshr_limit_stalls_excess_misses() {
        let cfg = UncoreConfig {
            mshrs: 2,
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        // Three distinct-line misses at the same instant: the third must
        // wait for an MSHR.
        u.access(0, 0x100_000, false, 0);
        u.access(0, 0x200_000, false, 0);
        u.access(0, 0x300_000, false, 0);
        assert!(u.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn sequential_misses_train_stream_prefetcher() {
        let mut u = uncore(1);
        let mut t = 0;
        for i in 0..20u64 {
            t = u.access(0, 0x10_0000 + i * 64, false, t);
        }
        assert!(u.stats().prefetches > 0);
        // Trained stream means later accesses hit on prefetched lines.
        assert!(u.stats().llc_hits > 0);
    }

    #[test]
    fn prefetch_can_be_disabled() {
        let cfg = UncoreConfig {
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        let mut t = 0;
        for i in 0..20u64 {
            t = u.access(0, 0x10_0000 + i * 64, false, t);
        }
        assert_eq!(u.stats().prefetches, 0);
    }

    #[test]
    fn per_core_miss_accounting() {
        let mut u = uncore(2);
        u.access(0, 0x1000, false, 0);
        u.access(0, 0x1000, false, 1000);
        u.access(1, 0x5_0000, false, 2000);
        assert_eq!(u.core_accesses(0), 2);
        assert_eq!(u.core_misses(0), 1);
        assert_eq!(u.core_accesses(1), 1);
        assert_eq!(u.core_misses(1), 1);
    }

    #[test]
    fn dirty_writeback_generates_memory_write() {
        // 1-set... smallest Table II LLC still has 1024 sets; use writes to
        // force dirty lines and then evict them with conflicting lines.
        let cfg = UncoreConfig {
            llc_size: 4 << 10, // 4 kB, 4-way, 64 B → 16 sets
            llc_ways: 4,
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        let mut t = 0;
        // Write 5 lines mapping to the same set (stride = sets × line).
        for i in 0..5u64 {
            t = u.access(0, i * 16 * 64, true, t) + 1;
        }
        let (_, writes) = u.memory_traffic();
        assert!(writes >= 1, "dirty eviction must write back");
    }

    #[test]
    fn full_write_buffer_stalls_misses() {
        let cfg = UncoreConfig {
            llc_size: 4 << 10, // 16 sets × 4 ways
            llc_ways: 4,
            write_buffer: 1,
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        // Fill set 0 with dirty lines, then stream more conflicting dirty
        // lines at the same instant: every miss evicts a dirty victim and
        // the single-entry write buffer must back-pressure.
        let mut t = 0;
        for i in 0..4u64 {
            t = u.access(0, i * 16 * 64, true, t);
        }
        for i in 4..10u64 {
            u.access(0, i * 16 * 64, true, t);
        }
        assert!(
            u.stats().wb_stall_cycles > 0,
            "single-entry write buffer must stall: {:?}",
            u.stats()
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut u = uncore(4);
            let mut t = 0;
            let mut trace = vec![];
            for i in 0..500u64 {
                let core = (i % 4) as usize;
                let addr = (i * 7919) % (1 << 22);
                t = u.access(core, addr, i % 5 == 0, t);
                trace.push(t);
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
