//! Functional set-associative cache with pluggable replacement.
//!
//! The cache operates on *line numbers* (`addr >> log2(line_bytes)` is the
//! caller's job where byte addresses are involved; the composite
//! [`crate::Uncore`] and the L1s in `mps-sim-cpu` do this). It is
//! write-back / write-allocate and reports victim writebacks so the caller
//! can account for their bandwidth.

use crate::replacement::{Policy, PolicyKind, ReplacementPolicy};

/// Who caused an access, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    /// A demand load or instruction fetch.
    Read,
    /// A demand store (or dirty writeback from an inner level).
    Write,
    /// A prefetch fill request.
    Prefetch,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed. If the victim way held a
    /// dirty line, its line number is reported for writeback.
    Miss {
        /// Dirty victim line that must be written back, if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Hit/miss statistics, split demand vs prefetch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (read + write) accesses.
    pub demand_accesses: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Prefetch accesses.
    pub prefetch_accesses: u64,
    /// Prefetch misses (lines actually brought in by the prefetcher).
    pub prefetch_misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Valid lines displaced by the replacement policy (clean or dirty) —
    /// the policy-event count; cold fills into invalid ways are excluded.
    pub evictions: u64,
}

impl CacheStats {
    /// Demand hit count.
    pub fn demand_hits(&self) -> u64 {
        self.demand_accesses - self.demand_misses
    }

    /// Demand miss ratio in [0, 1]; NaN when no accesses.
    pub fn miss_ratio(&self) -> f64 {
        self.demand_misses as f64 / self.demand_accesses as f64
    }
}

/// A set-associative, write-back, write-allocate cache.
///
/// # Example
///
/// ```
/// use mps_uncore::{Cache, PolicyKind, AccessType};
///
/// let mut c = Cache::new(64, 4, PolicyKind::Lru);
/// assert!(!c.access(42, AccessType::Read).is_hit()); // cold miss
/// assert!(c.access(42, AccessType::Read).is_hit());  // now resident
/// assert_eq!(c.stats().demand_misses, 1);
/// ```
#[derive(Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `line & set_mask` indexes the set when the set count is a power of
    /// two (the common case — every Table II geometry); `usize::MAX`
    /// otherwise, falling back to the modulo in [`Cache::set_of`].
    set_mask: u64,
    /// `tags[set * ways + way]`: line number currently cached.
    tags: Vec<u64>,
    /// `dirty[set * ways + way]`: the line needs a writeback on eviction.
    dirty: Vec<bool>,
    /// Valid ways per set. Lines are never invalidated and a miss fills
    /// the first invalid way, so a set's valid ways are always the prefix
    /// `0..filled[set]`.
    filled: Vec<u32>,
    policy: Policy,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `sets × ways` lines with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize, policy: PolicyKind) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        let set_mask = if sets.is_power_of_two() {
            sets as u64 - 1
        } else {
            u64::MAX
        };
        Cache {
            sets,
            ways,
            set_mask,
            tags: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            filled: vec![0; sets],
            policy: policy.build(sets, ways),
            stats: CacheStats::default(),
        }
    }

    /// Convenience constructor from a size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is an exact multiple of
    /// `ways * line_bytes` yielding a power-of-two set count.
    pub fn with_size(size_bytes: u64, ways: usize, line_bytes: u64, policy: PolicyKind) -> Self {
        let sets = size_bytes / (ways as u64 * line_bytes);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "size {size_bytes} with {ways} ways and {line_bytes}-byte lines \
             gives a non-power-of-two set count {sets}"
        );
        Cache::new(sets as usize, ways, policy)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// The valid tags of `set`.
    #[inline]
    fn valid_tags(&self, set: usize) -> &[u64] {
        let base = set * self.ways;
        &self.tags[base..base + self.filled[set] as usize]
    }

    /// Checks presence without disturbing replacement state or stats.
    pub fn probe(&self, line: u64) -> bool {
        self.valid_tags(self.set_of(line)).contains(&line)
    }

    /// Accesses `line`, installing it on a miss (write-allocate).
    pub fn access(&mut self, line: u64, kind: AccessType) -> AccessOutcome {
        let set = self.set_of(line);
        let base = set * self.ways;
        match kind {
            AccessType::Prefetch => self.stats.prefetch_accesses += 1,
            _ => self.stats.demand_accesses += 1,
        }
        // A line is resident at most once per set, so the first match in
        // the valid prefix is the only one.
        if let Some(w) = self.valid_tags(set).iter().position(|&t| t == line) {
            self.policy.on_hit(set, w);
            if kind == AccessType::Write {
                self.dirty[base + w] = true;
            }
            return AccessOutcome::Hit;
        }
        // Miss: fill the first invalid way, else ask the policy for a victim.
        match kind {
            AccessType::Prefetch => self.stats.prefetch_misses += 1,
            _ => self.stats.demand_misses += 1,
        }
        let filled = self.filled[set] as usize;
        let (way, writeback) = if filled < self.ways {
            self.filled[set] += 1;
            (filled, None)
        } else {
            let w = self.policy.victim(set);
            assert!(w < self.ways, "policy returned way {w} of {}", self.ways);
            self.stats.evictions += 1;
            let wb = if self.dirty[base + w] {
                self.stats.writebacks += 1;
                Some(self.tags[base + w])
            } else {
                None
            };
            (w, wb)
        };
        self.tags[base + way] = line;
        self.dirty[base + way] = kind == AccessType::Write;
        self.policy.on_fill(set, way);
        AccessOutcome::Miss { writeback }
    }

    /// Number of valid lines currently resident (for tests/invariants).
    pub fn occupancy(&self) -> usize {
        self.filled.iter().map(|&f| f as usize).sum()
    }

    /// The replacement policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(16, 2, PolicyKind::Lru);
        assert!(!c.access(100, AccessType::Read).is_hit());
        assert!(c.access(100, AccessType::Read).is_hit());
        assert_eq!(c.stats().demand_accesses, 2);
        assert_eq!(c.stats().demand_misses, 1);
        assert_eq!(c.stats().demand_hits(), 1);
    }

    #[test]
    fn lines_map_to_distinct_sets() {
        let mut c = Cache::new(16, 1, PolicyKind::Lru);
        // 16 consecutive lines fill all 16 sets without conflict.
        for line in 0..16 {
            c.access(line, AccessType::Read);
        }
        for line in 0..16 {
            assert!(c.probe(line), "line {line}");
        }
        assert_eq!(c.occupancy(), 16);
    }

    #[test]
    fn conflict_eviction_under_lru() {
        let mut c = Cache::new(4, 2, PolicyKind::Lru);
        // Lines 0, 4, 8 all map to set 0; associativity 2.
        c.access(0, AccessType::Read);
        c.access(4, AccessType::Read);
        c.access(8, AccessType::Read); // evicts line 0
        assert!(!c.probe(0));
        assert!(c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(1, 1, PolicyKind::Lru);
        c.access(7, AccessType::Write);
        match c.access(13, AccessType::Read) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(7)),
            AccessOutcome::Hit => panic!("expected miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(1, 1, PolicyKind::Lru);
        c.access(7, AccessType::Read);
        match c.access(13, AccessType::Read) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, None),
            AccessOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(1, 1, PolicyKind::Lru);
        c.access(7, AccessType::Read); // clean fill
        c.access(7, AccessType::Write); // hit, marks dirty
        match c.access(13, AccessType::Read) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(7)),
            AccessOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = Cache::new(8, 4, PolicyKind::Random);
        for line in 0..10_000u64 {
            c.access(line.wrapping_mul(2654435761) % 512, AccessType::Read);
            assert!(c.occupancy() <= 32);
        }
        assert_eq!(c.occupancy(), 32); // warm by now
    }

    #[test]
    fn prefetch_stats_are_separate() {
        let mut c = Cache::new(16, 2, PolicyKind::Lru);
        c.access(1, AccessType::Prefetch);
        c.access(1, AccessType::Read);
        assert_eq!(c.stats().prefetch_accesses, 1);
        assert_eq!(c.stats().prefetch_misses, 1);
        assert_eq!(c.stats().demand_accesses, 1);
        assert_eq!(c.stats().demand_misses, 0, "prefetch hid the demand miss");
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = Cache::new(4, 2, PolicyKind::Lru);
        c.access(0, AccessType::Read);
        c.access(4, AccessType::Read);
        // Probing line 0 must NOT refresh its recency.
        assert!(c.probe(0));
        c.access(8, AccessType::Read); // LRU victim should still be line 0
        assert!(!c.probe(0));
        assert!(c.probe(4));
    }

    #[test]
    fn with_size_computes_geometry() {
        // 2 MB, 16 ways, 64-byte lines → 2048 sets (the paper's 4-core LLC).
        let c = Cache::with_size(2 << 20, 16, 64, PolicyKind::Drrip);
        assert_eq!(c.sets(), 2048);
        assert_eq!(c.ways(), 16);
    }

    #[test]
    #[should_panic(expected = "non-power-of-two")]
    fn with_size_rejects_odd_geometry() {
        Cache::with_size(3 << 20, 16, 64, PolicyKind::Lru);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = Cache::new(4, 1, PolicyKind::Lru);
        c.access(3, AccessType::Read);
        c.reset_stats();
        assert_eq!(c.stats().demand_accesses, 0);
        assert!(c.probe(3));
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = Cache::new(4, 1, PolicyKind::Lru);
        c.access(0, AccessType::Read);
        c.access(0, AccessType::Read);
        c.access(0, AccessType::Read);
        c.access(0, AccessType::Read);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_paper_policies_work_through_cache() {
        for kind in PolicyKind::PAPER_POLICIES {
            let mut c = Cache::new(32, 4, kind);
            // 100 distinct lines fit in the 128-line cache: after the cold
            // misses every policy should mostly hit.
            for i in 0..5000u64 {
                c.access(i % 100, AccessType::Read);
            }
            let s = c.stats();
            assert_eq!(s.demand_accesses, 5000, "{kind}");
            assert!(s.demand_misses >= 100, "{kind}: at least cold misses");
            assert!(s.demand_misses < 2500, "{kind}: mostly hits expected");
        }
    }
}
