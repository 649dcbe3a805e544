//! Differential tests: `Cache` and `StreamPrefetcher` against reference
//! models kept here.
//!
//! The references are the straightforward formulations: a cache that
//! keeps a VALID bit per way and scans every way of the set, and a stream
//! prefetcher that matches with the two-branch direction predicate. The
//! production code is allowed to be cleverer, but every observable result
//! — outcomes, writeback victims, `probe`, `occupancy`, statistics and
//! prefetch suggestions — must stay identical.

use mps_stats::rng::Rng;
use mps_uncore::{
    AccessOutcome, AccessType, Cache, CacheStats, PolicyKind, ReplacementPolicy, StreamPrefetcher,
};
use proptest::prelude::*;

/// Scan-all-ways reference cache with a VALID bit per way.
#[derive(Debug)]
struct RefCache {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: usize, ways: usize, policy: PolicyKind) -> Self {
        RefCache {
            sets,
            ways,
            tags: vec![0; sets * ways],
            valid: vec![false; sets * ways],
            dirty: vec![false; sets * ways],
            policy: Box::new(policy.build(sets, ways)),
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets as u64) as usize
    }

    fn probe(&self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        (base..base + self.ways).any(|i| self.valid[i] && self.tags[i] == line)
    }

    fn access(&mut self, line: u64, kind: AccessType) -> AccessOutcome {
        let set = self.set_of(line);
        let base = set * self.ways;
        match kind {
            AccessType::Prefetch => self.stats.prefetch_accesses += 1,
            _ => self.stats.demand_accesses += 1,
        }
        let mut invalid_way = None;
        for w in 0..self.ways {
            let i = base + w;
            if !self.valid[i] {
                invalid_way = invalid_way.or(Some(w));
            } else if self.tags[i] == line {
                self.policy.on_hit(set, w);
                if kind == AccessType::Write {
                    self.dirty[i] = true;
                }
                return AccessOutcome::Hit;
            }
        }
        match kind {
            AccessType::Prefetch => self.stats.prefetch_misses += 1,
            _ => self.stats.demand_misses += 1,
        }
        let (way, writeback) = match invalid_way {
            Some(w) => (w, None),
            None => {
                let w = self.policy.victim(set);
                self.stats.evictions += 1;
                let wb = if self.dirty[base + w] {
                    self.stats.writebacks += 1;
                    Some(self.tags[base + w])
                } else {
                    None
                };
                (w, wb)
            }
        };
        self.tags[base + way] = line;
        self.valid[base + way] = true;
        self.dirty[base + way] = kind == AccessType::Write;
        self.policy.on_fill(set, way);
        AccessOutcome::Miss { writeback }
    }

    fn occupancy(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Random),
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Bip),
        Just(PolicyKind::Dip),
        Just(PolicyKind::Srrip),
        Just(PolicyKind::Brrip),
        Just(PolicyKind::Drrip),
    ]
}

/// Drives both caches with one seeded stream of reads, writes and
/// prefetches and compares every observable after each access.
fn check_cache(
    policy: PolicyKind,
    sets: usize,
    ways: usize,
    seed: u64,
    n: usize,
) -> Result<(), String> {
    let mut fast = Cache::new(sets, ways, policy);
    let mut reference = RefCache::new(sets, ways, policy);
    let mut rng = Rng::new(seed);
    // About twice the capacity, so the stream mixes cold fills, hits and
    // policy evictions of clean and dirty lines.
    let footprint = (2 * sets * ways) as u64 + 1;
    for i in 0..n {
        let line = rng.below(footprint);
        let kind = match rng.index(3) {
            0 => AccessType::Read,
            1 => AccessType::Write,
            _ => AccessType::Prefetch,
        };
        let (got, want) = (fast.access(line, kind), reference.access(line, kind));
        if got != want {
            return Err(format!(
                "access {i} ({line}, {kind:?}): {got:?} vs {want:?}"
            ));
        }
        let other = rng.below(footprint);
        if fast.probe(other) != reference.probe(other) {
            return Err(format!("probe({other}) differs after access {i}"));
        }
        if fast.occupancy() != reference.occupancy() {
            return Err(format!("occupancy differs after access {i}"));
        }
        if fast.stats() != reference.stats {
            return Err(format!(
                "stats differ after access {i}: {:?} vs {:?}",
                fast.stats(),
                reference.stats
            ));
        }
    }
    Ok(())
}

#[test]
fn one_set_one_way_cache_matches_reference() {
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Fifo,
        PolicyKind::Bip,
        PolicyKind::Dip,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
    ] {
        check_cache(policy, 1, 1, 7, 500).unwrap_or_else(|e| panic!("{policy}: {e}"));
    }
}

/// The two-branch stream-match predicate, over a copy of the stream table.
#[derive(Debug, Clone, Copy, Default)]
struct RefStream {
    last_line: u64,
    direction: i64,
    hits: u8,
    valid: bool,
    lru: u64,
}

#[derive(Debug)]
struct RefStreamPrefetcher {
    streams: Vec<RefStream>,
    degree: usize,
    clock: u64,
}

impl RefStreamPrefetcher {
    const WINDOW: u64 = 4;
    const TRAIN: u8 = 2;

    fn new(streams: usize, degree: usize) -> Self {
        RefStreamPrefetcher {
            streams: vec![RefStream::default(); streams],
            degree,
            clock: 0,
        }
    }

    fn on_miss(&mut self, line: u64) -> [Option<u64>; 2] {
        self.clock += 1;
        let mut out = [None, None];
        for s in &mut self.streams {
            if !s.valid {
                continue;
            }
            let delta = line as i64 - s.last_line as i64;
            let matches = (s.direction >= 0 && delta > 0 && delta <= Self::WINDOW as i64)
                || (s.direction <= 0 && delta < 0 && -delta <= Self::WINDOW as i64);
            if matches {
                s.direction = if delta > 0 { 1 } else { -1 };
                s.last_line = line;
                s.hits = (s.hits + 1).min(Self::TRAIN + 1);
                s.lru = self.clock;
                if s.hits >= Self::TRAIN {
                    for (d, slot) in out.iter_mut().take(self.degree).enumerate() {
                        let target = line as i64 + s.direction * (d as i64 + 1);
                        if target >= 0 {
                            *slot = Some(target as u64);
                        }
                    }
                }
                return out;
            }
        }
        let victim = self
            .streams
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("at least one stream");
        *victim = RefStream {
            last_line: line,
            direction: 0,
            hits: 0,
            valid: true,
            lru: self.clock,
        };
        out
    }
}

/// Drives both prefetchers with a seeded miss stream built from a few
/// interleaved walks. Steps are drawn from −(W+1)..=W+1, so they hit the
/// window edges exactly, repeat lines (step 0), reverse direction, and
/// walk down to line 0; occasional jumps start new streams.
fn check_prefetcher(streams: usize, degree: usize, seed: u64, n: usize) -> Result<(), String> {
    const W: i64 = RefStreamPrefetcher::WINDOW as i64;
    let mut fast = StreamPrefetcher::new(streams, degree);
    let mut reference = RefStreamPrefetcher::new(streams, degree);
    let mut rng = Rng::new(seed);
    let mut heads: Vec<u64> = (0..1 + rng.index(streams + 2))
        .map(|_| rng.below(64))
        .collect();
    for i in 0..n {
        let h = rng.index(heads.len());
        if rng.chance(0.05) {
            heads[h] = rng.below(1 << 40);
        } else {
            let step = rng.below(2 * W as u64 + 3) as i64 - (W + 1);
            heads[h] = heads[h].saturating_add_signed(step);
        }
        let line = heads[h];
        let (got, want) = (fast.on_miss(line), reference.on_miss(line));
        if got != want {
            return Err(format!("miss {i} on line {line}: {got:?} vs {want:?}"));
        }
    }
    Ok(())
}

#[test]
fn stream_window_edges_match_reference() {
    // Deterministic edge walks: steps of exactly ±WINDOW and ±(WINDOW+1),
    // repeated lines, and a descent onto line 0.
    for (streams, degree) in [(1, 1), (1, 2), (8, 2)] {
        let mut fast = StreamPrefetcher::new(streams, degree);
        let mut reference = RefStreamPrefetcher::new(streams, degree);
        let mut line = 40u64;
        for step in [
            4i64, 4, 4, 0, 0, 5, -4, -4, -4, -5, 1, -1, 1, -4, -4, -4, -4, -4, -4,
        ] {
            line = line.saturating_add_signed(step);
            assert_eq!(
                fast.on_miss(line),
                reference.on_miss(line),
                "{streams} streams, degree {degree}, line {line}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_model(
        policy in any_policy(),
        sets in 1usize..=12,
        ways in 1usize..=8,
        seed in any::<u64>(),
        n in 1usize..600,
    ) {
        let outcome = check_cache(policy, sets, ways, seed, n);
        prop_assert!(outcome.is_ok(), "{policy} {sets}x{ways}: {outcome:?}");
    }

    #[test]
    fn pow2_cache_matches_reference_model(
        policy in any_policy(),
        sets_log in 0u32..6,
        ways in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let sets = 1usize << sets_log;
        let outcome = check_cache(policy, sets, ways, seed, 800);
        prop_assert!(outcome.is_ok(), "{policy} {sets}x{ways}: {outcome:?}");
    }

    #[test]
    fn stream_prefetcher_matches_reference_predicate(
        streams in 1usize..=8,
        degree in 1usize..=2,
        seed in any::<u64>(),
        n in 1usize..800,
    ) {
        let outcome = check_prefetcher(streams, degree, seed, n);
        prop_assert!(outcome.is_ok(), "{streams} streams, degree {degree}: {outcome:?}");
    }
}
