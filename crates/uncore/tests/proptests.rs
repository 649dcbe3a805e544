//! Property-based tests for the cache and uncore invariants.

use mps_stats::rng::Rng;
use mps_uncore::{AccessType, Cache, PolicyKind, Uncore, UncoreConfig};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_invariants_hold_for_any_policy_and_stream(
        policy in any_policy(),
        lines in prop::collection::vec(0u64..512, 1..400),
        sets_log in 2u32..6,
        ways in 1usize..8,
    ) {
        let sets = 1usize << sets_log;
        let mut c = Cache::new(sets, ways, policy);
        for (i, &line) in lines.iter().enumerate() {
            let kind = if i % 5 == 0 { AccessType::Write } else { AccessType::Read };
            c.access(line, kind);
            // Occupancy never exceeds capacity.
            prop_assert!(c.occupancy() <= sets * ways);
            // A just-accessed line is always resident.
            prop_assert!(c.probe(line));
        }
        let s = c.stats();
        prop_assert_eq!(s.demand_accesses, lines.len() as u64);
        prop_assert!(s.demand_misses <= s.demand_accesses);
        // At most one distinct line per access can have been installed.
        prop_assert!(c.occupancy() as u64 <= s.demand_misses);
    }

    #[test]
    fn hits_only_happen_for_previously_seen_lines(
        policy in any_policy(),
        lines in prop::collection::vec(0u64..64, 1..200),
    ) {
        let mut c = Cache::new(8, 2, policy);
        let mut seen = std::collections::BTreeSet::new();
        for &line in &lines {
            let outcome = c.access(line, AccessType::Read);
            if outcome.is_hit() {
                prop_assert!(seen.contains(&line), "hit on never-seen line {line}");
            }
            seen.insert(line);
        }
    }

    #[test]
    fn uncore_completions_are_causal_and_deterministic(
        policy in any_policy(),
        seed in any::<u64>(),
        n in 10usize..150,
    ) {
        let run = || {
            let mut u = Uncore::new(UncoreConfig::tiny_for_tests(policy), 2);
            let mut rng = Rng::new(seed);
            let mut now = 0u64;
            let mut completions = Vec::new();
            for _ in 0..n {
                let core = rng.index(2);
                let addr = rng.below(1 << 20);
                let done = u.access(core, addr, rng.chance(0.2), now);
                // Completion strictly after issue.
                assert!(done > now, "done {done} <= now {now}");
                completions.push(done);
                now += rng.below(20);
            }
            completions
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn uncore_hits_are_never_slower_than_misses_for_same_line(
        seed in any::<u64>(),
    ) {
        let mut u = Uncore::new(UncoreConfig::tiny_for_tests(PolicyKind::Lru), 1);
        let mut rng = Rng::new(seed);
        let addr = rng.below(1 << 16);
        let miss_done = u.access(0, addr, false, 0);
        let miss_latency = miss_done;
        let hit_start = miss_done + 10;
        let hit_done = u.access(0, addr, false, hit_start);
        prop_assert!(hit_done - hit_start <= miss_latency);
    }
}
