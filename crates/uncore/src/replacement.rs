//! Cache replacement policies (the paper's five, plus their components).
//!
//! * **LRU** — classic least-recently-used recency stack.
//! * **RANDOM** — uniform random victim (deterministic PRNG).
//! * **FIFO** — round-robin victim per set, independent of hits.
//! * **DIP** [Qureshi et al., ISCA'07] — set dueling between LRU insertion
//!   and **BIP** (bimodal insertion: insert at LRU position except every
//!   1/32nd fill), with a saturating PSEL counter choosing the follower
//!   sets' policy.
//! * **DRRIP** [Jaleel et al., ISCA'10] — set dueling between **SRRIP**
//!   (static re-reference interval prediction, 2-bit RRPV) and **BRRIP**
//!   (bimodal RRIP).
//!
//! A policy object owns all per-set replacement state for one cache. The
//! cache calls [`ReplacementPolicy::on_hit`] on hits,
//! [`ReplacementPolicy::victim`] when it must evict from a full set, and
//! [`ReplacementPolicy::on_fill`] when a new line lands in a way.
//! [`PolicyKind::build`] returns a [`Policy`], which dispatches to the
//! concrete policy with a `match`, so a cache hit is a direct call that
//! can be inlined rather than a virtual one.

use mps_stats::rng::Rng;

/// Replacement policy interface, owning all per-set state of one cache.
///
/// Way indices passed in are guaranteed `< ways`; sets `< sets` (the values
/// given to the builder).
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// A line in `(set, way)` was re-referenced.
    fn on_hit(&mut self, set: usize, way: usize);

    /// A new line was just installed in `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Chooses the way to evict from a full `set`.
    fn victim(&mut self, set: usize) -> usize;

    /// Policy display name.
    fn name(&self) -> &'static str;
}

/// The policy menu. [`PolicyKind::PAPER_POLICIES`] lists the five the
/// paper evaluates; [`PolicyKind::ALL`] adds their set-dueling components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// Uniform random victim.
    Random,
    /// Round-robin (insertion-order) victim.
    Fifo,
    /// Bimodal insertion policy (a DIP component; usable standalone).
    Bip,
    /// Dynamic insertion policy: LRU vs BIP set dueling.
    Dip,
    /// Static RRIP.
    Srrip,
    /// Bimodal RRIP (a DRRIP component; usable standalone).
    Brrip,
    /// Dynamic RRIP: SRRIP vs BRRIP set dueling.
    Drrip,
}

impl PolicyKind {
    /// The five policies evaluated in the paper, in paper order.
    pub const PAPER_POLICIES: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Fifo,
        PolicyKind::Dip,
        PolicyKind::Drrip,
    ];

    /// Every policy, in declaration order.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Fifo,
        PolicyKind::Bip,
        PolicyKind::Dip,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
    ];

    /// The policy whose [`short_name`](Self::short_name) is `name`.
    pub fn from_short_name(name: &str) -> Option<PolicyKind> {
        Self::ALL.into_iter().find(|p| p.short_name() == name)
    }

    /// Instantiates the policy for a cache of `sets × ways`.
    pub fn build(self, sets: usize, ways: usize) -> Policy {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        Policy(match self {
            PolicyKind::Lru => Built::Lru(LruPolicy::new(sets, ways, InsertionMode::Mru)),
            PolicyKind::Random => Built::Random(RandomPolicy::new(ways)),
            PolicyKind::Fifo => Built::Fifo(FifoPolicy::new(sets, ways)),
            PolicyKind::Bip => Built::Lru(LruPolicy::new(sets, ways, InsertionMode::Bimodal)),
            PolicyKind::Dip => Built::Dip(DipPolicy::new(sets, ways)),
            PolicyKind::Srrip => Built::Rrip(RripPolicy::new(sets, ways, RripMode::Static)),
            PolicyKind::Brrip => Built::Rrip(RripPolicy::new(sets, ways, RripMode::Bimodal)),
            PolicyKind::Drrip => Built::Drrip(DrripPolicy::new(sets, ways)),
        })
    }

    /// Display name as used in the paper ("LRU", "RND", "FIFO", ...).
    pub fn short_name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "RND",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Bip => "BIP",
            PolicyKind::Dip => "DIP",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Drrip => "DRRIP",
        }
    }
}

impl core::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A built policy: [`PolicyKind::build`]'s result.
#[derive(Debug)]
pub struct Policy(Built);

/// The concrete policy behind a [`Policy`].
#[derive(Debug)]
enum Built {
    Lru(LruPolicy),
    Random(RandomPolicy),
    Fifo(FifoPolicy),
    Dip(DipPolicy),
    Rrip(RripPolicy),
    Drrip(DrripPolicy),
}

/// Forwards one [`ReplacementPolicy`] call to the concrete policy.
macro_rules! dispatch {
    ($self:expr, $p:ident => $call:expr) => {
        match $self {
            Built::Lru($p) => $call,
            Built::Random($p) => $call,
            Built::Fifo($p) => $call,
            Built::Dip($p) => $call,
            Built::Rrip($p) => $call,
            Built::Drrip($p) => $call,
        }
    };
}

impl ReplacementPolicy for Policy {
    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        dispatch!(&mut self.0, p => p.on_hit(set, way))
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        dispatch!(&mut self.0, p => p.on_fill(set, way))
    }

    #[inline]
    fn victim(&mut self, set: usize) -> usize {
        dispatch!(&mut self.0, p => p.victim(set))
    }

    fn name(&self) -> &'static str {
        dispatch!(&self.0, p => p.name())
    }
}

/// Bimodal-insertion throttle: 1 MRU (or near-RRPV) insertion per ε = 1/32
/// fills, as in the DIP and RRIP papers.
const BIMODAL_EPSILON: u32 = 32;

/// How LRU-stack-based policies insert new lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsertionMode {
    /// Always insert at MRU (classic LRU).
    Mru,
    /// Insert at LRU except every 1/32nd fill at MRU (BIP).
    Bimodal,
}

/// LRU / BIP over a flat per-way *rank* array instead of an explicit
/// recency stack: `ranks[set*ways + way]` is the way's recency rank
/// (0 = MRU, `ways−1` = LRU). The ranks of one set are always a
/// permutation of `0..ways`, so a touch-to-MRU is "increment every rank
/// below the touched one, then zero it" and a touch-to-LRU is the mirror
/// image — the exact same reordering a stack `remove`/`insert` performs,
/// as straight-line byte arithmetic over one contiguous slice.
#[derive(Debug)]
struct LruPolicy {
    ways: usize,
    /// Per-way recency ranks, one contiguous `u8` per line.
    ranks: Vec<u8>,
    mode: InsertionMode,
    bip_counter: u32,
}

impl LruPolicy {
    fn new(sets: usize, ways: usize, mode: InsertionMode) -> Self {
        assert!(ways <= u8::MAX as usize, "ways must fit in u8");
        // Way w starts at rank w: identical to the former stack's initial
        // order `[0, 1, ..., ways-1]` (way 0 = MRU).
        let mut ranks = vec![0u8; sets * ways];
        for (i, r) in ranks.iter_mut().enumerate() {
            *r = (i % ways) as u8;
        }
        LruPolicy {
            ways,
            ranks,
            mode,
            bip_counter: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize, to_mru: bool) {
        let base = set * self.ways;
        let ranks = &mut self.ranks[base..base + self.ways];
        let old = ranks[way];
        if to_mru {
            for r in ranks.iter_mut() {
                *r += u8::from(*r < old);
            }
            ranks[way] = 0;
        } else {
            for r in ranks.iter_mut() {
                *r -= u8::from(*r > old);
            }
            ranks[way] = (self.ways - 1) as u8;
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way, true);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        let to_mru = match self.mode {
            InsertionMode::Mru => true,
            InsertionMode::Bimodal => {
                self.bip_counter = (self.bip_counter + 1) % BIMODAL_EPSILON;
                self.bip_counter == 0
            }
        };
        self.touch(set, way, to_mru);
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        let lru = (self.ways - 1) as u8;
        self.ranks[base..base + self.ways]
            .iter()
            .position(|&r| r == lru)
            .expect("ranks form a permutation")
    }

    fn name(&self) -> &'static str {
        match self.mode {
            InsertionMode::Mru => "LRU",
            InsertionMode::Bimodal => "BIP",
        }
    }
}

/// Deterministic pseudo-random victim selection.
#[derive(Debug)]
struct RandomPolicy {
    ways: usize,
    rng: Rng,
}

impl RandomPolicy {
    fn new(ways: usize) -> Self {
        RandomPolicy {
            ways,
            // Fixed seed: replacement must be reproducible run to run.
            rng: Rng::new(0x52_4E_47_5F_53_45_45_44),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn on_hit(&mut self, _set: usize, _way: usize) {}
    fn on_fill(&mut self, _set: usize, _way: usize) {}
    fn victim(&mut self, _set: usize) -> usize {
        self.rng.index(self.ways)
    }
    fn name(&self) -> &'static str {
        "RND"
    }
}

/// FIFO: evict in insertion order, ignoring hits.
#[derive(Debug)]
struct FifoPolicy {
    ways: usize,
    next: Vec<u8>,
}

impl FifoPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= u8::MAX as usize);
        FifoPolicy {
            ways,
            next: vec![0; sets],
        }
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, set: usize) -> usize {
        let way = self.next[set] as usize;
        self.next[set] = ((way + 1) % self.ways) as u8;
        way
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

/// 10-bit saturating policy-selection counter used by DIP and DRRIP.
#[derive(Debug, Clone, Copy)]
struct Psel {
    value: i32,
    max: i32,
}

impl Psel {
    fn new() -> Self {
        Psel { value: 0, max: 511 }
    }
    fn up(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }
    fn down(&mut self) {
        self.value = (self.value - 1).max(-self.max - 1);
    }
    /// `true` selects the first (primary) policy.
    fn primary_wins(&self) -> bool {
        self.value < 0
    }
}

/// Which role a set plays in a set-dueling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    DedicatedPrimary,
    DedicatedSecondary,
    Follower,
}

/// Standard constituency-based dedicated-set assignment: within every
/// aligned group of 32 sets, set 0 duels for the primary policy and set 16
/// for the secondary. Caches smaller than 32 sets alternate instead.
fn set_role(set: usize, sets: usize) -> SetRole {
    if sets >= 32 {
        match set % 32 {
            0 => SetRole::DedicatedPrimary,
            16 => SetRole::DedicatedSecondary,
            _ => SetRole::Follower,
        }
    } else {
        match set % 4 {
            0 => SetRole::DedicatedPrimary,
            2 => SetRole::DedicatedSecondary,
            _ => SetRole::Follower,
        }
    }
}

/// DIP: LRU (primary) vs BIP (secondary) set dueling.
///
/// Misses in dedicated-LRU sets bump PSEL toward BIP and vice versa; the
/// cache reports misses to the policy through `on_fill` (a fill implies the
/// preceding lookup missed).
#[derive(Debug)]
struct DipPolicy {
    sets: usize,
    ranks: LruPolicy,
    psel: Psel,
    bip_counter: u32,
}

impl DipPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        DipPolicy {
            sets,
            ranks: LruPolicy::new(sets, ways, InsertionMode::Mru),
            psel: Psel::new(),
            bip_counter: 0,
        }
    }

    fn insertion_is_mru(&mut self, set: usize) -> bool {
        let use_lru = match set_role(set, self.sets) {
            SetRole::DedicatedPrimary => true,
            SetRole::DedicatedSecondary => false,
            SetRole::Follower => self.psel.primary_wins(),
        };
        if use_lru {
            true
        } else {
            self.bip_counter = (self.bip_counter + 1) % BIMODAL_EPSILON;
            self.bip_counter == 0
        }
    }
}

impl ReplacementPolicy for DipPolicy {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.ranks.touch(set, way, true);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        // A fill means the access missed: update the duel.
        match set_role(set, self.sets) {
            SetRole::DedicatedPrimary => self.psel.up(), // LRU missed
            SetRole::DedicatedSecondary => self.psel.down(), // BIP missed
            SetRole::Follower => {}
        }
        let mru = self.insertion_is_mru(set);
        self.ranks.touch(set, way, mru);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.ranks.victim(set)
    }

    fn name(&self) -> &'static str {
        "DIP"
    }
}

/// RRPV width: 2 bits as in the paper's DRRIP configuration.
const RRPV_MAX: u8 = 3;
/// Long re-reference interval used on SRRIP insertion.
const RRPV_LONG: u8 = RRPV_MAX - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RripMode {
    Static,
    Bimodal,
}

/// SRRIP / BRRIP with 2-bit re-reference prediction values.
#[derive(Debug)]
struct RripPolicy {
    ways: usize,
    rrpv: Vec<u8>,
    mode: RripMode,
    brip_counter: u32,
}

impl RripPolicy {
    fn new(sets: usize, ways: usize, mode: RripMode) -> Self {
        RripPolicy {
            ways,
            rrpv: vec![RRPV_MAX; sets * ways],
            mode,
            brip_counter: 0,
        }
    }

    fn fill_rrpv(&mut self, static_mode: bool) -> u8 {
        if static_mode {
            RRPV_LONG
        } else {
            // BRRIP: distant (MAX) except every 1/32nd fill gets LONG.
            self.brip_counter = (self.brip_counter + 1) % BIMODAL_EPSILON;
            if self.brip_counter == 0 {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        }
    }

    fn victim_impl(&mut self, set: usize) -> usize {
        // Find the leftmost way with RRPV == MAX, aging the set as needed.
        // Operating on one borrowed slice keeps the loop free of repeated
        // index arithmetic and bounds checks.
        let base = set * self.ways;
        let rrpv = &mut self.rrpv[base..base + self.ways];
        loop {
            if let Some(w) = rrpv.iter().position(|&v| v == RRPV_MAX) {
                return w;
            }
            for v in rrpv.iter_mut() {
                *v += 1;
            }
        }
    }
}

impl ReplacementPolicy for RripPolicy {
    fn on_hit(&mut self, set: usize, way: usize) {
        // Hit promotion: RRPV := 0 (near-immediate re-reference).
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        let v = self.fill_rrpv(self.mode == RripMode::Static);
        self.rrpv[set * self.ways + way] = v;
    }

    fn victim(&mut self, set: usize) -> usize {
        self.victim_impl(set)
    }

    fn name(&self) -> &'static str {
        match self.mode {
            RripMode::Static => "SRRIP",
            RripMode::Bimodal => "BRRIP",
        }
    }
}

/// DRRIP: SRRIP (primary) vs BRRIP (secondary) set dueling.
#[derive(Debug)]
struct DrripPolicy {
    sets: usize,
    rrip: RripPolicy,
    psel: Psel,
}

impl DrripPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        DrripPolicy {
            sets,
            rrip: RripPolicy::new(sets, ways, RripMode::Static),
            psel: Psel::new(),
        }
    }
}

impl ReplacementPolicy for DrripPolicy {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrip.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        let static_mode = match set_role(set, self.sets) {
            SetRole::DedicatedPrimary => {
                self.psel.up(); // SRRIP missed
                true
            }
            SetRole::DedicatedSecondary => {
                self.psel.down(); // BRRIP missed
                false
            }
            SetRole::Follower => self.psel.primary_wins(),
        };
        let v = self.rrip.fill_rrpv(static_mode);
        self.rrip.rrpv[set * self.rrip.ways + way] = v;
    }

    fn victim(&mut self, set: usize) -> usize {
        self.rrip.victim_impl(set)
    }

    fn name(&self) -> &'static str {
        "DRRIP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = PolicyKind::Lru.build(1, 4);
        // Fill ways 0..4 in order: stack (MRU..LRU) = 3,2,1,0.
        for w in 0..4 {
            p.on_fill(0, w);
        }
        assert_eq!(p.victim(0), 0);
        p.on_hit(0, 0); // 0 becomes MRU; LRU is now 1.
        assert_eq!(p.victim(0), 1);
        p.on_hit(0, 1);
        p.on_hit(0, 2);
        assert_eq!(p.victim(0), 3);
    }

    #[test]
    fn lru_stack_property() {
        // Accessing the same way repeatedly never changes the victim choice
        // among the others (stack property).
        let mut p = PolicyKind::Lru.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 2);
        let v1 = p.victim(0);
        p.on_hit(0, 2);
        p.on_hit(0, 2);
        assert_eq!(p.victim(0), v1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = PolicyKind::Fifo.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        assert_eq!(p.victim(0), 0);
        // Hits must not save a line under FIFO.
        p.on_hit(0, 1);
        assert_eq!(p.victim(0), 1);
        assert_eq!(p.victim(0), 2);
        assert_eq!(p.victim(0), 3);
        assert_eq!(p.victim(0), 0); // wraps
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let mut p = PolicyKind::Random.build(1, 8);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[p.victim(0)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn random_is_deterministic_across_instances() {
        let mut a = PolicyKind::Random.build(1, 8);
        let mut b = PolicyKind::Random.build(1, 8);
        for _ in 0..50 {
            assert_eq!(a.victim(0), b.victim(0));
        }
    }

    #[test]
    fn bip_inserts_at_lru_mostly() {
        let mut p = PolicyKind::Bip.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // After 4 bimodal fills (counter 1..4, none hit the 1/32 slot), all
        // went to LRU position; the last one filled sits at LRU.
        assert_eq!(p.victim(0), 3);
    }

    #[test]
    fn bip_occasionally_inserts_at_mru() {
        let mut p = PolicyKind::Bip.build(1, 2);
        let mut mru_inserts = 0;
        for i in 0..64 {
            p.on_fill(0, i % 2);
            // If the just-filled way is NOT the victim, it was MRU-inserted.
            if p.victim(0) != i % 2 {
                mru_inserts += 1;
            }
        }
        assert_eq!(mru_inserts, 2, "exactly 1 in {BIMODAL_EPSILON} fills");
    }

    #[test]
    fn srrip_hit_promotion_protects_line() {
        let mut p = PolicyKind::Srrip.build(1, 2);
        p.on_fill(0, 0); // RRPV 2
        p.on_fill(0, 1); // RRPV 2
        p.on_hit(0, 0); // RRPV 0
                        // Victim search ages both to (2→3, 0→1): way 1 reaches MAX first.
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn srrip_victim_is_leftmost_max() {
        let mut p = PolicyKind::Srrip.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // All at RRPV 2: aging brings all to 3; leftmost wins.
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = PolicyKind::Brrip.build(1, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        // Both inserted at RRPV MAX (fills 1 and 2 of 32): way 0 evicts first.
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn dip_dedicated_sets_follow_their_policy() {
        // In a 64-set DIP cache, set 0 is dedicated-LRU and set 16
        // dedicated-BIP regardless of PSEL.
        let mut p = PolicyKind::Dip.build(64, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // LRU-dedicated: inserted at MRU each time, victim = way 0.
        assert_eq!(p.victim(0), 0);
        for w in 0..4 {
            p.on_fill(16, w);
        }
        // BIP-dedicated: inserted at LRU, last fill is the victim.
        assert_eq!(p.victim(16), 3);
    }

    #[test]
    fn dip_psel_moves_follower_insertion() {
        let mut p = DipPolicy::new(64, 4);
        // Hammer misses into the dedicated-LRU set: PSEL goes up (BIP wins).
        for _ in 0..600 {
            p.on_fill(0, 0);
        }
        assert!(!p.psel.primary_wins());
        // Now hammer the dedicated-BIP set: PSEL comes back down.
        for _ in 0..1200 {
            p.on_fill(16, 0);
        }
        assert!(p.psel.primary_wins());
    }

    #[test]
    fn drrip_dedicated_sets_assigned() {
        assert_eq!(set_role(0, 64), SetRole::DedicatedPrimary);
        assert_eq!(set_role(16, 64), SetRole::DedicatedSecondary);
        assert_eq!(set_role(5, 64), SetRole::Follower);
        assert_eq!(set_role(32, 64), SetRole::DedicatedPrimary);
        // Small caches alternate every 4 sets.
        assert_eq!(set_role(0, 16), SetRole::DedicatedPrimary);
        assert_eq!(set_role(2, 16), SetRole::DedicatedSecondary);
        assert_eq!(set_role(1, 16), SetRole::Follower);
    }

    #[test]
    fn psel_saturates() {
        let mut p = Psel::new();
        for _ in 0..2000 {
            p.up();
        }
        assert_eq!(p.value, 511);
        for _ in 0..4000 {
            p.down();
        }
        assert_eq!(p.value, -512);
    }

    #[test]
    fn all_policies_build_and_report_names() {
        for kind in PolicyKind::ALL {
            let p = kind.build(32, 4);
            assert_eq!(p.name(), kind.short_name());
        }
    }

    #[test]
    fn short_names_parse_back() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_short_name(kind.short_name()), Some(kind));
        }
        assert_eq!(PolicyKind::from_short_name("nope"), None);
    }

    #[test]
    fn victims_always_in_range() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(8, 4);
            let mut rng = Rng::new(1);
            for i in 0..2000u64 {
                let set = (i % 8) as usize;
                match rng.index(3) {
                    0 => p.on_hit(set, rng.index(4)),
                    1 => p.on_fill(set, rng.index(4)),
                    _ => {
                        let v = p.victim(set);
                        assert!(v < 4, "{kind}: victim {v} out of range");
                    }
                }
            }
        }
    }

    #[test]
    fn dip_psel_saturates_at_both_rails_without_wrapping() {
        let mut p = DipPolicy::new(64, 4);
        // Hammer the dedicated-LRU leader: PSEL climbs to the +511 rail.
        for _ in 0..5_000 {
            p.on_fill(0, 0);
        }
        assert_eq!(p.psel.value, 511);
        p.on_fill(0, 0);
        assert_eq!(p.psel.value, 511, "top rail must not wrap");
        assert!(!p.psel.primary_wins(), "BIP wins at the top rail");
        // Hammer the dedicated-BIP leader: PSEL falls to the −512 rail.
        for _ in 0..5_000 {
            p.on_fill(16, 0);
        }
        assert_eq!(p.psel.value, -512);
        p.on_fill(16, 0);
        assert_eq!(p.psel.value, -512, "bottom rail must not wrap");
        assert!(p.psel.primary_wins(), "LRU wins at the bottom rail");
    }

    #[test]
    fn drrip_psel_rails_steer_follower_insertion() {
        let mut p = DrripPolicy::new(64, 4);
        // Rail toward BRRIP: dedicated-SRRIP misses push PSEL up.
        for _ in 0..600 {
            p.on_fill(0, 0);
        }
        assert_eq!(p.psel.value, 511);
        // Follower fills now insert BRRIP-style: distant (RRPV MAX) for
        // 31 of every 32 fills.
        let set = 1;
        let mut distant = 0;
        for i in 0..31usize {
            let way = i % 4;
            p.on_fill(set, way);
            if p.rrip.rrpv[set * 4 + way] == RRPV_MAX {
                distant += 1;
            }
        }
        assert!(distant >= 30, "BRRIP followers insert distant: {distant}");
        // Rail toward SRRIP: dedicated-BRRIP misses pull PSEL down.
        for _ in 0..5_000 {
            p.on_fill(16, 0);
        }
        assert_eq!(p.psel.value, -512);
        p.on_fill(set, 0);
        assert_eq!(
            p.rrip.rrpv[set * 4],
            RRPV_LONG,
            "SRRIP followers insert at the long interval"
        );
    }

    #[test]
    fn leader_set_mapping_is_one_pair_per_constituency() {
        // 64 sets = two aligned 32-set constituencies, each with exactly
        // one primary and one secondary leader at fixed offsets.
        for group in 0..2usize {
            let base = group * 32;
            let primaries: Vec<usize> = (base..base + 32)
                .filter(|&s| set_role(s, 64) == SetRole::DedicatedPrimary)
                .collect();
            let secondaries: Vec<usize> = (base..base + 32)
                .filter(|&s| set_role(s, 64) == SetRole::DedicatedSecondary)
                .collect();
            assert_eq!(primaries, vec![base]);
            assert_eq!(secondaries, vec![base + 16]);
        }
        // Caches below 32 sets fall back to a %4 alternation so both
        // leader kinds still exist.
        let roles: Vec<SetRole> = (0..8).map(|s| set_role(s, 8)).collect();
        assert_eq!(
            roles
                .iter()
                .filter(|&&r| r == SetRole::DedicatedPrimary)
                .count(),
            2
        );
        assert_eq!(
            roles
                .iter()
                .filter(|&&r| r == SetRole::DedicatedSecondary)
                .count(),
            2
        );
        assert_eq!(set_role(4, 8), SetRole::DedicatedPrimary);
        assert_eq!(set_role(6, 8), SetRole::DedicatedSecondary);
    }

    #[test]
    fn rrip_victim_ages_a_fully_protected_set() {
        let mut p = RripPolicy::new(1, 4, RripMode::Static);
        for w in 0..4 {
            p.on_fill(0, w);
            p.on_hit(0, w); // promote to RRPV 0
        }
        assert!(p.rrpv.iter().all(|&v| v == 0));
        // Victim search must age the whole set up to MAX, then pick the
        // leftmost way.
        assert_eq!(p.victim(0), 0);
        assert!(
            p.rrpv.iter().all(|&v| v == RRPV_MAX),
            "aging is set-wide: {:?}",
            p.rrpv
        );
    }

    #[test]
    fn associativity_one_caches_work_for_every_policy() {
        use crate::cache::{AccessType, Cache};
        for kind in PolicyKind::ALL {
            let mut c = Cache::new(4, 1, kind);
            // Cold miss, then a hit on the resident line.
            assert!(!c.access(0, AccessType::Read).is_hit(), "{kind}: cold");
            assert!(c.access(0, AccessType::Read).is_hit(), "{kind}: resident");
            // A conflicting line (same set) must always displace it.
            assert!(!c.access(4, AccessType::Write).is_hit(), "{kind}: conflict");
            assert!(
                !c.access(0, AccessType::Read).is_hit(),
                "{kind}: direct-mapped thrash"
            );
            assert!(c.access(0, AccessType::Read).is_hit(), "{kind}: refilled");
            assert!(c.stats().evictions >= 2, "{kind}: evictions counted");
        }
    }

    #[test]
    fn paper_policy_list() {
        let names: Vec<_> = PolicyKind::PAPER_POLICIES
            .iter()
            .map(|p| p.short_name())
            .collect();
        assert_eq!(names, ["LRU", "RND", "FIFO", "DIP", "DRRIP"]);
    }
}
