//! TAGE branch predictor (paper Table I lists a 4 kB TAGE).
//!
//! A compact but faithful TAGE [Seznec & Michaud, JILP 2006]: a bimodal
//! base predictor plus `N` tagged tables indexed with geometrically
//! increasing global-history lengths. Prediction comes from the longest
//! matching history; allocation on mispredictions steals entries whose
//! `useful` counter has decayed.

/// History lengths of the tagged tables (geometric series).
const HIST_LENGTHS: [usize; 4] = [8, 16, 32, 64];
/// log2 entries per tagged table.
const TAGGED_BITS: usize = 9;
/// log2 entries of the bimodal base table.
const BASE_BITS: usize = 12;
/// Tag width.
const TAG_BITS: u64 = 9;
/// Widths each table's history is folded to: the index, the tag and the
/// tag's second hash.
const FOLD_WIDTHS: [usize; 3] = [TAGGED_BITS, TAG_BITS as usize, TAG_BITS as usize - 1];

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter: ≥ 0 predicts taken.
    ctr: i8,
    /// 2-bit useful counter.
    useful: u8,
}

/// The predictor. See the module docs.
#[derive(Debug, Clone)]
pub struct Tage {
    base: Vec<i8>,
    tables: Vec<Vec<TaggedEntry>>,
    /// Global history (most recent outcome in bit 0).
    ghist: u128,
    /// `folds[t][w]`: the last `HIST_LENGTHS[t]` outcomes of `ghist`
    /// XOR-folded to `FOLD_WIDTHS[w]` bits, kept current by `apply`.
    folds: [[u64; FOLD_WIDTHS.len()]; HIST_LENGTHS.len()],
    /// Allocation tie-breaker / useful-reset clock.
    clock: u64,
}

impl Default for Tage {
    fn default() -> Self {
        Self::new()
    }
}

/// Internal prediction bookkeeping carried from predict to update.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    provider: Option<usize>,
    provider_idx: usize,
    altpred: bool,
    pred: bool,
}

impl Tage {
    /// Creates a predictor with all counters neutral.
    pub fn new() -> Self {
        Tage {
            base: vec![0; 1 << BASE_BITS],
            tables: HIST_LENGTHS
                .iter()
                .map(|_| vec![TaggedEntry::default(); 1 << TAGGED_BITS])
                .collect(),
            ghist: 0,
            folds: [[0; FOLD_WIDTHS.len()]; HIST_LENGTHS.len()],
            clock: 0,
        }
    }

    /// The reference fold the incremental `folds` must equal.
    #[cfg(test)]
    fn folded_hist(&self, bits: usize, out_bits: usize) -> u64 {
        let mut h = self.ghist & ((1u128 << bits) - 1);
        let mut folded: u64 = 0;
        while h != 0 {
            folded ^= (h as u64) & ((1 << out_bits) - 1);
            h >>= out_bits;
        }
        folded
    }

    fn index(&self, table: usize, pc: u64) -> usize {
        let h = self.folds[table][0];
        (((pc >> 2) ^ (pc >> (2 + TAGGED_BITS)) ^ h) as usize) & ((1 << TAGGED_BITS) - 1)
    }

    fn tag(&self, table: usize, pc: u64) -> u16 {
        let [_, h, h2] = self.folds[table];
        (((pc >> 2) ^ h ^ (h2 << 1)) & ((1 << TAG_BITS) - 1)) as u16
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << BASE_BITS) - 1)
    }

    fn lookup(&self, pc: u64) -> Lookup {
        let base_pred = self.base[self.base_index(pc)] >= 0;
        let mut provider = None;
        let mut provider_idx = 0;
        let mut pred = base_pred;
        let mut altpred = base_pred;
        // Longest history first.
        for t in (0..self.tables.len()).rev() {
            let idx = self.index(t, pc);
            let e = &self.tables[t][idx];
            if e.tag == self.tag(t, pc) {
                if provider.is_none() {
                    provider = Some(t);
                    provider_idx = idx;
                    pred = e.ctr >= 0;
                } else {
                    altpred = e.ctr >= 0;
                    break;
                }
            }
        }
        Lookup {
            provider,
            provider_idx,
            altpred: if provider.is_some() {
                altpred
            } else {
                base_pred
            },
            pred,
        }
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.lookup(pc).pred
    }

    /// Predicts and immediately trains on the resolved outcome, returning
    /// the prediction. Equivalent to [`Tage::predict`] followed by
    /// [`Tage::update`] (prediction is pure, so the tables are unchanged
    /// between the two), but performs the tagged-table lookup once
    /// instead of twice.
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let l = self.lookup(pc);
        self.apply(l, pc, taken);
        l.pred
    }

    /// Updates the predictor with the resolved outcome and advances the
    /// global history. Call exactly once per dynamic branch, after
    /// [`Tage::predict`].
    pub fn update(&mut self, pc: u64, taken: bool) {
        let l = self.lookup(pc);
        self.apply(l, pc, taken);
    }

    /// Applies the training step for a resolved branch given its lookup.
    fn apply(&mut self, l: Lookup, pc: u64, taken: bool) {
        self.clock += 1;
        let mispredicted = l.pred != taken;

        match l.provider {
            Some(t) => {
                let e = &mut self.tables[t][l.provider_idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                // Useful when the provider disagreed with altpred and was right.
                if l.pred != l.altpred {
                    if !mispredicted {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                self.base[idx] = (self.base[idx] + if taken { 1 } else { -1 }).clamp(-2, 1);
            }
        }

        // Allocate a new entry on misprediction in a longer-history table.
        if mispredicted {
            let start = l.provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in start..self.tables.len() {
                let idx = self.index(t, pc);
                let tag = self.tag(t, pc);
                let e = &mut self.tables[t][idx];
                if e.useful == 0 {
                    *e = TaggedEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Decay usefulness so future allocations succeed.
                for t in start..self.tables.len() {
                    let idx = self.index(t, pc);
                    let e = &mut self.tables[t][idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        // Periodic graceful reset of useful counters.
        if self.clock.is_multiple_of(1 << 18) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        // Folding is linear, so each fold follows the history: rotate it
        // left by one, shift the new outcome in, and XOR out the outcome
        // leaving the window, which the rotation carried to bit
        // `len % width`.
        for (folds, &len) in self.folds.iter_mut().zip(&HIST_LENGTHS) {
            let leaving = (self.ghist >> (len - 1)) as u64 & 1;
            for (f, &width) in folds.iter_mut().zip(&FOLD_WIDTHS) {
                let mut x = (*f << 1) | u64::from(taken);
                x ^= leaving << (len % width);
                x ^= x >> width;
                *f = x & ((1 << width) - 1);
            }
        }
        self.ghist = (self.ghist << 1) | u128::from(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a stream of (pc, outcome) through the predictor, returning the
    /// accuracy over the last half (after warmup).
    fn accuracy(mut outcomes: impl Iterator<Item = (u64, bool)>, n: usize) -> f64 {
        let mut t = Tage::new();
        let mut correct = 0usize;
        let mut counted = 0usize;
        for i in 0..n {
            let (pc, taken) = outcomes.next().expect("stream long enough");
            let pred = t.predict(pc);
            if i >= n / 2 {
                counted += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            t.update(pc, taken);
        }
        correct as f64 / counted as f64
    }

    #[test]
    fn always_taken_branch_is_learned() {
        let acc = accuracy(std::iter::repeat((0x40_0000, true)), 2000);
        assert!(acc > 0.999, "acc={acc}");
    }

    #[test]
    fn always_not_taken_branch_is_learned() {
        let acc = accuracy(std::iter::repeat((0x40_0100, false)), 2000);
        assert!(acc > 0.999, "acc={acc}");
    }

    #[test]
    fn short_period_pattern_is_learned() {
        // T T N repeating: needs a little history, well within reach.
        let pattern = [true, true, false];
        let stream = (0..).map(move |i| (0x40_0200u64, pattern[i % 3]));
        let acc = accuracy(stream, 6000);
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn long_period_pattern_uses_long_history() {
        // Period-12 pattern: bimodal alone cannot learn it.
        let pattern = [
            true, true, true, false, true, false, false, true, true, false, false, false,
        ];
        let stream = (0..).map(move |i| (0x40_0300u64, pattern[i % 12]));
        let acc = accuracy(stream, 20_000);
        assert!(acc > 0.90, "acc={acc}");
    }

    #[test]
    fn random_branches_are_near_chance() {
        let mut rng = mps_stats::rng::Rng::new(42);
        let stream = std::iter::from_fn(move || Some((0x40_0400u64, rng.chance(0.5))));
        let acc = accuracy(stream, 20_000);
        assert!(acc < 0.60, "random stream should not be predictable: {acc}");
    }

    #[test]
    fn biased_random_branches_track_bias() {
        let mut rng = mps_stats::rng::Rng::new(43);
        let stream = std::iter::from_fn(move || Some((0x40_0500u64, rng.chance(0.9))));
        let acc = accuracy(stream, 20_000);
        assert!(acc > 0.80, "acc={acc}");
    }

    #[test]
    fn multiple_branch_sites_do_not_destroy_each_other() {
        // Interleave four fully biased sites.
        let stream = (0..).map(|i| {
            let site = i % 4;
            (0x40_1000u64 + site as u64 * 64, site % 2 == 0)
        });
        let acc = accuracy(stream, 8000);
        assert!(acc > 0.99, "acc={acc}");
    }

    #[test]
    fn incremental_folds_match_reference() {
        let mut rng = mps_stats::rng::Rng::new(7);
        let mut t = Tage::new();
        for i in 0..12_000u64 {
            // A few hundred sites with mixed bias keep allocation busy.
            let pc = 0x40_0000 + (rng.index(300) as u64) * 4;
            let taken = rng.chance(if pc.is_multiple_of(8) { 0.9 } else { 0.4 });
            t.resolve(pc, taken);
            for (table, &len) in HIST_LENGTHS.iter().enumerate() {
                for (w, &width) in FOLD_WIDTHS.iter().enumerate() {
                    assert_eq!(
                        t.folds[table][w],
                        t.folded_hist(len, width),
                        "branch {i}, table {table}, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_is_pure() {
        let t = Tage::new();
        let a = t.predict(0x400);
        let b = t.predict(0x400);
        assert_eq!(a, b);
    }
}
