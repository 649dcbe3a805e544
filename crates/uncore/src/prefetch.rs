//! Hardware prefetchers (Tables I and II).
//!
//! The paper's core configuration uses a next-line prefetcher on the L1I
//! and IP-based stride + next-line prefetchers on the L1D; the LLC has
//! IP-based stride + stream prefetchers. All three are implemented here and
//! shared by both simulators. Each prefetcher emits at most a couple of
//! candidate lines per access, returned by value in a small fixed array to
//! keep the hot path allocation-free.

/// Next-line prefetcher: on an access to line `L`, suggest `L + 1`.
#[derive(Debug, Clone, Default)]
pub struct NextLinePrefetcher {
    last: Option<u64>,
}

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes an access and returns the line to prefetch, if any.
    ///
    /// Repeated accesses to the same line do not re-issue the prefetch.
    pub fn on_access(&mut self, line: u64) -> Option<u64> {
        if self.last == Some(line) {
            return None;
        }
        self.last = Some(line);
        line.checked_add(1)
    }
}

/// One entry of the IP-stride table.
#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// IP-based stride prefetcher: learns a per-PC address stride and, once
/// confident, prefetches `degree` strides ahead.
#[derive(Debug, Clone)]
pub struct IpStridePrefetcher {
    table: Vec<StrideEntry>,
    degree: usize,
    /// `log2(line_bytes)`: a line number is the address shifted right.
    line_shift: u32,
}

impl IpStridePrefetcher {
    /// Confidence needed before prefetches are issued.
    const THRESHOLD: u8 = 2;

    /// Creates a stride prefetcher with `entries` table slots (rounded up
    /// to a power of two) and the given prefetch degree (max 2).
    ///
    /// # Panics
    ///
    /// Panics if `degree` is 0 or greater than 2, `entries` is 0, or
    /// `line_bytes` is not a power of two.
    pub fn new(entries: usize, degree: usize, line_bytes: u64) -> Self {
        assert!((1..=2).contains(&degree), "degree must be 1 or 2");
        assert!(entries > 0, "need at least one table entry");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        IpStridePrefetcher {
            table: vec![StrideEntry::default(); entries.next_power_of_two()],
            degree,
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    /// Observes a load at `pc` touching byte address `addr`; returns up to
    /// two *line numbers* to prefetch.
    pub fn on_access(&mut self, pc: u64, addr: u64) -> [Option<u64>; 2] {
        let idx = (pc >> 2) as usize & (self.table.len() - 1);
        let e = &mut self.table[idx];
        let mut out = [None, None];
        if e.tag == pc && e.last_addr != 0 {
            let stride = addr as i64 - e.last_addr as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = (e.confidence + 1).min(Self::THRESHOLD + 1);
            } else {
                e.stride = stride;
                e.confidence = 0;
            }
            e.last_addr = addr;
            if e.confidence >= Self::THRESHOLD {
                for (d, slot) in out.iter_mut().take(self.degree).enumerate() {
                    let target = addr as i64 + e.stride * (d as i64 + 1);
                    if target >= 0 {
                        let line = target as u64 >> self.line_shift;
                        // Only prefetch when crossing into a new line.
                        if line != addr >> self.line_shift {
                            *slot = Some(line);
                        }
                    }
                }
            }
        } else {
            *e = StrideEntry {
                tag: pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
        }
        out
    }
}

/// One tracked stream.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last_line: u64,
    /// +1 ascending, −1 descending, 0 untrained.
    direction: i64,
    hits: u8,
    /// Miss-clock value of the last allocation or match; 0 while the slot
    /// has never held a stream (the clock is at least 1 when one does).
    lru: u64,
}

/// Stream prefetcher (LLC): detects sequences of consecutive line misses
/// and runs ahead of them.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    degree: usize,
    clock: u64,
}

impl StreamPrefetcher {
    /// Accesses within this many lines of a stream head are considered part
    /// of the stream.
    const WINDOW: u64 = 4;
    /// Misses needed before a stream starts prefetching.
    const TRAIN: u8 = 2;

    /// Creates a stream prefetcher tracking `streams` streams with the
    /// given degree (max 2 lines per trigger).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is 0 or `degree` not in 1..=2.
    pub fn new(streams: usize, degree: usize) -> Self {
        assert!(streams > 0, "need at least one stream tracker");
        assert!((1..=2).contains(&degree), "degree must be 1 or 2");
        StreamPrefetcher {
            streams: vec![Stream::default(); streams],
            degree,
            clock: 0,
        }
    }

    /// Observes a demand **miss** on `line`; returns up to two lines to
    /// prefetch.
    pub fn on_miss(&mut self, line: u64) -> [Option<u64>; 2] {
        self.clock += 1;
        let mut out = [None, None];
        // One pass over the table finds both the first valid stream this
        // miss extends and the LRU victim: empty slots have `lru == 0`, so
        // the first minimum is "first empty slot, else least recent". A
        // stream matches when 0 < |Δ| ≤ WINDOW and `direction·Δ ≥ 0`: for
        // direction ∈ {−1, 0, 1} that is "ascending streams take Δ > 0,
        // descending ones Δ < 0, untrained ones either". Nothing in the
        // pass branches.
        let (mut hit, mut victim, mut oldest) = (usize::MAX, 0, u64::MAX);
        for (i, s) in self.streams.iter().enumerate() {
            let delta = line.wrapping_sub(s.last_line) as i64;
            let matches = (s.lru != 0)
                & (delta.unsigned_abs().wrapping_sub(1) < Self::WINDOW)
                & (s.direction.wrapping_mul(delta) >= 0);
            hit = if matches & (hit == usize::MAX) {
                i
            } else {
                hit
            };
            let older = s.lru < oldest;
            victim = if older { i } else { victim };
            oldest = oldest.min(s.lru);
        }
        if let Some(s) = self.streams.get_mut(hit) {
            s.direction = (line.wrapping_sub(s.last_line) as i64).signum();
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
        // Allocate a new stream in the LRU victim's slot.
        self.streams[victim] = Stream {
            last_line: line,
            direction: 0,
            hits: 0,
            lru: self.clock,
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_suggests_successor() {
        let mut p = NextLinePrefetcher::new();
        assert_eq!(p.on_access(10), Some(11));
        assert_eq!(p.on_access(10), None, "same line suppressed");
        assert_eq!(p.on_access(11), Some(12));
    }

    #[test]
    fn next_line_saturates_at_max() {
        let mut p = NextLinePrefetcher::new();
        assert_eq!(p.on_access(u64::MAX), None);
    }

    #[test]
    fn ip_stride_learns_constant_stride() {
        let mut p = IpStridePrefetcher::new(64, 1, 64);
        let pc = 0x400100;
        let mut issued = vec![];
        for i in 0..8u64 {
            let [a, _] = p.on_access(pc, 0x1000 + i * 256);
            if let Some(l) = a {
                issued.push(l);
            }
        }
        // Strides become confident after a few repeats, then prefetch
        // addr + 256 (4 lines ahead at 64B lines).
        assert!(!issued.is_empty());
        for (k, l) in issued.iter().enumerate() {
            let i = 8 - issued.len() + k;
            assert_eq!(*l, (0x1000 + (i as u64) * 256 + 256) / 64);
        }
    }

    #[test]
    fn ip_stride_ignores_irregular_pcs() {
        let mut p = IpStridePrefetcher::new(64, 1, 64);
        let pc = 0x400100;
        // Random-looking addresses: stride never repeats.
        for addr in [0x1000u64, 0x9200, 0x3456, 0x77778, 0x120] {
            let [a, b] = p.on_access(pc, addr);
            assert_eq!(a, None);
            assert_eq!(b, None);
        }
    }

    #[test]
    fn ip_stride_small_stride_within_line_not_prefetched() {
        let mut p = IpStridePrefetcher::new(64, 1, 64);
        let pc = 0x400200;
        // 8-byte stride stays inside one 64-byte line for 7 of 8 accesses;
        // only the boundary-crossing access may fire.
        let mut fired = 0;
        for i in 0..8u64 {
            let [a, _] = p.on_access(pc, 0x2000 + i * 8);
            if a.is_some() {
                fired += 1;
            }
        }
        assert!(fired <= 1, "same-line prefetches suppressed, fired={fired}");
    }

    #[test]
    fn ip_stride_degree_two_issues_two() {
        let mut p = IpStridePrefetcher::new(64, 2, 64);
        let pc = 0x400300;
        let mut last = [None, None];
        for i in 0..6u64 {
            last = p.on_access(pc, 0x4000 + i * 128);
        }
        assert!(last[0].is_some() && last[1].is_some());
        assert_eq!(last[1].unwrap(), last[0].unwrap() + 2); // 128B = 2 lines
    }

    #[test]
    fn stream_detects_ascending_runs() {
        let mut p = StreamPrefetcher::new(4, 2);
        let mut prefetched = vec![];
        for line in 100..110u64 {
            let [a, b] = p.on_miss(line);
            prefetched.extend(a);
            prefetched.extend(b);
        }
        assert!(!prefetched.is_empty());
        // Prefetches run ahead of the miss stream.
        assert!(prefetched.iter().all(|&l| l > 100));
    }

    #[test]
    fn stream_detects_descending_runs() {
        let mut p = StreamPrefetcher::new(4, 1);
        let mut prefetched = vec![];
        for line in (50..60u64).rev() {
            let [a, _] = p.on_miss(line);
            prefetched.extend(a);
        }
        assert!(!prefetched.is_empty());
        assert!(prefetched.iter().all(|&l| l < 59));
    }

    #[test]
    fn stream_ignores_random_misses() {
        let mut p = StreamPrefetcher::new(4, 1);
        let mut fired = 0;
        for line in [5u64, 900, 13, 70000, 42, 123456, 7, 99999] {
            let [a, _] = p.on_miss(line);
            fired += a.iter().count();
        }
        assert_eq!(fired, 0);
    }

    #[test]
    fn stream_tracks_multiple_streams() {
        let mut p = StreamPrefetcher::new(4, 1);
        let mut fired = 0;
        for i in 0..10u64 {
            fired += p.on_miss(1000 + i).iter().flatten().count();
            fired += p.on_miss(900_000 - i).iter().flatten().count();
        }
        assert!(fired >= 12, "both streams train: fired={fired}");
    }

    #[test]
    #[should_panic(expected = "degree must be")]
    fn stream_rejects_zero_degree() {
        StreamPrefetcher::new(4, 0);
    }
}
