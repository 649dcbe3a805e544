//! Translation lookaside buffers.
//!
//! A TLB is structurally a small set-associative cache of page numbers, so
//! it reuses [`mps_uncore::Cache`] with LRU replacement (Table I: 4-way LRU
//! ITLB/DTLB, 4 kB pages). A miss costs a fixed page-walk penalty; the
//! workload threads are independent processes, so no shootdowns or sharing
//! are modelled.

use mps_uncore::{AccessType, Cache, PolicyKind};

/// A set-associative TLB.
#[derive(Debug)]
pub struct Tlb {
    cache: Cache,
    /// `log2(page_bytes)`: a page number is the address shifted right.
    page_shift: u32,
    miss_penalty: u64,
    misses: u64,
    accesses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries, `ways` associativity,
    /// the given page size and miss penalty in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or the
    /// page size is not a power of two.
    pub fn new(entries: usize, ways: usize, page_bytes: u64, miss_penalty: u64) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must be ways-aligned"
        );
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            cache: Cache::new(entries / ways, ways, PolicyKind::Lru),
            page_shift: page_bytes.trailing_zeros(),
            miss_penalty,
            misses: 0,
            accesses: 0,
        }
    }

    /// Translates `vaddr`, returning the extra cycles the access pays
    /// (0 on a hit, the page-walk penalty on a miss).
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        self.accesses += 1;
        let page = vaddr >> self.page_shift;
        if self.cache.access(page, AccessType::Read).is_hit() {
            0
        } else {
            self.misses += 1;
            self.miss_penalty
        }
    }

    /// (accesses, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut t = Tlb::new(64, 4, 4096, 30);
        assert_eq!(t.translate(0x1234), 30);
        assert_eq!(t.translate(0x1FF8), 0, "same page");
        assert_eq!(t.translate(0x2000), 30, "next page");
        assert_eq!(t.stats(), (3, 2));
    }

    #[test]
    fn capacity_eviction() {
        let mut t = Tlb::new(4, 4, 4096, 30);
        // 5 distinct pages in a 4-entry TLB: page 0 gets evicted (LRU).
        for p in 0..5u64 {
            t.translate(p * 4096);
        }
        assert_eq!(t.translate(0), 30, "page 0 was evicted");
        assert_eq!(t.translate(4 * 4096), 0, "page 4 still resident");
    }

    #[test]
    #[should_panic(expected = "ways-aligned")]
    fn misaligned_geometry_panics() {
        Tlb::new(10, 4, 4096, 30);
    }

    #[test]
    fn huge_addresses_translate() {
        let mut t = Tlb::new(64, 4, 4096, 30);
        assert_eq!(t.translate(u64::MAX), 30);
        assert_eq!(t.translate(u64::MAX - 1), 0);
    }
}
