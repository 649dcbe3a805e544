//! Uncore configurations (paper Table II).

use crate::memory::MemoryConfig;
use crate::replacement::PolicyKind;

/// Configuration of the shared uncore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoreConfig {
    /// Shared LLC capacity in bytes.
    pub llc_size: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC hit latency in core cycles.
    pub llc_latency: u64,
    /// Cache-line size in bytes (all levels).
    pub line_bytes: u64,
    /// Number of LLC miss-status-holding registers.
    pub mshrs: usize,
    /// LLC write-buffer entries (writebacks beyond this stall the port).
    pub write_buffer: usize,
    /// LLC replacement policy under study.
    pub policy: PolicyKind,
    /// FSB/DRAM timing.
    pub memory: MemoryConfig,
    /// Enable the per-core LLC stream prefetchers.
    pub stream_prefetch: bool,
}

impl UncoreConfig {
    /// The paper's Table II configuration for a given core count.
    ///
    /// | cores | LLC size | LLC latency |
    /// |-------|----------|-------------|
    /// | 1, 2  | 1 MB     | 5 cycles    |
    /// | 4     | 2 MB     | 6 cycles    |
    /// | 8     | 4 MB     | 7 cycles    |
    ///
    /// All variants: 64-byte lines, 16-way, write-back, 8-entry write
    /// buffer, 16 MSHRs, stream prefetchers, 800 MHz × 8 B FSB, 200-cycle
    /// DRAM.
    ///
    /// # Panics
    ///
    /// Panics for core counts other than 1, 2, 4 or 8.
    ///
    /// # Example
    ///
    /// ```
    /// use mps_uncore::{PolicyKind, UncoreConfig};
    ///
    /// let cfg = UncoreConfig::ispass2013(4, PolicyKind::Drrip);
    /// assert_eq!(cfg.llc_size, 2 << 20);
    /// assert_eq!(cfg.llc_latency, 6);
    /// ```
    pub fn ispass2013(cores: usize, policy: PolicyKind) -> Self {
        let (llc_size, llc_latency) = match cores {
            1 | 2 => (1u64 << 20, 5),
            4 => (2u64 << 20, 6),
            8 => (4u64 << 20, 7),
            _ => panic!("Table II defines 2-, 4- and 8-core uncores (got {cores})"),
        };
        UncoreConfig {
            llc_size,
            llc_ways: 16,
            llc_latency,
            line_bytes: 64,
            mshrs: 16,
            write_buffer: 8,
            policy,
            memory: MemoryConfig::ispass2013(),
            stream_prefetch: true,
        }
    }

    /// Canonical fingerprint of every timing and capacity knob, in the
    /// `key=value;…` form the artifact store and the validation report
    /// use for provenance. Two configurations with equal spec strings
    /// are behaviorally interchangeable; any knob change shows up in the
    /// string. Part of the stable validation surface consumed by
    /// `mps-harness validate` (see `docs/validation.md`).
    ///
    /// # Example
    ///
    /// ```
    /// use mps_uncore::{PolicyKind, UncoreConfig};
    ///
    /// let spec = UncoreConfig::ispass2013(2, PolicyKind::Lru).spec_string();
    /// assert!(spec.starts_with("llc=1048576x16w@5;"));
    /// assert!(spec.contains("policy=LRU"));
    /// ```
    pub fn spec_string(&self) -> String {
        format!(
            "llc={}x{}w@{};line={};mshrs={};wb={};policy={};fsb={};dram={};pf={}",
            self.llc_size,
            self.llc_ways,
            self.llc_latency,
            self.line_bytes,
            self.mshrs,
            self.write_buffer,
            self.policy,
            self.memory.fsb_cycles_per_line,
            self.memory.dram_latency,
            u8::from(self.stream_prefetch),
        )
    }

    /// The Table II uncore with its LLC capacity divided by `divisor`
    /// (latencies unchanged).
    ///
    /// Detailed simulation at paper scale runs 100 M instructions per
    /// thread — enough to wrap a 2 MB LLC thousands of times. Reproduction
    /// runs are 10⁴–10⁵ instructions, so capacity is scaled down with the
    /// trace to preserve the *ratio* of working-set size to cache size,
    /// which is what replacement policies respond to (see `DESIGN.md`).
    /// The canonical experiment scaling uses `divisor = 16`:
    /// 64 kB / 128 kB / 256 kB for 2 / 4 / 8 cores.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or does not leave at least one
    /// power-of-two set.
    pub fn ispass2013_scaled(cores: usize, policy: PolicyKind, divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        let mut cfg = Self::ispass2013(cores, policy);
        cfg.llc_size /= divisor;
        assert!(
            cfg.llc_sets() > 0 && cfg.llc_sets().is_power_of_two(),
            "divisor {divisor} leaves no valid set count"
        );
        cfg
    }

    /// A deliberately tiny uncore for fast unit tests: 16 kB, 4-way LLC,
    /// same latencies as the 2-core Table II uncore.
    pub fn tiny_for_tests(policy: PolicyKind) -> Self {
        UncoreConfig {
            llc_size: 16 << 10,
            llc_ways: 4,
            llc_latency: 5,
            line_bytes: 64,
            mshrs: 8,
            write_buffer: 4,
            policy,
            memory: MemoryConfig::ispass2013(),
            stream_prefetch: true,
        }
    }

    /// Number of LLC sets implied by the geometry.
    pub fn llc_sets(&self) -> usize {
        (self.llc_size / (self.llc_ways as u64 * self.line_bytes)) as usize
    }

    /// Checks the structural constraints the uncore relies on: at least
    /// one MSHR and one write-buffer entry, a power-of-two line size, and
    /// a non-empty power-of-two set count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mshrs == 0 {
            return Err("need at least one MSHR".into());
        }
        if self.write_buffer == 0 {
            return Err("need at least one write-buffer entry".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} is not a power of two",
                self.line_bytes
            ));
        }
        if self.llc_ways == 0 {
            return Err("LLC needs at least one way".into());
        }
        let sets = self.llc_sets();
        if !sets.is_power_of_two() {
            return Err(format!(
                "LLC of {} bytes with {} ways gives {sets} sets, not a positive power of two",
                self.llc_size, self.llc_ways
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_sizes_and_latencies() {
        let c2 = UncoreConfig::ispass2013(2, PolicyKind::Lru);
        assert_eq!((c2.llc_size, c2.llc_latency), (1 << 20, 5));
        let c4 = UncoreConfig::ispass2013(4, PolicyKind::Lru);
        assert_eq!((c4.llc_size, c4.llc_latency), (2 << 20, 6));
        let c8 = UncoreConfig::ispass2013(8, PolicyKind::Lru);
        assert_eq!((c8.llc_size, c8.llc_latency), (4 << 20, 7));
    }

    #[test]
    fn shared_parameters() {
        let c = UncoreConfig::ispass2013(4, PolicyKind::Dip);
        assert_eq!(c.llc_ways, 16);
        assert_eq!(c.line_bytes, 64);
        assert_eq!(c.mshrs, 16);
        assert_eq!(c.write_buffer, 8);
        assert!(c.stream_prefetch);
        assert_eq!(c.policy, PolicyKind::Dip);
    }

    #[test]
    fn set_counts_are_powers_of_two() {
        for cores in [2, 4, 8] {
            let c = UncoreConfig::ispass2013(cores, PolicyKind::Lru);
            assert!(c.llc_sets().is_power_of_two(), "{cores} cores");
        }
        // 2 MB / (16 × 64 B) = 2048 sets.
        assert_eq!(
            UncoreConfig::ispass2013(4, PolicyKind::Lru).llc_sets(),
            2048
        );
    }

    #[test]
    fn table_ii_configurations_validate() {
        for cores in [1, 2, 4, 8] {
            assert_eq!(
                UncoreConfig::ispass2013(cores, PolicyKind::Lru).validate(),
                Ok(())
            );
        }
        assert_eq!(
            UncoreConfig::tiny_for_tests(PolicyKind::Lru).validate(),
            Ok(())
        );
    }

    fn rejection(edit: impl FnOnce(&mut UncoreConfig)) -> String {
        let mut cfg = UncoreConfig::ispass2013(2, PolicyKind::Lru);
        edit(&mut cfg);
        cfg.validate().expect_err("configuration must be rejected")
    }

    #[test]
    fn validate_rejects_zero_mshrs() {
        assert!(rejection(|c| c.mshrs = 0).contains("MSHR"));
    }

    #[test]
    fn validate_rejects_zero_write_buffer() {
        assert!(rejection(|c| c.write_buffer = 0).contains("write-buffer"));
    }

    #[test]
    fn validate_rejects_non_power_of_two_line() {
        assert!(rejection(|c| c.line_bytes = 48).contains("line size 48"));
    }

    #[test]
    fn validate_rejects_zero_ways() {
        assert!(rejection(|c| c.llc_ways = 0).contains("at least one way"));
    }

    #[test]
    fn validate_rejects_zero_sets() {
        assert!(rejection(|c| c.llc_size = 512).contains("gives 0 sets"));
    }

    #[test]
    fn validate_rejects_non_power_of_two_sets() {
        assert!(rejection(|c| c.llc_size = 3 << 20).contains("gives 3072 sets"));
    }

    #[test]
    #[should_panic(expected = "Table II")]
    fn unsupported_core_count_panics() {
        UncoreConfig::ispass2013(3, PolicyKind::Lru);
    }

    #[test]
    fn spec_string_distinguishes_every_knob() {
        let base = UncoreConfig::ispass2013(4, PolicyKind::Lru);
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(base.spec_string()));
        let mut v = base.clone();
        v.policy = PolicyKind::Drrip;
        assert!(seen.insert(v.spec_string()), "policy change must show");
        let mut v = base.clone();
        v.llc_size /= 2;
        assert!(seen.insert(v.spec_string()), "capacity change must show");
        let mut v = base.clone();
        v.memory.dram_latency += 1;
        assert!(seen.insert(v.spec_string()), "DRAM change must show");
        let mut v = base;
        v.stream_prefetch = false;
        assert!(seen.insert(v.spec_string()), "prefetch change must show");
    }
}
