//! Core configuration (paper Table I).

/// Geometry and latencies of one out-of-order core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions decoded/dispatched per cycle.
    pub decode_width: usize,
    /// Maximum µops issued to execution per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reservation-station entries (window of unissued µops).
    pub rs_entries: usize,
    /// Load-queue entries.
    pub ldq_entries: usize,
    /// Store-queue entries.
    pub stq_entries: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Fetch-buffer capacity in µops.
    pub fetch_buffer: usize,
    /// Memory operations issued per cycle (load/store ports).
    pub mem_ports: usize,

    /// L1I size in bytes.
    pub il1_size: u64,
    /// L1I associativity.
    pub il1_ways: usize,
    /// L1I hit latency (cycles).
    pub il1_latency: u64,
    /// L1D size in bytes.
    pub dl1_size: u64,
    /// L1D associativity.
    pub dl1_ways: usize,
    /// L1D hit latency (cycles).
    pub dl1_latency: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,

    /// ITLB entries.
    pub itlb_entries: usize,
    /// ITLB associativity.
    pub itlb_ways: usize,
    /// DTLB entries.
    pub dtlb_entries: usize,
    /// DTLB associativity.
    pub dtlb_ways: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// TLB miss (page walk) penalty in cycles.
    pub tlb_miss_penalty: u64,

    /// Frontend redirect penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
}

impl CoreConfig {
    /// The paper's Table I core: 4/6/4 decode/issue/commit,
    /// RS/LDQ/STQ/ROB = 36/36/24/128, 32 kB 4-way L1I (2 cycles, next-line
    /// prefetcher), 32 kB 8-way L1D (2 cycles, IP-stride + next-line
    /// prefetchers), 128-entry ITLB, 512-entry DTLB, 4 kB pages, TAGE
    /// branch predictor, 3 GHz clock.
    pub fn ispass2013() -> Self {
        CoreConfig {
            fetch_width: 4,
            decode_width: 4,
            issue_width: 6,
            commit_width: 4,
            rs_entries: 36,
            ldq_entries: 36,
            stq_entries: 24,
            rob_entries: 128,
            fetch_buffer: 16,
            mem_ports: 2,
            il1_size: 32 << 10,
            il1_ways: 4,
            il1_latency: 2,
            dl1_size: 32 << 10,
            dl1_ways: 8,
            dl1_latency: 2,
            line_bytes: 64,
            itlb_entries: 128,
            itlb_ways: 4,
            dtlb_entries: 512,
            dtlb_ways: 4,
            page_bytes: 4 << 10,
            tlb_miss_penalty: 30,
            mispredict_penalty: 12,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.rob_entries == 0 || self.rs_entries == 0 {
            return Err("ROB and RS must be non-empty".into());
        }
        if self.fetch_width == 0
            || self.decode_width == 0
            || self.issue_width == 0
            || self.commit_width == 0
        {
            return Err("pipeline widths must be positive".into());
        }
        if self.ldq_entries == 0 || self.stq_entries == 0 {
            return Err("LDQ/STQ must be non-empty".into());
        }
        if self.mem_ports == 0 {
            return Err("need at least one memory port".into());
        }
        if !self.line_bytes.is_power_of_two() || !self.page_bytes.is_power_of_two() {
            return Err("line and page sizes must be powers of two".into());
        }
        if self.fetch_buffer < self.fetch_width {
            return Err("fetch buffer smaller than fetch width".into());
        }
        if self.dl1_latency == 0 {
            // The issue stage relies on every result arriving at least one
            // cycle after its producer issues.
            return Err("L1D latency must be at least one cycle".into());
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::ispass2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let c = CoreConfig::ispass2013();
        assert_eq!(c.decode_width, 4);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.rs_entries, 36);
        assert_eq!(c.ldq_entries, 36);
        assert_eq!(c.stq_entries, 24);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.il1_size, 32 << 10);
        assert_eq!(c.il1_ways, 4);
        assert_eq!(c.dl1_ways, 8);
        assert_eq!(c.dl1_latency, 2);
        assert_eq!(c.itlb_entries, 128);
        assert_eq!(c.dtlb_entries, 512);
        assert_eq!(c.page_bytes, 4096);
    }

    #[test]
    fn default_config_validates() {
        assert!(CoreConfig::ispass2013().validate().is_ok());
    }

    #[test]
    fn validation_catches_zero_widths() {
        let mut c = CoreConfig::ispass2013();
        c.issue_width = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::ispass2013();
        c.rob_entries = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::ispass2013();
        c.fetch_buffer = 1;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::ispass2013();
        c.dl1_latency = 0;
        assert!(c.validate().is_err());
    }
}
