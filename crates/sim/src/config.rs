//! Simulated-system configuration (the paper's Table 1).

use std::fmt;

use coup_cache::geometry::CacheGeometry;
use coup_protocol::reduction::ReductionUnitConfig;
use coup_protocol::state::ProtocolKind;

/// Number of cores per processor chip in the paper's system.
pub const CORES_PER_CHIP: usize = 16;

/// Latencies (in core cycles) of each level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency.
    pub l1: u64,
    /// Private L2 hit latency.
    pub l2: u64,
    /// Shared per-chip L3 bank latency.
    pub l3: u64,
    /// One-way off-chip link latency between a processor chip and an L4 chip.
    pub network: u64,
    /// L4 bank latency.
    pub l4: u64,
    /// Main-memory access latency (DRAM, beyond the L4).
    pub memory: u64,
}

impl LatencyConfig {
    /// Table 1 latencies: 4-cycle L1, 7-cycle L2, 27-cycle L3, 40-cycle
    /// point-to-point links, 35-cycle L4, and a DDR3-1600-like main memory.
    #[must_use]
    pub const fn paper_default() -> Self {
        LatencyConfig {
            l1: 4,
            l2: 7,
            l3: 27,
            network: 40,
            l4: 35,
            memory: 120,
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Capacities and associativities of each cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityConfig {
    /// Per-core L1 data cache.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Per-core private L2.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Shared per-chip L3 (all banks combined).
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: u32,
    /// Per-L4-chip capacity.
    pub l4_bytes: u64,
    /// L4 associativity.
    pub l4_ways: u32,
}

impl CapacityConfig {
    /// Table 1 capacities: 32 KB L1D, 256 KB L2, 32 MB L3 (8 banks),
    /// 128 MB L4 per chip (8 banks).
    #[must_use]
    pub const fn paper_default() -> Self {
        CapacityConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            l3_bytes: 32 * 1024 * 1024,
            l3_ways: 16,
            l4_bytes: 128 * 1024 * 1024,
            l4_ways: 16,
        }
    }

    /// A scaled-down configuration for fast unit/integration tests: same
    /// structure, much smaller capacities so capacity effects (evictions,
    /// partial reductions, recalls) are exercised by small workloads.
    #[must_use]
    pub const fn tiny() -> Self {
        CapacityConfig {
            l1_bytes: 2 * 1024,
            l1_ways: 4,
            l2_bytes: 8 * 1024,
            l2_ways: 4,
            l3_bytes: 64 * 1024,
            l3_ways: 8,
            l4_bytes: 256 * 1024,
            l4_ways: 8,
        }
    }

    /// Geometry of one L1.
    #[must_use]
    pub fn l1_geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.l1_bytes, self.l1_ways)
    }

    /// Geometry of one private L2.
    #[must_use]
    pub fn l2_geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.l2_bytes, self.l2_ways)
    }

    /// Geometry of one whole per-chip L3 (all banks).
    #[must_use]
    pub fn l3_geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.l3_bytes, self.l3_ways)
    }

    /// Geometry of one whole L4 chip (all banks).
    #[must_use]
    pub fn l4_geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.l4_bytes, self.l4_ways)
    }
}

impl Default for CapacityConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Full configuration of a simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Total number of cores (1–128 in the paper's experiments).
    pub cores: usize,
    /// Cores per processor chip (16 in the paper).
    pub cores_per_chip: usize,
    /// Coherence protocol: MESI (baseline) or MEUSI (COUP).
    pub protocol: ProtocolKind,
    /// Level latencies.
    pub latency: LatencyConfig,
    /// Level capacities.
    pub capacity: CapacityConfig,
    /// Reduction-unit configuration (only used by COUP protocols).
    pub reduction_unit: ReductionUnitConfig,
    /// Average compute cycles a core spends per abstract "work item" between
    /// memory operations; workloads scale this to model instruction overhead.
    pub compute_scale: u64,
    /// Seed for the small amount of simulation non-determinism (Alameldeen &
    /// Wood style) used to perturb thread interleavings across repeated runs.
    pub perturbation_seed: u64,
}

impl SystemConfig {
    /// The paper's system (Table 1) at a given core count, running `protocol`.
    ///
    /// The number of processor and L4 chips scales with the core count, as in
    /// the paper's evaluation (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn paper_system(cores: usize, protocol: ProtocolKind) -> Self {
        assert!(cores > 0, "need at least one core");
        SystemConfig {
            cores,
            cores_per_chip: CORES_PER_CHIP,
            protocol,
            latency: LatencyConfig::paper_default(),
            capacity: CapacityConfig::paper_default(),
            reduction_unit: ReductionUnitConfig::paper_default(),
            compute_scale: 1,
            perturbation_seed: 0,
        }
    }

    /// A small, fast configuration for tests: few cores, tiny caches, same
    /// latency ratios.
    #[must_use]
    pub fn test_system(cores: usize, protocol: ProtocolKind) -> Self {
        SystemConfig {
            capacity: CapacityConfig::tiny(),
            ..Self::paper_system(cores, protocol)
        }
    }

    /// Number of processor chips (and L4 chips) in the system.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.cores.div_ceil(self.cores_per_chip)
    }

    /// The chip a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn chip_of(&self, core: usize) -> usize {
        assert!(
            core < self.cores,
            "core {core} out of range ({} cores)",
            self.cores
        );
        core / self.cores_per_chip
    }

    /// Returns the same configuration with the other protocol family
    /// (MESI ↔ MEUSI), for baseline/COUP comparisons.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Returns the same configuration with a different perturbation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.perturbation_seed = seed;
        self
    }

    /// Returns the same configuration with a different reduction unit.
    #[must_use]
    pub fn with_reduction_unit(mut self, ru: ReductionUnitConfig) -> Self {
        self.reduction_unit = ru;
        self
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores / {} chips, {} protocol",
            self.cores,
            self.chips(),
            self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let cfg = SystemConfig::paper_system(128, ProtocolKind::Meusi);
        assert_eq!(cfg.cores_per_chip, 16);
        assert_eq!(cfg.chips(), 8);
        assert_eq!(cfg.latency.l1, 4);
        assert_eq!(cfg.latency.l2, 7);
        assert_eq!(cfg.latency.l3, 27);
        assert_eq!(cfg.latency.network, 40);
        assert_eq!(cfg.latency.l4, 35);
        assert_eq!(cfg.capacity.l1_bytes, 32 * 1024);
        assert_eq!(cfg.capacity.l2_bytes, 256 * 1024);
        assert_eq!(cfg.capacity.l3_bytes, 32 * 1024 * 1024);
        assert_eq!(cfg.capacity.l4_bytes, 128 * 1024 * 1024);
    }

    #[test]
    fn chip_scaling_matches_paper() {
        // "1-core runs use a single processor and L4 chip, 32-core runs use two
        // of each, and so on."
        assert_eq!(SystemConfig::paper_system(1, ProtocolKind::Mesi).chips(), 1);
        assert_eq!(
            SystemConfig::paper_system(16, ProtocolKind::Mesi).chips(),
            1
        );
        assert_eq!(
            SystemConfig::paper_system(32, ProtocolKind::Mesi).chips(),
            2
        );
        assert_eq!(
            SystemConfig::paper_system(64, ProtocolKind::Mesi).chips(),
            4
        );
        assert_eq!(
            SystemConfig::paper_system(96, ProtocolKind::Mesi).chips(),
            6
        );
        assert_eq!(
            SystemConfig::paper_system(128, ProtocolKind::Mesi).chips(),
            8
        );
    }

    #[test]
    fn chip_of_maps_cores_to_chips() {
        let cfg = SystemConfig::paper_system(48, ProtocolKind::Meusi);
        assert_eq!(cfg.chip_of(0), 0);
        assert_eq!(cfg.chip_of(15), 0);
        assert_eq!(cfg.chip_of(16), 1);
        assert_eq!(cfg.chip_of(47), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chip_of_out_of_range_panics() {
        let cfg = SystemConfig::paper_system(8, ProtocolKind::Meusi);
        let _ = cfg.chip_of(8);
    }

    #[test]
    fn builders_toggle_fields() {
        let cfg = SystemConfig::paper_system(4, ProtocolKind::Mesi)
            .with_protocol(ProtocolKind::Meusi)
            .with_seed(7)
            .with_reduction_unit(ReductionUnitConfig::slow_64bit());
        assert_eq!(cfg.protocol, ProtocolKind::Meusi);
        assert_eq!(cfg.perturbation_seed, 7);
        assert_eq!(cfg.reduction_unit, ReductionUnitConfig::slow_64bit());
    }

    #[test]
    fn geometries_are_constructible() {
        let cap = CapacityConfig::paper_default();
        assert_eq!(cap.l1_geometry().size_bytes(), 32 * 1024);
        assert_eq!(cap.l2_geometry().num_sets(), 512);
        assert!(cap.l3_geometry().num_lines() > cap.l2_geometry().num_lines());
        assert!(cap.l4_geometry().num_lines() > cap.l3_geometry().num_lines());
        let tiny = CapacityConfig::tiny();
        assert!(tiny.l2_geometry().num_lines() < cap.l2_geometry().num_lines());
    }

    #[test]
    fn test_system_is_small() {
        let cfg = SystemConfig::test_system(4, ProtocolKind::Meusi);
        assert_eq!(cfg.capacity, CapacityConfig::tiny());
        assert!(cfg.to_string().contains("MEUSI"));
    }
}
