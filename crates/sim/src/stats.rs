//! Run statistics: AMAT breakdown, traffic, and per-core progress.

use std::fmt;
use std::ops::AddAssign;

use coup_protocol::stats::ProtocolStats;

/// Where the cycles of one memory access were spent.
///
/// These are the critical-path components of Fig. 11: time at the private L2,
/// at the shared L3 (including on-chip directory actions), on the off-chip
/// network, waiting for L4-issued invalidations/downgrades/reductions of
/// remote chips, at the L4 itself, and at main memory. L1 hit time is tracked
/// separately so the total equals the access latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Cycles at the L1 (hit latency).
    pub l1: f64,
    /// Cycles at the private L2.
    pub l2: f64,
    /// Cycles at the shared L3, including on-chip coherence actions.
    pub l3: f64,
    /// Cycles on the off-chip (processor chip ↔ L4 chip) network.
    pub network: f64,
    /// Critical-path cycles spent on L4-issued invalidations, downgrades and
    /// reductions of copies held by other chips.
    pub l4_invalidations: f64,
    /// Cycles at the L4 cache / global directory.
    pub l4: f64,
    /// Cycles at main memory.
    pub memory: f64,
}

impl LatencyBreakdown {
    /// Sum of every component.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.l1 + self.l2 + self.l3 + self.network + self.l4_invalidations + self.l4 + self.memory
    }

    /// Divides every component by `n` (e.g. to turn a sum into an average).
    #[must_use]
    pub fn scaled(&self, n: f64) -> LatencyBreakdown {
        LatencyBreakdown {
            l1: self.l1 / n,
            l2: self.l2 / n,
            l3: self.l3 / n,
            network: self.network / n,
            l4_invalidations: self.l4_invalidations / n,
            l4: self.l4 / n,
            memory: self.memory / n,
        }
    }
}

impl AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.l1 += rhs.l1;
        self.l2 += rhs.l2;
        self.l3 += rhs.l3;
        self.network += rhs.network;
        self.l4_invalidations += rhs.l4_invalidations;
        self.l4 += rhs.l4;
        self.memory += rhs.memory;
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1 {:.2} | L2 {:.2} | L3 {:.2} | net {:.2} | L4-inv {:.2} | L4 {:.2} | mem {:.2}",
            self.l1, self.l2, self.l3, self.network, self.l4_invalidations, self.l4, self.memory
        )
    }
}

/// Traffic counters, in bytes, split by where the traffic flows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes moved between a processor chip and an L4 chip (off-chip traffic,
    /// the quantity §5.2 reports COUP reducing by up to 20×).
    pub offchip_bytes: u64,
    /// Bytes moved on-chip between private caches and the L3.
    pub onchip_bytes: u64,
    /// Bytes moved between L4 chips and main memory.
    pub memory_bytes: u64,
}

impl AddAssign for TrafficStats {
    fn add_assign(&mut self, rhs: Self) {
        self.offchip_bytes += rhs.offchip_bytes;
        self.onchip_bytes += rhs.onchip_bytes;
        self.memory_bytes += rhs.memory_bytes;
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Cycles until the last thread finished (the run's makespan).
    pub cycles: u64,
    /// Final clock of each core.
    pub per_core_cycles: Vec<u64>,
    /// Total memory accesses issued (loads, stores, atomics, commutative updates).
    pub accesses: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Conventional atomic read-modify-writes issued.
    pub atomics: u64,
    /// Commutative-update instructions issued.
    pub commutative_updates: u64,
    /// Abstract instructions executed (memory ops + one per compute-cycle batch).
    pub instructions: u64,
    /// Sum of per-access latency breakdowns (divide by `accesses` for AMAT).
    pub latency_sum: LatencyBreakdown,
    /// Traffic counters.
    pub traffic: TrafficStats,
    /// Protocol event counters.
    pub protocol: ProtocolStats,
    /// Total critical-path cycles spent in reduction units.
    pub reduction_cycles: u64,
}

impl RunStats {
    /// Average memory access time, in cycles per access.
    #[must_use]
    pub fn amat(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.latency_sum.total() / self.accesses as f64
        }
    }

    /// AMAT broken down by component (Fig. 11).
    #[must_use]
    pub fn amat_breakdown(&self) -> LatencyBreakdown {
        if self.accesses == 0 {
            LatencyBreakdown::default()
        } else {
            self.latency_sum.scaled(self.accesses as f64)
        }
    }

    /// Fraction of executed instructions that were commutative updates
    /// (reported in §5.2: 0.4%–4.9% across the benchmarks).
    #[must_use]
    pub fn commutative_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.commutative_updates as f64 / self.instructions as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the same work.
    ///
    /// # Panics
    ///
    /// Panics if this run took zero cycles.
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        assert!(self.cycles > 0, "run took zero cycles");
        baseline.cycles as f64 / self.cycles as f64
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:               {}", self.cycles)?;
        writeln!(f, "memory accesses:      {}", self.accesses)?;
        writeln!(f, "  loads/stores:       {}/{}", self.loads, self.stores)?;
        writeln!(f, "  atomics:            {}", self.atomics)?;
        writeln!(f, "  commutative:        {}", self.commutative_updates)?;
        writeln!(f, "AMAT:                 {:.2} cycles", self.amat())?;
        writeln!(f, "AMAT breakdown:       {}", self.amat_breakdown())?;
        writeln!(
            f,
            "off-chip traffic:     {} bytes",
            self.traffic.offchip_bytes
        )?;
        write!(f, "reduction cycles:     {}", self.reduction_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_scaling() {
        let b = LatencyBreakdown {
            l1: 4.0,
            l2: 7.0,
            l3: 27.0,
            network: 40.0,
            l4_invalidations: 10.0,
            l4: 35.0,
            memory: 120.0,
        };
        assert!((b.total() - 243.0).abs() < 1e-9);
        let half = b.scaled(2.0);
        assert!((half.total() - 121.5).abs() < 1e-9);
        assert!((half.l3 - 13.5).abs() < 1e-9);
    }

    #[test]
    fn breakdown_accumulates() {
        let mut a = LatencyBreakdown {
            l1: 1.0,
            ..Default::default()
        };
        a += LatencyBreakdown {
            l1: 2.0,
            memory: 5.0,
            ..Default::default()
        };
        assert!((a.l1 - 3.0).abs() < 1e-9);
        assert!((a.memory - 5.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_accumulates() {
        let mut t = TrafficStats {
            offchip_bytes: 10,
            onchip_bytes: 5,
            memory_bytes: 1,
        };
        t += TrafficStats {
            offchip_bytes: 3,
            onchip_bytes: 0,
            memory_bytes: 9,
        };
        assert_eq!(
            (t.offchip_bytes, t.onchip_bytes, t.memory_bytes),
            (13, 5, 10)
        );
    }

    #[test]
    fn amat_and_fractions() {
        let mut s = RunStats {
            cycles: 100,
            accesses: 4,
            latency_sum: LatencyBreakdown {
                l1: 16.0,
                l2: 4.0,
                ..Default::default()
            },
            instructions: 200,
            commutative_updates: 2,
            ..Default::default()
        };
        assert!((s.amat() - 5.0).abs() < 1e-9);
        assert!((s.amat_breakdown().l1 - 4.0).abs() < 1e-9);
        assert!((s.commutative_fraction() - 0.01).abs() < 1e-9);
        s.accesses = 0;
        s.instructions = 0;
        assert_eq!(s.amat(), 0.0);
        assert_eq!(s.commutative_fraction(), 0.0);
        assert_eq!(s.amat_breakdown(), LatencyBreakdown::default());
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let fast = RunStats {
            cycles: 50,
            ..Default::default()
        };
        let slow = RunStats {
            cycles: 200,
            ..Default::default()
        };
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_amat_and_traffic() {
        let s = RunStats {
            cycles: 10,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("AMAT"));
        assert!(text.contains("off-chip traffic"));
    }
}
