//! Reduction-unit model.
//!
//! COUP adds a reduction unit to every shared cache bank (and every
//! intermediate level with multiple update-capable children). The paper's
//! default is a 2-stage pipelined 256-bit ALU — four 64-bit lanes — giving a
//! throughput of one 64-byte line every two cycles and a latency of three
//! cycles per line. The §5.5 sensitivity study compares this against a simple
//! unpipelined 64-bit ALU with a throughput of one line per 16 cycles.

use crate::line::{LineData, WORDS_PER_LINE};
use crate::ops::CommutativeOp;

/// Static configuration of a reduction unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionUnitConfig {
    /// Datapath width in bits (how many bits are combined per cycle).
    pub width_bits: u32,
    /// Whether the unit is pipelined (a new line-sized reduction can start
    /// every `cycles_per_line` cycles) or must drain before accepting the next.
    pub pipelined: bool,
    /// Additional pipeline latency, in cycles, beyond the occupancy.
    pub extra_latency: u32,
}

impl ReductionUnitConfig {
    /// The paper's default: 2-stage pipelined, 256-bit ALU (4×64-bit lanes);
    /// one 64-byte line every 2 cycles, 3-cycle latency per line.
    #[must_use]
    pub const fn paper_default() -> Self {
        ReductionUnitConfig {
            width_bits: 256,
            pipelined: true,
            extra_latency: 1,
        }
    }

    /// The slow alternative of §5.5: unpipelined 64-bit ALU, one line per 16 cycles.
    #[must_use]
    pub const fn slow_64bit() -> Self {
        ReductionUnitConfig {
            width_bits: 64,
            pipelined: false,
            extra_latency: 0,
        }
    }

    /// Cycles of occupancy to process one 64-byte line.
    fn cycles_per_line(&self) -> u64 {
        let line_bits = (WORDS_PER_LINE * 64) as u64;
        line_bits.div_ceil(u64::from(self.width_bits.max(1)))
    }

    /// Latency, in cycles, from the arrival of one partial-update line to the
    /// availability of the reduced result.
    #[must_use]
    pub fn latency_per_line(&self) -> u64 {
        self.cycles_per_line() + u64::from(self.extra_latency)
    }

    /// Total critical-path latency of reducing `n_lines` partial updates at a
    /// single unit (e.g. one per child on a full reduction).
    ///
    /// A pipelined unit overlaps successive lines at its occupancy interval; an
    /// unpipelined unit serialises them at full latency.
    #[must_use]
    pub fn reduction_latency(&self, n_lines: usize) -> u64 {
        if n_lines == 0 {
            return 0;
        }
        let n = n_lines as u64;
        if self.pipelined {
            self.latency_per_line() + (n - 1) * self.cycles_per_line()
        } else {
            n * self.latency_per_line()
        }
    }
}

impl Default for ReductionUnitConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A reduction unit attached to a shared cache bank.
///
/// The unit is both the functional engine (it actually combines partial
/// updates into the accumulated value) and a simple timing model that tracks
/// how many line reductions it has performed so the simulator can charge
/// occupancy and latency.
#[derive(Debug, Clone, Default)]
pub struct ReductionUnit {
    config: ReductionUnitConfig,
    lines_reduced: u64,
}

impl ReductionUnit {
    /// Creates a reduction unit with the given configuration.
    #[must_use]
    pub fn new(config: ReductionUnitConfig) -> Self {
        ReductionUnit {
            config,
            lines_reduced: 0,
        }
    }

    /// The unit's configuration.
    #[must_use]
    pub fn config(&self) -> ReductionUnitConfig {
        self.config
    }

    /// Folds one partial update into `accumulator` and returns the
    /// critical-path latency in cycles of doing so.
    pub fn reduce_line(
        &mut self,
        op: CommutativeOp,
        accumulator: &mut LineData,
        partial: &LineData,
    ) -> u64 {
        accumulator.reduce_from(op, partial);
        self.lines_reduced += 1;
        self.config.latency_per_line()
    }

    /// Total number of line reductions performed.
    #[must_use]
    pub fn lines_reduced(&self) -> u64 {
        self.lines_reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_timing_matches_section_5_1() {
        let cfg = ReductionUnitConfig::paper_default();
        // One 64-byte line per two cycles, three-cycle latency.
        assert_eq!(cfg.cycles_per_line(), 2);
        assert_eq!(cfg.latency_per_line(), 3);
        assert!(cfg.pipelined);
    }

    #[test]
    fn slow_alu_timing_matches_section_5_5() {
        let cfg = ReductionUnitConfig::slow_64bit();
        assert_eq!(cfg.cycles_per_line(), 8);
        // The paper quotes one line per 16 cycles for the unpipelined unit;
        // with no overlap the effective per-line cost of a 2-line reduction is
        // 16 cycles, i.e. serialised full latency.
        assert_eq!(cfg.reduction_latency(2), 16);
        assert!(!cfg.pipelined);
    }

    #[test]
    fn pipelined_batches_overlap() {
        let cfg = ReductionUnitConfig::paper_default();
        assert_eq!(cfg.reduction_latency(0), 0);
        assert_eq!(cfg.reduction_latency(1), 3);
        // Each extra line adds only the occupancy interval.
        assert_eq!(cfg.reduction_latency(4), 3 + 3 * 2);
        let slow = ReductionUnitConfig::slow_64bit();
        assert_eq!(slow.reduction_latency(4), 4 * 8);
    }

    #[test]
    fn functional_reduction_is_correct() {
        let op = CommutativeOp::AddU64;
        let mut unit = ReductionUnit::new(ReductionUnitConfig::paper_default());
        let mut acc = LineData::zeroed();
        acc.set_lane(op, 0, 100);
        let mut p0 = LineData::identity(op);
        p0.apply_update(op, 0, 5);
        let mut p1 = LineData::identity(op);
        p1.apply_update(op, 0, 7);
        assert_eq!(unit.reduce_line(op, &mut acc, &p0), 3);
        assert_eq!(unit.reduce_line(op, &mut acc, &p1), 3);
        assert_eq!(acc.lane(op, 0), 112);
        assert_eq!(unit.lines_reduced(), 2);
    }

    #[test]
    fn single_line_reduction_counts() {
        let op = CommutativeOp::Or64;
        let mut unit = ReductionUnit::new(ReductionUnitConfig::slow_64bit());
        let mut acc = LineData::zeroed();
        let mut p = LineData::identity(op);
        p.apply_update(op, 8, 0b1010);
        let lat = unit.reduce_line(op, &mut acc, &p);
        assert_eq!(acc.lane(op, 8), 0b1010);
        assert_eq!(lat, 8);
        assert_eq!(unit.lines_reduced(), 1);
    }

    #[test]
    fn default_config_is_paper_default() {
        assert_eq!(
            ReductionUnitConfig::default(),
            ReductionUnitConfig::paper_default()
        );
        assert_eq!(
            ReductionUnit::default().config(),
            ReductionUnitConfig::paper_default()
        );
    }

    #[test]
    fn degenerate_width_does_not_divide_by_zero() {
        let cfg = ReductionUnitConfig {
            width_bits: 0,
            pipelined: false,
            extra_latency: 0,
        };
        assert!(cfg.cycles_per_line() >= 512);
    }
}
