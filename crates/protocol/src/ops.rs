//! Commutative update operations supported by COUP.
//!
//! COUP can be applied to any commutative semigroup `(G, ◦)`. The paper's
//! single-word implementation supports eight operations: integer additions of
//! 16, 32, and 64 bits, floating-point additions of 32 and 64 bits, and 64-bit
//! bitwise AND, OR, and XOR. All eight have an identity element, which makes
//! multi-word cache blocks trivial to support: when a line enters the
//! update-only (U) state every word is initialised to the identity element and
//! reductions apply the operation element-wise.
//!
//! The optional operations the paper discusses but does not implement
//! (min, max, multiplication) are also provided here; the simulator only uses
//! them in ablation experiments.

use std::fmt;

/// Width, in bytes, of the element a [`CommutativeOp`] operates on.
///
/// Updates narrower than 64 bits apply to the aligned sub-word that contains
/// the target address; reductions always operate on whole 64-bit words by
/// splitting them into lanes of this width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpWidth {
    /// 2-byte elements (e.g. 16-bit integer addition).
    W16,
    /// 4-byte elements (32-bit integer or float addition).
    W32,
    /// 8-byte elements (64-bit integers, doubles, and bitwise logic).
    W64,
}

impl OpWidth {
    /// Number of bytes in one element.
    #[must_use]
    pub const fn bytes(self) -> usize {
        match self {
            OpWidth::W16 => 2,
            OpWidth::W32 => 4,
            OpWidth::W64 => 8,
        }
    }

    /// Number of lanes of this width inside a single 64-bit word.
    #[must_use]
    pub const fn lanes_per_word(self) -> usize {
        8 / self.bytes()
    }
}

impl fmt::Display for OpWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bytes() * 8)
    }
}

/// A commutative update operation, as conveyed by a commutative-update
/// instruction.
///
/// Each variant is a commutative, associative binary operation with an
/// identity element, i.e. a commutative monoid over the bit patterns of its
/// lane width. The coherence protocol tags lines in the update-only state with
/// the operation being buffered; updates of a *different* operation type force
/// a reduction first, because distinct operations do not commute with each
/// other in general.
///
/// # Examples
///
/// ```
/// use coup_protocol::ops::CommutativeOp;
///
/// let op = CommutativeOp::AddU32;
/// // Two 32-bit lanes per word: 3 in each, then 4 added to each.
/// let a = op.apply_word(op.identity_word(), 0x0000_0003_0000_0003);
/// let b = op.apply_word(a, 0x0000_0004_0000_0004);
/// assert_eq!(b, 0x0000_0007_0000_0007);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommutativeOp {
    /// 16-bit integer addition (wrapping).
    AddU16,
    /// 32-bit integer addition (wrapping).
    AddU32,
    /// 64-bit integer addition (wrapping).
    AddU64,
    /// IEEE-754 single-precision addition.
    AddF32,
    /// IEEE-754 double-precision addition.
    AddF64,
    /// 64-bit bitwise AND.
    And64,
    /// 64-bit bitwise OR.
    Or64,
    /// 64-bit bitwise XOR.
    Xor64,
    /// 64-bit unsigned minimum (extension; not in the paper's implementation).
    Min64,
    /// 64-bit unsigned maximum (extension; not in the paper's implementation).
    Max64,
    /// 32-bit integer multiplication (extension; not in the paper's implementation).
    MulU32,
}

impl CommutativeOp {
    /// The eight operations implemented by the paper's evaluation (§5.1).
    pub const PAPER_SET: [CommutativeOp; 8] = [
        CommutativeOp::AddU16,
        CommutativeOp::AddU32,
        CommutativeOp::AddU64,
        CommutativeOp::AddF32,
        CommutativeOp::AddF64,
        CommutativeOp::And64,
        CommutativeOp::Or64,
        CommutativeOp::Xor64,
    ];

    /// Every operation known to this crate, including extensions.
    pub const ALL: [CommutativeOp; 11] = [
        CommutativeOp::AddU16,
        CommutativeOp::AddU32,
        CommutativeOp::AddU64,
        CommutativeOp::AddF32,
        CommutativeOp::AddF64,
        CommutativeOp::And64,
        CommutativeOp::Or64,
        CommutativeOp::Xor64,
        CommutativeOp::Min64,
        CommutativeOp::Max64,
        CommutativeOp::MulU32,
    ];

    /// Lane width this operation works on.
    #[must_use]
    pub const fn width(self) -> OpWidth {
        match self {
            CommutativeOp::AddU16 => OpWidth::W16,
            CommutativeOp::AddU32 | CommutativeOp::AddF32 | CommutativeOp::MulU32 => OpWidth::W32,
            CommutativeOp::AddU64
            | CommutativeOp::AddF64
            | CommutativeOp::And64
            | CommutativeOp::Or64
            | CommutativeOp::Xor64
            | CommutativeOp::Min64
            | CommutativeOp::Max64 => OpWidth::W64,
        }
    }

    /// Identity element of a single lane, as raw bits.
    ///
    /// Applying the operation between any value and the identity yields the
    /// value unchanged, which is what makes whole-line initialisation on a
    /// transition into the U state correct even for words that hold data of a
    /// different type (§3.2, "Larger cache blocks").
    #[must_use]
    pub fn identity_lane(self) -> u64 {
        match self {
            CommutativeOp::AddU16 | CommutativeOp::AddU32 | CommutativeOp::AddU64 => 0,
            // +0.0 is the additive identity for IEEE floats (x + 0.0 == x for
            // every x, including -0.0 whose sum +0.0 is +0.0 only when x is
            // -0.0; we accept the standard non-determinism the paper accepts
            // for FP reductions).
            CommutativeOp::AddF32 => f32::to_bits(0.0) as u64,
            CommutativeOp::AddF64 => f64::to_bits(0.0),
            CommutativeOp::And64 => u64::MAX,
            CommutativeOp::Or64 | CommutativeOp::Xor64 => 0,
            CommutativeOp::Min64 => u64::MAX,
            CommutativeOp::Max64 => 0,
            CommutativeOp::MulU32 => 1,
        }
    }

    /// Identity element replicated across all lanes of a 64-bit word.
    #[must_use]
    pub fn identity_word(self) -> u64 {
        self.broadcast(self.identity_lane())
    }

    /// Replicates a lane value across every lane of a 64-bit word.
    ///
    /// For 64-bit operations this is the value itself.
    fn broadcast(self, lane: u64) -> u64 {
        match self.width() {
            OpWidth::W16 => {
                let v = lane & 0xFFFF;
                v | (v << 16) | (v << 32) | (v << 48)
            }
            OpWidth::W32 => {
                let v = lane & 0xFFFF_FFFF;
                v | (v << 32)
            }
            OpWidth::W64 => lane,
        }
    }

    /// Applies the operation to two single lanes (given as raw bits in the
    /// low bits of the arguments) and returns the resulting lane bits.
    #[must_use]
    pub fn apply_lane(self, a: u64, b: u64) -> u64 {
        match self {
            CommutativeOp::AddU16 => u64::from((a as u16).wrapping_add(b as u16)),
            CommutativeOp::AddU32 => u64::from((a as u32).wrapping_add(b as u32)),
            CommutativeOp::AddU64 => a.wrapping_add(b),
            CommutativeOp::AddF32 => {
                let fa = f32::from_bits(a as u32);
                let fb = f32::from_bits(b as u32);
                u64::from((fa + fb).to_bits())
            }
            CommutativeOp::AddF64 => {
                let fa = f64::from_bits(a);
                let fb = f64::from_bits(b);
                (fa + fb).to_bits()
            }
            CommutativeOp::And64 => a & b,
            CommutativeOp::Or64 => a | b,
            CommutativeOp::Xor64 => a ^ b,
            CommutativeOp::Min64 => a.min(b),
            CommutativeOp::Max64 => a.max(b),
            CommutativeOp::MulU32 => u64::from((a as u32).wrapping_mul(b as u32)),
        }
    }

    /// Applies the operation lane-wise between two 64-bit words.
    ///
    /// This is the primitive the reduction unit executes: element-wise
    /// combination of a partial-update word with the accumulated word.
    #[must_use]
    pub fn apply_word(self, a: u64, b: u64) -> u64 {
        match self.width() {
            OpWidth::W64 => self.apply_lane(a, b),
            OpWidth::W32 => {
                let lo = self.apply_lane(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF) & 0xFFFF_FFFF;
                let hi = self.apply_lane(a >> 32, b >> 32) & 0xFFFF_FFFF;
                lo | (hi << 32)
            }
            OpWidth::W16 => {
                let mut out = 0u64;
                for lane in 0..4 {
                    let shift = lane * 16;
                    let la = (a >> shift) & 0xFFFF;
                    let lb = (b >> shift) & 0xFFFF;
                    out |= (self.apply_lane(la, lb) & 0xFFFF) << shift;
                }
                out
            }
        }
    }

    /// Whether the lane values of this operation should be interpreted as
    /// floating point when displayed or converted.
    #[must_use]
    pub const fn is_float(self) -> bool {
        matches!(self, CommutativeOp::AddF32 | CommutativeOp::AddF64)
    }

    /// Whether this operation belongs to the paper's implemented set.
    #[must_use]
    pub fn in_paper_set(self) -> bool {
        Self::PAPER_SET.contains(&self)
    }

    /// A short mnemonic matching the paper's tables (e.g. "32b int add").
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CommutativeOp::AddU16 => "16b int add",
            CommutativeOp::AddU32 => "32b int add",
            CommutativeOp::AddU64 => "64b int add",
            CommutativeOp::AddF32 => "32b FP add",
            CommutativeOp::AddF64 => "64b FP add",
            CommutativeOp::And64 => "64b AND",
            CommutativeOp::Or64 => "64b OR",
            CommutativeOp::Xor64 => "64b XOR",
            CommutativeOp::Min64 => "64b MIN",
            CommutativeOp::Max64 => "64b MAX",
            CommutativeOp::MulU32 => "32b int mul",
        }
    }
}

impl fmt::Display for CommutativeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Helpers for moving typed values into and out of the raw lane representation.
///
/// Workloads deal in `u32` histogram counts, `f64` PageRank contributions,
/// and so on; the memory system deals in raw 64-bit words. These conversions
/// centralise the bit casting.
pub mod lanes {
    /// Converts an `f64` into its lane bit pattern.
    #[must_use]
    pub fn f64_to_lane(v: f64) -> u64 {
        v.to_bits()
    }

    /// Converts a lane bit pattern into an `f64`.
    #[must_use]
    pub fn lane_to_f64(bits: u64) -> f64 {
        f64::from_bits(bits)
    }

    /// Converts an `f32` into its lane bit pattern.
    #[must_use]
    pub fn f32_to_lane(v: f32) -> u64 {
        u64::from(v.to_bits())
    }

    /// Converts a lane bit pattern into an `f32`.
    #[must_use]
    pub fn lane_to_f32(bits: u64) -> f32 {
        f32::from_bits(bits as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_eight_ops() {
        assert_eq!(CommutativeOp::PAPER_SET.len(), 8);
        for op in CommutativeOp::PAPER_SET {
            assert!(op.in_paper_set());
        }
        assert!(!CommutativeOp::Min64.in_paper_set());
        assert!(!CommutativeOp::Max64.in_paper_set());
        assert!(!CommutativeOp::MulU32.in_paper_set());
    }

    #[test]
    fn identity_is_neutral_for_integers() {
        for op in [
            CommutativeOp::AddU16,
            CommutativeOp::AddU32,
            CommutativeOp::AddU64,
            CommutativeOp::And64,
            CommutativeOp::Or64,
            CommutativeOp::Xor64,
            CommutativeOp::Min64,
            CommutativeOp::Max64,
            CommutativeOp::MulU32,
        ] {
            for v in [0u64, 1, 7, 0xFFFF, 0xDEAD_BEEF, u64::MAX] {
                let word = op.broadcast(v);
                assert_eq!(
                    op.apply_word(word, op.identity_word()),
                    word,
                    "identity not neutral for {op:?} value {v:#x}"
                );
                assert_eq!(
                    op.apply_word(op.identity_word(), word),
                    word,
                    "identity not neutral (flipped) for {op:?} value {v:#x}"
                );
            }
        }
    }

    #[test]
    fn identity_is_neutral_for_floats() {
        for v in [0.0f64, 1.5, -3.25, 1e100, -1e-100] {
            let op = CommutativeOp::AddF64;
            let word = lanes::f64_to_lane(v);
            assert_eq!(
                lanes::lane_to_f64(op.apply_lane(word, op.identity_lane())),
                v
            );
        }
        for v in [0.0f32, 2.5, -7.125] {
            let op = CommutativeOp::AddF32;
            let word = lanes::f32_to_lane(v);
            assert_eq!(
                lanes::lane_to_f32(op.apply_lane(word, op.identity_lane())),
                v
            );
        }
    }

    #[test]
    fn u16_addition_is_lane_isolated() {
        let op = CommutativeOp::AddU16;
        // 4 lanes: 0xFFFF + 1 wraps within its lane without carrying out.
        let a = 0x0001_0002_0003_FFFFu64;
        let b = 0x0001_0001_0001_0001u64;
        assert_eq!(op.apply_word(a, b), 0x0002_0003_0004_0000);
    }

    #[test]
    fn u32_addition_is_lane_isolated() {
        let op = CommutativeOp::AddU32;
        let a = 0x0000_0001_FFFF_FFFFu64;
        let b = 0x0000_0001_0000_0001u64;
        assert_eq!(op.apply_word(a, b), 0x0000_0002_0000_0000);
    }

    #[test]
    fn bitwise_ops_match_scalar_semantics() {
        let a = 0xF0F0_F0F0_1234_5678u64;
        let b = 0x0FF0_0FF0_8765_4321u64;
        assert_eq!(CommutativeOp::And64.apply_word(a, b), a & b);
        assert_eq!(CommutativeOp::Or64.apply_word(a, b), a | b);
        assert_eq!(CommutativeOp::Xor64.apply_word(a, b), a ^ b);
    }

    #[test]
    fn min_max_extensions() {
        assert_eq!(CommutativeOp::Min64.apply_lane(3, 9), 3);
        assert_eq!(CommutativeOp::Max64.apply_lane(3, 9), 9);
        assert_eq!(CommutativeOp::Min64.identity_lane(), u64::MAX);
        assert_eq!(CommutativeOp::Max64.identity_lane(), 0);
    }

    #[test]
    fn broadcast_fills_all_lanes() {
        assert_eq!(CommutativeOp::AddU16.broadcast(0xAB), 0x00AB_00AB_00AB_00AB);
        assert_eq!(CommutativeOp::AddU32.broadcast(0xAB), 0x0000_00AB_0000_00AB);
        assert_eq!(CommutativeOp::AddU64.broadcast(0xAB), 0xAB);
    }

    #[test]
    fn widths_and_lanes() {
        assert_eq!(OpWidth::W16.bytes(), 2);
        assert_eq!(OpWidth::W32.bytes(), 4);
        assert_eq!(OpWidth::W64.bytes(), 8);
        assert_eq!(OpWidth::W16.lanes_per_word(), 4);
        assert_eq!(OpWidth::W32.lanes_per_word(), 2);
        assert_eq!(OpWidth::W64.lanes_per_word(), 1);
        assert_eq!(CommutativeOp::AddU16.width(), OpWidth::W16);
        assert_eq!(CommutativeOp::AddF32.width(), OpWidth::W32);
        assert_eq!(CommutativeOp::Or64.width(), OpWidth::W64);
    }

    #[test]
    fn display_is_nonempty() {
        for op in CommutativeOp::ALL {
            assert!(!op.to_string().is_empty());
        }
        assert_eq!(OpWidth::W32.to_string(), "32b");
    }
}
