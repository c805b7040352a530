//! Cache-line data storage, including partial-update buffers.
//!
//! A line held in the update-only state does not hold the data's value: it
//! holds a *partial update*, initialised to the identity element of the line's
//! operation type when the line enters U. Reductions combine partial updates
//! element-wise with the authoritative copy kept at the shared level.

use std::fmt;

use crate::ops::CommutativeOp;

/// Default cache-line size used throughout the reproduction (Table 1: 64 B).
pub const LINE_BYTES: usize = 64;
/// Number of 64-bit words in a default-sized line.
pub const WORDS_PER_LINE: usize = LINE_BYTES / 8;

/// The payload of one cache line, as eight 64-bit words.
///
/// Depending on where the line lives this is either the actual data value
/// (shared cache, or a private cache in M/E/S) or a partial update (a private
/// cache in U).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineData {
    words: [u64; WORDS_PER_LINE],
}

impl LineData {
    /// A line with every word set to zero.
    #[must_use]
    pub const fn zeroed() -> Self {
        LineData {
            words: [0; WORDS_PER_LINE],
        }
    }

    /// A line with every word set to the identity element of `op`.
    ///
    /// This is the value a private line takes when it transitions into the
    /// update-only state (§3.1.2, "Entering the U state").
    #[must_use]
    pub fn identity(op: CommutativeOp) -> Self {
        LineData {
            words: [op.identity_word(); WORDS_PER_LINE],
        }
    }

    /// Builds a line from explicit words.
    #[must_use]
    pub const fn from_words(words: [u64; WORDS_PER_LINE]) -> Self {
        LineData { words }
    }

    /// The raw words of the line.
    #[must_use]
    pub const fn words(&self) -> &[u64; WORDS_PER_LINE] {
        &self.words
    }

    /// Reads the 64-bit word at `word_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= WORDS_PER_LINE`.
    #[must_use]
    pub fn word(&self, word_idx: usize) -> u64 {
        self.words[word_idx]
    }

    /// Overwrites the 64-bit word at `word_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= WORDS_PER_LINE`.
    pub fn set_word(&mut self, word_idx: usize, value: u64) {
        self.words[word_idx] = value;
    }

    /// Reads the lane of width `op.width()` containing byte offset
    /// `byte_offset` within the line.
    ///
    /// # Panics
    ///
    /// Panics if `byte_offset >= LINE_BYTES` or is not aligned to the lane width.
    #[must_use]
    pub fn lane(&self, op: CommutativeOp, byte_offset: usize) -> u64 {
        let width = op.width().bytes();
        assert!(
            byte_offset < LINE_BYTES,
            "byte offset {byte_offset} out of line"
        );
        assert_eq!(
            byte_offset % width,
            0,
            "unaligned lane access at offset {byte_offset}"
        );
        let word = self.words[byte_offset / 8];
        let shift = (byte_offset % 8) * 8;
        let mask = if width == 8 {
            u64::MAX
        } else {
            (1u64 << (width * 8)) - 1
        };
        (word >> shift) & mask
    }

    /// Writes the lane of width `op.width()` containing byte offset `byte_offset`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or unaligned offsets, like [`LineData::lane`].
    pub fn set_lane(&mut self, op: CommutativeOp, byte_offset: usize, value: u64) {
        let width = op.width().bytes();
        assert!(
            byte_offset < LINE_BYTES,
            "byte offset {byte_offset} out of line"
        );
        assert_eq!(
            byte_offset % width,
            0,
            "unaligned lane access at offset {byte_offset}"
        );
        let word_idx = byte_offset / 8;
        let shift = (byte_offset % 8) * 8;
        let mask = if width == 8 {
            u64::MAX
        } else {
            ((1u64 << (width * 8)) - 1) << shift
        };
        let word = self.words[word_idx];
        self.words[word_idx] = (word & !mask) | ((value << shift) & mask);
    }

    /// Applies a commutative update of `op` with operand `value` to the lane at
    /// `byte_offset`, in place.
    ///
    /// This models the core performing a local update while holding the line in
    /// M or U: an atomic read-modify-write of the cached copy (or of the
    /// partial-update buffer).
    pub fn apply_update(&mut self, op: CommutativeOp, byte_offset: usize, value: u64) {
        let current = self.lane(op, byte_offset);
        self.set_lane(op, byte_offset, op.apply_lane(current, value));
    }

    /// Element-wise reduction of `partial` into `self` using `op`.
    ///
    /// This is what the reduction unit at the shared cache performs when it
    /// receives a partial update from a private cache: every word of the line
    /// is combined, which is correct because untouched words hold the identity
    /// element (§3.2).
    pub fn reduce_from(&mut self, op: CommutativeOp, partial: &LineData) {
        for (dst, src) in self.words.iter_mut().zip(partial.words.iter()) {
            *dst = op.apply_word(*dst, *src);
        }
    }

    /// Returns a copy of `self` reduced with `partial` (see [`LineData::reduce_from`]).
    #[must_use]
    pub fn reduced_with(mut self, op: CommutativeOp, partial: &LineData) -> Self {
        self.reduce_from(op, partial);
        self
    }
}

impl Default for LineData {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:#018x}")?;
        }
        write!(f, "]")
    }
}

/// A line-sized address: the address of a memory location with the low
/// `log2(LINE_BYTES)` bits stripped.
///
/// Newtype so that line addresses and byte addresses cannot be confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `byte_addr`.
    #[must_use]
    pub const fn containing(byte_addr: u64) -> Self {
        LineAddr(byte_addr / LINE_BYTES as u64)
    }

    /// The byte offset of `byte_addr` within this line.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `byte_addr` does not fall inside this line.
    #[must_use]
    pub fn offset_of(self, byte_addr: u64) -> usize {
        debug_assert_eq!(LineAddr::containing(byte_addr), self);
        (byte_addr % LINE_BYTES as u64) as usize
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::lanes;

    #[test]
    fn zeroed_and_default_agree() {
        assert_eq!(LineData::zeroed(), LineData::default());
        assert!(LineData::zeroed().words().iter().all(|&w| w == 0));
    }

    #[test]
    fn identity_line_matches_op_identity() {
        for op in CommutativeOp::ALL {
            let line = LineData::identity(op);
            assert!(
                line.words().iter().all(|&w| w == op.identity_word()),
                "identity line not recognised for {op:?}"
            );
        }
    }

    #[test]
    fn word_set_and_get_round_trip() {
        let mut line = LineData::zeroed();
        line.set_word(3, 0xDEAD_BEEF_CAFE_BABE);
        assert_eq!(line.word(3), 0xDEAD_BEEF_CAFE_BABE);
        assert_eq!(line.word(2), 0);
    }

    #[test]
    fn lane_access_u32() {
        let op = CommutativeOp::AddU32;
        let mut line = LineData::zeroed();
        line.set_lane(op, 4, 0x1234_5678);
        assert_eq!(line.lane(op, 4), 0x1234_5678);
        assert_eq!(line.lane(op, 0), 0);
        // The containing word has the value in its upper half.
        assert_eq!(line.word(0), 0x1234_5678_0000_0000);
    }

    #[test]
    fn lane_access_u16_all_offsets() {
        let op = CommutativeOp::AddU16;
        let mut line = LineData::zeroed();
        for (i, off) in (0..LINE_BYTES).step_by(2).enumerate() {
            line.set_lane(op, off, i as u64 + 1);
        }
        for (i, off) in (0..LINE_BYTES).step_by(2).enumerate() {
            assert_eq!(line.lane(op, off), i as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_lane_panics() {
        let line = LineData::zeroed();
        let _ = line.lane(CommutativeOp::AddU32, 2);
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn out_of_range_lane_panics() {
        let line = LineData::zeroed();
        let _ = line.lane(CommutativeOp::AddU64, 64);
    }

    #[test]
    fn apply_update_accumulates() {
        let op = CommutativeOp::AddU64;
        let mut partial = LineData::identity(op);
        partial.apply_update(op, 8, 5);
        partial.apply_update(op, 8, 7);
        partial.apply_update(op, 16, 100);
        assert_eq!(partial.lane(op, 8), 12);
        assert_eq!(partial.lane(op, 16), 100);
        assert_eq!(partial.lane(op, 0), 0);
    }

    #[test]
    fn reduction_combines_partial_updates_with_data() {
        let op = CommutativeOp::AddU32;
        // Authoritative copy at the shared cache.
        let mut data = LineData::zeroed();
        data.set_lane(op, 0, 20);
        data.set_lane(op, 4, 7);
        // Two private caches hold partial updates.
        let mut p0 = LineData::identity(op);
        p0.apply_update(op, 0, 3);
        let mut p1 = LineData::identity(op);
        p1.apply_update(op, 0, 8);
        p1.apply_update(op, 4, 1);

        data.reduce_from(op, &p0);
        data.reduce_from(op, &p1);
        assert_eq!(data.lane(op, 0), 31);
        assert_eq!(data.lane(op, 4), 8);
        // Untouched lanes keep their original value.
        assert_eq!(data.lane(op, 8), 0);
    }

    #[test]
    fn reduction_preserves_unrelated_bit_patterns() {
        // §3.2: applying the identity element preserves words that hold data of
        // a different type, so mixed-content lines survive U-state round trips.
        let op = CommutativeOp::AddU64;
        let mut data = LineData::zeroed();
        data.set_word(5, f64::to_bits(3.25));
        let untouched_partial = LineData::identity(op);
        let reduced = data.reduced_with(op, &untouched_partial);
        assert_eq!(f64::from_bits(reduced.word(5)), 3.25);
    }

    #[test]
    fn and_reduction_uses_all_ones_identity() {
        let op = CommutativeOp::And64;
        let mut data = LineData::from_words([u64::MAX; WORDS_PER_LINE]);
        data.set_word(0, 0b1111_0000);
        let mut partial = LineData::identity(op);
        partial.apply_update(op, 0, 0b1010_1010);
        data.reduce_from(op, &partial);
        assert_eq!(data.word(0), 0b1010_0000);
        assert_eq!(data.word(1), u64::MAX);
    }

    #[test]
    fn float_reduction() {
        let op = CommutativeOp::AddF64;
        let mut data = LineData::zeroed();
        data.set_word(0, lanes::f64_to_lane(1.5));
        let mut partial = LineData::identity(op);
        partial.apply_update(op, 0, lanes::f64_to_lane(2.25));
        data.reduce_from(op, &partial);
        assert_eq!(lanes::lane_to_f64(data.word(0)), 3.75);
    }

    #[test]
    fn line_addr_round_trip() {
        let byte = 0x1234_5678u64;
        let line = LineAddr::containing(byte);
        let base = line.0 * LINE_BYTES as u64;
        assert!(byte - base < 64);
        assert_eq!(line.offset_of(byte), (byte % 64) as usize);
        assert_eq!(LineAddr::containing(base), line);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let line = LineData::zeroed();
        assert!(format!("{line:?}").contains("LineData"));
        assert!(LineAddr(7).to_string().contains("0x7"));
    }
}
