//! Memory layout of workload data structures in the simulated address space.
//!
//! Workloads place their arrays at fixed, well-separated base addresses so
//! that different structures never share cache lines, and use [`ArrayLayout`]
//! to translate element indices into byte addresses with the element width of
//! the commutative operation they use (e.g. 4-byte histogram bins, 8-byte
//! PageRank accumulators, 64-bit bitmap words).

use coup_protocol::line::LINE_BYTES;

/// Well-separated base addresses for workload data regions.
pub mod regions {
    /// Shared output / reduction variable (histogram bins, output vector, ranks).
    pub const SHARED_OUTPUT: u64 = 0x1000_0000;
    /// Read-only input data (pixels, matrix values, edge lists).
    pub const INPUT: u64 = 0x2000_0000;
    /// Secondary input (column pointers, row indices, offsets).
    pub const INPUT_AUX: u64 = 0x3000_0000;
    /// Shared bitmaps (BFS visited set, modified-counter bitmap).
    pub const BITMAP: u64 = 0x4000_0000;
    /// Per-thread private regions (privatized copies, software caches); each
    /// thread gets a disjoint slice starting here.
    pub const PRIVATE: u64 = 0x5000_0000;
    /// Shared counters (reference counts).
    pub const COUNTERS: u64 = 0x6000_0000;
    /// Size of each per-thread private slice, in bytes.
    pub const PRIVATE_STRIDE: u64 = 0x0080_0000;
}

/// A linear array of fixed-width elements in the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    base: u64,
    elem_bytes: u64,
}

impl ArrayLayout {
    /// Creates a layout at `base` with `elem_bytes`-wide elements.
    ///
    /// # Panics
    ///
    /// Panics if `elem_bytes` is zero, larger than a cache line, or does not
    /// divide the line size (which would make elements straddle lines), or if
    /// `base` is not line-aligned.
    #[must_use]
    pub fn new(base: u64, elem_bytes: u64) -> Self {
        assert!(
            elem_bytes > 0 && elem_bytes <= LINE_BYTES as u64,
            "bad element size"
        );
        assert_eq!(
            LINE_BYTES as u64 % elem_bytes,
            0,
            "elements must not straddle lines"
        );
        assert_eq!(
            base % LINE_BYTES as u64,
            0,
            "array base must be line-aligned"
        );
        ArrayLayout { base, elem_bytes }
    }

    /// Byte address of element `i`.
    #[must_use]
    pub fn addr(&self, i: usize) -> u64 {
        self.base + i as u64 * self.elem_bytes
    }

    /// Byte address of the 64-bit word containing element `i` (what a `Load`
    /// of the element actually reads).
    #[must_use]
    pub fn word_addr(&self, i: usize) -> u64 {
        self.addr(i) & !7
    }

    /// Element width in bytes.
    #[must_use]
    pub const fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Base address.
    #[must_use]
    pub const fn base(&self) -> u64 {
        self.base
    }

    /// Extracts element `i`'s value from the 64-bit word returned by loading
    /// [`ArrayLayout::word_addr`]`(i)`.
    #[must_use]
    pub fn extract(&self, i: usize, word: u64) -> u64 {
        let offset_in_word = self.addr(i) % 8;
        if self.elem_bytes >= 8 {
            word
        } else {
            let shift = offset_in_word * 8;
            let mask = (1u64 << (self.elem_bytes * 8)) - 1;
            (word >> shift) & mask
        }
    }

    /// A layout for a per-thread private copy of this array (used by
    /// software-privatization baselines). Thread `t`'s copy lives in its
    /// private region slice.
    #[must_use]
    pub fn private_copy_for_thread(&self, thread: usize) -> ArrayLayout {
        ArrayLayout {
            base: regions::PRIVATE + thread as u64 * regions::PRIVATE_STRIDE,
            elem_bytes: self.elem_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_contiguous_and_aligned() {
        let a = ArrayLayout::new(regions::SHARED_OUTPUT, 4);
        assert_eq!(a.addr(0), regions::SHARED_OUTPUT);
        assert_eq!(a.addr(1), regions::SHARED_OUTPUT + 4);
        assert_eq!(a.addr(16), regions::SHARED_OUTPUT + 64);
        assert_eq!(a.word_addr(1), regions::SHARED_OUTPUT);
        assert_eq!(a.word_addr(2), regions::SHARED_OUTPUT + 8);
    }

    #[test]
    fn extract_pulls_the_right_lane() {
        let a = ArrayLayout::new(0, 4);
        // Word containing elements 0 and 1: element 0 in low half, 1 in high.
        let word = 0x0000_0007_0000_0003u64;
        assert_eq!(a.extract(0, word), 3);
        assert_eq!(a.extract(1, word), 7);
        let b = ArrayLayout::new(0, 8);
        assert_eq!(b.extract(5, 0xDEAD), 0xDEAD);
        let c = ArrayLayout::new(0, 2);
        let word = 0x0004_0003_0002_0001u64;
        assert_eq!(c.extract(0, word), 1);
        assert_eq!(c.extract(3, word), 4);
    }

    #[test]
    fn private_copies_do_not_overlap() {
        let a = ArrayLayout::new(regions::SHARED_OUTPUT, 4);
        let p0 = a.private_copy_for_thread(0);
        let p1 = a.private_copy_for_thread(1);
        assert_ne!(p0.base(), p1.base());
        assert!(
            p0.addr(100_000) < p1.base(),
            "thread slices must not overlap"
        );
        assert_eq!(p0.elem_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_base_panics() {
        let _ = ArrayLayout::new(4, 4);
    }

    #[test]
    #[should_panic(expected = "straddle")]
    fn straddling_elements_panic() {
        let _ = ArrayLayout::new(0, 24);
    }
}
