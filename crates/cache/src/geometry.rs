//! Cache geometry: size, associativity, and address mapping.

use std::fmt;

use coup_protocol::line::{LineAddr, LINE_BYTES};

/// Static geometry of one cache (or of one bank of a banked cache).
///
/// # Examples
///
/// ```
/// use coup_cache::geometry::CacheGeometry;
///
/// // The paper's 32 KB, 8-way L1 (Table 1).
/// let l1 = CacheGeometry::new(32 * 1024, 8);
/// assert_eq!(l1.num_sets(), 64);
/// assert_eq!(l1.num_lines(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry from a total capacity and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * LINE_BYTES`, or if the resulting number of sets is not a power
    /// of two (required by the index function).
    #[must_use]
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(size_bytes > 0, "capacity must be positive");
        let way_bytes = u64::from(ways) * LINE_BYTES as u64;
        assert!(
            size_bytes.is_multiple_of(way_bytes),
            "capacity {size_bytes} is not a multiple of ways*line size {way_bytes}"
        );
        let sets = size_bytes / way_bytes;
        assert!(
            sets.is_power_of_two(),
            "number of sets {sets} must be a power of two"
        );
        CacheGeometry { size_bytes, ways }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (number of ways per set).
    #[must_use]
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * LINE_BYTES as u64)
    }

    /// Total number of lines the cache can hold.
    #[must_use]
    pub fn num_lines(&self) -> u64 {
        self.num_sets() * u64::from(self.ways)
    }

    /// The set index a line maps to.
    #[must_use]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        line.0 % self.num_sets()
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kb = self.size_bytes / 1024;
        write!(f, "{kb}KB {}-way ({} sets)", self.ways, self.num_sets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries() {
        let l1 = CacheGeometry::new(32 * 1024, 8);
        assert_eq!(l1.num_sets(), 64);
        let l2 = CacheGeometry::new(256 * 1024, 8);
        assert_eq!(l2.num_sets(), 512);
        let l3_bank = CacheGeometry::new(32 * 1024 * 1024 / 8, 16);
        assert_eq!(l3_bank.num_lines(), 65536);
        let l4_bank = CacheGeometry::new(128 * 1024 * 1024 / 8, 16);
        assert_eq!(l4_bank.num_lines() * 64, 128 * 1024 * 1024 / 8);
    }

    #[test]
    fn set_mapping_is_stable_and_in_range() {
        let g = CacheGeometry::new(32 * 1024, 8);
        for i in 0..10_000u64 {
            let s = g.set_of(LineAddr(i));
            assert!(s < g.num_sets());
            assert_eq!(s, g.set_of(LineAddr(i)));
        }
    }

    #[test]
    fn fully_associative_has_one_set() {
        // As many ways as lines: a single set every address maps to.
        let g = CacheGeometry::new(16 * LINE_BYTES as u64, 16);
        assert_eq!(g.num_sets(), 1);
        assert_eq!(g.num_lines(), 16);
        assert_eq!(g.set_of(LineAddr(123_456)), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = CacheGeometry::new(3 * 64 * 8, 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_multiple_capacity_panics() {
        let _ = CacheGeometry::new(1000, 4);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            CacheGeometry::new(32 * 1024, 8).to_string(),
            "32KB 8-way (64 sets)"
        );
    }
}
