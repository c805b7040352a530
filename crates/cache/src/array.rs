//! Generic set-associative cache array.
//!
//! The array stores, for each resident line, an arbitrary payload `T`: the
//! simulator's private L2s use a coherence state plus line data, and its L1s
//! and shared caches use `()`, tracking residency only. The array handles
//! tag matching, insertion, LRU bookkeeping, and victim selection; what to
//! do with the victim (writeback, partial reduction, recall) is the
//! caller's business.
//!
//! The sets are grouped into blocks: a power-of-two number of adjacent sets
//! whose ways fill one 4 KiB page of tags (512 ways, or the whole array if
//! it is smaller). Every way of a block is one entry of three arrays: its
//! tag (the line address plus one, 0 for a free way), its payload, and its
//! one-byte LRU rank. A block's ways are made by the first insert into it,
//! so host memory follows the lines a run touches, not the capacity the
//! array models: the array's first insert reserves address space for every
//! block, which the host backs with memory only as blocks are written. A
//! table maps each block to its first way; a block never filled maps to one
//! shared all-zero block of tags, where every lookup misses. A lookup loads
//! one table entry and scans one set's tags.

use std::fmt;
use std::mem;

use coup_protocol::line::LineAddr;

use crate::geometry::CacheGeometry;

/// Ways per block at most: one 4 KiB page of tags.
const BLOCK_WAYS: usize = 4096 / mem::size_of::<u64>();

/// Outcome of [`CacheArray::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome<T> {
    /// The line was inserted into a free way.
    Inserted,
    /// The line was inserted after evicting the returned victim.
    Evicted {
        /// Address of the evicted line.
        addr: LineAddr,
        /// Payload of the evicted line.
        payload: T,
    },
    /// The line was already present; its payload was replaced and returned.
    Replaced(T),
}

/// A set-associative array of cache lines with payload `T`, replaced in
/// least-recently-used order.
///
/// # Examples
///
/// ```
/// use coup_cache::array::CacheArray;
/// use coup_cache::geometry::CacheGeometry;
/// use coup_protocol::line::LineAddr;
///
/// let mut cache: CacheArray<u32> = CacheArray::new(CacheGeometry::new(4096, 4));
/// cache.insert(LineAddr(7), 42);
/// assert_eq!(cache.get(LineAddr(7)), Some(&42));
/// assert_eq!(cache.get(LineAddr(8)), None);
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<T> {
    geometry: CacheGeometry,
    ways: usize,
    /// A set's block is `set >> block_shift`; its place in the block is
    /// `set & block_mask`.
    block_shift: u32,
    block_mask: usize,
    /// Ways per block.
    block_len: usize,
    /// Per block: the index in `tags` of its first way, or 0 (the all-zero
    /// block) if nothing was ever inserted into it.
    blocks: Vec<u32>,
    /// Per way, block after block, the all-zero block first: the resident
    /// line's address plus one, or 0 if the way is free.
    tags: Vec<u64>,
    /// Per way of the filled blocks: the resident line's payload
    /// (`T::default()` in a free way). The all-zero block has none, so
    /// way `i` of `tags` has its payload at `i - block_len`.
    payloads: Vec<T>,
    /// Per way, indexed like `tags`: its recency within its set. The `k`
    /// ways a set has touched hold ranks `ways - k + 1 ..= ways`, most recent
    /// highest; ways never touched hold 0.
    ranks: Vec<u8>,
}

impl<T: Default> CacheArray<T> {
    /// Creates an empty array (LRU replacement). Only the block table and
    /// the one all-zero block are allocated.
    ///
    /// # Panics
    ///
    /// Panics if a set has more than 255 ways.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.ways() <= 255, "at most 255 ways per set");
        let ways = geometry.ways() as usize;
        let sets = geometry.num_sets() as usize;
        let block_sets = (BLOCK_WAYS / ways).max(1);
        let block_sets = (1 << block_sets.ilog2()).min(sets);
        let block_len = block_sets * ways;
        assert!(
            u32::try_from(geometry.num_lines() + block_len as u64).is_ok(),
            "{geometry} has too many ways to index"
        );
        CacheArray {
            geometry,
            ways,
            block_shift: block_sets.trailing_zeros(),
            block_mask: block_sets - 1,
            block_len,
            blocks: vec![0; sets >> block_sets.trailing_zeros()],
            tags: vec![0; block_len],
            payloads: Vec::new(),
            ranks: vec![0; block_len],
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Whether `addr` is resident (does not touch replacement state).
    #[must_use]
    #[inline]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.locate(addr).1.is_some()
    }

    /// Looks up a line without affecting replacement state.
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: LineAddr) -> Option<&T> {
        let way = self.locate(addr).1?;
        Some(&self.payloads[way - self.block_len])
    }

    /// Looks up a line, updating recency.
    #[must_use]
    pub fn get(&mut self, addr: LineAddr) -> Option<&T> {
        self.get_mut_if(addr, |_| true).map(|payload| &*payload)
    }

    /// Mutable [`CacheArray::get`] of a line whose payload passes `wanted`:
    /// one lookup, and recency is touched only when the payload passes, so
    /// a resident line that fails is left exactly as
    /// [`CacheArray::peek`] leaves it.
    #[must_use]
    #[inline]
    pub fn get_mut_if(
        &mut self,
        addr: LineAddr,
        wanted: impl FnOnce(&T) -> bool,
    ) -> Option<&mut T> {
        let (set, way) = self.locate(addr);
        let way = way.filter(|&way| wanted(&self.payloads[way - self.block_len]))?;
        self.touch(set, way);
        Some(&mut self.payloads[way - self.block_len])
    }

    /// Mutable access without touching recency.
    #[must_use]
    #[inline]
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        let way = self.locate(addr).1?;
        Some(&mut self.payloads[way - self.block_len])
    }

    /// Inserts (or replaces) a line, evicting a victim if the set is full.
    /// A free way is filled lowest first.
    pub fn insert(&mut self, addr: LineAddr, payload: T) -> InsertOutcome<T> {
        let (mut set, found) = self.locate(addr);
        if let Some(way) = found {
            self.touch(set, way);
            let old = mem::replace(&mut self.payloads[way - self.block_len], payload);
            return InsertOutcome::Replaced(old);
        }
        if set < self.block_len {
            set = self.fill_block(addr);
        }
        let way = match self.tags[set..set + self.ways].iter().position(|&t| t == 0) {
            Some(free) => set + free,
            None => self.victim(set),
        };
        self.touch(set, way);
        let old_tag = mem::replace(&mut self.tags[way], addr.0 + 1);
        let old_payload = mem::replace(&mut self.payloads[way - self.block_len], payload);
        if old_tag == 0 {
            return InsertOutcome::Inserted;
        }
        InsertOutcome::Evicted {
            addr: LineAddr(old_tag - 1),
            payload: old_payload,
        }
    }

    /// Removes a line, returning its payload if it was resident. The freed
    /// way keeps its place in the LRU order.
    pub fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let way = self.locate(addr).1?;
        self.tags[way] = 0;
        Some(mem::take(&mut self.payloads[way - self.block_len]))
    }

    /// The index in `tags` of the first way of `addr`'s set, and of the way
    /// holding `addr` if it is resident.
    #[inline]
    fn locate(&self, addr: LineAddr) -> (usize, Option<usize>) {
        let set = self.geometry.set_of(addr) as usize;
        let block = self.blocks[set >> self.block_shift] as usize;
        let first = block + (set & self.block_mask) * self.ways;
        let tag = addr.0 + 1;
        let way = self.tags[first..first + self.ways]
            .iter()
            .position(|&t| t == tag);
        (first, way.map(|way| first + way))
    }

    /// Gives the block of `addr`'s set its own free, never-touched ways at
    /// the end of the arrays, and returns the index in `tags` of the set's
    /// first way.
    ///
    /// The first block reserves room for all of them. Reserved room costs
    /// no host memory until a block is written, and the arrays never move
    /// or copy. Arrays grown by doubling gave their freed copies back to
    /// the system between machines, so every run faulted its pages in
    /// again: 2,199 minor faults instead of 96 per MESI and MEUSI pair of
    /// the paper-size `spmv` on 16 cores.
    fn fill_block(&mut self, addr: LineAddr) -> usize {
        let set = self.geometry.set_of(addr) as usize;
        let block = self.tags.len();
        if block == self.block_len {
            let lines = self.blocks.len() * self.block_len;
            self.tags.reserve_exact(lines);
            self.ranks.reserve_exact(lines);
            self.payloads.reserve_exact(lines);
        }
        self.blocks[set >> self.block_shift] = block as u32;
        self.tags.resize(block + self.block_len, 0);
        self.ranks.resize(block + self.block_len, 0);
        self.payloads.resize_with(block, T::default);
        block + (set & self.block_mask) * self.ways
    }

    /// Makes `way` the most recently used of the set starting at `set`: it
    /// takes the top rank, and the ways ranked above its old rank move down
    /// one.
    fn touch(&mut self, set: usize, way: usize) {
        let old = self.ranks[way];
        for rank in &mut self.ranks[set..set + self.ways] {
            if *rank > old {
                *rank -= 1;
            }
        }
        self.ranks[way] = self.ways as u8;
    }

    /// The least recently used way of the set starting at `set`. Ways never
    /// touched rank below the rest, highest index first, so a fresh set
    /// gives up its highest way, as a recency list seeded `0..ways` would.
    fn victim(&self, set: usize) -> usize {
        (set..set + self.ways)
            .rev()
            .min_by_key(|&way| self.ranks[way])
            .expect("a set has at least one way")
    }

    /// How many blocks inserts have filled.
    #[cfg(test)]
    fn blocks_filled(&self) -> usize {
        self.tags.len() / self.block_len - 1
    }
}

impl<T> fmt::Display for CacheArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let resident = self.tags.iter().filter(|&&tag| tag != 0).count();
        write!(f, "{} cache, {resident} lines resident", self.geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray<u32> {
        // 2 sets x 2 ways.
        CacheArray::new(CacheGeometry::new(4 * 64, 2))
    }

    #[test]
    fn insert_and_get() {
        let mut c = small();
        assert_eq!(c.insert(LineAddr(0), 10), InsertOutcome::Inserted);
        assert_eq!(c.insert(LineAddr(2), 20), InsertOutcome::Inserted);
        assert_eq!(c.get(LineAddr(0)), Some(&10));
        assert_eq!(c.get(LineAddr(2)), Some(&20));
        assert_eq!(c.get(LineAddr(4)), None);
    }

    #[test]
    fn replace_existing_line() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        assert_eq!(c.insert(LineAddr(0), 2), InsertOutcome::Replaced(1));
        assert_eq!(c.peek(LineAddr(0)), Some(&2));
        assert!(c.to_string().contains("1 lines resident"));
    }

    #[test]
    fn eviction_follows_lru() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets: even line addrs -> set 0).
        c.insert(LineAddr(0), 1);
        c.insert(LineAddr(2), 2);
        // Touch 0 so 2 becomes LRU.
        let _ = c.get(LineAddr(0));
        match c.insert(LineAddr(4), 3) {
            InsertOutcome::Evicted { addr, payload } => {
                assert_eq!(addr, LineAddr(2));
                assert_eq!(payload, 2);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn remove_and_reinsert() {
        let mut c = small();
        c.insert(LineAddr(0), 7);
        assert_eq!(c.remove(LineAddr(0)), Some(7));
        assert_eq!(c.remove(LineAddr(0)), None);
        assert!(!c.contains(LineAddr(0)));
        assert_eq!(c.insert(LineAddr(0), 8), InsertOutcome::Inserted);
    }

    #[test]
    fn peek_does_not_affect_stats_or_recency() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        c.insert(LineAddr(2), 2);
        assert_eq!(c.peek(LineAddr(0)), Some(&1));
        assert_eq!(c.peek(LineAddr(100)), None);
        // Recency untouched: the LRU victim is still line 0 (inserted first).
        assert_eq!(
            c.insert(LineAddr(4), 3),
            InsertOutcome::Evicted {
                addr: LineAddr(0),
                payload: 1
            }
        );
    }

    #[test]
    fn peek_mut_and_get_mut_modify_payload() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        *c.peek_mut(LineAddr(0)).unwrap() = 5;
        assert_eq!(c.peek(LineAddr(0)), Some(&5));
        assert!(c.peek_mut(LineAddr(64)).is_none());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        // Odd lines go to set 1, evens to set 0; 4 lines fit exactly.
        for line in 0..4 {
            let outcome = c.insert(LineAddr(line), line as u32 + 1);
            assert_eq!(outcome, InsertOutcome::Inserted, "a perfectly packed cache");
        }
        assert!((0..4).all(|line| c.peek(LineAddr(line)) == Some(&(line as u32 + 1))));
    }

    #[test]
    fn display_shows_occupancy() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        assert!(c.to_string().contains("1 lines resident"));
    }

    #[test]
    fn large_array_stress() {
        let mut c: CacheArray<u64> = CacheArray::new(CacheGeometry::new(256 * 1024, 8));
        for i in 0..100_000u64 {
            c.insert(LineAddr(i % 10_000), i);
        }
        // Every resident line's payload must be consistent with its address,
        // and no more lines are resident than the array has ways.
        let resident: Vec<_> = (0..10_000)
            .filter_map(|line| c.peek(LineAddr(line)).map(|&v| (line, v)))
            .collect();
        assert!(resident.len() as u64 <= c.geometry().num_lines());
        for (line, v) in resident {
            assert_eq!(v % 10_000, line);
        }
    }

    #[test]
    fn lru_initial_victim_is_highest_way() {
        let c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(8 * 64, 8));
        assert_eq!(c.victim(c.locate(LineAddr(0)).0), 7);
    }

    /// Table 1's L4 chip: 128 MiB, 16 ways, 131,072 sets in 4,096 blocks.
    fn paper_l4() -> CacheArray<()> {
        CacheArray::new(CacheGeometry::new(128 * 1024 * 1024, 16))
    }

    #[test]
    fn lookups_and_removes_on_an_empty_array_fill_no_block() {
        let mut c = paper_l4();
        assert_eq!(c.blocks.len(), 4096);
        for line in (0..1 << 20).step_by(97).map(LineAddr) {
            assert!(!c.contains(line));
            assert_eq!(c.peek(line), None);
            assert_eq!(c.get(line), None);
            assert_eq!(c.get_mut_if(line, |_| true), None);
            assert_eq!(c.peek_mut(line), None);
            assert_eq!(c.remove(line), None);
        }
        assert_eq!(c.blocks_filled(), 0);
        assert!(c.to_string().contains(" 0 lines resident"));
    }

    #[test]
    fn one_insert_fills_exactly_one_block() {
        let mut c = paper_l4();
        assert_eq!(c.insert(LineAddr(12_345), ()), InsertOutcome::Inserted);
        assert_eq!(c.blocks_filled(), 1);
        // A line of the same 32-set block, and lookups elsewhere, fill no other.
        assert_eq!(c.insert(LineAddr(12_345 ^ 31), ()), InsertOutcome::Inserted);
        assert!(!c.contains(LineAddr(12_345 + 32)));
        assert_eq!(c.remove(LineAddr(12_345 + 32)), None);
        assert_eq!(c.blocks_filled(), 1);
        assert!(c.contains(LineAddr(12_345)));
    }

    #[test]
    fn display_counts_resident_lines_across_blocks() {
        let mut c = paper_l4();
        for line in [0, 1 << 10, 1 << 15, (1 << 17) - 1] {
            c.insert(LineAddr(line), ());
        }
        assert_eq!(c.blocks_filled(), 4);
        assert!(c.to_string().contains(" 4 lines resident"));
        let _ = c.remove(LineAddr(1 << 10));
        assert!(c.to_string().contains(" 3 lines resident"));
    }

    type Set = (Vec<Option<(LineAddr, u32)>>, Vec<usize>);

    /// The reference model: per set, its ways and a move-to-front list of way
    /// numbers seeded `0..ways`.
    struct Reference(Vec<Set>);

    impl Reference {
        fn slot(&mut self, addr: LineAddr) -> (&mut Set, Option<usize>) {
            let sets = self.0.len() as u64;
            let set = &mut self.0[(addr.0 % sets) as usize];
            let way = set.0.iter().position(|w| w.is_some_and(|(a, _)| a == addr));
            (set, way)
        }

        /// `get` if `touch`, else `peek`; a hit's payload becomes `value`.
        fn get(&mut self, addr: LineAddr, touch: bool, value: Option<u32>) -> Option<u32> {
            let (set, way) = self.slot(addr);
            way.map(|way| {
                if touch {
                    set.1.retain(|&w| w != way);
                    set.1.insert(0, way);
                }
                let payload = &mut set.0[way].as_mut().unwrap().1;
                mem::replace(payload, value.unwrap_or(*payload))
            })
        }

        fn insert(&mut self, addr: LineAddr, value: u32) -> InsertOutcome<u32> {
            let (set, found) = self.slot(addr);
            let free = set.0.iter().position(Option::is_none);
            let way = found.or(free).unwrap_or(*set.1.last().unwrap());
            let old = set.0[way].replace((addr, value));
            set.1.retain(|&w| w != way);
            set.1.insert(0, way);
            match (found, old) {
                (Some(_), Some((_, payload))) => InsertOutcome::Replaced(payload),
                (None, Some((addr, payload))) => InsertOutcome::Evicted { addr, payload },
                _ => InsertOutcome::Inserted,
            }
        }

        fn remove(&mut self, addr: LineAddr) -> Option<u32> {
            let (set, way) = self.slot(addr);
            set.0[way?].take().map(|(_, v)| v)
        }
    }

    #[test]
    fn flat_array_replaces_exactly_like_the_per_set_lru_model() {
        // (sets, ways): direct-mapped, the 2x2 array above, Table 1's 8 and 16
        // ways, and two arrays of two blocks each.
        let geometries = [(4u64, 1u64), (2, 2), (4, 8), (2, 16), (1024, 1), (64, 16)];
        for seed in 1..=90u64 {
            let (sets, ways) = geometries[seed as usize % geometries.len()];
            let geometry = CacheGeometry::new(sets * ways * 64, ways as u32);
            let mut array = CacheArray::new(geometry);
            assert_eq!(array.blocks.len() as u64, (sets * ways).div_ceil(512));
            let set = (vec![None; ways as usize], (0..ways as usize).collect());
            let mut model = Reference(vec![set; sets as usize]);
            let mut r = seed;
            for i in 0..2_000.max(4 * sets * ways) as u32 {
                // xorshift64; twice as many lines as fit, so sets fill, evict
                // and refill.
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                let addr = LineAddr(r % (2 * sets * ways));
                let put = |p: &mut u32| mem::replace(p, i);
                let (got, want) = match (r >> 32) % 20 {
                    0..=7 => {
                        assert_eq!(array.insert(addr, i), model.insert(addr, i));
                        (None, None)
                    }
                    8..=11 => (array.get(addr).copied(), model.get(addr, true, None)),
                    12..=13 => {
                        // Only even payloads pass; an odd one is left as a
                        // peek leaves it.
                        let even = |p: &u32| p.is_multiple_of(2);
                        let passes = model.get(addr, false, None).is_some_and(|p| even(&p));
                        (
                            array.get_mut_if(addr, even).map(put),
                            passes.then(|| model.get(addr, true, Some(i))).flatten(),
                        )
                    }
                    14..=15 => (array.peek(addr).copied(), model.get(addr, false, None)),
                    16 => (
                        array.peek_mut(addr).map(put),
                        model.get(addr, false, Some(i)),
                    ),
                    _ => (array.remove(addr), model.remove(addr)),
                };
                assert_eq!(got, want, "{sets}x{ways} seed {seed}");
            }
            for line in (0..2 * sets * ways).map(LineAddr) {
                let want = model.get(line, false, None);
                assert_eq!(array.peek(line).copied(), want, "{sets}x{ways} seed {seed}");
            }
        }
    }
}
