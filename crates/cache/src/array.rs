//! Generic set-associative cache array.
//!
//! The array stores, for each resident line, an arbitrary payload `T`: the
//! simulator's private L2s use a coherence state plus line data, and its L1s
//! and shared caches use `()`, tracking residency only. The array handles
//! tag matching, insertion, LRU bookkeeping, and victim selection; what to
//! do with the victim (writeback, partial reduction, recall) is the
//! caller's business.
//!
//! Every way of every set is one entry of three flat arrays, set after set:
//! its tag (the line address plus one, 0 for a free way), its payload, and
//! its one-byte LRU rank. Tags and ranks start as zeroed allocations and a
//! `()` payload takes no space, so in a residency-only array a set nothing
//! maps to costs no resident memory. A lookup scans one set's tags.

use std::fmt;
use std::mem;
use std::ops::Range;

use coup_protocol::line::LineAddr;

use crate::geometry::CacheGeometry;

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
    /// Per way: the resident line's address plus one, or 0 if the way is free.
    tags: Vec<u64>,
    /// Per way: the resident line's payload (`T::default()` in a free way).
    payloads: Vec<T>,
    /// Per way: its recency within its set. The `k` ways a set has touched
    /// hold ranks `ways - k + 1 ..= ways`, most recent highest; ways never
    /// touched hold 0.
    ranks: Vec<u8>,
}

impl<T: Default> CacheArray<T> {
    /// Creates an empty array (LRU replacement).
    ///
    /// # Panics
    ///
    /// Panics if a set has more than 255 ways.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.ways() <= 255, "at most 255 ways per set");
        let lines = geometry.num_lines() as usize;
        CacheArray {
            geometry,
            ways: geometry.ways() as usize,
            tags: vec![0; lines],
            payloads: std::iter::repeat_with(T::default).take(lines).collect(),
            ranks: vec![0; lines],
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Whether `addr` is resident (does not touch replacement state).
    #[must_use]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.locate(addr).1.is_some()
    }

    /// Looks up a line without affecting replacement state.
    #[must_use]
    pub fn peek(&self, addr: LineAddr) -> Option<&T> {
        self.locate(addr).1.map(|way| &self.payloads[way])
    }

    /// Looks up a line, updating recency.
    #[must_use]
    pub fn get(&mut self, addr: LineAddr) -> Option<&T> {
        self.get_mut(addr).map(|payload| &*payload)
    }

    /// Mutable [`CacheArray::get`]: updates recency.
    #[must_use]
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        let (set, way) = self.locate(addr);
        let way = way?;
        self.touch(set, way);
        Some(&mut self.payloads[way])
    }

    /// Mutable access without touching recency.
    #[must_use]
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        let way = self.locate(addr).1?;
        Some(&mut self.payloads[way])
    }

    /// Inserts (or replaces) a line, evicting a victim if the set is full.
    /// A free way is filled lowest first.
    pub fn insert(&mut self, addr: LineAddr, payload: T) -> InsertOutcome<T> {
        let (set, found) = self.locate(addr);
        if let Some(way) = found {
            self.touch(set, way);
            return InsertOutcome::Replaced(mem::replace(&mut self.payloads[way], payload));
        }
        let way = match self.tags[set.clone()].iter().position(|&tag| tag == 0) {
            Some(free) => set.start + free,
            None => self.victim(set.clone()),
        };
        self.touch(set, way);
        let old_tag = mem::replace(&mut self.tags[way], addr.0 + 1);
        let old_payload = mem::replace(&mut self.payloads[way], payload);
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
        Some(mem::take(&mut self.payloads[way]))
    }

    /// The flat indices of `addr`'s set, and the one holding `addr` if it
    /// is resident.
    fn locate(&self, addr: LineAddr) -> (Range<usize>, Option<usize>) {
        let first = self.geometry.set_of(addr) as usize * self.ways;
        let set = first..first + self.ways;
        let tag = addr.0 + 1;
        let way = self.tags[set.clone()].iter().position(|&t| t == tag);
        (set, way.map(|way| first + way))
    }

    /// Makes `way` the most recently used of `set`: it takes the top rank,
    /// and the ways ranked above its old rank move down one.
    fn touch(&mut self, set: Range<usize>, way: usize) {
        let old = self.ranks[way];
        for rank in &mut self.ranks[set] {
            if *rank > old {
                *rank -= 1;
            }
        }
        self.ranks[way] = self.ways as u8;
    }

    /// The least recently used way of `set`. Ways never touched rank below
    /// the rest, highest index first, so a fresh set gives up its highest
    /// way, as a recency list seeded `0..ways` would.
    fn victim(&self, set: Range<usize>) -> usize {
        set.rev()
            .min_by_key(|&way| self.ranks[way])
            .expect("a set has at least one way")
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
        // (sets, ways): direct-mapped, the 2x2 array above, Table 1's 8 and 16 ways.
        let geometries = [(4u64, 1u64), (2, 2), (4, 8), (2, 16)];
        for seed in 1..=80u64 {
            let (sets, ways) = geometries[seed as usize % 4];
            let geometry = CacheGeometry::new(sets * ways * 64, ways as u32);
            let mut array = CacheArray::new(geometry);
            let set = (vec![None; ways as usize], (0..ways as usize).collect());
            let mut model = Reference(vec![set; sets as usize]);
            let mut r = seed;
            for i in 0..2_000u32 {
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
                    12..=13 => (array.get_mut(addr).map(put), model.get(addr, true, Some(i))),
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
