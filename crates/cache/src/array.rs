//! Generic set-associative cache array.
//!
//! The array stores, for each resident line, an arbitrary payload `T`: the
//! private caches of the simulator use a coherence state plus line data, the
//! shared caches use data plus a directory entry. The array handles tag
//! matching, insertion, replacement-policy bookkeeping, and victim selection;
//! what to do with the victim (writeback, partial reduction, recall) is the
//! caller's business.

use std::collections::HashMap;
use std::fmt;

use coup_protocol::line::LineAddr;

use crate::geometry::CacheGeometry;
use crate::replacement::SetReplacementState;

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

#[derive(Debug, Clone)]
struct Way<T> {
    addr: LineAddr,
    payload: T,
}

#[derive(Debug, Clone)]
struct Set<T> {
    ways: Vec<Option<Way<T>>>,
    repl: SetReplacementState,
}

/// A set-associative array of cache lines with payload `T`.
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
    sets: Vec<Set<T>>,
    /// Fast path for "is this line resident anywhere" checks in large arrays.
    resident: HashMap<LineAddr, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<T> CacheArray<T> {
    /// Creates an empty array (LRU replacement).
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = (0..geometry.num_sets())
            .map(|_| Set {
                ways: (0..geometry.ways()).map(|_| None).collect(),
                repl: SetReplacementState::new(geometry.ways()),
            })
            .collect();
        CacheArray {
            geometry,
            sets,
            resident: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of lines currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the array holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// (hits, misses, evictions) counters accumulated by lookups and inserts.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Whether `addr` is resident (does not touch replacement state or stats).
    #[must_use]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.resident.contains_key(&addr)
    }

    /// Looks up a line without affecting replacement state or hit/miss counters.
    #[must_use]
    pub fn peek(&self, addr: LineAddr) -> Option<&T> {
        let set = &self.sets[self.geometry.set_of(addr) as usize];
        set.ways
            .iter()
            .flatten()
            .find(|w| w.addr == addr)
            .map(|w| &w.payload)
    }

    /// Looks up a line, updating recency and hit/miss counters.
    #[must_use]
    pub fn get(&mut self, addr: LineAddr) -> Option<&T> {
        match self.locate(addr) {
            Some((set_idx, way_idx)) => {
                self.hits += 1;
                self.sets[set_idx].repl.touch(way_idx as u32);
                self.sets[set_idx].ways[way_idx]
                    .as_ref()
                    .map(|w| &w.payload)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Mutable access without touching recency or counters.
    #[must_use]
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        let set_idx = self.geometry.set_of(addr) as usize;
        self.sets[set_idx]
            .ways
            .iter_mut()
            .flatten()
            .find(|w| w.addr == addr)
            .map(|w| &mut w.payload)
    }

    /// Inserts (or replaces) a line, evicting a victim if the set is full.
    pub fn insert(&mut self, addr: LineAddr, payload: T) -> InsertOutcome<T> {
        let set_idx = self.geometry.set_of(addr) as usize;
        // Already present: replace the payload.
        if let Some((_, way_idx)) = self.locate(addr) {
            let slot = self.sets[set_idx].ways[way_idx]
                .as_mut()
                .expect("located way is occupied");
            let old = std::mem::replace(&mut slot.payload, payload);
            self.sets[set_idx].repl.touch(way_idx as u32);
            return InsertOutcome::Replaced(old);
        }
        // Free way available.
        if let Some(way_idx) = self.sets[set_idx].ways.iter().position(Option::is_none) {
            self.sets[set_idx].ways[way_idx] = Some(Way { addr, payload });
            self.sets[set_idx].repl.touch(way_idx as u32);
            self.resident.insert(addr, set_idx as u64);
            return InsertOutcome::Inserted;
        }
        // Evict the victim.
        let way_idx = self.sets[set_idx].repl.victim() as usize;
        let victim = self.sets[set_idx].ways[way_idx]
            .replace(Way { addr, payload })
            .expect("full set has an occupant in the victim way");
        self.sets[set_idx].repl.touch(way_idx as u32);
        self.resident.remove(&victim.addr);
        self.resident.insert(addr, set_idx as u64);
        self.evictions += 1;
        InsertOutcome::Evicted {
            addr: victim.addr,
            payload: victim.payload,
        }
    }

    /// Removes a line, returning its payload if it was resident.
    pub fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let (set_idx, way_idx) = self.locate(addr)?;
        let way = self.sets[set_idx].ways[way_idx].take()?;
        self.resident.remove(&addr);
        Some(way.payload)
    }

    /// Iterates over all resident lines (address, payload) in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.sets
            .iter()
            .flat_map(|s| s.ways.iter().flatten())
            .map(|w| (w.addr, &w.payload))
    }

    fn locate(&self, addr: LineAddr) -> Option<(usize, usize)> {
        if !self.resident.contains_key(&addr) {
            return None;
        }
        let set_idx = self.geometry.set_of(addr) as usize;
        self.sets[set_idx]
            .ways
            .iter()
            .position(|w| w.as_ref().is_some_and(|w| w.addr == addr))
            .map(|way_idx| (set_idx, way_idx))
    }
}

impl<T> fmt::Display for CacheArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cache, {} lines resident", self.geometry, self.len())
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
        let (h, m, e) = c.stats();
        assert_eq!((h, m, e), (2, 1, 0));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn replace_existing_line() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        assert_eq!(c.insert(LineAddr(0), 2), InsertOutcome::Replaced(1));
        assert_eq!(c.peek(LineAddr(0)), Some(&2));
        assert_eq!(c.len(), 1);
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
        assert_eq!(c.stats().2, 1);
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
        let stats_before = c.stats();
        assert_eq!(c.peek(LineAddr(0)), Some(&1));
        assert_eq!(c.peek(LineAddr(100)), None);
        assert_eq!(c.stats(), stats_before);
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
    fn iter_visits_all_resident_lines() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        c.insert(LineAddr(1), 2);
        c.insert(LineAddr(2), 3);
        let mut items: Vec<_> = c.iter().map(|(a, &v)| (a.0, v)).collect();
        items.sort_unstable();
        assert_eq!(items, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        // Odd lines go to set 1, evens to set 0; 4 lines fit exactly.
        c.insert(LineAddr(0), 1);
        c.insert(LineAddr(1), 2);
        c.insert(LineAddr(2), 3);
        c.insert(LineAddr(3), 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().2, 0, "no evictions with a perfectly packed cache");
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
        assert!(c.len() <= c.geometry().num_lines() as usize);
        // Every resident line's payload must be consistent with its address.
        for (addr, &v) in c.iter() {
            assert_eq!(v % 10_000, addr.0);
        }
    }
}
