//! LRU replacement as [`CacheArray`](crate::array::CacheArray) exposes it:
//! the victim a full set gives up is the line its `insert` returns as
//! `Evicted`. The rank bookkeeping itself lives in `array.rs`.

#[cfg(test)]
mod tests {
    use coup_protocol::line::LineAddr;

    use crate::array::{CacheArray, InsertOutcome};
    use crate::geometry::CacheGeometry;

    /// Inserts `line` (payload: its address) into a full set and returns the
    /// line it evicted.
    fn evict(c: &mut CacheArray<u64>, line: u64) -> u64 {
        match c.insert(LineAddr(line), line) {
            InsertOutcome::Evicted { addr, payload } => {
                assert_eq!(addr.0, payload);
                addr.0
            }
            other => panic!("inserting line {line} into a full set gave {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One set of four ways: every line maps to it.
        let mut c = CacheArray::new(CacheGeometry::new(4 * 64, 4));
        assert_eq!(c.geometry().ways(), 4);
        // Fill 0,1,2,3 in order: 0 is now LRU.
        for line in 0..4 {
            assert_eq!(c.insert(LineAddr(line), line), InsertOutcome::Inserted);
        }
        assert_eq!(evict(&mut c, 4), 0);
        // Touch 1: 2 is now LRU.
        assert_eq!(c.get(LineAddr(1)), Some(&1));
        assert_eq!(evict(&mut c, 5), 2);
        // Touch 3 then 4: 1 is now LRU.
        let _ = c.get(LineAddr(3));
        let _ = c.get(LineAddr(4));
        assert_eq!(evict(&mut c, 6), 1);
    }

    #[test]
    fn single_way_set() {
        let mut c = CacheArray::new(CacheGeometry::new(64, 1));
        assert_eq!(c.insert(LineAddr(0), 0), InsertOutcome::Inserted);
        assert_eq!(evict(&mut c, 1), 0);
        // A hit leaves the only way the victim.
        assert_eq!(c.get(LineAddr(1)), Some(&1));
        assert_eq!(evict(&mut c, 2), 1);
        assert!(c.contains(LineAddr(2)) && !c.contains(LineAddr(1)));
    }
}
