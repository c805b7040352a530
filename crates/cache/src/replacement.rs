//! Replacement state for set-associative caches: true LRU, which is adequate
//! at the associativities of Table 1.

/// Per-set LRU replacement state.
///
/// One instance tracks the recency information of a single set with a fixed
/// number of ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetReplacementState {
    /// Ways ordered from most- to least-recently used.
    order: Vec<u32>,
}

impl SetReplacementState {
    /// Creates fresh replacement state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    #[must_use]
    pub fn new(ways: u32) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        SetReplacementState {
            order: (0..ways).collect(),
        }
    }

    /// Number of ways this state tracks.
    #[must_use]
    pub fn ways(&self) -> u32 {
        self.order.len() as u32
    }

    /// Records a touch (hit or fill) of `way`, making it the most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: u32) {
        let pos = self
            .order
            .iter()
            .position(|&w| w == way)
            .unwrap_or_else(|| panic!("way {way} out of range"));
        let w = self.order.remove(pos);
        self.order.insert(0, w);
    }

    /// The way the policy would evict next: the least recently used.
    #[must_use]
    pub fn victim(&self) -> u32 {
        *self.order.last().expect("non-empty order")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = SetReplacementState::new(4);
        assert_eq!(s.ways(), 4);
        // Touch 0,1,2,3 in order: 0 is now LRU.
        for w in 0..4 {
            s.touch(w);
        }
        assert_eq!(s.victim(), 0);
        s.touch(0);
        assert_eq!(s.victim(), 1);
        s.touch(1);
        s.touch(2);
        assert_eq!(s.victim(), 3);
    }

    #[test]
    fn lru_initial_victim_is_highest_way() {
        let s = SetReplacementState::new(8);
        assert_eq!(s.victim(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lru_touch_out_of_range_panics() {
        let mut s = SetReplacementState::new(2);
        s.touch(2);
    }

    #[test]
    fn single_way_set() {
        let mut s = SetReplacementState::new(1);
        assert_eq!(s.victim(), 0);
        s.touch(0);
        assert_eq!(s.victim(), 0);
    }
}
