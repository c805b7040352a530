//! Replacement policies for set-associative caches.
//!
//! The simulator's default is true LRU (adequate at the associativities of
//! Table 1); tree-based pseudo-LRU is provided as a cheaper alternative and is
//! exercised by the ablation benches.

/// Which replacement policy a cache array uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU (one bit per internal node of a binary tree over ways).
    TreePlru,
}

/// Per-set replacement state.
///
/// One instance tracks the recency information of a single set with a fixed
/// number of ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetReplacementState {
    /// LRU: ways ordered from most- to least-recently used.
    Lru {
        /// `order[0]` is the most recently used way.
        order: Vec<u32>,
    },
    /// Tree pseudo-LRU: one bit per internal node, ways are leaves.
    TreePlru {
        /// Direction bits of the binary tree (`true` = right child is colder).
        bits: Vec<bool>,
        /// Number of ways (leaves).
        ways: u32,
    },
}

impl SetReplacementState {
    /// Creates fresh replacement state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, or if tree pseudo-LRU is requested with a
    /// non-power-of-two number of ways.
    #[must_use]
    pub fn new(policy: ReplacementPolicy, ways: u32) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        match policy {
            ReplacementPolicy::Lru => SetReplacementState::Lru {
                order: (0..ways).collect(),
            },
            ReplacementPolicy::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree PLRU requires power-of-two ways"
                );
                SetReplacementState::TreePlru {
                    bits: vec![false; (ways - 1) as usize],
                    ways,
                }
            }
        }
    }

    /// Number of ways this state tracks.
    #[must_use]
    pub fn ways(&self) -> u32 {
        match self {
            SetReplacementState::Lru { order } => order.len() as u32,
            SetReplacementState::TreePlru { ways, .. } => *ways,
        }
    }

    /// Records a touch (hit or fill) of `way`, making it the most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: u32) {
        match self {
            SetReplacementState::Lru { order } => {
                let pos = order
                    .iter()
                    .position(|&w| w == way)
                    .unwrap_or_else(|| panic!("way {way} out of range"));
                let w = order.remove(pos);
                order.insert(0, w);
            }
            SetReplacementState::TreePlru { bits, ways } => {
                assert!(way < *ways, "way {way} out of range");
                // Walk from the root to the leaf, pointing every node away from
                // the touched way.
                let mut node = 0usize;
                let mut lo = 0u32;
                let mut hi = *ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = way >= mid;
                    // Point the bit at the *other* half (the colder one).
                    bits[node] = !go_right;
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
    }

    /// The way the policy would evict next.
    #[must_use]
    pub fn victim(&self) -> u32 {
        match self {
            SetReplacementState::Lru { order } => *order.last().expect("non-empty order"),
            SetReplacementState::TreePlru { bits, ways } => {
                let mut node = 0usize;
                let mut lo = 0u32;
                let mut hi = *ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = bits[node];
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = SetReplacementState::new(ReplacementPolicy::Lru, 4);
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
        let s = SetReplacementState::new(ReplacementPolicy::Lru, 8);
        assert_eq!(s.victim(), 7);
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut s = SetReplacementState::new(ReplacementPolicy::TreePlru, 8);
        for w in [3u32, 7, 1, 0, 5, 2, 6, 4, 3, 3, 7] {
            s.touch(w);
            assert_ne!(s.victim(), w, "PLRU evicted the way just touched");
        }
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        // Repeatedly evicting the victim and touching it must eventually visit
        // every way (the policy cannot starve part of the set).
        let mut s = SetReplacementState::new(ReplacementPolicy::TreePlru, 4);
        let mut seen = [false; 4];
        for _ in 0..32 {
            let v = s.victim();
            seen[v as usize] = true;
            s.touch(v);
        }
        assert!(
            seen.iter().all(|&x| x),
            "PLRU never evicted some way: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lru_touch_out_of_range_panics() {
        let mut s = SetReplacementState::new(ReplacementPolicy::Lru, 2);
        s.touch(2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_requires_power_of_two_ways() {
        let _ = SetReplacementState::new(ReplacementPolicy::TreePlru, 6);
    }

    #[test]
    fn single_way_set() {
        let mut s = SetReplacementState::new(ReplacementPolicy::Lru, 1);
        assert_eq!(s.victim(), 0);
        s.touch(0);
        assert_eq!(s.victim(), 0);
    }
}
