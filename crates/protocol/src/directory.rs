//! Directory state: sharer sets and per-line directory entries.
//!
//! Shared cache levels keep an in-cache directory (Table 1). Each tag tracks
//! the set of children (private caches or lower-level directories) that hold
//! the line, together with the sharing mode. Conventional directories only
//! distinguish "one exclusive owner" from "one or more readers"; COUP adds the
//! update-only mode and the operation type (§3.1.1, "Directory state").

use std::fmt;

use crate::access::OpClass;
use crate::state::DirMode;

/// Identifier of a child of a directory level: a core-private cache below an
/// L3 directory, or a processor chip below the global (L4) directory.
pub type ChildId = usize;

/// Maximum number of children a single directory level supports.
///
/// The paper's largest configuration has 16 cores per chip (children of an L3
/// directory) and 8 chips (children of the L4 directory); 128 leaves room for
/// flat single-level organisations used in tests and microbenchmarks.
pub const MAX_CHILDREN: usize = 128;

/// A set of children, stored as a fixed-width bit vector.
///
/// Mirrors the sharer bit-vector of an in-cache directory tag. The same vector
/// tracks multiple readers or multiple updaters, which is why MUSI needs only
/// one extra mode bit per tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SharerSet {
    bits: u128,
}

impl SharerSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        SharerSet { bits: 0 }
    }

    /// A set containing a single child.
    ///
    /// # Panics
    ///
    /// Panics if `child >= MAX_CHILDREN`.
    #[must_use]
    pub fn single(child: ChildId) -> Self {
        let mut s = SharerSet::empty();
        s.insert(child);
        s
    }

    /// Builds a set from an iterator of children.
    ///
    /// # Panics
    ///
    /// Panics if any child is `>= MAX_CHILDREN`.
    // The `FromIterator` impl below delegates here; the inherent method
    // exists so `SharerSet::from_iter([...])` resolves without a `use` and
    // carries the panic documentation.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn from_iter<I: IntoIterator<Item = ChildId>>(children: I) -> Self {
        let mut s = SharerSet::empty();
        for c in children {
            s.insert(c);
        }
        s
    }

    /// Adds a child to the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `child >= MAX_CHILDREN`.
    pub fn insert(&mut self, child: ChildId) -> bool {
        assert!(
            child < MAX_CHILDREN,
            "child id {child} exceeds MAX_CHILDREN"
        );
        let mask = 1u128 << child;
        let newly = self.bits & mask == 0;
        self.bits |= mask;
        newly
    }

    /// Removes a child from the set. Returns `true` if it was present.
    pub fn remove(&mut self, child: ChildId) -> bool {
        if child >= MAX_CHILDREN {
            return false;
        }
        let mask = 1u128 << child;
        let present = self.bits & mask != 0;
        self.bits &= !mask;
        present
    }

    /// Whether the set contains `child`.
    #[must_use]
    pub fn contains(&self, child: ChildId) -> bool {
        child < MAX_CHILDREN && self.bits & (1u128 << child) != 0
    }

    /// Number of children in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The single member, if the set has exactly one.
    #[must_use]
    pub fn sole_member(&self) -> Option<ChildId> {
        if self.len() == 1 {
            Some(self.bits.trailing_zeros() as ChildId)
        } else {
            None
        }
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ChildId> + '_ {
        (0..MAX_CHILDREN).filter(move |&c| self.contains(c))
    }

    /// Returns the set of members other than `child`.
    #[must_use]
    pub fn without(&self, child: ChildId) -> SharerSet {
        let mut s = *self;
        s.remove(child);
        s
    }

    /// Removes every member and returns the previous contents.
    pub fn take(&mut self) -> SharerSet {
        std::mem::take(self)
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ChildId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = ChildId>>(iter: I) -> Self {
        SharerSet::from_iter(iter)
    }
}

impl Extend<ChildId> for SharerSet {
    fn extend<I: IntoIterator<Item = ChildId>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

/// Per-line directory entry: sharing mode plus sharer set.
///
/// The invariants tying the two together are checked by
/// [`DirectoryEntry::check_invariants`] and exercised by the model checker:
/// `Uncached` ⇒ empty sharer set, `Exclusive` ⇒ exactly one sharer,
/// `ReadOnly`/`UpdateOnly` ⇒ at least one sharer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryEntry {
    mode: DirMode,
    sharers: SharerSet,
}

impl DirectoryEntry {
    /// A directory entry for a line no private cache holds.
    #[must_use]
    pub const fn uncached() -> Self {
        DirectoryEntry {
            mode: DirMode::Uncached,
            sharers: SharerSet::empty(),
        }
    }

    /// Builds an entry from parts.
    ///
    /// # Panics
    ///
    /// Panics if the mode/sharer-set invariants do not hold.
    #[must_use]
    pub fn new(mode: DirMode, sharers: SharerSet) -> Self {
        let entry = DirectoryEntry { mode, sharers };
        entry
            .check_invariants()
            .unwrap_or_else(|e| panic!("invalid directory entry {mode} {sharers}: {e}"));
        entry
    }

    /// Current sharing mode.
    #[must_use]
    pub const fn mode(&self) -> DirMode {
        self.mode
    }

    /// Current sharer set.
    #[must_use]
    pub const fn sharers(&self) -> SharerSet {
        self.sharers
    }

    /// The operation class of the current non-exclusive mode, if any.
    #[must_use]
    pub fn op_class(&self) -> Option<OpClass> {
        self.mode.op_class()
    }

    /// Whether no private cache holds the line.
    #[must_use]
    pub fn is_uncached(&self) -> bool {
        self.mode == DirMode::Uncached
    }

    /// Replaces the entry wholesale.
    ///
    /// # Panics
    ///
    /// Panics if the new entry violates the mode/sharer-set invariants.
    pub fn set(&mut self, mode: DirMode, sharers: SharerSet) {
        *self = DirectoryEntry::new(mode, sharers);
    }

    /// Resets the entry to uncached.
    pub fn clear(&mut self) {
        *self = DirectoryEntry::uncached();
    }

    /// Records that `child` no longer holds the line (e.g. after an eviction
    /// notification), collapsing to `Uncached` when the last sharer leaves.
    pub fn remove_sharer(&mut self, child: ChildId) {
        self.sharers.remove(child);
        if self.sharers.is_empty() {
            self.mode = DirMode::Uncached;
        } else if self.mode == DirMode::Exclusive {
            // An exclusive owner that vanished leaves the line uncached even if
            // the set was (incorrectly) non-singleton.
            self.mode = DirMode::Uncached;
            self.sharers = SharerSet::empty();
        }
    }

    /// Validates the mode/sharer-count invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self.mode {
            DirMode::Uncached if !self.sharers.is_empty() => {
                Err(format!("uncached line has sharers {}", self.sharers))
            }
            DirMode::Exclusive if self.sharers.len() != 1 => {
                Err(format!("exclusive line has {} sharers", self.sharers.len()))
            }
            DirMode::ReadOnly | DirMode::UpdateOnly(_) if self.sharers.is_empty() => {
                Err("non-exclusive line has no sharers".to_string())
            }
            _ => Ok(()),
        }
    }
}

impl Default for DirectoryEntry {
    fn default() -> Self {
        Self::uncached()
    }
}

impl fmt::Display for DirectoryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.mode, self.sharers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CommutativeOp;

    #[test]
    fn empty_set_basics() {
        let s = SharerSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.sole_member(), None);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s, SharerSet::default());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::empty();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(127));
        assert!(s.contains(3));
        assert!(s.contains(127));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.sole_member(), Some(127));
    }

    #[test]
    fn from_iter_and_iter_round_trip() {
        let members = [0usize, 5, 17, 63, 64, 100];
        let s: SharerSet = members.iter().copied().collect();
        let back: Vec<_> = s.iter().collect();
        assert_eq!(back, members);
        assert_eq!(s.len(), members.len());
    }

    #[test]
    fn without_and_take() {
        let mut s = SharerSet::from_iter([1, 2, 3]);
        let w = s.without(2);
        assert!(w.contains(1) && w.contains(3) && !w.contains(2));
        assert!(s.contains(2), "without() must not mutate the original");
        let taken = s.take();
        assert_eq!(taken.len(), 3);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CHILDREN")]
    fn oversized_child_panics() {
        let _ = SharerSet::single(MAX_CHILDREN);
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = SharerSet::single(1);
        assert!(!s.remove(MAX_CHILDREN + 5));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(MAX_CHILDREN + 5));
    }

    #[test]
    fn display_and_debug() {
        let s = SharerSet::from_iter([1, 2]);
        assert_eq!(s.to_string(), "{1,2}");
        assert_eq!(format!("{s:?}"), "{1, 2}");
    }

    #[test]
    fn entry_invariants_enforced() {
        assert!(DirectoryEntry::uncached().check_invariants().is_ok());
        let good = DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(4));
        assert_eq!(good.sharers().sole_member(), Some(4));
        let ro = DirectoryEntry::new(DirMode::ReadOnly, SharerSet::from_iter([0, 1, 2]));
        assert_eq!(ro.sharers().len(), 3);
        let uo = DirectoryEntry::new(
            DirMode::UpdateOnly(CommutativeOp::AddU32),
            SharerSet::from_iter([5, 9]),
        );
        assert!(uo.op_class().is_some());
    }

    #[test]
    #[should_panic(expected = "invalid directory entry")]
    fn exclusive_with_two_sharers_panics() {
        let _ = DirectoryEntry::new(DirMode::Exclusive, SharerSet::from_iter([0, 1]));
    }

    #[test]
    #[should_panic(expected = "invalid directory entry")]
    fn read_only_with_no_sharers_panics() {
        let _ = DirectoryEntry::new(DirMode::ReadOnly, SharerSet::empty());
    }

    #[test]
    fn remove_sharer_collapses_modes() {
        let mut e = DirectoryEntry::new(DirMode::ReadOnly, SharerSet::from_iter([0, 1]));
        e.remove_sharer(0);
        assert_eq!(e.mode(), DirMode::ReadOnly);
        e.remove_sharer(1);
        assert!(e.is_uncached());

        let mut ex = DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(3));
        ex.remove_sharer(3);
        assert!(ex.is_uncached());
        assert!(ex.check_invariants().is_ok());
    }

    #[test]
    fn entry_display() {
        let e = DirectoryEntry::new(
            DirMode::UpdateOnly(CommutativeOp::Or64),
            SharerSet::from_iter([1, 2]),
        );
        let s = e.to_string();
        assert!(
            s.contains("ShU") && s.contains("{1,2}"),
            "unexpected display: {s}"
        );
    }
}
