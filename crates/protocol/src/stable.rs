//! Stable-state coherence engine shared by the performance simulator.
//!
//! The functions here describe, for each protocol family, what a directory must
//! do to serve a request, an eviction, or a recall, at the granularity of
//! stable states (Figs. 4–6 of the paper). The caller (the cache-hierarchy
//! simulator) executes the returned *plan*: it moves data, charges latencies
//! for invalidations, downgrades and reductions, and installs the granted
//! state. Transient states and races are modelled separately by
//! [`crate::detailed`], which the model checker verifies.

use crate::access::AccessType;
use crate::directory::{ChildId, DirectoryEntry, SharerSet};
use crate::ops::CommutativeOp;
use crate::state::{DirMode, PrivateState, ProtocolKind};

/// What the current exclusive owner of a line must do before a request can be
/// granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerAction {
    /// Owner keeps a read-only copy and sends the current data value
    /// (M/E → S on a read request from another cache).
    DowngradeToShared,
    /// Owner sends the current data value and re-initialises its copy to the
    /// identity element, keeping update-only permission
    /// (M/E → U on a commutative-update request from another cache; Fig. 5b).
    DowngradeToUpdateOnly(CommutativeOp),
    /// Owner invalidates its copy and sends the current data value
    /// (M/E → I on a write request from another cache).
    InvalidateWithData,
}

/// Where the data value granted to the requester comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// The shared cache (or memory below it) already has an up-to-date copy.
    SharedLevel,
    /// The current exclusive owner supplies the data (dirty or clean).
    Owner(ChildId),
    /// The value is produced by reducing partial updates into the shared copy.
    Reduction,
    /// No data needs to be transferred (the requester initialises a
    /// partial-update buffer to the identity element).
    None,
}

/// The directory's plan for serving one request. Produced by
/// [`serve_request`]; executed and timed by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestPlan {
    /// State granted to the requesting cache.
    pub grant: PrivateState,
    /// Directory entry after the transaction completes.
    pub next_entry: DirectoryEntry,
    /// Read-only sharers that must drop their copies (no payload returned).
    pub invalidate_readers: SharerSet,
    /// Update-only sharers whose partial updates must be collected and reduced
    /// (they are invalidated as part of the reduction).
    pub reduce_from: SharerSet,
    /// Action required of the single exclusive owner, if any.
    pub owner_action: Option<(ChildId, OwnerAction)>,
    /// Where the requester's data (if any) comes from.
    pub data_source: DataSource,
    /// Whether the requester initialises its copy to the identity element of
    /// the granted operation instead of receiving data.
    pub requester_inits_identity: bool,
    /// Whether this request hit in the directory's current mode without any
    /// third-party action (used for statistics).
    pub silent: bool,
}

impl RequestPlan {
    /// Whether serving the request requires a reduction.
    #[must_use]
    pub fn needs_reduction(&self) -> bool {
        !self.reduce_from.is_empty() || self.data_source == DataSource::Reduction
    }
}

/// The directory's plan for handling the eviction of a private copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPlan {
    /// A clean read-only/exclusive copy was dropped; only the sharer set changes.
    DropClean,
    /// A modified copy is written back to the shared level.
    WritebackData,
    /// A partial update is sent to the shared level and folded in by the
    /// reduction unit (partial reduction, Fig. 5c).
    PartialReduction(CommutativeOp),
}

/// The directory's plan for recalling a line it must evict itself (inclusive
/// hierarchy): every private copy has to be purged first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecallPlan {
    /// Read-only or clean-exclusive copies to invalidate without payload.
    pub invalidate: SharerSet,
    /// Whether the exclusive owner (if any) must write its data back.
    pub owner_writeback: Option<ChildId>,
    /// Update-only copies whose partial updates must be reduced (full
    /// reduction).
    pub reduce_from: SharerSet,
    /// The operation to reduce with, when `reduce_from` is non-empty.
    pub reduce_op: Option<CommutativeOp>,
}

impl RecallPlan {
    /// Whether recalling the line requires a full reduction.
    #[must_use]
    pub fn needs_reduction(&self) -> bool {
        !self.reduce_from.is_empty()
    }
}

/// Computes how a request from `requester` for `access` is served, given the
/// line's current directory entry.
///
/// The returned plan leaves the requester with sufficient permission to retry
/// its access and hit. Commutative updates under a protocol without the
/// update-only state are treated as writes (the baseline behaviour: an atomic
/// read-modify-write needs exclusive permission).
///
/// # Panics
///
/// Panics if the directory entry violates its invariants (which would indicate
/// a bug in the caller, not a representable protocol race).
#[must_use]
pub fn serve_request(
    kind: ProtocolKind,
    entry: &DirectoryEntry,
    requester: ChildId,
    access: AccessType,
) -> RequestPlan {
    entry
        .check_invariants()
        .expect("directory entry invariant violated");

    // Baseline protocols treat commutative updates as plain writes.
    let access = match access {
        AccessType::CommutativeUpdate(_) if !kind.supports_update_only() => AccessType::Write,
        other => other,
    };

    match access {
        AccessType::Read => serve_read(kind, entry, requester),
        AccessType::Write => serve_write(entry, requester),
        AccessType::CommutativeUpdate(op) => serve_update(kind, entry, requester, op),
    }
}

fn serve_read(kind: ProtocolKind, entry: &DirectoryEntry, requester: ChildId) -> RequestPlan {
    let sharers = entry.sharers();
    match entry.mode() {
        DirMode::Uncached => {
            // MESI-family: grant E when no one else has a copy.
            let grant = if kind.has_exclusive_state() {
                PrivateState::Exclusive
            } else {
                PrivateState::Shared
            };
            let mode = if kind.has_exclusive_state() {
                DirMode::Exclusive
            } else {
                DirMode::ReadOnly
            };
            RequestPlan {
                grant,
                next_entry: DirectoryEntry::new(mode, SharerSet::single(requester)),
                invalidate_readers: SharerSet::empty(),
                reduce_from: SharerSet::empty(),
                owner_action: None,
                data_source: DataSource::SharedLevel,
                requester_inits_identity: false,
                silent: true,
            }
        }
        DirMode::ReadOnly => {
            let mut next = sharers;
            next.insert(requester);
            RequestPlan {
                grant: PrivateState::Shared,
                next_entry: DirectoryEntry::new(DirMode::ReadOnly, next),
                invalidate_readers: SharerSet::empty(),
                reduce_from: SharerSet::empty(),
                owner_action: None,
                data_source: DataSource::SharedLevel,
                requester_inits_identity: false,
                silent: true,
            }
        }
        DirMode::Exclusive => {
            let owner = sharers
                .sole_member()
                .expect("exclusive entry has one sharer");
            if owner == requester {
                // The requester already has sufficient permission; nothing to do.
                return RequestPlan {
                    grant: PrivateState::Exclusive,
                    next_entry: *entry,
                    invalidate_readers: SharerSet::empty(),
                    reduce_from: SharerSet::empty(),
                    owner_action: None,
                    data_source: DataSource::None,
                    requester_inits_identity: false,
                    silent: true,
                };
            }
            let mut next = SharerSet::single(owner);
            next.insert(requester);
            RequestPlan {
                grant: PrivateState::Shared,
                next_entry: DirectoryEntry::new(DirMode::ReadOnly, next),
                invalidate_readers: SharerSet::empty(),
                reduce_from: SharerSet::empty(),
                owner_action: Some((owner, OwnerAction::DowngradeToShared)),
                data_source: DataSource::Owner(owner),
                requester_inits_identity: false,
                silent: false,
            }
        }
        DirMode::UpdateOnly(op) => {
            // Full reduction (Fig. 5d): gather every partial update, reduce
            // into the shared copy, grant the requester a read-only copy of
            // the final value. All updaters lose their copies.
            let _ = op;
            RequestPlan {
                grant: PrivateState::Shared,
                next_entry: DirectoryEntry::new(DirMode::ReadOnly, SharerSet::single(requester)),
                invalidate_readers: SharerSet::empty(),
                reduce_from: sharers,
                owner_action: None,
                data_source: DataSource::Reduction,
                requester_inits_identity: false,
                silent: false,
            }
        }
    }
}

fn serve_write(entry: &DirectoryEntry, requester: ChildId) -> RequestPlan {
    let sharers = entry.sharers();
    match entry.mode() {
        DirMode::Uncached => RequestPlan {
            grant: PrivateState::Modified,
            next_entry: DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(requester)),
            invalidate_readers: SharerSet::empty(),
            reduce_from: SharerSet::empty(),
            owner_action: None,
            data_source: DataSource::SharedLevel,
            requester_inits_identity: false,
            silent: true,
        },
        DirMode::ReadOnly => RequestPlan {
            grant: PrivateState::Modified,
            next_entry: DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(requester)),
            invalidate_readers: sharers.without(requester),
            reduce_from: SharerSet::empty(),
            owner_action: None,
            data_source: DataSource::SharedLevel,
            requester_inits_identity: false,
            silent: false,
        },
        DirMode::Exclusive => {
            let owner = sharers
                .sole_member()
                .expect("exclusive entry has one sharer");
            if owner == requester {
                return RequestPlan {
                    grant: PrivateState::Modified,
                    next_entry: *entry,
                    invalidate_readers: SharerSet::empty(),
                    reduce_from: SharerSet::empty(),
                    owner_action: None,
                    data_source: DataSource::None,
                    requester_inits_identity: false,
                    silent: true,
                };
            }
            RequestPlan {
                grant: PrivateState::Modified,
                next_entry: DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(requester)),
                invalidate_readers: SharerSet::empty(),
                reduce_from: SharerSet::empty(),
                owner_action: Some((owner, OwnerAction::InvalidateWithData)),
                data_source: DataSource::Owner(owner),
                requester_inits_identity: false,
                silent: false,
            }
        }
        DirMode::UpdateOnly(_) => RequestPlan {
            grant: PrivateState::Modified,
            next_entry: DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(requester)),
            invalidate_readers: SharerSet::empty(),
            reduce_from: sharers,
            owner_action: None,
            data_source: DataSource::Reduction,
            requester_inits_identity: false,
            silent: false,
        },
    }
}

fn serve_update(
    kind: ProtocolKind,
    entry: &DirectoryEntry,
    requester: ChildId,
    op: CommutativeOp,
) -> RequestPlan {
    debug_assert!(kind.supports_update_only());
    let sharers = entry.sharers();
    match entry.mode() {
        DirMode::Uncached => {
            if kind.has_exclusive_state() {
                // MEUSI optimisation (Fig. 6): an update request for an
                // unshared line is granted directly in M, so private data sees
                // no extra transitions relative to MESI.
                RequestPlan {
                    grant: PrivateState::Modified,
                    next_entry: DirectoryEntry::new(
                        DirMode::Exclusive,
                        SharerSet::single(requester),
                    ),
                    invalidate_readers: SharerSet::empty(),
                    reduce_from: SharerSet::empty(),
                    owner_action: None,
                    data_source: DataSource::SharedLevel,
                    requester_inits_identity: false,
                    silent: true,
                }
            } else {
                RequestPlan {
                    grant: PrivateState::UpdateOnly(op),
                    next_entry: DirectoryEntry::new(
                        DirMode::UpdateOnly(op),
                        SharerSet::single(requester),
                    ),
                    invalidate_readers: SharerSet::empty(),
                    reduce_from: SharerSet::empty(),
                    owner_action: None,
                    data_source: DataSource::None,
                    requester_inits_identity: true,
                    silent: true,
                }
            }
        }
        DirMode::ReadOnly => {
            // Invalidate every read-only copy (including the requester's, which
            // switches to a partial-update buffer) and grant update-only
            // permission (Fig. 5a).
            RequestPlan {
                grant: PrivateState::UpdateOnly(op),
                next_entry: DirectoryEntry::new(
                    DirMode::UpdateOnly(op),
                    SharerSet::single(requester),
                ),
                invalidate_readers: sharers.without(requester),
                reduce_from: SharerSet::empty(),
                owner_action: None,
                data_source: DataSource::None,
                requester_inits_identity: true,
                silent: false,
            }
        }
        DirMode::Exclusive => {
            let owner = sharers
                .sole_member()
                .expect("exclusive entry has one sharer");
            if owner == requester {
                return RequestPlan {
                    grant: PrivateState::Modified,
                    next_entry: *entry,
                    invalidate_readers: SharerSet::empty(),
                    reduce_from: SharerSet::empty(),
                    owner_action: None,
                    data_source: DataSource::None,
                    requester_inits_identity: false,
                    silent: true,
                };
            }
            // Fig. 5b: the owner writes its data value back to the shared
            // level, re-initialises to the identity element and keeps
            // update-only permission; the requester also gets update-only
            // permission.
            let mut next = SharerSet::single(owner);
            next.insert(requester);
            RequestPlan {
                grant: PrivateState::UpdateOnly(op),
                next_entry: DirectoryEntry::new(DirMode::UpdateOnly(op), next),
                invalidate_readers: SharerSet::empty(),
                reduce_from: SharerSet::empty(),
                owner_action: Some((owner, OwnerAction::DowngradeToUpdateOnly(op))),
                data_source: DataSource::None,
                requester_inits_identity: true,
                silent: false,
            }
        }
        DirMode::UpdateOnly(current_op) if current_op == op => {
            let mut next = sharers;
            next.insert(requester);
            RequestPlan {
                grant: PrivateState::UpdateOnly(op),
                next_entry: DirectoryEntry::new(DirMode::UpdateOnly(op), next),
                invalidate_readers: SharerSet::empty(),
                reduce_from: SharerSet::empty(),
                owner_action: None,
                data_source: DataSource::None,
                requester_inits_identity: true,
                silent: true,
            }
        }
        DirMode::UpdateOnly(_different_op) => {
            // Updates of different types do not commute with each other
            // (§3.2): perform a full reduction, then start a fresh update-only
            // epoch for the new operation type. With the MEUSI optimisation the
            // requester could be granted M instead; we grant U so that other
            // updaters of the new type can join without another transaction,
            // matching the generalized-N type-switch (NN transient state).
            RequestPlan {
                grant: PrivateState::UpdateOnly(op),
                next_entry: DirectoryEntry::new(
                    DirMode::UpdateOnly(op),
                    SharerSet::single(requester),
                ),
                invalidate_readers: SharerSet::empty(),
                reduce_from: sharers,
                owner_action: None,
                data_source: DataSource::None,
                requester_inits_identity: true,
                silent: false,
            }
        }
    }
}

/// Computes what happens when a private cache evicts a line it holds in
/// `state`, and updates the directory entry accordingly.
///
/// Returns the plan the evicting cache must follow. The directory entry is
/// mutated in place (the child is removed; the mode collapses to `Uncached`
/// when the last holder leaves).
///
/// # Panics
///
/// Panics if `state` is `Invalid` (evicting an invalid line is a caller bug).
pub fn serve_eviction(
    entry: &mut DirectoryEntry,
    child: ChildId,
    state: PrivateState,
) -> EvictionPlan {
    let plan = match state {
        PrivateState::Invalid => panic!("cannot evict an invalid line"),
        PrivateState::Shared | PrivateState::Exclusive => EvictionPlan::DropClean,
        PrivateState::Modified => EvictionPlan::WritebackData,
        PrivateState::UpdateOnly(op) => EvictionPlan::PartialReduction(op),
    };
    entry.remove_sharer(child);
    plan
}

/// Computes what must happen before the shared level can evict a line whose
/// directory entry is `entry` (inclusive hierarchy: all private copies must be
/// purged first). The entry is cleared.
#[must_use]
pub fn serve_recall(entry: &mut DirectoryEntry) -> RecallPlan {
    let plan = match entry.mode() {
        DirMode::Uncached => RecallPlan {
            invalidate: SharerSet::empty(),
            owner_writeback: None,
            reduce_from: SharerSet::empty(),
            reduce_op: None,
        },
        DirMode::ReadOnly => RecallPlan {
            invalidate: entry.sharers(),
            owner_writeback: None,
            reduce_from: SharerSet::empty(),
            reduce_op: None,
        },
        DirMode::Exclusive => RecallPlan {
            invalidate: SharerSet::empty(),
            owner_writeback: entry.sharers().sole_member(),
            reduce_from: SharerSet::empty(),
            reduce_op: None,
        },
        DirMode::UpdateOnly(op) => RecallPlan {
            invalidate: SharerSet::empty(),
            owner_writeback: None,
            reduce_from: entry.sharers(),
            reduce_op: Some(op),
        },
    };
    entry.clear();
    plan
}

/// Local (hit-path) state transition of a private cache performing `access` on
/// a line it holds in `state`.
///
/// Returns the next state. E silently upgrades to M on writes and commutative
/// updates (no directory transaction); every other hit keeps its state.
///
/// # Panics
///
/// Panics if the access cannot actually be satisfied in `state`; the caller
/// must consult [`PrivateState::satisfies`] (or issue a directory request)
/// first.
#[must_use]
pub fn local_hit_transition(state: PrivateState, access: AccessType) -> PrivateState {
    assert!(
        state.satisfies(access),
        "local access {access} cannot be satisfied in state {state}"
    );
    match (state, access) {
        (PrivateState::Exclusive, AccessType::Write | AccessType::CommutativeUpdate(_)) => {
            PrivateState::Modified
        }
        (s, _) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: CommutativeOp = CommutativeOp::AddU32;
    const OR: CommutativeOp = CommutativeOp::Or64;
    const C_ADD: AccessType = AccessType::CommutativeUpdate(ADD);
    const C_OR: AccessType = AccessType::CommutativeUpdate(OR);

    fn ro(sharers: &[ChildId]) -> DirectoryEntry {
        DirectoryEntry::new(
            DirMode::ReadOnly,
            SharerSet::from_iter(sharers.iter().copied()),
        )
    }
    fn ex(owner: ChildId) -> DirectoryEntry {
        DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(owner))
    }
    fn uo(op: CommutativeOp, sharers: &[ChildId]) -> DirectoryEntry {
        DirectoryEntry::new(
            DirMode::UpdateOnly(op),
            SharerSet::from_iter(sharers.iter().copied()),
        )
    }

    // ---- Reads ----

    #[test]
    fn mesi_read_of_uncached_line_grants_exclusive() {
        let plan = serve_request(
            ProtocolKind::Mesi,
            &DirectoryEntry::uncached(),
            2,
            AccessType::Read,
        );
        assert_eq!(plan.grant, PrivateState::Exclusive);
        assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
        assert!(plan.silent);
        assert!(plan.invalidate_readers.is_empty() && plan.reduce_from.is_empty());
        assert_eq!(plan.owner_action, None);
    }

    #[test]
    fn msi_read_of_uncached_line_grants_shared() {
        let plan = serve_request(
            ProtocolKind::Msi,
            &DirectoryEntry::uncached(),
            2,
            AccessType::Read,
        );
        assert_eq!(plan.grant, PrivateState::Shared);
        assert_eq!(plan.next_entry.mode(), DirMode::ReadOnly);
    }

    #[test]
    fn read_joins_existing_readers() {
        let plan = serve_request(ProtocolKind::Meusi, &ro(&[0, 1]), 5, AccessType::Read);
        assert_eq!(plan.grant, PrivateState::Shared);
        assert_eq!(plan.next_entry.sharers().len(), 3);
        assert!(plan.next_entry.sharers().contains(5));
        assert!(plan.silent);
    }

    #[test]
    fn read_downgrades_exclusive_owner() {
        let plan = serve_request(ProtocolKind::Mesi, &ex(7), 1, AccessType::Read);
        assert_eq!(plan.grant, PrivateState::Shared);
        assert_eq!(plan.owner_action, Some((7, OwnerAction::DowngradeToShared)));
        assert_eq!(plan.data_source, DataSource::Owner(7));
        assert_eq!(plan.next_entry.mode(), DirMode::ReadOnly);
        assert!(plan.next_entry.sharers().contains(7));
        assert!(plan.next_entry.sharers().contains(1));
        assert!(plan.invalidate_readers.is_empty() && plan.reduce_from.is_empty());
    }

    #[test]
    fn read_triggers_full_reduction_of_update_only_line() {
        // Fig. 5d: three updaters, a fourth core reads. All partial updates are
        // collected; the reader ends up the sole read-only sharer.
        let plan = serve_request(
            ProtocolKind::Meusi,
            &uo(ADD, &[1, 2, 3]),
            0,
            AccessType::Read,
        );
        assert_eq!(plan.grant, PrivateState::Shared);
        assert_eq!(plan.reduce_from, SharerSet::from_iter([1, 2, 3]));
        assert_eq!(plan.data_source, DataSource::Reduction);
        assert!(plan.needs_reduction());
        assert_eq!(plan.next_entry.mode(), DirMode::ReadOnly);
        assert_eq!(plan.next_entry.sharers().sole_member(), Some(0));
        assert!(plan.invalidate_readers.is_empty());
        assert_eq!(plan.owner_action, None);
    }

    #[test]
    fn reader_that_was_an_updater_still_reduces_everyone() {
        let plan = serve_request(ProtocolKind::Meusi, &uo(ADD, &[0, 1]), 0, AccessType::Read);
        assert!(plan.reduce_from.contains(0));
        assert!(plan.reduce_from.contains(1));
        assert_eq!(plan.next_entry.sharers().sole_member(), Some(0));
    }

    // ---- Writes ----

    #[test]
    fn write_to_uncached_line_grants_modified() {
        let plan = serve_request(
            ProtocolKind::Mesi,
            &DirectoryEntry::uncached(),
            3,
            AccessType::Write,
        );
        assert_eq!(plan.grant, PrivateState::Modified);
        assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
    }

    #[test]
    fn write_invalidates_readers() {
        let plan = serve_request(ProtocolKind::Mesi, &ro(&[0, 1, 2]), 1, AccessType::Write);
        assert_eq!(plan.grant, PrivateState::Modified);
        assert_eq!(plan.invalidate_readers, SharerSet::from_iter([0, 2]));
        assert_eq!(plan.next_entry.sharers().sole_member(), Some(1));
        assert!(plan.reduce_from.is_empty());
        assert_eq!(plan.owner_action, None);
    }

    #[test]
    fn write_steals_line_from_owner() {
        let plan = serve_request(ProtocolKind::Mesi, &ex(4), 9, AccessType::Write);
        assert_eq!(
            plan.owner_action,
            Some((4, OwnerAction::InvalidateWithData))
        );
        assert_eq!(plan.grant, PrivateState::Modified);
        assert_eq!(plan.next_entry.sharers().sole_member(), Some(9));
    }

    #[test]
    fn write_to_update_only_line_forces_full_reduction() {
        let plan = serve_request(ProtocolKind::Meusi, &uo(OR, &[2, 3]), 2, AccessType::Write);
        assert_eq!(plan.grant, PrivateState::Modified);
        assert_eq!(plan.reduce_from, SharerSet::from_iter([2, 3]));
        assert_eq!(plan.data_source, DataSource::Reduction);
        assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
    }

    // ---- Commutative updates under COUP ----

    #[test]
    fn meusi_update_of_uncached_line_grants_modified() {
        // Fig. 6: update requests enjoy the E-style optimisation.
        let plan = serve_request(ProtocolKind::Meusi, &DirectoryEntry::uncached(), 0, C_ADD);
        assert_eq!(plan.grant, PrivateState::Modified);
        assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
        assert!(!plan.requester_inits_identity);
        assert!(plan.silent);
    }

    #[test]
    fn musi_update_of_uncached_line_grants_update_only() {
        let plan = serve_request(ProtocolKind::Musi, &DirectoryEntry::uncached(), 0, C_ADD);
        assert_eq!(plan.grant, PrivateState::UpdateOnly(ADD));
        assert_eq!(plan.next_entry.mode(), DirMode::UpdateOnly(ADD));
        assert!(plan.requester_inits_identity);
        assert_eq!(plan.data_source, DataSource::None);
    }

    #[test]
    fn update_invalidates_read_only_copies() {
        // Fig. 5a-like: read-only sharers are invalidated, requester enters U.
        let plan = serve_request(ProtocolKind::Meusi, &ro(&[1, 2]), 0, C_ADD);
        assert_eq!(plan.grant, PrivateState::UpdateOnly(ADD));
        assert_eq!(plan.invalidate_readers, SharerSet::from_iter([1, 2]));
        assert!(plan.requester_inits_identity);
        assert_eq!(plan.next_entry.mode(), DirMode::UpdateOnly(ADD));
        assert_eq!(plan.next_entry.sharers().sole_member(), Some(0));
    }

    #[test]
    fn update_request_downgrades_modified_owner_to_update_only() {
        // Fig. 5b: owner in M writes its value back and keeps U; requester joins.
        let plan = serve_request(ProtocolKind::Meusi, &ex(1), 0, C_ADD);
        assert_eq!(plan.grant, PrivateState::UpdateOnly(ADD));
        assert_eq!(
            plan.owner_action,
            Some((1, OwnerAction::DowngradeToUpdateOnly(ADD)))
        );
        assert_eq!(plan.next_entry.mode(), DirMode::UpdateOnly(ADD));
        assert!(plan.next_entry.sharers().contains(0));
        assert!(plan.next_entry.sharers().contains(1));
        assert!(plan.requester_inits_identity);
    }

    #[test]
    fn same_op_update_joins_existing_updaters_silently() {
        let plan = serve_request(ProtocolKind::Meusi, &uo(ADD, &[1]), 0, C_ADD);
        assert!(plan.silent);
        assert_eq!(plan.grant, PrivateState::UpdateOnly(ADD));
        assert_eq!(plan.next_entry.sharers().len(), 2);
        assert!(plan.invalidate_readers.is_empty() && plan.reduce_from.is_empty());
        assert_eq!(plan.owner_action, None);
    }

    #[test]
    fn different_op_update_forces_reduction_and_type_switch() {
        let plan = serve_request(ProtocolKind::Meusi, &uo(ADD, &[1, 2]), 3, C_OR);
        assert_eq!(plan.grant, PrivateState::UpdateOnly(OR));
        assert_eq!(plan.reduce_from, SharerSet::from_iter([1, 2]));
        assert_eq!(plan.next_entry.mode(), DirMode::UpdateOnly(OR));
        assert_eq!(plan.next_entry.sharers().sole_member(), Some(3));
        assert!(plan.requester_inits_identity);
        assert!(!plan.silent);
    }

    #[test]
    fn update_under_mesi_behaves_like_a_write() {
        let plan = serve_request(ProtocolKind::Mesi, &ro(&[1, 2]), 0, C_ADD);
        assert_eq!(plan.grant, PrivateState::Modified);
        assert_eq!(plan.invalidate_readers, SharerSet::from_iter([1, 2]));
        assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
        let plan2 = serve_request(ProtocolKind::Msi, &ex(5), 0, C_ADD);
        assert_eq!(
            plan2.owner_action,
            Some((5, OwnerAction::InvalidateWithData))
        );
    }

    #[test]
    fn requester_already_exclusive_is_a_noop() {
        for access in [AccessType::Read, AccessType::Write, C_ADD] {
            let plan = serve_request(ProtocolKind::Meusi, &ex(6), 6, access);
            assert!(plan.silent);
            assert_eq!(plan.next_entry, ex(6));
            assert_eq!(plan.data_source, DataSource::None);
        }
    }

    // ---- Evictions and recalls ----

    #[test]
    fn eviction_of_update_only_copy_is_a_partial_reduction() {
        // Fig. 5c.
        let mut entry = uo(ADD, &[0, 1]);
        let plan = serve_eviction(&mut entry, 0, PrivateState::UpdateOnly(ADD));
        assert_eq!(plan, EvictionPlan::PartialReduction(ADD));
        assert_eq!(entry.mode(), DirMode::UpdateOnly(ADD));
        assert_eq!(entry.sharers().sole_member(), Some(1));
    }

    #[test]
    fn eviction_of_last_updater_leaves_line_uncached() {
        let mut entry = uo(ADD, &[4]);
        let plan = serve_eviction(&mut entry, 4, PrivateState::UpdateOnly(ADD));
        assert_eq!(plan, EvictionPlan::PartialReduction(ADD));
        assert!(entry.is_uncached());
    }

    #[test]
    fn eviction_of_modified_copy_writes_back() {
        let mut entry = ex(2);
        let plan = serve_eviction(&mut entry, 2, PrivateState::Modified);
        assert_eq!(plan, EvictionPlan::WritebackData);
        assert!(entry.is_uncached());
    }

    #[test]
    fn eviction_of_clean_copies_drops() {
        let mut entry = ro(&[0, 1]);
        assert_eq!(
            serve_eviction(&mut entry, 1, PrivateState::Shared),
            EvictionPlan::DropClean
        );
        assert_eq!(entry.sharers().sole_member(), Some(0));
        let mut entry = ex(3);
        assert_eq!(
            serve_eviction(&mut entry, 3, PrivateState::Exclusive),
            EvictionPlan::DropClean
        );
        assert!(entry.is_uncached());
    }

    #[test]
    #[should_panic(expected = "cannot evict an invalid line")]
    fn evicting_invalid_line_panics() {
        let mut entry = DirectoryEntry::uncached();
        let _ = serve_eviction(&mut entry, 0, PrivateState::Invalid);
    }

    #[test]
    fn recall_of_update_only_line_is_a_full_reduction() {
        let mut entry = uo(OR, &[0, 5, 9]);
        let plan = serve_recall(&mut entry);
        assert!(plan.needs_reduction());
        assert_eq!(plan.reduce_from, SharerSet::from_iter([0, 5, 9]));
        assert_eq!(plan.reduce_op, Some(OR));
        assert!(entry.is_uncached());
    }

    #[test]
    fn recall_of_read_only_and_exclusive_lines() {
        let mut entry = ro(&[1, 2]);
        let plan = serve_recall(&mut entry);
        assert_eq!(plan.invalidate, SharerSet::from_iter([1, 2]));
        assert!(!plan.needs_reduction());

        let mut entry = ex(7);
        let plan = serve_recall(&mut entry);
        assert_eq!(plan.owner_writeback, Some(7));
        assert!(plan.invalidate.is_empty());

        let mut entry = DirectoryEntry::uncached();
        let plan = serve_recall(&mut entry);
        assert!(plan.invalidate.is_empty() && plan.owner_writeback.is_none());
    }

    // ---- Local hit transitions ----

    #[test]
    fn exclusive_upgrades_to_modified_on_write_or_update() {
        assert_eq!(
            local_hit_transition(PrivateState::Exclusive, AccessType::Write),
            PrivateState::Modified
        );
        assert_eq!(
            local_hit_transition(PrivateState::Exclusive, C_ADD),
            PrivateState::Modified
        );
        assert_eq!(
            local_hit_transition(PrivateState::Exclusive, AccessType::Read),
            PrivateState::Exclusive
        );
    }

    #[test]
    fn other_hits_keep_state() {
        assert_eq!(
            local_hit_transition(PrivateState::Modified, C_OR),
            PrivateState::Modified
        );
        assert_eq!(
            local_hit_transition(PrivateState::Shared, AccessType::Read),
            PrivateState::Shared
        );
        assert_eq!(
            local_hit_transition(PrivateState::UpdateOnly(ADD), C_ADD),
            PrivateState::UpdateOnly(ADD)
        );
    }

    #[test]
    #[should_panic(expected = "cannot be satisfied")]
    fn illegal_local_access_panics() {
        let _ = local_hit_transition(PrivateState::Shared, AccessType::Write);
    }

    #[test]
    fn plans_keep_directory_invariants() {
        // Sweep a collection of (entry, requester, access) combinations and
        // check that every produced next_entry satisfies the invariants.
        let entries = [
            DirectoryEntry::uncached(),
            ro(&[0]),
            ro(&[0, 1, 2]),
            ex(0),
            ex(3),
            uo(ADD, &[0]),
            uo(ADD, &[1, 2]),
            uo(OR, &[0, 1, 2, 3]),
        ];
        let accesses = [AccessType::Read, AccessType::Write, C_ADD, C_OR];
        for kind in [
            ProtocolKind::Msi,
            ProtocolKind::Mesi,
            ProtocolKind::Musi,
            ProtocolKind::Meusi,
        ] {
            for entry in &entries {
                for &access in &accesses {
                    for requester in 0..4 {
                        let plan = serve_request(kind, entry, requester, access);
                        plan.next_entry.check_invariants().unwrap_or_else(|e| {
                            panic!("invariant violated: {e} (kind={kind}, entry={entry}, req={requester}, access={access})")
                        });
                        // The requester must be able to satisfy its access
                        // after the grant (or the grant is a no-op re-grant).
                        let effective = match access {
                            AccessType::CommutativeUpdate(_) if !kind.supports_update_only() => {
                                AccessType::Write
                            }
                            a => a,
                        };
                        assert!(
                            plan.grant.satisfies(effective),
                            "grant {} does not satisfy {} (kind={kind})",
                            plan.grant,
                            effective
                        );
                    }
                }
            }
        }
    }
}
