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
        AccessType::Read => serve_read(entry, requester),
        AccessType::Write => serve_write(entry, requester),
        AccessType::CommutativeUpdate(op) => serve_update(entry, requester, op),
    }
}

fn serve_read(entry: &DirectoryEntry, requester: ChildId) -> RequestPlan {
    let sharers = entry.sharers();
    match entry.mode() {
        // Grant E when no one else has a copy.
        DirMode::Uncached => RequestPlan {
            grant: PrivateState::Exclusive,
            next_entry: DirectoryEntry::new(DirMode::Exclusive, SharerSet::single(requester)),
            invalidate_readers: SharerSet::empty(),
            reduce_from: SharerSet::empty(),
            owner_action: None,
            data_source: DataSource::SharedLevel,
            requester_inits_identity: false,
            silent: true,
        },
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

fn serve_update(entry: &DirectoryEntry, requester: ChildId, op: CommutativeOp) -> RequestPlan {
    let sharers = entry.sharers();
    match entry.mode() {
        // MEUSI optimisation (Fig. 6): an update request for an unshared line
        // is granted directly in M, so private data sees no extra transitions
        // relative to MESI.
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
mod tests;
