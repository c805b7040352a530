//! Stable-state coherence engine of the performance simulator.
//!
//! [`serve_request`] says what a directory must do to serve one request, at
//! the granularity of stable states (Figs. 4–6 of the paper), and
//! [`local_hit_transition`] is a private cache's side of a hit. The caller
//! (the cache-hierarchy simulator) executes the returned *plan*: it moves
//! data, charges latencies for invalidations, downgrades and reductions, and
//! installs the granted state; it also settles the copies that leave a
//! private cache on its own. Transient states and races are modelled by the
//! message-level controllers of [`crate::detailed`] and [`crate::detailed_dir`],
//! which the model checker verifies; `tests/stable_conformance.rs` drives
//! them from every small quiescent configuration, through every delivery
//! order, and checks that each run ends as this module plans it.

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

/// The directory's plan for serving one request. Produced by
/// [`serve_request`]; executed and timed by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestPlan {
    /// State granted to the requesting cache. An update-only grant starts
    /// from the operation's identity; every other grant carries the line's
    /// current value.
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
    /// Whether the request needs no third-party action and leaves who may
    /// write the line unchanged. The simulator serialises every other
    /// transaction on the line, and counts the request as a silent or an
    /// invalidating grant by it.
    pub silent: bool,
}

impl RequestPlan {
    /// A grant of `grant` that leaves the entry `mode` over `sharers`, with
    /// no third-party action.
    fn grant(grant: PrivateState, mode: DirMode, sharers: SharerSet, silent: bool) -> Self {
        RequestPlan {
            grant,
            next_entry: DirectoryEntry::new(mode, sharers),
            invalidate_readers: SharerSet::empty(),
            reduce_from: SharerSet::empty(),
            owner_action: None,
            silent,
        }
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
/// Panics if the directory entry violates its invariants, or if `requester`
/// is the line's exclusive owner, whose E or M copy already satisfies any
/// access (either would indicate a bug in the caller, not a representable
/// protocol race).
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
    // What the requester gets once any third party has acted.
    let (grant, mode) = match access {
        AccessType::Read => (PrivateState::Shared, DirMode::ReadOnly),
        AccessType::Write => (PrivateState::Modified, DirMode::Exclusive),
        AccessType::CommutativeUpdate(op) => {
            (PrivateState::UpdateOnly(op), DirMode::UpdateOnly(op))
        }
    };
    // What it gets when no one else holds the line: E to a read and M to
    // anything else, the E optimisation that MEUSI extends to updates
    // (Fig. 6), so private data sees no extra transitions relative to MESI.
    let unshared = if access == AccessType::Read {
        PrivateState::Exclusive
    } else {
        PrivateState::Modified
    };
    let sharers = entry.sharers();
    let alone = SharerSet::single(requester);
    let mut joined = sharers;
    joined.insert(requester);

    match entry.mode() {
        DirMode::Uncached => RequestPlan::grant(unshared, DirMode::Exclusive, alone, true),
        DirMode::Exclusive => {
            let owner = sharers
                .sole_member()
                .expect("exclusive entry has one sharer");
            // An exclusive owner's E or M copy satisfies every access, so it
            // never asks the directory again.
            assert_ne!(owner, requester, "the exclusive owner needs no request");
            // A read or an update downgrades the owner, which sends its data
            // value and keeps a copy in the requested class (Fig. 5b for
            // updates: the owner restarts from the identity); a write
            // invalidates it.
            let (action, next) = match access {
                AccessType::Read => (OwnerAction::DowngradeToShared, joined),
                AccessType::Write => (OwnerAction::InvalidateWithData, alone),
                AccessType::CommutativeUpdate(op) => {
                    (OwnerAction::DowngradeToUpdateOnly(op), joined)
                }
            };
            RequestPlan {
                owner_action: Some((owner, action)),
                ..RequestPlan::grant(grant, mode, next, false)
            }
        }
        // Same-class join: readers join readers, updaters of one operation
        // join each other, without any collection.
        current if current == mode => RequestPlan::grant(grant, mode, joined, true),
        // Every other read-only copy (the requester's own switches to the new
        // class) is invalidated (Fig. 5a for an update).
        DirMode::ReadOnly => RequestPlan {
            invalidate_readers: sharers.without(requester),
            ..RequestPlan::grant(grant, mode, alone, false)
        },
        // Full reduction (Fig. 5d): every partial update, the requester's
        // included, is collected and reduced into the shared copy. Updates of
        // different types do not commute with each other (§3.2), so a new
        // type also starts a fresh update-only epoch after the reduction;
        // granting U rather than M lets other updaters of the new type join
        // without another transaction, as the generalized-N type switch (the
        // NN transient state) does.
        DirMode::UpdateOnly(_) => RequestPlan {
            reduce_from: sharers,
            ..RequestPlan::grant(grant, mode, alone, false)
        },
    }
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
