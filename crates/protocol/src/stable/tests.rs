//! Unit tests of the stable-state transition engine.

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
    assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
}

// ---- Commutative updates under COUP ----

#[test]
fn meusi_update_of_uncached_line_grants_modified() {
    // Fig. 6: update requests enjoy the E-style optimisation.
    let plan = serve_request(ProtocolKind::Meusi, &DirectoryEntry::uncached(), 0, C_ADD);
    assert_eq!(plan.grant, PrivateState::Modified);
    assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
    assert!(plan.silent);
}

#[test]
fn update_invalidates_read_only_copies() {
    // Fig. 5a-like: read-only sharers are invalidated, requester enters U.
    let plan = serve_request(ProtocolKind::Meusi, &ro(&[1, 2]), 0, C_ADD);
    assert_eq!(plan.grant, PrivateState::UpdateOnly(ADD));
    assert_eq!(plan.invalidate_readers, SharerSet::from_iter([1, 2]));
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
    assert!(!plan.silent);
}

#[test]
fn update_under_mesi_behaves_like_a_write() {
    let plan = serve_request(ProtocolKind::Mesi, &ro(&[1, 2]), 0, C_ADD);
    assert_eq!(plan.grant, PrivateState::Modified);
    assert_eq!(plan.invalidate_readers, SharerSet::from_iter([1, 2]));
    assert_eq!(plan.next_entry.mode(), DirMode::Exclusive);
    let plan2 = serve_request(ProtocolKind::Mesi, &ex(5), 0, C_ADD);
    assert_eq!(
        plan2.owner_action,
        Some((5, OwnerAction::InvalidateWithData))
    );
}

#[test]
#[should_panic(expected = "the exclusive owner needs no request")]
fn request_from_the_exclusive_owner_panics() {
    // An E or M copy satisfies every access, so its owner never asks.
    let _ = serve_request(ProtocolKind::Meusi, &ex(6), 6, AccessType::Read);
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
    for kind in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
        for entry in &entries {
            for &access in &accesses {
                for requester in 0..4 {
                    if *entry == ex(requester) {
                        // The exclusive owner never asks; see
                        // `request_from_the_exclusive_owner_panics`.
                        continue;
                    }
                    let plan = serve_request(kind, entry, requester, access);
                    plan.next_entry.check_invariants().unwrap_or_else(|e| {
                        panic!("invariant violated: {e} (kind={kind}, entry={entry}, req={requester}, access={access})")
                    });
                    // The requester must be able to satisfy its access
                    // after the grant.
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
