//! Unit tests of the message-level directory controller.

use super::*;
use crate::detailed::OpId;

const OP0: OpId = OpId(0);
const RO: Class = Class::ReadOnly;
const U0: Class = Class::Update(OpId(0));
const U1: Class = Class::Update(OpId(1));

/// Drives the grant-ack handshake to completion so tests can focus on the
/// interesting part of each transaction.
fn ack_grant(dir: DirLine, grantee: usize) -> DirLine {
    let (next, msgs) = dir_step(dir, grantee, ToDirMsg::GrantAck).expect("ack accepted");
    assert!(msgs.is_empty());
    next
}

#[test]
fn child_mask_basics() {
    let mut m = ChildMask::EMPTY;
    assert!(m.is_empty());
    m.insert(2);
    m.insert(5);
    assert!(m.contains(2) && m.contains(5) && !m.contains(3));
    assert_eq!(m.count(), 2);
    assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 5]);
    m.remove(2);
    assert_eq!(m.sole(), Some(5));
    assert_eq!(ChildMask::single(1).to_string(), "{1}");
}

#[test]
fn uncached_get_n_grants_exclusive_under_meusi() {
    let dir = DirLine::new(Value(2));
    let (next, msgs) = dir_step(dir, 0, ToDirMsg::GetN(RO)).unwrap();
    assert_eq!(next.mode, DirStable::Exclusive);
    assert_eq!(next.pending, DirPending::WaitGrantAck { grantee: 0 });
    assert_eq!(
        msgs,
        vec![(
            0,
            ToL1Msg::GrantM {
                value: Value(2),
                clean: true
            }
        )]
    );
    let settled = ack_grant(next, 0);
    assert!(settled.pending.is_idle());

    // Update requests get M (dirty) directly.
    let (next, msgs) = dir_step(dir, 1, ToDirMsg::GetN(U0)).unwrap();
    assert_eq!(next.mode, DirStable::Exclusive);
    assert_eq!(
        msgs,
        vec![(
            1,
            ToL1Msg::GrantM {
                value: Value(2),
                clean: false
            }
        )]
    );
}

#[test]
fn same_class_get_n_joins() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::NonExclusive(U0);
    dir.sharers = ChildMask::single(1);
    let (next, msgs) = dir_step(dir, 2, ToDirMsg::GetN(U0)).unwrap();
    assert_eq!(next.sharers.count(), 2);
    assert_eq!(msgs, vec![(2, ToL1Msg::GrantN(U0, Value::ZERO))]);
    assert_eq!(next.pending, DirPending::WaitGrantAck { grantee: 2 });
}

#[test]
fn type_switch_collects_partial_updates_then_grants() {
    // Two updaters hold the line; core 2 asks for read-only.
    let mut dir = DirLine::new(Value(1));
    dir.mode = DirStable::NonExclusive(U0);
    dir.sharers = ChildMask(0b11);
    let (next, msgs) = dir_step(dir, 2, ToDirMsg::GetN(RO)).unwrap();
    assert!(matches!(next.pending, DirPending::CollectForGrantN { .. }));
    assert_eq!(msgs.len(), 2);
    assert!(msgs
        .iter()
        .all(|(_, m)| matches!(m, ToL1Msg::Reduce(op) if *op == OP0)));

    // Partial updates arrive: 2 and then 3 (mod 4).
    let (next, msgs) = dir_step(next, 0, ToDirMsg::ReduceAck(OP0, Value(2))).unwrap();
    assert!(msgs.is_empty());
    let (next, msgs) = dir_step(next, 1, ToDirMsg::ReduceAck(OP0, Value(3))).unwrap();
    // 1 + 2 + 3 = 6 mod 4 = 2.
    assert_eq!(next.value, Value(2));
    assert_eq!(next.mode, DirStable::NonExclusive(RO));
    assert_eq!(next.sharers.sole(), Some(2));
    assert_eq!(msgs, vec![(2, ToL1Msg::GrantN(RO, Value(2)))]);
    assert_eq!(next.pending, DirPending::WaitGrantAck { grantee: 2 });
    assert!(ack_grant(next, 2).pending.is_idle());
}

#[test]
fn type_switch_between_update_classes() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::NonExclusive(U0);
    dir.sharers = ChildMask::single(0);
    let (next, msgs) = dir_step(dir, 1, ToDirMsg::GetN(U1)).unwrap();
    assert_eq!(msgs, vec![(0, ToL1Msg::Reduce(OP0))]);
    let (next, msgs) = dir_step(next, 0, ToDirMsg::ReduceAck(OP0, Value(1))).unwrap();
    assert_eq!(next.mode, DirStable::NonExclusive(U1));
    assert_eq!(next.value, Value(1));
    assert_eq!(msgs, vec![(1, ToL1Msg::GrantN(U1, Value::ZERO))]);
}

#[test]
fn requester_holding_old_class_is_also_collected() {
    // Core 0 holds U0 and asks for RO (finely-interleaved update/read).
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::NonExclusive(U0);
    dir.sharers = ChildMask::single(0);
    let (next, msgs) = dir_step(dir, 0, ToDirMsg::GetN(RO)).unwrap();
    assert_eq!(msgs, vec![(0, ToL1Msg::Reduce(OP0))]);
    let (next, msgs) = dir_step(next, 0, ToDirMsg::ReduceAck(OP0, Value(3))).unwrap();
    assert_eq!(next.value, Value(3));
    assert_eq!(msgs, vec![(0, ToL1Msg::GrantN(RO, Value(3)))]);
}

#[test]
fn get_m_invalidates_readers_and_collects_acks() {
    let mut dir = DirLine::new(Value(2));
    dir.mode = DirStable::NonExclusive(RO);
    dir.sharers = ChildMask(0b101);
    let (next, msgs) = dir_step(dir, 1, ToDirMsg::GetM).unwrap();
    assert_eq!(msgs.len(), 2);
    assert!(msgs.iter().all(|(_, m)| *m == ToL1Msg::Inv));
    let (next, msgs) = dir_step(next, 0, ToDirMsg::InvAck).unwrap();
    assert!(msgs.is_empty());
    let (next, msgs) = dir_step(next, 2, ToDirMsg::InvAck).unwrap();
    assert_eq!(next.mode, DirStable::Exclusive);
    assert_eq!(next.sharers.sole(), Some(1));
    assert_eq!(
        msgs,
        vec![(
            1,
            ToL1Msg::GrantM {
                value: Value(2),
                clean: false
            }
        )]
    );
}

#[test]
fn exclusive_owner_is_downgraded_for_update_request() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(1);
    let (next, msgs) = dir_step(dir, 0, ToDirMsg::GetN(U0)).unwrap();
    assert_eq!(msgs, vec![(1, ToL1Msg::Downgrade(U0))]);
    // Owner replies with its data value 3 and keeps update-only permission.
    let (next, msgs) = dir_step(next, 1, ToDirMsg::DowngradeAck(U0, Value(3))).unwrap();
    assert_eq!(next.value, Value(3));
    assert_eq!(next.mode, DirStable::NonExclusive(U0));
    assert_eq!(next.sharers.count(), 2);
    assert_eq!(msgs, vec![(0, ToL1Msg::GrantN(U0, Value::ZERO))]);
}

#[test]
fn owner_that_relinquished_lets_the_grant_use_directory_data() {
    // The "owner" never actually received its exclusive grant (it answered
    // the invalidation with a plain ack); the directory's value is current.
    let mut dir = DirLine::new(Value(2));
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(0);
    let (busy, msgs) = dir_step(dir, 1, ToDirMsg::GetN(RO)).unwrap();
    assert_eq!(msgs, vec![(0, ToL1Msg::Downgrade(RO))]);
    let (next, msgs) = dir_step(busy, 0, ToDirMsg::InvAck).unwrap();
    assert_eq!(next.mode, DirStable::NonExclusive(RO));
    assert_eq!(next.sharers.sole(), Some(1));
    assert_eq!(msgs, vec![(1, ToL1Msg::GrantN(RO, Value(2)))]);
}

#[test]
fn busy_directory_stalls_new_requests() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::NonExclusive(RO);
    dir.sharers = ChildMask(0b11);
    let (busy, _) = dir_step(dir, 2, ToDirMsg::GetM).unwrap();
    assert!(dir_step(busy, 3, ToDirMsg::GetN(RO)).is_none());
    assert!(dir_step(busy, 3, ToDirMsg::GetM).is_none());
    // Also while waiting for a grant ack.
    let (granting, _) = dir_step(DirLine::new(Value(0)), 0, ToDirMsg::GetM).unwrap();
    assert!(matches!(granting.pending, DirPending::WaitGrantAck { .. }));
    assert!(dir_step(granting, 1, ToDirMsg::GetM).is_none());
}

#[test]
fn evictions_fold_in_payload_and_ack_without_completing_transactions() {
    let mut dir = DirLine::new(Value(1));
    dir.mode = DirStable::NonExclusive(U0);
    dir.sharers = ChildMask(0b11);
    // Core 0 evicts its partial update of 2 (partial reduction, Fig 5c).
    let (next, msgs) = dir_step(dir, 0, ToDirMsg::PutN(U0, Value(2))).unwrap();
    assert_eq!(next.value, Value(3));
    assert_eq!(next.sharers.sole(), Some(1));
    assert_eq!(msgs, vec![(0, ToL1Msg::PutAck)]);

    // Last updater evicts: line becomes uncached.
    let (next, _) = dir_step(next, 1, ToDirMsg::PutN(U0, Value(0))).unwrap();
    assert_eq!(next.mode, DirStable::Uncached);
    assert!(next.sharers.is_empty());
}

#[test]
fn modified_writeback_replaces_value() {
    let mut dir = DirLine::new(Value(1));
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(3);
    let (next, msgs) = dir_step(dir, 3, ToDirMsg::PutM(Value(2))).unwrap();
    assert_eq!(next.value, Value(2));
    assert_eq!(next.mode, DirStable::Uncached);
    assert_eq!(msgs, vec![(3, ToL1Msg::PutAck)]);
}

#[test]
fn owner_eviction_racing_with_downgrade_completes_after_both_messages() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(1);
    let (busy, _) = dir_step(dir, 0, ToDirMsg::GetN(RO)).unwrap();
    // The owner's eviction crosses the downgrade: the PutM delivers the
    // data but the transaction still waits for the owner's answer.
    let (next, msgs) = dir_step(busy, 1, ToDirMsg::PutM(Value(3))).unwrap();
    assert!(matches!(next.pending, DirPending::OwnerDowngrade { .. }));
    assert_eq!(next.value, Value(3));
    assert_eq!(msgs, vec![(1, ToL1Msg::PutAck)]);
    // The owner (now invalid) answers the downgrade with a bare ack; the
    // grant completes from the directory's (current) value.
    let (next, msgs) = dir_step(next, 1, ToDirMsg::InvAck).unwrap();
    assert!(matches!(
        next.pending,
        DirPending::WaitGrantAck { grantee: 0 }
    ));
    assert_eq!(msgs, vec![(0, ToL1Msg::GrantN(RO, Value(3)))]);
}

#[test]
fn owner_eviction_pending_answer_completes_on_the_put() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(1);
    let (busy, _) = dir_step(dir, 0, ToDirMsg::GetN(RO)).unwrap();
    // The owner (in WB) answers "my data is in my eviction" first...
    let (next, msgs) = dir_step(busy, 1, ToDirMsg::EvictionPending).unwrap();
    assert!(msgs.is_empty());
    assert!(matches!(
        next.pending,
        DirPending::OwnerDowngrade {
            awaiting_put: true,
            ..
        }
    ));
    // ...and its PutM then both delivers the data and completes the grant.
    let (next, msgs) = dir_step(next, 1, ToDirMsg::PutM(Value(2))).unwrap();
    assert!(matches!(
        next.pending,
        DirPending::WaitGrantAck { grantee: 0 }
    ));
    assert_eq!(next.value, Value(2));
    assert!(msgs.contains(&(1, ToL1Msg::PutAck)));
    assert!(msgs.contains(&(0, ToL1Msg::GrantN(RO, Value(2)))));
}

#[test]
fn eviction_during_collection_defers_completion_to_the_put() {
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::NonExclusive(U0);
    dir.sharers = ChildMask(0b11);
    let (busy, _) = dir_step(dir, 2, ToDirMsg::GetN(RO)).unwrap();
    // Core 0 is evicting: it answers the Reduce with "payload in my PutN".
    let (next, msgs) = dir_step(busy, 0, ToDirMsg::EvictionPending).unwrap();
    assert!(msgs.is_empty());
    // Core 1 answers normally; the collection still waits for core 0's PutN.
    let (next, msgs) = dir_step(next, 1, ToDirMsg::ReduceAck(OP0, Value(1))).unwrap();
    assert!(msgs.is_empty());
    assert!(matches!(
        next.pending,
        DirPending::CollectForGrantN { pending_puts, .. } if pending_puts.sole() == Some(0)
    ));
    // The PutN arrives with the partial: now the grant completes and the
    // reader observes both partial updates.
    let (next, msgs) = dir_step(next, 0, ToDirMsg::PutN(U0, Value(1))).unwrap();
    assert_eq!(next.value, Value(2));
    assert!(msgs.contains(&(0, ToL1Msg::PutAck)));
    assert!(msgs.contains(&(2, ToL1Msg::GrantN(RO, Value(2)))));
}

#[test]
fn deferred_partials_survive_an_owner_downgrade_race() {
    // The owner is asked to downgrade to update-only; before its answer
    // arrives, it has already accumulated a partial and evicted it. The
    // partial must not be overwritten by the (older) data in the answer.
    let mut dir = DirLine::new(Value(0));
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(0);
    let (busy, _) = dir_step(dir, 1, ToDirMsg::GetN(U0)).unwrap();
    // The owner's post-downgrade partial (+1) arrives first, as a PutN.
    let (next, _) = dir_step(busy, 0, ToDirMsg::PutN(U0, Value(1))).unwrap();
    assert_eq!(next.deferred, Value(1));
    assert_eq!(next.value, Value(0));
    // The downgrade answer (data value 0 at downgrade time) arrives last.
    let (next, msgs) = dir_step(next, 0, ToDirMsg::DowngradeAck(U0, Value(0))).unwrap();
    assert_eq!(
        next.value,
        Value(1),
        "the deferred partial must be preserved"
    );
    assert_eq!(next.deferred, Value::ZERO);
    assert_eq!(msgs, vec![(1, ToL1Msg::GrantN(U0, Value::ZERO))]);
}

#[test]
fn grant_ack_from_anyone_else_stalls() {
    let (granting, _) = dir_step(DirLine::new(Value(0)), 0, ToDirMsg::GetM).unwrap();
    assert!(dir_step(granting, 1, ToDirMsg::GrantAck).is_none());
    assert!(ack_grant(granting, 0).pending.is_idle());
}
