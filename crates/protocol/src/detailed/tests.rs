//! Unit tests of the message-level L1 controller.

use super::*;

const K: ProtocolKind = ProtocolKind::Meusi;
const OP0: OpId = OpId(0);
const OP1: OpId = OpId(1);

fn n(class: Class, v: u8) -> L1Line {
    L1Line {
        state: L1State::N(class),
        value: Value(v),
    }
}

#[test]
fn value_arithmetic_wraps() {
    assert_eq!(Value(3).bump(), Value::ZERO);
    assert_eq!(Value(1).plus(Value(2)), Value(3));
    assert_eq!(Value(2).plus(Value(3)), Value(1));
}

#[test]
fn load_miss_issues_get_n_read_only() {
    let (next, msgs) = l1_core_request(K, L1Line::invalid(), CoreOp::Load).unwrap();
    assert_eq!(next.state, L1State::IN(Class::ReadOnly));
    assert_eq!(msgs, vec![ToDirMsg::GetN(Class::ReadOnly)]);
}

#[test]
fn update_miss_issues_get_n_update() {
    let (next, msgs) = l1_core_request(K, L1Line::invalid(), CoreOp::Update(OP0)).unwrap();
    assert_eq!(next.state, L1State::IN(Class::Update(OP0)));
    assert_eq!(msgs, vec![ToDirMsg::GetN(Class::Update(OP0))]);
}

#[test]
fn update_miss_under_mesi_issues_get_m() {
    let (next, msgs) =
        l1_core_request(ProtocolKind::Mesi, L1Line::invalid(), CoreOp::Update(OP0)).unwrap();
    assert_eq!(next.state, L1State::IM);
    assert_eq!(msgs, vec![ToDirMsg::GetM]);
}

#[test]
fn update_hits_accumulate_in_u_and_m() {
    let line = n(Class::Update(OP0), 1);
    let (next, msgs) = l1_core_request(K, line, CoreOp::Update(OP0)).unwrap();
    assert!(msgs.is_empty());
    assert_eq!(next.value, Value(2));
    assert_eq!(next.state, line.state);

    let m = L1Line {
        state: L1State::M,
        value: Value(2),
    };
    let (next, msgs) = l1_core_request(K, m, CoreOp::Update(OP1)).unwrap();
    assert!(msgs.is_empty());
    assert_eq!(next.state, L1State::M);
    assert_eq!(next.value, Value(3));
}

#[test]
fn exclusive_upgrades_silently() {
    let e = L1Line {
        state: L1State::E,
        value: Value(2),
    };
    let (next, msgs) = l1_core_request(K, e, CoreOp::Store).unwrap();
    assert!(msgs.is_empty());
    assert_eq!(next.state, L1State::M);
    let (next, msgs) = l1_core_request(K, e, CoreOp::Update(OP0)).unwrap();
    assert!(msgs.is_empty());
    assert_eq!(next.state, L1State::M);
    assert_eq!(next.value, Value(3));
}

#[test]
fn type_switch_goes_through_nn_and_keeps_the_old_copy() {
    // read-only -> update
    let (next, msgs) = l1_core_request(K, n(Class::ReadOnly, 2), CoreOp::Update(OP1)).unwrap();
    assert_eq!(
        next.state,
        L1State::NN {
            held: Class::ReadOnly,
            want: Class::Update(OP1)
        }
    );
    assert_eq!(next.value, Value(2));
    assert_eq!(msgs, vec![ToDirMsg::GetN(Class::Update(OP1))]);
    // update -> read-only keeps the partial update until collected
    let (next, msgs) = l1_core_request(K, n(Class::Update(OP0), 3), CoreOp::Load).unwrap();
    assert_eq!(
        next.state,
        L1State::NN {
            held: Class::Update(OP0),
            want: Class::ReadOnly
        }
    );
    assert_eq!(next.value, Value(3));
    assert_eq!(msgs, vec![ToDirMsg::GetN(Class::ReadOnly)]);
    // update -> different update
    let (next, _) = l1_core_request(K, n(Class::Update(OP0), 1), CoreOp::Update(OP1)).unwrap();
    assert_eq!(
        next.state,
        L1State::NN {
            held: Class::Update(OP0),
            want: Class::Update(OP1)
        }
    );
}

#[test]
fn core_stalls_in_transient_states() {
    for state in [
        L1State::IN(Class::ReadOnly),
        L1State::IM,
        L1State::NN {
            held: Class::ReadOnly,
            want: Class::Update(OP0),
        },
        L1State::WB,
        L1State::NI(Class::ReadOnly),
    ] {
        let line = L1Line {
            state,
            value: Value::ZERO,
        };
        assert!(
            l1_core_request(K, line, CoreOp::Load).is_none(),
            "{state} should stall"
        );
    }
}

#[test]
fn grants_complete_requests_and_are_acknowledged() {
    let pending = L1Line {
        state: L1State::IN(Class::ReadOnly),
        value: Value::ZERO,
    };
    let (next, msgs) = l1_from_dir(pending, ToL1Msg::GrantN(Class::ReadOnly, Value(2))).unwrap();
    assert_eq!(msgs, vec![ToDirMsg::GrantAck]);
    assert_eq!(next, n(Class::ReadOnly, 2));

    let pending = L1Line {
        state: L1State::IN(Class::Update(OP0)),
        value: Value::ZERO,
    };
    let (next, msgs) = l1_from_dir(pending, ToL1Msg::GrantN(Class::Update(OP0), Value(3))).unwrap();
    // Update grants initialise to the identity regardless of the payload.
    assert_eq!(next, n(Class::Update(OP0), 0));
    assert_eq!(msgs, vec![ToDirMsg::GrantAck]);

    let pending = L1Line {
        state: L1State::IM,
        value: Value::ZERO,
    };
    let (next, msgs) = l1_from_dir(
        pending,
        ToL1Msg::GrantM {
            value: Value(1),
            clean: false,
        },
    )
    .unwrap();
    assert_eq!(next.state, L1State::M);
    assert_eq!(msgs, vec![ToDirMsg::GrantAck]);
    let (next, _) = l1_from_dir(
        pending,
        ToL1Msg::GrantM {
            value: Value(1),
            clean: true,
        },
    )
    .unwrap();
    assert_eq!(next.state, L1State::E);
}

#[test]
fn exclusive_grants_complete_non_exclusive_requests() {
    let pending = L1Line {
        state: L1State::IN(Class::ReadOnly),
        value: Value::ZERO,
    };
    let (next, msgs) = l1_from_dir(
        pending,
        ToL1Msg::GrantM {
            value: Value(2),
            clean: true,
        },
    )
    .unwrap();
    assert_eq!(msgs, vec![ToDirMsg::GrantAck]);
    assert_eq!(next.state, L1State::E);
    assert_eq!(next.value, Value(2));
    let pending = L1Line {
        state: L1State::IN(Class::Update(OP0)),
        value: Value::ZERO,
    };
    let (next, _) = l1_from_dir(
        pending,
        ToL1Msg::GrantM {
            value: Value(3),
            clean: false,
        },
    )
    .unwrap();
    assert_eq!(next.state, L1State::M);
}

#[test]
fn mismatched_grant_stalls() {
    let pending = L1Line {
        state: L1State::IN(Class::ReadOnly),
        value: Value::ZERO,
    };
    assert!(l1_from_dir(pending, ToL1Msg::GrantN(Class::Update(OP0), Value(0))).is_none());
}

#[test]
fn invalidation_of_updater_returns_partial_update() {
    let line = n(Class::Update(OP0), 3);
    let (next, msgs) = l1_from_dir(line, ToL1Msg::Reduce(OP0)).unwrap();
    assert_eq!(next, L1Line::invalid());
    assert_eq!(msgs, vec![ToDirMsg::ReduceAck(OP0, Value(3))]);
    // Plain Inv works identically on an updater.
    let (next, msgs) = l1_from_dir(line, ToL1Msg::Inv).unwrap();
    assert_eq!(next, L1Line::invalid());
    assert_eq!(msgs, vec![ToDirMsg::ReduceAck(OP0, Value(3))]);
}

#[test]
fn invalidation_of_exclusive_owner_relinquishes_with_data() {
    let m = L1Line {
        state: L1State::M,
        value: Value(2),
    };
    let (next, msgs) = l1_from_dir(m, ToL1Msg::Inv).unwrap();
    assert_eq!(next, L1Line::invalid());
    assert_eq!(msgs, vec![ToDirMsg::OwnerRelinquish(Value(2))]);
}

#[test]
fn downgrade_of_modified_owner_to_update_only() {
    let m = L1Line {
        state: L1State::M,
        value: Value(2),
    };
    let (next, msgs) = l1_from_dir(m, ToL1Msg::Downgrade(Class::Update(OP1))).unwrap();
    assert_eq!(next.state, L1State::N(Class::Update(OP1)));
    assert_eq!(
        next.value,
        Value::ZERO,
        "partial update restarts at identity"
    );
    assert_eq!(
        msgs,
        vec![ToDirMsg::DowngradeAck(Class::Update(OP1), Value(2))]
    );
}

#[test]
fn downgrade_of_modified_owner_to_shared_keeps_value() {
    let m = L1Line {
        state: L1State::M,
        value: Value(2),
    };
    let (next, msgs) = l1_from_dir(m, ToL1Msg::Downgrade(Class::ReadOnly)).unwrap();
    assert_eq!(next, n(Class::ReadOnly, 2));
    assert_eq!(
        msgs,
        vec![ToDirMsg::DowngradeAck(Class::ReadOnly, Value(2))]
    );
}

#[test]
fn evictions_and_acks() {
    let m = L1Line {
        state: L1State::M,
        value: Value(3),
    };
    let (next, msgs) = l1_evict(m).unwrap();
    assert_eq!(next.state, L1State::WB);
    assert_eq!(msgs, vec![ToDirMsg::PutM(Value(3))]);
    let (done, msgs) = l1_from_dir(next, ToL1Msg::PutAck).unwrap();
    assert_eq!(done, L1Line::invalid());
    assert!(msgs.is_empty());

    let u = n(Class::Update(OP0), 2);
    let (next, msgs) = l1_evict(u).unwrap();
    assert_eq!(next.state, L1State::NI(Class::Update(OP0)));
    assert_eq!(msgs, vec![ToDirMsg::PutN(Class::Update(OP0), Value(2))]);
    let (done, _) = l1_from_dir(next, ToL1Msg::PutAck).unwrap();
    assert_eq!(done, L1Line::invalid());

    // Cannot evict invalid or transient lines.
    assert!(l1_evict(L1Line::invalid()).is_none());
    assert!(l1_evict(L1Line {
        state: L1State::IM,
        value: Value::ZERO
    })
    .is_none());
}

#[test]
fn collection_during_type_switch_gives_up_the_old_copy() {
    let nn = L1Line {
        state: L1State::NN {
            held: Class::Update(OP0),
            want: Class::ReadOnly,
        },
        value: Value(3),
    };
    let (next, msgs) = l1_from_dir(nn, ToL1Msg::Reduce(OP0)).unwrap();
    assert_eq!(next.state, L1State::IN(Class::ReadOnly));
    assert_eq!(next.value, Value::ZERO);
    assert_eq!(msgs, vec![ToDirMsg::ReduceAck(OP0, Value(3))]);

    let nn = L1Line {
        state: L1State::NN {
            held: Class::ReadOnly,
            want: Class::Update(OP1),
        },
        value: Value(1),
    };
    let (next, msgs) = l1_from_dir(nn, ToL1Msg::Inv).unwrap();
    assert_eq!(next.state, L1State::IN(Class::Update(OP1)));
    assert_eq!(msgs, vec![ToDirMsg::InvAck]);
}

#[test]
fn invalidations_of_given_up_copies_are_acknowledged_without_payload() {
    // The copy was given up through a completed eviction: the directory's
    // value is already current, so a bare acknowledgement suffices.
    for state in [L1State::I, L1State::IN(Class::ReadOnly), L1State::IM] {
        let line = L1Line {
            state,
            value: Value(2),
        };
        for msg in [
            ToL1Msg::Inv,
            ToL1Msg::Downgrade(Class::ReadOnly),
            ToL1Msg::Reduce(OP0),
        ] {
            let (next, msgs) = l1_from_dir(line, msg).unwrap();
            assert_eq!(next.state, state, "state must not change for {msg:?}");
            assert_eq!(msgs, vec![ToDirMsg::InvAck]);
        }
    }
    // A clean non-exclusive eviction in progress also has nothing to add.
    let ni = L1Line {
        state: L1State::NI(Class::ReadOnly),
        value: Value::ZERO,
    };
    let (_, msgs) = l1_from_dir(ni, ToL1Msg::Inv).unwrap();
    assert_eq!(msgs, vec![ToDirMsg::InvAck]);
}

#[test]
fn invalidations_during_payload_evictions_defer_to_the_put() {
    // The payload (dirty data or a partial update) travels in the Put*
    // already in flight; the answer tells the directory to wait for it.
    for state in [L1State::WB, L1State::NI(Class::Update(OP0))] {
        let line = L1Line {
            state,
            value: Value(2),
        };
        for msg in [
            ToL1Msg::Inv,
            ToL1Msg::Downgrade(Class::ReadOnly),
            ToL1Msg::Reduce(OP0),
        ] {
            let (next, msgs) = l1_from_dir(line, msg).unwrap();
            assert_eq!(next.state, state, "state must not change for {msg:?}");
            assert_eq!(msgs, vec![ToDirMsg::EvictionPending]);
        }
    }
    // The eviction then completes normally.
    let wb = L1Line {
        state: L1State::WB,
        value: Value(2),
    };
    let (done, msgs) = l1_from_dir(wb, ToL1Msg::PutAck).unwrap();
    assert_eq!(done, L1Line::invalid());
    assert!(msgs.is_empty());
}

#[test]
fn state_classification() {
    assert!(L1State::I.is_stable());
    assert!(L1State::N(Class::ReadOnly).is_stable());
    assert!(!L1State::IM.is_stable());
    assert!(!L1State::NN {
        held: Class::ReadOnly,
        want: Class::ReadOnly
    }
    .is_stable());
    assert!(L1State::M.readable());
    assert!(!L1State::N(Class::Update(OP0)).readable());
}

#[test]
fn display_impls() {
    assert_eq!(
        L1State::NN {
            held: Class::ReadOnly,
            want: Class::Update(OP1)
        }
        .to_string(),
        "NN[RO->U1]"
    );
    assert_eq!(Class::ReadOnly.to_string(), "RO");
    assert_eq!(L1State::NI(Class::ReadOnly).to_string(), "NI[RO]");
}
