//! Message-level protocol controllers with transient states (Fig. 7): L1 side.
//!
//! The stable-state engine in [`crate::stable`] is enough for performance
//! simulation, where coherence transactions are serialised per line. Verifying
//! that COUP "requires a minimal number of transient states and adds modest
//! verification costs" (§3.4) needs the real thing: controllers that exchange
//! messages over unordered networks and go through transient states while a
//! transaction is in flight.
//!
//! This module defines the L1 controller as *pure transition functions* over
//! small value types; [`crate::detailed_dir`] defines the directory side. The
//! exhaustive model checker in the `coup-verify` crate enumerates the
//! reachable global states of a system built from them, in the style of the
//! paper's Murphi models: each cache holds a single line, data is abstracted
//! to a tiny value domain, and self-eviction rules model limited capacity.
//!
//! Two design rules keep the protocol verifiable (both were arrived at by
//! letting the model checker find the races they prevent):
//!
//! 1. **Grants are acknowledged.** The directory does not consider a
//!    transaction complete until the requester acknowledges its grant, so an
//!    invalidation can never race with a grant that is still in flight.
//! 2. **Every invalidation-class message (Inv / Downgrade / Reduce) is
//!    answered exactly once**, from whatever state the cache is in when it
//!    consumes it. Evictions never answer on behalf of those messages: the
//!    `Put*` carries the payload, the later answer carries only an
//!    acknowledgement, so the directory never receives two responses for one
//!    request.
//!
//! To let verification scale in the number of commutative-update types (the
//! x-axis of Fig. 8), operations are abstract [`OpId`]s rather than the
//! concrete [`crate::ops::CommutativeOp`] enum: all behave like a bounded
//! counter increment, but operations of different types must never be mixed
//! without a reduction, which is exactly the property the type-switch
//! machinery has to get right.

use std::fmt;

use crate::state::ProtocolKind;

/// Identifier of an abstract commutative-update operation type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u8);

/// Operation class of a non-exclusive request or line: read-only, or one of
/// the abstract commutative-update types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Read-only (the S side of the generalized N state).
    ReadOnly,
    /// Update-only for the given abstract operation type.
    Update(OpId),
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::ReadOnly => write!(f, "RO"),
            Class::Update(OpId(k)) => write!(f, "U{k}"),
        }
    }
}

/// Modulus of the abstract value domain. Values and partial updates are
/// tracked modulo this constant so the reachable state space stays finite
/// while still detecting lost or duplicated updates.
pub const VALUE_MOD: u8 = 4;

/// An abstract data value (or partial update) in `0..VALUE_MOD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u8);

impl Value {
    /// The zero value (also the identity of the abstract update operation).
    pub const ZERO: Value = Value(0);

    /// Adds another value modulo [`VALUE_MOD`].
    #[must_use]
    pub fn plus(self, other: Value) -> Value {
        Value((self.0 + other.0) % VALUE_MOD)
    }

    /// Applies one abstract commutative update (increment by one).
    #[must_use]
    pub fn bump(self) -> Value {
        self.plus(Value(1))
    }
}

/// Access requested by a core of its L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreOp {
    /// Load the current value.
    Load,
    /// Store a new (abstract) value.
    Store,
    /// Commutative update of the given type (abstractly: increment).
    Update(OpId),
}

/// Stable and transient states of an L1 controller.
///
/// The MESI subset (no `N`/`NN`/update classes) matches Fig. 7a; the full set
/// matches Fig. 7b, where the non-exclusive state N generalizes S and U and a
/// single new transient state NN covers operation-type switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum L1State {
    /// Invalid.
    I,
    /// Non-exclusive under a class (S when `Class::ReadOnly`, U otherwise).
    N(Class),
    /// Exclusive clean.
    E,
    /// Modified.
    M,
    /// I → N: requested a non-exclusive grant, waiting for the response.
    IN(Class),
    /// I → M: requested an exclusive grant, waiting for the response.
    IM,
    /// N → M: upgrade from non-exclusive to exclusive, waiting for the response.
    NM,
    /// N → N': holding a copy under the old class while waiting for a
    /// type-switch grant (the extra MEUSI transient state).
    NN {
        /// The class we currently hold (and must give up when collected).
        held: Class,
        /// The class we asked for.
        want: Class,
    },
    /// Waiting for the acknowledgement of a writeback (PutM / PutE).
    WB,
    /// Waiting for the acknowledgement of a non-exclusive eviction (PutN).
    NI(Class),
}

impl L1State {
    /// Whether this is a stable state.
    #[must_use]
    pub fn is_stable(self) -> bool {
        matches!(self, L1State::I | L1State::N(_) | L1State::E | L1State::M)
    }

    /// Whether the state holds a valid data value readable by the core.
    #[must_use]
    pub fn readable(self) -> bool {
        matches!(self, L1State::N(Class::ReadOnly) | L1State::E | L1State::M)
    }
}

impl fmt::Display for L1State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            L1State::I => write!(f, "I"),
            L1State::N(c) => write!(f, "N[{c}]"),
            L1State::E => write!(f, "E"),
            L1State::M => write!(f, "M"),
            L1State::IN(c) => write!(f, "IN[{c}]"),
            L1State::IM => write!(f, "IM"),
            L1State::NM => write!(f, "NM"),
            L1State::NN { held, want } => write!(f, "NN[{held}->{want}]"),
            L1State::WB => write!(f, "WB"),
            L1State::NI(c) => write!(f, "NI[{c}]"),
        }
    }
}

/// Messages an L1 sends to the directory (requests and responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToDirMsg {
    /// Request a non-exclusive grant of the given class.
    GetN(Class),
    /// Request an exclusive (writable) grant.
    GetM,
    /// Acknowledge receipt of a grant, completing the transaction.
    GrantAck,
    /// Evict a dirty exclusive line, carrying the data value.
    PutM(Value),
    /// Evict a clean exclusive line.
    PutE,
    /// Evict a non-exclusive line; update classes carry the partial update.
    PutN(Class, Value),
    /// Acknowledge an invalidation without returning any payload (the copy was
    /// read-only or has already been given up).
    InvAck,
    /// Acknowledge an invalidation whose payload (dirty data or a partial
    /// update) is travelling in this cache's already-issued `Put*` message:
    /// the transaction must also wait for that eviction before completing.
    EvictionPending,
    /// Reply to a reduction request: the partial update buffered locally.
    ReduceAck(OpId, Value),
    /// Reply to a downgrade of an exclusive line: the current data value; the
    /// copy is retained in the given class.
    DowngradeAck(Class, Value),
    /// Reply from an exclusive owner that is giving the line up entirely:
    /// carries the current data value, no copy is retained.
    OwnerRelinquish(Value),
}

/// Messages the directory sends to an L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToL1Msg {
    /// Grant of a non-exclusive copy. Read-only grants carry the data value;
    /// update grants carry no data (the L1 initialises to the identity).
    GrantN(Class, Value),
    /// Grant of an exclusive copy, carrying the data value. `clean` selects E
    /// over M (MESI/MEUSI optimisation for unshared lines).
    GrantM {
        /// Current data value at the shared level.
        value: Value,
        /// Grant E (clean) instead of M.
        clean: bool,
    },
    /// Invalidate the copy (expects an acknowledgement).
    Inv,
    /// Collect the partial update (expects `ReduceAck`); the copy is dropped.
    Reduce(OpId),
    /// Downgrade an exclusive copy to the given class (expects `DowngradeAck`).
    Downgrade(Class),
    /// Acknowledge an eviction (PutM/PutE/PutN).
    PutAck,
}

/// Per-L1 controller data: coherence state plus the abstract value or partial
/// update it buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct L1Line {
    /// Coherence (possibly transient) state.
    pub state: L1State,
    /// Data value (in readable states) or partial update (in update states).
    pub value: Value,
}

impl L1Line {
    /// An invalid line.
    #[must_use]
    pub const fn invalid() -> Self {
        L1Line {
            state: L1State::I,
            value: Value::ZERO,
        }
    }
}

impl Default for L1Line {
    fn default() -> Self {
        Self::invalid()
    }
}

/// The result of feeding an event to a controller: the next local line state
/// and any messages to send. `None` means the event cannot be consumed in the
/// current state and must stall (stay in the network / retry later).
pub type StepResult = Option<(L1Line, Vec<ToDirMsg>)>;

/// L1 reaction to a request from its own core.
///
/// Core requests are only accepted in stable states; in transient states the
/// core blocks (models the MSHR waiting for the outstanding transaction).
/// Returns `None` when the request must stall.
#[must_use]
pub fn l1_core_request(kind: ProtocolKind, line: L1Line, op: CoreOp) -> StepResult {
    let coup = kind.supports_update_only();
    // Baseline protocols treat commutative updates as stores.
    let op = match op {
        CoreOp::Update(_) if !coup => CoreOp::Store,
        other => other,
    };
    match (line.state, op) {
        // ---- Hits ----
        (L1State::M, CoreOp::Load | CoreOp::Store) => Some((line, vec![])),
        (L1State::M, CoreOp::Update(_)) => Some((
            L1Line {
                state: L1State::M,
                value: line.value.bump(),
            },
            vec![],
        )),
        (L1State::E, CoreOp::Load) => Some((line, vec![])),
        (L1State::E, CoreOp::Store) => Some((
            L1Line {
                state: L1State::M,
                ..line
            },
            vec![],
        )),
        (L1State::E, CoreOp::Update(_)) => Some((
            L1Line {
                state: L1State::M,
                value: line.value.bump(),
            },
            vec![],
        )),
        (L1State::N(Class::ReadOnly), CoreOp::Load) => Some((line, vec![])),
        (L1State::N(Class::Update(held)), CoreOp::Update(req)) if held == req => Some((
            L1Line {
                state: line.state,
                value: line.value.bump(),
            },
            vec![],
        )),

        // ---- Misses from I ----
        (L1State::I, CoreOp::Load) => Some((
            L1Line {
                state: L1State::IN(Class::ReadOnly),
                value: Value::ZERO,
            },
            vec![ToDirMsg::GetN(Class::ReadOnly)],
        )),
        (L1State::I, CoreOp::Store) => Some((
            L1Line {
                state: L1State::IM,
                value: Value::ZERO,
            },
            vec![ToDirMsg::GetM],
        )),
        (L1State::I, CoreOp::Update(op)) => Some((
            L1Line {
                state: L1State::IN(Class::Update(op)),
                value: Value::ZERO,
            },
            vec![ToDirMsg::GetN(Class::Update(op))],
        )),

        // ---- Type switches and upgrades from a non-exclusive state ----
        (L1State::N(_), CoreOp::Store) => {
            // Upgrades to M from a non-exclusive copy are modelled as
            // evict-then-request (the common simplification); the store stalls
            // until the eviction rule fires.
            None
        }
        (L1State::N(held), CoreOp::Update(op)) => {
            // read-only -> update, or update -> different update: keep the old
            // copy (and its partial) until the directory collects it.
            debug_assert!(held != Class::Update(op));
            Some((
                L1Line {
                    state: L1State::NN {
                        held,
                        want: Class::Update(op),
                    },
                    value: line.value,
                },
                vec![ToDirMsg::GetN(Class::Update(op))],
            ))
        }
        (L1State::N(held @ Class::Update(_)), CoreOp::Load) => Some((
            L1Line {
                state: L1State::NN {
                    held,
                    want: Class::ReadOnly,
                },
                value: line.value,
            },
            vec![ToDirMsg::GetN(Class::ReadOnly)],
        )),

        // ---- Transient states: the core stalls ----
        _ => None,
    }
}

/// L1 reaction to a self-initiated eviction (capacity pressure).
///
/// Only stable, valid states can start an eviction; returns `None` otherwise.
#[must_use]
pub fn l1_evict(line: L1Line) -> StepResult {
    match line.state {
        L1State::M => Some((
            L1Line {
                state: L1State::WB,
                value: line.value,
            },
            vec![ToDirMsg::PutM(line.value)],
        )),
        L1State::E => Some((
            L1Line {
                state: L1State::WB,
                value: line.value,
            },
            vec![ToDirMsg::PutE],
        )),
        L1State::N(class) => Some((
            L1Line {
                state: L1State::NI(class),
                value: line.value,
            },
            vec![ToDirMsg::PutN(class, line.value)],
        )),
        _ => None,
    }
}

/// L1 reaction to a message from the directory.
///
/// Returns `None` if the message cannot be consumed yet (it stalls in the
/// network).
#[must_use]
pub fn l1_from_dir(line: L1Line, msg: ToL1Msg) -> StepResult {
    match (line.state, msg) {
        // ---- Grant completions (always acknowledged) ----
        (L1State::IN(want), ToL1Msg::GrantN(class, value)) => {
            if want != class {
                return None;
            }
            let value = match class {
                Class::ReadOnly => value,
                Class::Update(_) => Value::ZERO,
            };
            Some((
                L1Line {
                    state: L1State::N(class),
                    value,
                },
                vec![ToDirMsg::GrantAck],
            ))
        }
        (L1State::NN { want, .. }, ToL1Msg::GrantN(class, value)) => {
            if want != class {
                return None;
            }
            let value = match class {
                Class::ReadOnly => value,
                Class::Update(_) => Value::ZERO,
            };
            Some((
                L1Line {
                    state: L1State::N(class),
                    value,
                },
                vec![ToDirMsg::GrantAck],
            ))
        }
        (
            L1State::IN(_) | L1State::NN { .. } | L1State::IM | L1State::NM,
            ToL1Msg::GrantM { value, clean },
        ) => {
            // Exclusive grants also answer non-exclusive requests (the E/M
            // optimisation for unshared lines).
            let state = if clean { L1State::E } else { L1State::M };
            Some((L1Line { state, value }, vec![ToDirMsg::GrantAck]))
        }

        // ---- Invalidations, downgrades, reductions: answered exactly once ----
        (
            L1State::N(Class::ReadOnly),
            ToL1Msg::Inv | ToL1Msg::Reduce(_) | ToL1Msg::Downgrade(_),
        ) => Some((L1Line::invalid(), vec![ToDirMsg::InvAck])),
        (
            L1State::N(Class::Update(op)),
            ToL1Msg::Inv | ToL1Msg::Reduce(_) | ToL1Msg::Downgrade(_),
        ) => Some((L1Line::invalid(), vec![ToDirMsg::ReduceAck(op, line.value)])),
        (L1State::E | L1State::M, ToL1Msg::Inv | ToL1Msg::Reduce(_)) => Some((
            L1Line::invalid(),
            vec![ToDirMsg::OwnerRelinquish(line.value)],
        )),
        (L1State::M | L1State::E, ToL1Msg::Downgrade(class)) => {
            let next = match class {
                Class::ReadOnly => L1Line {
                    state: L1State::N(class),
                    value: line.value,
                },
                // Keep update-only permission but restart from the identity;
                // the data value travels back to the directory (Fig. 5b).
                Class::Update(_) => L1Line {
                    state: L1State::N(class),
                    value: Value::ZERO,
                },
            };
            Some((next, vec![ToDirMsg::DowngradeAck(class, line.value)]))
        }
        // A collection reached us while we were switching operation types: give
        // up the held copy, keep waiting for the new-class grant.
        (
            L1State::NN {
                held: Class::ReadOnly,
                want,
            },
            ToL1Msg::Inv | ToL1Msg::Reduce(_) | ToL1Msg::Downgrade(_),
        ) => Some((
            L1Line {
                state: L1State::IN(want),
                value: Value::ZERO,
            },
            vec![ToDirMsg::InvAck],
        )),
        (
            L1State::NN {
                held: Class::Update(op),
                want,
            },
            ToL1Msg::Inv | ToL1Msg::Reduce(_) | ToL1Msg::Downgrade(_),
        ) => Some((
            L1Line {
                state: L1State::IN(want),
                value: Value::ZERO,
            },
            vec![ToDirMsg::ReduceAck(op, line.value)],
        )),
        // The message targets a copy we no longer have: we gave it up through a
        // completed eviction (I, or I followed by a new request in IN/IM).
        // Acknowledge with no payload — the directory's copy is already
        // current, because our eviction was fully processed before we could
        // reach the I state.
        (
            L1State::I | L1State::IN(_) | L1State::IM,
            ToL1Msg::Inv | ToL1Msg::Downgrade(_) | ToL1Msg::Reduce(_),
        ) => Some((line, vec![ToDirMsg::InvAck])),
        // The message targets a copy we are in the middle of evicting and whose
        // payload travels in our in-flight Put*: tell the directory to wait for
        // that eviction before completing (answering with the payload here as
        // well would double-deliver it).
        (
            L1State::WB | L1State::NI(Class::Update(_)),
            ToL1Msg::Inv | ToL1Msg::Downgrade(_) | ToL1Msg::Reduce(_),
        ) => Some((line, vec![ToDirMsg::EvictionPending])),
        // A clean non-exclusive copy being evicted carries no payload at all.
        (
            L1State::NI(Class::ReadOnly),
            ToL1Msg::Inv | ToL1Msg::Downgrade(_) | ToL1Msg::Reduce(_),
        ) => Some((line, vec![ToDirMsg::InvAck])),

        // ---- Eviction completions ----
        (L1State::WB, ToL1Msg::PutAck) => Some((L1Line::invalid(), vec![])),
        (L1State::NI(_), ToL1Msg::PutAck) => Some((L1Line::invalid(), vec![])),

        _ => None,
    }
}

#[cfg(test)]
mod tests {
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
        let (next, msgs) =
            l1_from_dir(pending, ToL1Msg::GrantN(Class::ReadOnly, Value(2))).unwrap();
        assert_eq!(msgs, vec![ToDirMsg::GrantAck]);
        assert_eq!(next, n(Class::ReadOnly, 2));

        let pending = L1Line {
            state: L1State::IN(Class::Update(OP0)),
            value: Value::ZERO,
        };
        let (next, msgs) =
            l1_from_dir(pending, ToL1Msg::GrantN(Class::Update(OP0), Value(3))).unwrap();
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
}
