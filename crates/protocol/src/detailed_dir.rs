//! Directory-side controller for the message-level protocol.
//!
//! Together with [`crate::detailed`] (the L1 controller) this forms the
//! verifiable two-level protocol of §3.4: a blocking directory that tracks the
//! sharer set and sharing mode of the single modelled line, serves one
//! transaction at a time, and goes through a small number of transient states
//! while collecting invalidation acknowledgements, partial updates, or the
//! owner's data.
//!
//! The directory follows the two verifiability rules described in
//! [`crate::detailed`]: a transaction completes only when the requester
//! acknowledges its grant, and every invalidation-class message it sends is
//! answered exactly once (eviction messages carry payload but never stand in
//! for those answers).
//!
//! A three-level system is modelled the way the paper models it for Murphi: a
//! single L2 and a single L3, with "traffic from other L2s" injected through
//! an external agent (see `coup-verify`).

use std::fmt;

use crate::detailed::{Class, ToDirMsg, ToL1Msg, Value};

/// Maximum number of L1 children the detailed directory model supports.
///
/// Exhaustive verification is only tractable for a handful of cores (the paper
/// reaches 3–9 depending on configuration), so a small fixed bound keeps the
/// state hashable and cheap to copy.
pub const MAX_MODEL_CORES: usize = 10;

/// A set of children, as a bitmask over `MAX_MODEL_CORES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ChildMask(pub u16);

impl ChildMask {
    /// The empty mask.
    pub const EMPTY: ChildMask = ChildMask(0);

    /// A mask with a single child.
    ///
    /// # Panics
    ///
    /// Panics if `child >= MAX_MODEL_CORES`.
    #[must_use]
    pub fn single(child: usize) -> Self {
        assert!(child < MAX_MODEL_CORES);
        ChildMask(1 << child)
    }

    /// Inserts a child.
    ///
    /// # Panics
    ///
    /// Panics if `child >= MAX_MODEL_CORES`.
    pub fn insert(&mut self, child: usize) {
        assert!(child < MAX_MODEL_CORES);
        self.0 |= 1 << child;
    }

    /// Removes a child.
    pub fn remove(&mut self, child: usize) {
        self.0 &= !(1 << child);
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, child: usize) -> bool {
        child < MAX_MODEL_CORES && self.0 & (1 << child) != 0
    }

    /// Number of members.
    #[must_use]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the mask is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..MAX_MODEL_CORES).filter(move |&c| self.contains(c))
    }

    /// The sole member, if there is exactly one.
    #[must_use]
    pub fn sole(self) -> Option<usize> {
        if self.count() == 1 {
            Some(self.0.trailing_zeros() as usize)
        } else {
            None
        }
    }
}

impl fmt::Display for ChildMask {
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

/// Stable sharing mode tracked by the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DirStable {
    /// No child holds the line.
    Uncached,
    /// One child holds the line in E or M.
    Exclusive,
    /// One or more children hold the line non-exclusively under a class.
    NonExclusive(Class),
}

/// What the directory is currently waiting for (its transient states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DirPending {
    /// No transaction in flight.
    Idle,
    /// Waiting for invalidation acks / partial updates from `waiting` children
    /// (and for the evictions of children in `pending_puts`) before granting
    /// `class` non-exclusively to `requester`.
    CollectForGrantN {
        /// Child that will receive the grant.
        requester: usize,
        /// Class being granted.
        class: Class,
        /// Children whose acks/partial updates are still outstanding.
        waiting: ChildMask,
        /// Children that answered "my payload is in my eviction" and whose
        /// `Put*` has not arrived yet.
        pending_puts: ChildMask,
    },
    /// Waiting for invalidation acks / partial updates before granting
    /// exclusively to `requester`.
    CollectForGrantM {
        /// Child that will receive the grant.
        requester: usize,
        /// Children whose acks/partial updates are still outstanding.
        waiting: ChildMask,
        /// Children that answered "my payload is in my eviction" and whose
        /// `Put*` has not arrived yet.
        pending_puts: ChildMask,
    },
    /// Waiting for the current owner's answer before granting `class`
    /// non-exclusively to `requester`.
    OwnerDowngrade {
        /// Child that will receive the grant.
        requester: usize,
        /// Class being granted.
        class: Class,
        /// Current exclusive owner being downgraded.
        owner: usize,
        /// The owner answered "my data is in my eviction" and that eviction has
        /// not arrived yet.
        awaiting_put: bool,
    },
    /// Waiting for the owner's answer before granting exclusively to `requester`.
    OwnerInvalidate {
        /// Child that will receive the grant.
        requester: usize,
        /// Current exclusive owner being invalidated.
        owner: usize,
        /// The owner answered "my data is in my eviction" and that eviction has
        /// not arrived yet.
        awaiting_put: bool,
    },
    /// A grant has been sent to `grantee`; waiting for its acknowledgement
    /// before accepting new requests.
    WaitGrantAck {
        /// Child the grant was sent to.
        grantee: usize,
    },
}

impl DirPending {
    /// Whether the directory can accept a new request.
    fn is_idle(self) -> bool {
        self == DirPending::Idle
    }
}

/// Full directory controller state for the single modelled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLine {
    /// Stable sharing mode (what the sharer set means).
    pub mode: DirStable,
    /// Children that currently hold (or are being granted) the line.
    pub sharers: ChildMask,
    /// Transaction in flight, if any.
    pub pending: DirPending,
    /// The authoritative memory/shared-cache value. While children hold the
    /// line in an update class, this lags the logical value by the partial
    /// updates still buffered in L1s.
    pub value: Value,
    /// Partial updates received while the directory is waiting for an
    /// exclusive owner's data value. They cannot be folded into `value` yet
    /// (the owner's data will *replace* `value`), so they are buffered here
    /// and folded in when the owner's answer arrives.
    pub deferred: Value,
}

impl DirLine {
    /// Directory state for an uncached line holding `value` at the shared level.
    #[must_use]
    pub fn new(value: Value) -> Self {
        DirLine {
            mode: DirStable::Uncached,
            sharers: ChildMask::EMPTY,
            pending: DirPending::Idle,
            value,
            deferred: Value::ZERO,
        }
    }

    /// Whether the directory is waiting for an exclusive owner's data value
    /// (which will *replace* `value` rather than add to it).
    fn awaiting_owner_data(&self) -> bool {
        matches!(
            self.pending,
            DirPending::OwnerDowngrade { .. } | DirPending::OwnerInvalidate { .. }
        )
    }

    /// Whether `child` is the exclusive owner this line currently tracks or
    /// waits on, i.e. whether a data value it sends is authoritative.
    fn is_believed_owner(&self, child: usize) -> bool {
        match self.pending {
            DirPending::OwnerDowngrade { owner, .. }
            | DirPending::OwnerInvalidate { owner, .. } => owner == child,
            _ => self.mode == DirStable::Exclusive && self.sharers.sole() == Some(child),
        }
    }

    /// Folds any deferred partial updates into the value (called when the
    /// owner-data wait ends).
    fn fold_deferred(&mut self) {
        self.value = self.value.plus(self.deferred);
        self.deferred = Value::ZERO;
    }

    /// Collapses the mode to `Uncached` when no child holds the line. Safe to
    /// apply even while a transaction is pending: the mode is only consulted
    /// when a new request is accepted, which requires the idle state, and every
    /// completion path re-establishes the mode explicitly.
    fn normalized(mut self) -> Self {
        if self.sharers.is_empty() {
            self.mode = DirStable::Uncached;
        }
        self
    }
}

impl Default for DirLine {
    fn default() -> Self {
        Self::new(Value::ZERO)
    }
}

/// A message addressed to one child.
pub type Outbound = (usize, ToL1Msg);

/// Result of one directory step: next state plus messages to send. `None`
/// means the input cannot be consumed now (it stalls, e.g. a request arriving
/// while another transaction is in flight).
pub type DirStepResult = Option<(DirLine, Vec<Outbound>)>;

/// Directory reaction to a request or response message from child `src`.
///
/// The directory is *blocking*: requests are only consumed in the idle state,
/// every other message is a response that advances the in-flight transaction.
/// Eviction notifications (`Put*`) are accepted in any state, because they may
/// race with the invalidations of the current transaction; they deliver their
/// payload and remove the child but never complete a transaction by themselves.
///
/// The directory is the same under MESI and MEUSI: a MESI L1 sends a store's
/// `GetM` for a commutative update, so it never asks for an update class.
#[must_use]
pub fn dir_step(dir: DirLine, src: usize, msg: ToDirMsg) -> DirStepResult {
    match msg {
        ToDirMsg::GetN(class) => dir_get_n(dir, src, class),
        ToDirMsg::GetM => dir_get_m(dir, src),
        ToDirMsg::GrantAck => dir_grant_ack(dir, src),
        ToDirMsg::PutM(v) => dir_put(dir, src, Some(v), true),
        ToDirMsg::PutE => dir_put(dir, src, None, true),
        ToDirMsg::PutN(class, v) => {
            let payload = match class {
                Class::ReadOnly => None,
                Class::Update(_) => Some(v),
            };
            dir_put(dir, src, payload, false)
        }
        ToDirMsg::InvAck => dir_answer(dir, src, Answer::NoPayload),
        ToDirMsg::EvictionPending => dir_answer(dir, src, Answer::PayloadInPut),
        ToDirMsg::ReduceAck(_op, v) => dir_answer(dir, src, Answer::Partial(v)),
        ToDirMsg::OwnerRelinquish(v) => dir_answer(dir, src, Answer::FullValue(v)),
        ToDirMsg::DowngradeAck(class, v) => dir_downgrade_ack(dir, src, class, v),
    }
}

/// The payload carried by an answer to an Inv/Downgrade/Reduce message.
enum Answer {
    /// No payload (read-only copy, or a copy already given up).
    NoPayload,
    /// The payload travels in the answering child's in-flight `Put*`; the
    /// transaction must also wait for that eviction.
    PayloadInPut,
    /// A partial update to fold into the value.
    Partial(Value),
    /// The full, authoritative data value (from an exclusive owner).
    FullValue(Value),
}

fn grant_n(mut dir: DirLine, requester: usize, class: Class) -> (DirLine, Vec<Outbound>) {
    dir.mode = DirStable::NonExclusive(class);
    dir.sharers.insert(requester);
    dir.pending = DirPending::WaitGrantAck { grantee: requester };
    let payload = match class {
        Class::ReadOnly => dir.value,
        Class::Update(_) => Value::ZERO,
    };
    (dir, vec![(requester, ToL1Msg::GrantN(class, payload))])
}

fn grant_m(mut dir: DirLine, requester: usize, clean: bool) -> (DirLine, Vec<Outbound>) {
    dir.mode = DirStable::Exclusive;
    dir.sharers = ChildMask::single(requester);
    dir.pending = DirPending::WaitGrantAck { grantee: requester };
    (
        dir,
        vec![(
            requester,
            ToL1Msg::GrantM {
                value: dir.value,
                clean,
            },
        )],
    )
}

fn dir_get_n(dir: DirLine, src: usize, class: Class) -> DirStepResult {
    if !dir.pending.is_idle() {
        return None;
    }
    match dir.mode {
        // MESI/MEUSI optimisation: grant E (reads) or M (updates) directly
        // when no one else holds the line.
        DirStable::Uncached => Some(grant_m(dir, src, class == Class::ReadOnly)),
        DirStable::NonExclusive(current) if current == class => {
            // Same-class join (or a redundant request from a child the
            // directory already tracks): grant without any collection.
            Some(grant_n(dir, src, class))
        }
        DirStable::NonExclusive(current) => {
            // Type switch (or a re-request from a current sharer): collect
            // every copy (invalidation for read-only, reduction for update
            // classes), then grant under the new class.
            let collect = match current {
                Class::ReadOnly => ToL1Msg::Inv,
                Class::Update(op) => ToL1Msg::Reduce(op),
            };
            let waiting = dir.sharers;
            let msgs: Vec<Outbound> = waiting.iter().map(|child| (child, collect)).collect();
            let mut next = dir;
            if waiting.is_empty() {
                return Some(grant_n(next, src, class));
            }
            // Sharers keep their entries until their answer (or eviction)
            // arrives; the grant at completion re-establishes mode and sharers.
            next.pending = DirPending::CollectForGrantN {
                requester: src,
                class,
                waiting,
                pending_puts: ChildMask::EMPTY,
            };
            Some((next, msgs))
        }
        DirStable::Exclusive => {
            let owner = dir.sharers.sole().expect("exclusive line has one owner");
            if owner == src {
                // Stale request from the owner (e.g. raced with its own
                // writeback): re-grant exclusively.
                return Some(grant_m(dir, src, false));
            }
            let mut next = dir;
            next.pending = DirPending::OwnerDowngrade {
                requester: src,
                class,
                owner,
                awaiting_put: false,
            };
            Some((next, vec![(owner, ToL1Msg::Downgrade(class))]))
        }
    }
}

fn dir_get_m(dir: DirLine, src: usize) -> DirStepResult {
    if !dir.pending.is_idle() {
        return None;
    }
    match dir.mode {
        DirStable::Uncached => Some(grant_m(dir, src, false)),
        DirStable::NonExclusive(class) => {
            let collect = match class {
                Class::ReadOnly => ToL1Msg::Inv,
                Class::Update(op) => ToL1Msg::Reduce(op),
            };
            let waiting = dir.sharers;
            let msgs: Vec<Outbound> = waiting.iter().map(|child| (child, collect)).collect();
            let mut next = dir;
            if waiting.is_empty() {
                return Some(grant_m(next, src, false));
            }
            // Sharers keep their entries until their answer (or eviction)
            // arrives; the grant at completion re-establishes mode and sharers.
            next.pending = DirPending::CollectForGrantM {
                requester: src,
                waiting,
                pending_puts: ChildMask::EMPTY,
            };
            Some((next, msgs))
        }
        DirStable::Exclusive => {
            let owner = dir.sharers.sole().expect("exclusive line has one owner");
            if owner == src {
                return Some(grant_m(dir, src, false));
            }
            let mut next = dir;
            next.pending = DirPending::OwnerInvalidate {
                requester: src,
                owner,
                awaiting_put: false,
            };
            Some((next, vec![(owner, ToL1Msg::Inv)]))
        }
    }
}

fn dir_grant_ack(dir: DirLine, src: usize) -> DirStepResult {
    match dir.pending {
        DirPending::WaitGrantAck { grantee } if grantee == src => {
            let mut next = dir;
            next.pending = DirPending::Idle;
            Some((next.normalized(), vec![]))
        }
        // A grant ack can only be produced by the grantee of the transaction
        // the directory is waiting on; anything else indicates a modelling bug.
        _ => None,
    }
}

fn dir_put(dir: DirLine, src: usize, payload: Option<Value>, exclusive: bool) -> DirStepResult {
    // Evictions deliver their payload and remove the child from the sharer
    // set. If the child has already told a pending transaction that its
    // payload travels in this eviction (`EvictionPending`), the eviction also
    // clears that wait; it never stands in for an answer that has not been
    // sent, so every invalidation-class message is still answered exactly once.
    let mut next = dir;
    if let Some(v) = payload {
        if exclusive {
            // Dirty data is only authoritative while the directory still
            // believes the sender is the exclusive owner; otherwise some later
            // transaction has already obtained the data and this copy is stale.
            if dir.is_believed_owner(src) {
                next.value = v;
            }
        } else if dir.awaiting_owner_data() {
            // Partial updates must not be folded into a value that is about to
            // be replaced by the owner's data; defer them.
            next.deferred = next.deferred.plus(v);
        } else {
            next.value = next.value.plus(v);
        }
    }
    next.sharers.remove(src);
    let ack = vec![(src, ToL1Msg::PutAck)];

    match next.pending {
        DirPending::OwnerDowngrade {
            requester,
            class,
            owner,
            awaiting_put,
        } if owner == src && awaiting_put => {
            next.pending = DirPending::Idle;
            next.fold_deferred();
            let (granted, mut msgs) = grant_n(next, requester, class);
            msgs.extend(ack);
            Some((granted, msgs))
        }
        DirPending::OwnerInvalidate {
            requester,
            owner,
            awaiting_put,
        } if owner == src && awaiting_put => {
            next.pending = DirPending::Idle;
            next.fold_deferred();
            let (granted, mut msgs) = grant_m(next, requester, false);
            msgs.extend(ack);
            Some((granted, msgs))
        }
        DirPending::CollectForGrantN {
            requester,
            class,
            waiting,
            mut pending_puts,
        } if pending_puts.contains(src) => {
            pending_puts.remove(src);
            if waiting.is_empty() && pending_puts.is_empty() {
                next.pending = DirPending::Idle;
                let (granted, mut msgs) = grant_n(next, requester, class);
                msgs.extend(ack);
                return Some((granted, msgs));
            }
            next.pending = DirPending::CollectForGrantN {
                requester,
                class,
                waiting,
                pending_puts,
            };
            Some((next, ack))
        }
        DirPending::CollectForGrantM {
            requester,
            waiting,
            mut pending_puts,
        } if pending_puts.contains(src) => {
            pending_puts.remove(src);
            if waiting.is_empty() && pending_puts.is_empty() {
                next.pending = DirPending::Idle;
                let (granted, mut msgs) = grant_m(next, requester, false);
                msgs.extend(ack);
                return Some((granted, msgs));
            }
            next.pending = DirPending::CollectForGrantM {
                requester,
                waiting,
                pending_puts,
            };
            Some((next, ack))
        }
        _ => Some((next.normalized(), ack)),
    }
}

fn dir_answer(dir: DirLine, src: usize, answer: Answer) -> DirStepResult {
    let mut next = dir;
    // "My payload is in my eviction" only defers completion if that eviction
    // has not been processed yet; once a child's Put* is handled the child is
    // no longer a sharer, so its deferred answer is effectively a plain ack.
    let payload_in_put = matches!(answer, Answer::PayloadInPut) && dir.sharers.contains(src);
    match answer {
        Answer::NoPayload | Answer::PayloadInPut => {}
        Answer::Partial(v) => {
            if next.awaiting_owner_data() {
                next.deferred = next.deferred.plus(v);
            } else {
                next.value = next.value.plus(v);
            }
        }
        Answer::FullValue(v) => {
            // Only authoritative when the sender is the owner the directory is
            // tracking or waiting on (otherwise the data is stale).
            if dir.is_believed_owner(src) {
                next.value = v;
            }
        }
    }
    if !payload_in_put {
        // A child that defers to its eviction keeps its sharer entry until the
        // Put* arrives; every other answer relinquishes the copy now.
        next.sharers.remove(src);
    }
    match next.pending {
        DirPending::CollectForGrantN {
            requester,
            class,
            mut waiting,
            mut pending_puts,
        } => {
            waiting.remove(src);
            if payload_in_put {
                pending_puts.insert(src);
            }
            if waiting.is_empty() && pending_puts.is_empty() {
                next.pending = DirPending::Idle;
                return Some(grant_n(next, requester, class));
            }
            next.pending = DirPending::CollectForGrantN {
                requester,
                class,
                waiting,
                pending_puts,
            };
            Some((next, vec![]))
        }
        DirPending::CollectForGrantM {
            requester,
            mut waiting,
            mut pending_puts,
        } => {
            waiting.remove(src);
            if payload_in_put {
                pending_puts.insert(src);
            }
            if waiting.is_empty() && pending_puts.is_empty() {
                next.pending = DirPending::Idle;
                return Some(grant_m(next, requester, false));
            }
            next.pending = DirPending::CollectForGrantM {
                requester,
                waiting,
                pending_puts,
            };
            Some((next, vec![]))
        }
        DirPending::OwnerDowngrade {
            requester,
            class,
            owner,
            ..
        } if owner == src => {
            if payload_in_put {
                // The owner's data travels in its eviction; keep waiting.
                next.pending = DirPending::OwnerDowngrade {
                    requester,
                    class,
                    owner,
                    awaiting_put: true,
                };
                return Some((next, vec![]));
            }
            // The owner's answer ends the owner-data wait: fold any deferred
            // partial updates, then grant from the now-authoritative value.
            next.pending = DirPending::Idle;
            next.fold_deferred();
            Some(grant_n(next, requester, class))
        }
        DirPending::OwnerInvalidate {
            requester, owner, ..
        } if owner == src => {
            if payload_in_put {
                next.pending = DirPending::OwnerInvalidate {
                    requester,
                    owner,
                    awaiting_put: true,
                };
                return Some((next, vec![]));
            }
            next.pending = DirPending::Idle;
            next.fold_deferred();
            Some(grant_m(next, requester, false))
        }
        // An answer with no matching transaction cannot occur (every
        // invalidation-class message is answered exactly once and transactions
        // only complete on answers); absorb defensively.
        _ => Some((next.normalized(), vec![])),
    }
}

fn dir_downgrade_ack(dir: DirLine, src: usize, class: Class, value: Value) -> DirStepResult {
    let mut next = dir;
    match next.pending {
        DirPending::OwnerDowngrade {
            requester,
            class: want,
            owner,
            ..
        } if owner == src => {
            // The owner's data replaces the directory's stale copy; partial
            // updates that raced ahead were deferred and are folded on top.
            next.value = value;
            next.pending = DirPending::Idle;
            next.fold_deferred();
            // The owner retained a copy under `class` (normally the requested
            // class) and remains a sharer — unless it has evicted in the
            // meantime (its Put already removed it from the sharer set).
            let owner_keeps_copy = class == want && dir.sharers.contains(owner);
            next.mode = DirStable::NonExclusive(want);
            next.sharers = ChildMask::EMPTY;
            if owner_keeps_copy {
                next.sharers.insert(owner);
            }
            Some(grant_n(next, requester, want))
        }
        DirPending::OwnerInvalidate {
            requester, owner, ..
        } if owner == src => {
            // The owner answered a plain Inv with a downgrade-style ack (kept a
            // copy); treat the retained copy as relinquished for exclusivity.
            next.value = value;
            next.pending = DirPending::Idle;
            next.fold_deferred();
            next.sharers.remove(src);
            Some(grant_m(next, requester, false))
        }
        // Treat like a data-carrying answer in any other pending state.
        _ => dir_answer(next, src, Answer::FullValue(value)),
    }
}

#[cfg(test)]
mod tests;
