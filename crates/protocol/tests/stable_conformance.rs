//! The simulator's stable-state engine ([`coup_protocol::stable`]) against
//! the message-level controllers ([`coup_protocol::detailed`] and
//! [`coup_protocol::detailed_dir`]) that the model checker verifies.
//!
//! For 2 and 3 cores under MESI and MEUSI, with two update types, the test
//! takes every quiescent stable configuration (a directory mode and sharer
//! set, and each core's stable L1 state) and every core and access: load,
//! store, update 0 and update 1. Where the detailed L1 hits, the stable
//! `local_hit_transition` must give the same next state. Where it misses,
//! the request is driven through the detailed controllers in every delivery
//! order of an unordered network until the system is quiescent, and every
//! end state must be what `serve_request` plans: the same grant, the same
//! directory mode and sharers, and the same *other* cores invalidated,
//! reduced, downgraded or relinquished as owner, each left in the state the
//! plan leaves it.
//!
//! Two translations are allowed and no others:
//! - the detailed L1 stalls a store to a non-exclusive copy, so that store
//!   is driven as an eviction followed by a `GetM`;
//! - `RequestPlan::silent` is not compared, because it is the simulator's
//!   serialisation policy rather than a protocol outcome.

use std::collections::HashSet;

use coup_protocol::access::AccessType;
use coup_protocol::detailed::{
    l1_core_request, l1_evict, l1_from_dir, Class, CoreOp, L1Line, L1State, OpId, ToDirMsg,
    ToL1Msg, Value,
};
use coup_protocol::detailed_dir::{dir_step, ChildMask, DirLine, DirPending, DirStable};
use coup_protocol::directory::DirectoryEntry;
use coup_protocol::ops::CommutativeOp;
use coup_protocol::stable::{local_hit_transition, serve_request, OwnerAction, RequestPlan};
use coup_protocol::state::{DirMode, PrivateState, ProtocolKind};

/// The concrete operation each abstract update type stands for.
const OPS: [CommutativeOp; 2] = [CommutativeOp::AddU64, CommutativeOp::Or64];

const CORE_OPS: [CoreOp; 4] = [
    CoreOp::Load,
    CoreOp::Store,
    CoreOp::Update(OpId(0)),
    CoreOp::Update(OpId(1)),
];

fn access_of(op: CoreOp) -> AccessType {
    match op {
        CoreOp::Load => AccessType::Read,
        CoreOp::Store => AccessType::Write,
        CoreOp::Update(OpId(k)) => AccessType::CommutativeUpdate(OPS[usize::from(k)]),
    }
}

fn class_of(op: CommutativeOp) -> Class {
    let k = OPS.iter().position(|&o| o == op).expect("a modelled op");
    Class::Update(OpId(u8::try_from(k).expect("two ops")))
}

fn private_state(state: L1State) -> PrivateState {
    match state {
        L1State::I => PrivateState::Invalid,
        L1State::N(Class::ReadOnly) => PrivateState::Shared,
        L1State::N(Class::Update(OpId(k))) => PrivateState::UpdateOnly(OPS[usize::from(k)]),
        L1State::E => PrivateState::Exclusive,
        L1State::M => PrivateState::Modified,
        transient => panic!("{transient} is not a stable state"),
    }
}

fn dir_entry(dir: &DirLine) -> DirectoryEntry {
    let mode = match dir.mode {
        DirStable::Uncached => DirMode::Uncached,
        DirStable::Exclusive => DirMode::Exclusive,
        DirStable::NonExclusive(Class::ReadOnly) => DirMode::ReadOnly,
        DirStable::NonExclusive(Class::Update(OpId(k))) => DirMode::UpdateOnly(OPS[usize::from(k)]),
    };
    DirectoryEntry::new(mode, dir.sharers.iter().collect())
}

/// What happened to a core other than the requester, read off the answer it
/// sent to the directory's invalidation-class message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Action {
    /// A read-only copy was invalidated.
    Invalidated,
    /// An update-only copy's partial was collected.
    Reduced,
    /// The exclusive owner kept a copy in this class.
    Downgraded(Class),
    /// The exclusive owner gave the line up with its data.
    Relinquished,
}

/// What `plan` does to `core` and the stable L1 state it leaves `core` in,
/// given the state `core` starts in.
fn planned(plan: &RequestPlan, core: usize, before: L1State) -> (Option<Action>, L1State) {
    if plan.invalidate_readers.contains(core) {
        return (Some(Action::Invalidated), L1State::I);
    }
    if plan.reduce_from.contains(core) {
        return (Some(Action::Reduced), L1State::I);
    }
    match plan.owner_action {
        Some((owner, action)) if owner == core => match action {
            OwnerAction::DowngradeToShared => (
                Some(Action::Downgraded(Class::ReadOnly)),
                L1State::N(Class::ReadOnly),
            ),
            OwnerAction::DowngradeToUpdateOnly(op) => {
                let class = class_of(op);
                (Some(Action::Downgraded(class)), L1State::N(class))
            }
            OwnerAction::InvalidateWithData => (Some(Action::Relinquished), L1State::I),
        },
        _ => (None, before),
    }
}

/// One message in flight on the unordered network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Msg {
    ToDir(usize, ToDirMsg),
    ToL1(usize, ToL1Msg),
}

/// A global state of the detailed system while one request is served.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct System {
    dir: DirLine,
    l1s: Vec<L1Line>,
    /// In-flight messages, sorted: the network delivers them in any order.
    net: Vec<Msg>,
    /// The requester's access, until its L1 issues it.
    pending: Option<CoreOp>,
    /// What happened to each core other than the requester.
    actions: Vec<Option<Action>>,
}

impl System {
    fn send(&mut self, msgs: impl IntoIterator<Item = Msg>) {
        self.net.extend(msgs);
        self.net.sort_unstable();
    }

    /// Every state one step away: the requester issues its access (or, for
    /// a store it stalls on a non-exclusive copy, evicts that copy first), or
    /// the network delivers one message its receiver can consume.
    fn successors(&self, kind: ProtocolKind, requester: usize) -> Vec<System> {
        let mut next = Vec::new();
        if let Some(op) = self.pending {
            let line = self.l1s[requester];
            if let Some((after, msgs)) = l1_core_request(kind, line, op) {
                let mut s = self.clone();
                s.l1s[requester] = after;
                s.pending = None;
                s.send(msgs.into_iter().map(|m| Msg::ToDir(requester, m)));
                next.push(s);
            } else if line.state.is_stable() {
                // Only a store (MESI sends updates as stores) stalls on a
                // stable copy, a non-exclusive one, which is evicted first.
                let store = access_of(op) == AccessType::Write || !kind.supports_update_only();
                assert!(
                    store && matches!(line.state, L1State::N(_)),
                    "{op:?} stalls in {line:?}"
                );
                let (after, msgs) = l1_evict(line).expect("a stable copy can be evicted");
                let mut s = self.clone();
                s.l1s[requester] = after;
                s.send(msgs.into_iter().map(|m| Msg::ToDir(requester, m)));
                next.push(s);
            }
        }
        for (i, &msg) in self.net.iter().enumerate() {
            let mut s = self.clone();
            s.net.remove(i);
            match msg {
                Msg::ToDir(src, m) => {
                    let Some((dir, out)) = dir_step(self.dir, src, m) else {
                        continue;
                    };
                    s.dir = dir;
                    s.send(out.into_iter().map(|(dst, m)| Msg::ToL1(dst, m)));
                }
                Msg::ToL1(dst, m) => {
                    let Some((line, out)) = l1_from_dir(self.l1s[dst], m) else {
                        continue;
                    };
                    s.l1s[dst] = line;
                    if dst != requester {
                        for answer in &out {
                            s.record(dst, *answer);
                        }
                    }
                    s.send(out.into_iter().map(|m| Msg::ToDir(dst, m)));
                }
            }
            next.push(s);
        }
        next
    }

    fn record(&mut self, core: usize, answer: ToDirMsg) {
        let action = match answer {
            ToDirMsg::InvAck => Action::Invalidated,
            ToDirMsg::ReduceAck(..) => Action::Reduced,
            ToDirMsg::DowngradeAck(class, _) => Action::Downgraded(class),
            ToDirMsg::OwnerRelinquish(_) => Action::Relinquished,
            _ => return,
        };
        let earlier = self.actions[core].replace(action);
        assert_eq!(earlier, None, "core {core} was acted on twice");
    }

    fn is_quiescent(&self) -> bool {
        self.pending.is_none() && self.net.is_empty() && self.dir.pending == DirPending::Idle
    }
}

/// Every end state of `start` over every delivery order. Panics on a state
/// from which nothing can move that is not quiescent.
fn quiescent_ends(start: System, kind: ProtocolKind, requester: usize) -> (Vec<System>, usize) {
    let mut seen = HashSet::new();
    let mut stack = vec![start];
    let mut ends = Vec::new();
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        let next = state.successors(kind, requester);
        if next.is_empty() {
            assert!(state.is_quiescent(), "deadlock: {state:?}");
            ends.push(state);
        }
        stack.extend(next);
    }
    (ends, seen.len())
}

/// Every quiescent stable configuration of `cores` cores: the directory's
/// line and each core's L1 line.
fn configurations(kind: ProtocolKind, cores: usize) -> Vec<(DirLine, Vec<L1Line>)> {
    let line = |state| L1Line {
        state,
        value: Value::ZERO,
    };
    let mut configs = vec![(DirLine::default(), vec![L1Line::invalid(); cores])];
    for owner in 0..cores {
        for state in [L1State::E, L1State::M] {
            let dir = DirLine {
                mode: DirStable::Exclusive,
                sharers: ChildMask::single(owner),
                ..DirLine::default()
            };
            let mut l1s = vec![L1Line::invalid(); cores];
            l1s[owner] = line(state);
            configs.push((dir, l1s));
        }
    }
    let mut classes = vec![Class::ReadOnly];
    if kind.supports_update_only() {
        classes.extend([Class::Update(OpId(0)), Class::Update(OpId(1))]);
    }
    for class in classes {
        for mask in 1..1u16 << cores {
            let sharers = ChildMask(mask);
            let dir = DirLine {
                mode: DirStable::NonExclusive(class),
                sharers,
                ..DirLine::default()
            };
            let l1s = (0..cores)
                .map(|c| {
                    if sharers.contains(c) {
                        line(L1State::N(class))
                    } else {
                        L1Line::invalid()
                    }
                })
                .collect();
            configs.push((dir, l1s));
        }
    }
    configs
}

#[test]
fn stable_plans_match_the_detailed_controllers() {
    let (mut cases, mut hits, mut states) = (0, 0, 0);
    for kind in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
        for cores in [2, 3] {
            for (dir, l1s) in configurations(kind, cores) {
                let entry = dir_entry(&dir);
                for requester in 0..cores {
                    for op in CORE_OPS {
                        cases += 1;
                        let context = format!(
                            "{kind}, {cores} cores, entry {entry}, core {requester} in {}, {op:?}",
                            l1s[requester].state
                        );
                        let held = private_state(l1s[requester].state);
                        let access = access_of(op);
                        match l1_core_request(kind, l1s[requester], op) {
                            Some((after, msgs)) if msgs.is_empty() => {
                                hits += 1;
                                assert!(held.satisfies(access), "{context}: a detailed hit");
                                assert_eq!(
                                    local_hit_transition(held, access),
                                    private_state(after.state),
                                    "{context}"
                                );
                                continue;
                            }
                            _ => assert!(!held.satisfies(access), "{context}: a detailed miss"),
                        }
                        let plan = serve_request(kind, &entry, requester, access);
                        let start = System {
                            dir,
                            l1s: l1s.clone(),
                            net: Vec::new(),
                            pending: Some(op),
                            actions: vec![None; cores],
                        };
                        let (ends, explored) = quiescent_ends(start, kind, requester);
                        states += explored;
                        assert!(!ends.is_empty(), "{context}: never quiescent");
                        for end in &ends {
                            let granted = end.l1s[requester];
                            assert_eq!(private_state(granted.state), plan.grant, "{context}");
                            let retry = l1_core_request(kind, granted, op);
                            assert!(
                                retry.is_some_and(|(_, msgs)| msgs.is_empty()),
                                "{context}: the grant must let the access hit"
                            );
                            assert_eq!(dir_entry(&end.dir), plan.next_entry, "{context}");
                            for core in (0..cores).filter(|&c| c != requester) {
                                let got = (end.actions[core], end.l1s[core].state);
                                let want = planned(&plan, core, l1s[core].state);
                                assert_eq!(got, want, "{context}: core {core}");
                            }
                        }
                    }
                }
            }
        }
    }
    println!("stable_conformance: {cases} cases, {hits} hits, {states} detailed states explored");
    // Configurations per protocol and core count n: one uncached, 2n
    // exclusive (E or M), and 2^n - 1 sharer sets per non-exclusive class
    // (read-only, plus the two update types under MEUSI); each is driven by
    // every core with all four accesses.
    assert_eq!(cases, 680);
}
