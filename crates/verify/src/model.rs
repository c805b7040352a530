//! The protocol model explored by the checker: global states and transitions.
//!
//! A model instance is a small system built from the message-level controllers
//! of `coup-protocol`: `cores` L1 caches (each holding the single modelled
//! line), one blocking directory, and two unordered networks (requests towards
//! the directory, responses/forwards towards the L1s). This mirrors the
//! paper's Murphi setup: caches with a single 1-bit line, self-eviction rules
//! to model limited capacity, and — for "three-level" configurations — an
//! extra *external agent* that issues invalidation- and downgrade-producing
//! requests, standing in for the traffic the L3 injects on behalf of other L2s.

use coup_protocol::detailed::{Class, CoreOp, L1Line, L1State, OpId, ToDirMsg, ToL1Msg, Value};
use coup_protocol::detailed_dir::{dir_step, DirLine, DirPending, DirStable};
use coup_protocol::state::ProtocolKind;

/// Configuration of one verification run (one point of Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of cores (L1 caches). The paper verifies 2–10.
    pub cores: usize,
    /// Protocol family (MESI baseline or MEUSI/COUP).
    pub protocol: ProtocolKind,
    /// Number of distinct commutative-update operation types (2–20 in Fig. 8).
    /// Ignored by MESI, which treats updates as stores.
    pub comm_ops: u8,
    /// Model a third cache level by adding an external agent that injects
    /// invalidations and downgrades (the paper's "L3-issued rules").
    pub three_level: bool,
    /// Whether cores may issue plain stores. Disabling stores enables the
    /// value-conservation invariant (no update may ever be lost or duplicated).
    pub enable_stores: bool,
}

impl ModelConfig {
    /// A two-level configuration matching the paper's Murphi models.
    #[must_use]
    pub fn two_level(cores: usize, protocol: ProtocolKind, comm_ops: u8) -> Self {
        ModelConfig {
            cores,
            protocol,
            comm_ops,
            three_level: false,
            enable_stores: true,
        }
    }

    /// A three-level configuration (external L3 traffic injected).
    #[must_use]
    pub fn three_level(cores: usize, protocol: ProtocolKind, comm_ops: u8) -> Self {
        ModelConfig {
            cores,
            protocol,
            comm_ops,
            three_level: true,
            enable_stores: true,
        }
    }

    /// The same configuration with stores disabled, for value-conservation
    /// checking.
    #[must_use]
    pub fn without_stores(mut self) -> Self {
        self.enable_stores = false;
        self
    }

    /// The number of agents in the model (cores plus the external agent for
    /// three-level configurations).
    fn agents(&self) -> usize {
        self.cores + usize::from(self.three_level)
    }
}

/// A message in flight to the directory.
pub type DirBound = (usize, ToDirMsg);
/// A message in flight to an L1.
pub type L1Bound = (usize, ToL1Msg);

/// One global state of the modelled system.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalState {
    /// Per-agent L1 line state.
    pub l1: Vec<L1Line>,
    /// Directory state.
    pub dir: DirLine,
    /// Unordered network of requests/responses travelling to the directory.
    pub to_dir: Vec<DirBound>,
    /// Unordered network of grants/invalidations travelling to L1s.
    pub to_l1: Vec<L1Bound>,
    /// Total number of commutative updates performed so far (mod the value
    /// domain); used by the conservation invariant when stores are disabled.
    pub issued: Value,
}

impl GlobalState {
    /// The initial state: every cache invalid, directory uncached with value 0.
    #[must_use]
    pub fn initial(cfg: &ModelConfig) -> Self {
        GlobalState {
            l1: vec![L1Line::invalid(); cfg.agents()],
            dir: DirLine::new(Value::ZERO),
            to_dir: Vec::new(),
            to_l1: Vec::new(),
            issued: Value::ZERO,
        }
    }

    /// Canonicalises the state so that semantically identical states hash
    /// identically (the networks are unordered multisets).
    #[must_use]
    pub fn canonical(mut self) -> Self {
        self.to_dir.sort_unstable();
        self.to_l1.sort_unstable();
        self
    }

    /// Whether the system is quiescent: no messages in flight, directory idle,
    /// every L1 in a stable state.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.to_dir.is_empty()
            && self.to_l1.is_empty()
            && self.dir.pending == DirPending::Idle
            && self.l1.iter().all(|l| l.state.is_stable())
    }
}

/// A label describing one transition, for counterexample traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionLabel {
    /// Agent issued a core operation.
    Core(usize, CoreOp),
    /// Agent started a self-eviction.
    Evict(usize),
    /// A message to the directory was delivered.
    DeliverToDir(DirBound),
    /// A message to an L1 was delivered.
    DeliverToL1(L1Bound),
}

/// Enumerates every successor of `state`.
///
/// Returns `(label, next_state)` pairs. Messages that stall (cannot be
/// consumed yet) simply produce no successor for that delivery.
#[must_use]
pub fn successors(cfg: &ModelConfig, state: &GlobalState) -> Vec<(TransitionLabel, GlobalState)> {
    let mut out = Vec::new();

    // 1. Core operations from stable states.
    for agent in 0..cfg.agents() {
        for op in enabled_core_ops(cfg, agent) {
            if let Some((line, msgs)) =
                coup_protocol::detailed::l1_core_request(cfg.protocol, state.l1[agent], op)
            {
                let mut next = state.clone();
                next.l1[agent] = line;
                for m in msgs {
                    next.to_dir.push((agent, m));
                }
                if matches!(op, CoreOp::Update(_)) && update_applied_locally(state.l1[agent]) {
                    next.issued = next.issued.bump();
                }
                out.push((TransitionLabel::Core(agent, op), next.canonical()));
            }
        }
        // 2. Self-evictions (capacity pressure), from valid stable states.
        if let Some((line, msgs)) = coup_protocol::detailed::l1_evict(state.l1[agent]) {
            let mut next = state.clone();
            next.l1[agent] = line;
            for m in msgs {
                next.to_dir.push((agent, m));
            }
            out.push((TransitionLabel::Evict(agent), next.canonical()));
        }
    }

    // 3. Deliver a message to the directory.
    for (i, &(src, msg)) in state.to_dir.iter().enumerate() {
        if let Some((dir, outbound)) = dir_step(cfg.protocol, state.dir, src, msg) {
            let mut next = state.clone();
            next.to_dir.remove(i);
            next.dir = dir;
            for m in outbound {
                next.to_l1.push(m);
            }
            out.push((TransitionLabel::DeliverToDir((src, msg)), next.canonical()));
        }
    }

    // 4. Deliver a message to an L1.
    for (i, &(dst, msg)) in state.to_l1.iter().enumerate() {
        if let Some((line, replies)) = coup_protocol::detailed::l1_from_dir(state.l1[dst], msg) {
            let mut next = state.clone();
            next.to_l1.remove(i);
            next.l1[dst] = line;
            for m in replies {
                next.to_dir.push((dst, m));
            }
            out.push((TransitionLabel::DeliverToL1((dst, msg)), next.canonical()));
        }
    }

    out
}

/// Whether an update issued in this state is applied immediately to a local
/// copy (hit in M/E/U) rather than deferred to the grant path.
///
/// Updates that miss are *not* counted when issued: the grant initialises the
/// buffer to the identity and the core re-executes the update as a hit in a
/// later transition, so counting at issue time would double-count. Only local
/// applications change the logical total.
fn update_applied_locally(line: L1Line) -> bool {
    matches!(
        line.state,
        L1State::M | L1State::E | L1State::N(Class::Update(_))
    )
}

/// The core operations an agent may issue.
fn enabled_core_ops(cfg: &ModelConfig, agent: usize) -> Vec<CoreOp> {
    let external = cfg.three_level && agent == cfg.cores;
    let mut ops = Vec::new();
    if external {
        // The external agent models other L2s: it only issues loads and stores,
        // which is what forces L3-style invalidations and downgrades into the
        // modelled L2's caches.
        ops.push(CoreOp::Load);
        ops.push(CoreOp::Store);
        return ops;
    }
    ops.push(CoreOp::Load);
    if cfg.enable_stores {
        ops.push(CoreOp::Store);
    }
    for k in 0..cfg.comm_ops {
        ops.push(CoreOp::Update(OpId(k)));
    }
    ops
}

/// Structural coherence invariants, checked on every reachable state.
///
/// # Errors
///
/// Returns a description of the violated invariant.
pub fn check_structural(state: &GlobalState) -> Result<(), String> {
    // Single-writer: at most one cache in E/M, and none readable/updating
    // alongside it.
    let exclusive: Vec<usize> = state
        .l1
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l.state, L1State::E | L1State::M))
        .map(|(i, _)| i)
        .collect();
    if exclusive.len() > 1 {
        return Err(format!(
            "two caches hold the line exclusively: {exclusive:?}"
        ));
    }
    if let Some(&owner) = exclusive.first() {
        for (i, l) in state.l1.iter().enumerate() {
            if i != owner && matches!(l.state, L1State::N(_)) {
                return Err(format!(
                    "cache {i} holds the line in {} while cache {owner} holds it exclusively",
                    l.state
                ));
            }
        }
    }
    // All non-exclusive copies are under the same operation class.
    let classes: Vec<Class> = state
        .l1
        .iter()
        .filter_map(|l| match l.state {
            L1State::N(c) => Some(c),
            _ => None,
        })
        .collect();
    if classes.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("mixed non-exclusive classes: {classes:?}"));
    }
    // Read-only copies never disagree with each other.
    let readable: Vec<Value> = state
        .l1
        .iter()
        .filter(|l| l.state == L1State::N(Class::ReadOnly))
        .map(|l| l.value)
        .collect();
    if readable.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("read-only copies disagree: {readable:?}"));
    }
    // Directory sharer count sanity.
    if state.dir.mode == DirStable::Exclusive && state.dir.sharers.count() != 1 {
        return Err("directory says exclusive but does not track exactly one owner".to_string());
    }
    Ok(())
}

/// Value-conservation invariant, checked on quiescent states when stores are
/// disabled: the reconstructed value must equal the number of updates applied.
///
/// # Errors
///
/// Returns a description of the lost or duplicated updates.
pub fn check_conservation(state: &GlobalState) -> Result<(), String> {
    debug_assert!(state.is_quiescent());
    let mut total = match state
        .l1
        .iter()
        .find(|l| matches!(l.state, L1State::E | L1State::M))
    {
        Some(owner) => owner.value,
        None => state.dir.value,
    };
    for l in &state.l1 {
        if let L1State::N(Class::Update(_)) = l.state {
            total = total.plus(l.value);
        }
    }
    if total != state.issued {
        return Err(format!(
            "value {:?} does not match {:?} updates applied (lost or duplicated updates)",
            total, state.issued
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_quiescent_and_sound() {
        let cfg = ModelConfig::two_level(3, ProtocolKind::Meusi, 2);
        let s = GlobalState::initial(&cfg);
        assert!(s.is_quiescent());
        assert!(check_structural(&s).is_ok());
        assert!(check_conservation(&s).is_ok());
        assert_eq!(s.l1.len(), 3);
    }

    #[test]
    fn three_level_configs_have_an_external_agent() {
        let cfg = ModelConfig::three_level(2, ProtocolKind::Mesi, 0);
        assert_eq!(cfg.agents(), 3);
        let s = GlobalState::initial(&cfg);
        assert_eq!(s.l1.len(), 3);
        // The external agent only loads and stores.
        assert_eq!(enabled_core_ops(&cfg, 2), vec![CoreOp::Load, CoreOp::Store]);
    }

    #[test]
    fn successors_exist_from_the_initial_state() {
        let cfg = ModelConfig::two_level(2, ProtocolKind::Meusi, 1);
        let s = GlobalState::initial(&cfg);
        let succ = successors(&cfg, &s);
        // Each core can issue a load, a store, or the one update type.
        assert_eq!(succ.len(), 6);
        for (_, next) in succ {
            assert!(check_structural(&next).is_ok());
            assert_eq!(next.to_dir.len(), 1, "a miss sends one request");
        }
    }

    #[test]
    fn mesi_ignores_update_types_in_its_alphabet() {
        let with2 = ModelConfig::two_level(2, ProtocolKind::Mesi, 2);
        let with5 = ModelConfig::two_level(2, ProtocolKind::Mesi, 5);
        // Updates are mapped to stores by the L1 controller, so transitions
        // exist but lead to identical states; the *state space* does not grow.
        let s = GlobalState::initial(&with2);
        let u2: std::collections::HashSet<_> =
            successors(&with2, &s).into_iter().map(|(_, n)| n).collect();
        let u5: std::collections::HashSet<_> =
            successors(&with5, &s).into_iter().map(|(_, n)| n).collect();
        assert_eq!(u2, u5);
    }

    #[test]
    fn structural_check_rejects_two_owners() {
        let cfg = ModelConfig::two_level(2, ProtocolKind::Mesi, 0);
        let mut s = GlobalState::initial(&cfg);
        s.l1[0].state = L1State::M;
        s.l1[1].state = L1State::E;
        assert!(check_structural(&s).is_err());
    }

    #[test]
    fn structural_check_rejects_mixed_classes() {
        let cfg = ModelConfig::two_level(2, ProtocolKind::Meusi, 2);
        let mut s = GlobalState::initial(&cfg);
        s.l1[0].state = L1State::N(Class::Update(OpId(0)));
        s.l1[1].state = L1State::N(Class::Update(OpId(1)));
        assert!(check_structural(&s).is_err());
        s.l1[1].state = L1State::N(Class::Update(OpId(0)));
        assert!(check_structural(&s).is_ok());
    }

    #[test]
    fn conservation_check_detects_lost_updates() {
        let cfg = ModelConfig::two_level(2, ProtocolKind::Meusi, 1).without_stores();
        let mut s = GlobalState::initial(&cfg);
        s.issued = Value(2);
        // Nothing in the system holds those two updates: they were "lost".
        assert!(check_conservation(&s).is_err());
        // Buffer them in a partial update: conservation holds again.
        s.l1[0].state = L1State::N(Class::Update(OpId(0)));
        s.l1[0].value = Value(2);
        s.dir.mode = DirStable::NonExclusive(Class::Update(OpId(0)));
        s.dir.sharers.insert(0);
        assert!(check_conservation(&s).is_ok());
    }

    #[test]
    fn canonicalisation_makes_network_order_irrelevant() {
        let cfg = ModelConfig::two_level(2, ProtocolKind::Meusi, 1);
        let mut a = GlobalState::initial(&cfg);
        a.to_dir.push((0, ToDirMsg::GetM));
        a.to_dir.push((1, ToDirMsg::GetN(Class::ReadOnly)));
        let mut b = GlobalState::initial(&cfg);
        b.to_dir.push((1, ToDirMsg::GetN(Class::ReadOnly)));
        b.to_dir.push((0, ToDirMsg::GetM));
        assert_eq!(a.canonical(), b.canonical());
    }
}
