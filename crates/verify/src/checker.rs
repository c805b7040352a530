//! Exhaustive explicit-state exploration (the Murphi-equivalent of §3.4).

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use crate::model::{
    check_conservation, check_structural, successors, GlobalState, ModelConfig, TransitionLabel,
};

/// Why an exploration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The full reachable state space was explored and every invariant held.
    Verified,
    /// An invariant was violated; the description and the depth at which it
    /// was found are included.
    Violation {
        /// Human-readable description of the violated invariant.
        description: String,
        /// BFS depth of the violating state.
        depth: usize,
    },
    /// A state was reached from which no transition is enabled but the system
    /// is not quiescent (a deadlock).
    Deadlock {
        /// BFS depth of the deadlocked state.
        depth: usize,
    },
    /// The exploration hit the configured state or time bound before finishing
    /// (the analogue of Murphi running out of memory in Fig. 8).
    BoundExceeded,
}

impl Outcome {
    /// Whether the exploration established the invariants on every state it saw.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, Outcome::Verified | Outcome::BoundExceeded)
    }
}

/// Resource limits for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of distinct states to explore.
    pub max_states: usize,
    /// Wall-clock budget in milliseconds.
    pub max_millis: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 2_000_000,
            max_millis: 60_000,
        }
    }
}

/// Result of one exploration (one point of Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// The configuration explored.
    pub config: ModelConfig,
    /// How the exploration ended.
    pub outcome: Outcome,
    /// Number of distinct reachable states visited.
    pub states: usize,
    /// Number of transitions (edges) taken.
    pub transitions: usize,
    /// Maximum BFS depth reached.
    pub max_depth: usize,
    /// Wall-clock time spent exploring.
    pub elapsed: Duration,
}

/// Exhaustively explores the reachable states of `config`, checking the
/// structural invariants on every state (and value conservation on quiescent
/// states when stores are disabled).
#[must_use]
pub fn explore(config: ModelConfig, limits: Limits) -> Exploration {
    let start = Instant::now();
    let initial = GlobalState::initial(&config).canonical();
    let mut seen: HashSet<GlobalState> = HashSet::new();
    let mut queue: VecDeque<(GlobalState, usize)> = VecDeque::new();
    seen.insert(initial.clone());
    queue.push_back((initial, 0));

    let mut transitions = 0usize;
    let mut max_depth = 0usize;
    let mut outcome = Outcome::Verified;

    while let Some((state, depth)) = queue.pop_front() {
        max_depth = max_depth.max(depth);
        if let Err(description) = check_invariants(&config, &state) {
            outcome = Outcome::Violation { description, depth };
            break;
        }
        let succ = successors(&config, &state);
        if succ.is_empty() && !state.is_quiescent() {
            outcome = Outcome::Deadlock { depth };
            break;
        }
        transitions += succ.len();
        for (_, next) in succ {
            if seen.len() >= limits.max_states
                || start.elapsed().as_millis() as u64 >= limits.max_millis
            {
                outcome = Outcome::BoundExceeded;
                queue.clear();
                break;
            }
            if seen.insert(next.clone()) {
                queue.push_back((next, depth + 1));
            }
        }
        if outcome == Outcome::BoundExceeded {
            break;
        }
    }

    Exploration {
        config,
        outcome,
        states: seen.len(),
        transitions,
        max_depth,
        elapsed: start.elapsed(),
    }
}

/// Explores and, on violation, reconstructs a shortest counterexample trace.
///
/// Slower than [`explore`] (it stores predecessor links), so it is intended
/// for debugging protocol changes rather than for the Fig. 8 sweeps.
#[must_use]
pub fn explore_with_trace(
    config: ModelConfig,
    limits: Limits,
) -> (Exploration, Vec<TransitionLabel>) {
    let start = Instant::now();
    let initial = GlobalState::initial(&config).canonical();
    let mut parents: HashMap<GlobalState, Option<(GlobalState, TransitionLabel)>> = HashMap::new();
    let mut queue: VecDeque<(GlobalState, usize)> = VecDeque::new();
    parents.insert(initial.clone(), None);
    queue.push_back((initial, 0));

    let mut transitions = 0usize;
    let mut max_depth = 0usize;
    let mut outcome = Outcome::Verified;
    let mut violating: Option<GlobalState> = None;

    while let Some((state, depth)) = queue.pop_front() {
        max_depth = max_depth.max(depth);
        if let Err(description) = check_invariants(&config, &state) {
            outcome = Outcome::Violation { description, depth };
            violating = Some(state);
            break;
        }
        let succ = successors(&config, &state);
        if succ.is_empty() && !state.is_quiescent() {
            outcome = Outcome::Deadlock { depth };
            violating = Some(state);
            break;
        }
        transitions += succ.len();
        for (label, next) in succ {
            if parents.len() >= limits.max_states
                || start.elapsed().as_millis() as u64 >= limits.max_millis
            {
                outcome = Outcome::BoundExceeded;
                queue.clear();
                break;
            }
            if !parents.contains_key(&next) {
                parents.insert(next.clone(), Some((state.clone(), label)));
                queue.push_back((next, depth + 1));
            }
        }
        if outcome == Outcome::BoundExceeded {
            break;
        }
    }

    let mut trace = Vec::new();
    if let Some(mut cursor) = violating {
        while let Some(Some((prev, label))) = parents.get(&cursor).cloned() {
            trace.push(label);
            cursor = prev;
        }
        trace.reverse();
    }

    (
        Exploration {
            config,
            outcome,
            states: parents.len(),
            transitions,
            max_depth,
            elapsed: start.elapsed(),
        },
        trace,
    )
}

fn check_invariants(config: &ModelConfig, state: &GlobalState) -> Result<(), String> {
    check_structural(state)?;
    if !config.enable_stores && state.is_quiescent() {
        check_conservation(state)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coup_protocol::state::ProtocolKind;

    fn small_limits() -> Limits {
        Limits {
            max_states: 400_000,
            max_millis: 30_000,
        }
    }

    #[test]
    fn two_core_mesi_verifies() {
        let e = explore(
            ModelConfig::two_level(2, ProtocolKind::Mesi, 0),
            small_limits(),
        );
        assert_eq!(e.outcome, Outcome::Verified, "{:?}", e.outcome);
        assert!(
            e.states > 100,
            "expected a non-trivial state space, got {}",
            e.states
        );
        assert!(e.transitions >= e.states - 1);
    }

    #[test]
    fn two_core_meusi_with_one_op_verifies() {
        let e = explore(
            ModelConfig::two_level(2, ProtocolKind::Meusi, 1),
            small_limits(),
        );
        assert_eq!(e.outcome, Outcome::Verified, "{:?}", e.outcome);
    }

    #[test]
    fn meusi_with_two_ops_verifies_and_is_larger_than_one_op() {
        let one = explore(
            ModelConfig::two_level(2, ProtocolKind::Meusi, 1),
            small_limits(),
        );
        let two = explore(
            ModelConfig::two_level(2, ProtocolKind::Meusi, 2),
            small_limits(),
        );
        assert_eq!(two.outcome, Outcome::Verified, "{:?}", two.outcome);
        assert!(
            two.states > one.states,
            "more operation types must enlarge the state space ({} vs {})",
            two.states,
            one.states
        );
    }

    #[test]
    fn conservation_holds_without_stores() {
        let e = explore(
            ModelConfig::two_level(2, ProtocolKind::Meusi, 1).without_stores(),
            small_limits(),
        );
        assert_eq!(
            e.outcome,
            Outcome::Verified,
            "updates were lost: {:?}",
            e.outcome
        );
    }

    #[test]
    fn three_level_has_more_states_than_two_level() {
        let two = explore(
            ModelConfig::two_level(2, ProtocolKind::Mesi, 0),
            small_limits(),
        );
        let three = explore(
            ModelConfig::three_level(2, ProtocolKind::Mesi, 0),
            small_limits(),
        );
        assert!(three.states > two.states);
        assert!(three.outcome.is_clean());
    }

    #[test]
    fn bound_is_respected() {
        let e = explore(
            ModelConfig::two_level(3, ProtocolKind::Meusi, 2),
            Limits {
                max_states: 500,
                max_millis: 10_000,
            },
        );
        assert_eq!(e.outcome, Outcome::BoundExceeded);
        assert!(e.states <= 501);
    }

    #[test]
    fn trace_exploration_agrees_with_plain_exploration() {
        let cfg = ModelConfig::two_level(2, ProtocolKind::Meusi, 1);
        let plain = explore(cfg, small_limits());
        let (traced, trace) = explore_with_trace(cfg, small_limits());
        assert_eq!(plain.outcome, traced.outcome);
        assert_eq!(plain.states, traced.states);
        assert!(
            trace.is_empty(),
            "no counterexample expected for a correct protocol"
        );
    }
}
