//! The paired-trial estimator shared by every workload: interleaved
//! atomic/coup trials on fresh state, medians over pairs, and the exactness
//! check on counts that must repeat.

use std::time::Instant;

use crate::report::Outcome;

/// Which side of a pair a trial runs: the `lock`-prefixed baseline (MESI in
/// the simulator) or commutative updates (MEUSI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `BackendKind::Atomic` / `RuntimeKind::Atomic` / MESI.
    Atomic,
    /// `BackendKind::Coup` / `RuntimeKind::Coup` / MEUSI.
    Coup,
}

/// Fewest pairs a pass measures, whatever its budget.
pub const MIN_PAIRS: usize = 5;

/// How long a pass keeps adding pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many pairs (`--pairs`).
    Pairs(usize),
    /// Pairs until this many seconds have passed, at least [`MIN_PAIRS`]
    /// (`--seconds`).
    Seconds(f64),
}

impl Budget {
    fn wants_more(self, done: usize, started: Instant) -> bool {
        match self {
            Budget::Pairs(pairs) => done < pairs,
            Budget::Seconds(seconds) => {
                done < MIN_PAIRS || started.elapsed().as_secs_f64() < seconds
            }
        }
    }
}

/// Runs interleaved pairs — atomic→coup, then coup→atomic, alternating, so
/// neither side always runs on the warmer machine — and returns them as
/// `(atomic, coup)`. `between` runs after every pair (the untraced pass
/// repeats its set-up there).
pub fn run_pairs<T>(
    budget: Budget,
    mut trial: impl FnMut(Side) -> T,
    mut between: impl FnMut(),
) -> Vec<(T, T)> {
    let started = Instant::now();
    let mut pairs = Vec::new();
    while budget.wants_more(pairs.len(), started) {
        if pairs.len() % 2 == 0 {
            let atomic = trial(Side::Atomic);
            let coup = trial(Side::Coup);
            pairs.push((atomic, coup));
        } else {
            let coup = trial(Side::Coup);
            let atomic = trial(Side::Atomic);
            pairs.push((atomic, coup));
        }
        between();
    }
    pairs
}

/// Runs one pair whose rates are not used — the empty pair of a set-up, or a
/// warm-up — and adds its operations, failures and errors to `outcome`.
pub fn unrated_pair(outcome: &mut Outcome, mut trial: impl FnMut(Side) -> TrialSummary) {
    for side in [Side::Atomic, Side::Coup] {
        let summary = trial(side);
        outcome.attempted += summary.attempted;
        outcome.failed += summary.failed;
        outcome.errors.extend(summary.error);
    }
}

/// What one trial contributes to the estimators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialSummary {
    /// Work per second, in millions.
    pub mops: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Counts that must read the same in every trial of this side.
    pub exact: Vec<(&'static str, u64)>,
    /// A verification error, if the trial's own `verify` refused.
    pub error: Option<String>,
}

/// The summaries of `pairs` whose trials carry more than a summary.
pub fn summaries<T>(
    pairs: &[(T, T)],
    summary: impl Fn(&T) -> &TrialSummary,
) -> Vec<(TrialSummary, TrialSummary)> {
    pairs
        .iter()
        .map(|(atomic, coup)| (summary(atomic).clone(), summary(coup).clone()))
        .collect()
}

/// Records `coup_mops` and `atomic_mops` as medians over pairs: absolute
/// rates, which drift with machine weather and are reported, not gated.
/// Untraced pairs only: no headline figure comes from a traced trial.
pub fn rates(pairs: &[(TrialSummary, TrialSummary)], outcome: &mut Outcome) {
    let atomic: Vec<f64> = pairs.iter().map(|(a, _)| a.mops).collect();
    let coup: Vec<f64> = pairs.iter().map(|(_, c)| c.mops).collect();
    outcome.metrics.set_median("coup_mops", &coup);
    outcome.metrics.set_median("atomic_mops", &atomic);
}

/// Records `speedup_vs_atomic` as the median of the per-pair ratios — the
/// estimator that cancels machine weather, and the gated figure.
pub fn speedup(pairs: &[(TrialSummary, TrialSummary)], outcome: &mut Outcome) {
    let ratio: Vec<f64> = pairs.iter().map(|(a, c)| c.mops / a.mops).collect();
    outcome.metrics.set_median("speedup_vs_atomic", &ratio);
}

/// Adds the pairs' attempted and failed operations and verification errors
/// to `outcome`, and checks the counts that must repeat.
pub fn account(pairs: &[(TrialSummary, TrialSummary)], outcome: &mut Outcome) {
    for (side, trials) in [
        ("atomic", pairs.iter().map(|(a, _)| a).collect::<Vec<_>>()),
        ("coup", pairs.iter().map(|(_, c)| c).collect::<Vec<_>>()),
    ] {
        for trial in &trials {
            outcome.attempted += trial.attempted;
            outcome.failed += trial.failed;
            outcome.errors.extend(trial.error.clone());
        }
        check_exact(side, &trials, &mut outcome.errors);
    }
}

/// A count that differs between two trials of one run is a failed run, not a
/// noisy one: with a fixed seed the work is a fixed op count.
fn check_exact(side: &str, trials: &[&TrialSummary], errors: &mut Vec<String>) {
    let Some(first) = trials.first() else {
        return;
    };
    for trial in &trials[1..] {
        for ((name, want), (_, got)) in first.exact.iter().zip(&trial.exact) {
            if want != got {
                errors.push(format!(
                    "exactness: {side} {name} read {want} in one trial and {got} in another"
                ));
            }
        }
    }
}
