//! `visible_probe`: the latency from a producer's `push` to the value being
//! visible to a `read` — ROADMAP's end-to-end definition.
//!
//! Each probe pushes 1024 filler updates over lanes 0..62 (so the worker is
//! busy and the rings are not empty), stamps t0, pushes 1 to lane 63,
//! flushes, and spins on `read(63)` until it reaches the probe's number.
//! Park/unpark and queue dwell dominate; arithmetic does not.

use std::time::{Duration, Instant};

use crate::gen::splitmix64;
use crate::pairs::{
    account, rates, run_pairs, speedup, summaries, unrated_pair, Budget, Side, TrialSummary,
};
use crate::report::Outcome;
use crate::span::{Tracer, SAMPLE_STRIDE};
use crate::stats::{median, percentile};
use crate::stream::{span_median, StreamSpec, Tier};
use crate::sys::Knobs;
use crate::SetupClock;

/// Filler updates ahead of every probe: four full batches.
const FILLER: u64 = 1024;
/// The probed lane; filler goes to the lanes below it.
const PROBE_LANE: usize = 63;
/// A probe not visible after this long is a failed operation.
const TIMEOUT: Duration = Duration::from_secs(1);
/// After this long the spin starts ceding the CPU, so an oversubscribed box
/// still lets the worker run.
const SPIN_BEFORE_YIELD: Duration = Duration::from_micros(100);

/// Probes per trial at full size; trials repeat in pairs until the budget is
/// spent, and latencies pool over trials (≥ 50 000 in a default run).
pub const PROBES_PER_TRIAL: u64 = 2_000;

/// The runtime shape probes run on: the 64-lane unbounded configuration of
/// `update_stream`.
fn spec() -> StreamSpec {
    StreamSpec {
        name: "visible_probe",
        lanes: 64,
        ops: 0,
        reads_per_1000: 0,
        tier: Tier::Exact,
        zipf_theta: None,
        capacity_lines: None,
        refresh: None,
    }
}

/// What one probe trial measured.
#[derive(Debug, Default)]
pub struct ProbeTrial {
    /// Push→visible latency of every probe that became visible, in ns.
    pub latencies_ns: Vec<u64>,
    /// Rate (the reciprocal median latency), failures and exact counts.
    pub summary: TrialSummary,
    /// The tracer's trial id.
    pub trial: u32,
}

/// What `probes` probes must leave behind: the filler counts of lanes 0..62
/// and `probes` on the probed lane — a replay of the generator.
pub fn oracle(seed: u64, probes: u64) -> Vec<u64> {
    let mut state = seed;
    let mut lanes = vec![0u64; PROBE_LANE + 1];
    for _ in 0..probes * FILLER {
        lanes[filler_lane(&mut state)] += 1;
    }
    lanes[PROBE_LANE] = probes;
    lanes
}

fn filler_lane(state: &mut u64) -> usize {
    (splitmix64(state) % PROBE_LANE as u64) as usize
}

/// Runs `oracle[PROBE_LANE]` probes on a fresh runtime of `side`.
pub fn run_trial(
    knobs: &Knobs,
    side: Side,
    seed: u64,
    oracle: &[u64],
    tracer: &mut Tracer,
) -> ProbeTrial {
    let probes = oracle[PROBE_LANE];
    tracer.next_trial();
    let trial = tracer.trial();
    tracer
        .span("trial", |tracer| {
            let runtime = tracer.leaf("runtime.build", || spec().builder(knobs, side).build());
            let mut handle = tracer.leaf("runtime.handle", || runtime.handle());
            let mut state = seed;
            let mut latencies_ns = Vec::with_capacity(probes as usize);
            let mut timeouts = 0u64;
            // One probe in SAMPLE_STRIDE leaves spans; all are timed.
            let mut unsampled = Tracer::disabled();
            tracer.span("phase.probes", |tracer| {
                for probe in 1..=probes {
                    for _ in 0..FILLER {
                        handle.push(filler_lane(&mut state), 1);
                    }
                    let tracer = if probe % u64::from(SAMPLE_STRIDE) == 0 {
                        &mut *tracer
                    } else {
                        &mut unsampled
                    };
                    let visible = tracer
                        .span("probe.visible", |tracer| {
                            let t0 = Instant::now();
                            tracer.leaf("runtime.push", || handle.push(PROBE_LANE, 1));
                            tracer.leaf("runtime.flush", || handle.flush());
                            tracer.leaf("probe.spin", || loop {
                                let value = handle.read(PROBE_LANE);
                                let waited = t0.elapsed();
                                if value >= probe {
                                    break Some(waited);
                                }
                                if waited > TIMEOUT {
                                    break None;
                                }
                                if waited > SPIN_BEFORE_YIELD {
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            })
                        })
                        .0;
                    match visible {
                        Some(waited) => latencies_ns.push(waited.as_nanos() as u64),
                        None => timeouts += 1,
                    }
                }
            });
            drop(handle);
            tracer.leaf("runtime.drain", || runtime.drain());
            let snapshot = tracer.leaf("runtime.snapshot", || runtime.snapshot());
            let _ = tracer.leaf("runtime.shutdown", || runtime.shutdown());
            let lost: u64 = snapshot
                .iter()
                .zip(oracle)
                .map(|(&got, &want)| got.abs_diff(want))
                .sum();
            let attempted = probes * (FILLER + 1);
            // The rate of a probe trial is its reciprocal median latency; a
            // trial in which nothing became visible rates as (almost) zero.
            let mops = if latencies_ns.is_empty() {
                f64::MIN_POSITIVE
            } else {
                1.0 / p50_us(&latencies_ns)
            };
            ProbeTrial {
                trial,
                latencies_ns,
                summary: TrialSummary {
                    mops,
                    attempted,
                    failed: lost + timeouts,
                    exact: vec![("ops_attempted", attempted)],
                    error: None,
                },
            }
        })
        .0
}

/// Median of `latencies`, in µs.
fn p50_us(latencies: &[u64]) -> f64 {
    crate::stats::median_u64(latencies) / 1e3
}

/// Pools the latencies of one side, ascending.
fn pooled(pairs: &[(ProbeTrial, ProbeTrial)], side: Side) -> Vec<u64> {
    let mut all: Vec<u64> = pairs
        .iter()
        .flat_map(|(a, c)| match side {
            Side::Atomic => &a.latencies_ns,
            Side::Coup => &c.latencies_ns,
        })
        .copied()
        .collect();
    all.sort_unstable();
    all
}

/// The untraced pass. Only each trial's median latency is kept, so memory
/// does not grow with the number of pairs. `speedup_vs_atomic` is the median
/// per-pair ratio of atomic to coup median latency; the reported rates are
/// reciprocal median latencies (millions of round trips per second).
pub fn measure(knobs: &Knobs, seed: u64, budget: Budget, probes: u64) -> Outcome {
    // Set-up: the oracle, and an empty pair (one probe) — building, draining
    // and shutting down both runtimes.
    let trial =
        |oracle: &[u64], side| run_trial(knobs, side, seed, oracle, &mut Tracer::disabled());
    let set_up = || {
        let full = oracle(seed, probes);
        let mut outcome = Outcome::default();
        unrated_pair(&mut outcome, |side| trial(&oracle(seed, 1), side).summary);
        (full, outcome)
    };
    let mut clock = SetupClock::default();
    let (full, mut outcome) = clock.first(set_up);
    // The 1/16-size warm-up pair is not part of `setup_s` (see stream.rs).
    let warm = oracle(seed, probes / 16 + 1);
    unrated_pair(&mut outcome, |side| trial(&warm, side).summary);
    let pairs = run_pairs(
        budget,
        |side| trial(&full, side).summary,
        || drop(clock.rep(set_up)),
    );
    rates(&pairs, &mut outcome);
    speedup(&pairs, &mut outcome);
    account(&pairs, &mut outcome);
    let mut p50s: Vec<f64> = pairs.iter().map(|(_, c)| 1.0 / c.mops).collect();
    outcome.metrics.set_with(
        "visible_p50_us",
        median(&mut p50s),
        format!("median of {} trial medians of {probes} probes", pairs.len()),
    );
    outcome.metrics.set("setup_s", clock.setup_s());
    outcome
}

/// The traced pass: the tail quantiles, which are reported, not gated. (Every
/// probe is timed in either pass; tracing adds spans to one probe in
/// `SAMPLE_STRIDE`. The median, a headline figure, comes from [`measure`].)
pub fn trace(
    knobs: &Knobs,
    seed: u64,
    budget: Budget,
    probes: u64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut outcome = Outcome::default();
    let full = oracle(seed, probes);
    let pairs = run_pairs(
        budget,
        |side| run_trial(knobs, side, seed, &full, tracer),
        || {},
    );
    account(&summaries(&pairs, |t| &t.summary), &mut outcome);
    let coup = pooled(&pairs, Side::Coup);
    let atomic = pooled(&pairs, Side::Atomic);
    let m = &mut outcome.metrics;
    let us = |sorted: &[u64], q: f64| percentile(sorted, q).map_or(0.0, |ns| ns as f64 / 1e3);
    m.set_with(
        "runtime.visible_p99_us",
        us(&coup, 0.99),
        format!("n = {}", coup.len()),
    );
    m.set("runtime.visible_p999_us", us(&coup, 0.999));
    m.set("runtime.visible_p50_us_atomic", us(&atomic, 0.5));
    let coup_trials: Vec<u32> = pairs.iter().map(|(_, c)| c.trial).collect();
    for (metric, span) in [
        ("runtime.build_us", "runtime.build"),
        ("runtime.drain_wait_us", "runtime.drain"),
        ("runtime.shutdown_us", "runtime.shutdown"),
    ] {
        m.set(metric, span_median(tracer, &coup_trials, span, 1e3));
    }
    // Here the publishing call is the probe's one-update `flush`.
    m.set(
        "runtime.publish_ns",
        span_median(tracer, &coup_trials, "runtime.flush", 1.0),
    );
    outcome
}
