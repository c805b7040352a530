//! `kernel_refcount`: the immediate-deallocation reference-counting kernel
//! through `RuntimeBackend::execute` — the direct `JobCtx` path. It bypasses
//! the submission layer entirely and leans on `update_read`
//! (decrement-and-test), the worst committed coup-vs-atomic row.

use std::time::Instant;

use coup_runtime::{BufferConfig, TelemetryConfig};
use coup_workloads::kernel::{KernelStep, UpdateKernel};
use coup_workloads::{
    ExecutionBackend, ImmediateRefcount, RefcountScheme, RuntimeBackend, RuntimeKind,
};

use crate::pairs::{
    account, rates, run_pairs, speedup, summaries, unrated_pair, Budget, Side, TrialSummary,
};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::median;
use crate::stream::span_median;
use crate::sys::{cpu_ns, record_counts, Exposition, Knobs};
use crate::SetupClock;

/// Shared counters of the kernel.
const COUNTERS: usize = 64;
/// Updates per thread at full size.
pub const UPDATES_PER_THREAD: usize = 500_000;

/// What one kernel trial measured.
#[derive(Debug)]
pub struct KernelTrial {
    /// Rate, failures and exact counts.
    pub summary: TrialSummary,
    /// Wall-clock of `execute` as the caller sees it, verification included.
    pub execute_s: f64,
    /// `RuntimeReport::elapsed`: the worker job alone.
    pub job_s: f64,
    /// Process CPU time over `execute`.
    pub cpu_ns: u64,
    /// The run's metrics, through the Prometheus exposition.
    pub exposition: Option<Exposition>,
}

/// The benchmark's own reference for a kernel run: how many updates and
/// reads its scripts hold. (`execute` checks the final counters against the
/// kernel's sequential reference itself.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOracle {
    updates: u64,
    reads: u64,
}

impl StepOracle {
    /// Replays every thread's script.
    pub fn replay(workload: &ImmediateRefcount, threads: usize) -> Self {
        let kernel = workload.kernel();
        let mut oracle = StepOracle {
            updates: 0,
            reads: 0,
        };
        for thread in 0..threads {
            for step in kernel.steps(thread, threads) {
                match step {
                    KernelStep::Update { .. } => oracle.updates += 1,
                    KernelStep::UpdateRead { .. } => {
                        oracle.updates += 1;
                        oracle.reads += 1;
                    }
                    KernelStep::Read { .. } => oracle.reads += 1,
                    _ => {}
                }
            }
        }
        oracle
    }
}

/// The kernel and the benchmark's reference for it.
#[derive(Debug)]
pub struct Inputs {
    workload: ImmediateRefcount,
    oracle: StepOracle,
}

impl Inputs {
    /// Builds the kernel (`workloads.kernel_build`) and replays its scripts.
    pub fn generate(
        updates_per_thread: usize,
        seed: u64,
        knobs: &Knobs,
        tracer: &mut Tracer,
    ) -> Self {
        let workload = tracer.leaf("workloads.kernel_build", || {
            ImmediateRefcount::new(
                COUNTERS,
                updates_per_thread,
                false,
                RefcountScheme::Coup,
                seed,
            )
        });
        let oracle = StepOracle::replay(&workload, knobs.kernel_threads());
        Inputs { workload, oracle }
    }
}

/// Executes the flat-counter kernel once on `side`.
pub fn run_trial(inputs: &Inputs, knobs: &Knobs, side: Side, tracer: &mut Tracer) -> KernelTrial {
    tracer.next_trial();
    let threads = knobs.kernel_threads();
    let kind = match side {
        Side::Atomic => RuntimeKind::Atomic,
        Side::Coup => RuntimeKind::Coup,
    };
    let backend = RuntimeBackend::new(kind, threads)
        .with_flush_threshold(knobs.flush_threshold)
        .with_buffer_config(BufferConfig::unbounded())
        .with_telemetry(TelemetryConfig::default());
    let cpu_before = cpu_ns();
    let started = Instant::now();
    let report = tracer
        .span("trial", |tracer| {
            tracer.leaf("workloads.execute", || {
                backend.execute(&inputs.workload.kernel())
            })
        })
        .0;
    let execute_s = started.elapsed().as_secs_f64();
    let cpu_ns = cpu_ns().saturating_sub(cpu_before);
    let oracle = inputs.oracle;
    let steps = oracle.updates + oracle.reads;
    match report {
        Ok(report) => {
            let ops = report.updates + report.reads;
            let job_s = report.elapsed.as_secs_f64();
            let exposition = Exposition::parse(&report.metrics.to_prometheus());
            KernelTrial {
                summary: TrialSummary {
                    mops: ops as f64 / job_s / 1e6,
                    attempted: ops,
                    // Steps the run did not report, or reported twice.
                    failed: report.updates.abs_diff(oracle.updates)
                        + report.reads.abs_diff(oracle.reads),
                    exact: vec![
                        ("ops_attempted", ops),
                        (
                            "backend.privatized",
                            exposition.get("coup_lines_privatized_total"),
                        ),
                        (
                            "coup_updates_applied_total",
                            exposition.get("coup_updates_applied_total"),
                        ),
                    ],
                    error: None,
                },
                execute_s,
                job_s,
                cpu_ns,
                exposition: Some(exposition),
            }
        }
        // `execute` verifies against the kernel's sequential reference: an
        // `Err` is a lost or duplicated update, and fails every op of the run.
        Err(error) => KernelTrial {
            summary: TrialSummary {
                mops: f64::MIN_POSITIVE,
                attempted: steps,
                failed: steps,
                exact: Vec::new(),
                error: Some(format!("kernel_refcount {side:?}: {error}")),
            },
            execute_s,
            job_s: execute_s,
            cpu_ns,
            exposition: None,
        },
    }
}

/// The untraced pass: throughput is (updates + reads) over
/// `RuntimeReport::elapsed`.
pub fn measure(knobs: &Knobs, seed: u64, budget: Budget, updates_per_thread: usize) -> Outcome {
    // Set-up: the kernel, the replay of its scripts, and an empty pair (one
    // update per thread) — what `execute` costs besides the kernel's steps:
    // building the runtime, running the worker job, verifying, shutting down.
    let generate = |updates| Inputs::generate(updates, seed, knobs, &mut Tracer::disabled());
    let set_up = || {
        let inputs = generate(updates_per_thread);
        let empty = generate(1);
        let mut outcome = Outcome::default();
        unrated_pair(&mut outcome, |side| {
            run_trial(&empty, knobs, side, &mut Tracer::disabled()).summary
        });
        (inputs, outcome)
    };
    let mut clock = SetupClock::default();
    let (inputs, mut outcome) = clock.first(set_up);
    // The 1/16-size warm-up pair is not part of `setup_s` (see stream.rs).
    let warm = generate(updates_per_thread / 16 + 1);
    unrated_pair(&mut outcome, |side| {
        run_trial(&warm, knobs, side, &mut Tracer::disabled()).summary
    });
    let pairs = run_pairs(
        budget,
        |side| run_trial(&inputs, knobs, side, &mut Tracer::disabled()),
        || drop(clock.rep(set_up)),
    );
    let pairs = summaries(&pairs, |t| &t.summary);
    rates(&pairs, &mut outcome);
    speedup(&pairs, &mut outcome);
    account(&pairs, &mut outcome);
    outcome.metrics.set("setup_s", clock.setup_s());
    outcome
}

/// The traced pass: where `execute`'s wall-clock goes, and the backend's
/// counts for the run.
pub fn trace(
    knobs: &Knobs,
    seed: u64,
    budget: Budget,
    updates_per_thread: usize,
    tracer: &mut Tracer,
) -> Outcome {
    let mut outcome = Outcome::default();
    let (inputs, _) = tracer.span("setup", |tracer| {
        Inputs::generate(updates_per_thread, seed, knobs, tracer)
    });
    let build_s = span_median(tracer, &[tracer.trial()], "workloads.kernel_build", 1e9);
    let pairs = run_pairs(
        budget,
        |side| run_trial(&inputs, knobs, side, tracer),
        || {},
    );
    account(&summaries(&pairs, |t| &t.summary), &mut outcome);
    let coup: Vec<&KernelTrial> = pairs.iter().map(|(_, c)| c).collect();
    let over = |f: &dyn Fn(&KernelTrial) -> f64| {
        let mut values: Vec<f64> = coup.iter().map(|t| f(t)).collect();
        median(&mut values)
    };
    let ops = over(&|t| t.summary.attempted as f64);
    let m = &mut outcome.metrics;
    m.set("workloads.kernel_build_s", build_s);
    m.set("workloads.execute_s", over(&|t| t.execute_s));
    m.set(
        "workloads.verify_share",
        over(&|t| 1.0 - t.job_s / t.execute_s),
    );
    // (CPU time ticks in 10 ms steps: summed over the trials, not per trial.)
    let cpu_ns: u64 = coup.iter().map(|t| t.cpu_ns).sum();
    m.set(
        "runtime.cpu_ns_per_op",
        cpu_ns as f64 / (ops * coup.len() as f64),
    );
    let expositions: Vec<&Exposition> = coup.iter().filter_map(|t| t.exposition.as_ref()).collect();
    record_counts(m, &expositions, ops);
    outcome
}
