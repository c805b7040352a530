//! The four submission-path workloads: producers push a generated stream
//! through `LaneHandle`s while resident workers drain it.
//!
//! A trial is a fixed op count on a fresh runtime, timed from the first push
//! until `drain()` returns, and verified against the sequential oracle.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    BackendKind, BufferConfig, CoupRuntime, LaneHandle, RuntimeBuilder, TelemetryConfig,
};

use crate::gen::{producer_share, LaneDist, Op, OpStream, Oracle};
use crate::pairs::{
    account, rates, run_pairs, speedup, summaries, unrated_pair, Budget, Side, TrialSummary,
};
use crate::report::Outcome;
use crate::span::{NoSampling, Sample, SampleKind, Sampler, StrideSampling, Tracer};
use crate::stats::{median, percentile};
use crate::sys::{cpu_ns, record_counts, Exposition, Knobs};
use crate::SetupClock;

/// Which read path a stream's reads take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `LaneHandle::read`: reduce and validate.
    Exact,
    /// `LaneHandle::read_stale`: the store word plus a staleness bound.
    Stale,
}

/// One stream workload: its size and the input properties it varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Workload name.
    pub name: &'static str,
    /// Lanes of the runtime (a power of two; 8 lanes per line for AddU64).
    pub lanes: usize,
    /// Operations per trial, split across producers.
    pub ops: u64,
    /// Reads per thousand operations.
    pub reads_per_1000: u32,
    /// The read path.
    pub tier: Tier,
    /// Zipf skew of the lane choice; `None` is uniform.
    pub zipf_theta: Option<f64>,
    /// `BufferConfig::bounded(n)`; `None` is unbounded.
    pub capacity_lines: Option<usize>,
    /// Snapshot refresher period.
    pub refresh: Option<Duration>,
}

/// The stream workloads at full size.
pub const STREAMS: [StreamSpec; 4] = [
    StreamSpec {
        name: "update_stream",
        lanes: 64,
        ops: 6_000_000,
        reads_per_1000: 0,
        tier: Tier::Exact,
        zipf_theta: None,
        capacity_lines: None,
        refresh: None,
    },
    StreamSpec {
        name: "read_mix_exact",
        lanes: 64,
        ops: 2_000_000,
        reads_per_1000: 300,
        tier: Tier::Exact,
        zipf_theta: None,
        capacity_lines: None,
        refresh: None,
    },
    StreamSpec {
        name: "read_mix_stale",
        lanes: 64,
        ops: 2_000_000,
        reads_per_1000: 300,
        tier: Tier::Stale,
        zipf_theta: None,
        capacity_lines: None,
        refresh: Some(Duration::from_millis(1)),
    },
    StreamSpec {
        name: "evict_zipf",
        lanes: 4096,
        ops: 1_000_000,
        reads_per_1000: 0,
        tier: Tier::Exact,
        zipf_theta: Some(0.99),
        capacity_lines: Some(64),
        refresh: None,
    },
];

impl StreamSpec {
    /// The same workload at `1/divisor` of the op count.
    pub fn scaled(mut self, divisor: u64) -> Self {
        self.ops = (self.ops / divisor).max(1);
        self
    }

    /// The fully pinned builder of one side's runtime.
    pub fn builder(&self, knobs: &Knobs, side: Side) -> RuntimeBuilder {
        let buffer = self
            .capacity_lines
            .map_or(BufferConfig::unbounded(), BufferConfig::bounded);
        let builder = RuntimeBuilder::new(CommutativeOp::AddU64, self.lanes)
            .backend(backend_kind(side))
            .workers(knobs.workers)
            .batch_capacity(knobs.batch_capacity)
            .queue_capacity(knobs.queue_capacity)
            .flush_threshold(knobs.flush_threshold)
            .buffer_config(buffer)
            .telemetry(TelemetryConfig::default());
        match self.refresh {
            Some(interval) => builder.refresh_interval(interval),
            None => builder,
        }
    }
}

/// The runtime backend of a pair side.
pub fn backend_kind(side: Side) -> BackendKind {
    match side {
        Side::Atomic => BackendKind::Atomic,
        Side::Coup => BackendKind::Coup,
    }
}

/// Inputs of a stream workload: generated once per run, shared by trials.
#[derive(Debug)]
pub struct Inputs {
    dist: LaneDist,
    oracle: Oracle,
}

impl Inputs {
    /// Generates the lane distribution and replays the oracle.
    pub fn generate(spec: &StreamSpec, knobs: &Knobs, seed: u64) -> Self {
        let dist = LaneDist::new(spec.lanes, spec.zipf_theta);
        let oracle = Oracle::replay(
            seed,
            knobs.producers,
            spec.ops,
            spec.reads_per_1000,
            spec.lanes,
            &dist,
        );
        Inputs { dist, oracle }
    }
}

/// What one trial measured.
#[derive(Debug)]
pub struct StreamTrial {
    /// Rate, failures and exact counts.
    pub summary: TrialSummary,
    /// The telemetry exposition, scraped after `drain()` and before the
    /// verifying snapshot adds its own reads.
    pub exposition: Exposition,
    /// Process CPU time over the timed window.
    pub cpu_ns: u64,
    /// Per-call samples of every producer (traced trials only).
    pub samples: Vec<Sample>,
    /// The tracer's trial id.
    pub trial: u32,
}

struct ProducerOut {
    samples: Vec<Sample>,
    /// Producer body and its final `flush`, as ns since the tracer epoch.
    body: (u64, u64),
    flush: (u64, u64),
}

/// Drives one producer's stream through its handle.
fn produce<S: Sampler>(
    handle: &mut LaneHandle,
    stream: OpStream<'_>,
    tier: Tier,
    batch: usize,
    sampler: &mut S,
) {
    let mut in_batch = 0usize;
    let mut sink = 0u64;
    for op in stream {
        let timed = sampler.sample();
        match op {
            Op::Push(lane) => {
                if timed {
                    // The benchmark counts pushes itself to tell the one that
                    // fills the batch (and publishes it) from the rest.
                    let kind = if in_batch + 1 == batch {
                        SampleKind::Publish
                    } else {
                        SampleKind::Push
                    };
                    let start = Instant::now();
                    handle.push(lane, 1);
                    sampler.record(kind, start, Instant::now());
                } else {
                    handle.push(lane, 1);
                }
                in_batch = if in_batch + 1 == batch {
                    0
                } else {
                    in_batch + 1
                };
            }
            Op::Read(lane) => {
                let start = timed.then(Instant::now);
                let (value, kind) = match tier {
                    Tier::Exact => (handle.read(lane), SampleKind::Read),
                    Tier::Stale => (handle.read_stale(lane).value, SampleKind::ReadStale),
                };
                if let Some(start) = start {
                    sampler.record(kind, start, Instant::now());
                }
                sink = sink.wrapping_add(value);
            }
        }
    }
    black_box(sink);
}

/// Runs one trial on a fresh runtime. An enabled `tracer` records spans and
/// turns on per-call sampling in the producers.
pub fn run_trial(
    spec: &StreamSpec,
    knobs: &Knobs,
    side: Side,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> StreamTrial {
    tracer.next_trial();
    let trial = tracer.trial();
    let sampled = tracer.is_enabled();
    let epoch = tracer.epoch();
    let (trial, _) = tracer.span("trial", |tracer| {
        let runtime: CoupRuntime =
            tracer.leaf("runtime.build", || spec.builder(knobs, side).build());
        let handles: Vec<LaneHandle> = tracer.leaf("runtime.handle", || {
            (0..knobs.producers).map(|_| runtime.handle()).collect()
        });
        let start_line = Barrier::new(knobs.producers + 1);
        let cpu_before = cpu_ns();
        let ((started, outs), stream_span) = tracer.span("phase.stream", |_| {
            std::thread::scope(|scope| {
                let producers: Vec<_> = handles
                    .into_iter()
                    .enumerate()
                    .map(|(producer, mut handle)| {
                        let start_line = &start_line;
                        let dist = &inputs.dist;
                        scope.spawn(move || {
                            let share = producer_share(spec.ops, knobs.producers, producer);
                            let stream =
                                OpStream::new(seed, producer, share, spec.reads_per_1000, dist);
                            let mut sampling =
                                StrideSampling::new(epoch, if sampled { share } else { 0 });
                            start_line.wait();
                            let body_start = Instant::now();
                            if sampled {
                                produce(
                                    &mut handle,
                                    stream,
                                    spec.tier,
                                    knobs.batch_capacity,
                                    &mut sampling,
                                );
                            } else {
                                produce(
                                    &mut handle,
                                    stream,
                                    spec.tier,
                                    knobs.batch_capacity,
                                    &mut NoSampling,
                                );
                            }
                            let flush_start = Instant::now();
                            handle.flush();
                            let end = Instant::now();
                            let ns = |at: Instant| (at - epoch).as_nanos() as u64;
                            ProducerOut {
                                samples: sampling.samples,
                                body: (ns(body_start), ns(end)),
                                flush: (ns(flush_start), ns(end)),
                            }
                            // `handle` drops here and retires its shard slot.
                        })
                    })
                    .collect();
                start_line.wait();
                let started = Instant::now();
                let outs: Vec<ProducerOut> = producers
                    .into_iter()
                    .map(|p| p.join().expect("producer thread panicked"))
                    .collect();
                (started, outs)
            })
        });
        tracer.leaf("runtime.drain", || runtime.drain());
        let elapsed = started.elapsed();
        let cpu_ns = cpu_ns().saturating_sub(cpu_before);

        let mut samples = Vec::new();
        for out in outs {
            if let Some(stream_span) = stream_span {
                let body = tracer.adopt("producer", stream_span, out.body.0, out.body.1);
                tracer.adopt("runtime.flush", body, out.flush.0, out.flush.1);
                tracer.adopt_samples(body, &out.samples);
            }
            samples.extend(out.samples);
        }

        black_box(tracer.leaf("telemetry.metrics", || runtime.telemetry().metrics()));
        let exposition = Exposition::parse(
            &tracer.leaf("telemetry.prometheus", || runtime.telemetry().prometheus()),
        );
        let snapshot = tracer.leaf("runtime.snapshot", || runtime.snapshot());
        black_box(tracer.leaf("runtime.shutdown", || runtime.shutdown()));

        let ops = inputs.oracle.pushes + inputs.oracle.reads;
        StreamTrial {
            summary: TrialSummary {
                mops: ops as f64 / elapsed.as_secs_f64() / 1e6,
                attempted: ops,
                failed: inputs.oracle.mismatch(&snapshot),
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
            exposition,
            cpu_ns,
            samples,
            trial,
        }
    });
    trial
}

/// Set-up of one stream workload: the inputs, the oracle, and an **empty
/// pair** — everything a trial costs besides its stream: building both
/// runtimes, spawning their workers, draining, snapshotting, shutting down.
pub fn set_up(spec: &StreamSpec, knobs: &Knobs, seed: u64) -> (Inputs, Outcome) {
    let inputs = Inputs::generate(spec, knobs, seed);
    let empty = spec.scaled(spec.ops);
    let empty_inputs = Inputs::generate(&empty, knobs, seed);
    let mut outcome = Outcome::default();
    unrated_pair(&mut outcome, |side| {
        run_trial(
            &empty,
            knobs,
            side,
            seed,
            &empty_inputs,
            &mut Tracer::disabled(),
        )
        .summary
    });
    (inputs, outcome)
}

/// The untraced pass: the end-to-end figures of one stream workload.
pub fn measure(spec: &StreamSpec, knobs: &Knobs, seed: u64, budget: Budget) -> Outcome {
    let mut clock = SetupClock::default();
    let (inputs, mut outcome) = clock.first(|| set_up(spec, knobs, seed));
    // The warm-up pair streams at 1/16 size. It is not part of `setup_s`:
    // so short a two-thread run takes twice as long whenever the scheduler
    // first stacks producer and worker on one CPU, which says nothing about
    // set-up cost.
    let warm = spec.scaled(16);
    let warm_inputs = Inputs::generate(&warm, knobs, seed);
    unrated_pair(&mut outcome, |side| {
        run_trial(
            &warm,
            knobs,
            side,
            seed,
            &warm_inputs,
            &mut Tracer::disabled(),
        )
        .summary
    });
    let pairs = run_pairs(
        budget,
        |side| run_trial(spec, knobs, side, seed, &inputs, &mut Tracer::disabled()).summary,
        || drop(clock.rep(|| set_up(spec, knobs, seed))),
    );
    rates(&pairs, &mut outcome);
    speedup(&pairs, &mut outcome);
    account(&pairs, &mut outcome);
    outcome.metrics.set("setup_s", clock.setup_s());
    outcome
}

/// Median duration, in `unit_ns` units, of the spans named `name` in trials
/// `trials`.
pub fn span_median(tracer: &Tracer, trials: &[u32], name: &str, unit_ns: f64) -> f64 {
    let mut durations: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|span| span.name == name && trials.contains(&span.trial))
        .map(|span| span.duration_ns() as f64 / unit_ns)
        .collect();
    if durations.is_empty() {
        0.0
    } else {
        median(&mut durations)
    }
}

/// The traced pass: traced atomic/coup pairs, each with one more untraced
/// coup trial beside it to price the tracing, and the per-layer figures they
/// yield. It records no rate: headline figures come from [`measure`].
pub fn trace(
    spec: &StreamSpec,
    knobs: &Knobs,
    seed: u64,
    budget: Budget,
    timer_ns: u64,
    tracer: &mut Tracer,
) -> Outcome {
    let inputs = Inputs::generate(spec, knobs, seed);
    let mut outcome = Outcome::default();
    let mut untraced: Vec<StreamTrial> = Vec::new();
    let trial = |side| {
        if side == Side::Atomic {
            return run_trial(spec, knobs, side, seed, &inputs, tracer);
        }
        // Alternate which of the two coup trials goes first.
        let plain = || run_trial(spec, knobs, side, seed, &inputs, &mut Tracer::disabled());
        if untraced.len().is_multiple_of(2) {
            let trial = run_trial(spec, knobs, side, seed, &inputs, tracer);
            untraced.push(plain());
            trial
        } else {
            untraced.push(plain());
            run_trial(spec, knobs, side, seed, &inputs, tracer)
        }
    };
    let traced = run_pairs(budget, trial, || {});

    account(&summaries(&traced, |t| &t.summary), &mut outcome);
    for trial in &untraced {
        outcome.attempted += trial.summary.attempted;
        outcome.failed += trial.summary.failed;
    }

    let coup: Vec<&StreamTrial> = traced.iter().map(|(_, c)| c).collect();
    let coup_trials: Vec<u32> = coup.iter().map(|t| t.trial).collect();
    let m = &mut outcome.metrics;

    // Per-call times: pooled samples of the coup trials, timer cost removed.
    let mut by_kind: [Vec<u64>; 4] = Default::default();
    for sample in coup.iter().flat_map(|t| &t.samples) {
        by_kind[sample.kind.index()].push(u64::from(sample.dur_ns).saturating_sub(timer_ns));
    }
    for durations in &mut by_kind {
        durations.sort_unstable();
    }
    let quantile = |kind: SampleKind, q: f64| {
        percentile(&by_kind[kind.index()], q).map_or(0.0, |ns| ns as f64)
    };
    m.set("runtime.push_ns", quantile(SampleKind::Push, 0.5));
    m.set("runtime.publish_ns", quantile(SampleKind::Publish, 0.5));
    m.set("runtime.read_ns_p50", quantile(SampleKind::Read, 0.5));
    m.set("runtime.read_ns_p99", quantile(SampleKind::Read, 0.99));
    m.set(
        "runtime.read_stale_ns_p50",
        quantile(SampleKind::ReadStale, 0.5),
    );

    m.set(
        "runtime.build_us",
        span_median(tracer, &coup_trials, "runtime.build", 1e3),
    );
    m.set(
        "runtime.drain_wait_us",
        span_median(tracer, &coup_trials, "runtime.drain", 1e3),
    );
    m.set(
        "runtime.shutdown_us",
        span_median(tracer, &coup_trials, "runtime.shutdown", 1e3),
    );

    let ops = (inputs.oracle.pushes + inputs.oracle.reads) as f64;
    let expositions: Vec<&Exposition> = coup.iter().map(|t| &t.exposition).collect();
    record_counts(m, &expositions, ops);

    // CPU per op and tracing overhead, against the untraced coup trials.
    // (CPU time ticks in 10 ms steps: summed over the trials, not per trial.)
    let cpu_ns: u64 = untraced.iter().map(|t| t.cpu_ns).sum();
    m.set(
        "runtime.cpu_ns_per_op",
        cpu_ns as f64 / (ops * untraced.len() as f64),
    );
    let mut plain: Vec<f64> = untraced.iter().map(|t| t.summary.mops).collect();
    let mut sampled: Vec<f64> = coup.iter().map(|t| t.summary.mops).collect();
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - median(&mut sampled) / median(&mut plain)),
    );

    // The generator alone, into a no-op sink: its share of producer time.
    let share = producer_share(spec.ops, knobs.producers, 0);
    let started = Instant::now();
    for op in OpStream::new(seed, 0, share, spec.reads_per_1000, &inputs.dist) {
        black_box(op);
    }
    m.set(
        "gen.ns_per_op",
        started.elapsed().as_nanos() as f64 / share as f64,
    );
    outcome
}
