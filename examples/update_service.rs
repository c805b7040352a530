//! The service shape: N producer threads feeding a long-lived
//! [`CoupRuntime`] through cheap, clonable, typed handles — the software
//! analogue of many cores issuing COUP update-request messages into the
//! coherence fabric, and the repository's answer to "how does this serve
//! millions of users?".
//!
//! Three sections:
//!
//! 1. **The service**: an event-counting service (think per-endpoint request
//!    counters) where producers batch Zipf-skewed increments through
//!    `CounterHandle<tag::Add64>`s while a monitor thread reads hot counters
//!    live through the synchronous O(active-writers) read path. At the end,
//!    `shutdown()` quiesces the resident workers and returns the exact
//!    totals plus the merged throughput report — every submitted update
//!    accounted for, asserted against the known event count.
//! 2. **The batch-size sweep**: the same producer traffic pushed with batch
//!    capacities from 1 (per-op submission: one queue hand-off per update)
//!    upward, demonstrating why the frontend batches — per-op submission
//!    pays the MPSC synchronisation on every update, batching amortises it
//!    to nothing. The crossover is recorded in the README.
//! 3. **Live telemetry**: a clonable [`TelemetryHandle`] polled *while the
//!    producers are running* — each poll is a consistent
//!    [`MetricsSnapshot`](coup_runtime::MetricsSnapshot) assembled from the
//!    per-worker registry with no stop-the-world — followed by the
//!    Prometheus text exposition of the final snapshot (what a scraper
//!    would collect from a real deployment; the CI telemetry lane greps
//!    this output for the metric families).
//!
//! Run with: `cargo run --release --example update_service`

use std::time::Instant;

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    splitmix64, tag, BackendKind, BufferConfig, CoupRuntime, LaneSampler, RuntimeBuilder,
    TelemetryHandle,
};

const COUNTERS: usize = 1024;
const PRODUCERS: usize = 8;
const EVENTS_PER_PRODUCER: usize = 200_000;

/// Drives `PRODUCERS` threads of Zipf-skewed counter increments into
/// `runtime` and returns (events submitted, wall seconds).
fn produce(runtime: &CoupRuntime, monitor: bool) -> (u64, f64) {
    let sampler = LaneSampler::new(COUNTERS, 0.99);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let mut counter = runtime.counter::<tag::Add64>();
            let sampler = &sampler;
            scope.spawn(move || {
                let mut state = 0xFACADE_u64 ^ (producer as u64) << 32;
                for _ in 0..EVENTS_PER_PRODUCER {
                    let endpoint = sampler.lane(splitmix64(&mut state));
                    counter.increment(endpoint);
                }
            }); // handle drop flushes the final partial batch
        }
        if monitor {
            // A live dashboard: synchronous reads race the producers and see
            // quiescently consistent values (never more than submitted).
            let handle = runtime.handle();
            scope.spawn(move || {
                let mut peak = 0u64;
                for _ in 0..50 {
                    peak = peak.max(handle.read(0));
                    std::thread::yield_now();
                }
                assert!(
                    peak <= (PRODUCERS * EVENTS_PER_PRODUCER) as u64,
                    "a live read can never overshoot the submitted total"
                );
            });
        }
    });
    runtime.drain();
    let elapsed = start.elapsed().as_secs_f64();
    ((PRODUCERS * EVENTS_PER_PRODUCER) as u64, elapsed)
}

fn service_section() {
    println!(
        "event-counting service: {PRODUCERS} producers x {EVENTS_PER_PRODUCER} zipf(0.99) \
         events over {COUNTERS} counters, 2 resident workers\n"
    );
    for kind in [BackendKind::Atomic, BackendKind::Coup] {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, COUNTERS)
            .backend(kind)
            .workers(2)
            .batch_capacity(256)
            .build();
        let name = runtime.backend_name();
        let (events, secs) = produce(&runtime, true);
        let result = runtime.shutdown();
        let total: u64 = result.snapshot.iter().sum();
        assert_eq!(total, events, "every submitted event must be applied");
        assert_eq!(result.report.updates, events);
        println!(
            "  {name:>6}: {:>7.2} M events/s  (hottest counter {}, report: {} updates, {} reads)",
            events as f64 / secs / 1e6,
            result.snapshot.iter().max().expect("counters exist"),
            result.report.updates,
            result.report.reads,
        );
    }
    println!();
}

fn batch_sweep_section() {
    println!(
        "batch-size sweep (coup backend): per-op submission (b=1) vs batched, \
         {PRODUCERS} producers, 2 workers"
    );
    println!("  {:>6} | {:>14} | {:>8}", "batch", "M events/s", "speedup");
    let mut per_op_rate = None;
    for batch in [1usize, 8, 64, 256, 1024] {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, COUNTERS)
            .workers(2)
            .batch_capacity(batch)
            .build();
        let (events, secs) = produce(&runtime, false);
        let result = runtime.shutdown();
        assert_eq!(result.report.updates, events);
        let rate = events as f64 / secs / 1e6;
        let per_op = *per_op_rate.get_or_insert(rate);
        println!("  {batch:>6} | {rate:>14.2} | {:>7.2}x", rate / per_op);
    }
    println!();
}

/// Polls `telemetry` while producers run, printing live (non-final)
/// counters; returns how many polls observed work still in flight.
fn live_monitor(telemetry: &TelemetryHandle, total_events: u64) -> u64 {
    let mut in_flight_polls = 0;
    let mut last_applied = 0u64;
    for tick in 0.. {
        let snap = telemetry.metrics();
        assert!(
            snap.updates_applied >= last_applied,
            "snapshots are monotone"
        );
        last_applied = snap.updates_applied;
        let live = snap.updates_applied < snap.updates_submitted;
        if live {
            in_flight_polls += 1;
        }
        if tick % 8 == 0 || live {
            println!(
                "    poll {tick:>3}: submitted {:>9}  applied {:>9}  privatized {:>7}                   evictions {:>6}  admission-bypasses {:>6}  dwell-mean {:>6.1}us{}",
                snap.updates_submitted,
                snap.updates_applied,
                snap.buffer_stats.privatized,
                snap.buffer_stats.evictions,
                snap.buffer_stats.admission_bypasses,
                snap.queue_dwell_us.mean(),
                if live { "  [mid-run]" } else { "" },
            );
        }
        if snap.updates_applied >= total_events || tick >= 400 {
            break;
        }
        std::thread::yield_now();
    }
    in_flight_polls
}

fn telemetry_section() {
    println!(
        "live telemetry (coup backend): a TelemetryHandle polled while the          producers run\n"
    );
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, COUNTERS)
        .workers(2)
        .batch_capacity(256)
        .buffer_config(BufferConfig::bounded(64))
        .build();
    let telemetry = runtime.telemetry();
    let total_events = (PRODUCERS * EVENTS_PER_PRODUCER) as u64;
    let sampler = LaneSampler::new(COUNTERS, 0.99);
    let in_flight_polls = std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let mut counter = runtime.counter::<tag::Add64>();
            let sampler = &sampler;
            scope.spawn(move || {
                let mut state = 0xFACADE_u64 ^ (producer as u64) << 32;
                for _ in 0..EVENTS_PER_PRODUCER {
                    counter.increment(sampler.lane(splitmix64(&mut state)));
                }
            });
        }
        scope
            .spawn(|| live_monitor(&telemetry, total_events))
            .join()
            .expect("monitor panicked")
    });
    runtime.drain();
    println!("  polls that caught work in flight: {in_flight_polls}");
    let snap = runtime.metrics();
    assert_eq!(snap.updates_applied, total_events);
    assert_eq!(
        snap.batch_size.sum, total_events,
        "batch-size histogram accounts for every applied update"
    );

    // The final snapshot in the Prometheus text exposition format — what a
    // scraper would collect. The CI telemetry lane greps these families.
    println!("\n--- prometheus exposition ---");
    print!("{}", snap.to_prometheus());
    println!("--- end exposition ---\n");
    let result = runtime.shutdown();
    assert_eq!(result.report.updates, total_events);
}

fn main() {
    println!("== CoupRuntime as an update service ==\n");
    service_section();
    batch_sweep_section();
    telemetry_section();
}
