//! Unit tests of the service facade: builder, producer handles, typed
//! handles, worker jobs, shutdown, the stale tier and the refresher.

use std::time::Instant;

use super::*;

fn counting_runtime(lanes: usize, workers: usize, batch: usize) -> CoupRuntime {
    RuntimeBuilder::new(CommutativeOp::AddU64, lanes)
        .workers(workers)
        .batch_capacity(batch)
        .build()
}

#[test]
fn builder_defaults_and_accessors() {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU32, 64).build();
    assert_eq!(rt.op(), CommutativeOp::AddU32);
    assert_eq!(rt.lanes(), 64);
    assert_eq!(rt.workers(), 1);
    assert_eq!(rt.backend_name(), "coup");
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
        .backend(BackendKind::Atomic)
        .workers(3)
        .build();
    assert_eq!(rt.backend_name(), "atomic");
    assert_eq!(rt.workers(), 3);
}

#[test]
#[should_panic(expected = "at least one worker")]
fn zero_workers_is_rejected() {
    let _ = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
        .workers(0)
        .build();
}

#[test]
fn full_batches_flush_by_size_alone() {
    let rt = counting_runtime(8, 2, 4);
    let mut sub = rt.handle();
    for _ in 0..8 {
        sub.push(3, 1); // two full batches, no explicit flush
    }
    assert_eq!(sub.pending(), 0, "full batches were published");
    rt.drain();
    assert_eq!(rt.read(3), 8);
    let metrics = rt.metrics();
    assert_eq!((metrics.updates_submitted, metrics.updates_applied), (8, 8));
}

#[test]
fn explicit_flush_publishes_partial_batches() {
    let rt = counting_runtime(8, 1, 1024);
    let mut handle = rt.handle();
    handle.push(0, 5);
    handle.push(1, 7);
    assert_eq!(handle.pending(), 2);
    handle.flush();
    rt.drain();
    assert_eq!(rt.read(0), 5);
    assert_eq!(handle.read(1), 7);
}

#[test]
fn dropping_a_handle_flushes_its_batch() {
    let rt = counting_runtime(8, 2, 1024);
    let mut sub = rt.handle();
    sub.push(2, 9);
    drop(sub); // far below batch capacity: only Drop can publish this
    rt.drain();
    assert_eq!(rt.read(2), 9);
}

#[test]
fn clones_are_independent_producers() {
    let rt = counting_runtime(8, 2, 16);
    let mut a = rt.handle();
    a.push(0, 1);
    let b = a.clone();
    assert_eq!(b.pending(), 0, "a clone starts with an empty batch");
    drop(a);
    drop(b);
    rt.drain();
    assert_eq!(rt.read(0), 1);
}

#[test]
fn typed_handles_check_the_operation_once() {
    let rt = RuntimeBuilder::new(CommutativeOp::Or64, 8).build();
    let mut bits = rt.counter::<tag::Or64>();
    bits.apply(1, 0b1010);
    bits.apply(1, 0b0101);
    bits.flush();
    rt.drain();
    assert_eq!(bits.get(1), 0b1111);
}

#[test]
#[should_panic(expected = "typed handle mismatch")]
fn mismatched_typed_handle_is_rejected() {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 8).build();
    let _ = rt.counter::<tag::Or64>();
}

#[test]
fn counter_convenience_methods_add() {
    let rt = counting_runtime(8, 1, 4);
    let mut counter = rt.counter::<tag::Add64>();
    counter.add(5, 41);
    counter.increment(5);
    counter.flush();
    rt.drain();
    assert_eq!(counter.get(5), 42);
    assert_eq!(counter.raw().lanes(), 8);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_lane_is_rejected_at_push() {
    let rt = counting_runtime(8, 1, 4);
    rt.handle().push(8, 1);
}

#[test]
fn shutdown_returns_exact_snapshot_and_merged_report() {
    let rt = counting_runtime(4, 2, 3);
    let mut h = rt.handle();
    for lane in 0..4 {
        for _ in 0..5 {
            h.push(lane, 2);
        }
    }
    h.flush();
    let _ = h.read(0);
    drop(h);
    let result = rt.shutdown();
    assert_eq!(result.snapshot, vec![10, 10, 10, 10]);
    assert_eq!(result.report.updates, 20);
    assert_eq!(result.report.reads, 1);
    assert_eq!(result.report.threads, 2);
}

#[test]
fn shutdown_drains_batches_still_queued() {
    // A burst larger than the workers can have applied by the time
    // shutdown is called: closing the gate must still apply everything.
    let rt = counting_runtime(16, 1, 8);
    let mut sub = rt.handle();
    for i in 0..4096 {
        sub.push(i % 16, 1);
    }
    drop(sub);
    let result = rt.shutdown();
    assert_eq!(result.snapshot, vec![256u64; 16]);
    assert_eq!(result.report.updates, 4096);
}

#[test]
#[should_panic(expected = "shut down")]
fn submitting_after_shutdown_panics() {
    let rt = counting_runtime(8, 1, 2);
    let mut sub = rt.handle();
    let result = rt.shutdown();
    assert_eq!(result.report.updates, 0);
    sub.push(0, 1);
    sub.push(0, 1); // fills the batch → submit → panic
}

#[test]
fn atomic_and_coup_runtimes_agree_through_the_frontend() {
    let totals: Vec<Vec<u64>> = [BackendKind::Atomic, BackendKind::Coup]
        .into_iter()
        .map(|kind| {
            let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 32)
                .backend(kind)
                .workers(2)
                .batch_capacity(7)
                .build();
            std::thread::scope(|scope| {
                for p in 0..3 {
                    let mut sub = rt.handle();
                    scope.spawn(move || {
                        for i in 0..500 {
                            sub.push((p * 7 + i) % 32, 1 + (i as u64 % 3));
                        }
                    });
                }
            });
            rt.shutdown().snapshot
        })
        .collect();
    assert_eq!(totals[0], totals[1]);
}

#[test]
fn run_workers_gives_barriers_and_read_your_writes() {
    let rt = counting_runtime(8, 4, 16);
    let (results, elapsed) = rt.run_workers(|ctx| {
        ctx.update(ctx.worker(), 7);
        assert_eq!(ctx.read(ctx.worker()), 7, "read-your-writes");
        ctx.barrier();
        // After the barrier every worker's lane is visible to everyone.
        for w in 0..ctx.workers() {
            assert_eq!(ctx.read(w), 7);
        }
        ctx.worker()
    });
    assert_eq!(results, vec![0, 1, 2, 3]);
    assert!(elapsed > Duration::ZERO);
    // Workers flushed on job exit: the snapshot is exact with no drain.
    assert_eq!(rt.snapshot(), vec![7, 7, 7, 7, 0, 0, 0, 0]);
}

#[test]
#[should_panic(expected = "run_workers on a runtime that serves handles")]
fn run_workers_refuses_a_runtime_that_serves_handles() {
    let rt = counting_runtime(4, 2, 4);
    let _sub = rt.handle();
    rt.run_workers(|ctx| ctx.update(1, 1));
}

#[test]
fn a_panicking_job_does_not_wedge_the_queue() {
    let rt = counting_runtime(4, 2, 2);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_workers(|ctx| {
            // A spawned worker, not the calling thread: its payload must
            // cross the join.
            if ctx.worker() == 1 {
                panic!("kernel assertion failed: lane 7 mismatch");
            }
        });
    }));
    let payload = panicked.expect_err("the job panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"kernel assertion failed: lane 7 mismatch"),
        "the worker's own payload must survive the join"
    );
    // A later job still runs on the poisoned job lock.
    let (results, _) = rt.run_workers(|ctx| ctx.worker());
    assert_eq!(results, vec![0, 1]);
    // And a handle still spawns the drainers: submissions flow end to end.
    let mut sub = rt.handle();
    assert_eq!(lock(&rt.drainers).len(), 2);
    for _ in 0..6 {
        sub.push(1, 1);
    }
    drop(sub);
    rt.drain();
    assert_eq!(rt.read(1), 6);
}

/// A producer that panics with a half-filled batch loses nothing: its
/// handle's `Drop` runs during the unwind and publishes the partial batch,
/// and shutdown neither hangs nor leaves a submitted update unapplied.
#[test]
fn a_producer_panicking_mid_batch_publishes_its_partial_batch() {
    let rt = counting_runtime(8, 2, 16);
    let mut sub = rt.handle();
    let producer = std::thread::spawn(move || {
        (0..5).for_each(|lane| sub.push(lane, lane as u64 + 1));
        assert_eq!(sub.pending(), 5, "below capacity: nothing published");
        panic!("producer failed mid-batch");
    });
    assert!(producer.join().is_err(), "the panic reaches the join");
    rt.drain();
    assert_eq!(rt.snapshot(), vec![1, 2, 3, 4, 5, 0, 0, 0]);
    let metrics = rt.shutdown().report.metrics;
    assert_eq!((metrics.updates_submitted, metrics.updates_applied), (5, 5));
}

#[test]
fn a_tiny_queue_capacity_applies_backpressure_without_losing_updates() {
    // queue_capacity 1: every producer's ring holds one update, so
    // producers constantly park on the full edge and must be woken by
    // worker drains — every update still lands.
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
        .workers(1)
        .batch_capacity(2)
        .queue_capacity(1)
        .build();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let mut sub = rt.handle();
            scope.spawn(move || {
                for i in 0..400 {
                    sub.push(i % 8, 1);
                }
            });
        }
    });
    let result = rt.shutdown();
    assert_eq!(result.snapshot, vec![150u64; 8]);
    assert_eq!(result.report.updates, 1200);
}

#[test]
fn update_read_through_job_ctx_matches_backends() {
    for kind in [BackendKind::Atomic, BackendKind::Coup] {
        let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 2)
            .backend(kind)
            .workers(1)
            .build();
        let (values, _) = rt.run_workers(|ctx| {
            ctx.update(0, 5);
            ctx.update_read(0, 3)
        });
        assert_eq!(values, vec![8], "{kind:?}");
    }
}

#[test]
fn workers_spawn_lazily_on_the_first_handle() {
    let rt = counting_runtime(4, 2, 4);
    assert!(
        lock(&rt.drainers).is_empty(),
        "no resident workers before the first handle"
    );
    // Kernel-only use never spawns drainers.
    rt.run_workers(|ctx| ctx.update(0, 1));
    assert!(lock(&rt.drainers).is_empty());
    let mut sub = rt.handle();
    assert_eq!(lock(&rt.drainers).len(), 2, "first handle spawns workers");
    sub.push(1, 5);
    drop(sub);
    let result = rt.shutdown();
    assert_eq!(result.snapshot, vec![2, 5, 0, 0]);
}

#[test]
fn facade_stale_reads_bound_buffered_updates_and_count_in_metrics() {
    let rt = counting_runtime(8, 1, 4);
    let mut sub = rt.handle();
    for _ in 0..8 {
        sub.push(2, 1);
    }
    drop(sub);
    rt.drain();
    // Applied but still buffered in worker 0's privatized slot (the
    // default threshold never flushes 8 updates): the relaxed tier sees
    // the un-reduced store word and reports the full deficit.
    let stale = rt.read_stale(2);
    assert_eq!((stale.value, stale.staleness), (0, 8));
    assert_eq!(rt.read(2), 8, "the exact tier reduces");
    let metrics = rt.metrics();
    assert_eq!(metrics.stale_reads, 1);
    // The histograms live in the registry, which `--no-default-features`
    // compiles out. The exact read is tallied; the stale read reduces
    // nothing.
    #[cfg(feature = "telemetry")]
    {
        assert_eq!((metrics.staleness.count(), metrics.staleness.sum), (1, 8));
        assert_eq!(metrics.read_cost.reads, 1);
    }
    // The lifetime report counts both tiers: one exact read, one stale.
    assert_eq!(rt.shutdown().report.reads, 2);

    // A kernel-only runtime: run_workers flushes every worker buffer on
    // job exit, so the relaxed tier owes nothing.
    let rt = counting_runtime(8, 1, 4);
    rt.run_workers(|ctx| (0..8).for_each(|_| ctx.update(2, 1)));
    let stale = rt.read_stale(2);
    assert_eq!((stale.value, stale.staleness), (8, 0));
    let metrics = rt.metrics();
    assert_eq!(metrics.stale_reads, 1);
    #[cfg(feature = "telemetry")]
    assert_eq!((metrics.staleness.count(), metrics.staleness.sum), (1, 0));
}

#[test]
fn typed_and_raw_handles_serve_the_stale_tier() {
    let rt = counting_runtime(8, 1, 2);
    let mut counter = rt.counter::<tag::Add64>();
    counter.add(3, 20);
    counter.add(3, 22);
    counter.flush();
    rt.drain();
    // The bound counts outstanding *deltas*, not their magnitude: both
    // updates sit in worker 0's buffer, so the store word is 0 and two
    // deltas are reported missing.
    let stale = counter.get_stale(3);
    assert_eq!((stale.value, stale.staleness), (0, 2));
    assert_eq!(counter.get(3), 42, "the exact tier reduces");
    let handle = rt.handle();
    let stale = handle.read_stale(3);
    assert_eq!(stale.value, 0, "exact reads do not migrate the deltas");
    assert_eq!(stale.staleness, 2);
}

#[test]
fn refresh_now_publishes_inline_without_a_refresher() {
    let rt = counting_runtime(4, 1, 2);
    let (words, epoch) = rt.stale_snapshot();
    assert_eq!((words, epoch), (vec![0; 4], 0), "no snapshot yet");
    let mut sub = rt.handle();
    sub.push(1, 5);
    sub.flush();
    drop(sub);
    rt.drain();
    rt.refresh_now();
    let (words, epoch) = rt.stale_snapshot();
    assert_eq!(words[1], 5, "snapshot words are exact reads");
    assert!(epoch >= 1);
    assert!(rt.metrics().snapshot_refreshes >= 1);
}

#[test]
fn a_live_refresher_ticks_and_refresh_now_interrupts_its_sleep() {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 4)
        .workers(1)
        .refresh_interval(Duration::from_millis(1))
        .build();
    // Interval ticks publish with no demand at all.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.stale_snapshot().1 < 2 {
        assert!(Instant::now() < deadline, "refresher never ticked");
        std::thread::yield_now();
    }
    let mut sub = rt.handle();
    sub.push(0, 7);
    sub.flush();
    drop(sub);
    rt.drain();
    rt.refresh_now();
    assert_eq!(rt.stale_snapshot().0[0], 7);
    // Shutdown closes the refresh parker and joins the refresher.
    let result = rt.shutdown();
    assert_eq!(result.snapshot[0], 7);
    assert!(result.report.metrics.snapshot_refreshes >= 3);
}

#[test]
fn dropping_a_refresher_only_runtime_joins_the_refresher() {
    // No handle ever spawns drainers; Drop must still close the gate
    // and join the refresher thread (no leak, no hang).
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 4)
        .refresh_interval(Duration::from_secs(3600))
        .build();
    rt.refresh_now();
    assert!(rt.stale_snapshot().1 >= 1);
    drop(rt);
}

#[test]
fn shard_stats_track_claims_and_recycling() {
    let rt = counting_runtime(4, 1, 2);
    let mut a = rt.handle();
    a.push(0, 1);
    drop(a); // publish + retire slot 0
    rt.drain();
    // The slot frees once drained; the next producer recycles it.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut b = rt.handle();
        b.push(1, 1);
        drop(b);
        rt.drain();
        let stats = rt.shard_stats();
        if stats.len() == 1 && stats[0].claims >= 2 {
            assert!(!stats[0].live);
            assert!(stats[0].drained >= 2);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slot 0 was never recycled: {stats:?}"
        );
    }
    let result = rt.shutdown();
    assert_eq!(result.snapshot[0], 1);
}

/// A snapshot is not a read: `snapshot()`, an inline `refresh_now()` and a
/// live refresher's ticks all leave the read tallies where they were.
#[test]
fn snapshots_and_refreshes_are_not_tallied_as_reads() {
    let tally = |rt: &CoupRuntime| {
        let metrics = rt.metrics();
        (metrics.read_cost.reads, metrics.read_width.count())
    };
    let rt = counting_runtime(64, 1, 4);
    assert_eq!(rt.read(3), 0); // one real read, so an empty tally is not the reason
    let before = tally(&rt);
    assert_eq!(rt.snapshot(), vec![0; 64]);
    for _ in 0..10 {
        rt.refresh_now();
    }
    assert_eq!(tally(&rt), before);

    let live = RuntimeBuilder::new(CommutativeOp::AddU64, 64)
        .refresh_interval(Duration::from_millis(1))
        .build();
    let deadline = Instant::now() + Duration::from_secs(10);
    while live.stale_snapshot().1 < 10 {
        assert!(Instant::now() < deadline, "refresher never ticked");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tally(&live), (0, 0), "ten idle ticks, no caller read");
}
