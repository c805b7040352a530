//! Unit tests of demotion (`demote`, `clear_demotions`, `exact_read` and
//! `demoting_update_read` in `read.rs`, `announce_writer` in `buffer.rs`):
//! an exact read or a decrement-and-test takes its line out of the
//! privatized state until the job ends, and a decrement-and-test is one
//! store fetch-op while no worker buffers the line.

use super::*;
use crate::harness::splitmix64;
use crate::runtime::RuntimeBuilder;

/// Worker 1's `update_read` demotes line 0 and its plain `read` line 1:
/// worker 0's next first delta to either line announces no writer, lands in
/// the store at once and counts as a demoted bypass. Line 2, never read,
/// still buffers.
#[test]
fn a_demoted_line_takes_its_first_delta_straight_to_the_store() {
    let lanes_per_line = 8;
    let b = sized_backend(
        CommutativeOp::AddU64,
        3 * lanes_per_line,
        2,
        BufferConfig::unbounded(),
    );
    assert_eq!(b.read(1, lanes_per_line), 0, "a plain read of line 1");
    assert_eq!(b.update_read(1, 0, 5), 5, "an empty bitmap: one fetch-op");
    assert_eq!(b.store().load_lane(0), 5);

    b.update(0, 1, 3);
    assert_eq!(
        b.line_meta[0].writers.load(Ordering::Relaxed),
        0,
        "a demoted line's first delta announces no writer"
    );
    assert_eq!(b.store().load_lane(1), 3, "and is store-visible at once");
    b.update(0, 1, 4);
    assert_eq!(b.store().load_lane(1), 7, "so is every later one");
    assert_eq!(b.read(1, 1), 7);
    assert_stats(&b, |s| assert_eq!(s.demoted_bypasses, 2));

    b.update(0, lanes_per_line, 2);
    assert_eq!(
        b.line_meta[1].writers.load(Ordering::Relaxed),
        0,
        "the line that was only read is demoted too"
    );
    assert_eq!(b.store().load_lane(lanes_per_line), 2);
    assert_stats(&b, |s| assert_eq!(s.demoted_bypasses, 3));

    b.update(0, 2 * lanes_per_line, 1);
    assert_eq!(
        b.line_meta[2].writers.load(Ordering::Relaxed),
        0b01,
        "the line nobody read still buffers"
    );
    assert_eq!(b.store().load_lane(2 * lanes_per_line), 0);
    assert_stats(&b, |s| assert_eq!(s.demoted_bypasses, 3));
}

/// Of the read paths only the exact one demotes: the stale tier and a
/// snapshot leave the flag clear, the read sets it on its own line alone,
/// the slot that already holds a delta keeps buffering until its threshold
/// flush drains it, and only the first delta after that drain goes to the
/// store.
#[test]
fn an_exact_read_demotes_its_line_but_read_stale_and_snapshot_do_not() {
    let lanes_per_line = 8;
    let b = coup_backend(
        CommutativeOp::AddU64,
        2 * lanes_per_line,
        2,
        4,
        BufferConfig::unbounded(),
    );
    let demoted = |line: usize| b.line_meta[line].demoted.load(Ordering::Relaxed);
    b.update(0, 0, 1);
    assert_eq!(
        b.read_stale(1, 0),
        StaleRead {
            value: 0,
            staleness: 1
        }
    );
    assert_eq!(b.snapshot()[0], 1);
    assert_eq!(
        demoted(0),
        0,
        "neither the stale tier nor a snapshot demotes"
    );

    assert_eq!(b.read(1, 0), 1);
    assert_eq!(
        (demoted(0), demoted(1)),
        (1, 0),
        "an exact read demotes its line"
    );

    b.update(0, 0, 1);
    assert_eq!(
        b.store().load_lane(0),
        0,
        "a slot holding a delta keeps buffering"
    );
    b.update(0, 0, 1);
    b.update(0, 0, 1);
    assert_eq!(b.store().load_lane(0), 4, "until its threshold flush");
    assert_eq!(b.line_meta[0].writers.load(Ordering::Relaxed), 0);
    assert_stats(&b, |s| assert_eq!((s.flushes, s.demoted_bypasses), (1, 0)));

    b.update(0, 0, 1);
    assert_eq!(b.store().load_lane(0), 5, "the first delta after the drain");
    assert_eq!(b.line_meta[0].writers.load(Ordering::Relaxed), 0);
    assert_stats(&b, |s| assert_eq!(s.demoted_bypasses, 1));
}

/// A worker's flush drains its buffer and leaves the job's demotions in
/// place, so a worker that finishes first does not re-privatize a line
/// another worker's read demoted; only `end_job` clears the flags.
#[test]
fn a_worker_flush_keeps_the_jobs_demotions_until_the_job_ends() {
    let b = sized_backend(CommutativeOp::AddU64, 8, 2, BufferConfig::unbounded());
    b.update(0, 0, 1);
    assert_eq!(b.read(1, 0), 1, "worker 1 demotes line 0");
    b.flush(0);
    assert_eq!(b.store().load_lane(0), 1, "the flush drained worker 0");
    b.update(0, 0, 1);
    assert_eq!(
        (
            b.store().load_lane(0),
            b.line_meta[0].writers.load(Ordering::Relaxed)
        ),
        (2, 0),
        "after a worker's flush the line is still demoted"
    );
    assert_stats(&b, |s| assert_eq!(s.demoted_bypasses, 1));

    b.end_job();
    b.update(0, 0, 1);
    assert_eq!(
        (
            b.store().load_lane(0),
            b.line_meta[0].writers.load(Ordering::Relaxed)
        ),
        (2, 0b01),
        "after the job ends the line buffers again"
    );
    assert_stats(&b, |s| assert_eq!(s.demoted_bypasses, 1));
}

/// A two-worker decrement-and-test run, interleaved the same way on both
/// backends: every value `update_read` returns and every final lane equal
/// the atomic baseline's. Lines 0 and 1 are demoted before any update, so
/// their pairs take the fetch-op; line 2 is buffered by both workers first,
/// so its pairs update then reduce.
#[test]
fn demoted_update_reads_return_what_the_atomic_backend_returns() {
    let op = CommutativeOp::AddU64;
    let lanes = 24;
    let atomic = AtomicBackend::new(op, lanes);
    let coup = sized_backend(op, lanes, 2, BufferConfig::unbounded());
    let both = |step: &dyn Fn(&dyn UpdateBackend) -> u64| {
        let (a, c) = (step(&atomic), step(&coup));
        assert_eq!(a, c, "update_read diverged from the atomic baseline");
    };
    for lane in [0, 8] {
        both(&|b| b.update_read(0, lane, 0));
    }
    for worker in 0..2 {
        for lane in 16..lanes {
            both(&|b| {
                b.update(worker, lane, 4);
                0
            });
        }
    }
    let mut state = 0x00DE_C0DE;
    let mut pairs = 0u64;
    for _ in 0..2_000 {
        let r = splitmix64(&mut state);
        let (worker, lane) = ((r & 1) as usize, (r >> 8) as usize % lanes);
        if (r >> 32).is_multiple_of(3) {
            both(&|b| {
                b.update(worker, lane, 1);
                0
            });
        } else {
            pairs += 1;
            both(&|b| b.update_read(worker, lane, u64::MAX));
        }
    }
    assert_eq!(coup.snapshot(), atomic.snapshot());
    for line in 0..2 {
        assert_eq!(coup.line_meta[line].writers.load(Ordering::Relaxed), 0);
    }
    assert_eq!(coup.line_meta[2].writers.load(Ordering::Relaxed), 0b11);
    #[cfg(feature = "telemetry")]
    {
        let snap = coup.metrics();
        let fetch_ops = snap.read_width.buckets[crate::telemetry::bucket_index(0)];
        assert!(
            fetch_ops >= 2 && fetch_ops < pairs + 2,
            "some pairs, not all, were one fetch-op: {fetch_ops} of {pairs}"
        );
        assert!(snap.buffer_stats.demoted_bypasses > 0);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = pairs;
}

/// Demotion lasts for the job: the end of a `run_workers` job clears the
/// flags, so a runtime that then serves handles buffers the
/// demoted line again — its writer bit is set by the next drained update,
/// which the stale tier shows as one outstanding delta.
#[test]
fn a_runtime_buffers_a_line_again_after_the_job_that_demoted_it() {
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
        .workers(2)
        .buffer_config(BufferConfig::unbounded())
        .build();
    let (values, _) = runtime.run_workers(|ctx| match ctx.worker() {
        1 => ctx.update_read(3, 5),
        _ => 0,
    });
    assert_eq!(values, [0, 5]);
    let mut handle = runtime.handle();
    handle.push(3, 2);
    handle.flush();
    runtime.drain();
    let stale = runtime.read_stale(3);
    assert_eq!(
        (stale.value, stale.staleness),
        (5, 1),
        "the drained update is buffered, not applied to the store"
    );
    assert_eq!(runtime.read(3), 7);
    #[cfg(feature = "telemetry")]
    assert_eq!(runtime.metrics().buffer_stats.demoted_bypasses, 0);
    drop(handle);
    assert_eq!(runtime.shutdown().snapshot[3], 7);
}

/// A handle read demotes its line for the runtime's life: a runtime that
/// serves handles never ends a job, so every later push to the read line is
/// applied to the store (the stale tier shows nothing outstanding, and each
/// drain round adds a demoted bypass), while a line that was never read is
/// still buffered (its drained pushes are outstanding deltas).
#[test]
fn a_handle_read_demotes_its_line_for_the_runtimes_life() {
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
        .workers(2)
        .buffer_config(BufferConfig::unbounded())
        .build();
    let mut handle = runtime.handle();
    assert_eq!(handle.read(3), 0, "demotes line 0");
    for round in 1..=3u64 {
        handle.push(3, 1);
        handle.push(11, 1);
        handle.flush();
        runtime.drain();
        assert_eq!(
            runtime.read_stale(3),
            StaleRead {
                value: round,
                staleness: 0
            },
            "round {round}: the read line is applied to the store"
        );
        assert_eq!(
            runtime.read_stale(11),
            StaleRead {
                value: 0,
                staleness: round
            },
            "round {round}: the line nobody read is buffered"
        );
        #[cfg(feature = "telemetry")]
        assert_eq!(runtime.metrics().buffer_stats.demoted_bypasses, round);
    }
    drop(handle);
    let result = runtime.shutdown();
    assert_eq!((result.snapshot[3], result.snapshot[11]), (3, 3));
}
