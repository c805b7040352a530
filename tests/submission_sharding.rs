//! Property and stress tests for the sharded submission path: per-producer
//! SPSC rings registered in the lock-free slot directory and drained
//! round-robin by the resident workers (`crates/runtime/src/ring.rs`).
//!
//! The contract under test, at every point of the configuration matrix:
//!
//! * **Exactness** — the sharded COUP runtime and the `AtomicBackend`
//!   baseline runtime, fed the identical submission program, end in the
//!   identical snapshot, which also equals the sequentially computed
//!   reference. No update is lost or duplicated by ring wrap, slot
//!   recycling, full-edge parking, or shutdown.
//! * **Dropped unflushed handles** — a `LaneHandle` dropped with a
//!   partially filled batch still delivers that batch (its `Drop` submits).
//! * **Producer churn** — producers that come and go mid-run recycle
//!   directory slots (generation handshake) without losing the retiring
//!   producer's final publications, even when claimants must park for a
//!   free slot.
//! * **Park symmetry** — every counted parker sleep (worker empty edge,
//!   producer full edge) is matched by exactly one unpark, so
//!   `queue_parks == queue_unparks` once the runtime has quiesced.
//!
//! The 1024-producer tiny-ring stress runs the full size only under
//! `COUP_STRESS=1` (the CI release stress lane) and a scaled-down version
//! otherwise, like the other concurrency stress tests in this directory.

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{splitmix64, BackendKind, CoupRuntime, RuntimeBuilder, TelemetryConfig};

const LANES: usize = 64;

/// The deterministic submission program: producer `p` submits `count`
/// increments to pseudo-random lanes. Returns the sequential reference.
fn reference(producers: usize, count: usize) -> Vec<u64> {
    let mut expected = vec![0u64; LANES];
    for p in 0..producers {
        for i in 0..count {
            let lane = splitmix64(&mut ((p as u64) << 32 | i as u64 | 1)) as usize % LANES;
            expected[lane] += 1;
        }
    }
    expected
}

/// Runs the program against a runtime: `producers` scoped threads, each
/// pushing through its own `LaneHandle` and dropping it unflushed (the final
/// partial batch travels via `Drop`).
fn run_program(rt: &CoupRuntime, producers: usize, count: usize) {
    std::thread::scope(|scope| {
        for p in 0..producers {
            let mut handle = rt.handle();
            scope.spawn(move || {
                for i in 0..count {
                    let lane = splitmix64(&mut ((p as u64) << 32 | i as u64 | 1)) as usize % LANES;
                    handle.push(lane, 1);
                }
                // No flush(): Drop must deliver the unflushed remainder.
            });
        }
    });
}

fn builder(kind: BackendKind, batch: usize, ring_capacity: usize) -> RuntimeBuilder {
    RuntimeBuilder::new(CommutativeOp::AddU64, LANES)
        .backend(kind)
        .workers(2)
        .batch_capacity(batch)
        .queue_capacity(ring_capacity)
}

/// Iteration multiplier for the stress test: full size under `COUP_STRESS`
/// (the CI release stress lane), scaled down otherwise.
fn stress() -> bool {
    match std::env::var_os("COUP_STRESS") {
        Some(v) => v != "0",
        None => false,
    }
}

/// The ISSUE matrix: producers × batch capacity × ring capacity, sharded
/// runtime vs. atomic-baseline runtime vs. sequential reference. 97 updates
/// per producer never divides the batch sizes, so every producer retires
/// with a partial batch in flight.
#[test]
fn sharded_submission_matches_the_atomic_baseline_across_the_matrix() {
    let producer_counts: &[usize] = if stress() {
        &[1, 4, 32, 256]
    } else {
        &[1, 4, 32]
    };
    for &producers in producer_counts {
        for &batch in &[1usize, 8, 256] {
            for &ring_capacity in &[2usize, 8, 1024] {
                let count = 97;
                let expected = reference(producers, count);

                let coup = builder(BackendKind::Coup, batch, ring_capacity).build();
                run_program(&coup, producers, count);
                let coup_result = coup.shutdown();

                let atomic = builder(BackendKind::Atomic, batch, ring_capacity).build();
                run_program(&atomic, producers, count);
                let atomic_result = atomic.shutdown();

                assert_eq!(
                    coup_result.snapshot, expected,
                    "coup snapshot diverged at p={producers} b={batch} ring={ring_capacity}"
                );
                assert_eq!(
                    atomic_result.snapshot, expected,
                    "atomic snapshot diverged at p={producers} b={batch} ring={ring_capacity}"
                );
                let total = (producers * count) as u64;
                assert_eq!(coup_result.report.updates, total);
                assert_eq!(atomic_result.report.updates, total);
            }
        }
    }
}

/// Producer churn over a directory deliberately smaller than the producer
/// population: each wave claims every slot, retires, and the next wave's
/// claims must park on the freed edge and reuse the recycled slots (fresh
/// generation) without losing the retired producers' final batches.
#[test]
fn producer_churn_recycles_slots_without_losing_updates() {
    let waves = 6;
    let producers_per_wave = 8;
    let count = 33;
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, LANES)
        .workers(2)
        .batch_capacity(4)
        .queue_capacity(8)
        .shard_slots(4) // fewer slots than live producers: claims must park
        .build();
    for _ in 0..waves {
        run_program(&rt, producers_per_wave, count);
        // Mid-run drain: must quiesce between waves without deadlock.
        rt.drain();
    }
    let stats = rt.shard_stats();
    assert!(
        stats.iter().any(|s| s.claims > 1),
        "no slot was ever recycled: {stats:?}"
    );
    let mut expected = vec![0u64; LANES];
    for _ in 0..waves {
        for (lane, n) in reference(producers_per_wave, count).iter().enumerate() {
            expected[lane] += n;
        }
    }
    let result = rt.shutdown();
    assert_eq!(result.snapshot, expected);
    assert_eq!(
        result.report.updates,
        (waves * producers_per_wave * count) as u64
    );
}

/// The 1024-producer tiny-ring stress: ring capacity 2 with batch 4 forces
/// producers onto the full-edge park path constantly, and 1024 producers on
/// 2 workers keep every wake parker busy. Checks: exact snapshot (bounded
/// rings lost nothing), `drain()`/`shutdown()` quiesce without deadlock,
/// and the park/unpark counters are symmetric once quiesced.
#[test]
fn full_edge_parking_stress_keeps_counters_symmetric_and_loses_nothing() {
    let producers = if stress() { 1024 } else { 64 };
    let count = if stress() { 64 } else { 32 };
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, LANES)
        .workers(2)
        .batch_capacity(4)
        .queue_capacity(2) // tiny rings: the full edge is the common case
        .telemetry(TelemetryConfig::default())
        .build();
    run_program(&rt, producers, count);
    rt.drain();
    let mid = rt.metrics();
    assert_eq!(
        mid.updates_applied,
        (producers * count) as u64,
        "drain() returned before quiescence"
    );
    let expected = reference(producers, count);
    let result = rt.shutdown();
    assert_eq!(result.snapshot, expected);
    let metrics = result.report.metrics;
    assert_eq!(
        metrics.queue_parks, metrics.queue_unparks,
        "a counted park was never matched by an unpark (stranded sleeper?)"
    );
    // The tiny rings must actually have exercised the park path; the
    // scaled-down run still parks thousands of times in practice, but keep
    // the floor conservative to stay deterministic. (Park counts are
    // registry-backed: compiled out, the symmetry above is 0 == 0.)
    #[cfg(feature = "telemetry")]
    assert!(
        metrics.queue_parks > 0,
        "stress config never parked — the full edge was not exercised"
    );
}
