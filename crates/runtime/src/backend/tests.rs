//! Unit tests of the backend: the trait contract on both implementations,
//! the buffer table (`buffer.rs`) and the read tiers (`read.rs`).

use super::*;
use crate::sync::atomic::Ordering;
use crate::telemetry::{TelemetryConfig, TelemetryRegistry};

mod admission;
mod demotion;

/// Iteration multiplier for the concurrency stress tests: 1 normally, 8
/// when `COUP_STRESS` is set (the CI release stress lane).
fn stress_factor() -> u64 {
    match std::env::var_os("COUP_STRESS") {
        Some(v) if v != "0" => 8,
        _ => 1,
    }
}

/// [`CoupBackend::new`] recording into a private default registry.
fn coup_backend(
    op: CommutativeOp,
    len: usize,
    threads: usize,
    flush_threshold: u32,
    config: BufferConfig,
) -> CoupBackend {
    let telemetry = Arc::new(TelemetryRegistry::new(threads, TelemetryConfig::default()));
    CoupBackend::new(op, len, threads, flush_threshold, config, telemetry)
}

/// [`coup_backend`] at the default flush budget.
fn sized_backend(
    op: CommutativeOp,
    len: usize,
    threads: usize,
    config: BufferConfig,
) -> CoupBackend {
    coup_backend(op, len, threads, DEFAULT_FLUSH_THRESHOLD, config)
}

/// What `RuntimeBuilder` defaults to: the default flush budget and the
/// environment's buffer configuration, so `COUP_BUFFER_CAPACITY=2`
/// reruns every test that does not pin a capacity under eviction
/// pressure.
fn ambient_backend(op: CommutativeOp, len: usize, threads: usize) -> CoupBackend {
    sized_backend(op, len, threads, BufferConfig::from_env())
}

fn backends(op: CommutativeOp, len: usize, threads: usize) -> (AtomicBackend, CoupBackend) {
    (
        AtomicBackend::new(op, len),
        ambient_backend(op, len, threads),
    )
}

/// Runs `check` on the buffer counters `b`'s registry folds. They are
/// registry-backed, so with telemetry compiled out there is nothing to check.
fn assert_stats(b: &CoupBackend, check: impl FnOnce(BufferStats)) {
    #[cfg(feature = "telemetry")]
    check(b.metrics().buffer_stats);
    #[cfg(not(feature = "telemetry"))]
    let _ = (b, check);
}

/// Slot index of `line` in `thread`'s buffer, which must exist.
fn slot_of(b: &CoupBackend, thread: usize, line: usize) -> usize {
    b.buffers[thread]
        .locate(line)
        .expect("line must be privatized")
}

#[test]
fn atomic_backend_counts() {
    let b = AtomicBackend::new(CommutativeOp::AddU64, 8);
    b.update(0, 3, 5);
    b.update(1, 3, 7);
    assert_eq!(b.read(0, 3), 12);
    assert_eq!(b.update_read(0, 3, 1), 13);
    assert_eq!(b.snapshot()[3], 13);
}

#[test]
fn coup_read_reduces_unflushed_partials() {
    let b = ambient_backend(CommutativeOp::AddU64, 8, 4);
    b.update(0, 2, 10);
    b.update(1, 2, 20);
    b.update(3, 2, 3);
    // Nothing flushed yet: the store still holds zero, the read reduces.
    assert_eq!(b.store().load_lane(2), 0);
    assert_eq!(b.read(2, 2), 33);
    assert_eq!(b.update_read(2, 2, 1), 34);
}

#[test]
fn coup_flush_threshold_drains_hot_lines() {
    let b = coup_backend(CommutativeOp::AddU64, 8, 2, 4, BufferConfig::from_env());
    for _ in 0..4 {
        b.update(0, 0, 1);
    }
    // The 4th update crossed the threshold: the partial moved to the store.
    // The stale tier shows nothing left buffered; an exact read here would
    // demote the line and send the next delta to the store as well.
    assert_eq!(b.store().load_lane(0), 4);
    assert_eq!(
        b.read_stale(1, 0),
        StaleRead {
            value: 4,
            staleness: 0
        }
    );
    b.update(0, 0, 1);
    assert_eq!(b.store().load_lane(0), 4, "below threshold stays private");
    assert_eq!(b.read(1, 0), 5);
    assert_stats(&b, |s| assert_eq!(s.flushes, 1));
}

#[test]
fn explicit_flush_publishes_everything() {
    let b = ambient_backend(CommutativeOp::AddU32, 64, 3);
    for t in 0..3 {
        for i in 0..64 {
            b.update(t, i, (t + 1) as u64);
        }
    }
    for t in 0..3 {
        b.flush(t);
    }
    for i in 0..64 {
        assert_eq!(b.store().load_lane(i), 6);
    }
}

/// Drives both backends through one pseudo-random sequential interleaving
/// of updates and reads (every `read_every`-th step reads), asserting each
/// read and the final snapshots agree.
fn assert_backends_agree(
    (atomic, coup): (&AtomicBackend, &CoupBackend),
    threads: usize,
    steps: usize,
    read_every: usize,
    mut x: u64,
    label: &str,
) {
    for step in 0..steps {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let thread = (x >> 16) as usize % threads;
        let index = (x >> 24) as usize % atomic.len();
        if step % read_every == 0 {
            let (want, got) = (atomic.read(thread, index), coup.read(thread, index));
            assert_eq!(want, got, "read mismatch for {label} at step {step}");
        } else {
            atomic.update(thread, index, x >> 40);
            coup.update(thread, index, x >> 40);
        }
    }
    let (want, got) = (atomic.snapshot(), coup.snapshot());
    assert_eq!(want, got, "final state mismatch for {label}");
}

#[test]
fn backends_agree_on_a_sequential_interleaving() {
    for op in [
        CommutativeOp::AddU16,
        CommutativeOp::AddU32,
        CommutativeOp::Or64,
    ] {
        let (atomic, coup) = backends(op, 32, 4);
        assert_backends_agree(
            (&atomic, &coup),
            4,
            2000,
            7,
            0x1234_5678,
            &format!("{op:?}"),
        );
    }
}

/// The same interleaving agreement, but at capacity 1 and 2, so every
/// line switch evicts through `privatize`.
#[test]
fn backends_agree_under_tiny_capacities() {
    for capacity in [1usize, 2] {
        let op = CommutativeOp::AddU32;
        let lanes = 64; // 4 store lines at AddU32
        let atomic = AtomicBackend::new(op, lanes);
        let coup = sized_backend(op, lanes, 3, BufferConfig::bounded(capacity));
        assert_eq!(coup.capacity_lines(), capacity);
        let label = format!("capacity {capacity}");
        assert_backends_agree((&atomic, &coup), 3, 3000, 5, 0x9E37_79B9, &label);
        assert_stats(&coup, |s| {
            assert!(
                s.evictions > 0,
                "capacity {capacity} over 4 lines must evict"
            )
        });
    }
}

/// The eviction contract: displacing a dirty line migrates its delta into
/// the store and retires its writer bit — the bit clears only after the
/// delta lands (`migrate_slot` orders the bitmap clear after the reduce,
/// and the concurrent stress tests verify no reader can catch the delta
/// in neither place).
#[test]
fn eviction_lands_the_delta_then_retires_the_writer_bit() {
    let op = CommutativeOp::AddU64;
    let lanes_per_line = 8; // AddU64: 8 lanes per 64-byte line
    let b = sized_backend(op, 4 * lanes_per_line, 2, BufferConfig::bounded(1));
    b.update(0, 0, 5); // line 0, privatized
    assert_eq!(
        b.line_meta[0].writers.load(Ordering::Relaxed),
        0b01,
        "writer bit set while the delta is buffered"
    );
    assert_eq!(b.store().load_lane(0), 0, "delta still private");
    b.update(0, lanes_per_line, 3); // line 1, first touch: not admitted
    assert_eq!(b.store().load_lane(0), 0, "a bypass displaces nothing");
    b.update(0, lanes_per_line, 4); // second touch: evicts line 0 at capacity 1
    assert_eq!(
        b.store().load_lane(0),
        5,
        "the evicted line's delta landed in the store"
    );
    assert_eq!(
        b.line_meta[0].writers.load(Ordering::Relaxed),
        0,
        "the evicted line's writer bit is retired"
    );
    assert_eq!(
        b.line_meta[1].writers.load(Ordering::Relaxed),
        0b01,
        "the incoming line's writer bit is set"
    );
    assert_eq!(b.read(1, 0), 5);
    assert_eq!(b.read(1, lanes_per_line), 7);
    assert_stats(&b, |s| assert_eq!((s.evictions, s.privatized), (1, 2)));
}

/// Clean victims (already drained) are re-tagged without an eviction
/// migration, and re-privatizing the same line later re-sets its bit.
#[test]
fn clean_victims_retag_without_migrating() {
    let lanes_per_line = 8;
    let b = sized_backend(
        CommutativeOp::AddU64,
        4 * lanes_per_line,
        1,
        BufferConfig::bounded(1),
    );
    b.update(0, 0, 3);
    b.flush(0); // line 0's slot is now clean but still tagged
    assert_stats(&b, |s| assert_eq!(s.flushes, 1));
    b.update(0, lanes_per_line, 4); // first touch: clean victims are gated too
    assert_stats(&b, |s| assert_eq!(s.privatized, 1));
    b.update(0, lanes_per_line, 5); // second touch claims the slot from clean line 0
    assert_stats(&b, |s| {
        assert_eq!(s.evictions, 0, "clean displacement is not an eviction");
        assert_eq!(s.privatized, 2);
    });
    b.update(0, 0, 1); // line 0 comes back: first touch bypasses,
    b.update(0, 0, 3); // the second evicts dirty line 1
    assert_stats(&b, |s| assert_eq!(s.evictions, 1));
    assert_eq!(b.read(0, 0), 7);
    assert_eq!(b.read(0, lanes_per_line), 9);
}

#[test]
fn unbounded_capacity_never_evicts() {
    let b = sized_backend(CommutativeOp::AddU64, 1024, 2, BufferConfig::unbounded());
    for i in 0..1024 {
        b.update(0, i, i as u64);
    }
    assert_stats(&b, |s| assert_eq!(s.evictions, 0));
    assert_eq!(b.capacity_lines(), b.store().num_lines());
    for i in (0..1024).step_by(97) {
        assert_eq!(b.read(1, i), i as u64);
    }
}

#[test]
fn buffer_memory_is_bounded_by_capacity_not_store_size() {
    let small = sized_backend(CommutativeOp::AddU64, 1 << 10, 2, BufferConfig::bounded(64));
    let huge = sized_backend(CommutativeOp::AddU64, 1 << 20, 2, BufferConfig::bounded(64));
    assert_eq!(
        small.buffer_bytes_per_thread(),
        huge.buffer_bytes_per_thread(),
        "per-thread buffer memory must not scale with the store"
    );
    assert_eq!(huge.capacity_lines(), 64);
}

#[test]
fn buffer_config_parses_environment_forms() {
    assert_eq!(BufferConfig::parse(None), BufferConfig::unbounded());
    assert_eq!(BufferConfig::parse(Some("2")), BufferConfig::bounded(2));
    assert_eq!(
        BufferConfig::parse(Some("unbounded")),
        BufferConfig::unbounded()
    );
    assert_eq!(BufferConfig::parse(Some("0")), BufferConfig::unbounded());
}

#[test]
#[should_panic(expected = "invalid COUP_BUFFER_CAPACITY \"not-a-number\"")]
fn invalid_capacity_env_value_panics_instead_of_falling_back() {
    let _ = BufferConfig::parse(Some("not-a-number"));
}

#[test]
fn concurrent_reads_never_lose_migrating_deltas() {
    // flush_threshold 1 makes every update migrate buffer → store, so
    // readers constantly race the drain/reduce window. A counter that
    // only grows must never appear to shrink: a dip means a reader saw
    // the delta in neither the buffer nor the store (the race the
    // per-slot epoch seqlock closes).
    let updates = 30_000u64 * stress_factor();
    let coup = coup_backend(CommutativeOp::AddU64, 8, 3, 1, BufferConfig::from_env());
    std::thread::scope(|scope| {
        let coup = &coup;
        scope.spawn(move || {
            for _ in 0..updates {
                coup.update(0, 0, 1);
            }
        });
        for reader in [1usize, 2] {
            scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let now = coup.read(reader, 0);
                    assert!(now >= last, "counter went backwards: {last} -> {now}");
                    if now == updates {
                        break;
                    }
                    last = now;
                }
            });
        }
    });
    assert_eq!(coup.snapshot()[0], updates);
}

/// The eviction analogue of the migrating-delta stress: capacity 1 with a
/// high flush threshold, so *only* capacity evictions migrate deltas.
/// The writer alternates two lines (each update evicts the other line)
/// while readers verify both counters stay monotone — a dip would mean
/// an eviction window let a delta vanish from both places.
#[test]
fn concurrent_reads_never_lose_evicted_deltas() {
    let lanes_per_line = 8;
    let updates = 20_000u64 * stress_factor();
    let coup = coup_backend(
        CommutativeOp::AddU64,
        2 * lanes_per_line,
        3,
        u32::MAX,
        BufferConfig::bounded(1),
    );
    std::thread::scope(|scope| {
        let coup = &coup;
        scope.spawn(move || {
            for _ in 0..updates {
                coup.update(0, 0, 1); // line 0: evicts line 1's delta
                coup.update(0, lanes_per_line, 1); // line 1: evicts line 0's
            }
        });
        for reader in [1usize, 2] {
            scope.spawn(move || {
                let mut last = [0u64; 2];
                loop {
                    let mut done = true;
                    for (i, lane) in [0usize, lanes_per_line].into_iter().enumerate() {
                        let now = coup.read(reader, lane);
                        assert!(
                            now >= last[i],
                            "lane {lane} went backwards: {} -> {now}",
                            last[i]
                        );
                        assert!(now <= updates, "lane {lane} overshot: {now}");
                        last[i] = now;
                        done &= now == updates;
                    }
                    if done {
                        break;
                    }
                }
            });
        }
    });
    coup.flush(0);
    assert_eq!(coup.store().load_lane(0), updates);
    assert_eq!(coup.store().load_lane(lanes_per_line), updates);
    // Every line switch either evicted the other line's delta or, while
    // an escalated reader held the victim, bypassed the buffer with a
    // direct store RMW (after a bypass the resident line is unchanged,
    // so the following update to it is a hit — hence ≥, not ==, on the
    // sum, and no tight bound on evictions alone).
    assert_stats(&coup, |s| {
        assert!(
            s.evictions > 0,
            "alternating lines at capacity 1 must evict"
        );
        assert!(
            2 * updates >= s.evictions + s.held_bypasses,
            "more migrations than updates: {s:?}"
        );
    });
}

/// The acceptance bar of the writer-bitmap read path: one active writer
/// on a line costs exactly one buffer-word load per read, no matter how
/// many worker buffers the backend carries.
#[cfg(feature = "telemetry")]
#[test]
fn read_on_a_line_with_one_writer_loads_one_buffer_word() {
    for threads in [2usize, 8, 32, MAX_COUP_THREADS] {
        let b = ambient_backend(CommutativeOp::AddU64, 8, threads);
        b.update(0, 3, 5); // thread 0 is the line's only active writer
        let before = b.metrics().read_cost;
        let reads = 100u64;
        for _ in 0..reads {
            assert_eq!(b.read(threads - 1, 3), 5);
        }
        let after = b.metrics().read_cost;
        assert_eq!(after.reads - before.reads, reads, "{threads} threads");
        assert_eq!(
            after.buffer_words - before.buffer_words,
            reads,
            "one buffer word per read at {threads} threads"
        );
        assert_eq!(after.retries, before.retries, "{threads} threads");
        assert_eq!(after.escalations, before.escalations, "{threads} threads");
    }
}

#[cfg(feature = "telemetry")]
#[test]
fn read_on_a_cold_line_loads_no_buffer_words() {
    let b = ambient_backend(CommutativeOp::AddU64, 8, 16);
    for _ in 0..10 {
        assert_eq!(b.read(1, 5), 0);
    }
    assert_eq!(b.metrics().read_cost.buffer_words, 0);
    assert_eq!(b.metrics().read_cost.reads, 10);
}

#[cfg(feature = "telemetry")]
#[test]
fn read_cost_tracks_active_writers_not_threads() {
    let threads = 32;
    let b = ambient_backend(CommutativeOp::AddU64, 8, threads);
    for t in [0usize, 5, 9] {
        b.update(t, 2, 1);
    }
    let before = b.metrics().read_cost.buffer_words;
    assert_eq!(b.read(31, 2), 3);
    assert_eq!(b.metrics().read_cost.buffer_words - before, 3);
    // A flush retires a writer from the bitmap; the next read pays less.
    b.flush(5);
    let before = b.metrics().read_cost.buffer_words;
    assert_eq!(b.read(31, 2), 3);
    assert_eq!(b.metrics().read_cost.buffer_words - before, 2);
}

/// A pass locates its writers in a list sized by the writer count: four
/// fit the small list, five and up take the one sized for every worker.
/// Both sides of that split, and its edges, fold every writer exactly once.
#[test]
fn reads_fold_every_writer_on_both_sides_of_the_scratch_split() {
    for writers in [0usize, 1, 4, 5, MAX_COUP_THREADS] {
        let b = ambient_backend(CommutativeOp::AddU64, 8, MAX_COUP_THREADS);
        for t in 0..writers {
            b.update(t, 2, t as u64 + 1);
        }
        let want = (writers * (writers + 1) / 2) as u64;
        assert_eq!(b.read(0, 2), want, "{writers} writers");
        #[cfg(feature = "telemetry")]
        assert_eq!(b.metrics().read_cost.buffer_words, writers as u64);
        assert_eq!(b.read_escalated(2), want, "{writers} writers, held");
    }
}

/// The kill switch's promise: a disabled registry changes no read's
/// value and counts nothing — no read cost, no buffer event.
#[test]
fn disabled_registry_does_no_read_bookkeeping() {
    let telemetry = Arc::new(TelemetryRegistry::new(4, TelemetryConfig::disabled()));
    let b = CoupBackend::new(
        CommutativeOp::AddU64,
        8,
        4,
        DEFAULT_FLUSH_THRESHOLD,
        BufferConfig::from_env(),
        telemetry,
    );
    b.update(0, 2, 10);
    b.update(3, 2, 5);
    assert_eq!(b.read(1, 2), 15);
    assert_eq!(b.read_escalated(2), 15);
    assert_eq!(b.snapshot()[2], 15);
    let metrics = b.metrics();
    assert_eq!(metrics.read_cost, ReadCost::default());
    assert_eq!(metrics.buffer_stats, BufferStats::default());
}

#[test]
fn flush_advances_the_slot_epoch_by_two() {
    let b = coup_backend(CommutativeOp::AddU64, 8, 2, 4, BufferConfig::from_env());
    b.update(0, 0, 1);
    let idx = slot_of(&b, 0, 0);
    b.flush(0);
    assert_eq!(b.buffers[0].sample_epoch(idx), 2);
    assert_eq!(
        b.line_meta[0].writers.load(Ordering::Relaxed),
        0,
        "flush retires the writer bit"
    );
    for _ in 0..4 {
        b.update(0, 0, 1); // 4th update crosses the threshold
    }
    assert_eq!(b.buffers[0].sample_epoch(idx), 4);
}

/// While a reader holds the line, threshold crossings keep buffering
/// instead of flushing; the first update after the hold drops flushes.
#[test]
fn read_hold_defers_threshold_flushes() {
    let b = coup_backend(CommutativeOp::AddU64, 8, 2, 2, BufferConfig::from_env());
    b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
    for _ in 0..6 {
        b.update(0, 0, 1);
    }
    assert_eq!(b.store().load_lane(0), 0, "flushes deferred under hold");
    assert_eq!(b.read(1, 0), 6, "reads still reduce the buffered deltas");
    b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
    b.update(0, 0, 1);
    assert_eq!(b.store().load_lane(0), 7, "hold released, flush resumed");
}

/// The regression test of the hold-fairness bound: a hold that never
/// drops (the hammering-poller limit where exact reads re-arm holds
/// back-to-back) must not defer a writer's threshold flush forever. The
/// buffered delta may stretch to [`HOLD_DEFER_FACTOR`] flush budgets;
/// the next threshold crossing migrates *despite* the hold.
#[test]
fn sustained_read_holds_cannot_defer_flushes_unboundedly() {
    let threshold = 2u32;
    let b = coup_backend(
        CommutativeOp::AddU64,
        8,
        2,
        threshold,
        BufferConfig::from_env(),
    );
    b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
    let cap = u64::from(threshold * HOLD_DEFER_FACTOR);
    for i in 1..=cap {
        b.update(0, 0, 1);
        assert!(
            b.store().load_lane(0) == 0 || i == cap,
            "flushed before the deferral cap at update {i}"
        );
    }
    assert_eq!(
        b.store().load_lane(0),
        cap,
        "the deferral cap forces the migration despite the live hold"
    );
    // The stale tier sees the drained line immediately: the bound
    // collapses back to zero once the forced flush lands.
    assert_eq!(
        b.read_stale(1, 0),
        StaleRead {
            value: cap,
            staleness: 0
        }
    );
    b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
}

#[test]
fn read_stale_returns_store_word_and_counts_outstanding_deltas() {
    let b = ambient_backend(CommutativeOp::AddU64, 8, 4);
    assert_eq!(b.read_stale(0, 2), StaleRead::default(), "cold line");
    b.update(0, 2, 10);
    b.update(1, 2, 20);
    b.update(1, 2, 5);
    let stale = b.read_stale(3, 2);
    assert_eq!(stale.value, 0, "nothing migrated: the store word is zero");
    assert_eq!(stale.staleness, 3, "three buffered updates outstanding");
    // The exact read is covered by value + the bound's replayed deltas
    // (for add-one... here arbitrary adds, so only the count contract).
    assert_eq!(b.read(3, 2), 35);
    b.flush(0);
    b.flush(1);
    let stale = b.read_stale(3, 2);
    assert_eq!(
        stale,
        StaleRead {
            value: 35,
            staleness: 0
        },
        "quiesced: the stale tier is exact with a zero bound"
    );
}

/// The whole point of the tier: a stale read pays no reduction — no
/// buffer words, no retries, no escalations, and no read hold a writer
/// would have to defer to.
#[test]
fn read_stale_never_reduces_and_never_arms_holds() {
    let b = ambient_backend(CommutativeOp::AddU64, 8, 8);
    for t in 0..8 {
        b.update(t, 3, 1);
    }
    let before = b.metrics().read_cost;
    for _ in 0..100 {
        let stale = b.read_stale(0, 3);
        assert_eq!((stale.value, stale.staleness), (0, 8));
    }
    assert_eq!(
        b.metrics().read_cost,
        before,
        "stale reads are invisible to the exact-read cost counters"
    );
    assert_eq!(b.line_meta[0].read_holds.load(Ordering::Relaxed), 0);
}

/// `update_read` through the atomic default keeps working when only
/// `read_stale` is overridden, and the atomic backend's default tier is
/// exact with a zero bound.
#[test]
fn atomic_backend_stale_tier_is_exact() {
    let b = AtomicBackend::new(CommutativeOp::AddU64, 8);
    b.update(0, 1, 41);
    b.update(1, 1, 1);
    assert_eq!(
        b.read_stale(0, 1),
        StaleRead {
            value: 42,
            staleness: 0
        }
    );
}

/// Capacity evictions steer around read-held lines: with two slots and a
/// hold on one resident line, the unheld resident is the victim.
#[test]
fn eviction_prefers_unheld_victims() {
    let lanes_per_line = 8;
    let b = sized_backend(
        CommutativeOp::AddU64,
        4 * lanes_per_line,
        2,
        BufferConfig::bounded(2),
    );
    b.update(0, 0, 1); // line 0 resident
    b.update(0, lanes_per_line, 2); // line 1 resident
    b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
    b.update(0, 2 * lanes_per_line, 1); // line 2, first touch: not admitted
    b.update(0, 2 * lanes_per_line, 2); // second touch must displace line 1
    assert_eq!(b.store().load_lane(0), 0, "held line 0 must stay buffered");
    assert_eq!(
        b.store().load_lane(lanes_per_line),
        2,
        "unheld line 1 was the victim"
    );
    assert_eq!(b.read(1, 2 * lanes_per_line), 3, "bypassed + buffered");
    b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
}

/// When capacity pressure and read holds collide (every victim candidate
/// held), the conflicting update bypasses the buffer as a direct store
/// RMW: the held line's buffered delta and epochs stay untouched (the
/// escalated reader's quiescence guarantee), memory stays bounded, and
/// no update is lost.
#[test]
fn fully_held_window_routes_updates_around_the_buffer() {
    let lanes_per_line = 8;
    let b = sized_backend(
        CommutativeOp::AddU64,
        4 * lanes_per_line,
        2,
        BufferConfig::bounded(1),
    );
    b.update(0, 0, 5); // line 0 resident and dirty
    let idx = slot_of(&b, 0, 0);
    let epoch_before = b.buffers[0].sample_epoch(idx);
    b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
    b.update(0, lanes_per_line, 3); // first touch: not admitted
    b.update(0, lanes_per_line, 4); // admitted, but the only victim is held
    assert_eq!(
        b.store().load_lane(lanes_per_line),
        7,
        "bypassed update lands directly in the store"
    );
    assert_eq!(
        b.buffers[0].sample_epoch(idx),
        epoch_before,
        "the held line's slot was not migrated"
    );
    assert_eq!(b.store().load_lane(0), 0, "held delta stays buffered");
    assert_eq!(b.read(1, 0), 5, "held line still reduces correctly");
    assert_stats(&b, |s| {
        assert_eq!(s.held_bypasses, 1);
        assert_eq!(s.admission_bypasses, 1);
        assert_eq!(s.evictions, 0);
    });
    b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold

    // Hold released: line 1 is still the candidate, so it privatizes on
    // its next touch, evicting line 0.
    b.update(0, lanes_per_line, 1);
    assert_eq!(b.read(1, lanes_per_line), 8);
    assert_stats(&b, |s| assert_eq!(s.evictions, 1));
    assert_eq!(b.read(1, 0), 5);
}

#[test]
fn escalated_reduction_returns_the_right_value_and_releases_the_hold() {
    let b = ambient_backend(CommutativeOp::AddU64, 8, 4);
    b.update(0, 1, 11);
    b.update(2, 1, 31);
    let slot = b.geometry.slot(1);
    let mut cost = ReadCost::default();
    assert_eq!(b.reduce_with_hold(slot, 1, &mut cost), 42);
    assert_eq!(cost.escalations, 1);
    assert_eq!(b.line_meta[slot.line].read_holds.load(Ordering::Relaxed), 0);
}

#[test]
#[should_panic(expected = "at most")]
fn more_than_64_workers_is_rejected() {
    let _ = ambient_backend(CommutativeOp::AddU64, 8, MAX_COUP_THREADS + 1);
}

#[test]
fn min_backend_tracks_minimum() {
    let (atomic, coup) = backends(CommutativeOp::Min64, 4, 2);
    for b in [&atomic as &dyn UpdateBackend, &coup] {
        // Store starts zeroed, so 0 is already the floor; check identity
        // behaviour by never letting zero win.
        assert_eq!(b.read(0, 1), 0);
        b.update(0, 1, 5);
        assert_eq!(b.read(1, 1), 0);
    }
}
