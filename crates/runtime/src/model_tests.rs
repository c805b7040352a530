//! Exhaustive model checks of the runtime's lock-free protocols.
//!
//! Compiled only under `--cfg coup_model`, where the `crate::sync` facade
//! routes every atomic, mutex, condvar, and thread spawn through the `loom`
//! shim: a deterministic scheduler that explores every interleaving a
//! bounded number of preemptions admits, over a C11-style weak memory model
//! (per-location modification order + happens-before clocks), so `Relaxed`
//! loads really can observe stale values here.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg coup_model" cargo test -p coup-runtime model_tests
//! ```
//!
//! Each protocol test owns one **mutation**: `--cfg coup_mutation="<tag>"`
//! weakens the one ordering constant carrying that `ord:` tag (the block
//! beside `weakened_if` in `sync.rs`) to `Relaxed`, and the test whose name
//! starts with the tag in snake case must then *fail* — CI's per-edge lane
//! runs `model_tests::<tag_snake>` for every value and inverts the exit
//! code, proving each test has teeth of its own rather than riding on a
//! neighbour's. The eight tags with no constant are listed with their
//! reasons in ARCHITECTURE.md's edge table (`ring-consume`'s head store, for
//! one, is unobservable in the model's execution-order semantics; the
//! shard-claim CAS is a literal `AcqRel`, both sides of its own edge). The
//! end-to-end shutdown test and the timed-park test own no tag; the former's
//! teeth are the model's *deadlock detector*, exercised by the shim's own
//! `missed_condvar_wakeup_is_reported_as_deadlock` self-test.

use std::sync::Arc;

use coup_protocol::ops::CommutativeOp;

use crate::backend::{BufferConfig, CoupBackend, UpdateBackend};
use crate::runtime::RuntimeBuilder;
use crate::sync::thread;
use crate::telemetry::{TelemetryConfig, TelemetryRegistry};

/// A backend small enough to model-check: telemetry disabled so the only
/// atomics in play are the protocol's own.
fn small_backend(
    len: usize,
    threads: usize,
    flush_threshold: u32,
    config: BufferConfig,
) -> Arc<CoupBackend> {
    Arc::new(CoupBackend::new(
        CommutativeOp::AddU64,
        len,
        threads,
        flush_threshold,
        config,
        Arc::new(TelemetryRegistry::new(threads, TelemetryConfig::disabled())),
    ))
}

/// Protocol 1 — per-slot seqlock: a reader racing `update` + `flush` must
/// never see a torn value, and two reads by one observer must be monotone.
///
/// Mutation pairing: `EPOCH_PUBLISH` (the even-epoch seqlock close in
/// `migrate_slot`) weakened to `Relaxed` admits this interleaving: the
/// helper reads 3 from the buffered delta; the main thread then samples the
/// writer bitmap while the bit is still set, is preempted across the whole
/// migration, and resumes to sample the *new* even epoch without the
/// happens-before edge to the reduce it is supposed to carry — so its store
/// load is free to return stale 0, its epoch recheck matches, and its bitmap
/// recheck branches to the stale still-set value (the clear landed mid-pass).
/// Result: r2 == 0 after r1 == 3, caught by the monotonicity assert.
#[test]
fn seqlock_epoch_reads_never_tear_and_stay_monotone() {
    loom::model(|| {
        let backend = small_backend(8, 2, 64, BufferConfig::unbounded());
        let writer = {
            let b = Arc::clone(&backend);
            thread::spawn(move || {
                b.update(0, 0, 3);
                b.flush(0);
            })
        };
        let helper = {
            let b = Arc::clone(&backend);
            thread::spawn(move || b.read(1, 0))
        };
        let r1 = helper.join().unwrap();
        let r2 = backend.read(1, 0);
        assert!(r1 == 0 || r1 == 3, "torn first read: {r1}");
        assert!(r2 == 0 || r2 == 3, "torn second read: {r2}");
        assert!(r2 >= r1, "non-monotone reads: {r1} then {r2}");
        writer.join().unwrap();
        // Fully joined: the flushed delta must be store-visible.
        assert_eq!(backend.read(1, 0), 3);
    });
}

/// Protocol 1b — the same seqlock across a *re-tag*: a reader racing a dirty
/// capacity eviction. `migrate_slot` drains the victim, reduces, retires the
/// writer bit and hands the slot to the incoming line, all inside one
/// odd-epoch window; a reader of the evicted line that overlaps any of it —
/// the drained word, the new tag, the fallen bit — must retry rather than
/// find the delta in neither place (0) or in both (6). The set-up runs
/// before any thread exists, which keeps the explored schedules to the
/// eviction itself: line 0 privatized and dirty, and line 1 turned away once
/// (at capacity 1 its first touch is not admitted), so the writer's one
/// update evicts.
///
/// Mutation pairing: shares `EPOCH_PUBLISH` with protocol 1 (the per-edge
/// lane runs every `seqlock_epoch_…` test) and kills it alone: a reader
/// that validates against the new even epoch without the edge to the reduce
/// folds a stale store word with the already-drained slot and reads 0. It
/// kills `WRITER_RETIRE` the same way, through the fallen bit.
#[test]
fn seqlock_epoch_reads_racing_a_dirty_eviction_never_tear() {
    loom::model(|| {
        let backend = small_backend(16, 2, 64, BufferConfig::bounded(1));
        backend.update(0, 0, 3);
        backend.update(0, 8, 1);
        let writer = {
            let b = Arc::clone(&backend);
            thread::spawn(move || b.update(0, 8, 1))
        };
        for pass in 0..2 {
            let seen = backend.read(1, 0);
            assert_eq!(seen, 3, "read {pass} lost or doubled the evicted delta");
        }
        writer.join().unwrap();
        assert_eq!(backend.read(1, 0), 3);
        assert_eq!(backend.read(1, 8), 2);
        assert_eq!(backend.buffer_stats().evictions, 1);
    });
}

/// Protocol 2 — writer bitmap set/fold/clear vs. a concurrently retrying
/// reader: with `flush_threshold == 1` every update announces its bit,
/// stores the delta, and immediately migrates (fold + clear), so a reader
/// crosses all three bitmap phases and its validation/retry path.
///
/// Mutation pairing: `WRITER_RETIRE` (the `fetch_and` bit-clear in
/// `migrate_slot`) weakened to `Relaxed` admits: the helper observes 3 via
/// the buffered delta; the main thread later acquire-loads the *cleared*
/// bitmap, which no longer carries the happens-before edge to the reduce,
/// skips the buffer as the protocol intends — and reads stale store 0.
/// Again r2 == 0 after r1 == 3, caught by the monotonicity assert.
#[test]
fn writer_bitmap_retire_publishes_the_reduce_it_promises() {
    loom::model(|| {
        let backend = small_backend(8, 2, 1, BufferConfig::unbounded());
        let writer = {
            let b = Arc::clone(&backend);
            // Threshold 1: announce bit, store delta, migrate — inline.
            thread::spawn(move || b.update(0, 0, 3))
        };
        let helper = {
            let b = Arc::clone(&backend);
            thread::spawn(move || b.read(1, 0))
        };
        let r1 = helper.join().unwrap();
        let r2 = backend.read(1, 0);
        assert!(r1 == 0 || r1 == 3, "torn first read: {r1}");
        assert!(r2 == 0 || r2 == 3, "torn second read: {r2}");
        assert!(r2 >= r1, "non-monotone reads: {r1} then {r2}");
        writer.join().unwrap();
        assert_eq!(backend.read(1, 0), 3);
        assert_eq!(backend.buffer_stats().flushes, 1);
    });
}

/// Protocol 3 — the eviction handshake: `privatized` is bumped *before* a
/// dirty victim's migration and the eviction count is published with
/// Release after it, so `evictions ≤ privatized` must hold for any
/// observer, however racy. A capacity-1 buffer plus two updates to a second
/// line — the first is not admitted and goes straight to the store — forces
/// exactly one dirty eviction (the software U-state eviction).
///
/// Mutation pairing: `EVICTION_FOLD` (the Acquire on the stats fold's
/// `evictions` load) weakened to `Relaxed` lets the observer read
/// `evictions == 1` without the happens-before edge to the claim, so its
/// `privatized` load may return stale 0 — `1 ≤ 0` fails. (The publish side
/// is the one edge whose weakening is *not* observable: the migrate fence
/// already orders the bump before it, which is why the mutation attacks the
/// fold side — see the edge block's comment in `sync.rs`.)
#[test]
fn evict_stats_count_never_exceeds_privatized_for_any_observer() {
    loom::model(|| {
        let backend = small_backend(16, 1, 64, BufferConfig::bounded(1));
        let writer = {
            let b = Arc::clone(&backend);
            thread::spawn(move || {
                b.update(0, 0, 1); // privatize line 0, buffer a delta
                b.update(0, 8, 1); // line 1, first touch: bypasses
                b.update(0, 8, 1); // second touch: evicts dirty line 0
            })
        };
        let stats = backend.buffer_stats();
        assert!(
            stats.evictions <= stats.privatized,
            "observed {} evictions with only {} privatizations",
            stats.evictions,
            stats.privatized
        );
        writer.join().unwrap();
        let quiesced = backend.buffer_stats();
        assert_eq!(quiesced.privatized, 2);
        assert_eq!(quiesced.evictions, 1);
        // The evicted line's delta migrated; the resident line still folds.
        assert_eq!(backend.read(0, 0), 1);
        assert_eq!(backend.read(0, 8), 2);
    });
}

/// Protocol 4 — trace-ring seqlock tickets: a drain racing recording (with
/// wrap-around overwrites, capacity 2 vs. 3 records) may *drop* entries but
/// must never yield a torn one — every drained event carries the stamp and
/// payload of one committed `record` call, and accounting is exact.
///
/// Mutation pairing: `TICKET_PUBLISH` (the `seq + 1` ticket store in
/// `TraceRing::record`) weakened to `Relaxed` lets the drainer's acquire
/// load of the ticket succeed without the happens-before edge to the stamp
/// and payload stores the ticket vouches for, so it assembles an event from
/// stale words — caught by the stamp/kind consistency asserts below.
#[cfg(feature = "telemetry")]
#[test]
fn trace_ticket_drains_are_lossy_but_never_torn() {
    use crate::trace::{TraceKind, TraceRing};
    loom::model(|| {
        let ring = Arc::new(TraceRing::new(2));
        let recorder = {
            let r = Arc::clone(&ring);
            thread::spawn(move || {
                for i in 0..3u64 {
                    r.record(1000 + 7 * i, 1, TraceKind::Evict, i as usize);
                }
            })
        };
        let mut events = Vec::new();
        ring.drain_into(&mut events);
        recorder.join().unwrap();
        ring.drain_into(&mut events);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain out of order: {events:?}");
        }
        for event in &events {
            assert_eq!(event.kind, TraceKind::Evict, "torn event: {event:?}");
            assert_eq!(event.worker, 1, "torn event: {event:?}");
            assert_eq!(
                event.timestamp_ns,
                1000 + 7 * event.line as u64,
                "stamp/payload mismatch: {event:?}"
            );
        }
        assert_eq!(ring.recorded(), 3);
        // Every recorded entry is either drained or counted dropped —
        // exactly once.
        assert_eq!(events.len() as u64 + ring.dropped(), 3);
    });
}

/// Protocol 5 — the sharded submission path end to end: a producer pushing
/// a batch through its SPSC shard ring, a resident worker parking on its
/// wake parker, and `shutdown` closing the runtime must always terminate
/// with the batch applied — no missed-wakeup lost batch, no worker parked
/// forever past close, no update lost across the retire/drain hand-off.
///
/// No *single* ordering mutation applies (the focused ring tests below own
/// those pairings); this test's teeth are the model's *deadlock detector* —
/// if close ever raced park such that the worker slept with no notifier
/// left, every live thread would be blocked and the model reports deadlock
/// instead of hanging (the shim's own test suite seeds exactly that bug to
/// prove the detector fires). It is also the regression lock for the
/// `Parker::status` acquire-RMW rule: with a plain relaxed status read the
/// worker can observe the newest epoch *without* the notifier's clock, scan
/// its stripe stale-empty, and sleep on an epoch that has already ticked
/// its last — the model found exactly that execution.
///
/// Preemption bound 1 (not the default 2): the end-to-end path crosses
/// every atomic in the crate, and bound 2 explodes past CI's budget. The
/// focused ring tests below carry the per-edge bound-2 coverage; bound 1
/// here still explores every single-preemption interleaving of
/// submit/drain/close — including the status-read race above, which needs
/// only one.
#[test]
fn queue_close_never_strands_a_parked_worker() {
    let bounded = loom::model::Builder {
        preemption_bound: 1,
        ..loom::model::Builder::default()
    };
    bounded.check(|| {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 4)
            .workers(1)
            .batch_capacity(1)
            .queue_capacity(2)
            .telemetry(TelemetryConfig::disabled())
            .buffer_config(BufferConfig::unbounded())
            .build();
        let mut handle = runtime.handle();
        handle.push(0, 5);
        drop(handle);
        let result = runtime.shutdown();
        assert_eq!(result.snapshot[0], 5);
    });
}

/// Protocol 6 — the ring's publication edge: the producer's tail store
/// ([`RING_PUBLISH`]) must carry the relaxed slot writes that precede it,
/// so a consumer whose acquire tail load observes the new frontier reads
/// the batch's real contents.
///
/// Mutation pairing: `RING_PUBLISH` weakened to `Relaxed` admits this
/// interleaving: the producer writes `(lane 3, value 7)` into slot 0 and
/// bumps `tail` without a release edge; the consumer's acquire load returns
/// the bumped tail but no happens-before, so its relaxed slot loads are
/// free to return the stale identity `(0, 0)` — caught by the payload
/// assert.
#[test]
fn ring_publish_carries_the_slot_writes_it_announces() {
    use crate::ring::SpscRing;
    loom::model(|| {
        let ring = Arc::new(SpscRing::new(2));
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                assert!(ring.push(3, 7), "capacity-2 ring rejected first push");
            })
        };
        let check = |lane: usize, value: u64| {
            assert_eq!(
                (lane, value),
                (3, 7),
                "published batch read back stale contents"
            );
        };
        // Racing drain: may see the batch or an empty frontier, never a
        // torn one.
        let mut seen = ring.consume(&mut |lane, value| check(lane, value));
        producer.join().unwrap();
        // Post-join drain: the join's happens-before makes the frontier
        // definitive, so exactly one update must surface in total.
        seen += ring.consume(&mut |lane, value| check(lane, value));
        assert_eq!(seen, 1, "published update lost");
        assert!(ring.is_drained());
    });
}

/// Protocol 7 — slot registration vs. drain: a producer that pushes its
/// final batch and *retires* its shard grant hands the ring to the drainer
/// through the RETIRED state store ([`SHARD_RETIRE`]). A drainer whose
/// acquire state load observes RETIRED must also observe the final tail —
/// only then may it free the slot for the next claimer.
///
/// Mutation pairing: `SHARD_RETIRE` weakened to `Relaxed` admits this
/// interleaving: the drainer's state load returns RETIRED with no
/// happens-before to the producer's push, its tail load returns the stale
/// empty frontier, its consume pass drains nothing, and the slot is recycled
/// with the update still in the ring — afterwards the slot is FREE, every later
/// drain pass skips it, and the final tally comes up one short.
#[test]
fn shard_retire_hands_off_the_final_publication() {
    use crate::ring::{ShardCache, ShardDirectory};
    loom::model(|| {
        let dir = Arc::new(ShardDirectory::new(1, 2));
        let producer = {
            let dir = Arc::clone(&dir);
            thread::spawn(move || {
                let grant = dir.claim().expect("one free slot");
                assert!(grant.ring.push(1, 9));
                dir.retire(&grant);
            })
        };
        let mut cache = ShardCache::default();
        let mut total = 0u64;
        let drain = |dir: &ShardDirectory, cache: &mut ShardCache, total: &mut u64| {
            *total += dir.drain_pass(
                0,
                1,
                cache,
                &mut |_slot, lane, value| {
                    assert_eq!((lane, value), (1, 9), "drained a torn update");
                },
                &mut |_slot, _count, _publish_ns| {},
            );
        };
        // Racing pass: may observe any prefix of claim/push/retire.
        drain(&dir, &mut cache, &mut total);
        producer.join().unwrap();
        // Post-join pass: everything is visible; nothing may have been
        // lost to a premature slot recycle.
        drain(&dir, &mut cache, &mut total);
        assert_eq!(total, 1, "retired shard's final batch lost");
    });
}

/// Protocol 8 — the parker's wake edge: `notify()`'s epoch bump
/// ([`WAKE_PUBLISH`]) must carry the publication that prompted it, so a
/// sleeper whose status RMW observes the new epoch also observes the data
/// and never goes (back) to sleep on work it cannot see.
///
/// Mutation pairing: `WAKE_PUBLISH` weakened to `Relaxed` admits this
/// interleaving: the publisher stores the mailbox value and bumps the
/// epoch, but the relaxed RMW does not add the publisher's clock to the
/// word's release chain; the waiter's acquire status RMW returns the *new*
/// epoch yet its mailbox load is free to return stale 0, so it arms and
/// sleeps against an epoch that will never tick again — every live thread
/// is then blocked and the model reports deadlock.
#[test]
fn queue_wake_publishes_the_mailbox_it_announces() {
    use crate::ring::{ParkResult, Parker};
    use crate::sync::atomic::{AtomicU64, Ordering};
    loom::model(|| {
        let parker = Arc::new(Parker::new());
        let mailbox = Arc::new(AtomicU64::new(0));
        let publisher = {
            let parker = Arc::clone(&parker);
            let mailbox = Arc::clone(&mailbox);
            thread::spawn(move || {
                mailbox.store(7, Ordering::Relaxed);
                parker.notify();
            })
        };
        loop {
            let status = parker.status();
            if mailbox.load(Ordering::Relaxed) != 0 {
                break;
            }
            match parker.park(status, || {}) {
                ParkResult::Slept | ParkResult::Moved => {}
            }
        }
        assert_eq!(mailbox.load(Ordering::Relaxed), 7);
        publisher.join().unwrap();
    });
}

/// Protocol 8b — the refresher's *timed* park on the same word: a demand
/// (`notify()`, what `refresh_now` sends) or shutdown (`close()`) racing
/// [`Parker::park_timeout`]'s arming RMW is either detected by the arm or
/// bumps a word that already counts the sleeper, so the loop below — the
/// refresher's own `status → work → park_timeout` cycle — always gets to see
/// the status move, and once it has, the word the demander stored before
/// demanding must be visible: a demanded snapshot has to cover the demand.
/// (The model's timed wait is the schedule where the interval expires
/// first; the real-clock interruption is `ring::tests`' job.)
///
/// Mutation pairing: `WAKE_PUBLISH` weakened to `Relaxed` admits the
/// interleaving of protocol 8 on this path too: the demander's bump (or
/// close bit) reaches the waiter's acquire status RMW without the
/// demander's clock, so the status has moved yet the mailbox load is free
/// to return stale 0 — caught by the mailbox assert.
#[test]
fn timed_park_never_sleeps_through_a_demand() {
    use crate::ring::Parker;
    use crate::sync::atomic::{AtomicU64, Ordering};
    for demand in [Parker::notify, Parker::close] {
        loom::model(move || {
            let parker = Arc::new(Parker::new());
            let mailbox = Arc::new(AtomicU64::new(0));
            let idle = parker.status();
            let demander = {
                let parker = Arc::clone(&parker);
                let mailbox = Arc::clone(&mailbox);
                thread::spawn(move || {
                    mailbox.store(7, Ordering::Relaxed);
                    demand(&parker);
                })
            };
            let mut status = idle;
            while status == idle {
                let moved = parker.park_timeout(status, std::time::Duration::from_secs(3600));
                status = parker.status();
                assert!(
                    !moved || status != idle,
                    "park_timeout reported a demand the status word does not hold"
                );
            }
            assert_eq!(
                mailbox.load(Ordering::Relaxed),
                7,
                "demand observed without the word stored before it"
            );
            demander.join().unwrap();
        });
    }
}

/// Protocol 9 — drain quiescence, on the shipped [`Quiescence`]: a worker
/// retires into the shared applied count ([`QUIESCE_PUBLISH`]) *after*
/// applying a batch, and `drain()`'s acquire RMW of that count is the only
/// edge through which the caller's subsequent reads see the applied data.
/// The RMW release-sequence continuation is what lets one acquire observe
/// *every* worker's clock even when their bumps interleave.
///
/// Mutation pairing: `QUIESCE_PUBLISH` weakened to `Relaxed` admits this
/// interleaving: the worker stores the result and bumps `applied`, but the
/// relaxed RMW does not add the worker's clock to the counter's release
/// chain; the waiter's acquire RMW reads the full count yet its relaxed
/// result load is free to return stale 0 — caught by the result assert.
/// (`retire` goes on to notify the waiters' parker, a `queue-wake` Release
/// RMW; it cannot shield the edge, because the waiter samples the parker
/// *before* it probes the count and may do both before either notify.)
#[test]
fn drain_quiesce_makes_applied_work_visible() {
    use crate::runtime::Quiescence;
    use crate::sync::atomic::{AtomicU64, Ordering};
    loom::model(|| {
        let quiesce = Arc::new(Quiescence::new());
        assert!(quiesce.admit(2), "the gate is open");
        let result = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..2u64)
            .map(|worker| {
                let quiesce = Arc::clone(&quiesce);
                let result = Arc::clone(&result);
                thread::spawn(move || {
                    result.fetch_add(5 << (8 * worker), Ordering::Relaxed);
                    quiesce.retire(1);
                })
            })
            .collect();
        quiesce.wait();
        assert_eq!(
            result.load(Ordering::Relaxed),
            (5 << 8) | 5,
            "quiesced reader saw stale results"
        );
        for worker in workers {
            worker.join().unwrap();
        }
    });
}

/// Protocol 10 — snapshot publication, on the shipped [`SnapshotCell`]: the
/// refresher fills the snapshot words with Relaxed stores and seals them
/// with one epoch bump carrying [`SNAP_PUBLISH`]; a reader whose Acquire
/// epoch load observes epoch `N` must also observe every word of snapshot
/// `N` or later. This is the whole eventual-consistency contract of
/// `stale_snapshot`, over a one-word store.
///
/// Mutation pairing: `SNAP_PUBLISH` weakened to `Relaxed` admits this
/// interleaving: the publisher stores word 7 and bumps the epoch, but the
/// relaxed RMW does not add the publisher's clock to the epoch's release
/// chain; the reader's acquire epoch load returns 1 yet its relaxed word
/// load is free to return stale 0 — caught by the word assert.
#[test]
fn snap_publish_seals_the_snapshot_words_it_announces() {
    use crate::runtime::SnapshotCell;
    loom::model(|| {
        let cell = Arc::new(SnapshotCell::new(1));
        let publisher = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.publish(&[7]))
        };
        let (words, epoch) = cell.read();
        if epoch > 0 {
            assert_eq!(words, [7], "sealed epoch observed over a stale word");
        }
        assert_eq!(publisher.join().unwrap(), 1);
        assert_eq!(cell.read(), (vec![7], 1));
    });
}
