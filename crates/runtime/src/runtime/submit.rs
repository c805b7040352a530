//! The submission frontend: the one producer handle ([`LaneHandle`]), the
//! resident workers' drain loop, and the quiescence protocol that ties
//! "submitted" to "applied".

use std::sync::Arc;

use coup_protocol::ops::CommutativeOp;

use super::Shared;
use crate::backend::StaleRead;
use crate::ring::{Parker, ShardCache, ShardGrant};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{self, QUIESCE_PUBLISH};

/// How many times a producer on the full edge cedes the CPU before arming
/// the parker. Zero under the model checker, so exhaustive executions hit
/// the park/wake protocol immediately instead of exploring yield loops.
#[cfg(not(coup_model))]
const FULL_EDGE_YIELDS: u32 = 8;
#[cfg(coup_model)]
const FULL_EDGE_YIELDS: u32 = 0;

/// Bit in [`Quiescence::submitted`] that marks the runtime closed. Packing
/// it into the counter makes "count this batch in, or learn we closed" one
/// indivisible RMW — the gate cannot race shutdown.
const SUBMIT_CLOSED: u64 = 1 << 63;
const SUBMIT_MASK: u64 = SUBMIT_CLOSED - 1;

/// The quiescence protocol: two monotone counters and the parker that waits
/// on them. Producers add to `submitted` *before* publishing, workers add to
/// `applied` *after* applying, so `applied >= submitted` — both read fresh
/// via RMWs — implies every counted update landed.
#[derive(Debug)]
pub(crate) struct Quiescence {
    /// `closed bit (bit 63) | updates submitted over the runtime's
    /// lifetime`: an upper bound on published updates until the producer
    /// finishes pushing.
    submitted: AtomicU64,
    /// Updates applied by resident workers.
    applied: AtomicU64,
    /// Parks [`Quiescence::wait`] callers; shutdown closes it last.
    pub(super) idle: Parker,
}

impl Quiescence {
    pub(crate) fn new() -> Self {
        Quiescence {
            submitted: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            idle: Parker::new(),
        }
    }

    /// The newest `submitted` word — an RMW, not a load: the exit, panic and
    /// wait decisions downstream must not see a stale cached one.
    fn word(&self) -> u64 {
        self.submitted.fetch_add(0, Ordering::Relaxed)
    }

    /// The gate: counts `count` updates in, or learns the runtime closed
    /// (`false`) and takes them back out — one indivisible RMW, so
    /// shutdown's workers either wait for these updates or the producer
    /// learns not to publish them.
    pub(crate) fn admit(&self, count: u64) -> bool {
        let open = self.submitted.fetch_add(count, Ordering::Relaxed) & SUBMIT_CLOSED == 0;
        if !open {
            self.submitted.fetch_sub(count, Ordering::Relaxed);
            // A waiter may have read a target that included the phantom count.
            self.idle.notify();
        }
        open
    }

    /// Closes the gate: every later [`Quiescence::admit`] refuses.
    pub(crate) fn close(&self) {
        self.submitted.fetch_or(SUBMIT_CLOSED, Ordering::Relaxed);
    }

    pub(crate) fn closed(&self) -> bool {
        self.word() & SUBMIT_CLOSED != 0
    }

    /// A worker retires `count` updates — *after* applying them: the release
    /// half of `drain-quiesce`.
    pub(crate) fn retire(&self, count: u64) {
        self.applied.fetch_add(count, QUIESCE_PUBLISH);
        self.idle.notify();
    }

    /// Blocks until every update admitted so far is applied. The Acquire RMW
    /// (paired with the workers' [`QUIESCE_PUBLISH`] bumps, whose RMW
    /// release sequence accumulates every worker's clock) is what makes the
    /// caller's subsequent reads see every applied update.
    pub(crate) fn wait(&self) {
        let target = self.word() & SUBMIT_MASK;
        loop {
            let status = self.idle.status();
            // ord: drain-quiesce
            if self.applied.fetch_add(0, Ordering::Acquire) >= target {
                return;
            }
            self.idle.park(status, || {});
        }
    }

    /// A worker's exit check: closed and globally quiesced — both read fresh
    /// via RMWs, so a true "all done" is never missed.
    fn finished(&self) -> bool {
        let submitted = self.word();
        submitted & SUBMIT_CLOSED != 0
            && self.applied.fetch_add(0, Ordering::Relaxed) >= submitted & SUBMIT_MASK
    }

    /// `(submitted, applied)` for the metrics fold (plain loads).
    pub(crate) fn counts(&self) -> (u64, u64) {
        let submitted = self.submitted.load(Ordering::Relaxed) & SUBMIT_MASK;
        (submitted, self.applied.load(Ordering::Relaxed))
    }
}

impl Shared {
    /// Body of resident worker `worker`: drain the rings in the worker's
    /// slot stripe, apply their updates through the privatized-buffer path,
    /// park on the empty edge, flush and exit once the runtime closes *and*
    /// quiesces.
    pub(super) fn drain_loop(&self, worker: usize) {
        let mut cache = ShardCache::default();
        loop {
            // Epoch snapshot *before* the scan: any publication after this
            // point moves it and turns the park below into a no-op retry.
            let status = self.wake[worker].status();
            let drained = self.directory.drain_pass(
                worker,
                self.workers,
                &mut cache,
                &mut |_slot, lane, value| self.backend.update(worker, lane, value),
                &mut |count, publish_ns| {
                    let dwell_us = self.telemetry.uptime_ns().saturating_sub(publish_ns) / 1_000;
                    self.telemetry.record_queue_pop(worker, count, dwell_us);
                },
            );
            if drained > 0 {
                self.quiesce.retire(drained);
                continue;
            }
            // Empty pass: exit iff closed and globally quiesced.
            if self.quiesce.finished() {
                // Publish this worker's remaining buffered deltas so the
                // post-join snapshot is exact, then wake peers (they may be
                // parked waiting for exactly this quiescence) and any
                // drain() waiter.
                self.backend.flush(worker);
                self.wake_workers();
                self.quiesce.idle.notify();
                return;
            }
            self.park_counted(&self.wake[worker], status, worker);
        }
    }
}

/// The one producer handle: accumulates `(lane, value)` updates into a
/// private batch and publishes it into this producer's own SPSC ring when
/// full (or on [`LaneHandle::flush`] / drop), and reads synchronously
/// through the backend's O(active-writers) reduction path. `Send`, and
/// cheap to clone — each clone is an independent producer with its own
/// batch and, from its first flush, its own shard slot; hand one to every
/// producer thread. [`CounterHandle`](super::CounterHandle) adds operation
/// typing on top.
#[derive(Debug)]
pub struct LaneHandle {
    shared: Arc<Shared>,
    batch: Vec<(usize, u64)>,
    /// The claimed shard slot + ring, lazily acquired on the first flush so
    /// read-mostly handles never occupy a slot.
    shard: Option<ShardGrant>,
    /// Producer mirror of the ring's tail cursor (its next write position).
    tail: u64,
    /// Last observed consumer cursor — refreshed only when the mirror says
    /// the ring *looks* full, the classic Lamport-queue optimisation.
    head_cache: u64,
}

impl LaneHandle {
    pub(super) fn new(shared: Arc<Shared>) -> Self {
        let capacity = shared.batch_capacity;
        LaneHandle {
            shared,
            batch: Vec::with_capacity(capacity),
            shard: None,
            tail: 0,
            head_cache: 0,
        }
    }

    /// Appends one update to the current batch; publishes the batch when it
    /// reaches the runtime's batch capacity.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, or if the batch fills after the
    /// runtime has shut down.
    pub fn push(&mut self, lane: usize, value: u64) {
        assert!(
            lane < self.shared.backend.len(),
            "lane {lane} out of range ({} lanes)",
            self.shared.backend.len()
        );
        self.batch.push((lane, value));
        if self.batch.len() >= self.shared.batch_capacity {
            self.flush();
        }
    }

    /// Publishes the current batch into this producer's ring (no-op when
    /// empty). The updates become visible to reads once a resident worker
    /// applies them; use [`CoupRuntime::drain`](super::CoupRuntime::drain) to
    /// wait for that.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has shut down.
    pub fn flush(&mut self) {
        self.submit(true);
    }

    /// Updates accumulated but not yet published.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Reads `lane` synchronously on the calling thread. Sees every applied
    /// update; updates still queued (including this handle's own un-flushed
    /// batch) may be missing — read-your-writes requires
    /// [`LaneHandle::flush`] plus [`CoupRuntime::drain`](super::CoupRuntime::drain).
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.shared.read(lane)
    }

    /// Reads `lane` through the relaxed tier: the store word plus a monotone
    /// staleness bound, with no reduction and no read holds (see
    /// [`CoupRuntime::read_stale`](super::CoupRuntime::read_stale)). The
    /// bound counts this handle's own queued-but-unapplied updates too.
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        self.shared.read_stale(lane)
    }

    /// Number of lanes of the underlying runtime.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.shared.backend.len()
    }

    /// The commutative operation of the underlying runtime.
    #[must_use]
    pub fn op(&self) -> CommutativeOp {
        self.shared.backend.op()
    }

    /// The one publication path. `panic_if_closed` selects the closed-
    /// runtime reaction: panic (explicit submissions — the runtime shut down
    /// under a live handle) or silently discard (`Drop`, where panicking
    /// would abort).
    fn submit(&mut self, panic_if_closed: bool) {
        if self.batch.is_empty() {
            return;
        }
        let count = self.batch.len() as u64;
        if !self.shared.quiesce.admit(count) {
            self.batch.clear();
            // The phantom count may have parked an exiting worker on the
            // quiescence check: re-wake everyone.
            self.shared.wake_workers();
            assert!(
                !panic_if_closed,
                "update submitted to a CoupRuntime that has shut down \
                 (flush or drop all handles before shutdown())"
            );
            return;
        }
        if self.shard.is_none() {
            self.claim_shard();
        }
        let grant = self.shard.as_ref().expect("claimed above");
        let ring = grant.ring.as_ref();
        let capacity = ring.capacity();
        let slot = self.shared.directory.slot(grant.slot);
        let worker = grant.slot % self.shared.workers;
        let shared = &self.shared;
        let publish = |tail: u64| {
            let now = shared.telemetry.uptime_ns();
            slot.last_publish_ns.store(now, Ordering::Relaxed);
            ring.publish(tail);
            shared.wake[worker].notify();
        };
        let mut dirty = false;
        for &(lane, value) in &self.batch {
            while self.tail.wrapping_sub(self.head_cache) >= capacity {
                // Publish what we have and wake the drainer before waiting:
                // unpublished slots cannot be drained, and an unwoken
                // drainer would never drain them.
                if dirty {
                    publish(self.tail);
                    dirty = false;
                }
                self.head_cache = ring.head();
                if self.tail.wrapping_sub(self.head_cache) < capacity {
                    break;
                }
                // The drainer frees the whole ring in one consume pass, so
                // space tends to appear within a scheduling quantum. Cede
                // the CPU a few times before paying for a futex sleep: a
                // park costs the producer a syscall round-trip *and* makes
                // the drainer's next wake take the parker mutex, so keeping
                // `sleepers == 0` on transient full edges speeds up the
                // bottleneck side too. Zero retries under the model checker:
                // the exhaustive schedules go straight at the park protocol.
                for _ in 0..FULL_EDGE_YIELDS {
                    sync::thread::yield_now();
                    self.head_cache = ring.head();
                    if self.tail.wrapping_sub(self.head_cache) < capacity {
                        break;
                    }
                }
                if self.tail.wrapping_sub(self.head_cache) < capacity {
                    break;
                }
                let status = slot.space.status();
                self.head_cache = ring.head();
                if self.tail.wrapping_sub(self.head_cache) < capacity {
                    break;
                }
                shared.park_counted(&slot.space, status, worker);
            }
            ring.write(self.tail, lane, value);
            self.tail = self.tail.wrapping_add(1);
            dirty = true;
        }
        if dirty {
            publish(self.tail);
        }
        self.batch.clear();
    }

    /// Claims a shard slot, parking on the directory's freed-slot edge while
    /// every slot is held. The gate already counted our updates, so workers
    /// cannot quiesce without them: a retiring producer's slot will free.
    fn claim_shard(&mut self) {
        let grant = loop {
            if let Some(grant) = self.shared.directory.claim() {
                break grant;
            }
            let status = self.shared.directory.freed.status();
            if let Some(grant) = self.shared.directory.claim() {
                break grant;
            }
            self.shared.directory.freed.park(status, || {});
        };
        // A recycled ring keeps its cursors (they only ever advance); the
        // claim's Acquire made the previous generation's final, fully
        // drained cursor values visible.
        self.tail = grant.ring.producer_tail();
        self.head_cache = self.tail;
        self.shard = Some(grant);
    }
}

impl Clone for LaneHandle {
    /// A fresh producer over the same runtime, starting with an empty batch
    /// and no shard slot.
    fn clone(&self) -> Self {
        LaneHandle::new(Arc::clone(&self.shared))
    }
}

impl Drop for LaneHandle {
    /// Publishes the final partial batch so dropping a handle never loses
    /// updates (if the runtime already shut down the batch is discarded —
    /// flush explicitly before `shutdown()` to be certain), then retires
    /// this producer's shard slot so its worker can recycle it.
    fn drop(&mut self) {
        if !self.batch.is_empty() {
            self.submit(false);
        }
        if let Some(grant) = self.shard.take() {
            self.shared.directory.retire(&grant);
            // The drainer owning this stripe frees the slot once drained.
            self.shared.wake[grant.slot % self.shared.workers].notify();
        }
    }
}
