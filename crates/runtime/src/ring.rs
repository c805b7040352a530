//! The lock-free sharded submission fabric: per-producer SPSC rings
//! registered in a slot directory, plus the epoch [`Parker`] that confines
//! blocking to the empty/full edges.
//!
//! The MPSC mutex queue this replaces serialized every producer on one lock;
//! here each producer owns a bounded single-producer/single-consumer ring
//! ([`SpscRing`]) and publishes updates with one Release store per batch.
//! Rings live in a [`ShardDirectory`]: a fixed array of slots a producer
//! claims with one CAS and retires on drop, and that resident workers scan
//! round-robin. Slot `i` is drained only by worker `i % workers`, so every
//! ring has exactly one consumer and the SPSC discipline holds without any
//! consumer-side synchronization.
//!
//! Blocking is confined to the edges, in the futex style: a consumer that
//! finds every assigned ring empty (or a producer that finds its ring full)
//! *arms* a [`Parker`] with a read-modify-write on a packed
//! sleepers/epoch word and sleeps on a condvar only if no publication beat
//! the arm. Because RMWs always observe the newest value of the word, a
//! publication and an arm on the same parker are totally ordered by the
//! word's modification order: one of the two sides always sees the other,
//! which is the classic argument for why this protocol cannot miss a wakeup
//! without needing any `SeqCst` fence.
//!
//! The memory-ordering contract of the five tags this file owns
//! (`ring-publish`, `ring-consume`, `shard-claim`, `shard-retire`,
//! `queue-wake`) is ARCHITECTURE.md's edge table, under "The
//! memory-ordering contract".

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Condvar, Mutex, RING_PUBLISH, SHARD_RETIRE, WAKE_PUBLISH};
use std::sync::Arc;

/// Pads (and aligns) a hot atomic to its own cache line so the producer's
/// tail and the consumer's head never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// A bounded single-producer/single-consumer ring of `(lane, value)` updates
/// — the Lamport queue, in safe Rust: slot words are relaxed atomics and the
/// Release/Acquire pair on `tail` is the only publication edge, exactly like
/// the trace ring's ticket protocol.
///
/// Cursors are monotonically increasing u64s; `cursor & mask` is the slot.
/// The producer owns `tail` (store side) and reads `head` only to check for
/// space; the consumer owns `head` and reads `tail` only to learn the
/// published frontier.
pub(crate) struct SpscRing {
    mask: u64,
    /// Consumer cursor: everything below it has been consumed.
    head: CachePadded<AtomicU64>,
    /// Producer cursor: everything below it is published.
    tail: CachePadded<AtomicU64>,
    lanes: Box<[AtomicU64]>,
    values: Box<[AtomicU64]>,
}

impl std::fmt::Debug for SpscRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

impl SpscRing {
    /// A ring of at least `capacity` update slots (rounded up to a power of
    /// two, minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        SpscRing {
            mask: capacity as u64 - 1,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
            lanes: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            values: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of update slots.
    pub(crate) fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// The consumer cursor, for the producer's space check. Acquire pairs
    /// with the consumer's Release in [`SpscRing::consume`]: a producer that
    /// observes the freed slots also observes that their loads completed.
    pub(crate) fn head(&self) -> u64 {
        self.head.0.load(Ordering::Acquire) // ord: ring-consume
    }

    /// The published frontier, with the happens-before edge to every slot
    /// write below it (when [`RING_PUBLISH`] is not mutated).
    pub(crate) fn tail(&self) -> u64 {
        self.tail.0.load(Ordering::Acquire) // ord: ring-publish
    }

    /// The producer's own tail cursor (producer only — a new claimant of a
    /// recycled ring reads its starting position here; freshness comes from
    /// the claim CAS's Acquire against the drainer's FREE release).
    pub(crate) fn producer_tail(&self) -> u64 {
        self.tail.0.load(Ordering::Relaxed)
    }

    /// Writes one update into the slot for cursor `at` (producer only;
    /// invisible until published).
    pub(crate) fn write(&self, at: u64, lane: usize, value: u64) {
        let slot = (at & self.mask) as usize;
        self.lanes[slot].store(lane as u64, Ordering::Relaxed);
        self.values[slot].store(value, Ordering::Relaxed);
    }

    /// Publishes every slot written below `tail` (producer only). The
    /// Release store is the ring's single publication edge.
    pub(crate) fn publish(&self, tail: u64) {
        self.tail.0.store(tail, RING_PUBLISH);
    }

    /// Single-producer convenience push: write-then-publish one update,
    /// `false` when the ring is full. The runtime's `LaneHandle` batches
    /// publications instead; this is the model tests' and stress tests'
    /// direct handle on the protocol.
    #[cfg(test)]
    pub(crate) fn push(&self, lane: usize, value: u64) -> bool {
        let tail = self.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head()) >= self.capacity() {
            return false;
        }
        self.write(tail, lane, value);
        self.publish(tail + 1);
        true
    }

    /// Consumes every published update (consumer only), invoking `apply`
    /// per `(lane, value)` in publication order. Returns the count drained.
    pub(crate) fn consume(&self, apply: &mut dyn FnMut(usize, u64)) -> u64 {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail(); // ring-publish acquire: slot words below are fresh
        if tail == head {
            return 0;
        }
        for at in head..tail {
            let slot = (at & self.mask) as usize;
            let lane = self.lanes[slot].load(Ordering::Relaxed) as usize;
            let value = self.values[slot].load(Ordering::Relaxed);
            apply(lane, value);
        }
        // Free the consumed slots; Release so the producer's Acquire in
        // `head()` orders these loads before any overwrite (`sync.rs`'s
        // edge block says why this edge has no mutation).
        self.head.0.store(tail, Ordering::Release); // ord: ring-consume
        tail - head
    }

    /// True when every published update has been consumed (consumer only —
    /// the producer's view of `tail` is its own mirror).
    #[cfg(test)]
    pub(crate) fn is_drained(&self) -> bool {
        self.tail() == self.head.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------------

/// Outcome of [`Parker::park`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkResult {
    /// The epoch moved between `status()` and arming — a publication beat
    /// us; re-check the condition instead of sleeping.
    Moved,
    /// We slept on the condvar and were notified (or closed). Re-check.
    Slept,
}

/// A futex-flavoured parker built from one packed atomic word plus a
/// mutex/condvar slow path, in the style of the `parking` crates: the word
/// packs a sleeper count (low bits), a closed bit, and a publication epoch
/// (high bits). Publishers bump the epoch with an RMW and take the mutex
/// only when the sleeper count says someone is actually asleep; sleepers arm
/// with an RMW and sleep only if the epoch did not move. RMW atomicity on
/// the shared word totally orders arm vs. bump, so no wakeup is ever missed
/// — no `SeqCst` required (the tree-wide lint enforces that).
pub(crate) struct Parker {
    /// `sleepers (16 bits) | closed (1 bit) | epoch (47 bits)`.
    word: AtomicU64,
    mutex: Mutex<()>,
    cv: Condvar,
}

const SLEEPER_ONE: u64 = 1;
const SLEEPER_MASK: u64 = 0xFFFF;
const CLOSED_BIT: u64 = 1 << 16;
const EPOCH_ONE: u64 = 1 << 17;

impl std::fmt::Debug for Parker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = self.word.load(Ordering::Relaxed);
        f.debug_struct("Parker")
            .field("sleepers", &(word & SLEEPER_MASK))
            .field("closed", &(word & CLOSED_BIT != 0))
            .field("epoch", &(word >> 17))
            .finish()
    }
}

impl Parker {
    pub(crate) fn new() -> Self {
        Parker {
            word: AtomicU64::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The current epoch+closed status, read *before* checking the
    /// condition — as an Acquire RMW, not a plain load. The RMW reads the
    /// newest word *and* acquires the release chain of every notify that
    /// produced it, so the caller's condition check sees everything
    /// published before the last notify. A plain load could return the
    /// newest epoch without that edge: the caller would scan stale-empty
    /// state and then sleep on an epoch that has already ticked its last —
    /// a missed wakeup. (An epoch bumped *after* this read is still safe:
    /// [`Parker::park`]'s arming RMW re-reads the word and returns
    /// [`ParkResult::Moved`].)
    pub(crate) fn status(&self) -> u64 {
        self.word.fetch_add(0, Ordering::Acquire) & !SLEEPER_MASK // ord: queue-wake
    }

    /// True once [`Parker::close`] ran (same staleness caveat as
    /// [`Parker::status`]).
    pub(crate) fn is_closed(&self) -> bool {
        self.word.load(Ordering::Relaxed) & CLOSED_BIT != 0
    }

    /// Publication: bump the epoch, and wake sleepers if the arm counter
    /// says there are any. The Release on the bump is the edge that lets a
    /// sleeper whose arm detected the bump see the data published just
    /// before it ([`WAKE_PUBLISH`] — `coup_mutation = "queue-wake"` loses
    /// exactly that visibility). The condvar path needs no such edge: the
    /// mutex already orders it.
    pub(crate) fn notify(&self) {
        let prev = self.word.fetch_add(EPOCH_ONE, WAKE_PUBLISH);
        if prev & SLEEPER_MASK != 0 {
            // Lock before notifying: a sleeper is either already on the
            // condvar (notify reaches it) or still before its final epoch
            // re-check under this mutex (it will see the bump and not
            // sleep). Either way the wakeup cannot fall between.
            let guard = lock(&self.mutex);
            self.cv.notify_all();
            drop(guard);
        }
    }

    /// Marks the parker closed (a status change every sleeper wakes for and
    /// every later `park` refuses to sleep through).
    pub(crate) fn close(&self) {
        self.word.fetch_or(CLOSED_BIT, WAKE_PUBLISH);
        let guard = lock(&self.mutex);
        self.cv.notify_all();
        drop(guard);
    }

    /// Parks until the epoch/closed status moves past `expected` (taken from
    /// [`Parker::status`] before the caller last checked its condition).
    /// `on_sleep` runs once, just before first touching the condvar — the
    /// runtime hangs its park telemetry there so armed-but-not-slept calls
    /// cost nothing.
    pub(crate) fn park(&self, expected: u64, on_sleep: impl FnOnce()) -> ParkResult {
        if !self.arm(expected) {
            return ParkResult::Moved;
        }
        on_sleep();
        let mut guard = lock(&self.mutex);
        loop {
            // Fresh by the mutex: every notifier bumps the word before
            // taking this lock, so once we hold it the bump is visible.
            if self.word.load(Ordering::Relaxed) & !SLEEPER_MASK != expected {
                break;
            }
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(guard);
        self.word.fetch_sub(SLEEPER_ONE, Ordering::Relaxed);
        ParkResult::Slept
    }

    /// [`Parker::park`] with a deadline, for the snapshot refresher: sleeps
    /// until `timeout` elapses or the status moves past `expected` (an
    /// on-demand `CoupRuntime::refresh_now` bump, or the shutdown close),
    /// whichever is first. Returns `true` when the status moved; timeouts
    /// and spurious wakeups alike return `false` — the refresher publishes
    /// either way, since an early snapshot is always safe.
    pub(crate) fn park_timeout(&self, expected: u64, timeout: std::time::Duration) -> bool {
        if !self.arm(expected) {
            return true;
        }
        let moved = || self.word.load(Ordering::Relaxed) & !SLEEPER_MASK != expected;
        let mut guard = lock(&self.mutex);
        // Fresh by the mutex, as in `park`: a bump that beat the lock is
        // seen here, a later one notifies the condvar.
        if !moved() {
            (guard, _) = self
                .cv
                .wait_timeout(guard, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let moved = moved();
        drop(guard);
        self.word.fetch_sub(SLEEPER_ONE, Ordering::Relaxed);
        moved
    }

    /// Arms: registers as a sleeper, or — when the status already moved
    /// past `expected` — backs out and returns `false`. The RMW reads the
    /// newest word, so a publication that beat us is always detected here;
    /// Acquire pairs with the publisher's Release bump so the re-check that
    /// follows a detected bump also sees the data published before it.
    fn arm(&self, expected: u64) -> bool {
        let prev = self.word.fetch_add(SLEEPER_ONE, Ordering::Acquire); // ord: queue-wake
        let armed = prev & !SLEEPER_MASK == expected;
        if !armed {
            self.word.fetch_sub(SLEEPER_ONE, Ordering::Relaxed);
        }
        armed
    }
}

// ---------------------------------------------------------------------------
// Shard directory
// ---------------------------------------------------------------------------

const STATE_MASK: u64 = 0b11;
const STATE_FREE: u64 = 0;
const STATE_ACTIVE: u64 = 1;
const STATE_RETIRED: u64 = 2;
const GEN_ONE: u64 = 4;

/// One directory slot: a lifecycle word (`FREE → ACTIVE → RETIRED → FREE`,
/// with a generation counter packed above the state bits), the slot's ring,
/// and the producer-side full-edge parker. The ring is allocated on the
/// slot's first claim and reused by every later generation — after warm-up,
/// claim and retire are a CAS and a store.
pub(crate) struct ShardSlot {
    /// `state (2 bits) | generation`.
    state: AtomicU64,
    /// Created on first claim, under the mutex; steady-state drains use the
    /// per-worker generation cache and never lock.
    ring: Mutex<Option<Arc<SpscRing>>>,
    /// Wakes the producer parked on a full ring.
    pub(crate) space: Parker,
    /// Nanoseconds (runtime epoch) of the producer's last publish — the
    /// start of the dwell interval the per-shard queue metrics report.
    pub(crate) last_publish_ns: AtomicU64,
    /// Updates drained from this slot over the runtime's lifetime.
    drained: AtomicU64,
}

impl std::fmt::Debug for ShardSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSlot")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A producer's claim on one directory slot: the slot index, its ring, and
/// the generation the claim minted (retire must present the same one).
#[derive(Debug, Clone)]
pub(crate) struct ShardGrant {
    pub(crate) slot: usize,
    pub(crate) ring: Arc<SpscRing>,
    gen: u64,
}

/// Per-worker cache of slot rings keyed by generation, so steady-state
/// drain passes never touch a slot's mutex: the lifecycle word's generation
/// tells the worker exactly when its cached `Arc` went stale.
#[derive(Debug, Default)]
pub(crate) struct ShardCache {
    entries: Vec<Option<(u64, Arc<SpscRing>)>>,
}

/// Per-slot lifetime statistics, surfaced by `CoupRuntime::shard_stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// Directory slot index.
    pub slot: usize,
    /// Producers that have claimed this slot over the runtime's lifetime.
    pub claims: u64,
    /// Updates drained from this slot over the runtime's lifetime.
    pub drained: u64,
    /// True while a producer currently holds the slot.
    pub live: bool,
}

/// The fixed array of shard slots producers claim and workers scan. Slot
/// `i` belongs to worker `i % workers`; producers claim the lowest free
/// slot, so shards spread round-robin over workers.
pub(crate) struct ShardDirectory {
    slots: Box<[ShardSlot]>,
    ring_capacity: usize,
    /// One past the highest slot ever claimed: bounds every scan to the
    /// slots that have ever held data.
    high_water: AtomicU64,
    /// Wakes producers waiting for *any* slot to free (directory full).
    pub(crate) freed: Parker,
}

impl std::fmt::Debug for ShardDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardDirectory")
            .field("slots", &self.slots.len())
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

impl ShardDirectory {
    /// A directory of `slots` shard slots whose rings hold `ring_capacity`
    /// updates each (capacity rounded up per ring; rings allocate lazily).
    pub(crate) fn new(slots: usize, ring_capacity: usize) -> Self {
        ShardDirectory {
            slots: (0..slots.max(1))
                .map(|_| ShardSlot {
                    state: AtomicU64::new(STATE_FREE),
                    ring: Mutex::new(None),
                    space: Parker::new(),
                    last_publish_ns: AtomicU64::new(0),
                    drained: AtomicU64::new(0),
                })
                .collect(),
            ring_capacity,
            high_water: AtomicU64::new(0),
            freed: Parker::new(),
        }
    }

    pub(crate) fn slot(&self, index: usize) -> &ShardSlot {
        &self.slots[index]
    }

    /// Claims the lowest free slot: one successful CAS per claim. `None`
    /// when every slot is held (callers park on [`ShardDirectory::freed`]).
    /// The CAS's Acquire pairs with the drainer's FREE store so a reused
    /// ring is seen fully drained (head == tail) by its new producer.
    pub(crate) fn claim(&self) -> Option<ShardGrant> {
        for (index, slot) in self.slots.iter().enumerate() {
            let state = slot.state.load(Ordering::Relaxed);
            if state & STATE_MASK != STATE_FREE {
                continue;
            }
            let gen = (state & !STATE_MASK).wrapping_add(GEN_ONE);
            if slot
                .state
                .compare_exchange(
                    state,
                    STATE_ACTIVE | gen,
                    Ordering::AcqRel, // ord: shard-claim
                    Ordering::Relaxed,
                )
                .is_err()
            {
                continue;
            }
            let ring = {
                let mut guard = lock(&slot.ring);
                Arc::clone(guard.get_or_insert_with(|| Arc::new(SpscRing::new(self.ring_capacity))))
            };
            self.high_water
                .fetch_max(index as u64 + 1, Ordering::Relaxed);
            return Some(ShardGrant {
                slot: index,
                ring,
                gen,
            });
        }
        None
    }

    /// Retires a claimed slot (producer drop): the RETIRED store's Release
    /// ([`SHARD_RETIRE`]) is what guarantees the drainer that acquires it an
    /// up-to-date view of the ring's final tail — `coup_mutation =
    /// "shard-retire"` loses exactly that, and
    /// `model_tests::shard_retire_hands_off_the_final_publication` catches
    /// the update a prematurely recycled slot strands.
    pub(crate) fn retire(&self, grant: &ShardGrant) {
        self.slots[grant.slot]
            .state
            .store(STATE_RETIRED | grant.gen, SHARD_RETIRE);
    }

    /// One scan over the slots assigned to `worker` (slot index ≡ worker
    /// mod `workers`): consumes every published update via `apply(slot,
    /// lane, value)`, reports per-slot batches via `on_batch(slot, count,
    /// publish_ns)`, frees fully drained retired slots, and returns the
    /// total updates consumed.
    pub(crate) fn drain_pass(
        &self,
        worker: usize,
        workers: usize,
        cache: &mut ShardCache,
        apply: &mut dyn FnMut(usize, usize, u64),
        on_batch: &mut dyn FnMut(usize, u64, u64),
    ) -> u64 {
        let high = (self.high_water.load(Ordering::Relaxed) as usize).min(self.slots.len());
        if cache.entries.len() < high {
            cache.entries.resize(high, None);
        }
        let mut total = 0;
        let mut index = worker;
        while index < high {
            let slot = &self.slots[index];
            let state = slot.state.load(Ordering::Acquire); // ord: shard-retire shard-claim
            let lifecycle = state & STATE_MASK;
            if lifecycle == STATE_FREE {
                index += workers;
                continue;
            }
            let gen = state & !STATE_MASK;
            let ring = match &cache.entries[index] {
                Some((cached_gen, ring)) if *cached_gen == gen => Arc::clone(ring),
                _ => {
                    let guard = lock(&slot.ring);
                    match guard.as_ref() {
                        Some(ring) => {
                            let ring = Arc::clone(ring);
                            drop(guard);
                            cache.entries[index] = Some((gen, Arc::clone(&ring)));
                            ring
                        }
                        None => {
                            // Claim CAS won but the ring is not inserted
                            // yet; it cannot hold data either. Come back.
                            index += workers;
                            continue;
                        }
                    }
                }
            };
            let publish_ns = slot.last_publish_ns.load(Ordering::Relaxed);
            let drained = ring.consume(&mut |lane, value| apply(index, lane, value));
            if drained > 0 {
                total += drained;
                slot.drained.fetch_add(drained, Ordering::Relaxed);
                on_batch(index, drained, publish_ns);
                // A producer may be parked on the full edge.
                slot.space.notify();
            }
            if lifecycle == STATE_RETIRED {
                // The producer is gone and (thanks to the shard-retire
                // acquire above) its final tail was visible to the consume
                // pass just made, so the ring is drained without re-reading
                // the tail: recycle the slot for the next claimer.
                slot.state.store(STATE_FREE | gen, Ordering::Release); // ord: shard-claim
                self.freed.notify();
            }
            index += workers;
        }
        total
    }

    /// Closes every parker a producer might sleep on (shutdown).
    pub(crate) fn close_all(&self) {
        for slot in self.slots.iter() {
            slot.space.close();
        }
        self.freed.close();
    }

    /// Per-slot lifetime statistics for every slot ever claimed.
    pub(crate) fn stats(&self) -> Vec<ShardStat> {
        let high = (self.high_water.load(Ordering::Relaxed) as usize).min(self.slots.len());
        (0..high)
            .map(|index| {
                let state = self.slots[index].state.load(Ordering::Relaxed);
                ShardStat {
                    slot: index,
                    claims: (state & !STATE_MASK) / GEN_ONE,
                    drained: self.slots[index].drained.load(Ordering::Relaxed),
                    live: state & STATE_MASK == STATE_ACTIVE,
                }
            })
            .collect()
    }
}

#[cfg(all(test, not(coup_model)))]
mod tests {
    use super::*;

    #[test]
    fn ring_roundtrips_in_order_and_reports_capacity() {
        let ring = SpscRing::new(3); // rounds up to 4
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            assert!(ring.push(i, i as u64 * 10));
        }
        assert!(!ring.push(9, 9), "5th push into a 4-slot ring must fail");
        let mut got = Vec::new();
        assert_eq!(ring.consume(&mut |lane, value| got.push((lane, value))), 4);
        assert_eq!(got, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        assert!(ring.is_drained());
        // Wrap-around: cursors keep counting past capacity.
        assert!(ring.push(7, 77));
        let mut got = Vec::new();
        assert_eq!(ring.consume(&mut |lane, value| got.push((lane, value))), 1);
        assert_eq!(got, vec![(7, 77)]);
    }

    #[test]
    fn parker_arm_detects_a_publication_that_beat_it() {
        let parker = Parker::new();
        let status = parker.status();
        parker.notify(); // epoch moves; nobody sleeping, no lock taken
        let mut slept = false;
        assert_eq!(
            parker.park(status, || slept = true),
            ParkResult::Moved,
            "arming after a bump must not sleep"
        );
        assert!(!slept, "on_sleep must not run on the Moved path");
    }

    #[test]
    fn parker_close_wakes_and_future_parks_refuse_to_sleep() {
        let parker = Arc::new(Parker::new());
        let sleeper = {
            let parker = Arc::clone(&parker);
            let status = parker.status();
            std::thread::spawn(move || parker.park(status, || {}))
        };
        // Wait until the sleeper is actually armed, then close.
        while parker.word.load(Ordering::Relaxed) & SLEEPER_MASK == 0 {
            std::hint::spin_loop();
        }
        parker.close();
        sleeper.join().unwrap();
        assert!(parker.is_closed());
        let status = parker.status();
        assert_eq!(
            parker.park(status.wrapping_sub(EPOCH_ONE), || {}),
            ParkResult::Moved
        );
    }

    #[test]
    fn refresh_gate_times_out_detects_demands_and_closes() {
        let gate = Parker::new();
        let status = gate.status();
        // No demand: the short sleep expires.
        assert!(!gate.park_timeout(status, std::time::Duration::from_millis(1)));
        // A demand that beat the arm is detected without sleeping.
        let status = gate.status();
        gate.notify();
        assert!(gate.park_timeout(status, std::time::Duration::from_secs(3600)));
        // Close wakes a refresher parked on a long timeout.
        let gate = Arc::new(Parker::new());
        let status = gate.status();
        let sleeper = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.park_timeout(status, std::time::Duration::from_secs(3600))
            })
        };
        while gate.word.load(Ordering::Relaxed) & SLEEPER_MASK == 0 {
            std::hint::spin_loop();
        }
        gate.close();
        assert!(sleeper.join().unwrap(), "close must interrupt the sleep");
        assert!(gate.is_closed());
    }

    #[test]
    fn directory_claims_are_distinct_and_recycle_after_retire_and_drain() {
        let dir = ShardDirectory::new(2, 8);
        let a = dir.claim().expect("slot 0");
        let b = dir.claim().expect("slot 1");
        assert_eq!((a.slot, b.slot), (0, 1));
        assert!(dir.claim().is_none(), "directory full");
        assert!(a.ring.push(3, 5));
        dir.retire(&a);
        // Worker 0 of 1 drains everything, sees the retired slot empty,
        // and frees it.
        let mut cache = ShardCache::default();
        let mut got = Vec::new();
        let drained = dir.drain_pass(
            0,
            1,
            &mut cache,
            &mut |slot, lane, value| {
                got.push((slot, lane, value));
            },
            &mut |_, _, _| {},
        );
        assert_eq!(drained, 1);
        assert_eq!(got, vec![(0, 3, 5)]);
        let c = dir.claim().expect("slot 0 recycled");
        assert_eq!(c.slot, 0);
        let stats = dir.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].claims, 2);
        assert_eq!(stats[0].drained, 1);
        assert!(stats[0].live && stats[1].live);
        dir.retire(&b);
        dir.retire(&c);
        let _ = dir.drain_pass(0, 1, &mut cache, &mut |_, _, _| {}, &mut |_, _, _| {});
        assert!(dir.stats().iter().all(|s| !s.live));
    }

    #[test]
    fn drain_pass_respects_worker_striping() {
        let dir = ShardDirectory::new(4, 8);
        let grants: Vec<_> = (0..4).map(|_| dir.claim().unwrap()).collect();
        for (i, grant) in grants.iter().enumerate() {
            assert!(grant.ring.push(i, 1));
        }
        let mut cache = ShardCache::default();
        let mut slots = Vec::new();
        let drained = dir.drain_pass(
            1,
            2,
            &mut cache,
            &mut |slot, _, _| slots.push(slot),
            &mut |_, _, _| {},
        );
        assert_eq!(drained, 2, "worker 1 of 2 owns slots 1 and 3");
        assert_eq!(slots, vec![1, 3]);
    }
}
