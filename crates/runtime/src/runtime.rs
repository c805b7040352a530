//! The service facade: [`CoupRuntime`], its [`RuntimeBuilder`], and the
//! lock-free sharded submission frontend.
//!
//! Everything below `coup-runtime`'s backends assumes a *worker* discipline:
//! a fixed set of threads, each owning one privatized buffer, driving
//! [`UpdateBackend::update`] with its own thread index. That is the right
//! shape for kernels, but not for a service: a network handler or request
//! thread cannot be a pinned worker. The facade closes the gap the same way
//! the COUP hardware does — in the paper, *any* core may issue an
//! update-request message and the coherence fabric routes it to wherever the
//! line's U-state copy lives. Here, any thread may hold a [`Submitter`] (or a
//! typed view such as [`CounterHandle`]) and push updates into a batch; full
//! batches are published into the producer's own bounded SPSC ring, claimed
//! from a lock-free shard directory, and the runtime's *resident workers*
//! drain the rings round-robin into the existing privatized-buffer path. The
//! published batch is the software analogue of the update-request message;
//! because every ring has exactly one producer and one consuming worker, the
//! hand-off costs one Release store (plus one wake RMW) per batch and no
//! producer ever serializes against another — the delivery path is as
//! contention-free as the buffers it feeds, which is the paper's premise
//! applied to the fabric itself.
//!
//! Blocking survives only at the *edges*, futex-style (`ring::Parker`): a
//! worker whose rings are all empty parks until a publication bumps its
//! epoch; a producer whose ring is full parks until its worker frees slots.
//! Resident workers spawn lazily, on the first submission handle — a runtime
//! used only for [`CoupRuntime::run_workers`] kernels never parks drainers
//! it will never feed.
//!
//! Reads never queue: they run synchronously on the caller's thread through
//! the O(active-writers) reduction path, exactly like a COUP read collecting
//! U-state copies.
//!
//! # Consistency
//!
//! The facade inherits the backends' quiescent consistency and weakens the
//! submission side by the rings: an update pushed into a handle becomes
//! visible to reads once its batch has been published (by size, by an
//! explicit [`Submitter::flush`], or by dropping the handle) *and* a
//! resident worker has applied it. [`CoupRuntime::drain`] blocks until every
//! update submitted so far is applied; [`CoupRuntime::shutdown`] quiesces
//! the whole runtime and returns an exact final snapshot. Quiescence is two
//! monotone counters: producers add to `submitted` *before* publishing,
//! workers add to `applied` *after* applying, so `applied == submitted` —
//! both read fresh via RMWs — implies every counted update landed.
//! Commutativity is what makes the rest safe: batches from different
//! producers may be applied in any order and the final state is the same.
//!
//! # Example
//!
//! ```
//! use coup_protocol::ops::CommutativeOp;
//! use coup_runtime::{tag, RuntimeBuilder};
//!
//! let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
//!     .workers(2)
//!     .batch_capacity(64)
//!     .build();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let mut counter = runtime.counter::<tag::Add64>();
//!         scope.spawn(move || {
//!             for _ in 0..1000 {
//!                 counter.add(7, 1); // batched, no atomics on this thread
//!             }
//!         }); // dropping the handle flushes its final partial batch
//!     }
//! });
//! let result = runtime.shutdown();
//! assert_eq!(result.snapshot[7], 4000);
//! assert_eq!(result.report.updates, 4000);
//! ```

use crate::sync;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard, QUIESCE_PUBLISH, SNAP_PUBLISH};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coup_protocol::ops::CommutativeOp;

use crate::backend::{
    AtomicBackend, BufferConfig, CoupBackend, StaleRead, UpdateBackend, DEFAULT_FLUSH_THRESHOLD,
};
use crate::harness::ThroughputReport;
use crate::ring::{ParkResult, Parker, ShardCache, ShardDirectory, ShardGrant};
use crate::telemetry::{MetricsSnapshot, TelemetryConfig, TelemetryRegistry};
use crate::trace::TraceKind;

pub use crate::ring::ShardStat;

/// Default number of updates a [`Submitter`] accumulates before publishing
/// its batch into its ring. Large enough to amortise the publish + wake over
/// hundreds of plain `Vec` pushes, small enough that a producer's updates do
/// not linger unseen for long.
pub const DEFAULT_BATCH_CAPACITY: usize = 256;

/// Which update backend a [`CoupRuntime`] applies submissions to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Conventional baseline: one atomic RMW per update ([`AtomicBackend`]).
    Atomic,
    /// Software COUP: privatized buffers, on-read reduction
    /// ([`CoupBackend`]) — the default.
    #[default]
    Coup,
}

/// Builds a [`CoupRuntime`]: the one place every knob has a default.
///
/// Defaults: COUP backend, 1 resident worker, [`DEFAULT_FLUSH_THRESHOLD`],
/// buffer configuration from the environment ([`BufferConfig::from_env`]),
/// [`DEFAULT_BATCH_CAPACITY`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeBuilder {
    kind: BackendKind,
    op: CommutativeOp,
    lanes: usize,
    workers: usize,
    flush_threshold: u32,
    buffer_config: Option<BufferConfig>,
    batch_capacity: usize,
    queue_capacity: usize,
    shard_slots: usize,
    telemetry: TelemetryConfig,
    refresh_interval: Option<Duration>,
}

/// Default bound on each producer's submission ring, in updates. A producer
/// that outruns its resident worker by this much blocks in `flush()` until
/// the worker frees slots — backpressure, so a long-lived service cannot
/// grow its queues without limit. Sixteen default-sized batches: deep enough
/// that a bursty producer rides out a drain pass without hitting the full
/// edge, while a fully claimed ring still costs only 64 KiB (rings allocate
/// lazily, on a slot's first claim).
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// How many times a producer on the full edge cedes the CPU before arming
/// the parker. Zero under the model checker, so exhaustive executions hit
/// the park/wake protocol immediately instead of exploring yield loops.
#[cfg(not(coup_model))]
const FULL_EDGE_YIELDS: u32 = 8;
#[cfg(coup_model)]
const FULL_EDGE_YIELDS: u32 = 0;

/// Default number of slots in the shard directory — the bound on
/// *concurrently live* producers (a [`Submitter`] holds a slot from its
/// first flush until drop; one past that many blocks in `flush()` until a
/// slot frees).
pub const DEFAULT_SHARD_SLOTS: usize = 1024;

impl RuntimeBuilder {
    /// Starts a builder for a runtime of `lanes` lanes of `op`'s width.
    #[must_use]
    pub fn new(op: CommutativeOp, lanes: usize) -> Self {
        RuntimeBuilder {
            kind: BackendKind::Coup,
            op,
            lanes,
            workers: 1,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            buffer_config: None,
            batch_capacity: DEFAULT_BATCH_CAPACITY,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            shard_slots: DEFAULT_SHARD_SLOTS,
            telemetry: TelemetryConfig::default(),
            refresh_interval: None,
        }
    }

    /// Spawns a background refresher that publishes an eventually-consistent
    /// whole-store snapshot every `interval` (default: no refresher). The
    /// snapshot is what [`CoupRuntime::stale_snapshot`] serves — monitor and
    /// dashboard traffic reads it for free instead of forcing reductions.
    /// [`CoupRuntime::refresh_now`] interrupts the interval on demand.
    #[must_use]
    pub fn refresh_interval(mut self, interval: Duration) -> Self {
        self.refresh_interval = Some(interval);
        self
    }

    /// Telemetry configuration: the runtime kill-switch (default: enabled).
    /// Pass [`TelemetryConfig::disabled`] for the zero-recording baseline;
    /// compiling without the `telemetry` cargo feature removes even the
    /// disabled-check branch.
    #[must_use]
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Selects the backend kind (default: [`BackendKind::Coup`]).
    #[must_use]
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Number of resident worker threads (default 1). Each worker owns one
    /// privatized buffer, drains the shard rings assigned to it (slot index
    /// ≡ worker mod `workers`), and runs one thread of every
    /// [`CoupRuntime::run_workers`] job.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Per-line flush budget of the COUP backend (minimum 1; ignored by the
    /// atomic backend).
    #[must_use]
    pub fn flush_threshold(mut self, flush_threshold: u32) -> Self {
        self.flush_threshold = flush_threshold;
        self
    }

    /// Sparse-buffer sizing of the COUP backend. Without this the runtime
    /// honours `COUP_BUFFER_CAPACITY` (see [`BufferConfig::from_env`]) and
    /// defaults to unbounded buffers.
    #[must_use]
    pub fn buffer_config(mut self, config: BufferConfig) -> Self {
        self.buffer_config = Some(config);
        self
    }

    /// Updates a [`Submitter`] accumulates per batch before publishing it
    /// (minimum 1; 1 means every push is its own message — the unbatched
    /// baseline the batch-size sweep bench compares against).
    #[must_use]
    pub fn batch_capacity(mut self, batch_capacity: usize) -> Self {
        self.batch_capacity = batch_capacity;
        self
    }

    /// Bound on each producer's submission ring, in updates (minimum 1,
    /// rounded up to a power of two; default [`DEFAULT_QUEUE_CAPACITY`]). A
    /// producer flushing into its full ring blocks until its resident
    /// worker frees slots — the backpressure that keeps a long-lived
    /// service's memory bounded when producers outrun the workers.
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Number of shard-directory slots — the bound on concurrently live
    /// producers (minimum 1; default [`DEFAULT_SHARD_SLOTS`]). Memory cost
    /// is one ring per slot *ever claimed*, so a large default is cheap for
    /// runtimes with few producers.
    #[must_use]
    pub fn shard_slots(mut self, shard_slots: usize) -> Self {
        self.shard_slots = shard_slots;
        self
    }

    /// Builds the runtime. Resident workers are *not* spawned here: the
    /// first submission handle ([`CoupRuntime::submitter`] /
    /// [`handle`](CoupRuntime::handle) / [`counter`](CoupRuntime::counter))
    /// spawns them, so kernel-only runtimes never park drainers they never
    /// feed.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or (for the COUP backend) exceeds
    /// [`crate::backend::MAX_COUP_THREADS`], or if the environment's buffer
    /// configuration is invalid ([`BufferConfig::from_env`]).
    #[must_use]
    pub fn build(self) -> CoupRuntime {
        assert!(self.workers > 0, "CoupRuntime needs at least one worker");
        // One registry shared by the backend (read/flush/occupancy metrics)
        // and the queue side (dwell/batch/park metrics), so a single
        // `metrics()` call sees the whole runtime.
        let telemetry = Arc::new(TelemetryRegistry::new(self.workers, self.telemetry));
        let backend: Box<dyn UpdateBackend> = match self.kind {
            BackendKind::Atomic => Box::new(AtomicBackend::new(self.op, self.lanes)),
            BackendKind::Coup => {
                let config = self.buffer_config.unwrap_or_else(BufferConfig::from_env);
                Box::new(CoupBackend::new(
                    self.op,
                    self.lanes,
                    self.workers,
                    self.flush_threshold,
                    config,
                    Arc::clone(&telemetry),
                ))
            }
        };
        let shared = Arc::new(Shared {
            backend,
            directory: ShardDirectory::new(self.shard_slots.max(1), self.queue_capacity.max(1)),
            wake: (0..self.workers).map(|_| Parker::new()).collect(),
            idle: Parker::new(),
            resume: Parker::new(),
            pause_done: Parker::new(),
            submitted: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            paused: AtomicU64::new(0),
            pause_acks: AtomicU64::new(0),
            batch_capacity: self.batch_capacity.max(1),
            workers: self.workers,
            handle_reads: AtomicU64::new(0),
            stale_reads: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            snap_words: (0..self.lanes).map(|_| AtomicU64::new(0)).collect(),
            snap_epoch: AtomicU64::new(0),
            refresh: Parker::new(),
            telemetry,
            epoch: Instant::now(),
        });
        // The refresher is a resident component like the workers, but it
        // only reads — it spawns eagerly (no buffer ownership to hand off)
        // and runs straight through `run_workers` jobs.
        let refresher = self.refresh_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            crate::sync::thread::Builder::new()
                .name("coup-refresher".to_string())
                .spawn(move || shared.refresher_loop(interval))
                .expect("spawning the snapshot refresher thread")
        });
        CoupRuntime {
            shared,
            drainers: Mutex::new(Vec::new()),
            refresher: Mutex::new(refresher),
            job: Mutex::new(()),
            started: Instant::now(),
        }
    }
}

/// Bit in [`Shared::submitted`] that marks the runtime closed. Packing it
/// into the counter makes "count this batch in, or learn we closed" one
/// indivisible RMW — the gate cannot race shutdown.
const SUBMIT_CLOSED: u64 = 1 << 63;
const SUBMIT_MASK: u64 = SUBMIT_CLOSED - 1;

/// State shared by the runtime, its resident workers, and every handle.
struct Shared {
    backend: Box<dyn UpdateBackend>,
    /// The per-producer SPSC rings, behind their claim/retire slot protocol.
    directory: ShardDirectory,
    /// One empty-edge parker per resident worker: producers bump worker
    /// `slot % workers` after publishing into `slot`'s ring.
    wake: Box<[Parker]>,
    /// Parks [`CoupRuntime::drain`] callers until `applied` catches up.
    idle: Parker,
    /// Parks workers for the duration of a [`CoupRuntime::run_workers`] job.
    resume: Parker,
    /// Wakes the pausing job thread as workers acknowledge the pause.
    pause_done: Parker,
    /// `closed bit (bit 63) | updates submitted over the runtime's
    /// lifetime`. Producers add *before* publishing; the count is an upper
    /// bound on published updates until the producer finishes pushing.
    submitted: AtomicU64,
    /// Updates applied by resident workers, bumped *after* application —
    /// `applied == submitted` is the quiescence condition.
    applied: AtomicU64,
    /// Nonzero while a [`CoupRuntime::run_workers`] job borrows the worker
    /// thread identities; workers stop draining so the job threads are the
    /// only writers of the per-worker buffers.
    paused: AtomicU64,
    /// Workers currently sitting in the pause gate.
    pause_acks: AtomicU64,
    batch_capacity: usize,
    workers: usize,
    /// Reads served through handles (the runtime's synchronous read path).
    handle_reads: AtomicU64,
    /// Relaxed-tier reads served through the facade
    /// ([`CoupRuntime::read_stale`] and the handles' stale variants).
    stale_reads: AtomicU64,
    /// Eventually-consistent snapshots published (refresher interval ticks
    /// plus [`CoupRuntime::refresh_now`] demands).
    refreshes: AtomicU64,
    /// The published snapshot: one word per lane, filled with Relaxed
    /// stores and fenced as a unit by the [`SNAP_PUBLISH`] epoch bump.
    snap_words: Box<[AtomicU64]>,
    /// Snapshot generation counter: `0` means "never refreshed"; readers
    /// Acquire it before loading [`Shared::snap_words`].
    snap_epoch: AtomicU64,
    /// The refresher's timed park point (demand / close edges).
    refresh: Parker,
    /// The metrics registry + trace rings, shared with the backend.
    telemetry: Arc<TelemetryRegistry>,
    /// Base instant for the nanosecond timestamps in the shard slots'
    /// `last_publish_ns` (the dwell metric's clock).
    epoch: Instant,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("backend", &self.backend.name())
            .field("workers", &self.workers)
            .field("batch_capacity", &self.batch_capacity)
            .finish_non_exhaustive()
    }
}

impl Shared {
    fn closed(&self) -> bool {
        // An RMW, not a load: the exit/panic decisions downstream of this
        // must see the newest word, not a stale cached one.
        self.submitted.fetch_add(0, Ordering::Relaxed) & SUBMIT_CLOSED != 0
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Body of resident worker `worker`: drain the rings in the worker's
    /// slot stripe, apply their updates through the privatized-buffer path,
    /// park on the empty edge, flush and exit once the runtime closes *and*
    /// quiesces. Returns the number of updates this worker applied.
    fn drain_loop(&self, worker: usize) -> u64 {
        let mut cache = ShardCache::default();
        let mut applied_here = 0u64;
        loop {
            // Fresh RMW read: a worker must never miss a pause, or a
            // run_workers job could write buffers it still owns.
            // ord: job-pause
            if self.paused.fetch_add(0, Ordering::Acquire) != 0 {
                self.pause_gate(worker);
                continue;
            }
            // Epoch snapshot *before* the scan: any publication after this
            // point moves it and turns the park below into a no-op retry.
            let status = self.wake[worker].status();
            let drained = self.directory.drain_pass(
                worker,
                self.workers,
                &mut cache,
                &mut |_slot, lane, value| self.backend.update(worker, lane, value),
                &mut |slot, count, publish_ns| {
                    let dwell_us = self.now_ns().saturating_sub(publish_ns) / 1_000;
                    self.telemetry.record_queue_pop(worker, count, dwell_us);
                    self.telemetry.trace(worker, TraceKind::ShardDrain, slot);
                },
            );
            if drained > 0 {
                applied_here += drained;
                self.applied.fetch_add(drained, QUIESCE_PUBLISH);
                self.idle.notify();
                continue;
            }
            // Empty pass. Exit iff closed and globally quiesced — both read
            // fresh via RMWs, so a true "all done" is never missed.
            let submitted = self.submitted.fetch_add(0, Ordering::Relaxed);
            if submitted & SUBMIT_CLOSED != 0
                && self.applied.fetch_add(0, Ordering::Relaxed) >= submitted & SUBMIT_MASK
            {
                // Publish this worker's remaining buffered deltas so the
                // post-join snapshot is exact, then wake peers (they may be
                // parked waiting for exactly this quiescence) and any
                // drain() waiter.
                self.backend.flush(worker);
                for parker in self.wake.iter() {
                    parker.notify();
                }
                self.idle.notify();
                return applied_here;
            }
            match self.wake[worker].park(status, || self.telemetry.record_park(worker)) {
                ParkResult::Slept => self.telemetry.record_unpark(worker),
                ParkResult::Moved => {}
            }
        }
    }

    /// Where a worker sits out a [`CoupRuntime::run_workers`] job: announce
    /// the pause was observed, then park until resumed (or closed). The job
    /// starts only after *every* worker acknowledged, which is what makes
    /// the buffer ownership hand-off sound without a queue lock.
    fn pause_gate(&self, worker: usize) {
        self.pause_acks.fetch_add(1, Ordering::Relaxed);
        self.pause_done.notify();
        loop {
            let status = self.resume.status();
            if self.paused.fetch_add(0, Ordering::Acquire) == 0 // ord: job-pause
                || self.resume.is_closed()
            {
                break;
            }
            match self
                .resume
                .park(status, || self.telemetry.record_park(worker))
            {
                ParkResult::Slept => self.telemetry.record_unpark(worker),
                ParkResult::Moved => {}
            }
        }
        self.pause_acks.fetch_sub(1, Ordering::Relaxed);
    }

    /// Blocks until `applied` reaches `target` submitted updates. The
    /// Acquire on the applied counter (paired with the workers'
    /// [`QUIESCE_PUBLISH`] bumps, whose RMW release sequence accumulates
    /// every worker's clock) is what makes the caller's subsequent reads see
    /// every applied update.
    fn wait_applied(&self, target: u64) {
        loop {
            let status = self.idle.status();
            // ord: drain-quiesce
            if self.applied.fetch_add(0, Ordering::Acquire) >= target {
                return;
            }
            self.idle.park(status, || {});
        }
    }

    fn read(&self, lane: usize) -> u64 {
        self.handle_reads.fetch_add(1, Ordering::Relaxed);
        // usize::MAX lands in the backend's shared out-of-band cost slot —
        // handle readers are not workers and own no counter block.
        self.backend.read(usize::MAX, lane)
    }

    fn read_stale(&self, lane: usize) -> StaleRead {
        self.stale_reads.fetch_add(1, Ordering::Relaxed);
        self.backend.read_stale(usize::MAX, lane)
    }

    /// Publishes one eventually-consistent snapshot: an exact read per lane
    /// into [`Shared::snap_words`], sealed by the [`SNAP_PUBLISH`] epoch
    /// bump. Concurrent publishers interleave harmlessly — every word is
    /// individually an exact read, so a mixed snapshot is still a valid
    /// eventually-consistent view. Returns the new epoch.
    fn publish_snapshot(&self) -> u64 {
        for (lane, word) in self.snap_words.iter().enumerate() {
            word.store(self.backend.read(usize::MAX, lane), Ordering::Relaxed);
        }
        let epoch = self.snap_epoch.fetch_add(1, SNAP_PUBLISH) + 1;
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.telemetry
            .trace(usize::MAX, TraceKind::SnapshotRefresh, epoch as usize);
        epoch
    }

    /// Body of the `coup-refresher` thread: publish, sleep up to `interval`
    /// on the refresh parker (a demand or close interrupts the sleep), repeat.
    /// The publish runs *before* the close check so shutdown always gets one
    /// final snapshot covering everything visible at close time.
    fn refresher_loop(&self, interval: Duration) {
        loop {
            // Status before publishing: a demand bump landing mid-publish
            // moves it, turning the park below into an immediate retry.
            let status = self.refresh.status();
            self.publish_snapshot();
            if self.refresh.is_closed() {
                return;
            }
            // Timeout and spurious wake alike fall through to a fresh
            // publish — an early snapshot is always safe.
            let _ = self.refresh.park_timeout(status, interval);
        }
    }

    /// Assembles a full [`MetricsSnapshot`]: submission counters, the
    /// backend's buffer-stats fold, and the registry's read cost, histograms
    /// and trace totals. No stop-the-world — workers keep running while this
    /// sums their blocks.
    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            updates_submitted: self.submitted.load(Ordering::Relaxed) & SUBMIT_MASK,
            updates_applied: self.applied.load(Ordering::Relaxed),
            handle_reads: self.handle_reads.load(Ordering::Relaxed),
            stale_reads: self.stale_reads.load(Ordering::Relaxed),
            snapshot_refreshes: self.refreshes.load(Ordering::Relaxed),
            buffer_stats: self.backend.buffer_stats(),
            ..MetricsSnapshot::default()
        };
        self.telemetry.fill(&mut snap);
        snap
    }
}

/// The observer-side counterpart of [`Submitter`]: a clonable, `Send`
/// handle a monitor thread can poll for live [`MetricsSnapshot`]s, rendered
/// exports, and trace drains while producers and workers keep running.
#[derive(Debug, Clone)]
pub struct TelemetryHandle {
    shared: Arc<Shared>,
}

impl TelemetryHandle {
    /// A consistent live snapshot of every runtime counter (see
    /// [`CoupRuntime::metrics`]).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// The current snapshot in the Prometheus text exposition format — the
    /// scrape endpoint's body, minus the HTTP server.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// Drains the structured event trace accumulated since the last drain
    /// (any drainer's — the rings have one shared cursor each), merged
    /// across workers and sorted by timestamp.
    #[must_use]
    pub fn drain_trace(&self) -> Vec<crate::trace::TraceEvent> {
        self.shared.telemetry.drain_trace()
    }
}

/// The batched write frontend: accumulates `(lane, value)` updates into a
/// private batch and publishes it into this producer's own SPSC ring when
/// full (or on [`Submitter::flush`] / drop). Cheap to clone — each clone is
/// an independent producer with its own batch and, from its first flush, its
/// own shard slot.
///
/// A `Submitter` is write-only; [`LaneHandle`] adds the synchronous read
/// path, and [`CounterHandle`] adds operation typing on top of that.
#[derive(Debug)]
pub struct Submitter {
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

impl Submitter {
    fn new(shared: Arc<Shared>) -> Self {
        let capacity = shared.batch_capacity;
        Submitter {
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
    /// applies them; use [`CoupRuntime::drain`] to wait for that.
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

    /// The one publication path. `panic_if_closed` selects the closed-
    /// runtime reaction: panic (explicit submissions — the runtime shut down
    /// under a live handle) or silently discard (`Drop`, where panicking
    /// would abort).
    fn submit(&mut self, panic_if_closed: bool) {
        if self.batch.is_empty() {
            return;
        }
        let count = self.batch.len() as u64;
        // The gate: count the batch in, or learn the runtime closed — one
        // indivisible RMW, so shutdown's workers either wait for these
        // updates or this producer learns they must not be published.
        let prev = self.shared.submitted.fetch_add(count, Ordering::Relaxed);
        if prev & SUBMIT_CLOSED != 0 {
            self.shared.submitted.fetch_sub(count, Ordering::Relaxed);
            self.batch.clear();
            // The phantom count may have parked an exiting worker on the
            // quiescence check: re-wake everyone.
            for parker in self.shared.wake.iter() {
                parker.notify();
            }
            self.shared.idle.notify();
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
        let mut dirty = false;
        for &(lane, value) in &self.batch {
            while self.tail.wrapping_sub(self.head_cache) >= capacity {
                // Publish what we have and wake the drainer before waiting:
                // unpublished slots cannot be drained, and an unwoken
                // drainer would never drain them.
                if dirty {
                    slot.last_publish_ns
                        .store(self.shared.now_ns(), Ordering::Relaxed);
                    ring.publish(self.tail);
                    self.shared.wake[worker].notify();
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
                let telemetry = &self.shared.telemetry;
                match slot.space.park(status, || telemetry.record_park(worker)) {
                    ParkResult::Slept => telemetry.record_unpark(worker),
                    ParkResult::Moved => {}
                }
            }
            ring.write(self.tail, lane, value);
            self.tail = self.tail.wrapping_add(1);
            dirty = true;
        }
        if dirty {
            slot.last_publish_ns
                .store(self.shared.now_ns(), Ordering::Relaxed);
            ring.publish(self.tail);
            self.shared.wake[worker].notify();
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

impl Clone for Submitter {
    /// A fresh producer over the same runtime, starting with an empty batch
    /// and no shard slot.
    fn clone(&self) -> Self {
        Submitter::new(Arc::clone(&self.shared))
    }
}

impl Drop for Submitter {
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

/// The raw (untyped) per-lane view of a runtime: batched writes via the
/// embedded [`Submitter`], synchronous reads via the backend's
/// O(active-writers) reduction path. Clonable and `Send` — hand one to every
/// producer thread.
#[derive(Debug, Clone)]
pub struct LaneHandle {
    submitter: Submitter,
}

impl LaneHandle {
    /// Submits `op(current, value)` to `lane` (batched; see
    /// [`Submitter::push`]).
    pub fn push(&mut self, lane: usize, value: u64) {
        self.submitter.push(lane, value);
    }

    /// Publishes the current partial batch (see [`Submitter::flush`]).
    pub fn flush(&mut self) {
        self.submitter.flush();
    }

    /// Reads `lane` synchronously on the calling thread. Sees every applied
    /// update; updates still queued (including this handle's own un-flushed
    /// batch) may be missing — read-your-writes requires
    /// [`LaneHandle::flush`] plus [`CoupRuntime::drain`].
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.submitter.shared.read(lane)
    }

    /// Reads `lane` through the relaxed tier: the store word plus a monotone
    /// staleness bound, with no reduction and no read holds (see
    /// [`CoupRuntime::read_stale`]). The bound counts this handle's own
    /// queued-but-unapplied updates too.
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        self.submitter.shared.read_stale(lane)
    }

    /// Number of lanes of the underlying runtime.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.submitter.shared.backend.len()
    }

    /// The commutative operation of the underlying runtime.
    #[must_use]
    pub fn op(&self) -> CommutativeOp {
        self.submitter.shared.backend.op()
    }
}

/// Marker types naming each [`CommutativeOp`] at the type level, for
/// [`CounterHandle`]'s compile-time operation typing.
pub mod tag {
    use coup_protocol::ops::CommutativeOp;

    /// Names a [`CommutativeOp`] at the type level. A
    /// [`CounterHandle<K>`](super::CounterHandle) can only be obtained from a
    /// runtime whose operation equals `K::OP`, so code holding the handle
    /// knows statically which arithmetic its lanes obey.
    pub trait OpTag: Send + Sync + 'static {
        /// The operation this tag names.
        const OP: CommutativeOp;
    }

    /// Tags whose operation is an integer addition, enabling the
    /// counter-flavoured convenience methods
    /// ([`CounterHandle::add`](super::CounterHandle::add) /
    /// [`increment`](super::CounterHandle::increment)).
    pub trait AddTag: OpTag {}

    macro_rules! tags {
        ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
            $(
                $(#[$doc])*
                #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
                pub struct $name;
                impl OpTag for $name {
                    const OP: CommutativeOp = CommutativeOp::$op;
                }
            )+
        };
    }

    tags! {
        /// 16-bit wrapping addition.
        Add16 => AddU16,
        /// 32-bit wrapping addition.
        Add32 => AddU32,
        /// 64-bit wrapping addition.
        Add64 => AddU64,
        /// Single-precision float addition (lane values are raw IEEE-754
        /// bits, as everywhere in the runtime).
        AddF32 => AddF32,
        /// Double-precision float addition (raw IEEE-754 bits).
        AddF64 => AddF64,
        /// 64-bit bitwise AND.
        And64 => And64,
        /// 64-bit bitwise OR.
        Or64 => Or64,
        /// 64-bit bitwise XOR.
        Xor64 => Xor64,
        /// 64-bit unsigned minimum.
        Min64 => Min64,
        /// 64-bit unsigned maximum.
        Max64 => Max64,
        /// 32-bit wrapping multiplication.
        MulU32 => MulU32,
    }

    impl AddTag for Add16 {}
    impl AddTag for Add32 {}
    impl AddTag for Add64 {}
}

use tag::{AddTag, OpTag};

/// A typed per-operation view of a runtime: a [`LaneHandle`] whose operation
/// is pinned to `K::OP` at the type level, so `CounterHandle<tag::Add64>` in
/// a signature says "these lanes are 64-bit counters" the way
/// `Vec<u64>` says more than `Vec<u8>`. Obtained from
/// [`CoupRuntime::counter`], which checks the runtime's operation once at
/// acquisition instead of trusting every call site.
#[derive(Debug, Clone)]
pub struct CounterHandle<K: OpTag> {
    raw: LaneHandle,
    _op: PhantomData<K>,
}

impl<K: OpTag> CounterHandle<K> {
    /// Submits `K::OP(current, value)` to `lane` (batched).
    pub fn apply(&mut self, lane: usize, value: u64) {
        self.raw.push(lane, value);
    }

    /// Reads `lane` synchronously (see [`LaneHandle::read`]).
    #[must_use]
    pub fn get(&self, lane: usize) -> u64 {
        self.raw.read(lane)
    }

    /// Reads `lane` through the relaxed tier (see
    /// [`LaneHandle::read_stale`]): the current store word plus a bound on
    /// the updates it may be missing — the right call for rate displays and
    /// monitors that must never stall the writers.
    #[must_use]
    pub fn get_stale(&self, lane: usize) -> StaleRead {
        self.raw.read_stale(lane)
    }

    /// Publishes the current partial batch (see [`Submitter::flush`]).
    pub fn flush(&mut self) {
        self.raw.flush();
    }

    /// The underlying raw handle.
    #[must_use]
    pub fn raw(&self) -> &LaneHandle {
        &self.raw
    }
}

impl<K: AddTag> CounterHandle<K> {
    /// Adds `n` to the counter in `lane` (batched).
    pub fn add(&mut self, lane: usize, n: u64) {
        self.apply(lane, n);
    }

    /// Adds 1 to the counter in `lane` (batched).
    pub fn increment(&mut self, lane: usize) {
        self.apply(lane, 1);
    }
}

/// Per-worker context of a [`CoupRuntime::run_workers`] job: the worker's
/// index, a run-wide barrier, and direct (unbatched) backend access with the
/// worker's thread identity already bound — kernels never juggle raw thread
/// indices.
pub struct JobCtx<'a> {
    worker: usize,
    workers: usize,
    barrier: &'a std::sync::Barrier,
    backend: &'a dyn UpdateBackend,
}

impl std::fmt::Debug for JobCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtx")
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl JobCtx<'_> {
    /// This worker's index in `0..workers`.
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total workers in the job.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Blocks until every worker of the job reaches the barrier. Every
    /// worker must execute the same number of barrier steps: a worker that
    /// panics while others are blocked here deadlocks the job
    /// (`std::sync::Barrier` has no poisoning).
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Applies `op(current, value)` to `lane` through this worker's
    /// privatized buffer — the direct path, no queue.
    pub fn update(&self, lane: usize, value: u64) {
        self.backend.update(self.worker, lane, value);
    }

    /// Update immediately followed by a read of the same lane (see
    /// [`UpdateBackend::update_read`] for the backends' atomicity contract).
    pub fn update_read(&self, lane: usize, value: u64) -> u64 {
        self.backend.update_read(self.worker, lane, value)
    }

    /// Reads `lane`, reducing buffered partials as needed.
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.backend.read(self.worker, lane)
    }

    /// Reads `lane` through the relaxed tier: no reduction, no read holds,
    /// a monotone staleness bound instead (see [`StaleRead`]). Only sound
    /// where the kernel tolerates bounded staleness — values that feed
    /// control flow or post-barrier exactness assertions must use
    /// [`JobCtx::read`].
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        self.backend.read_stale(self.worker, lane)
    }
}

/// What [`CoupRuntime::shutdown`] returns: the exact final state and the
/// merged whole-life counters.
#[derive(Debug)]
pub struct RuntimeResult {
    /// Every lane's final value — exact: all workers flushed before the
    /// snapshot was taken.
    pub snapshot: Vec<u64>,
    /// Merged lifetime report: `updates` applied through the submission
    /// frontend, `reads` served through handles, `elapsed` from build to
    /// shutdown, plus the lifetime [`MetricsSnapshot`] (whose backend
    /// counters also cover [`CoupRuntime::run_workers`] jobs).
    pub report: ThroughputReport,
}

/// The long-lived service runtime: owns the backend and its resident worker
/// threads, hands out submission handles to any number of producer threads,
/// and runs synchronous worker jobs on the side.
///
/// Built by [`RuntimeBuilder`]. Three ways in:
///
/// * **Handles** ([`CoupRuntime::submitter`] / [`handle`](Self::handle) /
///   [`counter`](Self::counter)): clonable, `Send`, batched — the service
///   write path for non-worker threads. The first handle spawns the
///   resident workers.
/// * **Synchronous reads** ([`CoupRuntime::read`] / [`snapshot`](Self::snapshot),
///   or through any handle): the existing O(active-writers) reduction.
/// * **Worker jobs** ([`CoupRuntime::run_workers`]): a closure run once per
///   resident-worker identity with direct backend access — the kernel
///   executor's path, with barriers and read-your-writes.
///
/// [`CoupRuntime::shutdown`] (or `Drop`) quiesces: the submission gate
/// closes, workers drain every published ring, flush their buffers, and
/// exit.
#[derive(Debug)]
pub struct CoupRuntime {
    shared: Arc<Shared>,
    /// Resident worker join handles — empty until the first submission
    /// handle spawns them (lazy, so kernel-only runtimes pay nothing).
    drainers: Mutex<Vec<crate::sync::thread::JoinHandle<u64>>>,
    /// The background snapshot refresher, when
    /// [`RuntimeBuilder::refresh_interval`] armed one (spawned eagerly at
    /// build — it only reads, so it needs no ownership hand-off).
    refresher: Mutex<Option<crate::sync::thread::JoinHandle<()>>>,
    /// Serialises [`CoupRuntime::run_workers`] jobs (and the lazy worker
    /// spawn): two jobs sharing worker thread identities concurrently would
    /// break the buffers' single-writer discipline, and a spawn landing
    /// mid-job would hand the same identities to a drainer.
    job: Mutex<()>,
    started: Instant,
}

impl CoupRuntime {
    /// The commutative operation of the runtime's lanes.
    #[must_use]
    pub fn op(&self) -> CommutativeOp {
        self.shared.backend.op()
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.shared.backend.len()
    }

    /// Number of resident worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Short name of the underlying backend ("atomic", "coup").
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.shared.backend.name()
    }

    fn lock_drainers(&self) -> MutexGuard<'_, Vec<crate::sync::thread::JoinHandle<u64>>> {
        self.drainers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Spawns the resident workers if they are not running yet. Serialised
    /// against [`CoupRuntime::run_workers`] by the job lock, so workers
    /// never materialise in the middle of a job's buffer ownership.
    fn ensure_workers(&self) {
        {
            // Fast path once running; a stale miss just repeats the check
            // under the lock.
            let drainers = self.lock_drainers();
            if !drainers.is_empty() {
                return;
            }
        }
        let _job = self
            .job
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut drainers = self.lock_drainers();
        if !drainers.is_empty() || self.shared.closed() {
            return;
        }
        drainers.extend((0..self.shared.workers).map(|worker| {
            let shared = Arc::clone(&self.shared);
            crate::sync::thread::Builder::new()
                .name(format!("coup-worker-{worker}"))
                .spawn(move || shared.drain_loop(worker))
                .expect("spawning a resident worker thread")
        }));
    }

    /// A new write-only batched producer (spawns the resident workers on
    /// first use).
    #[must_use]
    pub fn submitter(&self) -> Submitter {
        self.ensure_workers();
        Submitter::new(Arc::clone(&self.shared))
    }

    /// A new raw read/write handle.
    #[must_use]
    pub fn handle(&self) -> LaneHandle {
        LaneHandle {
            submitter: self.submitter(),
        }
    }

    /// A new typed handle for operation tag `K`.
    ///
    /// # Panics
    ///
    /// Panics if `K::OP` is not the runtime's operation — the one dynamic
    /// check that makes every later use statically typed.
    #[must_use]
    pub fn counter<K: OpTag>(&self) -> CounterHandle<K> {
        assert_eq!(
            K::OP,
            self.op(),
            "typed handle mismatch: runtime applies {}, tag names {}",
            self.op(),
            K::OP
        );
        CounterHandle {
            raw: self.handle(),
            _op: PhantomData,
        }
    }

    /// Reads `lane` synchronously on the calling thread (quiescently
    /// consistent; see [`LaneHandle::read`]).
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.shared.read(lane)
    }

    /// Every lane's current value. Exact at quiescence (e.g. after
    /// [`CoupRuntime::drain`] with no producer holding an un-flushed batch);
    /// concurrent activity may or may not be included.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.shared.backend.snapshot()
    }

    /// Reads `lane` through the relaxed tier: the shared-store word as-is,
    /// with no reduction, no read holds, and a monotone bound on how many
    /// buffered updates the value may be missing (see
    /// [`StaleRead`]). This is the pay-for-precision split of the COUP
    /// paper's §3.1.2 applied to the read side — pollers and monitors that
    /// tolerate bounded staleness never force the writers to flush.
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        self.shared.read_stale(lane)
    }

    /// The last published eventually-consistent snapshot and its epoch.
    /// Epoch `0` means no snapshot has been published yet (all-zero words).
    /// The Acquire on the epoch pairs with the publisher's `SNAP_PUBLISH`
    /// bump: observing epoch `N` guarantees every word of snapshot `N` is
    /// visible (words of a *later* in-flight snapshot may already be mixed
    /// in — each word is individually an exact read, so the mix is still a
    /// valid eventually-consistent view).
    #[must_use]
    pub fn stale_snapshot(&self) -> (Vec<u64>, u64) {
        // ord: snap-publish
        let epoch = self.shared.snap_epoch.load(Ordering::Acquire);
        let words = self
            .shared
            .snap_words
            .iter()
            .map(|word| word.load(Ordering::Relaxed))
            .collect();
        (words, epoch)
    }

    /// Publishes a fresh snapshot now. With a live refresher this demands a
    /// wake through the refresh parker and waits for the epoch to advance;
    /// without one ([`RuntimeBuilder::refresh_interval`] unset) it publishes
    /// inline on the calling thread. Either way, on return
    /// [`CoupRuntime::stale_snapshot`] serves a snapshot no older than this
    /// call's start.
    pub fn refresh_now(&self) {
        let live = self
            .refresher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some();
        if live {
            let before = self.shared.snap_epoch.load(Ordering::Relaxed);
            self.shared.refresh.notify();
            // ord: snap-publish
            while self.shared.snap_epoch.load(Ordering::Acquire) == before {
                sync::thread::yield_now();
            }
        } else {
            self.shared.publish_snapshot();
        }
    }

    /// Per-shard lifetime statistics (claims, updates drained, liveness)
    /// for every directory slot ever claimed.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shared.directory.stats()
    }

    /// A consistent live snapshot of every runtime counter — submission
    /// depth, backend read/buffer counters, and the telemetry registry's
    /// histograms — assembled by summing per-worker blocks, with no
    /// stop-the-world. Safe and meaningful mid-run: every field is
    /// individually monotone between observations on the same runtime, so
    /// two snapshots diff into a phase report via
    /// [`MetricsSnapshot::since`].
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// A new clonable telemetry observer handle (live metrics, Prometheus
    /// export, trace drain) — hand it to a monitor thread the way
    /// [`CoupRuntime::submitter`] hands out producers.
    #[must_use]
    pub fn telemetry(&self) -> TelemetryHandle {
        TelemetryHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until every update submitted so far has been applied by the
    /// resident workers. After `drain()`, reads observe every update whose
    /// batch was published before the call — the runtime's quiescence point
    /// short of a full shutdown.
    pub fn drain(&self) {
        let target = self.shared.submitted.fetch_add(0, Ordering::Relaxed) & SUBMIT_MASK;
        self.shared.wait_applied(target);
    }

    /// Runs `job` once per resident-worker identity on dedicated threads and
    /// returns the per-worker results in worker order plus the job's
    /// wall-clock time (including each worker's final buffer flush, so
    /// backends cannot hide work).
    ///
    /// The submission path is drained and paused for the duration — job
    /// threads temporarily *are* the workers, with exclusive ownership of
    /// the per-worker privatized buffers — and resumes when the job ends.
    /// Jobs serialise against each other. Updates submitted concurrently
    /// with a job are applied after it finishes.
    pub fn run_workers<R, F>(&self, job: F) -> (Vec<R>, Duration)
    where
        R: Send,
        F: Fn(JobCtx<'_>) -> R + Sync,
    {
        // Poison recovery: a previous job's panic already ran the resume
        // guard below, so the runtime's invariants hold and the next job may
        // proceed.
        let _job = self
            .job
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let live_workers = self.lock_drainers().len() as u64;
        // Quiesce first (the job must observe every update submitted before
        // the call), then pause; the job starts only once every worker has
        // acknowledged the pause from inside its gate, which is what hands
        // the job threads exclusive buffer ownership.
        self.drain();
        if live_workers > 0 {
            self.shared.paused.store(1, Ordering::Release); // ord: job-pause
            for parker in self.shared.wake.iter() {
                parker.notify();
            }
            loop {
                let status = self.shared.pause_done.status();
                if self.shared.pause_acks.fetch_add(0, Ordering::Relaxed) >= live_workers {
                    break;
                }
                self.shared.pause_done.park(status, || {});
            }
        }
        // Resume draining even if the job panics — otherwise a caught panic
        // would leave the workers paused forever and wedge every later
        // submission and drain().
        struct ResumeDraining<'a>(&'a Shared, bool);
        impl Drop for ResumeDraining<'_> {
            fn drop(&mut self) {
                if self.1 {
                    self.0.paused.store(0, Ordering::Release); // ord: job-pause
                    self.0.resume.notify();
                }
            }
        }
        let _resume = ResumeDraining(self.shared.as_ref(), live_workers > 0);
        let backend = self.shared.backend.as_ref();
        let workers = self.shared.workers;
        let barrier = std::sync::Barrier::new(workers);
        let run = |worker: usize| {
            let result = job(JobCtx {
                worker,
                workers,
                barrier: &barrier,
                backend,
            });
            backend.flush(worker);
            result
        };
        let start = Instant::now();
        // Scoped threads, so the job may borrow the caller's data. Worker 0
        // runs on the calling thread: a single-worker job spawns nothing.
        let results = std::thread::scope(|scope| {
            let run = &run;
            let spawned: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || run(worker)))
                .collect();
            let mut results = vec![run(0)];
            for handle in spawned {
                match handle.join() {
                    Ok(result) => results.push(result),
                    // Re-raise the worker's own payload so a kernel assertion
                    // message survives to the test report instead of being
                    // replaced by a generic "worker thread panicked".
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        (results, start.elapsed())
    }

    /// Closes the submission gate and joins the resident workers: they
    /// drain every published update, flush their privatized buffers, and
    /// exit once `applied == submitted`. Returns the total updates they
    /// applied. Safe to call twice (Drop after shutdown). With
    /// `propagate_panics` false (the `Drop` path) a panicked worker is
    /// ignored — re-raising during an unwind would double-panic.
    fn close_and_join(&mut self, propagate_panics: bool) -> u64 {
        self.shared
            .submitted
            .fetch_or(SUBMIT_CLOSED, Ordering::Relaxed);
        // Wake everyone who might be parked: workers (to run their exit
        // check), producers on full rings or the claim edge (their workers
        // keep draining until quiescence, so they finish or discard), and
        // any pause machinery.
        for parker in self.shared.wake.iter() {
            parker.close();
        }
        self.shared.directory.close_all();
        self.shared.resume.close();
        self.shared.pause_done.close();
        let drainers: Vec<_> = self.lock_drainers().drain(..).collect();
        let mut applied = 0u64;
        for drainer in drainers {
            match drainer.join() {
                Ok(count) => applied += count,
                Err(payload) if propagate_panics => std::panic::resume_unwind(payload),
                Err(_) => {}
            }
        }
        // Close the refresher after the drainers joined: its final publish
        // (the one it runs on observing the close) then covers the fully
        // flushed store, so the last snapshot equals the exact final state.
        let refresher = self
            .refresher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(refresher) = refresher {
            self.shared.refresh.close();
            match refresher.join() {
                Ok(()) => {}
                Err(payload) if propagate_panics => std::panic::resume_unwind(payload),
                Err(_) => {}
            }
        }
        self.shared.idle.close();
        applied
    }

    /// Quiesces the runtime and returns the exact final snapshot plus the
    /// merged lifetime report. Producer handles should be flushed or dropped
    /// first; a handle that submits after shutdown panics (its `Drop`
    /// discards instead).
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeResult {
        let applied = self.close_and_join(true);
        let workers = self.shared.workers;
        let reads = self.shared.handle_reads.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed();
        // Counters before the snapshot: the verifying snapshot below would
        // otherwise add its own per-lane reads to the tallies it reports.
        let metrics = self.shared.metrics();
        let snapshot = self.shared.backend.snapshot();
        RuntimeResult {
            snapshot,
            report: ThroughputReport {
                threads: workers,
                updates: applied,
                reads,
                elapsed,
                metrics,
            },
        }
    }
}

impl Drop for CoupRuntime {
    /// Dropping without [`CoupRuntime::shutdown`] still quiesces: remaining
    /// published updates are applied and workers join, so no submitted
    /// update is ever lost — only the final report is forfeited.
    fn drop(&mut self) {
        let live_refresher = self
            .refresher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some();
        if !self.lock_drainers().is_empty() || live_refresher {
            let _ = self.close_and_join(false);
        }
    }
}

#[cfg(test)]
mod tests {
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
        let mut sub = rt.submitter();
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
        assert_eq!(handle.submitter.pending(), 2);
        handle.flush();
        rt.drain();
        assert_eq!(rt.read(0), 5);
        assert_eq!(handle.read(1), 7);
    }

    #[test]
    fn dropping_a_handle_flushes_its_batch() {
        let rt = counting_runtime(8, 2, 1024);
        let mut sub = rt.submitter();
        sub.push(2, 9);
        drop(sub); // far below batch capacity: only Drop can publish this
        rt.drain();
        assert_eq!(rt.read(2), 9);
    }

    #[test]
    fn clones_are_independent_producers() {
        let rt = counting_runtime(8, 2, 16);
        let mut a = rt.submitter();
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
        rt.submitter().push(8, 1);
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
        let mut sub = rt.submitter();
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
        let mut sub = rt.submitter();
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
                        let mut sub = rt.submitter();
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
    fn jobs_and_submissions_interleave_safely() {
        let rt = counting_runtime(4, 2, 4);
        let mut sub = rt.submitter();
        for _ in 0..8 {
            sub.push(0, 1);
        }
        rt.run_workers(|ctx| {
            // The rings were drained before the job started.
            if ctx.worker() == 0 {
                assert_eq!(ctx.read(0), 8);
            }
            ctx.update(1, 1);
        });
        for _ in 0..8 {
            sub.push(0, 1);
        }
        drop(sub);
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![16, 2, 0, 0]);
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
        // Draining must have resumed: submissions still flow end to end.
        let mut sub = rt.submitter();
        for _ in 0..6 {
            sub.push(1, 1);
        }
        drop(sub);
        rt.drain();
        assert_eq!(rt.read(1), 6);
        // And a later job still runs.
        let (results, _) = rt.run_workers(|ctx| ctx.worker());
        assert_eq!(results, vec![0, 1]);
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
                let mut sub = rt.submitter();
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
            rt.lock_drainers().is_empty(),
            "no resident workers before the first handle"
        );
        // Kernel-only use never spawns drainers.
        rt.run_workers(|ctx| ctx.update(0, 1));
        assert!(rt.lock_drainers().is_empty());
        let mut sub = rt.submitter();
        assert_eq!(rt.lock_drainers().len(), 2, "first handle spawns workers");
        sub.push(1, 5);
        drop(sub);
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![2, 5, 0, 0]);
    }

    #[test]
    fn facade_stale_reads_bound_buffered_updates_and_count_in_metrics() {
        let rt = counting_runtime(8, 1, 4);
        let mut sub = rt.submitter();
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
        // run_workers flushes every worker buffer on job exit.
        rt.run_workers(|_| {});
        let stale = rt.read_stale(2);
        assert_eq!((stale.value, stale.staleness), (8, 0));
        let metrics = rt.metrics();
        assert_eq!(metrics.stale_reads, 2);
        // The histogram lives in the registry, which `--no-default-features`
        // compiles out.
        #[cfg(feature = "telemetry")]
        assert_eq!((metrics.staleness.count(), metrics.staleness.sum), (2, 8));
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
        let mut sub = rt.submitter();
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
        let mut sub = rt.submitter();
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
        let mut a = rt.submitter();
        a.push(0, 1);
        drop(a); // publish + retire slot 0
        rt.drain();
        // The slot frees once drained; the next producer recycles it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut b = rt.submitter();
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
}
