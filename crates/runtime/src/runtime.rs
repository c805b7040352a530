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
//! line's U-state copy lives. Here, any thread may hold a [`LaneHandle`] (or a
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
//! explicit [`LaneHandle::flush`], or by dropping the handle) *and* a
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

use std::sync::Arc;
use std::time::Duration;

use coup_protocol::ops::CommutativeOp;

use crate::backend::{StaleRead, UpdateBackend};
use crate::ring::{ParkResult, Parker, ShardDirectory};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Mutex};
use crate::telemetry::{MetricsSnapshot, TelemetryRegistry};

mod builder;
mod handles;
mod jobs;
mod refresh;
mod submit;
#[cfg(test)]
mod tests;

pub use crate::ring::ShardStat;
pub use builder::{
    BackendKind, RuntimeBuilder, DEFAULT_BATCH_CAPACITY, DEFAULT_QUEUE_CAPACITY,
    DEFAULT_SHARD_SLOTS,
};
pub use handles::{tag, CounterHandle};
pub use jobs::JobCtx;
pub(crate) use refresh::SnapshotCell;
pub use submit::LaneHandle;
pub(crate) use submit::Quiescence;

/// State shared by the runtime, its resident workers, and every handle.
struct Shared {
    backend: Box<dyn UpdateBackend>,
    /// The per-producer SPSC rings, behind their claim/retire slot protocol.
    directory: ShardDirectory,
    /// One empty-edge parker per resident worker: producers bump worker
    /// `slot % workers` after publishing into `slot`'s ring.
    wake: Box<[Parker]>,
    /// Parks workers for the duration of a [`CoupRuntime::run_workers`] job.
    resume: Parker,
    /// Wakes the pausing job thread as workers acknowledge the pause.
    pause_done: Parker,
    /// Submitted vs. applied: the gate producers count in through, the
    /// counter workers retire into, and what [`CoupRuntime::drain`] waits on.
    quiesce: Quiescence,
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
    /// The published eventually-consistent snapshot and its epoch — which
    /// is also the count of snapshots published (refresher interval ticks
    /// plus [`CoupRuntime::refresh_now`] demands).
    snap: SnapshotCell,
    /// The refresher's timed park point (demand / close edges).
    refresh: Parker,
    /// The metrics registry + trace rings, shared with the backend; its
    /// uptime clock also stamps the shard slots' `last_publish_ns` (the
    /// dwell metric) and times the lifetime report.
    telemetry: Arc<TelemetryRegistry>,
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
    /// Parks on `parker`, counting the sleep and its wake against `worker`.
    fn park_counted(&self, parker: &Parker, status: u64, worker: usize) {
        if parker.park(status, || self.telemetry.record_park(worker)) == ParkResult::Slept {
            self.telemetry.record_unpark(worker);
        }
    }

    /// Notifies every resident worker's empty-edge parker.
    fn wake_workers(&self) {
        for parker in self.wake.iter() {
            parker.notify();
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

    /// Assembles a full [`MetricsSnapshot`]: submission counters, the
    /// backend's buffer-stats fold, and the registry's read cost, histograms
    /// and trace totals. No stop-the-world — workers keep running while this
    /// sums their blocks.
    fn metrics(&self) -> MetricsSnapshot {
        let (updates_submitted, updates_applied) = self.quiesce.counts();
        let mut snap = MetricsSnapshot {
            updates_submitted,
            updates_applied,
            handle_reads: self.handle_reads.load(Ordering::Relaxed),
            stale_reads: self.stale_reads.load(Ordering::Relaxed),
            snapshot_refreshes: self.snap.epoch(),
            buffer_stats: self.backend.buffer_stats(),
            ..MetricsSnapshot::default()
        };
        self.telemetry.fill(&mut snap);
        snap
    }
}

/// The observer-side counterpart of [`LaneHandle`]: a clonable, `Send`
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

/// Wall-clock result of one run: a [`crate::run_contended`] phase, a
/// workload executor run, or a whole runtime lifetime
/// ([`CoupRuntime::shutdown`]).
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Producer count of a harness run ([`crate::run_contended`]) or
    /// resident worker count of a runtime-lifetime report
    /// ([`CoupRuntime::shutdown`]).
    pub threads: usize,
    /// Total updates applied (all producers).
    pub updates: u64,
    /// Total reads served (all producers).
    pub reads: u64,
    /// Wall-clock time of the whole run, including the final queue drain, so
    /// backends cannot hide work in batches or buffers.
    pub elapsed: Duration,
    /// The full telemetry snapshot covering the run (a
    /// [`MetricsSnapshot::since`] delta for phase reports, the lifetime
    /// snapshot for [`CoupRuntime::shutdown`] reports) — the one carrier of
    /// every counter, including the backend's read-cost and
    /// privatized-buffer counters (all zero for the atomic backend, whose
    /// reads are single store loads and which buffers nothing).
    pub metrics: MetricsSnapshot,
}

impl ThroughputReport {
    /// Millions of operations (updates + reads) per second of wall time.
    #[must_use]
    pub fn mops(&self) -> f64 {
        let ops = (self.updates + self.reads) as f64;
        ops / self.elapsed.as_secs_f64().max(1e-12) / 1e6
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
/// * **Handles** ([`CoupRuntime::handle`] / [`counter`](Self::counter)):
///   clonable, `Send`, batched — the service
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
    drainers: Mutex<Vec<crate::sync::thread::JoinHandle<()>>>,
    /// The background snapshot refresher, when
    /// [`RuntimeBuilder::refresh_interval`] armed one (spawned eagerly at
    /// build — it only reads, so it needs no ownership hand-off).
    refresher: Mutex<Option<crate::sync::thread::JoinHandle<()>>>,
    /// Serialises [`CoupRuntime::run_workers`] jobs (and the lazy worker
    /// spawn): two jobs sharing worker thread identities concurrently would
    /// break the buffers' single-writer discipline, and a spawn landing
    /// mid-job would hand the same identities to a drainer.
    job: Mutex<()>,
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

    /// Spawns the resident workers if they are not running yet. Serialised
    /// against [`CoupRuntime::run_workers`] by the job lock, so workers
    /// never materialise in the middle of a job's buffer ownership.
    fn ensure_workers(&self) {
        // Fast path once running; a stale miss just repeats the check
        // under the lock.
        if !lock(&self.drainers).is_empty() {
            return;
        }
        let _job = lock(&self.job);
        let mut drainers = lock(&self.drainers);
        if !drainers.is_empty() || self.shared.quiesce.closed() {
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

    /// A new producer handle: batched writes, synchronous reads (spawns the
    /// resident workers on first use).
    #[must_use]
    pub fn handle(&self) -> LaneHandle {
        self.ensure_workers();
        LaneHandle::new(Arc::clone(&self.shared))
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
    /// [`CoupRuntime::handle`] hands out producers.
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
        self.shared.quiesce.wait();
    }

    /// Closes the submission gate and joins the resident workers: they
    /// drain every published update, flush their privatized buffers, and
    /// exit once `applied == submitted`. Safe to call twice (Drop after
    /// shutdown). With `propagate_panics` false (the `Drop` path) a panicked
    /// worker is ignored — re-raising during an unwind would double-panic.
    fn close_and_join(&mut self, propagate_panics: bool) {
        self.shared.quiesce.close();
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
        let join = |thread: crate::sync::thread::JoinHandle<()>| match thread.join() {
            Err(payload) if propagate_panics => std::panic::resume_unwind(payload),
            _ => {}
        };
        let drainers: Vec<_> = lock(&self.drainers).drain(..).collect();
        for drainer in drainers {
            join(drainer);
        }
        // Close the refresher after the drainers joined: its final publish
        // (the one it runs on observing the close) then covers the fully
        // flushed store, so the last snapshot equals the exact final state.
        let refresher = lock(&self.refresher).take();
        if let Some(refresher) = refresher {
            self.shared.refresh.close();
            join(refresher);
        }
        self.shared.quiesce.idle.close();
    }

    /// Quiesces the runtime and returns the exact final snapshot plus the
    /// merged lifetime report. Producer handles should be flushed or dropped
    /// first; a handle that submits after shutdown panics (its `Drop`
    /// discards instead).
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeResult {
        self.close_and_join(true);
        let metrics = self.shared.metrics();
        RuntimeResult {
            snapshot: self.shared.backend.snapshot(),
            report: ThroughputReport {
                threads: self.shared.workers,
                // The drainers joined: the one applied counter is final.
                updates: metrics.updates_applied,
                reads: metrics.handle_reads,
                elapsed: Duration::from_nanos(metrics.uptime_ns),
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
        let live_refresher = lock(&self.refresher).is_some();
        if !lock(&self.drainers).is_empty() || live_refresher {
            self.close_and_join(false);
        }
    }
}
