//! [`RuntimeBuilder`]: the one place every knob of a [`CoupRuntime`] has a
//! default, and the one place the pieces are wired together.

use std::sync::Arc;
use std::time::Duration;

use coup_protocol::ops::CommutativeOp;

use super::refresh::Snapshot;
use super::submit::Quiescence;
use super::{CoupRuntime, Shared};
use crate::backend::{
    AtomicBackend, BufferConfig, CoupBackend, UpdateBackend, DEFAULT_FLUSH_THRESHOLD,
};
use crate::ring::{Parker, ShardDirectory};
use crate::sync::atomic::AtomicU64;
use crate::sync::{Condvar, Mutex};
use crate::telemetry::{TelemetryConfig, TelemetryRegistry};

/// Default number of updates a [`LaneHandle`](super::LaneHandle) accumulates before publishing
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

/// Default number of slots in the shard directory — the bound on
/// *concurrently live* producers (a [`LaneHandle`](super::LaneHandle) holds a slot from its
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
    /// [`CoupRuntime::refresh_now`] publishes off-schedule on the caller's
    /// thread.
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

    /// Number of worker identities (default 1), each owning one privatized
    /// buffer. Before the first handle, each runs one thread of every
    /// [`CoupRuntime::run_workers`] job; from the first handle on, each is a
    /// resident thread draining the shard rings assigned to it (slot index
    /// ≡ worker mod `workers`).
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

    /// Updates a [`LaneHandle`](super::LaneHandle) accumulates per batch before publishing it
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
    /// first submission handle ([`CoupRuntime::handle`] /
    /// [`counter`](CoupRuntime::counter)) spawns them, so kernel-only
    /// runtimes never park drainers they never feed. From that handle on,
    /// [`CoupRuntime::run_workers`] refuses to run.
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
            quiesce: Quiescence::new(),
            batch_capacity: self.batch_capacity.max(1),
            workers: self.workers,
            handle_reads: AtomicU64::new(0),
            stale_reads: AtomicU64::new(0),
            snap: Mutex::new(Snapshot::new(self.lanes)),
            refresh: Condvar::new(),
            telemetry,
        });
        // The refresher is a resident component like the workers, but it
        // only reads: it owns no buffer, so it spawns eagerly and runs
        // alongside `run_workers` jobs.
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
        }
    }
}
