//! The recording half of telemetry: the lock-free per-worker
//! [`TelemetryRegistry`] the hot paths bump, and the fold that turns its
//! blocks into a [`MetricsSnapshot`].

use std::time::Instant;

#[cfg(feature = "telemetry")]
use super::Merge;
use super::{MetricsSnapshot, TelemetryConfig};
#[cfg(feature = "telemetry")]
use crate::sync::atomic::Ordering;
#[cfg(feature = "telemetry")]
use registry_impl::add;

#[cfg(feature = "telemetry")]
mod registry_impl {
    use crate::sync::atomic::{AtomicU64, Ordering};

    use crate::telemetry::{bucket_index, HistogramSnapshot, HIST_BUCKETS};

    /// Adds `n` to `cell`. An `owned` cell has one writer — the worker
    /// whose block it is — so a plain Relaxed load + store suffices and no
    /// lock prefix is paid; a cell of the shared extra block, or one that
    /// producers also record into, takes a Relaxed `fetch_add`.
    #[inline]
    pub(crate) fn add(cell: &AtomicU64, n: u64, owned: bool) {
        if owned {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        } else {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A histogram of relaxed atomics; recording is `leading_zeros` plus
    /// two [`add`]s — plain stores into an owned block, `fetch_add`s into
    /// the shared one.
    #[derive(Default)]
    pub(crate) struct AtomicHistogram {
        buckets: [AtomicU64; HIST_BUCKETS],
        sum: AtomicU64,
    }

    impl AtomicHistogram {
        #[inline]
        pub(crate) fn record(&self, value: u64, owned: bool) {
            add(&self.buckets[bucket_index(value)], 1, owned);
            add(&self.sum, value, owned);
        }

        pub(crate) fn snapshot(&self) -> HistogramSnapshot {
            let mut snap = HistogramSnapshot::default();
            for (out, bucket) in snap.buckets.iter_mut().zip(self.buckets.iter()) {
                *out = bucket.load(Ordering::Relaxed);
            }
            snap.sum = self.sum.load(Ordering::Relaxed);
            snap
        }
    }

    /// One worker's counters, padded to a cache line so neighbouring
    /// workers' relaxed bumps never false-share. A worker's own block has
    /// one writer — the thread driving that worker index — for every cell
    /// but `queue_parks`/`queue_unparks`, which producers parked on the
    /// worker's shards record into too; those two, and every cell of the
    /// shared extra block, take `fetch_add`s.
    #[derive(Default)]
    #[repr(align(64))]
    pub(crate) struct WorkerBlock {
        pub(crate) read_width: AtomicHistogram,
        pub(crate) queue_dwell_us: AtomicHistogram,
        pub(crate) batch_size: AtomicHistogram,
        pub(crate) occupancy: AtomicHistogram,
        pub(crate) flush_words: AtomicHistogram,
        pub(crate) staleness: AtomicHistogram,
        pub(crate) read_retries: AtomicU64,
        pub(crate) read_escalations: AtomicU64,
        pub(crate) queue_parks: AtomicU64,
        pub(crate) queue_unparks: AtomicU64,
        pub(crate) evictions: AtomicU64,
        pub(crate) flushes: AtomicU64,
        pub(crate) held_bypasses: AtomicU64,
        pub(crate) admission_bypasses: AtomicU64,
        pub(crate) demoted_bypasses: AtomicU64,
        /// Claimed slots: the value the occupancy histogram samples.
        pub(crate) resident: AtomicU64,
    }

    pub(crate) struct Inner {
        pub(crate) blocks: Box<[WorkerBlock]>,
    }

    impl Inner {
        /// One block per worker plus one for everyone else.
        pub(crate) fn new(workers: usize) -> Self {
            Inner {
                blocks: (0..=workers).map(|_| WorkerBlock::default()).collect(),
            }
        }

        /// The one identity rule: worker `w` records into block `w`, which
        /// it owns; any out-of-range recorder (external handle readers pass
        /// `usize::MAX`) clamps onto the extra last block, shared, so a
        /// producer's read tallies never share a worker's lines. Returns the
        /// block and whether the recorder owns it.
        #[inline]
        pub(crate) fn block(&self, worker: usize) -> (&WorkerBlock, bool) {
            let shared = self.blocks.len() - 1;
            (&self.blocks[worker.min(shared)], worker < shared)
        }
    }
}

/// Why an update went around its worker's buffer straight to the store:
/// the three triggers of the one bypass arm, each with its own counter in
/// [`crate::BufferStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bypass {
    /// A full probe window and a line not admitted, or no cold victim.
    Admission,
    /// Admitted, but every cold victim was read-held.
    Held,
    /// The first delta since a drain, to a line an exact read or an
    /// `update_read` demoted since the last job ended.
    Demoted,
}

/// The lock-free metrics registry shared by a backend and its runtime.
///
/// **Ownership rule.** A worker index `w < workers` names one recorder at a
/// time — the thread driving worker `w`, as [`crate::UpdateBackend::update`]
/// and [`crate::UpdateBackend::flush`] already require — so block `w`'s
/// cells are bumped with plain Relaxed load + store, no lock prefix. Every
/// other recorder (external handle readers) passes an out-of-range index and
/// shares the extra block, whose cells take `fetch_add`s. Two threads
/// recording under one in-range index would lose counts, never corrupt
/// memory.
///
/// Created once per [`crate::CoupRuntime`] (or by whoever constructs a
/// standalone [`crate::CoupBackend`]) and shared via `Arc`; recording
/// methods are crate-internal, observation goes through
/// [`crate::CoupRuntime::metrics`] / [`crate::TelemetryHandle`] or, for a
/// standalone backend, [`crate::CoupBackend::metrics`].
pub struct TelemetryRegistry {
    anchor: Instant,
    #[cfg(feature = "telemetry")]
    pub(super) inner: Option<registry_impl::Inner>,
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TelemetryRegistry {
    /// Builds a registry with one padded counter block per worker and one
    /// for out-of-range recorders (nothing at all when `config` is
    /// disabled).
    pub fn new(workers: usize, config: TelemetryConfig) -> Self {
        #[cfg(not(feature = "telemetry"))]
        let _ = (workers, config);
        TelemetryRegistry {
            anchor: Instant::now(),
            #[cfg(feature = "telemetry")]
            inner: config.enabled.then(|| registry_impl::Inner::new(workers)),
        }
    }

    /// True when recording actually happens: the `telemetry` cargo feature
    /// is compiled in *and* the runtime kill-switch is on.
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "telemetry")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            false
        }
    }

    /// Nanoseconds since this registry was created (monotonic clock); the
    /// timebase of the queue-dwell stamps and of
    /// [`MetricsSnapshot::uptime_ns`].
    pub fn uptime_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Records one synchronous read — the only place a read is tallied: the
    /// buffer words it folded, the validation retries it burned, whether it
    /// escalated. [`MetricsSnapshot::read_cost`] is derived from these. A
    /// read that neither retried nor escalated costs the width record's two
    /// adds and nothing more (plain stores under a worker's index, RMWs in
    /// the shared block): retries and escalations are counters bumped only
    /// when nonzero.
    #[inline]
    pub(crate) fn record_read(&self, worker: usize, width: u64, retries: u64, escalations: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let (block, owned) = inner.block(worker);
            block.read_width.record(width, owned);
            if retries != 0 {
                add(&block.read_retries, retries, owned);
            }
            if escalations != 0 {
                add(&block.read_escalations, escalations, owned);
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, width, retries, escalations);
    }

    /// Records one popped submission batch: its size and queue dwell time.
    #[inline]
    pub(crate) fn record_queue_pop(&self, worker: usize, batch: u64, dwell_us: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let (block, owned) = inner.block(worker);
            block.batch_size.record(batch, owned);
            block.queue_dwell_us.record(dwell_us, owned);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, batch, dwell_us);
    }

    /// Records buffer owner `worker`'s privatization, of an `empty` slot or
    /// a victim's: the occupancy histogram samples the claimed-slot count,
    /// and its count is the privatization counter.
    #[inline]
    pub(crate) fn record_claim(&self, worker: usize, empty: bool) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let block = &inner.blocks[worker];
            if empty {
                add(&block.resident, 1, true);
            }
            block
                .occupancy
                .record(block.resident.load(Ordering::Relaxed), true);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, empty);
    }

    /// Records the staleness bound one relaxed-tier read returned.
    #[inline]
    pub(crate) fn record_stale_read(&self, worker: usize, staleness: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let (block, owned) = inner.block(worker);
            block.staleness.record(staleness, owned);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, staleness);
    }

    /// Records buffer owner `worker`'s slot migration: its non-identity word
    /// count, and an eviction or a flush. Buffer recorders index the owner's
    /// block with no clamp: every cell they touch is owned.
    #[inline]
    pub(crate) fn record_migration(&self, worker: usize, words: u64, eviction: bool) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let block = &inner.blocks[worker];
            block.flush_words.record(words, true);
            let cell = if eviction {
                &block.evictions
            } else {
                &block.flushes
            };
            add(cell, 1, true);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, words, eviction);
    }

    /// Records an update buffer owner `worker` sent straight to the store,
    /// under the counter of its `trigger`.
    #[inline]
    pub(crate) fn record_bypass(&self, worker: usize, trigger: Bypass) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let block = &inner.blocks[worker];
            let cell = match trigger {
                Bypass::Admission => &block.admission_bypasses,
                Bypass::Held => &block.held_bypasses,
                Bypass::Demoted => &block.demoted_bypasses,
            };
            add(cell, 1, true);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, trigger);
    }

    /// Counts one park (condvar sleep) against `worker`: its drainer's, or a
    /// producer's waiting for space on one of its shards — two writers, so
    /// a `fetch_add` even in the worker's own block.
    #[inline]
    pub(crate) fn record_park(&self, worker: usize) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            add(&inner.block(worker).0.queue_parks, 1, false);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = worker;
    }

    /// Counts one wake after a counted park.
    /// Every [`TelemetryRegistry::record_park`] whose sleeper actually slept
    /// is paired with exactly one `record_unpark` on the same worker index,
    /// so `queue_parks - queue_unparks` bounds the threads asleep right now.
    #[inline]
    pub(crate) fn record_unpark(&self, worker: usize) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            add(&inner.block(worker).0.queue_unparks, 1, false);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = worker;
    }

    /// Folds the registry's counters (read cost, buffer stats, histograms,
    /// parks, uptime) into `snap`; the caller supplies the queue counters.
    /// `read_cost`'s reads and words are derived from the read-width
    /// histogram, and `buffer_stats.privatized` from the occupancy one.
    pub(crate) fn fill(&self, snap: &mut MetricsSnapshot) {
        snap.uptime_ns = self.uptime_ns();
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            for block in inner.blocks.iter() {
                // Relaxed loads of distinct locations: live, each counter is
                // monotone on its own. Escalations load before the buckets a
                // read bumps first, so in-order loads (x86) never show more
                // escalations than reads; C11 promises that at quiescence.
                snap.read_cost.escalations += block.read_escalations.load(Ordering::Relaxed);
                snap.read_cost.retries += block.read_retries.load(Ordering::Relaxed);
                snap.read_width.merge(&block.read_width.snapshot());
                snap.queue_dwell_us.merge(&block.queue_dwell_us.snapshot());
                snap.batch_size.merge(&block.batch_size.snapshot());
                snap.occupancy.merge(&block.occupancy.snapshot());
                snap.flush_words.merge(&block.flush_words.snapshot());
                snap.staleness.merge(&block.staleness.snapshot());
                snap.queue_parks += block.queue_parks.load(Ordering::Relaxed);
                snap.queue_unparks += block.queue_unparks.load(Ordering::Relaxed);
                let stats = &mut snap.buffer_stats;
                stats.evictions += block.evictions.load(Ordering::Relaxed);
                stats.flushes += block.flushes.load(Ordering::Relaxed);
                stats.held_bypasses += block.held_bypasses.load(Ordering::Relaxed);
                stats.admission_bypasses += block.admission_bypasses.load(Ordering::Relaxed);
                stats.demoted_bypasses += block.demoted_bypasses.load(Ordering::Relaxed);
            }
            snap.read_cost.reads = snap.read_width.count();
            snap.read_cost.buffer_words = snap.read_width.sum;
            snap.buffer_stats.privatized = snap.occupancy.count();
        }
    }
}
