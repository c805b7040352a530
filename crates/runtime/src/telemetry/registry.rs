//! The recording half of telemetry: the lock-free per-worker
//! [`TelemetryRegistry`] the hot paths bump, and the fold that turns its
//! blocks into a [`MetricsSnapshot`].

use std::time::Instant;

#[cfg(feature = "telemetry")]
use super::Merge;
use super::{MetricsSnapshot, TelemetryConfig};
#[cfg(feature = "telemetry")]
use crate::sync::atomic::Ordering;
use crate::trace::{TraceEvent, TraceKind};

#[cfg(feature = "telemetry")]
mod registry_impl {
    use crate::sync::atomic::{AtomicU64, Ordering};

    use crate::telemetry::{bucket_index, HistogramSnapshot, HIST_BUCKETS};
    use crate::trace::TraceRing;

    /// Per-worker trace-ring capacity, in events.
    const TRACE_CAPACITY: usize = 1024;

    /// A histogram of relaxed atomics; recording is `leading_zeros` plus two
    /// relaxed `fetch_add`s (RMW rather than plain store only because block
    /// 0 is shared with clamped out-of-range recorders).
    #[derive(Default)]
    pub(crate) struct AtomicHistogram {
        buckets: [AtomicU64; HIST_BUCKETS],
        sum: AtomicU64,
    }

    impl AtomicHistogram {
        #[inline]
        pub(crate) fn record(&self, value: u64) {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
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
    /// workers' relaxed bumps never false-share.
    #[derive(Default)]
    #[repr(align(64))]
    pub(crate) struct WorkerBlock {
        pub(crate) read_width: AtomicHistogram,
        pub(crate) read_retries: AtomicHistogram,
        pub(crate) queue_dwell_us: AtomicHistogram,
        pub(crate) batch_size: AtomicHistogram,
        pub(crate) occupancy: AtomicHistogram,
        pub(crate) flush_words: AtomicHistogram,
        pub(crate) staleness: AtomicHistogram,
        pub(crate) read_escalations: AtomicU64,
        pub(crate) queue_parks: AtomicU64,
        pub(crate) queue_unparks: AtomicU64,
    }

    pub(crate) struct Inner {
        pub(crate) blocks: Box<[WorkerBlock]>,
        pub(crate) rings: Box<[TraceRing]>,
    }

    impl Inner {
        pub(crate) fn new(workers: usize) -> Self {
            let workers = workers.max(1);
            Inner {
                blocks: (0..workers).map(|_| WorkerBlock::default()).collect(),
                rings: (0..workers)
                    .map(|_| TraceRing::new(TRACE_CAPACITY))
                    .collect(),
            }
        }

        /// The one identity rule: worker `w` records into block and ring
        /// `w`; any out-of-range recorder (external handle readers pass
        /// `usize::MAX`) clamps onto index 0.
        #[inline]
        pub(crate) fn index(&self, worker: usize) -> usize {
            if worker < self.blocks.len() {
                worker
            } else {
                0
            }
        }

        #[inline]
        pub(crate) fn block(&self, worker: usize) -> &WorkerBlock {
            &self.blocks[self.index(worker)]
        }
    }
}

/// The lock-free metrics registry shared by a backend and its runtime.
///
/// Created once per [`crate::CoupRuntime`] (or by whoever constructs a
/// standalone [`crate::CoupBackend`]) and shared via `Arc`; recording
/// methods are crate-internal, observation goes through
/// [`crate::CoupRuntime::metrics`] / [`crate::TelemetryHandle`] or, for a
/// standalone backend, the histograms folded by the owner.
pub struct TelemetryRegistry {
    anchor: Instant,
    #[cfg(feature = "telemetry")]
    inner: Option<registry_impl::Inner>,
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TelemetryRegistry {
    /// Builds a registry with one padded counter block and one trace ring
    /// per worker (nothing at all when `config` is disabled).
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
    /// timebase of every trace event timestamp.
    pub fn uptime_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Drains every un-drained trace event across all worker rings, merged
    /// and sorted by timestamp. Lossy by design: entries overwritten before
    /// a drain reached them are counted in
    /// [`MetricsSnapshot::trace_dropped`], not returned.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        #[cfg(feature = "telemetry")]
        {
            let mut events = Vec::new();
            if let Some(inner) = &self.inner {
                for ring in inner.rings.iter() {
                    ring.drain_into(&mut events);
                }
            }
            events.sort_by_key(|event| (event.timestamp_ns, event.worker, event.seq));
            events
        }
        #[cfg(not(feature = "telemetry"))]
        {
            Vec::new()
        }
    }

    /// Records one synchronous read — the only place a read is tallied: the
    /// buffer words it folded, the validation retries it burned, whether it
    /// escalated. [`MetricsSnapshot::read_cost`] is derived from these.
    #[inline]
    pub(crate) fn record_read(&self, worker: usize, width: u64, retries: u64, escalations: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let block = inner.block(worker);
            block.read_width.record(width);
            block.read_retries.record(retries);
            if escalations != 0 {
                block
                    .read_escalations
                    .fetch_add(escalations, Ordering::Relaxed);
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
            let block = inner.block(worker);
            block.batch_size.record(batch);
            block.queue_dwell_us.record(dwell_us);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, batch, dwell_us);
    }

    /// Records the owner's resident-line count at a privatization.
    #[inline]
    pub(crate) fn record_occupancy(&self, worker: usize, resident: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            inner.block(worker).occupancy.record(resident);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, resident);
    }

    /// Records the staleness bound one relaxed-tier read returned.
    #[inline]
    pub(crate) fn record_stale_read(&self, worker: usize, staleness: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            inner.block(worker).staleness.record(staleness);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, staleness);
    }

    /// Records the non-identity word count of one slot migration.
    #[inline]
    pub(crate) fn record_flush_words(&self, worker: usize, words: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            inner.block(worker).flush_words.record(words);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, words);
    }

    /// Counts one drainer park (condvar sleep) and traces the park event.
    #[inline]
    pub(crate) fn record_park(&self, worker: usize) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            inner
                .block(worker)
                .queue_parks
                .fetch_add(1, Ordering::Relaxed);
        }
        self.trace(worker, TraceKind::QueuePark, 0);
    }

    /// Counts one wake after a counted park and traces the unpark event.
    /// Every [`TelemetryRegistry::record_park`] whose sleeper actually slept
    /// is paired with exactly one `record_unpark` on the same worker index,
    /// so `queue_parks - queue_unparks` bounds the threads asleep right now.
    #[inline]
    pub(crate) fn record_unpark(&self, worker: usize) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            inner
                .block(worker)
                .queue_unparks
                .fetch_add(1, Ordering::Relaxed);
        }
        self.trace(worker, TraceKind::QueueUnpark, 0);
    }

    /// Records one structured trace event.
    #[inline]
    pub(crate) fn trace(&self, worker: usize, kind: TraceKind, line: usize) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let index = inner.index(worker);
            inner.rings[index].record(self.uptime_ns(), index, kind, line);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker, kind, line);
    }

    /// Folds the registry's own counters (read cost, histograms, parks,
    /// trace totals, uptime) into `snap`; the caller supplies the buffer and
    /// queue counters. `read_cost` is derived from the two read histograms.
    pub(crate) fn fill(&self, snap: &mut MetricsSnapshot) {
        snap.uptime_ns = self.uptime_ns();
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            for block in inner.blocks.iter() {
                // Escalations before the buckets: a read bumps its buckets
                // first, so `escalations <= reads` holds for a live observer.
                snap.read_cost.escalations += block.read_escalations.load(Ordering::Relaxed);
                snap.read_width.merge(&block.read_width.snapshot());
                snap.read_retries.merge(&block.read_retries.snapshot());
                snap.queue_dwell_us.merge(&block.queue_dwell_us.snapshot());
                snap.batch_size.merge(&block.batch_size.snapshot());
                snap.occupancy.merge(&block.occupancy.snapshot());
                snap.flush_words.merge(&block.flush_words.snapshot());
                snap.staleness.merge(&block.staleness.snapshot());
                snap.queue_parks += block.queue_parks.load(Ordering::Relaxed);
                snap.queue_unparks += block.queue_unparks.load(Ordering::Relaxed);
            }
            for ring in inner.rings.iter() {
                snap.trace_recorded += ring.recorded();
                snap.trace_dropped += ring.dropped();
            }
            snap.read_cost.reads = snap.read_width.count();
            snap.read_cost.buffer_words = snap.read_width.sum;
            snap.read_cost.retries = snap.read_retries.sum;
        }
    }
}
