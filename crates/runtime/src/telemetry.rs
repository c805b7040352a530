//! Live telemetry: a lock-free per-worker metrics registry, consistent
//! snapshots, and the Prometheus text exporter.
//!
//! The registry holds one cache-line-aligned block of atomic histograms per
//! worker. Hot-path sites in `backend.rs` / `runtime.rs` bump their own
//! block with relaxed atomics — no locks, no sharing except for block 0,
//! which doubles as the clamp target for out-of-range recorders (external
//! producer threads doing synchronous handle reads). Reading is a per-worker
//! sum with no stop-the-world: [`MetricsSnapshot`] is assembled any time by
//! folding the blocks, so every counter in it is individually monotone
//! between observations.
//!
//! The event-trace half lives in [`crate::trace`]; this module owns the
//! drain API. With the `telemetry` cargo feature disabled the registry
//! allocates nothing and every recording call is an empty inline function —
//! the zero-cost compile-out path — while [`MetricsSnapshot`], the [`Merge`]
//! trait, and the exporter stay available so reports keep the same shape
//! (read cost, parks, histograms and trace all zero; the backend-native
//! [`BufferStats`] still flows).

use std::time::Instant;

use crate::backend::{BufferStats, ReadCost};
#[cfg(feature = "telemetry")]
use crate::sync::atomic::Ordering;
use crate::trace::{TraceEvent, TraceKind};

/// Number of buckets in every fixed-bucket histogram.
///
/// Bucket `i` (for `1 <= i < 15`) holds values in `[2^(i-1), 2^i - 1]`;
/// bucket 0 holds exactly 0 and bucket 15 is the unbounded tail. Power-of-
/// two buckets make recording a `leading_zeros` plus one relaxed RMW.
pub const HIST_BUCKETS: usize = 16;

/// Merging for per-worker (or per-run) counter aggregates.
///
/// Every counter struct the runtime folds — [`BufferStats`],
/// [`HistogramSnapshot`], [`MetricsSnapshot`], and the workload executor's
/// per-worker counts — folds through this one trait, replacing the three
/// hand-rolled merge loops that used to live in the harness, the runtime
/// shutdown path, and the kernel executor.
pub trait Merge {
    /// Accumulates `other` into `self` field by field.
    fn merge(&mut self, other: &Self);
}

impl Merge for BufferStats {
    fn merge(&mut self, other: &Self) {
        self.privatized += other.privatized;
        self.evictions += other.evictions;
        self.flushes += other.flushes;
        self.held_bypasses += other.held_bypasses;
    }
}

/// Maps a recorded value to its histogram bucket.
#[inline]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// A point-in-time copy of one fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (non-cumulative).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of every recorded value.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Inclusive upper bound of bucket `index`, or `None` for the unbounded
    /// tail bucket (rendered as `+Inf` by the Prometheus exporter).
    pub fn bucket_upper_bound(index: usize) -> Option<u64> {
        if index + 1 < HIST_BUCKETS {
            Some((1u64 << index) - 1)
        } else {
            None
        }
    }

    /// The delta histogram since `base` (per-bucket saturating subtract).
    pub fn since(&self, base: &Self) -> Self {
        let mut delta = *self;
        for (bucket, earlier) in delta.buckets.iter_mut().zip(base.buckets.iter()) {
            *bucket = bucket.saturating_sub(*earlier);
        }
        delta.sum = delta.sum.saturating_sub(base.sum);
        delta
    }
}

impl Merge for HistogramSnapshot {
    fn merge(&mut self, other: &Self) {
        for (bucket, extra) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket += extra;
        }
        self.sum += other.sum;
    }
}

/// Configuration for the telemetry registry, set on
/// [`crate::RuntimeBuilder::telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Runtime kill-switch: when false the registry allocates nothing, every
    /// recording call is one predictable branch, and its series (read cost,
    /// parks, histograms, trace) stay zero. (The `telemetry` cargo feature
    /// removes even that branch at compile time.)
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true }
    }
}

impl TelemetryConfig {
    /// Everything off at runtime: no histogram blocks, no trace rings.
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false }
    }
}

#[cfg(feature = "telemetry")]
mod registry_impl {
    use crate::sync::atomic::{AtomicU64, Ordering};

    use super::{bucket_index, HistogramSnapshot, HIST_BUCKETS};
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

/// A consistent point-in-time view of every runtime counter, assembled by
/// [`crate::CoupRuntime::metrics`] (or carried on a
/// [`crate::ThroughputReport`]) with a per-worker sum — no stop-the-world.
///
/// Every field is individually monotone between observations on the same
/// runtime; [`MetricsSnapshot::since`] turns two observations into a phase
/// delta. The whole struct is `Copy` (fixed-size bucket arrays) so reports
/// stay cheap to pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the registry was created.
    pub uptime_ns: u64,
    /// Updates accepted into the submission queue.
    pub updates_submitted: u64,
    /// Updates applied to the backend by drainers and jobs.
    pub updates_applied: u64,
    /// Synchronous reads served through external handles.
    pub handle_reads: u64,
    /// Relaxed-tier reads served through the facade
    /// ([`crate::CoupRuntime::read_stale`] and its handle variants).
    pub stale_reads: u64,
    /// Eventually-consistent snapshots published by the background
    /// refresher (plus explicit [`crate::CoupRuntime::refresh_now`] calls).
    pub snapshot_refreshes: u64,
    /// Parker sleeps: drainers on an empty stripe, producers on a full
    /// ring, workers paused for a kernel job.
    pub queue_parks: u64,
    /// Wakes after a counted park; parks minus unparks bounds the threads
    /// currently asleep.
    pub queue_unparks: u64,
    /// Trace events recorded into the rings.
    pub trace_recorded: u64,
    /// Trace events lost to ring overwrite before a drain reached them.
    pub trace_dropped: u64,
    /// Read-path cost (reads, folded words, retries, escalations), derived
    /// from the registry's read histograms — zero with telemetry off.
    pub read_cost: ReadCost,
    /// Merged buffer life-cycle counters (privatizations, evictions,
    /// flushes, held bypasses), backend-native: they flow with telemetry off.
    pub buffer_stats: BufferStats,
    /// Buffer words folded per synchronous read.
    pub read_width: HistogramSnapshot,
    /// Validation retries burned per synchronous read.
    pub read_retries: HistogramSnapshot,
    /// Microseconds each popped batch spent queued.
    pub queue_dwell_us: HistogramSnapshot,
    /// Operations per popped batch.
    pub batch_size: HistogramSnapshot,
    /// Resident private lines at each privatization.
    pub occupancy: HistogramSnapshot,
    /// Non-identity words applied per slot migration.
    pub flush_words: HistogramSnapshot,
    /// Staleness bound returned per relaxed-tier read.
    pub staleness: HistogramSnapshot,
}

/// A meta-table row: `(prometheus name, help text, field)`. The field
/// column is a `&mut` accessor that serves reads too (through a copy — the
/// snapshot is `Copy`), so a row names its field exactly once.
type MetaRow<T> = (
    &'static str,
    &'static str,
    fn(&mut MetricsSnapshot) -> &mut T,
);

/// One row per scalar counter — the only enumeration of them besides the
/// struct itself. The exporter, its parser and the `since`/`merge` algebra
/// walk this table, so a new counter is a struct field plus one row here.
/// Row 0 is the uptime gauge ([`Merge`] takes its max).
const COUNTER_META: &[MetaRow<u64>] = &[
    (
        "coup_uptime_nanoseconds",
        "Nanoseconds since the telemetry registry was created.",
        |m| &mut m.uptime_ns,
    ),
    (
        "coup_updates_submitted_total",
        "Updates accepted into the submission queue.",
        |m| &mut m.updates_submitted,
    ),
    (
        "coup_updates_applied_total",
        "Updates applied to the backend by drainers and jobs.",
        |m| &mut m.updates_applied,
    ),
    (
        "coup_handle_reads_total",
        "Synchronous reads served through external handles.",
        |m| &mut m.handle_reads,
    ),
    (
        "coup_stale_reads_total",
        "Relaxed-tier reads served through the facade.",
        |m| &mut m.stale_reads,
    ),
    (
        "coup_snapshot_refreshes_total",
        "Eventually-consistent snapshots published by the refresher.",
        |m| &mut m.snapshot_refreshes,
    ),
    (
        "coup_queue_parks_total",
        "Parker sleeps: empty stripe, full ring, or paused worker.",
        |m| &mut m.queue_parks,
    ),
    (
        "coup_queue_unparks_total",
        "Wakes after a counted park (pairs with coup_queue_parks_total).",
        |m| &mut m.queue_unparks,
    ),
    (
        "coup_trace_events_recorded_total",
        "Trace events recorded into the per-worker rings.",
        |m| &mut m.trace_recorded,
    ),
    (
        "coup_trace_events_dropped_total",
        "Trace events lost to ring overwrite before a drain.",
        |m| &mut m.trace_dropped,
    ),
    (
        "coup_reads_total",
        "Synchronous reads served by the backend.",
        |m| &mut m.read_cost.reads,
    ),
    (
        "coup_read_buffer_words_total",
        "Private buffer words folded across all reads.",
        |m| &mut m.read_cost.buffer_words,
    ),
    (
        "coup_read_retries_total",
        "Read validation retries (concurrent migrations).",
        |m| &mut m.read_cost.retries,
    ),
    (
        "coup_read_escalations_total",
        "Reads escalated to the read-hold slow path.",
        |m| &mut m.read_cost.escalations,
    ),
    (
        "coup_lines_privatized_total",
        "Store lines claimed into private buffer slots.",
        |m| &mut m.buffer_stats.privatized,
    ),
    (
        "coup_evictions_total",
        "Dirty victims migrated store-ward by capacity pressure.",
        |m| &mut m.buffer_stats.evictions,
    ),
    (
        "coup_flushes_total",
        "Slot migrations into the store (threshold or explicit).",
        |m| &mut m.buffer_stats.flushes,
    ),
    (
        "coup_held_bypasses_total",
        "Updates routed around read-held buffers via direct RMW.",
        |m| &mut m.buffer_stats.held_bypasses,
    ),
];

/// Number of distinct histogram series a [`MetricsSnapshot`] carries.
pub const HIST_COUNT: usize = 7;

/// One row per histogram: the histogram counterpart of [`COUNTER_META`].
const HIST_META: [MetaRow<HistogramSnapshot>; HIST_COUNT] = [
    ("coup_read_width", "Buffer words folded per read.", |m| {
        &mut m.read_width
    }),
    (
        "coup_read_retries_per_read",
        "Validation retries per read.",
        |m| &mut m.read_retries,
    ),
    (
        "coup_queue_dwell_microseconds",
        "Microseconds a batch spent queued before a drainer popped it.",
        |m| &mut m.queue_dwell_us,
    ),
    ("coup_batch_size", "Operations per popped batch.", |m| {
        &mut m.batch_size
    }),
    (
        "coup_buffer_occupancy",
        "Resident private lines at each privatization.",
        |m| &mut m.occupancy,
    ),
    (
        "coup_flush_words",
        "Non-identity words applied per slot migration.",
        |m| &mut m.flush_words,
    ),
    (
        "coup_staleness",
        "Staleness bound returned per relaxed-tier read.",
        |m| &mut m.staleness,
    ),
];

impl MetricsSnapshot {
    /// Scalar counter values in [`COUNTER_META`] order.
    fn counter_values(&self) -> [u64; COUNTER_META.len()] {
        let mut copy = *self;
        std::array::from_fn(|row| *(COUNTER_META[row].2)(&mut copy))
    }

    /// Every histogram the snapshot carries, paired with its metric name, in
    /// a fixed order (`coup_read_width`, `coup_read_retries_per_read`,
    /// `coup_queue_dwell_microseconds`, `coup_batch_size`,
    /// `coup_buffer_occupancy`, `coup_flush_words`, `coup_staleness`) — for
    /// callers that iterate the series uniformly instead of naming fields.
    #[must_use]
    pub fn histograms(&self) -> [(&'static str, HistogramSnapshot); HIST_COUNT] {
        let mut copy = *self;
        HIST_META.map(|(name, .., slot)| (name, *slot(&mut copy)))
    }

    /// The delta snapshot since `base`: every counter and histogram bucket
    /// saturating-subtracted. The natural way to measure one phase of a run
    /// without resetting anything.
    pub fn since(&self, base: &Self) -> Self {
        let mut delta = *self;
        for ((.., slot), earlier) in COUNTER_META.iter().zip(base.counter_values()) {
            let slot = slot(&mut delta);
            *slot = slot.saturating_sub(earlier);
        }
        for ((.., slot), (_, earlier)) in HIST_META.iter().zip(base.histograms()) {
            let slot = slot(&mut delta);
            *slot = slot.since(&earlier);
        }
        delta
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `HELP`/`TYPE` headers, plain counters, and cumulative
    /// `_bucket{le=...}` / `_sum` / `_count` series for every histogram.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for ((name, help, ..), value) in COUNTER_META.iter().zip(self.counter_values()) {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        for ((name, help, ..), (_, hist)) in HIST_META.iter().zip(self.histograms()) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (index, bucket) in hist.buckets.iter().enumerate() {
                cumulative += bucket;
                match HistogramSnapshot::bucket_upper_bound(index) {
                    Some(le) => {
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"))
                    }
                    None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
                }
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {cumulative}\n"));
        }
        out
    }

    /// Parses the output of [`MetricsSnapshot::to_prometheus`] back into a
    /// snapshot; the round-trip is exact because every exported value is an
    /// integer. Used by the schema-check tests and the CI scrape lane.
    pub fn from_prometheus(text: &str) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::default();
        let mut cumulative = [[None::<u64>; HIST_BUCKETS]; HIST_COUNT];
        let mut counts = [None::<u64>; HIST_COUNT];
        let hist_index = |base: &str| HIST_META.iter().position(|(name, ..)| *name == base);
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_part, value_part) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed line: {line:?}"))?;
            let value: u64 = value_part
                .parse()
                .map_err(|_| format!("non-integer value in {line:?}"))?;
            if let Some((name, labels)) = name_part.split_once('{') {
                let base = name
                    .strip_suffix("_bucket")
                    .ok_or_else(|| format!("labels on non-bucket metric {name}"))?;
                let hist = hist_index(base).ok_or_else(|| format!("unknown histogram {base}"))?;
                let le = labels
                    .strip_suffix('}')
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("malformed le label in {line:?}"))?;
                let bucket = if le == "+Inf" {
                    HIST_BUCKETS - 1
                } else {
                    let bound: u64 = le
                        .parse()
                        .map_err(|_| format!("non-integer le in {line:?}"))?;
                    (0..HIST_BUCKETS - 1)
                        .find(|&i| HistogramSnapshot::bucket_upper_bound(i) == Some(bound))
                        .ok_or_else(|| format!("le {bound} is not a bucket boundary"))?
                };
                cumulative[hist][bucket] = Some(value);
            } else if let Some(base) = name_part.strip_suffix("_sum") {
                let hist = hist_index(base).ok_or_else(|| format!("unknown histogram {base}"))?;
                (HIST_META[hist].2)(&mut snap).sum = value;
            } else if let Some(base) = name_part.strip_suffix("_count") {
                let hist = hist_index(base).ok_or_else(|| format!("unknown histogram {base}"))?;
                counts[hist] = Some(value);
            } else {
                let index = COUNTER_META
                    .iter()
                    .position(|(name, ..)| *name == name_part)
                    .ok_or_else(|| format!("unknown metric {name_part}"))?;
                *(COUNTER_META[index].2)(&mut snap) = value;
            }
        }
        for (hist, buckets) in cumulative.iter().enumerate() {
            let mut previous = 0u64;
            let name = HIST_META[hist].0;
            for (index, entry) in buckets.iter().enumerate() {
                let running = entry.ok_or_else(|| format!("{name} is missing bucket {index}"))?;
                if running < previous {
                    return Err(format!("{name} buckets are not cumulative"));
                }
                (HIST_META[hist].2)(&mut snap).buckets[index] = running - previous;
                previous = running;
            }
            if let Some(count) = counts[hist] {
                if count != previous {
                    return Err(format!(
                        "{name}_count {count} disagrees with +Inf bucket {previous}"
                    ));
                }
            } else {
                return Err(format!("{name} is missing its _count series"));
            }
        }
        Ok(snap)
    }
}

impl Merge for MetricsSnapshot {
    fn merge(&mut self, other: &Self) {
        // Counter 0 is uptime: max, not sum — merging per-worker or
        // per-phase views of one clock must not double it.
        self.uptime_ns = self.uptime_ns.max(other.uptime_ns);
        for ((.., slot), extra) in COUNTER_META.iter().zip(other.counter_values()).skip(1) {
            *slot(self) += extra;
        }
        for ((.., slot), (_, extra)) in HIST_META.iter().zip(other.histograms()) {
            slot(self).merge(&extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            uptime_ns: 123_456_789,
            updates_submitted: 1_000,
            updates_applied: 998,
            handle_reads: 7,
            queue_parks: 3,
            queue_unparks: 2,
            trace_recorded: 40,
            trace_dropped: 2,
            read_cost: ReadCost {
                reads: 12,
                buffer_words: 30,
                retries: 1,
                escalations: 0,
            },
            buffer_stats: BufferStats {
                privatized: 64,
                evictions: 8,
                flushes: 5,
                held_bypasses: 1,
            },
            ..MetricsSnapshot::default()
        };
        for (i, value) in [0u64, 1, 2, 5, 9, 100, 70_000].iter().enumerate() {
            snap.read_width.buckets[bucket_index(*value)] += 1 + i as u64;
            snap.read_width.sum += value * (1 + i as u64);
        }
        snap.batch_size.buckets[9] = 4;
        snap.batch_size.sum = 1024;
        snap
    }

    #[test]
    fn bucket_index_matches_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(16_383), 14);
        assert_eq!(bucket_index(16_384), 15);
        assert_eq!(bucket_index(u64::MAX), 15);
        // Every finite bucket's upper bound lands in its own bucket and the
        // next value lands one bucket up.
        for index in 0..HIST_BUCKETS - 1 {
            let le = HistogramSnapshot::bucket_upper_bound(index).unwrap();
            assert_eq!(bucket_index(le), index);
            assert_eq!(bucket_index(le + 1), index + 1);
        }
        assert_eq!(
            HistogramSnapshot::bucket_upper_bound(HIST_BUCKETS - 1),
            None
        );
    }

    #[test]
    fn merge_and_since_are_inverses_on_counters() {
        let a = sample_snapshot();
        let mut width = HistogramSnapshot {
            sum: 3,
            ..HistogramSnapshot::default()
        };
        width.buckets[1] = 3;
        let b = MetricsSnapshot {
            updates_applied: 5,
            read_cost: ReadCost {
                reads: 2,
                ..ReadCost::default()
            },
            read_width: width,
            ..MetricsSnapshot::default()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.updates_applied, a.updates_applied + 5);
        assert_eq!(merged.uptime_ns, a.uptime_ns, "uptime merges as max");
        let recovered = merged.since(&b);
        // since() subtracts uptime too, and b's uptime is 0.
        assert_eq!(recovered, a);
    }

    #[test]
    fn prometheus_round_trips_exactly() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let parsed = MetricsSnapshot::from_prometheus(&text).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_schema_has_every_family_typed() {
        let text = sample_snapshot().to_prometheus();
        for (name, ..) in COUNTER_META.iter() {
            assert!(
                text.contains(&format!("# HELP {name} ")),
                "missing HELP {name}"
            );
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing TYPE {name}"
            );
        }
        for (name, ..) in HIST_META.iter() {
            assert!(
                text.contains(&format!("# TYPE {name} histogram")),
                "missing histogram TYPE for {name}"
            );
            assert!(
                text.contains(&format!("{name}_bucket{{le=\"+Inf\"}}")),
                "missing +Inf bucket for {name}"
            );
            assert!(text.contains(&format!("{name}_sum ")), "missing {name}_sum");
            assert!(
                text.contains(&format!("{name}_count ")),
                "missing {name}_count"
            );
        }
    }

    #[test]
    fn prometheus_parser_rejects_corruption() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        // A truncated exposition is missing series.
        let half = &text[..text.len() / 2];
        assert!(MetricsSnapshot::from_prometheus(half).is_err());
        // A count that disagrees with the +Inf bucket is rejected.
        let lied = text.replace("coup_batch_size_count 4", "coup_batch_size_count 40");
        assert!(MetricsSnapshot::from_prometheus(&lied).is_err());
        // Unknown metrics are rejected.
        assert!(MetricsSnapshot::from_prometheus("bogus_metric 1").is_err());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn registry_folds_per_worker_blocks() {
        let registry = TelemetryRegistry::new(4, TelemetryConfig::default());
        assert!(registry.is_enabled());
        registry.record_read(0, 3, 1, 1);
        registry.record_read(2, 5, 0, 0);
        registry.record_read(usize::MAX, 2, 0, 0); // clamps onto block 0
        registry.record_queue_pop(1, 256, 12);
        registry.record_occupancy(3, 7);
        registry.record_flush_words(2, 9);
        registry.record_park(1);
        registry.record_unpark(1);
        // The refresher's recorder id: clamps onto ring 0, and says so.
        registry.trace(usize::MAX, TraceKind::SnapshotRefresh, 4);
        let mut snap = MetricsSnapshot::default();
        registry.fill(&mut snap);
        assert_eq!(snap.read_width.count(), 3);
        assert_eq!(snap.read_width.sum, 10);
        assert_eq!(snap.read_retries.count(), 3);
        assert_eq!(snap.read_retries.sum, 1);
        // Read cost is derived from the two read histograms.
        assert_eq!(snap.read_cost.reads, 3);
        assert_eq!(snap.read_cost.buffer_words, 10);
        assert_eq!(snap.read_cost.retries, 1);
        assert_eq!(snap.read_cost.escalations, 1);
        assert_eq!(snap.batch_size.count(), 1);
        assert_eq!(snap.queue_dwell_us.sum, 12);
        assert_eq!(snap.occupancy.sum, 7);
        assert_eq!(snap.flush_words.sum, 9);
        assert_eq!(snap.queue_parks, 1);
        assert_eq!(snap.queue_unparks, 1);
        assert!(snap.uptime_ns > 0);
        // The park and unpark each traced an event; reads don't trace.
        assert_eq!(snap.trace_recorded, 3);
        let events = registry.drain_trace();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, crate::trace::TraceKind::QueuePark);
        assert_eq!(events[0].worker, 1);
        assert_eq!(events[1].kind, crate::trace::TraceKind::QueueUnpark);
        assert_eq!(events[1].worker, 1);
        assert_eq!(events[2].kind, TraceKind::SnapshotRefresh);
        assert_eq!(events[2].worker, 0, "the clamped ring index, not 255");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn disabled_registry_records_nothing() {
        let registry = TelemetryRegistry::new(4, TelemetryConfig::disabled());
        assert!(!registry.is_enabled());
        registry.record_read(0, 3, 1, 1);
        registry.record_park(0);
        registry.record_unpark(0);
        registry.trace(0, TraceKind::Flush, 9);
        let mut snap = MetricsSnapshot::default();
        registry.fill(&mut snap);
        assert_eq!(snap.read_width.count(), 0);
        assert_eq!(snap.read_cost, ReadCost::default());
        assert_eq!(snap.queue_parks, 0);
        assert_eq!(snap.queue_unparks, 0);
        assert_eq!(snap.trace_recorded, 0);
        assert!(registry.drain_trace().is_empty());
    }
}
