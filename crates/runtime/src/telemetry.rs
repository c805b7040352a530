//! Live telemetry: a lock-free per-worker metrics registry
//! (`telemetry/registry.rs`, the recording half), and — in this file — the
//! consistent [`MetricsSnapshot`] it folds into, its merge/delta algebra and
//! the Prometheus text exporter.
//!
//! The registry holds one cache-line-aligned block of atomic histograms per
//! worker. Hot-path sites in the backend and the runtime bump their own
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

use crate::backend::{BufferStats, ReadCost};

mod registry;
#[cfg(test)]
mod tests;

pub use registry::TelemetryRegistry;

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
        self.admission_bypasses += other.admission_bypasses;
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
    /// Updates applied to the backend by resident drainers (jobs call the
    /// backend directly and are not counted here).
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
    /// flushes, held and admission bypasses), backend-native: they flow
    /// with telemetry off.
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
        "Updates applied to the backend by resident drainers.",
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
    (
        "coup_admission_bypasses_total",
        "Updates of not-yet-admitted lines applied via direct RMW.",
        |m| &mut m.buffer_stats.admission_bypasses,
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
