//! What the benchmark reads from its surroundings: the thread budget, the
//! pinned runtime knobs, `/proc` accounting, and the Prometheus exposition.

use std::collections::BTreeMap;

use coup_runtime::{DEFAULT_BATCH_CAPACITY, DEFAULT_FLUSH_THRESHOLD, DEFAULT_QUEUE_CAPACITY};

/// Environment variables that change runtime behaviour behind the
/// benchmark's back; it refuses to start while any is set.
pub const FORBIDDEN_ENV: [&str; 4] = [
    "COUP_BUFFER_CAPACITY",
    "COUP_BUFFER_POLICY",
    "COUP_STRESS",
    "COUP_SAN_ROOT",
];

/// The load shape: thread budget and every runtime knob, pinned explicitly
/// so no default or environment variable can leak into a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// `available_parallelism`, as detected.
    pub nproc: usize,
    /// Producer threads: `max(1, budget / 2)`.
    pub producers: usize,
    /// Resident workers: `max(1, budget − producers)`.
    pub workers: usize,
    /// `RuntimeBuilder::batch_capacity`.
    pub batch_capacity: usize,
    /// `RuntimeBuilder::queue_capacity`.
    pub queue_capacity: usize,
    /// `RuntimeBuilder::flush_threshold`.
    pub flush_threshold: u32,
}

impl Knobs {
    /// The knobs for a box with `nproc` hardware threads (budget capped at 4).
    pub fn for_nproc(nproc: usize) -> Self {
        let budget = nproc.clamp(1, 4);
        let producers = (budget / 2).max(1);
        Knobs {
            nproc,
            producers,
            workers: budget.saturating_sub(producers).max(1),
            batch_capacity: DEFAULT_BATCH_CAPACITY,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        }
    }

    /// The knobs for this machine.
    pub fn detect() -> Self {
        Knobs::for_nproc(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// Threads a direct `JobCtx` kernel runs on: the whole budget.
    pub fn kernel_threads(&self) -> usize {
        self.producers + self.workers
    }
}

/// Process CPU time (user + system) so far, in nanoseconds, from
/// `/proc/self/stat` (10 ms ticks). Zero where `/proc` is unavailable.
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name may contain spaces; fields are counted after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000_000
}

/// Peak resident set (`VmHWM`) in MiB. Zero where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so one process can report a
/// peak per workload. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Counter and histogram-total values of one Prometheus text exposition,
/// keyed by series name (`coup_reads_total`, `coup_batch_size_sum`, …).
/// Bucket series are skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exposition(BTreeMap<String, u64>);

impl Exposition {
    /// Parses `runtime.telemetry().prometheus()` output.
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|line| !line.starts_with('#') && !line.contains('{'))
            .filter_map(|line| {
                let (name, value) = line.trim().rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Exposition(series)
    }

    /// The value of series `name`.
    ///
    /// # Panics
    ///
    /// Panics when the exposition has no such series: the family names are
    /// part of the surface this benchmark pins.
    pub fn get(&self, name: &str) -> u64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("telemetry exposition has no series {name}"))
    }

    /// `numerator / denominator × scale`, or 0 when the denominator is 0.
    pub fn ratio(&self, numerator: &str, denominator: &str, scale: f64) -> f64 {
        match self.get(denominator) {
            0 => 0.0,
            d => self.get(numerator) as f64 / d as f64 * scale,
        }
    }
}

/// Records the runtime and backend counts of a traced pass, read by family
/// name: per count, the median over the coup trials' `expositions` (the
/// counts that must repeat agree anyway), scaled by the trial's `ops`.
pub fn record_counts(m: &mut crate::report::Metrics, expositions: &[&Exposition], ops: f64) {
    if expositions.is_empty() {
        return;
    }
    let over = |f: &dyn Fn(&Exposition) -> f64| {
        let mut values: Vec<f64> = expositions.iter().map(|e| f(e)).collect();
        crate::stats::median(&mut values)
    };
    let count = |name: &'static str| over(&|e| e.get(name) as f64);
    let mean = |family: &'static str, scale: f64, total: &'static str| {
        over(&|e| e.ratio(family, total, scale))
    };
    m.set(
        "runtime.parks_per_mop",
        count("coup_queue_parks_total") / ops * 1e6,
    );
    m.set(
        "runtime.unparks_per_mop",
        count("coup_queue_unparks_total") / ops * 1e6,
    );
    m.set(
        "runtime.queue_dwell_us_mean",
        mean(
            "coup_queue_dwell_microseconds_sum",
            1.0,
            "coup_queue_dwell_microseconds_count",
        ),
    );
    m.set(
        "runtime.batch_mean",
        mean("coup_batch_size_sum", 1.0, "coup_batch_size_count"),
    );
    m.set("backend.privatized", count("coup_lines_privatized_total"));
    m.set(
        "backend.evictions_per_kop",
        count("coup_evictions_total") / ops * 1e3,
    );
    m.set(
        "backend.flushes_per_kop",
        count("coup_flushes_total") / ops * 1e3,
    );
    m.set("backend.held_bypasses", count("coup_held_bypasses_total"));
    // Per read served on either tier, so the refresher's own reductions do
    // not pass for the cost of a stale read.
    m.set(
        "backend.read_words_per_read",
        over(&|e| {
            let reads = e.get("coup_reads_total") + e.get("coup_stale_reads_total");
            e.get("coup_read_buffer_words_total") as f64 / reads.max(1) as f64
        }),
    );
    m.set(
        "backend.read_retries_per_mread",
        mean("coup_read_retries_total", 1e6, "coup_reads_total"),
    );
    m.set(
        "backend.read_escalations",
        count("coup_read_escalations_total"),
    );
    m.set("backend.stale_reads", count("coup_stale_reads_total"));
    m.set(
        "backend.snapshot_refreshes",
        count("coup_snapshot_refreshes_total"),
    );
    m.set(
        "backend.updates_applied",
        count("coup_updates_applied_total"),
    );
    m.set(
        "telemetry.trace_dropped",
        count("coup_trace_events_dropped_total"),
    );
}
