//! Metric names, units and directions — the tables `BENCHMARK.json` mirrors —
//! and the rendering of a workload's result.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// `(name, unit, direction)` of a metric.
pub type Decl = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The seven workloads, in run order.
pub const WORKLOADS: [&str; 7] = [
    "update_stream",
    "read_mix_exact",
    "read_mix_stale",
    "evict_zipf",
    "kernel_refcount",
    "visible_probe",
    "sim_paper16",
];

/// The gated end-to-end metrics. Every workload reports every one (the
/// contract allows no omissions), so each is defined on all seven — see the
/// README for what `speedup_vs_atomic` means on `visible_probe` and
/// `sim_paper16`.
pub const END_TO_END: [Decl; 3] = [
    ("setup_s", "s", Lower),
    ("speedup_vs_atomic", "x", Higher),
    ("peak_rss_mib", "MiB", Lower),
];

/// The simulated applications of `sim_paper16`, in `paper_workloads` order:
/// the `<app>` of the `sim.<what>.<app>` metrics.
pub const SIM_APPS: [&str; 5] = ["hist", "spmv", "pgrank", "bfs", "fluidanimate"];

/// Every per-layer metric, in output order.
pub const PER_LAYER: [Decl; 82] = [
    // Reported, not gated: headline figures whose run-to-run spread on a
    // shared box exceeds any bound the contract allows (absolute rates), that
    // do not exist on every workload, or that repeat exactly. They come from
    // untraced trials, like the gated ones.
    ("coup_mops", "Mops/s", Higher),
    ("atomic_mops", "Mops/s", Higher),
    ("visible_p50_us", "us", Lower),
    ("sim_maccess_per_s", "Mops/s", Higher),
    ("sim_speedup_geomean", "x", Higher),
    ("failed_share", "ratio", Lower),
    ("ops_attempted", "count", Higher),
    ("ops_failed", "count", Lower),
    // runtime.rs + ring.rs
    ("runtime.build_us", "us", Lower),
    ("runtime.push_ns", "ns", Lower),
    ("runtime.publish_ns", "ns", Lower),
    ("runtime.drain_wait_us", "us", Lower),
    ("runtime.read_ns_p50", "ns", Lower),
    ("runtime.read_ns_p99", "ns", Lower),
    ("runtime.read_stale_ns_p50", "ns", Lower),
    ("runtime.parks_per_mop", "1/Mop", Lower),
    ("runtime.unparks_per_mop", "1/Mop", Lower),
    ("runtime.queue_dwell_us_mean", "us", Lower),
    ("runtime.batch_mean", "ops", Higher),
    ("runtime.visible_p99_us", "us", Lower),
    ("runtime.visible_p999_us", "us", Lower),
    ("runtime.visible_p50_us_atomic", "us", Lower),
    ("runtime.cpu_ns_per_op", "ns", Lower),
    ("runtime.shutdown_us", "us", Lower),
    // backend.rs
    ("backend.update_hit_ns", "ns", Lower),
    ("backend.update_evict_ns", "ns", Lower),
    ("backend.update_read_ns", "ns", Lower),
    ("backend.read_cold_ns", "ns", Lower),
    ("backend.read_hot_ns", "ns", Lower),
    ("backend.read_stale_ns", "ns", Lower),
    ("backend.atomic_update_ns", "ns", Lower),
    ("backend.atomic_read_ns", "ns", Lower),
    ("backend.atomic_update_read_ns", "ns", Lower),
    ("backend.privatized", "count", Lower),
    ("backend.evictions_per_kop", "1/kop", Lower),
    ("backend.flushes_per_kop", "1/kop", Lower),
    ("backend.held_bypasses", "count", Lower),
    ("backend.read_words_per_read", "words", Lower),
    ("backend.read_retries_per_mread", "1/Mread", Lower),
    ("backend.read_escalations", "count", Lower),
    ("backend.stale_reads", "count", Higher),
    ("backend.snapshot_refreshes", "count", Higher),
    ("backend.updates_applied", "count", Higher),
    // store.rs
    ("store.rmw_ns", "ns", Lower),
    ("store.reduce_line_ns", "ns", Lower),
    ("store.load_ns", "ns", Lower),
    ("store.snapshot_us", "us", Lower),
    // telemetry.rs
    ("telemetry.metrics_us", "us", Lower),
    ("telemetry.prometheus_us", "us", Lower),
    ("telemetry.trace_dropped", "count", Lower),
    // coup-workloads
    ("workloads.kernel_build_s", "s", Lower),
    ("workloads.execute_s", "s", Lower),
    ("workloads.verify_share", "ratio", Lower),
    ("workloads.sim_init_s", "s", Lower),
    ("workloads.sim_programs_s", "s", Lower),
    ("workloads.sim_verify_s", "s", Lower),
    // coup-protocol
    ("protocol.apply_word_ns", "ns", Lower),
    ("protocol.line_reduce_ns", "ns", Lower),
    // The harness itself
    ("gen.ns_per_op", "ns", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("trace.coverage_pct", "%", Higher),
    ("trace.timer_ns", "ns", Lower),
    // coup-sim, per application
    ("sim.run_s.hist", "s", Lower),
    ("sim.run_s.spmv", "s", Lower),
    ("sim.run_s.pgrank", "s", Lower),
    ("sim.run_s.bfs", "s", Lower),
    ("sim.run_s.fluidanimate", "s", Lower),
    ("sim.cycles_mesi.hist", "cycles", Lower),
    ("sim.cycles_mesi.spmv", "cycles", Lower),
    ("sim.cycles_mesi.pgrank", "cycles", Lower),
    ("sim.cycles_mesi.bfs", "cycles", Lower),
    ("sim.cycles_mesi.fluidanimate", "cycles", Lower),
    ("sim.cycles_meusi.hist", "cycles", Lower),
    ("sim.cycles_meusi.spmv", "cycles", Lower),
    ("sim.cycles_meusi.pgrank", "cycles", Lower),
    ("sim.cycles_meusi.bfs", "cycles", Lower),
    ("sim.cycles_meusi.fluidanimate", "cycles", Lower),
    ("sim.accesses.hist", "count", Lower),
    ("sim.accesses.spmv", "count", Lower),
    ("sim.accesses.pgrank", "count", Lower),
    ("sim.accesses.bfs", "count", Lower),
    ("sim.accesses.fluidanimate", "count", Lower),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// How it was estimated (`median of 7 pairs, q1 .. q3 ..`); printed, not
    /// part of the contract line.
    pub detail: String,
}

/// A bag of measured values, keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.set_with(name, value, String::new());
    }

    /// Records `name = value` with a note on the estimator.
    pub fn set_with(&mut self, name: impl Into<String>, value: f64, detail: String) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.get(&name).is_none(),
            "metric {name} recorded twice in one result"
        );
        self.0.push(Metric {
            name,
            value,
            detail,
        });
    }

    /// Records the median of `samples` with its quartiles and count.
    pub fn set_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        let value = crate::stats::median(&mut sorted);
        let detail = match crate::stats::quartiles(samples) {
            Some((q1, _, q3)) => format!("median of {}, q1 {q1:.4} q3 {q3:.4}", samples.len()),
            None => format!("n = {}", samples.len()),
        };
        self.set_with(name, value, detail);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every recorded metric, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for metric in other.0 {
            self.set_with(metric.name, metric.value, metric.detail);
        }
    }
}

/// What one pass over one workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Measured values.
    pub metrics: Metrics,
    /// Operations attempted in measured trials (and their warm-ups).
    pub attempted: u64,
    /// Operations whose effect was lost, duplicated, timed out, or that
    /// belong to a run whose verification failed.
    pub failed: u64,
    /// Exactness violations and verification errors; empty on a good run.
    pub errors: Vec<String>,
}

impl Outcome {
    /// True when every output matched its oracle and every count that must
    /// repeat across trials did.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Adds what another pass over the same workload produced.
    pub fn merge(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// Records the failure accounting as metrics, once every pass is in.
    pub fn record_failures(&mut self) {
        let (attempted, failed) = (self.attempted as f64, self.failed as f64);
        self.metrics.set("ops_attempted", attempted);
        self.metrics.set("ops_failed", failed);
        self.metrics
            .set("failed_share", failed / attempted.max(1.0));
    }
}

/// Formats a value for a JSON document: shortest round-trip form, every
/// digit as measured.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// The contract's result line: exactly the metrics of `decls`, in order.
/// A metric the workload does not exercise reads 0.
pub fn contract_line(outcome: &Outcome, decls: &[Decl]) -> String {
    let metrics: Vec<String> = decls
        .iter()
        .map(|&(name, unit, _)| {
            let value = outcome.metrics.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Human-readable rows: every recorded metric by name, with its unit.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = String::new();
    for metric in outcome.metrics.iter() {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(name, ..)| *name == metric.name)
            .map_or("?", |&(_, unit, _)| unit);
        out.push_str(&format!(
            "{workload:<16} {:<34} {:>16.6} {:<8} {}\n",
            metric.name, metric.value, unit, metric.detail
        ));
    }
    for error in &outcome.errors {
        out.push_str(&format!("{workload:<16} ERROR {error}\n"));
    }
    out
}
