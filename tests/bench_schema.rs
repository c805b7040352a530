//! Schema tests for `BENCH_runtime.json` (`coup-bench-runtime/v3`): the
//! report writer and parser live together in `coup_runtime::bench`, and
//! these tests pin the contract from outside the crate — a full-featured
//! round trip, the committed file parsing cleanly, and the structural
//! invariants trajectory tooling relies on (ascending sweep points,
//! honest shard-row caps, the park/unpark gap bounded by the workers
//! asleep at the sample point, kernel-row update counts backed by a
//! non-zero applied count in the metrics snapshot, and the telemetry
//! overhead inside its budget) — plus README's kernel table, which must
//! equal the committed file's kernel rows.

use coup_runtime::{
    BenchKernelRow, BenchOverhead, BenchReadTierRow, BenchReport, BenchShardRow, BenchSweepRow,
    MetricsSnapshot, BENCH_SCHEMA,
};
use std::path::Path;

fn sample_report() -> BenchReport {
    let mut metrics = MetricsSnapshot {
        uptime_ns: 123_456_789,
        updates_submitted: 4_000_000,
        updates_applied: 4_000_000,
        queue_parks: 17,
        queue_unparks: 17,
        ..MetricsSnapshot::default()
    };
    // Populate a histogram so the embedded-metrics path covers buckets too.
    metrics.batch_size.buckets[3] = 11;
    metrics.batch_size.sum = 88;
    BenchReport {
        threads: 8,
        workers: 2,
        kernels: vec![
            BenchKernelRow {
                kernel: "hist (1M px, 256b)".into(),
                atomic_mops: 12.375,
                coup_mops: 40.5,
                updates: 1_000_000,
                reads: 0,
            },
            BenchKernelRow {
                kernel: "bfs (200k v)".into(),
                atomic_mops: 7.0,
                coup_mops: 9.125,
                updates: 800_000,
                reads: 1_024,
            },
        ],
        submission_sweep: vec![
            BenchSweepRow {
                producers: 8,
                atomic_mops: 41.5,
                coup_mops: 47.625,
                queue_parks: 9,
                queue_unparks: 9,
                shards: vec![BenchShardRow {
                    slot: 0,
                    claims: 1,
                    drained: 500_000,
                }],
                shards_omitted: 0,
            },
            BenchSweepRow {
                producers: 1024,
                atomic_mops: 7.0625,
                coup_mops: 11.25,
                queue_parks: 4_096,
                queue_unparks: 4_096,
                shards: vec![
                    BenchShardRow {
                        slot: 3,
                        claims: 2,
                        drained: 4_000,
                    },
                    BenchShardRow {
                        slot: 7,
                        claims: 1,
                        drained: 3_900,
                    },
                ],
                shards_omitted: 1008,
            },
        ],
        read_tier_sweep: vec![
            BenchReadTierRow {
                reads_per_1000: 100,
                atomic_mops: 50.25,
                exact_mops: 22.5,
                stale_mops: 55.125,
            },
            BenchReadTierRow {
                reads_per_1000: 300,
                atomic_mops: 48.0,
                exact_mops: 10.5,
                stale_mops: 52.75,
            },
        ],
        telemetry_overhead: BenchOverhead {
            kernel: "hist (1M px, 256b)".into(),
            threads: 8,
            enabled_mops: 39.5,
            disabled_mops: 40.0,
            overhead_pct: 1.2658227848101267,
        },
        metrics,
    }
}

/// The accounting invariants trajectory tooling needs beyond raw parsing —
/// shared between the committed-file test and the negative tests, so a
/// file that *would* regress the committed accounting is provably rejected.
fn check_accounting(report: &BenchReport) -> Result<(), String> {
    let kernel_updates: u64 = report.kernels.iter().map(|k| k.updates).sum();
    if kernel_updates > 0 && report.metrics.updates_applied == 0 {
        return Err(format!(
            "kernel rows report {kernel_updates} updates but the metrics \
             snapshot's updates_applied is zero — the report was emitted \
             without the measured runs' accounting"
        ));
    }
    if report.metrics.updates_submitted != report.metrics.updates_applied {
        return Err(format!(
            "metrics snapshot is not quiescent: {} submitted vs {} applied",
            report.metrics.updates_submitted, report.metrics.updates_applied
        ));
    }
    if report.telemetry_overhead.overhead_pct > 5.0 {
        return Err(format!(
            "median telemetry overhead {}% busts the 5% budget",
            report.telemetry_overhead.overhead_pct
        ));
    }
    Ok(())
}

/// `from_json(to_json(report)) == report` exactly: floats are written with
/// the shortest round-trip representation, so nothing is lost to
/// formatting. This is the test the schema bump rides on — any field added
/// to the report must survive the loop or fail here.
#[test]
fn v3_report_round_trips_exactly() {
    let report = sample_report();
    let json = report.to_json();
    assert!(
        json.contains(&format!("\"schema\": \"{BENCH_SCHEMA}\"")),
        "writer must stamp the v3 schema: {json}"
    );
    let parsed = BenchReport::from_json(&json).expect("own output must parse");
    assert_eq!(parsed, report, "round trip changed the report");
    // And the loop is idempotent: a second pass writes byte-identical JSON.
    assert_eq!(parsed.to_json(), json, "re-serialization drifted");
}

/// v1 and v2 files must be rejected by name, not silently half-parsed:
/// trajectory tooling diffing across schema bumps needs the loud error.
#[test]
fn superseded_schemas_are_rejected() {
    for old in ["coup-bench-runtime/v1", "coup-bench-runtime/v2"] {
        let err = BenchReport::from_json(&format!(
            "{{\"schema\": {old:?}, \"threads\": 8, \"workers\": 2}}"
        ))
        .expect_err("superseded schemas must not parse as v3");
        assert!(err.contains(old), "err: {err}");
        assert!(err.contains(BENCH_SCHEMA), "err: {err}");
    }
}

/// Corrupt documents fail with anchored messages instead of defaults.
#[test]
fn missing_sections_are_loud() {
    let err = BenchReport::from_json(&format!(
        "{{\"schema\": \"{BENCH_SCHEMA}\", \"threads\": 8, \"workers\": 2, \"kernels\": []}}"
    ))
    .expect_err("a report without a submission sweep must not parse");
    assert!(err.contains("submission_sweep"), "err: {err}");
}

/// The regression this schema generation fixes: a report whose kernel rows
/// claim update volume while the metrics snapshot applied nothing is the
/// zeros-only accounting bug the committed v2 file carried — it must fail
/// validation loudly.
#[test]
fn kernel_updates_over_a_zero_applied_count_are_rejected() {
    let mut report = sample_report();
    report.metrics.updates_submitted = 0;
    report.metrics.updates_applied = 0;
    let err = check_accounting(&report)
        .expect_err("kernel updates over an all-zero snapshot must not validate");
    assert!(err.contains("updates_applied"), "err: {err}");
    // And the fixed shape passes.
    check_accounting(&sample_report()).expect("the sample report's accounting is sound");
}

/// The `BENCH_runtime.json` at the workspace root, parsed.
fn committed_report() -> BenchReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("BENCH_runtime.json must be committed: {err}"));
    BenchReport::from_json(&text)
        .unwrap_or_else(|err| panic!("committed bench file must parse as v3: {err}"))
}

/// The committed `BENCH_runtime.json` at the workspace root parses as v3
/// and satisfies the structural invariants: sweep points strictly ascending
/// in producer count and reaching >= 64 (the regime where sharding must
/// beat the old mutex queue), per-shard rows present with honest caps
/// (`claims` covers every drained update), the park/unpark gap bounded by
/// the sleeping resident workers at the sample point, read-tier rows
/// ascending in read rate with the stale tier beating exact reductions
/// where reads dominate, and the accounting invariants of
/// [`check_accounting`].
#[test]
fn committed_bench_file_is_valid_v3() {
    let report = committed_report();

    assert!(!report.kernels.is_empty(), "kernel table is empty");
    assert!(
        report.kernels.iter().any(|k| k.kernel.starts_with("hist")),
        "kernel table lost the hist row"
    );

    assert!(
        report.submission_sweep.len() >= 3,
        "submission sweep needs at least 3 producer counts, got {}",
        report.submission_sweep.len()
    );
    let mut last = 0usize;
    for row in &report.submission_sweep {
        assert!(
            row.producers > last,
            "sweep points must ascend: {} after {last}",
            row.producers
        );
        last = row.producers;
        assert!(
            !row.shards.is_empty(),
            "sweep point {} carries no shard rows",
            row.producers
        );
        // The sweep samples metrics at drain()-quiescence while the runtime
        // is still live, so up to `workers` drainers are asleep right then:
        // parks may lead unparks by exactly the sleeping-thread count,
        // never more (that would be a stranded sleeper).
        assert!(
            row.queue_parks - row.queue_unparks <= report.workers as u64,
            "park asymmetry at {} producers: {} parks vs {} unparks exceeds \
             the {} resident workers that may be asleep at the sample point",
            row.producers,
            row.queue_parks,
            row.queue_unparks,
            report.workers
        );
        let claims: u64 = row.shards.iter().map(|s| s.claims).sum();
        assert!(
            claims > 0,
            "sweep point {} shard rows show no claims",
            row.producers
        );
    }
    assert!(
        last >= 64,
        "sweep must reach the >=64-producer regime, stopped at {last}"
    );

    assert!(
        report.read_tier_sweep.len() >= 3,
        "read-tier sweep needs at least 3 read rates, got {}",
        report.read_tier_sweep.len()
    );
    let mut last_rate = 0u32;
    for row in &report.read_tier_sweep {
        assert!(
            row.reads_per_1000 > last_rate,
            "read-tier points must ascend: {} after {last_rate}",
            row.reads_per_1000
        );
        last_rate = row.reads_per_1000;
        assert!(
            row.atomic_mops > 0.0 && row.exact_mops > 0.0 && row.stale_mops > 0.0,
            "read-tier row {} carries an empty measurement",
            row.reads_per_1000
        );
        if row.reads_per_1000 >= 300 {
            // The tiered read path's committed acceptance evidence: where
            // reads dominate, the stale tier must beat exact reductions.
            assert!(
                row.stale_mops > row.exact_mops,
                "read-tier row {}: stale {} Mops does not beat exact {} Mops",
                row.reads_per_1000,
                row.stale_mops,
                row.exact_mops
            );
        }
    }

    assert!(
        report.telemetry_overhead.enabled_mops > 0.0
            && report.telemetry_overhead.disabled_mops > 0.0,
        "overhead measurement is empty"
    );
    check_accounting(&report).unwrap_or_else(|err| panic!("committed accounting invalid: {err}"));
    assert!(
        report.metrics.updates_applied > 0 && report.metrics.handle_reads > 0,
        "the committed snapshot must carry the measured facade volume, \
         not zeros ({} applied, {} handle reads)",
        report.metrics.updates_applied,
        report.metrics.handle_reads
    );
    assert!(
        report.metrics.stale_reads > 0 && report.metrics.snapshot_refreshes > 0,
        "the committed snapshot must include the read-tier sweep's stale \
         traffic ({} stale reads, {} refreshes)",
        report.metrics.stale_reads,
        report.metrics.snapshot_refreshes
    );
}

/// README's real-hardware kernel table is the committed file's kernel
/// section, rounded to the table's precision. It was hand-copied once and
/// drifted (pgrank read 0.73x while the file said 0.931). A test of its
/// own rather than one more assertion in the one above, because CI re-runs
/// that one against a *freshly emitted* file, which README cannot match.
#[test]
fn readme_kernel_table_matches_the_committed_bench_file() {
    let report = committed_report();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("README.md must sit beside the bench file: {err}"));
    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|line| !line.starts_with("| kernel | verifies via |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .collect();
    assert_eq!(rows.len(), report.kernels.len(), "README kernel rows");
    for (row, kernel) in rows.iter().zip(&report.kernels) {
        let name = kernel.kernel.split(' ').next().expect("kernel label");
        let figures = format!(
            "| {:.1} | {:.1} | {:.2}× |",
            kernel.atomic_mops,
            kernel.coup_mops,
            kernel.coup_mops / kernel.atomic_mops
        );
        assert!(
            row.starts_with(&format!("| {name}")) && row.ends_with(&figures),
            "README row {row:?} drifted from BENCH_runtime.json: want `| {name}… {figures}`"
        );
    }
}
