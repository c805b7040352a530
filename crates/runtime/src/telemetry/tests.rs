//! Unit tests of the snapshot algebra, the Prometheus round-trip and the
//! recording registry.

use super::*;
use crate::backend::{BufferStats, ReadCost};

fn sample_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        uptime_ns: 123_456_789,
        updates_submitted: 1_000,
        updates_applied: 998,
        handle_reads: 7,
        queue_parks: 3,
        queue_unparks: 2,
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
            admission_bypasses: 21,
            demoted_bypasses: 4,
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
    registry.record_read(usize::MAX, 2, 4, 0); // clamps onto the extra block
    registry.record_queue_pop(1, 256, 12);
    registry.record_claim(3, true);
    registry.record_claim(3, false);
    registry.record_migration(2, 9, true);
    registry.record_migration(2, 0, false);
    registry.record_bypass(0, Bypass::Held);
    registry.record_bypass(3, Bypass::Admission);
    registry.record_bypass(3, Bypass::Demoted);
    registry.record_bypass(1, Bypass::Demoted);
    registry.record_park(1);
    registry.record_unpark(1);
    let mut snap = MetricsSnapshot::default();
    registry.fill(&mut snap);
    assert_eq!(snap.read_width.count(), 3);
    assert_eq!(snap.read_width.sum, 10);
    // Reads and words derive from the width histogram; retries and
    // escalations are counters.
    assert_eq!(snap.read_cost.reads, 3);
    assert_eq!(snap.read_cost.buffer_words, 10);
    assert_eq!(snap.read_cost.retries, 5);
    assert_eq!(snap.read_cost.escalations, 1);
    assert_eq!(snap.batch_size.count(), 1);
    assert_eq!(snap.queue_dwell_us.sum, 12);
    assert_eq!((snap.occupancy.count(), snap.occupancy.sum), (2, 2));
    assert_eq!((snap.flush_words.count(), snap.flush_words.sum), (2, 9));
    // Privatizations derive from the occupancy histogram; the rest are
    // the owner-only cells.
    let s = snap.buffer_stats;
    assert_eq!((s.privatized, s.evictions, s.flushes), (2, 1, 1));
    assert_eq!((s.held_bypasses, s.admission_bypasses), (1, 1));
    assert_eq!(s.demoted_bypasses, 2);
    assert_eq!(snap.queue_parks, 1);
    assert_eq!(snap.queue_unparks, 1);
    assert!(snap.uptime_ns > 0);
    assert_eq!(snap.trace_dropped, 0, "no event trace, nothing dropped");
}

#[cfg(feature = "telemetry")]
#[test]
fn out_of_range_recorders_share_a_block_no_worker_writes() {
    let registry = TelemetryRegistry::new(2, TelemetryConfig::default());
    let inner = registry.inner.as_ref().expect("enabled");
    assert_eq!(inner.blocks.len(), 3, "two workers plus the extra block");
    registry.record_read(usize::MAX, 1, 0, 0);
    registry.record_read(2, 1, 0, 0);
    let widths: Vec<u64> = inner
        .blocks
        .iter()
        .map(|block| block.read_width.snapshot().count())
        .collect();
    assert_eq!(widths, [0, 0, 2], "worker blocks stay untouched");
}

#[cfg(feature = "telemetry")]
#[test]
fn disabled_registry_records_nothing() {
    let registry = TelemetryRegistry::new(4, TelemetryConfig::disabled());
    assert!(!registry.is_enabled());
    registry.record_read(0, 3, 1, 1);
    registry.record_claim(0, true);
    registry.record_migration(0, 4, true);
    registry.record_bypass(0, Bypass::Admission);
    registry.record_park(0);
    registry.record_unpark(0);
    let mut snap = MetricsSnapshot::default();
    registry.fill(&mut snap);
    assert_eq!(snap.read_width.count(), 0);
    assert_eq!(snap.read_cost, ReadCost::default());
    assert_eq!(snap.buffer_stats, BufferStats::default());
    assert_eq!(snap.queue_parks, 0);
    assert_eq!(snap.queue_unparks, 0);
}
