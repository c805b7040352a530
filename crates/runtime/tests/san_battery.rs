//! The sanitizer battery: drives every `ord:` pairing group of the runtime
//! on real threads under the `coup-san` facade, then asserts the
//! happens-before report is clean and every tag group was dynamically
//! exercised.
//!
//! Build: `RUSTFLAGS="--cfg coup_san" cargo test -p coup-runtime --test
//! san_battery`. CI's per-edge lane re-runs this file unchanged under every
//! `--cfg coup_mutation="<tag>"` and requires it to *fail*: a weakened
//! constant runs `Relaxed` at a site the table declares stronger, which
//! `verify` reports as `unpublished-acquire` or
//! `expected-ordering-never-ran` at the exact line.
#![cfg(coup_san)]

use std::sync::Arc;

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    AtomicBackend, BufferConfig, CoupBackend, RuntimeBuilder, TelemetryConfig, TelemetryRegistry,
    UpdateBackend,
};

/// [`CoupBackend::new`] over `AddU64` lanes, recording into a private
/// default registry.
fn coup_backend(
    lanes: usize,
    threads: usize,
    flush_threshold: u32,
    config: BufferConfig,
) -> CoupBackend {
    let op = CommutativeOp::AddU64;
    let telemetry = Arc::new(TelemetryRegistry::new(threads, TelemetryConfig::default()));
    CoupBackend::new(op, lanes, threads, flush_threshold, config, telemetry)
}

/// store-word, buffer-tag-publish, seqlock-epoch, buffer-word,
/// writer-bitmap, read-hold: the backend-side protocols.
fn exercise_backend() {
    // Cross-thread buffered updates + reads: privatization, writer bitmap,
    // buffer words, tag publishes, and (via threshold flushes) the seqlock
    // epoch protocol.
    let backend = coup_backend(
        256,
        2,
        2, // flush threshold 2: the second update on a slot migrates it
        BufferConfig::unbounded(),
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..128u64 {
                backend.update(1, (i % 32) as usize, 1);
            }
            backend.flush(1);
        });
        for i in 0..128u64 {
            backend.update(0, (i % 32) as usize, 1);
        }
        backend.flush(0);
    });
    // Re-dirty one slot so the next read walks a buffer whose epoch has
    // already been published by a migration: that read's Acquire epoch
    // load is the edge that pairs `seqlock-epoch`.
    backend.update(0, 3, 1);
    for lane in 0..32 {
        let _ = backend.read(0, lane);
    }
    // The escalated read path (read holds) never triggers on a quiet
    // backend, so drive it through the sanitizer hook.
    let _ = backend.read_escalated(3);

    // Dirty capacity evictions: a one-line buffer updated on two distinct
    // store lines must evict, migrating each delta through the seqlock
    // window and the writer-bit retire.
    let bounded = coup_backend(
        1024,
        1,
        64, // high threshold: evictions, not threshold flushes, do the work
        BufferConfig::bounded(1),
    );
    for i in 0..64u64 {
        // Lanes 0 and 512 map to different store lines, so each update
        // alternately evicts the other's dirty slot.
        bounded.update(0, if i % 2 == 0 { 0 } else { 512 }, 1);
    }
    let stats = bounded.metrics().buffer_stats;
    assert!(stats.evictions > 0, "bounded buffer must evict: {stats:?}");

    // Direct atomic RMWs on the shared store (`store-word` both sides).
    let atomic = AtomicBackend::new(CommutativeOp::AddU64, 8);
    atomic.update(0, 1, 5);
    atomic.update(0, 1, 6);
    assert_eq!(atomic.read(0, 1), 11);
}

/// ring-publish, ring-consume, shard-claim, shard-retire, queue-wake,
/// drain-quiesce, plus the tiered-read protocols:
/// stale-pending (the bound's pending-counter walk) and snap-publish (the
/// refresher's epoch seal): the submission-queue and runtime-facade
/// protocols.
fn exercise_runtime() {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 64)
        .workers(2)
        .batch_capacity(4)
        .queue_capacity(8)
        // A resident refresher: its timed park/notify cycle rides
        // `queue-wake` and every published snapshot seals via `snap-publish`.
        .refresh_interval(std::time::Duration::from_millis(1))
        .build();
    // Two producers flooding 8-slot rings fill them: a producer must
    // re-read the consumer head (`ring-consume` acquire side).
    std::thread::scope(|scope| {
        for producer in 0..2 {
            let mut sub = rt.handle();
            scope.spawn(move || {
                for i in 0..1000u64 {
                    sub.push(((producer * 7 + i as usize) % 64) as usize, 1);
                }
                // Dropping the handle publishes the tail batch and
                // retires the shard slot (`shard-retire` release side).
            });
        }
    });
    // Quiescence: the drain target check acquires the workers' applied
    // bumps (`drain-quiesce`).
    rt.drain();
    assert_eq!((0..64).map(|l| rt.read(l)).sum::<u64>(), 2000);
    // The stale tier: the bound's writer-bitmap + pending-counter walk
    // acquires each buffer's pending publishes (`stale-pending`), and a
    // demanded refresh exercises the refresh parker's notify edge
    // (`queue-wake`) plus the snapshot epoch's Acquire side (`snap-publish`).
    let stale = rt.read_stale(0);
    assert!(
        stale.value + stale.staleness >= rt.read(0),
        "the add-one bound must cover the exact read"
    );
    rt.refresh_now();
    let (snapshot, epoch) = rt.stale_snapshot();
    assert!(epoch > 0, "refresh_now must publish a snapshot");
    assert_eq!(
        snapshot.iter().sum::<u64>(),
        2000,
        "the drained store is fully visible to the refresher"
    );
    let result = rt.shutdown();
    assert_eq!(result.snapshot.iter().sum::<u64>(), 2000);
}

/// One mega-test on purpose: the
/// sanitizer's ledgers are process-global, so a single verification point
/// sees every protocol exercised above with nothing else interleaved.
#[test]
fn battery_exercises_every_tag_group_and_verifies_clean() {
    exercise_backend();
    exercise_runtime();

    // `verify` panics (listing each violation) on untracked-site,
    // ordering-drift, unpublished-acquire, or expected-ordering-never-ran.
    let report = coup_san::verify();

    assert!(
        report.table_entries >= 30,
        "suspiciously small site table ({} entries) — did the lint scan fail?",
        report.table_entries
    );
    assert!(
        !report.sites.is_empty() && !report.edges.is_empty(),
        "the battery must observe dynamic sites and happens-before edges"
    );
    // Every runtime dynamic edge must resolve into the static table: an
    // unresolved endpoint means the lint scanner and `#[track_caller]`
    // disagree about where a site lives (drift the static pass can't see).
    let unresolved: Vec<String> = report
        .edges
        .iter()
        .filter(|e| !e.resolved)
        .map(|e| {
            format!(
                "{}:{} -> {}:{}",
                e.from_file, e.from_line, e.to_file, e.to_line
            )
        })
        .collect();
    assert!(unresolved.is_empty(), "unresolved edges: {unresolved:?}");
    // 100% ordering coverage: every `ord:` tag group in the table was
    // crossed by at least one observed happens-before edge.
    assert!(
        report.coverage_complete(),
        "uncovered `ord:` tag groups: {:?} (covered: {:?})",
        report.uncovered_tags,
        report.covered_tags
    );
}
