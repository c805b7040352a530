//! Soundness of the tiered read path's staleness bound.
//!
//! The contract of [`UpdateBackend::read_stale`]: replaying the bound's
//! outstanding deltas over the returned value must *cover* an exact read
//! taken at the same instant. The bound counts outstanding buffered deltas
//! (their number, not their magnitude), so the property is sharpest on
//! add-one streams, where "replaying `staleness` deltas" means "adding
//! `staleness`":
//!
//! * **Deterministic interleavings** (single-threaded replay): every
//!   buffered `+1` is outstanding and counted exactly once. The pending
//!   counters live per buffered *line* (the granularity the protocol
//!   privatizes), so when a lane shares its 64-byte line the bound also
//!   counts neighbour-lane deltas — covering, over-reporting. At line
//!   granularity the count is sharp: store words plus the pending count
//!   equal the sum of the line's exact reads — at unbounded capacity and
//!   at capacity 2, where line switches constantly migrate deltas through
//!   evictions.
//! * **Concurrent runs**: the count may over-report (a racing migration's
//!   delta can be counted while already store-visible) but never
//!   under-reports, and the store word is monotone under non-negative adds.
//!   An observer sandwiching a stale read between two exact reads must see
//!   `exact_before ≤ stale.value + stale.staleness` and
//!   `stale.value ≤ exact_after`. Exact reads demote their lines, so on
//!   lines kept privatized the lower bound is instead every update a writer
//!   had finished before the stale read.
//! * **Quiescence**: once writers have flushed, the tiers converge —
//!   `read_stale` returns the exact total with a zero bound.
//!
//! Both properties run at capacity 2 and at the ambient configuration
//! ([`BufferConfig::from_env`]: unbounded unless `COUP_BUFFER_CAPACITY`
//! says otherwise), so CI's capacity-2 lane runs every case under eviction
//! pressure. A demoted line's first delta after a drain goes to the store
//! with no pending count, so the concurrent run's exactly-read lines race
//! that path, while its other lines race buffered deltas, threshold
//! flushes and evictions.
//!
//! [`AtomicBackend`] takes the trait's default (`read` with a zero bound),
//! which satisfies the same contract trivially; it is asserted here so the
//! property covers both backends of the equivalence matrix.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    AtomicBackend, BufferConfig, CoupBackend, StaleRead, TelemetryConfig, TelemetryRegistry,
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

/// Iteration multiplier for the concurrency stress tests: 1 normally, 8 when
/// `COUP_STRESS` is set (the CI release stress lane).
fn stress_factor() -> u64 {
    match std::env::var_os("COUP_STRESS") {
        Some(v) if v != "0" => 8,
        _ => 1,
    }
}

proptest! {
    /// Deterministic replays: for any interleaving of add-one updates from
    /// four threads with stale reads, at small flush thresholds and at
    /// capacity 2 (eviction pressure), the bound *covers* the exact read
    /// (`exact <= stale.value + stale.staleness`) on every lane, and is
    /// *sharp* (`==`) at line granularity: summed over the line's lanes,
    /// store words plus the pending count equal the exact reads.
    #[test]
    fn stale_bound_is_sharp_for_deterministic_add_one_interleavings(
        lines in 1usize..8,
        bounded in any::<bool>(),
        threshold in 1u32..6,
        ops in prop::collection::vec((0usize..4, any::<u64>(), any::<bool>(), 0u32..8), 0..80),
    ) {
        // 8 AddU64 lanes per 64-byte line: lane `line * 8` owns its line's
        // pending count alone; lane `line * 8 + 1` shares it.
        let threads = 4;
        let lanes = lines * 8;
        let config = if bounded {
            BufferConfig::bounded(2)
        } else {
            BufferConfig::from_env()
        };
        let coup = coup_backend(lanes, threads, threshold, config);
        let atomic = AtomicBackend::new(CommutativeOp::AddU64, lanes);
        for &(thread, line_bits, aligned, kind) in &ops {
            let line = (line_bits as usize) % lines;
            let lane = line * 8 + usize::from(!aligned);
            if kind == 0 {
                let stale = coup.read_stale(thread, lane);
                let exact = coup.read(thread, lane);
                prop_assert!(
                    exact <= stale.value + stale.staleness,
                    "lane {} (bounded {}, threshold {}): replaying {} add-one \
                     deltas over {} must cover the exact read {}",
                    lane, bounded, threshold, stale.staleness, stale.value, exact
                );
                // At line granularity the count is sharp: summing the two
                // touched lanes' store words plus the (shared) pending count
                // lands exactly on the sum of their exact reads — no buffered
                // delta is dropped or double-counted.
                let sa = coup.read_stale(thread, line * 8);
                let su = coup.read_stale(thread, line * 8 + 1);
                prop_assert_eq!(sa.staleness, su.staleness,
                    "line {}: both lanes walk the same per-line pending counters", line);
                prop_assert_eq!(
                    sa.value + su.value + sa.staleness,
                    coup.read(thread, line * 8) + coup.read(thread, line * 8 + 1),
                    "line {}: the per-line bound must land exactly on the \
                     line's exact reads", line
                );
                // The atomic baseline's default tier is the degenerate bound.
                let baseline = atomic.read_stale(thread, lane);
                prop_assert_eq!(baseline, StaleRead { value: atomic.read(thread, lane), staleness: 0 });
            } else {
                coup.update(thread, lane, 1);
                atomic.update(thread, lane, 1);
            }
        }
        prop_assert_eq!(coup.snapshot(), atomic.snapshot());
    }
}

/// Concurrent soundness: writers hammer add-one updates, two in a row per
/// lane so that a capacity-2 buffer admits the line, and a 64-update flush
/// budget, so migrations race the bound's pending-counter walk through
/// evictions (the capacity-2 arm) and threshold flushes (the unbounded
/// one), while observers check every stale read against exact lower and
/// upper bounds.
///
/// An exact read demotes its line, so the lanes are split by line. On the
/// first half, which only the observers' exact reads touch, each stale
/// read is sandwiched between two exact reads: the bound must cover the
/// earlier one and the value must never overtake the later one; these
/// lines are demoted before any write, so their deltas reach the store
/// without a pending count. The second half is never read exactly and
/// stays privatized; there each writer counts its finished updates per
/// lane, and the bound must cover every update counted before the stale
/// read, while the value may not pass what was issued by the time it
/// returned.
///
/// The writers start only once every observer has finished a sweep, and
/// the observers sweep until every writer has finished, so each run's
/// reads race the writers. A final sweep after the writers finish must read
/// the exact total of the first half.
#[test]
fn concurrent_stale_reads_cover_the_exact_value_under_eviction_pressure() {
    let writers = 4usize;
    let observers = 3usize;
    let threads = writers + observers;
    let lanes = 64usize; // 8 store lines: capacity 2 evicts on every switch
    let read_lanes = lanes / 2; // lines 0-3 are read exactly, lines 4-7 not
    let steps = 15_000u64 * stress_factor();
    for config in [BufferConfig::bounded(2), BufferConfig::from_env()] {
        let coup = coup_backend(lanes, threads, 64, config);
        let done: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(0)).collect();
        let swept = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (coup, done, swept, finished) = (&coup, &done, &swept, &finished);
            for writer in 0..writers {
                scope.spawn(move || {
                    while swept.load(Ordering::Acquire) < observers {
                        std::thread::yield_now();
                    }
                    let mut lane = writer;
                    for i in 0..steps {
                        for _ in 0..2 {
                            coup.update(writer, lane, 1);
                            done[lane].fetch_add(1, Ordering::Release);
                        }
                        // Walk the lanes so bounded buffers keep evicting.
                        lane = (lane + 7 + (i as usize & 3)) % lanes;
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            for observer in writers..threads {
                scope.spawn(move || {
                    for sweep in 0u64.. {
                        // Sampled before the sweep: when every writer had
                        // finished, the sweep must see every update.
                        let last = finished.load(Ordering::Acquire) == writers;
                        let mut seen = 0u64;
                        for lane in 0..read_lanes {
                            let before = coup.read(observer, lane);
                            let stale = coup.read_stale(observer, lane);
                            let after = coup.read(observer, lane);
                            assert!(
                                before <= stale.value + stale.staleness,
                                "lane {lane}: exact read {before} taken before the stale \
                                 read is not covered by value {} + staleness {}",
                                stale.value,
                                stale.staleness
                            );
                            assert!(
                                stale.value <= after,
                                "lane {lane}: stale value {} overtook the exact read {after}",
                                stale.value
                            );
                            seen += after;
                        }
                        for (lane, lane_done) in done.iter().enumerate().skip(read_lanes) {
                            let floor = lane_done.load(Ordering::Acquire);
                            let stale = coup.read_stale(observer, lane);
                            // At most one update per writer is in flight.
                            let ceiling = lane_done.load(Ordering::Acquire) + writers as u64;
                            assert!(
                                floor <= stale.value + stale.staleness,
                                "lane {lane}: {floor} updates finished before the stale \
                                 read are not covered by value {} + staleness {}",
                                stale.value,
                                stale.staleness
                            );
                            assert!(
                                stale.value <= ceiling,
                                "lane {lane}: stale value {} passed the {ceiling} updates \
                                 issued",
                                stale.value
                            );
                        }
                        if sweep == 0 {
                            swept.fetch_add(1, Ordering::Release);
                        }
                        if last {
                            let want: u64 = done[..read_lanes]
                                .iter()
                                .map(|d| d.load(Ordering::Relaxed))
                                .sum();
                            assert_eq!(seen, want, "a sweep after every writer finished");
                            break;
                        }
                    }
                });
            }
        });
        // Quiescence: everything flushed (scoped writers are done; drain the
        // buffers), so the tiers converge on every lane.
        for thread in 0..threads {
            coup.flush(thread);
        }
        let snapshot = coup.snapshot();
        for (lane, &want) in snapshot.iter().enumerate() {
            assert_eq!(
                coup.read_stale(0, lane),
                StaleRead {
                    value: want,
                    staleness: 0
                },
                "lane {lane}: quiesced stale read must be exact with a zero bound"
            );
        }
        assert_eq!(snapshot.iter().sum::<u64>(), 2 * writers as u64 * steps);
    }
}
