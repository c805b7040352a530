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
//!   `stale.value ≤ exact_after`.
//! * **Quiescence**: once writers have flushed, the tiers converge —
//!   `read_stale` returns the exact total with a zero bound.
//!
//! [`AtomicBackend`] takes the trait's default (`read` with a zero bound),
//! which satisfies the same contract trivially; it is asserted here so the
//! property covers both backends of the equivalence matrix.

use std::sync::Arc;

use proptest::prelude::*;

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    AtomicBackend, BufferConfig, CoupBackend, StaleRead, TelemetryConfig, TelemetryRegistry,
    UpdateBackend, DEFAULT_FLUSH_THRESHOLD,
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
            BufferConfig::default()
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

/// Concurrent soundness: writers hammer add-one updates (with capacity-2
/// buffers, so migrations race the bound's pending-counter walk through
/// evictions as well as threshold flushes) while observers sandwich every
/// stale read between two exact reads. The bound must cover the earlier
/// exact read; the stale value must never overtake the later one.
#[test]
fn concurrent_stale_reads_cover_the_exact_value_under_eviction_pressure() {
    let writers = 4usize;
    let observers = 3usize;
    let threads = writers + observers;
    let lanes = 64usize; // 8 store lines: capacity 2 evicts on every switch
    let updates = 30_000u64 * stress_factor();
    for config in [BufferConfig::bounded(2), BufferConfig::default()] {
        let coup = coup_backend(lanes, threads, DEFAULT_FLUSH_THRESHOLD, config);
        std::thread::scope(|scope| {
            let coup = &coup;
            for writer in 0..writers {
                scope.spawn(move || {
                    let mut lane = writer;
                    for i in 0..updates {
                        coup.update(writer, lane, 1);
                        // Walk the lanes so bounded buffers keep evicting.
                        lane = (lane + 7 + (i as usize & 3)) % lanes;
                    }
                });
            }
            for observer in writers..threads {
                scope.spawn(move || {
                    let total = writers as u64 * updates;
                    let mut seen = 0u64;
                    while seen < total {
                        seen = 0;
                        for lane in 0..lanes {
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
        assert_eq!(snapshot.iter().sum::<u64>(), writers as u64 * updates);
    }
}
