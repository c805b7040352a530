//! Property tests for the algebra COUP rests on and for the real-hardware
//! runtime backends:
//!
//! * every [`CommutativeOp`] is commutative and associative with a correct
//!   identity element *across all lanes of a [`LineData`]* — the whole-line
//!   reduction the protocol, the simulator, and the runtime all share;
//! * [`CoupBackend`] reads equal [`AtomicBackend`] reads for randomized
//!   update/read interleavings (exact equality — the interleavings are
//!   executed deterministically), including at tiny buffer capacities where
//!   every few updates force a capacity eviction;
//! * both backends end in exactly the sequential reference state after a
//!   genuinely multithreaded contended run, at every buffer capacity in
//!   {1, 2, 64, unbounded};
//! * the workload kernels (`hist`, `pgrank`, `refcount`) verify under every
//!   executor: simulator (MESI, MEUSI, RMW lowering) and real hardware
//!   (atomic, coup) — the cross-backend equivalence the `ExecutionBackend`
//!   refactor promises;
//! * pgrank runs on a ≥1M-line store with per-thread buffer memory bounded
//!   by the configured capacity — the bounded-footprint guarantee of the
//!   sparse (software U-state eviction) buffers.

use std::sync::Arc;

use proptest::prelude::*;

use coup_protocol::line::{LineData, LINE_BYTES};
use coup_protocol::ops::CommutativeOp;
use coup_protocol::state::ProtocolKind;
use coup_runtime::{
    expected_counts, run_contended, tag, AtomicBackend, BackendKind, BufferConfig, ContendedSpec,
    CoupBackend, RuntimeBuilder, TelemetryConfig, TelemetryRegistry, UpdateBackend,
    DEFAULT_FLUSH_THRESHOLD,
};
use coup_sim::config::SystemConfig;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, UpdateKernel};
use coup_workloads::pgrank::PageRankWorkload;
use coup_workloads::refcount::{ImmediateRefcount, RefcountScheme};

/// [`CoupBackend::new`] recording into a private default registry. Call
/// sites that do not pin a capacity pass [`BufferConfig::from_env`], so the
/// `COUP_BUFFER_CAPACITY=2` CI lane reruns them under eviction pressure.
fn coup_backend(
    op: CommutativeOp,
    lanes: usize,
    threads: usize,
    flush_threshold: u32,
    config: BufferConfig,
) -> CoupBackend {
    let telemetry = Arc::new(TelemetryRegistry::new(threads, TelemetryConfig::default()));
    CoupBackend::new(op, lanes, threads, flush_threshold, config, telemetry)
}

fn any_op() -> impl Strategy<Value = CommutativeOp> {
    prop::sample::select(CommutativeOp::ALL.to_vec())
}

fn integer_op() -> impl Strategy<Value = CommutativeOp> {
    prop::sample::select(vec![
        CommutativeOp::AddU16,
        CommutativeOp::AddU32,
        CommutativeOp::AddU64,
        CommutativeOp::And64,
        CommutativeOp::Or64,
        CommutativeOp::Xor64,
        CommutativeOp::Min64,
        CommutativeOp::Max64,
        CommutativeOp::MulU32,
    ])
}

/// Builds a partial-update line of `op` from (lane, value) pairs. Values are
/// masked to the lane width by `apply_update`; for float ops the raw bits are
/// first made finite by routing them through an integer cast.
fn partial_line(op: CommutativeOp, updates: &[(usize, u64)]) -> LineData {
    let width = op.width().bytes();
    let lanes_per_line = LINE_BYTES / width;
    let mut line = LineData::identity(op);
    for &(lane, value) in updates {
        let value = if op.is_float() {
            match op {
                CommutativeOp::AddF32 => u64::from(f32::from(value as u16).to_bits()),
                _ => f64::from(value as u32).to_bits(),
            }
        } else {
            value
        };
        line.apply_update(op, (lane % lanes_per_line) * width, value);
    }
    line
}

proptest! {
    /// Identity lines are neutral on *every* lane of a line, for every
    /// operation — including the extensions (Min/Max/Mul) the paper only
    /// sketches.
    #[test]
    fn identity_line_is_neutral_on_every_lane(
        op in any_op(),
        updates in prop::collection::vec((0usize..32, any::<u64>()), 0..24),
    ) {
        let data = partial_line(op, &updates);
        prop_assert_eq!(data.reduced_with(op, &LineData::identity(op)), data);
        let mut from_identity = LineData::identity(op);
        from_identity.reduce_from(op, &data);
        prop_assert_eq!(from_identity, data);
    }

    /// Whole-line reduction is commutative for every operation (floats
    /// included — the partials are finite) and associative for the
    /// non-floating-point ones, so partial updates may be collected and
    /// combined in any order and grouping.
    #[test]
    fn line_reduction_commutes_and_associates(
        op in any_op(),
        ua in prop::collection::vec((0usize..32, any::<u64>()), 0..16),
        ub in prop::collection::vec((0usize..32, any::<u64>()), 0..16),
        uc in prop::collection::vec((0usize..32, any::<u64>()), 0..16),
    ) {
        let (a, b, c) = (partial_line(op, &ua), partial_line(op, &ub), partial_line(op, &uc));
        // Commutativity: a ∘ b == b ∘ a, lane for lane.
        prop_assert_eq!(a.reduced_with(op, &b), b.reduced_with(op, &a));
        if !op.is_float() {
            // Associativity: (a ∘ b) ∘ c == a ∘ (b ∘ c).
            prop_assert_eq!(
                a.reduced_with(op, &b).reduced_with(op, &c),
                a.reduced_with(op, &b.reduced_with(op, &c))
            );
        }
    }

    /// For any randomized interleaving of updates and reads from a handful of
    /// threads, the software-COUP backend's reads return exactly what the
    /// atomic baseline returns, and both end in the same state. Small flush
    /// thresholds are included so reads race line drains.
    #[test]
    fn coup_reads_equal_atomic_reads(
        op in integer_op(),
        lanes in 1usize..40,
        threshold in 1u32..6,
        ops in prop::collection::vec((0usize..4, any::<u64>(), any::<u64>(), 0u32..10), 0..60),
    ) {
        let threads = 4;
        let atomic = AtomicBackend::new(op, lanes);
        let coup = coup_backend(op, lanes, threads, threshold, BufferConfig::from_env());
        for &(thread, lane_bits, value, kind) in &ops {
            let lane = (lane_bits as usize) % lanes;
            match kind {
                // Reads are the minority, as in update-heavy workloads.
                0 => prop_assert_eq!(
                    atomic.read(thread, lane),
                    coup.read(thread, lane),
                    "read mismatch for {} at lane {}", op, lane
                ),
                1 => prop_assert_eq!(
                    atomic.update_read(thread, lane, value),
                    coup.update_read(thread, lane, value),
                    "update_read mismatch for {} at lane {}", op, lane
                ),
                _ => {
                    atomic.update(thread, lane, value);
                    coup.update(thread, lane, value);
                }
            }
        }
        prop_assert_eq!(atomic.snapshot(), coup.snapshot(), "final state mismatch for {}", op);
    }

    /// After a real multi-producer contended run through the service facade,
    /// both runtimes hold exactly the sequential reference counts.
    #[test]
    fn multithreaded_runs_match_the_sequential_reference(
        producers in 1usize..6,
        lanes in 1usize..32,
        reads_per_1000 in 0u32..200,
        seed: u64,
    ) {
        let op = CommutativeOp::AddU64;
        let spec = ContendedSpec { lanes, updates_per_thread: 500, reads_per_1000, seed, theta: 0.0 };
        let atomic = RuntimeBuilder::new(op, lanes).backend(BackendKind::Atomic).workers(2).build();
        let coup = RuntimeBuilder::new(op, lanes).workers(2).build();
        run_contended(&atomic, producers, &spec);
        run_contended(&coup, producers, &spec);
        let want = expected_counts(&spec, producers, op);
        prop_assert_eq!(atomic.snapshot(), want.clone());
        prop_assert_eq!(coup.snapshot(), want);
    }

    /// Batched submission through handles is (quiescently) linearizably
    /// equivalent to the atomic baseline: for any integer operation, any
    /// batch capacity, and any deterministic partition of an update stream
    /// over concurrent producer threads, the runtime's shutdown snapshot
    /// equals the sequential application of the same multiset on
    /// [`AtomicBackend`]. (Floating-point adds are excluded exactly as in
    /// the other equivalence properties: reordering rounds differently.)
    #[test]
    fn batched_handle_submission_equals_atomic(
        op in integer_op(),
        lanes in 1usize..40,
        workers in 1usize..4,
        batch in 1usize..24,
        ops in prop::collection::vec((any::<u64>(), any::<u64>()), 0..120),
    ) {
        let reference = AtomicBackend::new(op, lanes);
        for &(lane_bits, value) in &ops {
            reference.update(0, (lane_bits as usize) % lanes, value);
        }
        let runtime = RuntimeBuilder::new(op, lanes)
            .workers(workers)
            .batch_capacity(batch)
            .build();
        let producers = 3usize;
        std::thread::scope(|scope| {
            for producer in 0..producers {
                let mut handle = runtime.handle();
                let ops = &ops;
                scope.spawn(move || {
                    // Deterministic round-robin partition of the stream.
                    for (lane_bits, value) in ops.iter().skip(producer).step_by(producers) {
                        handle.push((*lane_bits as usize) % lanes, *value);
                    }
                }); // dropped without an explicit flush on purpose
            }
        });
        let result = runtime.shutdown();
        prop_assert_eq!(result.snapshot, reference.snapshot(),
            "batched submission diverged for {} (batch {})", op, batch);
        prop_assert_eq!(result.report.updates, ops.len() as u64);
    }

    /// The migrating-delta interleavings again, but with capacity-bounded
    /// buffers so line switches constantly evict: coup==atomic equivalence
    /// must hold at capacity 1, 2, and a quarter of the store's lines, under
    /// both replacement policies and small flush thresholds (evictions and
    /// threshold migrations interleave).
    #[test]
    fn coup_equals_atomic_at_tiny_buffer_capacities(
        op in integer_op(),
        lanes in 1usize..64,
        capacity_pick in 0usize..3,
        threshold in 1u32..6,
        ops in prop::collection::vec((0usize..4, any::<u64>(), any::<u64>(), 0u32..10), 0..80),
    ) {
        let threads = 4;
        let atomic = AtomicBackend::new(op, lanes);
        let lines = atomic.store().num_lines();
        let capacity = [1, 2, (lines / 4).max(1)][capacity_pick];
        let coup = coup_backend(
            op,
            lanes,
            threads,
            threshold,
            BufferConfig::bounded(capacity),
        );
        for &(thread, lane_bits, value, kind) in &ops {
            let lane = (lane_bits as usize) % lanes;
            match kind {
                0 => prop_assert_eq!(
                    atomic.read(thread, lane),
                    coup.read(thread, lane),
                    "read mismatch for {} at lane {} (capacity {})",
                    op, lane, capacity
                ),
                1 => prop_assert_eq!(
                    atomic.update_read(thread, lane, value),
                    coup.update_read(thread, lane, value),
                    "update_read mismatch for {} at lane {} (capacity {})",
                    op, lane, capacity
                ),
                _ => {
                    atomic.update(thread, lane, value);
                    coup.update(thread, lane, value);
                }
            }
        }
        prop_assert_eq!(
            atomic.snapshot(), coup.snapshot(),
            "final state mismatch for {} (capacity {})", op, capacity
        );
    }
}

/// The acceptance matrix of the sparse buffers: genuinely multithreaded
/// contended runs end in exactly the sequential reference state at buffer
/// capacities 1, 2, 64, and unbounded — and the bounded capacities (smaller
/// than the store's 128 lines) actually exercise the eviction path.
#[test]
fn quiescent_equivalence_holds_across_buffer_capacities() {
    let op = CommutativeOp::AddU64;
    let producers = 4;
    let spec = ContendedSpec {
        lanes: 1024, // 128 store lines
        updates_per_thread: 20_000,
        reads_per_1000: 20,
        seed: 0xC0FFEE,
        theta: 0.0,
    };
    let want = expected_counts(&spec, producers, op);
    for capacity in [Some(1), Some(2), Some(64), None] {
        let config = BufferConfig {
            capacity_lines: capacity,
        };
        let coup = RuntimeBuilder::new(op, spec.lanes)
            .workers(4)
            .buffer_config(config)
            .build();
        let report = run_contended(&coup, producers, &spec);
        assert_eq!(
            coup.snapshot(),
            want,
            "capacity {capacity:?} diverged from the sequential reference"
        );
        // Bounded buffers over 128 lines evict, unbounded ones never do;
        // the counter is registry-backed, so 0 with telemetry compiled out.
        let evictions = report.metrics.buffer_stats.evictions;
        let evicts = capacity.is_some() && cfg!(feature = "telemetry");
        assert_eq!(evictions > 0, evicts, "capacity {capacity:?}: {evictions}");
    }
}

/// The same quiescent equivalence under a Zipf-skewed access stream (the
/// PR 3 follow-on): a bounded buffer under skew misses far less than under a
/// uniform scatter of the same width, because the hot head of the
/// distribution stays resident — the locality-friendly middle ground the
/// capacity sweep demonstrates. A miss is a slot claim or a bypass: uniform
/// traffic mostly fails admission and goes straight to the store instead of
/// evicting, so the eviction rate alone no longer tells the two apart.
#[test]
fn zipf_skew_matches_reference_and_cuts_eviction_pressure() {
    let op = CommutativeOp::AddU64;
    let producers = 4;
    let uniform = ContendedSpec {
        lanes: 1024, // 128 store lines
        updates_per_thread: 20_000,
        reads_per_1000: 0,
        seed: 0x5CA1E,
        theta: 0.0,
    };
    let skewed = uniform.zipf(0.99);
    let mut miss_shares = Vec::new();
    for spec in [uniform, skewed] {
        let coup = RuntimeBuilder::new(op, spec.lanes)
            .workers(2)
            .buffer_config(BufferConfig::bounded(16))
            .build();
        let report = run_contended(&coup, producers, &spec);
        assert_eq!(
            coup.snapshot(),
            expected_counts(&spec, producers, op),
            "theta {} diverged from the sequential reference",
            spec.theta
        );
        let stats = report.metrics.buffer_stats;
        let misses = stats.privatized + stats.admission_bypasses + stats.held_bypasses;
        miss_shares.push(misses as f64 / report.updates as f64);
    }
    // Registry-backed: compiled out, every miss share is 0.
    #[cfg(feature = "telemetry")]
    assert!(
        miss_shares[1] < miss_shares[0] / 2.0,
        "zipf(0.99) should at least halve the miss share of a 16-line \
         buffer over 128 lines: uniform {:.3} vs zipf {:.3}",
        miss_shares[0],
        miss_shares[1]
    );
}

/// No buffered update is lost on shutdown: producers fill batches only
/// partially (far below the batch capacity) and drop their handles without
/// ever calling `flush()`; `shutdown()` must still apply every update —
/// handle `Drop` enqueues the final partial batch and the closing queue
/// drains it before the workers flush and exit.
#[test]
fn dropped_unflushed_handles_lose_nothing_on_shutdown() {
    let producers = 8usize;
    let per_producer = 100usize;
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
        .workers(2)
        .batch_capacity(1 << 20) // no batch ever fills by size
        .build();
    std::thread::scope(|scope| {
        for _ in 0..producers {
            let mut counter = runtime.counter::<tag::Add64>();
            scope.spawn(move || {
                for i in 0..per_producer {
                    counter.add(i % 16, 1);
                }
                assert!(
                    counter.raw().lanes() == 16,
                    "handle stays usable to the end"
                );
            }); // no flush: Drop must publish the batch
        }
    });
    let result = runtime.shutdown();
    let want: Vec<u64> = (0..16)
        .map(|lane| (producers * (0..per_producer).filter(|i| i % 16 == lane).count()) as u64)
        .collect();
    assert_eq!(result.snapshot, want);
    assert_eq!(result.report.updates, (producers * per_producer) as u64);
}

/// Every executor agrees on every kernelized workload: the simulator under
/// both protocols and both lowerings, and the real-hardware runtime under
/// both backends. `execute` verifies against the kernel's sequential
/// reference, so five green runs mean five equal results.
#[test]
fn kernels_verify_under_every_executor() {
    let hist = HistWorkload::new(4_000, 64, HistScheme::Shared, 3);
    let pgrank = PageRankWorkload::new(300, 6, 2, 3);
    let refcount = ImmediateRefcount::new(24, 400, false, RefcountScheme::Coup, 3);
    let (hist_k, pgrank_k, refcount_k) = (hist.kernel(), pgrank.kernel(), refcount.kernel());
    let kernels: [&dyn UpdateKernel; 3] = [&hist_k, &pgrank_k, &refcount_k];
    for kernel in kernels {
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            coup_workloads::kernel::SimBackend::new(SystemConfig::test_system(4, protocol))
                .execute(kernel)
                .unwrap_or_else(|e| panic!("sim/{protocol}: {e}"));
        }
        coup_workloads::kernel::SimBackend::with_rmw(SystemConfig::test_system(
            4,
            ProtocolKind::Mesi,
        ))
        .execute(kernel)
        .unwrap_or_else(|e| panic!("sim/rmw: {e}"));
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            RuntimeBackend::new(kind, 4)
                .execute(kernel)
                .unwrap_or_else(|e| panic!("runtime/{kind:?}: {e}"));
        }
    }
}

/// Iteration multiplier for the concurrency stress tests: 1 normally, 8 when
/// `COUP_STRESS` is set (the CI release stress lane).
fn stress_factor() -> u64 {
    match std::env::var_os("COUP_STRESS") {
        Some(v) if v != "0" => 8,
        _ => 1,
    }
}

/// Port of the backend's `concurrent_reads_never_lose_migrating_deltas`
/// stress test to sub-word lane widths, where a migration that mishandled
/// its word masks could corrupt *neighbour lanes of the same 64-bit word* —
/// a failure mode that cannot exist at `AddU64`. Two writers hammer adjacent
/// lanes with flush threshold 1 (every update migrates buffer → store) while
/// six readers — most of the 8 workers' writer-bitmap bits stay cold —
/// verify that each counter is monotone, never overshoots, and that the
/// untouched neighbours stay zero.
#[test]
fn concurrent_subword_reads_never_lose_migrating_deltas() {
    for op in [CommutativeOp::AddU16, CommutativeOp::AddU32] {
        let threads = 8;
        // Keep the counters inside a u16 lane so "monotone" is meaningful.
        let updates = (12_000u64 * stress_factor()).min(60_000);
        // Lanes 0..4 share the first 64-bit word at AddU16 (0..2 at AddU32):
        // lanes 1 and 2 are hot, their word-neighbours 0 and 3 must stay 0.
        let coup = coup_backend(op, 8, threads, 1, BufferConfig::from_env());
        std::thread::scope(|scope| {
            let coup = &coup;
            for (writer, lane) in [(0usize, 1usize), (1, 2)] {
                scope.spawn(move || {
                    for _ in 0..updates {
                        coup.update(writer, lane, 1);
                    }
                });
            }
            for reader in 2..threads {
                scope.spawn(move || {
                    let mut last = [0u64; 2];
                    loop {
                        let mut done = true;
                        for (i, lane) in [1usize, 2].into_iter().enumerate() {
                            let now = coup.read(reader, lane);
                            assert!(
                                now >= last[i],
                                "{op:?} lane {lane} went backwards: {} -> {now}",
                                last[i]
                            );
                            assert!(now <= updates, "{op:?} lane {lane} overshot: {now}");
                            last[i] = now;
                            done &= now == updates;
                        }
                        assert_eq!(coup.read(reader, 0), 0, "{op:?} neighbour lane corrupted");
                        assert_eq!(coup.read(reader, 3), 0, "{op:?} neighbour lane corrupted");
                        if done {
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(coup.snapshot()[..4], [0, updates, updates, 0]);
        let cost = coup.metrics().read_cost;
        // Read cost is registry-backed: compiled out, the bound below is 0 <= 0.
        #[cfg(feature = "telemetry")]
        assert!(cost.reads > 0);
        assert!(
            cost.buffer_words <= (cost.reads + cost.retries) * 2,
            "{op:?}: each reduction pass must touch at most the two active \
             writers' buffers ({} buffer words over {} reads + {} retries)",
            cost.buffer_words,
            cost.reads,
            cost.retries
        );
    }
}

/// The bounded-footprint acceptance bar: pgrank over a ≥1M-line store (2²³
/// AddU64 lanes = 1,048,576 cache-line shards, a 64 MiB value array) runs on
/// `CoupBackend` with per-thread privatized buffer memory bounded by
/// `capacity_lines` — the exact regime where the old dense per-thread mirror
/// (threads × store bytes) was unaffordable and where the paper's U-state
/// evictions keep COUP viable on bounded caches. The run verifies against
/// the sequential reference (inside `execute`), reports its evictions, and
/// the per-thread buffer bytes are asserted identical to a store a thousand
/// times smaller.
///
/// This is the priciest test of the tier-1 suite (~25 s in debug: two RNG
/// passes over 8.4M edges, 11.7M streamed updates, an 8.4M-lane verifying
/// snapshot) — deliberately kept in the default run because the bounded
/// footprint at ≥1M lines is this PR's acceptance bar; the release stress
/// lanes re-run it in seconds.
#[test]
fn pgrank_on_a_million_line_store_stays_within_buffer_capacity() {
    let op = CommutativeOp::AddU64;
    let vertices = 1usize << 23;
    let threads = 4;
    let capacity = 64;
    let config = BufferConfig::bounded(capacity);

    let huge = coup_backend(op, vertices, threads, DEFAULT_FLUSH_THRESHOLD, config);
    assert!(
        huge.store().num_lines() >= 1 << 20,
        "store must span at least one million cache lines, got {}",
        huge.store().num_lines()
    );
    assert_eq!(huge.capacity_lines(), capacity);
    let tiny = coup_backend(op, 1 << 10, threads, DEFAULT_FLUSH_THRESHOLD, config);
    assert_eq!(
        huge.buffer_bytes_per_thread(),
        tiny.buffer_bytes_per_thread(),
        "per-thread buffer memory must depend on capacity_lines only, not store size"
    );
    // ~92 bytes of slot state per line of capacity plus fixed bookkeeping:
    // five orders of magnitude below the dense mirror's 64 MiB per thread.
    assert!(
        huge.buffer_bytes_per_thread() < 64 * 1024,
        "{} bytes/thread is not 'bounded by capacity_lines'",
        huge.buffer_bytes_per_thread()
    );
    drop((huge, tiny));

    let pgrank = PageRankWorkload::new(vertices, 1, 1, 7);
    let report = RuntimeBackend::new(RuntimeKind::Coup, threads)
        .with_buffer_config(config)
        .execute(&pgrank.kernel())
        .expect("million-line pgrank must verify against the sequential reference");
    assert_eq!(report.updates as usize, pgrank.edges());
    assert_eq!(
        report.metrics.buffer_stats.evictions > 0,
        cfg!(feature = "telemetry"),
        "a 64-line buffer scattering over a million lines must evict"
    );
}

/// The runtime honours program order within a worker job: a read immediately
/// after that worker's own update sees it (read-your-writes), and barriers
/// publish across workers.
#[test]
fn coup_runtime_jobs_read_their_own_writes_and_respect_barriers() {
    let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
        .workers(4)
        .build();
    runtime.run_workers(|ctx| {
        ctx.update(ctx.worker(), 7);
        assert_eq!(ctx.read(ctx.worker()), 7, "read-your-writes");
        ctx.barrier();
        // After the barrier every worker's lane holds its 7 (single writer
        // per lane, so the reduction over all buffers is exact).
        for w in 0..ctx.workers() {
            assert_eq!(ctx.read(w), 7, "cross-worker visibility after barrier");
        }
    });
    assert_eq!(runtime.snapshot(), vec![7, 7, 7, 7, 0, 0, 0, 0]);
}
