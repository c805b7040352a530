//! The real-hardware equivalence battery for the kernelized update-rich
//! workloads (`spmv`, `bfs`, delayed `refcount`):
//!
//! * **spmv** — coup==atomic AddF64 equivalence under the kernel's relative
//!   tolerance, across worker counts {1, 2, 4, 8}, buffer capacities
//!   {2, 64, unbounded}, and both eviction policies — the floating-point
//!   analogue of `batched_handle_submission_equals_atomic`, where bit-exact
//!   equality is replaced by a per-lane error bound because f64 addition
//!   does not associate.
//! * **bfs** — distances derived from the *executed* bitmap reads match a
//!   sequential reference BFS exactly, for both backends, uneven thread
//!   counts, and under capacity-2 eviction pressure: OR-accumulation between
//!   barriers is deterministic, so the level structure must be too.
//! * **delayed refcount** — the epoch invariant: at an epoch boundary every
//!   counter holds exactly the references still held, so a deferred zero
//!   check can never observe an object as freed while live references
//!   remain. Stressed with concurrent producers across epoch boundaries,
//!   scaled up under `COUP_STRESS=1` (the CI release stress lane).
//! * the full executor matrix (simulator under MESI, MEUSI, and RMW
//!   lowering; runtime under atomic and coup) for all three new kernels,
//!   from the single `UpdateKernel` definition each workload exposes.

use proptest::prelude::*;

use coup_protocol::ops::CommutativeOp;
use coup_protocol::state::ProtocolKind;
use coup_runtime::{BackendKind, BufferConfig, RuntimeBuilder};
use coup_sim::config::SystemConfig;
use coup_workloads::bfs::BfsWorkload;
use coup_workloads::kernel::{
    ExecutionBackend, RuntimeBackend, RuntimeKind, SimBackend, Tolerance, UpdateKernel,
};
use coup_workloads::refcount::{DelayedRefcount, DelayedScheme};
use coup_workloads::runner::compare_runtime_backends;
use coup_workloads::spmv::{SpmvWorkload, SPMV_TOLERANCE};

proptest! {
    /// The float analogue of `batched_handle_submission_equals_atomic`: for
    /// random matrices, worker counts, and buffer configurations, the coup
    /// runtime's spmv snapshot equals the atomic baseline's lane for lane
    /// within (twice) the kernel tolerance — each run having already
    /// verified against the sequential reference inside `execute`.
    #[test]
    fn spmv_coup_equals_atomic_under_tolerance(
        n in 20usize..70,
        nnz_per_col in 1usize..6,
        seed: u64,
        workers_pick in 0usize..4,
        capacity_pick in 0usize..3,
    ) {
        let workers = [1usize, 2, 4, 8][workers_pick];
        let capacity = [Some(2usize), Some(64), None][capacity_pick];
        let config = match capacity {
            Some(lines) => BufferConfig::bounded(lines),
            None => BufferConfig::unbounded(),
        };
        let workload = SpmvWorkload::new(n, nnz_per_col, seed);
        let kernel = workload.kernel();
        let (_, atomic) = RuntimeBackend::new(RuntimeKind::Atomic, workers)
            .execute_with_snapshot(&kernel)
            .unwrap_or_else(|e| panic!("atomic: {e}"));
        let (_, coup) = RuntimeBackend::new(RuntimeKind::Coup, workers)
            .with_buffer_config(config)
            .execute_with_snapshot(&kernel)
            .unwrap_or_else(|e| panic!("coup ({workers} workers, capacity {capacity:?}): {e}"));
        // Each snapshot is within SPMV_TOLERANCE of the same reference, so
        // they are within twice that of each other.
        let cross = Tolerance::RelativeF64 {
            rel: 2.0 * SPMV_TOLERANCE,
            abs: 2.0 * SPMV_TOLERANCE,
        };
        for (row, (&a, &c)) in atomic.iter().zip(coup.iter()).enumerate() {
            if let Some(mismatch) = cross.mismatch(c, a) {
                panic!(
                    "y[{row}] diverges between backends ({workers} workers, \
                     capacity {capacity:?}): coup {mismatch}"
                );
            }
        }
    }

    /// BFS distances derived from executed reads equal the sequential
    /// reference exactly, for both backends and uneven thread counts,
    /// including under capacity-2 eviction pressure (`squeeze`).
    #[test]
    fn bfs_distances_match_sequential_reference(
        vertices in 40usize..220,
        degree in 1usize..6,
        seed: u64,
        threads_pick in 0usize..5,
        squeeze in any::<bool>(),
    ) {
        let threads = [1usize, 2, 3, 5, 8][threads_pick];
        let workload = BfsWorkload::new(vertices, degree, seed);
        let kernel = workload.kernel();
        let reference = workload.reference_distances();
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let mut backend = RuntimeBackend::new(kind, threads);
            if squeeze {
                backend = backend.with_buffer_config(BufferConfig::bounded(2));
            }
            backend
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let got = kernel
                .take_observed_distances()
                .expect("thread 0 records the derived levels");
            prop_assert_eq!(
                &got, &reference,
                "distances diverged on {:?} ({} threads, squeeze {})",
                kind, threads, squeeze
            );
        }
    }
}

/// Iteration multiplier for the stress tests: 1 normally, 8 when
/// `COUP_STRESS` is set (the CI release stress lane).
fn stress_factor() -> usize {
    match std::env::var_os("COUP_STRESS") {
        Some(v) if v != "0" => 8,
        _ => 1,
    }
}

/// Held-aware reference-count decisions: thread `t` increments freely but
/// only ever decrements references it still holds, so the true count of
/// every counter is non-negative at every instant and *exactly* the sum of
/// held references at every epoch boundary.
struct HeldAwareDecisions {
    /// `ops[t][e]` = the (counter, ±1) stream thread `t` applies in epoch `e`.
    ops: Vec<Vec<Vec<(usize, i64)>>>,
    /// `expected[e][c]` = counter `c`'s exact value at the end of epoch `e`.
    expected: Vec<Vec<i64>>,
}

impl HeldAwareDecisions {
    fn generate(threads: usize, counters: usize, epochs: usize, per_epoch: usize) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut ops = Vec::with_capacity(threads);
        for t in 0..threads {
            let mut rng = StdRng::seed_from_u64(0xEF0C_0000 ^ t as u64);
            let mut held = vec![0i64; counters];
            let mut per_thread = Vec::with_capacity(epochs);
            for _ in 0..epochs {
                let mut epoch = Vec::with_capacity(per_epoch);
                for _ in 0..per_epoch {
                    let c = rng.gen_range(0..counters);
                    let dec = held[c] > 0 && rng.gen_bool(0.55);
                    let d = if dec { -1 } else { 1 };
                    held[c] += d;
                    epoch.push((c, d));
                }
                per_thread.push(epoch);
            }
            ops.push(per_thread);
        }
        // Exact boundary values: the running sum over all threads' epochs.
        let mut totals = vec![0i64; counters];
        let mut expected = Vec::with_capacity(epochs);
        for e in 0..epochs {
            for thread_ops in &ops {
                for &(c, d) in &thread_ops[e] {
                    totals[c] += d;
                }
            }
            expected.push(totals.clone());
        }
        HeldAwareDecisions { ops, expected }
    }
}

/// The delayed-deallocation epoch invariant under genuine concurrency: with
/// inc/dec producers racing inside each epoch and a barrier closing it, a
/// deferred zero check at the boundary observes *exactly* the outstanding
/// reference count — in particular, never zero while live references remain
/// (which is what makes reclaiming at the boundary sound) and never a stale
/// non-zero after the last reference is dropped.
#[test]
fn delayed_refcount_epoch_boundary_never_frees_live_objects() {
    let threads = 4;
    let counters = 24;
    let epochs = 4 * stress_factor();
    let per_epoch = 150 * stress_factor();
    let plan = HeldAwareDecisions::generate(threads, counters, epochs, per_epoch);
    for kind in [BackendKind::Atomic, BackendKind::Coup] {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, counters)
            .backend(kind)
            .workers(threads)
            .build();
        let plan = &plan;
        runtime.run_workers(|ctx| {
            let t = ctx.worker();
            for e in 0..epochs {
                let epoch = &plan.ops[t][e];
                for &(c, d) in epoch {
                    ctx.update(c, d as u64);
                }
                // Epoch boundary: all threads' epoch-e updates are applied.
                ctx.barrier();
                let mut marked: Vec<usize> = epoch.iter().map(|&(c, _)| c).collect();
                marked.sort_unstable();
                marked.dedup();
                for c in marked {
                    let got = ctx.read(c) as i64;
                    let live = plan.expected[e][c];
                    assert!(
                        !(got == 0 && live > 0),
                        "{kind:?}: epoch {e} scan observed counter {c} freed \
                         while {live} references remain"
                    );
                    assert_eq!(
                        got, live,
                        "{kind:?}: epoch {e} boundary value of counter {c} \
                         is not the outstanding reference count"
                    );
                }
                // Epoch advance: scans finish before the next epoch mutates.
                ctx.barrier();
            }
        });
        // Quiescent cross-check: the final state matches the last boundary.
        let want: Vec<u64> = plan.expected[epochs - 1]
            .iter()
            .map(|&c| c as u64)
            .collect();
        assert_eq!(runtime.shutdown().snapshot, want, "{kind:?}");
    }
}

/// Every executor agrees on every *new* kernel — the acceptance matrix of
/// the kernelization: the simulator under both protocols and the RMW
/// lowering, and the real-hardware runtime under both backends, all from the
/// single `UpdateKernel` definition each workload exposes. `execute`
/// verifies against the kernel's sequential reference (under the kernel's
/// tolerance), so green runs mean equal results.
#[test]
fn new_kernels_verify_under_every_executor() {
    let spmv = SpmvWorkload::new(120, 5, 17);
    let bfs = BfsWorkload::new(260, 5, 17);
    let delayed = DelayedRefcount::new(32, 3, 60, DelayedScheme::CoupBitmap, 17);
    let (spmv_k, bfs_k, delayed_k) = (spmv.kernel(), bfs.kernel(), delayed.kernel());
    // Whether two runs of a kernel issue the same number of updates: a
    // kernel whose steps do not depend on its reads does, but bfs does not
    // (two workers racing the same check-then-set both issue the update).
    let kernels: [(&dyn UpdateKernel, bool); 3] =
        [(&spmv_k, true), (&bfs_k, false), (&delayed_k, true)];
    for (kernel, counts_comparable) in kernels {
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            SimBackend::new(SystemConfig::test_system(4, protocol))
                .execute(kernel)
                .unwrap_or_else(|e| panic!("sim/{protocol}: {e}"));
        }
        SimBackend::with_rmw(SystemConfig::test_system(4, ProtocolKind::Mesi))
            .execute(kernel)
            .unwrap_or_else(|e| panic!("sim/rmw: {e}"));
        let (atomic, coup) =
            compare_runtime_backends(kernel, 4).unwrap_or_else(|e| panic!("runtime: {e}"));
        if counts_comparable {
            assert_eq!(atomic.updates, coup.updates, "{}", kernel.name());
        }
        assert!(
            atomic.mops() > 0.0 && coup.mops() > 0.0,
            "{}",
            kernel.name()
        );
    }
}
