//! Reference-counting microbenchmarks (§5.4, Fig. 13).
//!
//! Two microbenchmarks compare COUP against software reference-counting
//! schemes:
//!
//! * **Immediate deallocation** (Fig. 13a/b): each thread performs a fixed
//!   number of increment and decrement-and-read operations over a set of
//!   shared counters, using either atomic fetch-and-add (`XADD`), COUP
//!   commutative adds plus a load for the zero check (`Coup`), or a simplified
//!   SNZI tree with one leaf per thread (`Snzi`). The *low count* variant keeps
//!   at most one reference per thread and object; the *high count* variant
//!   keeps up to five, which decontends the SNZI tree.
//! * **Delayed deallocation** (Fig. 13c): threads perform increments and
//!   decrements in epochs. The COUP implementation updates shared counters
//!   with commutative adds and marks them in a shared bitmap with commutative
//!   ORs; between epochs threads scan the marked counters and check for zero.
//!   The Refcache-like implementation buffers per-thread deltas in a private
//!   software cache and flushes them with atomics at the end of each epoch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use coup_protocol::ops::CommutativeOp;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::{BoxedProgram, ThreadOp, ThreadProgram};

use crate::kernel::{sim_programs, KernelProgram, KernelStep, KernelWorkload, UpdateKernel};
use crate::layout::{regions, ArrayLayout};
use crate::runner::Workload;

const ADD: CommutativeOp = CommutativeOp::AddU64;
const OR: CommutativeOp = CommutativeOp::Or64;
/// Maximum references a thread keeps per object in high-count mode.
const HIGH_COUNT_MAX: usize = 5;
/// Increment probabilities indexed by currently-held references (high count).
const HIGH_COUNT_INC_PROB: [f64; 6] = [1.0, 0.7, 0.5, 0.5, 0.3, 0.0];

/// Which reference-counting implementation the immediate-deallocation
/// microbenchmark simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefcountScheme {
    /// Atomic fetch-and-add, the conventional baseline.
    Xadd,
    /// COUP commutative adds; decrement-and-read issues an add then a load.
    Coup,
    /// Scalable Non-Zero Indicator: a per-object binary tree with one leaf per
    /// thread; updates propagate toward the root only on 0↔1 transitions.
    Snzi,
}

/// The immediate-deallocation microbenchmark.
#[derive(Debug, Clone)]
pub struct ImmediateRefcount {
    counters: usize,
    updates_per_thread: usize,
    high_count: bool,
    scheme: RefcountScheme,
    seed: u64,
    snzi_layout: ArrayLayout,
}

impl ImmediateRefcount {
    /// Builds the microbenchmark. The paper uses 1024 shared counters and one
    /// million updates per thread; tests and benches scale these down.
    #[must_use]
    pub fn new(
        counters: usize,
        updates_per_thread: usize,
        high_count: bool,
        scheme: RefcountScheme,
        seed: u64,
    ) -> Self {
        ImmediateRefcount {
            counters: counters.max(1),
            updates_per_thread,
            high_count,
            scheme,
            seed,
            snzi_layout: ArrayLayout::new(regions::SHARED_OUTPUT, 8),
        }
    }

    /// The scheme being simulated.
    #[must_use]
    pub fn scheme(&self) -> RefcountScheme {
        self.scheme
    }

    /// Generates thread `t`'s decision sequence: which counter it touches
    /// and whether it increments, for every operation. Decisions depend only
    /// on the thread's RNG and its locally-held reference counts, so they can
    /// be replayed on the host for verification.
    fn decisions(&self, thread: usize) -> impl Iterator<Item = (usize, bool)> + Send {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (thread as u64).wrapping_mul(0x9E37_79B9));
        let (counters, high_count) = (self.counters, self.high_count);
        let mut held = vec![0usize; counters];
        let max_held = if high_count { HIGH_COUNT_MAX } else { 1 };
        (0..self.updates_per_thread).map(move |_| {
            let c = rng.gen_range(0..counters);
            let inc = if high_count {
                rng.gen_bool(HIGH_COUNT_INC_PROB[held[c].min(HIGH_COUNT_MAX)])
            } else {
                held[c] == 0
            };
            if inc && held[c] < max_held {
                held[c] += 1;
                (c, true)
            } else if held[c] > 0 {
                held[c] -= 1;
                (c, false)
            } else {
                held[c] += 1;
                (c, true)
            }
        })
    }

    /// Expected final value of every counter (sum of references still held by
    /// all threads).
    fn expected_counts(&self, threads: usize) -> Vec<i64> {
        let mut totals = vec![0i64; self.counters];
        for t in 0..threads {
            for (c, inc) in self.decisions(t) {
                totals[c] += if inc { 1 } else { -1 };
            }
        }
        totals
    }

    /// Thread `thread`'s place in the per-counter SNZI trees: heap-ordered
    /// binary trees with one leaf per thread.
    fn snzi(&self, thread: usize, threads: usize) -> SnziGeometry {
        let leaves = threads.next_power_of_two();
        SnziGeometry {
            layout: self.snzi_layout,
            leaf: leaves - 1 + thread,
            nodes: 2 * leaves - 1,
        }
    }

    /// The XADD/COUP flat-counter variants as a backend-neutral
    /// [`UpdateKernel`]: increments are plain updates, decrements are
    /// update-and-reads (the zero check). The executor decides how updates
    /// are realised — COUP commutative updates or conventional atomics in the
    /// simulator, privatized buffers or atomic RMWs on real hardware. The
    /// SNZI tree stays a bespoke simulator program (its propagation is
    /// data-dependent, not a flat commutative update stream).
    #[must_use]
    pub fn kernel(&self) -> ImmediateKernel<'_> {
        ImmediateKernel { workload: self }
    }
}

/// The flat-counter kernel of an [`ImmediateRefcount`].
#[derive(Debug, Clone, Copy)]
pub struct ImmediateKernel<'a> {
    workload: &'a ImmediateRefcount,
}

impl<'a> UpdateKernel<'a> for ImmediateKernel<'a> {
    fn name(&self) -> &'static str {
        "refcount-immediate"
    }

    fn op(&self) -> CommutativeOp {
        ADD
    }

    fn slots(&self) -> usize {
        self.workload.counters
    }

    fn output_region(&self) -> u64 {
        // Keep the historical address region so simulated timings stay
        // comparable with the pre-kernel implementation.
        regions::COUNTERS
    }

    fn program(&self, thread: usize, _threads: usize) -> Box<dyn KernelProgram + 'a> {
        Box::new(self.workload.decisions(thread).map(|(counter, inc)| {
            if inc {
                KernelStep::Update {
                    slot: counter,
                    value: 1,
                }
            } else {
                // Decrement-and-read: the deallocation zero check.
                KernelStep::UpdateRead {
                    slot: counter,
                    value: (-1i64) as u64,
                }
            }
        }))
    }

    fn expected(&self, threads: usize) -> Vec<u64> {
        // Counts are non-negative at quiescence, but go through two's
        // complement on the way (wrapping adds of -1).
        self.workload
            .expected_counts(threads)
            .into_iter()
            .map(|c| c as u64)
            .collect()
    }
}

impl Workload for ImmediateRefcount {
    fn name(&self) -> &'static str {
        "refcount-immediate"
    }

    fn commutative_op(&self) -> CommutativeOp {
        ADD
    }

    fn init(&self, _mem: &mut MemorySystem) {
        // Counters and SNZI nodes start at zero.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        // The flat-counter schemes *are* the kernel, lowered either as COUP
        // commutative updates or as conventional RMWs; one definition drives
        // the simulator (here) and the real-hardware runtime. SNZI keeps its
        // bespoke data-dependent program below.
        match self.scheme {
            RefcountScheme::Coup => return sim_programs(&self.kernel(), threads, false),
            RefcountScheme::Xadd => return sim_programs(&self.kernel(), threads, true),
            RefcountScheme::Snzi => {}
        }
        (0..threads)
            .map(|t| {
                Box::new(SnziProgram {
                    decisions: self.decisions(t),
                    pending: Vec::new(),
                    snzi: self.snzi(t, threads),
                }) as BoxedProgram<'_>
            })
            .collect()
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        if self.scheme != RefcountScheme::Snzi {
            return KernelWorkload::new(&self.kernel()).verify(mem, threads);
        }
        for (c, &want) in self.expected_counts(threads).iter().enumerate() {
            // The true count is the sum of the leaves.
            let got: i64 = (0..threads)
                .map(|t| {
                    let tree = self.snzi(t, threads);
                    mem.peek(tree.node_addr(c, tree.leaf)) as i64
                })
                .sum();
            if got != want {
                return Err(format!("counter {c}: got {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct SnziGeometry {
    layout: ArrayLayout,
    leaf: usize,
    nodes: usize,
}

impl SnziGeometry {
    fn node_addr(&self, counter: usize, node: usize) -> u64 {
        self.layout.addr(counter * self.nodes + node)
    }
}

/// Per-thread state machine for the SNZI scheme of the
/// immediate-deallocation microbenchmark (the flat-counter schemes lower
/// through [`ImmediateKernel`] instead).
struct SnziProgram<D> {
    decisions: D,
    /// Operations queued by the previous step (propagation decided after
    /// seeing an RMW's return value, or a root zero-check load).
    pending: Vec<PendingOp>,
    snzi: SnziGeometry,
}

#[derive(Debug, Clone, Copy)]
enum PendingOp {
    /// Emit this operation unconditionally.
    Emit(ThreadOp),
    /// SNZI: if the previous RMW's old value was `trigger`, propagate `delta`
    /// to the parent node of `node` for `counter` (and keep propagating).
    SnziPropagate {
        counter: usize,
        node: usize,
        delta: i64,
        trigger: u64,
    },
}

impl<D> SnziProgram<D> {
    fn emit_update(&mut self, counter: usize, inc: bool) -> ThreadOp {
        let delta_bits = if inc { 1u64 } else { (-1i64) as u64 };
        let node = self.snzi.leaf;
        let delta = if inc { 1i64 } else { -1i64 };
        // After the leaf RMW we may need to propagate: an increment
        // whose old value was 0, or a decrement whose old value was 1.
        let trigger = if inc { 0 } else { 1 };
        self.pending.push(PendingOp::SnziPropagate {
            counter,
            node,
            delta,
            trigger,
        });
        if !inc {
            // Readers check the root for zero.
            self.pending.push(PendingOp::Emit(ThreadOp::Load {
                addr: self.snzi.node_addr(counter, 0),
            }));
        }
        ThreadOp::AtomicRmw {
            addr: self.snzi.node_addr(counter, node),
            op: ADD,
            value: delta_bits,
        }
    }
}

impl<D: Iterator<Item = (usize, bool)>> ThreadProgram for SnziProgram<D> {
    fn next(&mut self, last_value: Option<u64>) -> ThreadOp {
        // Handle queued operations first (propagation, zero checks).
        while let Some(p) = self.pending.first().copied() {
            match p {
                PendingOp::Emit(op) => {
                    self.pending.remove(0);
                    return op;
                }
                PendingOp::SnziPropagate {
                    counter,
                    node,
                    delta,
                    trigger,
                } => {
                    self.pending.remove(0);
                    let old = last_value.unwrap_or(u64::MAX);
                    if old == trigger && node != 0 {
                        let parent = (node - 1) / 2;
                        // Propagate to the parent and possibly further up.
                        self.pending.insert(
                            0,
                            PendingOp::SnziPropagate {
                                counter,
                                node: parent,
                                delta,
                                trigger,
                            },
                        );
                        return ThreadOp::AtomicRmw {
                            addr: self.snzi.node_addr(counter, parent),
                            op: ADD,
                            value: delta as u64,
                        };
                    }
                    // No propagation needed; fall through to the next decision.
                }
            }
        }
        let Some((counter, inc)) = self.decisions.next() else {
            return ThreadOp::Done;
        };
        self.emit_update(counter, inc)
    }
}

// ---------------------------------------------------------------------------
// Delayed deallocation (Fig. 13c)
// ---------------------------------------------------------------------------

/// Which delayed-deallocation implementation to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayedScheme {
    /// COUP: commutative adds to shared counters plus a commutative-OR
    /// "modified" bitmap; epochs end with a scan of the marked counters.
    CoupBitmap,
    /// Refcache: per-thread software cache of deltas flushed with atomics at
    /// the end of each epoch.
    Refcache,
}

/// The delayed-deallocation microbenchmark.
#[derive(Debug, Clone)]
pub struct DelayedRefcount {
    counters: usize,
    epochs: usize,
    updates_per_epoch: usize,
    scheme: DelayedScheme,
    seed: u64,
    counter_layout: ArrayLayout,
    bitmap: ArrayLayout,
}

impl DelayedRefcount {
    /// Builds the microbenchmark. The paper uses 100,000 counters, 128 threads
    /// and 1–1000 updates per epoch per thread.
    #[must_use]
    pub fn new(
        counters: usize,
        epochs: usize,
        updates_per_epoch: usize,
        scheme: DelayedScheme,
        seed: u64,
    ) -> Self {
        DelayedRefcount {
            counters: counters.max(1),
            epochs: epochs.max(1),
            updates_per_epoch: updates_per_epoch.max(1),
            scheme,
            seed,
            counter_layout: ArrayLayout::new(regions::COUNTERS, 8),
            bitmap: ArrayLayout::new(regions::BITMAP, 8),
        }
    }

    /// The scheme being simulated.
    #[must_use]
    pub fn scheme(&self) -> DelayedScheme {
        self.scheme
    }

    /// Replays thread `t`'s (counter, delta) decisions for every epoch.
    fn decisions(&self, thread: usize) -> Vec<Vec<(usize, i64)>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (thread as u64).wrapping_mul(0x51_7C_C1));
        (0..self.epochs)
            .map(|_| {
                (0..self.updates_per_epoch)
                    .map(|_| {
                        let c = rng.gen_range(0..self.counters);
                        let delta = if rng.gen_bool(0.5) { 1 } else { -1 };
                        (c, delta)
                    })
                    .collect()
            })
            .collect()
    }

    fn expected_counts(&self, threads: usize) -> Vec<i64> {
        let mut totals = vec![0i64; self.counters];
        for t in 0..threads {
            for epoch in self.decisions(t) {
                for (c, d) in epoch {
                    totals[c] += d;
                }
            }
        }
        totals
    }

    /// The epoch scheme as a backend-neutral multi-phase [`UpdateKernel`]:
    /// the definition both the simulator and the real-hardware runtime
    /// execute. See [`DelayedKernel`].
    #[must_use]
    pub fn kernel(&self) -> DelayedKernel<'_> {
        DelayedKernel { workload: self }
    }
}

/// The delayed-deallocation epoch kernel of a [`DelayedRefcount`] — the
/// repo's first multi-phase kernel. Each epoch runs in two
/// barrier-separated phases:
///
/// 1. **Mutate** — the thread applies its epoch's increments and decrements
///    as plain commutative adds, never reading (the whole point of delayed
///    reclamation: no decrement-and-test on the hot path).
/// 2. **Scan (epoch advance)** — after a barrier closes the epoch, the
///    thread re-reads every counter it touched, performing the deferred zero
///    checks while no update is in flight; a second barrier keeps the next
///    epoch's updates from racing the scans.
///
/// At an epoch boundary the counter values are deterministic (every update
/// of every thread through that epoch is applied, and adds commute), which
/// is exactly why deferring the zero check to the boundary makes it sound —
/// the property the epoch-invariant stress test pins down.
#[derive(Debug, Clone, Copy)]
pub struct DelayedKernel<'a> {
    workload: &'a DelayedRefcount,
}

impl<'a> UpdateKernel<'a> for DelayedKernel<'a> {
    fn name(&self) -> &'static str {
        "refcount-delayed"
    }

    fn op(&self) -> CommutativeOp {
        ADD
    }

    fn slots(&self) -> usize {
        self.workload.counters
    }

    fn output_region(&self) -> u64 {
        // Keep the historical counter region so simulated timings stay
        // comparable with the bespoke scheme programs.
        regions::COUNTERS
    }

    fn program(&self, thread: usize, _threads: usize) -> Box<dyn KernelProgram + 'a> {
        Box::new(
            self.workload
                .decisions(thread)
                .into_iter()
                .flat_map(|epoch| {
                    let mut marked: Vec<usize> = epoch.iter().map(|&(c, _)| c).collect();
                    marked.sort_unstable();
                    marked.dedup();
                    // Mutate phase: buffered adds only.
                    let mutate = epoch.into_iter().map(|(c, d)| KernelStep::Update {
                        slot: c,
                        value: d as u64,
                    });
                    // Scan phase: deferred zero checks of the counters this thread
                    // marked, each followed by the reclamation decision's compute.
                    let scan = marked
                        .into_iter()
                        .flat_map(|c| [KernelStep::Read { slot: c }, KernelStep::Compute(2)]);
                    // Epoch boundary: every thread's epoch updates are applied; epoch
                    // advance: scans complete before the next epoch mutates.
                    mutate
                        .chain([KernelStep::Barrier])
                        .chain(scan)
                        .chain([KernelStep::Barrier])
                }),
        )
    }

    fn expected(&self, threads: usize) -> Vec<u64> {
        // Counts may dip negative mid-stream and settle anywhere; two's
        // complement wrapping makes the comparison exact either way.
        self.workload
            .expected_counts(threads)
            .into_iter()
            .map(|c| c as u64)
            .collect()
    }
}

impl Workload for DelayedRefcount {
    fn name(&self) -> &'static str {
        "refcount-delayed"
    }

    fn commutative_op(&self) -> CommutativeOp {
        ADD
    }

    fn init(&self, _mem: &mut MemorySystem) {}

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        (0..threads)
            .map(|t| {
                let mut ops = Vec::new();
                for epoch in self.decisions(t) {
                    match self.scheme {
                        DelayedScheme::CoupBitmap => {
                            let mut marked = Vec::new();
                            for (c, d) in &epoch {
                                ops.push(ThreadOp::CommutativeUpdate {
                                    addr: self.counter_layout.addr(*c),
                                    op: ADD,
                                    value: *d as u64,
                                });
                                ops.push(ThreadOp::CommutativeUpdate {
                                    addr: self.bitmap.addr(c / 64),
                                    op: OR,
                                    value: 1u64 << (c % 64),
                                });
                                marked.push(*c);
                            }
                            // End of epoch: check the counters this thread marked.
                            ops.push(ThreadOp::Barrier);
                            marked.sort_unstable();
                            marked.dedup();
                            for c in marked {
                                ops.push(ThreadOp::Load {
                                    addr: self.counter_layout.addr(c),
                                });
                                ops.push(ThreadOp::Compute(2));
                            }
                            ops.push(ThreadOp::Barrier);
                        }
                        DelayedScheme::Refcache => {
                            // Per-thread software cache: a private delta table.
                            let cache = self.counter_layout.private_copy_for_thread(t);
                            let mut touched = Vec::new();
                            for (c, d) in &epoch {
                                // Hash lookup + delta update in the private cache.
                                ops.push(ThreadOp::Compute(4));
                                ops.push(ThreadOp::Load {
                                    addr: cache.addr(*c),
                                });
                                ops.push(ThreadOp::Store {
                                    addr: cache.addr(*c),
                                    value: *d as u64,
                                });
                                touched.push((*c, *d));
                            }
                            // Flush: one atomic per distinct counter, then check.
                            ops.push(ThreadOp::Barrier);
                            touched.sort_unstable_by_key(|&(c, _)| c);
                            let mut i = 0;
                            while i < touched.len() {
                                let c = touched[i].0;
                                let mut delta = 0i64;
                                while i < touched.len() && touched[i].0 == c {
                                    delta += touched[i].1;
                                    i += 1;
                                }
                                ops.push(ThreadOp::AtomicRmw {
                                    addr: self.counter_layout.addr(c),
                                    op: ADD,
                                    value: delta as u64,
                                });
                                ops.push(ThreadOp::Compute(2));
                            }
                            ops.push(ThreadOp::Barrier);
                        }
                    }
                }
                ops.push(ThreadOp::Done);
                Box::new(coup_sim::op::ScriptedProgram::new(ops)) as BoxedProgram<'_>
            })
            .collect()
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        KernelWorkload::new(&self.kernel()).verify(mem, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload;
    use coup_protocol::state::ProtocolKind;
    use coup_sim::config::SystemConfig;

    #[test]
    fn xadd_and_coup_schemes_verify() {
        for (scheme, protocol) in [
            (RefcountScheme::Xadd, ProtocolKind::Mesi),
            (RefcountScheme::Coup, ProtocolKind::Meusi),
        ] {
            let w = ImmediateRefcount::new(16, 200, false, scheme, 7);
            let cfg = SystemConfig::test_system(4, protocol);
            run_workload(cfg, &w).unwrap_or_else(|e| panic!("{scheme:?} failed: {e}"));
        }
    }

    #[test]
    fn snzi_scheme_verifies_low_and_high_count() {
        for high in [false, true] {
            let w = ImmediateRefcount::new(8, 150, high, RefcountScheme::Snzi, 11);
            let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
            run_workload(cfg, &w)
                .unwrap_or_else(|e| panic!("SNZI (high_count={high}) failed: {e}"));
        }
    }

    #[test]
    fn coup_beats_xadd_on_contended_counters() {
        // Few counters + many threads = heavy contention, where COUP wins.
        let cfg = SystemConfig::test_system(8, ProtocolKind::Meusi);
        let coup = run_workload(
            cfg,
            &ImmediateRefcount::new(4, 150, false, RefcountScheme::Coup, 3),
        )
        .expect("coup");
        let xadd = run_workload(
            cfg.with_protocol(ProtocolKind::Mesi),
            &ImmediateRefcount::new(4, 150, false, RefcountScheme::Xadd, 3),
        )
        .expect("xadd");
        assert!(
            coup.cycles < xadd.cycles,
            "COUP ({}) should beat XADD ({}) under contention",
            coup.cycles,
            xadd.cycles
        );
    }

    #[test]
    fn delayed_schemes_verify() {
        for (scheme, protocol) in [
            (DelayedScheme::CoupBitmap, ProtocolKind::Meusi),
            (DelayedScheme::Refcache, ProtocolKind::Mesi),
        ] {
            let w = DelayedRefcount::new(64, 2, 50, scheme, 9);
            let cfg = SystemConfig::test_system(4, protocol);
            run_workload(cfg, &w).unwrap_or_else(|e| panic!("{scheme:?} failed: {e}"));
        }
    }

    #[test]
    fn delayed_kernel_verifies_on_every_executor() {
        use crate::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, SimBackend};
        let w = DelayedRefcount::new(32, 3, 40, DelayedScheme::CoupBitmap, 13);
        let kernel = w.kernel();
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            SimBackend::new(SystemConfig::test_system(4, protocol))
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("sim/{protocol}: {e}"));
        }
        SimBackend::with_rmw(SystemConfig::test_system(4, ProtocolKind::Mesi))
            .execute(&kernel)
            .expect("sim/rmw");
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let report = RuntimeBackend::new(kind, 4)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("runtime/{kind:?}: {e}"));
            // 4 threads × 3 epochs × 40 updates, plus one scan read per
            // distinct counter a thread marked per epoch.
            assert_eq!(report.updates, 4 * 3 * 40, "{kind:?}");
            assert!(report.reads > 0, "{kind:?}: the scan phase reads");
        }
    }

    #[test]
    fn immediate_steps_count_what_execute_reports() {
        // The premise of a benchmark oracle that counts `steps` instead of
        // trusting the executor's report.
        use crate::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind};
        let w = ImmediateRefcount::new(8, 300, true, RefcountScheme::Coup, 4);
        let kernel = w.kernel();
        let steps: Vec<KernelStep> = (0..3).flat_map(|t| kernel.steps(t, 3)).collect();
        let reads = steps
            .iter()
            .filter(|s| matches!(s, KernelStep::UpdateRead { .. }))
            .count() as u64;
        let updates = reads
            + steps
                .iter()
                .filter(|s| matches!(s, KernelStep::Update { .. }))
                .count() as u64;
        assert_eq!(updates, 3 * 300);
        assert!(reads > 0);
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let report = RuntimeBackend::new(kind, 3).execute(&kernel).unwrap();
            assert_eq!((report.updates, report.reads), (updates, reads), "{kind:?}");
        }
    }

    #[test]
    fn delayed_kernel_epochs_are_barrier_separated() {
        let w = DelayedRefcount::new(16, 2, 10, DelayedScheme::CoupBitmap, 5);
        let kernel = w.kernel();
        let steps = kernel.steps(0, 4);
        let barriers = steps
            .iter()
            .filter(|s| matches!(s, KernelStep::Barrier))
            .count();
        assert_eq!(barriers, 2 * 2, "two barriers per epoch");
        // The scan of an epoch sits strictly between its two barriers.
        let first_barrier = steps
            .iter()
            .position(|s| matches!(s, KernelStep::Barrier))
            .unwrap();
        assert!(
            steps[..first_barrier]
                .iter()
                .all(|s| matches!(s, KernelStep::Update { .. })),
            "the mutate phase never reads"
        );
        let second_barrier = first_barrier
            + 1
            + steps[first_barrier + 1..]
                .iter()
                .position(|s| matches!(s, KernelStep::Barrier))
                .unwrap();
        assert!(
            steps[first_barrier + 1..second_barrier]
                .iter()
                .all(|s| matches!(s, KernelStep::Read { .. } | KernelStep::Compute(_))),
            "the scan phase never mutates"
        );
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let w = ImmediateRefcount::new(8, 50, true, RefcountScheme::Coup, 42);
        assert!(w.decisions(1).eq(w.decisions(1)));
        assert!(!w.decisions(1).eq(w.decisions(2)));
        assert_eq!(w.scheme(), RefcountScheme::Coup);
        let d = DelayedRefcount::new(16, 2, 10, DelayedScheme::Refcache, 1);
        assert_eq!(d.decisions(0), d.decisions(0));
        assert_eq!(d.scheme(), DelayedScheme::Refcache);
    }
}
