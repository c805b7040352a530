//! Backend-neutral workload kernels.
//!
//! A [`UpdateKernel`] describes a workload's scattered-update phase
//! abstractly: a per-thread program of [`KernelStep`]s over a logical array of
//! `slots` lanes, plus the sequential reference result. The *same* kernel
//! then drives two very different executors through [`ExecutionBackend`]:
//!
//! * [`SimBackend`] lowers the steps onto the timing simulator's
//!   [`ThreadOp`]s (with the workload's historical address layout, so cycle
//!   numbers are directly comparable with the pre-kernel code), runs them on
//!   a simulated machine, and verifies the result in simulated memory.
//! * [`RuntimeBackend`] executes the steps as a worker job on a
//!   `coup-runtime` [`CoupRuntime`](coup_runtime::CoupRuntime) — the
//!   conventional atomic baseline or the software-COUP privatized buffers —
//!   and verifies the shutdown snapshot.
//!
//! `hist` (shared scheme), `pgrank`, `spmv`, `bfs`, and `refcount`
//! (immediate XADD/COUP schemes, and the delayed epoch scheme) define
//! kernels; their legacy [`Workload`] implementations lower through
//! [`sim_programs`], so the simulator path and the real-hardware path
//! execute one definition of each workload.
//!
//! A kernel's work has one shape, [`UpdateKernel::program`]: a
//! [`KernelProgram`] that yields the thread's next step, given the value the
//! previous read returned. A kernel whose script is fixed by
//! `(thread, threads)` returns an `Iterator<Item = KernelStep>`, which is a
//! program that ignores that value: hist, pgrank and spmv stream straight
//! from their input arrays, and delayed refcount separates its epochs'
//! update and scan phases with [`KernelStep::Barrier`]s. A kernel whose
//! control flow depends on what it reads keeps a state machine of its own:
//! level-synchronous BFS derives every level's frontier from bitmap words
//! read between two barriers, where no update can be in flight. Each
//! executor therefore has one driver loop, and `KernelLayouts::lower` is
//! the one `KernelStep` → `ThreadOp` match.
//!
//! Verification is pluggable per kernel ([`UpdateKernel::tolerance`]):
//! integer and bitwise kernels compare bit-exactly, while floating-point
//! kernels (`spmv`'s AddF64 reductions are order-sensitive at the ULP level)
//! relax to a per-lane relative-error bound.

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{BufferConfig, Merge, RuntimeBuilder, TelemetryConfig};
use coup_sim::config::SystemConfig;
use coup_sim::op::{BoxedProgram, ThreadOp};
use coup_sim::stats::RunStats;

use crate::layout::{regions, ArrayLayout};
use crate::runner::{run_workload, Workload};

/// One abstract operation of a workload kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStep {
    /// Read element `index` of the workload's input array. In the simulator
    /// this is a timed load with the workload's input layout; real-memory
    /// backends skip it, because kernel update values are precomputed.
    LoadInput {
        /// Input element index.
        index: usize,
    },
    /// Read element `index` of the workload's *auxiliary* input array
    /// (simulator address layout only, like [`KernelStep::LoadInput`]) —
    /// e.g. spmv's streamed matrix values, which live in a separate region
    /// from the `x` vector so the two streams never share lines.
    LoadAux {
        /// Auxiliary input element index.
        index: usize,
    },
    /// Pure compute delay of the given core cycles (simulator only).
    Compute(u64),
    /// Commutative update: `slots[slot] = op(slots[slot], value)`.
    Update {
        /// Output lane.
        slot: usize,
        /// Operand, as raw lane bits.
        value: u64,
    },
    /// Update immediately followed by a read of the same lane — the
    /// decrement-and-test idiom. Lowers to a single fetch-op where the
    /// executor has one; executors without one (the software-COUP backend)
    /// perform update-then-reduce, which does not guarantee a unique zero
    /// observer among concurrent decrementers (see
    /// `UpdateBackend::update_read`).
    UpdateRead {
        /// Output lane.
        slot: usize,
        /// Operand, as raw lane bits.
        value: u64,
    },
    /// Read lane `slot` of the output array.
    Read {
        /// Output lane.
        slot: usize,
    },
    /// Wait for every thread of the run.
    Barrier,
}

/// How an executor compares an executed lane against the kernel's expected
/// value — the verifier hook of the kernel contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-exact equality: correct for every integer and bitwise operation,
    /// whose reductions are fully commutative *and* associative, so no
    /// execution order can change the result.
    Exact,
    /// Per-lane relative-error bound over f64 lanes: the comparison passes
    /// when `|got − want| ≤ max(abs, rel · |want|)`. Floating-point addition
    /// commutes but does not associate, so a parallel reduction legitimately
    /// differs from the sequential reference at the ULP level — the bound
    /// stops the verifier from pretending the rounding order is
    /// deterministic, without letting a lost or duplicated update hide (one
    /// missing contribution is many orders of magnitude above any rounding
    /// residue at these bounds).
    RelativeF64 {
        /// Relative error bound, scaled by `|want|`.
        rel: f64,
        /// Absolute error floor, for expected values near zero.
        abs: f64,
    },
}

impl Tolerance {
    /// Checks `got` against `want` (both raw lane bits), returning a
    /// description of the discrepancy if the comparison fails.
    #[must_use]
    pub fn mismatch(&self, got: u64, want: u64) -> Option<String> {
        match *self {
            Tolerance::Exact => (got != want).then(|| format!("is {got}, expected exactly {want}")),
            Tolerance::RelativeF64 { rel, abs } => {
                let (g, w) = (f64::from_bits(got), f64::from_bits(want));
                let bound = abs.max(w.abs() * rel);
                let err = (g - w).abs();
                if err <= bound {
                    // Written as the positive comparison so a NaN `err`
                    // falls through to the mismatch branch.
                    None
                } else {
                    Some(format!("is {g}, expected {w} ± {bound:e} (error {err:e})"))
                }
            }
        }
    }
}

/// A per-thread instruction stream over abstract [`KernelStep`]s whose
/// control flow may depend on the values earlier reads returned, mirroring
/// the simulator's [`coup_sim::op::ThreadProgram`] one level up. Every
/// `Iterator<Item = KernelStep>` is one that never looks at those values.
pub trait KernelProgram: Send {
    /// The thread's next step, or `None` once its work is complete.
    ///
    /// `last_read` carries the lane value produced by the *immediately
    /// preceding* [`KernelStep::Read`] or [`KernelStep::UpdateRead`] step of
    /// this program; it is `None` on the first call and after every other
    /// step kind.
    fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep>;
}

impl<I: Iterator<Item = KernelStep> + Send> KernelProgram for I {
    fn next(&mut self, _last_read: Option<u64>) -> Option<KernelStep> {
        Iterator::next(self)
    }
}

/// A workload's scattered-update phase, described independently of the
/// executor.
///
/// # Contract
///
/// * `program(t, n)` must be deterministic in `(t, n)` and the values its
///   reads return.
/// * Every thread's program must emit the *same number* of
///   [`KernelStep::Barrier`]s (real barriers block until all threads
///   arrive). A program whose control flow depends on reads must *derive*
///   the same phase count on every thread: any read feeding a control-flow
///   decision must happen strictly between two barriers, where no update is
///   in flight, so all threads observe identical lanes and reach identical
///   decisions.
/// * `expected(n)` is the per-lane result (raw lane bits) of applying every
///   update of every thread sequentially to a zeroed array, compared under
///   [`UpdateKernel::tolerance`].
///
/// Kernels are `Sync` because [`RuntimeBackend`] builds each worker's program
/// on that worker's own OS thread. `'a` is the lifetime of the input data a
/// program may borrow: a workload's kernel is a short-lived wrapper, and its
/// programs outlive it.
pub trait UpdateKernel<'a>: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The commutative operation of the updates; its width is the lane width
    /// of the output array.
    fn op(&self) -> CommutativeOp;

    /// Number of output lanes.
    fn slots(&self) -> usize;

    /// Element width of the input array, in bytes (simulator address layout
    /// only).
    fn input_elem_bytes(&self) -> u64 {
        8
    }

    /// Base address of the input array in the simulated address space.
    fn input_region(&self) -> u64 {
        regions::INPUT
    }

    /// Element width of the auxiliary input array, in bytes (simulator
    /// address layout only; see [`KernelStep::LoadAux`]).
    fn aux_elem_bytes(&self) -> u64 {
        8
    }

    /// Base address of the auxiliary input array in the simulated address
    /// space.
    fn aux_region(&self) -> u64 {
        regions::INPUT_AUX
    }

    /// Base address of the output array in the simulated address space.
    /// Workloads keep their historical region so timing results stay
    /// comparable.
    fn output_region(&self) -> u64 {
        regions::SHARED_OUTPUT
    }

    /// How executors compare executed lanes against [`UpdateKernel::expected`]
    /// (default: bit-exact).
    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }

    /// Thread `thread`'s program, for a run of `threads` threads. Every
    /// executor drives it the same way: it executes each step and feeds the
    /// lane value a [`KernelStep::Read`] or [`KernelStep::UpdateRead`]
    /// returned into the next [`KernelProgram::next`] call. Programs
    /// generate their steps on the fly (pgrank at millions of vertices emits
    /// one step per edge), so no executor ever holds a script, only the
    /// kernel's own input data.
    fn program(&self, thread: usize, threads: usize) -> Box<dyn KernelProgram + 'a>;

    /// Thread `thread`'s script: its program run to completion with no read
    /// values fed back. Only meaningful for a program that ignores them.
    fn steps(&self, thread: usize, threads: usize) -> Vec<KernelStep> {
        let mut program = self.program(thread, threads);
        std::iter::from_fn(|| program.next(None)).collect()
    }

    /// The sequential reference result for a run of `threads` threads.
    fn expected(&self, threads: usize) -> Vec<u64>;
}

/// The simulated-address-space layouts of a kernel's arrays.
#[derive(Debug, Clone, Copy)]
struct KernelLayouts {
    op: CommutativeOp,
    output: ArrayLayout,
    input: ArrayLayout,
    aux: ArrayLayout,
}

impl KernelLayouts {
    fn of<'a, K: UpdateKernel<'a> + ?Sized>(kernel: &K) -> Self {
        let op = kernel.op();
        KernelLayouts {
            op,
            output: ArrayLayout::new(kernel.output_region(), op.width().bytes() as u64),
            input: ArrayLayout::new(kernel.input_region(), kernel.input_elem_bytes()),
            aux: ArrayLayout::new(kernel.aux_region(), kernel.aux_elem_bytes()),
        }
    }

    /// Lowers one abstract step onto the simulator: the op to issue, what the
    /// value it returns means to the kernel program, and — for the one step
    /// with no single-op form, a [`KernelStep::UpdateRead`] without `rmw` —
    /// the load that follows it.
    fn lower(
        &self,
        rmw: bool,
        step: KernelStep,
    ) -> (ThreadOp, Feedback, Option<(ThreadOp, Feedback)>) {
        let update = |slot, value| {
            let (addr, op) = (self.output.addr(slot), self.op);
            if rmw {
                ThreadOp::AtomicRmw { addr, op, value }
            } else {
                ThreadOp::CommutativeUpdate { addr, op, value }
            }
        };
        let read = |slot| {
            let addr = self.output.word_addr(slot);
            (ThreadOp::Load { addr }, Feedback::Lane { slot })
        };
        let plain = |op| (op, Feedback::Ignore, None);
        match step {
            KernelStep::LoadInput { index } => plain(ThreadOp::Load {
                addr: self.input.word_addr(index),
            }),
            KernelStep::LoadAux { index } => plain(ThreadOp::Load {
                addr: self.aux.word_addr(index),
            }),
            KernelStep::Compute(cycles) => plain(ThreadOp::Compute(cycles)),
            KernelStep::Update { slot, value } => plain(update(slot, value)),
            KernelStep::UpdateRead { slot, value } if rmw => {
                (update(slot, value), Feedback::RmwNew { slot, value }, None)
            }
            KernelStep::UpdateRead { slot, value } => {
                (update(slot, value), Feedback::Ignore, Some(read(slot)))
            }
            KernelStep::Read { slot } => {
                let (load, feedback) = read(slot);
                (load, feedback, None)
            }
            KernelStep::Barrier => plain(ThreadOp::Barrier),
        }
    }
}

/// Lowers a kernel onto simulator thread programs.
///
/// With `rmw` false, updates become COUP commutative-update instructions
/// (buffered under MEUSI, exclusive under MESI); with `rmw` true they become
/// conventional atomic read-modify-writes, which also serve the read half of
/// [`KernelStep::UpdateRead`] for free — mirroring how `lock xadd` returns
/// the value.
///
/// Each thread's program is wrapped in an adapter that lowers its steps as
/// the machine asks for them and feeds each simulated load's value back into
/// it, so check-then-act decisions see the *simulated* memory contents.
#[must_use]
pub fn sim_programs<'a, K: UpdateKernel<'a> + ?Sized>(
    kernel: &K,
    threads: usize,
    rmw: bool,
) -> Vec<BoxedProgram<'a>> {
    let layouts = KernelLayouts::of(kernel);
    (0..threads)
        .map(|t| {
            Box::new(KernelSimProgram {
                program: kernel.program(t, threads),
                layouts,
                rmw,
                pending: None,
                feedback: Feedback::Ignore,
                done: false,
            }) as BoxedProgram<'a>
        })
        .collect()
}

/// What the simulated value arriving at the adapter's next call means.
#[derive(Debug, Clone, Copy)]
enum Feedback {
    /// The previous operation was not a kernel-level read; discard.
    Ignore,
    /// The previous load served a [`KernelStep::Read`] (or the load half of a
    /// lowered [`KernelStep::UpdateRead`]): extract `slot`'s lane from the
    /// loaded word and hand it to the kernel program.
    Lane {
        /// Output lane the load targeted.
        slot: usize,
    },
    /// The previous op was an `AtomicRmw` serving a [`KernelStep::UpdateRead`]:
    /// the simulator returns the *old* word, but the runtime's fetch-op
    /// returns the *new* lane value, so apply the operation once more to
    /// normalise what the kernel program observes across executors.
    RmwNew {
        /// Output lane the RMW targeted.
        slot: usize,
        /// The RMW's operand.
        value: u64,
    },
}

/// Adapter driving a [`KernelProgram`] as a simulator
/// [`coup_sim::op::ThreadProgram`]: lowers each abstract step and routes
/// every relevant loaded value back into the kernel program.
struct KernelSimProgram<'a> {
    program: Box<dyn KernelProgram + 'a>,
    layouts: KernelLayouts,
    rmw: bool,
    /// Op queued by a step that lowers to two simulator ops (the non-rmw
    /// [`KernelStep::UpdateRead`] expansion), with its feedback kind.
    pending: Option<(ThreadOp, Feedback)>,
    /// Meaning of the value arriving at the next `next()` call.
    feedback: Feedback,
    done: bool,
}

impl coup_sim::op::ThreadProgram for KernelSimProgram<'_> {
    fn next(&mut self, last_value: Option<u64>) -> ThreadOp {
        let fed = match std::mem::replace(&mut self.feedback, Feedback::Ignore) {
            Feedback::Ignore => None,
            Feedback::Lane { slot } => {
                let word = last_value.expect("a kernel read lowers to a value-bearing op");
                Some(self.layouts.output.extract(slot, word))
            }
            Feedback::RmwNew { slot, value } => {
                let word = last_value.expect("an rmw returns its old word");
                let old = self.layouts.output.extract(slot, word);
                Some(self.layouts.op.apply_lane(old, value))
            }
        };
        if let Some((op, feedback)) = self.pending.take() {
            debug_assert!(fed.is_none(), "a queued op never follows a kernel read");
            self.feedback = feedback;
            return op;
        }
        if self.done {
            return ThreadOp::Done;
        }
        let Some(step) = self.program.next(fed) else {
            self.done = true;
            return ThreadOp::Done;
        };
        let (op, feedback, then) = self.layouts.lower(self.rmw, step);
        self.feedback = feedback;
        self.pending = then;
        op
    }
}

/// Checks an executed result against `kernel.expected(threads)` under the
/// kernel's [`Tolerance`]: the executor holds `held` lanes (`holder` says
/// whose count that is), `lane(slot)` is one of them, and `who` prefixes a
/// mismatch.
fn verify_lanes<'a, K: UpdateKernel<'a> + ?Sized>(
    kernel: &K,
    threads: usize,
    (held, holder): (usize, &str),
    who: &str,
    lane: impl Fn(usize) -> u64,
) -> Result<(), String> {
    let expected = kernel.expected(threads);
    if expected.len() != held {
        return Err(format!(
            "{}: expected() covers {} slots but {holder} {held}",
            kernel.name(),
            expected.len(),
        ));
    }
    let tolerance = kernel.tolerance();
    for (slot, &want) in expected.iter().enumerate() {
        if let Some(mismatch) = tolerance.mismatch(lane(slot), want) {
            return Err(format!("{who}: slot {slot} {mismatch}"));
        }
    }
    Ok(())
}

/// Adapter running any [`UpdateKernel`] as a simulator [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct KernelWorkload<'a, K: ?Sized> {
    kernel: &'a K,
    rmw: bool,
}

impl<'a, K: ?Sized> KernelWorkload<'a, K> {
    /// Wraps `kernel`, lowering updates as COUP commutative updates.
    #[must_use]
    pub fn new(kernel: &'a K) -> Self {
        KernelWorkload { kernel, rmw: false }
    }

    /// Wraps `kernel`, lowering updates as conventional atomic RMWs.
    #[must_use]
    pub fn with_rmw(kernel: &'a K) -> Self {
        KernelWorkload { kernel, rmw: true }
    }
}

impl<'a, 'k: 'a, K: UpdateKernel<'k> + ?Sized> Workload for KernelWorkload<'a, K> {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn commutative_op(&self) -> CommutativeOp {
        self.kernel.op()
    }

    fn init(&self, _mem: &mut coup_sim::memsys::MemorySystem) {
        // Kernel output arrays start zeroed, which simulated memory already
        // is; kernel input loads are timing-only (values are precomputed into
        // the update steps), so there is nothing to poke.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        sim_programs(self.kernel, threads, self.rmw)
    }

    fn verify(&self, mem: &coup_sim::memsys::MemorySystem, threads: usize) -> Result<(), String> {
        let output = KernelLayouts::of(self.kernel).output;
        verify_lanes(
            self.kernel,
            threads,
            (self.kernel.slots(), "the kernel declares"),
            self.kernel.name(),
            |slot| output.extract(slot, mem.peek(output.word_addr(slot))),
        )
    }
}

/// An executor that can run any [`UpdateKernel`] end to end, verification
/// included.
pub trait ExecutionBackend {
    /// What a successful run reports (timing statistics, throughput, …).
    type Report;

    /// Runs and verifies `kernel`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first discrepancy between the executed
    /// result and `kernel.expected()` — which would indicate a lost or
    /// duplicated update.
    fn execute(&self, kernel: &dyn UpdateKernel<'_>) -> Result<Self::Report, String>;
}

/// The timing-simulator executor.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    cfg: SystemConfig,
    rmw: bool,
}

impl SimBackend {
    /// Simulates on `cfg`, lowering updates as COUP commutative updates.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        SimBackend { cfg, rmw: false }
    }

    /// Simulates on `cfg`, lowering updates as conventional atomic RMWs.
    #[must_use]
    pub fn with_rmw(cfg: SystemConfig) -> Self {
        SimBackend { cfg, rmw: true }
    }
}

impl ExecutionBackend for SimBackend {
    type Report = RunStats;

    fn execute(&self, kernel: &dyn UpdateKernel<'_>) -> Result<RunStats, String> {
        if self.rmw {
            run_workload(self.cfg, &KernelWorkload::with_rmw(kernel))
        } else {
            run_workload(self.cfg, &KernelWorkload::new(kernel))
        }
    }
}

/// Which `coup-runtime` backend a [`RuntimeBackend`] drives.
pub use coup_runtime::BackendKind as RuntimeKind;

/// What a [`RuntimeBackend`] run reports: `coup-runtime`'s throughput report
/// (threads, updates, reads, wall-clock `elapsed`, and a `mops()` rate) —
/// the same type the raw contended harness produces, so kernel runs and
/// microbenchmark runs are directly comparable.
pub type RuntimeReport = coup_runtime::ThroughputReport;

/// The real-hardware executor: runs kernels as a worker job on a
/// [`coup_runtime::CoupRuntime`] built per `execute` call — the same facade
/// the service frontends use, with the kernel's steps driven through the
/// job's direct (unbatched) backend path so barriers and the
/// decrement-and-test idiom keep their synchronous semantics.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeBackend {
    kind: RuntimeKind,
    threads: usize,
    flush_threshold: Option<u32>,
    buffer_config: Option<BufferConfig>,
    telemetry: Option<TelemetryConfig>,
}

impl RuntimeBackend {
    /// An executor of `kind` with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(kind: RuntimeKind, threads: usize) -> Self {
        assert!(threads > 0, "RuntimeBackend needs at least one worker");
        RuntimeBackend {
            kind,
            threads,
            flush_threshold: None,
            buffer_config: None,
            telemetry: None,
        }
    }

    /// Overrides the COUP backend's per-line flush budget.
    #[must_use]
    pub fn with_flush_threshold(mut self, flush_threshold: u32) -> Self {
        self.flush_threshold = Some(flush_threshold);
        self
    }

    /// Overrides the COUP backend's sparse-buffer capacity. Without this the
    /// backend honours the `COUP_BUFFER_CAPACITY` environment variable and
    /// defaults to unbounded buffers.
    #[must_use]
    pub fn with_buffer_config(mut self, config: BufferConfig) -> Self {
        self.buffer_config = Some(config);
        self
    }

    /// Overrides the runtime's telemetry configuration — use
    /// [`TelemetryConfig::disabled`] to measure instrumentation overhead.
    #[must_use]
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// The runtime builder this executor configures for `kernel`.
    fn builder(&self, kernel: &dyn UpdateKernel<'_>) -> RuntimeBuilder {
        let mut builder = RuntimeBuilder::new(kernel.op(), kernel.slots())
            .backend(self.kind)
            .workers(self.threads);
        if let Some(threshold) = self.flush_threshold {
            builder = builder.flush_threshold(threshold);
        }
        if let Some(config) = self.buffer_config {
            builder = builder.buffer_config(config);
        }
        if let Some(config) = self.telemetry {
            builder = builder.telemetry(config);
        }
        builder
    }
}

/// Per-worker tallies of a kernel execution.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCounts {
    updates: u64,
    reads: u64,
    checksum: u64,
}

impl Merge for WorkerCounts {
    fn merge(&mut self, other: &Self) {
        self.updates += other.updates;
        self.reads += other.reads;
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }
}

impl WorkerCounts {
    fn apply(&mut self, ctx: &coup_runtime::JobCtx<'_>, step: KernelStep) -> Option<u64> {
        match step {
            // Input values are baked into the update steps and compute
            // delays model core cycles real cores spend elsewhere in this
            // loop — all three are simulator-only.
            KernelStep::LoadInput { .. } | KernelStep::LoadAux { .. } | KernelStep::Compute(_) => {
                None
            }
            KernelStep::Update { slot, value } => {
                ctx.update(slot, value);
                self.updates += 1;
                None
            }
            KernelStep::UpdateRead { slot, value } => {
                let value = ctx.update_read(slot, value);
                self.checksum = self.checksum.wrapping_add(value);
                self.updates += 1;
                self.reads += 1;
                Some(value)
            }
            KernelStep::Read { slot } => {
                let value = ctx.read(slot);
                self.checksum = self.checksum.wrapping_add(value);
                self.reads += 1;
                Some(value)
            }
            KernelStep::Barrier => {
                ctx.barrier();
                None
            }
        }
    }
}

impl RuntimeBackend {
    /// Runs and verifies `kernel` like [`ExecutionBackend::execute`], and
    /// additionally returns the verified final snapshot (every lane's raw
    /// bits) — what cross-backend equivalence tests compare under the
    /// kernel's [`Tolerance`].
    ///
    /// # Errors
    ///
    /// As [`ExecutionBackend::execute`].
    pub fn execute_with_snapshot(
        &self,
        kernel: &dyn UpdateKernel<'_>,
    ) -> Result<(RuntimeReport, Vec<u64>), String> {
        let runtime = self.builder(kernel).build();
        let before = runtime.metrics();
        // Each worker drives its own program, generating steps as it goes
        // (holding a multi-million-vertex pgrank scatter's one step per edge
        // would dwarf the backend itself) and feeding back the lane values
        // its reads return. Both backends pay the same generation cost, so
        // ratios stay fair.
        let (counts, elapsed) = runtime.run_workers(|ctx| {
            let mut counts = WorkerCounts::default();
            let mut program = kernel.program(ctx.worker(), ctx.workers());
            let mut last_read = None;
            while let Some(step) = program.next(last_read) {
                last_read = counts.apply(&ctx, step);
            }
            counts.checksum = std::hint::black_box(counts.checksum);
            counts
        });
        let metrics = runtime.metrics().since(&before);
        let backend_name = runtime.backend_name();
        let snapshot = runtime.shutdown().snapshot;
        verify_lanes(
            kernel,
            self.threads,
            (snapshot.len(), "the backend holds"),
            &format!("{} on {backend_name}", kernel.name()),
            |slot| snapshot[slot],
        )?;
        let mut totals = WorkerCounts::default();
        for counts in &counts {
            totals.merge(counts);
        }
        let report = RuntimeReport {
            threads: self.threads,
            updates: totals.updates,
            reads: totals.reads,
            elapsed,
            metrics,
        };
        Ok((report, snapshot))
    }
}

impl ExecutionBackend for RuntimeBackend {
    type Report = RuntimeReport;

    fn execute(&self, kernel: &dyn UpdateKernel<'_>) -> Result<RuntimeReport, String> {
        self.execute_with_snapshot(kernel).map(|(report, _)| report)
    }
}

#[cfg(test)]
mod tests;
