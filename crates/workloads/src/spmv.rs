//! Sparse matrix–vector multiplication with a CSC matrix (`spmv`, Table 2).
//!
//! With the matrix stored column-major, each thread processes a block of
//! columns and scatters `value * x[col]` additions into the shared output
//! vector `y`. Rows touched from multiple columns are updated by multiple
//! threads concurrently — 64-bit floating-point commutative additions.

use coup_protocol::ops::{lanes, CommutativeOp};
use coup_sim::memsys::MemorySystem;
use coup_sim::op::BoxedProgram;

use crate::kernel::{
    sim_programs, KernelProgram, KernelStep, KernelWorkload, Tolerance, UpdateKernel,
};
use crate::layout::{regions, ArrayLayout};
use crate::runner::Workload;
use crate::synth::CscMatrix;

/// Relative per-lane error bound of the spmv verifier: parallel f64
/// reductions reorder the rounding, so exact equality is replaced by
/// `|got − want| ≤ max(SPMV_TOLERANCE, |want| · SPMV_TOLERANCE)` — tight
/// enough that a single lost contribution (Ω(0.1) for these inputs) can
/// never hide.
pub const SPMV_TOLERANCE: f64 = 1e-9;

/// The SpMV workload.
#[derive(Debug, Clone)]
pub struct SpmvWorkload {
    matrix: CscMatrix,
    x: Vec<f64>,
    x_layout: ArrayLayout,
    values_layout: ArrayLayout,
}

impl SpmvWorkload {
    /// Builds an SpMV workload over a synthetic `n × n` matrix with roughly
    /// `nnz_per_col` non-zeros per column.
    #[must_use]
    pub fn new(n: usize, nnz_per_col: usize, seed: u64) -> Self {
        let matrix = CscMatrix::synthetic(n, nnz_per_col, seed);
        let x = (0..n).map(|i| (i % 17) as f64 * 0.25 + 0.5).collect();
        SpmvWorkload {
            matrix,
            x,
            x_layout: ArrayLayout::new(regions::INPUT, 8),
            values_layout: ArrayLayout::new(regions::INPUT_AUX, 8),
        }
    }

    /// Number of non-zeros (the amount of scattered update work).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn columns_for(&self, thread: usize, threads: usize) -> std::ops::Range<usize> {
        let n = self.matrix.cols;
        let per = n.div_ceil(threads.max(1));
        (thread * per).min(n)..((thread + 1) * per).min(n)
    }

    /// The scatter as a backend-neutral [`UpdateKernel`]: the definition both
    /// the simulator and the real-hardware runtime execute. The kernel
    /// carries the repo's first floating-point [`Tolerance`] — see
    /// [`SPMV_TOLERANCE`].
    #[must_use]
    pub fn kernel(&self) -> SpmvKernel<'_> {
        SpmvKernel { workload: self }
    }
}

/// The scatter kernel of a [`SpmvWorkload`]: per column, load `x[col]`, then
/// stream the column's non-zeros and scatter `value · x[col]` additions into
/// the shared output vector — 64-bit floating-point commutative adds, the
/// order-sensitive operation that exercises the tolerance-based verifier.
#[derive(Debug, Clone, Copy)]
pub struct SpmvKernel<'a> {
    workload: &'a SpmvWorkload,
}

impl<'a> UpdateKernel<'a> for SpmvKernel<'a> {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn op(&self) -> CommutativeOp {
        CommutativeOp::AddF64
    }

    fn slots(&self) -> usize {
        self.workload.matrix.rows
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::RelativeF64 {
            rel: SPMV_TOLERANCE,
            abs: SPMV_TOLERANCE,
        }
    }

    /// Streams the scatter without materialising it — the CSC arrays already
    /// *are* the script, exactly as in pgrank's program.
    fn program(&self, thread: usize, threads: usize) -> Box<dyn KernelProgram + 'a> {
        let w = self.workload;
        Box::new(w.columns_for(thread, threads).flat_map(move |col| {
            // Load x[col] once per column.
            let nonzeros = w.matrix.col_ptr[col]..w.matrix.col_ptr[col + 1];
            [KernelStep::LoadInput { index: col }, KernelStep::Compute(1)]
                .into_iter()
                .chain(nonzeros.flat_map(move |k| {
                    let contribution = w.matrix.values[k] * w.x[col];
                    // Stream the matrix value and scatter-add into y[row].
                    [
                        KernelStep::LoadAux { index: k },
                        KernelStep::Compute(3),
                        KernelStep::Update {
                            slot: w.matrix.row_idx[k],
                            value: lanes::f64_to_lane(contribution),
                        },
                    ]
                }))
        }))
    }

    fn expected(&self, _threads: usize) -> Vec<u64> {
        // The sequential reference applies the updates in ascending column
        // order — exactly the order the threads' scripts concatenate to — so
        // it *is* the sequential application the kernel contract asks for.
        self.workload
            .matrix
            .spmv_reference(&self.workload.x)
            .into_iter()
            .map(lanes::f64_to_lane)
            .collect()
    }
}

impl Workload for SpmvWorkload {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn commutative_op(&self) -> CommutativeOp {
        CommutativeOp::AddF64
    }

    fn init(&self, mem: &mut MemorySystem) {
        for (i, &xi) in self.x.iter().enumerate() {
            mem.poke(self.x_layout.addr(i), lanes::f64_to_lane(xi));
        }
        for (k, &v) in self.matrix.values.iter().enumerate() {
            mem.poke(self.values_layout.addr(k), lanes::f64_to_lane(v));
        }
        // y starts at zero (memory default).
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        // The whole workload *is* its kernel: one definition drives the
        // simulator (here) and the real-hardware runtime.
        sim_programs(&self.kernel(), threads, false)
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        KernelWorkload::new(&self.kernel()).verify(mem, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{compare_protocols, run_workload};
    use coup_protocol::state::ProtocolKind;
    use coup_sim::config::SystemConfig;

    #[test]
    fn spmv_is_correct_under_both_protocols() {
        let w = SpmvWorkload::new(120, 6, 3);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("verification");
        assert_eq!(mesi.commutative_updates, meusi.commutative_updates);
        assert_eq!(mesi.commutative_updates as usize, w.nnz());
        assert!(meusi.cycles <= mesi.cycles);
    }

    #[test]
    fn spmv_single_thread_matches_reference() {
        let w = SpmvWorkload::new(60, 4, 7);
        let cfg = SystemConfig::test_system(1, ProtocolKind::Meusi);
        run_workload(cfg, &w).expect("single-threaded SpMV must verify");
    }

    #[test]
    fn metadata() {
        let w = SpmvWorkload::new(10, 2, 0);
        assert_eq!(w.name(), "spmv");
        assert_eq!(w.commutative_op(), CommutativeOp::AddF64);
        assert!(w.nnz() >= 10);
    }

    #[test]
    fn kernel_verifies_on_both_runtime_backends_under_tolerance() {
        use crate::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, Tolerance};
        let w = SpmvWorkload::new(150, 6, 21);
        let kernel = w.kernel();
        assert!(matches!(kernel.tolerance(), Tolerance::RelativeF64 { .. }));
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let report = RuntimeBackend::new(kind, 4)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(report.updates as usize, w.nnz(), "{kind:?}");
        }
    }

    #[test]
    fn a_lost_update_cannot_hide_in_the_tolerance() {
        use crate::kernel::UpdateKernel;
        // Drop one contribution from the expected vector: the relative bound
        // must flag it, not absorb it.
        let w = SpmvWorkload::new(40, 3, 2);
        let kernel = w.kernel();
        let expected = kernel.expected(1);
        let tol = kernel.tolerance();
        let k = w.matrix.col_ptr[0]; // first non-zero's contribution
        let row = w.matrix.row_idx[k];
        let lost = lanes::lane_to_f64(expected[row]) - w.matrix.values[k] * w.x[0];
        assert!(
            tol.mismatch(lanes::f64_to_lane(lost), expected[row])
                .is_some(),
            "losing {} from y[{row}] must fail verification",
            w.matrix.values[k] * w.x[0]
        );
    }
}
