//! # coup-workloads
//!
//! The workloads of the COUP paper's evaluation (§4–5), implemented as
//! [`runner::Workload`]s for the `coup-sim` machine:
//!
//! * [`hist`] — parallel histogram (shared/atomic, core-level privatized,
//!   socket-level privatized): Table 2, Fig. 2, Fig. 12.
//! * [`spmv`] — CSC sparse matrix–vector multiplication with scattered
//!   floating-point adds: Table 2.
//! * [`pgrank`] — PageRank scatter iterations over a power-law graph: Table 2.
//! * [`bfs`] — breadth-first search with a shared visited bitmap: Table 2, §4.2.
//! * [`fluid`] — fluidanimate-like structured-grid accumulation: Table 2.
//! * [`refcount`] — the reference-counting microbenchmarks of §5.4 (XADD,
//!   COUP, SNZI, Refcache): Fig. 13.
//!
//! Inputs are synthesised by [`synth`] with the structural properties of the
//! paper's (unavailable) input sets; every workload verifies its parallel
//! result against a sequential reference, under both MESI and MEUSI.
//!
//! Every update-dominated workload (`hist`, `pgrank`, `spmv`, `bfs`, and
//! both `refcount` schemes) exposes a backend-neutral
//! [`kernel::UpdateKernel`], so one workload definition drives both the
//! timing simulator and the real-hardware `coup-runtime` engine through the
//! [`kernel::ExecutionBackend`] trait — see [`kernel`]. Every kernel is a
//! per-thread program: a streamed iterator (`hist`, `pgrank`, `spmv`,
//! immediate `refcount`), barrier-separated epochs (delayed `refcount`), or a
//! state machine whose control flow depends on executed reads
//! (level-synchronous `bfs`); verification tolerances are pluggable
//! (`spmv`'s order-sensitive f64 adds).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod characteristics;
pub mod fluid;
pub mod hist;
pub mod kernel;
pub mod layout;
pub mod pgrank;
pub mod refcount;
pub mod runner;
pub mod spmv;
pub mod synth;

pub use bfs::{BfsKernel, BfsWorkload};
pub use characteristics::{table2, BenchmarkCharacteristics};
pub use fluid::FluidWorkload;
pub use hist::{HistKernel, HistScheme, HistWorkload};
pub use kernel::{
    ExecutionBackend, KernelProgram, KernelStep, KernelWorkload, RuntimeBackend, RuntimeKind,
    RuntimeReport, SimBackend, Tolerance, UpdateKernel,
};
pub use pgrank::{PageRankKernel, PageRankWorkload};
pub use refcount::{
    DelayedKernel, DelayedRefcount, DelayedScheme, ImmediateKernel, ImmediateRefcount,
    RefcountScheme,
};
pub use runner::{compare_protocols, compare_runtime_backends, run_workload, Workload};
pub use spmv::{SpmvKernel, SpmvWorkload, SPMV_TOLERANCE};
