//! PageRank (`pgrank`, Table 2): an irregular iterative algorithm whose
//! scatter phase adds each vertex's rank share to all of its out-neighbours.
//!
//! Partitioning irregular graphs to avoid sharing is expensive and rarely done
//! on shared-memory machines (§4.1), so the shared `next_rank` array receives
//! concurrent additions from many threads — 64-bit integer adds in the paper's
//! implementation (fixed-point ranks), which is what we use here.

use coup_protocol::ops::CommutativeOp;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::BoxedProgram;

use crate::kernel::{sim_programs, KernelProgram, KernelStep, KernelWorkload, UpdateKernel};
use crate::layout::{regions, ArrayLayout};
use crate::runner::Workload;
use crate::synth::Graph;

/// Fixed-point scale used to represent fractional ranks as 64-bit integers.
const FIXED_POINT_SCALE: f64 = 1_000_000.0;

/// The PageRank workload (a configurable number of scatter iterations).
#[derive(Debug, Clone)]
pub struct PageRankWorkload {
    graph: Graph,
    iterations: usize,
    rank: ArrayLayout,
}

impl PageRankWorkload {
    /// Builds a PageRank workload over a synthetic power-law graph.
    #[must_use]
    pub fn new(vertices: usize, avg_degree: usize, iterations: usize, seed: u64) -> Self {
        PageRankWorkload {
            graph: Graph::power_law(vertices, avg_degree, seed),
            iterations: iterations.max(1),
            rank: ArrayLayout::new(regions::INPUT, 8),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertices(&self) -> usize {
        self.graph.vertices
    }

    /// Number of edges (the amount of scattered update work per iteration).
    #[must_use]
    pub fn edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn vertices_for(&self, thread: usize, threads: usize) -> std::ops::Range<usize> {
        let n = self.graph.vertices;
        let per = n.div_ceil(threads.max(1));
        (thread * per).min(n)..((thread + 1) * per).min(n)
    }

    /// Initial fixed-point rank of every vertex. Floored at 2¹⁶ so the
    /// per-edge share stays non-zero on multi-million-vertex graphs, where
    /// `scale / vertices` would truncate to 0 and degenerate the scatter
    /// into no-op additions (the floor simply means a larger effective
    /// fixed-point scale for huge graphs).
    fn initial_rank(&self) -> u64 {
        ((FIXED_POINT_SCALE / self.graph.vertices as f64) as u64).max(1 << 16)
    }

    /// The expected fixed-point `next_rank` after the scatter iterations.
    ///
    /// Only the *first* iteration's scatter is accumulated into `next_rank` in
    /// this kernel (subsequent iterations re-scatter the same contributions,
    /// modelling the steady-state memory behaviour without the rank-swap
    /// bookkeeping), so the expected value is `iterations ×` the one-iteration
    /// scatter.
    fn expected_next_rank(&self) -> Vec<u64> {
        let mut expect = vec![0u64; self.graph.vertices];
        let initial = self.initial_rank();
        for u in 0..self.graph.vertices {
            let out = self.graph.neighbours(u);
            if out.is_empty() {
                continue;
            }
            let share = initial / out.len() as u64;
            for &v in out {
                expect[v] += share * self.iterations as u64;
            }
        }
        expect
    }

    /// The scatter phase as a backend-neutral [`UpdateKernel`]: the definition
    /// both the simulator and the real-hardware runtime execute.
    #[must_use]
    pub fn kernel(&self) -> PageRankKernel<'_> {
        PageRankKernel { workload: self }
    }
}

/// The scatter kernel of a [`PageRankWorkload`]: per iteration, each thread
/// loads the rank of its vertices and adds the per-edge share into
/// `next_rank`, with a barrier at every iteration boundary.
#[derive(Debug, Clone, Copy)]
pub struct PageRankKernel<'a> {
    workload: &'a PageRankWorkload,
}

impl<'a> UpdateKernel<'a> for PageRankKernel<'a> {
    fn name(&self) -> &'static str {
        "pgrank"
    }

    fn op(&self) -> CommutativeOp {
        CommutativeOp::AddU64
    }

    fn slots(&self) -> usize {
        self.workload.graph.vertices
    }

    /// Streams the scatter without materialising it: one step per edge is
    /// far too many to hold in memory at multi-million-vertex scale, and the
    /// graph's CSR arrays already *are* the script. This is what lets the
    /// real-hardware executor run pgrank over ≥1M-line stores in bounded
    /// memory alongside the capacity-bounded privatized buffers.
    fn program(&self, thread: usize, threads: usize) -> Box<dyn KernelProgram + 'a> {
        let w = self.workload;
        let initial = w.initial_rank();
        let scatter = move |u| {
            let out = w.graph.neighbours(u);
            let share = initial / out.len() as u64;
            [KernelStep::LoadInput { index: u }, KernelStep::Compute(4)]
                .into_iter()
                .chain(out.iter().map(move |&v| KernelStep::Update {
                    slot: v,
                    value: share,
                }))
        };
        Box::new((0..w.iterations).flat_map(move |_| {
            w.vertices_for(thread, threads)
                .filter(|&u| !w.graph.neighbours(u).is_empty())
                .flat_map(scatter)
                // Iteration boundary: all threads synchronise before the
                // next scatter phase, as real implementations do.
                .chain([KernelStep::Barrier])
        }))
    }

    fn expected(&self, _threads: usize) -> Vec<u64> {
        self.workload.expected_next_rank()
    }
}

impl Workload for PageRankWorkload {
    fn name(&self) -> &'static str {
        "pgrank"
    }

    fn commutative_op(&self) -> CommutativeOp {
        CommutativeOp::AddU64
    }

    fn init(&self, mem: &mut MemorySystem) {
        let initial = self.initial_rank();
        for v in 0..self.graph.vertices {
            mem.poke(self.rank.addr(v), initial);
        }
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
    fn pagerank_scatter_is_correct_under_both_protocols() {
        let w = PageRankWorkload::new(200, 5, 1, 2);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("verification");
        assert!(mesi.commutative_updates > 0);
        assert!(meusi.cycles <= mesi.cycles);
    }

    #[test]
    fn multiple_iterations_accumulate() {
        let w = PageRankWorkload::new(100, 4, 3, 5);
        let cfg = SystemConfig::test_system(2, ProtocolKind::Meusi);
        run_workload(cfg, &w).expect("3-iteration PageRank must verify");
    }

    #[test]
    fn coup_reduces_traffic_on_hub_vertices() {
        let w = PageRankWorkload::new(300, 8, 1, 9);
        let cfg = SystemConfig::test_system(8, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("verification");
        assert!(
            meusi.traffic.offchip_bytes <= mesi.traffic.offchip_bytes,
            "COUP should not increase off-chip traffic"
        );
    }

    #[test]
    fn metadata() {
        let w = PageRankWorkload::new(50, 3, 2, 0);
        assert_eq!(w.name(), "pgrank");
        assert_eq!(w.commutative_op(), CommutativeOp::AddU64);
        assert_eq!(w.vertices(), 50);
        assert!(w.edges() > 0);
    }
}
