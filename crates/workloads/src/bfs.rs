//! Parallel breadth-first search with a visited bitmap (`bfs`, Table 2; §4.2).
//!
//! High-performance BFS implementations keep the set of visited vertices in a
//! bitmap that fits in cache. Threads expanding the frontier *read* bits to
//! decide whether a neighbour needs visiting and *set* bits (with atomic-or
//! under the baseline, commutative-or under COUP) when they discover new
//! vertices — the finely-interleaved read/update pattern of §4.2 that keeps
//! lines bouncing between read-only and update-only modes.
//!
//! The workload is the repo's first *dynamic* (multi-phase)
//! [`UpdateKernel`]: a level-synchronous [`KernelProgram`] whose control flow
//! depends on the bitmap words its reads return. Each level runs in two
//! barrier-separated phases:
//!
//! 1. **Expand** — every thread processes its round-robin share of the
//!    current frontier, check-then-setting the visited bit of each neighbour
//!    (a read followed by a commutative OR when the bit is clear).
//! 2. **Derive** — after a barrier guarantees no OR is in flight, every
//!    thread reads the candidate bitmap words (the words holding the
//!    frontier's neighbours) and computes the *newly set* bits against its
//!    local mirror. Because the words are read between two barriers, all
//!    threads observe identical bits, derive the identical next frontier,
//!    and therefore execute the same number of barriers — the phase-count
//!    contract of [`UpdateKernel`] for programs that branch on reads.
//!
//! The derived frontier sequence *is* the BFS level structure, so thread 0
//! records it ([`BfsKernel::take_observed_distances`]) and tests compare the
//! implied distances against a sequential reference BFS — exact equality,
//! since OR-accumulation between barriers is deterministic regardless of the
//! interleaving inside a level.

use std::sync::{Arc, Mutex};

use coup_protocol::ops::CommutativeOp;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::BoxedProgram;

use crate::kernel::{sim_programs, KernelProgram, KernelStep, KernelWorkload, UpdateKernel};
use crate::layout::regions;
use crate::runner::Workload;
use crate::synth::Graph;

/// The BFS workload.
#[derive(Debug, Clone)]
pub struct BfsWorkload {
    graph: Graph,
    root: usize,
    /// Vertices of each BFS level (root level included), precomputed as the
    /// sequential reference.
    levels: Vec<Vec<usize>>,
}

impl BfsWorkload {
    /// Builds a BFS workload over a synthetic power-law graph, rooted at
    /// vertex 0.
    #[must_use]
    pub fn new(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        let graph = Graph::power_law(vertices, avg_degree, seed);
        let root = 0;
        let levels = Self::reference_levels(&graph, root);
        BfsWorkload {
            graph,
            root,
            levels,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertices(&self) -> usize {
        self.graph.vertices
    }

    /// Number of edges (the amount of frontier-expansion work).
    #[must_use]
    pub fn edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of BFS levels explored (root level included).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The sequential reference distances: `Some(level)` for reachable
    /// vertices (the root at 0), `None` for unreachable ones.
    #[must_use]
    pub fn reference_distances(&self) -> Vec<Option<usize>> {
        distances_of(&self.levels, self.graph.vertices)
    }

    fn reference_levels(graph: &Graph, root: usize) -> Vec<Vec<usize>> {
        let mut levels = Vec::new();
        let mut visited = vec![false; graph.vertices];
        visited[root] = true;
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &n in graph.neighbours(u) {
                    if !visited[n] {
                        visited[n] = true;
                        next.push(n);
                    }
                }
            }
            levels.push(frontier);
            frontier = next;
        }
        levels
    }

    /// Bit mask of vertex `v` within its bitmap word.
    fn bit_mask(v: usize) -> u64 {
        1u64 << (v % 64)
    }

    /// The level-synchronous search as a backend-neutral dynamic
    /// [`UpdateKernel`]: the definition both the simulator and the
    /// real-hardware runtime execute.
    #[must_use]
    pub fn kernel(&self) -> BfsKernel<'_> {
        BfsKernel {
            workload: self,
            observed: Arc::new(Mutex::new(None)),
        }
    }
}

/// The shared slot thread 0's program stores its derived levels into.
type LevelRecord = Arc<Mutex<Option<Vec<Vec<usize>>>>>;

/// Distances implied by a level decomposition.
fn distances_of(levels: &[Vec<usize>], vertices: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; vertices];
    for (d, level) in levels.iter().enumerate() {
        for &v in level {
            dist[v] = Some(d);
        }
    }
    dist
}

/// The dynamic BFS kernel of a [`BfsWorkload`] — see the module docs for the
/// two-phase level structure. The output array is the visited bitmap: one
/// Or64 lane per 64 vertices.
#[derive(Debug)]
pub struct BfsKernel<'a> {
    workload: &'a BfsWorkload,
    /// Levels thread 0's program derived from executed bitmap reads during
    /// the most recent completed run (shared with the owned programs).
    observed: LevelRecord,
}

impl BfsKernel<'_> {
    /// The distances implied by the per-level frontiers (root level
    /// included) thread 0 derived from the bitmap words actually read during
    /// the most recent run — `Some(level)` per reached vertex, `None` for
    /// vertices the executed search never visited — or `None` if no run has
    /// completed since the last take. Each take clears the record, so
    /// back-to-back runs on different backends can be checked independently.
    #[must_use]
    pub fn take_observed_distances(&self) -> Option<Vec<Option<usize>>> {
        self.observed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .map(|levels| distances_of(&levels, self.workload.graph.vertices))
    }
}

impl<'a> UpdateKernel<'a> for BfsKernel<'a> {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn op(&self) -> CommutativeOp {
        CommutativeOp::Or64
    }

    fn slots(&self) -> usize {
        self.workload.graph.vertices.div_ceil(64)
    }

    fn output_region(&self) -> u64 {
        // The bitmap keeps its historical region so simulated timings stay
        // comparable with the pre-kernel implementation.
        regions::BITMAP
    }

    fn program(&self, thread: usize, threads: usize) -> Box<dyn KernelProgram + 'a> {
        Box::new(BfsLevelProgram::new(
            &self.workload.graph,
            self.workload.root,
            thread,
            threads,
            (thread == 0).then(|| Arc::clone(&self.observed)),
        ))
    }

    fn expected(&self, _threads: usize) -> Vec<u64> {
        let w = self.workload;
        let mut words = vec![0u64; self.slots()];
        for (v, reach) in w.graph.reachable_from(w.root).into_iter().enumerate() {
            if reach {
                words[v / 64] |= BfsWorkload::bit_mask(v);
            }
        }
        words
    }
}

/// Where a [`BfsLevelProgram`] is within its current level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Set the root's bit (every thread; OR is idempotent) before level 0.
    SeedRoot,
    /// Stream the edge-list word of the current assigned edge.
    LoadEdge,
    /// Read the bitmap word holding the edge target's visited bit.
    CheckBit,
    /// Decide (from the word just read) whether to set the target's bit.
    Decide,
    /// All assigned edges expanded: barrier before the derive phase.
    ExpandBarrier,
    /// Read the next candidate bitmap word of the derive phase.
    DeriveRead,
    /// Fold the word just read into the mirror and the next frontier.
    DeriveCollect,
    /// Derivation finished: barrier (and start the next level) or stop.
    LevelBarrier,
    /// Search complete.
    Finished,
}

/// One thread of the level-synchronous BFS: expands its share of the current
/// frontier, then re-derives the (globally identical) next frontier from
/// post-barrier bitmap reads.
struct BfsLevelProgram<'a> {
    graph: &'a Graph,
    thread: usize,
    threads: usize,
    /// Mirror of the visited bitmap as of the last derive phase.
    known: Vec<u64>,
    /// The current level's frontier — identical across threads.
    frontier: Vec<usize>,
    /// Levels derived so far (root level included), and the slot they are
    /// stored into when the search finishes: thread 0 only.
    record: Option<(Vec<Vec<usize>>, LevelRecord)>,
    stage: Stage,
    /// Position in `frontier` of the vertex being expanded (stepping by
    /// `threads` from `thread` — the round-robin partition).
    pos: usize,
    /// Edge offset within the current frontier vertex.
    edge: usize,
    /// Candidate words of the derive phase: the sorted distinct bitmap words
    /// holding any neighbour of the whole frontier.
    candidates: Vec<usize>,
    /// One bit per bitmap word, set while collecting `candidates`; all clear
    /// between derive phases.
    marks: Vec<u64>,
    /// Derive-phase cursor into `candidates`.
    cursor: usize,
    /// The next frontier being collected during the derive phase.
    next_frontier: Vec<usize>,
}

impl<'a> BfsLevelProgram<'a> {
    fn new(
        graph: &'a Graph,
        root: usize,
        thread: usize,
        threads: usize,
        record: Option<LevelRecord>,
    ) -> Self {
        let words = graph.vertices.div_ceil(64);
        let mut known = vec![0u64; words];
        known[root / 64] |= BfsWorkload::bit_mask(root);
        BfsLevelProgram {
            graph,
            thread,
            threads,
            known,
            frontier: vec![root],
            record: record.map(|record| (vec![vec![root]], record)),
            stage: Stage::SeedRoot,
            pos: thread,
            edge: 0,
            candidates: Vec::new(),
            marks: vec![0; words.div_ceil(64)],
            cursor: 0,
            next_frontier: Vec::new(),
        }
    }

    /// The current assigned edge `(source, edge offset)`, advancing `pos`
    /// over exhausted frontier vertices.
    fn current_edge(&mut self) -> Option<(usize, usize)> {
        while let Some(&u) = self.frontier.get(self.pos) {
            if self.edge < self.graph.neighbours(u).len() {
                return Some((u, self.edge));
            }
            self.pos += self.threads;
            self.edge = 0;
        }
        None
    }

    /// Sorted distinct bitmap words holding any neighbour of the frontier —
    /// the only words where the expand phase can have set new bits. Marks
    /// each neighbour's word, then collects the marks in word order, so its
    /// cost follows the frontier's edges and the bitmap, not a sort.
    fn candidate_words(&mut self) -> Vec<usize> {
        for &u in &self.frontier {
            for &n in self.graph.neighbours(u) {
                let word = n / 64;
                self.marks[word / 64] |= 1 << (word % 64);
            }
        }
        let mut words = std::mem::take(&mut self.candidates);
        words.clear();
        for (i, marks) in self.marks.iter_mut().enumerate() {
            while *marks != 0 {
                words.push(i * 64 + marks.trailing_zeros() as usize);
                *marks &= *marks - 1;
            }
        }
        words
    }

    fn finish(&mut self) {
        self.stage = Stage::Finished;
        if let Some((levels, record)) = &mut self.record {
            *record
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(std::mem::take(levels));
        }
    }
}

impl KernelProgram for BfsLevelProgram<'_> {
    fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep> {
        loop {
            match self.stage {
                Stage::SeedRoot => {
                    let root = self.frontier[0];
                    self.stage = Stage::LoadEdge;
                    return Some(KernelStep::Update {
                        slot: root / 64,
                        value: BfsWorkload::bit_mask(root),
                    });
                }
                Stage::LoadEdge => {
                    let Some((u, edge)) = self.current_edge() else {
                        self.stage = Stage::ExpandBarrier;
                        continue;
                    };
                    self.stage = Stage::CheckBit;
                    return Some(KernelStep::LoadInput {
                        index: self.graph.offsets[u] + edge,
                    });
                }
                Stage::CheckBit => {
                    let (u, edge) = self.current_edge().expect("edge exists in CheckBit");
                    let n = self.graph.neighbours(u)[edge];
                    self.stage = Stage::Decide;
                    return Some(KernelStep::Read { slot: n / 64 });
                }
                Stage::Decide => {
                    let (u, edge) = self.current_edge().expect("edge exists in Decide");
                    let n = self.graph.neighbours(u)[edge];
                    let word = last_read.expect("Decide follows a Read");
                    self.edge += 1;
                    self.stage = Stage::LoadEdge;
                    if word & BfsWorkload::bit_mask(n) == 0 {
                        // Not visited yet: set the bit (commutative OR) — the
                        // check-then-set may race another thread's identical
                        // OR, which is harmless (idempotent) and does not
                        // perturb the derive phase.
                        return Some(KernelStep::Update {
                            slot: n / 64,
                            value: BfsWorkload::bit_mask(n),
                        });
                    }
                    // Already visited: frontier bookkeeping only.
                    return Some(KernelStep::Compute(1));
                }
                Stage::ExpandBarrier => {
                    self.candidates = self.candidate_words();
                    self.cursor = 0;
                    self.next_frontier.clear();
                    self.stage = Stage::DeriveRead;
                    return Some(KernelStep::Barrier);
                }
                Stage::DeriveRead => {
                    let Some(&word) = self.candidates.get(self.cursor) else {
                        self.stage = Stage::LevelBarrier;
                        continue;
                    };
                    self.stage = Stage::DeriveCollect;
                    return Some(KernelStep::Read { slot: word });
                }
                Stage::DeriveCollect => {
                    let value = last_read.expect("DeriveCollect follows a Read");
                    let word = self.candidates[self.cursor];
                    let mut newly = value & !self.known[word];
                    self.known[word] |= value;
                    while newly != 0 {
                        let bit = newly.trailing_zeros() as usize;
                        newly &= newly - 1;
                        let v = word * 64 + bit;
                        if v < self.graph.vertices {
                            self.next_frontier.push(v);
                        }
                    }
                    self.cursor += 1;
                    self.stage = Stage::DeriveRead;
                }
                Stage::LevelBarrier => {
                    if self.next_frontier.is_empty() {
                        // Every thread derives the same (empty) frontier from
                        // the same post-barrier words, so all stop together —
                        // no trailing barrier needed.
                        self.finish();
                        return None;
                    }
                    self.frontier = std::mem::take(&mut self.next_frontier);
                    if let Some((levels, _)) = &mut self.record {
                        levels.push(self.frontier.clone());
                    }
                    self.pos = self.thread;
                    self.edge = 0;
                    self.stage = Stage::LoadEdge;
                    return Some(KernelStep::Barrier);
                }
                Stage::Finished => return None,
            }
        }
    }
}

impl Workload for BfsWorkload {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn commutative_op(&self) -> CommutativeOp {
        CommutativeOp::Or64
    }

    fn init(&self, _mem: &mut MemorySystem) {
        // The kernel programs seed the root's bit themselves (an idempotent
        // OR from every thread), so nothing needs poking.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        // The whole workload *is* its kernel: one (dynamic) definition
        // drives the simulator (here) and the real-hardware runtime.
        sim_programs(&self.kernel(), threads, false)
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        KernelWorkload::new(&self.kernel()).verify(mem, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, SimBackend};
    use crate::runner::{compare_protocols, run_workload};
    use coup_protocol::state::ProtocolKind;
    use coup_sim::config::SystemConfig;

    #[test]
    fn bfs_visits_exactly_the_reachable_set_under_both_protocols() {
        let w = BfsWorkload::new(300, 6, 4);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("verification");
        assert!(mesi.commutative_updates > 0);
        assert!(meusi.loads > 0);
    }

    #[test]
    fn candidate_words_are_the_sorted_distinct_words_of_the_frontier_edges() {
        let w = BfsWorkload::new(5_000, 6, 11);
        assert!(w.depth() >= 3);
        let mut program = BfsLevelProgram::new(&w.graph, w.root, 1, 4, None);
        for level in &w.levels {
            // Reference: every frontier edge's word, sorted and deduplicated.
            let mut want: Vec<usize> = level
                .iter()
                .flat_map(|&u| w.graph.neighbours(u).iter().map(|&n| n / 64))
                .collect();
            want.sort_unstable();
            want.dedup();
            program.frontier.clone_from(level);
            program.candidates = program.candidate_words();
            assert_eq!(program.candidates, want);
        }
        assert!(program.marks.iter().all(|&m| m == 0), "marks are cleared");
    }

    #[test]
    fn bfs_single_thread_matches_reference() {
        let w = BfsWorkload::new(150, 5, 8);
        let cfg = SystemConfig::test_system(1, ProtocolKind::Meusi);
        run_workload(cfg, &w).expect("single-threaded BFS must verify");
    }

    #[test]
    fn bfs_has_multiple_levels() {
        let w = BfsWorkload::new(500, 4, 1);
        assert!(
            w.depth() >= 2,
            "power-law graph BFS should have several levels"
        );
        assert_eq!(w.vertices(), 500);
        assert_eq!(w.name(), "bfs");
        assert_eq!(w.commutative_op(), CommutativeOp::Or64);
    }

    #[test]
    fn uneven_thread_counts_still_verify() {
        let w = BfsWorkload::new(200, 5, 3);
        for threads in [2usize, 3, 5] {
            let cfg = SystemConfig::test_system(threads, ProtocolKind::Meusi);
            run_workload(cfg, &w).expect("BFS must verify for odd thread counts");
        }
    }

    #[test]
    fn simulated_bfs_derives_the_reference_levels() {
        let w = BfsWorkload::new(250, 5, 6);
        let kernel = w.kernel();
        SimBackend::new(SystemConfig::test_system(3, ProtocolKind::Meusi))
            .execute(&kernel)
            .expect("bitmap verifies");
        let distances = kernel
            .take_observed_distances()
            .expect("thread 0 records the derived levels");
        assert_eq!(distances, w.reference_distances());
        assert!(
            kernel.take_observed_distances().is_none(),
            "taking the record clears it"
        );
    }

    #[test]
    fn runtime_bfs_derives_the_reference_levels_on_both_backends() {
        let w = BfsWorkload::new(300, 5, 9);
        let kernel = w.kernel();
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            RuntimeBackend::new(kind, 3)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let distances = kernel
                .take_observed_distances()
                .expect("thread 0 records the derived levels");
            assert_eq!(distances, w.reference_distances(), "{kind:?}");
        }
    }
}
