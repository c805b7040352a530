//! Parallel histogram construction (`hist`, Table 2; Fig. 2; Fig. 12).
//!
//! Threads partition a stream of pixel values and increment the corresponding
//! histogram bin. Three schemes are modelled:
//!
//! * **Shared** — a single shared histogram updated with single-word adds
//!   (atomic under MESI, commutative-update under MEUSI). This is the paper's
//!   baseline and COUP configuration.
//! * **Core-level privatization** — each thread keeps its own private copy of
//!   the histogram and a reduction phase folds all copies into the shared one
//!   (the TBB-reduction variant of §5.3).
//! * **Socket-level privatization** — one copy per socket (chip), shared by
//!   the threads of that socket and updated with atomics; a reduction phase
//!   folds the per-socket copies.

use coup_protocol::ops::CommutativeOp;
use coup_sim::config::CORES_PER_CHIP;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::{BoxedProgram, ThreadOp};

use crate::kernel::{sim_programs, KernelProgram, KernelStep, KernelWorkload, UpdateKernel};
use crate::layout::{regions, ArrayLayout};
use crate::runner::Workload;
use crate::synth::Image;

/// Which histogram implementation to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistScheme {
    /// Single shared histogram, single-word adds (baseline and COUP).
    Shared,
    /// One private copy per thread, reduced at the end.
    CoreLevelPrivate,
    /// One copy per socket, updated with atomics, reduced at the end.
    SocketLevelPrivate,
}

/// The histogram workload.
#[derive(Debug, Clone)]
pub struct HistWorkload {
    image: Image,
    scheme: HistScheme,
    bins: ArrayLayout,
    input: ArrayLayout,
}

impl HistWorkload {
    /// Builds a histogram workload over `pixels` synthetic pixels and `bins`
    /// bins, using the given scheme.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn new(pixels: usize, bins: u32, scheme: HistScheme, seed: u64) -> Self {
        let image = Image::synthetic(pixels, bins, seed);
        HistWorkload {
            image,
            scheme,
            // 32-bit bins, as in the paper (32b int add).
            bins: ArrayLayout::new(regions::SHARED_OUTPUT, 4),
            input: ArrayLayout::new(regions::INPUT, 4),
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.image.bins as usize
    }

    /// The scheme being simulated.
    #[must_use]
    pub fn scheme(&self) -> HistScheme {
        self.scheme
    }

    /// Pixel indices processed by `thread` out of `threads`.
    fn slice_for(&self, thread: usize, threads: usize) -> std::ops::Range<usize> {
        let n = self.image.pixels.len();
        let per = n.div_ceil(threads.max(1));
        (thread * per).min(n)..((thread + 1) * per).min(n)
    }

    /// Bin range reduced by `thread` during the reduction phase.
    fn reduce_slice_for(&self, thread: usize, threads: usize) -> std::ops::Range<usize> {
        let n = self.bins();
        let per = n.div_ceil(threads.max(1));
        (thread * per).min(n)..((thread + 1) * per).min(n)
    }

    fn socket_copy_layout(&self, socket: usize) -> ArrayLayout {
        // Reuse the per-thread private region with one slot per socket.
        self.bins.private_copy_for_thread(512 + socket)
    }

    /// The shared-scheme histogram as a backend-neutral [`UpdateKernel`]: the
    /// definition both the simulator and the real-hardware runtime execute.
    #[must_use]
    pub fn kernel(&self) -> HistKernel<'_> {
        HistKernel { workload: self }
    }
}

/// The shared-histogram kernel of a [`HistWorkload`]: one 32-bit add per
/// pixel into the bin array, with the pixel stream partitioned across
/// threads.
#[derive(Debug, Clone, Copy)]
pub struct HistKernel<'a> {
    workload: &'a HistWorkload,
}

impl<'a> UpdateKernel<'a> for HistKernel<'a> {
    fn name(&self) -> &'static str {
        "hist"
    }

    fn op(&self) -> CommutativeOp {
        CommutativeOp::AddU32
    }

    fn slots(&self) -> usize {
        self.workload.bins()
    }

    fn input_elem_bytes(&self) -> u64 {
        // Pixels are u32s, packed two per 64-bit word.
        4
    }

    fn program(&self, thread: usize, threads: usize) -> Box<dyn KernelProgram + 'a> {
        let w = self.workload;
        Box::new(w.slice_for(thread, threads).flat_map(move |i| {
            [
                KernelStep::LoadInput { index: i },
                KernelStep::Compute(2),
                KernelStep::Update {
                    slot: w.image.pixels[i] as usize,
                    value: 1,
                },
            ]
        }))
    }

    fn expected(&self, _threads: usize) -> Vec<u64> {
        self.workload.image.reference_histogram()
    }
}

impl Workload for HistWorkload {
    fn name(&self) -> &'static str {
        "hist"
    }

    fn commutative_op(&self) -> CommutativeOp {
        CommutativeOp::AddU32
    }

    fn init(&self, mem: &mut MemorySystem) {
        // Input pixels, packed two per 64-bit word.
        for (i, &p) in self.image.pixels.iter().enumerate() {
            if i % 2 == 0 {
                let lo = u64::from(p);
                let hi = self.image.pixels.get(i + 1).map_or(0, |&q| u64::from(q));
                mem.poke(self.input.word_addr(i), lo | (hi << 32));
            }
        }
        // Bins start at zero (memory defaults to zero); nothing to poke.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        // The shared scheme *is* the kernel: one definition drives the
        // simulator (here) and the real-hardware runtime (`kernel::
        // RuntimeBackend`). The privatized schemes keep their bespoke
        // reduction-phase programs below.
        if self.scheme == HistScheme::Shared {
            return sim_programs(&self.kernel(), threads, false);
        }
        let op = self.commutative_op();
        (0..threads)
            .map(|t| {
                let mut ops = Vec::new();
                let update_layout = match self.scheme {
                    HistScheme::Shared => unreachable!("handled by the kernel path above"),
                    HistScheme::CoreLevelPrivate => self.bins.private_copy_for_thread(t),
                    HistScheme::SocketLevelPrivate => self.socket_copy_layout(t / CORES_PER_CHIP),
                };
                // Phase 1: bin the pixels this thread owns.
                for i in self.slice_for(t, threads) {
                    // Load the input word (sequential, cheap) and update a bin.
                    ops.push(ThreadOp::Load {
                        addr: self.input.word_addr(i),
                    });
                    ops.push(ThreadOp::Compute(2));
                    let bin = self.image.pixels[i] as usize;
                    ops.push(ThreadOp::CommutativeUpdate {
                        addr: update_layout.addr(bin),
                        op,
                        value: 1,
                    });
                }
                // Phase 2 (privatized schemes only): wait for every thread to
                // finish binning, then reduce the private copies into the
                // shared histogram. Each thread reduces a slice of bins.
                if self.scheme != HistScheme::Shared {
                    ops.push(ThreadOp::Barrier);
                    let copies: Vec<ArrayLayout> = match self.scheme {
                        HistScheme::CoreLevelPrivate => (0..threads)
                            .map(|u| self.bins.private_copy_for_thread(u))
                            .collect(),
                        HistScheme::SocketLevelPrivate => {
                            let sockets = threads.div_ceil(CORES_PER_CHIP);
                            (0..sockets).map(|s| self.socket_copy_layout(s)).collect()
                        }
                        HistScheme::Shared => unreachable!(),
                    };
                    for bin in self.reduce_slice_for(t, threads) {
                        for copy in &copies {
                            // Element (not word) address: the program wrapper
                            // aligns it and extracts the right lane.
                            ops.push(ThreadOp::Load {
                                addr: copy.addr(bin),
                            });
                            ops.push(ThreadOp::Compute(1));
                        }
                        // One combined add of this thread's accumulated total;
                        // the value is reconstructed at verification time from
                        // the private copies, so the operand here uses the
                        // reference count for functional correctness.
                        ops.push(ThreadOp::CommutativeUpdate {
                            addr: self.bins.addr(bin),
                            op,
                            value: 0, // placeholder; replaced below
                        });
                    }
                }
                ops.push(ThreadOp::Done);
                Box::new(HistProgram::new(self, t, threads, ops)) as BoxedProgram<'_>
            })
            .collect()
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        // Every scheme ends with the whole histogram in the kernel's bins.
        KernelWorkload::new(&self.kernel()).verify(mem, threads)
    }
}

/// Program wrapper that patches the reduction-phase adds with the values
/// actually observed from the private copies.
///
/// The scripted operation list is precomputed, but the operand of each
/// reduction-phase `CommutativeUpdate` must be the sum of the values the
/// preceding loads observed (the thread accumulates in a register). This
/// wrapper tracks those loads and rewrites the operand on the fly.
#[derive(Debug)]
struct HistProgram {
    ops: Vec<ThreadOp>,
    next: usize,
    accumulator: u64,
    bin_elem_bytes: u64,
    pending_extract_shift: u64,
}

impl HistProgram {
    fn new(w: &HistWorkload, _thread: usize, _threads: usize, ops: Vec<ThreadOp>) -> Self {
        HistProgram {
            ops,
            next: 0,
            accumulator: 0,
            bin_elem_bytes: w.bins.elem_bytes(),
            pending_extract_shift: u64::MAX,
        }
    }
}

impl coup_sim::op::ThreadProgram for HistProgram {
    fn next(&mut self, last_value: Option<u64>) -> ThreadOp {
        if let Some(word) = last_value {
            // If the previous op was a private-copy load issued by the
            // reduction phase, fold the loaded lane into the accumulator.
            if self.pending_extract_shift != u64::MAX {
                let lane = if self.bin_elem_bytes >= 8 {
                    word
                } else {
                    let mask = (1u64 << (self.bin_elem_bytes * 8)) - 1;
                    (word >> self.pending_extract_shift) & mask
                };
                self.accumulator = self.accumulator.wrapping_add(lane);
                self.pending_extract_shift = u64::MAX;
            }
        }
        let op = self.ops.get(self.next).copied().unwrap_or(ThreadOp::Done);
        self.next += 1;
        match op {
            ThreadOp::Load { addr } if addr >= regions::PRIVATE => {
                // A reduction-phase load of a private copy: remember which lane
                // of the loaded word to accumulate.
                self.pending_extract_shift = (addr % 8) * 8;
                // The address passed to the machine must be word-aligned.
                ThreadOp::Load { addr: addr & !7 }
            }
            ThreadOp::Load { addr } => {
                self.pending_extract_shift = u64::MAX;
                ThreadOp::Load { addr }
            }
            ThreadOp::CommutativeUpdate { addr, op, value: 0 }
                if addr < regions::INPUT && self.accumulator > 0 =>
            {
                // Reduction-phase add into the shared histogram: use the value
                // accumulated from the private copies.
                let v = self.accumulator;
                self.accumulator = 0;
                ThreadOp::CommutativeUpdate { addr, op, value: v }
            }
            ThreadOp::CommutativeUpdate { addr, op, value: 0 } if addr < regions::INPUT => {
                // Nothing accumulated for this bin: skip the memory op entirely
                // (a real implementation would also skip zero adds), modelled
                // as a cheap compute cycle.
                self.accumulator = 0;
                let _ = (addr, op);
                ThreadOp::Compute(1)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{compare_protocols, run_workload};
    use coup_protocol::state::ProtocolKind;
    use coup_sim::config::SystemConfig;

    #[test]
    fn shared_histogram_is_correct_under_both_protocols() {
        let w = HistWorkload::new(2_000, 64, HistScheme::Shared, 1);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("verification");
        assert!(mesi.commutative_updates >= 2_000);
        assert!(
            meusi.cycles <= mesi.cycles,
            "COUP should not slow hist down"
        );
    }

    #[test]
    fn core_level_privatization_is_correct() {
        let w = HistWorkload::new(1_000, 32, HistScheme::CoreLevelPrivate, 2);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        run_workload(cfg, &w).expect("privatized histogram must verify");
    }

    #[test]
    fn socket_level_privatization_is_correct() {
        let w = HistWorkload::new(1_000, 32, HistScheme::SocketLevelPrivate, 3);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        run_workload(cfg, &w).expect("socket-privatized histogram must verify");
    }

    #[test]
    fn single_thread_histogram_is_correct() {
        let w = HistWorkload::new(500, 16, HistScheme::Shared, 4);
        let cfg = SystemConfig::test_system(1, ProtocolKind::Meusi);
        run_workload(cfg, &w).expect("single-threaded histogram must verify");
    }

    #[test]
    fn coup_beats_privatization_with_many_bins() {
        // The Fig. 2 effect at small scale: with many bins relative to the
        // input, the privatized reduction phase dominates and COUP wins.
        let pixels = 3_000;
        let bins = 1_024;
        let cfg = SystemConfig::test_system(8, ProtocolKind::Meusi);
        let coup = run_workload(cfg, &HistWorkload::new(pixels, bins, HistScheme::Shared, 5))
            .expect("coup run");
        let privatized = run_workload(
            cfg.with_protocol(ProtocolKind::Mesi),
            &HistWorkload::new(pixels, bins, HistScheme::CoreLevelPrivate, 5),
        )
        .expect("privatized run");
        assert!(
            coup.cycles < privatized.cycles,
            "COUP ({}) should beat core-level privatization ({}) at {} bins",
            coup.cycles,
            privatized.cycles,
            bins
        );
    }

    #[test]
    fn workload_metadata() {
        let w = HistWorkload::new(10, 8, HistScheme::Shared, 0);
        assert_eq!(w.name(), "hist");
        assert_eq!(w.commutative_op(), CommutativeOp::AddU32);
        assert_eq!(w.bins(), 8);
        assert_eq!(w.scheme(), HistScheme::Shared);
    }
}
