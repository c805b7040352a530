//! The multicore machine: drives per-thread programs against the shared
//! memory system and collects run statistics.
//!
//! Cores execute their programs in (simulated) parallel: the machine always
//! steps the core with the smallest local clock, so accesses from different
//! cores interleave in global time order, which is what produces realistic
//! sharing patterns (ping-ponging under MESI, concurrent update-only epochs
//! under MEUSI). A small per-core clock perturbation (Alameldeen & Wood style)
//! decorrelates ties between otherwise lock-stepped threads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use coup_protocol::access::AccessType;

use crate::config::SystemConfig;
use crate::memsys::MemorySystem;
use crate::op::{BoxedProgram, ThreadOp};
use crate::stats::RunStats;

/// Cycles charged for crossing a barrier once every thread has arrived
/// (models the synchronisation fence plus wake-up of the slowest thread).
const BARRIER_COST: u64 = 100;

/// A simulated multicore machine.
#[derive(Debug)]
pub struct Machine {
    memsys: MemorySystem,
}

impl Machine {
    /// Builds a machine for the given configuration.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        Machine {
            memsys: MemorySystem::new(cfg),
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.memsys.config()
    }

    /// Read-write access to the memory system, e.g. to initialise workload
    /// data structures with [`MemorySystem::poke`] before running.
    pub fn memory(&mut self) -> &mut MemorySystem {
        &mut self.memsys
    }

    /// Runs one program per hardware thread until every program is done, and
    /// returns the run's statistics.
    ///
    /// Program `i` runs on core `i`; there must be at most as many programs as
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics if more programs than cores are supplied.
    pub fn run(&mut self, mut programs: Vec<BoxedProgram<'_>>) -> RunStats {
        let cores = self.memsys.config().cores;
        assert!(
            programs.len() <= cores,
            "{} programs for {} cores",
            programs.len(),
            cores
        );
        let n = programs.len();
        let compute_scale = self.memsys.config().compute_scale;
        let seed = self.memsys.config().perturbation_seed;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_FFEE);

        let mut clocks: Vec<u64> = (0..n)
            .map(|_| if seed == 0 { 0 } else { rng.gen_range(0..8) })
            .collect();
        let mut done = vec![false; n];
        let mut at_barrier = vec![false; n];
        let mut last_value: Vec<Option<u64>> = vec![None; n];
        let mut stats = RunStats {
            per_core_cycles: vec![0; n],
            ..Default::default()
        };

        // Live cores, and how many of them wait at the barrier (a waiting
        // core cannot finish, so `waiting <= remaining`).
        let mut remaining = n;
        let mut waiting = 0;
        while remaining > 0 {
            // Release the barrier once every live core has reached it.
            if waiting == remaining {
                let release = (0..n)
                    .filter(|&c| !done[c])
                    .map(|c| clocks[c])
                    .max()
                    .unwrap_or(0)
                    + BARRIER_COST;
                for c in 0..n {
                    if !done[c] {
                        clocks[c] = release;
                        at_barrier[c] = false;
                    }
                }
                waiting = 0;
            }
            // Step the live, non-waiting core with the smallest clock.
            let Some(core) = (0..n)
                .filter(|&c| !done[c] && !at_barrier[c])
                .min_by_key(|&c| clocks[c])
            else {
                unreachable!("barrier release leaves at least one runnable core");
            };
            let op = programs[core].next(last_value[core].take());
            match op {
                ThreadOp::Barrier => {
                    at_barrier[core] = true;
                    waiting += 1;
                }
                ThreadOp::Compute(cycles) => {
                    clocks[core] += cycles * compute_scale.max(1);
                    stats.instructions += cycles.max(1);
                }
                ThreadOp::Done => {
                    done[core] = true;
                    remaining -= 1;
                }
                ThreadOp::Load { addr } => {
                    let r = self
                        .memsys
                        .access(core, clocks[core], AccessType::Read, addr, 0);
                    clocks[core] = r.completes_at;
                    last_value[core] = Some(r.value);
                    stats.loads += 1;
                    stats.accesses += 1;
                    stats.instructions += 1;
                    stats.latency_sum += r.latency;
                }
                ThreadOp::Store { addr, value } => {
                    let r = self
                        .memsys
                        .access(core, clocks[core], AccessType::Write, addr, value);
                    clocks[core] = r.completes_at;
                    stats.stores += 1;
                    stats.accesses += 1;
                    stats.instructions += 1;
                    stats.latency_sum += r.latency;
                }
                ThreadOp::AtomicRmw { addr, op, value } => {
                    let r = self.memsys.atomic_rmw(core, clocks[core], op, addr, value);
                    clocks[core] = r.completes_at;
                    last_value[core] = Some(r.value);
                    stats.atomics += 1;
                    stats.accesses += 1;
                    stats.instructions += 1;
                    stats.latency_sum += r.latency;
                }
                ThreadOp::CommutativeUpdate { addr, op, value } => {
                    let r = self.memsys.access(
                        core,
                        clocks[core],
                        AccessType::CommutativeUpdate(op),
                        addr,
                        value,
                    );
                    clocks[core] = r.completes_at;
                    stats.commutative_updates += 1;
                    stats.accesses += 1;
                    stats.instructions += 1;
                    stats.latency_sum += r.latency;
                }
            }
        }

        stats.per_core_cycles = clocks.clone();
        stats.cycles = clocks.iter().copied().max().unwrap_or(0);
        stats.traffic = self.memsys.traffic();
        stats.protocol = self.memsys.protocol_stats();
        stats.reduction_cycles = self.memsys.reduction_cycles();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{ScriptedProgram, ThreadOp};
    use coup_protocol::ops::CommutativeOp;
    use coup_protocol::state::ProtocolKind;

    const ADD: CommutativeOp = CommutativeOp::AddU64;

    fn boxed(ops: Vec<ThreadOp>) -> BoxedProgram<'static> {
        Box::new(ScriptedProgram::new(ops))
    }

    #[test]
    fn empty_run_finishes_immediately() {
        let mut m = Machine::new(SystemConfig::test_system(2, ProtocolKind::Mesi));
        let stats = m.run(vec![]);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.accesses, 0);
    }

    #[test]
    fn single_core_counts_operations() {
        let mut m = Machine::new(SystemConfig::test_system(1, ProtocolKind::Meusi));
        let stats = m.run(vec![boxed(vec![
            ThreadOp::Compute(10),
            ThreadOp::Store {
                addr: 0x40,
                value: 5,
            },
            ThreadOp::Load { addr: 0x40 },
            ThreadOp::CommutativeUpdate {
                addr: 0x40,
                op: ADD,
                value: 3,
            },
            ThreadOp::AtomicRmw {
                addr: 0x80,
                op: ADD,
                value: 1,
            },
            ThreadOp::Done,
        ])]);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.commutative_updates, 1);
        assert_eq!(stats.atomics, 1);
        assert_eq!(stats.accesses, 4);
        assert!(stats.cycles > 10);
        assert_eq!(m.memory().peek(0x40), 8);
        assert_eq!(m.memory().peek(0x80), 1);
    }

    #[test]
    fn parallel_updates_sum_correctly_under_both_protocols() {
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            let mut m = Machine::new(SystemConfig::test_system(4, protocol));
            let mk = |n: u64| {
                let mut ops = Vec::new();
                for _ in 0..n {
                    ops.push(ThreadOp::CommutativeUpdate {
                        addr: 0x1000,
                        op: ADD,
                        value: 1,
                    });
                }
                ops.push(ThreadOp::Done);
                boxed(ops)
            };
            let stats = m.run(vec![mk(25), mk(25), mk(25), mk(25)]);
            assert_eq!(
                m.memory().peek(0x1000),
                100,
                "lost updates under {protocol}"
            );
            assert_eq!(stats.commutative_updates, 100);
        }
    }

    #[test]
    fn coup_beats_mesi_on_a_contended_counter() {
        let run = |protocol| {
            let mut m = Machine::new(SystemConfig::test_system(8, protocol));
            let programs: Vec<BoxedProgram<'_>> = (0..8)
                .map(|_| {
                    let mut ops = Vec::new();
                    for _ in 0..100 {
                        ops.push(ThreadOp::CommutativeUpdate {
                            addr: 0x2000,
                            op: ADD,
                            value: 1,
                        });
                        ops.push(ThreadOp::Compute(2));
                    }
                    ops.push(ThreadOp::Done);
                    boxed(ops)
                })
                .collect();
            let stats = m.run(programs);
            assert_eq!(m.memory().peek(0x2000), 800);
            stats
        };
        let mesi = run(ProtocolKind::Mesi);
        let meusi = run(ProtocolKind::Meusi);
        assert!(
            meusi.cycles < mesi.cycles,
            "COUP ({}) should beat MESI ({}) on a contended counter",
            meusi.cycles,
            mesi.cycles
        );
        // And it should do so with far less traffic.
        assert!(meusi.traffic.offchip_bytes <= mesi.traffic.offchip_bytes);
    }

    #[test]
    fn loads_feed_values_back_into_programs() {
        /// Loads one word, recording what the machine passes to each call.
        struct Recorder<'a>(&'a mut Vec<Option<u64>>);
        impl crate::op::ThreadProgram for Recorder<'_> {
            fn next(&mut self, last_value: Option<u64>) -> ThreadOp {
                self.0.push(last_value);
                match self.0.len() {
                    1 => ThreadOp::Load { addr: 0x300 },
                    _ => ThreadOp::Done,
                }
            }
        }

        let mut m = Machine::new(SystemConfig::test_system(1, ProtocolKind::Mesi));
        m.memory().poke(0x300, 42);
        let mut fed = Vec::new();
        let stats = m.run(vec![Box::new(Recorder(&mut fed))]);
        assert_eq!(stats.loads, 1);
        assert_eq!(fed, vec![None, Some(42)]);
    }

    #[test]
    fn perturbation_changes_interleaving_but_not_results() {
        let run = |seed| {
            let cfg = SystemConfig::test_system(4, ProtocolKind::Meusi).with_seed(seed);
            let mut m = Machine::new(cfg);
            let programs: Vec<BoxedProgram<'_>> = (0..4)
                .map(|_| {
                    boxed(vec![
                        ThreadOp::CommutativeUpdate {
                            addr: 0x4000,
                            op: ADD,
                            value: 2,
                        },
                        ThreadOp::CommutativeUpdate {
                            addr: 0x4000,
                            op: ADD,
                            value: 3,
                        },
                        ThreadOp::Done,
                    ])
                })
                .collect();
            let stats = m.run(programs);
            (m.memory().peek(0x4000), stats.cycles)
        };
        let (v0, _) = run(0);
        let (v1, _) = run(1);
        let (v2, _) = run(2);
        assert_eq!(v0, 20);
        assert_eq!(v1, 20);
        assert_eq!(v2, 20);
    }

    #[test]
    fn barrier_orders_phases_across_threads() {
        // Thread 0 stores a flag before the barrier; thread 1 reads it after.
        // Without the barrier thread 1 (which does no other work) would read 0.
        let mut m = Machine::new(SystemConfig::test_system(2, ProtocolKind::Mesi));
        let writer = boxed(vec![
            ThreadOp::Compute(500),
            ThreadOp::Store {
                addr: 0x5000,
                value: 7,
            },
            ThreadOp::Barrier,
            ThreadOp::Done,
        ]);
        let reader = boxed(vec![
            ThreadOp::Barrier,
            ThreadOp::Load { addr: 0x5000 },
            ThreadOp::Done,
        ]);
        let stats = m.run(vec![writer, reader]);
        assert_eq!(m.memory().peek(0x5000), 7);
        // The reader's clock must include the writer's 500 compute cycles plus
        // the barrier cost, proving it waited.
        assert!(stats.per_core_cycles[1] > 500);
    }

    #[test]
    fn threads_finishing_early_do_not_deadlock_barriers() {
        let mut m = Machine::new(SystemConfig::test_system(3, ProtocolKind::Mesi));
        // Thread 2 finishes immediately; threads 0 and 1 still synchronise.
        let stats = m.run(vec![
            boxed(vec![ThreadOp::Barrier, ThreadOp::Done]),
            boxed(vec![
                ThreadOp::Compute(50),
                ThreadOp::Barrier,
                ThreadOp::Done,
            ]),
            boxed(vec![ThreadOp::Done]),
        ]);
        assert!(stats.cycles >= 50);
    }

    #[test]
    #[should_panic(expected = "programs for")]
    fn too_many_programs_panics() {
        let mut m = Machine::new(SystemConfig::test_system(1, ProtocolKind::Mesi));
        let _ = m.run(vec![
            boxed(vec![ThreadOp::Done]),
            boxed(vec![ThreadOp::Done]),
        ]);
    }
}
