//! The [`Workload`] trait and helpers for running workloads on simulated
//! systems, plus the real-hardware analogue of [`compare_protocols`] for
//! [`UpdateKernel`]s.

use coup_protocol::ops::CommutativeOp;
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_sim::machine::Machine;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::BoxedProgram;
use coup_sim::stats::RunStats;

use crate::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, RuntimeReport, UpdateKernel};

/// A multithreaded benchmark that can be run on the simulated machine.
///
/// A workload owns its input data, knows how to lay it out in the simulated
/// address space ([`Workload::init`]), produces one program per thread
/// ([`Workload::programs`]), and can check that the parallel execution
/// produced the correct result ([`Workload::verify`]).
pub trait Workload {
    /// Short name, as used in the paper's tables (e.g. "hist", "spmv").
    fn name(&self) -> &'static str;

    /// The commutative operation the workload's scattered updates use.
    fn commutative_op(&self) -> CommutativeOp;

    /// Writes the workload's input data into simulated memory (untimed).
    fn init(&self, mem: &mut MemorySystem);

    /// Builds one program per thread; `threads` is the number of cores.
    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>>;

    /// Checks the result left in simulated memory after the run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first discrepancy found.
    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String>;
}

/// Runs `workload` on a machine configured by `cfg` and returns the run
/// statistics, after checking the workload's result.
///
/// # Errors
///
/// Returns an error if the workload's verification fails (which would indicate
/// a coherence bug — lost updates, stale reads).
pub fn run_workload(cfg: SystemConfig, workload: &dyn Workload) -> Result<RunStats, String> {
    let mut machine = Machine::new(cfg);
    workload.init(machine.memory());
    let threads = machine.config().cores;
    let stats = machine.run(workload.programs(threads));
    workload.verify(machine.memory(), threads)?;
    Ok(stats)
}

/// Runs `workload` under both the baseline (MESI) and COUP (MEUSI) protocols
/// on otherwise identical systems and returns `(mesi, meusi)` statistics.
///
/// # Errors
///
/// Returns an error if verification fails under either protocol.
pub fn compare_protocols(
    cfg: SystemConfig,
    workload: &dyn Workload,
) -> Result<(RunStats, RunStats), String> {
    let mesi = run_workload(cfg.with_protocol(ProtocolKind::Mesi), workload)?;
    let meusi = run_workload(cfg.with_protocol(ProtocolKind::Meusi), workload)?;
    Ok((mesi, meusi))
}

/// Runs `kernel` on the real-hardware runtime under the conventional atomic
/// baseline and under software COUP with `threads` workers each, and returns
/// `(atomic, coup)` throughput reports — the real-hardware analogue of
/// [`compare_protocols`], with both runs verified against the kernel's
/// sequential reference under its [`Tolerance`](crate::kernel::Tolerance).
///
/// # Errors
///
/// Returns an error (prefixed with the failing backend's name) if either
/// run's verification fails — a lost or duplicated update.
pub fn compare_runtime_backends(
    kernel: &dyn UpdateKernel<'_>,
    threads: usize,
) -> Result<(RuntimeReport, RuntimeReport), String> {
    let atomic = RuntimeBackend::new(RuntimeKind::Atomic, threads).execute(kernel)?;
    let coup = RuntimeBackend::new(RuntimeKind::Coup, threads).execute(kernel)?;
    Ok((atomic, coup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coup_sim::op::{ScriptedProgram, ThreadOp};

    /// A minimal workload: every thread adds 1 to a shared counter `updates` times.
    struct CounterWorkload {
        updates: usize,
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn commutative_op(&self) -> CommutativeOp {
            CommutativeOp::AddU64
        }
        fn init(&self, mem: &mut MemorySystem) {
            mem.poke(0x1000, 0);
        }
        fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
            (0..threads)
                .map(|_| {
                    let mut ops = Vec::new();
                    for _ in 0..self.updates {
                        ops.push(ThreadOp::CommutativeUpdate {
                            addr: 0x1000,
                            op: CommutativeOp::AddU64,
                            value: 1,
                        });
                    }
                    ops.push(ThreadOp::Done);
                    Box::new(ScriptedProgram::new(ops)) as BoxedProgram<'_>
                })
                .collect()
        }
        fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
            let got = mem.peek(0x1000);
            let want = (threads * self.updates) as u64;
            if got == want {
                Ok(())
            } else {
                Err(format!("counter is {got}, expected {want}"))
            }
        }
    }

    #[test]
    fn run_workload_checks_the_result() {
        let w = CounterWorkload { updates: 20 };
        let cfg = SystemConfig::test_system(4, ProtocolKind::Meusi);
        let stats = run_workload(cfg, &w).expect("workload must verify");
        assert_eq!(stats.commutative_updates, 80);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn compare_protocols_runs_both_and_coup_wins_on_contention() {
        let w = CounterWorkload { updates: 50 };
        let cfg = SystemConfig::test_system(8, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("both runs verify");
        assert_eq!(mesi.commutative_updates, meusi.commutative_updates);
        assert!(
            meusi.cycles < mesi.cycles,
            "COUP should win on a contended counter"
        );
    }
}
