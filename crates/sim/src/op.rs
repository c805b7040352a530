//! Thread programs: the interface between workloads and the simulated machine.
//!
//! Workloads are expressed as per-thread state machines that emit a stream of
//! [`ThreadOp`]s — compute delays and memory operations. The machine executes
//! each operation against the simulated memory system, advances the issuing
//! core's clock by the operation's latency, and feeds load results back into
//! the program so data-dependent control flow (e.g. BFS frontier expansion,
//! reference-count checks) works naturally.

use std::fmt;

use coup_protocol::ops::CommutativeOp;

/// One operation emitted by a thread program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadOp {
    /// Spend the given number of core cycles computing (no memory access).
    Compute(u64),
    /// Load the aligned 64-bit word containing `addr`. The loaded value is
    /// passed to the program's next [`ThreadProgram::next`] call.
    Load {
        /// Byte address (aligned to 8 bytes).
        addr: u64,
    },
    /// Store a 64-bit word at `addr`.
    Store {
        /// Byte address (aligned to 8 bytes).
        addr: u64,
        /// Value to store.
        value: u64,
    },
    /// Conventional atomic read-modify-write (e.g. `lock xadd`, `lock or`).
    /// Requires exclusive permission under every protocol; returns the old
    /// value like a fetch-and-op.
    AtomicRmw {
        /// Byte address (aligned to the operation's width).
        addr: u64,
        /// Operation applied to the memory value.
        op: CommutativeOp,
        /// Operand.
        value: u64,
    },
    /// COUP commutative-update instruction: applies `op` with `value` at
    /// `addr`, returns nothing, and may be buffered as a partial update.
    CommutativeUpdate {
        /// Byte address (aligned to the operation's width).
        addr: u64,
        /// Commutative operation.
        op: CommutativeOp,
        /// Operand.
        value: u64,
    },
    /// Wait until every other live thread has also reached a barrier, then
    /// continue. Threads that have already finished ([`ThreadOp::Done`]) do not
    /// participate. Used by phase-structured workloads (privatized reductions,
    /// PageRank iterations, delayed-deallocation epochs).
    Barrier,
    /// The thread has finished its work.
    Done,
}

impl fmt::Display for ThreadOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadOp::Compute(c) => write!(f, "compute({c})"),
            ThreadOp::Load { addr } => write!(f, "load({addr:#x})"),
            ThreadOp::Store { addr, value } => write!(f, "store({addr:#x}, {value})"),
            ThreadOp::AtomicRmw { addr, op, value } => {
                write!(f, "atomic-{op}({addr:#x}, {value})")
            }
            ThreadOp::CommutativeUpdate { addr, op, value } => {
                write!(f, "commut-{op}({addr:#x}, {value})")
            }
            ThreadOp::Barrier => write!(f, "barrier"),
            ThreadOp::Done => write!(f, "done"),
        }
    }
}

/// A per-thread instruction stream.
///
/// The machine repeatedly calls [`ThreadProgram::next`], passing the value
/// returned by the previous `Load` or `AtomicRmw` (or `None` after other
/// operations), until the program emits [`ThreadOp::Done`].
pub trait ThreadProgram {
    /// Produces the thread's next operation.
    ///
    /// `last_value` carries the 64-bit word read by the immediately preceding
    /// `Load`, or the *old* value returned by the preceding `AtomicRmw`;
    /// it is `None` after `Compute`, `Store`, and `CommutativeUpdate`.
    fn next(&mut self, last_value: Option<u64>) -> ThreadOp;
}

/// A boxed thread program, the form workloads hand to the machine.
///
/// The lifetime lets a program borrow the workload (or kernel) that built
/// it — dynamic kernel programs stream a graph's CSR arrays instead of
/// copying them — while fully owned programs coerce to any lifetime as
/// before.
pub type BoxedProgram<'a> = Box<dyn ThreadProgram + Send + 'a>;

/// A trivial program that emits a fixed list of operations and then finishes.
/// Useful in tests and microbenchmarks.
#[derive(Debug, Clone)]
pub struct ScriptedProgram {
    ops: Vec<ThreadOp>,
    next: usize,
}

impl ScriptedProgram {
    /// Creates a program that will emit `ops` in order.
    #[must_use]
    pub fn new(ops: Vec<ThreadOp>) -> Self {
        ScriptedProgram { ops, next: 0 }
    }
}

impl ThreadProgram for ScriptedProgram {
    fn next(&mut self, _last_value: Option<u64>) -> ThreadOp {
        let op = self.ops.get(self.next).copied().unwrap_or(ThreadOp::Done);
        self.next += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_program_replays_and_records() {
        let mut p = ScriptedProgram::new(vec![
            ThreadOp::Compute(3),
            ThreadOp::Load { addr: 0x40 },
            ThreadOp::Done,
        ]);
        assert_eq!(p.next(None), ThreadOp::Compute(3));
        assert_eq!(p.next(None), ThreadOp::Load { addr: 0x40 });
        assert_eq!(p.next(Some(99)), ThreadOp::Done);
        // Emits Done forever afterwards.
        assert_eq!(p.next(None), ThreadOp::Done);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ThreadOp::Compute(2).to_string(), "compute(2)");
        assert!(ThreadOp::Load { addr: 64 }.to_string().contains("0x40"));
        assert!(ThreadOp::AtomicRmw {
            addr: 0,
            op: CommutativeOp::Or64,
            value: 1
        }
        .to_string()
        .starts_with("atomic-"));
        assert_eq!(ThreadOp::Done.to_string(), "done");
    }
}
