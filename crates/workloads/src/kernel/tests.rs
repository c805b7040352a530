//! Unit tests of the kernel contract and its two executors.

use super::*;
use coup_protocol::state::ProtocolKind;

/// Minimal kernel: every thread adds 1 to every slot `rounds` times, with
/// one barrier and a read pass at the end.
struct CounterKernel {
    slots: usize,
    rounds: usize,
}

impl<'a> UpdateKernel<'a> for CounterKernel {
    fn name(&self) -> &'static str {
        "counter-kernel"
    }
    fn op(&self) -> CommutativeOp {
        CommutativeOp::AddU64
    }
    fn slots(&self) -> usize {
        self.slots
    }
    fn program(&self, _thread: usize, _threads: usize) -> Box<dyn KernelProgram + 'a> {
        let (slots, rounds) = (self.slots, self.rounds);
        let updates = (0..rounds)
            .flat_map(move |_| (0..slots).map(|slot| KernelStep::Update { slot, value: 1 }));
        let reads = (0..slots).map(|slot| KernelStep::Read { slot });
        Box::new(updates.chain([KernelStep::Barrier]).chain(reads))
    }
    fn expected(&self, threads: usize) -> Vec<u64> {
        vec![(threads * self.rounds) as u64; self.slots]
    }
}

#[test]
fn sim_backend_runs_and_verifies_kernels() {
    let kernel = CounterKernel {
        slots: 6,
        rounds: 10,
    };
    for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
        let stats = SimBackend::new(SystemConfig::test_system(4, protocol))
            .execute(&kernel)
            .expect("kernel verifies in the simulator");
        assert_eq!(stats.commutative_updates, 4 * 6 * 10);
    }
    let stats = SimBackend::with_rmw(SystemConfig::test_system(4, ProtocolKind::Mesi))
        .execute(&kernel)
        .expect("rmw lowering verifies");
    assert_eq!(
        stats.commutative_updates, 0,
        "rmw lowering issues no COUP updates"
    );
}

#[test]
fn runtime_backends_run_and_verify_kernels() {
    let kernel = CounterKernel {
        slots: 6,
        rounds: 50,
    };
    for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
        let report = RuntimeBackend::new(kind, 4)
            .execute(&kernel)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(report.updates, 4 * 6 * 50);
        assert_eq!(report.reads, 4 * 6);
        assert!(report.mops() > 0.0);
    }
}

#[test]
fn runtime_detects_wrong_expectations() {
    struct LyingKernel;
    impl<'a> UpdateKernel<'a> for LyingKernel {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn op(&self) -> CommutativeOp {
            CommutativeOp::AddU64
        }
        fn slots(&self) -> usize {
            1
        }
        fn program(&self, _t: usize, _n: usize) -> Box<dyn KernelProgram + 'a> {
            Box::new(std::iter::once(KernelStep::Update { slot: 0, value: 1 }))
        }
        fn expected(&self, _threads: usize) -> Vec<u64> {
            vec![999]
        }
    }
    let err = RuntimeBackend::new(RuntimeKind::Coup, 2)
        .execute(&LyingKernel)
        .unwrap_err();
    assert!(err.contains("expected exactly 999"), "got: {err}");
}

#[test]
fn tolerance_exact_flags_any_difference() {
    assert!(Tolerance::Exact.mismatch(5, 5).is_none());
    let msg = Tolerance::Exact.mismatch(5, 6).expect("5 != 6");
    assert!(msg.contains("expected exactly 6"), "got: {msg}");
}

#[test]
fn tolerance_relative_accepts_ulp_noise_and_rejects_lost_updates() {
    let tol = Tolerance::RelativeF64 {
        rel: 1e-9,
        abs: 1e-9,
    };
    let want = 1000.0f64;
    let close = want + want * 1e-12;
    assert!(tol.mismatch(close.to_bits(), want.to_bits()).is_none());
    // Near zero the absolute floor applies.
    assert!(tol.mismatch(1e-12f64.to_bits(), 0.0f64.to_bits()).is_none());
    // A whole missing contribution is far outside the bound.
    let lost = want - 1.5;
    let msg = tol
        .mismatch(lost.to_bits(), want.to_bits())
        .expect("a lost update must not hide in the tolerance");
    assert!(msg.contains("expected 1000"), "got: {msg}");
    // NaN never passes (the comparison is written not-less-or-equal).
    assert!(tol.mismatch(f64::NAN.to_bits(), want.to_bits()).is_some());
}

/// A dynamic kernel: every thread adds 1 to lane 0, barriers, reads the
/// total (all threads must see `threads` — the derivation pattern of
/// level-synchronous BFS), and echoes the observed value into lane 1.
struct DynamicTotalKernel;

struct DynamicTotalProgram {
    threads: usize,
    stage: usize,
}

impl KernelProgram for DynamicTotalProgram {
    fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep> {
        self.stage += 1;
        match self.stage {
            1 => Some(KernelStep::Update { slot: 0, value: 1 }),
            2 => Some(KernelStep::Barrier),
            3 => Some(KernelStep::Read { slot: 0 }),
            4 => {
                let seen = last_read.expect("a Read feeds the next step");
                assert_eq!(
                    seen, self.threads as u64,
                    "post-barrier read must see every thread's update"
                );
                Some(KernelStep::Update {
                    slot: 1,
                    value: seen,
                })
            }
            _ => None,
        }
    }
}

impl<'a> UpdateKernel<'a> for DynamicTotalKernel {
    fn name(&self) -> &'static str {
        "dyn-total"
    }
    fn op(&self) -> CommutativeOp {
        CommutativeOp::AddU64
    }
    fn slots(&self) -> usize {
        2
    }
    fn program(&self, _thread: usize, threads: usize) -> Box<dyn KernelProgram + 'a> {
        Box::new(DynamicTotalProgram { threads, stage: 0 })
    }
    fn expected(&self, threads: usize) -> Vec<u64> {
        let n = threads as u64;
        vec![n, n * n]
    }
}

#[test]
fn dynamic_programs_feed_read_values_on_every_executor() {
    let kernel = DynamicTotalKernel;
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
        assert_eq!(report.updates, 8, "{kind:?}");
        assert_eq!(report.reads, 4, "{kind:?}");
    }
}

/// A dynamic kernel exercising [`KernelStep::UpdateRead`] feedback: the
/// program applies a fetch-add and must observe the *new* value on every
/// executor (the simulator's RMW returns the old word and the adapter
/// normalises it).
struct DynamicFetchAddKernel;

struct DynamicFetchAddProgram {
    stage: usize,
}

impl KernelProgram for DynamicFetchAddProgram {
    fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep> {
        self.stage += 1;
        match self.stage {
            1 => Some(KernelStep::UpdateRead { slot: 0, value: 7 }),
            2 => {
                let seen = last_read.expect("UpdateRead feeds the next step");
                assert_eq!(seen, 7, "the fetch-op returns the new value");
                Some(KernelStep::Update {
                    slot: 0,
                    value: seen,
                })
            }
            _ => None,
        }
    }
}

impl<'a> UpdateKernel<'a> for DynamicFetchAddKernel {
    fn name(&self) -> &'static str {
        "dyn-fetch-add"
    }
    fn op(&self) -> CommutativeOp {
        CommutativeOp::AddU64
    }
    fn slots(&self) -> usize {
        1
    }
    fn program(&self, _thread: usize, _threads: usize) -> Box<dyn KernelProgram + 'a> {
        Box::new(DynamicFetchAddProgram { stage: 0 })
    }
    fn expected(&self, _threads: usize) -> Vec<u64> {
        vec![14]
    }
}

#[test]
fn dynamic_update_read_returns_the_new_value_on_every_executor() {
    let kernel = DynamicFetchAddKernel;
    SimBackend::new(SystemConfig::test_system(1, ProtocolKind::Meusi))
        .execute(&kernel)
        .expect("sim/coup lowering");
    SimBackend::with_rmw(SystemConfig::test_system(1, ProtocolKind::Mesi))
        .execute(&kernel)
        .expect("sim/rmw lowering");
    for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
        RuntimeBackend::new(kind, 1)
            .execute(&kernel)
            .unwrap_or_else(|e| panic!("runtime/{kind:?}: {e}"));
    }
}

#[test]
fn every_step_lowers_to_its_thread_ops() {
    /// Every `KernelStep` variant, over 4-byte lanes so an element's address
    /// and its containing word's differ.
    struct ScriptKernel;
    impl<'a> UpdateKernel<'a> for ScriptKernel {
        fn name(&self) -> &'static str {
            "script"
        }
        fn op(&self) -> CommutativeOp {
            CommutativeOp::AddU32
        }
        fn slots(&self) -> usize {
            4
        }
        fn program(&self, _t: usize, _n: usize) -> Box<dyn KernelProgram + 'a> {
            Box::new(
                [
                    KernelStep::LoadInput { index: 3 },
                    KernelStep::LoadAux { index: 5 },
                    KernelStep::Compute(9),
                    KernelStep::Update { slot: 1, value: 2 },
                    KernelStep::UpdateRead { slot: 3, value: 4 },
                    KernelStep::Read { slot: 1 },
                    KernelStep::Barrier,
                ]
                .into_iter(),
            )
        }
        fn expected(&self, _threads: usize) -> Vec<u64> {
            unreachable!("lowered, never run")
        }
    }

    // Drives a lowered program the way the machine does: a value after
    // every load and rmw, `None` after anything else.
    let lowered = |rmw| {
        let mut program = sim_programs(&ScriptKernel, 1, rmw).remove(0);
        let mut ops = Vec::new();
        let mut last_value = None;
        while ops.last() != Some(&ThreadOp::Done) {
            let op = program.next(last_value);
            let returns_value = matches!(op, ThreadOp::Load { .. } | ThreadOp::AtomicRmw { .. });
            last_value = returns_value.then_some(0);
            ops.push(op);
        }
        ops
    };
    let (input, aux, out) = (regions::INPUT, regions::INPUT_AUX, regions::SHARED_OUTPUT);
    let op = CommutativeOp::AddU32;
    let head = [
        ThreadOp::Load {
            addr: input + 3 * 8,
        },
        ThreadOp::Load { addr: aux + 5 * 8 },
        ThreadOp::Compute(9),
    ];
    let tail = [
        // Lane 1's word starts at lane 0.
        ThreadOp::Load { addr: out },
        ThreadOp::Barrier,
        ThreadOp::Done,
    ];
    // Seven steps and `Done`: without `rmw`, `UpdateRead` is an update
    // followed by a load of its lane's word.
    let update = |addr, value| ThreadOp::CommutativeUpdate { addr, op, value };
    let coup = [
        update(out + 4, 2),
        update(out + 3 * 4, 4),
        ThreadOp::Load { addr: out + 8 },
    ];
    let ops = lowered(false);
    assert_eq!(ops.len(), 9);
    assert_eq!(ops, [&head[..], &coup, &tail].concat());
    // With `rmw`, the rmw's returned word serves the read.
    let rmw = |addr, value| ThreadOp::AtomicRmw { addr, op, value };
    let atomic = [rmw(out + 4, 2), rmw(out + 3 * 4, 4)];
    let ops = lowered(true);
    assert_eq!(ops.len(), 8);
    assert_eq!(ops, [&head[..], &atomic, &tail].concat());
}

#[test]
fn update_read_lowers_to_one_rmw_or_update_plus_load() {
    struct DecKernel;
    impl<'a> UpdateKernel<'a> for DecKernel {
        fn name(&self) -> &'static str {
            "dec"
        }
        fn op(&self) -> CommutativeOp {
            CommutativeOp::AddU64
        }
        fn slots(&self) -> usize {
            1
        }
        fn program(&self, _t: usize, _n: usize) -> Box<dyn KernelProgram + 'a> {
            Box::new(
                [
                    KernelStep::Update { slot: 0, value: 5 },
                    KernelStep::UpdateRead {
                        slot: 0,
                        value: (-2i64) as u64,
                    },
                ]
                .into_iter(),
            )
        }
        fn expected(&self, threads: usize) -> Vec<u64> {
            vec![3 * threads as u64]
        }
    }
    let coup = SimBackend::new(SystemConfig::test_system(2, ProtocolKind::Meusi));
    let rmw = SimBackend::with_rmw(SystemConfig::test_system(2, ProtocolKind::Mesi));
    coup.execute(&DecKernel).expect("coup lowering");
    rmw.execute(&DecKernel).expect("rmw lowering");
    let report = RuntimeBackend::new(RuntimeKind::Atomic, 2)
        .execute(&DecKernel)
        .unwrap();
    assert_eq!((report.updates, report.reads), (4, 2));
}
