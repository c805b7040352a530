//! Integration tests of the multi-socket hierarchy and of the scaling trends
//! the paper's evaluation relies on: on-chip vs off-chip sharing costs,
//! hierarchical reductions, capacity-driven partial reductions, and the
//! relative behaviour of COUP and MESI as core counts grow.

use coup_protocol::access::AccessType;
use coup_protocol::ops::CommutativeOp;
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_sim::memsys::MemorySystem;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::runner::compare_protocols;

const ADD: CommutativeOp = CommutativeOp::AddU64;

#[test]
fn cross_chip_sharing_costs_more_than_on_chip_sharing() {
    // 32 cores = 2 chips. Sharing within chip 0 must be cheaper than sharing
    // between chip 0 and chip 1.
    let mut mem = MemorySystem::new(SystemConfig::test_system(32, ProtocolKind::Mesi));
    let addr = 0x100;
    // Warm the line in core 0.
    let _ = mem.access(0, 0, AccessType::Write, addr, 1);

    let on_chip = mem.access(1, 1_000, AccessType::Read, addr, 0);
    // Put the line back into core 0 exclusively.
    let _ = mem.access(0, 2_000, AccessType::Write, addr, 2);
    let off_chip = mem.access(16, 3_000, AccessType::Read, addr, 0);

    let on_chip_latency = on_chip.latency.total();
    let off_chip_latency = off_chip.latency.total();
    assert!(
        off_chip_latency > on_chip_latency,
        "cross-chip read ({off_chip_latency}) should cost more than on-chip ({on_chip_latency})"
    );
    assert!(off_chip.latency.network > 0.0);
    assert!(off_chip.latency.l4 > 0.0);
}

#[test]
fn reductions_of_cross_chip_updaters_are_hierarchical() {
    // Updaters spread over two chips; the read's critical path charges the
    // remote chip through the L4-invalidation component.
    let mut mem = MemorySystem::new(SystemConfig::test_system(32, ProtocolKind::Meusi));
    let addr = 0x2000;
    let add = AccessType::CommutativeUpdate(ADD);
    for core in [0usize, 1, 2, 16, 17, 18] {
        let _ = mem.access(core, 0, add, addr, 1);
        let _ = mem.access(core, 10, add, addr, 1);
    }
    let read = mem.access(5, 1_000, AccessType::Read, addr, 0);
    assert_eq!(
        read.value, 12,
        "reduction must gather every chip's partial updates"
    );
    assert!(
        read.latency.l4_invalidations > 0.0,
        "reducing remote-chip updaters must show up in the L4-invalidation component"
    );
    assert!(mem.reduction_cycles() > 0);
}

#[test]
fn capacity_pressure_triggers_partial_reductions_without_losing_updates() {
    let mut mem = MemorySystem::new(SystemConfig::test_system(2, ProtocolKind::Meusi));
    let add = AccessType::CommutativeUpdate(ADD);
    let lines = 4_096u64;
    for i in 0..lines {
        let addr = 0x10_0000 + i * 64;
        let _ = mem.access(0, i, add, addr, 1);
        let _ = mem.access(1, i, add, addr, 1);
    }
    assert!(
        mem.protocol_stats().partial_reductions > 0,
        "evicting update-only lines must partially reduce them"
    );
    for i in (0..lines).step_by(257) {
        assert_eq!(mem.peek(0x10_0000 + i * 64), 2, "line {i} lost an update");
    }
}

#[test]
fn coup_advantage_grows_with_core_count_on_contended_histograms() {
    let speedup_at = |cores: usize| {
        let cfg = SystemConfig::test_system(cores, ProtocolKind::Mesi);
        let w = HistWorkload::new(4_000, 256, HistScheme::Shared, 17);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("hist verifies");
        meusi.speedup_over(&mesi)
    };
    let at_2 = speedup_at(2);
    let at_16 = speedup_at(16);
    assert!(
        at_16 > at_2 * 0.9,
        "COUP's advantage should not collapse as cores grow (2 cores: {at_2:.2}, 16 cores: {at_16:.2})"
    );
    assert!(at_16 >= 1.0, "COUP should win at 16 cores (got {at_16:.2})");
}

#[test]
fn single_core_runs_are_essentially_unaffected_by_coup() {
    // With one core there is no sharing, so MEUSI must behave like MESI.
    let cfg = SystemConfig::test_system(1, ProtocolKind::Mesi);
    let w = HistWorkload::new(2_000, 64, HistScheme::Shared, 19);
    let (mesi, meusi) = compare_protocols(cfg, &w).expect("hist verifies");
    let ratio = meusi.cycles as f64 / mesi.cycles as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "single-core COUP should match MESI within 5% (ratio {ratio:.3})"
    );
}

#[test]
fn mixed_operation_types_serialize_but_stay_correct() {
    // Adds and ORs to the same line force type switches (full reductions), and
    // the final value must still reflect every update.
    let mut mem = MemorySystem::new(SystemConfig::test_system(4, ProtocolKind::Meusi));
    let addr = 0x5000;
    let mut clock = 0;
    for round in 0..10u64 {
        for core in 0..4usize {
            let r = mem.access(
                core,
                clock,
                AccessType::CommutativeUpdate(CommutativeOp::AddU64),
                addr,
                1,
            );
            clock = r.completes_at;
        }
        let r = mem.access(
            (round % 4) as usize,
            clock,
            AccessType::CommutativeUpdate(CommutativeOp::Or64),
            addr + 8,
            1 << round,
        );
        clock = r.completes_at;
    }
    assert_eq!(mem.peek(addr), 40);
    assert_eq!(mem.peek(addr + 8), 0b11_1111_1111);
    assert!(
        mem.protocol_stats().full_reductions > 0,
        "op-type switches should have occurred"
    );
}
