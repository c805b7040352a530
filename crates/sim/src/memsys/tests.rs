//! Unit tests of the memory system's coherence and timing.

use super::*;

const ADD: CommutativeOp = CommutativeOp::AddU64;

fn sys(cores: usize, protocol: ProtocolKind) -> MemorySystem {
    MemorySystem::new(SystemConfig::test_system(cores, protocol))
}

/// A machine whose L3 holds one line: bringing another line into chip 0's
/// L3 recalls the one it held.
fn one_line_l3(cores: usize, protocol: ProtocolKind) -> MemorySystem {
    let mut cfg = SystemConfig::test_system(cores, protocol);
    cfg.capacity.l3_bytes = 64;
    cfg.capacity.l3_ways = 1;
    MemorySystem::new(cfg)
}

/// What `f` charges `m`: on-chip bytes, writebacks, partial reductions and
/// reduction cycles.
fn charges(m: &mut MemorySystem, f: impl FnOnce(&mut MemorySystem)) -> [u64; 4] {
    let (bytes, stats, cycles) = (
        m.traffic().onchip_bytes,
        m.protocol_stats(),
        m.reduction_cycles(),
    );
    f(m);
    let after = m.protocol_stats();
    [
        m.traffic().onchip_bytes - bytes,
        after.writebacks - stats.writebacks,
        after.partial_reductions - stats.partial_reductions,
        m.reduction_cycles() - cycles,
    ]
}

/// `core`'s L2 state for the line holding `byte`, `None` if it holds none.
fn state_of(m: &MemorySystem, core: usize, byte: u64) -> Option<PrivateState> {
    m.private[core]
        .l2
        .peek(LineAddr::containing(byte))
        .map(|l| l.state)
}

#[test]
fn load_of_uninitialised_memory_is_zero() {
    let mut m = sys(2, ProtocolKind::Mesi);
    let r = m.access(0, 0, AccessType::Read, 0x1000, 0);
    assert_eq!(r.value, 0);
    assert!(!r.private_hit);
    assert!(r.completes_at > 0);
}

#[test]
fn store_then_load_round_trips() {
    let mut m = sys(2, ProtocolKind::Mesi);
    let _ = m.access(0, 0, AccessType::Write, 0x40, 1234);
    let r = m.access(0, 10, AccessType::Read, 0x40, 0);
    assert_eq!(r.value, 1234);
    assert!(r.private_hit, "second access to the same line should hit");
    // Another core reading sees the same value (after a downgrade).
    let r1 = m.access(1, 20, AccessType::Read, 0x40, 0);
    assert_eq!(r1.value, 1234);
    assert!(!r1.private_hit);
}

#[test]
fn poke_and_peek_bypass_timing() {
    let mut m = sys(1, ProtocolKind::Meusi);
    m.poke(0x80, 77);
    assert_eq!(m.peek(0x80), 77);
    let r = m.access(0, 0, AccessType::Read, 0x80, 0);
    assert_eq!(r.value, 77);
}

#[test]
fn commutative_updates_from_two_cores_reduce_on_read() {
    let mut m = sys(2, ProtocolKind::Meusi);
    m.poke(0x100, 20);
    let c = AccessType::CommutativeUpdate(ADD);
    let _ = m.access(0, 0, c, 0x100, 1);
    let _ = m.access(1, 0, c, 0x100, 2);
    let _ = m.access(0, 10, c, 0x100, 1);
    let _ = m.access(1, 10, c, 0x100, 2);
    // Coherent value includes all buffered partial updates.
    assert_eq!(m.peek(0x100), 26);
    // A read triggers the full reduction and observes the total.
    let r = m.access(0, 50, AccessType::Read, 0x100, 0);
    assert_eq!(r.value, 26);
    assert!(m.protocol_stats().full_reductions >= 1);
}

#[test]
fn updates_hit_locally_in_update_only_mode() {
    let mut m = sys(2, ProtocolKind::Meusi);
    let c = AccessType::CommutativeUpdate(ADD);
    // First updates establish U (or M) copies.
    let _ = m.access(0, 0, c, 0x200, 1);
    let _ = m.access(1, 0, c, 0x200, 1);
    // Subsequent updates are private hits — no coherence transactions.
    let r0 = m.access(0, 10, c, 0x200, 1);
    let r1 = m.access(1, 10, c, 0x200, 1);
    assert!(r0.private_hit && r1.private_hit);
    assert!(m.protocol_stats().local_commutative_hits >= 2);
    assert_eq!(m.peek(0x200), 4);
}

#[test]
fn atomics_under_mesi_ping_pong() {
    let mut m = sys(2, ProtocolKind::Mesi);
    let c = AccessType::CommutativeUpdate(ADD); // treated as a write by MESI
    let r0 = m.access(0, 0, c, 0x300, 1);
    let r1 = m.access(1, 0, c, 0x300, 1);
    let r0b = m.access(0, r0.completes_at, c, 0x300, 1);
    let r1b = m.access(1, r1.completes_at, c, 0x300, 1);
    // Under MESI every one of these is a coherence transaction.
    assert!(!r0b.private_hit && !r1b.private_hit);
    assert_eq!(m.peek(0x300), 4);
    assert!(m.protocol_stats().owner_interventions >= 2);
}

#[test]
fn meusi_is_not_slower_than_mesi_for_contended_updates() {
    let run = |protocol| {
        let mut m = sys(4, protocol);
        let c = AccessType::CommutativeUpdate(ADD);
        let mut clocks = [0u64; 4];
        for round in 0..50 {
            for (core, clock) in clocks.iter_mut().enumerate() {
                let r = m.access(core, *clock, c, 0x400, 1);
                *clock = r.completes_at;
            }
            let _ = round;
        }
        (m.peek(0x400), *clocks.iter().max().unwrap())
    };
    let (mesi_val, mesi_t) = run(ProtocolKind::Mesi);
    let (meusi_val, meusi_t) = run(ProtocolKind::Meusi);
    assert_eq!(mesi_val, 200);
    assert_eq!(meusi_val, 200);
    assert!(
        meusi_t <= mesi_t,
        "COUP should not be slower on contended updates: {meusi_t} vs {mesi_t}"
    );
}

#[test]
fn atomic_rmw_returns_old_value() {
    let mut m = sys(1, ProtocolKind::Mesi);
    m.poke(0x500, 10);
    // AtomicRmw is modelled as a Write-permission access that applies the op.
    let r = m.access(0, 0, AccessType::Write, 0x500, 10); // plain store keeps 10
    assert_eq!(r.value, 0);
    let r = m.access(0, 10, AccessType::CommutativeUpdate(ADD), 0x500, 5);
    // In M state the update applies in place and the old value is observable.
    assert_eq!(r.value, 10);
    assert_eq!(m.peek(0x500), 15);
}

#[test]
fn cross_chip_access_pays_network_and_l4() {
    let mut m = MemorySystem::new(SystemConfig::test_system(32, ProtocolKind::Mesi));
    // Core 0 (chip 0) takes the line exclusively; core 16 (chip 1) reads it.
    let _ = m.access(0, 0, AccessType::Write, 0x600, 7);
    let r = m.access(16, 100, AccessType::Read, 0x600, 0);
    assert_eq!(r.value, 7);
    assert!(
        r.latency.network > 0.0,
        "cross-chip access must touch the network"
    );
    assert!(r.latency.l4 > 0.0);
    assert!(m.traffic().offchip_bytes > 0);
}

#[test]
fn same_chip_sharing_stays_on_chip() {
    let mut m = MemorySystem::new(SystemConfig::test_system(16, ProtocolKind::Mesi));
    let r0 = m.access(0, 0, AccessType::Read, 0x700, 0);
    // First access misses everywhere and must go off-chip to the home L4.
    assert!(r0.latency.network > 0.0);
    let r1 = m.access(1, 0, AccessType::Read, 0x700, 0);
    // Second reader finds the line in the chip's L3: no network traversal.
    assert!(
        r1.latency.network == 0.0,
        "on-chip sharing should not cross the network"
    );
}

#[test]
fn capacity_evictions_of_update_only_lines_partially_reduce() {
    let c = AccessType::CommutativeUpdate(ADD);
    // Touch far more lines than the tiny L2 can hold, updating each once.
    // MEUSI grants M for unshared lines, so force U by having a second core
    // share each line first... simpler: a single update per line is enough
    // to create M lines whose eviction writes back; the partial-reduction
    // path is exercised via a second core.
    let mut m2 = sys(2, ProtocolKind::Meusi);
    for i in 0..2048u64 {
        let addr = 0x1_0000 + i * 64;
        let _ = m2.access(0, i, c, addr, 1);
        let _ = m2.access(1, i, c, addr, 1);
    }
    // Evictions must have occurred, and every line still sums to 2.
    assert!(m2.protocol_stats().partial_reductions > 0);
    for i in [0u64, 7, 100, 2047] {
        let addr = 0x1_0000 + i * 64;
        assert_eq!(m2.peek(addr), 2, "line {i} lost an update");
    }
}

#[test]
fn l3_recall_folds_live_private_copies_into_memory() {
    // An L3 of half an L2: lines leave the L3 while the cores' L2s (and
    // their L1s) still hold them.
    let mut cfg = SystemConfig::test_system(4, ProtocolKind::Meusi);
    cfg.capacity.l3_bytes = cfg.capacity.l2_bytes / 2;
    let mut m = MemorySystem::new(cfg);
    let c = AccessType::CommutativeUpdate(ADD);
    let sets = cfg.capacity.l3_geometry().num_sets();
    // One line per L3 set that core 0 holds Modified, one that cores 1 and 2
    // hold UpdateOnly (core 1's first update is granted M, core 2's
    // downgrades it, and core 1's second lands in its partial).
    let dirty = |i: u64| i * 64;
    let partial = |i: u64| (sets + i) * 64;
    for i in 0..sets {
        let _ = m.access(0, 0, AccessType::Write, dirty(i), 40 + i);
        m.poke(partial(i), 100);
        let _ = m.access(1, 0, c, partial(i), 3);
        let _ = m.access(2, 0, c, partial(i), 4);
        let _ = m.access(1, 0, c, partial(i), 3);
    }
    // Whether the core's L1 holds the line, and its L2 copy's state.
    let held = |m: &MemorySystem, core: usize, byte: u64| {
        let l1 = m.private[core].l1.contains(LineAddr::containing(byte));
        (l1, state_of(m, core, byte))
    };
    let u = (true, Some(PrivateState::UpdateOnly(ADD)));
    for i in 0..sets {
        assert_eq!(held(&m, 0, dirty(i)), (true, Some(PrivateState::Modified)));
        assert!(held(&m, 1, partial(i)) == u && held(&m, 2, partial(i)) == u);
    }
    let before = m.protocol_stats();
    // Core 3 fills every L3 set with lines of its own; `idle`, which holds
    // nothing else, is charged the same requests without the recall.
    let mut idle = MemorySystem::new(cfg);
    let charged = charges(&mut m, |m| {
        let ways = u64::from(cfg.capacity.l3_ways);
        for i in 0..sets * ways {
            let byte = (2 * sets + i) * 64;
            let _ = m.access(3, 0, AccessType::Read, byte, 0);
            let _ = idle.access(3, 0, AccessType::Read, byte, 0);
        }
    });
    let after = m.protocol_stats();
    assert_eq!(after.writebacks - before.writebacks, sets);
    assert_eq!(
        after.partial_reductions - before.partial_reductions,
        2 * sets
    );
    assert_eq!(after.lines_reduced - before.lines_reduced, 2 * sets);
    // Each recalled dirty line and partial crosses the chip as data, and each
    // partial costs the reduction unit one line: what the same copies cost
    // as L2 victims (8 sets: 24 x 72 bytes and 16 x 3 cycles).
    let recall_bytes = charged[0] - idle.traffic().onchip_bytes;
    assert_eq!(recall_bytes, 3 * sets * DATA_MSG_BYTES);
    let recall_cycles = charged[3] - idle.reduction_cycles();
    assert_eq!(
        recall_cycles,
        2 * sets * cfg.reduction_unit.latency_per_line()
    );
    for i in 0..sets {
        for (core, byte) in [(0, dirty(i)), (1, partial(i)), (2, partial(i))] {
            assert_eq!(held(&m, core, byte), (false, None));
        }
        assert_eq!(m.peek(dirty(i)), 40 + i);
        assert_eq!(m.peek(partial(i)), 110);
    }
}

#[test]
fn eviction_of_update_only_copy_is_a_partial_reduction() {
    // Fig. 5c: core 0's partial is reduced into memory, core 1 keeps its own.
    let mut m = sys(2, ProtocolKind::Meusi);
    let c = AccessType::CommutativeUpdate(ADD);
    m.poke(0x100, 10);
    let _ = m.access(0, 0, c, 0x100, 1);
    let _ = m.access(1, 0, c, 0x100, 2);
    let _ = m.access(0, 0, c, 0x100, 4);
    let line = LineAddr::containing(0x100);
    let latency = m.cfg.reduction_unit.latency_per_line();
    let charged = charges(&mut m, |m| m.evict(0, line, None));
    assert_eq!(charged, [DATA_MSG_BYTES, 0, 1, latency]);
    let entry = m.record(line).entry;
    assert_eq!(entry.mode(), DirMode::UpdateOnly(ADD));
    assert_eq!(entry.sharers().sole_member(), Some(1));
    assert_eq!(state_of(&m, 0, 0x100), None);
    assert_eq!(m.record(line).data.word(0), 15);
    assert_eq!(m.peek(0x100), 17);
}

#[test]
fn eviction_of_last_updater_leaves_line_uncached() {
    let mut m = sys(2, ProtocolKind::Meusi);
    let c = AccessType::CommutativeUpdate(ADD);
    let _ = m.access(0, 0, c, 0x100, 1);
    let _ = m.access(1, 0, c, 0x100, 2);
    let line = LineAddr::containing(0x100);
    m.evict(1, line, None);
    m.evict(0, line, None);
    assert_eq!(m.record(line).entry, DirectoryEntry::uncached());
    assert_eq!(m.record(line).data.word(0), 3);
}

#[test]
fn eviction_of_modified_copy_writes_back() {
    let mut m = sys(1, ProtocolKind::Mesi);
    let _ = m.access(0, 0, AccessType::Write, 0x40, 99);
    let line = LineAddr::containing(0x40);
    let charged = charges(&mut m, |m| m.evict(0, line, None));
    assert_eq!(charged, [DATA_MSG_BYTES, 1, 0, 0]);
    assert_eq!(m.record(line).entry, DirectoryEntry::uncached());
    assert_eq!(m.record(line).data.word(0), 99);
}

#[test]
fn only_a_modified_owner_writes_back_on_intervention() {
    let (read, write) = (AccessType::Read, AccessType::Write);
    // Core 0's access leaves it the owner, E after a read and M after a
    // write; core 1's downgrades (read) or invalidates (write) that copy.
    for (owned, taken, dirty) in [
        (read, read, 0),
        (read, write, 0),
        (write, read, 1),
        (write, write, 1),
    ] {
        let mut m = sys(2, ProtocolKind::Mesi);
        let _ = m.access(0, 0, owned, 0x40, 7);
        let before = m.protocol_stats();
        let _ = m.access(1, 0, taken, 0x40, 9);
        let after = m.protocol_stats();
        assert_eq!(after.owner_interventions - before.owner_interventions, 1);
        assert_eq!(
            after.writebacks - before.writebacks,
            dirty,
            "{owned} then {taken}"
        );
    }
}

#[test]
fn eviction_of_clean_copies_drops() {
    let mut m = sys(3, ProtocolKind::Mesi);
    let _ = m.access(0, 0, AccessType::Read, 0x80, 0);
    let _ = m.access(1, 0, AccessType::Read, 0x80, 0);
    let line = LineAddr::containing(0x80);
    let charged = charges(&mut m, |m| m.evict(1, line, None));
    assert_eq!(charged, [CTRL_MSG_BYTES, 0, 0, 0]);
    let entry = m.record(line).entry;
    assert_eq!(entry.mode(), DirMode::ReadOnly);
    assert_eq!(entry.sharers().sole_member(), Some(0));
    // A clean exclusive copy carries no data either.
    let _ = m.access(2, 0, AccessType::Read, 0xC0, 0);
    assert_eq!(state_of(&m, 2, 0xC0), Some(PrivateState::Exclusive));
    let line = LineAddr::containing(0xC0);
    let charged = charges(&mut m, |m| m.evict(2, line, None));
    assert_eq!(charged, [CTRL_MSG_BYTES, 0, 0, 0]);
    assert_eq!(m.record(line).entry, DirectoryEntry::uncached());
}

#[test]
#[should_panic(expected = "cannot evict an invalid line")]
fn evicting_invalid_line_panics() {
    let mut m = sys(1, ProtocolKind::Mesi);
    m.evict(0, LineAddr::containing(0x40), None);
}

#[test]
fn recall_of_update_only_line_reduces_every_partial() {
    let mut m = one_line_l3(3, ProtocolKind::Meusi);
    let c = AccessType::CommutativeUpdate(ADD);
    for core in [0, 1, 2, 0] {
        let _ = m.access(core, 0, c, 0x100, 1);
    }
    assert_eq!(state_of(&m, 0, 0x100), Some(PrivateState::UpdateOnly(ADD)));
    let latency = m.cfg.reduction_unit.latency_per_line();
    let charged = charges(&mut m, |m| m.install_in_l3(0, LineAddr::containing(0x1000)));
    assert_eq!(charged, [3 * DATA_MSG_BYTES, 0, 3, 3 * latency]);
    let line = LineAddr::containing(0x100);
    assert_eq!(m.record(line).entry, DirectoryEntry::uncached());
    assert_eq!(m.record(line).data.word(0), 4);
    assert!((0..3).all(|core| state_of(&m, core, 0x100).is_none()));
}

#[test]
fn recall_of_read_only_and_exclusive_lines() {
    let mut m = one_line_l3(3, ProtocolKind::Mesi);
    let other = LineAddr::containing(0x1000);
    // Two readers each drop their copy for a control message.
    let _ = m.access(0, 0, AccessType::Read, 0x100, 0);
    let _ = m.access(1, 0, AccessType::Read, 0x100, 0);
    let charged = charges(&mut m, |m| m.install_in_l3(0, other));
    assert_eq!(charged, [2 * CTRL_MSG_BYTES, 0, 0, 0]);
    // So does a clean exclusive owner: it has nothing to write back.
    let _ = m.access(2, 0, AccessType::Read, 0x140, 0);
    assert_eq!(state_of(&m, 2, 0x140), Some(PrivateState::Exclusive));
    let charged = charges(&mut m, |m| m.install_in_l3(0, other));
    assert_eq!(charged, [CTRL_MSG_BYTES, 0, 0, 0]);
    // A Modified owner writes its data back.
    let _ = m.access(2, 0, AccessType::Write, 0x180, 7);
    let charged = charges(&mut m, |m| m.install_in_l3(0, other));
    assert_eq!(charged, [DATA_MSG_BYTES, 1, 0, 0]);
    for byte in [0x100, 0x140, 0x180] {
        let line = LineAddr::containing(byte);
        assert_eq!(m.record(line).entry, DirectoryEntry::uncached());
        assert!((0..3).all(|core| state_of(&m, core, byte).is_none()));
    }
    assert_eq!(m.peek(0x180), 7);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_core_panics() {
    let mut m = sys(1, ProtocolKind::Mesi);
    let _ = m.access(1, 0, AccessType::Read, 0, 0);
}
