//! Cross-crate integration tests: every evaluation workload must produce the
//! correct (sequentially-verified) result under both the baseline MESI
//! protocol and COUP's MEUSI, at several core counts — i.e. COUP never loses
//! or duplicates an update and never lets a stale value be observed.

use coup::experiments::{paper_workloads, Scale};
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_workloads::bfs::BfsWorkload;
use coup_workloads::fluid::FluidWorkload;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::pgrank::PageRankWorkload;
use coup_workloads::refcount::{DelayedRefcount, DelayedScheme, ImmediateRefcount, RefcountScheme};
use coup_workloads::runner::{compare_protocols, run_workload, Workload};
use coup_workloads::spmv::SpmvWorkload;

fn check_all_protocols(workload: &dyn Workload, core_counts: &[usize]) {
    for &cores in core_counts {
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            let cfg = SystemConfig::test_system(cores, protocol);
            run_workload(cfg, workload).unwrap_or_else(|e| {
                panic!(
                    "{} failed under {protocol} at {cores} cores: {e}",
                    workload.name()
                )
            });
        }
    }
}

#[test]
fn histogram_is_correct_across_protocols_and_core_counts() {
    check_all_protocols(
        &HistWorkload::new(3_000, 128, HistScheme::Shared, 1),
        &[1, 3, 8],
    );
    check_all_protocols(
        &HistWorkload::new(2_000, 64, HistScheme::CoreLevelPrivate, 2),
        &[2, 8],
    );
    check_all_protocols(
        &HistWorkload::new(2_000, 64, HistScheme::SocketLevelPrivate, 3),
        &[4, 17],
    );
}

#[test]
fn spmv_is_correct_across_protocols_and_core_counts() {
    check_all_protocols(&SpmvWorkload::new(200, 6, 4), &[1, 4, 7]);
}

#[test]
fn pagerank_is_correct_across_protocols_and_core_counts() {
    check_all_protocols(&PageRankWorkload::new(400, 6, 2, 5), &[1, 4, 8]);
}

#[test]
fn bfs_is_correct_across_protocols_and_core_counts() {
    check_all_protocols(&BfsWorkload::new(600, 6, 6), &[1, 3, 8]);
}

#[test]
fn fluid_grid_is_correct_across_protocols_and_core_counts() {
    check_all_protocols(&FluidWorkload::new(20, 12, 2), &[1, 4, 8]);
}

#[test]
fn refcount_schemes_are_correct_across_protocols() {
    check_all_protocols(
        &ImmediateRefcount::new(32, 200, false, RefcountScheme::Coup, 7),
        &[2, 8],
    );
    check_all_protocols(
        &ImmediateRefcount::new(32, 200, true, RefcountScheme::Snzi, 8),
        &[2, 8],
    );
    check_all_protocols(
        &DelayedRefcount::new(64, 2, 30, DelayedScheme::CoupBitmap, 9),
        &[2, 8],
    );
    check_all_protocols(
        &DelayedRefcount::new(64, 2, 30, DelayedScheme::Refcache, 10),
        &[2, 8],
    );
}

#[test]
fn coup_wins_on_update_heavy_workloads_at_scale() {
    // The headline claim, in miniature: on the update-heavy workloads COUP is
    // at least as fast as MESI once several cores contend, and strictly faster
    // on the most contended ones.
    let cores = 16;
    let cfg = SystemConfig::test_system(cores, ProtocolKind::Mesi);

    let hist = HistWorkload::new(6_000, 512, HistScheme::Shared, 21);
    let (mesi, meusi) = compare_protocols(cfg, &hist).unwrap();
    assert!(
        meusi.cycles < mesi.cycles,
        "COUP should beat MESI on hist: {} vs {}",
        meusi.cycles,
        mesi.cycles
    );
    assert!(meusi.traffic.offchip_bytes <= mesi.traffic.offchip_bytes);

    let pgrank = PageRankWorkload::new(800, 8, 1, 22);
    let (mesi, meusi) = compare_protocols(cfg, &pgrank).unwrap();
    assert!(
        meusi.cycles <= mesi.cycles,
        "COUP should not lose on pgrank: {} vs {}",
        meusi.cycles,
        mesi.cycles
    );
}

#[test]
fn paper_workloads_reproduce_the_committed_cycle_counts() {
    // Simulated time is a pure function of the workload, the configuration
    // and the protocol. Per app: MESI cycles and accesses, then MEUSI's. A
    // change that moves any of these changed what the simulator models.
    const GOLDEN: [(&str, [u64; 4]); 5] = [
        ("hist", [48_532, 8_000, 16_108, 8_000]),
        ("spmv", [17_383, 3_576, 14_821, 3_576]),
        ("pgrank", [36_500, 4_232, 11_339, 4_232]),
        ("bfs", [79_663, 11_011, 76_306, 11_012]),
        ("fluidanimate", [6_989, 4_576, 6_989, 4_576]),
    ];
    let workloads = paper_workloads(Scale::Small);
    assert_eq!(workloads.len(), GOLDEN.len());
    let cfg = SystemConfig::test_system(8, ProtocolKind::Mesi);
    for ((name, workload), (app, golden)) in workloads.iter().zip(GOLDEN) {
        assert_eq!(*name, app);
        let (mesi, meusi) = compare_protocols(cfg, workload.as_ref()).unwrap();
        assert_eq!(
            [mesi.cycles, mesi.accesses, meusi.cycles, meusi.accesses],
            golden,
            "{app}"
        );
    }
}
