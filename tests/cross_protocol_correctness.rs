//! Cross-crate integration tests: every evaluation workload must produce the
//! correct (sequentially-verified) result under both the baseline MESI
//! protocol and COUP's MEUSI, at several core counts — i.e. COUP never loses
//! or duplicates an update and never lets a stale value be observed.

use coup::experiments::{paper_workloads, Scale};
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_sim::stats::RunStats;
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

/// Simulated time is a pure function of workload, configuration and protocol:
/// a change that moves one app's `[MESI cycles, MESI accesses, MEUSI cycles,
/// MEUSI accesses]` on `cfg` changed what the simulator models. `events`
/// pins the same runs' [`event_counts`], MESI then MEUSI for each app in turn.
fn check_committed_cycle_counts(
    cfg: SystemConfig,
    golden: [(&str, [u64; 4]); 5],
    events: [[u64; 14]; 10],
) {
    let workloads = paper_workloads(Scale::Small);
    assert_eq!(workloads.len(), golden.len());
    let runs = workloads.iter().zip(golden).zip(events.chunks(2));
    for (((name, workload), (app, golden)), events) in runs {
        assert_eq!(*name, app);
        let (mesi, meusi) = compare_protocols(cfg, workload.as_ref()).unwrap();
        let counts = [mesi.cycles, mesi.accesses, meusi.cycles, meusi.accesses];
        assert_eq!(counts, golden, "{app}");
        assert_eq!([event_counts(&mesi), event_counts(&meusi)], events, "{app}");
    }
}

/// A run's coherence events: its `ProtocolStats` in declaration order, then
/// its `TrafficStats` (off-chip, on-chip and memory bytes), then its
/// reduction-unit cycles.
fn event_counts(run: &RunStats) -> [u64; 14] {
    let (p, t) = (run.protocol, run.traffic);
    [
        p.silent_grants,
        p.invalidating_grants,
        p.copies_invalidated,
        p.owner_interventions,
        p.full_reductions,
        p.partial_reductions,
        p.lines_reduced,
        p.local_commutative_hits,
        p.update_only_grants,
        p.writebacks,
        t.offchip_bytes,
        t.onchip_bytes,
        t.memory_bytes,
        run.reduction_cycles,
    ]
}

#[test]
fn paper_workloads_reproduce_the_committed_cycle_counts() {
    let golden = [
        ("hist", [48_532, 8_000, 16_108, 8_000]),
        ("spmv", [17_383, 3_576, 14_821, 3_576]),
        ("pgrank", [36_500, 4_232, 11_339, 4_232]),
        ("bfs", [79_663, 11_011, 76_306, 11_012]),
        ("fluidanimate", [6_989, 4_576, 6_989, 4_576]),
    ];
    #[rustfmt::skip] // one run per line
    let events = [
        // hist: MESI, MEUSI
        [282, 3502, 0, 3502, 0, 0, 0, 0, 0, 3496, 22560, 86304, 20304, 0],
        [474, 38, 0, 38, 0, 0, 0, 3737, 256, 32, 22560, 4704, 20304, 0],
        // spmv: MESI, MEUSI
        [299, 362, 0, 362, 0, 0, 0, 0, 0, 349, 23920, 11080, 21528, 0],
        [345, 37, 0, 37, 0, 0, 0, 641, 94, 24, 23920, 3648, 21528, 0],
        // pgrank: MESI, MEUSI
        [150, 3133, 0, 3133, 0, 0, 0, 0, 0, 3126, 12000, 76392, 10800, 0],
        [593, 82, 0, 82, 0, 0, 0, 3024, 593, 75, 12000, 6712, 10800, 0],
        // bfs: MESI, MEUSI
        [1976, 1848, 1942, 1228, 0, 0, 0, 0, 0, 766, 48320, 83968, 43488, 0],
        [2322, 1739, 1516, 464, 638, 0, 796, 0, 796, 2, 48320, 130504, 43488, 2230],
        // fluidanimate: MESI, MEUSI
        [96, 14, 0, 14, 0, 0, 0, 0, 0, 14, 7680, 1104, 6912, 0],
        [96, 14, 0, 14, 0, 0, 0, 322, 28, 14, 7680, 1104, 6912, 0],
    ];
    let cfg = SystemConfig::test_system(8, ProtocolKind::Mesi);
    check_committed_cycle_counts(cfg, golden, events);
}

#[test]
fn paper_workloads_on_the_paper_geometry_reproduce_the_committed_cycle_counts() {
    // Table 1's cache geometry, the 16-core machine `sim_paper16` simulates.
    let golden = [
        ("hist", [35_448, 8_000, 8_651, 8_000]),
        ("spmv", [10_348, 3_576, 7_873, 3_576]),
        ("pgrank", [29_652, 4_232, 6_715, 4_232]),
        ("bfs", [72_206, 11_719, 63_842, 11_721]),
        ("fluidanimate", [3_647, 4_576, 3_647, 4_576]),
    ];
    #[rustfmt::skip] // one run per line
    let events = [
        // hist: MESI, MEUSI
        [282, 3749, 0, 3749, 0, 0, 0, 0, 0, 3735, 22560, 92232, 20304, 0],
        [728, 46, 0, 46, 0, 0, 0, 3487, 510, 32, 22560, 6928, 20304, 0],
        // spmv: MESI, MEUSI
        [299, 449, 0, 449, 0, 0, 0, 0, 0, 421, 23920, 13168, 21528, 0],
        [398, 67, 0, 67, 0, 0, 0, 776, 177, 39, 23920, 4792, 21528, 0],
        // pgrank: MESI, MEUSI
        [150, 3319, 0, 3319, 0, 0, 0, 0, 0, 3307, 12000, 80856, 10800, 0],
        [1072, 87, 0, 87, 0, 0, 0, 2554, 1072, 75, 12000, 10664, 10800, 0],
        // bfs: MESI, MEUSI
        [2448, 1923, 2448, 1301, 0, 0, 0, 0, 0, 786, 48320, 94952, 43488, 0],
        [2751, 1758, 1926, 517, 621, 0, 809, 0, 809, 2, 48320, 139880, 43488, 2239],
        // fluidanimate: MESI, MEUSI
        [96, 30, 0, 30, 0, 0, 0, 0, 0, 30, 7680, 1488, 6912, 0],
        [96, 30, 0, 30, 0, 0, 0, 690, 60, 30, 7680, 1488, 6912, 0],
    ];
    let cfg = SystemConfig::paper_system(16, ProtocolKind::Mesi);
    check_committed_cycle_counts(cfg, golden, events);
}

#[test]
fn paper_workloads_under_cache_pressure_reproduce_the_committed_cycle_counts() {
    // `test_system(8)` with a 4 KiB L2 and a 16 KiB L3: L2 victims write back
    // and partially reduce, and the inclusive L3 recalls live private copies
    // (Modified, Exclusive and update-only ones), which the two runs above
    // never do.
    let golden = [
        ("hist", [48_532, 8_000, 16_948, 8_000]),
        ("spmv", [17_536, 3_576, 14_909, 3_576]),
        ("pgrank", [36_500, 4_232, 12_338, 4_232]),
        ("bfs", [83_254, 11_012, 80_509, 11_011]),
        ("fluidanimate", [6_989, 4_576, 6_989, 4_576]),
    ];
    #[rustfmt::skip] // one run per line
    let events = [
        // hist: MESI, MEUSI
        [282, 3502, 0, 3502, 0, 0, 0, 0, 0, 3496, 22560, 86512, 20304, 0],
        [575, 55, 0, 55, 0, 135, 135, 3617, 374, 49, 23920, 15848, 20304, 405],
        // spmv: MESI, MEUSI
        [308, 356, 0, 356, 0, 0, 0, 0, 0, 358, 24640, 11952, 21528, 0],
        [355, 27, 0, 27, 0, 8, 8, 641, 92, 28, 24640, 4856, 21528, 24],
        // pgrank: MESI, MEUSI
        [152, 3132, 0, 3132, 0, 0, 0, 0, 0, 3127, 12000, 76552, 10800, 0],
        [897, 75, 0, 75, 0, 408, 408, 2726, 889, 76, 12000, 38840, 10800, 1224],
        // bfs: MESI, MEUSI
        [2177, 1700, 1924, 1080, 0, 0, 0, 0, 0, 769, 71200, 86632, 43488, 0],
        [2521, 1594, 1508, 311, 642, 0, 795, 0, 795, 2, 71280, 133176, 43488, 2232],
        // fluidanimate: MESI, MEUSI
        [96, 14, 0, 14, 0, 0, 0, 0, 0, 14, 7680, 1104, 6912, 0],
        [96, 14, 0, 14, 0, 0, 0, 322, 28, 14, 7680, 1104, 6912, 0],
    ];
    // The pressure this golden exists for: some partial reduction, and more
    // writebacks than owner interventions account for.
    assert!(events.iter().any(|run| run[5] > 0));
    assert!(events.iter().any(|run| run[9] > run[3]));
    let mut cfg = SystemConfig::test_system(8, ProtocolKind::Mesi);
    cfg.capacity.l2_bytes = 4 * 1024;
    cfg.capacity.l3_bytes = 16 * 1024;
    check_committed_cycle_counts(cfg, golden, events);
}
