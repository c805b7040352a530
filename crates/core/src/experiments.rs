//! Experiment drivers: one function per table/figure of the paper's
//! evaluation.
//!
//! Each driver takes a [`Scale`] so the same code can run quickly in tests and
//! CI (`Scale::Small`) or at a size closer to the paper's inputs
//! (`Scale::Paper`). The `coup-bench` crate's binaries call these and print
//! the resulting rows; EXPERIMENTS.md records the measured shapes next to the
//! paper's.

use coup_protocol::reduction::ReductionUnitConfig;
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_sim::stats::RunStats;
use coup_verify::checker::{explore, Exploration, Limits};
use coup_verify::model::ModelConfig;
use coup_workloads::bfs::BfsWorkload;
use coup_workloads::fluid::FluidWorkload;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::pgrank::PageRankWorkload;
use coup_workloads::refcount::{DelayedRefcount, DelayedScheme, ImmediateRefcount, RefcountScheme};
use coup_workloads::runner::{compare_protocols, run_workload, Workload};
use coup_workloads::spmv::SpmvWorkload;

/// How big to make each experiment's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs and few cores: seconds per experiment, used by tests and
    /// the `fig*` binaries' default runs.
    Small,
    /// Larger inputs and the paper's core counts: minutes per experiment,
    /// used by the `fig*` binaries when passed `--paper`.
    Paper,
}

impl Scale {
    fn core_counts(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1, 4, 8, 16, 32],
            Scale::Paper => vec![1, 16, 32, 64, 96, 128],
        }
    }

    fn system(self, cores: usize, protocol: ProtocolKind) -> SystemConfig {
        match self {
            Scale::Small => SystemConfig::test_system(cores, protocol),
            Scale::Paper => SystemConfig::paper_system(cores, protocol),
        }
    }

    fn hist_pixels(self) -> usize {
        match self {
            Scale::Small => 6_000,
            Scale::Paper => 200_000,
        }
    }
}

/// One (x, MESI, MEUSI) measurement of a scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// The x-axis value (core count, bin count, updates per epoch, …).
    pub x: usize,
    /// Baseline (MESI) statistics.
    pub mesi: RunStats,
    /// COUP (MEUSI) statistics.
    pub meusi: RunStats,
}

impl ScalingPoint {
    /// COUP's speedup over MESI at this point.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.meusi.speedup_over(&self.mesi)
    }
}

/// The five benchmark workloads of Table 2, at the given scale, keyed by name.
#[must_use]
pub fn paper_workloads(scale: Scale) -> Vec<(&'static str, Box<dyn Workload>)> {
    match scale {
        Scale::Small => vec![
            (
                "hist",
                Box::new(HistWorkload::new(4_000, 512, HistScheme::Shared, 11)),
            ),
            ("spmv", Box::new(SpmvWorkload::new(400, 6, 12))),
            ("pgrank", Box::new(PageRankWorkload::new(600, 6, 1, 13))),
            ("bfs", Box::new(BfsWorkload::new(800, 6, 14))),
            ("fluidanimate", Box::new(FluidWorkload::new(96, 16, 1))),
        ],
        Scale::Paper => vec![
            (
                "hist",
                Box::new(HistWorkload::new(200_000, 512, HistScheme::Shared, 11)),
            ),
            ("spmv", Box::new(SpmvWorkload::new(4_000, 10, 12))),
            ("pgrank", Box::new(PageRankWorkload::new(10_000, 12, 1, 13))),
            ("bfs", Box::new(BfsWorkload::new(20_000, 10, 14))),
            ("fluidanimate", Box::new(FluidWorkload::new(128, 64, 1))),
        ],
    }
}

/// Fig. 2: histogram performance as the number of bins grows, comparing COUP,
/// the shared/atomic implementation, and core-level software privatization at
/// a fixed core count.
#[must_use]
pub fn fig2_histogram_bins(scale: Scale, cores: usize) -> Vec<(usize, f64, f64, f64)> {
    let bins_sweep: Vec<u32> = match scale {
        Scale::Small => vec![32, 128, 512, 2_048],
        Scale::Paper => vec![32, 128, 512, 2_048, 8_192, 32_768],
    };
    let pixels = scale.hist_pixels();
    let mut rows = Vec::new();
    let mut reference_cycles: Option<f64> = None;
    for bins in bins_sweep {
        let cfg = scale.system(cores, ProtocolKind::Meusi);
        let coup = run_workload(
            cfg,
            &HistWorkload::new(pixels, bins, HistScheme::Shared, 21),
        )
        .unwrap();
        let atomics = run_workload(
            cfg.with_protocol(ProtocolKind::Mesi),
            &HistWorkload::new(pixels, bins, HistScheme::Shared, 21),
        )
        .unwrap();
        let privatized = run_workload(
            cfg.with_protocol(ProtocolKind::Mesi),
            &HistWorkload::new(pixels, bins, HistScheme::CoreLevelPrivate, 21),
        )
        .unwrap();
        // Performance relative to COUP at the smallest bin count (as in Fig. 2).
        let reference = *reference_cycles.get_or_insert(coup.cycles as f64);
        rows.push((
            bins as usize,
            reference / coup.cycles as f64,
            reference / atomics.cycles as f64,
            reference / privatized.cycles as f64,
        ));
    }
    rows
}

/// Fig. 8: exhaustive-verification cost (reachable states and time) for MESI
/// and MEUSI as the number of commutative-update types grows.
#[must_use]
pub fn fig8_verification(scale: Scale, three_level: bool) -> Vec<(u8, Exploration, Exploration)> {
    let (cores, op_counts, limits) = match scale {
        Scale::Small => (
            2usize,
            vec![1u8, 2, 3],
            Limits {
                max_states: 300_000,
                max_millis: 30_000,
            },
        ),
        Scale::Paper => (
            3usize,
            vec![2u8, 6, 10, 14, 20],
            Limits {
                max_states: 4_000_000,
                max_millis: 240_000,
            },
        ),
    };
    op_counts
        .into_iter()
        .map(|ops| {
            let mk = |protocol| {
                if three_level {
                    ModelConfig::three_level(cores, protocol, ops)
                } else {
                    ModelConfig::two_level(cores, protocol, ops)
                }
            };
            let mesi = explore(mk(ProtocolKind::Mesi), limits);
            let meusi = explore(mk(ProtocolKind::Meusi), limits);
            (ops, mesi, meusi)
        })
        .collect()
}

/// `app` under MESI and MEUSI at each of `core_counts`.
fn scaling_points(scale: Scale, app: &str, core_counts: Vec<usize>) -> Vec<ScalingPoint> {
    let workloads = paper_workloads(scale);
    let (_, workload) = workloads
        .into_iter()
        .find(|(name, _)| *name == app)
        .expect("unknown application");
    core_counts
        .into_iter()
        .map(|cores| {
            let cfg = scale.system(cores, ProtocolKind::Mesi);
            let (mesi, meusi) = compare_protocols(cfg, workload.as_ref())
                .expect("workload must verify under both protocols");
            ScalingPoint {
                x: cores,
                mesi,
                meusi,
            }
        })
        .collect()
}

/// Fig. 10: per-application speedup of MESI and MEUSI over single-core MESI,
/// as the core count grows.
#[must_use]
pub fn fig10_speedups(scale: Scale, app: &str) -> Vec<ScalingPoint> {
    scaling_points(scale, app, scale.core_counts())
}

/// Fig. 11: AMAT breakdown of MESI and MEUSI at a set of core counts.
#[must_use]
pub fn fig11_amat(scale: Scale, app: &str) -> Vec<ScalingPoint> {
    let core_counts = match scale {
        Scale::Small => vec![4, 8, 32],
        Scale::Paper => vec![8, 32, 128],
    };
    scaling_points(scale, app, core_counts)
}

/// Fig. 12: hist under COUP vs. core-level and socket-level privatization, as
/// the core count grows, for a given bin count.
#[must_use]
pub fn fig12_privatization(scale: Scale, bins: u32) -> Vec<(usize, f64, f64, f64)> {
    let pixels = scale.hist_pixels();
    scale
        .core_counts()
        .into_iter()
        .map(|cores| {
            let cfg = scale.system(cores, ProtocolKind::Meusi);
            let coup = run_workload(
                cfg,
                &HistWorkload::new(pixels, bins, HistScheme::Shared, 33),
            )
            .unwrap();
            let core_priv = run_workload(
                cfg.with_protocol(ProtocolKind::Mesi),
                &HistWorkload::new(pixels, bins, HistScheme::CoreLevelPrivate, 33),
            )
            .unwrap();
            let socket_priv = run_workload(
                cfg.with_protocol(ProtocolKind::Mesi),
                &HistWorkload::new(pixels, bins, HistScheme::SocketLevelPrivate, 33),
            )
            .unwrap();
            (
                cores,
                coup.cycles as f64,
                core_priv.cycles as f64,
                socket_priv.cycles as f64,
            )
        })
        .collect()
}

/// Fig. 13a/b: immediate-deallocation reference counting — cycles taken by
/// COUP, XADD and SNZI at each core count.
#[must_use]
pub fn fig13_immediate(scale: Scale, high_count: bool) -> Vec<(usize, u64, u64, u64)> {
    let (counters, updates) = match scale {
        Scale::Small => (64, 300),
        Scale::Paper => (1_024, 20_000),
    };
    scale
        .core_counts()
        .into_iter()
        .map(|cores| {
            let cfg = scale.system(cores, ProtocolKind::Meusi);
            let coup = run_workload(
                cfg,
                &ImmediateRefcount::new(counters, updates, high_count, RefcountScheme::Coup, 5),
            )
            .unwrap();
            let xadd = run_workload(
                cfg.with_protocol(ProtocolKind::Mesi),
                &ImmediateRefcount::new(counters, updates, high_count, RefcountScheme::Xadd, 5),
            )
            .unwrap();
            let snzi = run_workload(
                cfg.with_protocol(ProtocolKind::Mesi),
                &ImmediateRefcount::new(counters, updates, high_count, RefcountScheme::Snzi, 5),
            )
            .unwrap();
            (cores, coup.cycles, xadd.cycles, snzi.cycles)
        })
        .collect()
}

/// Fig. 13c: delayed-deallocation reference counting — cycles taken by COUP
/// (counters + modified bitmap) and Refcache as the epoch length grows.
#[must_use]
pub fn fig13_delayed(scale: Scale, cores: usize) -> Vec<(usize, u64, u64)> {
    let (counters, epochs, sweep) = match scale {
        Scale::Small => (128usize, 2usize, vec![1usize, 10, 50]),
        Scale::Paper => (100_000, 3, vec![1, 10, 100, 1_000]),
    };
    sweep
        .into_iter()
        .map(|updates_per_epoch| {
            let cfg = scale.system(cores, ProtocolKind::Meusi);
            let coup = run_workload(
                cfg,
                &DelayedRefcount::new(
                    counters,
                    epochs,
                    updates_per_epoch,
                    DelayedScheme::CoupBitmap,
                    6,
                ),
            )
            .unwrap();
            let refcache = run_workload(
                cfg.with_protocol(ProtocolKind::Mesi),
                &DelayedRefcount::new(
                    counters,
                    epochs,
                    updates_per_epoch,
                    DelayedScheme::Refcache,
                    6,
                ),
            )
            .unwrap();
            (updates_per_epoch, coup.cycles, refcache.cycles)
        })
        .collect()
}

/// §5.5: sensitivity of COUP to reduction-unit throughput. Returns, per
/// application, the MEUSI cycles with the default 256-bit pipelined unit and
/// with the slow unpipelined 64-bit unit.
#[must_use]
pub fn sensitivity_reduction_unit(scale: Scale, cores: usize) -> Vec<(&'static str, u64, u64)> {
    paper_workloads(scale)
        .into_iter()
        .map(|(name, workload)| {
            let fast_cfg = scale.system(cores, ProtocolKind::Meusi);
            let slow_cfg = fast_cfg.with_reduction_unit(ReductionUnitConfig::slow_64bit());
            let fast = run_workload(fast_cfg, workload.as_ref()).unwrap();
            let slow = run_workload(slow_cfg, workload.as_ref()).unwrap();
            (name, fast.cycles, slow.cycles)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_small_scale_shows_coup_robustness() {
        let rows = fig2_histogram_bins(Scale::Small, 8);
        assert_eq!(rows.len(), 4);
        // At the largest bin count COUP must beat core-level privatization
        // (the crossover the paper highlights).
        let (_, coup, _atomics, privatized) = rows.last().copied().unwrap();
        assert!(
            coup > privatized,
            "COUP {coup} vs privatization {privatized}"
        );
    }

    #[test]
    fn fig10_speedup_curves_favour_coup_on_hist() {
        let points = fig10_speedups(Scale::Small, "hist");
        assert_eq!(points.len(), 5);
        let last = points.last().unwrap();
        assert!(
            last.speedup() >= 1.0,
            "COUP should not lose at scale: {}",
            last.speedup()
        );
        // Speedups are relative comparisons within a point; both runs did the
        // same number of commutative updates.
        assert_eq!(
            last.mesi.commutative_updates,
            last.meusi.commutative_updates
        );
    }

    #[test]
    fn fig11_amat_breakdown_is_populated() {
        let points = fig11_amat(Scale::Small, "pgrank");
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.mesi.amat() > 0.0);
            assert!(p.meusi.amat() > 0.0);
        }
        // At the largest core count COUP's AMAT should not exceed MESI's.
        let last = points.last().unwrap();
        assert!(last.meusi.amat() <= last.mesi.amat() * 1.05);
    }

    #[test]
    fn fig13_immediate_runs_all_three_schemes() {
        let rows = fig13_immediate(Scale::Small, false);
        assert_eq!(rows.len(), 5);
        for (_, coup, xadd, snzi) in rows {
            assert!(coup > 0 && xadd > 0 && snzi > 0);
        }
    }

    #[test]
    fn fig13_delayed_favours_coup() {
        let rows = fig13_delayed(Scale::Small, 8);
        for (_, coup, refcache) in rows {
            assert!(
                coup <= refcache,
                "COUP ({coup}) should beat Refcache ({refcache})"
            );
        }
    }

    #[test]
    fn sensitivity_to_reduction_unit_is_small() {
        // The paper reports <1% degradation; allow a loose bound at small scale.
        for (name, fast, slow) in sensitivity_reduction_unit(Scale::Small, 8) {
            let degradation = slow as f64 / fast as f64;
            assert!(
                degradation < 1.10,
                "{name}: slow reduction unit degraded performance by {degradation}"
            );
        }
    }

    #[test]
    fn fig8_small_scale_verifies_and_scales_in_ops() {
        let rows = fig8_verification(Scale::Small, false);
        assert_eq!(rows.len(), 3);
        for (ops, mesi, meusi) in &rows {
            assert!(mesi.outcome.is_clean(), "MESI dirty at {ops} ops");
            assert!(meusi.outcome.is_clean(), "MEUSI dirty at {ops} ops");
        }
        // MESI's state space is independent of the number of update types.
        assert_eq!(rows[0].1.states, rows[2].1.states);
        // MEUSI's grows with the number of update types.
        assert!(rows[2].2.states > rows[0].2.states);
    }

    #[test]
    fn workload_ops_match_table2() {
        let table = coup_workloads::characteristics::table2();
        for (name, workload) in paper_workloads(Scale::Small) {
            let row = table
                .iter()
                .find(|r| r.name == name || (r.name == "fldanim" && name == "fluidanimate"))
                .unwrap();
            assert_eq!(
                row.comm_op,
                workload.commutative_op(),
                "operation mismatch for {name}"
            );
        }
    }
}
