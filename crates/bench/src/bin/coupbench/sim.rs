//! `sim_paper16`: the simulator half. The five paper workloads under MESI and
//! MEUSI on the 16-core paper system — single-threaded and deterministic. It
//! exercises none of the runtime, and guards the `coup-protocol` arithmetic
//! both halves share.
//!
//! Two clocks: *host* time is what the simulator takes to run (noisy, gated
//! as accesses per host second); *simulated* time is the cycle count of the
//! modelled machine (repeats exactly for a seed, compared exactly).

use std::time::Instant;

use coup::experiments::{paper_workloads, Scale};
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_sim::machine::Machine;
use coup_workloads::Workload;

use crate::pairs::{
    account, rates, run_pairs, speedup, summaries, unrated_pair, Budget, Side, TrialSummary,
};
use crate::report::{Outcome, SIM_APPS};
use crate::span::Tracer;
use crate::stats::{geomean, median};
use crate::SetupClock;

/// Cores of the simulated system.
const CORES: usize = 16;

/// The workloads, keyed by the paper's application names.
pub type Apps = Vec<(&'static str, Box<dyn Workload>)>;

/// What simulating one application under one protocol took and produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppRun {
    /// Host seconds in `Workload::init`.
    pub init_s: f64,
    /// Host seconds in `Workload::programs`.
    pub programs_s: f64,
    /// Host seconds in `Machine::run`.
    pub run_s: f64,
    /// Host seconds in `Workload::verify`.
    pub verify_s: f64,
    /// Simulated cycles (makespan).
    pub cycles: u64,
    /// Simulated memory accesses.
    pub accesses: u64,
}

/// One repetition of one protocol: all five applications.
#[derive(Debug, Clone, Default)]
pub struct SimTrial {
    /// Rate, failures and exact counts.
    pub summary: TrialSummary,
    /// Per application, in [`SIM_APPS`] order.
    pub apps: Vec<AppRun>,
}

/// Builds the paper workloads at `scale`, checking the application names the
/// metric names are derived from.
pub fn build_apps(scale: Scale) -> Apps {
    let apps = paper_workloads(scale);
    let names: Vec<&str> = apps.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, SIM_APPS,
        "paper_workloads changed its application set"
    );
    apps
}

/// Runs `f` as the leaf span `name`; returns its result and host seconds.
fn timed<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = tracer.leaf(name, f);
    (result, started.elapsed().as_secs_f64())
}

/// Simulates every application under `side`'s protocol, calling
/// `Machine::new`, `Workload::init`, `Machine::run` and `Workload::verify`
/// itself so each is its own span.
pub fn run_trial(apps: &Apps, side: Side, seed: u64, tracer: &mut Tracer) -> SimTrial {
    tracer.next_trial();
    let protocol = match side {
        Side::Atomic => ProtocolKind::Mesi,
        Side::Coup => ProtocolKind::Meusi,
    };
    let cfg = SystemConfig::paper_system(CORES, protocol).with_seed(seed);
    let started = Instant::now();
    let mut trial = SimTrial::default();
    tracer.span("trial", |tracer| {
        for (name, workload) in apps {
            let mut machine = tracer.leaf("sim.machine_new", || Machine::new(cfg));
            let mut run = AppRun::default();
            ((), run.init_s) = timed(tracer, "workloads.sim_init", || {
                workload.init(machine.memory())
            });
            let programs;
            (programs, run.programs_s) = timed(tracer, "workloads.sim_programs", || {
                workload.programs(CORES)
            });
            let stats;
            (stats, run.run_s) = timed(tracer, "sim.run", || machine.run(programs));
            let verdict;
            (verdict, run.verify_s) = timed(tracer, "workloads.sim_verify", || {
                workload.verify(machine.memory(), CORES)
            });
            run.cycles = stats.cycles;
            run.accesses = stats.accesses;
            trial.summary.attempted += stats.accesses;
            if let Err(error) = verdict {
                // A verification failure fails every access of that run.
                trial.summary.failed += stats.accesses;
                trial.summary.error = Some(format!("sim {name} under {protocol}: {error}"));
            }
            trial.summary.exact.push(("sim.cycles", run.cycles));
            trial.summary.exact.push(("sim.accesses", run.accesses));
            trial.apps.push(run);
            // Freeing the simulated memory is part of a run's host time.
            tracer.leaf("sim.machine_drop", || drop(machine));
        }
    });
    trial.summary.mops = trial.summary.attempted as f64 / started.elapsed().as_secs_f64() / 1e6;
    trial
}

/// Geomean over the applications of MESI cycles / MEUSI cycles: simulated
/// time, the paper's headline, exact for a seed.
fn speedup_geomean(mesi: &SimTrial, meusi: &SimTrial) -> f64 {
    let ratios: Vec<f64> = mesi
        .apps
        .iter()
        .zip(&meusi.apps)
        .map(|(a, c)| a.cycles as f64 / c.cycles as f64)
        .collect();
    geomean(&ratios)
}

/// The untraced pass. Here `coup_mops` / `atomic_mops` are simulated
/// accesses per host second under MEUSI / MESI, and `speedup_vs_atomic` is
/// their per-repetition ratio — host time throughout. The simulated-time
/// speed-up is `sim_speedup_geomean`.
pub fn measure(seed: u64, budget: Budget, scale: Scale) -> Outcome {
    let set_up = || {
        // Input synthesis, then the quickest sizeable application (spmv)
        // under both protocols as the warm-up: allocator, page faults,
        // instruction cache.
        let mut apps = build_apps(scale);
        let warm_up = vec![apps.remove(1)];
        let mut warm = Outcome::default();
        unrated_pair(&mut warm, |side| {
            run_trial(&warm_up, side, seed, &mut Tracer::disabled()).summary
        });
        apps.splice(1..1, warm_up);
        (apps, warm)
    };
    let mut clock = SetupClock::default();
    let (apps, mut outcome) = clock.first(set_up);
    let pairs = run_pairs(
        budget,
        |side| run_trial(&apps, side, seed, &mut Tracer::disabled()),
        || drop(clock.rep(set_up)),
    );
    let folded = summaries(&pairs, |t| &t.summary);
    rates(&folded, &mut outcome);
    speedup(&folded, &mut outcome);
    account(&folded, &mut outcome);
    let (mesi, meusi) = pairs.last().expect("at least one repetition");
    let accesses = (mesi.summary.attempted + meusi.summary.attempted) as f64;
    let mut both: Vec<f64> = pairs
        .iter()
        .map(|(a, c)| {
            accesses
                / (a.summary.attempted as f64 / a.summary.mops
                    + c.summary.attempted as f64 / c.summary.mops)
        })
        .collect();
    outcome.metrics.set("sim_maccess_per_s", median(&mut both));
    outcome
        .metrics
        .set("sim_speedup_geomean", speedup_geomean(mesi, meusi));
    outcome.metrics.set("setup_s", clock.setup_s());
    outcome
}

/// The traced pass: host time per application and stage, and the simulated
/// counts, which must repeat exactly.
pub fn trace(seed: u64, budget: Budget, scale: Scale, tracer: &mut Tracer) -> Outcome {
    let apps = build_apps(scale);
    let mut outcome = Outcome::default();
    let pairs = run_pairs(budget, |side| run_trial(&apps, side, seed, tracer), || {});
    account(&summaries(&pairs, |t| &t.summary), &mut outcome);
    let (mesi, meusi) = pairs.last().expect("at least one repetition");
    let over = |f: &dyn Fn(&SimTrial) -> f64| {
        let mut values: Vec<f64> = pairs.iter().flat_map(|(a, c)| [f(a), f(c)]).collect();
        median(&mut values)
    };
    let m = &mut outcome.metrics;
    for (i, app) in SIM_APPS.iter().enumerate() {
        m.set(format!("sim.run_s.{app}"), over(&|t| t.apps[i].run_s));
        m.set(format!("sim.cycles_mesi.{app}"), mesi.apps[i].cycles as f64);
        m.set(
            format!("sim.cycles_meusi.{app}"),
            meusi.apps[i].cycles as f64,
        );
        m.set(format!("sim.accesses.{app}"), meusi.apps[i].accesses as f64);
    }
    let total = |f: fn(&AppRun) -> f64| over(&|t| t.apps.iter().map(f).sum());
    m.set("workloads.sim_init_s", total(|a| a.init_s));
    m.set("workloads.sim_programs_s", total(|a| a.programs_s));
    m.set("workloads.sim_verify_s", total(|a| a.verify_s));
    outcome
}
