//! `coupbench`: the repository's benchmark — paired atomic/coup trials,
//! push→visible latency, and outside-in per-layer timing over seven named
//! workloads. See `README.md` beside this file for the workloads, the
//! metric → layer → workload table, the estimator rules and how to read a
//! trace file.
//!
//! ```text
//! coupbench all [--seed N] [--seconds S | --pairs N] [--workload NAME] [--trace 0|1]
//! coupbench calibrate [--seed N] [--seconds S | --pairs N] [--workload NAME]
//! coupbench --workload NAME --seed N --seconds S --trace 0|1    (the contract)
//! ```
//!
//! It generates its own op streams and drives only the public facade:
//! `RuntimeBuilder`, `CoupRuntime::{handle, drain, snapshot, run_workers,
//! telemetry, shutdown}`, `LaneHandle::{push, flush, read, read_stale}`,
//! `JobCtx`, `SharedStore`, `RuntimeBackend::execute`, `Machine`/`Workload`.

mod gen;
mod kernel;
mod layers;
mod pairs;
mod probe;
mod report;
mod sim;
mod span;
mod stats;
mod stream;
mod sys;
#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use coup::experiments::Scale;

use pairs::Budget;
use report::{contract_line, table, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use span::Tracer;
use stream::{StreamSpec, STREAMS};
use sys::{Knobs, FORBIDDEN_ENV};

/// Seconds of paired trials per workload without `--seconds`: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
/// The traced pass gets this share of the seconds the untraced pass gets in
/// `all`. A per-layer contract run gives its untraced headline trials and
/// its traced trials this share of `--seconds` each; the layers pass, a fixed
/// call count, takes about as long again at the default.
const TRACED_SHARE: f64 = 1.0 / 3.0;
/// Set-up repetitions before the first timed trial; one more follows every
/// timed pair.
const SETUP_REPS_FIRST: usize = 3;

/// How large every workload runs: full size, or the 1/1000 self-test scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Divisor of the stream workloads' op counts.
    pub stream_divisor: u64,
    /// Probes per `visible_probe` trial.
    pub probes: u64,
    /// Updates per thread of `kernel_refcount`.
    pub kernel_updates: usize,
    /// Input scale of `sim_paper16`.
    pub sim: Scale,
    /// Calls per loop of the layers pass.
    pub layer_calls: u64,
}

impl Sizes {
    /// The sizes the contract and `all` measure at.
    pub const FULL: Sizes = Sizes {
        stream_divisor: 1,
        probes: probe::PROBES_PER_TRIAL,
        kernel_updates: kernel::UPDATES_PER_THREAD,
        sim: Scale::Paper,
        layer_calls: layers::CALLS,
    };
}

/// Times a workload's set-up. Most set-ups take milliseconds, so one sample
/// would mostly be noise: the set-up runs [`SETUP_REPS_FIRST`] times before
/// the first timed trial and once more after every timed pair, so its
/// repetitions cover the whole run, and `setup_s` is their **lower
/// quartile**. On this box a neighbour slows the machine in bursts of
/// seconds to minutes; over 32 consecutive 13 s windows that ended in a two
/// minute burst, the median of the leading repetitions moved 10.7 -> 22.4 ms
/// and the median of all 11.0 -> 15.0 ms (+36 %), the lower quartile of all
/// 10.7 -> 13.0 ms (+21 %, inside the bound).
#[derive(Debug, Default)]
pub struct SetupClock {
    seconds: Vec<f64>,
}

impl SetupClock {
    /// Runs the leading repetitions of `set_up` and returns the last result.
    pub fn first<T>(&mut self, mut set_up: impl FnMut() -> T) -> T {
        for _ in 1..SETUP_REPS_FIRST {
            self.rep(&mut set_up);
        }
        self.rep(&mut set_up)
    }

    /// Runs and times one repetition of `set_up`.
    pub fn rep<T>(&mut self, mut set_up: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let artefact = set_up();
        self.seconds.push(started.elapsed().as_secs_f64());
        artefact
    }

    /// `setup_s`: the lower quartile of every repetition so far.
    pub fn setup_s(&self) -> f64 {
        let mut sorted = self.seconds.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 4]
    }
}

/// Median cost of one back-to-back `Instant::now()` pair: what a sampled
/// span's duration carries besides the call it wraps.
fn timer_overhead_ns() -> u64 {
    let mut pairs: Vec<u64> = (0..10_001)
        .map(|_| {
            let start = Instant::now();
            (Instant::now() - start).as_nanos() as u64
        })
        .collect();
    pairs.sort_unstable();
    pairs[pairs.len() / 2]
}

/// The untraced pass over one workload: every end-to-end metric, and the
/// headline figures that are reported without a bound.
pub fn measure_workload(
    name: &str,
    knobs: &Knobs,
    seed: u64,
    budget: Budget,
    sizes: &Sizes,
) -> Outcome {
    // One process may measure several workloads (`all`, `calibrate`): each
    // reports its own peak.
    sys::reset_peak_rss();
    let mut outcome = match name {
        "kernel_refcount" => kernel::measure(knobs, seed, budget, sizes.kernel_updates),
        "visible_probe" => probe::measure(knobs, seed, budget, sizes.probes),
        "sim_paper16" => sim::measure(seed, budget, sizes.sim),
        stream => stream::measure(&stream_spec(stream, sizes), knobs, seed, budget),
    };
    outcome.metrics.set("peak_rss_mib", sys::peak_rss_mib());
    outcome
}

/// The stream workload called `name`, at `sizes`.
fn stream_spec(name: &str, sizes: &Sizes) -> StreamSpec {
    STREAMS
        .iter()
        .find(|spec| spec.name == name)
        .unwrap_or_else(|| panic!("unknown workload {name}"))
        .scaled(sizes.stream_divisor)
}

/// The traced pass over one workload: its per-layer metrics and its spans.
/// No end-to-end or headline figure comes from here.
pub fn trace_workload(
    name: &str,
    knobs: &Knobs,
    seed: u64,
    pairs: Budget,
    sizes: &Sizes,
) -> (Outcome, Tracer) {
    let timer_ns = timer_overhead_ns();
    let mut tracer = Tracer::enabled(1 << 16);
    let mut outcome = match name {
        "kernel_refcount" => kernel::trace(knobs, seed, pairs, sizes.kernel_updates, &mut tracer),
        "visible_probe" => probe::trace(knobs, seed, pairs, sizes.probes, &mut tracer),
        "sim_paper16" => sim::trace(seed, pairs, sizes.sim, &mut tracer),
        stream => {
            let spec = stream_spec(stream, sizes);
            stream::trace(&spec, knobs, seed, pairs, timer_ns, &mut tracer)
        }
    };
    let m = &mut outcome.metrics;
    m.set("trace.timer_ns", timer_ns as f64);
    m.set(
        "trace.coverage_pct",
        span::coverage_pct(tracer.spans(), tracer.folded()),
    );
    (outcome, tracer)
}

/// Where results and trace files go: `coupbench/` under the cargo target
/// directory of the invocation.
fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("coupbench")
}

fn write_output(file: &str, contents: &str) {
    let dir = output_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(error) = written {
        eprintln!(
            "coupbench: cannot write {}: {error}",
            dir.join(file).display()
        );
    }
}

fn write_trace(name: &str, seed: u64, tracer: &Tracer) {
    write_output(
        &format!("trace-{name}.json"),
        &span::to_json(name, seed, tracer.spans(), tracer.folded()),
    );
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result header: everything a reader needs to judge whether two runs
/// are comparable.
fn header(knobs: &Knobs, seed: u64) -> String {
    // Ask git only in a repository root: in a bare checkout it would walk up
    // into directories that are none of the benchmark's business.
    let commit = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "coupbench seed={seed} nproc={} producers={} workers={} batch_capacity={} queue_capacity={} \
         flush_threshold={} buffer=unbounded(evict_zipf: bounded(64)) telemetry=default\n\
         coupbench commit={} rustc=\"{}\"",
        knobs.nproc,
        knobs.producers,
        knobs.workers,
        knobs.batch_capacity,
        knobs.queue_capacity,
        knobs.flush_threshold,
        commit,
        first_line("rustc", &["-V"]),
    )
}

#[derive(Debug, PartialEq)]
enum Mode {
    Contract,
    All,
    Calibrate,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    pairs: Option<usize>,
    /// Whether the per-layer passes run: required by the contract, on by
    /// default in `all`, meaningless in `calibrate`.
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Contract,
        workload: None,
        seed: 1,
        seconds: None,
        pairs: None,
        trace: true,
    };
    let mut trace = None;
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "all" => args.mode = Mode::All,
            "calibrate" => args.mode = Mode::Calibrate,
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                args.seconds = Some(seconds);
            }
            "--pairs" => {
                let pairs: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--pairs: {e}"))?;
                if !(1..=1000).contains(&pairs) {
                    return Err(format!("--pairs {pairs} is outside 1..=1000"));
                }
                args.pairs = Some(pairs);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (&args.mode, trace) {
        (Mode::Contract, _) if args.workload.is_none() => {
            return Err(
                "the contract mode needs --workload (or use `all` / `calibrate`)".to_string(),
            )
        }
        (Mode::Contract, None) => return Err("the contract mode needs --trace 0|1".to_string()),
        (Mode::Calibrate, Some(_)) => {
            return Err("calibrate has no per-layer pass: --trace does not apply".to_string())
        }
        (_, trace) => args.trace = trace.unwrap_or(true),
    }
    Ok(args)
}

/// `share` of the run's seconds, or exactly `--pairs` pairs.
fn budget(args: &Args, share: f64) -> Budget {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    args.pairs
        .map_or(Budget::Seconds(seconds * share), Budget::Pairs)
}

/// The workloads a run covers.
fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    }
}

/// Prints one pass's metrics, failure accounting included.
fn print_pass(name: &str, outcome: &Outcome) {
    let mut shown = outcome.clone();
    shown.record_failures();
    print!("{}", table(name, &shown));
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("coupbench: at least one workload failed verification or exactness");
        ExitCode::FAILURE
    }
}

/// One contract run: one workload, one result line. `--trace 0` is the
/// untraced pass; `--trace 1` is shorter untraced trials for the headline
/// figures, then the traced pass, then the layers pass. The layers pass is
/// workload-independent, but every per-layer run must print every per-layer
/// metric, and a time measured by an earlier process is not this run's.
fn run_contract(args: &Args, knobs: &Knobs) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let (seed, sizes) = (args.seed, &Sizes::FULL);
    let (mut outcome, decls) = if args.trace {
        let share = budget(args, TRACED_SHARE);
        let mut outcome = measure_workload(name, knobs, seed, share, sizes);
        let (traced, tracer) = trace_workload(name, knobs, seed, share, sizes);
        write_trace(name, seed, &tracer);
        outcome.merge(traced);
        outcome
            .metrics
            .extend(layers::measure(knobs, seed, sizes.layer_calls));
        (outcome, &PER_LAYER[..])
    } else {
        let outcome = measure_workload(name, knobs, seed, budget(args, 1.0), sizes);
        (outcome, &END_TO_END[..])
    };
    outcome.record_failures();
    print!("{}", table(name, &outcome));
    println!("{}", contract_line(&outcome, decls));
    exit_code(outcome.correct())
}

/// `all`: every workload untraced, then the traced pass and the layers pass.
fn run_all(args: &Args, knobs: &Knobs) -> ExitCode {
    let names = selected(args);
    let (seed, sizes) = (args.seed, &Sizes::FULL);
    let mut json = vec![format!("\"seed\": {seed}")];
    println!("== untraced pass: end-to-end metrics ==");
    if !sys::reset_peak_rss() {
        println!("NOTE cannot reset VmHWM: peak_rss_mib is cumulative over workloads");
    }
    let mut outcomes: Vec<Outcome> = Vec::new();
    for name in &names {
        let outcome = measure_workload(name, knobs, seed, budget(args, 1.0), sizes);
        print_pass(name, &outcome);
        json.push(format!(
            "\"{name}\": {}",
            contract_line(&outcome, &END_TO_END)
        ));
        outcomes.push(outcome);
    }
    if args.trace {
        println!("== traced pass: per-layer metrics ==");
        for (name, outcome) in names.iter().zip(&mut outcomes) {
            let (traced, tracer) =
                trace_workload(name, knobs, seed, budget(args, TRACED_SHARE), sizes);
            print_pass(name, &traced);
            write_trace(name, seed, &tracer);
            outcome.merge(traced);
        }
        println!("== layers pass: one call at a time ==");
        let layers = Outcome {
            metrics: layers::measure(knobs, seed, sizes.layer_calls),
            ..Outcome::default()
        };
        print!("{}", table("layers", &layers));
        for (name, outcome) in names.iter().zip(&mut outcomes) {
            outcome.metrics.extend(layers.metrics.clone());
            outcome.record_failures();
            json.push(format!(
                "\"per_layer.{name}\": {}",
                contract_line(outcome, &PER_LAYER)
            ));
        }
    }
    write_output("result.json", &format!("{{{}}}\n", json.join(",\n")));
    println!("results and traces: {}", output_dir().display());
    exit_code(outcomes.iter().all(Outcome::correct))
}

/// Largest `bound` the contract accepts.
const MAX_BOUND: f64 = 0.25;

/// `calibrate`: the untraced pass over ten consecutive seeds. Per end-to-end
/// metric and workload it prints the spread the contract's driver judges —
/// (q3 − q1) / median, quartiles as Python's `statistics.quantiles(n=4)` —
/// and the bound that spread asks for: three times itself, so the spread
/// stays under a third of the bound. (The driver holds `setup_s` to no spread,
/// only to its median not worsening by more than the bound.)
fn run_calibrate(args: &Args, knobs: &Knobs) -> ExitCode {
    const SEEDS: u64 = 10;
    let mut rows = Vec::new();
    let mut correct = true;
    println!(
        "{:<16} {:<20} {:>12} {:>8} {:>8}",
        "workload", "metric", "median", "spread", "bound"
    );
    for name in selected(args) {
        let runs: Vec<Outcome> = (0..SEEDS)
            .map(|i| {
                let seed = args.seed.wrapping_add(i);
                measure_workload(name, knobs, seed, budget(args, 1.0), &Sizes::FULL)
            })
            .collect();
        correct &= runs.iter().all(Outcome::correct);
        for (metric, ..) in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|o| o.metrics.get(metric)).collect();
            let (q1, q2, q3) = stats::quartiles(&values).expect("ten runs");
            let spread = (q3 - q1) / q2;
            let bound = 3.0 * spread;
            let verdict = if bound > MAX_BOUND && metric != "setup_s" {
                "  DEMOTE: asks for a bound above the contract's 0.25"
            } else {
                ""
            };
            println!("{name:<16} {metric:<20} {q2:>12.5} {spread:>8.4} {bound:>8.4}{verdict}");
            rows.push(format!(
                "{{\"workload\": \"{name}\", \"metric\": \"{metric}\", \"median\": {q2}, \
                 \"spread\": {spread}, \"bound\": {bound}}}"
            ));
        }
    }
    write_output("calibration.json", &format!("[\n{}\n]\n", rows.join(",\n")));
    exit_code(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("coupbench: {error}");
            return ExitCode::from(2);
        }
    };
    // These variables change buffer sizing and test pressure behind the
    // benchmark's back; every knob here is pinned, so a set one is a mistake.
    if let Some(var) = FORBIDDEN_ENV
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        eprintln!("coupbench: refusing to start with {var} set");
        return ExitCode::from(2);
    }
    let knobs = Knobs::detect();
    println!("{}", header(&knobs, args.seed));
    match args.mode {
        Mode::Contract => run_contract(&args, &knobs),
        Mode::All => run_all(&args, &knobs),
        Mode::Calibrate => run_calibrate(&args, &knobs),
    }
}
