//! Self-tests, part of tier-1: every workload verifies against its oracle at
//! 1/1000 scale, the failure accounting and exactness check bite, names stay
//! inside the contract's limits and agree with `BENCHMARK.json`, spans nest,
//! and the samplers and estimators are right.

use std::collections::BTreeSet;

use coup::experiments::Scale;

use crate::gen::{splitmix64, LaneDist, Op, OpStream, Oracle, Zipf};
use crate::pairs::{account, Budget, Side, TrialSummary};
use crate::report::{Better, Outcome, END_TO_END, PER_LAYER, SIM_APPS, WORKLOADS};
use crate::span::{coverage_pct, self_times, Span, Tracer};
use crate::stats::{median, percentile, quartiles};
use crate::stream::STREAMS;
use crate::sys::{Exposition, Knobs};
use crate::{measure_workload, trace_workload, Sizes};

/// Every workload at 1/1000 of its measured size.
const TINY: Sizes = Sizes {
    stream_divisor: 1000,
    probes: 20,
    kernel_updates: 500,
    sim: Scale::Small,
    layer_calls: 1000,
};

/// A fixed two-thread shape, whatever box runs the tests.
fn knobs() -> Knobs {
    Knobs::for_nproc(2)
}

#[test]
fn every_workload_verifies_against_its_oracle() {
    for name in WORKLOADS {
        let mut outcome = measure_workload(name, &knobs(), 7, Budget::Pairs(2), &TINY);
        outcome.record_failures();
        assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
        assert!(outcome.attempted > 0, "{name} attempted nothing");
        assert_eq!(outcome.metrics.get("failed_share"), Some(0.0), "{name}");
        for (metric, ..) in END_TO_END {
            let value = outcome.metrics.get(metric);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name}: end-to-end metric {metric} must be reported and never 0, got {value:?}"
            );
        }
    }
}

#[test]
fn every_emitted_metric_is_declared() {
    let declared: BTreeSet<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|&(name, ..)| name)
        .collect();
    let mut emitted = BTreeSet::new();
    let layers = crate::layers::measure(&knobs(), 3, TINY.layer_calls);
    for name in WORKLOADS {
        // A per-layer run as `main` assembles it: no metric is recorded twice
        // (`merge` and `extend` would panic), and none comes undeclared.
        let mut outcome = measure_workload(name, &knobs(), 3, Budget::Pairs(1), &TINY);
        let (traced, _) = trace_workload(name, &knobs(), 3, Budget::Pairs(1), &TINY);
        assert!(traced.correct(), "{name} traced: {:?}", traced.errors);
        for headline in ["coup_mops", "atomic_mops", "speedup_vs_atomic"] {
            assert!(outcome.metrics.get(headline).is_some(), "{name} {headline}");
            assert_eq!(
                traced.metrics.get(headline),
                None,
                "{name}: {headline} must not come from the traced pass"
            );
        }
        outcome.merge(traced);
        outcome.metrics.extend(layers.clone());
        outcome.record_failures();
        for metric in outcome.metrics.iter() {
            assert!(
                declared.contains(metric.name.as_str()),
                "{name} emits undeclared {}",
                metric.name
            );
            emitted.insert(metric.name.clone());
        }
    }
    let silent: Vec<_> = declared
        .iter()
        .filter(|name| !emitted.contains(**name))
        .collect();
    assert!(silent.is_empty(), "declared but never emitted: {silent:?}");
    // The per-application names are written out; they follow `SIM_APPS`.
    for family in ["run_s", "cycles_mesi", "cycles_meusi", "accesses"] {
        for app in SIM_APPS {
            let name = format!("sim.{family}.{app}");
            assert!(declared.contains(name.as_str()), "{name} is not declared");
        }
    }
}

#[test]
fn a_dropped_update_is_a_failed_operation() {
    let spec = STREAMS[0].scaled(1000);
    let dist = LaneDist::new(spec.lanes, None);
    let oracle = Oracle::replay(11, 1, spec.ops, 0, spec.lanes, &dist);
    let runtime = spec.builder(&knobs(), Side::Coup).build();
    let mut handle = runtime.handle();
    // Submit the whole stream except its first update.
    for op in OpStream::new(11, 0, spec.ops, 0, &dist).skip(1) {
        if let Op::Push(lane) = op {
            handle.push(lane, 1);
        }
    }
    handle.flush();
    runtime.drain();
    let lost = oracle.mismatch(&runtime.snapshot());
    assert_eq!(lost, 1, "exactly the dropped update is missing");
    let outcome = Outcome {
        attempted: oracle.pushes,
        failed: lost,
        ..Outcome::default()
    };
    assert!(!outcome.correct());
    assert!(outcome.failed as f64 / outcome.attempted as f64 > 0.0);
    drop(handle);
    assert_eq!(oracle.mismatch(&runtime.shutdown().snapshot), 1);
}

#[test]
fn a_count_that_differs_between_trials_fails_the_run() {
    let trial = |privatized| TrialSummary {
        mops: 1.0,
        attempted: 10,
        exact: vec![("ops_attempted", 10), ("backend.privatized", privatized)],
        ..TrialSummary::default()
    };
    let mut same = Outcome::default();
    account(&[(trial(8), trial(8)), (trial(8), trial(8))], &mut same);
    assert!(same.correct(), "{:?}", same.errors);
    let mut differs = Outcome::default();
    account(&[(trial(8), trial(8)), (trial(8), trial(9))], &mut differs);
    assert_eq!(differs.failed, 0);
    assert!(
        !differs.correct(),
        "a mismatch is a failed run, not a noisy one"
    );
    assert!(
        differs.errors[0].contains("coup backend.privatized"),
        "{:?}",
        differs.errors
    );
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn names_and_units_stay_inside_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    let metrics = END_TO_END.iter().chain(&PER_LAYER);
    for name in WORKLOADS.into_iter().chain(metrics.clone().map(|d| d.0)) {
        assert!(well_formed(name, 64, "_.-"), "bad name {name:?}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name:?}"
        );
        assert!(seen.insert(name), "{name} is used twice");
    }
    for (name, unit, _) in metrics {
        assert!(
            well_formed(unit, 16, "_/%.-"),
            "bad unit {unit:?} on {name}"
        );
    }
    assert!(END_TO_END.contains(&("setup_s", "s", Better::Lower)));
}

/// The `"name"` values between the `section` key and the next `]`.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_declares() {
    let json = include_str!("../../../../../BENCHMARK.json");
    let names = |decls: &[crate::report::Decl]| decls.iter().map(|d| d.0).collect::<Vec<_>>();
    assert_eq!(names_in(json, "workloads"), WORKLOADS);
    assert_eq!(names_in(json, "end_to_end"), names(&END_TO_END));
    assert_eq!(names_in(json, "per_layer"), names(&PER_LAYER));
    for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
        let better = match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

/// The body of `[section]` in a manifest, comments and blank lines dropped.
fn manifest_section(manifest: &str, section: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != format!("[{section}]"))
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The benchmark contract wants a package of its own beside these sources;
/// tier-1 builds them as a binary of `coup-bench`. Both must measure the same
/// code: same optimisation profile, same crates, same features.
#[test]
fn the_standalone_manifest_mirrors_the_workspace_build() {
    let own = include_str!("Cargo.toml");
    let root = include_str!("../../../../../Cargo.toml");
    let bench = include_str!("../../../Cargo.toml");
    assert_eq!(
        manifest_section(own, "profile.release"),
        manifest_section(root, "profile.release")
    );
    assert_eq!(
        manifest_section(own, "features"),
        manifest_section(bench, "features")[..2],
        "the forwarded telemetry features"
    );
    let workspace = manifest_section(root, "workspace.dependencies");
    for dependency in manifest_section(own, "dependencies") {
        let (name, spec) = dependency.split_once(" = ").expect("name = spec");
        assert!(
            manifest_section(bench, "dependencies").contains(&format!("{name}.workspace = true")),
            "{name} is not a dependency of coup-bench"
        );
        // `path = "../../../../<crate>"` here is `path = "crates/<crate>"` there.
        let there = spec.replace("../../../../", "crates/");
        assert!(
            workspace.contains(&format!("{name} = {there}")),
            "{name} = {there} is not how the workspace declares it"
        );
    }
}

#[test]
fn span_parents_resolve_and_children_nest() {
    for name in [
        "read_mix_exact",
        "visible_probe",
        "kernel_refcount",
        "sim_paper16",
    ] {
        let (_, tracer) = trace_workload(name, &knobs(), 5, Budget::Pairs(1), &TINY);
        let spans = tracer.spans();
        assert!(!spans.is_empty(), "{name} recorded no spans");
        for (id, span) in spans.iter().enumerate() {
            assert!(
                span.start_ns <= span.end_ns,
                "{name} span {id} ends before it starts"
            );
            let Some(parent) = span.parent else {
                assert!(
                    ["trial", "setup"].contains(&span.name),
                    "{name}: {} lacks a parent but is no root",
                    span.name
                );
                continue;
            };
            let parent = spans
                .get(parent as usize)
                .unwrap_or_else(|| panic!("{name} span {id}: dangling parent"));
            assert_eq!(parent.trial, span.trial, "{name} span {id} crosses trials");
            assert!(
                parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                "{name}: {} [{}, {}] is not inside {} [{}, {}]",
                span.name,
                span.start_ns,
                span.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns
            );
        }
        let coverage = coverage_pct(spans, tracer.folded());
        assert!(
            (0.0..=100.0).contains(&coverage),
            "{name} coverage {coverage}"
        );
        let json = crate::span::to_json(name, 5, spans, tracer.folded());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"id\":").count(), spans.len());
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        trial: 1,
    };
    let spans = [
        span("trial", 0, 100, None),
        // Two overlapping children (two producer threads) and a later one.
        span("producer", 10, 50, Some(0)),
        span("producer", 30, 60, Some(0)),
        span("runtime.drain", 70, 90, Some(0)),
        span("runtime.push", 12, 14, Some(1)),
    ];
    assert_eq!(self_times(&spans, &[]), [30, 38, 30, 20, 2]);
    assert!((coverage_pct(&spans, &[]) - 70.0).abs() < 1e-9);
    let mut tracer = Tracer::enabled(4);
    let ((), outer) = tracer.span("trial", |tracer| tracer.leaf("runtime.build", || ()));
    assert_eq!(tracer.spans()[1].parent, outer);
    assert!(Tracer::disabled().span("trial", |_| ()).1.is_none());
}

#[test]
fn zipf_sampler_is_an_exact_skewed_inverse_cdf() {
    let zipf = Zipf::new(4096, 0.99);
    let plain = Zipf::new(4096, 0.99);
    let mut state = 99;
    let mut hits = vec![0u32; 4096];
    let mut lanes = BTreeSet::new();
    for _ in 0..200_000 {
        let word = splitmix64(&mut state);
        let rank = zipf.rank(word);
        // The bucketed search agrees with a search of the whole table.
        assert_eq!(rank, plain.rank_unbucketed(word));
        hits[rank] += 1;
        lanes.insert(zipf.lane(word));
    }
    // θ = 0.99: rank 0 draws about twice rank 1 and a thousand times rank 1000.
    assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[1000]);
    let ratio = f64::from(hits[0]) / f64::from(hits[1]);
    assert!((1.7..2.3).contains(&ratio), "rank 0 / rank 1 = {ratio}");
    assert_eq!(zipf.rank(0), 0);
    assert_eq!(zipf.rank(u64::MAX), 4095);
    // The rank → lane scatter is a bijection: distinct ranks, distinct lanes.
    let ranks = hits.iter().filter(|&&h| h > 0).count();
    assert_eq!(lanes.len(), ranks);
}

#[test]
fn streams_are_a_function_of_the_seed() {
    let dist = LaneDist::new(64, None);
    let stream =
        |seed, producer| OpStream::new(seed, producer, 1000, 300, &dist).collect::<Vec<_>>();
    assert_eq!(stream(1, 0), stream(1, 0));
    assert_ne!(stream(1, 0), stream(2, 0));
    assert_ne!(stream(1, 0), stream(1, 1));
    let reads = stream(1, 0)
        .iter()
        .filter(|op| matches!(op, Op::Read(_)))
        .count();
    assert!(
        (240..360).contains(&reads),
        "{reads} reads in 1000 ops at 300 per mille"
    );
    let oracle = Oracle::replay(1, 2, 1001, 300, 64, &dist);
    assert_eq!(oracle.pushes + oracle.reads, 1001);
    assert_eq!(oracle.lanes.iter().sum::<u64>(), oracle.pushes);
}

#[test]
fn percentile_refuses_what_it_cannot_support() {
    let sorted: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&sorted, 0.5), Some(500));
    assert_eq!(percentile(&sorted, 0.99), Some(990));
    // Nine samples beyond the 0.991 quantile: refused. One beyond p999: refused.
    assert_eq!(percentile(&sorted, 0.991), None);
    assert_eq!(percentile(&sorted, 0.999), None);
    assert_eq!(percentile(&sorted[..20], 0.5), Some(10));
    assert_eq!(percentile(&sorted[..19], 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn quartiles_match_the_drivers() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn thread_budget_splits_producers_and_workers() {
    let shape = |n| {
        let knobs = Knobs::for_nproc(n);
        (knobs.producers, knobs.workers)
    };
    assert_eq!(shape(1), (1, 1));
    assert_eq!(shape(2), (1, 1));
    assert_eq!(shape(3), (1, 2));
    assert_eq!(shape(4), (2, 2));
    assert_eq!(shape(64), (2, 2));
}

#[test]
fn exposition_is_read_by_family_name() {
    let text = "# HELP coup_reads_total Reads.\n# TYPE coup_reads_total counter\ncoup_reads_total 12\n\
                coup_batch_size_bucket{le=\"1\"} 3\ncoup_batch_size_sum 512\ncoup_batch_size_count 2\n";
    let exposition = Exposition::parse(text);
    assert_eq!(exposition.get("coup_reads_total"), 12);
    assert_eq!(
        exposition.ratio("coup_batch_size_sum", "coup_batch_size_count", 1.0),
        256.0
    );
    // The live exposition carries every family the benchmark reads.
    let runtime = STREAMS[0].builder(&knobs(), Side::Coup).build();
    let live = Exposition::parse(&runtime.telemetry().prometheus());
    let mut metrics = crate::report::Metrics::default();
    crate::sys::record_counts(&mut metrics, &[&live], 1.0);
    assert_eq!(metrics.get("backend.privatized"), Some(0.0));
}

#[test]
fn the_command_line_is_checked_where_it_enters() {
    let parse = |args: &[&str]| crate::parse_args(args.iter().map(|a| a.to_string()));
    let contract = parse(&[
        "--workload",
        "evict_zipf",
        "--seed",
        "9",
        "--seconds",
        "10",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(contract.seed, 9);
    assert!(contract.trace);
    assert!(
        parse(&["--workload", "evict_zipf", "--seed", "9"]).is_err(),
        "--trace is required"
    );
    assert!(parse(&["--workload", "nope", "--trace", "0"]).is_err());
    assert!(parse(&["all", "--pairs", "0"]).is_err());
    assert!(parse(&["all", "--seconds", "-1"]).is_err());
    let all = parse(&["all", "--trace", "0", "--workload", "sim_paper16"]).unwrap();
    assert!(!all.trace);
    assert!(
        parse(&["all"]).unwrap().trace,
        "per-layer passes by default"
    );
    assert!(
        parse(&["calibrate", "--trace", "1"]).is_err(),
        "calibrate has no per-layer pass"
    );
    assert!(parse(&["all", "--no-trace"]).is_err());
}
