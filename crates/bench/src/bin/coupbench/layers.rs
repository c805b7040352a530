//! The layers pass: per-call cost of one layer at a time, on one timing
//! thread. Backend calls go through `run_workers` + `JobCtx` (other workers
//! only pre-load partials behind a barrier); store and protocol calls are
//! direct. Every figure is the median of [`REPS`] loops of `calls` calls.
//!
//! These are workload-independent: they say what a call costs in isolation,
//! and the README maps each to the end-to-end metric it should move.

use std::hint::black_box;
use std::time::Instant;

use coup_protocol::line::LineData;
use coup_protocol::ops::CommutativeOp;
use coup_runtime::{CoupRuntime, JobCtx, SharedStore};

use crate::gen::{splitmix64, Zipf};
use crate::pairs::Side;
use crate::report::Metrics;
use crate::stats::median;
use crate::stream::{StreamSpec, STREAMS};
use crate::sys::Knobs;

/// Calls per timed loop at full size: 5 M calls per figure over its
/// [`REPS`] loops.
pub const CALLS: u64 = 1_000_000;
/// Timed loops per figure.
const REPS: usize = 5;
/// Lane-sequence table length (a power of two): lanes come from a table so
/// no generator runs inside a timed loop.
const TABLE: usize = 1 << 16;

const OP: CommutativeOp = CommutativeOp::AddU64;

/// Median over [`REPS`] runs of `f`.
fn median_of_reps(mut f: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&mut values)
}

/// Nanoseconds per call of `call(i)` over `calls` calls.
fn ns_per_call(calls: u64, mut call: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..calls as usize {
        call(i);
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs one job on `runtime`: every worker runs `preload`, then worker 0
/// alone times `calls` calls of `call` while the others wait, their partials
/// still buffered.
fn job_ns(
    runtime: &CoupRuntime,
    calls: u64,
    preload: impl Fn(&JobCtx<'_>) + Sync,
    call: impl Fn(&JobCtx<'_>, usize) + Sync,
) -> f64 {
    let (per_worker, _) = runtime.run_workers(|ctx| {
        preload(&ctx);
        ctx.barrier();
        let ns = if ctx.worker() == 0 {
            ns_per_call(calls, |i| call(&ctx, i))
        } else {
            0.0
        };
        ctx.barrier();
        ns
    });
    per_worker[0]
}

fn uniform_table(lanes: usize, seed: u64) -> Vec<u16> {
    let mut state = seed;
    (0..TABLE)
        .map(|_| (splitmix64(&mut state) % lanes as u64) as u16)
        .collect()
}

/// The `backend` figures of one side on the 64-lane unbounded shape.
fn backend_calls(
    spec: &StreamSpec,
    knobs: &Knobs,
    side: Side,
    table: &[u16],
    calls: u64,
) -> [f64; 3] {
    let lane = |i: usize| usize::from(table[i & (TABLE - 1)]);
    let runtime = spec.builder(knobs, side).build();
    let update =
        median_of_reps(|| job_ns(&runtime, calls, |_| {}, |ctx, i| ctx.update(lane(i), 1)));
    let update_read = median_of_reps(|| {
        job_ns(
            &runtime,
            calls,
            |_| {},
            |ctx, i| {
                black_box(ctx.update_read(lane(i), 1));
            },
        )
    });
    // Every worker holds a partial on every line while worker 0 reads.
    let preload = |ctx: &JobCtx<'_>| (0..spec.lanes).for_each(|l| ctx.update(l, 1));
    let read_hot = median_of_reps(|| {
        job_ns(&runtime, calls, preload, |ctx, i| {
            black_box(ctx.read(lane(i)));
        })
    });
    let _ = runtime.shutdown();
    [update, update_read, read_hot]
}

/// Runs the whole layers pass.
pub fn measure(knobs: &Knobs, seed: u64, calls: u64) -> Metrics {
    let mut m = Metrics::default();
    let hit_spec = &STREAMS[0];
    let evict_spec = &STREAMS[3];
    let table = uniform_table(hit_spec.lanes, seed);
    let lane = |i: usize| usize::from(table[i & (TABLE - 1)]);

    // backend.rs, through JobCtx.
    let [update_hit, update_read, read_hot] =
        backend_calls(hit_spec, knobs, Side::Coup, &table, calls);
    m.set("backend.update_hit_ns", update_hit);
    m.set("backend.update_read_ns", update_read);
    m.set("backend.read_hot_ns", read_hot);
    let [atomic_update, atomic_update_read, atomic_read] =
        backend_calls(hit_spec, knobs, Side::Atomic, &table, calls);
    m.set("backend.atomic_update_ns", atomic_update);
    m.set("backend.atomic_update_read_ns", atomic_update_read);
    m.set("backend.atomic_read_ns", atomic_read);

    // Cold and stale reads: a runtime nothing ever privatized on.
    let cold = hit_spec.builder(knobs, Side::Coup).build();
    m.set(
        "backend.read_cold_ns",
        median_of_reps(|| {
            job_ns(
                &cold,
                calls,
                |_| {},
                |ctx, i| {
                    black_box(ctx.read(lane(i)));
                },
            )
        }),
    );
    let preload = |ctx: &JobCtx<'_>| (0..hit_spec.lanes).for_each(|l| ctx.update(l, 1));
    m.set(
        "backend.read_stale_ns",
        median_of_reps(|| {
            job_ns(&cold, calls, preload, |ctx, i| {
                black_box(ctx.read_stale(lane(i)));
            })
        }),
    );

    // telemetry.rs, on a runtime that has seen traffic.
    let telemetry = cold.telemetry();
    let scrapes = (calls / 1000).max(10);
    m.set(
        "telemetry.metrics_us",
        median_of_reps(|| {
            ns_per_call(scrapes, |_| {
                black_box(telemetry.metrics());
            })
        }) / 1e3,
    );
    m.set(
        "telemetry.prometheus_us",
        median_of_reps(|| ns_per_call(scrapes, |_| drop(black_box(telemetry.prometheus())))) / 1e3,
    );
    let _ = cold.shutdown();

    // The eviction path: 4096 lanes, 64 private lines, Zipf-skewed.
    let zipf = Zipf::new(
        evict_spec.lanes,
        evict_spec.zipf_theta.expect("evict_zipf is skewed"),
    );
    let mut state = seed;
    let zipf_table: Vec<u16> = (0..TABLE)
        .map(|_| zipf.lane(splitmix64(&mut state)) as u16)
        .collect();
    let evicting = evict_spec.builder(knobs, Side::Coup).build();
    m.set(
        "backend.update_evict_ns",
        median_of_reps(|| {
            job_ns(
                &evicting,
                calls,
                |_| {},
                |ctx, i| ctx.update(usize::from(zipf_table[i & (TABLE - 1)]), 1),
            )
        }),
    );
    let _ = evicting.shutdown();

    // store.rs, direct.
    let store = SharedStore::new(OP, evict_spec.lanes);
    m.set(
        "store.rmw_ns",
        median_of_reps(|| {
            ns_per_call(calls, |i| {
                black_box(store.rmw_lane(lane(i), 1));
            })
        }),
    );
    m.set(
        "store.load_ns",
        median_of_reps(|| {
            ns_per_call(calls, |i| {
                black_box(store.load_lane(lane(i)));
            })
        }),
    );
    let partial = LineData::from_words([1; 8]);
    let line_mask = store.num_lines() - 1;
    assert!(
        store.num_lines().is_power_of_two(),
        "line index is masked, not divided"
    );
    m.set(
        "store.reduce_line_ns",
        median_of_reps(|| {
            ns_per_call(calls, |i| {
                black_box(store.reduce_line(i & line_mask, black_box(&partial)));
            })
        }),
    );
    m.set(
        "store.snapshot_us",
        median_of_reps(|| {
            ns_per_call((calls / 1000).max(10), |_| {
                drop(black_box(store.snapshot()))
            })
        }) / 1e3,
    );

    // coup-protocol: the lane arithmetic both halves share.
    let mut word = 0u64;
    m.set(
        "protocol.apply_word_ns",
        median_of_reps(|| {
            ns_per_call(calls, |i| {
                word = OP.apply_word(black_box(word), i as u64);
            })
        }),
    );
    black_box(word);
    let mut line = LineData::identity(OP);
    m.set(
        "protocol.line_reduce_ns",
        median_of_reps(|| ns_per_call(calls, |_| line.reduce_from(OP, black_box(&partial)))),
    );
    black_box(line);
    m
}
