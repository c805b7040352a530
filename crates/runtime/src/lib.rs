//! # coup-runtime
//!
//! A real-hardware execution engine for COUP's core idea: buffer commutative
//! partial updates privately, reduce them on reads. The paper (Zhang, Horn,
//! Sanchez, MICRO 2015) implements this in the coherence protocol; this crate
//! implements the same privatize-then-reduce structure *in software*, the way
//! Balaji et al. (CCache) and CRDT designs do, so the repository's workloads
//! can run at native speed on actual silicon instead of only inside the
//! timing simulator.
//!
//! The public face of the crate is the service facade: a [`CoupRuntime`]
//! (built by [`RuntimeBuilder`]) owns resident worker threads and hands out
//! cheap, clonable, `Send` handles — the raw [`LaneHandle`] or the typed
//! [`CounterHandle`] — through which any thread submits updates in batches. Resident workers drain the batches
//! into per-worker privatized buffers; reads stay synchronous on the calling
//! thread. [`CoupRuntime::run_workers`] runs worker-style kernels on a
//! runtime that has not yet handed out a handle.
//!
//! The mapping from the protocol onto the runtime:
//!
//! | COUP (hardware)                      | `coup-runtime` (software)                              |
//! |--------------------------------------|--------------------------------------------------------|
//! | shared cache holding the data value  | [`SharedStore`]: sharded, 64-byte-aligned atomic lanes |
//! | private line in U state              | tagged slot in a per-worker [`CoupBackend`] buffer (identity-initialised, single-writer) |
//! | bounded private cache capacity       | [`BufferConfig::capacity_lines`]: at most that many privatized lines per worker |
//! | commutative-update instruction       | [`UpdateBackend::update`]: plain load/combine/store, no lock prefix |
//! | update-request message from any core | a batch published into the producer's own SPSC shard ring (`ring.rs`) and drained by the resident worker owning that slot stripe — one Release store per batch, no producer ever serialises on another |
//! | read triggering a reduction          | [`UpdateBackend::read`]: reader folds the partials of the line's *active writers* (per-line writer bitmap), then demotes the line (its first deltas bypass the buffers until the job ends, or for a handle-serving runtime's life) |
//! | directory sharer list                | per-line writer-presence bitmap (`LineMeta`)           |
//! | value-returning RMW taking the line to M | [`UpdateBackend::update_read`]: demotes the line the same way, and on an empty bitmap is one store fetch-op |
//! | eviction of a U line                 | capacity eviction (cold victim: a slot not hit since the reference marks aged out): the victim slot's delta migrates into the store, then the slot is re-tagged |
//! | voluntary U-line writeback           | per-line flush budget draining a slot into the store   |
//! | baseline protocol (MESI + `lock op`) | [`AtomicBackend`]: atomic RMW per update               |
//!
//! Both backends sit behind the [`UpdateBackend`] trait, so workloads and
//! benches are written once and compare the two fairly. Lane arithmetic is
//! `coup_protocol`'s [`CommutativeOp`](coup_protocol::ops::CommutativeOp) /
//! [`LineData`](coup_protocol::line::LineData) — the identical reduction code
//! the simulator and model checker exercise.
//!
//! # Example
//!
//! ```
//! use coup_protocol::ops::CommutativeOp;
//! use coup_runtime::{tag, BackendKind, RuntimeBuilder};
//!
//! // A service runtime: 2 resident workers absorbing batched updates from
//! // any number of producer threads, no atomics on the producer side.
//! let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
//!     .workers(2)
//!     .build();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let mut counter = runtime.counter::<tag::Add64>();
//!         scope.spawn(move || {
//!             for _ in 0..1000 {
//!                 counter.add(7, 1); // contended counter, batched
//!             }
//!         });
//!     }
//! });
//! let result = runtime.shutdown();
//! assert_eq!(result.snapshot[7], 4000);
//!
//! // The conventional baseline gives the same answer, one lock-prefixed
//! // instruction per update applied.
//! let baseline = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
//!     .backend(BackendKind::Atomic)
//!     .workers(2)
//!     .build();
//! let mut handle = baseline.handle();
//! for _ in 0..4000 {
//!     handle.push(7, 1);
//! }
//! drop(handle);
//! assert_eq!(baseline.shutdown().snapshot, result.snapshot);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod harness;
#[cfg(all(test, coup_model))]
mod model_tests;
mod ring;
pub mod runtime;
pub mod store;
mod sync;
pub mod telemetry;

pub use backend::{
    AtomicBackend, BufferConfig, BufferStats, CoupBackend, ReadCost, StaleRead, UpdateBackend,
    DEFAULT_FLUSH_THRESHOLD, MAX_COUP_THREADS, PROBE_WINDOW, READ_RETRY_LIMIT,
};
pub use harness::{expected_counts, run_contended, splitmix64, ContendedSpec, LaneSampler};
pub use runtime::{
    tag, BackendKind, CounterHandle, CoupRuntime, JobCtx, LaneHandle, RuntimeBuilder,
    RuntimeResult, ShardStat, TelemetryHandle, ThroughputReport, DEFAULT_BATCH_CAPACITY,
    DEFAULT_QUEUE_CAPACITY, DEFAULT_SHARD_SLOTS,
};
pub use store::SharedStore;
pub use telemetry::{
    HistogramSnapshot, Merge, MetricsSnapshot, TelemetryConfig, TelemetryRegistry, HIST_BUCKETS,
};
