//! # coup
//!
//! A from-scratch reproduction of **"Exploiting Commutativity to Reduce the
//! Cost of Updates to Shared Data in Cache-Coherent Systems"** (Zhang, Horn,
//! Sanchez — MICRO 2015).
//!
//! COUP extends invalidation-based coherence protocols with an *update-only*
//! permission: multiple private caches may simultaneously buffer commutative
//! partial updates (additions, bitwise logic) to the same cache line, and a
//! *reduction unit* combines them when the line is next read. This crate is
//! the top of the workspace: [`experiments`] — one driver per table and figure
//! of the paper's evaluation — and the package the repo-level `examples/` and
//! `tests/` are attached to. It re-exports the crates they build on:
//!
//! * [`coup_protocol`] — commutative operations, MESI/MEUSI state machines,
//!   directory state, reduction units, and the message-level controllers.
//! * [`coup_cache`] — set-associative cache arrays and replacement policies.
//! * [`coup_sim`] — the simulated 1–128-core, multi-socket memory system of
//!   the paper's Table 1.
//! * [`coup_workloads`] — the evaluation workloads (hist, spmv, pgrank, bfs,
//!   fluidanimate-like), the software baselines (privatization, SNZI,
//!   Refcache), and [`compare_protocols`](coup_workloads::runner::compare_protocols),
//!   the one MESI-vs-MEUSI runner every figure goes through.
//! * [`coup_verify`] — the exhaustive model checker used for the Fig. 8 study.
//!
//! # Quickstart
//!
//! Compare the baseline (MESI) against COUP (MEUSI) on the paper's histogram
//! workload (`examples/quickstart.rs` does the same for Fig. 1's contended
//! counter, written out as a ten-line `Workload`):
//!
//! ```
//! use coup::experiments::{paper_workloads, Scale};
//! use coup_protocol::state::ProtocolKind;
//! use coup_sim::config::SystemConfig;
//! use coup_workloads::runner::compare_protocols;
//!
//! let (name, hist) = &paper_workloads(Scale::Small)[0];
//! let cfg = SystemConfig::test_system(8, ProtocolKind::Mesi);
//! let (mesi, meusi) = compare_protocols(cfg, hist.as_ref()).expect("verified under both");
//! assert!(meusi.speedup_over(&mesi) >= 1.0, "COUP must not lose to MESI on {name}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub use coup_cache;
pub use coup_protocol;
pub use coup_sim;
pub use coup_verify;
pub use coup_workloads;

pub mod experiments;
