//! # coup-protocol
//!
//! Coherence-protocol substrate for the COUP reproduction (Zhang, Horn,
//! Sanchez, "Exploiting Commutativity to Reduce the Cost of Updates to Shared
//! Data in Cache-Coherent Systems", MICRO 2015).
//!
//! COUP extends invalidation-based coherence protocols with an *update-only*
//! permission: multiple private caches may simultaneously buffer commutative
//! partial updates (additions, bitwise logic, …) to the same line, which are
//! combined by a *reduction unit* when the line is next read. This crate
//! contains everything protocol-related:
//!
//! * [`ops`] — the commutative operations, their identity elements, and
//!   lane-wise application ([`ops::CommutativeOp`]).
//! * [`access`] — request types (read / write / commutative update,
//!   [`access::AccessType`]).
//! * [`mod@line`] — cache-line payloads and partial-update buffers
//!   ([`line::LineData`]).
//! * [`state`] — stable private-cache states and directory modes for the
//!   MESI baseline and COUP's MEUSI ([`state::ProtocolKind`]).
//! * [`directory`] — sharer sets and directory entries.
//! * [`stable`] — the stable-state transition engine the performance simulator
//!   executes ([`stable::serve_request`]), checked against the controllers
//!   below by `tests/stable_conformance.rs`.
//! * [`detailed`] / [`detailed_dir`] — the message-level controllers with
//!   transient states (Fig. 7) that the `coup-verify` model checker
//!   exhaustively explores.
//! * [`reduction`] — timing model of reduction units (the reduction itself
//!   is [`line::LineData::reduce_from`]).
//! * [`stats`] — protocol event counters.
//!
//! # Example
//!
//! Two cores add to a shared counter under MEUSI; a third core then reads it,
//! which triggers a full reduction (Fig. 1c / Fig. 5 of the paper):
//!
//! ```
//! use coup_protocol::access::AccessType;
//! use coup_protocol::directory::DirectoryEntry;
//! use coup_protocol::line::LineData;
//! use coup_protocol::ops::CommutativeOp;
//! use coup_protocol::stable::serve_request;
//! use coup_protocol::state::{PrivateState, ProtocolKind};
//!
//! let op = CommutativeOp::AddU64;
//! let add = AccessType::CommutativeUpdate(op);
//! let mut dir = DirectoryEntry::uncached();
//!
//! // Core 0 updates: granted directly (M under MEUSI, since the line is unshared).
//! let plan = serve_request(ProtocolKind::Meusi, &dir, 0, add);
//! dir = plan.next_entry;
//!
//! // Core 1 updates the same line: core 0 is downgraded to update-only and both
//! // cores buffer partial updates locally from now on.
//! let plan = serve_request(ProtocolKind::Meusi, &dir, 1, add);
//! assert_eq!(plan.grant, PrivateState::UpdateOnly(op));
//! dir = plan.next_entry;
//!
//! // Core 2 reads: every partial update must be collected and reduced.
//! let plan = serve_request(ProtocolKind::Meusi, &dir, 2, AccessType::Read);
//! assert_eq!(plan.reduce_from.len(), 2);
//!
//! // Functionally, the reduction combines the buffered partial updates:
//! let mut value = LineData::zeroed();
//! let mut partial0 = LineData::identity(op);
//! partial0.apply_update(op, 0, 5);
//! let mut partial1 = LineData::identity(op);
//! partial1.apply_update(op, 0, 7);
//! value.reduce_from(op, &partial0);
//! value.reduce_from(op, &partial1);
//! assert_eq!(value.lane(op, 0), 12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod access;
pub mod detailed;
pub mod detailed_dir;
pub mod directory;
pub mod line;
pub mod ops;
pub mod reduction;
pub mod stable;
pub mod state;
pub mod stats;

pub use access::AccessType;
pub use directory::{ChildId, DirectoryEntry, SharerSet};
pub use line::{LineAddr, LineData, LINE_BYTES, WORDS_PER_LINE};
pub use ops::CommutativeOp;
pub use reduction::ReductionUnitConfig;
pub use stable::{serve_request, RequestPlan};
pub use state::{DirMode, PrivateState, ProtocolKind};
pub use stats::ProtocolStats;
