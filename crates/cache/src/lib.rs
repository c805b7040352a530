//! # coup-cache
//!
//! Cache structures for the COUP reproduction: parameterised set-associative
//! arrays with LRU replacement, and address mapping. These are the building
//! blocks the `coup-sim` crate assembles into the four-level hierarchy of the
//! paper's Table 1 (private L1s/L2s, banked shared L3 with in-cache
//! directory, L4/global-directory chips).
//!
//! The crate is deliberately policy-free: a [`array::CacheArray`] stores an
//! arbitrary payload per line (coherence state and data, or `()` for a
//! residency-only array) and reports victims; coherence actions on those victims are the simulator's
//! responsibility. An array is flat: one tag, one payload and one LRU rank
//! per way, every set side by side, and the set index is a mask of the line
//! address ([`geometry::CacheGeometry::set_of`]). Tags and ranks start as
//! zeroed allocations, so with a `()` payload (the simulator's shared
//! caches) an untouched set costs no resident memory.
//!
//! # Example
//!
//! ```
//! use coup_cache::array::{CacheArray, InsertOutcome};
//! use coup_cache::geometry::CacheGeometry;
//! use coup_protocol::line::LineAddr;
//!
//! // A 32 KB, 8-way L1 holding a small payload per line.
//! let mut l1: CacheArray<&'static str> = CacheArray::new(CacheGeometry::new(32 * 1024, 8));
//! assert_eq!(l1.insert(LineAddr(0x10), "counter line"), InsertOutcome::Inserted);
//! assert!(l1.contains(LineAddr(0x10)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod array;
pub mod geometry;
mod replacement;
