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
//! responsibility. An array keeps one tag, one payload and one LRU rank per
//! way, in blocks of adjacent sets whose tags fill one 4 KiB page; the set
//! index is a mask of the line address
//! ([`geometry::CacheGeometry::set_of`]) and its block a shift of the set.
//! A block is made by the first insert into it, so an array costs host
//! memory for the lines a run touches, not for the capacity it models: an
//! empty 128 MB L4 is a 4,096-entry block table.
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
