//! Typed handles: the [`tag`] markers naming each operation at the type
//! level and the [`CounterHandle`] view they pin a [`LaneHandle`] to.

use std::marker::PhantomData;

use super::{CoupRuntime, LaneHandle};
use crate::backend::StaleRead;

/// Marker types naming each [`CommutativeOp`](coup_protocol::ops::CommutativeOp)
/// at the type level, for [`CounterHandle`]'s compile-time operation typing.
pub mod tag {
    use coup_protocol::ops::CommutativeOp;

    /// Names a [`CommutativeOp`] at the type level. A
    /// [`CounterHandle<K>`](super::CounterHandle) can only be obtained from a
    /// runtime whose operation equals `K::OP`, so code holding the handle
    /// knows statically which arithmetic its lanes obey.
    pub trait OpTag: Send + Sync + 'static {
        /// The operation this tag names.
        const OP: CommutativeOp;
    }

    /// Tags whose operation is an integer addition, enabling the
    /// counter-flavoured convenience methods
    /// ([`CounterHandle::add`](super::CounterHandle::add) /
    /// [`increment`](super::CounterHandle::increment)).
    pub trait AddTag: OpTag {}

    macro_rules! tags {
        ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
            $(
                $(#[$doc])*
                #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
                pub struct $name;
                impl OpTag for $name {
                    const OP: CommutativeOp = CommutativeOp::$op;
                }
            )+
        };
    }

    tags! {
        /// 16-bit wrapping addition.
        Add16 => AddU16,
        /// 32-bit wrapping addition.
        Add32 => AddU32,
        /// 64-bit wrapping addition.
        Add64 => AddU64,
        /// Single-precision float addition (lane values are raw IEEE-754
        /// bits, as everywhere in the runtime).
        AddF32 => AddF32,
        /// Double-precision float addition (raw IEEE-754 bits).
        AddF64 => AddF64,
        /// 64-bit bitwise AND.
        And64 => And64,
        /// 64-bit bitwise OR.
        Or64 => Or64,
        /// 64-bit bitwise XOR.
        Xor64 => Xor64,
        /// 64-bit unsigned minimum.
        Min64 => Min64,
        /// 64-bit unsigned maximum.
        Max64 => Max64,
        /// 32-bit wrapping multiplication.
        MulU32 => MulU32,
    }

    impl AddTag for Add16 {}
    impl AddTag for Add32 {}
    impl AddTag for Add64 {}
}

use tag::{AddTag, OpTag};

/// A typed per-operation view of a runtime: a [`LaneHandle`] whose operation
/// is pinned to `K::OP` at the type level, so `CounterHandle<tag::Add64>` in
/// a signature says "these lanes are 64-bit counters" the way
/// `Vec<u64>` says more than `Vec<u8>`. Obtained from
/// [`CoupRuntime::counter`], which checks the runtime's operation once at
/// acquisition instead of trusting every call site.
#[derive(Debug, Clone)]
pub struct CounterHandle<K: OpTag> {
    raw: LaneHandle,
    _op: PhantomData<K>,
}

impl<K: OpTag> CounterHandle<K> {
    /// Submits `K::OP(current, value)` to `lane` (batched).
    pub fn apply(&mut self, lane: usize, value: u64) {
        self.raw.push(lane, value);
    }

    /// Reads `lane` synchronously (see [`LaneHandle::read`]).
    #[must_use]
    pub fn get(&self, lane: usize) -> u64 {
        self.raw.read(lane)
    }

    /// Reads `lane` through the relaxed tier (see
    /// [`LaneHandle::read_stale`]): the current store word plus a bound on
    /// the updates it may be missing — the right call for rate displays and
    /// monitors that must never stall the writers.
    #[must_use]
    pub fn get_stale(&self, lane: usize) -> StaleRead {
        self.raw.read_stale(lane)
    }

    /// Publishes the current partial batch (see [`LaneHandle::flush`]).
    pub fn flush(&mut self) {
        self.raw.flush();
    }

    /// The underlying raw handle.
    #[must_use]
    pub fn raw(&self) -> &LaneHandle {
        &self.raw
    }
}

impl<K: AddTag> CounterHandle<K> {
    /// Adds `n` to the counter in `lane` (batched).
    pub fn add(&mut self, lane: usize, n: u64) {
        self.apply(lane, n);
    }

    /// Adds 1 to the counter in `lane` (batched).
    pub fn increment(&mut self, lane: usize) {
        self.apply(lane, 1);
    }
}

impl CoupRuntime {
    /// A new typed handle for operation tag `K`.
    ///
    /// # Panics
    ///
    /// Panics if `K::OP` is not the runtime's operation — the one dynamic
    /// check that makes every later use statically typed.
    #[must_use]
    pub fn counter<K: OpTag>(&self) -> CounterHandle<K> {
        assert_eq!(
            K::OP,
            self.op(),
            "typed handle mismatch: runtime applies {}, tag names {}",
            self.op(),
            K::OP
        );
        CounterHandle {
            raw: self.handle(),
            _op: PhantomData,
        }
    }
}
