//! Synchronization facade: the single choke point for every atomic, mutex,
//! condvar, spin hint, and thread spawn in this crate.
//!
//! Normally these re-exports are exactly `std`. Two cfg-gated backends swap
//! in without any call-site changes:
//!
//! * `--cfg coup_model` → the `loom` shim, whose types run inside a
//!   deterministic model-checking scheduler with C11-style weak memory
//!   (per-location modification order + happens-before clocks), so the
//!   `model_tests` module can exhaustively explore interleavings of the
//!   runtime's lock-free protocols. Outside a `loom::model(..)` execution
//!   the shim types transparently delegate to `std`.
//! * `--cfg coup_san` → the `coup-san` happens-before sanitizer: every
//!   atomic delegates to a real std atomic while shadow vector clocks and
//!   publication records track which `ord:`-tagged site published every
//!   observed value, cross-checked at runtime against the static site table
//!   `coup-lint` extracts from this directory (see `tests/san_battery.rs`).
//!   Runs on real threads at full speed, so the whole tier-1 suite and the
//!   stress battery execute under it in CI.
//!
//! Each cfg is the whole gate (the manifest pulls `loom` / `coup-san` in
//! under the same cfg), and setting both is a compile error: the sanitizer
//! needs real threads, which the model scheduler replaces.
//!
//! House rules (enforced by `coup-lint`, see `crates/lint`):
//! - no `std::sync::atomic` imports anywhere in this crate outside this file;
//! - no `SeqCst` without an explicit `// ord: allow-seqcst(..)` justification;
//! - every `Release`/`Acquire`/`AcqRel` site carries an `// ord: <tag>`
//!   comment naming its pairing group, and every tag must have both a
//!   release-side and an acquire-side site somewhere in the crate.
//!
//! - an ordering constant weakened by `coup_mutation = "<value>"` names its
//!   own `ord:` tag as the value (the block beside [`weakened_if`] below).
//!
//! The per-protocol pairing tables live in ARCHITECTURE.md under
//! "The memory-ordering contract".

#[cfg(all(coup_model, coup_san))]
compile_error!(
    "`--cfg coup_model` and `--cfg coup_san` are mutually exclusive: the sanitizer shadows \
     real threads, which the model scheduler replaces"
);

#[cfg(coup_model)]
pub(crate) use loom::{
    hint,
    sync::{atomic, Condvar, Mutex, MutexGuard},
    thread,
};

#[cfg(all(coup_san, not(coup_model)))]
pub(crate) use coup_san::{
    hint,
    sync::{atomic, Condvar, Mutex, MutexGuard},
    thread,
};

#[cfg(not(any(coup_model, coup_san)))]
pub(crate) use std::{
    hint,
    sync::{atomic, Condvar, Mutex, MutexGuard},
    thread,
};

/// Locks `mutex`, recovering the guard from poison — the crate's one poison
/// policy: every mutex here guards state that is valid at each step (a unit
/// token, a join-handle list, a lazily created ring), so a panic elsewhere
/// never leaves it half-updated.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `strong`, or `Relaxed` when `mutated` (the constant's own `cfg!` test), so
/// no edge below can lose its weakened twin.
pub(crate) const fn weakened_if(mutated: bool, strong: atomic::Ordering) -> atomic::Ordering {
    if mutated {
        atomic::Ordering::Relaxed
    } else {
        strong
    }
}

/// The seven *load-bearing* edges, each under the one name it has everywhere:
/// its `ord:` tag. `--cfg coup_mutation="<tag>"` weakens that constant alone
/// to `Relaxed`, and CI's per-edge lanes — which take their values from this
/// block — require both `model_tests::<tag in snake case>` (under
/// `coup_model`) and the unchanged sanitizer battery (under `coup_san`) to
/// fail for each. `Cargo.toml`'s `check-cfg` lists the same seven values, so a
/// value misspelled here does not compile under `-D warnings`, coup-lint's
/// tests reject a listed value no constant here carries, and `coup-lint`
/// (R-MUTATION) rejects a constant whose value is not its own tag.
/// Production builds always resolve to the strong ordering.
///
/// An edge qualifies when weakening it admits a concrete bad interleaving,
/// documented at its model test. The seven tags with no constant here are
/// doubly covered or single-RMW edges (ARCHITECTURE.md's edge table gives
/// the reason for each): `ring-consume`'s head store, for instance, is
/// unobservable in the model's execution-order semantics, though on real
/// hardware it is what keeps a producer from overwriting a slot whose loads
/// are still in flight.
#[rustfmt::skip] // one definition per line: `coup-lint` resolves them line by line
mod edges {
    use super::{atomic::Ordering, weakened_if};

    /// `migrate_slot`'s even-epoch store closing the seqlock window.
    pub(crate) const EPOCH_PUBLISH: Ordering = weakened_if(cfg!(coup_mutation = "seqlock-epoch"), Ordering::Release); // ord: seqlock-epoch
    /// `migrate_slot`'s writer-bit clear: a cleared bit promises the reduce.
    pub(crate) const WRITER_RETIRE: Ordering = weakened_if(cfg!(coup_mutation = "writer-bitmap"), Ordering::AcqRel); // ord: writer-bitmap
    /// `SpscRing::publish`'s tail store: the ring's one publication edge.
    pub(crate) const RING_PUBLISH: Ordering = weakened_if(cfg!(coup_mutation = "ring-publish"), Ordering::Release); // ord: ring-publish
    /// `ShardDirectory::retire`'s RETIRED store handing over the final tail.
    pub(crate) const SHARD_RETIRE: Ordering = weakened_if(cfg!(coup_mutation = "shard-retire"), Ordering::Release); // ord: shard-retire
    /// `Parker::notify`'s epoch bump and `Parker::close`'s closed bit.
    pub(crate) const WAKE_PUBLISH: Ordering = weakened_if(cfg!(coup_mutation = "queue-wake"), Ordering::Release); // ord: queue-wake
    /// A worker's `applied` bump after a batch: what `drain()` acquires.
    pub(crate) const QUIESCE_PUBLISH: Ordering = weakened_if(cfg!(coup_mutation = "drain-quiesce"), Ordering::Release); // ord: drain-quiesce
    /// The snapshot epoch bump sealing the refresher's Relaxed word stores: a
    /// reader that Acquires epoch `N` sees every word of snapshot `N` or later.
    pub(crate) const SNAP_PUBLISH: Ordering = weakened_if(cfg!(coup_mutation = "snap-publish"), Ordering::Release); // ord: snap-publish
}
pub(crate) use edges::*;

/// Compile-time proof that the default build's facade is a plain `std`
/// re-export — not a wrapper with the same name. Each helper only
/// type-checks if the facade type *unifies* with the `std` type, so any
/// accidental indirection in the default arm fails `cargo test` at
/// compile time rather than silently costing performance.
#[cfg(all(test, not(any(coup_model, coup_san))))]
mod std_facade_identity {
    fn is_std_atomic_u64(x: &std::sync::atomic::AtomicU64) -> &std::sync::atomic::AtomicU64 {
        x
    }
    fn is_std_mutex(x: &std::sync::Mutex<u8>) -> &std::sync::Mutex<u8> {
        x
    }
    fn is_std_condvar(x: &std::sync::Condvar) -> &std::sync::Condvar {
        x
    }

    #[test]
    fn default_facade_is_a_plain_std_reexport() {
        let atomic: super::atomic::AtomicU64 = super::atomic::AtomicU64::new(7);
        assert_eq!(
            is_std_atomic_u64(&atomic).load(std::sync::atomic::Ordering::Relaxed),
            7
        );
        let mutex: super::Mutex<u8> = super::Mutex::new(3);
        assert_eq!(*is_std_mutex(&mutex).lock().unwrap(), 3);
        let condvar: super::Condvar = super::Condvar::new();
        is_std_condvar(&condvar).notify_one();
    }
}
