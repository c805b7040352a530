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

/// The one definition of every ordering constant a mutation lane attacks:
/// `strong`, or `Relaxed` when `mutated` (the constant's own `cfg!` test), so
/// no constant can lose its weakened twin. Definitions stay on one line
/// (`#[rustfmt::skip]` if need be): `coup-lint` resolves them line by line.
pub(crate) const fn weakened_if(mutated: bool, strong: atomic::Ordering) -> atomic::Ordering {
    if mutated {
        atomic::Ordering::Relaxed
    } else {
        strong
    }
}

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
