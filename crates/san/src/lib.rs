//! # coup-san: a happens-before sanitizer behind the sync facade
//!
//! The third backend for `coup_runtime::sync` (alongside `std` and the
//! loom-style model shim). Selected by `--cfg coup_san`,
//! it mirrors the `std::sync` API surface the runtime uses — call sites
//! do not change — while every wrapper delegates to a *real* std atomic
//! and maintains shadow state: per-thread vector clocks, per-atomic
//! publication records (last Release writer's clock, `#[track_caller]`
//! location, value epoch), and dynamic site/edge ledgers.
//!
//! The checks are deterministic and metadata-based, cross-checked against
//! the static `ord:` site table that `coup-lint` extracts from
//! `crates/runtime/src` (loaded through the lint library, so both halves
//! share one parser):
//!
//! * **untracked-site** — a non-Relaxed op executed at a line no table
//!   entry covers.
//! * **ordering-drift** — the executed ordering is not among the entry's
//!   declared orderings.
//! * **unpublished-acquire** — an acquire-side op observed a value whose
//!   writer carried no Release edge even though the writer's line is a
//!   declared release-side site (flagged even on x86, where the hardware
//!   would hide it).
//! * **expected-ordering-never-ran** — at snapshot time, a table entry
//!   was exercised but none of its declared orderings ever executed.
//!
//! [`verify`] panics on any violation and otherwise returns the full
//! [`SanReport`], including `ord:` tag coverage (which pairing tags were
//! crossed by at least one observed happens-before edge).

mod shadow;

pub use shadow::{verify, DynEdge, DynSite, SanReport, Violation};

/// Mirror of `std::hint` for the facade re-export.
pub mod hint {
    pub use std::hint::spin_loop;
}

/// Atomics, `Ordering`, and `fence`, instrumented with shadow state.
pub mod sync {
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use crate::shadow::{self, ShadowRec, SiteId};
        use std::sync::Mutex;

        /// `std::sync::atomic::fence`, plus the shadow fence protocol
        /// (release fences plant a sticky head; acquire fences join every
        /// head observed by loads since the previous acquire fence).
        #[track_caller]
        pub fn fence(order: Ordering) {
            let site = SiteId::here();
            std::sync::atomic::fence(order);
            shadow::on_fence(site, order);
        }

        macro_rules! shadow_atomic {
            ($name:ident, $real:path, $int:ty) => {
                /// Shadow-instrumented drop-in for the std atomic of the
                /// same name: real hardware op first, then the shadow
                /// update under this atomic's shadow mutex.
                pub struct $name {
                    real: $real,
                    shadow: Mutex<ShadowRec>,
                }

                impl $name {
                    pub const fn new(value: $int) -> $name {
                        $name {
                            real: <$real>::new(value),
                            shadow: Mutex::new(ShadowRec::new()),
                        }
                    }

                    #[track_caller]
                    pub fn load(&self, order: Ordering) -> $int {
                        let site = SiteId::here();
                        let guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                        let value = self.real.load(order);
                        shadow::on_load(&guard, site, order);
                        drop(guard);
                        value
                    }

                    #[track_caller]
                    pub fn store(&self, value: $int, order: Ordering) {
                        let site = SiteId::here();
                        let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                        self.real.store(value, order);
                        shadow::on_store(&mut guard, site, order);
                    }

                    #[track_caller]
                    pub fn swap(&self, value: $int, order: Ordering) -> $int {
                        let site = SiteId::here();
                        let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                        let prev = self.real.swap(value, order);
                        shadow::on_rmw(&mut guard, site, order);
                        prev
                    }

                    #[track_caller]
                    pub fn compare_exchange(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        let site = SiteId::here();
                        let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                        let result = self.real.compare_exchange(current, new, success, failure);
                        match &result {
                            Ok(_) => shadow::on_rmw(&mut guard, site, success),
                            Err(_) => shadow::on_load(&guard, site, failure),
                        }
                        result
                    }

                    #[track_caller]
                    pub fn compare_exchange_weak(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        let site = SiteId::here();
                        let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                        let result = self
                            .real
                            .compare_exchange_weak(current, new, success, failure);
                        match &result {
                            Ok(_) => shadow::on_rmw(&mut guard, site, success),
                            Err(_) => shadow::on_load(&guard, site, failure),
                        }
                        result
                    }

                    shadow_rmw!($int, fetch_add);
                    shadow_rmw!($int, fetch_sub);
                    shadow_rmw!($int, fetch_and);
                    shadow_rmw!($int, fetch_or);
                    shadow_rmw!($int, fetch_xor);
                    shadow_rmw!($int, fetch_min);
                    shadow_rmw!($int, fetch_max);
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        self.real.fmt(f)
                    }
                }

                impl Default for $name {
                    fn default() -> $name {
                        $name::new(<$int>::default())
                    }
                }
            };
        }

        macro_rules! shadow_rmw {
            ($int:ty, $method:ident) => {
                #[track_caller]
                pub fn $method(&self, value: $int, order: Ordering) -> $int {
                    let site = SiteId::here();
                    let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                    let prev = self.real.$method(value, order);
                    shadow::on_rmw(&mut guard, site, order);
                    prev
                }
            };
        }

        shadow_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        shadow_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
        shadow_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

        /// Shadow-instrumented `AtomicBool` (load/store/swap — the only
        /// ops the runtime uses on bools).
        pub struct AtomicBool {
            real: std::sync::atomic::AtomicBool,
            shadow: Mutex<ShadowRec>,
        }

        impl AtomicBool {
            pub const fn new(value: bool) -> AtomicBool {
                AtomicBool {
                    real: std::sync::atomic::AtomicBool::new(value),
                    shadow: Mutex::new(ShadowRec::new()),
                }
            }

            #[track_caller]
            pub fn load(&self, order: Ordering) -> bool {
                let site = SiteId::here();
                let guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                let value = self.real.load(order);
                shadow::on_load(&guard, site, order);
                drop(guard);
                value
            }

            #[track_caller]
            pub fn store(&self, value: bool, order: Ordering) {
                let site = SiteId::here();
                let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                self.real.store(value, order);
                shadow::on_store(&mut guard, site, order);
            }

            #[track_caller]
            pub fn swap(&self, value: bool, order: Ordering) -> bool {
                let site = SiteId::here();
                let mut guard = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                let prev = self.real.swap(value, order);
                shadow::on_rmw(&mut guard, site, order);
                prev
            }
        }

        impl std::fmt::Debug for AtomicBool {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.real.fmt(f)
            }
        }

        impl Default for AtomicBool {
            fn default() -> AtomicBool {
                AtomicBool::new(false)
            }
        }
    }

    use crate::shadow::{self, VClock};
    use std::sync::{LockResult, PoisonError};

    /// `std::sync::Mutex` plus a shadow clock: unlocking leaves the
    /// holder's vector clock for the next locker to join, so mutex-guarded
    /// data transfer participates in happens-before tracking.
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
        clock: std::sync::Mutex<VClock>,
    }

    impl<T> Mutex<T> {
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                inner: std::sync::Mutex::new(value),
                clock: std::sync::Mutex::new(VClock::new()),
            }
        }

        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let (guard, poisoned) = match self.inner.lock() {
                Ok(guard) => (guard, false),
                Err(err) => (err.into_inner(), true),
            };
            {
                let shadow = self.clock.lock().unwrap_or_else(|e| e.into_inner());
                shadow::mutex_acquired(&shadow);
            }
            let wrapped = MutexGuard {
                inner: Some(guard),
                clock: &self.clock,
            };
            if poisoned {
                Err(PoisonError::new(wrapped))
            } else {
                Ok(wrapped)
            }
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Guard for [`Mutex`]: on drop, deposits the holder's clock before
    /// releasing the real lock.
    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        clock: &'a std::sync::Mutex<VClock>,
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken by Condvar::wait")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken by Condvar::wait")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.is_some() {
                let mut shadow = self.clock.lock().unwrap_or_else(|e| e.into_inner());
                shadow::mutex_released(&mut shadow);
                // The real guard drops after the shadow deposit, so the
                // next locker is guaranteed to see it.
            }
        }
    }

    /// `std::sync::Condvar` over the shadow [`Mutex`]: waiting releases
    /// and reacquires the shadow clock exactly like unlock + lock.
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        pub const fn new() -> Condvar {
            Condvar {
                inner: std::sync::Condvar::new(),
            }
        }

        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let clock = guard.clock;
            {
                let mut shadow = clock.lock().unwrap_or_else(|e| e.into_inner());
                shadow::mutex_released(&mut shadow);
            }
            let real = guard.inner.take().expect("guard already taken");
            let (real, poisoned) = match self.inner.wait(real) {
                Ok(real) => (real, false),
                Err(err) => (err.into_inner(), true),
            };
            {
                let shadow = clock.lock().unwrap_or_else(|e| e.into_inner());
                shadow::mutex_acquired(&shadow);
            }
            let rewrapped = MutexGuard {
                inner: Some(real),
                clock,
            };
            if poisoned {
                Err(PoisonError::new(rewrapped))
            } else {
                Ok(rewrapped)
            }
        }

        /// Timed wait: releases and reacquires the shadow clock exactly
        /// like [`Condvar::wait`]; the timeout itself carries no
        /// happens-before edge (only the reacquired mutex does).
        pub fn wait_timeout<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            dur: std::time::Duration,
        ) -> LockResult<(MutexGuard<'a, T>, std::sync::WaitTimeoutResult)> {
            let clock = guard.clock;
            {
                let mut shadow = clock.lock().unwrap_or_else(|e| e.into_inner());
                shadow::mutex_released(&mut shadow);
            }
            let real = guard.inner.take().expect("guard already taken");
            let (real, timeout, poisoned) = match self.inner.wait_timeout(real, dur) {
                Ok((real, timeout)) => (real, timeout, false),
                Err(err) => {
                    let (real, timeout) = err.into_inner();
                    (real, timeout, true)
                }
            };
            {
                let shadow = clock.lock().unwrap_or_else(|e| e.into_inner());
                shadow::mutex_acquired(&shadow);
            }
            let rewrapped = MutexGuard {
                inner: Some(real),
                clock,
            };
            if poisoned {
                Err(PoisonError::new((rewrapped, timeout)))
            } else {
                Ok((rewrapped, timeout))
            }
        }

        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        fn default() -> Condvar {
            Condvar::new()
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }
}

/// `std::thread` mirror: spawn forks the parent's vector clock into the
/// child; join folds the child's final clock back into the joiner.
pub mod thread {
    pub use std::thread::yield_now;

    use crate::shadow::{self, VClock};
    use std::sync::{Arc, Mutex};

    /// Handle whose `join` merges the child's final shadow clock.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        clock: Arc<Mutex<Option<VClock>>>,
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            let result = self.inner.join();
            if result.is_ok() {
                if let Some(clock) = self.clock.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    shadow::join_clock(&clock);
                }
            }
            result
        }
    }

    /// Mirror of `std::thread::Builder` (the runtime names its workers).
    pub struct Builder {
        inner: std::thread::Builder,
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder {
                inner: std::thread::Builder::new(),
            }
        }

        pub fn name(self, name: String) -> Builder {
            Builder {
                inner: self.inner.name(name),
            }
        }

        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let parent_clock = shadow::fork_clock();
            let cell: Arc<Mutex<Option<VClock>>> = Arc::new(Mutex::new(None));
            let cell_child = Arc::clone(&cell);
            let inner = self.inner.spawn(move || {
                shadow::adopt_clock(parent_clock);
                let result = f();
                let final_clock = shadow::final_clock();
                *cell_child.lock().unwrap_or_else(|e| e.into_inner()) = Some(final_clock);
                result
            })?;
            Ok(JoinHandle { inner, clock: cell })
        }
    }

    impl Default for Builder {
        fn default() -> Builder {
            Builder::new()
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }
}
