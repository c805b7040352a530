//! Worker jobs: [`CoupRuntime::run_workers`], the [`JobCtx`] each job
//! thread receives, and the pause gate that hands the per-worker buffers
//! from the resident drainers to the job threads and back.

use std::time::{Duration, Instant};

use super::{CoupRuntime, Shared};
use crate::backend::{StaleRead, UpdateBackend};
use crate::sync::atomic::Ordering;
use crate::sync::lock;

/// Per-worker context of a [`CoupRuntime::run_workers`] job: the worker's
/// index, a run-wide barrier, and direct (unbatched) backend access with the
/// worker's thread identity already bound — kernels never juggle raw thread
/// indices.
pub struct JobCtx<'a> {
    worker: usize,
    workers: usize,
    barrier: &'a std::sync::Barrier,
    backend: &'a dyn UpdateBackend,
}

impl std::fmt::Debug for JobCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtx")
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl JobCtx<'_> {
    /// This worker's index in `0..workers`.
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total workers in the job.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Blocks until every worker of the job reaches the barrier. Every
    /// worker must execute the same number of barrier steps: a worker that
    /// panics while others are blocked here deadlocks the job
    /// (`std::sync::Barrier` has no poisoning).
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Applies `op(current, value)` to `lane` through this worker's
    /// privatized buffer — the direct path, no queue.
    pub fn update(&self, lane: usize, value: u64) {
        self.backend.update(self.worker, lane, value);
    }

    /// Update immediately followed by a read of the same lane (see
    /// [`UpdateBackend::update_read`] for the backends' atomicity contract).
    pub fn update_read(&self, lane: usize, value: u64) -> u64 {
        self.backend.update_read(self.worker, lane, value)
    }

    /// Reads `lane`, reducing buffered partials as needed.
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.backend.read(self.worker, lane)
    }

    /// Reads `lane` through the relaxed tier: no reduction, no read holds,
    /// a monotone staleness bound instead (see [`StaleRead`]). Only sound
    /// where the kernel tolerates bounded staleness — values that feed
    /// control flow or post-barrier exactness assertions must use
    /// [`JobCtx::read`].
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        self.backend.read_stale(self.worker, lane)
    }
}

impl Shared {
    /// Where a worker sits out a [`CoupRuntime::run_workers`] job: announce
    /// the pause was observed, then park until resumed (or closed). The job
    /// starts only after *every* worker acknowledged, which is what makes
    /// the buffer ownership hand-off sound without a queue lock.
    pub(super) fn pause_gate(&self, worker: usize) {
        self.pause_acks.fetch_add(1, Ordering::Relaxed);
        self.pause_done.notify();
        loop {
            let status = self.resume.status();
            if self.paused.fetch_add(0, Ordering::Acquire) == 0 // ord: job-pause
                || self.resume.is_closed()
            {
                break;
            }
            self.park_counted(&self.resume, status, worker);
        }
        self.pause_acks.fetch_sub(1, Ordering::Relaxed);
    }
}

impl CoupRuntime {
    /// Runs `job` once per resident-worker identity on dedicated threads and
    /// returns the per-worker results in worker order plus the job's
    /// wall-clock time (including each worker's final buffer flush, so
    /// backends cannot hide work).
    ///
    /// The submission path is drained and paused for the duration — job
    /// threads temporarily *are* the workers, with exclusive ownership of
    /// the per-worker privatized buffers — and resumes when the job ends.
    /// Jobs serialise against each other. Updates submitted concurrently
    /// with a job are applied after it finishes.
    pub fn run_workers<R, F>(&self, job: F) -> (Vec<R>, Duration)
    where
        R: Send,
        F: Fn(JobCtx<'_>) -> R + Sync,
    {
        // Poison recovery: a previous job's panic already ran the resume
        // guard below, so the runtime's invariants hold and the next job may
        // proceed.
        let _job = lock(&self.job);
        let live_workers = lock(&self.drainers).len() as u64;
        // Quiesce first (the job must observe every update submitted before
        // the call), then pause; the job starts only once every worker has
        // acknowledged the pause from inside its gate, which is what hands
        // the job threads exclusive buffer ownership.
        self.drain();
        if live_workers > 0 {
            self.shared.paused.store(1, Ordering::Release); // ord: job-pause
            self.shared.wake_workers();
            loop {
                let status = self.shared.pause_done.status();
                if self.shared.pause_acks.fetch_add(0, Ordering::Relaxed) >= live_workers {
                    break;
                }
                self.shared.pause_done.park(status, || {});
            }
        }
        // Resume draining even if the job panics — otherwise a caught panic
        // would leave the workers paused forever and wedge every later
        // submission and drain().
        struct ResumeDraining<'a>(&'a Shared, bool);
        impl Drop for ResumeDraining<'_> {
            fn drop(&mut self) {
                if self.1 {
                    self.0.paused.store(0, Ordering::Release); // ord: job-pause
                    self.0.resume.notify();
                }
            }
        }
        let _resume = ResumeDraining(self.shared.as_ref(), live_workers > 0);
        let backend = self.shared.backend.as_ref();
        let workers = self.shared.workers;
        let barrier = std::sync::Barrier::new(workers);
        let run = |worker: usize| {
            let result = job(JobCtx {
                worker,
                workers,
                barrier: &barrier,
                backend,
            });
            backend.flush(worker);
            result
        };
        let start = Instant::now();
        // Scoped threads, so the job may borrow the caller's data. Worker 0
        // runs on the calling thread: a single-worker job spawns nothing.
        let results = std::thread::scope(|scope| {
            let run = &run;
            let spawned: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || run(worker)))
                .collect();
            let mut results = vec![run(0)];
            for handle in spawned {
                match handle.join() {
                    Ok(result) => results.push(result),
                    // Re-raise the worker's own payload so a kernel assertion
                    // message survives to the test report instead of being
                    // replaced by a generic "worker thread panicked".
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        (results, start.elapsed())
    }
}
