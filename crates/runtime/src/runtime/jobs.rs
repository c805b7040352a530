//! Worker jobs: [`CoupRuntime::run_workers`] and the [`JobCtx`] each job
//! thread receives.

use std::time::{Duration, Instant};

use super::CoupRuntime;
use crate::backend::{StaleRead, UpdateBackend};
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

impl CoupRuntime {
    /// Runs `job` once per worker identity on dedicated threads and
    /// returns the per-worker results in worker order plus the job's
    /// wall-clock time (including each worker's final buffer flush, so
    /// backends cannot hide work).
    ///
    /// Job threads *are* the workers for the duration, each the sole writer
    /// of its worker's privatized buffer. Jobs serialise against each other
    /// and against the first [`CoupRuntime::handle`], so a runtime may run
    /// jobs and then serve handles, but not the other way round.
    ///
    /// # Panics
    ///
    /// Panics if a handle has already spawned the resident drainers: they
    /// own the worker identities for the rest of the runtime's life. A
    /// panicking job thread's panic propagates with its own payload.
    pub fn run_workers<R, F>(&self, job: F) -> (Vec<R>, Duration)
    where
        R: Send,
        F: Fn(JobCtx<'_>) -> R + Sync,
    {
        // Poison recovery: a panicked job leaves at most unflushed deltas in
        // its workers' buffers, which reads still reduce, and demotion flags
        // it never cleared, which cost buffering but no delta, so the next
        // job may proceed. Holding the lock keeps the first handle from
        // spawning drainers mid-job.
        let _job = lock(&self.job);
        assert!(
            lock(&self.drainers).is_empty(),
            "run_workers on a runtime that serves handles: its resident \
             drainers own the worker identities"
        );
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
        // Every worker has flushed and joined: the job's demotions end here,
        // not at the first worker's flush, so they last for the whole job.
        backend.end_job();
        (results, start.elapsed())
    }
}
