//! The read side: the exact read — the software twin of the reduction a
//! read triggers (paper §3.1.3) over the sharers the writer bitmap names
//! (the §3.2 directory) — with its seqlock validation and read-hold
//! escalation, the demotion it and `update_read` share, and the stale tier
//! that skips the reduction.

use super::{CoupBackend, ReadCost, StaleRead, MAX_COUP_THREADS, READ_RETRY_LIMIT};
use crate::store::LaneSlot;
use crate::sync::atomic::{fence, Ordering};
use crate::sync::hint::spin_loop;

/// Writers a reduction pass locates in its small scratch list; a line with
/// more active writers takes the pass sized for [`MAX_COUP_THREADS`].
const FEW_WRITERS: usize = 4;

impl CoupBackend {
    /// One optimistic reduction pass over `slot`'s line: snapshot the writer
    /// bitmap, locate each named writer's slot and sample its epoch, fold the
    /// store value with the located buffered partials, and accept the result
    /// only if the bitmap, every sampled tag, and every sampled epoch are
    /// unmoved. `None` means a migration overlapped the pass and the caller
    /// must retry.
    ///
    /// Why a cleared bit cannot hide a delta: bit `t` is set *before* `t`
    /// buffers a delta and cleared only *after* `t`'s migration has reduced
    /// every buffered delta into the store. So when the initial acquire load
    /// of the bitmap shows bit `t` clear, all of `t`'s prior deltas are
    /// already store-visible (the clear's release edge orders the reduce
    /// before it) and the subsequent store load collects them; when it shows
    /// bit `t` set, the pass probes `t`'s table. Finding the tag means any
    /// flush racing the word read flips the slot's epoch inside the validated
    /// window, failing validation. *Not* finding the tag means the slot was
    /// already re-tagged by an eviction (tags are published before writer
    /// bits, and a tag store is never observed stale once its bitmap bit is:
    /// the bit's RMW is ordered after the tag's release store) — and that
    /// eviction's bit-clear happens-before the re-tag the probe observed, so
    /// the bitmap re-check below is guaranteed to see the bit fall and fail
    /// the pass. Either way no delta is observed in neither place, and none
    /// is observed twice (a store-visible delta implies a completed reduce,
    /// which implies the drain emptied the slot within the same odd-epoch
    /// window the validation rejects).
    fn try_reduce(&self, slot: LaneSlot, index: usize, cost: &mut ReadCost) -> Option<u64> {
        // ord: writer-bitmap
        let writers = self.line_meta[slot.line].writers.load(Ordering::Acquire);
        // The list of located slots is sized by the writer count, not by
        // MAX_COUP_THREADS: zeroing a 64-entry list (1.5 KB) on every pass
        // cost a cold read more than the reduction it served.
        if writers.count_ones() as usize <= FEW_WRITERS {
            self.reduce_pass::<FEW_WRITERS>(slot, index, writers, cost)
        } else {
            self.reduce_pass::<MAX_COUP_THREADS>(slot, index, writers, cost)
        }
    }

    /// The pass itself, over the `writers` bitmap [`CoupBackend::try_reduce`]
    /// loaded, with room to locate `N ≥ writers.count_ones()` slots.
    #[inline]
    fn reduce_pass<const N: usize>(
        &self,
        slot: LaneSlot,
        index: usize,
        writers: u64,
        cost: &mut ReadCost,
    ) -> Option<u64> {
        let op = self.store.op();
        let identity = op.identity_lane();
        let meta = &self.line_meta[slot.line];
        // (thread, slot index, sampled epoch) of each located writer slot.
        let mut located = [(0usize, 0usize, 0u64); N];
        let mut n = 0usize;
        let mut bits = writers;
        while bits != 0 {
            let thread = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(idx) = self.buffers[thread].locate(slot.line) {
                let epoch = self.buffers[thread].sample_epoch(idx);
                if epoch & 1 == 1 {
                    return None;
                }
                located[n] = (thread, idx, epoch);
                n += 1;
            }
            // Tag not found: the writer's slot was evicted (its delta is in
            // the store and the bitmap re-check below will observe the
            // cleared bit and retry) — nothing to collect here.
        }
        let mut value = self.store.load_lane(index);
        for &(thread, idx, _) in &located[..n] {
            let word = self.buffers[thread].load_word(idx, slot.word);
            cost.buffer_words += 1;
            let lane = (word & slot.mask) >> slot.shift;
            if lane != identity {
                value = op.apply_lane(value, lane) & slot.low_mask;
            }
        }
        // ord: seqlock-epoch
        fence(Ordering::Acquire);
        if meta.writers.load(Ordering::Relaxed) != writers {
            return None;
        }
        located[..n]
            .iter()
            .all(|&(thread, idx, epoch)| self.buffers[thread].unmoved(idx, slot.line, epoch))
            .then_some(value)
    }

    /// Escalation path of [`CoupBackend::read`]: after [`READ_RETRY_LIMIT`]
    /// optimistic passes were invalidated by racing migrations, register a
    /// read hold on the line so workers stop starting migrations of it —
    /// threshold flushes defer (workers keep buffering, which is always
    /// correct) and capacity evictions refuse held victims, detouring the
    /// conflicting update to a direct store RMW instead. The migrations
    /// already in flight complete, at most one deferred-check flush per
    /// worker slips in behind the hold, and each remaining worker can set
    /// its writer bit at most once before the bitmap and epochs go quiescent
    /// — so the loop terminates after finitely many passes instead of
    /// spinning unboundedly. Explicit [`UpdateBackend::flush`] calls (one
    /// per worker at the end of a run) ignore the hold; they are finite, so
    /// progress is preserved. Direct store RMWs slipping in under the hold
    /// are harmless to termination: they touch neither bitmap nor epochs,
    /// so they cannot invalidate a pass.
    pub(super) fn reduce_with_hold(
        &self,
        slot: LaneSlot,
        index: usize,
        cost: &mut ReadCost,
    ) -> u64 {
        let meta = &self.line_meta[slot.line];
        // ord: read-hold
        meta.read_holds.fetch_add(1, Ordering::AcqRel);
        cost.escalations += 1;
        let value = loop {
            if let Some(value) = self.try_reduce(slot, index, cost) {
                break value;
            }
            cost.retries += 1;
            spin_loop();
        };
        // ord: read-hold
        meta.read_holds.fetch_sub(1, Ordering::AcqRel);
        value
    }

    /// Test/sanitizer hook: run a read through the escalation path
    /// unconditionally. The hold protocol only engages after
    /// [`READ_RETRY_LIMIT`] invalidated optimistic passes — timing no
    /// deterministic test can force — so the sanitizer battery uses this to
    /// drive the `read-hold` sites and prove their ordering contract on
    /// real threads.
    #[cfg(any(test, coup_san))]
    pub fn read_escalated(&self, index: usize) -> u64 {
        let slot = self.geometry.slot(index);
        let mut cost = ReadCost::default();
        self.reduce_with_hold(slot, index, &mut cost)
    }

    /// The untallied reduction behind [`CoupBackend::exact_read`] and
    /// [`CoupBackend::reduce_all`]: lane `index`'s value and what the
    /// reduction cost. `#[inline]`: the read path stays one function, as
    /// before the tally was split off it.
    #[inline]
    fn reduce(&self, index: usize) -> (u64, ReadCost) {
        debug_assert!(index < self.store.len());
        let slot = self.geometry.slot(index);
        // On-demand reduction: global value ∘ the buffered partial of each
        // *active writer* of the line, per the writer bitmap — O(active
        // writers), not O(threads). A concurrent migration moves a delta
        // from a buffer into the store; reading the store before the reduce
        // and the buffer after the drain would observe the delta in *neither*
        // place. The per-slot seqlock epochs plus the tag and bitmap
        // rechecks rule that out (see [`CoupBackend::try_reduce`] for the
        // proof), and the retry loop is bounded: after [`READ_RETRY_LIMIT`]
        // invalidated passes the reader escalates to a flush-deferring hold
        // that forces the line quiescent instead of spinning forever.
        let mut cost = ReadCost::default();
        let value = loop {
            if let Some(value) = self.try_reduce(slot, index, &mut cost) {
                break value;
            }
            cost.retries += 1;
            if cost.retries >= u64::from(READ_RETRY_LIMIT) {
                break self.reduce_with_hold(slot, index, &mut cost);
            }
            spin_loop();
        };
        (value, cost)
    }

    /// [`UpdateBackend::read`](super::UpdateBackend::read): one reduction,
    /// tallied — with `demoting_update_read`'s fetch-op, the only caller of
    /// `record_read` — and then the line demoted, as a MEUSI read takes its
    /// line out of U. The flag is set only after the pass returns, so the
    /// pass, its validation and its read-hold escalation are those of an
    /// undemoted line.
    pub(super) fn exact_read(&self, thread: usize, index: usize) -> u64 {
        let (value, cost) = self.reduce(index);
        self.demote(self.geometry.slot(index).line);
        self.telemetry
            .record_read(thread, cost.buffer_words, cost.retries, cost.escalations);
        value
    }

    /// Takes `line` out of the privatized state: from now on, the first delta
    /// a worker sends the line after its slot last drained goes to the store
    /// instead (see `announce_writer`), so the line's writers drain away and
    /// later reads find no buffer word to reduce. A slot that
    /// already holds a delta keeps buffering until it drains. The one
    /// demotion rule: every exact read and every `update_read` demotes,
    /// `read_stale` and `snapshot` never do, and only the end of a
    /// `run_workers` job (`clear_demotions`) clears the flags.
    ///
    /// The flag is loaded first and stored only when clear, so a line
    /// already demoted pays no ownership miss.
    #[inline]
    fn demote(&self, line: usize) {
        let demoted = &self.line_meta[line].demoted;
        if demoted.load(Ordering::Relaxed) == 0 {
            demoted.store(1, Ordering::Relaxed);
        }
    }

    /// [`UpdateBackend::end_job`](super::UpdateBackend::end_job): clear
    /// every line's demotion flag, storing only where one is set.
    pub(super) fn clear_demotions(&self) {
        for meta in &self.line_meta {
            if meta.demoted.load(Ordering::Relaxed) != 0 {
                meta.demoted.store(0, Ordering::Relaxed);
            }
        }
    }

    /// [`UpdateBackend::update_read`](super::UpdateBackend::update_read), the
    /// decrement-and-test: demote the lane's line, then serve the pair.
    ///
    /// Demotion (see [`CoupBackend::demote`]) takes the line out of the
    /// privatized state until the job ends: hardware COUP reduces every U
    /// copy into M for a value-returning RMW, and here the first delta each
    /// worker would buffer goes to the store instead, so the line's writers
    /// drain away.
    ///
    /// When the writer bitmap, loaded *before* the update, is empty, the
    /// pair is one store fetch-op. That value is exact for the same reason a
    /// reduction pass that finds no writers is: every bit the load saw clear
    /// was cleared after its migration's reduce had landed (the clear's
    /// release edge, through the bitmap's RMW release sequence), and the
    /// fetch-op reads the latest store word, so it includes every such
    /// delta. The caller's own buffer holds nothing for the line, or its own
    /// bit would be set. Deltas buffered after the load are concurrent with
    /// the call — the freedom every read has. Otherwise the pair is an
    /// update then an exact read, as on the trait's default.
    pub(super) fn demoting_update_read(&self, thread: usize, index: usize, value: u64) -> u64 {
        debug_assert!(index < self.store.len());
        let line = self.geometry.slot(index).line;
        self.demote(line);
        let meta = &self.line_meta[line];
        // ord: writer-bitmap
        if meta.writers.load(Ordering::Acquire) == 0 {
            let value = self.store.rmw_lane(index, value);
            self.telemetry.record_read(thread, 0, 0, 0);
            return value;
        }
        self.buffered_update(thread, index, value);
        self.exact_read(thread, index)
    }

    /// The relaxed tier: the store word plus the outstanding buffered-delta
    /// count of the line's active writers. Never loads a buffer word, never
    /// retries, never arms a read hold — a hammering dashboard poller on
    /// this path cannot defer a single writer flush.
    ///
    /// The load order is the proof. (1) Writer bitmap first (Acquire): this
    /// is the read's linearization point. (2) Each named writer's pending
    /// count (Acquire, pairing `stale-pending`): the owner publishes the
    /// count *before* the delta word on update and zeroes it *after* the
    /// reduce on migration, both Release. (3) The store word **last**. So
    /// every buffered delta an exact read that happened-before this call
    /// could have observed is either *counted* — the pending load returns a
    /// count covering it — or *visible* — the pending load returned a later
    /// migrate-zero (or the bitmap load a later bit-clear, or the tag probe
    /// a later re-tag), whose Release edge orders that delta's reduce before
    /// the store load below. Loading the value first would break this: a
    /// migration landing between the value load and the pending load would
    /// be counted in neither place, under-reporting the bound.
    pub(super) fn stale_read(&self, thread: usize, index: usize) -> StaleRead {
        debug_assert!(index < self.store.len());
        let slot = self.geometry.slot(index);
        // ord: writer-bitmap
        let mut bits = self.line_meta[slot.line].writers.load(Ordering::Acquire);
        let mut staleness = 0u64;
        while bits != 0 {
            let writer = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(idx) = self.buffers[writer].locate(slot.line) {
                // A racing owner may have migrated and re-dirtied the slot
                // since the bitmap load; any stale count read here only
                // over-reports (its deltas are already store-visible),
                // which the bound's monotone contract permits.
                staleness += u64::from(self.buffers[writer].pending_count(idx));
            }
            // Tag not found with the bit set: an eviction re-tagged the
            // slot, and the probe's Acquire tag load observed a re-tag
            // published *after* that eviction's reduce — the evicted delta
            // is guaranteed visible in the store load below.
        }
        let value = self.store.load_lane(index);
        self.telemetry.record_stale_read(thread, staleness);
        StaleRead { value, staleness }
    }

    /// [`UpdateBackend::snapshot`](super::UpdateBackend::snapshot): every
    /// lane reduced non-destructively, exactly like a read, rather than by
    /// draining other threads' buffers: a cross-thread drain would break the
    /// single-writer invariant of `update` if a worker were still running
    /// (its plain store could resurrect an already-reduced delta). This way
    /// a mid-run snapshot is merely possibly stale, and a quiescent one is
    /// exact whether or not anyone flushed. A snapshot is not a read: it is
    /// not tallied.
    pub(super) fn reduce_all(&self) -> Vec<u64> {
        (0..self.store.len())
            .map(|index| self.reduce(index).0)
            .collect()
    }
}
