//! The buffer table: one sparse [`ThreadBuffer`] per worker — the software
//! twin of U-state lines in a private cache (paper §3.1.2) — and the
//! owner-side protocols that fill and drain it (privatize, cold-victim
//! eviction, the odd-epoch migration, buffered update and flush). The slot
//! layout is named in this file only: `read.rs` reaches it through the five
//! `#[inline]` reader methods (locate, sample the epoch, load a word,
//! re-validate, load the pending count).

use coup_protocol::line::LineData;
use coup_protocol::ops::CommutativeOp;

use super::{CoupBackend, HOLD_DEFER_FACTOR, PROBE_WINDOW};
use crate::store::PaddedLine;
use crate::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{EPOCH_PUBLISH, WRITER_RETIRE};
use crate::telemetry::Bypass;

/// The empty-slot tag. A slot's tag is `line + 1` once claimed; tags only
/// ever change claimed→claimed (re-tag on eviction), never back to empty.
const EMPTY_TAG: u64 = 0;

/// Reference-mark lifetime, in full-window misses per slot: every
/// `MARK_AGE × capacity` misses that find their probe window full, the
/// owner clears all of its buffer's marks, so a line that stopped being hit
/// turns cold again and an admitted line may displace it. Long enough that
/// a line hit a few times per aging period stays resident; short enough
/// that a hot set which moves is re-learned within a few periods.
pub(super) const MARK_AGE: usize = 64;

#[inline]
fn tag_of(line: usize) -> u64 {
    line as u64 + 1
}

/// One worker's sparse privatized update buffer: an open-addressed,
/// line-granular table of `capacity` cache-line slots. Slot words hold
/// *partial updates* initialised to the identity element, exactly like a
/// private cache line in the U state; the tag array maps slots back to store
/// lines so concurrent readers can find (and seqlock-validate) a writer's
/// buffered delta.
///
/// Single-writer: only the owning worker stores to the slot words, tags,
/// pending counts, and reference marks; readers of other threads load tags,
/// epochs, and words during reductions.
///
/// Indexing is set-associative like a hardware cache: a line's *home* slot is
/// `line & mask` (identity hashing — low line bits, the same bits a cache's
/// set index uses) and the line may live in any of the `window` slots probed
/// linearly from home. When `capacity ≥ store lines` every line has a unique
/// home and no conflict can ever arise — the unbounded configuration degrades
/// to the dense mirror of earlier revisions.
#[derive(Debug)]
pub(super) struct ThreadBuffer {
    /// `capacity` cache-line-sized delta slots (64-byte aligned).
    slots: Box<[PaddedLine]>,
    /// Per-slot line tag: `line + 1`, or [`EMPTY_TAG`] before first use.
    /// Written by the owner (Release), read by reducing readers (Acquire).
    tags: Box<[AtomicU64]>,
    /// Per-slot flush epoch, seqlock-style: odd while the owner is migrating
    /// the slot's line into the store (drain to identity + reduce), bumped to the next
    /// even value when the migration completes. 64 bits wide so a validation
    /// cannot be fooled by wrap-around inside one read (a 2⁶³-flush ABA is
    /// decades of machine time, not a reachable race).
    epochs: Box<[AtomicU64]>,
    /// Unflushed updates per slot; owner-only.
    pending: Box<[AtomicU32]>,
    /// Reference mark per slot: set when an update *hits* the slot (a claim
    /// leaves it clear), cleared only by aging. An unmarked slot is *cold*
    /// and may be evicted; a marked one never is. Owner-only.
    marks: Box<[AtomicU64]>,
    /// Full-window misses since the marks were last cleared; at
    /// `MARK_AGE × capacity` the owner clears every mark and restarts the
    /// count. Owner-only.
    misses: AtomicUsize,
    /// Admission candidate per *home* slot (`line & mask`): the tag of the
    /// last line whose miss found that home's probe window full and was
    /// turned away to the store, or [`EMPTY_TAG`]. A line displaces a
    /// resident one only on its second such miss in a row. Owner-only.
    candidates: Box<[AtomicU64]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Probe window length: `min(PROBE_WINDOW, capacity)`.
    window: usize,
}

impl ThreadBuffer {
    pub(super) fn new(op: CommutativeOp, capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        let identity = op.identity_word();
        let slots: Box<[PaddedLine]> = (0..capacity).map(|_| PaddedLine::default()).collect();
        for slot in &slots {
            for word in &slot.words {
                word.store(identity, Ordering::Relaxed);
            }
        }
        ThreadBuffer {
            slots,
            tags: (0..capacity).map(|_| AtomicU64::new(EMPTY_TAG)).collect(),
            epochs: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            pending: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            marks: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            misses: AtomicUsize::new(0),
            candidates: (0..capacity).map(|_| AtomicU64::new(EMPTY_TAG)).collect(),
            mask: capacity - 1,
            window: PROBE_WINDOW.min(capacity),
        }
    }

    pub(super) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Bytes of buffer state: the fixed bookkeeping plus, per slot, the
    /// data line and its tag/epoch/mark/candidate/pending entries.
    pub(super) fn bytes(&self) -> usize {
        let per_slot = std::mem::size_of::<PaddedLine>()
            + std::mem::size_of::<AtomicU64>() * 4 // tag, epoch, mark, candidate
            + std::mem::size_of::<AtomicU32>(); // pending
        std::mem::size_of::<ThreadBuffer>() + self.capacity() * per_slot
    }

    /// The store line slot `idx` is tagged with (the slot must be claimed).
    fn line_of(&self, idx: usize) -> usize {
        (self.tags[idx].load(Ordering::Relaxed) - 1) as usize
    }

    /// The slot holding `line`'s buffered delta, if the table has one. Owner
    /// and readers probe the identical window, so a tag the owner published
    /// is always discoverable; the Acquire load pairs with the owner's
    /// Release tag store, making the slot's prior contents visible.
    #[inline]
    pub(super) fn locate(&self, line: usize) -> Option<usize> {
        let tag = tag_of(line);
        for i in 0..self.window {
            let idx = (line + i) & self.mask;
            // ord: buffer-tag-publish
            if self.tags[idx].load(Ordering::Acquire) == tag {
                return Some(idx);
            }
        }
        None
    }

    /// Samples slot `idx`'s flush epoch for a seqlock pass: odd means a
    /// migration is in flight and the pass must retry.
    #[inline]
    pub(super) fn sample_epoch(&self, idx: usize) -> u64 {
        self.epochs[idx].load(Ordering::Acquire) // ord: seqlock-epoch
    }

    /// Loads word `word` of slot `idx`'s buffered partial.
    #[inline]
    pub(super) fn load_word(&self, idx: usize, word: usize) -> u64 {
        self.slots[idx].words[word].load(Ordering::Acquire) // ord: buffer-word
    }

    /// The seqlock re-validation: slot `idx` still holds `line` at the
    /// sampled `epoch` (Relaxed — the caller's acquire fence orders it).
    #[inline]
    pub(super) fn unmoved(&self, idx: usize, line: usize, epoch: u64) -> bool {
        self.tags[idx].load(Ordering::Relaxed) == tag_of(line)
            && self.epochs[idx].load(Ordering::Relaxed) == epoch
    }

    /// Slot `idx`'s outstanding buffered-update count, for the stale tier.
    #[inline]
    pub(super) fn pending_count(&self, idx: usize) -> u32 {
        self.pending[idx].load(Ordering::Acquire) // ord: stale-pending
    }
}

impl CoupBackend {
    /// Claims a slot in `thread`'s buffer for `line` and publishes the tag.
    /// Prefers an empty slot in the probe window; otherwise the line must
    /// pass admission, and then evicts a cold victim (see
    /// [`CoupBackend::choose_victim`]), migrating its delta into the store
    /// first if dirty. Returns the claimed slot index, or `None` when the
    /// update must go around the buffer as a direct store RMW (see
    /// [`CoupBackend::buffered_update`]) — one bypass arm, three triggers;
    /// two are recorded here (the third, a demoted line, in
    /// `announce_writer`):
    ///
    /// * **Admission.** A miss on a full window displaces a resident line
    ///   only on the line's *second* such miss in a row at its home slot,
    ///   and only a *cold* one — a slot not hit since the marks were last
    ///   cleared; the first miss records the line as the home's candidate
    ///   and bypasses, and so does an admitted miss whose window holds no
    ///   cold slot. A one-touch tail line thus costs one RMW — the atomic
    ///   baseline — instead of a migration, and a line that does repeat
    ///   still cannot displace a hot resident; a cyclic scan over more
    ///   same-home lines than the window holds keeps the first window's
    ///   worth resident and sends the overflow to the store, one RMW each.
    ///   The gate covers clean victims too; empty-slot claims — all an
    ///   unbounded buffer ever makes, every line having its own home —
    ///   never consult it.
    /// * **Read holds.** An admitted line finds every cold slot read-held —
    ///   evicting one would churn its epochs and starve the escalated reader
    ///   the hold protects.
    ///
    /// Either way the line stays the candidate, so it is admitted again on
    /// its next miss. Every full-window miss also ages the marks: the
    /// `MARK_AGE × capacity`-th clears them all, so a resident that stopped
    /// being hit turns cold and can be displaced.
    ///
    /// Owner-only. Out of line, so the hit path of `buffered_update` stays
    /// a probe and a store.
    #[cold]
    #[inline(never)]
    fn privatize(&self, thread: usize, line: usize) -> Option<usize> {
        let buf = &self.buffers[thread];
        let empty = (0..buf.window)
            .map(|i| (line + i) & buf.mask)
            .find(|&idx| buf.tags[idx].load(Ordering::Relaxed) == EMPTY_TAG);
        let idx = match empty {
            Some(idx) => idx,
            None => {
                // Age the marks: the period is a power of two, like capacity.
                let misses =
                    (buf.misses.load(Ordering::Relaxed) + 1) & (MARK_AGE * buf.capacity() - 1);
                buf.misses.store(misses, Ordering::Relaxed);
                if misses == 0 {
                    for mark in &buf.marks {
                        mark.store(0, Ordering::Relaxed);
                    }
                }
                let candidate = &buf.candidates[line & buf.mask];
                if candidate.load(Ordering::Relaxed) != tag_of(line) {
                    candidate.store(tag_of(line), Ordering::Relaxed);
                    self.telemetry.record_bypass(thread, Bypass::Admission);
                    return None;
                }
                let idx = match self.choose_victim(thread, line) {
                    Ok(idx) => idx,
                    Err(trigger) => {
                        self.telemetry.record_bypass(thread, trigger);
                        return None;
                    }
                };
                candidate.store(EMPTY_TAG, Ordering::Relaxed);
                idx
            }
        };
        if buf.pending[idx].load(Ordering::Relaxed) > 0 {
            // Dirty victim: migrate its delta into the store under an odd
            // epoch, retiring its writer bit, then re-tag — the software
            // U-state eviction.
            self.migrate_slot(thread, idx, Some(line));
        } else {
            // Empty slot or clean victim: the words are at identity and no
            // writer bit is set, so a bare (re-)tag suffices — Release, so a
            // reader that finds this tag also sees the identity words. A
            // reader that sampled a clean victim's old tag re-checks it
            // during validation and retries; a tag-ABA (old line returning
            // to this slot) is impossible without an intervening dirty
            // migration, because the update that triggered this claim
            // dirties the slot before any further re-tag can happen.
            // ord: buffer-tag-publish
            buf.tags[idx].store(tag_of(line), Ordering::Release);
        }
        self.telemetry.record_claim(thread, empty.is_some());
        Some(idx)
    }

    /// Picks the victim slot for a claim of `line` in `thread`'s buffer: the
    /// first cold (unmarked) slot of the probe window whose line carries no
    /// read hold. The scan clears nothing — only aging does — so a hot
    /// resident is never displaced. An `Err` means there is no victim and
    /// names the bypass: [`Bypass::Held`] when cold slots existed but every
    /// one was read-held, [`Bypass::Admission`] when the window holds no
    /// cold slot at all. Never returning a held line is
    /// what keeps the read-hold escalation's termination argument intact:
    /// while a reader holds a line, no new migration of it can start — not
    /// from threshold flushes (deferred) and not from capacity pressure (the
    /// caller bypasses the buffer instead). Owner-only.
    fn choose_victim(&self, thread: usize, line: usize) -> Result<usize, Bypass> {
        let buf = &self.buffers[thread];
        let held = |idx: usize| {
            let holds = &self.line_meta[buf.line_of(idx)].read_holds;
            holds.load(Ordering::Relaxed) > 0
        };
        let mut none = Bypass::Admission;
        for i in 0..buf.window {
            let idx = (line + i) & buf.mask;
            if buf.marks[idx].load(Ordering::Relaxed) != 0 {
                continue;
            }
            if !held(idx) {
                return Ok(idx);
            }
            none = Bypass::Held;
        }
        Err(none)
    }

    /// Drains slot `idx` of `thread`'s buffer into the store: load each word,
    /// assemble the non-identity ones into a [`LineData`] and store identity
    /// back over them, then reduce the partial lane-wise into the slot's
    /// tagged line. Plain loads and stores suffice: the owner is the slot's
    /// only writer, so each buffered delta is consumed exactly once, and the
    /// odd epoch published before the drain lets a reader that overlaps any
    /// of it — a delta mid-flight between buffer and store — detect the
    /// overlap and retry (see [`CoupBackend::read`]). Once the reduce has
    /// landed — and only then — the owner retires itself from the line's
    /// writer bitmap: the slot is back at identity and every prior delta is
    /// store-visible, so readers that skip this buffer from now on lose
    /// nothing. `retag` is the reason:
    /// `Some(new_line)` is a capacity eviction — the slot is handed to the
    /// new line inside the same odd-epoch window, after the bitmap
    /// retirement — and `None` a threshold or explicit flush; the migration
    /// is recorded here, once, for every caller.
    fn migrate_slot(&self, thread: usize, idx: usize, retag: Option<usize>) {
        let buf = &self.buffers[thread];
        let line = buf.line_of(idx);
        let epoch = &buf.epochs[idx];
        epoch.store(
            epoch.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        // Order the odd-epoch store before the identity stores below. This
        // fence pairs with the Acquire fence a fold pass takes after its
        // word loads (`try_reduce`): a reader that observes a drained
        // (identity) word also observes the odd epoch on its re-check, and
        // retries.
        // ord: seqlock-epoch
        fence(Ordering::Release);
        let op = self.store.op();
        let identity = op.identity_word();
        let mut partial = LineData::identity(op);
        let mut dirty = false;
        for (word, cell) in buf.slots[idx].words.iter().enumerate() {
            // Single writer: a Relaxed load sees the owner's own last
            // store, and only the dirty words need identity stored back.
            let observed = cell.load(Ordering::Relaxed);
            if observed != identity {
                cell.store(identity, Ordering::Relaxed);
                partial.set_word(word, observed);
                dirty = true;
            }
        }
        let mut applied = 0;
        if dirty {
            applied = self.store.reduce_line(line, &partial);
        }
        // Retire the pending count only *after* the reduce has landed, with
        // Release: a stale reader whose Acquire pending load observes this
        // zero (or any later count the owner publishes over it) is
        // guaranteed to collect the migrated delta from its subsequent
        // store load — the counted-or-visible dichotomy `read_stale`'s
        // staleness bound rests on.
        // ord: stale-pending
        buf.pending[idx].store(0, Ordering::Release);
        // AcqRel + the bitmap's RMW release sequence: a reader whose acquire
        // load of the bitmap observes this clear (or any later RMW) also
        // observes the reduce above, so the delta it will no longer collect
        // from the buffer is guaranteed to be in its store load. The evicted
        // line's writer bit clears here and nowhere else — strictly after
        // its delta landed.
        self.line_meta[line]
            .writers
            // ord: writer-bitmap — mutation lane weakens this AcqRel; the
            // bitmap model test catches a reader that observes the cleared
            // bit yet folds a store missing this migration's reduce.
            .fetch_and(!(1u64 << thread), WRITER_RETIRE);
        if let Some(new_line) = retag {
            // ord: buffer-tag-publish
            buf.tags[idx].store(tag_of(new_line), Ordering::Release);
        }
        // Even-epoch publish: the seqlock close. Mutation lane weakens
        // this Release; the torn-read model test catches a reader that
        // validates against the new epoch while folding stale words.
        epoch.store(epoch.load(Ordering::Relaxed).wrapping_add(1), EPOCH_PUBLISH);
        self.telemetry
            .record_migration(thread, applied as u64, retag.is_some());
    }

    /// [`UpdateBackend::update`](super::UpdateBackend::update): buffer the
    /// delta in `thread`'s slot for the lane's line, privatizing on a miss.
    /// Inlined into `update_read`'s slow path too, so `update` keeps it in
    /// its own body rather than jumping to a shared copy.
    #[inline(always)]
    pub(super) fn buffered_update(&self, thread: usize, index: usize, value: u64) {
        debug_assert!(index < self.store.len());
        let op = self.store.op();
        let slot = self.geometry.slot(index);
        let buf = &self.buffers[thread];
        let idx = match buf.locate(slot.line) {
            Some(idx) => {
                // Reference mark: a hit keeps this slot out of victim
                // choice until the marks next age out.
                buf.marks[idx].store(1, Ordering::Relaxed);
                idx
            }
            None => match self.privatize(thread, slot.line) {
                Some(idx) => idx,
                None => {
                    // Not admitted, no cold victim, or every cold victim is
                    // read-held (a forced eviction would keep invalidating the
                    // escalated reader's seqlock passes, re-opening the
                    // starvation the read hold exists to close): apply this
                    // one update straight to the store — the atomic-baseline
                    // path. Commutativity makes the detour invisible: the
                    // delta is store-visible immediately, needs no writer
                    // bit, moves no epoch, tag or pending count, and folds
                    // with any buffered partials in any order.
                    self.store.rmw_lane(index, value);
                    return;
                }
            },
        };
        let pending = &buf.pending[idx];
        let count = pending.load(Ordering::Relaxed).saturating_add(1);
        if count == 1 && !self.announce_writer(thread, slot.line) {
            // A demoted line: the same detour as above, for the first delta
            // since the slot's last drain and so for every update until the
            // flags clear — the slot stays clean and the line unbuffered.
            self.store.rmw_lane(index, value);
            return;
        }
        // Publish the outstanding-delta count *before* the delta store
        // below, with Release: any reader that can observe the buffered
        // word (exact reads via `buffer-word`, and transitively anything
        // that happened-after such a read) also observes a pending count
        // covering it, which is what lets `read_stale`'s staleness bound
        // claim it never under-reports.
        // ord: stale-pending
        pending.store(count, Ordering::Release);
        let word = &buf.slots[idx].words[slot.word];
        // Single-writer fast path: plain load + lane combine + plain store.
        // No lock prefix, no CAS — the whole point of privatization.
        let current = word.load(Ordering::Relaxed);
        let lane = (current & slot.mask) >> slot.shift;
        let new_lane = op.apply_lane(lane, value) & slot.low_mask;
        word.store(
            (current & !slot.mask) | (new_lane << slot.shift),
            Ordering::Release, // ord: buffer-word
        );

        // Threshold flushes defer while an escalated reader holds the line
        // (the hold is what guarantees that reader's progress); the pending
        // count keeps growing and the flush happens on the first update
        // after the hold drops. The deferral is *bounded*, though:
        // sustained exact-read traffic can re-arm holds back-to-back, and
        // an unbounded deferral would let a hammering poller grow this
        // slot's buffered delta (and every stale read's staleness bound)
        // without limit. Once the count stretches to HOLD_DEFER_FACTOR
        // flush budgets the migration proceeds despite the hold — the
        // escalated reader loses one seqlock pass per forced flush but
        // regains a full budget (`flush_threshold` updates) of quiet window
        // to complete, so writer progress is guaranteed and reader
        // starvation stays closed in practice.
        if count >= self.flush_threshold
            && (self.line_meta[slot.line].read_holds.load(Ordering::Relaxed) == 0
                || count >= self.flush_threshold.saturating_mul(HOLD_DEFER_FACTOR))
        {
            self.migrate_slot(thread, idx, None);
        }
    }

    /// The first buffered update on a slot since its last drain: announce
    /// `thread` in `line`'s writer bitmap before the caller's delta store,
    /// so any reader that could observe the delta also observes the bit and
    /// reduces this buffer. The slot's tag is already published
    /// (privatize/locate), so a reader that sees the bit can always find the
    /// slot. Returns `false`, announcing nothing, when an exact read or an
    /// [`UpdateBackend::update_read`](super::UpdateBackend::update_read) has
    /// demoted the line (`CoupBackend::demote`): the caller then applies the
    /// update to the store.
    ///
    /// Owner-only. Out of line, like `privatize`: the hit path of
    /// `buffered_update` pays only the `count == 1` test for it.
    #[cold]
    #[inline(never)]
    fn announce_writer(&self, thread: usize, line: usize) -> bool {
        let meta = &self.line_meta[line];
        if meta.demoted.load(Ordering::Relaxed) != 0 {
            self.telemetry.record_bypass(thread, Bypass::Demoted);
            return false;
        }
        // ord: writer-bitmap
        meta.writers.fetch_or(1u64 << thread, Ordering::AcqRel);
        true
    }

    /// [`UpdateBackend::flush`](super::UpdateBackend::flush): drain every
    /// dirty slot of `thread`'s buffer. The demotion flags are left alone:
    /// other workers of the job may still be running, and only the job's
    /// end (`clear_demotions`) clears them.
    pub(super) fn flush_buffer(&self, thread: usize) {
        let buf = &self.buffers[thread];
        for idx in 0..buf.capacity() {
            if buf.pending[idx].load(Ordering::Relaxed) > 0 {
                self.migrate_slot(thread, idx, None);
            }
        }
    }
}
