//! The sharded global store backing every runtime backend.
//!
//! The store is the software analogue of the shared cache level in COUP: it
//! holds the authoritative value of every lane. Storage is organised as
//! cache-line-sized shards (`PaddedLine`, 64-byte aligned so two shards
//! never share a hardware cache line), each holding [`WORDS_PER_LINE`] 64-bit
//! words that are subdivided into lanes of the store's operation width —
//! exactly the geometry of [`LineData`], so partial-update lines buffered by
//! [`crate::backend::CoupBackend`] reduce into the store with the protocol
//! crate's lane-wise `apply_word` arithmetic.

use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use coup_protocol::line::{LineData, WORDS_PER_LINE};
use coup_protocol::ops::CommutativeOp;

/// One cache-line-sized shard: eight 64-bit words, aligned so the shard maps
/// onto exactly one hardware cache line (64 bytes everywhere we run).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedLine {
    pub(crate) words: [AtomicU64; WORDS_PER_LINE],
}

/// Per-line reader/writer coordination metadata for the software-COUP read
/// path: the directory-style writer-presence bitmap, the read-side
/// escalation latch and the demotion flag (16 bytes of fields). One per
/// store shard, on its own cache line so bitmap traffic on a hot line never
/// invalidates a neighbouring line's metadata — the same padding discipline
/// as [`PaddedLine`].
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct LineMeta {
    /// Writer-presence bitmap: bit `t` is set from just before worker `t`
    /// buffers its first update to this line until `t`'s flush has migrated
    /// every buffered delta into the store and left the buffer line at the
    /// identity element. Readers reduce only the buffers named here — the
    /// software analogue of a COUP read collecting U-state copies from the
    /// sharers the directory knows about, making reads O(active writers)
    /// instead of O(threads).
    pub(crate) writers: AtomicU64,
    /// Number of readers currently escalated on this line. While non-zero,
    /// workers defer threshold flushes (they keep buffering — correctness
    /// never depends on flushing), so in-flight migrations drain, no new
    /// ones start, and a starving reader's seqlock validation is guaranteed
    /// to succeed after finitely many retries.
    pub(crate) read_holds: AtomicU32,
    /// Advisory demotion flag, nonzero once an exact read or an
    /// `update_read` touched the line since the last job ended (`read_stale`
    /// and `snapshot` never set it): a first delta to a demoted line goes
    /// straight to the store instead of announcing a writer, so the line
    /// leaves the privatized state, a later read loads no buffer word and a
    /// later `update_read` finds its bitmap empty and serves the pair as one
    /// fetch-op. Only the end of a `run_workers` job clears it, once every
    /// worker has joined; a runtime serving handles never clears it.
    /// Relaxed both ways: commutativity makes every update correct whether
    /// it is buffered or not, so a stale flag costs speed, never a delta.
    pub(crate) demoted: AtomicU32,
}

/// Where lane `index` lives: which shard, which word, and which bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneSlot {
    /// Shard (cache line) index.
    pub line: usize,
    /// Word within the shard.
    pub word: usize,
    /// Left-shift of the lane within its word, in bits.
    pub shift: u32,
    /// Mask of the lane within its word, already shifted.
    pub mask: u64,
    /// Mask of a lane value in the low bits (unshifted).
    pub low_mask: u64,
}

/// Maps lane indices of `op`'s width onto the line/word/bit geometry shared by
/// the store and the per-thread privatized buffers.
///
/// Lane widths and words-per-line are powers of two, so the mapping is kept
/// as precomputed shifts and masks — [`LaneGeometry::slot`] is on the
/// per-update fast path and must not divide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneGeometry {
    op: CommutativeOp,
    /// log2(lanes per 64-bit word).
    lane_shift: u32,
    /// log2(bits per lane).
    width_bits_shift: u32,
    /// Mask of a lane value in the low bits.
    low_mask: u64,
}

impl LaneGeometry {
    pub(crate) fn new(op: CommutativeOp) -> Self {
        let lanes_per_word = op.width().lanes_per_word();
        let width_bits = op.width().bytes() as u32 * 8;
        LaneGeometry {
            op,
            lane_shift: lanes_per_word.trailing_zeros(),
            width_bits_shift: width_bits.trailing_zeros(),
            low_mask: if width_bits == 64 {
                u64::MAX
            } else {
                (1u64 << width_bits) - 1
            },
        }
    }

    /// Number of lanes held by one cache-line shard.
    pub(crate) fn lanes_per_line(&self) -> usize {
        (1usize << self.lane_shift) * WORDS_PER_LINE
    }

    /// Number of shards needed for `lanes` lanes.
    pub(crate) fn lines_for(&self, lanes: usize) -> usize {
        lanes.div_ceil(self.lanes_per_line()).max(1)
    }

    #[inline]
    pub(crate) fn slot(&self, index: usize) -> LaneSlot {
        let word_global = index >> self.lane_shift;
        let lane_in_word = index & ((1 << self.lane_shift) - 1);
        let shift = (lane_in_word << self.width_bits_shift) as u32;
        LaneSlot {
            line: word_global / WORDS_PER_LINE,
            word: word_global % WORDS_PER_LINE,
            shift,
            mask: self.low_mask << shift,
            low_mask: self.low_mask,
        }
    }
}

/// The sharded, padded global value store.
///
/// Lanes are indexed `0..len` and hold raw bit patterns of the store's
/// [`CommutativeOp`] width (use [`coup_protocol::ops::lanes`] to convert
/// floats). All operations are lock-free; lane read-modify-writes on
/// operations without a native atomic equivalent use a compare-and-swap loop
/// on the containing word.
#[derive(Debug)]
pub struct SharedStore {
    geometry: LaneGeometry,
    len: usize,
    lines: Box<[PaddedLine]>,
}

impl SharedStore {
    /// Creates a store of `len` zero-initialised lanes of `op`'s width.
    ///
    /// Zero is the natural starting value for the workloads this runtime
    /// serves (counters, histograms, rank accumulators) and matches the
    /// simulator, whose memory also starts zeroed — not the identity element
    /// of `op`, which for e.g. AND would be all-ones.
    #[must_use]
    pub fn new(op: CommutativeOp, len: usize) -> Self {
        let geometry = LaneGeometry::new(op);
        let lines = (0..geometry.lines_for(len))
            .map(|_| PaddedLine::default())
            .collect();
        SharedStore {
            geometry,
            len,
            lines,
        }
    }

    /// The operation whose width defines this store's lanes.
    #[must_use]
    pub fn op(&self) -> CommutativeOp {
        self.geometry.op
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the store has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn geometry(&self) -> LaneGeometry {
        self.geometry
    }

    /// Number of cache-line shards.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of lanes held by one cache-line shard (8 for 64-bit operations,
    /// 16 for 32-bit, 32 for 16-bit). Useful for constructing cross-line
    /// access patterns in tests and benches.
    #[must_use]
    pub fn lanes_per_line(&self) -> usize {
        self.geometry.lanes_per_line()
    }

    #[inline]
    fn word(&self, slot: LaneSlot) -> &AtomicU64 {
        &self.lines[slot.line].words[slot.word]
    }

    /// Reads lane `index`.
    #[inline]
    #[must_use]
    pub fn load_lane(&self, index: usize) -> u64 {
        debug_assert!(index < self.len);
        let slot = self.geometry.slot(index);
        // ord: store-word
        (self.word(slot).load(Ordering::Acquire) & slot.mask) >> slot.shift
    }

    /// Overwrites lane `index` with `value`. Intended for single-threaded
    /// initialisation; racing this against concurrent updates loses one side.
    pub fn set_lane(&self, index: usize, value: u64) {
        debug_assert!(index < self.len);
        let slot = self.geometry.slot(index);
        cas_word(self.word(slot), |current| {
            (current & !slot.mask) | ((value << slot.shift) & slot.mask)
        });
    }

    /// Atomically applies `op(current, value)` to lane `index` and returns the
    /// *new* lane value. This is the conventional-atomics update path: a
    /// native fetch-op where one exists for the operation, a CAS loop on the
    /// containing word otherwise.
    pub fn rmw_lane(&self, index: usize, value: u64) -> u64 {
        debug_assert!(index < self.len);
        let op = self.geometry.op;
        let slot = self.geometry.slot(index);
        let word = self.word(slot);
        if let Some(old) = fetch_op(op, word, value) {
            return op.apply_lane(old, value);
        }
        let next = cas_word(word, |current| {
            let lane = (current & slot.mask) >> slot.shift;
            let new_lane = op.apply_lane(lane, value) & slot.low_mask;
            (current & !slot.mask) | (new_lane << slot.shift)
        });
        (next & slot.mask) >> slot.shift
    }

    /// Reduces a whole partial-update line into shard `line`, word by word,
    /// with `op`'s lane-wise arithmetic — the software equivalent of the
    /// shared-cache reduction unit consuming a flushed U-state line.
    ///
    /// Words equal to the identity element are skipped (they cannot change the
    /// stored value). A whole-word op reduces each word with the same native
    /// fetch-op [`SharedStore::rmw_lane`] uses; packed and float lanes take
    /// the CAS loop.
    ///
    /// Returns how many non-identity words were applied — the width of the
    /// reduction, fed to the telemetry `flush_words` histogram (the software
    /// analogue of the paper's reduction-traffic counters).
    pub fn reduce_line(&self, line: usize, partial: &LineData) -> usize {
        let op = self.geometry.op;
        let identity = op.identity_word();
        let mut applied = 0;
        for (word, &partial_word) in self.lines[line].words.iter().zip(partial.words()) {
            if partial_word == identity {
                continue;
            }
            applied += 1;
            if fetch_op(op, word, partial_word).is_none() {
                cas_word(word, |current| op.apply_word(current, partial_word));
            }
        }
        applied
    }

    /// Copies every lane out. Values are exact only at quiescence; concurrent
    /// updates may or may not be included.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.load_lane(i)).collect()
    }
}

/// Applies `op(current, value)` to the whole `word` with the native fetch-op
/// the ISA has for it — AddU64, And64, Or64, Xor64, Min64, Max64 — and
/// returns the old word; `None` for every other op (packed and float lanes),
/// which must go through [`cas_word`]. The one fetch-op table, shared by
/// lane RMWs and line reductions.
#[inline]
fn fetch_op(op: CommutativeOp, word: &AtomicU64, value: u64) -> Option<u64> {
    Some(match op {
        CommutativeOp::AddU64 => word.fetch_add(value, Ordering::AcqRel), // ord: store-word
        CommutativeOp::And64 => word.fetch_and(value, Ordering::AcqRel),  // ord: store-word
        CommutativeOp::Or64 => word.fetch_or(value, Ordering::AcqRel),    // ord: store-word
        CommutativeOp::Xor64 => word.fetch_xor(value, Ordering::AcqRel),  // ord: store-word
        CommutativeOp::Min64 => word.fetch_min(value, Ordering::AcqRel),  // ord: store-word
        CommutativeOp::Max64 => word.fetch_max(value, Ordering::AcqRel),  // ord: store-word
        _ => return None,
    })
}

/// Replaces `word` with `next(current)` in a compare-and-swap loop and
/// returns the word it stored: the update path of ops with no native
/// fetch-op, and of sub-word lane writes.
#[inline]
fn cas_word(word: &AtomicU64, next: impl Fn(u64) -> u64) -> u64 {
    let mut current = word.load(Ordering::Relaxed);
    loop {
        let new = next(current);
        // ord: store-word
        match word.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return new,
            Err(observed) => current = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sanitizer's shadow atomics carry a mutex-guarded publication
    // record per word, so the one-line layout guarantee only holds for the
    // std and model facades.
    #[cfg(not(coup_san))]
    #[test]
    fn padded_line_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<PaddedLine>(), 64);
        assert_eq!(std::mem::align_of::<PaddedLine>(), 64);
    }

    #[test]
    fn geometry_maps_sub_word_lanes() {
        let g = LaneGeometry::new(CommutativeOp::AddU32);
        assert_eq!(g.lanes_per_line(), 16);
        let s = g.slot(3);
        assert_eq!((s.line, s.word, s.shift), (0, 1, 32));
        assert_eq!(s.low_mask, 0xFFFF_FFFF);
        let s = g.slot(16);
        assert_eq!((s.line, s.word), (1, 0));
    }

    #[test]
    fn rmw_and_load_round_trip_across_widths() {
        for op in [
            CommutativeOp::AddU16,
            CommutativeOp::AddU32,
            CommutativeOp::AddU64,
        ] {
            let store = SharedStore::new(op, 40);
            for i in 0..40 {
                store.rmw_lane(i, (i as u64) + 1);
                store.rmw_lane(i, 1);
            }
            for i in 0..40 {
                assert_eq!(store.load_lane(i), (i as u64) + 2, "{op:?} lane {i}");
            }
        }
    }

    #[test]
    fn rmw_returns_the_new_value() {
        let store = SharedStore::new(CommutativeOp::AddU64, 4);
        assert_eq!(store.rmw_lane(2, 5), 5);
        assert_eq!(store.rmw_lane(2, 7), 12);
        let store = SharedStore::new(CommutativeOp::Max64, 4);
        assert_eq!(store.rmw_lane(0, 9), 9);
        assert_eq!(store.rmw_lane(0, 3), 9);
    }

    #[test]
    fn sub_word_rmw_does_not_disturb_neighbours() {
        let store = SharedStore::new(CommutativeOp::AddU16, 8);
        store.set_lane(0, 0xFFFF);
        store.rmw_lane(0, 1); // wraps within the lane
        store.rmw_lane(1, 7);
        assert_eq!(store.load_lane(0), 0);
        assert_eq!(store.load_lane(1), 7);
        assert_eq!(store.load_lane(2), 0);
    }

    /// Every op, so both reduction arms run: the six whole-word ops reduce
    /// with their native fetch-op, the packed and float lanes with the CAS
    /// loop. Each must match a sequential `apply_lane` fold of the store's
    /// lanes with the partials, skip the identity word, and leave the
    /// neighbouring line alone.
    #[test]
    fn reduce_line_applies_partials_lane_wise() {
        use coup_protocol::ops::lanes;
        for op in CommutativeOp::ALL {
            let width = op.width().bytes();
            let geometry = LaneGeometry::new(op);
            let per_line = geometry.lanes_per_line();
            let low_mask = geometry.slot(0).low_mask;
            let value = |seed: u64| {
                let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
                match op {
                    CommutativeOp::AddF32 => lanes::f32_to_lane((x % 1000) as f32 * 0.25),
                    CommutativeOp::AddF64 => lanes::f64_to_lane((x % 1000) as f64 * 0.25),
                    _ => x & low_mask,
                }
            };
            let store = SharedStore::new(op, 2 * per_line);
            let mut expected: Vec<u64> = (0..store.len() as u64).map(value).collect();
            for (lane, &v) in expected.iter().enumerate() {
                store.set_lane(lane, v);
            }
            for round in 1..=2u64 {
                let mut partial = LineData::identity(op);
                for lane in 0..per_line {
                    if lane * width / 8 == 3 {
                        continue; // word 3 stays at identity: skipped
                    }
                    let v = value(round * 1_000 + lane as u64);
                    partial.set_lane(op, lane * width, v);
                    let folded = &mut expected[per_line + lane];
                    *folded = op.apply_lane(*folded, v) & low_mask;
                }
                assert_eq!(store.reduce_line(1, &partial), WORDS_PER_LINE - 1, "{op:?}");
            }
            assert_eq!(store.snapshot(), expected, "{op:?}");
        }
    }

    #[test]
    fn snapshot_reads_every_lane() {
        let store = SharedStore::new(CommutativeOp::AddU64, 10);
        for i in 0..10 {
            store.set_lane(i, i as u64 * 3);
        }
        assert_eq!(
            store.snapshot(),
            (0..10).map(|i| i * 3).collect::<Vec<u64>>()
        );
    }
}
