//! The [`UpdateBackend`] trait and its two implementations.
//!
//! * [`AtomicBackend`] — the conventional baseline: every update is an atomic
//!   read-modify-write on the shared store, so a contended lane serialises all
//!   updaters on one cache line exactly as `lock xadd` does.
//! * [`CoupBackend`] — software COUP: each worker thread owns a **sparse,
//!   capacity-bounded** privatized buffer — an open-addressed table of at most
//!   [`BufferConfig::capacity_lines`] cache-line-sized slots, each holding the
//!   buffered partial update of one store line — and applies its updates there
//!   with plain (single-writer) loads and stores. Reads trigger an on-demand
//!   reduction: the reader combines the global value with the buffered partial
//!   of every *active writer* of the line — the threads named by the line's
//!   writer-presence bitmap, exactly like a COUP read collecting U-state
//!   copies from the sharers the directory knows about. When a worker touches
//!   more distinct lines than its buffer holds, a CLOCK (second-chance) scan
//!   picks a victim slot and *migrates its delta into the [`SharedStore`]*
//!   before the slot is re-tagged — the software analogue of a U-state cache eviction, which is what keeps
//!   COUP viable when the working set dwarfs the private cache (paper §3.1.2).
//!
//! # The flush-epoch / read-hold protocol
//!
//! Three mechanisms make the sparse buffers safe under concurrency, and they
//! compose into the consistency contract documented on [`UpdateBackend`]:
//!
//! 1. **Writer-presence bitmaps** ([`LineMeta`](crate::store) in `store.rs`):
//!    bit `t` of a line's bitmap is set *before* worker `t` buffers its first
//!    delta to the line and cleared only *after* a migration has landed every
//!    buffered delta in the store. Readers reduce only the buffers the bitmap
//!    names, so reads cost O(active writers), not O(threads).
//! 2. **Per-slot flush epochs** (seqlock-style): a slot's epoch is odd while
//!    its owner migrates the slot's line into the store (swap to identity +
//!    reduce) and bumped to the next even value when the migration completes.
//!    A reader validates that every consulted slot still holds the expected
//!    line tag at the epoch it sampled; any overlapping migration or eviction
//!    re-tag fails the validation and the read retries.
//! 3. **Read holds**: after [`READ_RETRY_LIMIT`] invalidated passes a reader
//!    escalates — it raises a per-line hold that makes writers defer
//!    *threshold* flushes (they keep buffering, which is always correct), so
//!    the line quiesces and the read completes. Capacity pressure never
//!    breaks the hold either: victim selection refuses read-held lines, and
//!    when *every* candidate is held the update detours around the buffer as
//!    a direct store RMW (the atomic-baseline path) instead of evicting —
//!    bounded memory and reader progress both survive.

use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{EPOCH_PUBLISH, EVICTION_FOLD, WRITER_RETIRE};
use std::sync::Arc;

use coup_protocol::line::{LineData, WORDS_PER_LINE};
use coup_protocol::ops::CommutativeOp;

use crate::store::{LaneGeometry, LaneSlot, PaddedLine, SharedStore};
use crate::telemetry::{Merge, TelemetryRegistry};
use crate::trace::TraceKind;

/// Cumulative read-side cost counters, the observable price of a backend's
/// read path. [`AtomicBackend`] reads are a single shared-store load, so its
/// counters stay zero; [`CoupBackend`] reads reduce over the buffers of the
/// line's active writers, and these counters make that cost — and the
/// seqlock's retry/escalation behaviour — assertable in tests and visible in
/// throughput reports. Each read is tallied once, in the telemetry registry's
/// read histograms, and these are derived from them — so they stay zero with
/// telemetry disabled or compiled out, like every registry-backed series.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadCost {
    /// Reads served (including the reads [`UpdateBackend::snapshot`] issues).
    pub reads: u64,
    /// Buffer words loaded while reducing: the O(active writers) term. With
    /// one active writer on a line this is exactly one per read, regardless
    /// of how many worker buffers exist.
    pub buffer_words: u64,
    /// Reduction passes thrown away because a concurrent migration
    /// invalidated the seqlock window (bitmap, slot tag, or epoch changed,
    /// or an odd epoch was observed).
    pub retries: u64,
    /// Reads that exhausted [`READ_RETRY_LIMIT`] optimistic passes and
    /// escalated to a flush-deferring hold to force progress.
    pub escalations: u64,
}

impl ReadCost {
    /// Mean buffer words loaded per read — the effective writer fan-in the
    /// read path paid for. Zero when no reads were served.
    #[must_use]
    pub fn buffer_words_per_read(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.buffer_words as f64 / self.reads as f64
        }
    }
}

/// A tiered (eventually-consistent) read: the shared-store word plus a
/// staleness bound, returned by [`UpdateBackend::read_stale`] without
/// reducing any writer buffers — the pay-only-for-precision tier of the
/// paper's §3.1.2 reductions, modeled on CRDT eventual consistency.
///
/// # The bound's contract
///
/// `staleness` counts buffered updates that *may* be missing from `value`
/// and is **never an under-report**: for any exact read `E` of the same
/// lane that happened-before this stale read, replaying at most
/// `staleness` outstanding updates over `value` covers `E`. (For add-one
/// counters this is literally `E ≤ value + staleness`.) The bound is
/// monotone — it can over-report when a concurrent migration lands a
/// counted delta in the store before the value load, never the reverse.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StaleRead {
    /// The lane's shared-store word, loaded without touching writer buffers.
    pub value: u64,
    /// Upper bound on the buffered updates outstanding against `value` at
    /// the read's linearization point (the writer-bitmap load).
    pub staleness: u64,
}

/// Cumulative buffer-side counters of a [`CoupBackend`]: how often the sparse
/// privatized tables claimed, evicted, and drained slots. The software
/// analogue of a cache's miss/eviction statistics, summed over all workers.
/// [`AtomicBackend`] has no buffers, so its counters stay zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Lines privatized: buffer slots claimed for a line not currently in the
    /// worker's table (the table's "miss" count — both first-touch claims of
    /// empty slots and claims that displaced a victim).
    pub privatized: u64,
    /// Capacity evictions: slot claims that displaced a *dirty* victim, so
    /// its buffered delta was migrated into the store before the re-tag —
    /// the software U-state evictions. Always ≤ `privatized`.
    pub evictions: u64,
    /// Slot drains that were not evictions: per-line flush-threshold
    /// crossings plus explicit [`UpdateBackend::flush`] calls.
    pub flushes: u64,
    /// Updates applied directly to the store (an atomic RMW, exactly the
    /// [`AtomicBackend`] path) because every candidate victim in the probe
    /// window held a read-held line. Evicting one would churn the epochs an
    /// escalated reader is waiting to see quiesce, so capacity pressure
    /// routes around the buffer instead — commutativity makes the detour
    /// invisible. Non-zero only under simultaneous capacity and read-hold
    /// pressure.
    pub held_bypasses: u64,
}

impl BufferStats {
    /// Evictions per update — the conflict pressure on the bounded buffers.
    /// Zero when no updates were applied (`updates` of the enclosing run).
    #[must_use]
    pub fn eviction_rate(&self, updates: u64) -> f64 {
        if updates == 0 {
            0.0
        } else {
            self.evictions as f64 / updates as f64
        }
    }
}

/// Sizing of a [`CoupBackend`]'s per-worker privatized buffers. Capacity
/// conflicts are resolved by CLOCK (second chance): every buffered update
/// marks its slot; the victim scan clears marks and takes the first unmarked
/// slot — one bit of state per slot, no per-access ordering cost.
///
/// The default (unbounded) gives every store line its own slot —
/// functionally the dense mirror of earlier revisions, with identical
/// zero-eviction behaviour. Bounding `capacity_lines` is what makes
/// huge-array workloads (pgrank at millions of vertices) feasible: per-worker
/// memory becomes O(capacity), independent of the store size, and conflicts
/// drain through evictions instead of growing the footprint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Maximum privatized lines per worker. `None` means one slot per store
    /// line (no evictions, ever). `Some(c)` is rounded up to the next power
    /// of two (minimum 1) and capped at the smallest power of two covering
    /// the store's lines — the same size `None` resolves to.
    pub capacity_lines: Option<usize>,
}

impl BufferConfig {
    /// An unbounded configuration: one slot per store line, no evictions.
    #[must_use]
    pub fn unbounded() -> Self {
        BufferConfig::default()
    }

    /// A configuration bounded to `capacity_lines` privatized lines per
    /// worker (minimum 1; rounded up to a power of two at construction).
    #[must_use]
    pub fn bounded(capacity_lines: usize) -> Self {
        BufferConfig {
            capacity_lines: Some(capacity_lines),
        }
    }

    /// The configuration the `COUP_BUFFER_CAPACITY` environment variable
    /// selects — a line count, or `0`/`unbounded` for no bound; unset leaves
    /// the default (unbounded). [`crate::RuntimeBuilder::build`] consults
    /// this when no [`buffer_config`](crate::RuntimeBuilder::buffer_config)
    /// was given (and nothing else in the library does), so an entire test
    /// suite can be rerun under tiny capacities (CI does, at capacity 2) to
    /// exercise the eviction path without any code change.
    ///
    /// # Panics
    ///
    /// Panics on a *set but invalid* value (see [`BufferConfig::parse`]): a
    /// typo'd capacity silently falling back to the default would run the
    /// suite in a different regime than the operator asked for, which is far
    /// worse than failing loudly.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::var("COUP_BUFFER_CAPACITY").ok().as_deref())
    }

    /// Parses the environment-variable form (see [`BufferConfig::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics with a clear message when a provided value is invalid —
    /// `capacity` must be a non-negative line count or `unbounded`. `None`
    /// (variable unset) keeps the default.
    #[must_use]
    pub fn parse(capacity: Option<&str>) -> Self {
        match capacity {
            None | Some("0" | "unbounded") => BufferConfig::unbounded(),
            Some(text) => match text.parse::<usize>() {
                Ok(lines) => BufferConfig::bounded(lines),
                Err(_) => panic!(
                    "invalid COUP_BUFFER_CAPACITY {text:?}: expected a line count \
                     (e.g. \"64\") or \"0\"/\"unbounded\" for no bound"
                ),
            },
        }
    }
}

/// A shared array of lanes supporting commutative updates and coherent-enough
/// reads, the common interface the workloads and benches program against.
///
/// # Consistency contract
///
/// Implementations are *quiescently consistent*: a read observes every update
/// that happened-before it (same thread program order, or cross-thread via a
/// synchronisation edge such as a barrier or thread join, provided the updater
/// flushed *or* is still an active writer of the line — an unflushed delta is
/// always reachable through the writer bitmap), and after all updaters have
/// finished and flushed, [`UpdateBackend::snapshot`] returns exactly the
/// reduction of every update issued. Updates concurrent with a read may or
/// may not be visible — the same freedom the COUP protocol's reductions have,
/// and precisely what the commutativity of the operation makes harmless.
/// Reads of one lane by one thread are monotone in the happened-before order:
/// a delta observed by an earlier read is never missing from a later one.
/// Capacity evictions preserve all of this: migrating a delta buffer→store
/// changes where a reader finds it, never whether.
pub trait UpdateBackend: Send + Sync {
    /// Short name for reports ("atomic", "coup").
    fn name(&self) -> &'static str;

    /// The commutative operation this backend applies.
    fn op(&self) -> CommutativeOp;

    /// Number of lanes.
    fn len(&self) -> usize;

    /// True if the backend has no lanes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies `op(current, value)` to lane `index` on behalf of worker
    /// `thread`.
    fn update(&self, thread: usize, index: usize, value: u64);

    /// Update immediately followed by a read of the same lane (the
    /// decrement-and-test idiom of reference counting). Backends with a
    /// fetch-op can serve this in one instruction.
    ///
    /// Atomicity of the pair is backend-specific: [`AtomicBackend`]'s
    /// fetch-op guarantees exactly one of several concurrent decrementers
    /// observes zero, while [`CoupBackend`]'s update-then-reduce does not
    /// (two concurrent decrements from 2 can both, or neither, observe 0).
    /// Hardware COUP serialises such reads at the directory; a destructive
    /// decision (deallocation) on the software backend needs an external
    /// tie-break — see the delayed-deallocation scheme of §5.4, which
    /// defers zero checks to an epoch boundary.
    fn update_read(&self, thread: usize, index: usize, value: u64) -> u64 {
        self.update(thread, index, value);
        self.read(thread, index)
    }

    /// Reads lane `index` on behalf of worker `thread`, reducing buffered
    /// partial updates as needed.
    fn read(&self, thread: usize, index: usize) -> u64;

    /// The relaxed read tier: lane `index`'s shared-store word plus a
    /// staleness bound, *without* reducing writer buffers (see
    /// [`StaleRead`] for the bound's contract). The default is an exact
    /// read with staleness 0 — correct for backends whose reads never
    /// buffer ([`AtomicBackend`]); [`CoupBackend`] overrides it with the
    /// O(active writers) pending-count walk that never loads a buffer word
    /// and never arms a read hold, so monitor/dashboard traffic cannot
    /// defer a writer's flush.
    fn read_stale(&self, thread: usize, index: usize) -> StaleRead {
        StaleRead {
            value: self.read(thread, index),
            staleness: 0,
        }
    }

    /// Publishes any updates worker `thread` still holds privately.
    ///
    /// Must be called either *by* worker `thread` itself or at quiescence
    /// (after the workers have joined): draining another worker's buffer
    /// while it is mid-update would violate the buffer's single-writer
    /// discipline and could resurrect an already-published delta.
    fn flush(&self, thread: usize) {
        let _ = thread;
    }

    /// Every lane's value. Exact once all workers have finished and flushed.
    fn snapshot(&self) -> Vec<u64>;

    /// Cumulative [`BufferStats`] counters for this backend. The default is
    /// all zeros, correct for backends without privatized buffers;
    /// [`CoupBackend`] reports its privatization/eviction/flush work here.
    fn buffer_stats(&self) -> BufferStats {
        BufferStats::default()
    }
}

/// Conventional shared-memory baseline: every update is an atomic RMW on the
/// sharded global store; reads are plain atomic loads.
#[derive(Debug)]
pub struct AtomicBackend {
    store: SharedStore,
}

impl AtomicBackend {
    /// Creates a backend with `len` zeroed lanes of `op`'s width.
    #[must_use]
    pub fn new(op: CommutativeOp, len: usize) -> Self {
        AtomicBackend {
            store: SharedStore::new(op, len),
        }
    }

    /// The backing store (for tests and initialisation).
    #[must_use]
    pub fn store(&self) -> &SharedStore {
        &self.store
    }
}

impl UpdateBackend for AtomicBackend {
    fn name(&self) -> &'static str {
        "atomic"
    }

    fn op(&self) -> CommutativeOp {
        self.store.op()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn update(&self, _thread: usize, index: usize, value: u64) {
        self.store.rmw_lane(index, value);
    }

    fn update_read(&self, _thread: usize, index: usize, value: u64) -> u64 {
        self.store.rmw_lane(index, value)
    }

    fn read(&self, _thread: usize, index: usize) -> u64 {
        self.store.load_lane(index)
    }

    fn snapshot(&self) -> Vec<u64> {
        self.store.snapshot()
    }
}

/// The empty-slot tag. A slot's tag is `line + 1` once claimed; tags only
/// ever change claimed→claimed (re-tag on eviction), never back to empty.
const EMPTY_TAG: u64 = 0;

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
/// pending counts, and CLOCK state; readers of other threads load tags,
/// epochs, and words during reductions.
///
/// Indexing is set-associative like a hardware cache: a line's *home* slot is
/// `line & mask` (identity hashing — low line bits, the same bits a cache's
/// set index uses) and the line may live in any of the `window` slots probed
/// linearly from home. When `capacity ≥ store lines` every line has a unique
/// home and no conflict can ever arise — the unbounded configuration degrades
/// to the dense mirror of earlier revisions.
#[derive(Debug)]
struct ThreadBuffer {
    /// `capacity` cache-line-sized delta slots (64-byte aligned).
    slots: Box<[PaddedLine]>,
    /// Per-slot line tag: `line + 1`, or [`EMPTY_TAG`] before first use.
    /// Written by the owner (Release), read by reducing readers (Acquire).
    tags: Box<[AtomicU64]>,
    /// Per-slot flush epoch, seqlock-style: odd while the owner is migrating
    /// the slot's line into the store (swap + reduce), bumped to the next
    /// even value when the migration completes. 64 bits wide so a validation
    /// cannot be fooled by wrap-around inside one read (a 2⁶³-flush ABA is
    /// decades of machine time, not a reachable race).
    epochs: Box<[AtomicU64]>,
    /// Unflushed updates per slot; owner-only.
    pending: Box<[AtomicU32]>,
    /// CLOCK reference bit per slot. Owner-only.
    marks: Box<[AtomicU64]>,
    /// CLOCK hand: rotation offset applied within a victim scan. Owner-only.
    hand: AtomicUsize,
    /// Lines privatized (slot claims). Owner-only.
    privatized: AtomicU64,
    /// Dirty-victim migrations. Owner-only stores; the bump is Release and
    /// [`CoupBackend::buffer_stats`] loads it with Acquire *before*
    /// `privatized`, so a concurrent observer can never see an eviction
    /// whose privatization it missed (`evictions ≤ privatized`, always).
    evictions: AtomicU64,
    /// Threshold + explicit drains. Owner-only.
    flushes: AtomicU64,
    /// Updates routed straight to the store because every victim candidate
    /// was read-held. Owner-only.
    held_bypasses: AtomicU64,
    /// Currently claimed (non-empty) slots — the occupancy the telemetry
    /// histogram samples at each privatization. Owner-only.
    resident: AtomicU64,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Probe window length: `min(PROBE_WINDOW, capacity)`.
    window: usize,
}

impl ThreadBuffer {
    fn new(op: CommutativeOp, capacity: usize) -> Self {
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
            hand: AtomicUsize::new(0),
            privatized: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            held_bypasses: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            mask: capacity - 1,
            window: PROBE_WINDOW.min(capacity),
        }
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// The slot holding `line`'s buffered delta, if the table has one. Owner
    /// and readers probe the identical window, so a tag the owner published
    /// is always discoverable; the Acquire load pairs with the owner's
    /// Release tag store, making the slot's prior contents visible.
    #[inline]
    fn locate(&self, line: usize) -> Option<usize> {
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
}

/// Software COUP: sparse, capacity-bounded privatized per-thread buffers
/// absorb updates with plain stores; reads reduce on demand across the
/// buffers of the line's *active writers* (tracked by a per-line bitmap);
/// lines drain into the sharded store on per-line flush-threshold crossings,
/// explicit flushes, and capacity evictions.
#[derive(Debug)]
pub struct CoupBackend {
    store: SharedStore,
    buffers: Vec<ThreadBuffer>,
    /// One `LineMeta` (writer bitmap + read-hold latch) per store shard.
    line_meta: Box<[crate::store::LineMeta]>,
    /// Read tallies, histograms and trace rings, shared with the owning
    /// runtime.
    telemetry: Arc<TelemetryRegistry>,
    geometry: LaneGeometry,
    flush_threshold: u32,
}

/// Default per-line update budget before a privatized line is flushed to the
/// store. Correctness never depends on this (all supported operations are
/// total on their bit patterns — integer lanes wrap), so it defaults high:
/// flushing costs a CAS per dirty word, and reads reduce buffered partials
/// regardless.
pub const DEFAULT_FLUSH_THRESHOLD: u32 = 4096;

/// Maximum worker count of a [`CoupBackend`]: one bit per worker in each
/// line's writer-presence bitmap word.
pub const MAX_COUP_THREADS: usize = 64;

/// Optimistic reduction passes a read attempts before escalating. Each pass
/// fails only if a migration overlapped it, so under ordinary contention one
/// or two passes suffice; the limit exists to bound the worst case — a reader
/// racing *continuous* migrations — not the common one.
pub const READ_RETRY_LIMIT: u32 = 16;

/// Linear-probe window of the sparse buffers: a line may live in any of this
/// many slots starting at its home slot, so a capacity-`c` buffer behaves
/// like a `min(PROBE_WINDOW, c)`-way set-associative cache. Bounding the
/// window bounds both the owner's miss cost and the per-writer probe cost a
/// reducing reader pays.
pub const PROBE_WINDOW: usize = 8;

/// Hold-deferral fairness cap: how many flush budgets a slot's pending
/// count may stretch to while read holds keep deferring its threshold
/// flush, before the migration proceeds despite the hold. Back-to-back
/// exact-read holds (a hammering poller) could otherwise defer a writer's
/// flush indefinitely, growing the buffered delta — and every concurrent
/// [`StaleRead::staleness`] bound — without limit. See
/// [`CoupBackend::update`] for the progress trade-off.
pub const HOLD_DEFER_FACTOR: u32 = 4;

impl CoupBackend {
    /// The one constructor, explicit in every parameter and blind to the
    /// environment: `len` zeroed lanes of `op`'s width, one privatized
    /// buffer per worker in `0..threads`, a per-line flush budget (minimum
    /// 1: every update immediately reduces into the store), the sparse-buffer
    /// configuration, and the telemetry registry to record into — the
    /// runtime facade shares one registry between the backend and its
    /// submission queue so [`crate::CoupRuntime::metrics`] sees both.
    /// [`crate::RuntimeBuilder`] is the way to get defaults (and the only
    /// place [`BufferConfig::from_env`] is consulted).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds [`MAX_COUP_THREADS`] (the
    /// writer bitmap holds one bit per worker).
    #[must_use]
    pub fn new(
        op: CommutativeOp,
        len: usize,
        threads: usize,
        flush_threshold: u32,
        config: BufferConfig,
        telemetry: Arc<TelemetryRegistry>,
    ) -> Self {
        assert!(threads > 0, "CoupBackend needs at least one worker");
        assert!(
            threads <= MAX_COUP_THREADS,
            "CoupBackend supports at most {MAX_COUP_THREADS} workers (one writer-bitmap bit each)"
        );
        let store = SharedStore::new(op, len);
        let geometry = store.geometry();
        let num_lines = store.num_lines();
        let dense = num_lines.next_power_of_two();
        let capacity = match config.capacity_lines {
            None => dense,
            Some(lines) => lines.max(1).next_power_of_two().min(dense),
        };
        CoupBackend {
            store,
            buffers: (0..threads)
                .map(|_| ThreadBuffer::new(op, capacity))
                .collect(),
            line_meta: (0..num_lines)
                .map(|_| crate::store::LineMeta::default())
                .collect(),
            telemetry,
            geometry,
            flush_threshold: flush_threshold.max(1),
        }
    }

    /// The backing store (for tests and initialisation).
    #[must_use]
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Cumulative [`ReadCost`] of this backend's reads, folded from its
    /// telemetry registry (all zeros when that registry is disabled).
    #[must_use]
    pub fn read_cost(&self) -> ReadCost {
        let mut snap = crate::telemetry::MetricsSnapshot::default();
        self.telemetry.fill(&mut snap);
        snap.read_cost
    }

    /// Resolved per-worker buffer capacity, in lines (the configured bound
    /// rounded up to a power of two and capped at the smallest power of two
    /// covering the store's lines).
    #[must_use]
    pub fn capacity_lines(&self) -> usize {
        self.buffers[0].capacity()
    }

    /// Bytes of privatized buffer state per worker — O(capacity), not
    /// O(store): slot data plus the per-slot tag/epoch/pending/mark arrays
    /// and the fixed per-buffer bookkeeping. This is the bound a
    /// capacity-limited configuration promises; the huge-array test asserts
    /// it stays put as the store grows a thousandfold.
    #[must_use]
    pub fn buffer_bytes_per_thread(&self) -> usize {
        let per_slot = std::mem::size_of::<PaddedLine>()
            + std::mem::size_of::<AtomicU64>() * 3 // tag, epoch, mark
            + std::mem::size_of::<AtomicU32>(); // pending
        std::mem::size_of::<ThreadBuffer>() + self.capacity_lines() * per_slot
    }

    /// Claims a slot in `thread`'s buffer for `line` and publishes the tag.
    /// Prefers an empty slot in the probe window; otherwise evicts the
    /// CLOCK victim, migrating its delta into the store first if dirty.
    /// Returns the claimed slot index, or `None` when every candidate slot
    /// holds a read-held line — evicting one would churn its epochs and
    /// starve the escalated reader the hold protects, so the caller must
    /// route this update around the buffer instead (see
    /// [`CoupBackend::update`]). Owner-only.
    fn privatize(&self, thread: usize, line: usize) -> Option<usize> {
        let buf = &self.buffers[thread];
        for i in 0..buf.window {
            let idx = (line + i) & buf.mask;
            if buf.tags[idx].load(Ordering::Relaxed) == EMPTY_TAG {
                // Release: a reader that finds this tag must also see the
                // slot's identity-initialised words.
                // ord: buffer-tag-publish
                buf.tags[idx].store(tag_of(line), Ordering::Release);
                buf.privatized.store(
                    buf.privatized.load(Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                let resident = buf.resident.load(Ordering::Relaxed) + 1;
                buf.resident.store(resident, Ordering::Relaxed);
                self.telemetry.record_occupancy(thread, resident);
                self.telemetry.trace(thread, TraceKind::Privatize, line);
                return Some(idx);
            }
        }
        let idx = self.choose_victim(thread, line)?;
        // Count the claim *before* the eviction below: the eviction bump is
        // Release and the stats fold loads `evictions` with Acquire first,
        // so no observer — however racy — can see `evictions > privatized`.
        buf.privatized.store(
            buf.privatized.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        if buf.pending[idx].load(Ordering::Relaxed) > 0 {
            // Dirty victim: migrate its delta into the store under an odd
            // epoch, retiring its writer bit, then re-tag — the software
            // U-state eviction.
            let victim_line = (buf.tags[idx].load(Ordering::Relaxed) - 1) as usize;
            self.migrate_slot(thread, idx, Some(line));
            buf.evictions
                // ord: evict-stats
                .store(buf.evictions.load(Ordering::Relaxed) + 1, Ordering::Release);
            self.telemetry.trace(thread, TraceKind::Evict, victim_line);
        } else {
            // Clean victim: its words are already at identity and its writer
            // bit is clear, so a bare re-tag suffices. A reader that sampled
            // the old tag re-checks it during validation and retries; a
            // tag-ABA (old line returning to this slot) is impossible
            // without an intervening dirty migration, because the update
            // that triggered this claim dirties the slot before any further
            // re-tag can happen.
            // ord: buffer-tag-publish
            buf.tags[idx].store(tag_of(line), Ordering::Release);
        }
        self.telemetry
            .record_occupancy(thread, buf.resident.load(Ordering::Relaxed));
        self.telemetry.trace(thread, TraceKind::Privatize, line);
        Some(idx)
    }

    /// Picks the victim slot for a claim of `line` in `thread`'s buffer, or
    /// `None` if every candidate's line carries a read hold. Never returning
    /// a held line is what keeps the read-hold escalation's termination
    /// argument intact: while a reader holds a line, no new migration of it
    /// can start — not from threshold flushes (deferred) and not from
    /// capacity pressure (the caller bypasses the buffer instead). Owner-only.
    fn choose_victim(&self, thread: usize, line: usize) -> Option<usize> {
        let buf = &self.buffers[thread];
        let held = |idx: usize| {
            let victim_line = (buf.tags[idx].load(Ordering::Relaxed) - 1) as usize;
            self.line_meta[victim_line]
                .read_holds
                .load(Ordering::Relaxed)
                > 0
        };
        let start = buf.hand.load(Ordering::Relaxed) % buf.window;
        // Two sweeps: the first clears reference bits, the second must find
        // an unmarked, unheld slot if one exists.
        for step in 0..(2 * buf.window) {
            let i = (start + step) % buf.window;
            let idx = (line + i) & buf.mask;
            if held(idx) {
                continue;
            }
            if buf.marks[idx].load(Ordering::Relaxed) != 0 {
                buf.marks[idx].store(0, Ordering::Relaxed);
                continue;
            }
            buf.hand.store((i + 1) % buf.window, Ordering::Relaxed);
            return Some(idx);
        }
        None
    }

    /// Drains slot `idx` of `thread`'s buffer into the store: swap each word
    /// back to the identity element, assemble the observed partial into a
    /// [`LineData`], and reduce it lane-wise into the slot's tagged line. The
    /// swap guarantees each buffered delta is consumed exactly once even
    /// while other threads are reading, and the surrounding epoch bumps (odd
    /// while migrating) let concurrent readers detect that a delta may be
    /// mid-flight between buffer and store and retry (see
    /// [`CoupBackend::read`]). Once the reduce has landed — and only then —
    /// the owner retires itself from the line's writer bitmap: the slot is
    /// back at identity and every prior delta is store-visible, so readers
    /// that skip this buffer from now on lose nothing. If `retag` names a new
    /// line (eviction), the slot is handed to it inside the same odd-epoch
    /// window, after the bitmap retirement.
    fn migrate_slot(&self, thread: usize, idx: usize, retag: Option<usize>) {
        let buf = &self.buffers[thread];
        let line = (buf.tags[idx].load(Ordering::Relaxed) - 1) as usize;
        let epoch = &buf.epochs[idx];
        epoch.store(
            epoch.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        // Order the odd-epoch store before the swaps: a reader that observes
        // a swapped (identity) word must also observe the migration marker.
        // ord: seqlock-epoch
        crate::sync::atomic::fence(Ordering::Release);
        let op = self.store.op();
        let identity = op.identity_word();
        let mut partial = LineData::identity(op);
        let mut dirty = false;
        for word in 0..WORDS_PER_LINE {
            // ord: seqlock-epoch, buffer-word
            let observed = buf.slots[idx].words[word].swap(identity, Ordering::AcqRel);
            if observed != identity {
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
        self.telemetry.record_flush_words(thread, applied as u64);
    }

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
    /// which implies the swap emptied the slot within the same odd-epoch
    /// window the validation rejects).
    fn try_reduce(&self, slot: LaneSlot, index: usize, cost: &mut ReadCost) -> Option<u64> {
        let op = self.store.op();
        let identity = op.identity_lane();
        let meta = &self.line_meta[slot.line];
        // ord: writer-bitmap
        let writers = meta.writers.load(Ordering::Acquire);
        // (thread, slot index, sampled epoch) of each located writer slot.
        let mut located = [(0usize, 0usize, 0u64); MAX_COUP_THREADS];
        let mut n = 0usize;
        let mut bits = writers;
        while bits != 0 {
            let thread = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(idx) = self.buffers[thread].locate(slot.line) {
                // ord: seqlock-epoch
                let epoch = self.buffers[thread].epochs[idx].load(Ordering::Acquire);
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
            // ord: buffer-word
            let word = self.buffers[thread].slots[idx].words[slot.word].load(Ordering::Acquire);
            cost.buffer_words += 1;
            let lane = (word & slot.mask) >> slot.shift;
            if lane != identity {
                value = op.apply_lane(value, lane) & slot.low_mask;
            }
        }
        // ord: seqlock-epoch
        crate::sync::atomic::fence(Ordering::Acquire);
        if meta.writers.load(Ordering::Relaxed) != writers {
            return None;
        }
        let tag = tag_of(slot.line);
        for &(thread, idx, epoch) in &located[..n] {
            if self.buffers[thread].tags[idx].load(Ordering::Relaxed) != tag
                || self.buffers[thread].epochs[idx].load(Ordering::Relaxed) != epoch
            {
                return None;
            }
        }
        Some(value)
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
    fn reduce_with_hold(
        &self,
        thread: usize,
        slot: LaneSlot,
        index: usize,
        cost: &mut ReadCost,
    ) -> u64 {
        let meta = &self.line_meta[slot.line];
        // ord: read-hold
        meta.read_holds.fetch_add(1, Ordering::AcqRel);
        cost.escalations += 1;
        self.telemetry
            .trace(thread, TraceKind::ReadHoldEscalate, slot.line);
        let value = loop {
            if let Some(value) = self.try_reduce(slot, index, cost) {
                break value;
            }
            cost.retries += 1;
            crate::sync::hint::spin_loop();
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
    pub fn read_escalated(&self, thread: usize, index: usize) -> u64 {
        let slot = self.geometry.slot(index);
        let mut cost = ReadCost::default();
        self.reduce_with_hold(thread, slot, index, &mut cost)
    }
}

impl UpdateBackend for CoupBackend {
    fn name(&self) -> &'static str {
        "coup"
    }

    fn op(&self) -> CommutativeOp {
        self.store.op()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn update(&self, thread: usize, index: usize, value: u64) {
        debug_assert!(index < self.store.len());
        let op = self.store.op();
        let slot = self.geometry.slot(index);
        let buf = &self.buffers[thread];
        let idx = match buf.locate(slot.line) {
            Some(idx) => idx,
            None => match self.privatize(thread, slot.line) {
                Some(idx) => idx,
                None => {
                    // Every victim candidate is read-held. Rather than force
                    // an eviction that would keep invalidating the escalated
                    // reader's seqlock passes (re-opening the starvation the
                    // read hold exists to close), apply this one update
                    // straight to the store — the atomic-baseline path.
                    // Commutativity makes the detour invisible: the delta is
                    // store-visible immediately, needs no writer bit, and
                    // folds with any buffered partials in any order.
                    self.store.rmw_lane(index, value);
                    buf.held_bypasses.store(
                        buf.held_bypasses.load(Ordering::Relaxed) + 1,
                        Ordering::Relaxed,
                    );
                    self.telemetry
                        .trace(thread, TraceKind::HeldBypass, slot.line);
                    return;
                }
            },
        };
        // CLOCK reference bit: this slot was used since the last victim scan.
        buf.marks[idx].store(1, Ordering::Relaxed);
        let pending = &buf.pending[idx];
        let count = pending.load(Ordering::Relaxed).saturating_add(1);
        if count == 1 {
            // First buffered update on this slot since its last drain:
            // announce this worker in the line's writer bitmap before the
            // delta store below, so any reader that could observe the delta
            // also observes the bit and reduces this buffer. The slot's tag
            // is already published (privatize/locate), so a reader that sees
            // the bit can always find the slot.
            self.line_meta[slot.line]
                .writers
                // ord: writer-bitmap
                .fetch_or(1u64 << thread, Ordering::AcqRel);
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
            buf.flushes
                .store(buf.flushes.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            self.telemetry.trace(thread, TraceKind::Flush, slot.line);
        }
    }

    fn read(&self, thread: usize, index: usize) -> u64 {
        debug_assert!(index < self.store.len());
        let slot = self.geometry.slot(index);
        // On-demand reduction: global value ∘ the buffered partial of each
        // *active writer* of the line, per the writer bitmap — O(active
        // writers), not O(threads). A concurrent migration moves a delta
        // from a buffer into the store; reading the store before the reduce
        // and the buffer after the swap would observe the delta in *neither*
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
                break self.reduce_with_hold(thread, slot, index, &mut cost);
            }
            crate::sync::hint::spin_loop();
        };
        self.telemetry
            .record_read(thread, cost.buffer_words, cost.retries, cost.escalations);
        value
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
    fn read_stale(&self, thread: usize, index: usize) -> StaleRead {
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
                // ord: stale-pending
                staleness += u64::from(self.buffers[writer].pending[idx].load(Ordering::Acquire));
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

    fn flush(&self, thread: usize) {
        let buf = &self.buffers[thread];
        for idx in 0..buf.capacity() {
            if buf.pending[idx].load(Ordering::Relaxed) > 0 {
                let line = (buf.tags[idx].load(Ordering::Relaxed) - 1) as usize;
                self.migrate_slot(thread, idx, None);
                buf.flushes
                    .store(buf.flushes.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                self.telemetry.trace(thread, TraceKind::Flush, line);
            }
        }
    }

    fn snapshot(&self) -> Vec<u64> {
        // Reduce non-destructively, exactly like `read`, rather than draining
        // other threads' buffers: a cross-thread drain would break the
        // single-writer invariant of `update` if a worker were still running
        // (its plain store could resurrect an already-reduced delta). This
        // way a mid-run snapshot is merely possibly stale, and a quiescent
        // one is exact whether or not anyone flushed.
        (0..self.store.len())
            .map(|index| self.read(0, index))
            .collect()
    }

    fn buffer_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for buf in &self.buffers {
            // Acquire the eviction count *before* loading `privatized`: the
            // owner bumps `privatized` first and publishes the eviction with
            // Release, so every eviction this load observes has its claim in
            // the `privatized` load below — `evictions ≤ privatized` holds
            // for any observer, mid-run included. Mutation lane weakens
            // this Acquire; the stats-invariant model test catches the
            // `evictions > privatized` observation that admits.
            // ord: evict-stats
            let evictions = buf.evictions.load(EVICTION_FOLD);
            total.merge(&BufferStats {
                privatized: buf.privatized.load(Ordering::Relaxed),
                evictions,
                flushes: buf.flushes.load(Ordering::Relaxed),
                held_bypasses: buf.held_bypasses.load(Ordering::Relaxed),
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryConfig;

    /// Iteration multiplier for the concurrency stress tests: 1 normally, 8
    /// when `COUP_STRESS` is set (the CI release stress lane).
    fn stress_factor() -> u64 {
        match std::env::var_os("COUP_STRESS") {
            Some(v) if v != "0" => 8,
            _ => 1,
        }
    }

    /// [`CoupBackend::new`] recording into a private default registry.
    fn coup_backend(
        op: CommutativeOp,
        len: usize,
        threads: usize,
        flush_threshold: u32,
        config: BufferConfig,
    ) -> CoupBackend {
        let telemetry = Arc::new(TelemetryRegistry::new(threads, TelemetryConfig::default()));
        CoupBackend::new(op, len, threads, flush_threshold, config, telemetry)
    }

    /// What `RuntimeBuilder` defaults to: the default flush budget and the
    /// environment's buffer configuration, so `COUP_BUFFER_CAPACITY=2`
    /// reruns every test that does not pin a capacity under eviction
    /// pressure.
    fn ambient_backend(op: CommutativeOp, len: usize, threads: usize) -> CoupBackend {
        let config = BufferConfig::from_env();
        coup_backend(op, len, threads, DEFAULT_FLUSH_THRESHOLD, config)
    }

    fn backends(op: CommutativeOp, len: usize, threads: usize) -> (AtomicBackend, CoupBackend) {
        (
            AtomicBackend::new(op, len),
            ambient_backend(op, len, threads),
        )
    }

    /// Slot index of `line` in `thread`'s buffer, which must exist.
    fn slot_of(b: &CoupBackend, thread: usize, line: usize) -> usize {
        b.buffers[thread]
            .locate(line)
            .expect("line must be privatized")
    }

    #[test]
    fn atomic_backend_counts() {
        let b = AtomicBackend::new(CommutativeOp::AddU64, 8);
        b.update(0, 3, 5);
        b.update(1, 3, 7);
        assert_eq!(b.read(0, 3), 12);
        assert_eq!(b.update_read(0, 3, 1), 13);
        assert_eq!(b.snapshot()[3], 13);
        assert_eq!(b.buffer_stats(), BufferStats::default());
    }

    #[test]
    fn coup_read_reduces_unflushed_partials() {
        let b = ambient_backend(CommutativeOp::AddU64, 8, 4);
        b.update(0, 2, 10);
        b.update(1, 2, 20);
        b.update(3, 2, 3);
        // Nothing flushed yet: the store still holds zero, the read reduces.
        assert_eq!(b.store().load_lane(2), 0);
        assert_eq!(b.read(2, 2), 33);
        assert_eq!(b.update_read(2, 2, 1), 34);
    }

    #[test]
    fn coup_flush_threshold_drains_hot_lines() {
        let b = coup_backend(CommutativeOp::AddU64, 8, 2, 4, BufferConfig::from_env());
        for _ in 0..4 {
            b.update(0, 0, 1);
        }
        // The 4th update crossed the threshold: the partial moved to the store.
        assert_eq!(b.store().load_lane(0), 4);
        assert_eq!(b.read(1, 0), 4);
        b.update(0, 0, 1);
        assert_eq!(b.store().load_lane(0), 4, "below threshold stays private");
        assert_eq!(b.read(1, 0), 5);
        assert_eq!(b.buffer_stats().flushes, 1);
    }

    #[test]
    fn explicit_flush_publishes_everything() {
        let b = ambient_backend(CommutativeOp::AddU32, 64, 3);
        for t in 0..3 {
            for i in 0..64 {
                b.update(t, i, (t + 1) as u64);
            }
        }
        for t in 0..3 {
            b.flush(t);
        }
        for i in 0..64 {
            assert_eq!(b.store().load_lane(i), 6);
        }
    }

    #[test]
    fn backends_agree_on_a_sequential_interleaving() {
        for op in [
            CommutativeOp::AddU16,
            CommutativeOp::AddU32,
            CommutativeOp::Or64,
        ] {
            let (atomic, coup) = backends(op, 32, 4);
            let mut x = 0x1234_5678_u64;
            for step in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let thread = (x >> 16) as usize % 4;
                let index = (x >> 24) as usize % 32;
                if step % 7 == 0 {
                    assert_eq!(
                        atomic.read(thread, index),
                        coup.read(thread, index),
                        "read mismatch for {op:?} at step {step}"
                    );
                } else {
                    let value = x >> 40;
                    atomic.update(thread, index, value);
                    coup.update(thread, index, value);
                }
            }
            assert_eq!(
                atomic.snapshot(),
                coup.snapshot(),
                "final state mismatch for {op:?}"
            );
        }
    }

    /// The same interleaving agreement, but at capacity 1 and 2, so every
    /// line switch evicts through `privatize`.
    #[test]
    fn backends_agree_under_tiny_capacities() {
        for capacity in [1usize, 2] {
            let op = CommutativeOp::AddU32;
            let lanes = 64; // 4 store lines at AddU32
            let atomic = AtomicBackend::new(op, lanes);
            let coup = coup_backend(
                op,
                lanes,
                3,
                DEFAULT_FLUSH_THRESHOLD,
                BufferConfig::bounded(capacity),
            );
            assert_eq!(coup.capacity_lines(), capacity);
            let mut x = 0x9E37_79B9_u64;
            for step in 0..3000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let thread = (x >> 16) as usize % 3;
                let index = (x >> 24) as usize % lanes;
                if step % 5 == 0 {
                    assert_eq!(
                        atomic.read(thread, index),
                        coup.read(thread, index),
                        "read mismatch at capacity {capacity} step {step}"
                    );
                } else {
                    atomic.update(thread, index, x >> 40);
                    coup.update(thread, index, x >> 40);
                }
            }
            assert_eq!(
                atomic.snapshot(),
                coup.snapshot(),
                "final state mismatch at capacity {capacity}"
            );
            assert!(
                coup.buffer_stats().evictions > 0,
                "capacity {capacity} over 4 lines must evict"
            );
        }
    }

    /// The eviction contract: displacing a dirty line migrates its delta into
    /// the store and retires its writer bit — the bit clears only after the
    /// delta lands (`migrate_slot` orders the bitmap clear after the reduce,
    /// and the concurrent stress tests verify no reader can catch the delta
    /// in neither place).
    #[test]
    fn eviction_lands_the_delta_then_retires_the_writer_bit() {
        let op = CommutativeOp::AddU64;
        let lanes_per_line = 8; // AddU64: 8 lanes per 64-byte line
        let b = coup_backend(
            op,
            4 * lanes_per_line,
            2,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::bounded(1),
        );
        b.update(0, 0, 5); // line 0, privatized
        assert_eq!(
            b.line_meta[0].writers.load(Ordering::Relaxed),
            0b01,
            "writer bit set while the delta is buffered"
        );
        assert_eq!(b.store().load_lane(0), 0, "delta still private");
        b.update(0, lanes_per_line, 7); // line 1: evicts line 0 at capacity 1
        assert_eq!(
            b.store().load_lane(0),
            5,
            "the evicted line's delta landed in the store"
        );
        assert_eq!(
            b.line_meta[0].writers.load(Ordering::Relaxed),
            0,
            "the evicted line's writer bit is retired"
        );
        assert_eq!(
            b.line_meta[1].writers.load(Ordering::Relaxed),
            0b01,
            "the incoming line's writer bit is set"
        );
        assert_eq!(b.read(1, 0), 5);
        assert_eq!(b.read(1, lanes_per_line), 7);
        let stats = b.buffer_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.privatized, 2);
    }

    /// Clean victims (already drained) are re-tagged without an eviction
    /// migration, and re-privatizing the same line later re-sets its bit.
    #[test]
    fn clean_victims_retag_without_migrating() {
        let lanes_per_line = 8;
        let b = coup_backend(
            CommutativeOp::AddU64,
            4 * lanes_per_line,
            1,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::bounded(1),
        );
        b.update(0, 0, 3);
        b.flush(0); // line 0's slot is now clean but still tagged
        assert_eq!(b.buffer_stats().flushes, 1);
        b.update(0, lanes_per_line, 9); // claims the slot from clean line 0
        let stats = b.buffer_stats();
        assert_eq!(stats.evictions, 0, "clean displacement is not an eviction");
        assert_eq!(stats.privatized, 2);
        b.update(0, 0, 4); // line 0 comes back, evicting dirty line 1
        assert_eq!(b.buffer_stats().evictions, 1);
        assert_eq!(b.read(0, 0), 7);
        assert_eq!(b.read(0, lanes_per_line), 9);
    }

    #[test]
    fn unbounded_capacity_never_evicts() {
        let b = coup_backend(
            CommutativeOp::AddU64,
            1024,
            2,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::unbounded(),
        );
        for i in 0..1024 {
            b.update(0, i, i as u64);
        }
        assert_eq!(b.buffer_stats().evictions, 0);
        assert_eq!(b.capacity_lines(), b.store().num_lines());
        for i in (0..1024).step_by(97) {
            assert_eq!(b.read(1, i), i as u64);
        }
    }

    #[test]
    fn buffer_memory_is_bounded_by_capacity_not_store_size() {
        let small = coup_backend(
            CommutativeOp::AddU64,
            1 << 10,
            2,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::bounded(64),
        );
        let huge = coup_backend(
            CommutativeOp::AddU64,
            1 << 20,
            2,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::bounded(64),
        );
        assert_eq!(
            small.buffer_bytes_per_thread(),
            huge.buffer_bytes_per_thread(),
            "per-thread buffer memory must not scale with the store"
        );
        assert_eq!(huge.capacity_lines(), 64);
    }

    #[test]
    fn buffer_config_parses_environment_forms() {
        assert_eq!(BufferConfig::parse(None), BufferConfig::unbounded());
        assert_eq!(BufferConfig::parse(Some("2")), BufferConfig::bounded(2));
        assert_eq!(
            BufferConfig::parse(Some("unbounded")),
            BufferConfig::unbounded()
        );
        assert_eq!(BufferConfig::parse(Some("0")), BufferConfig::unbounded());
    }

    #[test]
    #[should_panic(expected = "invalid COUP_BUFFER_CAPACITY \"not-a-number\"")]
    fn invalid_capacity_env_value_panics_instead_of_falling_back() {
        let _ = BufferConfig::parse(Some("not-a-number"));
    }

    #[test]
    fn concurrent_reads_never_lose_migrating_deltas() {
        // flush_threshold 1 makes every update migrate buffer → store, so
        // readers constantly race the swap/reduce window. A counter that
        // only grows must never appear to shrink: a dip means a reader saw
        // the delta in neither the buffer nor the store (the race the
        // per-slot epoch seqlock closes).
        let updates = 30_000u64 * stress_factor();
        let coup = coup_backend(CommutativeOp::AddU64, 8, 3, 1, BufferConfig::from_env());
        std::thread::scope(|scope| {
            let coup = &coup;
            scope.spawn(move || {
                for _ in 0..updates {
                    coup.update(0, 0, 1);
                }
            });
            for reader in [1usize, 2] {
                scope.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let now = coup.read(reader, 0);
                        assert!(now >= last, "counter went backwards: {last} -> {now}");
                        if now == updates {
                            break;
                        }
                        last = now;
                    }
                });
            }
        });
        assert_eq!(coup.snapshot()[0], updates);
    }

    /// The eviction analogue of the migrating-delta stress: capacity 1 with a
    /// high flush threshold, so *only* capacity evictions migrate deltas.
    /// The writer alternates two lines (each update evicts the other line)
    /// while readers verify both counters stay monotone — a dip would mean
    /// an eviction window let a delta vanish from both places.
    #[test]
    fn concurrent_reads_never_lose_evicted_deltas() {
        let lanes_per_line = 8;
        let updates = 20_000u64 * stress_factor();
        let coup = coup_backend(
            CommutativeOp::AddU64,
            2 * lanes_per_line,
            3,
            u32::MAX,
            BufferConfig::bounded(1),
        );
        std::thread::scope(|scope| {
            let coup = &coup;
            scope.spawn(move || {
                for _ in 0..updates {
                    coup.update(0, 0, 1); // line 0: evicts line 1's delta
                    coup.update(0, lanes_per_line, 1); // line 1: evicts line 0's
                }
            });
            for reader in [1usize, 2] {
                scope.spawn(move || {
                    let mut last = [0u64; 2];
                    loop {
                        let mut done = true;
                        for (i, lane) in [0usize, lanes_per_line].into_iter().enumerate() {
                            let now = coup.read(reader, lane);
                            assert!(
                                now >= last[i],
                                "lane {lane} went backwards: {} -> {now}",
                                last[i]
                            );
                            assert!(now <= updates, "lane {lane} overshot: {now}");
                            last[i] = now;
                            done &= now == updates;
                        }
                        if done {
                            break;
                        }
                    }
                });
            }
        });
        coup.flush(0);
        assert_eq!(coup.store().load_lane(0), updates);
        assert_eq!(coup.store().load_lane(lanes_per_line), updates);
        // Every line switch either evicted the other line's delta or, while
        // an escalated reader held the victim, bypassed the buffer with a
        // direct store RMW (after a bypass the resident line is unchanged,
        // so the following update to it is a hit — hence ≥, not ==, on the
        // sum, and no tight bound on evictions alone).
        let stats = coup.buffer_stats();
        assert!(
            stats.evictions > 0,
            "alternating lines at capacity 1 must evict"
        );
        assert!(
            2 * updates >= stats.evictions + stats.held_bypasses,
            "more migrations than updates: {stats:?}"
        );
    }

    /// The acceptance bar of the writer-bitmap read path: one active writer
    /// on a line costs exactly one buffer-word load per read, no matter how
    /// many worker buffers the backend carries.
    #[cfg(feature = "telemetry")]
    #[test]
    fn read_on_a_line_with_one_writer_loads_one_buffer_word() {
        for threads in [2usize, 8, 32, MAX_COUP_THREADS] {
            let b = ambient_backend(CommutativeOp::AddU64, 8, threads);
            b.update(0, 3, 5); // thread 0 is the line's only active writer
            let before = b.read_cost();
            let reads = 100u64;
            for _ in 0..reads {
                assert_eq!(b.read(threads - 1, 3), 5);
            }
            let after = b.read_cost();
            assert_eq!(after.reads - before.reads, reads, "{threads} threads");
            assert_eq!(
                after.buffer_words - before.buffer_words,
                reads,
                "one buffer word per read at {threads} threads"
            );
            assert_eq!(after.retries, before.retries, "{threads} threads");
            assert_eq!(after.escalations, before.escalations, "{threads} threads");
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn read_on_a_cold_line_loads_no_buffer_words() {
        let b = ambient_backend(CommutativeOp::AddU64, 8, 16);
        for _ in 0..10 {
            assert_eq!(b.read(1, 5), 0);
        }
        assert_eq!(b.read_cost().buffer_words, 0);
        assert_eq!(b.read_cost().reads, 10);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn read_cost_tracks_active_writers_not_threads() {
        let threads = 32;
        let b = ambient_backend(CommutativeOp::AddU64, 8, threads);
        for t in [0usize, 5, 9] {
            b.update(t, 2, 1);
        }
        let before = b.read_cost().buffer_words;
        assert_eq!(b.read(31, 2), 3);
        assert_eq!(b.read_cost().buffer_words - before, 3);
        // A flush retires a writer from the bitmap; the next read pays less.
        b.flush(5);
        let before = b.read_cost().buffer_words;
        assert_eq!(b.read(31, 2), 3);
        assert_eq!(b.read_cost().buffer_words - before, 2);
    }

    /// The kill switch's promise: a disabled registry changes no read's
    /// value and tallies nothing; the backend-native buffer counters flow.
    #[test]
    fn disabled_registry_does_no_read_bookkeeping() {
        let telemetry = Arc::new(TelemetryRegistry::new(4, TelemetryConfig::disabled()));
        let b = CoupBackend::new(
            CommutativeOp::AddU64,
            8,
            4,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::from_env(),
            telemetry,
        );
        b.update(0, 2, 10);
        b.update(3, 2, 5);
        assert_eq!(b.read(1, 2), 15);
        assert_eq!(b.read_escalated(1, 2), 15);
        assert_eq!(b.snapshot()[2], 15);
        assert_eq!(b.read_cost(), ReadCost::default());
        assert!(b.buffer_stats().privatized > 0);
    }

    #[test]
    fn flush_advances_the_slot_epoch_by_two() {
        let b = coup_backend(CommutativeOp::AddU64, 8, 2, 4, BufferConfig::from_env());
        b.update(0, 0, 1);
        let idx = slot_of(&b, 0, 0);
        b.flush(0);
        assert_eq!(b.buffers[0].epochs[idx].load(Ordering::Relaxed), 2);
        assert_eq!(
            b.line_meta[0].writers.load(Ordering::Relaxed),
            0,
            "flush retires the writer bit"
        );
        for _ in 0..4 {
            b.update(0, 0, 1); // 4th update crosses the threshold
        }
        assert_eq!(b.buffers[0].epochs[idx].load(Ordering::Relaxed), 4);
    }

    /// While a reader holds the line, threshold crossings keep buffering
    /// instead of flushing; the first update after the hold drops flushes.
    #[test]
    fn read_hold_defers_threshold_flushes() {
        let b = coup_backend(CommutativeOp::AddU64, 8, 2, 2, BufferConfig::from_env());
        b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
        for _ in 0..6 {
            b.update(0, 0, 1);
        }
        assert_eq!(b.store().load_lane(0), 0, "flushes deferred under hold");
        assert_eq!(b.read(1, 0), 6, "reads still reduce the buffered deltas");
        b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
        b.update(0, 0, 1);
        assert_eq!(b.store().load_lane(0), 7, "hold released, flush resumed");
    }

    /// The regression test of the hold-fairness bound: a hold that never
    /// drops (the hammering-poller limit where exact reads re-arm holds
    /// back-to-back) must not defer a writer's threshold flush forever. The
    /// buffered delta may stretch to [`HOLD_DEFER_FACTOR`] flush budgets;
    /// the next threshold crossing migrates *despite* the hold.
    #[test]
    fn sustained_read_holds_cannot_defer_flushes_unboundedly() {
        let threshold = 2u32;
        let b = coup_backend(
            CommutativeOp::AddU64,
            8,
            2,
            threshold,
            BufferConfig::from_env(),
        );
        b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
        let cap = u64::from(threshold * HOLD_DEFER_FACTOR);
        for i in 1..=cap {
            b.update(0, 0, 1);
            assert!(
                b.store().load_lane(0) == 0 || i == cap,
                "flushed before the deferral cap at update {i}"
            );
        }
        assert_eq!(
            b.store().load_lane(0),
            cap,
            "the deferral cap forces the migration despite the live hold"
        );
        // The stale tier sees the drained line immediately: the bound
        // collapses back to zero once the forced flush lands.
        assert_eq!(
            b.read_stale(1, 0),
            StaleRead {
                value: cap,
                staleness: 0
            }
        );
        b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
    }

    #[test]
    fn read_stale_returns_store_word_and_counts_outstanding_deltas() {
        let b = ambient_backend(CommutativeOp::AddU64, 8, 4);
        assert_eq!(b.read_stale(0, 2), StaleRead::default(), "cold line");
        b.update(0, 2, 10);
        b.update(1, 2, 20);
        b.update(1, 2, 5);
        let stale = b.read_stale(3, 2);
        assert_eq!(stale.value, 0, "nothing migrated: the store word is zero");
        assert_eq!(stale.staleness, 3, "three buffered updates outstanding");
        // The exact read is covered by value + the bound's replayed deltas
        // (for add-one... here arbitrary adds, so only the count contract).
        assert_eq!(b.read(3, 2), 35);
        b.flush(0);
        b.flush(1);
        let stale = b.read_stale(3, 2);
        assert_eq!(
            stale,
            StaleRead {
                value: 35,
                staleness: 0
            },
            "quiesced: the stale tier is exact with a zero bound"
        );
    }

    /// The whole point of the tier: a stale read pays no reduction — no
    /// buffer words, no retries, no escalations, and no read hold a writer
    /// would have to defer to.
    #[test]
    fn read_stale_never_reduces_and_never_arms_holds() {
        let b = ambient_backend(CommutativeOp::AddU64, 8, 8);
        for t in 0..8 {
            b.update(t, 3, 1);
        }
        let before = b.read_cost();
        for _ in 0..100 {
            let stale = b.read_stale(0, 3);
            assert_eq!((stale.value, stale.staleness), (0, 8));
        }
        assert_eq!(
            b.read_cost(),
            before,
            "stale reads are invisible to the exact-read cost counters"
        );
        assert_eq!(b.line_meta[0].read_holds.load(Ordering::Relaxed), 0);
    }

    /// `update_read` through the atomic default keeps working when only
    /// `read_stale` is overridden, and the atomic backend's default tier is
    /// exact with a zero bound.
    #[test]
    fn atomic_backend_stale_tier_is_exact() {
        let b = AtomicBackend::new(CommutativeOp::AddU64, 8);
        b.update(0, 1, 41);
        b.update(1, 1, 1);
        assert_eq!(
            b.read_stale(0, 1),
            StaleRead {
                value: 42,
                staleness: 0
            }
        );
    }

    /// Capacity evictions steer around read-held lines: with two slots and a
    /// hold on one resident line, the unheld resident is the victim.
    #[test]
    fn eviction_prefers_unheld_victims() {
        let lanes_per_line = 8;
        let b = coup_backend(
            CommutativeOp::AddU64,
            4 * lanes_per_line,
            2,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::bounded(2),
        );
        b.update(0, 0, 1); // line 0 resident
        b.update(0, lanes_per_line, 2); // line 1 resident
        b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
        b.update(0, 2 * lanes_per_line, 3); // line 2 must displace line 1
        assert_eq!(b.store().load_lane(0), 0, "held line 0 must stay buffered");
        assert_eq!(
            b.store().load_lane(lanes_per_line),
            2,
            "unheld line 1 was the victim"
        );
        b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
    }

    /// When capacity pressure and read holds collide (every victim candidate
    /// held), the conflicting update bypasses the buffer as a direct store
    /// RMW: the held line's buffered delta and epochs stay untouched (the
    /// escalated reader's quiescence guarantee), memory stays bounded, and
    /// no update is lost.
    #[test]
    fn fully_held_window_routes_updates_around_the_buffer() {
        let lanes_per_line = 8;
        let b = coup_backend(
            CommutativeOp::AddU64,
            4 * lanes_per_line,
            2,
            DEFAULT_FLUSH_THRESHOLD,
            BufferConfig::bounded(1),
        );
        b.update(0, 0, 5); // line 0 resident and dirty
        let idx = slot_of(&b, 0, 0);
        let epoch_before = b.buffers[0].epochs[idx].load(Ordering::Relaxed);
        b.line_meta[0].read_holds.fetch_add(1, Ordering::AcqRel); // ord: read-hold
        b.update(0, lanes_per_line, 7); // the only victim candidate is held
        assert_eq!(
            b.store().load_lane(lanes_per_line),
            7,
            "bypassed update lands directly in the store"
        );
        assert_eq!(
            b.buffers[0].epochs[idx].load(Ordering::Relaxed),
            epoch_before,
            "the held line's slot was not migrated"
        );
        assert_eq!(b.store().load_lane(0), 0, "held delta stays buffered");
        assert_eq!(b.read(1, 0), 5, "held line still reduces correctly");
        let stats = b.buffer_stats();
        assert_eq!(stats.held_bypasses, 1);
        assert_eq!(stats.evictions, 0);
        b.line_meta[0].read_holds.fetch_sub(1, Ordering::AcqRel); // ord: read-hold
                                                                  // Hold released: line 1 privatizes normally again, evicting line 0.
        b.update(0, lanes_per_line, 1);
        assert_eq!(b.read(1, lanes_per_line), 8);
        assert_eq!(b.buffer_stats().evictions, 1);
        assert_eq!(b.read(1, 0), 5);
    }

    #[test]
    fn escalated_reduction_returns_the_right_value_and_releases_the_hold() {
        let b = ambient_backend(CommutativeOp::AddU64, 8, 4);
        b.update(0, 1, 11);
        b.update(2, 1, 31);
        let slot = b.geometry.slot(1);
        let mut cost = ReadCost::default();
        assert_eq!(b.reduce_with_hold(0, slot, 1, &mut cost), 42);
        assert_eq!(cost.escalations, 1);
        assert_eq!(b.line_meta[slot.line].read_holds.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn more_than_64_workers_is_rejected() {
        let _ = ambient_backend(CommutativeOp::AddU64, 8, MAX_COUP_THREADS + 1);
    }

    #[test]
    fn min_backend_tracks_minimum() {
        let (atomic, coup) = backends(CommutativeOp::Min64, 4, 2);
        for b in [&atomic as &dyn UpdateBackend, &coup] {
            // Store starts zeroed, so 0 is already the floor; check identity
            // behaviour by never letting zero win.
            assert_eq!(b.read(0, 1), 0);
            b.update(0, 1, 5);
            assert_eq!(b.read(1, 1), 0);
        }
    }
}
