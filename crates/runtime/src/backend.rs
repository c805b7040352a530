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
//!
//! The same detour is the buffers' **admission** policy: a line that misses
//! on a full probe window is applied straight to the store and displaces a
//! resident line only on its second such miss in a row, so one-touch lines
//! cost one RMW instead of a migration. A direct RMW moves neither bitmap
//! nor epoch nor pending count, so none of the three mechanisms sees it.

use std::sync::Arc;

use coup_protocol::ops::CommutativeOp;

use crate::store::{LaneGeometry, LineMeta, SharedStore};
use crate::telemetry::{MetricsSnapshot, TelemetryRegistry};

mod buffer;
mod read;
#[cfg(test)]
mod tests;

use buffer::ThreadBuffer;

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
    /// Reads served.
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
/// Like [`ReadCost`], each event is counted once, in the telemetry registry
/// (`privatized` is the occupancy histogram's count), so these stay zero
/// with telemetry disabled or compiled out — and for [`AtomicBackend`],
/// which has no buffers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Lines privatized: buffer slots claimed for a line not currently in the
    /// worker's table — both first-touch claims of empty slots and claims
    /// that displaced a victim. The table's misses are these plus the two
    /// bypass counts below.
    pub privatized: u64,
    /// Capacity evictions: slot claims that displaced a *dirty* victim, so
    /// its buffered delta was migrated into the store before the re-tag —
    /// the software U-state evictions. At most `privatized` at quiescence.
    pub evictions: u64,
    /// Slot drains that were not evictions: per-line flush-threshold
    /// crossings plus explicit [`UpdateBackend::flush`] calls.
    pub flushes: u64,
    /// Updates applied directly to the store (an atomic RMW, exactly the
    /// [`AtomicBackend`] path) because the line had passed admission yet
    /// every candidate victim in the probe window held a read-held line.
    /// Evicting one would churn the epochs an escalated reader is waiting
    /// to see quiesce, so capacity pressure routes around the buffer
    /// instead — commutativity makes the detour invisible. Non-zero only
    /// under simultaneous capacity and read-hold pressure: the other
    /// trigger of the same detour counts in `admission_bypasses`.
    pub held_bypasses: u64,
    /// Updates applied directly to the store because their line missed on a
    /// full probe window and was not admitted: a line displaces a resident
    /// one only on its second such miss in a row, so a miss costs one RMW
    /// until its line is touched twice. Unbounded buffers never count here.
    pub admission_bypasses: u64,
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
    line_meta: Box<[LineMeta]>,
    /// Read tallies and histograms, shared with the owning runtime.
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
    /// writer bitmap holds one bit per worker). An enabled `telemetry` built
    /// for fewer than `threads` workers panics at its first buffer event.
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
            line_meta: (0..num_lines).map(|_| LineMeta::default()).collect(),
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

    /// This backend's [`ReadCost`], [`BufferStats`] and histograms, folded
    /// from its telemetry registry (all zeros when that registry is
    /// disabled). The queue counters only a runtime keeps stay zero.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.telemetry.fill(&mut snap);
        snap
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
        self.buffers[0].bytes()
    }
}

/// One-line delegations: the buffer half (`update`, `flush`) lives in
/// `backend/buffer.rs`, the read half in `backend/read.rs`.
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
        self.buffered_update(thread, index, value);
    }

    fn read(&self, thread: usize, index: usize) -> u64 {
        self.exact_read(thread, index)
    }

    fn read_stale(&self, thread: usize, index: usize) -> StaleRead {
        self.stale_read(thread, index)
    }

    fn flush(&self, thread: usize) {
        self.flush_buffer(thread);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.reduce_all()
    }
}
