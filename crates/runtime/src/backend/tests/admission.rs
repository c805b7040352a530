//! Unit tests of the bounded buffers' admission policy (`privatize` in
//! `buffer.rs`): first miss on a full window bypasses, second in a row claims.

use super::*;

/// The admission rule: a miss on a full probe window is applied straight to
/// the store — visible there at once, announcing no writer, moving no slot —
/// and only the line's second miss in a row privatizes it.
#[test]
fn first_touch_of_a_full_window_bypasses_second_touch_privatizes() {
    let lanes_per_line = 8;
    let b = sized_backend(
        CommutativeOp::AddU64,
        4 * lanes_per_line,
        2,
        BufferConfig::bounded(1),
    );
    b.update(0, 0, 5); // line 0 claims the one (empty) slot: no admission
    assert_eq!(b.buffer_stats().admission_bypasses, 0);
    let idx = slot_of(&b, 0, 0);
    let epoch_before = b.buffers[0].sample_epoch(idx);

    b.update(0, lanes_per_line, 3); // line 1, first touch
    assert_eq!(b.store().load_lane(lanes_per_line), 3, "store-visible");
    assert_eq!(b.read(1, lanes_per_line), 3);
    assert_eq!(
        b.line_meta[1].writers.load(Ordering::Relaxed),
        0,
        "a bypass announces no writer"
    );
    assert_eq!(b.buffers[0].locate(1), None, "and claims no slot");
    assert_eq!(b.buffers[0].sample_epoch(idx), epoch_before);
    assert_eq!(b.store().load_lane(0), 0, "line 0 stays private");
    let stats = b.buffer_stats();
    assert_eq!((stats.privatized, stats.admission_bypasses), (1, 1));

    b.update(0, lanes_per_line, 4); // second touch: admitted, evicts line 0
    assert!(b.buffers[0].locate(1).is_some());
    assert_eq!(b.line_meta[1].writers.load(Ordering::Relaxed), 0b01);
    assert_eq!(b.store().load_lane(lanes_per_line), 3, "now buffered");
    assert_eq!(b.read(1, lanes_per_line), 7);
    assert_eq!(b.read(1, 0), 5);
    let stats = b.buffer_stats();
    assert_eq!((stats.privatized, stats.evictions), (2, 1));
    assert_eq!((stats.admission_bypasses, stats.held_bypasses), (1, 0));
}

/// Lane 0 of the `n`-th line whose home in a `PROBE_WINDOW`-slot buffer is
/// slot 0 (`AddU64`: 8 lanes per line).
fn same_home_lane(n: usize) -> usize {
    n * PROBE_WINDOW * 8
}

/// A cyclic scan over more same-home lines than the window holds, the
/// pattern on which CLOCK alone misses every time: the first `window` lines
/// stay resident and hit, and the rest cost one RMW each — two or more
/// non-resident lines keep replacing each other as the candidate, so none
/// is ever admitted and nothing is ever evicted. (With exactly one line
/// too many, the one non-resident line *is* touched twice in a row among
/// the misses: a slot changes hands at most once a sweep, where CLOCK alone
/// evicts on every update.)
#[test]
fn cyclic_scan_past_the_window_never_evicts() {
    let op = CommutativeOp::AddU64;
    let window = PROBE_WINDOW;
    let lanes = same_home_lane(window + 2);
    let atomic = AtomicBackend::new(op, lanes);
    let coup = sized_backend(op, lanes, 1, BufferConfig::bounded(window));
    let sweeps = 50;
    for sweep in 0..sweeps {
        for n in 0..window + 2 {
            atomic.update(0, same_home_lane(n), sweep + 1);
            coup.update(0, same_home_lane(n), sweep + 1);
        }
    }
    assert_eq!(coup.snapshot(), atomic.snapshot());
    let stats = coup.buffer_stats();
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.privatized, window as u64, "the first window's worth");
    assert_eq!(stats.admission_bypasses, 2 * sweeps);

    let coup = sized_backend(op, lanes, 1, BufferConfig::bounded(window));
    for _ in 0..sweeps {
        for n in 0..window + 1 {
            coup.update(0, same_home_lane(n), 1);
        }
    }
    let evictions = coup.buffer_stats().evictions;
    assert!(0 < evictions && evictions <= sweeps, "{evictions}");
}

/// Admission wants two misses *in a row* at the line's home slot: a miss
/// of another same-home line in between starts the count over.
#[test]
fn an_interleaved_same_home_miss_resets_the_candidate() {
    let lanes_per_line = 8;
    let b = sized_backend(
        CommutativeOp::AddU64,
        4 * lanes_per_line,
        1,
        BufferConfig::bounded(1),
    );
    b.update(0, 0, 1); // line 0 resident
    b.update(0, lanes_per_line, 1); // line 1 becomes the candidate
    b.update(0, 2 * lanes_per_line, 1); // line 2 replaces it
    b.update(0, lanes_per_line, 1); // line 1 again: a first touch once more
    let stats = b.buffer_stats();
    assert_eq!((stats.privatized, stats.admission_bypasses), (1, 3));
    b.update(0, 0, 1); // a hit does not disturb the candidate
    b.update(0, lanes_per_line, 1); // line 1 twice in a row: admitted
    let stats = b.buffer_stats();
    assert_eq!((stats.privatized, stats.evictions), (2, 1));
    assert_eq!(stats.admission_bypasses, 3);
    assert_eq!(b.snapshot()[..3 * lanes_per_line].iter().sum::<u64>(), 6);
}

/// Every miss is accounted for exactly once — a claim, an admission bypass
/// or a held bypass — on a seeded Zipf stream over eight times the buffer's
/// capacity, with the misses counted from outside the backend.
#[test]
fn every_miss_is_a_claim_or_a_bypass_on_a_zipf_stream() {
    use crate::harness::{splitmix64, LaneSampler};
    let op = CommutativeOp::AddU64;
    let lanes = 4096; // 512 lines
    let atomic = AtomicBackend::new(op, lanes);
    let coup = sized_backend(op, lanes, 1, BufferConfig::bounded(64));
    let sampler = LaneSampler::new(lanes, 0.99);
    let mut state = 0x5EED;
    let mut misses = 0u64;
    for _ in 0..100_000 {
        // Scatter the popularity ranks over the lines (73 is odd).
        let lane = sampler.lane(splitmix64(&mut state)) * 73 % lanes;
        misses += u64::from(coup.buffers[0].locate(lane / 8).is_none());
        atomic.update(0, lane, 1);
        coup.update(0, lane, 1);
    }
    let stats = coup.buffer_stats();
    assert_eq!(
        misses,
        stats.privatized + stats.admission_bypasses + stats.held_bypasses,
        "{stats:?}"
    );
    assert!(stats.admission_bypasses > 0 && stats.evictions > 0);
    assert!(stats.evictions <= stats.privatized, "{stats:?}");
    assert_eq!(stats.held_bypasses, 0, "nothing reads");
    assert_eq!(coup.snapshot(), atomic.snapshot());
}
