//! The stale tier's whole-store half: the published snapshot cell, the
//! background refresher that fills it, and the two [`CoupRuntime`] calls
//! that serve and demand it.

use std::time::Duration;

use super::{CoupRuntime, Shared};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::lock;
use crate::sync::{self, SNAP_PUBLISH};
use crate::trace::TraceKind;

/// The snapshot-publication protocol: one word per lane, filled with Relaxed
/// stores and sealed as a unit by the [`SNAP_PUBLISH`] epoch bump. A reader
/// that Acquires epoch `N` sees every word of snapshot `N` (words of a
/// *later* in-flight snapshot may already be mixed in — each word is
/// individually a reduced lane value, so the mix is still a valid
/// eventually-consistent view, and concurrent publishers interleave
/// harmlessly for the same reason).
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    words: Box<[AtomicU64]>,
    /// Snapshot generation counter: `0` means "never published".
    epoch: AtomicU64,
}

impl SnapshotCell {
    pub(crate) fn new(lanes: usize) -> Self {
        SnapshotCell {
            words: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Publishes `values` (one per lane) and returns the new epoch.
    pub(crate) fn publish(&self, values: &[u64]) -> u64 {
        debug_assert_eq!(values.len(), self.words.len());
        for (word, &value) in self.words.iter().zip(values) {
            word.store(value, Ordering::Relaxed);
        }
        self.epoch.fetch_add(1, SNAP_PUBLISH) + 1
    }

    /// The current epoch, with the edge to every word sealed under it.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) // ord: snap-publish
    }

    /// The last published snapshot and its epoch (epoch first: the Acquire
    /// is what makes the word loads fresh).
    pub(crate) fn read(&self) -> (Vec<u64>, u64) {
        let epoch = self.epoch();
        let words = self.words.iter().map(|w| w.load(Ordering::Relaxed));
        (words.collect(), epoch)
    }
}

impl Shared {
    /// Publishes one eventually-consistent snapshot: the backend's
    /// non-destructive whole-store reduction into [`Shared::snap`].
    fn publish_snapshot(&self) {
        let epoch = self.snap.publish(&self.backend.snapshot());
        self.telemetry
            .trace(usize::MAX, TraceKind::SnapshotRefresh, epoch as usize);
    }

    /// Body of the `coup-refresher` thread: publish, sleep up to `interval`
    /// on the refresh parker (a demand or close interrupts the sleep), repeat.
    /// The publish runs *before* the close check so shutdown always gets one
    /// final snapshot covering everything visible at close time.
    pub(super) fn refresher_loop(&self, interval: Duration) {
        loop {
            // Status before publishing: a demand bump landing mid-publish
            // moves it, turning the park below into an immediate retry.
            let status = self.refresh.status();
            self.publish_snapshot();
            if self.refresh.is_closed() {
                return;
            }
            // Timeout and spurious wake alike fall through to a fresh
            // publish — an early snapshot is always safe.
            let _ = self.refresh.park_timeout(status, interval);
        }
    }
}

impl CoupRuntime {
    /// The last published eventually-consistent snapshot and its epoch.
    /// Epoch `0` means no snapshot has been published yet (all-zero words).
    /// Observing epoch `N` guarantees every word of snapshot `N` is visible;
    /// words of a later in-flight snapshot may already be mixed in.
    #[must_use]
    pub fn stale_snapshot(&self) -> (Vec<u64>, u64) {
        self.shared.snap.read()
    }

    /// Publishes a fresh snapshot now. With a live refresher this demands a
    /// wake through the refresh parker and waits for the epoch to advance;
    /// without one ([`RuntimeBuilder::refresh_interval`](super::RuntimeBuilder::refresh_interval)
    /// unset) it publishes inline on the calling thread. Either way, on
    /// return [`CoupRuntime::stale_snapshot`] serves a snapshot no older
    /// than this call's start.
    pub fn refresh_now(&self) {
        if lock(&self.refresher).is_some() {
            let before = self.shared.snap.epoch();
            self.shared.refresh.notify();
            while self.shared.snap.epoch() == before {
                sync::thread::yield_now();
            }
        } else {
            self.shared.publish_snapshot();
        }
    }
}
