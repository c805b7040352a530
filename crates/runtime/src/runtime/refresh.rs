//! The stale tier's whole-store half: the published snapshot, the
//! background refresher that fills it, and the two [`CoupRuntime`] calls
//! that serve and publish it.

use std::time::Duration;

use super::{CoupRuntime, Shared};
use crate::sync::lock;

/// The last published whole-store snapshot, behind [`Shared::snap`]'s
/// mutex. No hot path touches it, so it takes a lock instead of an ordering
/// protocol: every publish runs its reduction under the lock, so snapshot
/// `N` is exactly what [`CoupRuntime::stale_snapshot`] serves with epoch
/// `N`, and an older reduction can never overwrite a newer one.
#[derive(Debug)]
pub(super) struct Snapshot {
    values: Vec<u64>,
    /// Snapshot generation counter: `0` means "never published".
    pub(super) epoch: u64,
    /// Set once the drainers joined: the refresher's next publish is its
    /// last.
    closed: bool,
}

impl Snapshot {
    pub(super) fn new(lanes: usize) -> Self {
        Snapshot {
            values: vec![0; lanes],
            epoch: 0,
            closed: false,
        }
    }
}

impl Shared {
    /// Publishes one eventually-consistent snapshot into `snap` (the
    /// caller's guard on [`Shared::snap`]): the backend's non-destructive
    /// whole-store reduction.
    fn publish_snapshot(&self, snap: &mut Snapshot) {
        snap.values = self.backend.snapshot();
        snap.epoch += 1;
    }

    /// Body of the `coup-refresher` thread: publish, then sleep up to
    /// `interval` on [`Shared::refresh`], repeat. The publish runs *before*
    /// the close check so shutdown always gets one final snapshot covering
    /// the fully drained store.
    pub(super) fn refresher_loop(&self, interval: Duration) {
        let mut snap = lock(&self.snap);
        loop {
            self.publish_snapshot(&mut snap);
            if snap.closed {
                return;
            }
            // Timeout and spurious wake alike fall through to a fresh
            // publish — an early snapshot is always safe. `closed` is only
            // set under this lock, so the close cannot slip in before the
            // wait.
            (snap, _) = self
                .refresh
                .wait_timeout(snap, interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the refresher: its next publish is its last.
    pub(super) fn close_refresher(&self) {
        lock(&self.snap).closed = true;
        self.refresh.notify_one();
    }
}

impl CoupRuntime {
    /// The last published eventually-consistent snapshot and its epoch.
    /// Epoch `0` means no snapshot has been published yet (all-zero words);
    /// epoch `N` comes with exactly the words of snapshot `N`.
    #[must_use]
    pub fn stale_snapshot(&self) -> (Vec<u64>, u64) {
        let snap = lock(&self.shared.snap);
        (snap.values.clone(), snap.epoch)
    }

    /// Publishes a fresh snapshot now, inline on the calling thread, whether
    /// or not a refresher runs ([`RuntimeBuilder::refresh_interval`](super::RuntimeBuilder::refresh_interval)).
    /// On return [`CoupRuntime::stale_snapshot`] serves a snapshot no older
    /// than this call's start.
    pub fn refresh_now(&self) {
        self.shared.publish_snapshot(&mut lock(&self.shared.snap));
    }
}
