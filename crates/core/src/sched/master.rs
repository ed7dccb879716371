//! The master node's cluster-local job queue (paper §III-B).
//!
//! *"The master monitors the cluster's job pool, and when it senses that it
//! is depleted, it will request a new group of jobs from the head."*
//!
//! [`MasterPool`] is the pure state machine for that behaviour: it holds the
//! jobs granted by the head, hands them to slaves one at a time, and tells
//! its driver when a refill request should be sent (queue at or below the
//! low-water mark, no request already in flight, head not exhausted).

use crate::obs::{EventKind, SinkHandle};
use cb_storage::layout::ChunkId;
use std::collections::VecDeque;

/// A job as held by a master: the chunk plus whether its data is remote
/// (the grant was stolen), which the slave needs to pick a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterJob {
    pub chunk: ChunkId,
    pub stolen: bool,
}

/// Cluster-local job queue with demand-driven refill.
#[derive(Debug, Clone)]
pub struct MasterPool {
    queue: VecDeque<MasterJob>,
    /// Request more when `queue.len() <= low_water`.
    low_water: usize,
    request_in_flight: bool,
    /// The head confirmed no more jobs will ever come for this cluster
    /// (see [`MasterPool::mark_exhausted`]).
    exhausted: bool,
    /// Observability sink (disabled by default; see [`MasterPool::with_sink`]).
    sink: SinkHandle,
    /// Cluster index stamped on emitted events.
    cluster: u32,
}

impl MasterPool {
    pub fn new(low_water: usize) -> Self {
        MasterPool {
            queue: VecDeque::new(),
            low_water,
            request_in_flight: false,
            exhausted: false,
            sink: SinkHandle::disabled(),
            cluster: 0,
        }
    }

    /// Emit [`EventKind::MasterRefill`] to `sink` each time this master
    /// sends a refill request to the head, tagged with `cluster`.
    pub fn with_sink(mut self, sink: SinkHandle, cluster: u32) -> Self {
        self.sink = sink;
        self.cluster = cluster;
        self
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True once the head has said "no more" and the queue has drained.
    pub fn finished(&self) -> bool {
        self.exhausted && self.queue.is_empty()
    }

    /// True if the driver should send a job request to the head *now*.
    /// Callers must follow a `true` with [`MasterPool::mark_requested`].
    pub fn should_request(&self) -> bool {
        !self.exhausted && !self.request_in_flight && self.queue.len() <= self.low_water
    }

    /// Record that a request was sent.
    pub fn mark_requested(&mut self) {
        debug_assert!(!self.request_in_flight, "double refill request");
        self.request_in_flight = true;
        self.sink.emit(
            Some(self.cluster),
            None,
            EventKind::MasterRefill {
                queue_len: self.queue.len() as u64,
            },
        );
    }

    /// Absorb a grant from the head.
    ///
    /// An empty grant no longer implies exhaustion: it can also mean
    /// "nothing available *right now*" while jobs leased to other clusters
    /// could still fail back into the head pool. Drivers receiving an empty
    /// grant must consult the head (`JobPool::exhausted_for`) and either
    /// call [`MasterPool::mark_exhausted`] or ask again once the pool can
    /// have changed.
    pub fn on_grant(&mut self, jobs: impl IntoIterator<Item = ChunkId>, stolen: bool) {
        self.request_in_flight = false;
        for chunk in jobs {
            self.queue.push_back(MasterJob { chunk, stolen });
        }
    }

    /// The head confirmed this cluster can never receive another grant.
    pub fn mark_exhausted(&mut self) {
        self.exhausted = true;
    }

    /// Drain every job still queued (granted by the head but never handed
    /// to a slave) — used by a dying master to return its leases.
    pub fn drain(&mut self) -> Vec<MasterJob> {
        self.queue.drain(..).collect()
    }

    /// Hand the next job to a slave.
    pub fn take(&mut self) -> Option<MasterJob> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ChunkId> {
        v.iter().map(|&i| ChunkId(i)).collect()
    }

    #[test]
    fn refill_triggers_at_low_water() {
        let mut m = MasterPool::new(2);
        assert!(m.should_request(), "empty pool wants jobs");
        m.mark_requested();
        assert!(!m.should_request(), "no double request");
        m.on_grant(ids(&[0, 1, 2, 3]), false);
        assert!(!m.should_request(), "above low water");
        m.take();
        assert!(!m.should_request());
        m.take();
        assert!(m.should_request(), "at low water (len 2)");
    }

    #[test]
    fn empty_grant_allows_repolling_until_marked_exhausted() {
        let mut m = MasterPool::new(1);
        m.mark_requested();
        m.on_grant(ids(&[5]), true);
        m.mark_requested();
        m.on_grant(ids(&[]), false);
        // An empty grant can mean "nothing right now": jobs held elsewhere
        // may fail back, so the pool stays pollable...
        assert!(m.should_request(), "empty grant alone is not exhaustion");
        assert!(!m.finished());
        // ...until the head confirms nothing further can come.
        m.mark_exhausted();
        assert!(!m.should_request(), "exhausted pools never re-request");
        assert!(!m.finished(), "one job still queued");
        let j = m.take().unwrap();
        assert_eq!(j.chunk, ChunkId(5));
        assert!(j.stolen);
        assert!(m.finished());
        assert_eq!(m.take(), None);
    }

    #[test]
    fn drain_returns_undispatched_jobs() {
        let mut m = MasterPool::new(0);
        m.on_grant(ids(&[1, 2]), false);
        m.on_grant(ids(&[9]), true);
        m.take();
        let leases = m.drain();
        assert_eq!(leases.len(), 2);
        assert_eq!(leases[0].chunk, ChunkId(2));
        assert_eq!(leases[1].chunk, ChunkId(9));
        assert!(leases[1].stolen);
        assert!(m.is_empty());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut m = MasterPool::new(0);
        m.on_grant(ids(&[3, 4, 5]), false);
        assert_eq!(m.take().unwrap().chunk, ChunkId(3));
        assert_eq!(m.take().unwrap().chunk, ChunkId(4));
        assert_eq!(m.take().unwrap().chunk, ChunkId(5));
    }

    #[test]
    fn stolen_flag_carried_per_grant() {
        let mut m = MasterPool::new(0);
        m.on_grant(ids(&[0]), false);
        m.on_grant(ids(&[1]), true);
        assert!(!m.take().unwrap().stolen);
        assert!(m.take().unwrap().stolen);
    }

    #[test]
    fn in_flight_state_visible() {
        let mut m = MasterPool::new(0);
        assert!(m.should_request(), "empty, at low water, not in flight");
        m.mark_requested();
        assert!(!m.should_request(), "in flight");
        m.on_grant(ids(&[]), false);
        assert!(m.should_request(), "the grant ended the flight");
    }
}
