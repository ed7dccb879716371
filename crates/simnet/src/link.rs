//! A processor-sharing ("fair-share") link model.
//!
//! A [`FairShareLink`] models a shared bottleneck (a WAN uplink, the
//! aggregate S3 frontend, a storage node's disk array) of fixed capacity `C`
//! bytes/sec. Concurrent transfers ("flows") share `C` by *max-min fairness
//! with per-flow caps* (water-filling): every flow gets an equal share of the
//! capacity unless its own cap binds, in which case the leftover is
//! redistributed to the uncapped flows. This is the standard fluid
//! approximation of TCP sharing a bottleneck and is what makes contention
//! effects — e.g. many slaves hammering the same S3 bucket — come out of the
//! simulation rather than being hand-coded.
//!
//! Interaction with the event engine follows the *generation* pattern: every
//! mutation bumps [`FairShareLink::generation`]. The world schedules a wakeup
//! at [`FairShareLink::next_completion`] tagged with the current generation;
//! when the wakeup fires with a stale generation it is ignored (a newer
//! wakeup has already been scheduled).

use crate::time::{SimDur, SimTime};
use std::collections::BTreeMap;

/// Identifier of an in-flight transfer on a [`FairShareLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct Flow {
    /// Bytes still to transfer (fluid model, fractional).
    remaining: f64,
    /// This flow's own rate cap in bytes/sec (`f64::INFINITY` if uncapped).
    cap: f64,
    /// Opaque tag the caller can use to route the completion.
    tag: u64,
}

/// Shared-bottleneck link with max-min fair bandwidth allocation.
///
/// ```
/// use cb_simnet::link::FairShareLink;
/// use cb_simnet::time::SimTime;
///
/// // A 100 B/s link; two simultaneous 100-byte flows share it fairly
/// // and both finish at t = 2 s.
/// let mut link = FairShareLink::with_capacity(100.0);
/// link.start_flow(SimTime::ZERO, 100, 0);
/// link.start_flow(SimTime::ZERO, 100, 1);
/// let done_at = link.next_completion().unwrap();
/// assert_eq!(done_at, SimTime::from_secs(2));
/// assert_eq!(link.poll_completed(done_at).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FairShareLink {
    capacity: f64,
    default_flow_cap: f64,
    flows: BTreeMap<FlowId, Flow>,
    /// Cached per-flow rates, recomputed on membership change.
    rates: BTreeMap<FlowId, f64>,
    last_advance: SimTime,
    next_id: u64,
    generation: u64,
    bytes_delivered: f64,
}

/// Completion record returned by [`FairShareLink::poll_completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub flow: FlowId,
    pub tag: u64,
}

impl FairShareLink {
    /// A link of `capacity_bps` aggregate bytes/sec where each flow is also
    /// individually limited to `default_flow_cap_bps` (use `f64::INFINITY`
    /// for no per-flow cap).
    pub fn new(capacity_bps: f64, default_flow_cap_bps: f64) -> Self {
        assert!(capacity_bps > 0.0, "link capacity must be positive");
        assert!(default_flow_cap_bps > 0.0, "flow cap must be positive");
        FairShareLink {
            capacity: capacity_bps,
            default_flow_cap: default_flow_cap_bps,
            flows: BTreeMap::new(),
            rates: BTreeMap::new(),
            last_advance: SimTime::ZERO,
            next_id: 0,
            generation: 0,
            bytes_delivered: 0.0,
        }
    }

    /// An uncapped-per-flow link.
    pub fn with_capacity(capacity_bps: f64) -> Self {
        Self::new(capacity_bps, f64::INFINITY)
    }

    /// Aggregate capacity in bytes/sec.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Monotone counter bumped on every state change; used to invalidate
    /// stale wakeup events.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes fully delivered so far (monotone).
    pub fn bytes_delivered(&self) -> f64 {
        self.bytes_delivered
    }

    /// Start a transfer of `bytes` with the link's default per-flow cap.
    pub fn start_flow(&mut self, now: SimTime, bytes: u64, tag: u64) -> FlowId {
        self.start_flow_capped(now, bytes, self.default_flow_cap, tag)
    }

    /// Start a transfer with an explicit per-flow cap (e.g. `n_threads *
    /// per_connection_bandwidth` for a multi-threaded S3 fetch).
    pub fn start_flow_capped(&mut self, now: SimTime, bytes: u64, cap: f64, tag: u64) -> FlowId {
        assert!(cap > 0.0, "flow cap must be positive");
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                remaining: bytes as f64,
                cap,
                tag,
            },
        );
        self.recompute_rates();
        self.generation += 1;
        id
    }

    /// The absolute instant at which the next flow (if any) will finish,
    /// assuming no further arrivals.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.flows
            .iter()
            .map(|(id, f)| {
                let rate = self.rates[id];
                self.last_advance + SimDur::for_transfer(f.remaining.ceil() as u64, rate)
            })
            .min()
    }

    /// Advance the fluid model to `now` and collect every flow that has
    /// finished by then, in deterministic (FlowId) order.
    pub fn poll_completed(&mut self, now: SimTime) -> Vec<Completion> {
        self.advance(now);
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= 0.5)
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(done.len());
        for id in &done {
            let f = self.flows.remove(id).expect("flow vanished");
            out.push(Completion {
                flow: *id,
                tag: f.tag,
            });
        }
        if !done.is_empty() {
            self.recompute_rates();
            self.generation += 1;
        }
        out
    }

    /// Current transfer rate of `id` in bytes/sec, if in flight.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.rates.get(&id).copied()
    }

    /// Drain fluid up to `now`. Rates are constant between membership
    /// changes, so this is exact, not an approximation — but it must never
    /// be called with a `now` earlier than the last advance.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "link advanced backwards: {now} < {}",
            self.last_advance
        );
        let dt = (now - self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt == 0.0 || self.flows.is_empty() {
            return;
        }
        for (id, f) in self.flows.iter_mut() {
            let rate = self.rates[id];
            let moved = (rate * dt).min(f.remaining);
            f.remaining -= moved;
            self.bytes_delivered += moved;
        }
    }

    /// Max-min fair allocation with per-flow caps (water-filling).
    fn recompute_rates(&mut self) {
        self.rates.clear();
        if self.flows.is_empty() {
            return;
        }
        let mut unassigned: Vec<(FlowId, f64)> =
            self.flows.iter().map(|(&id, f)| (id, f.cap)).collect();
        let mut capacity_left = self.capacity;
        // Iteratively freeze flows whose cap is below the current fair share.
        loop {
            let n = unassigned.len();
            if n == 0 {
                break;
            }
            let fair = capacity_left / n as f64;
            let (bound, free): (Vec<_>, Vec<_>) = unassigned
                .iter()
                .copied()
                .partition(|&(_, cap)| cap <= fair);
            if bound.is_empty() {
                for (id, _) in &unassigned {
                    self.rates.insert(*id, fair);
                }
                break;
            }
            for (id, cap) in &bound {
                self.rates.insert(*id, *cap);
                capacity_left -= *cap;
            }
            unassigned = free;
        }
        debug_assert!(
            self.rates.values().sum::<f64>() <= self.capacity * (1.0 + 1e-9),
            "allocated more than capacity"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut l = FairShareLink::with_capacity(100.0);
        let id = l.start_flow(t(0.0), 200, 7);
        assert_eq!(l.flow_rate(id), Some(100.0));
        assert_eq!(l.next_completion(), Some(t(2.0)));
        let done = l.poll_completed(t(2.0));
        assert_eq!(done, vec![Completion { flow: id, tag: 7 }]);
        assert_eq!(l.active_flows(), 0);
    }

    #[test]
    fn two_flows_split_capacity() {
        let mut l = FairShareLink::with_capacity(100.0);
        let a = l.start_flow(t(0.0), 100, 0);
        let b = l.start_flow(t(0.0), 100, 1);
        assert_eq!(l.flow_rate(a), Some(50.0));
        assert_eq!(l.flow_rate(b), Some(50.0));
        // Both finish together at t=2 (100 bytes at 50 B/s).
        assert_eq!(l.next_completion(), Some(t(2.0)));
        let done = l.poll_completed(t(2.0));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut l = FairShareLink::with_capacity(100.0);
        let _a = l.start_flow(t(0.0), 50, 0); // finishes at t=1 under sharing
        let b = l.start_flow(t(0.0), 150, 1);
        assert_eq!(l.next_completion(), Some(t(1.0)));
        let done = l.poll_completed(t(1.0));
        assert_eq!(done.len(), 1);
        // b has 100 bytes left, now alone at 100 B/s => finishes at t=2.
        assert_eq!(l.flow_rate(b), Some(100.0));
        assert_eq!(l.next_completion(), Some(t(2.0)));
        assert_eq!(l.poll_completed(t(2.0)).len(), 1);
    }

    #[test]
    fn per_flow_cap_binds_and_leftover_redistributes() {
        // Capacity 100; one flow capped at 10, another uncapped.
        let mut l = FairShareLink::with_capacity(100.0);
        let slow = l.start_flow_capped(t(0.0), 1000, 10.0, 0);
        let fast = l.start_flow(t(0.0), 1000, 1);
        assert_eq!(l.flow_rate(slow), Some(10.0));
        assert_eq!(l.flow_rate(fast), Some(90.0));
    }

    #[test]
    fn default_cap_applies() {
        let mut l = FairShareLink::new(100.0, 30.0);
        let a = l.start_flow(t(0.0), 100, 0);
        // Alone but capped at 30.
        assert_eq!(l.flow_rate(a), Some(30.0));
        let _b = l.start_flow(t(0.0), 100, 1);
        let _c = l.start_flow(t(0.0), 100, 2);
        let _d = l.start_flow(t(0.0), 100, 3);
        // Four flows, fair share 25 < cap 30.
        assert_eq!(l.flow_rate(a), Some(25.0));
    }

    #[test]
    fn mid_flight_arrival_is_accounted_exactly() {
        let mut l = FairShareLink::with_capacity(100.0);
        let a = l.start_flow(t(0.0), 100, 0);
        // At t=0.5, a has 50 bytes left; b arrives.
        let _b = l.start_flow(t(0.5), 100, 1);
        // a now proceeds at 50 B/s: finishes at 0.5 + 1.0 = 1.5.
        assert_eq!(l.next_completion(), Some(t(1.5)));
        let done = l.poll_completed(t(1.5));
        assert_eq!(done, vec![Completion { flow: a, tag: 0 }]);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut l = FairShareLink::with_capacity(10.0);
        let g0 = l.generation();
        let id = l.start_flow(t(0.0), 10, 0);
        assert!(l.generation() > g0);
        let g1 = l.generation();
        let done = l.poll_completed(t(1.0));
        assert_eq!(done, vec![Completion { flow: id, tag: 0 }]);
        assert!(l.generation() > g1);
    }

    #[test]
    fn bytes_conserved() {
        let mut l = FairShareLink::with_capacity(123.0);
        let mut total = 0u64;
        let mut now = t(0.0);
        for i in 0..10 {
            total += 100 * (i + 1);
            l.start_flow(now, 100 * (i + 1), i);
            now += SimDur::from_millis(100);
        }
        let mut delivered = 0usize;
        while let Some(tc) = l.next_completion() {
            delivered += l.poll_completed(tc).len();
        }
        assert_eq!(delivered, 10);
        let err = (l.bytes_delivered() - total as f64).abs();
        assert!(err < 1.0, "bytes not conserved: err={err}");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut l = FairShareLink::with_capacity(10.0);
        let id = l.start_flow(t(1.0), 0, 9);
        assert_eq!(l.next_completion(), Some(t(1.0)));
        let done = l.poll_completed(t(1.0));
        assert_eq!(done, vec![Completion { flow: id, tag: 9 }]);
    }
}
