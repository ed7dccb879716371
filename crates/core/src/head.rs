//! The head core (paper §III-B, Fig. 2): the one head all three substrates
//! drive — the in-process runtime, the `cb-net` head and the simulator.
//!
//! [`Head`] owns the [`JobPool`]. It answers a job request together with
//! the pool's exhaustion verdict, resolves leases, forfeits a lost
//! location's work and banks one result slot per cluster.
//! [`Head::finish`] checks the pool, merges the banked reduction objects in
//! cluster-index order (the global reduction) and builds the [`RunReport`].
//!
//! The in-process runtime puts it behind a mutex as its masters'
//! [`HeadPort`]: direct calls, no frames, and a condvar on which a request
//! the head cannot answer yet waits. The `cb-net` head drives it from
//! its event loop and keeps only what is specific to the wire. The
//! simulator drives it from its event handlers on a virtual [`Clock`]. The
//! banked payload `B` is what the substrate receives — the reduction object
//! in-process, its encoding on the wire, nothing in the simulator — and is
//! decoded at `finish`.

use crate::api::ReductionObject;
use crate::config::RuntimeConfig;
use crate::deploy::ClusterSpec;
use crate::obs::Clock;
use crate::report::{secs, ClusterAccount, ClusterBreakdown, RecoveryStats, RunReport};
use crate::runtime::{HeadPort, Resolution, RunOutcome, RuntimeError};
use crate::sched::pool::{Grant, JobPool};
use cb_storage::layout::{DatasetLayout, LocationId, Placement};
use std::io;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One cluster's result slot.
enum Slot<B> {
    /// Still running.
    Open,
    /// Reported, with the run time the substrate counts it done at.
    Banked {
        robj: Option<B>,
        account: ClusterAccount,
        done: Duration,
    },
    /// Lost before reporting; its work went back to the pool.
    Lost,
}

/// The head: job pool, per-cluster result slots, global reduction, report.
pub struct Head<B> {
    pool: JobPool,
    clusters: Vec<ClusterSpec>,
    slots: Vec<Slot<B>>,
    /// First error observed, carried by [`RuntimeError::JobsFailed`].
    error: Option<String>,
    clock: Clock,
}

impl<B> Head<B> {
    /// Validate the run — the config, the layout, the kill schedule
    /// against `clusters`, and one location per cluster — then build the
    /// job pool from the dataset index; `clusters[i]` is report slot `i`.
    /// Every report time is read from `clock`.
    pub fn new(
        layout: &DatasetLayout,
        placement: &Placement,
        cfg: &RuntimeConfig,
        clusters: Vec<ClusterSpec>,
        clock: Clock,
    ) -> Result<Self, RuntimeError> {
        cfg.validate().map_err(RuntimeError::Validation)?;
        layout
            .validate()
            .map_err(|e| RuntimeError::Validation(e.to_string()))?;
        for kill in &cfg.kill_schedule {
            let Some(c) = clusters.get(kill.cluster) else {
                return Err(RuntimeError::Validation(format!(
                    "kill_schedule names cluster {} but only {} cluster(s) exist",
                    kill.cluster,
                    clusters.len()
                )));
            };
            if kill.slave >= c.cores {
                return Err(RuntimeError::Validation(format!(
                    "kill_schedule names slave {} of cluster {} but it has {} core(s)",
                    kill.slave, kill.cluster, c.cores
                )));
            }
        }
        // Leases are tracked per location (`JobPool::holds_lease`,
        // `should_hold`), so two clusters at one location would hold each
        // other's requests.
        for (i, c) in clusters.iter().enumerate() {
            if let Some(first) = clusters[..i].iter().find(|o| o.location == c.location) {
                return Err(RuntimeError::Validation(format!(
                    "clusters {} and {} share location {}; each cluster needs its own",
                    first.name, c.name, c.location
                )));
            }
        }
        let locations: Vec<LocationId> = clusters.iter().map(|c| c.location).collect();
        Ok(Head {
            pool: JobPool::new(layout, placement, cfg.pool.clone())
                .with_sink(cfg.sink.clone(), &locations),
            slots: clusters.iter().map(|_| Slot::Open).collect(),
            clusters,
            error: None,
            clock,
        })
    }

    /// Time since the run started, on the run's clock.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// The job pool, for its counters.
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// Grant a job batch to the cluster at `loc`, with the exhaustion
    /// verdict observed atomically with it: once `true`, no job `loc`
    /// could run will ever become available again.
    pub fn request(&mut self, loc: LocationId) -> (Grant, bool) {
        let grant = self.pool.request(loc);
        let exhausted = grant.is_empty() && self.pool.exhausted_for(loc);
        (grant, exhausted)
    }

    /// Whether a request from `loc` answered `(grant, exhausted)` should be
    /// held until the pool changes rather than answered now: the grant is
    /// empty, `loc` is not exhausted, and `loc` holds no lease. A site that
    /// holds a lease is answered at once. Its master may have sent the
    /// request while holding the very job the run waits on, and a panicking
    /// slave's lease resolves only once its cluster is lost.
    pub fn should_hold(&self, loc: LocationId, (grant, exhausted): &(Grant, bool)) -> bool {
        grant.is_empty() && !exhausted && !self.pool.holds_lease(loc)
    }

    /// Resolve one lease; refused, changing nothing, unless `loc` holds it.
    pub fn resolve(&mut self, loc: LocationId, what: Resolution) -> Result<(), String> {
        match what {
            Resolution::Completed(c) => self.pool.complete(loc, c),
            Resolution::Failed(c) => self.pool.fail(loc, c),
            Resolution::Released(c) => self.pool.release(loc, c),
        }
    }

    /// Bank `cluster`'s result. `done` is the run time at which the
    /// substrate counts it finished; it yields the idle and
    /// global-reduction times.
    pub fn bank(
        &mut self,
        cluster: usize,
        robj: Option<B>,
        account: ClusterAccount,
        done: Duration,
    ) {
        if let Some(e) = &account.error {
            self.note_error(e.clone());
        }
        self.slots[cluster] = Slot::Banked {
            robj,
            account,
            done,
        };
    }

    /// Declare `cluster` lost before it reported: everything its location
    /// held or completed goes back to the pool ([`JobPool::forfeit`]).
    /// Returns the number of jobs forfeited.
    pub fn lose(&mut self, cluster: usize) -> usize {
        self.slots[cluster] = Slot::Lost;
        self.pool.forfeit(self.clusters[cluster].location)
    }

    /// True while `cluster` has neither reported nor been lost.
    pub fn is_open(&self, cluster: usize) -> bool {
        matches!(self.slots[cluster], Slot::Open)
    }

    /// True once `cluster` was declared lost.
    pub fn is_lost(&self, cluster: usize) -> bool {
        matches!(self.slots[cluster], Slot::Lost)
    }

    /// Record `error` unless an earlier one is already recorded.
    pub fn note_error(&mut self, error: String) {
        self.error.get_or_insert(error);
    }

    /// End the run: [`RuntimeError::JobsFailed`] unless every job completed.
    /// Otherwise `decode` turns each banked payload into a reduction object
    /// and they merge in cluster-index order; the run ends at the clock's
    /// time after the merge. A cluster that never reported
    /// gets an empty `"<name> (lost)"` row: its work was redone, and is
    /// accounted, elsewhere.
    pub fn finish<R: ReductionObject>(
        self,
        mut decode: impl FnMut(usize, B) -> Result<R, RuntimeError>,
    ) -> Result<RunOutcome<R>, RuntimeError> {
        let Head {
            pool,
            clusters,
            slots,
            error,
            clock,
        } = self;
        // The run fails only if some chunk could not be processed anywhere;
        // every fault the scheduler absorbed shows up in `recovery` instead.
        if !pool.all_done() {
            return Err(RuntimeError::JobsFailed {
                dead: pool.dead_jobs(),
                unfinished: pool.pending() + pool.outstanding(),
                last_error: error,
            });
        }
        let last_done = slots.iter().filter_map(|s| match s {
            Slot::Banked { done, .. } => Some(*done),
            _ => None,
        });
        let last_done = last_done.max().unwrap_or(Duration::ZERO);
        let mut recovery = RecoveryStats {
            jobs_reenqueued: pool.reenqueued(),
            ..Default::default()
        };
        let mut result: Option<R> = None;
        let mut rows = Vec::with_capacity(slots.len());
        for (ci, (slot, c)) in slots.into_iter().zip(clusters).enumerate() {
            let Slot::Banked {
                robj,
                account,
                done,
            } = slot
            else {
                rows.push(ClusterBreakdown::from_slaves(
                    format!("{} (lost)", c.name),
                    c.cores,
                    &[],
                    Duration::ZERO,
                    Duration::ZERO,
                ));
                continue;
            };
            if let Some(payload) = robj {
                let robj = decode(ci, payload)?;
                match result.as_mut() {
                    None => result = Some(robj),
                    Some(acc) => acc.merge(robj),
                }
            }
            recovery.add(&account.recovery);
            rows.push(ClusterBreakdown::from_slaves(
                c.name,
                c.cores,
                &account.slaves,
                account.wall,
                last_done.saturating_sub(done),
            ));
        }
        let result = result
            .ok_or_else(|| RuntimeError::Validation("no reduction objects produced".into()))?;
        let end = clock.now();
        let report = RunReport {
            total_s: secs(end),
            global_reduction_s: secs(end.saturating_sub(last_done)),
            robj_bytes: result.size_bytes() as u64,
            clusters: rows,
            recovery,
            cache_hits: 0,
            cache_misses: 0,
            net: Default::default(),
        };
        Ok(RunOutcome { result, report })
    }
}

/// The in-process head port: direct calls under one lock, so a request and
/// its exhaustion verdict cannot be split by a concurrent fail-back. A
/// request the head cannot answer yet ([`Head::should_hold`]) waits on a
/// condvar beside the lock. It is signalled only while a request is held,
/// and only by what can answer one: a lease handed back, the last
/// outstanding lease resolving, or [`Head::lose`].
pub(crate) struct SharedHead<B> {
    state: Mutex<Shared<B>>,
    changed: Condvar,
}

struct Shared<B> {
    head: Head<B>,
    /// Requests waiting on `changed`.
    held: usize,
}

impl<B> SharedHead<B> {
    pub(crate) fn new(head: Head<B>) -> Self {
        SharedHead {
            state: Mutex::new(Shared { head, held: 0 }),
            changed: Condvar::new(),
        }
    }

    /// Apply `f` to the head, then wake every held request: `f` may have
    /// returned work to the pool or exhausted it.
    pub(crate) fn update<T>(&self, f: impl FnOnce(&mut Head<B>) -> T) -> T {
        let mut state = self.lock();
        let out = f(&mut state.head);
        if state.held > 0 {
            self.changed.notify_all();
        }
        out
    }

    pub(crate) fn into_inner(self) -> Head<B> {
        let state = self.state.into_inner();
        state.unwrap_or_else(PoisonError::into_inner).head
    }

    fn lock(&self) -> MutexGuard<'_, Shared<B>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<B: Send> HeadPort for SharedHead<B> {
    fn request_jobs(&self, loc: LocationId) -> io::Result<(Grant, bool)> {
        let mut state = self.lock();
        loop {
            let answer = state.head.request(loc);
            if !state.head.should_hold(loc, &answer) {
                return Ok(answer);
            }
            state.held += 1;
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.held -= 1;
        }
    }

    fn resolve(&self, loc: LocationId, what: Resolution) -> io::Result<()> {
        let mut state = self.lock();
        let resolved = state.head.resolve(loc, what);
        resolved.expect("an in-process master resolves only leases it holds");
        // A completion can answer a held request only by exhausting the pool.
        let returned = !matches!(what, Resolution::Completed(_));
        if state.held > 0 && (returned || state.head.pool().outstanding() == 0) {
            self.changed.notify_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SlaveStats;
    use cb_storage::organizer::organize_even;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const LOCAL: LocationId = LocationId(0);
    const CLOUD: LocationId = LocationId(1);

    /// Remembers the order merges happened in.
    #[derive(Debug)]
    struct Order(Vec<usize>);

    impl ReductionObject for Order {
        fn merge(&mut self, other: Self) {
            self.0.extend(other.0);
        }
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    /// Two clusters over 2 files × 4 jobs on `clock`; with `drain`, CLOUD
    /// has already run every job.
    fn head_on(clock: Clock, drain: bool) -> Head<usize> {
        let layout = organize_even(2, 4 * 64, 64, 8).unwrap();
        let placement = Placement::split_fraction(2, 0.5, LOCAL, CLOUD);
        let clusters = vec![
            ClusterSpec::new("local", LOCAL, 2),
            ClusterSpec::new("cloud", CLOUD, 2),
        ];
        let cfg = RuntimeConfig::default();
        let mut head = Head::new(&layout, &placement, &cfg, clusters, clock).unwrap();
        while let (grant, false) = head.request(CLOUD) {
            if !drain {
                break;
            }
            for c in grant.jobs {
                head.resolve(CLOUD, Resolution::Completed(c)).unwrap();
            }
        }
        head
    }

    fn head(drain: bool) -> Head<usize> {
        head_on(Clock::Wall(std::time::Instant::now()), drain)
    }

    fn account(jobs: u64, error: Option<&str>) -> ClusterAccount {
        ClusterAccount {
            slaves: vec![SlaveStats {
                jobs,
                ..Default::default()
            }],
            wall: Duration::from_millis(5),
            error: error.map(String::from),
            ..Default::default()
        }
    }

    fn decode(ci: usize, payload: usize) -> Result<Order, RuntimeError> {
        assert_eq!(ci, payload, "payload banked in slot {ci}");
        Ok(Order(vec![payload]))
    }

    #[test]
    fn finish_merges_in_cluster_order_whatever_the_bank_order() {
        let mut h = head(true);
        h.bank(1, Some(1), account(8, None), Duration::ZERO);
        h.bank(0, Some(0), account(0, None), Duration::ZERO);
        let out = h.finish(decode).unwrap();
        assert_eq!(out.result.0, [0, 1]);
        assert_eq!(out.report.clusters[0].name, "local");
        assert_eq!(out.report.total_jobs(), 8);
    }

    #[test]
    fn a_lost_slot_reports_an_empty_row() {
        let mut h = head(true);
        assert!(h.is_open(0));
        assert_eq!(h.lose(0), 0, "LOCAL held nothing");
        assert!(h.is_lost(0) && !h.is_open(0));
        h.bank(1, Some(1), account(8, None), Duration::ZERO);
        let out = h.finish(decode).unwrap();
        let lost = &out.report.clusters[0];
        assert_eq!((lost.name.as_str(), lost.cores), ("local (lost)", 2));
        assert_eq!(
            (lost.wall_s, lost.processing_s, lost.sync_s),
            (0.0, 0.0, 0.0)
        );
        assert_eq!(lost.jobs_processed, 0);
    }

    #[test]
    fn an_unfinished_pool_fails_with_the_first_banked_error() {
        let mut h = head(false);
        h.bank(1, Some(1), account(0, Some("first")), Duration::ZERO);
        h.bank(0, Some(0), account(0, Some("second")), Duration::ZERO);
        match h.finish(decode) {
            Err(RuntimeError::JobsFailed {
                dead,
                unfinished,
                last_error,
            }) => {
                assert!(dead.is_empty());
                assert_eq!(unfinished, 8);
                assert_eq!(last_error.as_deref(), Some("first"));
            }
            other => panic!("expected JobsFailed, got {other:?}"),
        }
    }

    #[test]
    fn report_times_come_from_the_run_clock() {
        let ns = Arc::new(AtomicU64::new(0));
        let mut h = head_on(Clock::Virtual(Arc::clone(&ns)), true);
        h.bank(0, Some(0), account(0, None), Duration::from_secs(2));
        h.bank(1, Some(1), account(8, None), Duration::from_secs(5));
        ns.store(7_000_000_000, Ordering::Relaxed);
        let r = h.finish(decode).unwrap().report;
        assert_eq!((r.total_s, r.global_reduction_s), (7.0, 2.0));
        let idle: Vec<f64> = r.clusters.iter().map(|c| c.idle_end_s).collect();
        assert_eq!(idle, [3.0, 0.0]);
        // A row's wall is its account's (5 ms), not the time it was banked.
        let wall: Vec<f64> = r.clusters.iter().map(|c| c.wall_s).collect();
        assert_eq!(wall, [0.005, 0.005]);
    }
}
