//! The head node's job pool and assignment policy (paper §III-B).
//!
//! One job == one chunk. The head grants *batches* of jobs to requesting
//! clusters with three policies from the paper:
//!
//! 1. **Locality first** — while a cluster still has jobs homed at its own
//!    site, it is granted only those.
//! 2. **Consecutive jobs** — local grants are runs of consecutive chunk ids
//!    within one file, so slaves read files sequentially ("an important
//!    optimization in our system ... increases the input utilization").
//! 3. **Contention-minimizing stealing** — once a cluster's local jobs are
//!    exhausted, it is granted *remote* jobs, "chosen from files which the
//!    minimum number of nodes are currently processing".
//!
//! The pool is a pure state machine — no threads, no clocks — so the real
//! runtime and the discrete-event simulator drive the *identical* policy
//! code, which is what makes the simulator's schedules trustworthy.

use crate::obs::{EventKind, SinkHandle};
use cb_storage::layout::{ChunkId, DatasetLayout, FileId, LocationId, Placement};
use std::collections::{BTreeMap, VecDeque};

/// Head-side assignment policy knobs (ablations flip these).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Max jobs per local grant.
    pub local_batch: usize,
    /// Max jobs per stolen (remote) grant. The paper retrieves remote jobs
    /// chunk-by-chunk, so keeping this smaller than `local_batch` mirrors
    /// the finer-grained stealing.
    pub remote_batch: usize,
    /// Whether clusters may process data homed elsewhere at all.
    pub allow_stealing: bool,
    /// `true`: local grants are consecutive runs within one file (paper).
    /// `false` (ablation): grants round-robin across the site's files,
    /// destroying sequential access.
    pub consecutive: bool,
    /// How many times a single job may fail (be returned via
    /// [`JobPool::fail`] or [`JobPool::reclaim`]) before the pool declares
    /// it dead instead of re-enqueueing it. Dead jobs make
    /// [`JobPool::all_done`] unreachable, which the runtime surfaces as a
    /// permanent error.
    pub max_job_failures: u32,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            local_batch: 8,
            remote_batch: 4,
            allow_stealing: true,
            consecutive: true,
            max_job_failures: 8,
        }
    }
}

/// One grant from the head to a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// Jobs granted, in processing order. Empty means "nothing available".
    pub jobs: Vec<ChunkId>,
    /// True if these jobs' data is homed at a different site than the
    /// grantee (the grantee will perform remote retrieval).
    pub stolen: bool,
}

impl Grant {
    pub fn empty() -> Self {
        Grant {
            jobs: Vec::new(),
            stolen: false,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Pending,
    Assigned(LocationId),
    /// Completed, remembering *who* completed it: a distributed head must
    /// be able to re-enqueue a peer's completions if that peer dies before
    /// shipping the reduction object they were folded into (see
    /// [`JobPool::forfeit`]).
    Done(LocationId),
    /// Failed more than `max_job_failures` times; will never be granted
    /// again. A pool with dead jobs can never report [`JobPool::all_done`].
    Dead,
}

/// The head node's job pool.
///
/// ```
/// use cloudburst_core::sched::pool::{JobPool, PoolConfig};
/// use cb_storage::organizer::organize_even;
/// use cb_storage::layout::{LocationId, Placement};
///
/// let layout = organize_even(2, 4 * 64, 64, 8).unwrap(); // 2 files × 4 jobs
/// let placement = Placement::split_fraction(2, 0.5, LocationId(0), LocationId(1));
/// let mut pool = JobPool::new(&layout, &placement, PoolConfig::default());
///
/// // Site 0 gets its own file's jobs first, consecutively.
/// let grant = pool.request(LocationId(0));
/// assert!(!grant.stolen);
/// let ids: Vec<u32> = grant.jobs.iter().map(|c| c.0).collect();
/// assert_eq!(ids, vec![0, 1, 2, 3]);
///
/// // Once its local jobs are gone, further grants steal remote data.
/// let stolen = pool.request(LocationId(0));
/// assert!(stolen.stolen);
/// ```
#[derive(Debug, Clone)]
pub struct JobPool {
    cfg: PoolConfig,
    placement: Placement,
    /// Pending jobs per file, front = lowest (next consecutive) chunk id.
    pending: Vec<VecDeque<ChunkId>>,
    /// Outstanding (assigned, not yet completed) job count per file — the
    /// "number of nodes currently processing" contention proxy.
    readers: Vec<usize>,
    /// Per-job lifecycle.
    state: Vec<JobState>,
    /// Owning file of each chunk.
    chunk_file: Vec<FileId>,
    /// Jobs not yet granted.
    n_pending: usize,
    /// Jobs granted but not completed.
    n_outstanding: usize,
    /// Jobs declared dead after exceeding `max_job_failures`.
    n_dead: usize,
    /// Failure count per job (survives re-enqueueing).
    failures: Vec<u32>,
    /// Total re-enqueue events ([`fail`](JobPool::fail) and
    /// [`reclaim`](JobPool::reclaim)), feeding the run's recovery stats.
    n_reenqueued: u64,
    /// Round-robin cursor per location for the non-consecutive ablation.
    rr_cursor: BTreeMap<LocationId, usize>,
    /// Observability sink (disabled by default; see [`JobPool::with_sink`]).
    sink: SinkHandle,
    /// Maps a grantee's location to its cluster index for event tagging.
    cluster_of: BTreeMap<LocationId, u32>,
}

impl JobPool {
    /// Build the pool from the dataset index and placement. Mirrors "when
    /// the head node starts, it reads the index file in order to generate
    /// the job pool; each job corresponds to a chunk".
    pub fn new(layout: &DatasetLayout, placement: &Placement, cfg: PoolConfig) -> Self {
        assert_eq!(
            placement.n_files(),
            layout.files.len(),
            "placement/layout file count mismatch"
        );
        let mut pending: Vec<VecDeque<ChunkId>> = vec![VecDeque::new(); layout.files.len()];
        let mut chunk_file = Vec::with_capacity(layout.chunks.len());
        for c in &layout.chunks {
            pending[c.file.0 as usize].push_back(c.id);
            chunk_file.push(c.file);
        }
        let n = layout.chunks.len();
        JobPool {
            cfg,
            placement: placement.clone(),
            pending,
            readers: vec![0; layout.files.len()],
            state: vec![JobState::Pending; n],
            chunk_file,
            n_pending: n,
            n_outstanding: 0,
            n_dead: 0,
            failures: vec![0; n],
            n_reenqueued: 0,
            rr_cursor: BTreeMap::new(),
            sink: SinkHandle::disabled(),
            cluster_of: BTreeMap::new(),
        }
    }

    /// Emit scheduling events ([`EventKind::JobAssigned`],
    /// [`EventKind::Steal`], [`EventKind::LeaseReleased`]) to `sink`.
    /// `locations[i]` is cluster `i`'s site, so the events carry cluster ids
    /// (the pool itself only sees locations); the earliest cluster wins if
    /// two share a site.
    pub fn with_sink(mut self, sink: SinkHandle, locations: &[LocationId]) -> Self {
        self.sink = sink;
        for (i, &loc) in locations.iter().enumerate() {
            self.cluster_of.entry(loc).or_insert(i as u32);
        }
        self
    }

    fn cluster_id(&self, loc: LocationId) -> Option<u32> {
        self.cluster_of.get(&loc).copied()
    }

    /// Jobs not yet granted.
    pub fn pending(&self) -> usize {
        self.n_pending
    }

    /// Jobs granted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.n_outstanding
    }

    /// True when every job has been completed. Dead jobs count against
    /// this: a pool that lost a job permanently is never "done".
    pub fn all_done(&self) -> bool {
        self.n_pending == 0 && self.n_outstanding == 0 && self.n_dead == 0
    }

    /// Jobs that exceeded `max_job_failures` and were abandoned.
    pub fn dead_jobs(&self) -> Vec<ChunkId> {
        self.jobs_in(JobState::Dead)
    }

    fn jobs_in(&self, state: JobState) -> Vec<ChunkId> {
        let jobs = self.state.iter().enumerate().filter(|(_, s)| **s == state);
        jobs.map(|(i, _)| ChunkId(i as u32)).collect()
    }

    /// Total re-enqueue events (failed and reclaimed leases) so far.
    pub fn reenqueued(&self) -> u64 {
        self.n_reenqueued
    }

    /// True when `loc` can never receive another grant: every job it could
    /// be offered is completed or dead. While jobs it could run are merely
    /// *outstanding* at some cluster, this stays `false` — a failure could
    /// return them to the pool, so masters must keep asking rather than
    /// shut down.
    pub fn exhausted_for(&self, loc: LocationId) -> bool {
        if self.cfg.allow_stealing {
            self.n_pending == 0 && self.n_outstanding == 0
        } else {
            // Without stealing only jobs homed at `loc` matter.
            self.placement
                .files_at(loc)
                .all(|f| self.pending[f.0 as usize].is_empty() && self.readers[f.0 as usize] == 0)
        }
    }

    /// True while `loc` holds at least one lease.
    pub fn holds_lease(&self, loc: LocationId) -> bool {
        self.n_outstanding > 0 && self.state.contains(&JobState::Assigned(loc))
    }

    /// Handle a job request from the master at `loc`.
    ///
    /// Returns an empty grant when nothing can be given to this cluster
    /// *right now*: either the pool is drained, or stealing is disabled and
    /// the site's own jobs are gone. (An empty grant while
    /// `pending() > 0 && allow_stealing` cannot happen.)
    pub fn request(&mut self, loc: LocationId) -> Grant {
        // 1. Local jobs first.
        if let Some(file) = self.pick_local_file(loc) {
            let jobs = self.take_from(file, self.cfg.local_batch, loc);
            if self.sink.is_enabled() {
                let cluster = self.cluster_id(loc);
                for j in &jobs {
                    self.sink.emit(
                        cluster,
                        None,
                        EventKind::JobAssigned {
                            chunk: j.0 as u64,
                            stolen: false,
                        },
                    );
                }
            }
            return Grant {
                jobs,
                stolen: false,
            };
        }
        // 2. Steal remote jobs from the least-contended file.
        if self.cfg.allow_stealing {
            if let Some(file) = self.pick_remote_file() {
                let jobs = self.take_from(file, self.cfg.remote_batch, loc);
                if self.sink.is_enabled() {
                    let cluster = self.cluster_id(loc);
                    for j in &jobs {
                        self.sink.emit(
                            cluster,
                            None,
                            EventKind::JobAssigned {
                                chunk: j.0 as u64,
                                stolen: true,
                            },
                        );
                        self.sink
                            .emit(cluster, None, EventKind::Steal { chunk: j.0 as u64 });
                    }
                }
                return Grant { jobs, stolen: true };
            }
        }
        Grant::empty()
    }

    /// Mark `job` completed by `loc`. Refused, with nothing changed,
    /// unless `loc` holds the job.
    pub fn complete(&mut self, loc: LocationId, job: ChunkId) -> Result<(), String> {
        let idx = self.end_lease(loc, job, "completed")?;
        self.state[idx] = JobState::Done(loc);
        Ok(())
    }

    /// Return `job` — assigned to `loc` but not finished — to the pool.
    ///
    /// The job goes back to the *front* of its file's queue so the next
    /// grant of that file re-starts at the lowest chunk id, preserving the
    /// sequential-read property the consecutive-grant policy relies on.
    /// After `max_job_failures` such returns the job is declared dead
    /// instead (see [`JobPool::dead_jobs`]).
    pub fn fail(&mut self, loc: LocationId, job: ChunkId) -> Result<(), String> {
        self.return_lease(loc, job, true, "failed")
    }

    /// Return `job` — leased by `loc` but never *attempted* — to the pool
    /// without charging its failure budget.
    ///
    /// Used for in-flight prefetched leases reclaimed from a retiring
    /// slave: nothing is wrong with the chunk, so an innocent job must not
    /// inch toward [`JobPool::dead_jobs`] just because its holders kept
    /// dying. Still counts as a re-enqueue event.
    pub fn release(&mut self, loc: LocationId, job: ChunkId) -> Result<(), String> {
        self.return_lease(loc, job, false, "released")
    }

    /// End `loc`'s lease on `job`, returning the job's index. A resolution
    /// by anyone but the holder is refused rather than trusted: a networked
    /// head is driven by frames from other processes, and a peer declared
    /// lost (its leases forfeited, possibly re-granted elsewhere) may still
    /// deliver late or bogus resolutions.
    fn end_lease(&mut self, loc: LocationId, job: ChunkId, verb: &str) -> Result<usize, String> {
        let idx = job.0 as usize;
        match self.state.get(idx) {
            Some(JobState::Assigned(holder)) if *holder == loc => {}
            Some(JobState::Assigned(holder)) => {
                return Err(format!(
                    "{job} {verb} by {loc} but was assigned to {holder}"
                ))
            }
            Some(s) => return Err(format!("{job} {verb} while in state {s:?}")),
            None => return Err(format!("{job} {verb} but is not in the pool")),
        }
        self.readers[self.chunk_file[idx].0 as usize] -= 1;
        self.n_outstanding -= 1;
        Ok(idx)
    }

    fn return_lease(
        &mut self,
        loc: LocationId,
        job: ChunkId,
        charge_budget: bool,
        verb: &str,
    ) -> Result<(), String> {
        let idx = self.end_lease(loc, job, verb)?;
        if charge_budget {
            self.failures[idx] += 1;
            if self.failures[idx] > self.cfg.max_job_failures {
                self.state[idx] = JobState::Dead;
                self.n_dead += 1;
                return Ok(());
            }
        }
        self.requeue(loc, job, charge_budget);
        Ok(())
    }

    /// Put `job` back into its file's pending queue, at its sorted place:
    /// requeued jobs are the lowest ids of their file still pending (they
    /// were granted from the front), so the scan stays consecutive.
    fn requeue(&mut self, loc: LocationId, job: ChunkId, charged: bool) {
        let idx = job.0 as usize;
        self.state[idx] = JobState::Pending;
        let q = &mut self.pending[self.chunk_file[idx].0 as usize];
        let pos = q.partition_point(|c| c.0 < job.0);
        q.insert(pos, job);
        self.n_pending += 1;
        self.n_reenqueued += 1;
        // Emitted exactly where `n_reenqueued` increments (a job that dies
        // instead of re-enqueueing emits nothing), so the event count equals
        // `RecoveryStats::jobs_reenqueued`.
        self.sink.emit(
            self.cluster_id(loc),
            None,
            EventKind::LeaseReleased {
                chunk: job.0 as u64,
                charged,
            },
        );
    }

    /// Return every lease `loc` currently holds — the cluster (or its
    /// master) is gone. Returns the jobs that went back to the pool; jobs
    /// that exceeded their failure budget die instead and are not listed.
    pub fn reclaim(&mut self, loc: LocationId) -> Vec<ChunkId> {
        let held = self.jobs_in(JobState::Assigned(loc));
        let mut returned = Vec::with_capacity(held.len());
        for job in held {
            self.fail(loc, job)
                .expect("`loc` holds every job in `held`");
            if self.state[job.0 as usize] == JobState::Pending {
                returned.push(job);
            }
        }
        returned
    }

    /// Forget everything `loc` contributed that the head has not banked:
    /// its outstanding leases are failed back (as [`JobPool::reclaim`]),
    /// and the jobs it *completed* are re-enqueued uncharged — the results
    /// of those completions lived only in the peer's reduction object,
    /// which died with it. Only call this for a peer that never shipped
    /// its robj; once shipped, its completions are safe. Returns the
    /// number of jobs returned to the pending queues.
    pub fn forfeit(&mut self, loc: LocationId) -> usize {
        let reclaimed = self.reclaim(loc).len();
        let done = self.jobs_in(JobState::Done(loc));
        for &job in &done {
            self.requeue(loc, job, false);
        }
        reclaimed + done.len()
    }

    /// Choose a file homed at `loc` that still has pending jobs.
    fn pick_local_file(&mut self, loc: LocationId) -> Option<FileId> {
        let candidates: Vec<FileId> = self
            .placement
            .files_at(loc)
            .filter(|f| !self.pending[f.0 as usize].is_empty())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        if self.cfg.consecutive {
            // Prefer a file already being read at this site (continue the
            // sequential scan), else the lowest id.
            candidates
                .iter()
                .copied()
                .find(|f| self.readers[f.0 as usize] > 0)
                .or_else(|| candidates.first().copied())
        } else {
            // Ablation: rotate across the site's files.
            let cur = self.rr_cursor.entry(loc).or_insert(0);
            let pick = candidates[*cur % candidates.len()];
            *cur = cur.wrapping_add(1);
            Some(pick)
        }
    }

    /// The paper's stealing heuristic: among files with pending jobs, pick
    /// the one with the fewest current readers (ties: lowest file id).
    fn pick_remote_file(&self) -> Option<FileId> {
        (0..self.pending.len())
            .filter(|&f| !self.pending[f].is_empty())
            .min_by_key(|&f| (self.readers[f], f))
            .map(|f| FileId(f as u32))
    }

    /// Pop up to `max` consecutive jobs from the front of `file`'s queue.
    fn take_from(&mut self, file: FileId, max: usize, loc: LocationId) -> Vec<ChunkId> {
        let q = &mut self.pending[file.0 as usize];
        let n = max.min(q.len()).max(1).min(q.len());
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            let id = q.pop_front().expect("picked file had pending jobs");
            self.state[id.0 as usize] = JobState::Assigned(loc);
            jobs.push(id);
        }
        self.readers[file.0 as usize] += jobs.len();
        self.n_pending -= jobs.len();
        self.n_outstanding += jobs.len();
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::organizer::organize_even;

    const LOCAL: LocationId = LocationId(0);
    const CLOUD: LocationId = LocationId(1);

    /// 4 files × 4 chunks, first half local, second half cloud.
    fn pool(cfg: PoolConfig) -> JobPool {
        let layout = organize_even(4, 4 * 64, 64, 8).unwrap();
        let placement = Placement::split_fraction(4, 0.5, LOCAL, CLOUD);
        JobPool::new(&layout, &placement, cfg)
    }

    #[test]
    fn grants_are_consecutive_within_a_file() {
        let mut p = pool(PoolConfig {
            local_batch: 3,
            ..Default::default()
        });
        let g = p.request(LOCAL);
        assert!(!g.stolen);
        let ids: Vec<u32> = g.jobs.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Next local grant continues the same file (reader affinity).
        let g2 = p.request(LOCAL);
        assert_eq!(g2.jobs.iter().map(|c| c.0).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn local_jobs_before_stealing() {
        let mut p = pool(PoolConfig {
            local_batch: 16,
            remote_batch: 4,
            ..Default::default()
        });
        // Local cluster drains both its files before stealing from cloud's.
        let g1 = p.request(LOCAL);
        assert!(!g1.stolen);
        let g2 = p.request(LOCAL);
        assert!(!g2.stolen);
        assert_eq!(g1.jobs.len() + g2.jobs.len(), 8);
        let g3 = p.request(LOCAL);
        assert!(g3.stolen, "after local exhaustion, grants are stolen");
    }

    #[test]
    fn stealing_picks_least_contended_file() {
        let mut p = pool(PoolConfig {
            local_batch: 16,
            remote_batch: 2,
            ..Default::default()
        });
        // Cloud starts reading its own file 2.
        let g = p.request(CLOUD);
        assert_eq!(g.jobs[0].0, 8); // file 2 chunks are ids 8..12
                                    // Local drains its files quickly.
        let _ = p.request(LOCAL);
        let _ = p.request(LOCAL);
        // Now local steals: file 2 has 2 readers... (outstanding 2 jobs),
        // file 3 has none -> steal from file 3.
        let s = p.request(LOCAL);
        assert!(s.stolen);
        assert!(
            s.jobs.iter().all(|c| (12..16).contains(&c.0)),
            "stole from the un-read file: {:?}",
            s.jobs
        );
    }

    #[test]
    fn stealing_disabled_returns_empty() {
        let mut p = pool(PoolConfig {
            local_batch: 16,
            allow_stealing: false,
            ..Default::default()
        });
        let _ = p.request(LOCAL);
        let _ = p.request(LOCAL);
        let g = p.request(LOCAL);
        assert!(g.is_empty());
        assert_eq!(p.pending(), 8, "cloud's jobs remain");
    }

    #[test]
    fn counters_track_local_and_stolen() {
        let mut p = pool(PoolConfig {
            local_batch: 8,
            remote_batch: 8,
            ..Default::default()
        });
        // Grants are per-file, so draining all 16 jobs takes four requests:
        // two local (files 0 and 1), then two stolen (files 2 and 3).
        let (mut granted, mut stolen) = (Vec::new(), 0);
        for expect_stolen in [false, false, true, true] {
            let g = p.request(LOCAL);
            assert_eq!(g.stolen, expect_stolen);
            assert_eq!(g.jobs.len(), 4);
            stolen += if g.stolen { g.jobs.len() } else { 0 };
            granted.extend(g.jobs);
        }
        assert_eq!(granted.len() - stolen, 8);
        assert_eq!(stolen, 8);
        for j in &granted {
            p.complete(LOCAL, *j).unwrap();
        }
        assert_eq!(p.outstanding(), 0);
        assert!(p.all_done());
    }

    #[test]
    fn every_job_granted_exactly_once() {
        let mut p = pool(PoolConfig::default());
        let mut seen = std::collections::BTreeSet::new();
        loop {
            let g = if seen.len() % 2 == 0 {
                p.request(LOCAL)
            } else {
                p.request(CLOUD)
            };
            if g.is_empty() {
                break;
            }
            for j in g.jobs {
                assert!(seen.insert(j), "job {j} granted twice");
            }
        }
        assert_eq!(seen.len(), 16);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn completion_by_wrong_cluster_is_refused() {
        let mut p = pool(PoolConfig::default());
        let g = p.request(LOCAL);
        let err = p.complete(CLOUD, g.jobs[0]).unwrap_err();
        assert!(err.contains("completed by"), "{err}");
        assert_eq!(p.outstanding(), g.jobs.len(), "nothing changed");
    }

    #[test]
    fn double_completion_is_refused() {
        let mut p = pool(PoolConfig::default());
        let g = p.request(LOCAL);
        p.complete(LOCAL, g.jobs[0]).unwrap();
        let err = p.complete(LOCAL, g.jobs[0]).unwrap_err();
        assert!(err.contains("state"), "{err}");
        assert_eq!(p.outstanding(), g.jobs.len() - 1, "completed once");
    }

    #[test]
    fn fail_reenqueues_at_front_preserving_order() {
        let mut p = pool(PoolConfig {
            local_batch: 3,
            ..Default::default()
        });
        let g = p.request(LOCAL);
        assert_eq!(g.jobs.iter().map(|c| c.0).collect::<Vec<_>>(), [0, 1, 2]);
        // Chunk 1 fails; the next grant of this file must restart at 1
        // before continuing to 3, keeping the scan sequential.
        p.complete(LOCAL, ChunkId(0)).unwrap();
        p.fail(LOCAL, ChunkId(1)).unwrap();
        p.complete(LOCAL, ChunkId(2)).unwrap();
        let g2 = p.request(LOCAL);
        assert_eq!(g2.jobs.iter().map(|c| c.0).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(p.reenqueued(), 1);
    }

    #[test]
    fn failed_job_can_be_completed_by_another_cluster() {
        let mut p = pool(PoolConfig {
            local_batch: 16,
            remote_batch: 16,
            ..Default::default()
        });
        let g = p.request(LOCAL);
        for j in &g.jobs {
            p.fail(LOCAL, *j).unwrap();
        }
        // The cloud cluster steals the returned jobs and finishes them.
        loop {
            let g = p.request(CLOUD);
            if g.is_empty() {
                break;
            }
            for j in g.jobs {
                p.complete(CLOUD, j).unwrap();
            }
        }
        assert!(p.all_done());
    }

    #[test]
    fn reclaim_returns_every_lease_of_a_location() {
        let mut p = pool(PoolConfig {
            local_batch: 4,
            ..Default::default()
        });
        let g1 = p.request(LOCAL);
        let g2 = p.request(CLOUD);
        p.complete(LOCAL, g1.jobs[0]).unwrap();
        let returned = p.reclaim(LOCAL);
        assert_eq!(returned.len(), g1.jobs.len() - 1);
        assert_eq!(p.outstanding(), g2.jobs.len(), "cloud leases untouched");
        // Reclaimed jobs are grantable again.
        assert_eq!(p.pending(), 16 - 1 - g2.jobs.len());
        assert!(p.reclaim(LOCAL).is_empty(), "idempotent once drained");
    }

    #[test]
    fn release_reenqueues_without_charging_failure_budget() {
        let mut p = pool(PoolConfig {
            local_batch: 1,
            max_job_failures: 2,
            ..Default::default()
        });
        // Far more releases than the budget allows failures: the job stays
        // alive — a lease returned unattempted says nothing about the chunk.
        for _ in 0..10 {
            let g = p.request(LOCAL);
            assert_eq!(g.jobs[0], ChunkId(0));
            p.release(LOCAL, g.jobs[0]).unwrap();
        }
        assert!(p.dead_jobs().is_empty(), "released jobs never die");
        assert_eq!(p.reenqueued(), 10);
        let g = p.request(LOCAL);
        assert_eq!(g.jobs[0], ChunkId(0), "released job grantable again");
        p.complete(LOCAL, g.jobs[0]).unwrap();
    }

    #[test]
    fn job_dies_after_exceeding_failure_budget() {
        let mut p = pool(PoolConfig {
            local_batch: 1,
            max_job_failures: 2,
            ..Default::default()
        });
        for _ in 0..3 {
            let g = p.request(LOCAL);
            assert_eq!(g.jobs[0], ChunkId(0));
            p.fail(LOCAL, g.jobs[0]).unwrap();
        }
        assert_eq!(p.dead_jobs(), vec![ChunkId(0)]);
        // The dead job is never granted again and blocks completion.
        let g = p.request(LOCAL);
        assert_ne!(g.jobs[0], ChunkId(0));
        let mut remaining: Vec<ChunkId> = g.jobs.clone();
        loop {
            let g = p.request(LOCAL);
            if g.is_empty() {
                break;
            }
            remaining.extend(g.jobs);
        }
        for j in remaining {
            p.complete(LOCAL, j).unwrap();
        }
        assert!(!p.all_done(), "a dead job keeps the pool incomplete");
        assert!(p.exhausted_for(LOCAL), "but no further grants will come");
    }

    #[test]
    fn exhausted_for_waits_on_outstanding_jobs() {
        let mut p = pool(PoolConfig {
            local_batch: 16,
            remote_batch: 16,
            ..Default::default()
        });
        let mut local_jobs = Vec::new();
        loop {
            let g = p.request(LOCAL);
            if g.is_empty() {
                break;
            }
            local_jobs.extend(g.jobs);
        }
        assert_eq!(p.pending(), 0);
        assert!(
            !p.exhausted_for(CLOUD),
            "outstanding jobs could fail back — cloud must keep polling"
        );
        let lost: Vec<ChunkId> = local_jobs.drain(8..).collect();
        for j in local_jobs {
            p.complete(LOCAL, j).unwrap();
        }
        for j in lost {
            p.fail(LOCAL, j).unwrap();
        }
        assert!(!p.exhausted_for(CLOUD), "failed jobs are pending again");
        loop {
            let g = p.request(CLOUD);
            if g.is_empty() {
                break;
            }
            for j in g.jobs {
                p.complete(CLOUD, j).unwrap();
            }
        }
        assert!(p.exhausted_for(CLOUD));
        assert!(p.all_done());
    }

    #[test]
    fn forfeit_reenqueues_leases_and_completions() {
        let mut p = pool(PoolConfig {
            local_batch: 4,
            ..Default::default()
        });
        let g = p.request(LOCAL);
        p.complete(LOCAL, g.jobs[0]).unwrap();
        p.complete(LOCAL, g.jobs[1]).unwrap();
        // LOCAL dies before shipping: its 2 leases AND its 2 completions
        // all go back to pending.
        let returned = p.forfeit(LOCAL);
        assert_eq!(returned, 4);
        assert_eq!(p.pending(), 16);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.reenqueued(), 4);
        assert!(!p.all_done());
    }

    #[test]
    fn forfeited_jobs_completable_elsewhere() {
        let mut p = pool(PoolConfig {
            local_batch: 16,
            remote_batch: 16,
            ..Default::default()
        });
        loop {
            let g = p.request(LOCAL);
            if g.is_empty() {
                break;
            }
            for j in g.jobs {
                p.complete(LOCAL, j).unwrap();
            }
        }
        assert!(p.all_done());
        let returned = p.forfeit(LOCAL);
        assert_eq!(returned, 16);
        // The surviving cluster re-runs everything; the pool converges.
        let mut completed = 0;
        loop {
            let g = p.request(CLOUD);
            if g.is_empty() {
                break;
            }
            for j in g.jobs {
                p.complete(CLOUD, j).unwrap();
                completed += 1;
            }
        }
        assert!(p.all_done());
        assert_eq!(completed, 16);
    }

    #[test]
    fn forfeit_of_uninvolved_location_is_noop() {
        let mut p = pool(PoolConfig::default());
        let g = p.request(LOCAL);
        assert_eq!(p.forfeit(CLOUD), 0);
        assert_eq!(p.outstanding(), g.jobs.len(), "LOCAL leases untouched");
        assert_eq!(p.reenqueued(), 0);
    }

    #[test]
    fn try_resolutions_reject_non_holders_without_panicking() {
        let mut p = pool(PoolConfig::default());
        let g = p.request(LOCAL);
        let job = g.jobs[0];
        // Wrong holder, out-of-range id, un-granted job: all refused, no
        // state change — the inputs a networked head gets from a lost or
        // hostile peer.
        assert!(p.complete(CLOUD, job).is_err());
        assert!(p.fail(CLOUD, job).is_err());
        assert!(p.release(CLOUD, job).is_err());
        assert!(p.complete(LOCAL, ChunkId(u32::MAX)).is_err());
        let err = p.complete(LOCAL, ChunkId(15)).unwrap_err();
        assert!(err.contains("Pending"), "pending, not assigned: {err}");
        assert_eq!(p.reenqueued(), 0);
        assert_eq!(p.pending(), 16 - g.jobs.len());
        assert_eq!(p.outstanding(), g.jobs.len());
        // The real holder still resolves normally — exactly once.
        assert!(p.complete(LOCAL, job).is_ok());
        assert!(p.complete(LOCAL, job).is_err(), "double resolve rejected");
        assert_eq!(p.outstanding(), g.jobs.len() - 1);
    }

    #[test]
    fn fail_by_wrong_cluster_is_refused() {
        let mut p = pool(PoolConfig::default());
        let g = p.request(LOCAL);
        let err = p.fail(CLOUD, g.jobs[0]).unwrap_err();
        assert!(err.contains("failed by"), "{err}");
        assert_eq!(p.reenqueued(), 0, "nothing changed");
    }

    #[test]
    fn non_consecutive_ablation_rotates_files() {
        let mut p = pool(PoolConfig {
            local_batch: 1,
            consecutive: false,
            ..Default::default()
        });
        let f1 = p.request(LOCAL).jobs[0].0 / 4;
        let f2 = p.request(LOCAL).jobs[0].0 / 4;
        assert_ne!(f1, f2, "round-robin should alternate files");
    }

    #[test]
    fn empty_when_drained() {
        let mut p = pool(PoolConfig {
            local_batch: 100,
            remote_batch: 100,
            ..Default::default()
        });
        let mut all = vec![];
        loop {
            let g = p.request(LOCAL);
            if g.is_empty() {
                break;
            }
            all.extend(g.jobs);
        }
        assert_eq!(all.len(), 16);
        assert!(p.request(CLOUD).is_empty());
        assert!(!p.all_done(), "outstanding jobs not yet completed");
        for j in all {
            p.complete(LOCAL, j).unwrap();
        }
        assert!(p.all_done());
    }
}
