//! The discrete-event model of the cloud-bursting runtime.
//!
//! Drives the same head and master as the real runtime ([`Head`],
//! [`MasterPool`]) in virtual time, with transfers as flows on fair-shared
//! links and compute as parameterized per-unit costs. The head reads the
//! same virtual [`Clock`] as the event sink, and builds the report. One run of
//! the paper's largest configuration (120 GB, 960 jobs, 64 cores) is a few
//! thousand events — milliseconds of wall time — which is what lets the
//! benchmark harness sweep every figure of the evaluation.
//!
//! Event flow per job: master dispatch → `FetchBegin` (after request
//! latency) → flow on the path's bottleneck link → `LinkWake` →
//! `ProcessDone` → completion reported, next request. Cluster end: all
//! slaves denied → local combination → `RobjSend` → WAN flow → robj banked
//! at the head → final merge → `FinalDone`.
//!
//! With `prefetch_depth > 0` each slave mirrors the runtime's pipelined
//! fold loop: it holds up to `1 + depth` leases, its serial background
//! fetcher streams them one at a time into a ready queue, and the compute
//! unit drains that queue — retrieval overlaps computation, and only the
//! un-hidden remainder of each fetch is counted as stall. At depth 0 the
//! event sequence (and every RNG draw) is identical to the serial model.

use crate::params::SimParams;
use cb_simnet::engine::{Ctx, Engine, World};
use cb_simnet::link::FairShareLink;
use cb_simnet::rng::DetRng;
use cb_simnet::time::{SimDur, SimTime};
use cb_storage::layout::ChunkId;
use cloudburst_core::api::ReductionObject;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::obs::{Clock, EventKind, EventRecord, RecordingSink, SinkHandle};
use cloudburst_core::report::{ClusterAccount, RecoveryStats, RunReport, SlaveStats};
use cloudburst_core::sched::master::MasterPool;
use cloudburst_core::{ClusterSpec, Head, Resolution, RuntimeError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A virtual duration as the report's wall-clock type (exact: both are ns).
fn real(d: SimDur) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

/// The model's reduction object: only its size is simulated.
struct RobjSize(u64);

impl ReductionObject for RobjSize {
    fn merge(&mut self, _: Self) {}
    fn size_bytes(&self) -> usize {
        self.0 as usize
    }
}

/// Events of the simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Kick off: every slave asks for work, at `t = 0`.
    Boot,
    /// A head grant reaches cluster `c`'s master.
    GrantArrive { c: usize },
    /// Slave `s` of cluster `c` starts fetching `job` (request latency paid).
    FetchBegin {
        c: usize,
        s: usize,
        job: ChunkId,
        stolen: bool,
        /// Whether this fetch continues the cluster's sequential scan.
        seq: bool,
    },
    /// A link may have completed flows.
    LinkWake { link: usize, gen: u64 },
    /// Slave finished the compute of `job`.
    ProcessDone { c: usize, s: usize, job: ChunkId },
    /// Cluster `c` finished local combination; ship the reduction object.
    RobjSend { c: usize },
    /// The whole run is complete.
    FinalDone,
}

/// What a completed flow means.
#[derive(Debug, Clone, Copy)]
enum FlowTarget {
    ChunkFetched {
        c: usize,
        s: usize,
        job: ChunkId,
        stolen: bool,
        started: SimTime,
    },
    RobjDelivered {
        c: usize,
    },
}

/// A lease sitting in a slave's fetch pipeline, not yet fetch-started.
#[derive(Debug, Clone, Copy)]
struct QueuedFetch {
    job: ChunkId,
    stolen: bool,
    /// Sequential-scan classification, decided at assignment time (the
    /// cluster-level scan pointer advances in grant order).
    seq: bool,
}

/// A fetched job waiting for the slave's compute unit.
#[derive(Debug, Clone, Copy)]
struct ReadyJob {
    job: ChunkId,
    /// When its fetch began (latency included) — the stall clock can only
    /// start once the data is actually on the wire.
    started: SimTime,
}

#[derive(Debug, Clone, Default)]
struct SlaveState {
    /// The runtime's per-slave accounting, in virtual time. `fetch_stall` is
    /// the time the compute side sat waiting on an in-flight fetch; at
    /// depth 0 it equals `retrieval`.
    stats: SlaveStats,
    consecutive_failures: u32,
    /// Leases currently held: queued + in-flight fetch + ready + processing.
    leases: usize,
    /// In the cluster's `waiting` queue (avoid duplicate parking).
    parked: bool,
    /// The serial background fetcher is mid-fetch.
    fetch_busy: bool,
    /// The compute unit is mid-job.
    proc_busy: bool,
    /// Duration of the in-flight compute job, for the `process_end` event.
    cur_proc_ns: u64,
    /// Retired (kill or failure threshold) but still draining leases.
    retiring: bool,
    /// Leased jobs whose fetch has not started yet.
    fetch_queue: VecDeque<QueuedFetch>,
    /// Fetched jobs awaiting compute.
    ready: VecDeque<ReadyJob>,
    /// When the compute unit went idle (`None` while busy); the portion of
    /// idleness overlapping the next job's fetch is counted as stall.
    idle_since: Option<SimTime>,
    finished: bool,
}

struct ClusterState {
    mp: MasterPool,
    waiting: VecDeque<usize>,
    /// Chunk id that would continue this cluster's sequential scan.
    expected_next: Option<u32>,
    slaves: Vec<SlaveState>,
    rngs: Vec<DetRng>,
    finished_slaves: usize,
    /// When the local combination completed (the cluster has wound down).
    local_done: Option<SimTime>,
    /// Fetch failures and retired/killed slaves, for the cluster's account.
    recovery: RecoveryStats,
}

struct SimWorld {
    params: SimParams,
    head: Head<()>,
    links: Vec<FairShareLink>,
    /// Pending flow targets, keyed by (link, flow tag).
    flow_targets: Vec<std::collections::BTreeMap<u64, FlowTarget>>,
    next_tag: u64,
    clusters: Vec<ClusterState>,
    /// In-flight chunk fetches per file (contention gauge).
    active_per_file: Vec<usize>,
    final_done: Option<SimTime>,
    /// Observability sink; disabled unless [`simulate_observed`] is used.
    /// Emits the same event kinds as the real runtime, stamped with
    /// *virtual* time via `clock`.
    sink: SinkHandle,
    /// The virtual clock the sink and the head read: set to `ctx.now()` at
    /// every event-handler entry, so both see simulated nanoseconds.
    clock: Arc<AtomicU64>,
    /// Buffer behind `sink`, drained into the run's event stream at the end.
    recorder: Option<Arc<RecordingSink>>,
}

impl SimWorld {
    fn new(params: SimParams, observe: bool) -> Result<Self, RuntimeError> {
        let ns = Arc::new(AtomicU64::new(0));
        let clock = || Clock::Virtual(Arc::clone(&ns));
        let recorder = observe.then(|| RecordingSink::with_clock(clock()));
        let sink = recorder
            .clone()
            .map_or_else(SinkHandle::disabled, |r| SinkHandle::new(r));
        let cfg = RuntimeConfig {
            pool: params.pool.clone(),
            slave_failure_threshold: params.faults.slave_failure_threshold,
            kill_schedule: params.faults.kill_schedule.clone(),
            sink: sink.clone(),
            ..Default::default()
        };
        let specs = params
            .clusters
            .iter()
            .map(|c| ClusterSpec::new(&c.name, c.location, c.cores));
        let head = Head::new(
            &params.layout,
            &params.placement,
            &cfg,
            specs.collect(),
            clock(),
        )?;
        let links = params
            .links
            .iter()
            .map(|l| FairShareLink::with_capacity(l.bps))
            .collect::<Vec<_>>();
        let flow_targets = params.links.iter().map(|_| Default::default()).collect();
        let root = DetRng::new(params.seed);
        let clusters = params
            .clusters
            .iter()
            .enumerate()
            .map(|(ci, c)| ClusterState {
                mp: MasterPool::new(params.master_low_water).with_sink(sink.clone(), ci as u32),
                waiting: VecDeque::new(),
                expected_next: None,
                slaves: vec![SlaveState::default(); c.cores],
                rngs: (0..c.cores)
                    .map(|si| root.fork((ci as u64) << 32 | si as u64))
                    .collect(),
                finished_slaves: 0,
                local_done: None,
                recovery: RecoveryStats::default(),
            })
            .collect();
        let active_per_file = vec![0; params.layout.files.len()];
        Ok(SimWorld {
            params,
            head,
            links,
            flow_targets,
            next_tag: 0,
            clusters,
            active_per_file,
            final_done: None,
            sink,
            clock: ns,
            recorder,
        })
    }

    /// Record an event of slave `s` of cluster `c`: fold it into the slave's
    /// stats and the cluster's recovery tally, then emit it. The one way
    /// the model counts.
    fn record(&mut self, c: usize, s: usize, kind: EventKind) {
        let cl = &mut self.clusters[c];
        cl.slaves[s].stats.observe(&kind);
        cl.recovery.observe(&kind);
        self.sink.emit(Some(c as u32), Some(s as u32), kind);
    }

    /// Resolve one of cluster `c`'s leases at the head.
    fn resolve(&mut self, c: usize, what: Resolution) {
        let loc = self.params.clusters[c].location;
        let held = self.head.resolve(loc, what);
        held.expect("the model resolves only leases it granted and still tracks");
    }

    /// (Re-)arm the wakeup for `link`'s next completion.
    fn arm_link(&mut self, ctx: &mut Ctx<'_, Ev>, link: usize) {
        if let Some(t) = self.links[link].next_completion() {
            let gen = self.links[link].generation();
            ctx.schedule_at(t.max(ctx.now()), Ev::LinkWake { link, gen });
        }
    }

    /// Start a flow and remember what it completes.
    fn start_flow(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        link: usize,
        bytes: u64,
        cap: f64,
        target: FlowTarget,
    ) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.links[link].start_flow_capped(ctx.now(), bytes, cap, tag);
        self.flow_targets[link].insert(tag, target);
        self.arm_link(ctx, link);
    }

    /// A slave reaches a job boundary (boot, or a completed job already
    /// reported to the pool). Mirrors the runtime's fold loop: the kill
    /// schedule is consulted here, exactly where the real slave checks it,
    /// so a killed slave's counted work is identical in both worlds. A
    /// surviving slave starts its next ready job (if any) and parks for
    /// more leases; [`SimWorld::settle`] hands out jobs.
    fn job_boundary(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, s: usize) {
        let jobs_done = self.clusters[c].slaves[s].stats.jobs;
        let killed = self
            .params
            .faults
            .kill_schedule
            .iter()
            .any(|k| k.cluster == c && k.slave == s && jobs_done >= k.after_jobs);
        if killed {
            self.record(c, s, EventKind::SlaveRetired { killed: true });
            self.retire_slave(ctx, c, s);
            return;
        }
        self.maybe_start_proc(ctx, c, s);
        self.park_if_hungry(c, s);
    }

    /// Park `s` in its cluster's waiting queue if it can take another lease:
    /// alive, not already parked, and holding fewer than `1 + prefetch_depth`
    /// leases (the pipeline capacity).
    fn park_if_hungry(&mut self, c: usize, s: usize) {
        let capacity = 1 + self.params.prefetch_depth;
        let cl = &mut self.clusters[c];
        {
            let st = &mut cl.slaves[s];
            if st.retiring || st.finished || st.parked || st.leases >= capacity {
                return;
            }
            st.parked = true;
        }
        cl.waiting.push_back(s);
    }

    /// Start the next queued fetch on `s`'s serial background fetcher.
    fn maybe_start_fetch(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, s: usize) {
        let qf = {
            let st = &mut self.clusters[c].slaves[s];
            if st.fetch_busy {
                return;
            }
            let Some(qf) = st.fetch_queue.pop_front() else {
                return;
            };
            st.fetch_busy = true;
            qf
        };
        // The fetcher picks up the lease *now*; request latency and the
        // transfer both count into the fetch, exactly as `retrieval` does.
        let chunk = qf.job.0 as u64;
        self.record(c, s, EventKind::FetchStart { chunk });
        let loc = self.params.clusters[c].location;
        let home = self
            .params
            .placement
            .home(self.params.layout.chunk(qf.job).file);
        let path = self.params.path(loc, home);
        let latency = if qf.seq {
            path.latency
        } else {
            path.latency * self.params.nonseq_latency_mult
        };
        ctx.schedule_after(
            latency,
            Ev::FetchBegin {
                c,
                s,
                job: qf.job,
                stolen: qf.stolen,
                seq: qf.seq,
            },
        );
    }

    /// Feed the next ready job to `s`'s compute unit, charging the portion
    /// of its idle wait that overlapped the job's fetch as stall (the
    /// runtime counts exactly the recv blocks that end in fetched data;
    /// waits for a master grant are sync, not stall).
    fn maybe_start_proc(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, s: usize) {
        let ready = {
            let st = &mut self.clusters[c].slaves[s];
            if st.proc_busy {
                return;
            }
            match st.ready.pop_front() {
                Some(r) => r,
                None => return,
            }
        };
        let now = ctx.now();
        let jitter = {
            let cv = self.params.clusters[c].jitter_cv;
            self.clusters[c].rngs[s].jitter(cv)
        };
        let units = self.params.layout.chunk(ready.job).units;
        let proc = self.params.clusters[c].proc_time(s, units, jitter);
        let stalled = {
            let st = &mut self.clusters[c].slaves[s];
            st.proc_busy = true;
            let idle = st.idle_since.take().unwrap_or(SimTime::ZERO);
            st.cur_proc_ns = proc.as_nanos();
            now.saturating_since(idle.max(ready.started)).as_nanos()
        };
        self.record(c, s, EventKind::Stall { ns: stalled });
        let chunk = ready.job.0 as u64;
        self.record(c, s, EventKind::ProcessStart { chunk });
        ctx.schedule_after(
            proc,
            Ev::ProcessDone {
                c,
                s,
                job: ready.job,
            },
        );
    }

    /// Take slave `s` out of service (fail-stop or too many consecutive
    /// fetch failures). Its partial reduction object survives as a
    /// checkpoint — the GR recovery model — but its prefetched leases must
    /// go back: queued and ready jobs are returned uncharged
    /// (`JobPool::release`; they were never attempted), and an in-flight
    /// fetch is released when its flow completes, exactly as the runtime's
    /// dying slave drains its fetch channel before reporting `Finished`.
    /// The slave counts as finished only once its last lease is returned.
    fn retire_slave(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, s: usize) {
        {
            let st = &mut self.clusters[c].slaves[s];
            if st.retiring || st.finished {
                return;
            }
            st.retiring = true;
        }
        self.clusters[c].waiting.retain(|&x| x != s);
        self.clusters[c].slaves[s].parked = false;
        let reclaimed: Vec<ChunkId> = {
            let st = &mut self.clusters[c].slaves[s];
            let queued = st.fetch_queue.drain(..).map(|q| q.job);
            let ready = st.ready.drain(..).map(|r| r.job);
            queued.chain(ready).collect()
        };
        for job in reclaimed {
            self.clusters[c].slaves[s].leases -= 1;
            self.resolve(c, Resolution::Released(job));
        }
        self.maybe_finish_retiring(ctx, c, s);
    }

    /// A retiring slave is finished once every lease it held is back in the
    /// pool (an in-flight fetch or a mid-compute job keeps it alive until
    /// the corresponding event lands).
    fn maybe_finish_retiring(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, s: usize) {
        {
            let st = &mut self.clusters[c].slaves[s];
            if !st.retiring || st.finished || st.leases != 0 {
                return;
            }
            st.finished = true;
        }
        self.clusters[c].finished_slaves += 1;
        self.maybe_cluster_done(ctx, c);
    }

    /// If every slave of cluster `c` has finished (or died), wind the
    /// cluster down: return undispatched leases to the head and schedule the
    /// local combination of whatever reduction objects exist.
    fn maybe_cluster_done(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.clusters[c].finished_slaves != self.clusters[c].slaves.len()
            || self.clusters[c].local_done.is_some()
        {
            return;
        }
        // A dying master returns its leases; survivors pick them up.
        for job in self.clusters[c].mp.drain() {
            self.resolve(c, Resolution::Failed(job.chunk));
        }
        // Local combination: (cores-1) pairwise merges of the robj.
        let merges = (self.clusters[c].slaves.len() as f64 - 1.0).max(0.0);
        let combine =
            SimDur::from_secs_f64(merges * self.params.robj_bytes as f64 / self.params.merge_bps);
        self.clusters[c].local_done = Some(ctx.now() + combine);
        ctx.schedule_after(combine, Ev::RobjSend { c });
    }

    /// Run every cluster's dispatch to a fixed point. A completion or a
    /// fail-back at one cluster can unpark slaves at another (a returned
    /// lease becomes stealable; the last outstanding job completing turns an
    /// empty pool into an exhausted one), so dispatching only the cluster
    /// that saw the event is not enough.
    fn settle(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let counts = |w: &Self| (w.head.pool().pending(), w.head.pool().outstanding());
        loop {
            let before = counts(self);
            for c in 0..self.clusters.len() {
                self.dispatch(ctx, c);
            }
            if counts(self) == before {
                break;
            }
        }
    }

    /// Grant cluster `c`'s master its next batch; true if it got jobs. An
    /// empty grant is only the end if the pool is truly out of work for
    /// the site; otherwise jobs leased elsewhere may still fail back, so
    /// parked slaves just wait.
    fn refill(&mut self, c: usize) -> bool {
        let (grant, exhausted) = self.head.request(self.params.clusters[c].location);
        let granted = !grant.jobs.is_empty();
        self.clusters[c].mp.on_grant(grant.jobs, grant.stolen);
        if exhausted {
            self.clusters[c].mp.mark_exhausted();
        }
        granted
    }

    /// Hand queued jobs to waiting slaves; refill / finish as appropriate.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.clusters[c].local_done.is_some() {
            return; // cluster already wound down (possibly by losing all slaves)
        }
        let rtt = self.params.clusters[c].rtt_to_head;

        loop {
            // Serve waiting slaves from the master queue. A lease joins the
            // slave's fetch pipeline; a slave still under capacity re-parks
            // at the back of the queue for its next prefetch lease.
            while !self.clusters[c].waiting.is_empty() {
                let Some(job) = self.clusters[c].mp.take() else {
                    break;
                };
                let s = self.clusters[c].waiting.pop_front().expect("non-empty");
                let seq = self.clusters[c].expected_next == Some(job.chunk.0);
                self.clusters[c].expected_next = Some(job.chunk.0 + 1);
                {
                    let st = &mut self.clusters[c].slaves[s];
                    st.parked = false;
                    st.leases += 1;
                    st.fetch_queue.push_back(QueuedFetch {
                        job: job.chunk,
                        stolen: job.stolen,
                        seq,
                    });
                }
                self.maybe_start_fetch(ctx, c, s);
                self.park_if_hungry(c, s);
            }
            // Refill when low (and someone is or will be waiting).
            if self.clusters[c].mp.should_request() {
                self.clusters[c].mp.mark_requested();
                if rtt.is_zero() {
                    // Colocated master: decide immediately, and serve the
                    // newly arrived jobs.
                    if self.refill(c) {
                        continue;
                    }
                } else {
                    ctx.schedule_after(rtt, Ev::GrantArrive { c });
                }
            }
            break;
        }

        // Anyone still waiting with a finished pool gets no more leases. A
        // slave whose pipeline is empty is done for good; one still holding
        // leases finishes at its last `ProcessDone`.
        if self.clusters[c].mp.finished() {
            while let Some(s) = self.clusters[c].waiting.pop_front() {
                let st = &mut self.clusters[c].slaves[s];
                st.parked = false;
                if st.leases == 0 && !st.finished && !st.retiring {
                    st.finished = true;
                    self.clusters[c].finished_slaves += 1;
                }
            }
            self.maybe_cluster_done(ctx, c);
        }
    }

    /// Cluster `c`'s reduction object reached the head: bank it, done at
    /// its local combination, and start the global reduction once no
    /// cluster is still open.
    fn handle_robj_arrive(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        assert!(self.head.is_open(c), "robj delivered twice");
        let cl = &self.clusters[c];
        let local_done = cl.local_done.expect("a cluster ships after combining");
        self.sink.emit(
            Some(c as u32),
            None,
            EventKind::RobjMerge {
                bytes: self.params.robj_bytes,
                ns: ctx.now().saturating_since(local_done).as_nanos(),
            },
        );
        let wall = real(local_done.saturating_since(SimTime::ZERO));
        let account = ClusterAccount {
            slaves: cl.slaves.iter().map(|s| s.stats.clone()).collect(),
            recovery: cl.recovery.clone(),
            wall,
            error: None,
        };
        self.head.bank(c, Some(()), account, wall);
        if (0..self.clusters.len()).all(|c| !self.head.is_open(c)) {
            // Final global reduction at the head.
            let merges = (self.clusters.len() as f64 - 1.0).max(0.0);
            let cost = self.params.global_reduction_base
                + SimDur::from_secs_f64(
                    merges * self.params.robj_bytes as f64 / self.params.merge_bps,
                );
            ctx.schedule_after(cost, Ev::FinalDone);
        }
    }
}

impl World for SimWorld {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        // Advance the virtual clock first: every event emitted while
        // handling `ev` (including from inside the shared head and master)
        // is stamped with the simulated time of `ev`.
        self.clock.store(ctx.now().as_nanos(), Ordering::Relaxed);
        match ev {
            Ev::Boot => {
                for c in 0..self.clusters.len() {
                    for s in 0..self.clusters[c].slaves.len() {
                        self.job_boundary(ctx, c, s);
                    }
                }
            }
            Ev::GrantArrive { c } => {
                // A cluster that died while the request was in flight must
                // not take a lease it can never serve.
                if self.clusters[c].finished_slaves < self.clusters[c].slaves.len() {
                    self.refill(c);
                }
            }
            Ev::FetchBegin {
                c,
                s,
                job,
                stolen,
                seq,
            } => {
                let loc = self.params.clusters[c].location;
                let chunk = *self.params.layout.chunk(job);
                let home = self.params.placement.home(chunk.file);
                let path = self.params.path(loc, home);
                let mut cap = path.per_conn_bps * path.streams as f64;
                let latency = if seq {
                    path.latency
                } else {
                    // A broken sequential scan loses readahead and pays
                    // request setup again.
                    cap *= self.params.nonseq_bw_factor;
                    path.latency * self.params.nonseq_latency_mult
                };
                // Another reader already on this file contends for it.
                if self.active_per_file[chunk.file.0 as usize] > 0 {
                    cap *= self.params.file_contention_bw_factor;
                }
                self.active_per_file[chunk.file.0 as usize] += 1;
                // The fetch began (latency already paid) when the event was
                // scheduled; count latency into busy-fetch via `started`.
                let started = ctx.now() - latency;
                self.start_flow(
                    ctx,
                    path.link,
                    chunk.len,
                    cap,
                    FlowTarget::ChunkFetched {
                        c,
                        s,
                        job,
                        stolen,
                        started,
                    },
                );
            }
            Ev::LinkWake { link, gen } => {
                if self.links[link].generation() != gen {
                    return; // stale wakeup; a newer one is scheduled
                }
                let done = self.links[link].poll_completed(ctx.now());
                for completion in done {
                    let target = self.flow_targets[link]
                        .remove(&completion.tag)
                        .expect("completed flow had no target");
                    match target {
                        FlowTarget::ChunkFetched {
                            c,
                            s,
                            job,
                            stolen,
                            started,
                        } => {
                            let chunk = *self.params.layout.chunk(job);
                            self.active_per_file[chunk.file.0 as usize] -= 1;
                            self.clusters[c].slaves[s].fetch_busy = false;
                            if self.clusters[c].slaves[s].retiring {
                                // An in-flight fetch of a retiring slave:
                                // the lease goes back uncharged and the
                                // fetch is not accounted, mirroring the
                                // runtime's drain-and-reclaim (no RNG
                                // draws either, so fault streams stay
                                // aligned between worlds).
                                let chunk = job.0 as u64;
                                self.record(c, s, EventKind::FetchDiscarded { chunk });
                                self.clusters[c].slaves[s].leases -= 1;
                                self.resolve(c, Resolution::Released(job));
                                self.maybe_finish_retiring(ctx, c, s);
                                continue;
                            }
                            // A fetch fault surfaces only after transport —
                            // the simulated analogue of the retriever
                            // exhausting its retries against a flaky store.
                            // The `prob > 0` guard keeps failure-free runs
                            // byte-identical to pre-fault seeds (no extra
                            // RNG draw).
                            let prob = self.params.faults.fetch_failure_prob;
                            let failed = prob > 0.0 && self.clusters[c].rngs[s].chance(prob);
                            let fetch_ns = ctx.now().saturating_since(started).as_nanos();
                            if failed {
                                // The injected fault and its terminal
                                // failure coincide in the model (the real
                                // stack separates them by a retry loop).
                                self.record(c, s, EventKind::FaultInjected);
                                let chunk = job.0 as u64;
                                let ns = fetch_ns;
                                self.record(c, s, EventKind::FetchFailed { chunk, ns });
                                let now = ctx.now();
                                let st = &mut self.clusters[c].slaves[s];
                                st.consecutive_failures += 1;
                                st.leases -= 1;
                                if !st.proc_busy {
                                    // The compute side was already waiting
                                    // on this fetch; the wasted wait is a
                                    // stall, as in the runtime.
                                    let idle = st.idle_since.take().unwrap_or(SimTime::ZERO);
                                    let stalled = now.saturating_since(idle.max(started));
                                    st.idle_since = Some(now);
                                    let ns = stalled.as_nanos();
                                    self.record(c, s, EventKind::Stall { ns });
                                }
                                let retire = self.clusters[c].slaves[s].consecutive_failures
                                    >= self.params.faults.slave_failure_threshold;
                                self.resolve(c, Resolution::Failed(job));
                                if retire {
                                    self.record(c, s, EventKind::SlaveRetired { killed: false });
                                    self.retire_slave(ctx, c, s);
                                } else {
                                    self.maybe_start_fetch(ctx, c, s);
                                    self.park_if_hungry(c, s);
                                }
                                continue;
                            }
                            let fetched = EventKind::FetchEnd {
                                chunk: job.0 as u64,
                                bytes: chunk.len,
                                remote: stolen,
                                ns: fetch_ns,
                            };
                            self.record(c, s, fetched);
                            let st = &mut self.clusters[c].slaves[s];
                            st.consecutive_failures = 0;
                            st.ready.push_back(ReadyJob { job, started });
                            self.maybe_start_fetch(ctx, c, s);
                            self.maybe_start_proc(ctx, c, s);
                        }
                        FlowTarget::RobjDelivered { c } => {
                            self.handle_robj_arrive(ctx, c);
                        }
                    }
                }
                self.arm_link(ctx, link);
            }
            Ev::ProcessDone { c, s, job } => {
                let chunk = self.params.layout.chunk(job);
                let home = self.params.placement.home(chunk.file);
                let st = &mut self.clusters[c].slaves[s];
                st.proc_busy = false;
                st.leases -= 1;
                st.idle_since = Some(ctx.now());
                let processed = EventKind::ProcessEnd {
                    chunk: job.0 as u64,
                    units: chunk.units,
                    ns: st.cur_proc_ns,
                    stolen: home != self.params.clusters[c].location,
                };
                self.record(c, s, processed);
                self.resolve(c, Resolution::Completed(job));
                if self.clusters[c].slaves[s].retiring {
                    // Retired mid-compute (failure-threshold retire while
                    // this job was in flight): the completed work still
                    // counts, but no new boundary is taken.
                    self.maybe_finish_retiring(ctx, c, s);
                } else {
                    self.job_boundary(ctx, c, s);
                }
            }
            Ev::RobjSend { c } => match self.params.clusters[c].robj_link {
                Some(link) => {
                    let cap = self.params.clusters[c].robj_conn_bps;
                    let bytes = self.params.robj_bytes;
                    self.start_flow(ctx, link, bytes, cap, FlowTarget::RobjDelivered { c });
                }
                None => self.handle_robj_arrive(ctx, c),
            },
            Ev::FinalDone => {
                self.final_done = Some(ctx.now());
            }
        }
        // Any of the above may have parked slaves, completed jobs, or failed
        // jobs back into the head pool; bring every cluster up to date.
        self.settle(ctx);
    }
}

/// Run the simulation to completion; the head builds the same report as
/// for the real runtime, and fails the run the same way.
pub fn simulate(params: SimParams) -> Result<RunReport, RuntimeError> {
    simulate_inner(params, false).map(|(r, _)| r)
}

/// Like [`simulate`], but also record the full structured event stream —
/// the same [`EventKind`]s the real runtime emits, stamped with *virtual*
/// nanoseconds — so simulated and real traces can be diffed event by event,
/// written to the same JSONL schema by `simulate --trace-out`, and drawn by
/// the same [`Timeline`](cloudburst_core::obs::Timeline).
pub fn simulate_observed(params: SimParams) -> Result<(RunReport, Vec<EventRecord>), RuntimeError> {
    simulate_inner(params, true)
}

fn simulate_inner(
    params: SimParams,
    observe: bool,
) -> Result<(RunReport, Vec<EventRecord>), RuntimeError> {
    params.validate().map_err(RuntimeError::Validation)?;
    let mut engine = Engine::new(SimWorld::new(params, observe)?);
    engine.schedule(SimTime::ZERO, Ev::Boot);
    // 960 jobs × ~5 events plus link wakeups: 10M is a generous livelock
    // guard, not a tuning knob.
    if !engine.run_bounded(10_000_000) {
        let livelock = "simulation exceeded event budget (livelock?)";
        return Err(RuntimeError::Validation(livelock.into()));
    }
    let end = engine.now();
    let world = engine.into_world();
    // The run ends at the global reduction's end, not at the last (stale)
    // link wakeup.
    let done = world.final_done.unwrap_or(end);
    world.clock.store(done.as_nanos(), Ordering::Relaxed);
    let robj_bytes = world.params.robj_bytes;
    let out = world.head.finish(|_, ()| Ok(RobjSize(robj_bytes)))?;
    let events = world.recorder.map(|r| r.take()).unwrap_or_default();
    Ok((out.report, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{LinkSpec, PathSpec, SimCluster};
    use cb_storage::layout::{LocationId, Placement};
    use cb_storage::organizer::organize_even;
    use cloudburst_core::config::SlaveKill;
    use cloudburst_core::sched::pool::PoolConfig;
    use std::collections::BTreeMap;

    const L: LocationId = LocationId(0);
    const C: LocationId = LocationId(1);

    /// Two clusters, one link per path class, tiny dataset.
    fn params(frac_local: f64) -> SimParams {
        // 8 files × 4 chunks of 256 KiB.
        let layout = organize_even(8, 1 << 20, 1 << 18, 64).unwrap();
        let placement = Placement::split_fraction(8, frac_local, L, C);
        let links = vec![
            LinkSpec {
                name: "disk".into(),
                bps: 100.0e6,
            },
            LinkSpec {
                name: "s3".into(),
                bps: 100.0e6,
            },
            LinkSpec {
                name: "wan".into(),
                bps: 20.0e6,
            },
        ];
        let mut paths = BTreeMap::new();
        paths.insert(
            (L, L),
            PathSpec {
                link: 0,
                latency: SimDur::from_micros(200),
                per_conn_bps: 50.0e6,
                streams: 1,
            },
        );
        paths.insert(
            (C, C),
            PathSpec {
                link: 1,
                latency: SimDur::from_millis(5),
                per_conn_bps: 10.0e6,
                streams: 4,
            },
        );
        paths.insert(
            (L, C),
            PathSpec {
                link: 2,
                latency: SimDur::from_millis(40),
                per_conn_bps: 3.0e6,
                streams: 4,
            },
        );
        paths.insert(
            (C, L),
            PathSpec {
                link: 2,
                latency: SimDur::from_millis(40),
                per_conn_bps: 3.0e6,
                streams: 4,
            },
        );
        SimParams {
            layout,
            placement,
            clusters: vec![
                SimCluster::new("local", L, 4, 100.0),
                SimCluster::new("EC2", C, 4, 120.0)
                    .with_rtt(SimDur::from_millis(8))
                    .with_robj_path(2, 5.0e6),
            ],
            links,
            paths,
            pool: PoolConfig::default(),
            master_low_water: 2,
            prefetch_depth: 0,
            robj_bytes: 64 * 1024,
            merge_bps: 1.0e9,
            global_reduction_base: SimDur::from_millis(50),
            nonseq_latency_mult: 1.0,
            nonseq_bw_factor: 1.0,
            file_contention_bw_factor: 1.0,
            seed: 7,
            faults: crate::params::FaultPlan::default(),
        }
    }

    #[test]
    fn all_jobs_processed_exactly_once() {
        let p = params(0.5);
        let n_jobs = p.layout.n_jobs() as u64;
        let r = simulate(p).unwrap();
        assert_eq!(r.total_jobs(), n_jobs);
        assert!(r.total_s > 0.0);
        assert!(r.global_reduction_s > 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = simulate(params(0.33)).unwrap();
        let b = simulate(params(0.33)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_only_jitter() {
        let mut p = params(0.5);
        p.clusters[0].jitter_cv = 0.2;
        p.clusters[1].jitter_cv = 0.2;
        let a = simulate(p.clone()).unwrap();
        p.seed = 99;
        let b = simulate(p).unwrap();
        assert_eq!(a.total_jobs(), b.total_jobs());
        assert_ne!(a.total_s, b.total_s, "jitter must respond to the seed");
    }

    #[test]
    fn balanced_split_steals_nothing() {
        let r = simulate(params(0.5)).unwrap();
        // 50/50 data, comparable compute: neither side should steal much.
        assert!(
            r.total_stolen() <= 8,
            "50/50 split should steal little, got {}",
            r.total_stolen()
        );
    }

    #[test]
    fn skew_forces_stealing_toward_data() {
        let r = simulate(params(0.125)).unwrap(); // 1 of 8 files local
        let local = r.cluster("local").unwrap();
        assert!(
            local.jobs_stolen > 0,
            "local cluster must steal when starved of data"
        );
        assert!(local.bytes_remote > 0);
    }

    #[test]
    fn stealing_disabled_still_terminates() {
        let mut p = params(0.25);
        p.pool.allow_stealing = false;
        let n_jobs = p.layout.n_jobs() as u64;
        let r = simulate(p).unwrap();
        assert_eq!(
            r.total_jobs(),
            n_jobs,
            "home clusters finish their own jobs"
        );
        assert_eq!(r.total_stolen(), 0);
    }

    #[test]
    fn breakdown_adds_up() {
        let r = simulate(params(0.33)).unwrap();
        for c in &r.clusters {
            let sum = c.processing_s + c.retrieval_s + c.sync_s;
            assert!(
                (sum - c.wall_s).abs() < 1e-6,
                "{}: {} != {}",
                c.name,
                sum,
                c.wall_s
            );
            assert!(c.wall_s <= r.total_s + 1e-9);
        }
        // Total bytes moved equal the dataset.
        let moved: u64 = r
            .clusters
            .iter()
            .map(|c| c.bytes_local + c.bytes_remote)
            .sum();
        assert_eq!(moved, 8 * (1 << 20));
    }

    #[test]
    fn straggler_inflates_sync_of_peers() {
        let base = simulate(params(0.5)).unwrap();
        let mut p = params(0.5);
        p.clusters[0] = std::mem::replace(&mut p.clusters[0], SimCluster::new("x", L, 1, 0.0))
            .with_straggler(0, 50.0);
        let slowed = simulate(p).unwrap();
        assert!(
            slowed.total_s > base.total_s,
            "a 50x straggler must hurt: {} vs {}",
            slowed.total_s,
            base.total_s
        );
        // But pooling limits the damage: the straggler only drags its own
        // in-flight job, not a static partition. With 32 jobs and 8 cores a
        // static split would give the straggler 4 jobs (~50x slowdown on
        // 1/8 of the work); dynamic pooling should stay well under that.
        let static_estimate = base.total_s * 50.0 / 8.0;
        assert!(
            slowed.total_s < static_estimate,
            "pool balancing failed: {} vs static {}",
            slowed.total_s,
            static_estimate
        );
    }

    #[test]
    fn bigger_robj_slows_global_reduction() {
        let small = simulate(params(0.5)).unwrap();
        let mut p = params(0.5);
        p.robj_bytes = 64 * 1024 * 1024; // 64 MiB over a 5 MB/s robj link
        let big = simulate(p).unwrap();
        assert!(
            big.global_reduction_s > small.global_reduction_s + 5.0,
            "64 MiB robj should add >5s: {} vs {}",
            big.global_reduction_s,
            small.global_reduction_s
        );
    }

    #[test]
    fn killed_slaves_leave_work_to_survivors() {
        // Compute-bound so the number of live cores is what matters.
        let compute_bound = |frac| {
            let mut p = params(frac);
            p.clusters[0].ns_per_unit = 50_000.0;
            p.clusters[1].ns_per_unit = 50_000.0;
            p
        };
        let baseline = simulate(compute_bound(0.5)).unwrap();
        let mut p = compute_bound(0.5);
        p.faults.kill_schedule = vec![
            SlaveKill {
                cluster: 1,
                slave: 0,
                after_jobs: 1,
            },
            SlaveKill {
                cluster: 1,
                slave: 2,
                after_jobs: 3,
            },
        ];
        let n_jobs = p.layout.n_jobs() as u64;
        let r = simulate(p).unwrap();
        assert_eq!(r.total_jobs(), n_jobs, "no chunk lost to the kills");
        assert_eq!(r.recovery.slaves_killed, 2);
        // The dead slaves' leases stay with their master, so the surviving
        // cores grind through the same job set with half the parallelism:
        // the run must get strictly slower.
        assert!(
            r.total_s > baseline.total_s,
            "halving a compute-bound cluster must cost time: {} vs {}",
            r.total_s,
            baseline.total_s
        );
    }

    #[test]
    fn losing_a_whole_cluster_reassigns_its_data() {
        let mut p = params(0.5);
        p.faults.kill_schedule = (0..4)
            .map(|s| SlaveKill {
                cluster: 1,
                slave: s,
                after_jobs: if s == 0 { 1 } else { 0 },
            })
            .collect();
        let n_jobs = p.layout.n_jobs() as u64;
        let r = simulate(p).unwrap();
        assert_eq!(r.total_jobs(), n_jobs);
        assert_eq!(r.recovery.slaves_killed, 4);
        let local = r.cluster("local").unwrap();
        assert!(
            local.jobs_stolen > 0,
            "the survivor must take over cloud-homed chunks"
        );
        assert!(
            r.recovery.jobs_reenqueued > 0,
            "the dead master's leases must have been returned"
        );
    }

    #[test]
    fn fetch_faults_are_reenqueued_until_done() {
        let mut p = params(0.5);
        p.faults.fetch_failure_prob = 0.25;
        p.faults.slave_failure_threshold = 10; // faults, not deaths
        let n_jobs = p.layout.n_jobs() as u64;
        let r = simulate(p).unwrap();
        assert_eq!(r.total_jobs(), n_jobs, "every failed fetch was re-run");
        assert!(r.recovery.fetch_failures > 0, "32 jobs at 25% must fault");
        assert_eq!(r.recovery.jobs_reenqueued, r.recovery.fetch_failures);
    }

    #[test]
    fn fault_runs_are_deterministic_too() {
        let mk = || {
            let mut p = params(0.33);
            p.faults.fetch_failure_prob = 0.1;
            p.faults.kill_schedule = vec![SlaveKill {
                cluster: 0,
                slave: 1,
                after_jobs: 2,
            }];
            p
        };
        let a = simulate(mk()).unwrap();
        let b = simulate(mk()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn losing_every_slave_everywhere_errors_instead_of_hanging() {
        let mut p = params(0.5);
        for c in 0..2 {
            for s in 0..4 {
                p.faults.kill_schedule.push(SlaveKill {
                    cluster: c,
                    slave: s,
                    after_jobs: 0,
                });
            }
        }
        let err = simulate(p).unwrap_err();
        assert!(
            matches!(err, RuntimeError::JobsFailed { unfinished: 32, .. }),
            "total loss must surface, got: {err}"
        );
    }

    /// One cluster, all data local, fetch and compute deliberately of the
    /// same order (~5 ms each), no link contention: the ideal testbed for
    /// overlap, where perfect pipelining approaches a 2x speedup.
    fn balanced_params(prefetch_depth: usize) -> SimParams {
        // 4 files × 4 chunks of 256 KiB, 4096 units each.
        let layout = organize_even(4, 1 << 20, 1 << 18, 64).unwrap();
        let placement = Placement::all_at(4, L);
        let links = vec![LinkSpec {
            name: "disk".into(),
            bps: 1.0e9, // 4 cores × 50 MB/s: never the bottleneck
        }];
        let mut paths = BTreeMap::new();
        paths.insert(
            (L, L),
            PathSpec {
                link: 0,
                latency: SimDur::from_micros(200),
                per_conn_bps: 50.0e6, // 256 KiB ≈ 5.2 ms per fetch
                streams: 1,
            },
        );
        SimParams {
            layout,
            placement,
            clusters: vec![SimCluster::new("local", L, 4, 1300.0)], // ≈5.3 ms/job
            links,
            paths,
            pool: PoolConfig::default(),
            master_low_water: 2,
            prefetch_depth,
            robj_bytes: 1024,
            merge_bps: 1.0e9,
            global_reduction_base: SimDur::from_millis(1),
            nonseq_latency_mult: 1.0,
            nonseq_bw_factor: 1.0,
            file_contention_bw_factor: 1.0,
            seed: 7,
            faults: crate::params::FaultPlan::default(),
        }
    }

    #[test]
    fn prefetch_overlaps_retrieval_with_compute() {
        let serial = simulate(balanced_params(0)).unwrap();
        let piped = simulate(balanced_params(1)).unwrap();
        assert_eq!(serial.total_jobs(), piped.total_jobs());
        let speedup = serial.total_s / piped.total_s;
        assert!(
            speedup >= 1.3,
            "double-buffering a balanced workload must hide most retrieval: {speedup:.3}x"
        );
        // Serial slaves hide nothing: every fetch second is a stall.
        let s = serial.cluster("local").unwrap();
        assert!((s.fetch_stall_s - s.retrieval_s).abs() < 1e-9);
        assert_eq!(s.overlap_saved_s, 0.0);
        // Pipelined slaves hide most of it.
        let p = piped.cluster("local").unwrap();
        assert!(
            p.overlap_saved_s > 0.5 * p.retrieval_s,
            "most retrieval should hide behind compute: {} of {}",
            p.overlap_saved_s,
            p.retrieval_s
        );
        assert!(p.fetch_stall_s < s.fetch_stall_s);
        // The accounting identity stall + overlap = retrieval holds.
        assert!((p.fetch_stall_s + p.overlap_saved_s - p.retrieval_s).abs() < 1e-9);
    }

    #[test]
    fn deeper_prefetch_never_loses_work_and_never_slows_the_balanced_run() {
        let serial = simulate(balanced_params(0)).unwrap();
        for depth in [1, 2, 4] {
            let r = simulate(balanced_params(depth)).unwrap();
            assert_eq!(r.total_jobs(), serial.total_jobs(), "depth {depth}");
            let moved = |rep: &cloudburst_core::report::RunReport| -> u64 {
                rep.clusters
                    .iter()
                    .map(|c| c.bytes_local + c.bytes_remote)
                    .sum()
            };
            assert_eq!(moved(&r), moved(&serial), "depth {depth}");
            assert!(
                r.total_s <= serial.total_s + 1e-9,
                "depth {depth} slower than serial: {} vs {}",
                r.total_s,
                serial.total_s
            );
        }
    }

    #[test]
    fn prefetch_survives_kills_and_fetch_faults_exactly_once() {
        let mk = || {
            let mut p = params(0.5);
            p.prefetch_depth = 2;
            p.faults.fetch_failure_prob = 0.1;
            p.faults.slave_failure_threshold = 10;
            p.faults.kill_schedule = vec![
                SlaveKill {
                    cluster: 1,
                    slave: 0,
                    after_jobs: 1,
                },
                SlaveKill {
                    cluster: 0,
                    slave: 2,
                    after_jobs: 2,
                },
            ];
            p
        };
        let n_jobs = mk().layout.n_jobs() as u64;
        let a = simulate(mk()).unwrap();
        assert_eq!(
            a.total_jobs(),
            n_jobs,
            "reclaimed prefetched leases must be re-run elsewhere"
        );
        assert_eq!(a.recovery.slaves_killed, 2);
        assert!(
            a.recovery.jobs_reenqueued > 0,
            "kills mid-pipeline must hand leases back"
        );
        let b = simulate(mk()).unwrap();
        assert_eq!(a, b, "faulty pipelined runs stay deterministic");
    }

    #[test]
    fn more_cores_scale_compute_bound_runs() {
        let mut p = params(0.0); // all data in the cloud, like Fig. 4
        p.clusters[0].ns_per_unit = 50_000.0;
        p.clusters[1].ns_per_unit = 50_000.0;
        let small = simulate(p.clone()).unwrap();
        p.clusters[0].cores = 8;
        p.clusters[1].cores = 8;
        let big = simulate(p).unwrap();
        let speedup = small.total_s / big.total_s;
        assert!(
            speedup > 1.5,
            "doubling cores should speed up compute-bound run: {speedup}"
        );
    }
}
