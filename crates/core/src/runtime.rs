//! The in-process cloud-bursting runtime (paper §III-B, Fig. 2).
//!
//! Real threads, real data, real (wall-clock-throttled) I/O. The three node
//! roles of the paper map onto:
//!
//! * **head** — the shared head core ([`Head`]) behind a mutex: the job pool,
//!   one result slot per cluster, and the global reduction performed on the
//!   caller's thread once every cluster has banked its result;
//! * **master** — one thread per cluster owning a [`MasterPool`]; serves
//!   slaves over channels, refills from the head on demand, merges its
//!   slaves' reduction objects (local combination) and ships the result to
//!   the head through the cluster's WAN throttle;
//! * **slave** — `cores` threads per cluster; each holds up to
//!   `1 + prefetch_depth` leases, retrieving the next chunk on a background
//!   fetcher thread (through the data fabric; multi-threaded ranged GETs
//!   when the data is remote — "job stealing") *while* folding the current
//!   one in cache-sized groups into its private reduction object, so
//!   retrieval overlaps computation. [`RuntimeConfig::prefetch_depth`]` = 0`
//!   restores the strictly serial fetch-then-fold loop.
//!
//! The scheduling behaviour (locality, consecutive grants, contention-aware
//! stealing, demand-driven balancing) lives entirely in [`crate::sched`] and
//! is shared verbatim with the discrete-event simulator.
//!
//! # Fault tolerance
//!
//! The generalized-reduction model makes recovery cheap (paper §III-C): the
//! only state worth preserving is each slave's small reduction object plus
//! the set of unprocessed chunks, both of which the head already tracks.
//! Concretely:
//!
//! * a slave whose retrieval fails (after the storage layer's own retries)
//!   reports the job *failed* and keeps pulling work — the head re-enqueues
//!   the chunk at the front of its file's queue so another slave or cluster
//!   picks it up with sequential reads intact;
//! * a slave that fails [`RuntimeConfig::slave_failure_threshold`]
//!   consecutive jobs retires gracefully: its partial reduction object still
//!   merges into the cluster result, and its remaining work drains to
//!   healthier slaves;
//! * a slave fail-stopped by the injected kill schedule behaves like a
//!   graceful retirement at a job boundary (the model's natural checkpoint);
//! * a master whose slaves have all died drains its undispatched leases back
//!   to the head, so surviving clusters can steal them — losing every node
//!   at one location degrades the run instead of hanging or panicking;
//! * the run errors only when a chunk has failed permanently everywhere
//!   (its failure budget, [`crate::sched::pool::PoolConfig::max_job_failures`],
//!   is exhausted) — surfaced as [`RuntimeError::JobsFailed`] naming the
//!   dead chunks.

use crate::api::{GRApp, ReductionObject};
use crate::config::RuntimeConfig;
use crate::deploy::{ClusterSpec, DataFabric, Deployment};
use crate::head::Head;
use crate::obs::EventKind;
use crate::report::{ClusterAccount, RecoveryStats, RunReport, SlaveStats};
use crate::sched::master::{MasterJob, MasterPool};
use crate::sched::pool::Grant;
use bytes::Bytes;
use cb_storage::layout::{ChunkId, DatasetLayout, LocationId, Placement};
use cb_storage::retrieve::Retriever;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a master blocks on its slave channel before re-checking whether
/// parked slaves can be fed (e.g. by jobs another cluster failed back).
const MASTER_POLL: Duration = Duration::from_millis(2);

/// Errors surfaced by a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Configuration or deployment rejected before starting.
    Validation(String),
    /// An I/O failure outside the per-job recovery path.
    Io(String),
    /// One or more chunks could not be processed anywhere: `dead` exhausted
    /// their failure budget, `unfinished` more were left with no cluster
    /// able to run them.
    JobsFailed {
        dead: Vec<ChunkId>,
        unfinished: usize,
        last_error: Option<String>,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Validation(s) => write!(f, "invalid configuration: {s}"),
            RuntimeError::Io(s) => write!(f, "I/O failure: {s}"),
            RuntimeError::JobsFailed {
                dead,
                unfinished,
                last_error,
            } => {
                write!(
                    f,
                    "{} job(s) failed permanently, {} left unprocessed",
                    dead.len(),
                    unfinished
                )?;
                if let Some(c) = dead.first() {
                    write!(f, " (first dead: {c})")?;
                }
                if let Some(e) = last_error {
                    write!(f, "; last error: {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// How a master reports one lease back to the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Processed and folded into the cluster's reduction object.
    Completed(ChunkId),
    /// Attempted and failed (charges the job's failure budget).
    Failed(ChunkId),
    /// Returned unattempted (reclaimed prefetch lease; uncharged).
    Released(ChunkId),
}

/// The master's view of the head node.
///
/// [`run`] talks to the in-process head core through this trait (the
/// loopback special case, implemented directly on `Mutex<Head>`); the
/// `cb-net` crate implements it over a TCP connection so the identical
/// master/slave machinery drives a remote head. Errors mean "the head is
/// unreachable" — the master winds its cluster down cleanly and lets the
/// head's own peer-loss handling reclaim the leases.
pub trait HeadPort: Sync {
    /// Request a job batch for the cluster at `loc`. The boolean is the
    /// head's exhaustion verdict, observed atomically with the (possibly
    /// empty) grant: once `true`, no job this location could run will ever
    /// become available again and the master may shut down.
    fn request_jobs(&self, loc: LocationId) -> io::Result<(Grant, bool)>;

    /// Report the outcome of one lease.
    fn resolve(&self, loc: LocationId, what: Resolution) -> io::Result<()>;
}

/// Everything one cluster produced, as returned by [`run_cluster`]: the
/// locally-combined reduction object (shipped through the WAN throttle if
/// one is configured) and the account the head builds its report row from.
#[derive(Debug)]
pub struct ClusterOutcome<R> {
    pub robj: Option<Box<R>>,
    /// Instant at which all of this cluster's slaves finished and the local
    /// combination completed (before the WAN transfer).
    pub local_done: Instant,
    pub account: ClusterAccount,
}

/// What happened to the last job a slave held.
enum JobOutcome {
    /// No job held (first request).
    None,
    /// Processed and folded into the slave's reduction object.
    Completed(ChunkId),
    /// Retrieval failed after the storage layer's retries; the chunk must
    /// go back to the head pool.
    Failed { chunk: ChunkId, error: String },
    /// A prefetched lease a retiring slave never folded. The head
    /// re-enqueues it without charging the job's failure budget — nothing
    /// is wrong with the chunk.
    Released(ChunkId),
}

/// Why a slave stopped pulling work before the pool drained.
enum RetireReason {
    /// Fail-stopped by the injected kill schedule.
    Killed,
    /// Too many consecutive job failures.
    TooManyFailures,
}

/// Slave → master messages.
///
/// A slave with `prefetch_depth > 0` holds several leases at once, so job
/// outcomes can no longer always piggyback on the next request: `Resolve`
/// reports an outcome without asking for more work.
enum ToMaster<R> {
    /// "Give me a job"; carries the outcome of a job this slave resolved
    /// since its last message (if any) so the master can report it to the
    /// head.
    Request { slave: usize, outcome: JobOutcome },
    /// Report an outcome *without* requesting another job — a retiring
    /// slave flushing the results of jobs it already folded (or failed),
    /// or returning a prefetched lease un-folded.
    Resolve { outcome: JobOutcome },
    /// Final report: stats plus this slave's reduction object. The partial
    /// reduction object is sent even on retirement — under generalized
    /// reduction it is a valid checkpoint and still merges. All outcomes
    /// and leases have been resolved/reclaimed by this point.
    Finished {
        stats: SlaveStats,
        robj: Box<R>,
        retired: Option<RetireReason>,
    },
}

/// Fetcher → fold-loop messages (the slave-side prefetch pipeline).
enum Fetched {
    /// The fetcher picked up a lease and is about to retrieve it. A recv
    /// that unblocks on this was waiting on the *master*, not on data, so
    /// it counts as sync time rather than fetch stall.
    Started,
    /// A retrieval finished (either way). `fetch_time` is the wall time
    /// the fetcher spent retrieving; `remote` is whether the chunk's home
    /// is another site.
    Data {
        job: MasterJob,
        result: io::Result<Bytes>,
        fetch_time: Duration,
        remote: bool,
        /// Whether a retrieval was actually begun (a `FetchStart` was
        /// emitted). Shutdown-synthesized replies carry `false`, so the
        /// drain loop knows not to emit a `FetchDiscarded` terminal.
        started: bool,
    },
    /// The master answered "no more jobs" to one of our requests.
    NoMore,
}

/// Outcome of [`run`]: the final reduction object plus measurements.
#[derive(Debug)]
pub struct RunOutcome<R> {
    pub result: R,
    pub report: RunReport,
}

/// Execute one pass of `app` over the dataset across the deployment.
///
/// Returns the globally reduced object and a [`RunReport`] with the same
/// breakdown the paper's figures use.
pub fn run<A: GRApp>(
    app: &A,
    params: &A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
) -> Result<RunOutcome<A::RObj>, RuntimeError> {
    let head = Head::new(layout, placement, cfg, deployment.clusters.clone())?;
    let data_sites: Vec<LocationId> = {
        let mut v: Vec<LocationId> = (0..placement.n_files())
            .map(|i| placement.home(cb_storage::layout::FileId(i as u32)))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    deployment
        .validate(&data_sites)
        .map_err(RuntimeError::Validation)?;
    for kill in &cfg.kill_schedule {
        let cores = deployment
            .clusters
            .get(kill.cluster)
            .map(|c| c.cores)
            .ok_or_else(|| {
                RuntimeError::Validation(format!(
                    "kill_schedule names cluster {} but only {} cluster(s) exist",
                    kill.cluster,
                    deployment.clusters.len()
                ))
            })?;
        if kill.slave >= cores {
            return Err(RuntimeError::Validation(format!(
                "kill_schedule names slave {} of cluster {} but it has {} core(s)",
                kill.slave, kill.cluster, cores
            )));
        }
    }

    let t0 = head.t0();
    let head = Mutex::new(head);

    // Each cluster banks its result as it finishes. The scope re-raises a
    // cluster thread's panic, so every slot is banked once it closes.
    std::thread::scope(|scope| {
        for (ci, cluster) in deployment.clusters.iter().enumerate() {
            let head = &head;
            scope.spawn(move || {
                let out = run_cluster(
                    app,
                    params,
                    layout,
                    placement,
                    &deployment.fabric,
                    cluster,
                    ci,
                    cfg,
                    head,
                    t0,
                );
                head.lock().bank(ci, out.robj, out.account, out.local_done);
            });
        }
    });
    head.into_inner().finish(|_, robj| Ok(*robj))
}

/// Report a slave's job outcome to the head. An unreachable head (only
/// possible through a networked [`HeadPort`]) is recorded, not fatal.
fn note_outcome(
    head: &dyn HeadPort,
    loc: LocationId,
    outcome: JobOutcome,
    recovery: &mut RecoveryStats,
    first_error: &mut Option<String>,
) {
    let what = match outcome {
        JobOutcome::None => return,
        JobOutcome::Completed(chunk) => Resolution::Completed(chunk),
        JobOutcome::Released(chunk) => Resolution::Released(chunk),
        JobOutcome::Failed { chunk, error } => {
            recovery.fetch_failures += 1;
            first_error.get_or_insert(error);
            Resolution::Failed(chunk)
        }
    };
    if let Err(e) = head.resolve(loc, what) {
        first_error.get_or_insert(format!("head unreachable: {e}"));
    }
}

/// Run one cluster — the master loop on the calling thread plus `cores`
/// slave threads — against a head reached through `head`.
///
/// This is the unit [`run`] composes in-process (one call per cluster, all
/// sharing a `Mutex<Head>` loopback head) and `cb-net` runs standalone
/// in a worker process (with a TCP-backed port). The cluster's reduction
/// object is shipped through the WAN throttle before returning. The
/// account's wall time runs from `t0`, the run's start.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster<A: GRApp>(
    app: &A,
    params: &A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    fabric: &DataFabric,
    cluster: &ClusterSpec,
    cluster_idx: usize,
    cfg: &RuntimeConfig,
    head: &dyn HeadPort,
    t0: Instant,
) -> ClusterOutcome<A::RObj> {
    let loc = cluster.location;
    let retry_counter = Arc::new(AtomicU64::new(0));
    let n_slaves = cluster.cores;
    let (to_master_tx, rx) = unbounded::<ToMaster<A::RObj>>();

    std::thread::scope(|scope| {
        let mut job_txs: Vec<Sender<Option<MasterJob>>> = Vec::with_capacity(n_slaves);
        for si in 0..n_slaves {
            let (job_tx, job_rx) = unbounded::<Option<MasterJob>>();
            job_txs.push(job_tx);
            let to_master = to_master_tx.clone();
            let retry_counter = Arc::clone(&retry_counter);
            scope.spawn(move || {
                slave_loop(
                    app,
                    params,
                    layout,
                    placement,
                    fabric,
                    cfg,
                    cluster,
                    cluster_idx,
                    si,
                    retry_counter,
                    to_master,
                    job_rx,
                )
            });
        }
        drop(to_master_tx);

        // --- Master loop (this thread): serve slaves, refill from the
        // head, merge the slaves' reduction objects. ---
        let mut pool =
            MasterPool::new(cfg.master_low_water).with_sink(cfg.sink.clone(), cluster_idx as u32);
        let mut stats: Vec<SlaveStats> = Vec::with_capacity(n_slaves);
        let mut robj_acc: Option<Box<A::RObj>> = None;
        let mut recovery = RecoveryStats::default();
        let mut error: Option<String> = None;
        let mut finished_slaves = 0usize;
        // Slaves that asked for a job the pool could not supply yet. An
        // empty head grant means "nothing right now", not "never": a job
        // leased to another cluster may still fail back, so parked slaves
        // wait until the head confirms exhaustion.
        let mut parked: VecDeque<usize> = VecDeque::new();

        let refill = |pool: &mut MasterPool, error: &mut Option<String>| {
            pool.mark_requested();
            // The request/grant exchange crosses the master↔head network.
            if !cluster.head_rtt.is_zero() {
                std::thread::sleep(cluster.head_rtt);
            }
            match head.request_jobs(loc) {
                Ok((grant, exhausted)) => {
                    pool.on_grant(grant.jobs, grant.stolen);
                    if exhausted {
                        pool.mark_exhausted();
                    }
                }
                Err(e) => {
                    // The head is gone; there will be no more work. Wind
                    // the cluster down so slaves drain and finish.
                    error.get_or_insert(format!("cluster {}: head unreachable: {e}", cluster.name));
                    pool.mark_exhausted();
                }
            }
        };

        while finished_slaves < n_slaves {
            match rx.recv_timeout(MASTER_POLL) {
                Ok(ToMaster::Request { slave, outcome }) => {
                    note_outcome(head, loc, outcome, &mut recovery, &mut error);
                    parked.push_back(slave);
                }
                Ok(ToMaster::Resolve { outcome }) => {
                    note_outcome(head, loc, outcome, &mut recovery, &mut error)
                }
                Ok(ToMaster::Finished {
                    stats: s,
                    robj,
                    retired,
                }) => {
                    match retired {
                        Some(RetireReason::Killed) => recovery.slaves_killed += 1,
                        Some(RetireReason::TooManyFailures) => recovery.slaves_retired += 1,
                        None => {}
                    }
                    finished_slaves += 1;
                    stats.push(s);
                    match robj_acc.as_mut() {
                        None => robj_acc = Some(robj),
                        Some(acc) => acc.merge(*robj),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            // Feed parked slaves, refilling from the head as needed.
            while let Some(&slave) = parked.front() {
                if let Some(job) = pool.take() {
                    parked.pop_front();
                    let _ = job_txs[slave].send(Some(job));
                } else if pool.finished() {
                    parked.pop_front();
                    let _ = job_txs[slave].send(None);
                } else {
                    refill(&mut pool, &mut error);
                    if pool.is_empty() && !pool.finished() {
                        // Nothing available right now; re-poll after MASTER_POLL.
                        break;
                    }
                }
            }
            // Prefetch below the low-water mark so slaves rarely block on a
            // head round-trip.
            if finished_slaves < n_slaves && pool.should_request() {
                refill(&mut pool, &mut error);
            }
        }

        // A dying master returns its undispatched leases so surviving
        // clusters can steal them (all-slaves-lost is survivable).
        for job in pool.drain() {
            let _ = head.resolve(loc, Resolution::Failed(job.chunk));
        }

        let local_done = Instant::now();
        // Ship the cluster's reduction object to the head through the WAN.
        if let Some(robj) = &robj_acc {
            let t_ship = Instant::now();
            if let Some(wan) = &cluster.wan_to_head {
                wan.acquire(robj.size_bytes() as u64);
            }
            cfg.sink.emit(
                Some(cluster_idx as u32),
                None,
                EventKind::RobjMerge {
                    bytes: robj.size_bytes() as u64,
                    ns: t_ship.elapsed().as_nanos() as u64,
                },
            );
        }
        recovery.retries = retry_counter.load(Ordering::Relaxed);
        ClusterOutcome {
            robj: robj_acc,
            local_done,
            account: ClusterAccount {
                slaves: stats,
                recovery,
                wall: local_done.saturating_duration_since(t0),
                error,
            },
        }
    })
}

/// One slave thread: pull jobs, retrieve, fold — and survive failures.
#[allow(clippy::too_many_arguments)]
fn slave_loop<A: GRApp>(
    app: &A,
    params: &A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    fabric: &DataFabric,
    cfg: &RuntimeConfig,
    cluster: &ClusterSpec,
    cluster_idx: usize,
    slave: usize,
    retry_counter: Arc<AtomicU64>,
    to_master: Sender<ToMaster<A::RObj>>,
    job_rx: Receiver<Option<MasterJob>>,
) {
    let my_loc = cluster.location;
    let (ci, si) = (cluster_idx as u32, slave as u32);
    // Jitter-decorrelate retries across slaves while staying deterministic.
    let jitter_seed = ((cluster_idx as u64) << 32) ^ (slave as u64 + 1);
    let mut remote_retriever = Retriever::new(cfg.retrieval_threads)
        .with_retries(cfg.retrieval_retries, cfg.retrieval_backoff)
        .with_deadline(cfg.retrieval_deadline)
        .with_jitter_seed(jitter_seed)
        .with_retry_counter(Arc::clone(&retry_counter));
    let mut local_retriever = Retriever::sequential()
        .with_retries(cfg.retrieval_retries, cfg.retrieval_backoff)
        .with_deadline(cfg.retrieval_deadline)
        .with_jitter_seed(jitter_seed)
        .with_retry_counter(Arc::clone(&retry_counter));
    if cfg.sink.is_enabled() {
        // The hook fires where the storage layer's retry counter
        // increments, so `retry` events match `RecoveryStats::retries`.
        let retry_hook = |sink: crate::obs::SinkHandle| -> cb_storage::retrieve::RetryHook {
            Arc::new(move |attempt: u32| {
                sink.emit(
                    Some(ci),
                    Some(si),
                    EventKind::Retry {
                        attempt: attempt as u64,
                    },
                )
            })
        };
        remote_retriever = remote_retriever.with_retry_hook(retry_hook(cfg.sink.clone()));
        local_retriever = local_retriever.with_retry_hook(retry_hook(cfg.sink.clone()));
    }
    let compute_ns = cluster
        .compute_ns_per_unit
        .unwrap_or(cfg.synthetic_compute_ns_per_unit);
    let kill_after: Option<u64> = cfg
        .kill_schedule
        .iter()
        .find(|k| k.cluster == cluster_idx && k.slave == slave)
        .map(|k| k.after_jobs);

    let mut robj = app.init(params);
    let mut stats = SlaveStats::default();
    let mut retired: Option<RetireReason> = None;
    let mut consecutive_failures = 0u32;

    // The prefetch pipeline: this slave holds up to `1 + prefetch_depth`
    // leases at once — the job being folded plus the lookahead a background
    // fetcher thread is retrieving — so retrieval overlaps computation.
    // Depth 0 degenerates to the strictly serial fetch-then-fold loop.
    let capacity = 1 + cfg.prefetch_depth;
    // Raised when this slave stops folding (kill, retirement, or drain):
    // the fetcher skips further retrievals and hands leases straight back
    // so they can be reclaimed.
    let shutting_down = AtomicBool::new(false);
    let (fetch_tx, fetch_rx) = unbounded::<Fetched>();

    std::thread::scope(|fs| {
        // --- Background fetcher: owns the master->slave job channel. ---
        let shutting_down = &shutting_down;
        let local_retriever = &local_retriever;
        let remote_retriever = &remote_retriever;
        fs.spawn(move || {
            while let Ok(msg) = job_rx.recv() {
                let Some(job) = msg else {
                    let _ = fetch_tx.send(Fetched::NoMore);
                    continue;
                };
                if shutting_down.load(Ordering::Relaxed) {
                    // Don't start work the fold loop will discard; hand the
                    // lease back immediately for reclaim.
                    let _ = fetch_tx.send(Fetched::Data {
                        job,
                        result: Err(io::Error::new(
                            io::ErrorKind::Interrupted,
                            "slave shutting down",
                        )),
                        fetch_time: Duration::ZERO,
                        remote: false,
                        started: false,
                    });
                    continue;
                }
                let _ = fetch_tx.send(Fetched::Started);
                cfg.sink.emit(
                    Some(ci),
                    Some(si),
                    EventKind::FetchStart {
                        chunk: job.chunk.0 as u64,
                    },
                );
                let chunk = layout.chunk(job.chunk);
                let file = layout.file(chunk.file);
                let home = placement.home(chunk.file);
                let store = fabric
                    .store_for(my_loc, home)
                    .expect("deployment validated");
                let retriever = if home == my_loc {
                    local_retriever
                } else {
                    remote_retriever
                };
                let t_r = Instant::now();
                let result = retriever.fetch(store.as_ref(), &file.name, chunk.offset, chunk.len);
                let send = fetch_tx.send(Fetched::Data {
                    job,
                    result,
                    fetch_time: t_r.elapsed(),
                    remote: home != my_loc,
                    started: true,
                });
                if send.is_err() {
                    break;
                }
            }
        });

        // --- Fold loop (this thread). ---
        // Requests sent to the master whose reply has not yet surfaced
        // from the fetcher (as Data or NoMore).
        let mut outstanding = 0usize;
        let mut no_more = false;
        // Outcomes of resolved jobs waiting to piggyback on the next
        // request (or be flushed as Resolve at shutdown).
        let mut pending: VecDeque<JobOutcome> = VecDeque::new();

        loop {
            // Kill and retirement checks happen at job boundaries — the
            // generalized-reduction model's natural checkpoint — so the
            // accumulated reduction object survives the "crash".
            if let Some(n) = kill_after {
                if stats.jobs >= n {
                    retired = Some(RetireReason::Killed);
                    break;
                }
            }
            if consecutive_failures >= cfg.slave_failure_threshold {
                retired = Some(RetireReason::TooManyFailures);
                break;
            }

            // Keep the pipeline primed: one request per free lease slot,
            // each carrying one resolved outcome if available.
            let mut master_gone = false;
            while !no_more && outstanding < capacity {
                let request = ToMaster::Request {
                    slave,
                    outcome: pending.pop_front().unwrap_or(JobOutcome::None),
                };
                if to_master.send(request).is_err() {
                    master_gone = true;
                    break;
                }
                outstanding += 1;
            }
            // Once the master said "no more", leftover outcomes cannot
            // piggyback: flush them so the head can observe exhaustion.
            while let Some(outcome) = pending.pop_front() {
                if to_master.send(ToMaster::Resolve { outcome }).is_err() {
                    master_gone = true;
                    break;
                }
            }
            if master_gone || outstanding == 0 {
                break; // drained (or master gone)
            }

            let t_wait = Instant::now();
            let Ok(msg) = fetch_rx.recv() else { break };
            match msg {
                Fetched::Started => {} // master wait, not a fetch stall
                Fetched::NoMore => {
                    no_more = true;
                    outstanding -= 1;
                }
                Fetched::Data {
                    job,
                    result,
                    fetch_time,
                    remote,
                    ..
                } => {
                    // Only waits that end in data count as fetch stall:
                    // `Started` precedes `Data` in channel order, so this
                    // block was spent waiting on the retrieval itself.
                    let waited = t_wait.elapsed();
                    stats.fetch_stall += waited;
                    cfg.sink.emit(
                        Some(ci),
                        Some(si),
                        EventKind::Stall {
                            ns: waited.as_nanos() as u64,
                        },
                    );
                    outstanding -= 1;
                    stats.retrieval += fetch_time;
                    let chunk = layout.chunk(job.chunk);
                    match result {
                        Ok(bytes) => {
                            consecutive_failures = 0;
                            if remote {
                                stats.bytes_remote += chunk.len;
                            } else {
                                stats.bytes_local += chunk.len;
                            }
                            cfg.sink.emit(
                                Some(ci),
                                Some(si),
                                EventKind::FetchEnd {
                                    chunk: job.chunk.0 as u64,
                                    bytes: chunk.len,
                                    remote,
                                    ns: fetch_time.as_nanos() as u64,
                                },
                            );
                            cfg.sink.emit(
                                Some(ci),
                                Some(si),
                                EventKind::ProcessStart {
                                    chunk: job.chunk.0 as u64,
                                },
                            );
                            // Process: decode, then fold in cache-sized
                            // unit groups.
                            let t_p = Instant::now();
                            let units = app.decode_chunk(chunk, &bytes);
                            for group in units.chunks(cfg.cache_group_units) {
                                for u in group {
                                    app.local_reduce(params, &mut robj, u);
                                }
                                if compute_ns > 0 {
                                    burn(Duration::from_nanos(compute_ns * group.len() as u64));
                                }
                            }
                            let took = t_p.elapsed();
                            stats.processing += took;
                            stats.jobs += 1;
                            stats.units += units.len() as u64;
                            if job.stolen {
                                stats.stolen_jobs += 1;
                            }
                            cfg.sink.emit(
                                Some(ci),
                                Some(si),
                                EventKind::ProcessEnd {
                                    chunk: job.chunk.0 as u64,
                                    units: units.len() as u64,
                                    ns: took.as_nanos() as u64,
                                    stolen: job.stolen,
                                },
                            );
                            pending.push_back(JobOutcome::Completed(job.chunk));
                        }
                        Err(e) => {
                            // The job is NOT complete: report it failed so
                            // the head re-enqueues it, and keep pulling.
                            cfg.sink.emit(
                                Some(ci),
                                Some(si),
                                EventKind::FetchFailed {
                                    chunk: job.chunk.0 as u64,
                                    ns: fetch_time.as_nanos() as u64,
                                },
                            );
                            let file = layout.file(chunk.file);
                            let home = placement.home(chunk.file);
                            let store = fabric
                                .store_for(my_loc, home)
                                .expect("deployment validated");
                            pending.push_back(JobOutcome::Failed {
                                chunk: job.chunk,
                                error: format!(
                                    "slave {slave}@{}: fetching {} [{}+{}] from {}: {e}",
                                    cluster.name,
                                    file.name,
                                    chunk.offset,
                                    chunk.len,
                                    store.name()
                                ),
                            });
                            consecutive_failures += 1;
                        }
                    }
                }
            }
        }

        // --- Shutdown: resolve what was folded, reclaim what was not. ---
        // Ordering matters for liveness: outcomes flush *before* draining
        // replies, because a held completion blocks pool exhaustion, which
        // blocks the master's replies to our own outstanding requests.
        shutting_down.store(true, Ordering::Relaxed);
        for outcome in pending.drain(..) {
            let _ = to_master.send(ToMaster::Resolve { outcome });
        }
        while outstanding > 0 {
            let Ok(msg) = fetch_rx.recv() else { break };
            match msg {
                Fetched::Started => {}
                Fetched::NoMore => outstanding -= 1,
                Fetched::Data { job, started, .. } => {
                    // Fetched or not, the job was never folded: reclaim it
                    // immediately so another slave can process it.
                    outstanding -= 1;
                    if started {
                        // Close the fetch_start pairing for a retrieval
                        // whose result is being thrown away.
                        cfg.sink.emit(
                            Some(ci),
                            Some(si),
                            EventKind::FetchDiscarded {
                                chunk: job.chunk.0 as u64,
                            },
                        );
                    }
                    let outcome = JobOutcome::Released(job.chunk);
                    let _ = to_master.send(ToMaster::Resolve { outcome });
                }
            }
        }

        if let Some(r) = &retired {
            cfg.sink.emit(
                Some(ci),
                Some(si),
                EventKind::SlaveRetired {
                    killed: matches!(r, RetireReason::Killed),
                },
            );
        }
        // Even a retiring slave's partial reduction object merges: under
        // GR it is a valid checkpoint of the work it did complete.
        let _ = to_master.send(ToMaster::Finished {
            stats,
            robj: Box::new(robj),
            retired,
        });
        // The scope now joins the fetcher: it exits once the master hangs
        // up the job channel (after every slave has finished).
    });
}

/// Spin (short) or sleep (long) for `d` — synthetic compute weight.
fn burn(d: Duration) {
    if d < Duration::from_micros(200) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(d);
    }
}
