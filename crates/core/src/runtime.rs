//! The in-process cloud-bursting runtime (paper §III-B, Fig. 2).
//!
//! Real threads, real data, real (wall-clock-throttled) I/O. The three node
//! roles of the paper map onto:
//!
//! * **head** — the shared head core ([`Head`]) behind a mutex: the job pool,
//!   one result slot per cluster, and the global reduction performed on the
//!   caller's thread once every cluster has banked its result;
//! * **master** — not a thread but the cluster's job queue
//!   ([`MasterPool`]), shared by its slaves behind a lock: a slave takes its
//!   next lease directly, and the one whose take drops the queue to low water
//!   sends the cluster's single refill request to the head. The head holds a
//!   request it cannot answer yet; after an empty grant the master asks again
//!   only once one of its own leases comes back, so no wait runs on a timer.
//!   Once the slaves finish, the calling thread merges their reduction
//!   objects in slave-index order (local combination) and ships the result
//!   to the head through the cluster's WAN throttle;
//! * **slave** — `cores` threads per cluster; each holds up to
//!   `1 + prefetch_depth` leases, retrieving the next chunk on a background
//!   fetcher thread (through the data fabric, over as many parallel ranged
//!   GETs as the path's store asks for; reading another site's data is
//!   "job stealing") *while* folding the current one into its private
//!   reduction object through [`GRApp::fold_chunk`], so retrieval
//!   overlaps computation. [`RuntimeConfig::prefetch_depth`]` = 0`
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
//! * a slave whose retrieval fails (after the storage layer's own retries),
//!   or whose app rejects the chunk's bytes ([`crate::api::DecodeError`]),
//!   reports the job *failed* and keeps pulling work — the head re-enqueues
//!   the chunk at the front of its file's queue so another slave or cluster
//!   picks it up with sequential reads intact;
//! * a slave that fails [`RuntimeConfig::slave_failure_threshold`]
//!   consecutive jobs retires gracefully: its partial reduction object still
//!   merges into the cluster result, and its remaining work drains to
//!   healthier slaves;
//! * a slave fail-stopped by the injected kill schedule behaves like a
//!   graceful retirement at a job boundary (the model's natural checkpoint);
//! * a cluster whose slaves have all died drains its undispatched leases
//!   back to the head, so surviving clusters can steal them — losing every node
//!   at one location degrades the run instead of hanging or panicking;
//! * a cluster whose app code panics is a lost cluster: the panicking slave
//!   winds its cluster's queue down so its siblings drain, and the head
//!   forfeits everything the cluster held or completed ([`Head::lose`]),
//!   exactly as the `cb-net` head does when a worker's link drops. Other
//!   clusters redo that work; if none can, the run ends in `JobsFailed`
//!   naming the panic;
//! * the run errors only when a chunk has failed permanently everywhere
//!   (its failure budget, [`crate::sched::pool::PoolConfig::max_job_failures`],
//!   is exhausted) — surfaced as [`RuntimeError::JobsFailed`] naming the
//!   dead chunks.

use crate::api::{GRApp, ReductionObject};
use crate::config::RuntimeConfig;
use crate::deploy::{ClusterSpec, DataFabric, Deployment};
use crate::head::{Head, SharedHead};
use crate::obs::{Clock, EventKind};
use crate::report::{ClusterAccount, RecoveryStats, RunReport, SlaveStats};
use crate::sched::master::{MasterJob, MasterPool};
use crate::sched::pool::Grant;
use bytes::Bytes;
use cb_storage::layout::{ChunkId, DatasetLayout, LocationId, Placement};
use cb_storage::retrieve::{Retriever, RetryHook};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::any::Any;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Data units per synthetic-compute slice. The paper folds in unit groups
/// sized to the processor cache; here the fold reads the chunk in place,
/// and this only sets the granularity of the synthetic compute weight.
const CACHE_GROUP_UNITS: u64 = 4096;

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
/// loopback special case: the head behind a lock); the `cb-net` crate
/// implements it over a TCP connection so the identical master/slave
/// machinery drives a remote head. Errors mean "the head is unreachable" —
/// the master winds its cluster down cleanly and lets the head's own
/// peer-loss handling reclaim the leases. A cluster's slaves call it from
/// their own threads: `resolve` concurrently, `request_jobs` at most one at
/// a time per cluster.
pub trait HeadPort: Sync {
    /// Request a job batch for the cluster at `loc`. The boolean is the
    /// head's exhaustion verdict, observed atomically with the (possibly
    /// empty) grant: once `true`, no job this location could run will ever
    /// become available again and the master may shut down.
    ///
    /// It may block. A head holds a request whose grant would be empty and
    /// not exhausted while `loc` holds no lease, until the pool changes
    /// ([`Head::should_hold`]). So an empty, non-exhausted answer comes
    /// either at once, to a cluster that still holds leases, or at the
    /// head's hold bound (the wire's half `io_timeout`). The master asks
    /// again once it hands a lease back or its last one resolves, or at
    /// once if it holds none.
    fn request_jobs(&self, loc: LocationId) -> io::Result<(Grant, bool)>;

    /// Report the outcome of one lease.
    fn resolve(&self, loc: LocationId, what: Resolution) -> io::Result<()>;
}

/// Everything one cluster produced, as returned by [`run_cluster`]: the
/// locally-combined reduction object (shipped through the WAN throttle if
/// one is configured) and the account the head builds its report row from.
/// The account's wall time ends when the local combination completed,
/// before the WAN transfer.
#[derive(Debug)]
pub struct ClusterOutcome<R> {
    pub robj: Option<Box<R>>,
    pub account: ClusterAccount,
}

/// Fetcher → fold-loop messages (the slave-side prefetch pipeline).
enum Fetched {
    /// The fetcher took a lease and is about to retrieve it. A recv that
    /// unblocks on this was waiting on the *master*, not on data, so it
    /// counts as sync time rather than fetch stall.
    Started,
    /// A retrieval finished (either way).
    Data(Fetch),
    /// No lease for this credit: the cluster has no more jobs, or this
    /// slave is shutting down.
    NoMore,
}

struct Fetch {
    job: MasterJob,
    /// The chunk's bytes, or the failure already worded for the report.
    result: Result<Bytes, String>,
    /// Wall time the fetcher spent retrieving.
    took: Duration,
    /// Whether the chunk's home is another site.
    remote: bool,
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
    let t0 = Instant::now();
    let clusters = deployment.clusters.clone();
    let head = Head::new(layout, placement, cfg, clusters, Clock::Wall(t0))?;
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
    let head = SharedHead::new(head);

    // Each cluster banks its result as it finishes; a cluster that panics
    // is lost, so every slot is banked or lost once the scope closes.
    std::thread::scope(|scope| {
        for (ci, cluster) in deployment.clusters.iter().enumerate() {
            let head = &head;
            scope.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let fabric = &deployment.fabric;
                    run_cluster(
                        app, params, layout, placement, fabric, cluster, ci, cfg, head, t0,
                    )
                }));
                head.update(|head| match out {
                    Ok(out) => {
                        let done = out.account.wall;
                        head.bank(ci, out.robj, out.account, done);
                    }
                    Err(panic) => {
                        let why = panic_message(panic.as_ref());
                        head.note_error(format!("cluster {}: panicked: {why}", cluster.name));
                        head.lose(ci);
                    }
                });
            });
        }
    });
    head.into_inner().finish(|_, robj| Ok(*robj))
}

/// The text of a panic payload.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    match panic.downcast_ref::<&str>() {
        Some(s) => s,
        None => panic.downcast_ref::<String>().map_or("(no message)", |s| s),
    }
}

/// A cluster's master (paper §III-B): the job queue its slaves share.
///
/// There is at most one head request in flight per cluster — the
/// [`MasterPool`]'s `request_in_flight` rule — and the slave that marks it
/// sends it, outside the lock; the others keep taking queued jobs or wait
/// on `ready` while the queue is empty.
struct Master<'a> {
    queue: std::sync::Mutex<Queue>,
    /// Signalled whenever a head reply lands in the queue, and by the
    /// resolution that ends a stall.
    ready: Condvar,
    head: &'a dyn HeadPort,
    cluster: &'a ClusterSpec,
    /// The cluster's index in the deployment.
    idx: usize,
    cfg: &'a RuntimeConfig,
    /// Fetch failures, retries and retired/killed slaves: the slaves'
    /// storage retry hooks count into it, and each slave adds its own
    /// tally as it exits.
    recovery: Arc<Mutex<RecoveryStats>>,
    /// First failure observed in this cluster (diagnostics).
    error: Mutex<Option<String>>,
}

struct Queue {
    pool: MasterPool,
    /// Leases granted to this cluster and not yet resolved.
    held: usize,
    /// Leases this cluster has handed back unfinished (failed or released).
    returned: u64,
    /// The head answered the last request empty, not exhausted, while this
    /// cluster holds leases: ask again once one is handed back or the last
    /// resolves, as only that can change the answer.
    stalled: bool,
}

impl Master<'_> {
    /// The next lease for a slave, or `None` once the head has confirmed
    /// that this cluster will never receive another job.
    fn take(&self) -> Option<MasterJob> {
        let mut q = self.queue.lock().unwrap();
        loop {
            let job = q.pool.take();
            if job.is_none() && q.pool.finished() {
                return None;
            }
            if q.pool.should_request() && !q.stalled {
                q = self.refill(q);
                if job.is_some() {
                    return job;
                }
            } else if job.is_some() {
                return job;
            } else {
                q = self.ready.wait(q).unwrap();
            }
        }
    }

    /// Send the cluster's refill request outside the lock `q` holds, and
    /// queue the head's reply.
    fn refill<'q>(&'q self, mut q: MutexGuard<'q, Queue>) -> MutexGuard<'q, Queue> {
        q.pool.mark_requested();
        let sent_at = q.returned;
        drop(q);
        // The request/grant exchange crosses the master↔head network.
        if !self.cluster.head_rtt.is_zero() {
            std::thread::sleep(self.cluster.head_rtt);
        }
        let reply = self.head.request_jobs(self.cluster.location);
        let mut q = self.queue.lock().unwrap();
        match reply {
            Ok((grant, exhausted)) => {
                let empty = grant.is_empty() && !exhausted;
                q.stalled = empty && q.held > 0 && q.returned == sent_at;
                q.held += grant.jobs.len();
                q.pool.on_grant(grant.jobs, grant.stolen);
                if exhausted {
                    q.pool.mark_exhausted();
                }
            }
            Err(e) => {
                // The head is gone; there will be no more work. Wind the
                // cluster down so slaves drain and finish.
                let name = &self.cluster.name;
                self.note_error(format!("cluster {name}: head unreachable: {e}"));
                q.pool.mark_exhausted();
            }
        }
        self.ready.notify_all();
        q
    }

    /// Report one lease to the head. An unreachable head (only possible
    /// through a networked [`HeadPort`]) is recorded, not fatal.
    fn resolve(&self, what: Resolution) {
        if let Err(e) = self.head.resolve(self.cluster.location, what) {
            self.note_error(format!("head unreachable: {e}"));
        }
        let mut q = self.queue.lock().unwrap();
        q.held -= 1;
        let returned = !matches!(what, Resolution::Completed(_));
        q.returned += u64::from(returned);
        if q.stalled && (returned || q.held == 0) {
            q.stalled = false;
            drop(q);
            self.ready.notify_all();
        }
    }

    fn note_error(&self, error: String) {
        self.error.lock().get_or_insert(error);
    }
}

/// Dropped while its slave unwinds from a panic, it marks the cluster's
/// queue exhausted and wakes every waiter. No lease the panicking slave
/// holds will ever resolve, so otherwise its fetcher (which the slave's
/// scope joins) and its siblings could wait on the head forever.
struct WindDownOnPanic<'a, 'b>(&'a Master<'b>);

impl Drop for WindDownOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.pool.mark_exhausted();
            drop(q);
            self.0.ready.notify_all();
        }
    }
}

/// One slave's account, folded from the events it records.
#[derive(Default)]
struct Tally {
    stats: SlaveStats,
    recovery: RecoveryStats,
}

/// Run one cluster — `cores` slave threads sharing one master queue —
/// against a head reached through `head`.
///
/// This is the unit [`run`] composes in-process (one call per cluster, all
/// sharing one loopback head) and `cb-net` runs standalone
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
    let pool =
        MasterPool::new(cfg.master_low_water).with_sink(cfg.sink.clone(), cluster_idx as u32);
    let queue = Queue {
        pool,
        held: 0,
        returned: 0,
        stalled: false,
    };
    let master = Master {
        queue: std::sync::Mutex::new(queue),
        ready: Condvar::new(),
        head,
        cluster,
        idx: cluster_idx,
        cfg,
        recovery: Arc::default(),
        error: Mutex::default(),
    };
    let slave = |si| slave_loop(app, params, layout, placement, fabric, &master, si);
    let slaves: Vec<(SlaveStats, Box<A::RObj>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cluster.cores)
            .map(|si| scope.spawn(move || slave(si)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });

    // A cluster whose slaves all died returns its undispatched leases so
    // surviving clusters can steal them (all-slaves-lost is survivable).
    for job in master.queue.into_inner().unwrap().pool.drain() {
        let _ = head.resolve(cluster.location, Resolution::Failed(job.chunk));
    }

    // Local combination, in slave-index order.
    let (stats, robjs): (Vec<SlaveStats>, Vec<_>) = slaves.into_iter().unzip();
    let robj = robjs.into_iter().reduce(|mut acc, r| {
        acc.merge(*r);
        acc
    });
    let local_done = Instant::now();
    // Ship the cluster's reduction object to the head through the WAN.
    if let Some(robj) = &robj {
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
    let recovery = master.recovery.lock().clone();
    ClusterOutcome {
        robj,
        account: ClusterAccount {
            slaves: stats,
            recovery,
            wall: local_done.saturating_duration_since(t0),
            error: master.error.into_inner(),
        },
    }
}

/// One slave thread: take jobs, retrieve, fold, resolve — and survive
/// failures. Returns its stats and its (possibly partial) reduction object.
fn slave_loop<A: GRApp>(
    app: &A,
    params: &A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    fabric: &DataFabric,
    master: &Master<'_>,
    slave: usize,
) -> (SlaveStats, Box<A::RObj>) {
    let (cluster, cluster_idx, cfg) = (master.cluster, master.idx, master.cfg);
    let my_loc = cluster.location;
    let (ci, si) = (cluster_idx as u32, slave as u32);
    let emit = |kind| cfg.sink.emit(Some(ci), Some(si), kind);
    // Counted events go through `record`: folded into this slave's tally,
    // then emitted, so the account is a view of the events.
    let record = |tally: &mut Tally, kind: EventKind| {
        tally.stats.observe(&kind);
        tally.recovery.observe(&kind);
        emit(kind);
    };
    // The one retry observer: it fires where the storage layer retries and
    // records the `retry` event into the cluster's tally.
    let retry_hook: RetryHook = {
        let (recovery, sink) = (Arc::clone(&master.recovery), cfg.sink.clone());
        Arc::new(move |attempt: u32| {
            let kind = EventKind::Retry {
                attempt: attempt as u64,
            };
            recovery.lock().observe(&kind);
            sink.emit(Some(ci), Some(si), kind);
        })
    };
    // Jitter-decorrelate retries across slaves while staying deterministic.
    let jitter_seed = ((cluster_idx as u64) << 32) ^ (slave as u64 + 1);
    // Each path's store sets how many parallel GETs a fetch through it uses.
    let retriever = Retriever::new()
        .with_retries(cfg.retrieval_retries, cfg.retrieval_backoff)
        .with_deadline(cfg.retrieval_deadline)
        .with_jitter_seed(jitter_seed)
        .with_retry_hook(retry_hook);
    let compute_ns = cluster
        .compute_ns_per_unit
        .unwrap_or(cfg.synthetic_compute_ns_per_unit);
    let kill_after: Option<u64> = cfg
        .kill_schedule
        .iter()
        .find(|k| k.cluster == cluster_idx && k.slave == slave)
        .map(|k| k.after_jobs);

    let mut robj = app.init(params);
    let mut tally = Tally::default();
    // `Some(killed)` once this slave stops before the cluster drains.
    let mut retired: Option<bool> = None;
    let mut consecutive_failures = 0u32;

    // The prefetch pipeline: this slave holds up to `1 + prefetch_depth`
    // leases at once — the job being folded plus the lookahead a background
    // fetcher thread is retrieving — so retrieval overlaps computation.
    // Depth 0 degenerates to the strictly serial fetch-then-fold loop.
    let capacity = 1 + cfg.prefetch_depth;
    // Raised when this slave retires (kill or too many failures): the
    // fetcher takes no further leases.
    let shutting_down = AtomicBool::new(false);

    std::thread::scope(|fs| {
        let _wind_down = WindDownOnPanic(master);
        // One credit per free lease slot; the fetcher answers each with
        // `Data` or `NoMore`.
        let (credit_tx, credits) = unbounded::<()>();
        let (fetch_tx, fetch_rx) = unbounded::<Fetched>();
        let shutting_down = &shutting_down;
        let retriever = &retriever;

        // --- Background fetcher: takes leases from the master. ---
        fs.spawn(move || {
            while credits.recv().is_ok() {
                let stopping = || shutting_down.load(Ordering::Relaxed);
                let job = if stopping() { None } else { master.take() };
                let job = match job {
                    // Don't start work the fold loop will discard.
                    Some(job) if stopping() => {
                        master.resolve(Resolution::Released(job.chunk));
                        None
                    }
                    job => job,
                };
                let Some(job) = job else {
                    let _ = fetch_tx.send(Fetched::NoMore);
                    continue;
                };
                let _ = fetch_tx.send(Fetched::Started);
                emit(EventKind::FetchStart {
                    chunk: job.chunk.0 as u64,
                });
                let chunk = layout.chunk(job.chunk);
                let (file, off, len) = (&layout.file(chunk.file).name, chunk.offset, chunk.len);
                let home = placement.home(chunk.file);
                let store = fabric
                    .store_for(my_loc, home)
                    .expect("deployment validated")
                    .as_ref();
                let remote = home != my_loc;
                let t_r = Instant::now();
                let result = retriever.fetch(store, file, off, len).map_err(|e| {
                    let (name, store) = (&cluster.name, store.name());
                    format!("slave {slave}@{name}: fetching {file} [{off}+{len}] from {store}: {e}")
                });
                let took = t_r.elapsed();
                let _ = fetch_tx.send(Fetched::Data(Fetch {
                    job,
                    result,
                    took,
                    remote,
                }));
            }
        });

        // --- Fold loop (this thread). ---
        // Credits given whose reply (`Data` or `NoMore`) has not surfaced.
        let mut outstanding = 0usize;
        let mut no_more = false;
        loop {
            // Kill and retirement checks happen at job boundaries — the
            // generalized-reduction model's natural checkpoint — so the
            // accumulated reduction object survives the "crash". A retired
            // slave gives no more credits and hands back every lease its
            // fetcher took.
            let killed = kill_after.is_some_and(|n| tally.stats.jobs >= n);
            let failing = consecutive_failures >= cfg.slave_failure_threshold;
            if retired.is_none() && (killed || failing) {
                retired = Some(killed);
                shutting_down.store(true, Ordering::Relaxed);
            }
            let open = retired.is_none() && !no_more;
            while open && outstanding < capacity && credit_tx.send(()).is_ok() {
                outstanding += 1;
            }
            if outstanding == 0 {
                break; // drained
            }

            let t_wait = Instant::now();
            let Ok(msg) = fetch_rx.recv() else { break };
            let f = match msg {
                Fetched::Started => continue, // master wait, not a fetch stall
                Fetched::NoMore => {
                    no_more = true;
                    outstanding -= 1;
                    continue;
                }
                Fetched::Data(f) => f,
            };
            outstanding -= 1;
            if retired.is_some() {
                // Close the fetch_start pairing for a retrieval whose
                // result is being thrown away.
                let chunk = f.job.chunk.0 as u64;
                emit(EventKind::FetchDiscarded { chunk });
                master.resolve(Resolution::Released(f.job.chunk));
                continue;
            }
            // Only waits that end in data count as fetch stall: `Started`
            // precedes `Data` in channel order, so this block was spent
            // waiting on the retrieval itself.
            let waited = t_wait.elapsed().as_nanos() as u64;
            record(&mut tally, EventKind::Stall { ns: waited });
            let chunk = layout.chunk(f.job.chunk);
            let (c, ns) = (f.job.chunk.0 as u64, f.took.as_nanos() as u64);
            let bytes = match f.result {
                Ok(bytes) => bytes,
                Err(error) => {
                    // The job is NOT complete: report it failed so the
                    // head re-enqueues it, and keep pulling.
                    record(&mut tally, EventKind::FetchFailed { chunk: c, ns });
                    master.note_error(error);
                    master.resolve(Resolution::Failed(f.job.chunk));
                    consecutive_failures += 1;
                    continue;
                }
            };
            let fetched = EventKind::FetchEnd {
                chunk: c,
                bytes: chunk.len,
                remote: f.remote,
                ns,
            };
            record(&mut tally, fetched);
            emit(EventKind::ProcessStart { chunk: c });
            // Process: fold the chunk in place, then burn the synthetic
            // compute weight in cache-sized unit groups.
            let t_p = Instant::now();
            let units = match app.fold_chunk(params, &mut robj, chunk, &bytes) {
                Ok(units) => units,
                Err(e) => {
                    // Bytes that disagree with the index fail the job as a
                    // fetch failure does; nothing of the chunk was folded.
                    let file = &layout.file(chunk.file).name;
                    master.note_error(format!("chunk {c} of {file}: {e}"));
                    master.resolve(Resolution::Failed(f.job.chunk));
                    consecutive_failures += 1;
                    continue;
                }
            };
            consecutive_failures = 0;
            if compute_ns > 0 {
                let mut left = units;
                while left > 0 {
                    let group = left.min(CACHE_GROUP_UNITS);
                    burn(Duration::from_nanos(compute_ns * group));
                    left -= group;
                }
            }
            let processed = EventKind::ProcessEnd {
                chunk: c,
                units,
                ns: t_p.elapsed().as_nanos() as u64,
                stolen: f.job.stolen,
            };
            record(&mut tally, processed);
            master.resolve(Resolution::Completed(f.job.chunk));
        }

        // The fetcher exits once `credit_tx` drops with this closure.
    });

    if let Some(killed) = retired {
        record(&mut tally, EventKind::SlaveRetired { killed });
    }
    master.recovery.lock().add(&tally.recovery);
    // Even a retiring slave's partial reduction object merges: under GR it
    // is a valid checkpoint of the work it did complete.
    (tally.stats, Box::new(robj))
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
