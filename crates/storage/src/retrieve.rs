//! Multi-threaded chunk retrieval.
//!
//! The paper: *"Each slave retrieves jobs using multiple retrieval threads,
//! to capitalize on the fast network interconnects in the cluster."* A
//! remote object service caps the streaming rate of a single connection, so
//! fetching one chunk over `t` parallel ranged GETs multiplies achievable
//! bandwidth until the aggregate limit binds. [`Retriever`] implements that:
//! it splits a byte range into `t` contiguous sub-ranges, GETs the first on
//! the calling thread and the others on `t − 1` long-lived workers, and
//! reassembles the chunk in order. The workers belong to the `Retriever`:
//! they start on its first split fetch and end when it drops, so a fetch
//! costs a hand-off and a wake-up, not `t` thread spawns.

use crate::store::ObjectStore;
use bytes::{Bytes, BytesMut};
use cb_simnet::DetRng;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The sleep before retry `attempt` (1-based): exponential growth from
/// `base`, capped at `cap`, scaled by a deterministic jitter factor in
/// `[0.5, 1.0)` derived from `seed` and the attempt number.
///
/// Pure so the schedule is unit-testable; jitter decorrelates the retries of
/// slaves that fail together (e.g. when a whole location's store degrades)
/// without giving up reproducibility.
pub fn backoff_schedule(base: Duration, cap: Duration, seed: u64, attempt: u32) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let exp = attempt.saturating_sub(1).min(20);
    let raw = base.saturating_mul(1u32 << exp).min(cap);
    let jitter = 0.5 + 0.5 * DetRng::new(seed ^ u64::from(attempt)).uniform();
    raw.mul_f64(jitter)
}

/// Raised when one sub-range of a chunk fails for good: its siblings stop
/// retrying, and a sibling asleep in a retry backoff wakes at once — a
/// backoff sleep must not delay a fetch that is already doomed.
#[derive(Default)]
struct Abort {
    raised: Mutex<bool>,
    wake: Condvar,
}

impl Abort {
    fn raise(&self) {
        *self.lock() = true;
        self.wake.notify_all();
    }

    /// Sleep `total`, or until the abort is raised.
    fn sleep(&self, total: Duration) {
        let raised = self.lock();
        let _ = self
            .wake
            .wait_timeout_while(raised, total, |raised| !*raised);
    }

    fn lock(&self) -> MutexGuard<'_, bool> {
        self.raised.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parallel ranged-GET fetcher.
///
/// ```
/// use cb_storage::retrieve::Retriever;
/// use cb_storage::store::{MemStore, ObjectStore};
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("demo"));
/// store.put("obj", Bytes::from(vec![7u8; 1 << 20])).unwrap();
/// let r = Retriever::new(4).with_min_split(1);
/// let data = r.fetch(&store, "obj", 100, 4096).unwrap();
/// assert_eq!(data.len(), 4096);
/// ```
pub struct Retriever {
    threads: usize,
    /// Ranges smaller than this are fetched on the calling thread; handing
    /// tiny reads to workers costs more than it saves.
    min_split_bytes: u64,
    policy: Policy,
    /// `threads − 1` workers, started by the first split fetch.
    workers: OnceLock<Workers>,
}

/// Callback invoked once per retry attempt; see [`Retriever::with_retry_hook`].
pub type RetryHook = Arc<dyn Fn(u32) + Send + Sync>;

impl std::fmt::Debug for Retriever {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = &self.policy;
        f.debug_struct("Retriever")
            .field("threads", &self.threads)
            .field("min_split_bytes", &self.min_split_bytes)
            .field("retries", &p.retries)
            .field("retry_backoff", &p.retry_backoff)
            .field("backoff_cap", &p.backoff_cap)
            .field("jitter_seed", &p.jitter_seed)
            .field("deadline", &p.deadline)
            .field("retry_hook", &p.retry_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

impl Retriever {
    /// A retriever using `threads` parallel connections (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Retriever {
            threads: threads.max(1),
            min_split_bytes: 64 * 1024,
            policy: Policy {
                retries: 0,
                retry_backoff: Duration::from_millis(10),
                backoff_cap: Duration::from_secs(1),
                jitter_seed: 0,
                deadline: None,
                retry_hook: None,
            },
            workers: OnceLock::new(),
        }
    }

    /// Single-connection retriever.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Override the minimum range size worth splitting (tests).
    pub fn with_min_split(mut self, bytes: u64) -> Self {
        self.min_split_bytes = bytes;
        self
    }

    /// Retry each ranged GET up to `retries` extra times, with exponential
    /// backoff starting at `backoff`.
    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.policy.retries = retries;
        self.policy.retry_backoff = backoff;
        self
    }

    /// Cap the per-retry backoff sleep.
    pub fn with_backoff_cap(mut self, cap: Duration) -> Self {
        self.policy.backoff_cap = cap;
        self
    }

    /// Seed the backoff jitter (see [`backoff_schedule`]).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.policy.jitter_seed = seed;
        self
    }

    /// Classify any ranged GET observed to take longer than `deadline` as
    /// timed out; `None` disables the check.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.policy.deadline = deadline;
        self
    }

    /// Invoke `hook(attempt)` once per retry attempt (1-based) — callers
    /// use it to count and report retries without this crate knowing their
    /// types.
    pub fn with_retry_hook(mut self, hook: RetryHook) -> Self {
        self.policy.retry_hook = Some(hook);
        self
    }

    /// Number of connections this retriever uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fetch `[offset, offset+len)` of `key` from `store`, in parallel.
    ///
    /// # Panics
    /// Panics on the calling thread if the store panics on any sub-range.
    pub fn fetch(
        &self,
        store: &Arc<dyn ObjectStore>,
        key: &str,
        offset: u64,
        len: u64,
    ) -> io::Result<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        if self.threads == 1 || len < self.min_split_bytes {
            let abort = Abort::default();
            return self.policy.get(store.as_ref(), key, offset, len, &abort);
        }
        let split = self.split(offset, len);
        let fetch = Arc::new(SplitFetch {
            store: Arc::clone(store),
            key: key.to_owned(),
            abort: Abort::default(),
            parts: Mutex::new(split.iter().map(|_| Part::Pending).collect()),
            filled: Condvar::new(),
        });
        let workers = self
            .workers
            .get_or_init(|| Workers::start(self.threads - 1, &self.policy));
        for ((part, &(offset, len)), queue) in split.iter().enumerate().skip(1).zip(&workers.queues)
        {
            let fetch = Arc::clone(&fetch);
            queue
                .send(SubRange {
                    fetch,
                    part,
                    offset,
                    len,
                })
                .expect("retrieval worker alive");
        }
        let (off0, len0) = split[0];
        fetch.serve(&self.policy, 0, off0, len0);
        let mut results = Vec::with_capacity(split.len());
        for part in fetch.wait() {
            match part {
                Part::Done(r) => results.push(r),
                Part::Panicked => panic!("retrieval thread panicked"),
                Part::Pending => unreachable!("wait returns once every part is filled"),
            }
        }
        // Surface the real failure, not a sibling's abort notice: prefer the
        // first error whose kind is not Interrupted.
        if let Some(i) = results
            .iter()
            .position(|r| matches!(r, Err(e) if e.kind() != io::ErrorKind::Interrupted))
        {
            return Err(results.swap_remove(i).unwrap_err());
        }
        let mut buf = BytesMut::with_capacity(len as usize);
        for r in results {
            buf.extend_from_slice(&r?);
        }
        debug_assert_eq!(buf.len() as u64, len);
        Ok(buf.freeze())
    }

    /// Split `[offset, offset+len)` into up to `threads` contiguous
    /// sub-ranges of near-equal size (first ranges take the remainder).
    fn split(&self, offset: u64, len: u64) -> Vec<(u64, u64)> {
        let n = (self.threads as u64).min(len).max(1);
        let base = len / n;
        let extra = len % n;
        let mut out = Vec::with_capacity(n as usize);
        let mut off = offset;
        for i in 0..n {
            let l = base + u64::from(i < extra);
            out.push((off, l));
            off += l;
        }
        out
    }
}

/// The retry policy of one ranged GET: how often, how long apart, what
/// counts as too slow, and whom to tell. The fetching thread and the
/// workers each hold a copy.
#[derive(Clone)]
struct Policy {
    /// Extra attempts per ranged GET after the first (transient remote
    /// failures — timeouts, connection resets — are a fact of life against
    /// an object service).
    retries: u32,
    /// Sleep before the first retry; grows per [`backoff_schedule`].
    retry_backoff: Duration,
    /// Ceiling on the per-retry sleep.
    backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    jitter_seed: u64,
    /// Per-GET deadline: a ranged GET observed to take longer than this is
    /// classified as timed out (and retried), even if bytes eventually
    /// arrived — a hung connection must not block a slave forever.
    deadline: Option<Duration>,
    /// Called once per retry attempt (1-based attempt number), so callers
    /// (the runtime's `RecoveryStats` and its event stream) can account for
    /// faults absorbed here. Kept as a plain callback so this crate stays
    /// independent of the runtime's types.
    retry_hook: Option<RetryHook>,
}

impl Policy {
    /// One ranged GET with this retry policy. It short-circuits (attempts
    /// and backoff sleeps alike) once `abort` is raised, and raises it on
    /// any final failure — so sibling sub-fetches of one chunk stop burning
    /// their retry budgets the moment any part has failed for good.
    fn get(
        &self,
        store: &dyn ObjectStore,
        key: &str,
        offset: u64,
        len: u64,
        abort: &Abort,
    ) -> io::Result<Bytes> {
        let aborted = || {
            io::Error::new(
                io::ErrorKind::Interrupted,
                format!("GET of {key} aborted: a sibling sub-range failed permanently"),
            )
        };
        let mut attempt = 0u32;
        loop {
            if *abort.lock() {
                return Err(aborted());
            }
            let t0 = Instant::now();
            let mut result = store.get_range(key, offset, len);
            if let Some(deadline) = self.deadline {
                // The store API is blocking, so a hung GET is detected after
                // the fact: data that arrived later than the deadline is
                // discarded and the attempt treated as a timeout, exactly as
                // a socket timeout would have surfaced it.
                if result.is_ok() && t0.elapsed() > deadline {
                    result = Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("GET of {key} exceeded deadline {deadline:?}"),
                    ));
                }
            }
            match result {
                Ok(b) => return Ok(b),
                // Out-of-range and missing-object errors are not transient;
                // retrying them only hides index corruption.
                Err(e)
                    if attempt < self.retries
                        && e.kind() != io::ErrorKind::NotFound
                        && e.kind() != io::ErrorKind::UnexpectedEof
                        && e.kind() != io::ErrorKind::InvalidInput =>
                {
                    attempt += 1;
                    if let Some(hook) = &self.retry_hook {
                        hook(attempt);
                    }
                    let sleep = backoff_schedule(
                        self.retry_backoff,
                        self.backoff_cap,
                        self.jitter_seed,
                        attempt,
                    );
                    abort.sleep(sleep);
                }
                Err(e) => {
                    // Final failure (permanent kind, or retries exhausted):
                    // tell sibling sub-fetches to stand down.
                    abort.raise();
                    return Err(e);
                }
            }
        }
    }
}

/// What became of one sub-range of a split fetch.
enum Part {
    Pending,
    Done(io::Result<Bytes>),
    /// The GET panicked; the fetch panics on its calling thread.
    Panicked,
}

/// One split fetch, shared by the fetching thread and the workers that
/// serve its sub-ranges.
struct SplitFetch {
    store: Arc<dyn ObjectStore>,
    key: String,
    abort: Abort,
    parts: Mutex<Vec<Part>>,
    /// Signalled as each part is filled; the fetching thread waits on it.
    filled: Condvar,
}

impl SplitFetch {
    /// GET sub-range `part`, `[offset, offset+len)`, and file the outcome.
    /// A panicking GET is caught here, so it neither kills a worker nor
    /// leaves its part pending, and it stands the siblings down.
    fn serve(&self, policy: &Policy, part: usize, offset: u64, len: u64) {
        let got = panic::catch_unwind(AssertUnwindSafe(|| {
            policy.get(self.store.as_ref(), &self.key, offset, len, &self.abort)
        }));
        let outcome = got.map_or_else(
            |_| {
                self.abort.raise();
                Part::Panicked
            },
            Part::Done,
        );
        self.lock()[part] = outcome;
        self.filled.notify_one();
    }

    /// Wait until every part is filled, and take them.
    fn wait(&self) -> Vec<Part> {
        let parts = self.lock();
        let mut parts = self
            .filled
            .wait_while(parts, |p| p.iter().any(|p| matches!(p, Part::Pending)))
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *parts)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Part>> {
        self.parts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Sub-range `part` of a split fetch, handed to a worker.
struct SubRange {
    fetch: Arc<SplitFetch>,
    part: usize,
    offset: u64,
    len: u64,
}

/// A `Retriever`'s long-lived workers: worker `i` serves sub-range `i + 1`
/// of every split fetch, the fetching thread sub-range 0. Dropping this
/// closes each worker's queue and joins it.
struct Workers {
    queues: Vec<Sender<SubRange>>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    fn start(n: usize, policy: &Policy) -> Self {
        let policy = Arc::new(policy.clone());
        let (queues, handles) = (0..n)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<SubRange>();
                let policy = Arc::clone(&policy);
                let handle = thread::Builder::new()
                    .name(format!("retrieve-{}", i + 1))
                    .spawn(move || {
                        for t in rx {
                            t.fetch.serve(&policy, t.part, t.offset, t.len);
                        }
                    })
                    .expect("spawn retrieval worker");
                (tx, handle)
            })
            .unzip();
        Workers { queues, handles }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.queues.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s3sim::{RemoteProfile, RemoteStore};
    use crate::store::MemStore;
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn patterned(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn split_covers_range_exactly() {
        let r = Retriever::new(4);
        let parts = r.split(100, 1003);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|&(_, l)| l).sum::<u64>(), 1003);
        // Contiguity.
        let mut expect = 100;
        for &(off, l) in &parts {
            assert_eq!(off, expect);
            expect = off + l;
        }
        assert_eq!(expect, 1103);
    }

    #[test]
    fn split_never_produces_empty_ranges() {
        let r = Retriever::new(8);
        let parts = r.split(0, 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|&(_, l)| l > 0));
    }

    #[test]
    fn parallel_fetch_reassembles_in_order() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        let data = patterned(1 << 20);
        store.put("k", data.clone()).unwrap();
        let r = Retriever::new(7).with_min_split(1);
        let got = r.fetch(&store, "k", 1000, 500_000).unwrap();
        assert_eq!(got, data.slice(1000..501_000));
    }

    #[test]
    fn sequential_path_for_small_ranges() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(4096)).unwrap();
        let r = Retriever::new(8); // min_split 64 KiB: 4 KiB goes sequential
        let got = r.fetch(&store, "k", 0, 4096).unwrap();
        assert_eq!(got.len(), 4096);
    }

    #[test]
    fn zero_length_fetch() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(10)).unwrap();
        let got = Retriever::new(4).fetch(&store, "k", 5, 0).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(100)).unwrap();
        let r = Retriever::new(4).with_min_split(1);
        assert!(r.fetch(&store, "k", 50, 100).is_err());
        assert!(r.fetch(&store, "missing", 0, 10).is_err());
    }

    #[test]
    fn retries_survive_transient_failures() {
        use crate::faults::{FaultMode, FlakyStore};
        let inner = Arc::new(MemStore::new("m"));
        inner.put("k", patterned(100_000)).unwrap();
        let flaky = Arc::new(FlakyStore::new(inner, FaultMode::FirstNPerKey { n: 2 }, 0));
        let store: Arc<dyn ObjectStore> = flaky.clone();

        // Without retries: fails.
        let r = Retriever::new(1);
        assert!(r.fetch(&store, "k", 0, 1000).is_err());

        // With retries: the third attempt succeeds.
        let r = Retriever::new(1).with_retries(3, Duration::ZERO);
        let got = r.fetch(&store, "k", 0, 1000).unwrap();
        assert_eq!(got, patterned(100_000).slice(0..1000));
        assert!(flaky.injected_failures() >= 2);
    }

    #[test]
    fn retries_do_not_mask_permanent_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(100)).unwrap();
        let r = Retriever::new(1).with_retries(5, Duration::ZERO);
        // Out of range: permanent, must fail immediately.
        let err = r.fetch(&store, "k", 90, 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Missing object: permanent.
        let err = r.fetch(&store, "nope", 0, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn parallel_fetch_with_retries_reassembles() {
        use crate::faults::{FaultMode, FlakyStore};
        let inner = Arc::new(MemStore::new("m"));
        let data = patterned(1 << 18);
        inner.put("k", data.clone()).unwrap();
        let flaky = Arc::new(FlakyStore::new(
            inner,
            FaultMode::Random { probability: 0.5 },
            42,
        ));
        let store: Arc<dyn ObjectStore> = flaky.clone();
        let r = Retriever::new(4)
            .with_min_split(1)
            .with_retries(30, Duration::ZERO);
        for _ in 0..3 {
            let got = r.fetch(&store, "k", 0, 1 << 18).unwrap();
            assert_eq!(got, data);
        }
        assert!(
            flaky.injected_failures() > 0,
            "the run should have hit faults"
        );
    }

    #[test]
    fn backoff_schedule_grows_then_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        for attempt in 1..=12 {
            let d = backoff_schedule(base, cap, 7, attempt);
            assert!(d <= cap, "attempt {attempt}: {d:?} exceeds cap");
            // Jitter scales the capped exponential by [0.5, 1.0).
            let raw = base.saturating_mul(1 << (attempt - 1).min(20)).min(cap);
            assert!(d >= raw / 2, "attempt {attempt}: {d:?} below jitter floor");
        }
        // Early attempts are strictly shorter than capped late ones:
        // [5,10) ms vs [40,80) ms.
        assert!(backoff_schedule(base, cap, 7, 1) < backoff_schedule(base, cap, 7, 6));
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_seed_sensitive() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        assert_eq!(
            backoff_schedule(base, cap, 3, 4),
            backoff_schedule(base, cap, 3, 4)
        );
        let a: Vec<_> = (1..=8).map(|i| backoff_schedule(base, cap, 1, i)).collect();
        let b: Vec<_> = (1..=8).map(|i| backoff_schedule(base, cap, 2, i)).collect();
        assert_ne!(a, b, "different seeds should produce different jitter");
        assert_eq!(backoff_schedule(Duration::ZERO, cap, 1, 3), Duration::ZERO);
    }

    #[test]
    fn deadline_classifies_stalled_gets_as_timeouts() {
        use crate::faults::{FaultMode, FlakyStore};
        let inner = Arc::new(MemStore::new("m"));
        inner.put("k", patterned(100)).unwrap();
        let stalled: Arc<dyn ObjectStore> = Arc::new(FlakyStore::new(
            inner,
            FaultMode::Stall {
                delay: Duration::from_millis(20),
            },
            0,
        ));

        // Deadline below the stall: every attempt times out.
        let r = Retriever::new(1)
            .with_retries(2, Duration::ZERO)
            .with_deadline(Some(Duration::from_millis(2)));
        let err = r.fetch(&stalled, "k", 0, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        // Deadline above the stall: the data arrives in time.
        let r = Retriever::new(1).with_deadline(Some(Duration::from_secs(5)));
        assert_eq!(
            r.fetch(&stalled, "k", 0, 10).unwrap(),
            patterned(100).slice(0..10)
        );
    }

    #[test]
    fn retry_counter_accounts_for_absorbed_faults() {
        use crate::faults::{FaultMode, FlakyStore};
        let inner = Arc::new(MemStore::new("m"));
        inner.put("k", patterned(100)).unwrap();
        let flaky: Arc<dyn ObjectStore> =
            Arc::new(FlakyStore::new(inner, FaultMode::FirstNPerKey { n: 2 }, 0));
        let counter = Arc::new(AtomicU64::new(0));
        let hook_counter = Arc::clone(&counter);
        let r = Retriever::new(1)
            .with_retries(3, Duration::ZERO)
            .with_retry_hook(Arc::new(move |_| {
                hook_counter.fetch_add(1, Ordering::Relaxed);
            }));
        r.fetch(&flaky, "k", 0, 10).unwrap();
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn retry_hook_sees_each_attempt() {
        use crate::faults::{FaultMode, FlakyStore};
        use parking_lot::Mutex;
        let inner = Arc::new(MemStore::new("m"));
        inner.put("k", patterned(100)).unwrap();
        let flaky: Arc<dyn ObjectStore> =
            Arc::new(FlakyStore::new(inner, FaultMode::FirstNPerKey { n: 2 }, 0));
        let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let hook_seen = Arc::clone(&seen);
        let r = Retriever::new(1)
            .with_retries(3, Duration::ZERO)
            .with_retry_hook(Arc::new(move |attempt| hook_seen.lock().push(attempt)));
        r.fetch(&flaky, "k", 0, 10).unwrap();
        assert_eq!(*seen.lock(), vec![1, 2]);
    }

    #[test]
    fn multiple_threads_beat_one_against_per_conn_cap() {
        // The per-connection cap binds per request: one connection streams
        // the whole range at per_conn_bps, four connections each stream a
        // quarter. Assert the fan-out via the remote's request/byte
        // accounting rather than elapsed wall-clock (loaded CI runners make
        // timing deltas flaky); `per_connection_cap_enforced` in s3sim.rs
        // covers the timing behaviour itself.
        let inner = Arc::new(MemStore::new("backing"));
        let data = patterned(40_000);
        inner.put("k", data.clone()).unwrap();
        let remote = Arc::new(RemoteStore::new(
            "s3",
            inner,
            RemoteProfile {
                request_latency: Duration::ZERO,
                aggregate_bps: 100.0e6,
                per_conn_bps: 10.0e6,
            },
        ));
        let store: Arc<dyn ObjectStore> = remote.clone();

        Retriever::new(1).fetch(&store, "k", 0, 40_000).unwrap();
        assert_eq!(
            remote.requests_served(),
            1,
            "sequential: the whole range streams over one capped connection"
        );

        let got = Retriever::new(4)
            .with_min_split(1)
            .fetch(&store, "k", 0, 40_000)
            .unwrap();
        assert_eq!(got, data);
        assert_eq!(
            remote.requests_served(),
            5,
            "parallel: one connection per sub-range, each paying only len/4 against the cap"
        );
        assert_eq!(remote.bytes_served(), 80_000);
    }

    /// A store whose tail is permanently missing (NotFound past `doomed_from`) while the
    /// head only ever times out — so sub-fetches of the head would burn the
    /// full retry budget unless the doomed sibling aborts them.
    struct DoomedTail {
        doomed_from: u64,
        calls: AtomicU64,
    }

    impl ObjectStore for DoomedTail {
        fn name(&self) -> &str {
            "doomed-tail"
        }
        fn put(&self, _key: &str, _data: Bytes) -> io::Result<()> {
            Ok(())
        }
        fn get_range(&self, _key: &str, offset: u64, _len: u64) -> io::Result<Bytes> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if offset >= self.doomed_from {
                Err(io::Error::new(io::ErrorKind::NotFound, "no such range"))
            } else {
                Err(io::Error::new(io::ErrorKind::TimedOut, "transient"))
            }
        }
        fn size_of(&self, _key: &str) -> io::Result<u64> {
            Ok(400)
        }
        fn list(&self) -> Vec<String> {
            vec![]
        }
        fn delete(&self, _key: &str) -> io::Result<bool> {
            Ok(false)
        }
    }

    #[test]
    fn permanent_failure_aborts_sibling_subfetches() {
        // Four sub-ranges of [0, 400): the last (offset 300) fails NotFound
        // immediately; the other three see only transient timeouts and would
        // retry 1000 times each without the abort flag.
        let store = Arc::new(DoomedTail {
            doomed_from: 300,
            calls: AtomicU64::new(0),
        });
        let dyn_store: Arc<dyn ObjectStore> = store.clone();
        let r = Retriever::new(4)
            .with_min_split(1)
            .with_retries(1000, Duration::from_millis(1))
            .with_backoff_cap(Duration::from_millis(20));
        let err = r.fetch(&dyn_store, "k", 0, 400).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::NotFound,
            "the real (permanent) error must propagate, not a sibling's abort notice"
        );
        let calls = store.calls.load(Ordering::SeqCst);
        assert!(
            calls < 200,
            "siblings should stand down after the permanent failure, saw {calls} attempts"
        );
    }

    #[test]
    fn abort_does_not_fire_on_transient_failures() {
        // Random faults that retries eventually absorb must NOT raise the
        // abort flag — only a *final* per-part failure may.
        use crate::faults::{FaultMode, FlakyStore};
        let inner = Arc::new(MemStore::new("m"));
        let data = patterned(1 << 16);
        inner.put("k", data.clone()).unwrap();
        let flaky: Arc<dyn ObjectStore> = Arc::new(FlakyStore::new(
            inner,
            FaultMode::Random { probability: 0.5 },
            9,
        ));
        let r = Retriever::new(4)
            .with_min_split(1)
            .with_retries(50, Duration::ZERO);
        let got = r.fetch(&flaky, "k", 0, 1 << 16).unwrap();
        assert_eq!(got, data);
    }

    /// Serves zeros for any range, after running its probe on the GETting
    /// thread with the sub-range's offset.
    struct Probe<F>(F);

    impl<F: Fn(u64) + Send + Sync> ObjectStore for Probe<F> {
        fn name(&self) -> &str {
            "probe"
        }
        fn put(&self, _key: &str, _data: Bytes) -> io::Result<()> {
            Ok(())
        }
        fn get_range(&self, _key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
            (self.0)(offset);
            Ok(Bytes::from(vec![0u8; len as usize]))
        }
        fn size_of(&self, _key: &str) -> io::Result<u64> {
            Ok(u64::MAX)
        }
        fn list(&self) -> Vec<String> {
            vec![]
        }
        fn delete(&self, _key: &str) -> io::Result<bool> {
            Ok(false)
        }
    }

    /// A store that records the id of every thread that GETs from it.
    fn thread_log() -> (Arc<dyn ObjectStore>, Arc<Mutex<HashSet<ThreadId>>>) {
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let log = Arc::clone(&seen);
        let store = Probe(move |_| {
            log.lock().unwrap().insert(thread::current().id());
        });
        (Arc::new(store), seen)
    }

    #[test]
    fn split_fetches_reuse_the_same_workers() {
        let (store, seen) = thread_log();
        let r = Retriever::new(4).with_min_split(1);
        for _ in 0..200 {
            assert_eq!(r.fetch(&store, "k", 0, 1024).unwrap().len(), 1024);
        }
        let threads = seen.lock().unwrap().len();
        assert!(
            threads <= 4,
            "200 split fetches ran on {threads} threads, not the caller and 3 workers"
        );
        assert_eq!(threads, 4, "every split fetch keeps 4 GETs in flight");
    }

    #[test]
    fn small_and_unsplit_fetches_start_no_worker() {
        let (store, seen) = thread_log();
        let small = Retriever::new(4); // min_split 64 KiB
        let unsplit = Retriever::new(1).with_min_split(1);
        for _ in 0..20 {
            small.fetch(&store, "k", 0, 4096).unwrap();
            unsplit.fetch(&store, "k", 0, 1 << 20).unwrap();
        }
        assert!(small.workers.get().is_none());
        assert!(unsplit.workers.get().is_none());
        assert_eq!(
            *seen.lock().unwrap(),
            HashSet::from([thread::current().id()]),
            "every GET ran on the calling thread"
        );
    }

    #[test]
    fn dropping_the_retriever_ends_its_workers() {
        /// Counts, when its thread exits, that it has.
        struct OnExit(Arc<AtomicU64>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
        }
        let exited = Arc::new(AtomicU64::new(0));
        let (caller, counter) = (thread::current().id(), Arc::clone(&exited));
        let store: Arc<dyn ObjectStore> = Arc::new(Probe(move |_| {
            if thread::current().id() != caller {
                EXIT.with(|e| {
                    e.borrow_mut()
                        .get_or_insert_with(|| OnExit(Arc::clone(&counter)));
                });
            }
        }));
        let r = Retriever::new(4).with_min_split(1);
        for _ in 0..10 {
            r.fetch(&store, "k", 0, 1024).unwrap();
        }
        assert_eq!(exited.load(Ordering::SeqCst), 0, "workers outlive a fetch");
        drop(r);
        assert_eq!(
            exited.load(Ordering::SeqCst),
            3,
            "dropping the retriever ended and joined its 3 workers"
        );
    }

    #[test]
    fn a_panicking_get_panics_the_fetch_instead_of_hanging() {
        // Four sub-ranges of [0, 400) start at 0, 100, 200 and 300: the
        // first is GOT on the calling thread, the last on a worker.
        for bad in [300, 0] {
            let store: Arc<dyn ObjectStore> =
                Arc::new(Probe(move |offset| assert_ne!(offset, bad, "GET panics")));
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let r = Retriever::new(4).with_min_split(1);
                let first = panic::catch_unwind(AssertUnwindSafe(|| r.fetch(&store, "k", 0, 400)));
                // The workers survive it and serve the next fetch.
                let next = r.fetch(&store, "k", 1000, 400).map(|b| b.len());
                let _ = tx.send((first.is_err(), next.ok()));
            });
            let (panicked, next) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a panicking GET must end the fetch, not hang it");
            assert!(panicked, "GET at {bad} panicked, so the fetch must");
            assert_eq!(next, Some(400));
        }
    }
}
