//! Chunk retrieval over as many connections as the store asks for.
//!
//! The paper: *"Each slave retrieves jobs using multiple retrieval threads,
//! to capitalize on the fast network interconnects in the cluster."* A
//! remote object service caps the streaming rate of a single connection, so
//! fetching one chunk over `t` parallel ranged GETs multiplies achievable
//! bandwidth until the aggregate limit binds; where nothing caps a
//! connection, a split only adds cost. So the store decides:
//! [`Retriever::fetch`] splits a range into [`ObjectStore::streams`]
//! contiguous sub-ranges, GETs the first on the calling thread and the
//! others on scoped threads that end with the fetch, and reassembles the
//! chunk in order. A capped [`RemoteStore`](crate::s3sim::RemoteStore) asks
//! for [`REMOTE_STREAMS`](crate::s3sim::REMOTE_STREAMS); local stores ask
//! for one, and their reads never leave the calling thread.

use crate::store::ObjectStore;
use bytes::{Bytes, BytesMut};
use cb_simnet::DetRng;
use std::io;
use std::panic;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
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

/// Raises the abort when a sub-GET unwinds, so a panic stands its siblings
/// down and ends the fetch instead of waiting out their retries.
struct AbortOnUnwind<'a>(&'a Abort);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.raise();
        }
    }
}

/// Ranged-GET fetcher with a retry policy.
///
/// ```
/// use cb_storage::retrieve::Retriever;
/// use cb_storage::store::{MemStore, ObjectStore};
/// use bytes::Bytes;
///
/// let store = MemStore::new("demo");
/// store.put("obj", Bytes::from(vec![7u8; 1 << 20])).unwrap();
/// let data = Retriever::new().fetch(&store, "obj", 100, 4096).unwrap();
/// assert_eq!(data.len(), 4096);
/// ```
pub struct Retriever {
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

/// Callback invoked once per retry attempt; see [`Retriever::with_retry_hook`].
pub type RetryHook = Arc<dyn Fn(u32) + Send + Sync>;

impl std::fmt::Debug for Retriever {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retriever")
            .field("retries", &self.retries)
            .field("retry_backoff", &self.retry_backoff)
            .field("backoff_cap", &self.backoff_cap)
            .field("jitter_seed", &self.jitter_seed)
            .field("deadline", &self.deadline)
            .field("retry_hook", &self.retry_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

impl Default for Retriever {
    fn default() -> Self {
        Self::new()
    }
}

impl Retriever {
    /// A retriever that tries each ranged GET once.
    pub fn new() -> Self {
        Retriever {
            retries: 0,
            retry_backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 0,
            deadline: None,
            retry_hook: None,
        }
    }

    /// Retry each ranged GET up to `retries` extra times, with exponential
    /// backoff starting at `backoff`.
    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.retries = retries;
        self.retry_backoff = backoff;
        self
    }

    /// Cap the per-retry backoff sleep.
    pub fn with_backoff_cap(mut self, cap: Duration) -> Self {
        self.backoff_cap = cap;
        self
    }

    /// Seed the backoff jitter (see [`backoff_schedule`]).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Classify any ranged GET observed to take longer than `deadline` as
    /// timed out; `None` disables the check.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Invoke `hook(attempt)` once per retry attempt (1-based) — callers
    /// use it to count and report retries without this crate knowing their
    /// types.
    pub fn with_retry_hook(mut self, hook: RetryHook) -> Self {
        self.retry_hook = Some(hook);
        self
    }

    /// Fetch `[offset, offset+len)` of `key` from `store`, over
    /// `store.streams()` parallel ranged GETs.
    ///
    /// # Panics
    /// Panics on the calling thread if the store panics on any sub-range.
    pub fn fetch(
        &self,
        store: &dyn ObjectStore,
        key: &str,
        offset: u64,
        len: u64,
    ) -> io::Result<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        let abort = Abort::default();
        let parts = split(offset, len, store.streams());
        if parts.len() == 1 {
            return self.get(store, key, offset, len, &abort);
        }
        let get = |(offset, len): (u64, u64)| {
            let _abort_on_unwind = AbortOnUnwind(&abort);
            self.get(store, key, offset, len, &abort)
        };
        let mut results = thread::scope(|s| {
            let others: Vec<_> = parts[1..]
                .iter()
                .map(|&part| s.spawn(move || get(part)))
                .collect();
            let mut results = vec![get(parts[0])];
            for h in others {
                results.push(h.join().unwrap_or_else(|p| panic::resume_unwind(p)));
            }
            results
        });
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

    /// One ranged GET with this retriever's retry policy. It short-circuits
    /// (attempts and backoff sleeps alike) once `abort` is raised, and
    /// raises it on any final failure — so sibling sub-fetches of one chunk
    /// stop burning their retry budgets the moment any part has failed for
    /// good.
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

/// Split `[offset, offset+len)` into up to `n` contiguous sub-ranges of
/// near-equal size (first ranges take the remainder).
fn split(offset: u64, len: u64, n: usize) -> Vec<(u64, u64)> {
    let n = (n as u64).min(len).max(1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s3sim::{RemoteProfile, RemoteStore, REMOTE_STREAMS};
    use crate::store::MemStore;
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn patterned(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// `inner`, asking for `streams` parallel GETs per read.
    struct Fanned {
        inner: Arc<dyn ObjectStore>,
        streams: usize,
    }

    fn fanned(inner: Arc<dyn ObjectStore>, streams: usize) -> Fanned {
        Fanned { inner, streams }
    }

    impl ObjectStore for Fanned {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
            self.inner.put(key, data)
        }
        fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
            self.inner.get_range(key, offset, len)
        }
        fn size_of(&self, key: &str) -> io::Result<u64> {
            self.inner.size_of(key)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn delete(&self, key: &str) -> io::Result<bool> {
            self.inner.delete(key)
        }
        fn streams(&self) -> usize {
            self.streams
        }
    }

    #[test]
    fn split_covers_range_exactly() {
        let parts = split(100, 1003, 4);
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
        let parts = split(0, 3, 8);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|&(_, l)| l > 0));
    }

    #[test]
    fn parallel_fetch_reassembles_in_order() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        let data = patterned(1 << 20);
        store.put("k", data.clone()).unwrap();
        let got = Retriever::new()
            .fetch(&fanned(store, 7), "k", 1000, 500_000)
            .unwrap();
        assert_eq!(got, data.slice(1000..501_000));
    }

    #[test]
    fn sequential_path_for_small_ranges() {
        // A one-stream store is read with one GET, however small the range.
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(4096)).unwrap();
        let got = Retriever::new().fetch(&*store, "k", 0, 4096).unwrap();
        assert_eq!(got.len(), 4096);
    }

    #[test]
    fn zero_length_fetch() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(10)).unwrap();
        let got = Retriever::new()
            .fetch(&fanned(store, 4), "k", 5, 0)
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(100)).unwrap();
        let (r, store) = (Retriever::new(), fanned(store, 4));
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
        let r = Retriever::new();
        assert!(r.fetch(&*store, "k", 0, 1000).is_err());

        // With retries: the third attempt succeeds.
        let r = Retriever::new().with_retries(3, Duration::ZERO);
        let got = r.fetch(&*store, "k", 0, 1000).unwrap();
        assert_eq!(got, patterned(100_000).slice(0..1000));
        assert!(flaky.injected_failures() >= 2);
    }

    #[test]
    fn retries_do_not_mask_permanent_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        store.put("k", patterned(100)).unwrap();
        let r = Retriever::new().with_retries(5, Duration::ZERO);
        // Out of range: permanent, must fail immediately.
        let err = r.fetch(&*store, "k", 90, 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Missing object: permanent.
        let err = r.fetch(&*store, "nope", 0, 1).unwrap_err();
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
        let store = fanned(flaky.clone(), 4);
        let r = Retriever::new().with_retries(30, Duration::ZERO);
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
        let r = Retriever::new()
            .with_retries(2, Duration::ZERO)
            .with_deadline(Some(Duration::from_millis(2)));
        let err = r.fetch(&*stalled, "k", 0, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        // Deadline above the stall: the data arrives in time.
        let r = Retriever::new().with_deadline(Some(Duration::from_secs(5)));
        assert_eq!(
            r.fetch(&*stalled, "k", 0, 10).unwrap(),
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
        let r = Retriever::new()
            .with_retries(3, Duration::ZERO)
            .with_retry_hook(Arc::new(move |_| {
                hook_counter.fetch_add(1, Ordering::Relaxed);
            }));
        r.fetch(&*flaky, "k", 0, 10).unwrap();
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
        let r = Retriever::new()
            .with_retries(3, Duration::ZERO)
            .with_retry_hook(Arc::new(move |attempt| hook_seen.lock().push(attempt)));
        r.fetch(&*flaky, "k", 0, 10).unwrap();
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
        let remote = RemoteStore::new(
            "s3",
            inner,
            RemoteProfile {
                request_latency: Duration::ZERO,
                aggregate_bps: 100.0e6,
                per_conn_bps: 10.0e6,
            },
        );

        remote.get_range("k", 0, 40_000).unwrap();
        assert_eq!(
            remote.requests_served(),
            1,
            "sequential: the whole range streams over one capped connection"
        );

        let got = Retriever::new().fetch(&remote, "k", 0, 40_000).unwrap();
        assert_eq!(got, data);
        assert_eq!(
            remote.requests_served(),
            1 + REMOTE_STREAMS as u64,
            "parallel: one connection per sub-range, each paying only len/4 against the cap"
        );
        assert_eq!(remote.bytes_served(), 80_000);
    }

    /// A store whose tail is permanently missing (NotFound past `doomed_from`,
    /// or a panic there with `panics`) while the head only ever times out —
    /// so sub-fetches of the head would burn the full retry budget unless
    /// the doomed sibling aborts them. Read over four streams.
    struct DoomedTail {
        doomed_from: u64,
        panics: bool,
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
                assert!(!self.panics, "GET panics");
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
        fn streams(&self) -> usize {
            4
        }
    }

    /// A retriever that would retry the transient parts for seconds.
    fn patient() -> Retriever {
        Retriever::new()
            .with_retries(1000, Duration::from_millis(1))
            .with_backoff_cap(Duration::from_millis(20))
    }

    #[test]
    fn permanent_failure_aborts_sibling_subfetches() {
        // Four sub-ranges of [0, 400): the last (offset 300) fails NotFound
        // immediately, or panics; the other three see only transient
        // timeouts and would retry 1000 times each without the abort flag.
        for panics in [false, true] {
            let store = DoomedTail {
                doomed_from: 300,
                panics,
                calls: AtomicU64::new(0),
            };
            let fetch =
                panic::catch_unwind(AssertUnwindSafe(|| patient().fetch(&store, "k", 0, 400)));
            match fetch {
                Ok(result) => {
                    assert!(!panics, "the GET at 300 panicked, so the fetch must");
                    assert_eq!(
                        result.unwrap_err().kind(),
                        io::ErrorKind::NotFound,
                        "the real (permanent) error must propagate, not a sibling's abort notice"
                    );
                }
                Err(_) => assert!(panics, "only a panicking GET panics the fetch"),
            }
            let calls = store.calls.load(Ordering::SeqCst);
            assert!(
                calls < 200,
                "siblings should stand down after the permanent failure, saw {calls} attempts"
            );
        }
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
        let r = Retriever::new().with_retries(50, Duration::ZERO);
        let got = r.fetch(&fanned(flaky, 4), "k", 0, 1 << 16).unwrap();
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

    #[test]
    fn an_uncapped_store_is_read_on_the_calling_thread() {
        let seen = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
        let log = Arc::clone(&seen);
        let store = Probe(move |_| {
            log.lock().unwrap().insert(thread::current().id());
        });
        let r = Retriever::new();
        for _ in 0..20 {
            r.fetch(&store, "k", 0, 4096).unwrap();
            r.fetch(&store, "k", 0, 1 << 20).unwrap();
        }
        assert_eq!(
            *seen.lock().unwrap(),
            HashSet::from([thread::current().id()]),
            "every GET ran on the calling thread"
        );
    }

    #[test]
    fn every_thread_of_a_split_fetch_has_exited_when_it_returns() {
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
        let (r, store) = (Retriever::new(), fanned(store, 4));
        for i in 1..=10 {
            r.fetch(&store, "k", 0, 1024).unwrap();
            assert_eq!(
                exited.load(Ordering::SeqCst),
                3 * i,
                "fetch {i} returned before its 3 sub-range threads had exited"
            );
        }
    }

    #[test]
    fn a_panicking_get_panics_the_fetch_instead_of_hanging() {
        // Four sub-ranges of [0, 400) start at 0, 100, 200 and 300: the
        // first is GOT on the calling thread, the last on a spawned one.
        for bad in [300, 0] {
            let store: Arc<dyn ObjectStore> =
                Arc::new(Probe(move |offset| assert_ne!(offset, bad, "GET panics")));
            let store = fanned(store, 4);
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let r = Retriever::new();
                let first = panic::catch_unwind(AssertUnwindSafe(|| r.fetch(&store, "k", 0, 400)));
                // The retriever survives it and serves the next fetch.
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
