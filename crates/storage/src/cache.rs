//! A read-through chunk cache.
//!
//! The paper's iterative applications (k-means, PageRank) re-read the
//! *entire* dataset on every pass; when the data is remote, every pass pays
//! full WAN cost. [`CachedStore`] is a slave-side decorator that keeps
//! recently fetched ranges in memory (LRU, bounded by bytes), so passes
//! after the first hit cache instead of the wire. Entries are keyed by the
//! exact `(key, offset, len)` triple — chunk boundaries are stable across
//! passes by construction of the layout, so exact-range keying is both
//! simple and fully effective.

use crate::store::ObjectStore;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type CacheKey = (String, u64, u64);

/// LRU state: entries (with a recency stamp) plus a recency queue.
///
/// Lazy LRU: each access pushes a fresh `(key, stamp)` record instead of
/// moving the old one; eviction pops from the back and only evicts when
/// the popped stamp is still the key's *current* stamp — older records are
/// stale duplicates and are skipped.
struct CacheState {
    entries: HashMap<CacheKey, (Bytes, u64)>,
    recency: std::collections::VecDeque<(CacheKey, u64)>,
    bytes: usize,
    next_stamp: u64,
}

/// Callback invoked on every cache lookup: `(hit, bytes)`; see
/// [`CachedStore::with_observer`].
pub type CacheObserver = Arc<dyn Fn(bool, u64) + Send + Sync>;

/// A byte-bounded LRU read-through cache over any [`ObjectStore`].
pub struct CachedStore {
    inner: Arc<dyn ObjectStore>,
    capacity_bytes: usize,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    name: String,
    observer: Option<CacheObserver>,
}

impl CachedStore {
    /// Cache up to `capacity_bytes` of fetched ranges over `inner`.
    pub fn new(inner: Arc<dyn ObjectStore>, capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        CachedStore {
            name: format!("cached({})", inner.name()),
            inner,
            capacity_bytes,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                recency: std::collections::VecDeque::new(),
                bytes: 0,
                next_stamp: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            observer: None,
        }
    }

    /// Call `observer(hit, bytes)` on every lookup, at the same points the
    /// hit/miss counters increment. A plain callback keeps this crate
    /// independent of the runtime's event types.
    pub fn with_observer(mut self, observer: CacheObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> usize {
        self.state.lock().bytes
    }

    /// Drop everything (e.g. after the backing data changed).
    pub fn invalidate_all(&self) {
        let mut st = self.state.lock();
        st.entries.clear();
        st.recency.clear();
        st.bytes = 0;
    }

    fn insert(&self, key: CacheKey, data: Bytes) {
        // Oversized objects bypass the cache entirely.
        if data.len() > self.capacity_bytes {
            return;
        }
        let mut st = self.state.lock();
        if st.entries.contains_key(&key) {
            // A racing fetch already cached it. The bytes are in place, but
            // this access still happened: refresh recency, or a hot entry
            // fetched concurrently looks idle to LRU and gets evicted.
            drop(st);
            self.touch(&key);
            return;
        }
        let stamp = st.next_stamp;
        st.next_stamp += 1;
        st.bytes += data.len();
        st.entries.insert(key.clone(), (data, stamp));
        st.recency.push_front((key, stamp));
        while st.bytes > self.capacity_bytes {
            let Some((victim, stamp)) = st.recency.pop_back() else {
                break;
            };
            // Only evict when this record is the key's freshest access;
            // older records are stale duplicates left by touch().
            if st.entries.get(&victim).map(|(_, s)| *s) == Some(stamp) {
                if let Some((evicted, _)) = st.entries.remove(&victim) {
                    st.bytes -= evicted.len();
                }
            }
        }
    }

    fn touch(&self, key: &CacheKey) {
        let mut st = self.state.lock();
        let stamp = st.next_stamp;
        st.next_stamp += 1;
        let Some(entry) = st.entries.get_mut(key) else {
            return; // evicted between lookup and touch (benign race)
        };
        entry.1 = stamp;
        // Bound the queue so pathological hit storms cannot grow it
        // without limit.
        if st.recency.len() > 4 * st.entries.len() + 16 {
            let drained = std::mem::take(&mut st.recency);
            st.recency = drained
                .into_iter()
                .filter(|(k, s)| st.entries.get(k).map(|(_, cur)| cur == s).unwrap_or(false))
                .collect();
        }
        st.recency.push_front((key.clone(), stamp));
    }
}

impl ObjectStore for CachedStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        // Writes invalidate: simplest correct policy.
        self.invalidate_all();
        self.inner.put(key, data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        let ckey = (key.to_owned(), offset, len);
        // Bind the lookup result *outside* the `if let`: the scrutinee's
        // temporary MutexGuard would otherwise live across `touch()`'s own
        // lock() and self-deadlock.
        let cached = self.state.lock().entries.get(&ckey).map(|(b, _)| b.clone());
        if let Some(hit) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.observer {
                obs(true, len);
            }
            self.touch(&ckey);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.observer {
            obs(false, len);
        }
        let data = self.inner.get_range(key, offset, len)?;
        self.insert(ckey, data.clone());
        Ok(data)
    }

    fn size_of(&self, key: &str) -> io::Result<u64> {
        self.inner.size_of(key)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> io::Result<bool> {
        self.invalidate_all();
        self.inner.delete(key)
    }

    fn streams(&self) -> usize {
        self.inner.streams()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s3sim::{RemoteProfile, RemoteStore};
    use crate::store::MemStore;
    use std::time::Duration;

    fn backing() -> Arc<MemStore> {
        let s = Arc::new(MemStore::new("m"));
        s.put("a", Bytes::from(vec![1u8; 10_000])).unwrap();
        s.put("b", Bytes::from(vec![2u8; 10_000])).unwrap();
        s
    }

    #[test]
    fn second_read_hits() {
        let c = CachedStore::new(backing(), 1 << 20);
        let x = c.get_range("a", 0, 100).unwrap();
        let y = c.get_range("a", 0, 100).unwrap();
        assert_eq!(x, y);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        // Different range of the same key is a distinct entry.
        c.get_range("a", 100, 100).unwrap();
        assert_eq!(c.misses(), 2);
        assert_eq!(c.cached_bytes(), 200);
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = CachedStore::new(backing(), 250);
        c.get_range("a", 0, 100).unwrap(); // cache: a0
        c.get_range("a", 100, 100).unwrap(); // cache: a0, a100
        c.get_range("a", 0, 100).unwrap(); // touch a0 (now most recent)
        c.get_range("b", 0, 100).unwrap(); // evicts a100 (LRU), not a0
        assert!(c.cached_bytes() <= 250);
        let before = c.hits();
        c.get_range("a", 0, 100).unwrap();
        assert_eq!(c.hits(), before + 1, "a0 survived eviction");
        let misses_before = c.misses();
        c.get_range("a", 100, 100).unwrap();
        assert_eq!(c.misses(), misses_before + 1, "a100 was evicted");
    }

    #[test]
    fn oversized_reads_bypass() {
        let c = CachedStore::new(backing(), 50);
        c.get_range("a", 0, 1000).unwrap();
        assert_eq!(c.cached_bytes(), 0);
        c.get_range("a", 0, 1000).unwrap();
        assert_eq!(c.hits(), 0, "nothing cached, nothing hit");
    }

    #[test]
    fn writes_invalidate() {
        let c = CachedStore::new(backing(), 1 << 20);
        c.get_range("a", 0, 100).unwrap();
        c.put("a", Bytes::from(vec![9u8; 200])).unwrap();
        let got = c.get_range("a", 0, 100).unwrap();
        assert!(got.iter().all(|&b| b == 9), "stale data served after write");
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn cache_makes_throttled_rereads_fast() {
        // One cold read goes to the remote; every warm re-read must be
        // served from cache. Assert on the remote's request/byte accounting
        // rather than elapsed wall-clock, which flakes on loaded runners.
        let remote = Arc::new(RemoteStore::new(
            "slow",
            backing(),
            RemoteProfile {
                request_latency: Duration::from_millis(1),
                aggregate_bps: f64::INFINITY,
                per_conn_bps: f64::INFINITY,
            },
        ));
        let c = CachedStore::new(Arc::clone(&remote) as Arc<dyn ObjectStore>, 1 << 20);
        c.get_range("a", 0, 4096).unwrap();
        for _ in 0..10 {
            c.get_range("a", 0, 4096).unwrap();
        }
        assert_eq!(
            remote.requests_served(),
            1,
            "only the cold read hits the remote"
        );
        assert_eq!(remote.bytes_served(), 4096);
        assert_eq!(c.hits(), 10);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn streams_are_the_inner_stores() {
        let capped = RemoteStore::new(
            "capped",
            backing(),
            RemoteProfile {
                request_latency: Duration::ZERO,
                aggregate_bps: 100.0e6,
                per_conn_bps: 10.0e6,
            },
        );
        let c = CachedStore::new(Arc::new(capped), 1 << 20);
        assert_eq!(c.streams(), crate::s3sim::REMOTE_STREAMS);
        assert_eq!(CachedStore::new(backing(), 1 << 20).streams(), 1);
    }

    #[test]
    fn duplicate_insert_counts_as_a_touch() {
        // Two slaves race on the same chunk: both miss, both fetch, both
        // insert. The second insert finds the entry present — it must still
        // refresh recency, or the (hot) entry is evicted as if never used.
        let c = CachedStore::new(backing(), 250);
        c.get_range("a", 0, 100).unwrap(); // cache: a0
        c.get_range("a", 100, 100).unwrap(); // cache: a0, a100

        // The racing fetch's insert of a0 — entry already present.
        c.insert(("a".into(), 0, 100), Bytes::from(vec![1u8; 100]));
        // Capacity forces one eviction: a100 is now LRU, a0 was touched.
        c.get_range("b", 0, 100).unwrap();
        let hits = c.hits();
        c.get_range("a", 0, 100).unwrap();
        assert_eq!(
            c.hits(),
            hits + 1,
            "a0 must survive: the duplicate insert touched it"
        );
        let misses = c.misses();
        c.get_range("a", 100, 100).unwrap();
        assert_eq!(c.misses(), misses + 1, "a100 was the true LRU victim");
    }

    #[test]
    fn observer_sees_hits_and_misses() {
        let seen: Arc<Mutex<Vec<(bool, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let obs_seen = Arc::clone(&seen);
        let c = CachedStore::new(backing(), 1 << 20).with_observer(Arc::new(move |hit, bytes| {
            obs_seen.lock().push((hit, bytes))
        }));
        c.get_range("a", 0, 100).unwrap(); // miss
        c.get_range("a", 0, 100).unwrap(); // hit
        c.get_range("b", 0, 50).unwrap(); // miss
        assert_eq!(*seen.lock(), vec![(false, 100), (true, 100), (false, 50)]);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn concurrent_readers_are_safe() {
        let c = Arc::new(CachedStore::new(backing(), 1 << 20));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let off = (i % 10) * 100;
                        let got = c.get_range("a", off, 100).unwrap();
                        assert_eq!(got.len(), 100);
                    }
                });
            }
        });
        assert_eq!(c.hits() + c.misses(), 1600);
        assert!(c.cached_bytes() <= 1 << 20);
    }
}
