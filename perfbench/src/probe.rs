//! Probes installed from outside the program for the traced passes: a
//! per-thread counting allocator, a timing `ObjectStore` decorator and a
//! timing `GRApp` wrapper. Each sits on a public seam of the layer it
//! measures, so the program itself runs unmodified.

use bytes::Bytes;
use cb_storage::layout::ChunkMeta;
use cb_storage::store::ObjectStore;
use cloudburst_core::api::GRApp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Whether allocations are being counted (only during traced passes).
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Allocations made by this thread while counting was on.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation count.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// relaxed flag load and a thread-local `Cell` update, neither of which
// allocates (the thread-local is const-initialised and has no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread is being torn down.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Turn allocation counting on or off for the whole process.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations the calling thread has made while counting was on.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Timing store
// ---------------------------------------------------------------------------

/// One ranged GET as the store saw it.
#[derive(Debug, Clone)]
pub struct GetRecord {
    pub key: String,
    pub offset: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The GETs of one traced pass, shared by every decorated path.
pub struct GetLog {
    t0: Instant,
    gets: Mutex<Vec<GetRecord>>,
}

impl GetLog {
    pub fn new() -> Arc<GetLog> {
        Arc::new(GetLog {
            t0: Instant::now(),
            gets: Mutex::new(Vec::new()),
        })
    }

    pub fn take(&self) -> Vec<GetRecord> {
        std::mem::take(&mut *self.gets.lock().expect("get log poisoned"))
    }
}

/// `ObjectStore` decorator timing every `get_range`.
pub struct TimingStore {
    inner: Arc<dyn ObjectStore>,
    log: Arc<GetLog>,
}

impl TimingStore {
    pub fn wrap(inner: Arc<dyn ObjectStore>, log: Arc<GetLog>) -> Arc<dyn ObjectStore> {
        Arc::new(TimingStore { inner, log })
    }
}

impl ObjectStore for TimingStore {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        self.inner.put(key, data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        let start_ns = self.log.t0.elapsed().as_nanos() as u64;
        let out = self.inner.get_range(key, offset, len);
        let end_ns = self.log.t0.elapsed().as_nanos() as u64;
        self.log
            .gets
            .lock()
            .expect("get log poisoned")
            .push(GetRecord {
                key: key.to_owned(),
                offset,
                start_ns,
                end_ns,
            });
        out
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
}

// ---------------------------------------------------------------------------
// Timing app
// ---------------------------------------------------------------------------

/// What the app wrapper saw during one traced pass.
pub struct AppCounters {
    pub decode_ns: AtomicU64,
    pub decode_allocs: AtomicU64,
    pub chunks: AtomicU64,
    pub units: AtomicU64,
    /// Times each chunk id was decoded.
    pub per_chunk: Vec<AtomicU32>,
}

impl AppCounters {
    pub fn new(n_chunks: usize) -> Arc<AppCounters> {
        Arc::new(AppCounters {
            decode_ns: AtomicU64::new(0),
            decode_allocs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            units: AtomicU64::new(0),
            per_chunk: (0..n_chunks).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    /// Every chunk decoded exactly once and every unit accounted for.
    pub fn check_folded_once(&self, n_units: u64) -> Result<(), String> {
        if let Some(i) = self
            .per_chunk
            .iter()
            .position(|c| c.load(Ordering::Relaxed) != 1)
        {
            return Err(format!(
                "chunk {i} decoded {} times",
                self.per_chunk[i].load(Ordering::Relaxed)
            ));
        }
        let chunks = self.chunks.load(Ordering::Relaxed);
        if chunks != self.per_chunk.len() as u64 {
            return Err(format!(
                "{chunks} chunks decoded, layout has {}",
                self.per_chunk.len()
            ));
        }
        let units = self.units.load(Ordering::Relaxed);
        if units != n_units {
            return Err(format!("{units} units decoded, layout has {n_units}"));
        }
        Ok(())
    }
}

/// `GRApp` wrapper timing `decode_chunk` and counting its allocations.
/// The fold is left alone: its time is the `Process` span minus decode.
pub struct TimedApp<A> {
    inner: A,
    counters: Arc<AppCounters>,
}

impl<A> TimedApp<A> {
    pub fn new(inner: A, counters: Arc<AppCounters>) -> Self {
        TimedApp { inner, counters }
    }
}

impl<A: GRApp> GRApp for TimedApp<A> {
    type Unit = A::Unit;
    type RObj = A::RObj;
    type Params = A::Params;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<A::Unit> {
        let allocs = thread_allocs();
        let t = Instant::now();
        let units = self.inner.decode_chunk(meta, bytes);
        let ns = t.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.decode_allocs
            .fetch_add(thread_allocs() - allocs, Ordering::Relaxed);
        c.decode_ns.fetch_add(ns, Ordering::Relaxed);
        c.chunks.fetch_add(1, Ordering::Relaxed);
        c.units.fetch_add(units.len() as u64, Ordering::Relaxed);
        if let Some(n) = c.per_chunk.get(meta.id.0 as usize) {
            n.fetch_add(1, Ordering::Relaxed);
        }
        units
    }

    fn init(&self, params: &A::Params) -> A::RObj {
        self.inner.init(params)
    }

    #[inline]
    fn local_reduce(&self, params: &A::Params, robj: &mut A::RObj, unit: &A::Unit) {
        self.inner.local_reduce(params, robj, unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_enabled_and_only_this_thread() {
        set_alloc_counting(true);
        let before = thread_allocs();
        let v: Vec<Box<u64>> = (0..10).map(Box::new).collect();
        let after = thread_allocs();
        set_alloc_counting(false);
        drop(v);
        assert!(after - before >= 11, "10 boxes + the vec");
        let idle = thread_allocs();
        let _w = std::hint::black_box(Box::new([1u8; 100]));
        assert_eq!(thread_allocs(), idle);
    }
}
