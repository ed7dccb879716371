//! `fold_chunk` folds a chunk with no heap allocation per unit: a counting
//! global allocator watches one 256 KiB chunk go through each app.
//!
//! The count is per thread, so tests running side by side do not see each
//! other's allocations.

use cb_apps::kmeans::{Centroids, KMeansApp};
use cb_apps::knn::{KnnApp, KnnQuery};
use cb_apps::pagerank::{PageRankApp, RankParams};
use cb_apps::points;
use cb_apps::sample::SampleApp;
use cb_apps::stats::{encode_readings, StatsApp, StatsQuery};
use cb_apps::wordcount::WordCountApp;
use cb_simnet::DetRng;
use cb_storage::layout::{ChunkId, ChunkMeta, FileId};
use cloudburst_core::api::GRApp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation count.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments;
// the only addition is a const-initialised thread-local `Cell` update,
// which neither allocates nor has a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations the calling thread makes while running `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const CHUNK_BYTES: usize = 256 * 1024;

/// One 256 KiB chunk of `unit_bytes`-byte records, filled by `fill`.
fn chunk(unit_bytes: usize, fill: impl FnOnce(&mut [u8])) -> (ChunkMeta, Vec<u8>) {
    let mut bytes = vec![0u8; CHUNK_BYTES];
    fill(&mut bytes);
    let meta = ChunkMeta {
        id: ChunkId(3),
        file: FileId(1),
        offset: 4 * CHUNK_BYTES as u64,
        len: CHUNK_BYTES as u64,
        units: (CHUNK_BYTES / unit_bytes) as u64,
    };
    (meta, bytes)
}

const DIM: usize = 8;

fn point_chunk(rng: &mut DetRng) -> (ChunkMeta, Vec<u8>) {
    chunk(DIM * 4, |buf| {
        let flat: Vec<f32> = (0..buf.len() / 4).map(|_| rng.uniform() as f32).collect();
        points::encode_into(&flat, DIM, buf);
    })
}

/// Allocations of one `fold_chunk` of `(meta, bytes)` into `robj`.
fn fold_allocs<A: GRApp>(
    app: &A,
    params: &A::Params,
    robj: &mut A::RObj,
    (meta, bytes): &(ChunkMeta, Vec<u8>),
) -> u64 {
    let (allocs, folded) = allocs_of(|| app.fold_chunk(params, robj, meta, bytes));
    assert_eq!(folded, Ok(meta.units));
    allocs
}

#[test]
fn knn_folds_without_allocating() {
    let mut rng = DetRng::new(1);
    let data = point_chunk(&mut rng);
    let app = KnnApp::new(DIM, 10);
    let query = KnnQuery {
        query: vec![0.5; DIM],
    };
    let mut robj = app.init(&query);
    assert_eq!(fold_allocs(&app, &query, &mut robj, &data), 0);

    // The reference route allocates per point; the counter sees it.
    let (allocs, units) = allocs_of(|| app.decode_chunk(&data.0, &data.1));
    assert!(allocs > units.len() as u64, "{allocs} allocations");
}

#[test]
fn kmeans_folds_without_allocating() {
    let mut rng = DetRng::new(2);
    let data = point_chunk(&mut rng);
    let app = KMeansApp::new(DIM, 16);
    let flat = (0..16 * DIM).map(|_| rng.uniform()).collect();
    let params = Centroids::new(DIM, flat);
    let mut robj = app.init(&params);
    assert_eq!(fold_allocs(&app, &params, &mut robj, &data), 0);
}

#[test]
fn pagerank_folds_without_allocating() {
    const PAGES: u32 = 1_000;
    let mut rng = DetRng::new(3);
    let data = chunk(8, |buf| {
        for rec in buf.chunks_exact_mut(4) {
            let page = (rng.uniform() * PAGES as f64) as u32;
            rec.copy_from_slice(&page.to_le_bytes());
        }
    });
    let app = PageRankApp::new(PAGES);
    let params = RankParams::uniform(Arc::new(vec![3; PAGES as usize]));
    let mut robj = app.init(&params);
    assert_eq!(fold_allocs(&app, &params, &mut robj, &data), 0);
}

#[test]
fn wordcount_folds_without_allocating() {
    let mut rng = DetRng::new(4);
    let data = chunk(8, |buf| {
        for rec in buf.chunks_exact_mut(8) {
            let word = (rng.uniform() * 500.0) as u64;
            rec.copy_from_slice(&word.to_le_bytes());
        }
    });
    let mut robj = WordCountApp.init(&());
    // The first fold inserts the chunk's distinct words into the keyed
    // robj; that growth is the robj's own. Folding the chunk again adds
    // no key, so it must not allocate at all.
    fold_allocs(&WordCountApp, &(), &mut robj, &data);
    assert_eq!(fold_allocs(&WordCountApp, &(), &mut robj, &data), 0);
}

#[test]
fn stats_folds_without_allocating() {
    let mut rng = DetRng::new(5);
    let data = chunk(8, |buf| {
        let readings: Vec<f64> = (0..buf.len() / 8).map(|_| rng.uniform() * 10.0).collect();
        encode_readings(&readings, buf);
    });
    let q = StatsQuery {
        histogram_lo: 0.0,
        histogram_hi: 10.0,
        histogram_bins: 20,
    };
    let mut robj = StatsApp.init(&q);
    assert_eq!(fold_allocs(&StatsApp, &q, &mut robj, &data), 0);
}

/// The sample builds a point only for a key that can still make the
/// bottom-k: about `2k + k ln(n / 2k)` of the `n` points, so allocations
/// grow with k, not with the chunk.
#[test]
fn sample_allocates_per_kept_point_not_per_unit() {
    let mut rng = DetRng::new(6);
    let data = point_chunk(&mut rng);
    for k in [4, 16, 64] {
        let app = SampleApp::new(DIM, k, 9);
        let mut robj = app.init(&());
        let allocs = fold_allocs(&app, &(), &mut robj, &data);
        let n = data.0.units as f64;
        let expected = 2.0 * k as f64 + k as f64 * (n / (2.0 * k as f64)).ln();
        assert!(
            (allocs as f64) < 2.0 * expected,
            "k = {k}: {allocs} allocations for {n} points (expected ~{expected:.0})"
        );
    }
}
