//! Retrieval benchmarks: a split ranged-GET fetch against a
//! wall-clock-throttled remote store (the §III-B "multiple retrieval
//! threads" optimization) and against an unthrottled store (where the
//! store asks for one stream, so the fetch is one GET), each next to the
//! raw `get_range` it replaces, plus raw store throughput.

use bytes::Bytes;
use cb_storage::retrieve::Retriever;
use cb_storage::s3sim::{RemoteProfile, RemoteStore, REMOTE_STREAMS};
use cb_storage::store::{MemStore, ObjectStore};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const OBJ: usize = 4 << 20; // 4 MiB object
const FETCH: u64 = 2 << 20; // 2 MiB fetched per iteration
const CHUNK: u64 = 256 << 10; // one 256 KiB chunk

fn backing() -> Arc<MemStore> {
    let s = Arc::new(MemStore::new("backing"));
    s.put("obj", Bytes::from(vec![0xAB; OBJ])).unwrap();
    s
}

/// Throttled like a fast-ish remote: the per-connection cap makes parallel
/// streams pay off, as on real S3, so the store asks for `REMOTE_STREAMS`.
fn remote() -> RemoteStore {
    RemoteStore::new(
        "bench-remote",
        backing(),
        RemoteProfile {
            request_latency: Duration::from_micros(500),
            aggregate_bps: 4.0e9,
            per_conn_bps: 400.0e6,
        },
    )
}

/// One capped connection against a fetch split over the store's streams.
fn bench_parallel_retrieval(c: &mut Criterion) {
    let store = remote();
    let mut g = c.benchmark_group("remote_fetch_2MiB");
    g.throughput(Throughput::Bytes(FETCH));
    g.sample_size(20);
    g.bench_function("get_range", |b| {
        b.iter(|| black_box(store.get_range("obj", 0, FETCH).unwrap()))
    });
    let r = Retriever::new();
    g.bench_function(BenchmarkId::new("fetch", REMOTE_STREAMS), |b| {
        b.iter(|| black_box(r.fetch(&store, "obj", 0, FETCH).unwrap()))
    });
    g.finish();
}

/// No throttle, so the store asks for one stream: the fetch's cost beyond
/// its one GET is the retry wrapper's.
fn bench_unthrottled_fetch(c: &mut Criterion) {
    let store = backing();
    let mut g = c.benchmark_group("memstore_fetch_256KiB");
    g.throughput(Throughput::Bytes(CHUNK));
    g.bench_function("get_range", |b| {
        b.iter(|| black_box(store.get_range("obj", 0, CHUNK).unwrap()))
    });
    let r = Retriever::new();
    g.bench_function("fetch", |b| {
        b.iter(|| black_box(r.fetch(&*store, "obj", 0, CHUNK).unwrap()))
    });
    g.finish();
}

fn bench_memstore(c: &mut Criterion) {
    let store = backing();
    let mut g = c.benchmark_group("memstore_get_range");
    g.throughput(Throughput::Bytes(FETCH));
    g.bench_function("2MiB", |b| {
        b.iter(|| black_box(store.get_range("obj", 0, FETCH).unwrap()))
    });
    g.finish();
}

fn bench_index_roundtrip(c: &mut Criterion) {
    let layout = cb_storage::organizer::organize_even(32, 30 * 4096, 4096, 8).unwrap();
    let encoded = cb_storage::index::encode(&layout);
    let mut g = c.benchmark_group("index_960_jobs");
    g.bench_function("encode", |b| {
        b.iter(|| black_box(cb_storage::index::encode(&layout)))
    });
    g.bench_function("decode_validate", |b| {
        b.iter(|| black_box(cb_storage::index::decode(&encoded).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parallel_retrieval,
    bench_unthrottled_fetch,
    bench_memstore,
    bench_index_roundtrip
);
criterion_main!(benches);
