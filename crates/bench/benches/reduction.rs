//! Reduction benchmarks: local-reduce rates of the three evaluation
//! applications, timed on the route the runtime runs (`GRApp::fold_chunk`
//! over a chunk's bytes), and merge throughput of the combiner library —
//! the costs the simulator's `ns_per_unit` / `merge_bps` parameters
//! abstract.

use cb_apps::gen::{GraphSpec, PointMode, PointsSpec};
use cb_apps::kmeans::{Centroids, KMeansApp};
use cb_apps::knn::{KnnApp, KnnQuery};
use cb_apps::pagerank::{PageRankApp, RankParams};
use cb_simnet::DetRng;
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{GRApp, ReductionObject};
use cloudburst_core::combine::{KeyedSum, TopK, VecSum};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

/// Every row folds one chunk of this many units.
const UNITS: usize = 20_000;

/// One chunk of `UNITS` points and its bytes.
fn point_chunk(dim: usize, mode: PointMode) -> (ChunkMeta, Vec<u8>) {
    let spec = PointsSpec {
        n_files: 1,
        points_per_file: UNITS,
        points_per_chunk: UNITS,
        dim,
        seed: 1,
        mode,
    };
    let meta = spec.layout().chunks[0];
    let mut buf = vec![0u8; meta.len as usize];
    (spec.fill())(&meta, &mut buf);
    (meta, buf)
}

/// A fresh robj with one chunk folded in, as a slave folds a fetched
/// chunk.
fn fold<A: GRApp>(app: &A, params: &A::Params, meta: &ChunkMeta, bytes: &[u8]) -> A::RObj {
    let mut robj = app.init(params);
    let units = app.fold_chunk(params, &mut robj, meta, bytes);
    assert_eq!(
        units,
        Ok(meta.units),
        "bench chunk disagrees with its index entry"
    );
    robj
}

fn bench_local_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_reduce_per_unit");
    g.throughput(Throughput::Elements(UNITS as u64));

    // knn: 4-d points against a k=1000 TopK.
    let (meta, buf) = point_chunk(4, PointMode::Uniform);
    let knn = KnnApp::new(4, 1000);
    let query = KnnQuery {
        query: vec![0.5; 4],
    };
    g.bench_function("knn_k1000", |b| {
        b.iter(|| black_box(fold(&knn, &query, &meta, &buf).len()))
    });

    // kmeans: the same points against k=100 centroids; 8-d blobs against
    // perfbench kmeans-fold's 16 centroids and the paper's k=1000.
    let blobs = point_chunk(
        8,
        PointMode::Blobs {
            centers: 16,
            spread: 0.5,
        },
    );
    for (name, dim, k, (meta, buf)) in [
        ("kmeans_k100", 4, 100, (meta, buf)),
        ("kmeans_d8_k16", 8, 16, blobs.clone()),
        ("kmeans_d8_k1000", 8, 1000, blobs),
    ] {
        let km = KMeansApp::new(dim, k);
        let mut rng = DetRng::new(2);
        let centroids = Centroids::new(dim, (0..k * dim).map(|_| rng.uniform() * 10.0).collect());
        g.bench_function(name, |b| {
            b.iter(|| black_box(fold(&km, &centroids, &meta, &buf).values()[0]))
        });
    }

    // pagerank: 20k edges against a 100k-page rank vector.
    let gspec = GraphSpec {
        n_pages: 100_000,
        n_files: 1,
        edges_per_file: UNITS,
        edges_per_chunk: UNITS,
        seed: 3,
    };
    let glayout = gspec.layout();
    let pr = PageRankApp::new(gspec.n_pages);
    let params = RankParams::uniform(Arc::new({
        let mut d = gspec.out_degrees(&glayout);
        // Avoid zero-degree sources in the bench inner loop.
        for x in d.iter_mut() {
            *x = (*x).max(1);
        }
        d
    }));
    let gmeta = glayout.chunks[0];
    let mut gbuf = vec![0u8; gmeta.len as usize];
    (gspec.fill())(&gmeta, &mut gbuf);
    g.bench_function("pagerank_100k_pages", |b| {
        b.iter(|| black_box(fold(&pr, &params, &gmeta, &gbuf).values()[0]))
    });

    // pagerank at perfbench's 2M pages: the 16 MB robj and the 16 MB
    // per-page array each edge reads are past a 2 MiB L2, where the 100k
    // row's 0.8 MB fit. One robj takes chunk after chunk, as a slave's
    // does, cycling through 16 chunks.
    let big = GraphSpec {
        n_pages: 2_000_000,
        n_files: 1,
        edges_per_file: 16 * UNITS,
        edges_per_chunk: UNITS,
        seed: 4,
    };
    let big_layout = big.layout();
    let big_pr = PageRankApp::new(big.n_pages);
    let big_params = RankParams::uniform(Arc::new(big.out_degrees(&big_layout)));
    let big_chunks: Vec<(ChunkMeta, Vec<u8>)> = big_layout
        .chunks
        .iter()
        .map(|meta| {
            let mut buf = vec![0u8; meta.len as usize];
            (big.fill())(meta, &mut buf);
            (*meta, buf)
        })
        .collect();
    let mut robj = big_pr.init(&big_params);
    let mut next = big_chunks.iter().cycle();
    g.sample_size(3 * big_chunks.len());
    g.bench_function("pagerank_2m_pages", |b| {
        b.iter(|| {
            let (meta, buf) = next.next().expect("a cycle never ends");
            let units = big_pr.fold_chunk(&big_params, &mut robj, meta, buf);
            assert_eq!(units, Ok(meta.units));
            black_box(robj.values()[0])
        })
    });
    g.finish();

    // The per-pass cost of a pagerank pass's params at 2M pages: an
    // iterating driver builds them once per pass.
    let mut g = c.benchmark_group("pagerank_params");
    g.throughput(Throughput::Elements(big.n_pages as u64));
    let ranks = Arc::new(vec![1.0 / big.n_pages as f64; big.n_pages as usize]);
    let out_degree = Arc::clone(big_params.out_degree());
    g.bench_function("new_2m_pages", |b| {
        b.iter(|| {
            let p = RankParams::new(Arc::clone(&ranks), Arc::clone(&out_degree));
            black_box(p.shares()[0])
        })
    });
    g.finish();
}

fn bench_merges(c: &mut Criterion) {
    let mut g = c.benchmark_group("robj_merge");

    // VecSum at pagerank scale (the 300 MB robj, scaled to 8 MB).
    let n = 1_000_000;
    let a = VecSum::from_vec(vec![1.0; n]);
    let b2 = VecSum::from_vec(vec![2.0; n]);
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("vecsum_1M_f64", |bch| {
        bch.iter(|| {
            let mut x = a.clone();
            x.merge(b2.clone());
            black_box(x.values()[0])
        })
    });

    // TopK merge (knn's global reduction).
    let mut rng = DetRng::new(9);
    let mk = |rng: &mut DetRng| {
        let mut t = TopK::new(1000);
        for i in 0..10_000u64 {
            t.offer(rng.uniform(), i);
        }
        t
    };
    let t1 = mk(&mut rng);
    let t2 = mk(&mut rng);
    g.bench_function("topk_1000_merge", |bch| {
        bch.iter(|| {
            let mut x = t1.clone();
            x.merge(t2.clone());
            black_box(x.len())
        })
    });

    // KeyedSum merge (wordcount global reduction).
    let mk_ks = |salt: u64| {
        let mut k = KeyedSum::new();
        let mut rng = DetRng::new(salt);
        for _ in 0..50_000 {
            k.add(rng.index(10_000) as u64, 1.0);
        }
        k
    };
    let k1 = mk_ks(1);
    let k2 = mk_ks(2);
    g.bench_function("keyedsum_10k_keys_merge", |bch| {
        bch.iter(|| {
            let mut x = k1.clone();
            x.merge(k2.clone());
            black_box(x.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_local_reduce, bench_merges);
criterion_main!(benches);
